//! Processor-sharing CPU model.
//!
//! A [`PsCpu`] models one physical core on which any number of runnable
//! tasks (vCPU compute bursts, hypervisor helper threads...) execute under
//! ideal processor sharing: with `n` runnable tasks each receives `1/n` of
//! the core. This is the textbook fluid approximation of a fair scheduler
//! with a small quantum (CFS, `SCHED_OTHER`) and is what makes the
//! *overcommit* baselines of the paper cheap to reproduce: four vCPUs
//! consolidated on one pCPU each progress at a quarter speed, and aggregate
//! throughput is flat no matter the vCPU count (Figure 5).
//!
//! Because completions depend on future load, a scheduled completion event
//! may be invalidated by later arrivals. The model therefore hands out an
//! *epoch* with every prediction; the event loop passes it back on expiry
//! and stale epochs are ignored. On every load change the caller re-asks
//! for [`PsCpu::next_completion`] and schedules a fresh event.

use crate::time::SimTime;
use crate::trace::{TraceEvent, Tracer};

/// Completion-work remainder below which a task is considered done.
///
/// Remaining work is tracked in fractional nanoseconds; rounding across
/// re-scalings can leave a sliver behind.
const EPSILON_NS: f64 = 1e-3;

/// A prediction of the next task completion on this CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Task that will finish first.
    pub task: u64,
    /// Absolute time at which it finishes, under the current load.
    pub at: SimTime,
    /// Epoch to pass back to [`PsCpu::on_completion_event`].
    pub epoch: u64,
}

/// A processor-sharing CPU.
#[derive(Debug, Clone)]
pub struct PsCpu {
    /// Nominal speed multiplier (1.0 = reference core).
    speed: f64,
    /// Permanently-runnable background load in task-equivalents
    /// (e.g. GiantVM helper threads pinned to the same pCPU).
    background: f64,
    /// Remaining *dedicated* work per task, in nanoseconds of
    /// reference-core time. Kept sorted by task id — the handful of tasks
    /// a core ever runs makes a flat vector both faster (no per-insert
    /// allocation) and as deterministic as the `BTreeMap` it replaced.
    tasks: Vec<(u64, f64)>,
    /// Time of the last state update.
    last: SimTime,
    /// Bumped on every load change; stale completion events carry old epochs.
    epoch: u64,
    /// Total reference-core nanoseconds of useful work delivered.
    delivered_ns: f64,
    /// Total virtual nanoseconds during which at least one task was runnable.
    busy_ns: f64,
    /// Structured trace sink (disabled by default).
    tracer: Tracer,
    /// Id this CPU reports in trace events.
    trace_id: u32,
}

impl PsCpu {
    /// Creates an idle CPU with the given speed multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not strictly positive.
    pub fn new(speed: f64) -> Self {
        assert!(speed > 0.0, "CPU speed must be positive");
        PsCpu {
            speed,
            background: 0.0,
            tasks: Vec::new(),
            last: SimTime::ZERO,
            epoch: 0,
            delivered_ns: 0.0,
            busy_ns: 0.0,
            tracer: Tracer::disabled(),
            trace_id: 0,
        }
    }

    /// Attaches a trace sink; this CPU's events will report `id`.
    pub fn attach_tracer(&mut self, tracer: Tracer, id: u32) {
        self.tracer = tracer;
        self.trace_id = id;
    }

    /// Sets a permanent background load (in runnable task-equivalents).
    ///
    /// Used to model hypervisor helper threads that steal cycles from the
    /// vCPU sharing the core (the paper observes exactly this for GiantVM).
    pub fn set_background_load(&mut self, now: SimTime, load: f64) {
        assert!(load >= 0.0, "background load must be non-negative");
        self.advance(now);
        self.background = load;
        self.epoch += 1;
    }

    /// Current number of runnable tasks (excluding background load).
    pub fn runnable(&self) -> usize {
        self.tasks.len()
    }

    /// Total useful work delivered so far, in reference nanoseconds.
    pub fn delivered(&self) -> SimTime {
        // Round, don't truncate: fractional nanoseconds accumulate across
        // re-scalings and truncation would leak up to 1 ns per read.
        SimTime::from_nanos(self.delivered_ns.round() as u64)
    }

    /// Total time the CPU was non-idle, as of the last update.
    pub fn busy(&self) -> SimTime {
        SimTime::from_nanos(self.busy_ns.round() as u64)
    }

    /// Instantaneous per-task speed under the current load.
    fn per_task_speed(&self) -> f64 {
        let n = self.tasks.len() as f64 + self.background;
        if n <= 0.0 {
            0.0
        } else {
            self.speed / n
        }
    }

    /// Applies progress between `self.last` and `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.last, "PsCpu time went backwards");
        let elapsed = (now - self.last).as_nanos() as f64;
        self.last = now;
        if elapsed == 0.0 || self.tasks.is_empty() {
            return;
        }
        let rate = self.per_task_speed();
        let progress = elapsed * rate;
        self.busy_ns += elapsed;
        self.delivered_ns += progress * self.tasks.len() as f64;
        for (_, rem) in self.tasks.iter_mut() {
            *rem -= progress;
        }
    }

    /// Adds a task with `work` reference-core time remaining; returns the
    /// new completion prediction.
    ///
    /// # Panics
    ///
    /// Panics if the task is already present.
    #[allow(clippy::panic)] // documented contract: adding a duplicate task is a caller bug
    #[inline]
    pub fn add(&mut self, now: SimTime, task: u64, work: SimTime) -> Completion {
        self.advance(now);
        match self.tasks.binary_search_by_key(&task, |&(t, _)| t) {
            Ok(_) => panic!("task {task} already on CPU"),
            Err(pos) => self.tasks.insert(pos, (task, work.as_nanos() as f64)),
        }
        self.epoch += 1;
        self.tracer.emit_with(|| TraceEvent::CpuAdd {
            at: now.as_nanos(),
            cpu: self.trace_id,
            task,
            work_ns: work.as_nanos(),
        });
        // Solo-task fast path: a lone burst on an unloaded reference core
        // finishes exactly `work` later. This is the steady state of every
        // dedicated-pCPU vCPU, and skipping the general scan + division
        // shaves a measurable slice off the per-dispatch cost. The result
        // is bit-identical to the general path (`ceil(w / 1.0) == w`).
        if self.tasks.len() == 1 && self.background == 0.0 && self.speed == 1.0 {
            return Completion {
                task,
                at: now + work,
                epoch: self.epoch,
            };
        }
        self.next_completion()
            .expect("just added a task; a completion must exist")
    }

    /// Removes a task (e.g. it migrated away or blocked on I/O); returns the
    /// work it still had left.
    ///
    /// # Panics
    ///
    /// Panics if the task is not present.
    #[allow(clippy::panic)] // documented contract: cancelling an absent task is a caller bug
    pub fn cancel(&mut self, now: SimTime, task: u64) -> SimTime {
        self.advance(now);
        let rem = match self.tasks.binary_search_by_key(&task, |&(t, _)| t) {
            Ok(pos) => self.tasks.remove(pos).1,
            Err(_) => panic!("task {task} not on CPU"),
        };
        self.epoch += 1;
        let rounded = rem.max(0.0).round() as u64;
        self.tracer.emit_with(|| TraceEvent::CpuCancel {
            at: now.as_nanos(),
            cpu: self.trace_id,
            task,
            rem_ns: rounded,
            delivered_ns: self.delivered_ns.round() as u64,
            busy_ns: self.busy_ns.round() as u64,
            speed: self.speed,
        });
        SimTime::from_nanos(rounded)
    }

    /// Predicts the next completion under the current load.
    #[inline]
    pub fn next_completion(&self) -> Option<Completion> {
        let rate = self.per_task_speed();
        if rate <= 0.0 {
            return None;
        }
        // Ascending-task-id iteration makes ties deterministic (the first
        // minimum wins, as with the former `BTreeMap` storage).
        let &(task, rem) = self
            .tasks
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN work"))?;
        let delta_ns = (rem.max(0.0) / rate).ceil() as u64;
        Some(Completion {
            task,
            at: self.last + SimTime::from_nanos(delta_ns),
            epoch: self.epoch,
        })
    }

    /// Handles an expiring completion event.
    ///
    /// Returns the identifiers of every task that has (now) finished, or an
    /// empty vector if `epoch` is stale — in which case the caller simply
    /// drops the event (a fresher one is already queued).
    pub fn on_completion_event(&mut self, now: SimTime, epoch: u64) -> Vec<u64> {
        let mut done = Vec::new();
        self.on_completion_event_into(now, epoch, &mut done);
        done
    }

    /// Like [`PsCpu::on_completion_event`], but appends finished task ids
    /// to a caller-owned buffer — the event loop reuses one allocation
    /// across every completion instead of allocating per event.
    pub fn on_completion_event_into(&mut self, now: SimTime, epoch: u64, done: &mut Vec<u64>) {
        if epoch != self.epoch {
            return;
        }
        self.advance(now);
        let before = done.len();
        self.tasks.retain(|&(t, rem)| {
            if rem > EPSILON_NS {
                return true;
            }
            done.push(t);
            false
        });
        if done.len() > before {
            for &t in &done[before..] {
                self.tracer.emit_with(|| TraceEvent::CpuDone {
                    at: now.as_nanos(),
                    cpu: self.trace_id,
                    task: t,
                    delivered_ns: self.delivered_ns.round() as u64,
                    busy_ns: self.busy_ns.round() as u64,
                    speed: self.speed,
                });
            }
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn single_task_runs_at_full_speed() {
        let mut cpu = PsCpu::new(1.0);
        let c = cpu.add(SimTime::ZERO, 1, us(100));
        assert_eq!(c.at, us(100));
        let done = cpu.on_completion_event(c.at, c.epoch);
        assert_eq!(done, vec![1]);
        assert_eq!(cpu.runnable(), 0);
    }

    #[test]
    fn two_tasks_share_the_core() {
        let mut cpu = PsCpu::new(1.0);
        let _ = cpu.add(SimTime::ZERO, 1, us(100));
        let c = cpu.add(SimTime::ZERO, 2, us(100));
        // Both need 100us of dedicated time at half speed => 200us.
        assert_eq!(c.at, us(200));
        let done = cpu.on_completion_event(c.at, c.epoch);
        let mut done = done;
        done.sort_unstable();
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn late_arrival_slows_existing_task() {
        let mut cpu = PsCpu::new(1.0);
        let c1 = cpu.add(SimTime::ZERO, 1, us(100));
        assert_eq!(c1.at, us(100));
        // At t=50us task 1 has 50us left; a second task arrives.
        let c2 = cpu.add(us(50), 2, us(100));
        // Task 1 finishes first: 50us left at half speed => t=150us.
        assert_eq!(c2.task, 1);
        assert_eq!(c2.at, us(150));
        // The original completion event is now stale.
        assert!(cpu.on_completion_event(us(100), c1.epoch).is_empty());
        let done = cpu.on_completion_event(c2.at, c2.epoch);
        assert_eq!(done, vec![1]);
        // Task 2 ran at half speed from t=50 to t=150 (50us done), so 50us
        // remain at full speed => t=200us.
        let c3 = cpu.next_completion().unwrap();
        assert_eq!(c3.task, 2);
        assert_eq!(c3.at, us(200));
    }

    #[test]
    fn cancel_returns_remaining_work() {
        let mut cpu = PsCpu::new(1.0);
        let _ = cpu.add(SimTime::ZERO, 1, us(100));
        let rem = cpu.cancel(us(40), 1);
        assert_eq!(rem, us(60));
        assert_eq!(cpu.runnable(), 0);
        assert!(cpu.next_completion().is_none());
    }

    #[test]
    fn speed_scales_latency() {
        let mut cpu = PsCpu::new(2.0);
        let c = cpu.add(SimTime::ZERO, 1, us(100));
        assert_eq!(c.at, us(50));
    }

    #[test]
    fn background_load_steals_cycles() {
        let mut cpu = PsCpu::new(1.0);
        cpu.set_background_load(SimTime::ZERO, 1.0);
        let c = cpu.add(SimTime::ZERO, 1, us(100));
        // One task + one background equivalent => half speed.
        assert_eq!(c.at, us(200));
    }

    #[test]
    fn overcommit_throughput_is_flat() {
        // N tasks of equal work on one core finish at N * work regardless
        // of N — aggregate throughput is constant (paper Figure 5).
        for n in 1..=4u64 {
            let mut cpu = PsCpu::new(1.0);
            let mut last = None;
            for t in 0..n {
                last = Some(cpu.add(SimTime::ZERO, t, us(100)));
            }
            assert_eq!(last.unwrap().at, us(100 * n));
        }
    }

    #[test]
    fn utilization_accounting() {
        let mut cpu = PsCpu::new(1.0);
        let c = cpu.add(us(10), 1, us(100));
        let _ = cpu.on_completion_event(c.at, c.epoch);
        cpu.advance(us(200));
        assert_eq!(cpu.busy(), us(100));
        assert_eq!(cpu.delivered(), us(100));
    }

    #[test]
    fn cancel_after_uneven_share_rounds_to_nearest() {
        let mut cpu = PsCpu::new(1.0);
        let _ = cpu.add(SimTime::ZERO, 1, SimTime::from_nanos(100));
        let _ = cpu.add(SimTime::ZERO, 2, SimTime::from_nanos(100));
        let _ = cpu.add(SimTime::ZERO, 3, SimTime::from_nanos(100));
        // 10ns of 3-way sharing delivers 3⅓ns per task, leaving 96⅔ns.
        // Nearest nanosecond is 97; truncation used to report 96.
        let rem = cpu.cancel(SimTime::from_nanos(10), 1);
        assert_eq!(rem, SimTime::from_nanos(97));
    }

    #[test]
    fn accounting_rounds_accumulated_tiny_slices() {
        // Accumulate thousands of 1ns slices that each deliver a fractional
        // amount of work (⅔ns: one task + 0.5 background load). The running
        // f64 total lands a hair under the exact value, and the old `as u64`
        // truncation reported one nanosecond short.
        let mut cpu = PsCpu::new(1.0);
        cpu.set_background_load(SimTime::ZERO, 0.5);
        let _ = cpu.add(SimTime::ZERO, 1, us(10));
        let mut now = SimTime::ZERO;
        for _ in 0..3000 {
            now += SimTime::from_nanos(1);
            cpu.advance(now);
        }
        assert_eq!(cpu.delivered(), SimTime::from_nanos(2000));
        assert_eq!(cpu.busy(), SimTime::from_nanos(3000));
    }

    #[test]
    #[should_panic(expected = "already on CPU")]
    fn duplicate_add_panics() {
        let mut cpu = PsCpu::new(1.0);
        let _ = cpu.add(SimTime::ZERO, 1, us(10));
        let _ = cpu.add(SimTime::ZERO, 1, us(10));
    }

    #[test]
    fn fractional_sharing_three_tasks() {
        let mut cpu = PsCpu::new(1.0);
        let _ = cpu.add(SimTime::ZERO, 1, us(30));
        let _ = cpu.add(SimTime::ZERO, 2, us(60));
        let c = cpu.add(SimTime::ZERO, 3, us(90));
        // Task 1: 30us at 1/3 speed => done at 90us.
        assert_eq!(c.task, 1);
        assert_eq!(c.at, us(90));
        let done = cpu.on_completion_event(c.at, c.epoch);
        assert_eq!(done, vec![1]);
        // Then 2 has 30us left at 1/2 speed => 150us.
        let c = cpu.next_completion().unwrap();
        assert_eq!((c.task, c.at), (2, us(150)));
        let done = cpu.on_completion_event(c.at, c.epoch);
        assert_eq!(done, vec![2]);
        // Then 3 has 30us left at full speed => 180us.
        let c = cpu.next_completion().unwrap();
        assert_eq!((c.task, c.at), (3, us(180)));
    }
}
