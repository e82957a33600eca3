//! The discrete-event engine.
//!
//! An [`Engine`] owns a time-ordered [`EventQueue`] and repeatedly delivers
//! the earliest event to a [`World`] implementation. Handlers receive a
//! [`Ctx`] through which they may schedule further events. Ties are broken
//! by insertion order (a monotonically increasing sequence number), which —
//! together with [`crate::rng::DetRng`] — makes runs fully deterministic.
//!
//! The queue runs on a calendar/ladder structure by default
//! (`crate::calendar`); the original `BinaryHeap` survives as
//! [`EventQueue::reference_heap`] for A/B comparison and differential
//! testing. Both produce the same pop order by construction.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::calendar::CalendarQueue;
use crate::time::SimTime;

/// A world that reacts to events of type `Self::Event`.
pub trait World {
    /// The event type delivered by the engine.
    type Event;

    /// Handles a single event at virtual time `ctx.now`.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, ev: Self::Event);
}

/// Handler context: the current virtual time plus scheduling access.
pub struct Ctx<'a, E> {
    /// The virtual time of the event being handled.
    pub now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> Ctx<'_, E> {
    /// Schedules `ev` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — events cannot be
    /// scheduled in the past.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        assert!(at >= self.now, "event scheduled in the past");
        self.queue.push(at, ev);
    }

    /// Schedules `ev` after a relative delay `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, ev: E) {
        self.queue.push(self.now + delay, ev);
    }

    /// Schedules `ev` at the current instant (delivered after the current
    /// handler returns and before any later event).
    #[inline]
    pub fn schedule_now(&mut self, ev: E) {
        self.queue.push(self.now, ev);
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

pub(crate) struct Scheduled<E> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) ev: E,
}

impl<E> Scheduled<E> {
    /// The pop-priority key: earliest time first, then insertion order.
    /// All comparison impls derive from this tuple so the payload can
    /// never leak into the ordering.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so a `BinaryHeap` (a max-heap) pops the smallest key.
        other.key().cmp(&self.key())
    }
}

/// The queue backend: the calendar structure by default, with the
/// original `BinaryHeap` kept as a reference implementation for A/B
/// benchmarking and differential tests.
enum QueueImpl<E> {
    Calendar(CalendarQueue<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

/// A time-ordered queue of pending events.
///
/// # Ordering contract (public)
///
/// Events pop in ascending `(time, insertion order)`: among events with
/// equal timestamps, the one pushed first pops first (FIFO). Simulations
/// rely on this for determinism; both backends uphold it and the
/// differential proptest in `tests/proptest_queue.rs` enforces it.
pub struct EventQueue<E> {
    imp: QueueImpl<E>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (calendar backend).
    pub fn new() -> Self {
        EventQueue {
            imp: QueueImpl::Calendar(CalendarQueue::new()),
            seq: 0,
        }
    }

    /// Creates an empty queue pre-sized for `cap` pending events, so bulk
    /// loads (e.g. a datacenter trace's arrivals) skip heap regrowth.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            imp: QueueImpl::Calendar(CalendarQueue::with_capacity(cap)),
            seq: 0,
        }
    }

    /// Creates an empty queue that switches from pure-heap to calendar
    /// mode at `threshold` pending events instead of the built-in default
    /// (2048). `0` calendarizes on the very first push. Pop order is
    /// identical regardless of the threshold; only the bookkeeping
    /// crossover point moves, so figure-scale VMs and fleet-scale engines
    /// can be tuned independently.
    pub fn with_calendar_threshold(threshold: usize) -> Self {
        EventQueue {
            imp: QueueImpl::Calendar(CalendarQueue::with_threshold(threshold)),
            seq: 0,
        }
    }

    /// Creates an empty queue on the reference `BinaryHeap` backend.
    /// Pop order is identical to [`EventQueue::new`]; this exists for A/B
    /// benchmarking and differential testing.
    pub fn reference_heap() -> Self {
        EventQueue {
            imp: QueueImpl::Heap(BinaryHeap::new()),
            seq: 0,
        }
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.imp {
            QueueImpl::Calendar(c) => c.reserve(additional),
            QueueImpl::Heap(h) => h.reserve(additional),
        }
    }

    /// Pushes `ev` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        let s = Scheduled { at, seq, ev };
        match &mut self.imp {
            QueueImpl::Calendar(c) => c.push(s),
            QueueImpl::Heap(h) => h.push(s),
        }
    }

    /// Pops the earliest event, if any (FIFO among equal timestamps).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.imp {
            QueueImpl::Calendar(c) => c.pop(),
            QueueImpl::Heap(h) => h.pop(),
        }
        .map(|s| (s.at, s.ev))
    }

    /// Returns the timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.imp {
            QueueImpl::Calendar(c) => c.peek(),
            QueueImpl::Heap(h) => h.peek(),
        }
        .map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Calendar(c) => c.len(),
            QueueImpl::Heap(h) => h.len(),
        }
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The deterministic event loop.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            delivered: 0,
        }
    }

    /// Creates an engine whose queue is pre-sized for `cap` pending
    /// events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(cap: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(cap),
            delivered: 0,
        }
    }

    /// Creates an engine on the reference `BinaryHeap` queue backend (see
    /// [`EventQueue::reference_heap`]) — for A/B benchmarking only; pop
    /// order is identical to [`Engine::new`].
    pub fn reference_heap() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::reference_heap(),
            delivered: 0,
        }
    }

    /// Creates an engine whose queue calendarizes at `threshold` pending
    /// events (see [`EventQueue::with_calendar_threshold`]).
    pub fn with_calendar_threshold(threshold: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_calendar_threshold(threshold),
            delivered: 0,
        }
    }

    /// The current virtual time (timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timestamp of the earliest pending event (`None` when idle).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedules an initial event at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        self.queue.push(at, ev);
    }

    /// Schedules an initial event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, ev: E) {
        self.queue.push(self.now + delay, ev);
    }

    /// Creates a scheduling context at the current time, for injecting
    /// work from outside an event handler (e.g. an external controller
    /// issuing a migration command between engine steps).
    pub fn external_ctx(&mut self) -> Ctx<'_, E> {
        Ctx {
            now: self.now,
            queue: &mut self.queue,
        }
    }

    /// Delivers a single event; returns false when the queue is empty.
    #[inline]
    pub fn step<W: World<Event = E>>(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            Some((at, ev)) => {
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                self.delivered += 1;
                let mut ctx = Ctx {
                    now: at,
                    queue: &mut self.queue,
                };
                world.handle(&mut ctx, ev);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains or `until` is passed; returns the number
    /// of events delivered.
    ///
    /// Events with timestamps strictly greater than `until` remain queued.
    pub fn run_until<W: World<Event = E>>(&mut self, world: &mut W, until: SimTime) -> u64 {
        let start = self.delivered;
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step(world);
        }
        // Advance the clock to the horizon even if the queue drained early,
        // so that repeated bounded runs observe monotonic time.
        if self.now < until {
            self.now = until;
        }
        self.delivered - start
    }

    /// Runs until the event queue is completely empty.
    pub fn run_to_completion<W: World<Event = E>>(&mut self, world: &mut W) -> u64 {
        let start = self.delivered;
        while self.step(world) {}
        self.delivered - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
    }

    struct Recorder {
        log: Vec<(SimTime, u32)>,
        bounce: bool,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Ping(n) => {
                    self.log.push((ctx.now, n));
                    if self.bounce && n < 3 {
                        ctx.schedule_in(SimTime::from_micros(10), Ev::Ping(n + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_micros(30), Ev::Ping(3));
        eng.schedule_at(SimTime::from_micros(10), Ev::Ping(1));
        eng.schedule_at(SimTime::from_micros(20), Ev::Ping(2));
        let mut w = Recorder {
            log: vec![],
            bounce: false,
        };
        eng.run_to_completion(&mut w);
        assert_eq!(
            w.log,
            vec![
                (SimTime::from_micros(10), 1),
                (SimTime::from_micros(20), 2),
                (SimTime::from_micros(30), 3)
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng = Engine::new();
        let t = SimTime::from_micros(5);
        eng.schedule_at(t, Ev::Ping(1));
        eng.schedule_at(t, Ev::Ping(2));
        eng.schedule_at(t, Ev::Ping(3));
        let mut w = Recorder {
            log: vec![],
            bounce: false,
        };
        eng.run_to_completion(&mut w);
        let order: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    /// The public FIFO contract: same-time pushes pop in insertion order,
    /// on both backends, including after events in between.
    #[test]
    fn fifo_tie_break_is_a_public_contract() {
        for mut q in [EventQueue::new(), EventQueue::reference_heap()] {
            let t = SimTime::from_micros(7);
            q.push(t, "first");
            q.push(SimTime::from_micros(3), "early");
            q.push(t, "second");
            q.push(t, "third");
            assert_eq!(q.pop(), Some((SimTime::from_micros(3), "early")));
            assert_eq!(q.pop(), Some((t, "first")));
            assert_eq!(q.pop(), Some((t, "second")));
            assert_eq!(q.pop(), Some((t, "third")));
            assert_eq!(q.pop(), None);
        }
    }

    /// Push enough events to flip the calendar out of pure-heap mode and
    /// spread them far enough apart to exercise buckets and the overflow
    /// ladder; pops must come out sorted by (time, seq).
    #[test]
    fn calendar_mode_pops_sorted_under_wide_spread() {
        let mut q = EventQueue::with_capacity(8192);
        // Deterministic scatter: times jump around a multi-second span
        // with same-time bursts every 16th push.
        let mut t: u64 = 0;
        for i in 0..8192u64 {
            if i % 16 != 0 {
                t = (t.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i)) % 5_000_000_000;
            }
            q.push(SimTime(t), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        let mut prev_payload_at: Option<(SimTime, u64)> = None;
        while let Some((at, payload)) = q.pop() {
            assert!(at >= last.0, "time went backwards at pop {n}");
            if let Some((pat, pseq)) = prev_payload_at {
                if pat == at {
                    assert!(payload > pseq, "FIFO violated within a tie");
                }
            }
            prev_payload_at = Some((at, payload));
            last = (at, payload);
            n += 1;
        }
        assert_eq!(n, 8192);
    }

    /// Threshold 0 calendarizes on the first push; pop order must still
    /// match the reference heap exactly, including FIFO ties.
    #[test]
    fn always_calendar_threshold_matches_reference_heap() {
        let mut cal = EventQueue::with_calendar_threshold(0);
        let mut heap = EventQueue::reference_heap();
        let mut t: u64 = 3;
        for round in 0..32u64 {
            for i in 0..50u64 {
                if i % 8 != 0 {
                    t = (t.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i)) % 2_000_000_000;
                }
                let payload = round * 1000 + i;
                cal.push(SimTime(t), payload);
                heap.push(SimTime(t), payload);
            }
            for _ in 0..30 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }

    /// A non-default threshold trips exactly at the configured occupancy
    /// and keeps the FIFO tie contract intact afterwards.
    #[test]
    fn custom_calendar_threshold_preserves_fifo() {
        let mut q = EventQueue::with_calendar_threshold(4);
        let t = SimTime::from_micros(9);
        for i in 0..16u64 {
            q.push(t, i);
        }
        for i in 0..16u64 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Mini differential check: interleaved pushes and pops on the
    /// calendar backend match the reference heap pop-for-pop (the full
    /// randomized version lives in `tests/proptest_queue.rs`).
    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        let mut cal = EventQueue::new();
        let mut heap = EventQueue::reference_heap();
        let mut t: u64 = 1;
        for round in 0..64u64 {
            for i in 0..100u64 {
                t = (t.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(i)) % 1_000_000_000;
                let payload = round * 1000 + i;
                cal.push(SimTime(t), payload);
                heap.push(SimTime(t), payload);
            }
            for _ in 0..60 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Ping(1));
        let mut w = Recorder {
            log: vec![],
            bounce: true,
        };
        eng.run_to_completion(&mut w);
        assert_eq!(w.log.len(), 3);
        assert_eq!(w.log[2].0, SimTime::from_micros(20));
        assert_eq!(eng.delivered(), 3);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_micros(10), Ev::Ping(1));
        eng.schedule_at(SimTime::from_micros(50), Ev::Ping(2));
        let mut w = Recorder {
            log: vec![],
            bounce: false,
        };
        let n = eng.run_until(&mut w, SimTime::from_micros(20));
        assert_eq!(n, 1);
        assert_eq!(eng.now(), SimTime::from_micros(20));
        let n = eng.run_until(&mut w, SimTime::from_micros(100));
        assert_eq!(n, 1);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn schedule_now_runs_before_later_events() {
        struct Now {
            log: Vec<u32>,
        }
        impl World for Now {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Ctx<'_, u32>, ev: u32) {
                self.log.push(ev);
                if ev == 1 {
                    ctx.schedule_now(2);
                }
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_micros(1), 1u32);
        eng.schedule_at(SimTime::from_micros(2), 9u32);
        let mut w = Now { log: vec![] };
        eng.run_to_completion(&mut w);
        assert_eq!(w.log, vec![1, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut Ctx<'_, ()>, _ev: ()) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_micros(10), ());
        eng.run_to_completion(&mut Bad);
    }
}
