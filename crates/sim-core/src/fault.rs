//! Deterministic fault plans: node crashes, network partitions, link
//! degradation, and message drop/duplication scheduled against simulated
//! time.
//!
//! A [`FaultPlan`] is pure data — a script of crashes, partition windows,
//! and link-degradation windows — plus the seed every in-run random draw
//! derives from. The same plan driven through the same simulation produces
//! a bit-identical event sequence: the [`FaultInjector`] consumes its
//! [`DetRng`] stream only on sends that hit an active degradation window
//! (partition verdicts are draw-free), and the send order itself is
//! deterministic, so loss/duplication verdicts replay exactly.
//!
//! The plan is interpreted by two consumers:
//!
//! * `comm::Fabric` holds a [`FaultInjector`] and consults it on every
//!   send (crashed endpoints, severed partitions, loss, duplication,
//!   added latency). A send crossing an active partition cut is dropped
//!   with certainty, *before* any degradation window is consulted, so
//!   partitions never perturb the degradation draw stream.
//! * The hypervisor schedules one crash event per [`CrashFault`] and one
//!   begin/end event pair per [`PartitionFault`] against the simulation
//!   clock, and runs its failure detector / recovery / rejoin paths.
//!
//! The monitor/bootstrap node (node 0 by convention; configurable in the
//! hypervisor's `FailureConfig`) hosts the failure detector, so
//! [`FaultPlan::seeded`] and [`FaultPlan::chaotic`] never crash or
//! partition it — a cut-off monitor would mass-declare every peer dead,
//! which needs a quorum protocol this model deliberately leaves out.

use crate::rng::DetRng;
use crate::time::SimTime;

/// A scheduled fail-stop crash of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The node that fails.
    pub node: u32,
    /// Simulated time of the failure. From this instant the node neither
    /// sends nor receives; sends touching it time out.
    pub at: SimTime,
}

/// A window of degradation on one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Sending node of the degraded link.
    pub src: u32,
    /// Receiving node of the degraded link.
    pub dst: u32,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-message drop probability in `[0, 1]`.
    pub loss: f64,
    /// Per-delivered-message duplication probability in `[0, 1]`.
    pub duplication: f64,
    /// Extra wire occupancy charged to every message in the window
    /// (modeling link-level retransmission under noise).
    pub extra_latency: SimTime,
}

impl LinkFault {
    /// Whether this window is active at `now` for the given directed link.
    #[inline]
    pub fn covers(&self, src: u32, dst: u32, now: SimTime) -> bool {
        self.src == src && self.dst == dst && self.from <= now && now < self.until
    }
}

/// A window during which a set of nodes is cut off from the rest of the
/// fabric.
///
/// Traffic wholly inside the minority set — and wholly outside it —
/// still flows; any send crossing the cut is dropped with certainty.
/// Partition verdicts are pure functions of the plan (no random draws),
/// so adding a partition to a plan never shifts the loss/duplication
/// stream of its degradation windows.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionFault {
    /// The minority side of the cut (the isolated node set).
    pub nodes: Vec<u32>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); the partition heals at this instant.
    pub until: SimTime,
}

impl PartitionFault {
    /// Whether the partition is active at `now`.
    #[inline]
    pub fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    /// Whether `node` is on the isolated side.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.contains(&node)
    }

    /// Whether a `src -> dst` send at `now` crosses this cut.
    #[inline]
    pub fn severs(&self, src: u32, dst: u32, now: SimTime) -> bool {
        self.active(now) && (self.contains(src) != self.contains(dst))
    }
}

/// A deterministic, replayable schedule of faults.
///
/// Build one explicitly (`scripted` + [`FaultPlan::crash`] /
/// [`FaultPlan::partition`] / [`FaultPlan::degrade_link`]) or derive one
/// from a seed ([`FaultPlan::seeded`], [`FaultPlan::chaotic`]). Either
/// way the plan is plain data; cloning it and replaying against the same
/// simulation reproduces the identical trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<CrashFault>,
    links: Vec<LinkFault>,
    partitions: Vec<PartitionFault>,
}

impl FaultPlan {
    /// An empty plan; faults are added with [`FaultPlan::crash`],
    /// [`FaultPlan::partition`] and [`FaultPlan::degrade_link`]. `seed`
    /// feeds the per-message loss/duplication draws.
    pub fn scripted(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            links: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Generates a plan from `seed`: one crash on a random non-monitor
    /// node in the middle half of `horizon`, and each directed link
    /// independently degraded (25% chance) for a sub-window with loss up
    /// to 10%, duplication up to 2%, and up to 50 µs of added occupancy.
    ///
    /// The monitor (node 0 here) never crashes — it hosts the failure
    /// detector. Deployments that configure a different monitor in
    /// `FailureConfig` should use [`FaultPlan::seeded_with_monitor`] so
    /// the spared node matches; with `monitor == 0` the two constructors
    /// produce identical plans draw-for-draw.
    pub fn seeded(seed: u64, nodes: u32, horizon: SimTime) -> Self {
        Self::seeded_with_monitor(seed, nodes, horizon, 0)
    }

    /// [`FaultPlan::seeded`] generalized to an arbitrary monitor node:
    /// the crash victim is drawn uniformly from the non-monitor nodes.
    ///
    /// # Panics
    ///
    /// Panics if `monitor >= nodes` (with `nodes > 0`).
    pub fn seeded_with_monitor(seed: u64, nodes: u32, horizon: SimTime, monitor: u32) -> Self {
        assert!(
            nodes == 0 || monitor < nodes,
            "monitor must be a valid node"
        );
        let mut rng = DetRng::new(seed).derive_named("fault-plan");
        let mut plan = FaultPlan::scripted(seed);
        let h = horizon.as_nanos().max(4);
        if nodes > 1 {
            let pick = rng.below(u64::from(nodes) - 1) as u32;
            let victim = if pick >= monitor { pick + 1 } else { pick };
            let at = SimTime::from_nanos(h / 4 + rng.below(h / 2));
            plan = plan.crash(victim, at);
        }
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst || rng.f64() >= 0.25 {
                    continue;
                }
                let from = rng.below(h);
                let len = 1 + rng.below(h / 4);
                plan = plan.degrade_link(LinkFault {
                    src,
                    dst,
                    from: SimTime::from_nanos(from),
                    until: SimTime::from_nanos(from + len),
                    loss: rng.f64() * 0.10,
                    duplication: rng.f64() * 0.02,
                    extra_latency: SimTime::from_nanos(rng.below(50_000)),
                });
            }
        }
        plan
    }

    /// Generates a chaos-soak plan from `seed`: up to two crashes on
    /// distinct non-monitor nodes (the second, when drawn, lands shortly
    /// after the first so it can hit the restore window — the cascading
    /// crash-during-restore case), one or two partition windows isolating
    /// small non-monitor minorities (cuts adjacent to the monitor, since
    /// every cut severs the minority from it), and a sprinkling of lossy
    /// link windows. The monitor is never crashed or partitioned — see
    /// the module docs for why.
    ///
    /// # Panics
    ///
    /// Panics if `monitor >= nodes` or `nodes < 3` (a partition needs a
    /// non-monitor minority and a majority to cut it from).
    pub fn chaotic(seed: u64, nodes: u32, horizon: SimTime, monitor: u32) -> Self {
        assert!(monitor < nodes, "monitor must be a valid node");
        assert!(nodes >= 3, "chaotic plans need at least 3 nodes");
        let mut rng = DetRng::new(seed).derive_named("chaos-plan");
        let mut plan = FaultPlan::scripted(seed);
        let h = horizon.as_nanos().max(16);
        // Maps a draw over `nodes - 1` onto the non-monitor nodes.
        let non_monitor = |pick: u32| if pick >= monitor { pick + 1 } else { pick };

        // Crashes: 0, 1, or 2 victims.
        let n_crashes = rng.below(3);
        let mut first_crash_at = None;
        for i in 0..n_crashes {
            let victim = non_monitor(rng.below(u64::from(nodes) - 1) as u32);
            let at = match first_crash_at {
                // The follow-up crash lands within an eighth of the
                // horizon after the first, to overlap its restore.
                Some(first) => first + 1 + rng.below(h / 8),
                None => h / 4 + rng.below(h / 2),
            };
            if i == 0 {
                first_crash_at = Some(at);
            }
            if plan.crash_time(victim).is_none() {
                plan = plan.crash(victim, SimTime::from_nanos(at));
            }
        }

        // Partitions: 1 or 2 windows, each isolating 1..=(nodes-1)/2
        // non-monitor nodes for up to half the horizon.
        let n_parts = 1 + rng.below(2);
        for _ in 0..n_parts {
            let max_minority = ((nodes - 1) / 2).max(1);
            let take = 1 + rng.below(u64::from(max_minority)) as u32;
            let mut minority = Vec::new();
            for _ in 0..take {
                let n = non_monitor(rng.below(u64::from(nodes) - 1) as u32);
                if !minority.contains(&n) {
                    minority.push(n);
                }
            }
            let from = rng.below(h * 3 / 4);
            let len = h / 16 + rng.below(h / 2);
            plan = plan.partition(
                minority,
                SimTime::from_nanos(from),
                SimTime::from_nanos(from + len),
            );
        }

        // Loss windows: each directed link degraded with 15% probability.
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst || rng.f64() >= 0.15 {
                    continue;
                }
                let from = rng.below(h);
                let len = 1 + rng.below(h / 4);
                plan = plan.degrade_link(LinkFault {
                    src,
                    dst,
                    from: SimTime::from_nanos(from),
                    until: SimTime::from_nanos(from + len),
                    loss: rng.f64() * 0.10,
                    duplication: rng.f64() * 0.02,
                    extra_latency: SimTime::from_nanos(rng.below(50_000)),
                });
            }
        }
        plan
    }

    /// Adds a node crash (builder-style).
    #[must_use]
    pub fn crash(mut self, node: u32, at: SimTime) -> Self {
        self.crashes.push(CrashFault { node, at });
        self.crashes.sort_by_key(|c| (c.at, c.node));
        self
    }

    /// Adds a link-degradation window (builder-style).
    #[must_use]
    pub fn degrade_link(mut self, fault: LinkFault) -> Self {
        self.links.push(fault);
        self
    }

    /// Adds a partition window isolating `nodes` for `[from, until)`
    /// (builder-style). Windows are kept sorted by start time.
    #[must_use]
    pub fn partition(mut self, mut nodes: Vec<u32>, from: SimTime, until: SimTime) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        self.partitions.push(PartitionFault { nodes, from, until });
        self.partitions
            .sort_by_key(|p| (p.from, p.until, p.nodes.clone()));
        self
    }

    /// The seed in-run random draws derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduled crashes, ascending by time.
    pub fn crashes(&self) -> &[CrashFault] {
        &self.crashes
    }

    /// Link-degradation windows, in insertion order.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.links
    }

    /// Partition windows, ascending by start time.
    pub fn partitions(&self) -> &[PartitionFault] {
        &self.partitions
    }

    /// Whether a `src -> dst` send at `now` crosses any active cut.
    pub fn severed(&self, src: u32, dst: u32, now: SimTime) -> bool {
        self.partitions.iter().any(|p| p.severs(src, dst, now))
    }

    /// Whether `node` is on the isolated side of any active partition.
    pub fn is_partitioned(&self, node: u32, now: SimTime) -> bool {
        self.partitions
            .iter()
            .any(|p| p.active(now) && p.contains(node))
    }

    /// The latest instant at which anything in the plan still changes
    /// cluster state: the last crash or the last partition heal. The
    /// failure detector keeps probing through this horizon.
    pub fn last_disturbance(&self) -> SimTime {
        let crash = self.crashes.iter().map(|c| c.at).max();
        let heal = self.partitions.iter().map(|p| p.until).max();
        crash.into_iter().chain(heal).max().unwrap_or(SimTime::ZERO)
    }

    /// The crash time of `node`, if the plan fails it.
    pub fn crash_time(&self, node: u32) -> Option<SimTime> {
        self.crashes.iter().find(|c| c.node == node).map(|c| c.at)
    }

    /// Whether `node` has failed by `now`.
    pub fn is_crashed(&self, node: u32, now: SimTime) -> bool {
        self.crash_time(node).is_some_and(|at| at <= now)
    }
}

/// The per-message verdict for one send attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Disruption {
    /// The message is lost on the wire.
    pub drop: bool,
    /// The message is delivered twice.
    pub duplicate: bool,
    /// Extra wire occupancy for this message.
    pub extra_latency: SimTime,
    /// `Some((loss_ppm, extra_ns))` on the first message to hit a
    /// degradation window — the consumer should announce the window in
    /// the trace (`TraceEvent::LinkDegrade`).
    pub announce: Option<(u64, u64)>,
}

/// Stateful interpreter of a [`FaultPlan`]: owns the derived [`DetRng`]
/// stream for loss/duplication draws and remembers which degradation
/// windows have been announced.
///
/// Draws are consumed only when a send hits an active window, so a
/// fabric with an injected plan whose windows never open behaves
/// identically to one with no plan at all.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
    announced: Vec<bool>,
}

impl FaultInjector {
    /// Builds an injector; the draw stream derives from the plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = DetRng::new(plan.seed()).derive_named("fault-injector");
        let announced = vec![false; plan.link_faults().len()];
        FaultInjector {
            plan,
            rng,
            announced,
        }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `node` has failed by `now`.
    pub fn crashed(&self, node: u32, now: SimTime) -> bool {
        self.plan.is_crashed(node, now)
    }

    /// Whether a `src -> dst` send at `now` crosses an active partition
    /// cut. Pure plan lookup — consumes no random draws, so callers can
    /// (and must) check it before [`FaultInjector::disrupt`] without
    /// perturbing the degradation stream.
    pub fn severed(&self, src: u32, dst: u32, now: SimTime) -> bool {
        self.plan.severed(src, dst, now)
    }

    /// The verdict for one send attempt on `src -> dst` at `now`.
    ///
    /// Consumes exactly two random draws when at least one degradation
    /// window is active and none otherwise, keeping consumption — and
    /// therefore every later verdict — a pure function of the
    /// (deterministic) send sequence.
    ///
    /// Overlapping windows compose as independent events: the send is
    /// dropped with probability `1 - Π(1 - loss_i)`, duplicated with
    /// probability `1 - Π(1 - dup_i)`, and charged the *sum* of the
    /// windows' extra latencies. A send covered by exactly one window
    /// uses that window's probabilities verbatim (no floating-point
    /// round-trip through the product form), so single-window plans
    /// replay historic traces unchanged. At most one previously silent
    /// window is announced per call; overlapped windows announce on
    /// later sends.
    pub fn disrupt(&mut self, now: SimTime, src: u32, dst: u32) -> Disruption {
        let mut covering = 0u32;
        let mut last = LinkFault {
            src,
            dst,
            from: SimTime::ZERO,
            until: SimTime::ZERO,
            loss: 0.0,
            duplication: 0.0,
            extra_latency: SimTime::ZERO,
        };
        let mut survive = 1.0f64;
        let mut no_dup = 1.0f64;
        let mut extra = SimTime::ZERO;
        let mut announce = None;
        for idx in 0..self.plan.link_faults().len() {
            let fault = self.plan.link_faults()[idx];
            if !fault.covers(src, dst, now) {
                continue;
            }
            covering += 1;
            last = fault;
            survive *= 1.0 - fault.loss;
            no_dup *= 1.0 - fault.duplication;
            extra += fault.extra_latency;
            if announce.is_none() && !self.announced[idx] {
                self.announced[idx] = true;
                announce = Some((
                    (fault.loss * 1_000_000.0) as u64,
                    fault.extra_latency.as_nanos(),
                ));
            }
        }
        if covering == 0 {
            return Disruption::default();
        }
        let (loss_p, dup_p, extra_latency) = if covering == 1 {
            // Exactly the lone window's own numbers — bit-compatible with
            // the pre-composition behaviour.
            (last.loss, last.duplication, last.extra_latency)
        } else {
            (1.0 - survive, 1.0 - no_dup, extra)
        };
        let drop = self.rng.f64() < loss_p;
        let duplicate = self.rng.f64() < dup_p && !drop;
        Disruption {
            drop,
            duplicate,
            extra_latency,
            announce,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn scripted_plan_reports_crash_times() {
        let p = FaultPlan::scripted(7).crash(2, ms(100)).crash(1, ms(50));
        assert_eq!(p.crash_time(1), Some(ms(50)));
        assert_eq!(p.crash_time(2), Some(ms(100)));
        assert_eq!(p.crash_time(0), None);
        assert!(!p.is_crashed(2, ms(99)));
        assert!(p.is_crashed(2, ms(100)));
        // Sorted ascending by time.
        assert_eq!(p.crashes()[0].node, 1);
    }

    #[test]
    fn seeded_plan_is_reproducible_and_spares_the_monitor() {
        let a = FaultPlan::seeded(42, 8, SimTime::from_secs(1));
        let b = FaultPlan::seeded(42, 8, SimTime::from_secs(1));
        assert_eq!(a, b);
        assert!(a.crashes().iter().all(|c| c.node != 0));
        let c = FaultPlan::seeded(43, 8, SimTime::from_secs(1));
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn injector_draws_replay_bit_for_bit() {
        let plan = FaultPlan::scripted(9).degrade_link(LinkFault {
            src: 0,
            dst: 1,
            from: ms(0),
            until: ms(100),
            loss: 0.5,
            duplication: 0.1,
            extra_latency: SimTime::from_micros(5),
        });
        let run = |mut inj: FaultInjector| -> Vec<Disruption> {
            (0..64).map(|i| inj.disrupt(ms(i), 0, 1)).collect()
        };
        let a = run(FaultInjector::new(plan.clone()));
        let b = run(FaultInjector::new(plan));
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.drop), "50% loss must drop something");
        assert!(a.iter().any(|d| !d.drop), "and deliver something");
    }

    #[test]
    fn partitions_sever_only_cut_crossing_traffic_in_window() {
        let p = FaultPlan::scripted(1).partition(vec![2, 3], ms(10), ms(20));
        // Crossing the cut, inside the window.
        assert!(p.severed(0, 2, ms(10)));
        assert!(p.severed(3, 1, ms(19)));
        // Wholly inside the minority, or wholly outside it.
        assert!(!p.severed(2, 3, ms(15)));
        assert!(!p.severed(0, 1, ms(15)));
        // Outside the window.
        assert!(!p.severed(0, 2, ms(9)));
        assert!(!p.severed(0, 2, ms(20)));
        assert!(p.is_partitioned(2, ms(15)));
        assert!(!p.is_partitioned(0, ms(15)));
        assert_eq!(p.last_disturbance(), ms(20));
    }

    #[test]
    fn severed_consumes_no_randomness() {
        // A partition plus an always-on lossless window: severed() checks
        // must not shift the disrupt draw stream.
        let window = LinkFault {
            src: 0,
            dst: 1,
            from: ms(0),
            until: ms(100),
            loss: 0.5,
            duplication: 0.0,
            extra_latency: SimTime::ZERO,
        };
        let with = FaultPlan::scripted(5)
            .degrade_link(window)
            .partition(vec![2], ms(0), ms(100));
        let without = FaultPlan::scripted(5).degrade_link(window);
        let mut a = FaultInjector::new(with);
        let mut b = FaultInjector::new(without);
        for i in 0..64 {
            assert!(a.severed(0, 2, ms(i)));
            assert_eq!(a.disrupt(ms(i), 0, 1), b.disrupt(ms(i), 0, 1));
        }
    }

    #[test]
    fn overlapping_windows_compose_loss_and_latency() {
        // Regression for the first-match-wins bug: two overlapping windows
        // on the same link must compose (independent-event loss, summed
        // latency), not silently ignore the second window.
        let plan = FaultPlan::scripted(11)
            .degrade_link(LinkFault {
                src: 0,
                dst: 1,
                from: ms(0),
                until: ms(1000),
                loss: 0.5,
                duplication: 0.0,
                extra_latency: SimTime::from_micros(5),
            })
            .degrade_link(LinkFault {
                src: 0,
                dst: 1,
                from: ms(0),
                until: ms(1000),
                loss: 0.5,
                duplication: 0.0,
                extra_latency: SimTime::from_micros(7),
            });
        let mut inj = FaultInjector::new(plan);
        let mut drops = 0usize;
        const N: usize = 2000;
        for i in 0..N {
            let d = inj.disrupt(ms(i as u64 % 1000), 0, 1);
            // Summed extra latency from both windows.
            assert_eq!(d.extra_latency, SimTime::from_micros(12));
            drops += usize::from(d.drop);
        }
        // Composed drop probability is 1 - 0.5*0.5 = 0.75.
        let rate = drops as f64 / N as f64;
        assert!(
            (0.70..=0.80).contains(&rate),
            "composed loss should be ~0.75, got {rate}"
        );
    }

    #[test]
    fn overlap_keeps_draw_count_per_send() {
        // Whether one window or three cover a send, exactly two draws are
        // consumed — so a later, non-overlapped window sees the same
        // stream in both plans.
        let w = |loss: f64| LinkFault {
            src: 0,
            dst: 1,
            from: ms(0),
            until: ms(10),
            loss,
            duplication: 0.0,
            extra_latency: SimTime::ZERO,
        };
        let tail = LinkFault {
            src: 0,
            dst: 1,
            from: ms(10),
            until: ms(1000),
            loss: 0.5,
            duplication: 0.2,
            extra_latency: SimTime::ZERO,
        };
        let single = FaultPlan::scripted(3)
            .degrade_link(w(0.1))
            .degrade_link(tail);
        let triple = FaultPlan::scripted(3)
            .degrade_link(w(0.1))
            .degrade_link(w(0.2))
            .degrade_link(w(0.3))
            .degrade_link(tail);
        let mut a = FaultInjector::new(single);
        let mut b = FaultInjector::new(triple);
        // Burn sends inside the overlapped region.
        for i in 0..5 {
            let _ = a.disrupt(ms(i), 0, 1);
            let _ = b.disrupt(ms(i), 0, 1);
        }
        // The tail window's verdicts must now be identical.
        for i in 10..40 {
            let da = a.disrupt(ms(i), 0, 1);
            let db = b.disrupt(ms(i), 0, 1);
            assert_eq!((da.drop, da.duplicate), (db.drop, db.duplicate));
        }
    }

    #[test]
    fn chaotic_plans_are_reproducible_and_spare_the_monitor() {
        for seed in 0..32u64 {
            let a = FaultPlan::chaotic(seed, 6, SimTime::from_secs(1), 2);
            let b = FaultPlan::chaotic(seed, 6, SimTime::from_secs(1), 2);
            assert_eq!(a, b);
            assert!(a.crashes().iter().all(|c| c.node != 2 && c.node < 6));
            assert!(a
                .partitions()
                .iter()
                .all(|p| !p.contains(2) && p.nodes.iter().all(|&n| n < 6)));
            assert!(!a.partitions().is_empty());
        }
    }

    #[test]
    fn seeded_with_monitor_spares_the_configured_node() {
        for seed in 0..32u64 {
            let p = FaultPlan::seeded_with_monitor(seed, 6, SimTime::from_secs(1), 3);
            assert!(p.crashes().iter().all(|c| c.node != 3 && c.node < 6));
        }
        // monitor == 0 reproduces the legacy constructor draw-for-draw.
        let a = FaultPlan::seeded(42, 8, SimTime::from_secs(1));
        let b = FaultPlan::seeded_with_monitor(42, 8, SimTime::from_secs(1), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn inactive_window_consumes_no_randomness() {
        let plan = FaultPlan::scripted(9).degrade_link(LinkFault {
            src: 0,
            dst: 1,
            from: ms(50),
            until: ms(60),
            loss: 1.0,
            duplication: 0.0,
            extra_latency: SimTime::ZERO,
        });
        let mut inj = FaultInjector::new(plan);
        // Outside the window: default verdict, no draws.
        let d = inj.disrupt(ms(10), 0, 1);
        assert_eq!(d, Disruption::default());
        // Other links never match.
        assert_eq!(inj.disrupt(ms(55), 1, 0), Disruption::default());
        // Inside: certain loss, and the window announces once.
        let d = inj.disrupt(ms(55), 0, 1);
        assert!(d.drop);
        assert!(d.announce.is_some());
        assert!(inj.disrupt(ms(56), 0, 1).announce.is_none());
    }
}
