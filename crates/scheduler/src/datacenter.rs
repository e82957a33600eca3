//! Data-center simulation: arrivals, placement, departures, consolidation.
//!
//! Replays an [`crate::trace::ArrivalTrace`] against a cluster using a
//! single-machine fitting rule (BFF by default) with the FragBFF
//! extension, producing the placement/migration timeline of §7.3: when
//! does each VM start (single-machine or aggregate), when do freed
//! resources trigger consolidation migrations, and how do per-node free
//! CPUs evolve (the bottom graph of Figure 14).
//!
//! The simulator is sized for cluster studies of thousands of nodes and
//! tens of thousands of arrivals: placement rides the cluster's free-CPU
//! bucket index, consolidation scans only the live Aggregate VMs (not the
//! whole trace), and timeline sampling can be decimated
//! ([`DatacenterSim::sample_every`]) so report memory stays linear.
//!
//! VM ids are arrival indices, the dense ids the cluster's VM → nodes
//! table wants. The live Aggregate VMs sit in a `Vec` sorted by arrival
//! index, and every departure walks all of them in that order. A visit
//! is cheap: the skip check reads the VM's home nodes straight from the
//! cluster's table and compares their change-clock stamps.
//!
//! Delayed VMs wait in a flat FIFO of `(arrival, shape)` pairs, where a
//! shape is an interned `(cpus, ram)` request. A departure retries them
//! only when the cluster has as many free CPUs as the smallest waiting
//! request, in one compacting pass that calls the placer only for
//! entries that may still start. A failed placement leaves the cluster
//! untouched, so between two successes a shape that needs more than the
//! free room, or has already failed, fails again; its entries are kept
//! without a call. Each skip returns exactly what the call would have,
//! so the timeline and every counter, `retry_attempts` included, match a
//! loop that attempts every entry in order and stops when the cluster
//! runs out of free CPUs.

use cluster::{Cluster, FragmentationReport, MachineSpec, ResourceRequest, VmId};
use comm::NodeId;
use sim_core::engine::EventQueue;
use sim_core::time::SimTime;

use crate::bff::FitAlgo;
use crate::fragbff::{ConsolidationPolicy, FragBff, MigrationCmd};
use crate::trace::ArrivalTrace;

/// What happened to a VM at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementKind {
    /// Placed whole on one machine.
    Single(NodeId),
    /// Placed as an Aggregate VM over several machines.
    Aggregate(Vec<(NodeId, u32)>),
    /// Could not be placed; queued for retry. Logged once per VM — later
    /// failed retries only bump [`SimReport::retry_attempts`].
    Delayed,
    /// Started after a delay, whole on the given machine (delayed VMs
    /// that start as aggregates log [`PlacementKind::Aggregate`]).
    DelayedStart(NodeId),
    /// Terminated; resources released.
    Finished,
    /// Consolidation migrations were applied.
    Migrated(Vec<MigrationCmd>),
}

/// One timeline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementEvent {
    /// When it happened.
    pub at: SimTime,
    /// The VM concerned.
    pub vm: VmId,
    /// What happened.
    pub kind: PlacementKind,
}

/// Which placement discipline the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Best-fit single-machine placement with the FragBFF aggregate
    /// extension and the given consolidation objective (the paper's
    /// scheduler).
    FragBff(ConsolidationPolicy),
    /// First-fit single-machine baseline: VMs that fit nowhere wait.
    FirstFit,
    /// Worst-fit single-machine baseline: VMs that fit nowhere wait.
    WorstFit,
}

impl PlacementPolicy {
    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::FragBff(ConsolidationPolicy::MinFragmentation) => "minfrag",
            PlacementPolicy::FragBff(ConsolidationPolicy::MinNodes) => "minnodes",
            PlacementPolicy::FirstFit => "firstfit",
            PlacementPolicy::WorstFit => "worstfit",
        }
    }
}

/// The output of a data-center run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Full placement/migration timeline.
    pub events: Vec<PlacementEvent>,
    /// Per-node free CPUs, sampled once per simulator event (or once per
    /// N events under decimation).
    pub free_cpus: Vec<(SimTime, Vec<u32>)>,
    /// Cluster fragmentation over time, sampled on the same schedule.
    pub frag_series: Vec<(SimTime, FragmentationReport)>,
    /// Per-node vCPU counts of the observed VM over time (empty when no
    /// VM was observed).
    pub observed_slices: Vec<(SimTime, Vec<u32>)>,
    /// The observed VM, if one matched.
    pub observed_vm: Option<VmId>,
    /// VMs placed whole on one machine.
    pub singles: u64,
    /// VMs placed as Aggregate VMs.
    pub aggregates: u64,
    /// Placements that had to be delayed at least once.
    pub delayed: u64,
    /// Re-placement attempts for delayed VMs (successful or not).
    pub retry_attempts: u64,
    /// Total consolidation migrations (slice moves).
    pub migrations: u64,
    /// Simulator events processed (arrivals + departures).
    pub events_processed: u64,
    /// Fragmentation snapshot at the end of the run.
    pub final_fragmentation: FragmentationReport,
    /// Per-VM provisioning wait (placement time minus arrival time).
    pub wait_times: Vec<(VmId, SimTime)>,
}

#[derive(Debug)]
enum DcEvent {
    Arrival(usize),
    Departure(VmId),
}

/// Consolidation bookkeeping for one live Aggregate VM.
///
/// Consolidation reads and writes only the VM's home nodes, so a no-move
/// outcome is proven to repeat — and the whole scan can be skipped —
/// while those nodes stay untouched on the cluster's change clock. The
/// skip check reads the home nodes from the cluster's VM → nodes table.
#[derive(Debug)]
struct LiveAggregate {
    /// Arrival index, which is also the VM id.
    arrival: usize,
    /// Cluster change-clock reading at the last no-move consolidation
    /// (0 = not yet verified, always rescanned).
    quiescent_at: u64,
}

/// One `(cpus, ram)` request shape seen in the delayed queue.
#[derive(Debug)]
struct Shape {
    req: ResourceRequest,
    /// The stretch in which this shape's placement last failed (0 =
    /// never).
    failed_in: u64,
}

/// Reference request for fragmentation snapshots (the modal 4-vCPU VM).
fn frag_reference() -> ResourceRequest {
    ResourceRequest::new(4, sim_core::units::ByteSize::gib(4))
}

/// The data-center simulator.
pub struct DatacenterSim {
    cluster: Cluster,
    fit: FitAlgo,
    fragbff: FragBff,
    trace: ArrivalTrace,
    /// Currently-live Aggregate VMs, sorted by arrival index, so
    /// consolidation is O(live aggregates) instead of O(trace length).
    /// A delayed VM can start as an aggregate after younger ones, so
    /// entries are inserted in order, not pushed.
    live_aggregates: Vec<LiveAggregate>,
    /// Waiting VMs, oldest first: arrival index and [`Shape`] id.
    delayed: Vec<(u32, u32)>,
    /// Smallest vCPU request waiting in `delayed` (`u32::MAX` when empty):
    /// a departure skips the whole retry pass when even that much free
    /// capacity does not exist cluster-wide.
    delayed_min_cpus: u32,
    /// Every shape ever delayed, interned on first delay. Traces draw
    /// from a catalog of a few dozen shapes, so a linear scan finds them.
    /// Ids are `u32`: a `(u32, u16)` queue entry would pad to 8 bytes
    /// anyway.
    shapes: Vec<Shape>,
    /// Stretches of retrying between two cluster changes so far: one per
    /// retry pass and one per delayed start (stamps [`Shape::failed_in`]).
    stretch: u64,
    /// Observe the first aggregate-placed VM with this many vCPUs.
    observe_cpus: Option<u32>,
    /// When false, FragBFF is disabled: unplaceable VMs are only delayed
    /// (the baseline data-center behaviour the paper argues against).
    enable_aggregate: bool,
    /// Record one timeline sample every this many simulator events.
    sample_every: u64,
    since_sample: u64,
}

impl DatacenterSim {
    /// Creates a simulator over `nodes` machines of `spec`, running the
    /// paper's scheduler (BFF + FragBFF with the given consolidation
    /// policy).
    pub fn new(
        nodes: usize,
        spec: MachineSpec,
        policy: ConsolidationPolicy,
        trace: ArrivalTrace,
    ) -> Self {
        Self::with_policy(nodes, spec, PlacementPolicy::FragBff(policy), trace)
    }

    /// Creates a simulator over `nodes` machines of `spec` under an
    /// arbitrary placement policy (FragBFF or a single-machine baseline).
    pub fn with_policy(
        nodes: usize,
        spec: MachineSpec,
        policy: PlacementPolicy,
        trace: ArrivalTrace,
    ) -> Self {
        let (fit, consolidation, enable_aggregate) = match policy {
            PlacementPolicy::FragBff(p) => (FitAlgo::BestFit, p, true),
            PlacementPolicy::FirstFit => (
                FitAlgo::FirstFit,
                ConsolidationPolicy::MinFragmentation,
                false,
            ),
            PlacementPolicy::WorstFit => (
                FitAlgo::WorstFit,
                ConsolidationPolicy::MinFragmentation,
                false,
            ),
        };
        DatacenterSim {
            cluster: Cluster::homogeneous(nodes, spec),
            fit,
            fragbff: FragBff::new(consolidation),
            trace,
            live_aggregates: Vec::new(),
            delayed: Vec::new(),
            delayed_min_cpus: u32::MAX,
            shapes: Vec::new(),
            stretch: 0,
            observe_cpus: None,
            enable_aggregate,
            sample_every: 1,
            since_sample: 0,
        }
    }

    /// Observes the first Aggregate VM of the given size (Figure 14 traces
    /// a 4-vCPU VM).
    pub fn observe_first_aggregate(mut self, cpus: u32) -> Self {
        self.observe_cpus = Some(cpus);
        self
    }

    /// Disables FragBFF: VMs that fit no single machine wait for capacity
    /// (the delayed-allocation baseline).
    pub fn without_aggregates(mut self) -> Self {
        self.enable_aggregate = false;
        self
    }

    /// Records one timeline sample (free CPUs, fragmentation, observed
    /// slices) every `n` simulator events instead of every event, keeping
    /// report memory linear at data-center scale. `n` is clamped to ≥ 1.
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Runs the full trace; returns the report.
    pub fn run(mut self) -> SimReport {
        // Every arrival is live at load and each spawns one departure.
        let mut queue: EventQueue<DcEvent> = EventQueue::with_capacity(self.trace.len() * 2);
        for (i, a) in self.trace.arrivals.iter().enumerate() {
            queue.push(a.at, DcEvent::Arrival(i));
        }
        // First event always samples.
        self.since_sample = self.sample_every - 1;
        let mut report = SimReport {
            events: Vec::new(),
            free_cpus: Vec::new(),
            frag_series: Vec::new(),
            observed_slices: Vec::new(),
            observed_vm: None,
            singles: 0,
            aggregates: 0,
            delayed: 0,
            retry_attempts: 0,
            migrations: 0,
            events_processed: 0,
            final_fragmentation: FragmentationReport::compute(&self.cluster, frag_reference()),
            wait_times: Vec::new(),
        };
        while let Some((now, ev)) = queue.pop() {
            report.events_processed += 1;
            match ev {
                DcEvent::Arrival(i) => {
                    if !self.try_place(i, now, &mut queue, &mut report, false) {
                        self.delay(i, now, &mut report);
                    }
                }
                DcEvent::Departure(vm) => {
                    self.cluster.release_vm(vm);
                    if let Ok(k) = self
                        .live_aggregates
                        .binary_search_by_key(&vm.index(), |a| a.arrival)
                    {
                        self.live_aggregates.remove(k);
                    }
                    report.events.push(PlacementEvent {
                        at: now,
                        vm,
                        kind: PlacementKind::Finished,
                    });
                    // Freed resources: retry delayed placements first
                    // (oldest first), then consolidate aggregates. The
                    // pass is skipped when even the smallest delayed
                    // request exceeds the cluster's total free CPUs —
                    // nothing could possibly place.
                    if self.delayed_min_cpus <= self.cluster.total_free_cpus() {
                        self.retry_pass(now, &mut queue, &mut report);
                    }
                    self.consolidate_live(now, &mut report);
                }
            }
            self.maybe_sample(now, &mut report);
        }
        report.final_fragmentation = FragmentationReport::compute(&self.cluster, frag_reference());
        report
    }

    /// Retries the delayed VMs oldest first, compacting the queue in place
    /// (the module docs say why every skip is exact).
    ///
    /// The room is read once per stretch between two successes. An entry
    /// is kept without a placement call when its shape needs more than
    /// the room or has failed in this stretch. A success that takes the
    /// last free CPU ends the pass: the unvisited tail moves down and is
    /// not counted as retried.
    fn retry_pass(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<DcEvent>,
        report: &mut SimReport,
    ) {
        self.stretch += 1;
        let len = self.delayed.len();
        let mut free = self.cluster.total_free_cpus();
        let mut room = self.room(free);
        let mut min_cpus = u32::MAX;
        let (mut r, mut w) = (0, 0);
        while r < len && free > 0 {
            let (i, id) = self.delayed[r];
            r += 1;
            let shape = &self.shapes[id as usize];
            let cpus = shape.req.cpus;
            if cpus <= room && shape.failed_in != self.stretch {
                if self.try_place(i as usize, now, queue, report, true) {
                    self.stretch += 1;
                    free = self.cluster.total_free_cpus();
                    room = self.room(free);
                    continue;
                }
                self.shapes[id as usize].failed_in = self.stretch;
            }
            self.delayed[w] = (i, id);
            w += 1;
            min_cpus = min_cpus.min(cpus);
        }
        for &(_, id) in &self.delayed[r..] {
            min_cpus = min_cpus.min(self.shapes[id as usize].req.cpus);
        }
        if w < r {
            self.delayed.copy_within(r.., w);
            self.delayed.truncate(w + (len - r));
        }
        report.retry_attempts += r as u64;
        self.delayed_min_cpus = min_cpus;
    }

    /// The most vCPUs any request can start with, given `free` CPUs
    /// cluster-wide: all of them for an Aggregate VM, one machine's worth
    /// without aggregates.
    fn room(&self, free: u32) -> u32 {
        if self.enable_aggregate {
            free
        } else {
            self.cluster.largest_free_block()
        }
    }

    /// Starts VM `i` now, whole on one machine or (with FragBFF) as an
    /// Aggregate VM; false when it fits nowhere and the cluster is left
    /// untouched.
    fn try_place(
        &mut self,
        i: usize,
        now: SimTime,
        queue: &mut EventQueue<DcEvent>,
        report: &mut SimReport,
        retry: bool,
    ) -> bool {
        let a = self.trace.arrivals[i];
        let vm = VmId::from_usize(i);
        let req = ResourceRequest::new(a.cpus, a.ram);
        if let Some(node) = self.fit.place(&mut self.cluster, vm, req) {
            report.singles += 1;
            report.wait_times.push((vm, now.saturating_sub(a.at)));
            queue.push(now + a.lifetime, DcEvent::Departure(vm));
            report.events.push(PlacementEvent {
                at: now,
                vm,
                kind: if retry {
                    PlacementKind::DelayedStart(node)
                } else {
                    PlacementKind::Single(node)
                },
            });
            return true;
        }
        if self.enable_aggregate {
            if let Some(assignment) = self.fragbff.place_aggregate(&mut self.cluster, vm, req) {
                let k = self.live_aggregates.partition_point(|a| a.arrival < i);
                self.live_aggregates.insert(
                    k,
                    LiveAggregate {
                        arrival: i,
                        quiescent_at: 0,
                    },
                );
                report.aggregates += 1;
                report.wait_times.push((vm, now.saturating_sub(a.at)));
                if report.observed_vm.is_none() && self.observe_cpus == Some(a.cpus) {
                    report.observed_vm = Some(vm);
                }
                queue.push(now + a.lifetime, DcEvent::Departure(vm));
                report.events.push(PlacementEvent {
                    at: now,
                    vm,
                    kind: PlacementKind::Aggregate(assignment.parts),
                });
                return true;
            }
        }
        false
    }

    /// Queues arrival `i`, which fits nowhere, until resources free up.
    /// The timeline records the delay once; failed retries only bump the
    /// counter (re-logging every one made the event log quadratic at
    /// scale).
    fn delay(&mut self, i: usize, now: SimTime, report: &mut SimReport) {
        let a = self.trace.arrivals[i];
        let id = self.intern(ResourceRequest::new(a.cpus, a.ram));
        let index = u32::try_from(i).expect("trace fits u32 arrival indices");
        self.delayed.push((index, id));
        self.delayed_min_cpus = self.delayed_min_cpus.min(a.cpus);
        report.delayed += 1;
        report.events.push(PlacementEvent {
            at: now,
            vm: VmId::from_usize(i),
            kind: PlacementKind::Delayed,
        });
    }

    /// The id of `req`'s shape, interning it on first sight.
    fn intern(&mut self, req: ResourceRequest) -> u32 {
        if let Some(id) = self.shapes.iter().position(|s| s.req == req) {
            return id as u32;
        }
        self.shapes.push(Shape { req, failed_in: 0 });
        u32::try_from(self.shapes.len() - 1).expect("shape ids fit u32")
    }

    fn consolidate_live(&mut self, now: SimTime, report: &mut SimReport) {
        // `retain_mut` visits candidates in ascending arrival order.
        let cluster = &mut self.cluster;
        let fragbff = &self.fragbff;
        self.live_aggregates.retain_mut(|agg| {
            let vm = VmId::from_usize(agg.arrival);
            // Skip the scan when every home node is untouched since the
            // VM's last no-move consolidation: the outcome is a pure
            // function of home-node state, so it would repeat verbatim.
            if agg.quiescent_at != 0
                && cluster
                    .home_nodes(vm)
                    .all(|n| cluster.node_touched(n) <= agg.quiescent_at)
            {
                return true;
            }
            let cmds = fragbff.consolidate(cluster, vm);
            if cmds.is_empty() {
                agg.quiescent_at = cluster.clock();
                return true;
            }
            report.migrations += cmds.len() as u64;
            report.events.push(PlacementEvent {
                at: now,
                vm,
                kind: PlacementKind::Migrated(cmds),
            });
            // Fully consolidated VMs go back to plain BFF bookkeeping, the
            // rest stay unverified (a clamped partial move can leave
            // further moves for the next pass, as the unconditional rescan
            // did).
            agg.quiescent_at = 0;
            cluster.home_nodes(vm).nth(1).is_some()
        });
    }

    fn maybe_sample(&mut self, now: SimTime, report: &mut SimReport) {
        self.since_sample += 1;
        if self.since_sample < self.sample_every {
            return;
        }
        self.since_sample = 0;
        let free: Vec<u32> = self
            .cluster
            .machines()
            .map(|(_, m)| m.free_cpus())
            .collect();
        report.free_cpus.push((now, free));
        report.frag_series.push((
            now,
            FragmentationReport::compute(&self.cluster, frag_reference()),
        ));
        if let Some(vm) = report.observed_vm {
            let per_node: Vec<u32> = self
                .cluster
                .machines()
                .map(|(_, m)| m.allocation_of(vm).map(|r| r.cpus).unwrap_or(0))
                .collect();
            report.observed_slices.push((now, per_node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArrivalTrace, VmArrival};
    use sim_core::rng::DetRng;
    use sim_core::units::ByteSize;

    fn run_sim(seed: u64, policy: ConsolidationPolicy) -> SimReport {
        let mut rng = DetRng::new(seed);
        // A loaded 4-node cluster (the Figure 14 setup: 4 nodes x 12 CPUs).
        let trace =
            ArrivalTrace::generate(&mut rng, 100, SimTime::from_secs(1), SimTime::from_secs(40));
        DatacenterSim::new(4, MachineSpec::fig14(), policy, trace)
            .observe_first_aggregate(4)
            .run()
    }

    #[test]
    fn trace_produces_aggregates_under_load() {
        let r = run_sim(7, ConsolidationPolicy::MinFragmentation);
        assert!(r.singles > 0);
        assert!(
            r.aggregates > 0,
            "a loaded cluster must fragment; report: singles={} delayed={}",
            r.singles,
            r.delayed
        );
        assert_eq!(
            r.singles + r.aggregates,
            r.events
                .iter()
                .filter(|e| matches!(
                    e.kind,
                    PlacementKind::Single(_)
                        | PlacementKind::Aggregate(_)
                        | PlacementKind::DelayedStart(_)
                ))
                .count() as u64
        );
    }

    #[test]
    fn consolidation_happens() {
        let r = run_sim(7, ConsolidationPolicy::MinNodes);
        assert!(r.migrations > 0, "expected consolidation migrations");
    }

    #[test]
    fn all_vms_eventually_depart() {
        let r = run_sim(9, ConsolidationPolicy::MinFragmentation);
        let finished = r
            .events
            .iter()
            .filter(|e| e.kind == PlacementKind::Finished)
            .count() as u64;
        assert_eq!(finished, r.singles + r.aggregates);
        // The cluster drains completely.
        assert_eq!(r.final_fragmentation.free_cpus, 4 * 12);
    }

    #[test]
    fn observed_vm_timeline_recorded() {
        let r = run_sim(7, ConsolidationPolicy::MinFragmentation);
        if r.observed_vm.is_some() {
            assert!(!r.observed_slices.is_empty());
            // Slice counts never exceed the VM size.
            for (_, slices) in &r.observed_slices {
                let total: u32 = slices.iter().sum();
                assert!(total <= 4);
            }
        }
    }

    #[test]
    fn min_frag_policy_keeps_fragmentation_lower() {
        // Compare average stranded capacity across policies over several
        // seeds; MinFragmentation should not be worse.
        let mut frag_score = 0.0;
        let mut nodes_score = 0.0;
        for seed in [11, 13, 17, 19] {
            let a = run_sim(seed, ConsolidationPolicy::MinFragmentation);
            let b = run_sim(seed, ConsolidationPolicy::MinNodes);
            frag_score += a.delayed as f64;
            nodes_score += b.delayed as f64;
        }
        assert!(
            frag_score <= nodes_score * 1.5 + 4.0,
            "MinFragmentation delayed {frag_score} vs MinNodes {nodes_score}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_sim(21, ConsolidationPolicy::MinFragmentation);
        let b = run_sim(21, ConsolidationPolicy::MinFragmentation);
        assert_eq!(a.events, b.events);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn one_sample_per_event() {
        // Regression: the departure arm used to fire `sample()` twice,
        // recording duplicate rows at the same timestamp and skewing any
        // time-weighted average over the series.
        let r = run_sim(7, ConsolidationPolicy::MinFragmentation);
        assert_eq!(r.free_cpus.len() as u64, r.events_processed);
        assert_eq!(r.frag_series.len() as u64, r.events_processed);
        // Every event is one arrival or one departure.
        assert_eq!(r.events_processed, 100 + r.singles + r.aggregates);
    }

    #[test]
    fn decimated_sampling_counts() {
        let mut rng = DetRng::new(7);
        let trace =
            ArrivalTrace::generate(&mut rng, 100, SimTime::from_secs(1), SimTime::from_secs(40));
        let r = DatacenterSim::new(
            4,
            MachineSpec::fig14(),
            ConsolidationPolicy::MinFragmentation,
            trace,
        )
        .sample_every(10)
        .run();
        assert_eq!(r.free_cpus.len() as u64, r.events_processed.div_ceil(10));
        assert_eq!(r.frag_series.len(), r.free_cpus.len());
    }

    /// Hand-built trace: a 6-vCPU VM is delayed, fails two retries while
    /// the cluster frees in fragments, then starts once a whole machine
    /// opens up.
    fn delayed_retry_trace() -> ArrivalTrace {
        let gib = |n: u64| ByteSize::gib(n);
        let arr = |at_ms: u64, cpus: u32, life_s: u64| VmArrival {
            at: SimTime::from_millis(at_ms),
            cpus,
            ram: gib(u64::from(cpus)),
            lifetime: SimTime::from_secs(life_s),
        };
        ArrivalTrace {
            arrivals: vec![
                arr(0, 7, 100),   // vm0 → node0
                arr(100, 7, 100), // vm1 → node1
                arr(200, 5, 2),   // vm2 → node0 (fills it)
                arr(300, 4, 3),   // vm3 → node1
                arr(400, 6, 10),  // vm4 → delayed: 6 CPUs fit nowhere
            ],
        }
    }

    #[test]
    fn delayed_logged_once_and_retries_counted() {
        // Baseline (no aggregates) on 2 × 12-CPU nodes.
        let r = DatacenterSim::with_policy(
            2,
            MachineSpec::fig14(),
            PlacementPolicy::FragBff(ConsolidationPolicy::MinFragmentation),
            delayed_retry_trace(),
        )
        .without_aggregates()
        .run();
        let vm4 = VmId::from_usize(4);
        let delayed_events = r
            .events
            .iter()
            .filter(|e| e.vm == vm4 && e.kind == PlacementKind::Delayed)
            .count();
        assert_eq!(delayed_events, 1, "Delayed must be logged once per VM");
        assert_eq!(r.delayed, 1);
        // vm2's departure (5 free + 1 free = 6 total ≥ 6) and vm3's
        // departure (5 + 5) both trigger a failed retry; vm0's departure
        // finally places it.
        assert_eq!(r.retry_attempts, 3);
        let start = r
            .events
            .iter()
            .find(|e| e.vm == vm4 && matches!(e.kind, PlacementKind::DelayedStart(_)))
            .expect("vm4 eventually starts");
        // The delayed start is auditable: it carries the landing node.
        assert_eq!(start.kind, PlacementKind::DelayedStart(NodeId::new(0)));
    }

    /// FNV-1a of a report's full `Debug` rendering: the timeline, the
    /// free-CPU, fragmentation and observed-slice series, wait times and
    /// every counter.
    fn report_digest(r: &SimReport) -> u64 {
        sim_core::digest::fnv1a(format!("{r:?}").as_bytes())
    }

    /// A mixed-shape trace offering ~1.3x the CPUs of 6 fig14 nodes, so
    /// the delayed queue stays long.
    fn saturated_mixed(seed: u64) -> ArrivalTrace {
        let mut rng = DetRng::new(seed);
        ArrivalTrace::generate_mixed(
            &mut rng,
            400,
            SimTime::from_millis(600),
            SimTime::from_secs(30),
        )
    }

    /// 99 distinct `(cpus, ram)` shapes, up to 16.5 GiB so that RAM binds
    /// too, plus one zero-RAM VM, arriving far faster than 4 nodes can
    /// host them.
    fn many_shapes_trace() -> ArrivalTrace {
        let arrivals = (0..240u64)
            .map(|k| VmArrival {
                at: SimTime::from_millis(50 * k),
                cpus: 1 + (k % 9) as u32,
                ram: if k == 120 {
                    ByteSize::bytes(0)
                } else {
                    ByteSize::mib(1536 * (1 + k % 11))
                },
                lifetime: SimTime::from_millis(3_000 + 997 * (k % 13)),
            })
            .collect();
        ArrivalTrace { arrivals }
    }

    /// Pins whole reports, so a change to the replay (the retry pass in
    /// particular) cannot shift any output unnoticed.
    #[test]
    fn reports_are_pinned() {
        let policies = [
            PlacementPolicy::FragBff(ConsolidationPolicy::MinFragmentation),
            PlacementPolicy::FragBff(ConsolidationPolicy::MinNodes),
            PlacementPolicy::FirstFit,
            PlacementPolicy::WorstFit,
        ];
        let mut got = Vec::new();
        for seed in [5, 6] {
            for policy in policies {
                let r = DatacenterSim::with_policy(
                    6,
                    MachineSpec::fig14(),
                    policy,
                    saturated_mixed(seed),
                )
                .observe_first_aggregate(4)
                .run();
                got.push(report_digest(&r));
            }
        }
        let r = DatacenterSim::new(
            6,
            MachineSpec::fig14(),
            ConsolidationPolicy::MinNodes,
            saturated_mixed(5),
        )
        .without_aggregates()
        .run();
        got.push(report_digest(&r));
        for policy in [policies[0], policies[2]] {
            let r =
                DatacenterSim::with_policy(4, MachineSpec::fig14(), policy, many_shapes_trace())
                    .run();
            // The trace must exercise a long queue of many shapes.
            let trace = many_shapes_trace();
            let delayed_shapes: std::collections::BTreeSet<(u32, u64)> = r
                .events
                .iter()
                .filter(|e| e.kind == PlacementKind::Delayed)
                .map(|e| {
                    let a = trace.arrivals[e.vm.index()];
                    (a.cpus, a.ram.as_u64())
                })
                .collect();
            assert!(delayed_shapes.len() > 64, "{} shapes", delayed_shapes.len());
            assert!(r.retry_attempts >= 10 * r.delayed);
            got.push(report_digest(&r));
        }
        // Recorded before the retry pass was rewritten around a flat
        // queue.
        assert_eq!(
            got,
            [
                0x8a4db5d379fbb72e,
                0x4168a80c5ed93d47,
                0x55a2e413479a817e,
                0x0ed51f92104d3875,
                0x44ea1742fae75067,
                0x2a69cf1a66cdb1ca,
                0x8c0b3143f27209ec,
                0x6877adaff2095ee7,
                0x6095d4dbba3c5a3b,
                0x6df259f621db84c8,
                0xc18cd1c246f368ee,
            ]
        );
    }

    /// A delayed start that takes the last free CPU ends the pass: only
    /// the entries visited so far count as retries, the rest wait in
    /// order, and a departure that frees less than the smallest waiting
    /// request runs no pass at all.
    #[test]
    fn retry_pass_stops_at_the_last_free_cpu() {
        let arr = |at_ms: u64, cpus: u32, life_s: u64| VmArrival {
            at: SimTime::from_millis(at_ms),
            cpus,
            ram: ByteSize::gib(u64::from(cpus)),
            lifetime: SimTime::from_secs(life_s),
        };
        let trace = ArrivalTrace {
            arrivals: vec![
                arr(0, 12, 100),  // vm0 → node0 (full)
                arr(100, 7, 2),   // vm1 → node1, leaves at 2.1 s
                arr(200, 4, 100), // vm2 → node1
                arr(300, 1, 3),   // vm3 → node1 (full), leaves at 3.3 s
                arr(400, 5, 10),  // vm4..vm7 wait
                arr(500, 2, 100),
                arr(600, 2, 100),
                arr(700, 2, 100),
            ],
        };
        let r = DatacenterSim::new(
            2,
            MachineSpec::fig14(),
            ConsolidationPolicy::MinFragmentation,
            trace,
        )
        .run();
        assert_eq!(r.delayed, 4);
        // 2.1 s: 7 CPUs free; vm4 and vm5 start and take them all, so vm6
        // and vm7 are never visited. 3.3 s: 1 CPU free < 2, no pass.
        // 12.1 s: vm4 leaves; vm6 and vm7 start. A pass that counted the
        // unvisited tail, or ran at 3.3 s, would count 6.
        assert_eq!(r.retry_attempts, 4);
        let starts: Vec<(SimTime, usize)> = r
            .events
            .iter()
            .filter(|e| e.kind == PlacementKind::DelayedStart(NodeId::new(1)))
            .map(|e| (e.at, e.vm.index()))
            .collect();
        let ms = SimTime::from_millis;
        assert_eq!(
            starts,
            [(ms(2100), 4), (ms(2100), 5), (ms(12100), 6), (ms(12100), 7)]
        );
    }

    /// A delayed VM that starts as an Aggregate VM after a younger one is
    /// consolidated before it: the live list stays in arrival order.
    #[test]
    fn consolidation_visits_aggregates_in_arrival_order() {
        let arr = |at_ms: u64, cpus: u32, life_s: u64| VmArrival {
            at: SimTime::from_millis(at_ms),
            cpus,
            ram: ByteSize::gib(u64::from(cpus)),
            lifetime: SimTime::from_secs(life_s),
        };
        let trace = ArrivalTrace {
            arrivals: vec![
                arr(0, 5, 1),      // vm0 → node0, leaves at 1 s
                arr(100, 4, 100),  // vm1 → node0
                arr(200, 7, 3),    // vm2 → node1, leaves at 3.2 s
                arr(300, 2, 100),  // vm3 → node0
                arr(400, 10, 100), // vm4 → node2; free CPUs 1, 5, 2
                arr(500, 11, 3),   // vm5: 8 free in all, delayed
                arr(600, 7, 3),    // vm6: aggregate over node1 and node2
            ],
        };
        let r = DatacenterSim::new(
            3,
            MachineSpec::fig14(),
            ConsolidationPolicy::MinNodes,
            trace,
        )
        .run();
        let ms = SimTime::from_millis;
        let logged = |at_ms: Option<u64>, kind: fn(&PlacementKind) -> bool| -> Vec<usize> {
            r.events
                .iter()
                .filter(|e| at_ms.is_none_or(|t| e.at == ms(t)) && kind(&e.kind))
                .map(|e| e.vm.index())
                .collect()
        };
        // vm5 is delayed and starts as an aggregate after the younger vm6.
        assert_eq!(logged(None, |k| *k == PlacementKind::Delayed), [5]);
        let aggregate = |k: &PlacementKind| matches!(k, PlacementKind::Aggregate(_));
        assert_eq!(logged(Some(600), aggregate), [6]);
        assert_eq!(logged(Some(3_200), aggregate), [5]);
        // vm2's departure at 3.2 s starts vm5, and the same consolidation
        // pass moves vm5 before vm6.
        let migrated = |k: &PlacementKind| matches!(k, PlacementKind::Migrated(_));
        assert_eq!(logged(Some(3_200), migrated), [5, 6]);
    }

    #[test]
    fn first_and_worst_fit_baselines_run() {
        let mut rng = DetRng::new(11);
        let trace =
            ArrivalTrace::generate(&mut rng, 100, SimTime::from_secs(1), SimTime::from_secs(40));
        let ff = DatacenterSim::with_policy(
            4,
            MachineSpec::fig14(),
            PlacementPolicy::FirstFit,
            trace.clone(),
        )
        .run();
        let wf =
            DatacenterSim::with_policy(4, MachineSpec::fig14(), PlacementPolicy::WorstFit, trace)
                .run();
        assert_eq!(ff.aggregates, 0, "baselines never aggregate");
        assert_eq!(wf.aggregates, 0);
        assert!(ff.singles > 0 && wf.singles > 0);
        // Both drain completely.
        assert_eq!(ff.final_fragmentation.free_cpus, 4 * 12);
        assert_eq!(wf.final_fragmentation.free_cpus, 4 * 12);
    }
}
