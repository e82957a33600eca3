//! Cross-shard message staging for conservative parallel simulation.
//!
//! A sharded fleet engine (see `hypervisor::fleet`) advances its shards in
//! lock-step windows whose width is bounded by the minimum cross-shard
//! [`LinkProfile::lookahead`]. During a window each shard records outbound
//! cross-shard traffic as [`StagedMsg`] values instead of delivering it;
//! at the window barrier the coordinator merges every shard's stage with
//! [`merge_windows`] and assigns arrival times through an [`IngressLine`].
//!
//! # Determinism contract
//!
//! The merge key is `(depart, src_shard, src_seq)`. `src_seq` is a
//! per-shard monotone counter, so the key is unique and the merged order
//! is a pure function of the staged *set* — independent of worker thread
//! scheduling, of how shards are assigned to workers, and of the order the
//! coordinator receives the stages. [`IngressLine::admit`] must then be
//! called in exactly that merged order: its per-destination free-time line
//! makes each arrival time depend only on the (deterministic) prefix of
//! earlier admissions. This is the cross-shard analogue of the per-link
//! FIFO the fabric's QoS queues enforce within a shard, and the trace
//! auditor's `fleet-*` rules check it after the fact.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use sim_core::time::SimTime;
use sim_core::units::ByteSize;

use crate::profile::LinkProfile;

/// One cross-shard message captured at its source shard during a window.
///
/// Purely plain data: this is the only thing that crosses threads in the
/// fleet engine, so it must stay `Send` and carry no interior mutability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedMsg {
    /// Virtual time the message left its source endpoint.
    pub depart: SimTime,
    /// Shard that staged the message.
    pub src_shard: u32,
    /// Per-shard monotone sequence number (merge tie-breaker).
    pub src_seq: u64,
    /// Global source endpoint (fleet tenant) id.
    pub src: u32,
    /// Global destination endpoint (fleet tenant) id.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Opaque application tag carried to the receiver.
    pub tag: u64,
}

impl StagedMsg {
    /// The deterministic merge key: departure time, then source shard,
    /// then the per-shard staging sequence. Unique by construction.
    pub fn key(&self) -> (SimTime, u32, u64) {
        (self.depart, self.src_shard, self.src_seq)
    }
}

/// Merges per-shard window stages into one deterministic delivery order.
///
/// Appends every staged message to `out` in [`StagedMsg::key`] order and
/// leaves each stage empty, keeping its capacity for the next window.
/// Each stage must already be sorted by key, as a shard's stage is when it
/// numbers its sends in issue order; the merge is then a k-way merge of
/// the stage heads, `O(n log k)` for `n` messages over `k` stages. Because
/// keys are unique the output is independent of the order of `stages`
/// (shards may report in any order without breaking byte-identity).
pub fn merge_windows(stages: &mut [Vec<StagedMsg>], out: &mut Vec<StagedMsg>) {
    debug_assert!(
        stages
            .iter()
            .all(|s| s.windows(2).all(|w| w[0].key() < w[1].key())),
        "every stage must be sorted by key"
    );
    let total: usize = stages.iter().map(Vec::len).sum();
    if total == 0 {
        return;
    }
    out.reserve(total);
    // Min-heap of (head key, stage index); `next[i]` is stage i's cursor.
    let mut heads: BinaryHeap<_> = stages
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.first().map(|m| Reverse((m.key(), i))))
        .collect();
    let mut next = vec![0usize; stages.len()];
    while let Some(Reverse((_, i))) = heads.pop() {
        let stage = &stages[i];
        out.push(stage[next[i]].clone());
        next[i] += 1;
        if let Some(m) = stage.get(next[i]) {
            heads.push(Reverse((m.key(), i)));
        }
    }
    for stage in stages {
        stage.clear();
    }
}

/// Minimum lookahead over a set of cross-shard link profiles — the widest
/// safe lock-step window for a conservative parallel run. `None` when the
/// iterator is empty (no cross-shard links: shards are fully independent
/// and any window width is safe).
pub fn min_lookahead<'a>(profiles: impl IntoIterator<Item = &'a LinkProfile>) -> Option<SimTime> {
    profiles.into_iter().map(LinkProfile::lookahead).min()
}

/// The coordinator-owned arrival line of one ingress point (e.g. a
/// destination node's uplink NIC): cross-shard messages to the same
/// destination serialize onto it in merge order, so incast converges to a
/// deterministic queueing tail instead of a thread-timing-dependent one.
#[derive(Debug, Clone)]
pub struct IngressLine {
    profile: LinkProfile,
    free_at: BTreeMap<u32, SimTime>,
}

impl IngressLine {
    /// Creates an idle line where every destination is free at time zero.
    pub fn new(profile: LinkProfile) -> Self {
        IngressLine {
            profile,
            free_at: BTreeMap::new(),
        }
    }

    /// The uplink profile this line serializes onto.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Admits a message of `bytes` departing at `depart` towards ingress
    /// point `dst`; returns its arrival time. `stretch` is the closed-form
    /// weighted-fair slowdown for the sender's QoS weight (1 = full line
    /// rate), mirroring the fabric's bulk-tier model.
    ///
    /// Must be called in [`merge_windows`] order — the per-`dst` free-time
    /// line advances monotonically with each call, so arrival times are a
    /// deterministic function of the merged prefix. The returned time is
    /// always ≥ `depart + lookahead`, which is what lets the fleet engine
    /// inject arrivals at the *next* window without violating causality.
    pub fn admit(&mut self, dst: u32, depart: SimTime, bytes: ByteSize, stretch: u32) -> SimTime {
        let base = depart + self.profile.lookahead();
        let slot = self.free_at.entry(dst).or_insert(SimTime::ZERO);
        let start = base.max(*slot);
        let wire = self.profile.bandwidth.transfer_time(bytes);
        let deliver = start + SimTime::from_nanos(wire.as_nanos().saturating_mul(stretch.into()));
        *slot = deliver;
        deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(depart_us: u64, shard: u32, seq: u64, dst: u32) -> StagedMsg {
        StagedMsg {
            depart: SimTime::from_micros(depart_us),
            src_shard: shard,
            src_seq: seq,
            src: 100 + shard,
            dst,
            bytes: 4096,
            tag: 0,
        }
    }

    fn merged(mut stages: Vec<Vec<StagedMsg>>) -> Vec<StagedMsg> {
        let mut out = Vec::new();
        merge_windows(&mut stages, &mut out);
        assert!(stages.iter().all(Vec::is_empty), "stages are drained");
        out
    }

    #[test]
    fn merge_is_independent_of_stage_order() {
        let a = vec![m(10, 0, 0, 1), m(30, 0, 1, 2)];
        let b = vec![m(10, 1, 0, 1), m(20, 1, 1, 3)];
        let fwd = merged(vec![a.clone(), b.clone()]);
        let rev = merged(vec![b, a]);
        assert_eq!(fwd, rev);
        let keys: Vec<_> = fwd.iter().map(StagedMsg::key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Same depart time: shard 0 wins the tie deterministically.
        assert_eq!(fwd[0].src_shard, 0);
        assert_eq!(fwd[1].src_shard, 1);
    }

    #[test]
    fn k_way_merge_matches_a_full_sort() {
        let mut rng = sim_core::rng::DetRng::new(0x5EED);
        for _ in 0..200 {
            let shards = rng.range(1, 7) as u32;
            // Each stage departs in nondecreasing time with a rising
            // sequence, as a shard stages its sends in issue order; coarse
            // times make cross-stage ties common.
            let mut stages: Vec<Vec<StagedMsg>> = (0..shards)
                .map(|shard| {
                    let mut t = 0;
                    (0..rng.range(0, 12))
                        .map(|seq| {
                            t += rng.range(0, 3);
                            m(t, shard, seq, rng.range(0, 4) as u32)
                        })
                        .collect()
                })
                .collect();
            let mut sorted: Vec<StagedMsg> = stages.iter().flatten().cloned().collect();
            sorted.sort_by_key(StagedMsg::key);
            let mut out = vec![m(0, 99, 0, 0)];
            merge_windows(&mut stages, &mut out);
            assert_eq!(out[0].src_shard, 99, "merge appends to `out`");
            assert_eq!(out[1..], sorted[..]);
        }
    }

    #[test]
    fn ingress_respects_lookahead_and_serializes_incast() {
        let profile = LinkProfile::infiniband_56g();
        let mut line = IngressLine::new(profile);
        let d = SimTime::from_micros(50);
        let first = line.admit(7, d, ByteSize::kib(64), 1);
        assert!(first >= d + profile.lookahead());
        // A burst to the same destination queues behind the first message…
        let second = line.admit(7, d, ByteSize::kib(64), 1);
        assert!(second > first);
        // …while another destination's line is unaffected.
        let other = line.admit(8, d, ByteSize::kib(64), 1);
        assert_eq!(other, first);
    }

    #[test]
    fn ingress_stretch_slows_low_weight_senders() {
        let profile = LinkProfile::infiniband_56g();
        let mut line = IngressLine::new(profile);
        let d = SimTime::from_micros(10);
        let fast = line.admit(1, d, ByteSize::mib(1), 1);
        let slow = line.admit(2, d, ByteSize::mib(1), 4);
        assert!(slow - d > (fast - d) + SimTime::from_micros(1));
    }

    #[test]
    fn min_lookahead_picks_the_tightest_link() {
        let ib = LinkProfile::infiniband_56g();
        let eth = LinkProfile::ethernet_1g();
        assert_eq!(min_lookahead([&ib, &eth]), Some(ib.lookahead()));
        assert_eq!(min_lookahead([]), None);
    }
}
