//! The free-capacity index behind [`Cluster`](crate::Cluster)'s placement
//! queries.
//!
//! Machines are grouped by their exact free-pCPU count (a *bucket*). Each
//! bucket is a node bitset, stored as one row of a flat word table, with a
//! node count beside it so emptiness is one load. A dense per-node free-RAM
//! column backs the RAM side of every query, so a scan reads one `u64` per
//! candidate instead of a whole `Machine`.
//!
//! A mutation moves one node between two buckets — two bit flips, two
//! count updates, a floor update and one store into the column, with no
//! allocation. A
//! fit query scans the bits of the first bucket that can hold a fitting
//! machine; at data-center scale that bucket holds a few nodes, while an
//! ordered set per bucket made every one of the far more frequent updates
//! pay for a tree remove and insert. The exception is the bucket of idle
//! machines, which worst-fit reads and which can hold most of the
//! cluster: a per-bucket floor on free RAM lets the scan stop at the
//! first machine that sits on the floor, and in a homogeneous cluster
//! every idle machine does.

/// Bitset buckets by free pCPUs, plus the free-RAM column.
#[derive(Debug, Clone)]
pub(crate) struct FreeIndex {
    /// Words per bucket row: `ceil(nodes / 64)`.
    stride: usize,
    /// `words[f * stride + i / 64]` has bit `i % 64` set iff node `i` has
    /// exactly `f` free pCPUs.
    words: Vec<u64>,
    /// `counts[f]`: number of nodes in bucket `f`.
    counts: Vec<u32>,
    /// `floor[f]`: at most the free RAM of every node in bucket `f`. It
    /// is lowered on insert and only reset (to `u64::MAX`) when the bucket
    /// empties, so it may sit below the bucket's true minimum.
    floor: Vec<u64>,
    /// `free_ram[i]`: free RAM bytes of node `i`.
    free_ram: Vec<u64>,
}

/// The set bits of `words`, ascending, as node indices.
fn ones(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            Some(w as u32 * 64 + b)
        })
    })
}

impl FreeIndex {
    /// An index over `free`, the `(free pCPUs, free RAM bytes)` of each
    /// node in id order, with buckets `0..buckets`.
    pub(crate) fn new(buckets: usize, free: impl ExactSizeIterator<Item = (u32, u64)>) -> Self {
        let nodes = free.len();
        let stride = nodes.div_ceil(64);
        let mut index = FreeIndex {
            stride,
            words: vec![0; buckets * stride],
            counts: vec![0; buckets],
            floor: vec![u64::MAX; buckets],
            free_ram: Vec::with_capacity(nodes),
        };
        for (i, (cpus, ram)) in free.enumerate() {
            index.set(i, cpus as usize, ram);
            index.free_ram.push(ram);
        }
        index
    }

    /// Number of buckets: one more than the largest machine's pCPUs.
    pub(crate) fn buckets(&self) -> usize {
        self.counts.len()
    }

    fn row(&self, f: usize) -> &[u64] {
        &self.words[f * self.stride..(f + 1) * self.stride]
    }

    fn set(&mut self, i: usize, f: usize, ram: u64) {
        self.words[f * self.stride + i / 64] |= 1 << (i % 64);
        self.counts[f] += 1;
        self.floor[f] = self.floor[f].min(ram);
    }

    /// Records that node `i` went from `was` to `now` free pCPUs and now
    /// has `ram` free RAM bytes.
    pub(crate) fn update(&mut self, i: usize, was: u32, now: u32, ram: u64) {
        let was = was as usize;
        let (word, bit) = (was * self.stride + i / 64, 1u64 << (i % 64));
        debug_assert!(
            self.words[word] & bit != 0,
            "node {i} missing from free-CPU bucket {was}"
        );
        self.words[word] &= !bit;
        self.counts[was] -= 1;
        if self.counts[was] == 0 {
            self.floor[was] = u64::MAX;
        }
        self.set(i, now as usize, ram);
        self.free_ram[i] = ram;
    }

    /// Whether no node has exactly `f` free pCPUs.
    pub(crate) fn is_empty(&self, f: usize) -> bool {
        self.counts[f] == 0
    }

    /// The nodes of bucket `f`, ascending.
    fn bucket(&self, f: usize) -> impl Iterator<Item = u32> + '_ {
        ones(self.row(f))
    }

    /// The node of bucket `f` with the least `(free RAM, id)` among those
    /// with at least `ram` free RAM bytes.
    pub(crate) fn least_fitting(&self, f: usize, ram: u64) -> Option<u32> {
        if self.is_empty(f) {
            return None;
        }
        // No fitting node has less free RAM than this, so the first one
        // that has exactly this much is the answer.
        let least = ram.max(self.floor[f]);
        let mut best: Option<(u64, u32)> = None;
        for i in self.bucket(f) {
            let r = self.free_ram[i as usize];
            if r == least {
                return Some(i);
            }
            // Ids ascend, so a strict `<` keeps the lowest id of a tie.
            if r >= ram && best.is_none_or(|(b, _)| r < b) {
                best = Some((r, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// The lowest-numbered node with at least `from` free pCPUs and at
    /// least `ram` free RAM bytes.
    pub(crate) fn first_fitting(&self, from: usize, ram: u64) -> Option<u32> {
        let rows = from.min(self.buckets())..self.buckets();
        for w in 0..self.stride {
            let word = rows
                .clone()
                .filter(|&f| !self.is_empty(f))
                .fold(0, |acc, f| acc | self.words[f * self.stride + w]);
            if let Some(i) = ones(&[word])
                .map(|b| w as u32 * 64 + b)
                .find(|&i| self.free_ram[i as usize] >= ram)
            {
                return Some(i);
            }
        }
        None
    }

    /// Fills `buf` with the `(free RAM, id)` pairs of bucket `f`, largest
    /// first, so popping yields them in ascending order.
    pub(crate) fn sorted_desc_into(&self, f: usize, buf: &mut Vec<(u64, u32)>) {
        buf.clear();
        buf.extend(self.bucket(f).map(|i| (self.free_ram[i as usize], i)));
        // Pairs are unique (the id), so the unstable sort is deterministic.
        buf.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Audits the bitsets, counts and free-RAM column against `free`, the
    /// `(free pCPUs, free RAM bytes)` of each node in id order.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency found.
    pub(crate) fn check(&self, free: impl ExactSizeIterator<Item = (u32, u64)>) {
        let nodes = free.len();
        assert_eq!(self.free_ram.len(), nodes, "free-RAM column length drift");
        for (i, (cpus, ram)) in free.enumerate() {
            assert!(
                self.row(cpus as usize)[i / 64] & (1 << (i % 64)) != 0,
                "node {i}: missing from free-CPU bucket {cpus}"
            );
            assert_eq!(
                self.free_ram[i], ram,
                "node {i}: stale free-RAM column entry"
            );
            assert!(
                self.floor[cpus as usize] <= ram,
                "node {i}: free RAM below the floor of bucket {cpus}"
            );
        }
        for f in 0..self.buckets() {
            let bits: u32 = self.row(f).iter().map(|w| w.count_ones()).sum();
            assert_eq!(self.counts[f], bits, "free-CPU bucket {f}: stale count");
        }
        // Every node's own bit is set, so equal totals leave no room for
        // a node in a second bucket or a bit past the last node.
        let indexed: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(indexed, nodes as u64, "free-CPU index size drift");
    }
}
