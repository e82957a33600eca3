//! Model-based equivalence test for the fast-path directory.
//!
//! The production [`Dsm`] earns its speed from representation tricks —
//! bitset sharer sets, incremental counters, an append-only page log with
//! amortized compaction. This test pins its *observable behavior* to a
//! deliberately naive reference implementation (BTree maps/sets, queries
//! by full scan, no incremental anything) driven in lockstep over random
//! access / drain / bulk-register sequences. Any divergence in returned
//! [`Resolution`]s, owners, modes, cached sets, or accounting counts is a
//! bug in one of the representations.

use std::collections::{BTreeMap, BTreeSet};

use comm::NodeId;
use dsm::{Access, Dsm, DsmConfig, FaultKind, FaultPlan, Mode, PageClass, PageId, Resolution};
use proptest::prelude::*;

const NODES: u32 = 4;
const PAGES: u32 = 8;

/// Naive shadow of one directory entry.
#[derive(Debug, Clone)]
struct RefPage {
    owner: u32,
    exclusive: bool,
    sharers: BTreeSet<u32>,
}

/// The reference directory: same protocol, simplest possible state.
#[derive(Debug, Default)]
struct RefDir {
    pages: BTreeMap<u32, RefPage>,
    bulk: BTreeMap<u32, u64>,
    prefetch: u32,
}

impl RefDir {
    fn ensure(&mut self, page: u32, home: u32) {
        self.pages.entry(page).or_insert_with(|| RefPage {
            owner: home,
            exclusive: true,
            sharers: BTreeSet::from([home]),
        });
    }

    fn access(&mut self, node: u32, page: u32, write: bool) -> Resolution {
        if !self.pages.contains_key(&page) {
            self.ensure(page, node);
            return Resolution::Hit;
        }
        let e = self.pages.get_mut(&page).unwrap();
        if !write {
            if e.sharers.contains(&node) {
                return Resolution::Hit;
            }
            let owner = e.owner;
            e.exclusive = false;
            e.sharers.insert(node);
            let mut prefetched = Vec::new();
            for i in 1..=self.prefetch {
                let Some(next) = self.pages.get_mut(&(page + i)) else {
                    break;
                };
                if next.owner != owner || next.sharers.contains(&node) {
                    break;
                }
                next.exclusive = false;
                next.sharers.insert(node);
                prefetched.push(PageId::new(page + i));
            }
            return Resolution::Fault(FaultPlan {
                page: PageId::new(page),
                kind: FaultKind::ReadRemote {
                    owner: NodeId::new(owner),
                },
                class: PageClass::Private,
                contextual: false,
                dirty_bit_msg: false,
                prefetched,
            });
        }
        if e.owner == node && e.exclusive {
            return Resolution::Hit;
        }
        let kind = if e.owner == node {
            FaultKind::Upgrade {
                invalidate: e
                    .sharers
                    .iter()
                    .filter(|&&s| s != node)
                    .map(|&s| NodeId::new(s))
                    .collect(),
            }
        } else {
            FaultKind::WriteRemote {
                owner: NodeId::new(e.owner),
                invalidate: e
                    .sharers
                    .iter()
                    .filter(|&&s| s != node && s != e.owner)
                    .map(|&s| NodeId::new(s))
                    .collect(),
            }
        };
        e.owner = node;
        e.exclusive = true;
        e.sharers = BTreeSet::from([node]);
        Resolution::Fault(FaultPlan {
            page: PageId::new(page),
            kind,
            class: PageClass::Private,
            contextual: false,
            dirty_bit_msg: false,
            prefetched: Vec::new(),
        })
    }

    fn drain(&mut self, node: u32, new_home: u32) -> u64 {
        if node == new_home {
            return 0;
        }
        let mut moved = 0;
        if let Some(b) = self.bulk.remove(&node) {
            *self.bulk.entry(new_home).or_insert(0) += b;
            moved += b;
        }
        for e in self.pages.values_mut() {
            if e.owner == node {
                e.owner = new_home;
                e.sharers.remove(&node);
                e.sharers.insert(new_home);
                moved += 1;
            } else {
                e.sharers.remove(&node);
            }
        }
        moved
    }

    fn owned_by(&self, node: u32) -> u64 {
        self.pages.values().filter(|e| e.owner == node).count() as u64
            + self.bulk.get(&node).copied().unwrap_or(0)
    }

    fn cached_on(&self, node: u32) -> u64 {
        self.pages
            .values()
            .filter(|e| e.sharers.contains(&node))
            .count() as u64
    }

    fn total(&self) -> u64 {
        self.pages.len() as u64 + self.bulk.values().sum::<u64>()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access { node: u32, page: u32, write: bool },
    Drain { node: u32, new_home: u32 },
    Bulk { home: u32, pages: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..NODES, 0..PAGES, any::<bool>())
            .prop_map(|(node, page, write)| Op::Access { node, page, write }),
        1 => (0..NODES, 0..NODES).prop_map(|(node, new_home)| Op::Drain { node, new_home }),
        1 => (0..NODES, 1u64..64).prop_map(|(home, pages)| Op::Bulk { home, pages }),
    ]
}

/// Checks every observable query against the reference after one step.
fn assert_equivalent(d: &Dsm, r: &RefDir) -> Result<(), TestCaseError> {
    for page in 0..PAGES {
        let p = PageId::new(page);
        let re = r.pages.get(&page);
        prop_assert_eq!(d.owner(p).map(|n| n.0), re.map(|e| e.owner));
        prop_assert_eq!(
            d.mode(p),
            re.map(|e| if e.exclusive {
                Mode::Exclusive
            } else {
                Mode::Shared
            })
        );
        for node in 0..NODES {
            prop_assert_eq!(
                d.is_cached(p, NodeId::new(node)),
                re.is_some_and(|e| e.sharers.contains(&node)),
                "page {} node {}",
                page,
                node
            );
        }
    }
    for node in 0..NODES {
        prop_assert_eq!(d.pages_owned_by(NodeId::new(node)), r.owned_by(node));
        prop_assert_eq!(d.pages_cached_on(NodeId::new(node)), r.cached_on(node));
    }
    let dist: BTreeMap<u32, u64> = d
        .owned_distribution()
        .into_iter()
        .map(|(n, c)| (n.0, c))
        .collect();
    let ref_dist: BTreeMap<u32, u64> = (0..NODES)
        .map(|n| (n, r.owned_by(n)))
        .filter(|&(_, c)| c > 0)
        .collect();
    prop_assert_eq!(dist, ref_dist);
    prop_assert_eq!(d.total_pages(), r.total());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_directory_matches_naive_reference(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        prefetch in 0u32..3,
    ) {
        let mut d = Dsm::new(DsmConfig {
            page_size: sim_core::units::ByteSize::kib(4),
            contextual: false,
            dirty_bit_tracking: false,
            read_prefetch: prefetch,
        });
        let mut r = RefDir {
            prefetch,
            ..RefDir::default()
        };
        for op in &ops {
            match *op {
                Op::Access { node, page, write } => {
                    let access = if write { Access::Write } else { Access::Read };
                    let got = d.access(NodeId::new(node), PageId::new(page), access);
                    let want = r.access(node, page, write);
                    prop_assert_eq!(got, want);
                }
                Op::Drain { node, new_home } => {
                    let got = d.drain_node(NodeId::new(node), NodeId::new(new_home));
                    let want = r.drain(node, new_home);
                    prop_assert_eq!(got, want, "drain moved-count diverged");
                }
                Op::Bulk { home, pages } => {
                    d.register_bulk(NodeId::new(home), pages);
                    *r.bulk.entry(home).or_insert(0) += pages;
                }
            }
            prop_assert!(d.check_invariants().is_ok(), "{:?}", d.check_invariants());
            assert_equivalent(&d, &r)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random access sequences long enough to push the page logs past the
    /// compaction threshold again and again. Right after each compaction
    /// the node's log holds every page the node shares exactly once: it
    /// has one entry per cached page, and `verify_indices` finds each of
    /// them in it (it also checks that the pass left no mark bit set).
    #[test]
    fn compacted_logs_hold_each_shared_page_once(
        ops in proptest::collection::vec((0..NODES, 0u32..64, any::<bool>()), 800..1600),
        prefetch in 0u32..3,
    ) {
        let mut d = Dsm::new(DsmConfig {
            page_size: sim_core::units::ByteSize::kib(4),
            contextual: false,
            dirty_bit_tracking: false,
            read_prefetch: prefetch,
        });
        let mut compactions = 0;
        for (node, page, write) in ops {
            let n = NodeId::new(node);
            let before = d.log_len(n);
            let access = if write { Access::Write } else { Access::Read };
            let _ = d.access(n, PageId::new(page), access);
            // Only compaction shrinks a log; an access appends to it.
            if d.log_len(n) < before {
                compactions += 1;
                prop_assert_eq!(d.log_len(n) as u64, d.pages_cached_on(n));
                prop_assert!(d.verify_indices().is_ok(), "{:?}", d.verify_indices());
            }
        }
        prop_assert!(compactions > 0, "no compaction ran");
        prop_assert!(d.check_invariants().is_ok(), "{:?}", d.check_invariants());
    }
}
