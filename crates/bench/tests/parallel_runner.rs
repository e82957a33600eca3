//! The parallel figure runner must be invisible in the output: same
//! tables, same order, byte-identical serializations. The serial tables
//! must also match the figure digests recorded in `perfbench/golden.txt`,
//! so a change to any paper figure fails tier-1, not only a perfbench run.

use bench_harness::experiments::{all, all_parallel, FIGURES};
use bench_harness::report::tables_to_json;
use sim_core::digest::fnv1a;

/// The `figures/<name>` digests of `perfbench/golden.txt`, in file order.
fn golden_figures() -> Vec<(&'static str, u64)> {
    include_str!("../../../perfbench/golden.txt")
        .lines()
        .filter_map(|line| {
            let (key, hex) = line.split_once(' ')?;
            let name = key.strip_prefix("figures/")?;
            let digest = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            Some((name, digest))
        })
        .collect()
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let serial = all();
    // More jobs than experiments also exercises the clamp path. (The
    // `jobs == 1` case short-circuits to `all()` and needs no test.)
    let parallel = all_parallel(FIGURES.len() * 2);
    assert_eq!(serial.len(), FIGURES.len());
    assert_eq!(parallel.len(), serial.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id);
        assert_eq!(s.render(), p.render(), "{} diverged", s.id);
        assert_eq!(s.to_markdown(), p.to_markdown(), "{} diverged", s.id);
    }
    assert_eq!(tables_to_json(&serial), tables_to_json(&parallel));

    // Same digest as perfbench's `figures` workload: FNV-1a over each
    // table's JSON.
    let golden = golden_figures();
    assert_eq!(golden.len(), FIGURES.len());
    for ((&(name, _), table), (golden_name, digest)) in FIGURES.iter().zip(&serial).zip(golden) {
        assert_eq!(name, golden_name, "golden.txt lists figures in paper order");
        assert_eq!(
            fnv1a(table.to_json().as_bytes()),
            digest,
            "{name} no longer matches its golden digest"
        );
    }
}
