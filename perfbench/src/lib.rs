//! End-to-end and per-layer benchmark of the Aggregate VM simulator.
//!
//! Four workloads cover the runs people use — the paper figures, the
//! FragBFF data-center replay, the 1,000-VM fleet and the chaos soak —
//! and every layer is timed from outside, around the benchmark's calls
//! into its public functions. See `BENCHMARK.json` at the repository root
//! for the metrics and what each layer is predicted to move.

pub mod chaos;
pub mod stepper;
pub mod workloads;

use std::collections::BTreeMap;

/// Recorded output digests, keyed by operation; an operation's key names
/// its inputs, so a digest applies wherever the same inputs recur
/// (`golden.txt`; regenerate with `perfbench record`).
pub fn golden() -> BTreeMap<String, u64> {
    include_str!("../golden.txt")
        .lines()
        .filter_map(|line| {
            let (key, hex) = line.split_once(' ')?;
            Some((key.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// The `q`-quantile (0 ..= 1, nearest rank) of a sample; 0 for an empty
/// one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((n - 1) as f64 * q).round() as usize],
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
