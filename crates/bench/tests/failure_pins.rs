//! The two failure studies that run `VmWorld::recover_node` end to end
//! are pinned by an FNV-1a digest of each table's JSON, so a change to
//! detection, quarantine or restore accounting that moves either table
//! fails tier-1.
//!
//! Both studies read a `*_SMOKE` variable; the pins are for the full
//! sweeps, so run these tests without it.

use bench_harness::experiments::{fault_recovery_study, partition_study};
use sim_core::digest::fnv1a;

fn assert_pinned(name: &str, json: String, want: u64) {
    let got = fnv1a(json.as_bytes());
    assert_eq!(got, want, "{name} moved: digest {got:016x}\n{json}");
}

#[test]
fn fault_recovery_study_is_pinned() {
    assert_pinned(
        "fault_recovery_study",
        fault_recovery_study().to_json(),
        0x807e_6fb1_fb97_77e0,
    );
}

#[test]
fn partition_study_is_pinned() {
    assert_pinned(
        "partition_study",
        partition_study().to_json(),
        0x883e_e810_62d9_bb25,
    );
}
