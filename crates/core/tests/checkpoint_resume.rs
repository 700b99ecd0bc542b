//! Property tests for the crash-safe run harness: checkpointing at an
//! arbitrary interval must not perturb the simulation, and resuming from
//! any checkpoint taken mid-run must reproduce the uninterrupted
//! [`RunReport`] bit for bit — with and without an active fault plan.
//!
//! Bit-identity is checked two ways: on the `Debug` rendering (Rust prints
//! `f64` with round-trip precision, so any drift in a derived statistic
//! shows up) and on the serialized JSON the CLI emits.

use doram_core::report::report_json;
use doram_core::system::{RunOptions, Simulation};
use doram_core::{RunReport, Scheme, SystemConfig};
use doram_sim::fault::{FaultPlan, FaultRates};
use doram_trace::Benchmark;
use proptest::prelude::*;

/// A small D-ORAM run (~10k memory cycles) that still exercises the secure
/// channel, the ORAM engine, and split traffic — the hardest state to
/// checkpoint. `faulty` layers a sub-threshold fault plan on top so the
/// recovery machinery (retries, quarantine counters, latched faults) is
/// part of the snapshot too.
fn config(faulty: bool) -> SystemConfig {
    let plan = if faulty {
        FaultPlan::with_rates(
            42,
            FaultRates {
                corrupt_ppm: 500,
                drop_ppm: 200,
                bitflip_ppm: 2_000,
                forge_mac_ppm: 500,
                ..FaultRates::none()
            },
        )
    } else {
        FaultPlan::none()
    };
    SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(300)
        .tree_l_max(12)
        .max_mem_cycles(50_000_000)
        .fault_plan(plan)
        .build()
        .unwrap()
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("doram-ckpt-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All checkpoint files in `dir`, sorted by cycle (the filename embeds the
/// cycle zero-padded, so lexicographic order is cycle order).
fn checkpoints(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dorc"))
        .collect();
    files.sort();
    files
}

fn assert_reports_identical(what: &str, got: &RunReport, want: &RunReport) {
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{what}: Debug rendering differs"
    );
    assert_eq!(
        report_json(got),
        report_json(want),
        "{what}: JSON rendering differs"
    );
}

/// Core property: run to completion with periodic checkpoints, then pick
/// one of the checkpoints and resume from it; both the checkpointed run
/// and the resumed run must match the uninterrupted baseline exactly.
fn check_resume_identity(tag: &str, faulty: bool, every: u64, pick: usize) {
    let baseline = Simulation::new(config(faulty)).unwrap().run().unwrap();

    let dir = fresh_dir(tag);
    let opts = RunOptions {
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let checkpointed = Simulation::new(config(faulty))
        .unwrap()
        .run_with(&opts)
        .unwrap();
    assert_reports_identical("checkpointed run", &checkpointed, &baseline);

    let files = checkpoints(&dir);
    assert!(
        !files.is_empty(),
        "interval {every} produced no checkpoints in a ~10k-cycle run"
    );
    let chosen = &files[pick % files.len()];
    let resumed = Simulation::resume(config(faulty), chosen)
        .unwrap()
        .run()
        .unwrap();
    assert_reports_identical("resumed run", &resumed, &baseline);

    // Fault accounting must survive the round trip too, not just latency.
    if faulty {
        let fr = resumed.faults.as_ref().expect("fault block present");
        let br = baseline.faults.as_ref().expect("fault block present");
        assert_eq!(fr, br, "fault counters diverged across resume");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn resume_is_bit_identical_without_faults(every in 500u64..4_000, pick in 0usize..64) {
        check_resume_identity(&format!("clean-{every}-{pick}"), false, every, pick);
    }

    #[test]
    fn resume_is_bit_identical_under_faults(every in 500u64..4_000, pick in 0usize..64) {
        check_resume_identity(&format!("faulty-{every}-{pick}"), true, every, pick);
    }
}
