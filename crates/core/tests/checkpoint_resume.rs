//! Property tests for the crash-safe run harness: checkpointing at an
//! arbitrary interval must not perturb the simulation, and resuming from
//! any checkpoint taken mid-run must reproduce the uninterrupted
//! [`RunReport`] bit for bit — with and without an active fault plan, and
//! for an S-App path of each kind the loop treats differently: D-ORAM's
//! secure channel, the Baseline's on-chip ORAM and an NS-only fabric.
//! Most checkpoints of these co-runs fall in cycles where some cores are
//! parked inside their quiet horizon. An attacked run, whose plan carries
//! site windows, resumes from checkpoints inside and between its bursts.
//!
//! Bit-identity is checked two ways: on the `Debug` rendering (Rust prints
//! `f64` with round-trip precision, so any drift in a derived statistic
//! shows up) and on the serialized JSON the CLI emits.

use doram_core::report::report_json;
use doram_core::secure_channel::{adversary_sub_plan, SD_SUB_SITE_BASE};
use doram_core::system::{RunOptions, Simulation};
use doram_core::{RunReport, Scheme, SystemConfig};
use doram_sim::fault::{FaultKind, FaultPlan, FaultRates, FAULT_KINDS};
use doram_sim::MemCycle;
use doram_trace::Benchmark;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The schemes the fault-free property runs.
const SCHEMES: [Scheme; 3] = [
    Scheme::DOram { k: 0, c: 7 },
    Scheme::Baseline,
    Scheme::Ns7on4,
];

/// A small run of `scheme` (~10k memory cycles for D-ORAM, which still
/// exercises the secure channel, the ORAM engine, and split traffic — the
/// hardest state to checkpoint). `faulty` layers a sub-threshold fault
/// plan on top so the recovery machinery (retries, quarantine counters,
/// latched faults) is part of the snapshot too.
fn config(scheme: Scheme, faulty: bool) -> SystemConfig {
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
        .scheme(scheme)
        .ns_accesses(300)
        .tree_l_max(12)
        .max_mem_cycles(50_000_000)
        .fault_plan(plan)
        .build()
        .unwrap()
}

/// The attacks of [`attacked_config`]: replay, relocation and rollback
/// bursts on secure sub-channel 0, one after another from cycle 300.
fn attack_plan() -> FaultPlan {
    let kinds = [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ];
    adversary_sub_plan(42, &kinds, 0, 300, 4, 100_000).unwrap()
}

/// A D-ORAM run under [`attack_plan`], with parity and scrub on: about
/// 14,700 memory cycles, long enough for every burst kind to fire.
fn attacked_config() -> SystemConfig {
    SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(500)
        .tree_l_max(12)
        .max_mem_cycles(50_000_000)
        .parity(true)
        .scrub_every(500)
        .fault_plan(attack_plan())
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
fn check_resume_identity(tag: &str, scheme: Scheme, faulty: bool, every: u64, pick: usize) {
    let config = || config(scheme, faulty);
    let baseline = Simulation::new(config()).unwrap().run().unwrap();

    let dir = fresh_dir(tag);
    let opts = RunOptions {
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let checkpointed = Simulation::new(config()).unwrap().run_with(&opts).unwrap();
    assert_reports_identical(
        &format!("{scheme:?} checkpointed run"),
        &checkpointed,
        &baseline,
    );

    let files = checkpoints(&dir);
    assert!(
        !files.is_empty(),
        "interval {every} produced no checkpoints in a {scheme:?} run"
    );
    let chosen = &files[pick % files.len()];
    let resumed = Simulation::resume(config(), chosen).unwrap().run().unwrap();
    assert_reports_identical(&format!("{scheme:?} resumed run"), &resumed, &baseline);

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
        for (i, scheme) in SCHEMES.into_iter().enumerate() {
            check_resume_identity(&format!("clean-{i}-{every}-{pick}"), scheme, false, every, pick);
        }
    }

    #[test]
    fn resume_is_bit_identical_under_faults(every in 500u64..4_000, pick in 0usize..64) {
        let scheme = Scheme::DOram { k: 0, c: 7 };
        check_resume_identity(&format!("faulty-{every}-{pick}"), scheme, true, every, pick);
    }
}

/// An attacked run resumes bit-identically from every checkpoint of a
/// 997-cycle interval: inside each kind's burst, where the injectors roll
/// against a site window, and between bursts. Whatever the injectors and
/// the SD verifier derive from their configuration or state instead of
/// checkpointing it must come back as it was.
#[test]
fn resume_is_bit_identical_inside_and_between_attack_bursts() {
    let baseline = Simulation::new(attacked_config()).unwrap().run().unwrap();
    let f = baseline.faults.as_ref().expect("fault block present");
    assert!(
        f.replay_detected > 0 && f.relocation_detected > 0 && f.rollback_rejected > 0,
        "every attack kind must fire and be caught: {f:?}"
    );

    let dir = fresh_dir("attacked");
    let opts = RunOptions {
        checkpoint_every: Some(997),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let checkpointed = Simulation::new(attacked_config())
        .unwrap()
        .run_with(&opts)
        .unwrap();
    assert_reports_identical("attacked checkpointed run", &checkpointed, &baseline);

    let plan = attack_plan();
    let mut phases = BTreeSet::new();
    for file in checkpoints(&dir) {
        let stem = file.file_stem().unwrap().to_str().unwrap();
        let cycle: u64 = stem.trim_start_matches("ckpt-").parse().unwrap();
        let rates = plan.rates_at_site(SD_SUB_SITE_BASE, MemCycle(cycle));
        let phase = FAULT_KINDS
            .into_iter()
            .find(|&k| rates.rate(k) > 0)
            .map_or("between bursts", |k| k.label());
        phases.insert(phase);
        let resumed = Simulation::resume(attacked_config(), &file)
            .unwrap()
            .run()
            .unwrap();
        assert_reports_identical(
            &format!("attacked run resumed at cycle {cycle} ({phase})"),
            &resumed,
            &baseline,
        );
    }
    assert_eq!(
        phases.len(),
        4,
        "checkpoints must fall inside every burst kind and between bursts: {phases:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
