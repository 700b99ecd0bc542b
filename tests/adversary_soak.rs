//! Active-adversary soak: the full stack under a seeded, bursty attack
//! schedule, plus the authenticated-checkpoint resume gate.
//!
//! A seeded [`adversary_sub_plan`] mounts staggered replay, relocation,
//! and rollback bursts against a secure sub-channel. The SD's freshness
//! machinery must detect every class (nonzero per-class counters),
//! recovery must hide all of it (the run drains; the functional oracle
//! sees zero stale reads), and the whole episode must be a deterministic
//! function of the seed.
//! Separately: keyed checkpoints must reject tampering, key loss, and
//! rollback substitution with *typed* errors at resume.

use doram::core::secure_channel::adversary_sub_plan;
use doram::core::{RunOptions, Scheme, SimError, Simulation, SystemConfig};
use doram::sim::fault::{FaultKind, FaultPlan};
use doram::trace::Benchmark;
use std::path::{Path, PathBuf};

/// Staggered, repeating bursts of all three active attacks against secure
/// sub-channel 0.
fn mixed_adversary(seed: u64) -> FaultPlan {
    let kinds = [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ];
    adversary_sub_plan(seed, &kinds, 0, 2_000, 20, 300_000).expect("valid schedule")
}

fn soak_config(seed: u64) -> SystemConfig {
    SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(800)
        .tree_l_max(12)
        .seed(seed)
        .parity(true)
        .scrub_every(2_000)
        .fault_plan(mixed_adversary(seed))
        .max_mem_cycles(100_000_000)
        .build()
        .expect("valid")
}

#[test]
fn adversary_soak_detects_every_attack_class_and_drains() {
    let soak = || {
        Simulation::new(soak_config(11))
            .expect("valid")
            .run()
            .expect("attacked run drains instead of fail-stopping")
    };
    let r = soak();
    let fr = r.faults.clone().expect("D-ORAM reports fault activity");
    // Every attack class fired and every class was caught.
    assert!(fr.injected.replays > 0, "replays must fire: {fr:?}");
    assert!(fr.injected.relocations > 0, "relocations must fire: {fr:?}");
    assert!(
        fr.injected.rollback_bursts > 0,
        "rollbacks must fire: {fr:?}"
    );
    assert!(fr.replay_detected > 0, "replays must be detected: {fr:?}");
    assert!(
        fr.relocation_detected > 0,
        "relocations must be detected: {fr:?}"
    );
    assert!(
        fr.rollback_rejected > 0,
        "rollbacks must be rejected: {fr:?}"
    );
    // Detection ran through the armed freshness tree and was paid for.
    assert!(fr.freshness_ops > 0, "tree must be armed: {fr:?}");
    assert!(fr.freshness_cycles > 0);
    // Recovery hid the attacks: every tenant and the S-App progressed.
    assert!(fr.refetches > 0, "recovery must have run: {fr:?}");
    for (i, &t) in r.ns_exec_cpu_cycles.iter().enumerate() {
        assert!(t > 0, "tenant {i} starved");
    }
    assert!(r.oram.expect("SD ran").real_accesses > 0);
    // Same seed ⇒ bit-identical attack, detection, and recovery.
    let again = soak();
    assert_eq!(again.faults.unwrap(), fr);
    assert_eq!(again.ns_exec_cpu_cycles, r.ns_exec_cpu_cycles);
    assert_eq!(again.total_mem_cycles, r.total_mem_cycles);
}

#[test]
fn adversary_knobs_off_is_bit_identical_to_legacy() {
    // The entire detection stack must vanish when no adversary is
    // configured: no freshness walks, no detections, no extra cycles.
    let clean = |seed| {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 0, c: 7 })
            .ns_accesses(400)
            .tree_l_max(12)
            .seed(seed)
            .max_mem_cycles(100_000_000)
            .build()
            .expect("valid");
        Simulation::new(cfg).expect("valid").run().expect("drains")
    };
    let r = clean(3);
    let fr = r.faults.clone().expect("fault block present");
    assert_eq!(fr.freshness_ops, 0, "tree must stay unarmed");
    assert_eq!(fr.freshness_cycles, 0);
    assert_eq!(fr.replay_detected, 0);
    assert_eq!(fr.relocation_detected, 0);
    assert_eq!(fr.rollback_rejected, 0);
    assert_eq!(
        doram::core::report::report_json(&clean(3)),
        doram::core::report::report_json(&r),
        "clean runs must stay deterministic"
    );
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("doram-advsoak-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Path of the checkpoint with the highest cycle in `dir`.
fn latest_checkpoint(dir: &Path) -> PathBuf {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dorc"))
        .collect();
    files.sort();
    files.pop().expect("at least one checkpoint written")
}

/// Asserts `result` failed with a checkpoint error whose detail carries
/// the `[kind]` discriminator.
fn expect_typed(result: Result<Simulation, SimError>, kind: &str) {
    match result {
        Err(SimError::Checkpoint { detail }) => assert!(
            detail.contains(&format!("[{kind}]")),
            "expected [{kind}] in '{detail}'"
        ),
        Err(other) => panic!("expected Checkpoint error, got {other:?}"),
        Ok(_) => panic!("resume must be rejected with [{kind}]"),
    }
}

#[test]
fn authenticated_checkpoints_reject_tampering_and_rollback() {
    let cfg = || {
        SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 1, c: 4 })
            .ns_accesses(300)
            .tree_l_max(12)
            .max_mem_cycles(20_000_000)
            .build()
            .unwrap()
    };
    let key = 0xFEED_BEEF_u64;
    let dir = ckpt_dir("auth");
    let opts = RunOptions {
        checkpoint_every: Some(2_000),
        checkpoint_dir: Some(dir.clone()),
        ckpt_key: Some(key),
        ..RunOptions::default()
    };
    let baseline = Simulation::new(cfg()).unwrap().run_with(&opts).unwrap();
    let ckpt = latest_checkpoint(&dir);

    // The happy path: the right key resumes onto the identical report.
    let resumed = Simulation::resume_with_key(cfg(), &ckpt, Some(key))
        .expect("authentic checkpoint resumes")
        .run()
        .unwrap();
    assert_eq!(format!("{resumed:?}"), format!("{baseline:?}"));

    // Wrong key and missing key are both authentication failures.
    expect_typed(
        Simulation::resume_with_key(cfg(), &ckpt, Some(key ^ 1)),
        "bad_mac",
    );
    expect_typed(Simulation::resume_with_key(cfg(), &ckpt, None), "bad_mac");

    // A tampered payload byte dies on the integrity gate (the checksum
    // catches blind tampering; the MAC catches checksum-fixing tampering).
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let tampered = dir.join("tampered.dorc");
    std::fs::write(&tampered, &bytes).unwrap();
    expect_typed(
        Simulation::resume_with_key(cfg(), &tampered, Some(key)),
        "bad_checksum",
    );

    // Rollback substitution: keep an authentic checkpoint from this run,
    // start a newer run in the same directory (bumping the epoch marker),
    // then try to resume the stale file. Authentic, but outdated — the
    // epoch gate must refuse it.
    let stale = dir.join("stale-copy.dorc");
    std::fs::copy(&ckpt, &stale).unwrap();
    Simulation::new(cfg()).unwrap().run_with(&opts).unwrap();
    expect_typed(
        Simulation::resume_with_key(cfg(), &stale, Some(key)),
        "rolled_back",
    );

    std::fs::remove_dir_all(&dir).ok();
}
