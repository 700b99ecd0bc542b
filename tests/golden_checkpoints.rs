//! Golden checkpoint matrix: the layout fingerprint of the checkpoint
//! format.
//!
//! Fourteen smoke-scale runs (libq, 300 NS accesses, a depth-12 tree,
//! a checkpoint every 1,500 memory cycles) cover every scheme and every
//! knob family that adds checkpointed state: merged split reads and SD
//! pipelining, parity/scrub/probation under link and DRAM faults, a
//! hostile sub-channel, an active adversary (which arms the freshness
//! tree), the interference recorder, and the recorder watching every
//! recovery path at once (its ring and blame rows are checkpointed, so
//! the order of recovery instants is pinned too). Each case pins
//!
//! * the FNV-1a-64 of one fixed mid-run checkpoint payload,
//! * the FNV-1a-64 of the final report JSON,
//!
//! and checks that resuming from that checkpoint reproduces the report
//! byte for byte.
//!
//! The table belongs to one [`CHECKPOINT_VERSION`]. Changing any encoded
//! field changes a payload hash: bump the version and re-bless the table
//! from the values the failure prints. A report hash that moves without a
//! payload change means the simulated behaviour changed.

use doram::core::report::report_json;
use doram::core::secure_channel::{hostile_sub_plan, SD_SUB_SITE_BASE};
use doram::core::system::{RunOptions, Simulation};
use doram::core::{FaultReport, RunReport, Scheme, SystemConfig};
use doram::obs::FILTER_ALL;
use doram::sim::fault::{AdversaryBurst, AdversaryPlan, FaultKind, FaultPlan, FaultRates};
use doram::sim::snapshot::{fnv1a64, read_checkpoint, CHECKPOINT_VERSION};
use doram::sim::MemCycle;
use doram::trace::Benchmark;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The checkpoint format version the table below was blessed under.
const GOLDEN_VERSION: u32 = 10;

/// Checkpoint interval of every case, in memory cycles.
const CHECKPOINT_EVERY: u64 = 1_500;

/// Event-ring capacity and metrics interval of the recorder cases.
const RING: usize = 4_096;
const METRICS_EVERY: u64 = 1_000;

/// One blessed row: case name, cycle of the pinned checkpoint, FNV-1a-64
/// of its payload, FNV-1a-64 of the report JSON.
type Golden = (&'static str, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("solo-ns", 3000, 0x738b536d91aa2dd6, 0x1fabf23a8104bb9e),
    ("ns7-on4", 4500, 0x5ab5ff62b439f442, 0x7c9ea86b986ca7d2),
    ("ns7-on3", 6000, 0x2b65051412d79e6e, 0x42aa7d45264fff91),
    ("baseline", 6000, 0x6ac8e77eeeb45a12, 0x5603d2b867431f98),
    ("secure-memory", 6000, 0xe730ba07f4073110, 0x945ebc7c5b51cf21),
    ("partition1s", 6000, 0x9fac3ff03b13bd39, 0x39d5811259c35e58),
    ("doram-k0c7", 4500, 0xd9f40296ef464c72, 0x2caf9f6073d3e7b1),
    ("doram-k2c7-merge-pipeline", 6000, 0x0806275b7acedc2d, 0x86d22924f264ecf4),
    ("doram-k1c4-degraded-faults", 6000, 0xa6a5e7386092a06f, 0x9e6fe60d661b75e4),
    ("doram-k1c4-hostile-sub", 6000, 0x007a760aae86e948, 0xf960a8ea5ab506aa),
    ("doram-k0c7-adversary", 4500, 0xc075aa7df979434e, 0xcbb42ad7e641456c),
    ("doram-k0c7-recorder", 4500, 0xac74172d844a6f77, 0x2caf9f6073d3e7b1),
    ("baseline-recorder", 6000, 0xff97a5aa0bb48a1e, 0x5603d2b867431f98),
    ("doram-k1c4-recovery-recorder", 6000, 0x000a64f066a1eedf, 0x5d5868f3a9f6c8e7),
];

struct Case {
    name: &'static str,
    cfg: SystemConfig,
    recorder: bool,
    /// Asserts the run really exercised the state the case is for.
    exercises: fn(&FaultReport) -> bool,
}

fn nothing(_: &FaultReport) -> bool {
    true
}

fn base(scheme: Scheme) -> doram::core::SystemConfigBuilder {
    SystemConfig::builder(Benchmark::Libq)
        .scheme(scheme)
        .ns_accesses(300)
        .tree_l_max(12)
        .max_mem_cycles(50_000_000)
}

/// A 100% MAC-forgery burst on secure sub-channel 3 over cycles 1k–5k:
/// parity rebuilds, a quarantine and scrub repairs all land in the
/// checkpointed state.
fn hostile_sub3() -> FaultPlan {
    hostile_sub_plan(9, 3, 1_000, 5_000)
}

/// Staggered replay, relocation and rollback bursts on sub-channel 0.
fn adversary_mix() -> FaultPlan {
    let mut plan = AdversaryPlan::new(7).jitter(200);
    for (i, kind) in [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ]
    .into_iter()
    .enumerate()
    {
        plan = plan.burst(AdversaryBurst {
            site: SD_SUB_SITE_BASE,
            kind,
            start: MemCycle(500 + i as u64 * 1_500),
            len: 1_000,
            period: 4_500,
            repeats: 10,
            ppm: 300_000,
        });
    }
    plan.validate().expect("valid adversary schedule");
    plan.compile()
}

fn cases() -> Vec<Case> {
    let plain = |name, scheme| Case {
        name,
        cfg: base(scheme).build().expect("valid config"),
        recorder: false,
        exercises: nothing,
    };
    let doram = |k, c| base(Scheme::DOram { k, c });
    let link_and_dram_faults = FaultPlan::with_rates(
        42,
        FaultRates {
            corrupt_ppm: 500,
            drop_ppm: 200,
            bitflip_ppm: 2_000,
            forge_mac_ppm: 500,
            ..FaultRates::none()
        },
    );
    vec![
        plain("solo-ns", Scheme::SoloNs),
        plain("ns7-on4", Scheme::Ns7on4),
        plain("ns7-on3", Scheme::Ns7on3),
        plain("baseline", Scheme::Baseline),
        plain("secure-memory", Scheme::SecureMemory),
        plain("partition1s", Scheme::Partition1S),
        plain("doram-k0c7", Scheme::DOram { k: 0, c: 7 }),
        Case {
            name: "doram-k2c7-merge-pipeline",
            cfg: doram(2, 7)
                .merge_split_reads(true)
                .sd_pipeline(true)
                .build()
                .expect("valid config"),
            recorder: false,
            exercises: nothing,
        },
        Case {
            name: "doram-k1c4-degraded-faults",
            cfg: doram(1, 4)
                .parity(true)
                .scrub_every(2_000)
                .probation_window(3_000)
                .probation_successes(2)
                .fault_plan(link_and_dram_faults)
                .build()
                .expect("valid config"),
            recorder: false,
            exercises: |f| f.retransmissions > 0 && f.integrity_failures > 0,
        },
        Case {
            name: "doram-k1c4-hostile-sub",
            cfg: doram(1, 4)
                .parity(true)
                .scrub_every(1_000)
                .probation_window(3_000)
                .probation_successes(2)
                .fault_plan(hostile_sub3())
                .build()
                .expect("valid config"),
            recorder: false,
            exercises: |f| {
                f.parity_rebuilds > 0 && f.quarantine_entries[3] > 0 && f.scrub_repairs > 0
            },
        },
        Case {
            name: "doram-k0c7-adversary",
            cfg: doram(0, 7)
                .fault_plan(adversary_mix())
                .build()
                .expect("valid config"),
            recorder: false,
            exercises: |f| {
                f.freshness_ops > 0
                    && f.replay_detected > 0
                    && f.relocation_detected > 0
                    && f.rollback_rejected > 0
            },
        },
        Case {
            name: "doram-k0c7-recorder",
            cfg: doram(0, 7).build().expect("valid config"),
            recorder: true,
            exercises: nothing,
        },
        Case {
            name: "baseline-recorder",
            cfg: base(Scheme::Baseline).build().expect("valid config"),
            recorder: true,
            exercises: nothing,
        },
        Case {
            name: "doram-k1c4-recovery-recorder",
            cfg: doram(1, 4)
                .parity(true)
                .scrub_every(1_000)
                .probation_window(3_000)
                .probation_successes(2)
                .fault_plan({
                    let mut plan = adversary_mix();
                    plan.site_windows.extend(hostile_sub3().site_windows);
                    plan
                })
                .build()
                .expect("valid config"),
            recorder: true,
            exercises: |f| {
                f.refetches > 0
                    && f.parity_rebuilds > 0
                    && f.scrub_repairs > 0
                    && f.freshness_ops > 0
                    && f.quarantine_entries[3] > 0
            },
        },
    ]
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("doram-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Checkpoint files in `dir`, in cycle order (names embed the cycle
/// zero-padded).
fn checkpoints(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "dorc"))
        .collect();
    files.sort();
    files
}

/// Runs `sim` to completion, returning the report and, with the recorder
/// on, its blame rows.
fn finish(mut sim: Simulation, recorder: bool, opts: &RunOptions) -> (RunReport, String) {
    let rec = recorder.then(|| sim.enable_tracing(RING, FILTER_ALL, METRICS_EVERY));
    let report = sim.run_with(opts).expect("run completes");
    let blame = rec
        .map(|r| format!("{:?}", r.borrow().blame.resources()))
        .unwrap_or_default();
    (report, blame)
}

/// Runs one case and returns its measured golden row.
fn measure(case: &Case) -> (u64, u64, u64) {
    let dir = fresh_dir(case.name);
    let opts = RunOptions {
        checkpoint_every: Some(CHECKPOINT_EVERY),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let sim = Simulation::new(case.cfg.clone()).expect("valid config");
    let (report, blame) = finish(sim, case.recorder, &opts);
    if let Some(faults) = &report.faults {
        assert!(
            (case.exercises)(faults),
            "{}: knobs not exercised: {faults:?}",
            case.name
        );
    }
    let report = report_json(&report);

    let files = checkpoints(&dir);
    assert!(
        files.len() >= 2,
        "{}: only {} checkpoints",
        case.name,
        files.len()
    );
    let pinned = &files[files.len() / 2];
    let data = read_checkpoint(pinned).expect("checkpoint reads back");

    let resumed = Simulation::resume(case.cfg.clone(), pinned).expect("resume");
    let (resumed_report, resumed_blame) = finish(resumed, case.recorder, &RunOptions::default());
    assert_eq!(
        report_json(&resumed_report),
        report,
        "{}: resuming from cycle {} changed the report",
        case.name,
        data.cycle
    );
    assert_eq!(
        resumed_blame, blame,
        "{}: resuming from cycle {} changed the blame matrix",
        case.name, data.cycle
    );

    let _ = std::fs::remove_dir_all(&dir);
    (
        data.cycle,
        fnv1a64(&data.payload),
        fnv1a64(report.as_bytes()),
    )
}

#[test]
fn golden_checkpoint_matrix() {
    assert_eq!(
        CHECKPOINT_VERSION, GOLDEN_VERSION,
        "the golden table was blessed under checkpoint version {GOLDEN_VERSION}: \
         re-bless it for version {CHECKPOINT_VERSION}"
    );
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    let mut table = String::new();
    let mut drift = Vec::new();
    for (case, &(name, cycle, payload, report)) in cases.iter().zip(GOLDEN) {
        assert_eq!(case.name, name, "case order");
        let got = measure(case);
        let _ = writeln!(
            table,
            "    (\"{name}\", {}, {:#018x}, {:#018x}),",
            got.0, got.1, got.2
        );
        if got != (cycle, payload, report) {
            drift.push(name);
        }
    }
    assert!(
        drift.is_empty(),
        "checkpoint payload or report drifted for {drift:?} under checkpoint \
         version {CHECKPOINT_VERSION}. If an encoded field changed, bump the \
         version and re-bless; measured table:\n{table}"
    );
}
