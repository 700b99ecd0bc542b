//! Fault baselines: what the Secure Delegator's defences cost.
//!
//! Runs one D-ORAM configuration (k0/c7, parity, scrubbing) three times —
//! clean, under a seeded schedule of replay, relocation and rollback
//! bursts, and with a permanent MAC-forgery burst that quarantines secure
//! sub-channel 1 mid-run — and writes two baselines, each comparing the
//! clean run with one faulted run:
//!
//! * `BENCH_adversary.json`: the latency price of integrity verification
//!   (freshness-tree walks and detection-triggered refetches). With every
//!   adversary knob off the tree stays unarmed and costs nothing.
//! * `BENCH_degraded.json`: the cost of surviving on parity rebuilds
//!   instead of fail-stopping.
//!
//! Every number in both files is simulated, a deterministic function of
//! (benchmark, accesses, seed), so a fresh run must match the checked-in
//! files byte for byte.
use doram_core::experiments::{config_for, simulate, ExperimentError, Scale};
use doram_core::metrics::OramSummary;
use doram_core::secure_channel::{adversary_sub_plan, hostile_sub_plan};
use doram_core::{FaultReport, RunReport, Scheme};
use doram_sim::fault::{FaultKind, FaultPlan};
use doram_trace::Benchmark;
use std::sync::Arc;

fn run(
    bench: Benchmark,
    scale: &Scale,
    plan: FaultPlan,
) -> Result<Arc<RunReport>, ExperimentError> {
    let cfg = config_for(bench, Scheme::DOram { k: 0, c: 7 }, scale)
        .tree_l_max(12)
        .parity(true)
        .scrub_every(5_000)
        .fault_plan(plan);
    simulate(cfg)
}

/// The ORAM summary and the fault block every D-ORAM report carries.
fn parts(r: &RunReport) -> (&OramSummary, &FaultReport) {
    let oram = r.oram.as_ref().expect("D-ORAM has an ORAM summary");
    let faults = r.faults.as_ref().expect("D-ORAM has a fault block");
    (oram, faults)
}

/// ORAM accesses completed, real and dummy.
fn oram_accesses(r: &RunReport) -> u64 {
    let oram = parts(r).0;
    oram.real_accesses + oram.dummy_accesses
}

/// Mean freshness-verification cycles charged per ORAM access.
fn verify_per_access(r: &RunReport) -> f64 {
    match oram_accesses(r) {
        0 => 0.0,
        n => parts(r).1.freshness_cycles as f64 / n as f64,
    }
}

/// ORAM accesses completed per million simulated memory cycles.
fn throughput(r: &RunReport) -> f64 {
    match r.total_mem_cycles {
        0 => 0.0,
        t => oram_accesses(r) as f64 * 1e6 / t as f64,
    }
}

fn adversary_json(r: &RunReport) -> String {
    let (oram, f) = parts(r);
    format!(
        concat!(
            "{{\"total_mem_cycles\":{},",
            "\"oram_accesses\":{},\"oram_access_latency\":{:.2},",
            "\"freshness_ops\":{},\"freshness_cycles\":{},",
            "\"verify_cycles_per_access\":{:.2},",
            "\"replay_detected\":{},\"relocation_detected\":{},",
            "\"rollback_rejected\":{},\"refetches\":{}}}"
        ),
        r.total_mem_cycles,
        oram_accesses(r),
        oram.access_latency,
        f.freshness_ops,
        f.freshness_cycles,
        verify_per_access(r),
        f.replay_detected,
        f.relocation_detected,
        f.rollback_rejected,
        f.refetches,
    )
}

fn adversary_row(r: &RunReport) -> String {
    let (oram, f) = parts(r);
    format!(
        "{:>12} mem cycles  oram latency {:>8.1}  verify/access {:>6.2}  detected {:>3}/{:>3}/{:>3}  refetches {:>4}",
        r.total_mem_cycles,
        oram.access_latency,
        verify_per_access(r),
        f.replay_detected,
        f.relocation_detected,
        f.rollback_rejected,
        f.refetches,
    )
}

fn degraded_json(r: &RunReport) -> String {
    let (oram, f) = parts(r);
    format!(
        concat!(
            "{{\"total_mem_cycles\":{},",
            "\"oram_accesses\":{},\"oram_access_latency\":{:.2},",
            "\"ns_read_latency\":{:.2},",
            "\"throughput_accesses_per_mcycle\":{:.3},",
            "\"parity_rebuilds\":{},\"scrub_repairs\":{},",
            "\"quarantine_entries\":{},\"degraded_episode\":{},",
            // Always present, even when zero: a downstream comparer
            // must see stable keys across healthy and attacked runs.
            "\"freshness_ops\":{},\"freshness_cycles\":{}}}"
        ),
        r.total_mem_cycles,
        oram_accesses(r),
        oram.access_latency,
        r.ns_read_latency.mean(),
        throughput(r),
        f.parity_rebuilds,
        f.scrub_repairs,
        f.quarantine_entries
            .iter()
            .map(|&e| u64::from(e))
            .sum::<u64>(),
        f.degraded_episode(),
        f.freshness_ops,
        f.freshness_cycles,
    )
}

fn degraded_row(r: &RunReport) -> String {
    let (oram, f) = parts(r);
    format!(
        "{:>12} mem cycles  {:>7.2} acc/Mcycle  oram latency {:>8.1}  rebuilds {:>5}  scrubs {:>4}",
        r.total_mem_cycles,
        throughput(r),
        oram.access_latency,
        f.parity_rebuilds,
        f.scrub_repairs,
    )
}

/// One baseline file: the clean run against one faulted run.
struct Exhibit {
    /// The file's `"exhibit"` name.
    name: &'static str,
    file: &'static str,
    title: &'static str,
    /// What the faulted run suffers, for the rendering's heading.
    faults: &'static str,
    /// Keys of the clean and the faulted run's objects.
    labels: [&'static str; 2],
    json: fn(&RunReport) -> String,
    row: fn(&RunReport) -> String,
}

const ADVERSARY: Exhibit = Exhibit {
    name: "adversary_baseline",
    file: "BENCH_adversary.json",
    title: "Active-adversary baseline",
    faults: "replay + relocate + rollback bursts",
    labels: ["clean", "attacked"],
    json: adversary_json,
    row: adversary_row,
};

const DEGRADED: Exhibit = Exhibit {
    name: "degraded_baseline",
    file: "BENCH_degraded.json",
    title: "Degraded-mode baseline",
    faults: "one sub-channel quarantined",
    labels: ["healthy", "degraded"],
    json: degraded_json,
    row: degraded_row,
};

impl Exhibit {
    /// Writes the file and returns its text rendering.
    fn write(&self, bench: Benchmark, scale: &Scale, runs: [&RunReport; 2]) -> String {
        let pct = |c: f64, f: f64| if c > 0.0 { (f - c) * 100.0 / c } else { 0.0 };
        let [clean, faulted] = runs;
        let cycles_pct = pct(
            clean.total_mem_cycles as f64,
            faulted.total_mem_cycles as f64,
        );
        let latency_pct = pct(
            parts(clean).0.access_latency,
            parts(faulted).0.access_latency,
        );
        let json = format!(
            concat!(
                "{{\"exhibit\":\"{}\",\"benchmark\":\"{}\",",
                "\"seed\":{},\"ns_accesses\":{},",
                "\"{}\":{},\"{}\":{},",
                "\"overhead\":{{\"mem_cycles_pct\":{:.2},",
                "\"oram_latency_pct\":{:.2}}}}}\n"
            ),
            self.name,
            bench,
            scale.seed,
            scale.ns_accesses,
            self.labels[0],
            (self.json)(clean),
            self.labels[1],
            (self.json)(faulted),
            cycles_pct,
            latency_pct,
        );
        doram_bench::write_baseline("fault_baselines", self.file, &json);

        let mut out = format!("{}, {bench} ({})\n\n", self.title, self.faults);
        for (label, r) in self.labels.iter().zip(runs) {
            out.push_str(&format!("{label:<9} {}\n", (self.row)(r)));
        }
        out.push_str(&format!(
            "\noverhead: {cycles_pct:+.2}% mem cycles, {latency_pct:+.2}% oram access latency\n"
        ));
        out
    }
}

fn main() {
    let scale = doram_bench::announce("fault_baselines");
    let bench = scale.benchmarks[0];
    doram_bench::emit("fault_baselines", || {
        let clean = run(bench, &scale, FaultPlan::none())?;
        // Staggered, repeating bursts of all three active attacks against
        // secure sub-channel 0.
        let attacks = [
            FaultKind::ReplayStale,
            FaultKind::RelocateBucket,
            FaultKind::RollbackBurst,
        ];
        let attacked = run(
            bench,
            &scale,
            adversary_sub_plan(scale.seed, &attacks, 0, 2_000, 200, 300_000)
                .expect("valid schedule"),
        )?;
        // Sub-channel 1 forges every MAC from warm-up on, so the
        // quarantine trips mid-run.
        let degraded = run(
            bench,
            &scale,
            hostile_sub_plan(scale.seed, 1, 10_000, u64::MAX),
        )?;

        let (clean_f, attacked_f) = (parts(&clean).1, parts(&attacked).1);
        assert_eq!(
            clean_f.freshness_ops, 0,
            "knobs off must leave the freshness tree unarmed"
        );
        assert!(!clean_f.degraded_episode(), "clean run must stay healthy");
        assert!(
            attacked_f.replay_detected > 0
                && attacked_f.relocation_detected > 0
                && attacked_f.rollback_rejected > 0,
            "every attack class must be detected: {}",
            adversary_json(&attacked)
        );
        assert!(
            parts(&degraded).1.degraded_episode(),
            "hostile plan must quarantine a sub-channel"
        );

        Ok::<String, ExperimentError>(format!(
            "{}\n{}",
            ADVERSARY.write(bench, &scale, [&clean, &attacked]),
            DEGRADED.write(bench, &scale, [&clean, &degraded]),
        ))
    })
    .expect("fault baselines failed");
}
