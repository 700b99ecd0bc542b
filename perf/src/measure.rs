//! The timed and traced passes over one workload, and the checks that
//! decide which simulations failed.
//!
//! The timed pass is a series of slices, each a fresh process repeating
//! the workload's batch for a few seconds ([`timed`]), merged by the
//! process that started them ([`merge`]). Host times count in seconds at
//! the reference clock of [`clock`], at the fastest clock each slice's
//! calibrations found. Peak RSS varies by a few percent from process to
//! process at the same seed, so it counts by its median over the slices.

use crate::clock::{self, REF_HZ};
use crate::drivers::{self, Span};
use crate::golden;
use crate::stats::{median, Quartiles};
use crate::workload::{Workload, BENCHES};
use doram_core::system::SimError;
use doram_core::{RunReport, Scheme, Simulation, SystemConfig};
use doram_obs::{
    Recorder, SharedRecorder, DEFAULT_METRICS_EVERY, DEFAULT_RING_CAPACITY, FILTER_ALL,
};
use doram_sim::CPU_CYCLES_PER_MEM_CYCLE;
use doram_trace::Benchmark;
use std::collections::BTreeMap;
use std::time::Instant;

/// `Simulation::new` calls whose median is a simulation's set-up time.
const SETUP_REPS: usize = 5;

/// Share of `--seconds` the traced pass spends on whole-system runs; the
/// layer drivers take the rest.
const TRACED_SHARE: f64 = 0.6;

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulations run.
    pub attempted: u64,
    /// Simulations that failed a check.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
    /// Metric name and value, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Report digest of each batch benchmark.
    pub digests: [Option<u64>; 3],
    /// Layer drivers' time per call (traced pass only).
    pub drivers: BTreeMap<&'static str, Quartiles>,
    /// Every span recorded (traced pass only).
    pub spans: Vec<Span>,
    /// Every simulation timed (timed pass only).
    pub samples: Vec<Sample>,
    /// Peak RSS of each slice's process, in MiB (timed pass only).
    pub rss_mb: Vec<f64>,
    /// Replays, relocations and rollbacks detected, and parity rebuilds,
    /// summed over the simulations run.
    pub defenses: [u64; 4],
}

/// One timed simulation of the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position in [`BENCHES`].
    pub slot: usize,
    /// Simulated memory cycles (0 if the run failed).
    pub cycles: u64,
    /// Host seconds inside `Simulation::run`.
    pub run_s: f64,
    /// Median of [`SETUP_REPS`] `Simulation::new` calls, in seconds; timed
    /// on each simulation's first repetition in a slice only.
    pub setup_s: Option<f64>,
    /// Host clock of the slice, in Hz: the fastest of the calibrations
    /// timed before each of its simulations.
    pub host_hz: f64,
    /// Report digest (`None` if the run returned an error).
    pub digest: Option<u64>,
    /// Whether the simulation failed a check.
    pub failed: bool,
}

impl Sample {
    /// `secs` of host time on this sample's slice, in seconds at the
    /// reference clock.
    fn at_ref(&self, secs: f64) -> f64 {
        secs * self.host_hz / REF_HZ
    }
}

impl Outcome {
    /// Checks one simulation and returns what is wrong with it, and its
    /// report digest: it must not fail, and its digest must match the
    /// golden table (seeds 1 and 2) or else the first batch of this pass.
    fn check(
        &mut self,
        golden: Option<[u64; 3]>,
        slot: usize,
        result: &Result<RunReport, SimError>,
    ) -> (Vec<String>, Option<u64>) {
        let bench = BENCHES[slot];
        let report = match result {
            Err(e) => return (vec![format!("{bench}: {e}")], None),
            Ok(report) => report,
        };
        let mut problems = Vec::new();
        let got = golden::digest(report);
        if let Some(want) = golden.map(|g| g[slot]).or(self.digests[slot]) {
            if want != got {
                problems.push(format!(
                    "{bench}: report digest {got:016x}, expected {want:016x}"
                ));
            }
        }
        self.digests[slot].get_or_insert(got);
        let f = report.faults.clone().unwrap_or_default();
        let found = [
            f.replay_detected,
            f.relocation_detected,
            f.rollback_rejected,
            f.parity_rebuilds,
        ];
        for (total, n) in self.defenses.iter_mut().zip(found) {
            *total += n;
        }
        (problems, Some(got))
    }

    /// On a hardened workload, the batch must detect all three attack
    /// classes and rebuild from parity at least once; a single short
    /// simulation may miss a class. Every batch of a pass reports what its
    /// first did (the digests check it), so the pass's totals are zero
    /// exactly where a batch's are. If one is, every simulation fails.
    fn check_defenses(&mut self, w: &Workload) {
        if !w.hardened {
            return;
        }
        let missed: Vec<String> = ["replay", "relocation", "rollback", "parity rebuild"]
            .into_iter()
            .zip(self.defenses)
            .filter(|&(_, n)| n == 0)
            .map(|(what, _)| format!("the batch had no {what}"))
            .collect();
        if !missed.is_empty() {
            self.failures.extend(missed);
            self.failed = self.attempted;
            for s in &mut self.samples {
                s.failed = true;
            }
        }
    }

    /// Counts one simulation, failed if it has any problem; returns whether
    /// it failed.
    fn tally(&mut self, problems: Vec<String>) -> bool {
        self.attempted += 1;
        let failed = !problems.is_empty();
        if failed {
            self.failed += 1;
            self.failures.extend(problems);
        }
        failed
    }
}

fn build(cfg: SystemConfig) -> Simulation {
    Simulation::new(cfg).expect("workload configurations are valid")
}

/// Median time of `Simulation::new(cfg)` over a first build that took
/// `first` seconds and [`SETUP_REPS`] − 1 more, whose instances are
/// dropped.
fn setup_median(cfg: &SystemConfig, first: f64) -> f64 {
    let mut secs = vec![first];
    for _ in 1..SETUP_REPS {
        let cfg = cfg.clone();
        let t = Instant::now();
        let sim = build(cfg);
        secs.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    median(&secs)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The end-to-end metrics of a pass from its repetitions, host times in
/// seconds at the reference clock. Each simulation's fastest repetition
/// counts for throughput and set-up (its median of [`SETUP_REPS`]
/// builds): the work is fixed, and other tenants of a shared host only
/// ever slow a repetition down. Peak RSS counts by its median over the
/// slices' processes.
fn end_to_end(samples: &[Sample], rss_mb: &[f64]) -> Vec<(&'static str, f64)> {
    let (mut cycles, mut run_s, mut setup_s) = (0, 0.0, 0.0);
    for slot in 0..BENCHES.len() {
        let reps: Vec<&Sample> = samples.iter().filter(|s| s.slot == slot).collect();
        let run = |s: &&Sample| s.at_ref(s.run_s);
        if let Some(f) = reps.iter().min_by(|a, b| run(a).total_cmp(&run(b))) {
            cycles += f.cycles;
            run_s += run(f);
        }
        setup_s += reps
            .iter()
            .filter_map(|s| Some(s.at_ref(s.setup_s?)))
            .fold(f64::INFINITY, f64::min);
    }
    vec![
        ("mem_cycles_per_s", cycles as f64 / run_s),
        ("setup_s", setup_s),
        ("peak_rss_mb", median(rss_mb)),
    ]
}

/// The batch's simulations in turn, each with how many times it ran
/// before, until `seconds` have passed and the whole batch ran once.
fn repetitions(seconds: f64) -> impl Iterator<Item = (usize, usize, Benchmark)> {
    let start = Instant::now();
    BENCHES
        .into_iter()
        .enumerate()
        .cycle()
        .enumerate()
        .map(|(n, (slot, bench))| (n / BENCHES.len(), slot, bench))
        .take_while(move |&(rep, _, _)| rep == 0 || start.elapsed().as_secs_f64() < seconds)
}

/// One timed slice, recorder off: the workload's batch, over and over
/// until `seconds` have passed (at least once), each simulation after a
/// calibration of the host clock. Run it in a fresh process, so that its
/// peak RSS is the slice's own. Set-up time is taken on the slice's first
/// batch.
pub fn timed(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let golden = golden::expected(w, seed);
    let mut out = Outcome::default();
    let mut host_hz = 0.0_f64;
    for (rep, slot, bench) in repetitions(seconds) {
        host_hz = host_hz.max(clock::host_hz());
        let cfg = w.config(bench, seed);
        let kept = cfg.clone();
        let t = Instant::now();
        let sim = build(kept);
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = sim.run();
        let run_s = t.elapsed().as_secs_f64();
        let (problems, digest) = out.check(golden, slot, &result);
        let failed = out.tally(problems);
        out.samples.push(Sample {
            slot,
            cycles: result.as_ref().map_or(0, |r| r.total_mem_cycles),
            run_s,
            setup_s: (rep == 0).then(|| setup_median(&cfg, build_s)),
            host_hz: 0.0,
            digest,
            failed,
        });
    }
    for s in &mut out.samples {
        s.host_hz = host_hz;
    }
    out.check_defenses(w);
    out.rss_mb = vec![peak_rss_mb()];
    out.metrics = end_to_end(&out.samples, &out.rss_mb);
    out
}

/// The timed pass from its slices: every slice's simulations must report
/// what the first slice's did (at seeds without golden digests, this is
/// the only cross-check between processes), and the end-to-end metrics
/// come from all their samples.
pub fn merge(slices: Vec<Outcome>) -> Outcome {
    let mut out = Outcome::default();
    for slice in slices {
        out.attempted += slice.attempted;
        out.failed += slice.failed;
        out.failures.extend(slice.failures);
        out.rss_mb.extend(slice.rss_mb);
        for mut s in slice.samples {
            let Some(got) = s.digest else {
                out.samples.push(s);
                continue;
            };
            let want = *out.digests[s.slot].get_or_insert(got);
            if want != got && !s.failed {
                s.failed = true;
                out.failed += 1;
                out.failures.push(format!(
                    "{}: report digest {got:016x}, first slice had {want:016x}",
                    BENCHES[s.slot]
                ));
            }
            out.samples.push(s);
        }
    }
    out.metrics = end_to_end(&out.samples, &out.rss_mb);
    out
}

/// One batch of `w` at `seed`, checked like a timed batch, for
/// `perf bless`: the digests to record as golden.
///
/// # Errors
///
/// Every problem a check found, when any did.
pub fn golden_digests(w: &Workload, seed: u64) -> Result<[u64; 3], String> {
    let mut out = Outcome::default();
    for (slot, bench) in BENCHES.into_iter().enumerate() {
        let (problems, _) = out.check(None, slot, &build(w.config(bench, seed)).run());
        out.tally(problems);
    }
    out.check_defenses(w);
    match out.digests {
        [Some(a), Some(b), Some(c)] if out.failed == 0 => Ok([a, b, c]),
        _ => Err(out.failures.join("; ")),
    }
}

/// Totals of the traced pass. Host times sum over every traced
/// simulation; simulated counts come from the first batch (they repeat
/// exactly).
#[derive(Debug, Default)]
pub struct Traced {
    /// Simulated cycles of every traced run.
    cycles: u64,
    /// Host nanoseconds inside `run`, recorder off and on.
    plain_ns: u64,
    traced_ns: u64,
    /// Self-profiler `(nanos, samples)` of `cpu.step` and `memory.tick`.
    cpu_step: (u64, u64),
    memory_tick: (u64, u64),
    /// Simulated cycles of the first batch, the weight of its ratios.
    batch_cycles: u64,
    /// Blame-matrix queueing delay by layer, in cycles.
    dram_delay: u64,
    sd_delay: u64,
    bob_delay: u64,
    mux_delay: u64,
    /// Channel utilization and row-hit rate, weighted by cycles.
    util_cycles: f64,
    row_hit_cycles: f64,
    refetches: u64,
    freshness_ops: u64,
    detections: u64,
    parity_rebuilds: u64,
    scrub_repairs: u64,
    retransmissions: u64,
    link_bytes: u64,
    oram_real: u64,
    oram_dummy: u64,
    /// Mean access latency weighted by accesses.
    oram_latency_sum: f64,
}

impl Traced {
    /// Adds a traced run's host profile.
    fn absorb_profile(&mut self, rec: &Recorder, span: &Span) {
        self.cycles += span.count;
        self.traced_ns += span.nanos();
        for c in rec.prof.components() {
            let slot = match c.name.as_str() {
                "cpu.step" => &mut self.cpu_step,
                "memory.tick" => &mut self.memory_tick,
                _ => continue,
            };
            slot.0 += c.nanos;
            slot.1 += c.samples;
        }
    }

    /// Adds a first-batch run's simulated counters.
    fn absorb_counts(&mut self, report: &RunReport, rec: &Recorder) {
        let cycles = report.total_mem_cycles;
        self.batch_cycles += cycles;
        for r in rec.blame.resources() {
            let n = r.name.as_str();
            let slot = if n.contains(".sub") {
                &mut self.dram_delay
            } else if n.starts_with("sd.") {
                &mut self.sd_delay
            } else if n.starts_with("cpu.mux.") {
                &mut self.mux_delay
            } else {
                // Serial links (`*.link.*`) and BOB SimpleMC buffers.
                &mut self.bob_delay
            };
            *slot += r.queue_delay;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        self.util_cycles += mean(&report.channel_utilization) * cycles as f64;
        self.row_hit_cycles += mean(&report.channel_row_hit) * cycles as f64;
        if let Some(f) = &report.faults {
            self.refetches += f.refetches;
            self.freshness_ops += f.freshness_ops;
            self.detections += f.integrity_failures;
            self.parity_rebuilds += f.parity_rebuilds;
            self.scrub_repairs += f.scrub_repairs;
            self.retransmissions += f.retransmissions;
        }
        if let Some((up, down)) = report.secure_link_bytes {
            self.link_bytes += up + down;
        }
        if let Some(o) = &report.oram {
            self.oram_real += o.real_accesses;
            self.oram_dummy += o.dummy_accesses;
            self.oram_latency_sum += o.access_latency * (o.real_accesses + o.dummy_accesses) as f64;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of workload configuration `cfg`.
pub fn per_layer(
    cfg: &SystemConfig,
    t: &Traced,
    drivers: &BTreeMap<&'static str, Quartiles>,
) -> Vec<(&'static str, f64)> {
    let driver = |name: &str| drivers.get(name).map_or(0.0, |q| q.median);
    let per_cycle = |v: (u64, u64)| ratio(v.0 as f64, v.1 as f64);
    let oram_accesses = t.oram_real + t.oram_dummy;
    // Entry points the system loop calls per simulated cycle on this
    // workload. Their callees (DRAM under the channels, trace generation
    // under the core step) are not counted again.
    let core_steps = (cfg.scheme.ns_apps() + usize::from(cfg.scheme.has_sapp())) as f64
        * CPU_CYCLES_PER_MEM_CYCLE as f64;
    let channels = cfg.channels as f64;
    let memory_side = match cfg.scheme {
        Scheme::DOram { .. } => {
            driver("core.secure_channel.tick_ns")
                + (channels - 1.0) * driver("core.channels.bob_tick_ns")
        }
        Scheme::Baseline => driver("core.onchip_oram.tick_ns"),
        _ => channels * driver("core.channels.direct_tick_ns"),
    };
    let explained = core_steps * driver("cpu.core_step_ns") + memory_side;
    let batch = t.batch_cycles as f64;
    vec![
        ("core.system.cpu_step_ns_per_cycle", per_cycle(t.cpu_step)),
        (
            "core.system.memory_tick_ns_per_cycle",
            per_cycle(t.memory_tick),
        ),
        ("core.system.mux_queue_delay_cycles", t.mux_delay as f64),
        ("cpu.core_step_ns", driver("cpu.core_step_ns")),
        ("trace.next_record_ns", driver("trace.next_record_ns")),
        ("dram.subchannel_tick_ns", driver("dram.subchannel_tick_ns")),
        ("dram.bus_util", ratio(t.util_cycles, batch)),
        ("dram.row_hit_rate", ratio(t.row_hit_cycles, batch)),
        ("dram.queue_delay_cycles", t.dram_delay as f64),
        (
            "core.secure_channel.tick_ns",
            driver("core.secure_channel.tick_ns"),
        ),
        ("core.secure_channel.queue_delay_cycles", t.sd_delay as f64),
        ("core.secure_channel.refetches", t.refetches as f64),
        ("core.secure_channel.freshness_ops", t.freshness_ops as f64),
        ("core.secure_channel.detections", t.detections as f64),
        (
            "core.secure_channel.parity_rebuilds",
            t.parity_rebuilds as f64,
        ),
        ("core.secure_channel.scrub_repairs", t.scrub_repairs as f64),
        ("crypto.cmac_72B_ns", driver("crypto.cmac_72B_ns")),
        ("crypto.aes_block_ns", driver("crypto.aes_block_ns")),
        ("crypto.merkle_build_ms", driver("crypto.merkle_build_ms")),
        (
            "core.onchip_oram.tick_ns",
            driver("core.onchip_oram.tick_ns"),
        ),
        ("oram.plan_ns", driver("oram.plan_ns")),
        ("oram.accesses", oram_accesses as f64),
        (
            "oram.real_share",
            ratio(t.oram_real as f64, oram_accesses as f64),
        ),
        (
            "oram.access_latency_cycles",
            ratio(t.oram_latency_sum, oram_accesses as f64),
        ),
        (
            "core.channels.bob_tick_ns",
            driver("core.channels.bob_tick_ns"),
        ),
        (
            "core.channels.direct_tick_ns",
            driver("core.channels.direct_tick_ns"),
        ),
        ("bob.queue_delay_cycles", t.bob_delay as f64),
        ("bob.secure_link_bytes", t.link_bytes as f64),
        ("bob.retransmissions", t.retransmissions as f64),
        (
            "obs.recorder_overhead_pct",
            (ratio(t.traced_ns as f64, t.plain_ns as f64) - 1.0) * 100.0,
        ),
        (
            "layers.explained_share",
            ratio(explained, ratio(t.traced_ns as f64, t.cycles as f64)),
        ),
    ]
}

/// Runs `cfg` with the recorder off; the span counts simulated cycles.
fn plain_run(cfg: &SystemConfig) -> (Span, Result<RunReport, SimError>) {
    let sim = build(cfg.clone());
    let (mut span, result) = Span::time("core.system.run", 0, || sim.run());
    span.count = result.as_ref().map_or(0, |r| r.total_mem_cycles);
    (span, result)
}

/// Runs `cfg` with the recorder on, returning the recorder too.
fn traced_run(cfg: &SystemConfig) -> (Span, Result<RunReport, SimError>, SharedRecorder) {
    let mut sim = build(cfg.clone());
    let rec = sim.enable_tracing(DEFAULT_RING_CAPACITY, FILTER_ALL, DEFAULT_METRICS_EVERY);
    let (mut span, result) = Span::time("core.system.run_traced", 0, || sim.run());
    span.count = result.as_ref().map_or(0, |r| r.total_mem_cycles);
    (span, result, rec)
}

/// The traced pass: runs each batch simulation with the recorder off and
/// on (alternating which goes first) for [`TRACED_SHARE`] of `seconds`,
/// checks that tracing reproduces the untraced digest and that the blame
/// matrix conserves queueing delay, checks the hardened workload's
/// defenses, then runs the layer drivers.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let golden = golden::expected(w, seed);
    let mut out = Outcome::default();
    let mut t = Traced::default();
    for (rep, slot, bench) in repetitions(seconds * TRACED_SHARE) {
        let cfg = w.config(bench, seed);
        let ((plain_span, plain), (traced_span, traced, rec)) = if rep % 2 == 0 {
            let p = plain_run(&cfg);
            (p, traced_run(&cfg))
        } else {
            let tr = traced_run(&cfg);
            (plain_run(&cfg), tr)
        };
        let (problems, _) = out.check(golden, slot, &plain);
        out.tally(problems);
        // Same digest as the plain run: the recorder must not perturb it.
        let (mut problems, _) = out.check(golden, slot, &traced);
        let rec = rec.borrow();
        if let Err((name, attributed, delay)) = rec.blame.check_conservation() {
            problems.push(format!(
                "{bench}: blame row {name} attributes {attributed} of {delay} queueing cycles"
            ));
        }
        out.tally(problems);
        t.plain_ns += plain_span.nanos();
        t.absorb_profile(&rec, &traced_span);
        if let (0, Ok(report)) = (rep, &traced) {
            t.absorb_counts(report, &rec);
        }
        out.spans.extend([plain_span, traced_span]);
    }
    out.check_defenses(w);
    out.drivers = drivers::run(w, seed, &mut out.spans);
    out.metrics = per_layer(&w.config(BENCHES[0], seed), &t, &out.drivers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::WORKLOADS;

    fn names(metrics: &[(&'static str, f64)]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.0).collect()
    }

    fn sample(slot: usize, run_s: f64) -> Sample {
        Sample {
            slot,
            cycles: 100,
            run_s,
            setup_s: Some(run_s / 10.0),
            host_hz: REF_HZ,
            digest: Some(slot as u64),
            failed: false,
        }
    }

    /// One batch of the given run times, as its process reports it.
    fn batch(run_s: f64, rss_mb: f64) -> Outcome {
        let samples: Vec<Sample> = (0..BENCHES.len()).map(|s| sample(s, run_s)).collect();
        Outcome {
            attempted: samples.len() as u64,
            samples,
            rss_mb: vec![rss_mb],
            ..Outcome::default()
        }
    }

    #[test]
    fn passes_emit_exactly_the_declared_metrics() {
        let untimed_setup = |slot| Sample {
            setup_s: None,
            ..sample(slot, 1.0)
        };
        let samples: Vec<Sample> = (0..BENCHES.len())
            .flat_map(|slot| [sample(slot, 2.0), untimed_setup(slot), sample(slot, 4.0)])
            .collect();
        let e2e = end_to_end(&samples, &[3.0, 1.0, 2.0]);
        assert_eq!(names(&e2e), END_TO_END.map(|m| m.0).to_vec());
        // The fastest repetition of each simulation, summed over the batch;
        // set-up counts only where it was timed. The median peak RSS.
        let values: Vec<f64> = e2e.iter().map(|m| m.1).collect();
        assert_eq!(values, [100.0, 0.6000000000000001, 2.0]);
        for w in WORKLOADS {
            let layers = per_layer(
                &w.config(BENCHES[0], 1),
                &Traced::default(),
                &BTreeMap::new(),
            );
            assert_eq!(names(&layers), PER_LAYER.map(|m| m.0).to_vec());
            assert!(layers.iter().all(|m| m.1.is_finite()));
        }
    }

    #[test]
    fn host_times_count_at_the_reference_clock() {
        // 1.5 s on a slice clocked at twice the reference is 3 s at the
        // reference clock, its set-up 0.3 s: slower than 2 s and 0.2 s on a
        // slice at the reference.
        let batch = |run_s, host_hz| -> Vec<Sample> {
            (0..BENCHES.len())
                .map(|slot| Sample {
                    host_hz,
                    ..sample(slot, run_s)
                })
                .collect()
        };
        let fast_clock = batch(1.5, 2.0 * REF_HZ);
        let e2e = end_to_end(&fast_clock, &[1.0]);
        assert_eq!(e2e[0], ("mem_cycles_per_s", 100.0 / 3.0));
        assert!((e2e[1].1 - 0.9).abs() < 1e-12);
        let both = [fast_clock, batch(2.0, REF_HZ)].concat();
        let e2e = end_to_end(&both, &[1.0]);
        assert_eq!(e2e[0], ("mem_cycles_per_s", 50.0));
        assert!((e2e[1].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn a_batch_that_misses_a_defense_fails_every_simulation() {
        let hardened = crate::workload::DORAM_HARDENED;
        let mut out = batch(1.0, 5.0);
        out.defenses = [3, 1, 1, 2];
        out.check_defenses(&hardened);
        assert_eq!(out.failed, 0);
        out.defenses = [3, 1, 0, 2];
        out.check_defenses(&crate::workload::DORAM_CORUN);
        assert_eq!(out.failed, 0, "only the hardened workload is attacked");
        out.check_defenses(&hardened);
        assert_eq!((out.attempted, out.failed), (3, 3));
        assert!(out.samples.iter().all(|s| s.failed));
        assert_eq!(out.failures, ["the batch had no rollback"]);
    }

    #[test]
    fn merged_slices_must_report_alike() {
        let mut odd = batch(1.0, 5.0);
        odd.samples[1].digest = Some(99);
        let out = merge(vec![batch(2.0, 4.0), odd, batch(3.0, 6.0)]);
        assert_eq!((out.attempted, out.failed), (9, 1));
        assert_eq!(out.failures.len(), 1);
        assert!(out.samples[4].failed);
        assert_eq!(out.digests, [Some(0), Some(1), Some(2)]);
        let rss = out.metrics.iter().find(|m| m.0 == "peak_rss_mb").unwrap();
        assert_eq!(rss.1, 5.0);
        // A simulation that already failed in its own process counts once.
        let mut failed = batch(1.0, 5.0);
        (failed.failed, failed.samples[1].failed) = (1, true);
        failed.samples[1].digest = Some(99);
        let out = merge(vec![batch(2.0, 4.0), failed]);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
