//! Baseline for the interference observatory: sweeps the scheme grid with
//! the recorder on and emits `BENCH_interference.json`, so a change that
//! moves the blame matrix or the latency percentiles shows in the diff.
//!
//! Every number in the file is simulated, a deterministic function of
//! (benchmark, accesses, seed): each report's `host` self-profile
//! (wall-clock) is written as `null`, since host speed is measured by the
//! `perf/` rig. A fresh sweep must therefore match the checked-in file
//! byte for byte.
//!
//! The recorder is `Rc`-shared (deliberately `!Send`), so each sweep
//! configuration builds, runs, and reduces to plain data wholly inside
//! its own thread; only the extracted sample crosses back.

use doram_core::system::SimError;
use doram_core::{Scheme, Simulation, SystemConfig};
use doram_obs::{InterferenceReport, FILTER_ALL};
use std::fmt::Write as _;

struct ConfigSample {
    label: &'static str,
    total_mem_cycles: u64,
    queue_delay_total: u64,
    class_totals: [u64; doram_obs::BLAME_CLASSES],
    report_json: String,
}

fn run_traced(
    label: &'static str,
    scheme: Scheme,
    bench: doram_trace::Benchmark,
    ns_accesses: u64,
    seed: u64,
) -> Result<ConfigSample, SimError> {
    let cfg = SystemConfig::builder(bench)
        .scheme(scheme)
        .ns_accesses(ns_accesses)
        .seed(seed)
        .tree_l_max(12)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(cfg).expect("valid sim");
    let rec = sim.enable_tracing(1 << 16, FILTER_ALL, 2_000);
    let r = sim.run()?;
    let rec = rec.borrow();
    if let Err((name, attributed, delay)) = rec.blame.check_conservation() {
        panic!("[interference_sweep] {label}: '{name}' attributed {attributed} != delay {delay}");
    }
    let report = InterferenceReport {
        host: None,
        ..InterferenceReport::from_recorder(&rec)
    };
    let queue_delay_total = report.blame.iter().map(|r| r.queue_delay).sum();
    Ok(ConfigSample {
        label,
        total_mem_cycles: r.total_mem_cycles,
        queue_delay_total,
        class_totals: rec.blame.class_totals(),
        report_json: report.to_json(),
    })
}

fn main() {
    let scale = doram_bench::announce("interference_sweep");
    let bench = scale.benchmarks[0];
    let grid: [(&'static str, Scheme); 3] = [
        ("doram_k0_c7", Scheme::DOram { k: 0, c: 7 }),
        ("doram_k1_c4", Scheme::DOram { k: 1, c: 4 }),
        ("baseline", Scheme::Baseline),
    ];
    doram_bench::emit("interference_sweep", || {
        let handles: Vec<_> = grid
            .into_iter()
            .map(|(label, scheme)| {
                let (accesses, seed) = (scale.ns_accesses, scale.seed);
                std::thread::spawn(move || run_traced(label, scheme, bench, accesses, seed))
            })
            .collect();
        let mut samples = Vec::new();
        for h in handles {
            samples.push(h.join().expect("sweep thread")?);
        }

        let mut json = format!(
            "{{\"exhibit\":\"interference_sweep\",\"benchmark\":\"{bench}\",\
             \"seed\":{},\"ns_accesses\":{},\"configs\":[",
            scale.seed, scale.ns_accesses,
        );
        for (i, s) in samples.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let totals: Vec<String> = s.class_totals.iter().map(u64::to_string).collect();
            let _ = write!(
                json,
                "{{\"label\":\"{}\",\"total_mem_cycles\":{},\
                 \"queue_delay_total\":{},\"class_totals\":[{}],\"report\":{}}}",
                s.label,
                s.total_mem_cycles,
                s.queue_delay_total,
                totals.join(","),
                s.report_json.trim_end(),
            );
        }
        json.push_str("]}\n");
        doram_bench::write_baseline("interference_sweep", "BENCH_interference.json", &json);

        let mut out = format!("Interference sweep, {bench} (blame cycles by requestor class)\n\n");
        let class_names: Vec<&str> = doram_obs::ALL_BLAME_CLASSES
            .iter()
            .map(|c| c.name())
            .collect();
        out.push_str(&format!(
            "{:<12} {:>12} {:>12}",
            "config", "mem cycles", "queue delay"
        ));
        for n in &class_names {
            out.push_str(&format!(" {n:>16}"));
        }
        out.push('\n');
        for s in &samples {
            out.push_str(&format!(
                "{:<12} {:>12} {:>12}",
                s.label, s.total_mem_cycles, s.queue_delay_total
            ));
            for t in s.class_totals {
                out.push_str(&format!(" {t:>16}"));
            }
            out.push('\n');
        }
        Ok::<String, SimError>(out)
    })
    .expect("interference sweep failed");
}
