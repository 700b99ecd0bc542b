//! End-to-end checks of the tracing & telemetry layer against a real
//! D-ORAM run: every completed ORAM access must appear in the event log
//! as a matched span whose per-subsystem breakdown telescopes back to
//! its end-to-end latency, tracing must not perturb the simulation, the
//! exported Chrome-trace file must survive its own validator, and a run
//! resumed from a checkpoint must continue the trace seamlessly.

use doram_core::system::{RunOptions, Simulation};
use doram_core::{Scheme, SystemConfig};
use doram_obs::{
    spans_from_events, validate_file, write_chrome_trace, EventKind, TraceSummary, FILTER_ALL,
};
use doram_trace::Benchmark;

/// The same small D-ORAM co-run the checkpoint property tests use: it
/// exercises the engine, the serial link, the SD's sub-channels, and the
/// stash — every instrumented component — in a few seconds.
fn config() -> SystemConfig {
    SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(300)
        .tree_l_max(12)
        .max_mem_cycles(50_000_000)
        .build()
        .unwrap()
}

const RING: usize = 1 << 18;
const EVERY: u64 = 2_000;

#[test]
fn traced_run_produces_complete_telescoping_spans() {
    let mut sim = Simulation::new(config()).unwrap();
    let rec = sim.enable_tracing(RING, FILTER_ALL, EVERY);
    let report = sim.run().unwrap();
    let oram = report.oram.expect("D-ORAM run has an ORAM summary");
    assert!(oram.real_accesses > 0, "run must complete real accesses");

    let rec = rec.borrow();
    let (len, dropped, capacity) = rec.ring_stats();
    assert_eq!(capacity, RING);
    assert_eq!(dropped, 0, "ring sized for the whole run ({len} events)");
    let events = rec.events();
    assert_eq!(events.len(), len);

    // Every access that came back to the engine has all four span edges.
    let ends = events
        .iter()
        .filter(|e| e.kind == EventKind::AccessEnd)
        .count();
    assert!(ends > 0, "no access completed its engine round trip");
    let spans = spans_from_events(&events);
    let complete: Vec<_> = spans.iter().filter(|s| s.complete()).collect();
    assert_eq!(
        complete.len(),
        ends,
        "every AccessEnd must close a matched begin/end span group"
    );

    // Per span the decomposition telescopes exactly: the DRAM window is
    // clamped into the SD interval and the stash share is the remainder.
    for s in &complete {
        assert_eq!(
            s.link_cycles() + s.dram_cycles() + s.stash_cycles(),
            s.total_cycles(),
            "span {} does not telescope",
            s.id
        );
        assert!(s.dram_cycles() > 0, "span {} saw no DRAM activity", s.id);
    }

    // ... so the summary's breakdown lands within the 1% acceptance bound
    // of the mean access latency.
    let dummies = events
        .iter()
        .filter(|e| e.kind == EventKind::DummyIssued)
        .count() as u64;
    assert!(dummies > 0, "fixed-rate pacing must issue dummies");
    let summary = TraceSummary::from_spans(&spans, dummies, dropped);
    assert_eq!(summary.accesses, complete.len() as u64);
    assert!(summary.mean_total > 0.0);
    let err = (summary.breakdown_sum() - summary.mean_total).abs() / summary.mean_total;
    assert!(
        err < 0.01,
        "breakdown {} vs mean latency {} off by {:.4}%",
        summary.breakdown_sum(),
        summary.mean_total,
        100.0 * err
    );

    // The metrics registry sampled on the configured cadence.
    assert!(
        rec.metrics.samples_taken() >= 2,
        "expected periodic samples"
    );
    let series = rec.metrics.series();
    for name in ["engine.queue", "sd.queue", "sd.sub0.util"] {
        assert!(
            series.iter().any(|s| s.name == name),
            "missing time-series {name}"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let plain = Simulation::new(config()).unwrap().run().unwrap();
    let mut sim = Simulation::new(config()).unwrap();
    let _rec = sim.enable_tracing(RING, FILTER_ALL, EVERY);
    let traced = sim.run().unwrap();
    assert_eq!(
        format!("{traced:?}"),
        format!("{plain:?}"),
        "tracing changed the simulation outcome"
    );
}

#[test]
fn exported_chrome_trace_passes_validation() {
    let mut sim = Simulation::new(config()).unwrap();
    let rec = sim.enable_tracing(RING, FILTER_ALL, EVERY);
    sim.run().unwrap();

    let path = std::env::temp_dir().join(format!("doram-trace-obs-{}.json", std::process::id()));
    {
        let rec = rec.borrow();
        let (_, dropped, _) = rec.ring_stats();
        write_chrome_trace(&path, &rec.events(), rec.metrics.series(), dropped).unwrap();
    }
    let v = validate_file(&path).unwrap_or_else(|e| panic!("{e}"));
    assert!(v.complete_accesses >= 1, "{v:?}");
    assert_eq!(v.mismatched, 0, "{v:?}");
    assert!(v.counter_samples > 0, "{v:?}");

    // The file round-trips into the same breakdown the in-memory events
    // produce (the summarize back end parses what the exporter wrote).
    let from_file = doram_obs::summarize_file(&path).unwrap_or_else(|e| panic!("{e}"));
    let rec = rec.borrow();
    let events = rec.events();
    let dummies = events
        .iter()
        .filter(|e| e.kind == EventKind::DummyIssued)
        .count() as u64;
    let in_memory = TraceSummary::from_spans(&spans_from_events(&events), dummies, 0);
    assert_eq!(from_file.accesses, in_memory.accesses);
    assert!((from_file.mean_total - in_memory.mean_total).abs() < 1e-6);
    assert!((from_file.mean_link - in_memory.mean_link).abs() < 1e-6);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resumed_run_continues_the_trace() {
    // Reference: one uninterrupted traced run.
    let mut sim = Simulation::new(config()).unwrap();
    let rec = sim.enable_tracing(RING, FILTER_ALL, EVERY);
    let baseline = sim.run().unwrap();
    let baseline_events = rec.borrow().events();
    let baseline_samples = rec.borrow().metrics.samples_taken();

    // Traced run with periodic checkpoints; the recorder state rides in
    // each checkpoint.
    let dir = std::env::temp_dir().join(format!("doram-trace-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let opts = RunOptions {
        checkpoint_every: Some(2_000),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let mut sim = Simulation::new(config()).unwrap();
    sim.enable_tracing(RING, FILTER_ALL, EVERY);
    sim.run_with(&opts).unwrap();

    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dorc"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "expected several mid-run checkpoints");
    let mid = &files[files.len() / 2];

    // Resume restores the recorder from the checkpoint; enable_tracing on
    // a restored simulation only re-applies the run options (filter,
    // sampling cadence) and hands back the live recorder.
    let mut sim = Simulation::resume(config(), mid).unwrap();
    let rec = sim.enable_tracing(RING, FILTER_ALL, EVERY);
    assert!(
        !rec.borrow().events().is_empty(),
        "restored recorder must already hold the pre-checkpoint events"
    );
    let resumed = sim.run().unwrap();
    assert_eq!(format!("{resumed:?}"), format!("{baseline:?}"));

    // The continued trace is indistinguishable from the uninterrupted one.
    let rec = rec.borrow();
    assert_eq!(
        rec.events(),
        baseline_events,
        "event log diverged across resume"
    );
    assert_eq!(rec.metrics.samples_taken(), baseline_samples);
    std::fs::remove_dir_all(&dir).ok();
}
