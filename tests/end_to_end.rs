//! Cross-crate integration tests: the full simulation stack assembled
//! through the facade, checking the paper's qualitative claims end to end.

use doram::core::{Scheme, Simulation, SystemConfig};
use doram::trace::Benchmark;

fn run(bench: Benchmark, scheme: Scheme, accesses: u64) -> doram::core::RunReport {
    let cfg = SystemConfig::builder(bench)
        .scheme(scheme)
        .ns_accesses(accesses)
        .build()
        .expect("valid config");
    Simulation::new(cfg)
        .expect("valid")
        .run()
        .expect("completes")
}

#[test]
fn interference_ordering_matches_figure4() {
    // For a memory-intensive benchmark: solo < 7NS-4ch < 7NS-3ch and the
    // Path ORAM co-run is worse than the plain co-run.
    let b = Benchmark::Mummer;
    let solo = run(b, Scheme::SoloNs, 700).ns_exec_mean();
    let four = run(b, Scheme::Ns7on4, 700).ns_exec_mean();
    let three = run(b, Scheme::Ns7on3, 700).ns_exec_mean();
    let oram = run(b, Scheme::Baseline, 700).ns_exec_mean();
    assert!(solo < four, "co-run must cost: {solo} vs {four}");
    assert!(
        four < three,
        "losing a channel must cost: {four} vs {three}"
    );
    assert!(four < oram, "the ORAM S-App must cost: {four} vs {oram}");
}

#[test]
fn delegation_relieves_ns_apps() {
    // The headline claim: D-ORAM (delegated) beats the Baseline (on-chip
    // Path ORAM over all channels) for NS-Apps.
    let b = Benchmark::Mummer;
    let base = run(b, Scheme::Baseline, 700);
    let doram = run(b, Scheme::DOram { k: 0, c: 7 }, 700);
    assert!(
        doram.ns_exec_mean() < base.ns_exec_mean(),
        "D-ORAM {} vs Baseline {}",
        doram.ns_exec_mean(),
        base.ns_exec_mean()
    );
    // The delegated controller really ran Path ORAM (reals + pacing
    // dummies), and traffic crossed the secure link.
    let oram = doram.oram.expect("SD stats");
    assert!(oram.real_accesses > 0);
    assert!(oram.dummy_accesses > 0);
    let (to_mem, to_cpu) = doram.secure_link_bytes.expect("link stats");
    assert!(to_mem > 0 && to_cpu > 0);
}

#[test]
fn tree_split_keeps_overhead_small() {
    let b = Benchmark::Libq;
    let d0 = run(b, Scheme::DOram { k: 0, c: 7 }, 600).ns_exec_mean();
    let d2 = run(b, Scheme::DOram { k: 2, c: 7 }, 600).ns_exec_mean();
    // Figure 10's point: expanding the tree 4x costs only a few percent.
    assert!(
        d2 < d0 * 1.15,
        "k=2 overhead too large: {d2} vs {d0} ({:+.1}%)",
        (d2 / d0 - 1.0) * 100.0
    );
}

#[test]
fn write_latency_reduction_matches_figure13() {
    // Figure 13: delegating the ORAM off the shared channels slashes
    // NS-App write latency (the Baseline's write-back phases starve NS
    // writes on every channel).
    let b = Benchmark::Mummer;
    let base = run(b, Scheme::Baseline, 700);
    let doram = run(b, Scheme::DOram { k: 0, c: 4 }, 700);
    let ratio = doram.ns_write_latency.mean() / base.ns_write_latency.mean();
    assert!(ratio < 0.95, "write latency ratio {ratio}");
}

#[test]
fn secure_memory_model_expands_to_all_channels() {
    let b = Benchmark::Black;
    let r = run(b, Scheme::SecureMemory, 600);
    assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
    // Its dummy replication touches every channel.
    for (ch, util) in r.channel_utilization.iter().enumerate() {
        assert!(*util > 0.0, "channel {ch} unused under secure memory");
    }
}

#[test]
fn energy_accounting_tracks_architecture() {
    let b = Benchmark::Libq;
    let base = run(b, Scheme::Baseline, 500);
    let doram = run(b, Scheme::DOram { k: 0, c: 7 }, 500);
    assert!(base.total_energy_mj() > 0.0);
    assert!(doram.total_energy_mj() > 0.0);
    // D-ORAM powers seven DRAM sub-channels (4 secure + 3 normal) against
    // the Baseline's four, so its *background* energy per cycle is higher.
    let bg = |r: &doram::core::RunReport| {
        r.channel_energy
            .iter()
            .map(|e| e.background_mj)
            .sum::<f64>()
            / r.total_mem_cycles as f64
    };
    assert!(
        bg(&doram) > bg(&base),
        "doram bg/cycle {} vs baseline {}",
        bg(&doram),
        bg(&base)
    );
}

#[test]
fn deterministic_across_identical_runs() {
    let b = Benchmark::Ferret;
    let a = run(b, Scheme::DOram { k: 1, c: 3 }, 400);
    let c = run(b, Scheme::DOram { k: 1, c: 3 }, 400);
    assert_eq!(a.ns_exec_cpu_cycles, c.ns_exec_cpu_cycles);
    assert_eq!(a.total_mem_cycles, c.total_mem_cycles);
}

#[test]
fn every_benchmark_runs_under_doram() {
    // Smoke coverage of the whole Table III roster through the full stack.
    for b in Benchmark::ALL {
        let r = run(b, Scheme::DOram { k: 0, c: 7 }, 200);
        assert_eq!(r.ns_exec_cpu_cycles.len(), 7, "{b}");
        assert!(r.ns_read_latency.count() > 0, "{b}");
    }
}
