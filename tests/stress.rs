//! Stress integration: the most complex configurations the stack
//! supports, checked for liveness, sanity, and determinism.

use doram::core::report::report_json;
use doram::core::{RunReport, Scheme, Simulation, SystemConfig};
use doram::dram::PagePolicy;
use doram::sim::fault::{FaultKind, FaultPlan, FaultRates};
use doram::trace::Benchmark;

/// A plan corrupting `ppm` of the frames on every serial link.
fn lossy_links(seed: u64, ppm: u32) -> FaultPlan {
    FaultPlan::with_rates(seed, FaultRates::only(FaultKind::CorruptFrame, ppm))
}

/// The kitchen sink: tree split k=3, sharing c=2, merged split reads, SD
/// pipelining, heterogeneous tenants, lossy links, closed-page DRAM.
fn kitchen_sink(seed: u64) -> RunReport {
    let cfg = SystemConfig::builder(Benchmark::Mummer)
        .scheme(Scheme::DOram { k: 3, c: 2 })
        .ns_accesses(500)
        .seed(seed)
        .ns_benchmarks(vec![
            Benchmark::Face,
            Benchmark::Libq,
            Benchmark::Black,
            Benchmark::Comm2,
            Benchmark::Tigr,
            Benchmark::Stream,
            Benchmark::Ferret,
        ])
        .merge_split_reads(true)
        .sd_pipeline(true)
        .page_policy(PagePolicy::Closed)
        .fault_plan(lossy_links(seed, 5_000))
        .max_mem_cycles(100_000_000)
        .build()
        .expect("valid configuration");
    Simulation::new(cfg)
        .expect("valid")
        .run()
        .expect("completes")
}

#[test]
fn kitchen_sink_completes_and_is_sane() {
    let r = kitchen_sink(1);
    assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
    for (i, &t) in r.ns_exec_cpu_cycles.iter().enumerate() {
        assert!(t > 0, "tenant {i}");
    }
    let oram = r.oram.clone().expect("SD ran");
    assert!(oram.real_accesses > 0);
    // Latency floors: nothing can beat the physical read path.
    assert!(r.ns_read_latency.min().unwrap() >= 15.0, "CL + burst floor");
    // Utilizations are fractions.
    for u in &r.channel_utilization {
        assert!((0.0..=1.0).contains(u));
    }
    for h in &r.channel_row_hit {
        assert!((0.0..=1.0).contains(h));
    }
    // Percentiles are ordered.
    let p50 = r.ns_read_percentile(0.5).unwrap();
    let p99 = r.ns_read_percentile(0.99).unwrap();
    assert!(p50 <= p99);
}

#[test]
fn kitchen_sink_is_deterministic() {
    let a = kitchen_sink(7);
    let b = kitchen_sink(7);
    assert_eq!(a.ns_exec_cpu_cycles, b.ns_exec_cpu_cycles);
    assert_eq!(a.total_mem_cycles, b.total_mem_cycles);
    assert_eq!(a.oram.unwrap().real_accesses, b.oram.unwrap().real_accesses);
}

#[test]
fn seeds_actually_matter() {
    let a = kitchen_sink(1);
    let b = kitchen_sink(2);
    assert_ne!(
        a.ns_exec_cpu_cycles, b.ns_exec_cpu_cycles,
        "different seeds must perturb the run"
    );
}

#[test]
fn every_scheme_smokes_at_small_scale() {
    for scheme in [
        Scheme::SoloNs,
        Scheme::Ns7on4,
        Scheme::Ns7on3,
        Scheme::Baseline,
        Scheme::SecureMemory,
        Scheme::Partition1S,
        Scheme::DOram { k: 0, c: 7 },
        Scheme::DOram { k: 1, c: 0 },
        Scheme::DOram { k: 3, c: 7 },
    ] {
        let cfg = SystemConfig::builder(Benchmark::Swapt)
            .scheme(scheme)
            .ns_accesses(200)
            .tree_l_max(10)
            .max_mem_cycles(50_000_000)
            .build()
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        let r = Simulation::new(cfg)
            .unwrap_or_else(|e| panic!("{scheme}: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(r.ns_exec_cpu_cycles.len(), scheme.ns_apps(), "{scheme}");
    }
}

#[test]
fn full_system_is_jedec_conformant() {
    // The strongest timing validation: run complete systems (Baseline
    // with on-chip ORAM, and D-ORAM with split + sharing) while recording
    // every DRAM device command, then re-validate the entire JEDEC rule
    // set with the independent conformance checker.
    for scheme in [
        Scheme::Baseline,
        Scheme::DOram { k: 2, c: 4 },
        Scheme::SecureMemory,
    ] {
        let cfg = SystemConfig::builder(Benchmark::Mummer)
            .scheme(scheme)
            .ns_accesses(300)
            .tree_l_max(12)
            .max_mem_cycles(50_000_000)
            .build()
            .unwrap();
        Simulation::new(cfg)
            .unwrap()
            .run_with_conformance_check()
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
    }
}

#[test]
fn conformance_run_matches_plain_run() {
    // Recording and re-checking every DRAM command must not perturb the
    // run: the report is byte-identical under every S-App path.
    for scheme in [
        Scheme::SoloNs,
        Scheme::Baseline,
        Scheme::SecureMemory,
        Scheme::DOram { k: 1, c: 7 },
    ] {
        let mk = || {
            SystemConfig::builder(Benchmark::Libq)
                .scheme(scheme)
                .ns_accesses(300)
                .build()
                .unwrap()
        };
        let plain = Simulation::new(mk()).unwrap().run().unwrap();
        let checked = Simulation::new(mk())
            .unwrap()
            .run_with_conformance_check()
            .unwrap();
        assert_eq!(report_json(&checked), report_json(&plain), "{scheme:?}");
    }
}

#[test]
fn faulty_soak_recovers_everything_and_stays_deterministic() {
    // Lossy serial links *and* a hostile-but-sub-threshold DRAM: frames
    // corrupt or vanish, SD bucket reads come back bit-flipped or with
    // forged MACs. The run must complete with every fault recovered,
    // report the recovery work it did, and replay identically per seed.
    let soak = || {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 1, c: 4 })
            .ns_accesses(800)
            .tree_l_max(12)
            .seed(3)
            .fault_plan(FaultPlan::with_rates(
                41,
                FaultRates {
                    corrupt_ppm: 500,
                    drop_ppm: 200,
                    bitflip_ppm: 2_000,
                    forge_mac_ppm: 500,
                    ..FaultRates::none()
                },
            ))
            .max_mem_cycles(100_000_000)
            .build()
            .expect("valid");
        Simulation::new(cfg)
            .expect("valid")
            .run()
            .expect("recovers")
    };
    let r = soak();
    let fr = r.faults.clone().expect("D-ORAM reports fault activity");
    assert!(fr.injected.total() > 0, "soak must actually inject faults");
    assert!(fr.injected.bit_flips > 0, "DRAM plan active");
    assert!(fr.crc_errors > 0, "frames were corrupted");
    assert!(fr.retransmissions > 0, "link recovery ran");
    assert!(
        fr.integrity_failures > 0 && fr.refetches > 0,
        "SD recovery ran"
    );
    assert!(fr.total_recovery_cycles() > 0, "recovery costs latency");
    assert!(fr.quarantined_subs.is_empty(), "rates stay sub-threshold");
    // All NS tenants and the S-App made progress despite the faults.
    for (i, &t) in r.ns_exec_cpu_cycles.iter().enumerate() {
        assert!(t > 0, "tenant {i}");
    }
    assert!(r.oram.expect("SD ran").real_accesses > 0);
    // Same seed ⇒ same fault schedule, same recovery, same timing.
    let again = soak();
    assert_eq!(again.faults.unwrap(), fr);
    assert_eq!(again.ns_exec_cpu_cycles, r.ns_exec_cpu_cycles);
    assert_eq!(again.total_mem_cycles, r.total_mem_cycles);
}

#[test]
fn lossy_links_cost_time_but_nothing_hangs() {
    // Whether 10% replays slow the NS-Apps down depends on the plan seed
    // (a slower secure link can relieve them), so this checks what every
    // replay costs by construction: a NAK round trip on the link.
    let cfg = SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(400)
        .fault_plan(lossy_links(1, 100_000)) // 10% frame corruption: extreme
        .build()
        .expect("valid");
    let latency = cfg.link.latency.0;
    let lossy = Simulation::new(cfg)
        .expect("valid")
        .run()
        .expect("completes");
    let fr = lossy.faults.expect("D-ORAM reports fault activity");
    assert!(fr.crc_errors > 0, "frames were corrupted");
    assert_eq!(
        fr.retransmissions, fr.crc_errors,
        "every CRC error is replayed"
    );
    assert!(
        fr.link_recovery_cycles >= 2 * latency * fr.crc_errors,
        "each replay pays a NAK round trip: {} cycles for {} errors",
        fr.link_recovery_cycles,
        fr.crc_errors
    );
    assert!(
        lossy.ns_exec_cpu_cycles.iter().all(|&t| t > 0),
        "every tenant finished"
    );
}
