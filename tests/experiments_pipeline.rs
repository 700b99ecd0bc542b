//! Integration of the experiment pipeline: every figure module's run /
//! render / CSV path exercised end to end at tiny scale, with structural
//! checks on the outputs, and the memoizing runner checked against
//! unmemoized simulations.

use doram::core::experiments::{
    ablations, config_for, fig10, fig11, fig12, fig13, fig4, fig8, fig9, sapp, simulate, table1,
    table3, Scale,
};
use doram::core::report::report_json;
use doram::core::{Scheme, Simulation, SystemConfigBuilder};
use doram::trace::Benchmark;

fn tiny() -> Scale {
    Scale {
        ns_accesses: 300,
        seed: 1,
        benchmarks: vec![Benchmark::Mummer, Benchmark::Black],
    }
}

/// CSV sanity: header + one line per row, constant column count.
fn check_csv(csv: &str, rows: usize) {
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), rows + 1, "csv:\n{csv}");
    let cols = lines[0].split(',').count();
    assert!(cols >= 2);
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), cols, "ragged csv:\n{csv}");
    }
}

#[test]
fn tables_render_and_check() {
    let t1 = table1::run();
    assert_eq!(t1.len(), 3);
    assert!(table1::render(&t1).contains("50.0%"));
    let t3 = table3::run(5_000);
    assert_eq!(t3.len(), 15);
    assert!(table3::render(&t3).contains("libq"));
}

#[test]
fn fig4_pipeline() {
    let rows = fig4::run(&tiny()).unwrap();
    assert_eq!(rows.len(), 2);
    check_csv(&fig4::render_csv(&rows), 2);
    assert!(fig4::render(&rows).contains("1S7NS"));
}

#[test]
fn fig8_pipeline() {
    let rows = fig8::run(&tiny()).unwrap();
    assert_eq!(rows.len(), 2);
    check_csv(&fig8::render_csv(&rows), 2);
    for r in &rows {
        assert!(r.ratio().is_finite() && r.ratio() > 0.0);
    }
}

#[test]
fn fig9_to_12_pipeline_shares_the_sweep() {
    let scale = tiny();
    let f9 = fig9::run(&scale).unwrap();
    let sweep = fig11::run(&scale).unwrap();
    let f12 = fig12::run(&scale).unwrap();
    assert_eq!(f9.len(), 2);
    assert_eq!(sweep.len(), 2);
    check_csv(&fig9::render_csv(&f9), 2);
    check_csv(&fig11::render_csv(&sweep), 2);
    check_csv(&fig12::render_csv(&f12), 2);
    // Consistency: fig9's /X and fig12's best c equal the sweep's best.
    for ((nine, eleven), twelve) in f9.iter().zip(&sweep).zip(&f12) {
        assert_eq!(nine.benchmark, eleven.benchmark);
        assert_eq!(twelve.benchmark, eleven.benchmark);
        assert!((nine.doram_x - eleven.best_norm()).abs() < 1e-12);
        assert_eq!(nine.best_c, eleven.best_c());
        assert_eq!(twelve.best_c, eleven.best_c());
    }
}

#[test]
fn fig10_and_13_pipeline() {
    let scale = tiny();
    let f10 = fig10::run(&scale).unwrap();
    check_csv(&fig10::render_csv(&f10), 2);
    assert_eq!(f10[0].norm_by_k[0], 1.0, "k=0 is the normalizer");
    let f13 = fig13::run(&scale).unwrap();
    check_csv(&fig13::render_csv(&f13), 2);
}

#[test]
fn sapp_and_one_ablation() {
    let mut scale = tiny();
    scale.benchmarks = vec![Benchmark::Mummer];
    let rows = sapp::run(&scale).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(sapp::render(&rows).contains("base ns"));
    let sweep = ablations::tree_top(Benchmark::Mummer, &scale).unwrap();
    assert_eq!(sweep.points.len(), 4);
    assert!(ablations::render(Benchmark::Mummer, &[sweep]).contains("tree-top"));
}

/// `cfg` run directly, bypassing the runner's memo.
fn unmemoized(cfg: SystemConfigBuilder) -> doram::core::RunReport {
    Simulation::new(cfg.build().unwrap())
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn parallel_sweep_is_deterministic() {
    // A parallel sweep must equal sequential runs that share nothing
    // with it: the runner's memo holds the sweep's reports, so the
    // reference runs bypass it.
    let scale = tiny();
    let rows = fig4::run(&scale).unwrap();
    assert_eq!(rows.len(), scale.benchmarks.len());
    for (row, &b) in rows.iter().zip(&scale.benchmarks) {
        let exec = |scheme| unmemoized(config_for(b, scheme, &scale)).ns_exec_mean();
        let solo = exec(Scheme::SoloNs);
        assert_eq!(row.benchmark, b);
        assert_eq!(
            row.oram_1s7ns.to_bits(),
            (exec(Scheme::Baseline) / solo).to_bits()
        );
        assert_eq!(
            row.ns7_3ch.to_bits(),
            (exec(Scheme::Ns7on3) / solo).to_bits()
        );
    }
}

#[test]
fn runner_reports_equal_direct_runs() {
    let scale = tiny();
    for scheme in [Scheme::DOram { k: 1, c: 4 }, Scheme::Baseline] {
        let cfg = config_for(Benchmark::Mummer, scheme, &scale);
        let memoized = simulate(cfg.clone()).unwrap();
        assert_eq!(
            report_json(&memoized),
            report_json(&unmemoized(cfg.clone()))
        );
        // A second call with an equal configuration is served from the memo.
        assert!(std::sync::Arc::ptr_eq(&memoized, &simulate(cfg).unwrap()));
    }
}

#[test]
fn runner_keys_on_every_config_field() {
    // One field apart is a different run, including the two knobs the
    // experiments vary away from the figures' configurations: the
    // tree-top cache depth (ablations) and the trace segment (profiling).
    let base = config_for(Benchmark::Mummer, Scheme::DOram { k: 0, c: 7 }, &tiny());
    let report = report_json(&simulate(base.clone()).unwrap());
    for other in [base.clone().tree_top_levels(0), base.trace_stream(7)] {
        assert_ne!(report_json(&simulate(other).unwrap()), report);
    }
}
