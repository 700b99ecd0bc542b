//! Ablations of the design choices DESIGN.md calls out.
//!
//! Unlike the figures (which reproduce the paper), these sweeps vary one
//! knob at a time around the paper's operating point and report the
//! *simulated* NS-App cost — quantifying how much each design choice
//! contributes. They report modeled performance only; host speed is
//! measured by `perf/`.

use super::{config_for, simulate, ExperimentError, Scale};
use crate::config::{Scheme, SystemConfigBuilder};
use crate::report::{fmt3, render_table};
use doram_trace::Benchmark;

/// One sweep: a knob, its settings, and the measured normalized cost.
#[derive(Debug, Clone)]
pub struct AblationSweep {
    /// Knob name.
    pub knob: &'static str,
    /// `(setting label, mean NS exec normalized to the paper's setting)`.
    pub points: Vec<(String, f64)>,
}

/// The paper's operating point: plain D-ORAM.
fn paper(b: Benchmark, scale: &Scale) -> SystemConfigBuilder {
    config_for(b, Scheme::DOram { k: 0, c: 7 }, scale)
}

/// Runs `base` and every setting, each setting's mean NS-App execution
/// time normalized to `base`'s.
fn sweep(
    knob: &'static str,
    base: SystemConfigBuilder,
    settings: impl IntoIterator<Item = (String, SystemConfigBuilder)>,
) -> Result<AblationSweep, ExperimentError> {
    let base = simulate(base)?.ns_exec_mean();
    let points = settings
        .into_iter()
        .map(|(label, cfg)| Ok((label, simulate(cfg)?.ns_exec_mean() / base)))
        .collect::<Result<_, ExperimentError>>()?;
    Ok(AblationSweep { knob, points })
}

/// Tree-top cache depth (paper: 3 levels).
pub fn tree_top(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    let cfg = paper(b, scale);
    let settings = [0u32, 1, 3, 5].map(|l| (format!("{l} levels"), cfg.clone().tree_top_levels(l)));
    sweep("tree-top cache depth", cfg, settings)
}

/// Dummy pacing interval t (paper: 50 CPU cycles).
pub fn dummy_interval(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    let cfg = paper(b, scale);
    let settings =
        [10u64, 50, 200, 1000].map(|t| (format!("t={t}"), cfg.clone().dummy_interval(t)));
    sweep("dummy interval t", cfg, settings)
}

/// Subtree packing depth (paper: 7; 1 ≈ heap order).
pub fn subtree_depth(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    let cfg = paper(b, scale);
    let settings =
        [1u32, 4, 7, 12].map(|s| (format!("{s}-level subtrees"), cfg.clone().subtree_levels(s)));
    sweep("subtree packing depth", cfg, settings)
}

/// Secure-channel arbitration: SD priority (default) vs cooperative split.
pub fn secure_arbitration(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    let cfg = paper(b, scale);
    let settings = [
        ("SD priority", 1.0f64),
        ("75/25 epochs", 0.75),
        ("50/50 epochs", 0.5),
    ]
    .map(|(label, t)| (label.to_string(), cfg.clone().secure_share_threshold(t)));
    sweep("secure-channel arbitration", cfg, settings)
}

/// Serial-link bandwidth (the paper sets one link ≈ one parallel
/// channel, i.e. 16 B/tCK; §III-A's comparability assumption).
pub fn link_bandwidth(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    let cfg = paper(b, scale);
    let settings = [8u64, 16, 32].map(|bytes| {
        let link = doram_bob::LinkConfig {
            bytes_per_cycle: bytes,
            ..doram_bob::LinkConfig::default()
        };
        let label = format!("{:.1} GB/s", bytes as f64 * 0.8);
        (label, cfg.clone().link(link))
    });
    sweep("serial-link bandwidth", cfg, settings)
}

/// Row-buffer page policy: open (the paper's, subtree-layout-friendly)
/// vs closed (auto-precharge).
pub fn page_policy(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    use doram_dram::PagePolicy;
    let cfg = paper(b, scale);
    let settings = [
        ("open page", PagePolicy::Open),
        ("closed page", PagePolicy::Closed),
    ]
    .map(|(label, p)| (label.to_string(), cfg.clone().page_policy(p)));
    sweep("page policy", cfg, settings)
}

/// Serial-link reliability: CRC error + replay rates (ideal links in the
/// paper; real SerDes lanes see occasional frame replays). Every link
/// draws its own fault stream from one plan.
pub fn link_reliability(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    use doram_sim::fault::{FaultKind, FaultPlan, FaultRates};
    let cfg = paper(b, scale);
    let settings = [0u32, 1_000, 100_000].map(|ppm| {
        let rates = FaultRates::only(FaultKind::CorruptFrame, ppm);
        let plan = FaultPlan::with_rates(scale.seed, rates);
        (format!("{ppm} ppm"), cfg.clone().fault_plan(plan))
    });
    sweep("link frame-error rate", cfg, settings)
}

/// Footnote-1 split-read merging and SD pipelining (both off in the paper),
/// measured at k = 2 where split traffic matters.
pub fn extensions(b: Benchmark, scale: &Scale) -> Result<AblationSweep, ExperimentError> {
    let cfg = |merge: bool, pipe: bool| {
        config_for(b, Scheme::DOram { k: 2, c: 7 }, scale)
            .merge_split_reads(merge)
            .sd_pipeline(pipe)
    };
    let settings = [
        ("paper protocol", false, false),
        ("merged split reads", true, false),
        ("SD pipelining", false, true),
        ("both", true, true),
    ]
    .map(|(label, m, p)| (label.to_string(), cfg(m, p)));
    sweep("extensions (at k=2)", cfg(false, false), settings)
}

/// Runs every ablation for one benchmark.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run_all(b: Benchmark, scale: &Scale) -> Result<Vec<AblationSweep>, ExperimentError> {
    Ok(vec![
        tree_top(b, scale)?,
        dummy_interval(b, scale)?,
        subtree_depth(b, scale)?,
        secure_arbitration(b, scale)?,
        link_bandwidth(b, scale)?,
        link_reliability(b, scale)?,
        page_policy(b, scale)?,
        extensions(b, scale)?,
    ])
}

/// Renders the sweeps.
pub fn render(benchmark: Benchmark, sweeps: &[AblationSweep]) -> String {
    let mut out =
        format!("Ablations on {benchmark} (NS exec normalized to the paper's setting)\n\n");
    for s in sweeps {
        let body: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|(label, v)| vec![label.clone(), fmt3(*v)])
            .collect();
        out.push_str(&format!("{}:\n", s.knob));
        out.push_str(&render_table(&["setting", "norm. time"], &body));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale {
            ns_accesses: 300,
            seed: 1,
            benchmarks: vec![Benchmark::Mummer],
        }
    }

    #[test]
    fn dummy_interval_monotone_for_ns_apps() {
        // Slower pacing (larger t) means less ORAM pressure: NS-Apps can
        // only get faster or stay equal.
        let s = dummy_interval(Benchmark::Mummer, &scale()).unwrap();
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        assert!(last <= first * 1.02, "t=1000 ({last}) vs t=10 ({first})");
    }

    #[test]
    fn extensions_never_hurt_much() {
        let s = extensions(Benchmark::Mummer, &scale()).unwrap();
        for (label, v) in &s.points {
            assert!(*v < 1.15, "{label} costs {v}");
        }
    }

    #[test]
    fn render_lists_every_knob() {
        let sweeps = vec![AblationSweep {
            knob: "x",
            points: vec![("a".into(), 1.0)],
        }];
        let text = render(Benchmark::Black, &sweeps);
        assert!(text.contains("x:") && text.contains("1.000"));
    }
}
