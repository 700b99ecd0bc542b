//! Ablations of the design choices DESIGN.md calls out.
//!
//! Unlike the figures (which reproduce the paper), these sweeps vary one
//! knob at a time around the paper's operating point and report the
//! *simulated* NS-App cost — quantifying how much each design choice
//! contributes. They report modeled performance only; host speed is
//! measured by `perf/`.

use super::{run_scheme, Scale};
use crate::config::{Scheme, SystemConfig};
use crate::report::{fmt3, render_table};
use crate::system::{SimError, Simulation};
use doram_trace::Benchmark;

/// One sweep: a knob, its settings, and the measured normalized cost.
#[derive(Debug, Clone)]
pub struct AblationSweep {
    /// Knob name.
    pub knob: &'static str,
    /// `(setting label, mean NS exec normalized to the paper's setting)`.
    pub points: Vec<(String, f64)>,
}

fn run_cfg(cfg: SystemConfig) -> Result<f64, SimError> {
    Ok(Simulation::new(cfg).expect("valid ablation config").run()?.ns_exec_mean())
}

fn builder(b: Benchmark, scale: &Scale) -> crate::config::SystemConfigBuilder {
    SystemConfig::builder(b)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(scale.ns_accesses)
        .seed(scale.seed)
}

/// Tree-top cache depth (paper: 3 levels).
pub fn tree_top(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for levels in [0u32, 1, 3, 5] {
        let t = run_cfg(builder(b, scale).tree_top_levels(levels).build().expect("valid"))?;
        points.push((format!("{levels} levels"), t / base));
    }
    Ok(AblationSweep {
        knob: "tree-top cache depth",
        points,
    })
}

/// Dummy pacing interval t (paper: 50 CPU cycles).
pub fn dummy_interval(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for t in [10u64, 50, 200, 1000] {
        let v = run_cfg(builder(b, scale).dummy_interval(t).build().expect("valid"))?;
        points.push((format!("t={t}"), v / base));
    }
    Ok(AblationSweep {
        knob: "dummy interval t",
        points,
    })
}

/// Subtree packing depth (paper: 7; 1 ≈ heap order).
pub fn subtree_depth(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for s in [1u32, 4, 7, 12] {
        let v = run_cfg(builder(b, scale).subtree_levels(s).build().expect("valid"))?;
        points.push((format!("{s}-level subtrees"), v / base));
    }
    Ok(AblationSweep {
        knob: "subtree packing depth",
        points,
    })
}

/// Secure-channel arbitration: SD priority (default) vs cooperative split.
pub fn secure_arbitration(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for (label, t) in [("SD priority", 1.0f64), ("75/25 epochs", 0.75), ("50/50 epochs", 0.5)] {
        let v = run_cfg(builder(b, scale).secure_share_threshold(t).build().expect("valid"))?;
        points.push((label.to_string(), v / base));
    }
    Ok(AblationSweep {
        knob: "secure-channel arbitration",
        points,
    })
}

/// Serial-link bandwidth (the paper sets one link ≈ one parallel
/// channel, i.e. 16 B/tCK; §III-A's comparability assumption).
pub fn link_bandwidth(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for bytes in [8u64, 16, 32] {
        let link = doram_bob::LinkConfig {
            bytes_per_cycle: bytes,
            ..doram_bob::LinkConfig::default()
        };
        let v = run_cfg(builder(b, scale).link(link).build().expect("valid"))?;
        points.push((format!("{:.1} GB/s", bytes as f64 * 0.8), v / base));
    }
    Ok(AblationSweep {
        knob: "serial-link bandwidth",
        points,
    })
}

/// Row-buffer page policy: open (the paper's, subtree-layout-friendly)
/// vs closed (auto-precharge).
pub fn page_policy(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    use doram_dram::PagePolicy;
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for (label, p) in [("open page", PagePolicy::Open), ("closed page", PagePolicy::Closed)] {
        let v = run_cfg(builder(b, scale).page_policy(p).build().expect("valid"))?;
        points.push((label.to_string(), v / base));
    }
    Ok(AblationSweep {
        knob: "page policy",
        points,
    })
}

/// Serial-link reliability: CRC error + replay rates (ideal links in the
/// paper; real SerDes lanes see occasional frame replays). Every link
/// draws its own fault stream from one plan.
pub fn link_reliability(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    use doram_sim::fault::{FaultKind, FaultPlan, FaultRates};
    let base = run_cfg(builder(b, scale).build().expect("valid"))?;
    let mut points = Vec::new();
    for ppm in [0u32, 1_000, 100_000] {
        let rates = FaultRates::only(FaultKind::CorruptFrame, ppm);
        let plan = FaultPlan::with_rates(scale.seed, rates);
        let v = run_cfg(builder(b, scale).fault_plan(plan).build().expect("valid"))?;
        points.push((format!("{ppm} ppm"), v / base));
    }
    Ok(AblationSweep {
        knob: "link frame-error rate",
        points,
    })
}

/// Footnote-1 split-read merging and SD pipelining (both off in the paper),
/// measured at k = 2 where split traffic matters.
pub fn extensions(b: Benchmark, scale: &Scale) -> Result<AblationSweep, SimError> {
    let cfg = |merge: bool, pipe: bool| {
        SystemConfig::builder(b)
            .scheme(Scheme::DOram { k: 2, c: 7 })
            .ns_accesses(scale.ns_accesses)
            .seed(scale.seed)
            .merge_split_reads(merge)
            .sd_pipeline(pipe)
            .build()
            .expect("valid")
    };
    let base = run_cfg(cfg(false, false))?;
    let mut points = vec![("paper protocol".to_string(), 1.0)];
    for (label, m, p) in [
        ("merged split reads", true, false),
        ("SD pipelining", false, true),
        ("both", true, true),
    ] {
        points.push((label.to_string(), run_cfg(cfg(m, p))? / base));
    }
    Ok(AblationSweep {
        knob: "extensions (at k=2)",
        points,
    })
}

/// Runs every ablation for one benchmark.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run_all(b: Benchmark, scale: &Scale) -> Result<Vec<AblationSweep>, SimError> {
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

/// Also exercises the S-App's view: how the ablations move the ORAM
/// access latency (not just NS-App time).
pub fn oram_latency_for(
    b: Benchmark,
    scale: &Scale,
    scheme: Scheme,
) -> Result<f64, SimError> {
    let r = run_scheme(b, scheme, scale)?;
    Ok(r.oram.map(|o| o.access_latency).unwrap_or(0.0))
}

/// Renders the sweeps.
pub fn render(benchmark: Benchmark, sweeps: &[AblationSweep]) -> String {
    let mut out = format!("Ablations on {benchmark} (NS exec normalized to the paper's setting)\n\n");
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
        let sweeps = vec![
            AblationSweep {
                knob: "x",
                points: vec![("a".into(), 1.0)],
            },
        ];
        let text = render(Benchmark::Black, &sweeps);
        assert!(text.contains("x:") && text.contains("1.000"));
    }

    #[test]
    fn oram_latency_accessor() {
        let v = oram_latency_for(Benchmark::Mummer, &scale(), Scheme::DOram { k: 0, c: 7 })
            .unwrap();
        assert!(v > 0.0);
    }
}
