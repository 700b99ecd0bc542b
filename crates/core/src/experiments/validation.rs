//! Executable reproduction claims: the shape assertions EXPERIMENTS.md
//! records, as machine-checked validations.
//!
//! [`validate`] reruns the evaluation at the given scale and grades each
//! claim. *Structural* checks (orderings that must hold at any scale) are
//! distinguished from *magnitude* checks (windows around the paper's
//! numbers, only meaningful at full scale over all fifteen benchmarks).
//! The `repro_check` binary prints the scorecard.

use super::{fig10, fig11, fig12, fig4, fig9, table1, table3, ExperimentError, Scale};
use doram_sim::stats::geometric_mean;

/// One graded claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short claim name.
    pub name: &'static str,
    /// Whether it must hold at any scale (`true`) or only near full scale.
    pub structural: bool,
    /// Whether it held.
    pub passed: bool,
    /// Measured evidence.
    pub detail: String,
}

/// The graded claim set.
#[derive(Debug, Clone, Default)]
pub struct Scorecard {
    /// All graded checks.
    pub checks: Vec<Check>,
}

impl Scorecard {
    fn push(&mut self, name: &'static str, structural: bool, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            structural,
            passed,
            detail,
        });
    }

    /// Whether every structural check passed.
    pub fn structural_ok(&self) -> bool {
        self.checks
            .iter()
            .filter(|c| c.structural)
            .all(|c| c.passed)
    }

    /// `(passed, total)` over all checks.
    pub fn tally(&self) -> (usize, usize) {
        (
            self.checks.iter().filter(|c| c.passed).count(),
            self.checks.len(),
        )
    }

    /// Renders the scorecard.
    pub fn render(&self) -> String {
        let mut out = String::from("Reproduction scorecard\n");
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {:<44} {} — {}\n",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                if c.structural {
                    "(structural)"
                } else {
                    "(magnitude) "
                },
                c.detail
            ));
        }
        let (p, t) = self.tally();
        out.push_str(&format!("{p}/{t} checks passed\n"));
        out
    }
}

/// Runs the full validation at `scale`.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn validate(scale: &Scale) -> Result<Scorecard, ExperimentError> {
    let mut card = Scorecard::default();
    let full_scale = scale.benchmarks.len() >= 15 && scale.ns_accesses >= 1_500;

    // Table I: analytic split accounting.
    {
        let rows = table1::run();
        let ok = (rows[0].ch0_frac - 0.5).abs() < 1e-3
            && (rows[1].ch0_frac - 0.25).abs() < 1e-3
            && (rows[2].per_normal_frac - 0.292).abs() < 1e-3
            && rows.iter().all(|r| r.ch0_packets == 4 * r.k as u64);
        card.push(
            "Table I split accounting exact",
            true,
            ok,
            format!("{rows:?}"),
        );
    }

    // Table III: generator calibration.
    {
        let rows = table3::run(30_000);
        let worst = rows
            .iter()
            .map(|r| (r.measured_mpki - r.spec_mpki).abs() / r.spec_mpki)
            .fold(0.0f64, f64::max);
        card.push(
            "Table III MPKIs within 5% of spec",
            true,
            worst < 0.05,
            format!("worst relative error {worst:.3}"),
        );
    }

    // Figure 4.
    {
        let rows = fig4::run(scale)?;
        let orderings = rows
            .iter()
            .all(|r| r.ns7_4ch > 1.0 && r.ns7_3ch > r.ns7_4ch && r.oram_1s7ns > r.ns7_4ch);
        card.push(
            "Fig 4 orderings (solo < 4ch < 3ch; ORAM worst)",
            true,
            orderings,
            format!("{} benchmarks", rows.len()),
        );
        let g = fig4::summaries(&rows)[0].1.gmean;
        card.push(
            "Fig 4 1S7NS gmean near paper's 1.906",
            false,
            !full_scale || (1.5..=2.6).contains(&g),
            format!("gmean {g:.3}"),
        );
    }

    // Figures 9, 11 and 12: the runner simulates the sweep once for all
    // three.
    {
        let rows = fig9::run(scale)?;
        let sweep = fig11::run(scale)?;
        let dor: Vec<f64> = rows.iter().map(|r| r.doram).collect();
        let dor_g = geometric_mean(&dor);
        let x: Vec<f64> = rows.iter().map(|r| r.doram_x).collect();
        let x_g = geometric_mean(&x);
        card.push(
            "Fig 9 D-ORAM/X never worse than D-ORAM",
            true,
            rows.iter().all(|r| r.doram_x <= r.doram + 1e-9),
            format!("gmeans {x_g:.3} vs {dor_g:.3}"),
        );
        card.push(
            "Fig 9 D-ORAM gmean below Baseline (paper 0.875)",
            false,
            !full_scale || (0.80..1.0).contains(&dor_g),
            format!("gmean {dor_g:.3}"),
        );
        let variety = {
            let small = sweep.iter().filter(|r| r.best_c() < 4).count();
            small > 0 && small < sweep.len()
        };
        card.push(
            "Fig 11 benchmarks disagree on best c",
            false,
            !full_scale || variety,
            format!(
                "best-c spread: {:?}",
                sweep.iter().map(|r| r.best_c()).collect::<Vec<_>>()
            ),
        );
        let f12 = fig12::run(scale)?;
        let acc = fig12::accuracy(&f12);
        card.push(
            "Fig 12 ratio predicts the c side (paper 14/15)",
            false,
            !full_scale || acc >= 0.8,
            format!("accuracy {:.0}%", acc * 100.0),
        );
    }

    // Figure 10.
    {
        let rows = fig10::run(scale)?;
        let m = fig10::mean_overheads(&rows);
        card.push(
            "Fig 10 expansion overhead small and monotone",
            true,
            m[0] <= m[2] + 1.0 && m[2] < 15.0,
            format!("k=1..3: {:+.2}% {:+.2}% {:+.2}%", m[0], m[1], m[2]),
        );
    }

    // Figure 13.
    {
        let rows = super::fig13::run(scale)?;
        let (_, _, wp, wc) = super::fig13::means(&rows);
        card.push(
            "Fig 13 write latency reduced (paper ~0.48)",
            true,
            wp < 0.95 && wc < 0.95,
            format!("write means {wp:.3} / {wc:.3}"),
        );
    }

    Ok(card)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_trace::Benchmark;

    #[test]
    fn structural_claims_hold_at_reduced_scale() {
        let scale = Scale {
            ns_accesses: 600,
            seed: 1,
            benchmarks: vec![Benchmark::Mummer, Benchmark::Libq],
        };
        let card = validate(&scale).unwrap();
        assert!(
            card.structural_ok(),
            "structural failures:\n{}",
            card.render()
        );
        let (p, t) = card.tally();
        assert!(t >= 8, "expected a full claim set, got {t}");
        assert!(p >= t - 1, "only {p}/{t}:\n{}", card.render());
        assert!(card.render().contains("PASS"));
    }
}
