//! Quartiles and the verdict rule for comparing two sets of runs.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of `values` by Python's `statistics.quantiles(values,
    /// n=4)` (the "exclusive" method), so the numbers here match the ones
    /// a reader computes from the raw results.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        if n == 1 {
            let v = data[0];
            return Quartiles {
                q1: v,
                median: v,
                q3: v,
            };
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            // Negative or above 4 for tiny samples: the method extrapolates.
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Distance between the quartiles, as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

impl Better {
    /// How much `new` is better than `old`, in the metric's own units
    /// (negative when worse).
    fn gain(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Higher => new - old,
            Better::Lower => old - new,
        }
    }
}

/// Outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// beats the parent's by more than the parent's own spread.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's spread is wider than the bound, so "no worse than the
    /// bound" cannot be shown.
    Unresolved,
    /// Neither better nor worse beyond what the bound allows.
    Unchanged,
}

impl Verdict {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Share of the pairs `(parent[i], change[i])` the change wins; ties count
/// for neither side but stay in the denominator.
pub fn win_fraction(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.gain(p, c) > 0.0)
        .count();
    wins as f64 / pairs as f64
}

/// The verdict on one metric, by the benchmark's rule: a gain needs nine
/// tenths of the pairs won and a median difference larger than the
/// parent's spread; a median worse by more than `bound` (a share of the
/// parent's median) is a regression; when the parent's own spread is
/// wider than `bound` the result is unresolved, unless every run of the
/// change beats every run of the parent.
///
/// # Panics
///
/// Panics if either side has no runs.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let p = Quartiles::of(parent);
    let c = Quartiles::of(change);
    let gain = better.gain(p.median, c.median);
    if win_fraction(parent, change, better) >= 0.9 && gain > p.q3 - p.q1 {
        return Verdict::Improved;
    }
    if -gain > bound * p.median.abs() {
        return Verdict::Regressed;
    }
    let all_better = parent
        .iter()
        .all(|&pv| change.iter().all(|&cv| better.gain(pv, cv) > 0.0));
    if p.spread() > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            Quartiles::of(&ten),
            Quartiles {
                q1: 2.75,
                median: 5.5,
                q3: 8.25
            }
        );
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(
            Quartiles::of(&[4.0, 1.0, 3.0, 2.0]),
            Quartiles {
                q1: 1.25,
                median: 2.5,
                q3: 3.75
            }
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(
            Quartiles::of(&[3.0, 1.0, 2.0]),
            Quartiles {
                q1: 1.0,
                median: 2.0,
                q3: 3.0
            }
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let two = Quartiles::of(&[10.0, 20.0]);
        assert_eq!((two.q1, two.median, two.q3), (7.5, 15.0, 22.5));
        assert_eq!(Quartiles::of(&[7.0]).median, 7.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = Quartiles {
            q1: 9.0,
            median: 10.0,
            q3: 11.0,
        };
        assert!((q.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn nine_of_ten_wins_with_a_clear_margin_is_a_gain() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let mut change: Vec<f64> = parent.iter().map(|v| v + 10.0).collect();
        change[3] = 90.0; // one loss: exactly 9 of 10 wins
        assert_eq!(win_fraction(&parent, &change, Better::Higher), 0.9);
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::Improved
        );
        change[4] = 90.0; // 8 of 10: not a gain, but within the bound
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [10.0; 10];
        let mut change = [10.0; 10];
        assert_eq!(win_fraction(&parent, &change, Better::Lower), 0.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unchanged
        );
        // Nine wins and one tie still make nine tenths.
        for v in change.iter_mut().take(9) {
            *v = 8.0;
        }
        assert_eq!(win_fraction(&parent, &change, Better::Lower), 0.9);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Improved
        );
        // Eight wins and two ties do not.
        change[8] = 10.0;
        assert_eq!(win_fraction(&parent, &change, Better::Lower), 0.8);
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        let change = [11.0, 11.1, 10.9, 11.0, 11.05];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.2),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_result_unresolved() {
        let parent = [8.0, 12.0, 9.0, 11.0, 10.0];
        let change = [10.2, 9.5, 10.4, 11.5, 9.9];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Unless every run of the change beats every run of the parent.
        let change = [7.9, 7.8, 7.95, 7.7, 7.85];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }
}
