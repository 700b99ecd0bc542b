//! Figure 8: the profiled channel-latency landscape behind the /c policy.
//!
//! The paper's Figure 8 illustrates (a) solo latency, (b) fewer-channel
//! contention, (c) the secure channel staying slower after balancing, and
//! (d) the balanced goal state. The quantitative core is the trio of
//! slowdowns `T33`, `T25`, `T25mix` per benchmark and their ratio — the
//! numbers Figure 12 consumes.

use super::{ExperimentError, Scale};
use crate::profiling::{ChannelProfile, ProfileScale};
use crate::report::{fmt3, render_table};
use doram_trace::Benchmark;

/// One benchmark's profile.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Solo-run mean read latency (memory cycles).
    pub solo_latency: f64,
    /// D-ORAM/0 slowdown (three normal channels only).
    pub t33: f64,
    /// 7NS-4ch slowdown (four channels, no S-App).
    pub t25: f64,
    /// D-ORAM/7 slowdown (four channels incl. the secure one).
    pub t25mix: f64,
}

impl Fig8Row {
    /// The policy ratio `T25mix / T33`.
    pub fn ratio(&self) -> f64 {
        self.t25mix / self.t33
    }
}

/// Profiles `b` as Figures 8 and 12 do: on its own trace segment, with
/// at most 1,500 accesses per NS-App.
///
/// # Errors
///
/// Propagates the first simulation error.
pub(crate) fn profile(b: Benchmark, scale: &Scale) -> Result<ChannelProfile, ExperimentError> {
    crate::profiling::profile(
        b,
        ProfileScale {
            accesses: scale.ns_accesses.min(1_500),
            seed: scale.seed,
            stream: 7,
        },
    )
}

/// Runs the Figure 8 profiling pass.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig8Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let p = profile(b, scale)?;
        Ok(Fig8Row {
            benchmark: b,
            solo_latency: p.solo_latency,
            t33: p.t33,
            t25: p.t25,
            t25mix: p.t25mix,
        })
    })
}

/// Renders the profile table.
pub fn render(rows: &[Fig8Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.1}", r.solo_latency),
                fmt3(r.t33),
                fmt3(r.t25),
                fmt3(r.t25mix),
                fmt3(r.ratio()),
            ]
        })
        .collect();
    let mut out = String::from("Figure 8 — profiled memory-latency slowdowns (vs solo run)\n");
    out.push_str(&render_table(
        &["bench", "solo lat", "T33", "T25", "T25mix", "r"],
        &body,
    ));
    out.push_str(
        "\npaper: T33/T25 capture pure channel-count contention; T25mix adds the\n\
         delegated S-App — r > 1 means the secure channel is not worth joining.\n",
    );
    out
}

/// CSV form of the rows.
pub fn render_csv(rows: &[Fig8Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.6}", r.solo_latency),
                format!("{:.6}", r.t33),
                format!("{:.6}", r.t25),
                format!("{:.6}", r.t25mix),
                format!("{:.6}", r.ratio()),
            ]
        })
        .collect();
    crate::report::render_csv(
        &["bench", "solo_latency", "t33", "t25", "t25mix", "ratio"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_rows_are_ordered_sensibly() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        scale.ns_accesses = 500;
        let rows = run(&scale).unwrap();
        let r = &rows[0];
        assert!(r.solo_latency > 0.0);
        assert!(r.t25 > 1.0);
        assert!(r.ratio() > 0.0);
        assert!(render(&rows).contains("T25mix"));
        assert!(render_csv(&rows).starts_with("bench,"));
    }
}
