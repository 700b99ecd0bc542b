//! Table III: the benchmark roster and its MPKIs — specification vs what
//! the synthetic generator actually emits.

use crate::report::{fmt3, render_table};
use doram_trace::{Benchmark, TraceGenerator};

/// One benchmark's calibration check.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// MPKI from the paper's Table III (the generator's target).
    pub spec_mpki: f64,
    /// MPKI measured over a generated trace segment.
    pub measured_mpki: f64,
    /// Fraction of reads in the same segment.
    pub read_frac: f64,
}

/// Generates `accesses` records per benchmark and measures the MPKI.
pub fn run(accesses: u64) -> Vec<Table3Row> {
    Benchmark::ALL
        .iter()
        .map(|&b| {
            let mut g = TraceGenerator::new(b.spec(), 1, 0);
            let mut reads = 0u64;
            for _ in 0..accesses {
                if g.next_record().op == doram_trace::AccessOp::Read {
                    reads += 1;
                }
            }
            Table3Row {
                benchmark: b,
                spec_mpki: b.spec().mpki,
                measured_mpki: g.generated() as f64 * 1000.0 / g.instructions() as f64,
                read_frac: reads as f64 / accesses as f64,
            }
        })
        .collect()
}

/// Renders the table.
pub fn render(rows: &[Table3Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.benchmark.suite()),
                r.benchmark.to_string(),
                format!("{:.1}", r.spec_mpki),
                format!("{:.2}", r.measured_mpki),
                fmt3(r.read_frac),
            ]
        })
        .collect();
    let mut out = String::from("Table III — benchmarks and MPKI (spec = paper's value)\n");
    out.push_str(&render_table(
        &[
            "suite",
            "bench",
            "MPKI (paper)",
            "MPKI (measured)",
            "read frac",
        ],
        &body,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_mpki_tracks_spec() {
        let rows = run(30_000);
        assert_eq!(rows.len(), 15);
        for r in &rows {
            let err = (r.measured_mpki - r.spec_mpki).abs() / r.spec_mpki;
            assert!(
                err < 0.06,
                "{}: {} vs {}",
                r.benchmark,
                r.measured_mpki,
                r.spec_mpki
            );
        }
        assert!(render(&rows).contains("MPKI"));
    }
}
