//! Trace analysis: measure the statistical properties of any record
//! stream.
//!
//! Used to validate that generated traces hit their specs (Table III
//! calibration), and to characterize *imported* traces (via
//! [`crate::format::parse_trace`]) before replaying them through the
//! simulator.

use crate::record::{AccessOp, TraceRecord};
use std::collections::HashMap;

/// Summary statistics of a trace segment.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Memory accesses analyzed.
    pub accesses: u64,
    /// Total instructions (gaps + accesses).
    pub instructions: u64,
    /// Misses per kilo-instruction.
    pub mpki: f64,
    /// Fraction of accesses that are reads.
    pub read_frac: f64,
    /// Distinct 64 B lines touched.
    pub footprint_lines: u64,
    /// Fraction of accesses within 8 lines of one of the previous 8
    /// accesses (sequentiality proxy).
    pub sequentiality: f64,
    /// Fraction of accesses whose line was touched before (reuse).
    pub reuse_frac: f64,
}

/// Analyzes `records`.
pub fn analyze<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> TraceStats {
    let mut accesses = 0u64;
    let mut instructions = 0u64;
    let mut reads = 0u64;
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let mut reused = 0u64;
    let mut seq = 0u64;
    let mut window: Vec<u64> = Vec::with_capacity(8);

    for r in records {
        accesses += 1;
        instructions += r.instructions();
        if r.op == AccessOp::Read {
            reads += 1;
        }
        let line = r.addr >> 6;
        if window.iter().any(|&p| p.abs_diff(line) <= 8) {
            seq += 1;
        }
        if window.len() == 8 {
            window.remove(0);
        }
        window.push(line);
        let count = seen.entry(line).or_insert(0);
        if *count > 0 {
            reused += 1;
        }
        *count += 1;
    }

    let n = accesses.max(1) as f64;
    TraceStats {
        accesses,
        instructions,
        mpki: if instructions == 0 {
            0.0
        } else {
            accesses as f64 * 1000.0 / instructions as f64
        },
        read_frac: reads as f64 / n,
        footprint_lines: seen.len() as u64,
        sequentiality: seq as f64 / n,
        reuse_frac: reused as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::generator::TraceGenerator;

    #[test]
    fn empty_trace() {
        let s = analyze([].iter());
        assert_eq!(s.accesses, 0);
        assert_eq!(s.mpki, 0.0);
        assert_eq!(s.footprint_lines, 0);
    }

    #[test]
    fn hand_built_trace() {
        let recs = [
            TraceRecord {
                gap: 9,
                op: AccessOp::Read,
                addr: 0,
            },
            TraceRecord {
                gap: 9,
                op: AccessOp::Read,
                addr: 64,
            }, // sequential
            TraceRecord {
                gap: 9,
                op: AccessOp::Write,
                addr: 0,
            }, // reuse + near
            TraceRecord {
                gap: 9,
                op: AccessOp::Read,
                addr: 1 << 20,
            },
        ];
        let s = analyze(recs.iter());
        assert_eq!(s.accesses, 4);
        assert_eq!(s.instructions, 40);
        assert_eq!(s.mpki, 100.0);
        assert_eq!(s.read_frac, 0.75);
        assert_eq!(s.footprint_lines, 3);
        assert_eq!(s.sequentiality, 0.5); // records 2 and 3
        assert_eq!(s.reuse_frac, 0.25);
    }

    #[test]
    fn generated_traces_match_their_specs() {
        for b in [Benchmark::Libq, Benchmark::Mummer, Benchmark::Black] {
            let mut g = TraceGenerator::new(b.spec(), 1, 0);
            let recs = g.take_records(30_000);
            let s = analyze(recs.iter());
            let spec = b.spec();
            assert!(
                (s.mpki - spec.mpki).abs() / spec.mpki < 0.06,
                "{b}: mpki {} vs {}",
                s.mpki,
                spec.mpki
            );
            assert!(
                (s.read_frac - spec.read_frac).abs() < 0.03,
                "{b}: read frac {}",
                s.read_frac
            );
            assert!(s.footprint_lines <= spec.footprint_lines);
        }
        // Relative sequentiality: streaming ≫ random.
        let seq = |b: Benchmark| {
            let mut g = TraceGenerator::new(b.spec(), 1, 0);
            analyze(g.take_records(20_000).iter()).sequentiality
        };
        assert!(seq(Benchmark::Libq) > 2.0 * seq(Benchmark::Mummer));
    }

    #[test]
    fn round_trips_through_the_text_format() {
        let mut g = TraceGenerator::new(Benchmark::Swapt.spec(), 2, 0);
        let recs = g.take_records(500);
        let text = crate::format::write_trace(&recs);
        let parsed = crate::format::parse_trace(&text).unwrap();
        assert_eq!(analyze(recs.iter()), analyze(parsed.iter()));
    }
}
