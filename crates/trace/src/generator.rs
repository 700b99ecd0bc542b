//! Synthetic trace generation from a [`WorkloadSpec`].
//!
//! Addresses are produced by a three-component mixture (sequential streams,
//! hot-set reuse, uniform random) and inter-access gaps by a geometric
//! distribution whose mean matches the spec's MPKI. Everything is
//! deterministic in `(spec, seed, stream)` so co-run experiments and their
//! profiling runs (Figure 12 uses "a different segment of memory trace") can
//! reference well-defined segments.

use crate::record::{AccessOp, TraceRecord};
use crate::workload::WorkloadSpec;
use doram_sim::rng::Xoshiro256;

/// Line size in bytes (cache line, Table II).
pub const LINE_BYTES: u64 = 64;

/// A deterministic, endless generator of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use doram_trace::{Benchmark, TraceGenerator};
/// let spec = Benchmark::Libq.spec();
/// let mut g = TraceGenerator::new(spec, 7, 0);
/// let a = g.next_record();
/// let b = g.next_record();
/// // libquantum is a streaming workload: sequential lines dominate.
/// assert!(a.addr != b.addr);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: Xoshiro256,
    /// Per-stream cursor (line index) and remaining run length.
    streams: Vec<(u64, u64)>,
    next_stream: usize,
    hot_base: u64,
    generated: u64,
    instructions: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec`.
    ///
    /// `seed` selects the experiment; `stream` distinguishes cores and trace
    /// segments (e.g. profiling vs measurement) within one experiment.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: WorkloadSpec, seed: u64, stream: u64) -> TraceGenerator {
        spec.validate().expect("invalid workload spec");
        let mut rng = Xoshiro256::stream(
            seed ^ 0xD0_0A_11_u64.wrapping_mul(hash_name(spec.name)),
            stream,
        );
        let streams = (0..spec.stream_count)
            .map(|_| (rng.gen_below(spec.footprint_lines), 0))
            .collect();
        let hot_base = rng.gen_below(spec.footprint_lines - spec.hot_lines + 1);
        TraceGenerator {
            spec,
            rng,
            streams,
            next_stream: 0,
            hot_base,
            generated: 0,
            instructions: 0,
        }
    }

    /// The workload description this generator follows.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Memory accesses generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Total instructions (gaps + accesses) generated so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Produces the next trace record.
    pub fn next_record(&mut self) -> TraceRecord {
        let spec = self.spec;
        // Gap: geometric with success probability mpki/1000 gives a mean
        // inter-access instruction count of 1000/mpki - 1 non-memory
        // instructions, i.e. mpki accesses per kilo-instruction.
        let p = (spec.mpki / 1000.0).min(1.0);
        let gap = self.rng.gen_geometric(p);

        // Phase behaviour: in the alternate phase the streaming mass goes
        // to the uniform-random component (and vice versa is implicit in
        // the smaller stream share), flipping the row-buffer profile.
        let in_alt_phase = spec.phase_period > 0 && (self.generated / spec.phase_period) % 2 == 1;
        let stream_frac = if in_alt_phase { 0.0 } else { spec.stream_frac };

        let roll = self.rng.gen_f64();
        let line = if roll < stream_frac {
            self.next_streaming_line()
        } else if roll < stream_frac + spec.hot_frac {
            self.hot_base + self.rng.gen_below(spec.hot_lines)
        } else {
            self.rng.gen_below(spec.footprint_lines)
        };

        let op = if self.rng.gen_bool(spec.read_frac) {
            AccessOp::Read
        } else {
            AccessOp::Write
        };

        self.generated += 1;
        self.instructions += gap + 1;
        TraceRecord {
            gap,
            op,
            addr: line * LINE_BYTES,
        }
    }

    /// Advances the round-robin stream walkers.
    fn next_streaming_line(&mut self) -> u64 {
        let spec = self.spec;
        let idx = self.next_stream;
        self.next_stream = (self.next_stream + 1) % self.streams.len();
        let (cursor, left) = &mut self.streams[idx];
        if *left == 0 {
            // Start a fresh run somewhere in the footprint.
            *cursor = self.rng.gen_below(spec.footprint_lines);
            // Run lengths vary around the mean (±50%).
            let lo = (spec.stream_run / 2).max(1);
            *left = lo + self.rng.gen_below(spec.stream_run.max(2));
        }
        let line = *cursor;
        *cursor = (*cursor + 1) % spec.footprint_lines;
        *left -= 1;
        line
    }

    /// Convenience: the next `n` records as a vector.
    pub fn take_records(&mut self, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Turns the endless generator into an iterator over exactly
    /// `accesses` records — the unit experiments are scaled by.
    pub fn finite(self, accesses: u64) -> FiniteTrace {
        FiniteTrace {
            gen: self,
            remaining: accesses,
        }
    }
}

/// Iterator adapter produced by [`TraceGenerator::finite`].
#[derive(Debug, Clone)]
pub struct FiniteTrace {
    gen: TraceGenerator,
    remaining: u64,
}

impl FiniteTrace {
    /// Records left to produce.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Iterator for FiniteTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.gen.next_record())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.min(usize::MAX as u64) as usize;
        (n, Some(n))
    }
}

/// Stable tiny hash of the workload name, to decorrelate same-seed
/// generators of different benchmarks.
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    #[test]
    fn deterministic_per_seed_and_stream() {
        let spec = Benchmark::Ferret.spec();
        let a: Vec<_> = TraceGenerator::new(spec, 1, 0).take_records(100);
        let b: Vec<_> = TraceGenerator::new(spec, 1, 0).take_records(100);
        let c: Vec<_> = TraceGenerator::new(spec, 1, 1).take_records(100);
        let d: Vec<_> = TraceGenerator::new(spec, 2, 0).take_records(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn mpki_matches_table3_for_every_benchmark() {
        for b in Benchmark::ALL {
            let mut g = TraceGenerator::new(b.spec(), 3, 0);
            let n = 40_000;
            for _ in 0..n {
                g.next_record();
            }
            let mpki = g.generated() as f64 * 1000.0 / g.instructions() as f64;
            let target = b.spec().mpki;
            assert!(
                (mpki - target).abs() / target < 0.05,
                "{b}: generated MPKI {mpki:.2} vs Table III {target}"
            );
        }
    }

    #[test]
    fn addresses_stay_in_footprint_and_are_aligned() {
        let spec = Benchmark::Mummer.spec();
        let mut g = TraceGenerator::new(spec, 9, 0);
        for _ in 0..10_000 {
            let r = g.next_record();
            assert_eq!(r.addr % LINE_BYTES, 0);
            assert!(r.addr / LINE_BYTES < spec.footprint_lines);
        }
    }

    #[test]
    fn read_fraction_matches_spec() {
        let spec = Benchmark::Stream.spec();
        let mut g = TraceGenerator::new(spec, 4, 0);
        let n = 20_000;
        let reads = (0..n)
            .filter(|_| g.next_record().op == AccessOp::Read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - spec.read_frac).abs() < 0.02, "read frac {frac}");
    }

    #[test]
    fn streaming_workload_has_sequential_locality() {
        // Count accesses whose line follows the previous access of the same
        // region closely; libq should be far more sequential than mummer.
        // "Sequential" = within 8 lines of one of the previous 8 accesses
        // (streams are interleaved round-robin, so look back a window).
        fn seq_score(b: Benchmark) -> f64 {
            let mut g = TraceGenerator::new(b.spec(), 5, 0);
            let recs = g.take_records(20_000);
            let mut seq = 0;
            for i in 1..recs.len() {
                let line = recs[i].addr / LINE_BYTES;
                let near = recs[i.saturating_sub(8)..i]
                    .iter()
                    .any(|p| (p.addr / LINE_BYTES).abs_diff(line) <= 8);
                if near {
                    seq += 1;
                }
            }
            seq as f64 / recs.len() as f64
        }
        let libq = seq_score(Benchmark::Libq);
        let mummer = seq_score(Benchmark::Mummer);
        assert!(
            libq > 2.0 * mummer,
            "libq seq {libq:.3} should dwarf mummer {mummer:.3}"
        );
    }

    #[test]
    fn phases_flip_the_locality_profile() {
        let spec = Benchmark::Libq.spec().with_phases(2_000);
        let mut g = TraceGenerator::new(spec, 5, 0);
        // Sequentiality within each phase window.
        let seq_frac = |recs: &[crate::record::TraceRecord]| {
            let mut seq = 0;
            for i in 1..recs.len() {
                let line = recs[i].addr / LINE_BYTES;
                if recs[i.saturating_sub(8)..i]
                    .iter()
                    .any(|p| (p.addr / LINE_BYTES).abs_diff(line) <= 8)
                {
                    seq += 1;
                }
            }
            seq as f64 / recs.len() as f64
        };
        let phase_a = g.take_records(2_000);
        let phase_b = g.take_records(2_000);
        let a = seq_frac(&phase_a);
        let b = seq_frac(&phase_b);
        assert!(
            a > 3.0 * b,
            "nominal phase seq {a:.3} must dwarf alternate phase {b:.3}"
        );
        // MPKI is phase-independent.
        let mpki = g.generated() as f64 * 1000.0 / g.instructions() as f64;
        assert!((mpki - 12.0).abs() / 12.0 < 0.1, "mpki {mpki}");
    }

    #[test]
    fn phase_period_zero_means_no_phases() {
        let a: Vec<_> = TraceGenerator::new(Benchmark::Libq.spec(), 5, 0).take_records(100);
        let b: Vec<_> =
            TraceGenerator::new(Benchmark::Libq.spec().with_phases(0), 5, 0).take_records(100);
        assert_eq!(a, b);
    }

    #[test]
    fn finite_trace_yields_exactly_n() {
        let g = TraceGenerator::new(Benchmark::Black.spec(), 1, 0);
        let t = g.finite(37);
        assert_eq!(t.size_hint(), (37, Some(37)));
        assert_eq!(t.count(), 37);
    }

    #[test]
    fn different_benchmarks_decorrelated_at_same_seed() {
        let a: Vec<_> = TraceGenerator::new(Benchmark::Comm1.spec(), 1, 0).take_records(50);
        let b: Vec<_> = TraceGenerator::new(Benchmark::Comm2.spec(), 1, 0).take_records(50);
        assert_ne!(
            a.iter().map(|r| r.addr).collect::<Vec<_>>(),
            b.iter().map(|r| r.addr).collect::<Vec<_>>()
        );
    }
}
