//! The 15 benchmark programs of Table III.
//!
//! MPKI values are exactly the paper's. Locality mixtures are assigned per
//! suite: PARSEC kernels lean on streaming, the commercial traces are
//! pointer-heavy with low locality, the two SPEC programs are the classic
//! streaming offenders (leslie3d, libquantum), and the BioBench pair
//! (mummer, tigr) does random genome-index chasing over large footprints.

use crate::workload::WorkloadSpec;

/// Benchmark suite of origin (Table III's first column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// PARSEC 2.1 kernels.
    Parsec,
    /// Commercial server traces (MSC "comm" set).
    Commercial,
    /// SPEC CPU2006.
    Spec,
    /// BioBench.
    BioBench,
}

/// One of the paper's 15 workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// PARSEC blackscholes (MPKI 4.2).
    Black,
    /// PARSEC facesim (MPKI 26.8).
    Face,
    /// PARSEC ferret (MPKI 8.0).
    Ferret,
    /// PARSEC fluidanimate (MPKI 17.5).
    Fluid,
    /// PARSEC streamcluster (MPKI 12.9).
    Stream,
    /// PARSEC swaptions (MPKI 10.9).
    Swapt,
    /// Commercial trace 1 (MPKI 7.3).
    Comm1,
    /// Commercial trace 2 (MPKI 12.6).
    Comm2,
    /// Commercial trace 3 (MPKI 4.2).
    Comm3,
    /// Commercial trace 4 (MPKI 3.7).
    Comm4,
    /// Commercial trace 5 (MPKI 4.5).
    Comm5,
    /// SPEC leslie3d (MPKI 23.1).
    Leslie,
    /// SPEC libquantum (MPKI 12.0).
    Libq,
    /// BioBench mummer (MPKI 24.0).
    Mummer,
    /// BioBench tigr (MPKI 6.7).
    Tigr,
}

impl Benchmark {
    /// All 15 benchmarks in the paper's Table III order.
    pub const ALL: [Benchmark; 15] = [
        Benchmark::Black,
        Benchmark::Face,
        Benchmark::Ferret,
        Benchmark::Fluid,
        Benchmark::Stream,
        Benchmark::Swapt,
        Benchmark::Comm1,
        Benchmark::Comm2,
        Benchmark::Comm3,
        Benchmark::Comm4,
        Benchmark::Comm5,
        Benchmark::Leslie,
        Benchmark::Libq,
        Benchmark::Mummer,
        Benchmark::Tigr,
    ];

    /// The suite the benchmark comes from.
    pub fn suite(self) -> Suite {
        use Benchmark::*;
        match self {
            Black | Face | Ferret | Fluid | Stream | Swapt => Suite::Parsec,
            Comm1 | Comm2 | Comm3 | Comm4 | Comm5 => Suite::Commercial,
            Leslie | Libq => Suite::Spec,
            Mummer | Tigr => Suite::BioBench,
        }
    }

    /// Two-letter label used in the paper's result figures.
    pub fn label(self) -> &'static str {
        &self.spec().name[..2]
    }

    /// The workload's statistical description.
    pub fn spec(self) -> WorkloadSpec {
        // Shared shapes per behaviour class.
        let streaming = |name, mpki, footprint_lines| WorkloadSpec {
            name,
            mpki,
            read_frac: 0.70,
            footprint_lines,
            stream_frac: 0.85,
            stream_run: 96,
            stream_count: 4,
            hot_frac: 0.05,
            hot_lines: 2048,
        };
        let mixed = |name, mpki, footprint_lines| WorkloadSpec {
            name,
            mpki,
            read_frac: 0.67,
            footprint_lines,
            stream_frac: 0.45,
            stream_run: 32,
            stream_count: 4,
            hot_frac: 0.25,
            hot_lines: 4096,
        };
        let random = |name, mpki, footprint_lines| WorkloadSpec {
            name,
            mpki,
            read_frac: 0.72,
            footprint_lines,
            stream_frac: 0.10,
            stream_run: 8,
            stream_count: 2,
            hot_frac: 0.15,
            hot_lines: 8192,
        };

        use Benchmark::*;
        match self {
            // PARSEC.
            Black => mixed("black", 4.2, 1 << 18),
            Face => streaming("face", 26.8, 1 << 21),
            Ferret => random("ferret", 8.0, 1 << 20),
            Fluid => streaming("fluid", 17.5, 1 << 20),
            Stream => streaming("stream", 12.9, 1 << 21),
            Swapt => mixed("swapt", 10.9, 1 << 19),
            // Commercial: low-locality server behaviour.
            Comm1 => random("comm1", 7.3, 1 << 21),
            Comm2 => random("comm2", 12.6, 1 << 21),
            Comm3 => random("comm3", 4.2, 1 << 20),
            Comm4 => random("comm4", 3.7, 1 << 20),
            Comm5 => random("comm5", 4.5, 1 << 20),
            // SPEC streaming classics.
            Leslie => streaming("leslie", 23.1, 1 << 21),
            Libq => streaming("libq", 12.0, 1 << 21),
            // BioBench: random index walks over big footprints.
            Mummer => random("mummer", 24.0, 1 << 22),
            Tigr => random("tigr", 6.7, 1 << 21),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for b in Benchmark::ALL {
            b.spec().validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn table3_mpki_values() {
        // Spot-check against the paper's Table III.
        assert_eq!(Benchmark::Black.spec().mpki, 4.2);
        assert_eq!(Benchmark::Face.spec().mpki, 26.8);
        assert_eq!(Benchmark::Leslie.spec().mpki, 23.1);
        assert_eq!(Benchmark::Mummer.spec().mpki, 24.0);
        assert_eq!(Benchmark::Comm4.spec().mpki, 3.7);
        assert_eq!(Benchmark::Tigr.spec().mpki, 6.7);
    }

    #[test]
    fn fifteen_unique_names() {
        let mut names: Vec<_> = Benchmark::ALL.iter().map(|b| b.spec().name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn suites_match_table3() {
        assert_eq!(Benchmark::Stream.suite(), Suite::Parsec);
        assert_eq!(Benchmark::Comm5.suite(), Suite::Commercial);
        assert_eq!(Benchmark::Libq.suite(), Suite::Spec);
        assert_eq!(Benchmark::Tigr.suite(), Suite::BioBench);
    }

    #[test]
    fn labels_are_two_letters() {
        for b in Benchmark::ALL {
            assert_eq!(b.label().len(), 2);
        }
        assert_eq!(Benchmark::Mummer.label(), "mu");
        assert_eq!(Benchmark::Mummer.to_string(), "mummer");
    }
}
