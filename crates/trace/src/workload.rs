//! Workload parameterization.

/// Statistical description of a benchmark's main-memory behaviour.
///
/// The generator produces accesses as a mixture of three components:
/// sequential streams (row-buffer friendly), a small hot set (reused lines),
/// and uniform random lines over the footprint (row-buffer hostile). The
/// weights must sum to at most 1; the remainder is the random component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Short display name (first two letters index the paper's figures).
    pub name: &'static str,
    /// Misses per kilo-instruction reaching main memory (Table III).
    pub mpki: f64,
    /// Fraction of accesses that are reads (demand misses vs writebacks).
    pub read_frac: f64,
    /// Total footprint in 64 B lines.
    pub footprint_lines: u64,
    /// Probability an access continues/starts a sequential stream.
    pub stream_frac: f64,
    /// Mean run length of a sequential stream, in lines.
    pub stream_run: u64,
    /// Number of concurrent sequential streams (bank-level parallelism).
    pub stream_count: usize,
    /// Probability an access reuses the hot set.
    pub hot_frac: f64,
    /// Hot-set size in lines.
    pub hot_lines: u64,
    /// Program-phase period in accesses: every `phase_period` accesses the
    /// generator toggles between the nominal mixture and its "opposite"
    /// (streaming mass moved to the random component), imitating the
    /// phase behaviour of real traces. 0 disables phases.
    pub phase_period: u64,
}

impl WorkloadSpec {
    /// Validates the mixture weights and sizes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mpki > 0.0 && self.mpki < 1000.0) {
            return Err(format!("{}: mpki {} out of range", self.name, self.mpki));
        }
        if !(0.0..=1.0).contains(&self.read_frac) {
            return Err(format!("{}: read_frac out of range", self.name));
        }
        if self.stream_frac + self.hot_frac > 1.0 {
            return Err(format!("{}: mixture weights exceed 1", self.name));
        }
        if self.footprint_lines == 0 || self.hot_lines == 0 || self.hot_lines > self.footprint_lines
        {
            return Err(format!("{}: inconsistent footprint/hot sizes", self.name));
        }
        if self.stream_count == 0 || self.stream_run == 0 {
            return Err(format!("{}: streams must be non-trivial", self.name));
        }
        Ok(())
    }

    /// Returns a copy with phase switching every `period` accesses.
    pub fn with_phases(mut self, period: u64) -> WorkloadSpec {
        self.phase_period = period;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            mpki: 10.0,
            read_frac: 0.67,
            footprint_lines: 1 << 20,
            stream_frac: 0.5,
            stream_run: 64,
            stream_count: 4,
            hot_frac: 0.2,
            hot_lines: 1024,
            phase_period: 0,
        }
    }

    #[test]
    fn valid_spec_passes() {
        base().validate().unwrap();
    }

    #[test]
    fn invalid_mixture_rejected() {
        let mut s = base();
        s.stream_frac = 0.9;
        s.hot_frac = 0.3;
        assert!(s.validate().is_err());
    }

    #[test]
    fn invalid_sizes_rejected() {
        let mut s = base();
        s.hot_lines = s.footprint_lines + 1;
        assert!(s.validate().is_err());
        let mut s = base();
        s.mpki = 0.0;
        assert!(s.validate().is_err());
        let mut s = base();
        s.stream_count = 0;
        assert!(s.validate().is_err());
        let mut s = base();
        s.read_frac = 1.5;
        assert!(s.validate().is_err());
    }
}
