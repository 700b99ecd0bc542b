//! Shared last-level cache (Table II: 4 MB).
//!
//! Set-associative, true-LRU, write-back + write-allocate. No simulation,
//! trace path or example uses it; only this crate's property tests and
//! the workspace's protocol-stack test do. The co-run experiments use
//! post-LLC traces (the MPKI of Table III already counts LLC misses),
//! matching USIMM's methodology.

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Address of a dirty line evicted by the fill (memory write needed).
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative write-back cache.
///
/// # Examples
///
/// ```
/// use doram_cpu::Llc;
/// let mut llc = Llc::new(4 << 20, 16, 64);
/// assert!(!llc.access(0x1000, false).hit); // cold miss
/// assert!(llc.access(0x1000, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Llc {
    sets: Vec<Vec<Line>>,
    ways: usize,
    line_bits: u32,
    set_mask: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless all sizes are powers of two and consistent.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Llc {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(ways > 0, "need at least one way");
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines.is_power_of_two() && lines >= ways as u64,
            "capacity must be a power-of-two number of lines >= ways"
        );
        let n_sets = (lines / ways as u64) as usize;
        assert!(n_sets.is_power_of_two(), "sets must be 2^n");
        Llc {
            sets: vec![Vec::with_capacity(ways); n_sets],
            ways,
            line_bits: line_bytes.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The paper's LLC: 4 MB, 16-way, 64 B lines.
    pub fn paper_default() -> Llc {
        Llc::new(4 << 20, 16, 64)
    }

    /// Performs an access, filling on miss.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LlcAccess {
        self.clock += 1;
        let line_addr = addr >> self.line_bits;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = self.clock;
            line.dirty |= is_write;
            self.hits += 1;
            return LlcAccess {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let mut writeback = None;
        if set.len() >= self.ways {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let victim = set.swap_remove(victim_idx);
            if victim.dirty {
                let victim_line = (victim.tag << self.set_mask.count_ones()) | set_idx as u64;
                writeback = Some(victim_line << self.line_bits);
                self.writebacks += 1;
            }
        }
        set.push(Line {
            tag,
            dirty: is_write,
            lru: self.clock,
        });
        LlcAccess {
            hit: false,
            writeback,
        }
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// (hits, misses, writebacks) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    /// Number of resident lines per state, for tests: `(clean, dirty)`.
    pub fn occupancy(&self) -> (usize, usize) {
        let mut clean = 0;
        let mut dirty = 0;
        for set in &self.sets {
            for l in set {
                if l.dirty {
                    dirty += 1;
                } else {
                    clean += 1;
                }
            }
        }
        (clean, dirty)
    }

    /// Flushes all dirty lines, returning their addresses (used at the end
    /// of a filtering pass so writebacks are not lost).
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        let set_bits = self.set_mask.count_ones();
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for l in set.iter_mut().filter(|l| l.dirty) {
                let line = (l.tag << set_bits) | set_idx as u64;
                out.push(line << self.line_bits);
                l.dirty = false;
            }
        }
        out
    }

    /// Sanity check used by property tests: no set exceeds associativity
    /// and no duplicate tags exist within a set.
    pub fn check_invariants(&self) -> Result<(), doram_sim::SimError> {
        for (i, set) in self.sets.iter().enumerate() {
            if set.len() > self.ways {
                return Err(doram_sim::SimError::protocol(format!(
                    "set {i} holds {} lines > {} ways",
                    set.len(),
                    self.ways
                )));
            }
            let mut tags: Vec<_> = set.iter().map(|l| l.tag).collect();
            tags.sort_unstable();
            let before = tags.len();
            tags.dedup();
            if tags.len() != before {
                return Err(doram_sim::SimError::protocol(format!(
                    "set {i} has duplicate tags"
                )));
            }
        }
        Ok(())
    }
}

/// Filters a raw access stream through a cache, yielding the main-memory
/// traffic (misses + writebacks). Returns `(miss_reads, writebacks)` as
/// line-aligned addresses in stream order.
pub fn filter_through_llc(
    llc: &mut Llc,
    accesses: impl Iterator<Item = (u64, bool)>,
) -> (Vec<u64>, Vec<u64>) {
    let mut reads = Vec::new();
    let mut writebacks = Vec::new();
    for (addr, is_write) in accesses {
        let r = llc.access(addr, is_write);
        if !r.hit {
            reads.push(addr & !((1 << llc.line_bits) - 1));
        }
        if let Some(wb) = r.writeback {
            writebacks.push(wb);
        }
    }
    (reads, writebacks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut llc = Llc::paper_default();
        assert!(!llc.access(0, false).hit);
        assert!(llc.access(0, false).hit);
        assert!(llc.access(63, false).hit, "same line");
        assert!(!llc.access(64, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 2 sets (256 B / 64 B / 2).
        let mut llc = Llc::new(256, 2, 64);
        // Set 0 lines: addresses 0, 128, 256 (stride = n_sets * line).
        llc.access(0, false);
        llc.access(128, false);
        llc.access(0, false); // refresh line 0
        llc.access(256, false); // evicts 128
        assert!(llc.access(0, false).hit);
        assert!(!llc.access(128, false).hit);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut llc = Llc::new(256, 2, 64);
        llc.access(0, true); // dirty
        llc.access(128, false);
        let r = llc.access(256, false); // evicts 0 (LRU), dirty
        assert_eq!(r.writeback, Some(0));
        let r = llc.access(384, false); // evicts 128, clean
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut llc = Llc::new(256, 2, 64);
        // Set 1: addresses 64, 192, 320.
        llc.access(64, true);
        llc.access(192, false);
        let r = llc.access(320, false);
        assert_eq!(r.writeback, Some(64));
    }

    #[test]
    fn hit_rate_and_counters() {
        let mut llc = Llc::paper_default();
        llc.access(0, false);
        llc.access(0, false);
        llc.access(0, false);
        assert!((llc.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(llc.counters(), (2, 1, 0));
    }

    #[test]
    fn flush_dirty_returns_all_dirty_lines() {
        let mut llc = Llc::new(512, 2, 64);
        llc.access(0, true);
        llc.access(64, true);
        llc.access(128, false);
        let mut dirty = llc.flush_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 64]);
        assert_eq!(llc.occupancy().1, 0, "nothing dirty after flush");
        assert!(llc.flush_dirty().is_empty());
    }

    #[test]
    fn filter_reports_misses_and_writebacks() {
        let mut llc = Llc::new(256, 2, 64);
        let stream = vec![(0u64, true), (0, false), (128, false), (256, false)];
        let (reads, wbs) = filter_through_llc(&mut llc, stream.into_iter());
        assert_eq!(reads, vec![0, 128, 256]);
        assert_eq!(wbs, vec![0]);
    }

    #[test]
    fn invariants_hold_under_random_traffic() {
        let mut llc = Llc::new(64 << 10, 8, 64);
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) & ((1 << 22) - 1);
            llc.access(addr, x & 1 == 0);
        }
        llc.check_invariants().unwrap();
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut llc = Llc::paper_default();
        // 1 MB working set in a 4 MB cache.
        let lines = (1 << 20) / 64;
        for pass in 0..3 {
            for i in 0..lines {
                let r = llc.access(i * 64, false);
                if pass > 0 {
                    assert!(r.hit, "line {i} missed on pass {pass}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        let _ = Llc::new(1000, 2, 64);
    }
}
