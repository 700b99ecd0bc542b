//! Deterministic random number generation.
//!
//! Every stochastic element of the simulation (synthetic traces, ORAM leaf
//! remapping, dummy data) draws from a [`Xoshiro256`] seeded from the
//! experiment configuration, so runs are exactly reproducible. The generator
//! is xoshiro256** (Blackman & Vigna), seeded through SplitMix64 so that
//! small human-chosen seeds still produce well-mixed state.

/// xoshiro256** pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use doram_sim::rng::Xoshiro256;
/// let mut a = Xoshiro256::seed_from(1);
/// let mut b = Xoshiro256::seed_from(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { s }
    }

    /// Derives an independent stream from this seed and a stream index.
    ///
    /// Used to give each core / benchmark / subsystem its own generator
    /// without correlated sequences.
    pub fn stream(seed: u64, stream: u64) -> Xoshiro256 {
        Xoshiro256::seed_from(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be positive");
        // Debiased via rejection on the low product word.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the half-open range `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range range must be non-empty");
        range.start + self.gen_below(range.end - range.start)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Geometric draw: number of failures before the first success with
    /// success probability `p`. Returns 0 for `p >= 1`; saturates for tiny p.
    ///
    /// Used for inter-miss instruction gaps when synthesizing traces with a
    /// target MPKI.
    pub fn gen_geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let p = p.max(1e-12);
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        let draw = (u.ln() / (1.0 - p).ln()).floor();
        if draw >= u64::MAX as f64 {
            u64::MAX
        } else {
            draw as u64
        }
    }
}

crate::impl_codec!(struct Xoshiro256 { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Xoshiro256::stream(7, 1);
        let mut b = Xoshiro256::stream(7, 1);
        let mut c = Xoshiro256::stream(7, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn gen_below_is_in_range() {
        let mut rng = Xoshiro256::seed_from(99);
        for _ in 0..10_000 {
            assert!(rng.gen_below(13) < 13);
        }
    }

    #[test]
    fn gen_below_covers_all_values() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..1_000 {
            let v = rng.gen_range(100..110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        Xoshiro256::seed_from(0).gen_range(5..5);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = Xoshiro256::seed_from(11);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn geometric_mean_matches_parameter() {
        // Mean of geometric (failures before success) is (1-p)/p.
        let mut rng = Xoshiro256::seed_from(21);
        let p = 0.01;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| rng.gen_geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn geometric_degenerate() {
        let mut rng = Xoshiro256::seed_from(1);
        assert_eq!(rng.gen_geometric(1.0), 0);
        assert_eq!(rng.gen_geometric(2.0), 0);
    }

    #[test]
    fn bool_probability() {
        let mut rng = Xoshiro256::seed_from(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
