//! Channel-contention profiling (§III-D, Figures 8 and 12).
//!
//! The D-ORAM/c policy needs to know whether the secure channel, slowed by
//! the SD's path bursts, is still worth using for a given NS-App. The
//! paper profiles a *different segment* of each benchmark's trace and
//! compares two average-memory-latency slowdowns (relative to the solo
//! run):
//!
//! * `T33` — NS-Apps on the three normal channels only (33% traffic
//!   each), i.e. D-ORAM with c = 0;
//! * `T25` — NS-Apps on all four channels, no S-App (25% each);
//! * `T25mix` — NS-Apps on all four channels with the S-App delegated on
//!   channel #0, i.e. D-ORAM with c = 7.
//!
//! The ratio `r = T25mix / T33` guides the choice: `r > 1` ⇒ the secure
//! channel is too slow, prefer a small `c`; `r < 1` ⇒ use all four
//! channels (large `c`).

use crate::config::{Scheme, SystemConfig};
use crate::experiments::{simulate, ExperimentError};
use doram_trace::Benchmark;

/// Scale of a profiling pass.
#[derive(Debug, Clone, Copy)]
pub struct ProfileScale {
    /// Memory accesses per NS-App in the profiling segment.
    pub accesses: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Trace segment to profile (use a different one than the measured
    /// runs, as the paper does for Figure 12).
    pub stream: u64,
}

impl Default for ProfileScale {
    fn default() -> ProfileScale {
        ProfileScale {
            accesses: 1_500,
            seed: 1,
            // Segment 7 is reserved by convention for profiling.
            stream: 7,
        }
    }
}

/// Profiled channel-latency slowdowns for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ChannelProfile {
    /// Average NS read latency of the solo run (memory cycles).
    pub solo_latency: f64,
    /// Slowdown with 7 NS-Apps on three channels.
    pub t33: f64,
    /// Slowdown with 7 NS-Apps on four channels (no S-App).
    pub t25: f64,
    /// Slowdown with 7 NS-Apps on four channels plus the delegated S-App.
    pub t25mix: f64,
}

impl ChannelProfile {
    /// The decision ratio `r = T25mix / T33`.
    pub fn ratio(&self) -> f64 {
        self.t25mix / self.t33
    }

    /// Whether the profile recommends a small `c` (fewer NS-Apps on the
    /// secure channel): `r > 1`.
    pub fn prefers_small_c(&self) -> bool {
        self.ratio() > 1.0
    }
}

/// Profiles `benchmark` at the given scale.
///
/// `T33` and `T25mix` are measured on the *D-ORAM architecture itself*
/// (Figure 8(c)/(d)): `T33` is D-ORAM with c = 0 — the NS-Apps use only
/// the three normal channels while the S-App streams on channel #0 — and
/// `T25mix` is D-ORAM with c = 7. Both include the same BOB link costs, so
/// their ratio isolates exactly the question the policy asks: *is the
/// secure channel worth joining?* `T25` (all four channels, no S-App) is
/// measured on the direct-attached setting for Figure 8(b).
///
/// # Errors
///
/// Returns the builder's error for an invalid scale (zero accesses) and
/// the first failed run's error.
pub fn profile(
    benchmark: Benchmark,
    scale: ProfileScale,
) -> Result<ChannelProfile, ExperimentError> {
    let lat = |scheme: Scheme| -> Result<f64, ExperimentError> {
        let cfg = SystemConfig::builder(benchmark)
            .scheme(scheme)
            .ns_accesses(scale.accesses)
            .seed(scale.seed)
            .trace_stream(scale.stream);
        Ok(simulate(cfg)?.ns_read_latency.mean())
    };
    let solo = lat(Scheme::SoloNs)?;
    let t33 = lat(Scheme::DOram { k: 0, c: 0 })? / solo;
    let t25 = lat(Scheme::Ns7on4)? / solo;
    let t25mix = lat(Scheme::DOram { k: 0, c: 7 })? / solo;
    Ok(ChannelProfile {
        solo_latency: solo,
        t33,
        t25,
        t25mix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_orders_sensibly() {
        let p = profile(
            Benchmark::Mummer,
            ProfileScale {
                accesses: 600,
                seed: 3,
                stream: 7,
            },
        )
        .unwrap();
        assert!(p.solo_latency > 0.0);
        // Co-running slows memory accesses down.
        assert!(p.t25 > 1.0, "t25 {}", p.t25);
        // Three channels are more contended than four.
        assert!(p.t33 > p.t25, "t33 {} vs t25 {}", p.t33, p.t25);
        // Adding the S-App can only make four channels slower.
        assert!(p.t25mix >= p.t25, "t25mix {} vs t25 {}", p.t25mix, p.t25);
        let _ = p.ratio();
        let _ = p.prefers_small_c();
    }
}
