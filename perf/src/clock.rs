//! The reference clock the timed pass measures host time against.
//!
//! A shared host's CPUs change clock speed over minutes as the other
//! tenants of the package come and go. On the 2-CPU Xeon host of the
//! baseline, the calibration loop below ran between 2.3 and 3.0 GHz within
//! ten minutes, and the simulator's wall-clock times followed, so that two
//! runs of the same code disagreed by more than a regression worth
//! catching. The timed pass therefore times this loop of known length
//! beside its simulations and converts host seconds to seconds at a fixed
//! [`REF_HZ`] clock: the simulator's cost in host cycles, which a change of
//! clock speed leaves alone.

use std::hint::black_box;
use std::time::Instant;

/// The reference clock, in Hz: the nominal clock of the baseline's host.
/// Times "at the reference clock" are host cycles divided by it.
pub const REF_HZ: f64 = 2.0e9;

/// Iterations of one calibration.
const LOOP_ITERATIONS: u64 = 100_000;

/// Host cycles per iteration: the loop is one dependency chain of a
/// 64-bit multiply (3 cycles), an add and an xor (1 each).
const CYCLES_PER_ITERATION: f64 = 5.0;

fn calibration_loop(seed: u64) -> u64 {
    let mut x = seed;
    for i in 0..LOOP_ITERATIONS {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (x >> 17);
    }
    x
}

/// Runs the calibration loop once and returns the host clock it implies,
/// in Hz. A preemption or a busy sibling thread makes one calibration
/// read low, so take the highest of several.
pub fn host_hz() -> f64 {
    let t = Instant::now();
    black_box(calibration_loop(black_box(1)));
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    CYCLES_PER_ITERATION * LOOP_ITERATIONS as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_clock_is_plausible() {
        let hz = (0..20).map(|_| host_hz()).fold(0.0, f64::max);
        // Between 0.2 and 10 GHz: a loop the compiler folded away, or a
        // miscounted chain, lands far outside.
        assert!((2e8..1e10).contains(&hz), "{hz} Hz");
    }
}
