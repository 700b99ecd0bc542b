//! Bandwidth-preallocation arbiter (Cooperative Path ORAM, \[39\]).
//!
//! When the S-App's Path ORAM traffic shares a channel with NS-App traffic,
//! an unconstrained FR-FCFS scheduler lets the ORAM burst monopolize the
//! data bus (it arrives as ~100-deep bursts of row-hitting requests). The
//! cooperative scheme caps the fraction of data-bus slots the ORAM class may
//! take while the other class has work queued; the paper sets the threshold
//! to 50% "so that both kinds of applications have similar slowdown" (§IV).
//!
//! The arbiter accounts column commands over a sliding window and vetoes
//! ORAM column issues that would push its share above the threshold while
//! normal requests are waiting (and vice versa — the cap is symmetric, which
//! is what makes the 50/50 split fair).

use crate::request::RequestClass;

/// Sliding-window share arbiter between [`RequestClass::Oram`] and
/// [`RequestClass::Normal`] traffic.
#[derive(Debug, Clone)]
pub struct ShareArbiter {
    /// Fraction of column slots the ORAM class may take when contended.
    threshold: f64,
    /// Strict ORAM priority (SD-mastered sub-channels): ORAM requests are
    /// always preferred while present; NS traffic rides the
    /// work-conserving valve.
    oram_priority: bool,
    /// Window length in column-command slots.
    window: u32,
    oram_in_window: u32,
    normal_in_window: u32,
    enabled: bool,
}

impl ShareArbiter {
    /// Creates an arbiter with the given ORAM share `threshold` (0..=1) and
    /// accounting `window` (in column commands).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not within `[0, 1]` or `window` is zero.
    pub fn new(threshold: f64, window: u32) -> ShareArbiter {
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        assert!(window > 0, "window must be positive");
        ShareArbiter {
            threshold,
            window,
            oram_in_window: 0,
            normal_in_window: 0,
            enabled: true,
            oram_priority: false,
        }
    }

    /// An arbiter giving the ORAM class strict priority — the secure
    /// delegator is the master of its own sub-channels and streams path
    /// bursts at full rate; guest NS traffic is served in the gaps (and
    /// through the scheduler's work-conserving starvation valve).
    pub fn oram_priority() -> ShareArbiter {
        ShareArbiter {
            oram_priority: true,
            ..ShareArbiter::new(1.0, 64)
        }
    }

    /// The paper's configuration: 50% threshold.
    pub fn paper_default() -> ShareArbiter {
        ShareArbiter::new(0.5, 64)
    }

    /// An arbiter that never vetoes (plain FR-FCFS).
    pub fn disabled() -> ShareArbiter {
        ShareArbiter {
            threshold: 1.0,
            window: 64,
            oram_in_window: 0,
            normal_in_window: 0,
            enabled: false,
            oram_priority: false,
        }
    }

    /// Length of one ownership epoch, in memory cycles. The pre-allocation
    /// rotates channel ownership at this granularity; the pattern repeats
    /// every four epochs so thresholds are honored in quarters.
    pub const EPOCH_CYCLES: u64 = 64;

    /// Which class *owns* the channel at cycle `now` under bandwidth
    /// pre-allocation, when both classes have pending work.
    ///
    /// `None` means no arbitration (disabled or only one class waiting).
    /// Bandwidth pre-allocation (Cooperative Path ORAM \[39\]) partitions
    /// service *slots* ahead of time: the ORAM burst owns the channel for
    /// `threshold` of the epochs, NS traffic for the rest. Slot ownership
    /// — rather than fine-grained share balancing — is what makes the
    /// secure channel visibly slower for NS-Apps while the SD is streaming
    /// a path (the effect behind Figure 8 and the D-ORAM/c policy).
    ///
    /// Ownership is a *preference*: the scheduler must stay
    /// work-conserving (serve the other class when the owner cannot issue
    /// for a while), otherwise ownership can deadlock against row-buffer
    /// state.
    pub fn preferred_at(
        &self,
        now: doram_sim::MemCycle,
        oram_waiting: bool,
        normal_waiting: bool,
    ) -> Option<RequestClass> {
        if self.oram_priority {
            return oram_waiting.then_some(RequestClass::Oram);
        }
        if !(self.enabled && oram_waiting && normal_waiting) {
            return None;
        }
        let epoch = now.0 / Self::EPOCH_CYCLES;
        let quarter = (epoch % 4) as f64 * 0.25;
        if quarter < self.threshold {
            Some(RequestClass::Oram)
        } else {
            Some(RequestClass::Normal)
        }
    }

    /// Whether a column command of `class` may issue now, given whether the
    /// opposite class currently has queued work.
    pub fn permits(&self, class: RequestClass, other_class_waiting: bool) -> bool {
        if !self.enabled || !other_class_waiting {
            return true;
        }
        let total = (self.oram_in_window + self.normal_in_window).max(1) as f64;
        match class {
            RequestClass::Oram => (self.oram_in_window as f64) / total <= self.threshold,
            RequestClass::Normal => {
                (self.normal_in_window as f64) / total <= 1.0 - self.threshold + f64::EPSILON
            }
        }
    }

    /// Records that a column command of `class` was issued.
    pub fn record(&mut self, class: RequestClass) {
        match class {
            RequestClass::Oram => self.oram_in_window += 1,
            RequestClass::Normal => self.normal_in_window += 1,
        }
        if self.oram_in_window + self.normal_in_window >= self.window {
            // Halve rather than zero so the share estimate carries over.
            self.oram_in_window /= 2;
            self.normal_in_window /= 2;
        }
    }

    /// Current ORAM share of the accounting window (0 when empty).
    pub fn oram_share(&self) -> f64 {
        let total = self.oram_in_window + self.normal_in_window;
        if total == 0 {
            0.0
        } else {
            self.oram_in_window as f64 / total as f64
        }
    }
}

// Threshold/window/mode are configuration; only the sliding-window
// tallies move during a run.
doram_sim::impl_snapshot!(ShareArbiter {
    oram_in_window,
    normal_in_window,
} skip { threshold, oram_priority, window, enabled });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_always_permitted() {
        let mut a = ShareArbiter::paper_default();
        for _ in 0..100 {
            assert!(a.permits(RequestClass::Oram, false));
            a.record(RequestClass::Oram);
        }
    }

    #[test]
    fn oram_capped_under_contention() {
        let mut a = ShareArbiter::paper_default();
        // Saturate the window with ORAM issues.
        for _ in 0..40 {
            a.record(RequestClass::Oram);
        }
        assert!(!a.permits(RequestClass::Oram, true));
        assert!(a.permits(RequestClass::Normal, true));
    }

    #[test]
    fn shares_rebalance() {
        let mut a = ShareArbiter::paper_default();
        for _ in 0..40 {
            a.record(RequestClass::Oram);
        }
        for _ in 0..41 {
            a.record(RequestClass::Normal);
        }
        assert!(a.permits(RequestClass::Oram, true));
    }

    #[test]
    fn long_run_converges_to_threshold() {
        // Simulate both classes always waiting, issuing whichever is
        // permitted (ORAM preferred as tie-break, like a greedy burst).
        let mut a = ShareArbiter::new(0.5, 64);
        let mut oram = 0u32;
        let mut normal = 0u32;
        for _ in 0..10_000 {
            if a.permits(RequestClass::Oram, true) {
                a.record(RequestClass::Oram);
                oram += 1;
            } else {
                assert!(a.permits(RequestClass::Normal, true));
                a.record(RequestClass::Normal);
                normal += 1;
            }
        }
        let share = oram as f64 / (oram + normal) as f64;
        assert!((share - 0.5).abs() < 0.05, "share {share}");
    }

    #[test]
    fn asymmetric_threshold() {
        let mut a = ShareArbiter::new(0.25, 64);
        let mut oram = 0u32;
        for _ in 0..10_000 {
            if a.permits(RequestClass::Oram, true) {
                a.record(RequestClass::Oram);
                oram += 1;
            } else {
                a.record(RequestClass::Normal);
            }
        }
        let share = oram as f64 / 10_000.0;
        assert!((share - 0.25).abs() < 0.05, "share {share}");
    }

    #[test]
    fn disabled_never_vetoes() {
        let mut a = ShareArbiter::disabled();
        for _ in 0..100 {
            a.record(RequestClass::Oram);
        }
        assert!(a.permits(RequestClass::Oram, true));
    }

    #[test]
    fn share_accessor() {
        let mut a = ShareArbiter::paper_default();
        assert_eq!(a.oram_share(), 0.0);
        a.record(RequestClass::Oram);
        a.record(RequestClass::Normal);
        assert_eq!(a.oram_share(), 0.5);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = ShareArbiter::new(1.5, 64);
    }
}
