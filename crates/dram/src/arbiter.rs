//! Bandwidth-preallocation arbiter (Cooperative Path ORAM, \[39\]).
//!
//! When the S-App's Path ORAM traffic shares a channel with NS-App traffic,
//! an unconstrained FR-FCFS scheduler lets the ORAM burst monopolize the
//! data bus (it arrives as ~100-deep bursts of row-hitting requests). The
//! cooperative scheme pre-allocates the channel's service slots between the
//! two classes; the paper sets the ORAM share to 50% "so that both kinds of
//! applications have similar slowdown" (§IV).
//!
//! The arbiter models that pre-allocation as *epoch ownership*: time is cut
//! into fixed epochs, and while both classes have work queued the ORAM
//! class owns `threshold` of every four epochs and the normal class the
//! rest ([`ShareArbiter::preferred_at`]). Ownership is a preference, not a
//! veto: the scheduler serves the other class once the queue has made no
//! progress for 2·tRC, so it stays work-conserving (DESIGN.md §7).

use crate::request::RequestClass;

/// Epoch-ownership arbiter between [`RequestClass::Oram`] and
/// [`RequestClass::Normal`] traffic. It holds configuration only, so
/// checkpoints carry none of it.
#[derive(Debug, Clone)]
pub struct ShareArbiter {
    /// Fraction of epochs the ORAM class owns when contended, honored in
    /// quarters.
    threshold: f64,
    /// Strict ORAM priority (SD-mastered sub-channels): ORAM requests are
    /// always preferred while present; NS traffic rides the
    /// work-conserving valve.
    oram_priority: bool,
    /// log2 of one ownership epoch's length in memory cycles: the epoch
    /// index is a shift, not a division, on every contended schedule.
    epoch_shift: u32,
    enabled: bool,
}

impl ShareArbiter {
    /// Creates an arbiter with the given ORAM share `threshold` (0..=1) and
    /// an ownership epoch of `window` memory cycles, a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not within `[0, 1]` or `window` is not a
    /// power of two.
    pub fn new(threshold: f64, window: u32) -> ShareArbiter {
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        assert!(window.is_power_of_two(), "window must be a power of two");
        ShareArbiter {
            threshold,
            oram_priority: false,
            epoch_shift: window.trailing_zeros(),
            enabled: true,
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

    /// The paper's configuration: 50% threshold, 64-cycle epochs.
    pub fn paper_default() -> ShareArbiter {
        ShareArbiter::new(0.5, 64)
    }

    /// An arbiter that never prefers a class (plain FR-FCFS).
    pub fn disabled() -> ShareArbiter {
        ShareArbiter {
            enabled: false,
            ..ShareArbiter::new(1.0, 64)
        }
    }

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
        let quarter = ((now.0 >> self.epoch_shift) % 4) as f64 * 0.25;
        if quarter < self.threshold {
            Some(RequestClass::Oram)
        } else {
            Some(RequestClass::Normal)
        }
    }

    /// The first cycle after `now` at which [`preferred_at`] may name
    /// another owner for the same waiting classes: the next epoch
    /// boundary, or `None` when ownership does not depend on time
    /// (disabled, or strict ORAM priority).
    ///
    /// [`preferred_at`]: ShareArbiter::preferred_at
    pub(crate) fn next_epoch(&self, now: doram_sim::MemCycle) -> Option<doram_sim::MemCycle> {
        (self.enabled && !self.oram_priority)
            .then(|| doram_sim::MemCycle(((now.0 >> self.epoch_shift) + 1) << self.epoch_shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::MemCycle;

    /// The owner of each of the first eight 64-cycle epochs, probed at
    /// both ends of each epoch, with both classes waiting.
    fn owners(a: &ShareArbiter) -> Vec<RequestClass> {
        (0..8u64)
            .map(|e| {
                let first = a.preferred_at(MemCycle(e * 64), true, true);
                let last = a.preferred_at(MemCycle(e * 64 + 63), true, true);
                assert_eq!(first, last, "epoch {e} changes owner");
                first.expect("contended")
            })
            .collect()
    }

    #[test]
    fn paper_default_owns_half_the_epochs() {
        use RequestClass::{Normal, Oram};
        let want = [Oram, Oram, Normal, Normal, Oram, Oram, Normal, Normal];
        assert_eq!(owners(&ShareArbiter::paper_default()), want);
    }

    #[test]
    fn asymmetric_threshold() {
        use RequestClass::{Normal, Oram};
        let want = [Oram, Normal, Normal, Normal, Oram, Normal, Normal, Normal];
        assert_eq!(owners(&ShareArbiter::new(0.25, 64)), want);
    }

    #[test]
    fn no_preference_when_one_class_waits() {
        let a = ShareArbiter::paper_default();
        for now in [0, 64, 128, 192] {
            for (oram, normal) in [(true, false), (false, true), (false, false)] {
                assert_eq!(a.preferred_at(MemCycle(now), oram, normal), None);
            }
        }
    }

    #[test]
    fn disabled_never_prefers() {
        let a = ShareArbiter::disabled();
        for now in [0, 64, 128, 192] {
            assert_eq!(a.preferred_at(MemCycle(now), true, true), None);
        }
    }

    #[test]
    fn oram_priority_prefers_waiting_oram() {
        let a = ShareArbiter::oram_priority();
        for now in [0, 64, 128, 192] {
            let at = MemCycle(now);
            assert_eq!(a.preferred_at(at, true, true), Some(RequestClass::Oram));
            assert_eq!(a.preferred_at(at, true, false), Some(RequestClass::Oram));
            assert_eq!(a.preferred_at(at, false, true), None);
        }
    }

    #[test]
    fn next_epoch_is_the_next_boundary_only_when_owners_rotate() {
        let a = ShareArbiter::paper_default();
        for (now, next) in [(0, 64), (63, 64), (64, 128), (200, 256)] {
            assert_eq!(a.next_epoch(MemCycle(now)), Some(MemCycle(next)));
        }
        assert_eq!(ShareArbiter::disabled().next_epoch(MemCycle(5)), None);
        assert_eq!(ShareArbiter::oram_priority().next_epoch(MemCycle(5)), None);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = ShareArbiter::new(1.5, 64);
    }
}
