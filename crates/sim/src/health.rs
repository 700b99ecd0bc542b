//! Per-component health state machine for graceful degradation.
//!
//! Fault-tolerant components (link directions, SD sub-channels, the
//! verified bucket store) track their condition through a typed
//! circuit-breaker state machine instead of a bare `quarantined: bool`:
//!
//! ```text
//! Healthy ──failure──▶ Degraded ──streak──▶ Quarantined
//!    ▲                    │                     │
//!    │◀────success────────┘      probation_window elapses
//!    │                                          ▼
//!    └◀──probe successes────────────────── Probation ──failure──▶ Quarantined
//! ```
//!
//! * **Healthy** — serving normally.
//! * **Degraded** — recent failures, still serving; one clean operation
//!   heals it back.
//! * **Quarantined** — the consecutive-failure streak crossed the
//!   quarantine threshold; the component is taken out of service.
//! * **Probation** — the circuit breaker's half-open state: after
//!   `probation_window` cycles of quarantine the component may prove
//!   itself through probe successes (scrub reads) before serving again.
//!
//! With the default policy (`probation_window == 0`) a quarantined
//! component never leaves quarantine — exactly the legacy latch-and-
//! fail-stop behavior, so enabling the state machine alone changes
//! nothing. The monitor is pure bookkeeping: it consumes no randomness
//! and issues no traffic, so attaching it cannot perturb a simulation.

use crate::clock::MemCycle;

/// The condition of one fault-tolerant component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HealthState {
    /// Serving normally.
    Healthy = 0,
    /// Recent failures; still serving, one success heals.
    Degraded = 1,
    /// Out of service after a failure streak.
    Quarantined = 2,
    /// Half-open: proving itself through probes before serving again.
    Probation = 3,
}

/// Every health state, in tag order.
pub const ALL_HEALTH_STATES: [HealthState; 4] = [
    HealthState::Healthy,
    HealthState::Degraded,
    HealthState::Quarantined,
    HealthState::Probation,
];

impl HealthState {
    /// Stable lowercase name (reports, trace output).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
        }
    }

    fn from_tag(tag: u8) -> Option<HealthState> {
        ALL_HEALTH_STATES.get(tag as usize).copied()
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Thresholds governing the state machine's transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures that move a healthy component to degraded.
    pub degrade_threshold: u32,
    /// Consecutive failures that trip quarantine.
    pub quarantine_threshold: u32,
    /// Cycles spent quarantined before probation begins; `0` means a
    /// quarantined component never re-enters service (the legacy latch).
    pub probation_window: u64,
    /// Clean probes required in probation before returning to healthy.
    pub probation_successes: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            degrade_threshold: 1,
            quarantine_threshold: 16,
            probation_window: 0,
            probation_successes: 4,
        }
    }
}

/// One state change, reported so callers can emit trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// State before the change.
    pub from: HealthState,
    /// State after the change.
    pub to: HealthState,
    /// Cycle the change happened at.
    pub at: MemCycle,
}

impl HealthTransition {
    /// Packs the transition into a trace event payload:
    /// `component << 16 | from << 8 | to`.
    pub fn event_value(&self, component: u64) -> u64 {
        (component << 16) | ((self.from as u64) << 8) | self.to as u64
    }
}

/// The health state machine of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    state: HealthState,
    /// Consecutive failed operations; resets on any success.
    consecutive_failures: u32,
    /// Clean probes observed since probation began.
    probe_successes: u32,
    /// Cycle the current state was entered.
    since: u64,
    /// Times quarantine was entered (degraded-episode count).
    quarantine_entries: u32,
    /// Cycles accumulated in non-healthy states (closed intervals only;
    /// see [`HealthMonitor::unhealthy_cycles`] for the live total).
    closed_unhealthy_cycles: u64,
}

impl HealthMonitor {
    /// A healthy monitor under `policy`.
    pub fn new(policy: HealthPolicy) -> HealthMonitor {
        HealthMonitor {
            policy,
            state: HealthState::Healthy,
            consecutive_failures: 0,
            probe_successes: 0,
            since: 0,
            quarantine_entries: 0,
            closed_unhealthy_cycles: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The governing policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Whether the component should receive regular traffic.
    pub fn is_serving(&self) -> bool {
        matches!(self.state, HealthState::Healthy | HealthState::Degraded)
    }

    /// Whether the component is quarantined (fail-stop latched when no
    /// redundancy can cover for it).
    pub fn is_quarantined(&self) -> bool {
        self.state == HealthState::Quarantined
    }

    /// Current consecutive-failure streak.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Times quarantine was entered.
    pub fn quarantine_entries(&self) -> u32 {
        self.quarantine_entries
    }

    /// Cycle the current state was entered.
    pub fn since(&self) -> u64 {
        self.since
    }

    /// Total cycles spent outside [`HealthState::Healthy`] as of `now`.
    pub fn unhealthy_cycles(&self, now: MemCycle) -> u64 {
        let open = if self.state == HealthState::Healthy {
            0
        } else {
            now.0.saturating_sub(self.since)
        };
        self.closed_unhealthy_cycles + open
    }

    fn transition(&mut self, to: HealthState, now: MemCycle) -> HealthTransition {
        let from = self.state;
        if from != HealthState::Healthy {
            self.closed_unhealthy_cycles += now.0.saturating_sub(self.since);
        }
        if to == HealthState::Quarantined {
            self.quarantine_entries += 1;
        }
        if to == HealthState::Probation {
            self.probe_successes = 0;
        }
        self.state = to;
        self.since = now.0;
        HealthTransition { from, to, at: now }
    }

    /// Records a failed operation; returns the transition it caused, if
    /// any. In probation a single failure re-trips quarantine (the
    /// half-open breaker closing again).
    pub fn on_failure(&mut self, now: MemCycle) -> Option<HealthTransition> {
        self.consecutive_failures += 1;
        match self.state {
            HealthState::Quarantined => None,
            HealthState::Probation => Some(self.transition(HealthState::Quarantined, now)),
            HealthState::Healthy | HealthState::Degraded => {
                if self.consecutive_failures >= self.policy.quarantine_threshold {
                    Some(self.transition(HealthState::Quarantined, now))
                } else if self.state == HealthState::Healthy
                    && self.consecutive_failures >= self.policy.degrade_threshold
                {
                    Some(self.transition(HealthState::Degraded, now))
                } else {
                    None
                }
            }
        }
    }

    /// Records a successful regular operation; a degraded component
    /// heals back to healthy.
    pub fn on_success(&mut self, now: MemCycle) -> Option<HealthTransition> {
        self.consecutive_failures = 0;
        match self.state {
            HealthState::Degraded => Some(self.transition(HealthState::Healthy, now)),
            _ => None,
        }
    }

    /// Records a clean probe (scrub read) during probation; enough of
    /// them promote the component back to healthy.
    pub fn on_probe_success(&mut self, now: MemCycle) -> Option<HealthTransition> {
        if self.state != HealthState::Probation {
            return None;
        }
        self.probe_successes += 1;
        if self.probe_successes >= self.policy.probation_successes {
            self.consecutive_failures = 0;
            Some(self.transition(HealthState::Healthy, now))
        } else {
            None
        }
    }

    /// Advances wall-clock-driven transitions: a quarantined component
    /// enters probation once the probation window elapses (never, when
    /// the window is `0`).
    pub fn tick(&mut self, now: MemCycle) -> Option<HealthTransition> {
        if self.state == HealthState::Quarantined
            && self.policy.probation_window > 0
            && now.0.saturating_sub(self.since) >= self.policy.probation_window
        {
            Some(self.transition(HealthState::Probation, now))
        } else {
            None
        }
    }
}

crate::impl_codec!(tagged HealthState);

// The policy is configuration; only the machine's position moves.
crate::impl_snapshot!(HealthMonitor {
    state,
    consecutive_failures,
    probe_successes,
    since,
    quarantine_entries,
    closed_unhealthy_cycles,
} skip { policy });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};

    fn policy(quarantine: u32, window: u64, probes: u32) -> HealthPolicy {
        HealthPolicy {
            degrade_threshold: 1,
            quarantine_threshold: quarantine,
            probation_window: window,
            probation_successes: probes,
        }
    }

    #[test]
    fn failure_streak_walks_the_states() {
        let mut m = HealthMonitor::new(policy(3, 0, 1));
        assert_eq!(m.state(), HealthState::Healthy);
        let t = m.on_failure(MemCycle(10)).expect("degrades");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Healthy, HealthState::Degraded)
        );
        assert!(
            m.on_failure(MemCycle(11)).is_none(),
            "still below threshold"
        );
        let t = m.on_failure(MemCycle(12)).expect("quarantines");
        assert_eq!(t.to, HealthState::Quarantined);
        assert!(!m.is_serving());
        assert_eq!(m.quarantine_entries(), 1);
        // Window 0: never leaves quarantine.
        assert!(m.tick(MemCycle(1_000_000)).is_none());
    }

    #[test]
    fn success_heals_degraded() {
        let mut m = HealthMonitor::new(policy(10, 0, 1));
        m.on_failure(MemCycle(1));
        assert_eq!(m.state(), HealthState::Degraded);
        let t = m.on_success(MemCycle(2)).expect("heals");
        assert_eq!(t.to, HealthState::Healthy);
        assert_eq!(m.consecutive_failures(), 0);
        // Streak must restart from scratch.
        for i in 0..9 {
            m.on_failure(MemCycle(3 + i));
        }
        assert_eq!(m.state(), HealthState::Degraded);
    }

    #[test]
    fn probation_promotes_after_enough_probes() {
        let mut m = HealthMonitor::new(policy(2, 100, 3));
        m.on_failure(MemCycle(0));
        m.on_failure(MemCycle(1));
        assert!(m.is_quarantined());
        assert!(m.tick(MemCycle(50)).is_none(), "window not elapsed");
        let t = m.tick(MemCycle(101)).expect("probation begins");
        assert_eq!(t.to, HealthState::Probation);
        assert!(!m.is_serving(), "probation still withholds regular traffic");
        assert!(m.on_probe_success(MemCycle(110)).is_none());
        assert!(m.on_probe_success(MemCycle(120)).is_none());
        let t = m.on_probe_success(MemCycle(130)).expect("promoted");
        assert_eq!(t.to, HealthState::Healthy);
        assert!(m.is_serving());
        assert_eq!(m.consecutive_failures(), 0);
    }

    #[test]
    fn probation_failure_re_trips_quarantine() {
        let mut m = HealthMonitor::new(policy(2, 10, 3));
        m.on_failure(MemCycle(0));
        m.on_failure(MemCycle(1));
        m.tick(MemCycle(20)).expect("probation");
        let t = m.on_failure(MemCycle(21)).expect("re-quarantined");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Probation, HealthState::Quarantined)
        );
        assert_eq!(m.quarantine_entries(), 2);
        // The second window starts from the re-entry cycle.
        assert!(m.tick(MemCycle(25)).is_none());
        assert!(m.tick(MemCycle(31)).is_some());
    }

    #[test]
    fn unhealthy_cycles_accumulate_across_episodes() {
        let mut m = HealthMonitor::new(policy(1, 0, 1));
        m.on_failure(MemCycle(10)); // healthy 0..10, quarantined from 10
        assert_eq!(m.unhealthy_cycles(MemCycle(10)), 0);
        assert_eq!(m.unhealthy_cycles(MemCycle(25)), 15);
        let mut h = HealthMonitor::new(policy(5, 0, 1));
        h.on_failure(MemCycle(10)); // degraded 10..14
        h.on_success(MemCycle(14)); // healthy again
        assert_eq!(h.unhealthy_cycles(MemCycle(100)), 4);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut m = HealthMonitor::new(policy(2, 10, 3));
        m.on_failure(MemCycle(0));
        m.on_failure(MemCycle(1));
        m.tick(MemCycle(20));
        m.on_probe_success(MemCycle(21));
        let mut w = SnapshotWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = HealthMonitor::new(policy(2, 10, 3));
        restored
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(restored, m);
        // The restored machine continues identically.
        assert_eq!(
            restored.on_probe_success(MemCycle(30)),
            m.on_probe_success(MemCycle(30))
        );
    }

    #[test]
    fn event_value_packs_component_and_states() {
        let t = HealthTransition {
            from: HealthState::Degraded,
            to: HealthState::Quarantined,
            at: MemCycle(5),
        };
        assert_eq!(t.event_value(3), (3 << 16) | (1 << 8) | 2);
    }

    #[test]
    fn names_are_unique_and_ordered() {
        for (i, s) in ALL_HEALTH_STATES.iter().enumerate() {
            assert_eq!(*s as u8, i as u8);
            assert_eq!(HealthState::from_tag(i as u8), Some(*s));
        }
    }
}
