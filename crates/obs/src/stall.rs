//! The structured diagnostic dump behind `SimError::Stalled`.
//!
//! The watchdog used to flatten its diagnosis into one untyped string;
//! [`StallDump`] keeps the same human-readable `Display` (tooling and
//! tests that grep for `core0`, `secure[...]`, `blocked reads` keep
//! working) while exposing the per-core and per-component state as data,
//! plus — when tracing is enabled — the latest sampled metrics and the
//! tail of the event log. All fields are `Eq`-comparable so the error
//! enum that carries the dump stays `Eq`.

use std::fmt;

/// One core's progress state at the moment the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreStall {
    /// Core index.
    pub index: usize,
    /// Whether this is the S-App core.
    pub is_sapp: bool,
    /// Instructions retired so far.
    pub retired: u64,
    /// Whether the core finished its trace.
    pub finished: bool,
    /// Trace restarts performed to keep pressure constant.
    pub restarts: u64,
}

impl fmt::Display for CoreStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core{}{}: retired={} finished={} restarts={}",
            self.index,
            if self.is_sapp { " (S-App)" } else { "" },
            self.retired,
            self.finished,
            self.restarts
        )
    }
}

/// Everything the watchdog knows when it declares a stall.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallDump {
    /// Per-core progress state.
    pub cores: Vec<CoreStall>,
    /// Read requests cores are blocked on.
    pub blocked_reads: u64,
    /// Backend component summaries (`secure[…]`, `engine[…]`, channel
    /// states) as rendered by each component's debug hook.
    pub components: Vec<String>,
    /// Latest latched metric values (`name`, rendered value); empty when
    /// tracing is off.
    pub metrics: Vec<(String, String)>,
    /// Tail of the trace event log, rendered; empty when tracing is off.
    pub recent_events: Vec<String>,
}

impl fmt::Display for StallDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut line = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "{s}")
        };
        for c in &self.cores {
            line(f, &c.to_string())?;
        }
        line(f, &format!("blocked reads: {}", self.blocked_reads))?;
        for c in &self.components {
            line(f, c)?;
        }
        if !self.metrics.is_empty() {
            let rendered: Vec<String> = self
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            line(f, &format!("metrics: {}", rendered.join(" ")))?;
        }
        if !self.recent_events.is_empty() {
            line(f, "recent events:")?;
            for e in &self.recent_events {
                line(f, &format!("  {e}"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_grep_targets() {
        let dump = StallDump {
            cores: vec![
                CoreStall {
                    index: 0,
                    is_sapp: true,
                    retired: 10,
                    finished: false,
                    restarts: 0,
                },
                CoreStall {
                    index: 1,
                    is_sapp: false,
                    retired: 99,
                    finished: true,
                    restarts: 2,
                },
            ],
            blocked_reads: 7,
            components: vec![
                "secure[fsm=[idle]]".into(),
                "engine[sent=1/2 resp=0]".into(),
            ],
            metrics: vec![("sd.sub0.queue".into(), "3.000".into())],
            recent_events: vec!["[12] link.link_tx access=- value=72".into()],
        };
        let text = dump.to_string();
        assert!(text.contains("core0 (S-App): retired=10"), "{text}");
        assert!(text.contains("core1: retired=99"), "{text}");
        assert!(text.contains("blocked reads: 7"), "{text}");
        assert!(text.contains("secure["), "{text}");
        assert!(text.contains("engine["), "{text}");
        assert!(text.contains("metrics: sd.sub0.queue=3.000"), "{text}");
        assert!(text.contains("recent events:"), "{text}");
    }

    #[test]
    fn empty_sections_are_omitted() {
        let dump = StallDump {
            cores: vec![],
            blocked_reads: 0,
            components: vec![],
            metrics: vec![],
            recent_events: vec![],
        };
        let text = dump.to_string();
        assert_eq!(text, "blocked reads: 0");
    }
}
