//! The interference report: blame matrix + percentile tables as one
//! portable artifact.
//!
//! [`InterferenceReport`] snapshots everything the observatory knows at
//! the end of a run — the per-resource blame matrix, the access-latency
//! and per-class latency percentile summaries, and the host self-profile
//! — into a plain struct with a stable JSON encoding
//! ([`InterferenceReport::SCHEMA`]). `doram-cli run --obs-out` writes it,
//! `doram-cli obs report` re-reads and renders it, and the CI schema
//! check round-trips it through [`InterferenceReport::from_json`].

use crate::blame::{ALL_BLAME_CLASSES, BLAME_CLASSES};
use crate::histogram::{LogHistogram, REPORT_QUANTILES};
use crate::json::{self, JsonValue};
use crate::recorder::Recorder;
use std::fmt::Write as _;

/// Percentile summary of one latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Samples recorded.
    pub count: u64,
    /// Samples clamped at the histogram's saturation limit.
    pub saturated: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Values at [`REPORT_QUANTILES`], in table order.
    pub quantiles: [u64; REPORT_QUANTILES.len()],
}

impl QuantileSummary {
    /// Summarizes a histogram; `None` when it is empty.
    pub fn from_histogram(h: &LogHistogram) -> Option<QuantileSummary> {
        if h.is_empty() {
            return None;
        }
        let mut quantiles = [0u64; REPORT_QUANTILES.len()];
        for (slot, (_, q)) in quantiles.iter_mut().zip(REPORT_QUANTILES) {
            *slot = h.quantile(q).expect("non-empty histogram has quantiles");
        }
        Some(QuantileSummary {
            count: h.count(),
            saturated: h.saturated(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            mean: h.mean().unwrap_or(0.0),
            quantiles,
        })
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"saturated\":{},\"min\":{},\"max\":{},\"mean\":{:.3}",
            self.count, self.saturated, self.min, self.max, self.mean
        );
        for ((name, _), v) in REPORT_QUANTILES.iter().zip(self.quantiles) {
            let _ = write!(s, ",\"{name}\":{v}");
        }
        s.push('}');
        s
    }

    fn from_json(v: &JsonValue) -> Result<QuantileSummary, String> {
        let field = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("summary missing integer field '{key}'"))
        };
        let mut quantiles = [0u64; REPORT_QUANTILES.len()];
        for (slot, (name, _)) in quantiles.iter_mut().zip(REPORT_QUANTILES) {
            *slot = field(name)?;
        }
        Ok(QuantileSummary {
            count: field("count")?,
            saturated: field("saturated")?,
            min: field("min")?,
            max: field("max")?,
            mean: v
                .get("mean")
                .and_then(JsonValue::as_f64)
                .ok_or("summary missing number field 'mean'")?,
            quantiles,
        })
    }
}

/// One resource row of the report's blame matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameRowReport {
    /// Resource name (`"sd.sub0"`, `"sec.link.to_mem"`, …).
    pub name: String,
    /// Attributed wait cycles, indexed by [`BlameClass`](crate::BlameClass) tag.
    pub waits: [u64; BLAME_CLASSES],
    /// Total queueing delay the waits telescope to.
    pub queue_delay: u64,
}

/// One component's cost line in the host self-profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentReport {
    /// Component name (`"cpu.step"`, `"memory.tick"`, `"loop.jump"`).
    pub name: String,
    /// Timed samples taken.
    pub samples: u64,
    /// Mean wall nanoseconds per timed sample.
    pub nanos_per_sample: f64,
}

/// The host self-profile section (wall-clock, so host-dependent: the CI
/// baseline comparison skips it).
#[derive(Debug, Clone, PartialEq)]
pub struct HostReport {
    /// Wall seconds across finished run segments.
    pub wall_seconds: f64,
    /// Simulated cycles those segments covered.
    pub cycles: u64,
    /// Per-component tick costs.
    pub components: Vec<ComponentReport>,
}

impl HostReport {
    /// Simulated cycles per wall second, if anything was measured.
    pub fn cycles_per_second(&self) -> Option<f64> {
        (self.wall_seconds > 0.0 && self.cycles > 0).then(|| self.cycles as f64 / self.wall_seconds)
    }
}

/// The full interference report. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceReport {
    /// Blame matrix rows, in resource registration order.
    pub blame: Vec<BlameRowReport>,
    /// End-to-end S-App access-latency summary (engine send → response).
    pub access: Option<QuantileSummary>,
    /// Per-class DRAM service-latency summaries, `(class name, summary)`,
    /// non-empty classes only, in tag order.
    pub classes: Vec<(String, QuantileSummary)>,
    /// Host self-profile, when anything was measured.
    pub host: Option<HostReport>,
}

impl InterferenceReport {
    /// Schema tag the JSON encoding carries (and `from_json` requires).
    pub const SCHEMA: &'static str = "doram-obs-report-v1";

    /// Assembles the report from a recorder's current state.
    pub fn from_recorder(rec: &Recorder) -> InterferenceReport {
        let blame = rec
            .blame
            .resources()
            .iter()
            .map(|r| BlameRowReport {
                name: r.name.clone(),
                waits: r.waits,
                queue_delay: r.queue_delay,
            })
            .collect();
        let classes = ALL_BLAME_CLASSES
            .iter()
            .filter_map(|&c| {
                QuantileSummary::from_histogram(rec.class_histogram(c))
                    .map(|s| (c.name().to_string(), s))
            })
            .collect();
        let host = (!rec.prof.is_empty()).then(|| HostReport {
            wall_seconds: rec.prof.wall_seconds(),
            cycles: rec.prof.cycles(),
            components: rec
                .prof
                .components()
                .iter()
                .filter(|c| c.samples > 0)
                .map(|c| ComponentReport {
                    name: c.name.clone(),
                    samples: c.samples,
                    nanos_per_sample: c.nanos_per_sample(),
                })
                .collect(),
        });
        InterferenceReport {
            blame,
            access: QuantileSummary::from_histogram(rec.access_histogram()),
            classes,
            host,
        }
    }

    /// Checks the telescoping invariant on every row, returning the first
    /// violation as `(resource name, attributed, delay)`.
    pub fn check_conservation(&self) -> Result<(), (String, u64, u64)> {
        for r in &self.blame {
            let attributed: u64 = r.waits.iter().sum();
            if attributed != r.queue_delay {
                return Err((r.name.clone(), attributed, r.queue_delay));
            }
        }
        Ok(())
    }

    /// Serializes the report as a stable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{}\",", Self::SCHEMA);
        let _ = writeln!(s, "  \"classes\": [{}],", {
            let names: Vec<String> = ALL_BLAME_CLASSES
                .iter()
                .map(|c| format!("\"{}\"", c.name()))
                .collect();
            names.join(", ")
        });
        let _ = writeln!(s, "  \"blame\": [");
        for (i, r) in self.blame.iter().enumerate() {
            let waits: Vec<String> = r.waits.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "    {{\"resource\": \"{}\", \"queue_delay\": {}, \"waits\": [{}]}}",
                json::escape(&r.name),
                r.queue_delay,
                waits.join(", ")
            );
            s.push_str(if i + 1 < self.blame.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"latency\": {{");
        match &self.access {
            Some(a) => {
                let _ = writeln!(s, "    \"access\": {},", a.to_json());
            }
            None => {
                let _ = writeln!(s, "    \"access\": null,");
            }
        }
        let _ = writeln!(s, "    \"by_class\": {{");
        for (i, (name, sum)) in self.classes.iter().enumerate() {
            let _ = write!(s, "      \"{}\": {}", json::escape(name), sum.to_json());
            s.push_str(if i + 1 < self.classes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }},");
        match &self.host {
            Some(h) => {
                let _ = writeln!(s, "  \"host\": {{");
                let _ = writeln!(s, "    \"wall_seconds\": {:.6},", h.wall_seconds);
                let _ = writeln!(s, "    \"cycles\": {},", h.cycles);
                let _ = writeln!(
                    s,
                    "    \"cycles_per_second\": {:.1},",
                    h.cycles_per_second().unwrap_or(0.0)
                );
                let _ = writeln!(s, "    \"components\": [");
                for (i, c) in h.components.iter().enumerate() {
                    let _ = write!(
                        s,
                        "      {{\"name\": \"{}\", \"samples\": {}, \"nanos_per_sample\": {:.1}}}",
                        json::escape(&c.name),
                        c.samples,
                        c.nanos_per_sample
                    );
                    s.push_str(if i + 1 < h.components.len() {
                        ",\n"
                    } else {
                        "\n"
                    });
                }
                let _ = writeln!(s, "    ]");
                let _ = writeln!(s, "  }}");
            }
            None => {
                let _ = writeln!(s, "  \"host\": null");
            }
        }
        s.push_str("}\n");
        s
    }

    /// Parses a report previously written by [`to_json`], checking the
    /// schema tag.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    ///
    /// [`to_json`]: InterferenceReport::to_json
    pub fn from_json(text: &str) -> Result<InterferenceReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing 'schema'")?;
        if schema != Self::SCHEMA {
            return Err(format!(
                "schema mismatch: expected '{}', found '{schema}'",
                Self::SCHEMA
            ));
        }
        let mut blame = Vec::new();
        for row in doc
            .get("blame")
            .and_then(JsonValue::as_array)
            .ok_or("missing 'blame' array")?
        {
            let name = row
                .get("resource")
                .and_then(JsonValue::as_str)
                .ok_or("blame row missing 'resource'")?
                .to_string();
            let queue_delay = row
                .get("queue_delay")
                .and_then(JsonValue::as_u64)
                .ok_or("blame row missing 'queue_delay'")?;
            let raw = row
                .get("waits")
                .and_then(JsonValue::as_array)
                .ok_or("blame row missing 'waits'")?;
            if raw.len() != BLAME_CLASSES {
                return Err(format!(
                    "blame row '{name}' has {} wait entries, expected {BLAME_CLASSES}",
                    raw.len()
                ));
            }
            let mut waits = [0u64; BLAME_CLASSES];
            for (slot, v) in waits.iter_mut().zip(raw) {
                *slot = v.as_u64().ok_or("non-integer wait entry")?;
            }
            blame.push(BlameRowReport {
                name,
                waits,
                queue_delay,
            });
        }
        let latency = doc.get("latency").ok_or("missing 'latency'")?;
        let access = match latency.get("access") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(QuantileSummary::from_json(v)?),
        };
        let mut classes = Vec::new();
        if let Some(JsonValue::Object(map)) = latency.get("by_class") {
            // Re-impose tag order: BTreeMap iteration is alphabetical.
            for c in ALL_BLAME_CLASSES {
                if let Some(v) = map.get(c.name()) {
                    classes.push((c.name().to_string(), QuantileSummary::from_json(v)?));
                }
            }
        }
        let host = match doc.get("host") {
            None | Some(JsonValue::Null) => None,
            Some(h) => {
                let mut components = Vec::new();
                for c in h
                    .get("components")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[])
                {
                    components.push(ComponentReport {
                        name: c
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .ok_or("component missing 'name'")?
                            .to_string(),
                        samples: c
                            .get("samples")
                            .and_then(JsonValue::as_u64)
                            .ok_or("component missing 'samples'")?,
                        nanos_per_sample: c
                            .get("nanos_per_sample")
                            .and_then(JsonValue::as_f64)
                            .ok_or("component missing 'nanos_per_sample'")?,
                    });
                }
                Some(HostReport {
                    wall_seconds: h
                        .get("wall_seconds")
                        .and_then(JsonValue::as_f64)
                        .ok_or("host missing 'wall_seconds'")?,
                    cycles: h
                        .get("cycles")
                        .and_then(JsonValue::as_u64)
                        .ok_or("host missing 'cycles'")?,
                    components,
                })
            }
        };
        Ok(InterferenceReport {
            blame,
            access,
            classes,
            host,
        })
    }

    /// Renders the report as human-readable tables (the body of
    /// `doram-cli obs report`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Interference blame matrix (wait cycles by occupying class)"
        );
        if self.blame.is_empty() {
            let _ = writeln!(out, "  (no shared-resource waits recorded)");
        } else {
            let name_w = self
                .blame
                .iter()
                .map(|r| r.name.len())
                .chain(["resource".len()])
                .max()
                .unwrap_or(8);
            let _ = write!(out, "  {:<name_w$}", "resource");
            for c in ALL_BLAME_CLASSES {
                let _ = write!(out, " {:>16}", c.name());
            }
            let _ = writeln!(out, " {:>12} {:>12}", "total", "queue_delay");
            for r in &self.blame {
                let _ = write!(out, "  {:<name_w$}", r.name);
                for w in r.waits {
                    let _ = write!(out, " {w:>16}");
                }
                let total: u64 = r.waits.iter().sum();
                let _ = writeln!(out, " {total:>12} {:>12}", r.queue_delay);
            }
            let totals = {
                let mut t = [0u64; BLAME_CLASSES];
                for r in &self.blame {
                    for (slot, w) in t.iter_mut().zip(r.waits) {
                        *slot += w;
                    }
                }
                t
            };
            let _ = write!(out, "  {:<name_w$}", "TOTAL");
            for t in totals {
                let _ = write!(out, " {t:>16}");
            }
            let grand: u64 = totals.iter().sum();
            let delay: u64 = self.blame.iter().map(|r| r.queue_delay).sum();
            let _ = writeln!(out, " {grand:>12} {delay:>12}");
            match self.check_conservation() {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "  conservation: OK (attributed waits == queueing delay on every resource)"
                    );
                }
                Err((name, attributed, delay)) => {
                    let _ = writeln!(
                        out,
                        "  conservation: VIOLATED at '{name}' (attributed {attributed} != delay {delay})"
                    );
                }
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "Latency percentiles (cycles)");
        let header = |out: &mut String| {
            let _ = write!(out, "  {:<20} {:>10}", "series", "count");
            for (name, _) in REPORT_QUANTILES {
                let _ = write!(out, " {name:>8}");
            }
            let _ = writeln!(out, " {:>10} {:>8} {:>8}", "mean", "min", "max");
        };
        let row = |out: &mut String, name: &str, s: &QuantileSummary| {
            let _ = write!(out, "  {name:<20} {:>10}", s.count);
            for q in s.quantiles {
                let _ = write!(out, " {q:>8}");
            }
            let _ = writeln!(out, " {:>10.1} {:>8} {:>8}", s.mean, s.min, s.max);
        };
        if self.access.is_none() && self.classes.is_empty() {
            let _ = writeln!(out, "  (no latency samples recorded)");
        } else {
            header(&mut out);
            if let Some(a) = &self.access {
                row(&mut out, "access(end-to-end)", a);
            }
            for (name, s) in &self.classes {
                row(&mut out, name, s);
            }
        }
        if let Some(h) = &self.host {
            let _ = writeln!(out);
            let _ = writeln!(out, "Host self-profile");
            let _ = writeln!(
                out,
                "  {:.2}s wall, {} cycles ({} cycles/s)",
                h.wall_seconds,
                h.cycles,
                h.cycles_per_second()
                    .map_or_else(|| "-".to_string(), |c| format!("{c:.0}"))
            );
            for c in &h.components {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>10} samples {:>10.1} ns/sample",
                    c.name, c.samples, c.nanos_per_sample
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::BlameClass;
    use crate::event::FILTER_ALL;

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::new(64, FILTER_ALL, 1000);
        let r = rec.blame.resource("sd.sub0");
        let snap = rec.blame.busy_snapshot(r);
        for _ in 0..7 {
            rec.blame.busy_cycle(r, BlameClass::NsApp);
        }
        rec.blame.settle(r, BlameClass::SAppRead, 10, &snap);
        rec.engine_send(100, true);
        rec.engine_response(350, true);
        rec.class_latency(BlameClass::NsApp, 42);
        rec.class_latency(BlameClass::SAppRead, 99);
        rec
    }

    #[test]
    fn report_reflects_recorder_state() {
        let rec = sample_recorder();
        let rep = InterferenceReport::from_recorder(&rec);
        assert_eq!(rep.blame.len(), 1);
        assert_eq!(rep.blame[0].name, "sd.sub0");
        assert_eq!(rep.blame[0].queue_delay, 10);
        assert_eq!(rep.blame[0].waits[BlameClass::NsApp as usize], 7);
        assert_eq!(rep.blame[0].waits[BlameClass::SAppRead as usize], 3);
        assert!(rep.check_conservation().is_ok());
        let access = rep.access.as_ref().unwrap();
        assert_eq!(access.count, 1);
        assert_eq!(access.quantiles, [250; 4]);
        // Class rows in tag order, only non-empty classes present.
        let names: Vec<&str> = rep.classes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["s_app_read", "ns_app"]);
        assert!(rep.host.is_none(), "nothing profiled");
    }

    #[test]
    fn json_round_trips() {
        let rec = sample_recorder();
        let rep = InterferenceReport::from_recorder(&rec);
        let text = rep.to_json();
        let back = InterferenceReport::from_json(&text).expect("round trip");
        assert_eq!(back, rep);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(InterferenceReport::from_json("{}").is_err());
        assert!(InterferenceReport::from_json(
            r#"{"schema": "other", "blame": [], "latency": {}}"#
        )
        .unwrap_err()
        .contains("schema mismatch"));
        // A blame row with the wrong wait arity is structural, not silent.
        let bad = format!(
            "{{\"schema\": \"{}\", \"blame\": [{{\"resource\": \"x\", \"queue_delay\": 1, \"waits\": [1, 2]}}], \"latency\": {{}}}}",
            InterferenceReport::SCHEMA
        );
        assert!(InterferenceReport::from_json(&bad)
            .unwrap_err()
            .contains("wait entries"));
    }

    #[test]
    fn render_mentions_conservation_and_percentiles() {
        let rec = sample_recorder();
        let rep = InterferenceReport::from_recorder(&rec);
        let text = rep.render();
        assert!(text.contains("conservation: OK"));
        assert!(text.contains("sd.sub0"));
        assert!(text.contains("p999"));
        assert!(text.contains("access(end-to-end)"));
    }

    #[test]
    fn empty_recorder_renders_placeholders() {
        let rec = Recorder::new(16, FILTER_ALL, 1000);
        let rep = InterferenceReport::from_recorder(&rec);
        assert!(rep.blame.is_empty() && rep.access.is_none() && rep.classes.is_empty());
        let text = rep.render();
        assert!(text.contains("no shared-resource waits"));
        assert!(text.contains("no latency samples"));
        // And the empty report still round-trips.
        let back = InterferenceReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back, rep);
    }
}
