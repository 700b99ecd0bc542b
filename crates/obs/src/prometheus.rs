//! Prometheus text-format exporter (exposition format 0.0.4).
//!
//! [`prometheus_text`] renders a recorder's telemetry — blame counters,
//! latency summaries with quantile labels, latched metric gauges, and
//! the host self-profile — as the plain-text exposition format a scrape
//! endpoint (or a file-based textfile collector) consumes.
//! [`validate_prometheus`] is the line checker the CI export-schema job
//! runs over the emitted file; it validates shape, not semantics.

use crate::blame::ALL_BLAME_CLASSES;
use crate::histogram::{LogHistogram, REPORT_QUANTILES};
use crate::recorder::Recorder;
use std::fmt::Write as _;

/// Escapes a label value per the exposition format.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn summary(out: &mut String, name: &str, help: &str, labels: &str, h: &LogHistogram) {
    if h.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} summary");
    let sep = if labels.is_empty() { "" } else { "," };
    for (_, q) in REPORT_QUANTILES {
        let v = h.quantile(q).expect("non-empty histogram has quantiles");
        let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
    }
    let suffix_labels = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{suffix_labels} {}", h.sum());
    let _ = writeln!(out, "{name}_count{suffix_labels} {}", h.count());
}

/// Renders the recorder's telemetry in the Prometheus text format.
pub fn prometheus_text(rec: &Recorder) -> String {
    let mut out = String::new();
    if !rec.blame.is_empty() {
        let _ = writeln!(
            out,
            "# HELP doram_blame_wait_cycles_total Wait cycles at a shared resource attributed to the occupying requestor class."
        );
        let _ = writeln!(out, "# TYPE doram_blame_wait_cycles_total counter");
        for r in rec.blame.resources() {
            for c in ALL_BLAME_CLASSES {
                let v = r.waits[c as usize];
                if v != 0 {
                    let _ = writeln!(
                        out,
                        "doram_blame_wait_cycles_total{{resource=\"{}\",class=\"{}\"}} {v}",
                        escape_label(&r.name),
                        c.name()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP doram_blame_queue_delay_cycles_total Total queueing delay at a shared resource (the blame rows telescope to this)."
        );
        let _ = writeln!(out, "# TYPE doram_blame_queue_delay_cycles_total counter");
        for r in rec.blame.resources() {
            let _ = writeln!(
                out,
                "doram_blame_queue_delay_cycles_total{{resource=\"{}\"}} {}",
                escape_label(&r.name),
                r.queue_delay
            );
        }
    }
    summary(
        &mut out,
        "doram_access_latency_cycles",
        "End-to-end real S-App access latency (engine send to engine response).",
        "",
        rec.access_histogram(),
    );
    for c in ALL_BLAME_CLASSES {
        summary(
            &mut out,
            "doram_class_latency_cycles",
            "Per-class DRAM service latency (arrival to burst finish).",
            &format!("class=\"{}\"", c.name()),
            rec.class_histogram(c),
        );
    }
    if !rec.metrics.series().is_empty() {
        let _ = writeln!(out, "# HELP doram_metric Latched simulation gauges (dotted series names as the 'name' label).");
        let _ = writeln!(out, "# TYPE doram_metric gauge");
        for s in rec.metrics.series() {
            let _ = writeln!(
                out,
                "doram_metric{{name=\"{}\"}} {}",
                escape_label(&s.name),
                s.last
            );
        }
    }
    if let Some(cps) = rec.prof.cycles_per_second() {
        let _ = writeln!(out, "# HELP doram_host_cycles_per_second Simulated cycles per wall-clock second (host-dependent).");
        let _ = writeln!(out, "# TYPE doram_host_cycles_per_second gauge");
        let _ = writeln!(out, "doram_host_cycles_per_second {cps:.1}");
        for c in rec.prof.components() {
            if c.samples == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "doram_host_component_nanos_per_sample{{component=\"{}\"}} {:.1}",
                escape_label(&c.name),
                c.nanos_per_sample()
            );
        }
    }
    out
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_set(s: &str) -> bool {
    // `name="value",...` — values are escaped, so scan for unescaped
    // quotes as pair boundaries.
    let mut rest = s;
    loop {
        let Some(eq) = rest.find('=') else {
            return false;
        };
        let (name, after) = rest.split_at(eq);
        if !valid_metric_name(name.trim_end_matches(|c: char| c.is_ascii_whitespace())) {
            return false;
        }
        let after = &after[1..];
        let Some(stripped) = after.strip_prefix('"') else {
            return false;
        };
        // Find the closing unescaped quote.
        let mut close = None;
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let Some(close) = close else { return false };
        rest = &stripped[close + 1..];
        if rest.is_empty() {
            return true;
        }
        let Some(next) = rest.strip_prefix(',') else {
            return false;
        };
        rest = next;
    }
}

/// Validates Prometheus text-format shape line by line, returning the
/// number of sample lines.
///
/// # Errors
///
/// Returns `(1-based line number, description)` for the first bad line.
pub fn validate_prometheus(text: &str) -> Result<usize, (usize, String)> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err((lineno, format!("bad metric name in HELP: '{name}'")));
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err((lineno, format!("bad metric name in TYPE: '{name}'")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err((lineno, format!("unknown metric type '{kind}'")));
                }
            }
            // Other comments are allowed by the format.
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find('{') {
            Some(open) => {
                let close = line
                    .rfind('}')
                    .ok_or((lineno, "unterminated label set".to_string()))?;
                if close < open {
                    return Err((lineno, "unterminated label set".to_string()));
                }
                let labels = &line[open + 1..close];
                if !labels.is_empty() && !valid_label_set(labels) {
                    return Err((lineno, format!("malformed label set '{{{labels}}}'")));
                }
                (&line[..open], line[close + 1..].trim())
            }
            None => {
                let sp = line
                    .find(|c: char| c.is_ascii_whitespace())
                    .ok_or((lineno, "sample line has no value".to_string()))?;
                (&line[..sp], line[sp..].trim())
            }
        };
        if !valid_metric_name(name_part) {
            return Err((lineno, format!("bad metric name '{name_part}'")));
        }
        let value = value_part.split_whitespace().next().unwrap_or("");
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err((lineno, format!("unparseable sample value '{value}'")));
        }
        samples += 1;
    }
    Ok(samples)
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
        for _ in 0..4 {
            rec.blame.busy_cycle(r, BlameClass::NsApp);
        }
        rec.blame.settle(r, BlameClass::SAppRead, 9, &snap);
        rec.engine_send(0, true);
        rec.engine_response(300, true);
        rec.class_latency(BlameClass::NsApp, 55);
        rec.metrics.set("sd.sub0.queue", 3.0);
        rec
    }

    #[test]
    fn exports_expected_families_and_validates() {
        let rec = sample_recorder();
        let text = prometheus_text(&rec);
        assert!(
            text.contains("doram_blame_wait_cycles_total{resource=\"sd.sub0\",class=\"ns_app\"} 4")
        );
        assert!(text.contains(
            "doram_blame_wait_cycles_total{resource=\"sd.sub0\",class=\"s_app_read\"} 5"
        ));
        assert!(text.contains("doram_blame_queue_delay_cycles_total{resource=\"sd.sub0\"} 9"));
        assert!(text.contains("doram_access_latency_cycles{quantile=\"0.5\"} 300"));
        assert!(text.contains("doram_access_latency_cycles_count 1"));
        assert!(text.contains("doram_class_latency_cycles{class=\"ns_app\",quantile=\"0.99\"}"));
        assert!(text.contains("doram_metric{name=\"sd.sub0.queue\"} 3"));
        let samples = validate_prometheus(&text).expect("own output validates");
        assert!(
            samples >= 12,
            "expected a full export, got {samples} samples"
        );
    }

    #[test]
    fn empty_recorder_exports_nothing() {
        let rec = Recorder::new(16, FILTER_ALL, 1000);
        let text = prometheus_text(&rec);
        assert!(text.is_empty());
        assert_eq!(validate_prometheus(&text), Ok(0));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("ok{unterminated 3\n").is_err());
        assert!(validate_prometheus("ok{a=\"x\"} notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE ok sideways\n").is_err());
        assert!(validate_prometheus("ok{a=nope} 3\n").is_err());
        // And accepts the corrected forms.
        assert_eq!(validate_prometheus("ok{a=\"x\"} 3\n").unwrap(), 1);
        assert_eq!(
            validate_prometheus("# TYPE ok gauge\nok 1\nok2 +Inf\n").unwrap(),
            2
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut rec = Recorder::new(16, FILTER_ALL, 1000);
        rec.metrics.set("weird\"name\\x", 1.0);
        let text = prometheus_text(&rec);
        assert!(text.contains("doram_metric{name=\"weird\\\"name\\\\x\"} 1"));
        validate_prometheus(&text).expect("escaped output validates");
    }
}
