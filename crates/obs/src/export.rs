//! Trace exporters and the per-subsystem latency breakdown.
//!
//! Three output formats, all hand-rolled (the workspace builds offline
//! with no serde):
//!
//! * **Chrome trace-event JSON** — loads directly in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`. Each completed
//!   ORAM access becomes matched `"X"` (complete) span events on the
//!   engine / link / SD / DRAM tracks, and each metrics series becomes a
//!   `"C"` counter track. Timestamps are memory cycles, written into the
//!   microsecond field 1:1.
//! * **JSONL** — one `{"cycle":…,"metric":…,"value":…}` line per sample
//!   point, for ad-hoc plotting.
//! * **CSV** — wide format, one column per metric series.
//!
//! The breakdown telescopes by construction: with `t0…t3` the four span
//! edges of one access (engine send, SD arrival, read-phase done,
//! response received), `link = (t1−t0) + (t3−t2)` and `sd = t2−t1`, so
//! `link + sd = t3−t0` exactly; the SD term further splits into the DRAM
//! busy window and the stash/controller remainder.

use crate::event::{Event, EventKind};
use crate::json::{escape, parse, JsonValue};
use crate::metrics::TimeSeries;
use doram_sim::snapshot::write_atomic;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The four span edges (plus optional DRAM window and writeback edge) of
/// one ORAM access, reconstructed from the event log.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessSpan {
    /// Access sequence number.
    pub id: u64,
    /// Engine put the request on the link.
    pub t0: Option<u64>,
    /// Request arrived at the SD.
    pub t1: Option<u64>,
    /// Read phase done, response queued.
    pub t2: Option<u64>,
    /// Response arrived back at the engine.
    pub t3: Option<u64>,
    /// First ORAM-class sub-channel enqueue attributed to this access.
    pub dram_first: Option<u64>,
    /// Last ORAM-class sub-channel completion attributed to this access.
    pub dram_last: Option<u64>,
    /// Writeback drained at the SD.
    pub writeback_done: Option<u64>,
    /// Modeled freshness-tree verification cycles charged to this access
    /// (sum of `IntegrityVerify` event values).
    pub integrity: u64,
}

impl AccessSpan {
    /// Whether all four span edges are present and ordered.
    pub fn complete(&self) -> bool {
        match (self.t0, self.t1, self.t2, self.t3) {
            (Some(t0), Some(t1), Some(t2), Some(t3)) => t0 <= t1 && t1 <= t2 && t2 <= t3,
            _ => false,
        }
    }

    /// Cycles spent on the serial link (both directions).
    pub fn link_cycles(&self) -> u64 {
        (self.t1.unwrap_or(0) - self.t0.unwrap_or(0))
            + (self.t3.unwrap_or(0) - self.t2.unwrap_or(0))
    }

    /// Cycles inside the SD (arrival to response).
    pub fn sd_cycles(&self) -> u64 {
        self.t2.unwrap_or(0) - self.t1.unwrap_or(0)
    }

    /// Cycles of the access's DRAM busy window (first issue to last
    /// completion), clamped into the SD interval.
    pub fn dram_cycles(&self) -> u64 {
        match (self.dram_first, self.dram_last) {
            (Some(a), Some(b)) if b >= a => (b - a).min(self.sd_cycles()),
            _ => 0,
        }
    }

    /// Cycles spent walking the SD freshness tree, clamped into the SD
    /// remainder so the breakdown still telescopes exactly.
    pub fn integrity_cycles(&self) -> u64 {
        self.integrity.min(self.sd_cycles() - self.dram_cycles())
    }

    /// SD cycles not covered by the DRAM window or integrity
    /// verification: stash service and controller bookkeeping.
    pub fn stash_cycles(&self) -> u64 {
        self.sd_cycles() - self.dram_cycles() - self.integrity_cycles()
    }

    /// End-to-end cycles (engine round trip).
    pub fn total_cycles(&self) -> u64 {
        self.t3.unwrap_or(0) - self.t0.unwrap_or(0)
    }
}

/// Reconstructs per-access spans from the event log, keyed by access id.
/// Incomplete spans (access still in flight, or begin overwritten by the
/// ring) are returned too; filter with [`AccessSpan::complete`].
pub fn spans_from_events(events: &[Event]) -> Vec<AccessSpan> {
    let mut map: BTreeMap<u64, AccessSpan> = BTreeMap::new();
    fn span(map: &mut BTreeMap<u64, AccessSpan>, id: u64) -> &mut AccessSpan {
        map.entry(id).or_insert_with(|| AccessSpan {
            id,
            ..AccessSpan::default()
        })
    }
    for e in events {
        match e.kind {
            EventKind::AccessBegin => span(&mut map, e.access).t0 = Some(e.cycle),
            EventKind::SdStart => span(&mut map, e.access).t1 = Some(e.cycle),
            EventKind::SdReadDone => span(&mut map, e.access).t2 = Some(e.cycle),
            EventKind::AccessEnd => span(&mut map, e.access).t3 = Some(e.cycle),
            EventKind::SdAccessDone => span(&mut map, e.access).writeback_done = Some(e.cycle),
            EventKind::DramIssue => {
                let s = span(&mut map, e.access);
                if s.dram_first.is_none() {
                    s.dram_first = Some(e.cycle);
                }
            }
            EventKind::DramDone => span(&mut map, e.access).dram_last = Some(e.cycle),
            EventKind::IntegrityVerify => span(&mut map, e.access).integrity += e.value,
            _ => {}
        }
    }
    // DRAM events attributed to dummy accesses create entries with no
    // span edges at all; drop those.
    map.into_values()
        .filter(|s| s.t0.is_some() || s.t1.is_some() || s.t2.is_some() || s.t3.is_some())
        .collect()
}

/// Mean per-subsystem latency breakdown over the completed accesses of a
/// trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Completed accesses (all four span edges present).
    pub accesses: u64,
    /// Accesses seen but still in flight (or truncated by the ring).
    pub incomplete: u64,
    /// Pacing dummies observed.
    pub dummies: u64,
    /// Events overwritten by the ring.
    pub dropped: u64,
    /// Mean end-to-end access latency in memory cycles.
    pub mean_total: f64,
    /// Mean cycles on the serial link (both directions).
    pub mean_link: f64,
    /// Mean cycles inside the SD (arrival → response).
    pub mean_sd: f64,
    /// Mean cycles of the DRAM busy window.
    pub mean_dram: f64,
    /// Mean cycles of freshness-tree verification inside the SD.
    pub mean_integrity: f64,
    /// Mean SD remainder: stash service + controller bookkeeping.
    pub mean_stash: f64,
    /// Percentile summary of end-to-end access latency (log-bucketed,
    /// same histogram code as the interference report); `None` when no
    /// access completed.
    pub percentiles: Option<crate::interference::QuantileSummary>,
}

impl TraceSummary {
    /// Builds the summary from reconstructed spans.
    pub fn from_spans(spans: &[AccessSpan], dummies: u64, dropped: u64) -> TraceSummary {
        let complete: Vec<&AccessSpan> = spans.iter().filter(|s| s.complete()).collect();
        let n = complete.len() as f64;
        let mean = |f: &dyn Fn(&AccessSpan) -> u64| {
            if complete.is_empty() {
                0.0
            } else {
                complete.iter().map(|s| f(s) as f64).sum::<f64>() / n
            }
        };
        let mut hist = crate::histogram::LogHistogram::new();
        for s in &complete {
            hist.record(s.total_cycles());
        }
        TraceSummary {
            accesses: complete.len() as u64,
            incomplete: (spans.len() - complete.len()) as u64,
            dummies,
            dropped,
            mean_total: mean(&AccessSpan::total_cycles),
            mean_link: mean(&AccessSpan::link_cycles),
            mean_sd: mean(&AccessSpan::sd_cycles),
            mean_dram: mean(&AccessSpan::dram_cycles),
            mean_integrity: mean(&AccessSpan::integrity_cycles),
            mean_stash: mean(&AccessSpan::stash_cycles),
            percentiles: crate::interference::QuantileSummary::from_histogram(&hist),
        }
    }

    /// Sum of the breakdown components (equals `mean_total` up to
    /// floating-point rounding; the acceptance bound is 1%).
    pub fn breakdown_sum(&self) -> f64 {
        self.mean_link + self.mean_dram + self.mean_integrity + self.mean_stash
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "accesses: {} complete, {} in flight, {} dummies, {} events dropped",
            self.accesses, self.incomplete, self.dummies, self.dropped
        )?;
        if self.accesses == 0 {
            return write!(f, "no completed ORAM accesses in the trace");
        }
        let pct = |v: f64| {
            if self.mean_total > 0.0 {
                100.0 * v / self.mean_total
            } else {
                0.0
            }
        };
        writeln!(
            f,
            "mean access latency: {:.1} memory cycles",
            self.mean_total
        )?;
        if let Some(p) = &self.percentiles {
            let mut line = String::from("percentiles:");
            for ((name, _), v) in crate::histogram::REPORT_QUANTILES.iter().zip(p.quantiles) {
                line.push_str(&format!(" {name} {v}"));
            }
            writeln!(f, "{line}  (log-bucketed, \u{2264}6.25% relative error)")?;
        }
        writeln!(
            f,
            "  link  {:>10.1}  ({:>5.1}%)",
            self.mean_link,
            pct(self.mean_link)
        )?;
        writeln!(
            f,
            "  sd    {:>10.1}  ({:>5.1}%)  = dram + integrity + stash/ctrl",
            self.mean_sd,
            pct(self.mean_sd)
        )?;
        writeln!(
            f,
            "  dram  {:>10.1}  ({:>5.1}%)",
            self.mean_dram,
            pct(self.mean_dram)
        )?;
        writeln!(
            f,
            "  intgr {:>10.1}  ({:>5.1}%)",
            self.mean_integrity,
            pct(self.mean_integrity)
        )?;
        writeln!(
            f,
            "  stash {:>10.1}  ({:>5.1}%)",
            self.mean_stash,
            pct(self.mean_stash)
        )?;
        write!(
            f,
            "  sum   {:>10.1}  (link + dram + integrity + stash; {:+.3}% vs mean latency)",
            self.breakdown_sum(),
            if self.mean_total > 0.0 {
                100.0 * (self.breakdown_sum() - self.mean_total) / self.mean_total
            } else {
                0.0
            }
        )
    }
}

/// Writes a finite f64 as JSON (non-finite values become 0, which JSON
/// cannot represent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

const TID_ENGINE: u32 = 1;
const TID_LINK: u32 = 2;
const TID_SD: u32 = 3;
const TID_DRAM: u32 = 4;
const TID_MISC: u32 = 5;

fn x_event(out: &mut String, name: &str, tid: u32, ts: u64, dur: u64, access: u64) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
         \"dur\":{dur},\"args\":{{\"access\":{access}}}}}",
        escape(name)
    ));
}

/// Renders the event log plus metrics series as a Chrome trace-event
/// JSON document (the `traceEvents` envelope Perfetto accepts).
pub fn chrome_trace_json(events: &[Event], series: &[TimeSeries], dropped: u64) -> String {
    let mut parts: Vec<String> = Vec::new();
    // Track naming metadata.
    for (tid, name) in [
        (TID_ENGINE, "cpu-engine"),
        (TID_LINK, "serial-link"),
        (TID_SD, "secure-delegator"),
        (TID_DRAM, "sd-dram"),
        (TID_MISC, "stash+fault"),
    ] {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    parts.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
         \"args\":{\"name\":\"doram-sim\"}}"
            .to_string(),
    );

    // Matched span pairs for every completed access.
    for s in spans_from_events(events) {
        if !s.complete() {
            continue;
        }
        let (t0, t1, t2, t3) = (s.t0.unwrap(), s.t1.unwrap(), s.t2.unwrap(), s.t3.unwrap());
        let mut buf = String::new();
        x_event(&mut buf, "oram-access", TID_ENGINE, t0, t3 - t0, s.id);
        parts.push(std::mem::take(&mut buf));
        x_event(&mut buf, "link.req", TID_LINK, t0, t1 - t0, s.id);
        parts.push(std::mem::take(&mut buf));
        x_event(&mut buf, "sd.read", TID_SD, t1, t2 - t1, s.id);
        parts.push(std::mem::take(&mut buf));
        x_event(&mut buf, "link.resp", TID_LINK, t2, t3 - t2, s.id);
        parts.push(std::mem::take(&mut buf));
        if s.dram_cycles() > 0 {
            let df = s.dram_first.unwrap();
            x_event(&mut buf, "dram", TID_DRAM, df, s.dram_cycles(), s.id);
            parts.push(std::mem::take(&mut buf));
        }
        if s.integrity_cycles() > 0 {
            x_event(
                &mut buf,
                "sd.integrity",
                TID_SD,
                t1,
                s.integrity_cycles(),
                s.id,
            );
            parts.push(std::mem::take(&mut buf));
        }
        if let Some(wb) = s.writeback_done {
            if wb >= t2 {
                x_event(&mut buf, "sd.writeback", TID_SD, t2, wb - t2, s.id);
                parts.push(std::mem::take(&mut buf));
            }
        }
    }

    // Instants that aren't folded into spans (stash, faults, dummies).
    for e in events {
        let keep = matches!(
            e.kind,
            EventKind::StashHit
                | EventKind::StashEvict
                | EventKind::StashOccupancy
                | EventKind::FaultDetected
                | EventKind::Recovery
                | EventKind::DummyIssued
        );
        if keep {
            let tid = if e.kind == EventKind::DummyIssued {
                TID_ENGINE
            } else {
                TID_MISC
            };
            parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{},\"args\":{{\"value\":{}}}}}",
                escape(e.kind.name()),
                e.cycle,
                e.value
            ));
        }
    }

    // Counter tracks from the metrics time-series.
    for s in series {
        for (cycle, v) in &s.points {
            parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"ts\":{cycle},\
                 \"args\":{{\"value\":{}}}}}",
                escape(&s.name),
                json_num(*v)
            ));
        }
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\",\
         \"otherData\":{{\"dropped_events\":\"{dropped}\",\"clock\":\"memory-cycles\"}}}}\n",
        parts.join(",\n")
    )
}

/// Writes the Chrome trace crash-consistently to `path`.
///
/// # Errors
///
/// Propagates I/O failures from the atomic writer.
pub fn write_chrome_trace(
    path: &Path,
    events: &[Event],
    series: &[TimeSeries],
    dropped: u64,
) -> std::io::Result<()> {
    write_atomic(path, chrome_trace_json(events, series, dropped).as_bytes())
}

/// Renders the metrics series as JSONL (one sample point per line).
pub fn metrics_jsonl(series: &[TimeSeries]) -> String {
    let mut out = String::new();
    for s in series {
        for (cycle, v) in &s.points {
            out.push_str(&format!(
                "{{\"cycle\":{cycle},\"metric\":\"{}\",\"value\":{}}}\n",
                escape(&s.name),
                json_num(*v)
            ));
        }
    }
    out
}

/// Renders the metrics series as wide CSV (one column per metric).
pub fn metrics_csv(series: &[TimeSeries]) -> String {
    let mut out = String::from("cycle");
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    // All series sample at the same cycles; use the longest as the spine.
    let spine = series.iter().max_by_key(|s| s.points.len());
    let Some(spine) = spine else { return out };
    for (i, (cycle, _)) in spine.points.iter().enumerate() {
        out.push_str(&cycle.to_string());
        for s in series {
            out.push(',');
            match s.points.get(i) {
                Some((_, v)) if v.is_finite() => out.push_str(&format!("{v}")),
                _ => out.push('0'),
            }
        }
        out.push('\n');
    }
    out
}

/// What `doram-cli trace validate` reports about a Chrome-trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateReport {
    /// Total entries in `traceEvents`.
    pub trace_events: usize,
    /// Completed ORAM accesses (an `oram-access` span with matching
    /// `link.req`/`sd.read`/`link.resp` spans that telescope exactly).
    pub complete_accesses: usize,
    /// Access spans whose component spans were missing or inconsistent.
    pub mismatched: usize,
    /// Counter samples present.
    pub counter_samples: usize,
}

/// One parsed `"X"` span from a trace file.
struct SpanRec {
    name: String,
    ts: u64,
    dur: u64,
    access: u64,
}

/// Everything a trace file yields on one parse pass.
struct ParsedTrace {
    spans: Vec<SpanRec>,
    counters: usize,
    dummies: usize,
    total: usize,
}

fn parse_trace(doc: &JsonValue) -> Result<ParsedTrace, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut spans = Vec::new();
    let mut counters = 0usize;
    let mut dummies = 0usize;
    for e in events {
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {
                let name = e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("span without a name")?
                    .to_string();
                let ts = e
                    .get("ts")
                    .and_then(JsonValue::as_u64)
                    .ok_or("span without integral ts")?;
                let dur = e
                    .get("dur")
                    .and_then(JsonValue::as_u64)
                    .ok_or("span without integral dur")?;
                let access = e
                    .get("args")
                    .and_then(|a| a.get("access"))
                    .and_then(JsonValue::as_u64)
                    .ok_or("span without args.access")?;
                spans.push(SpanRec {
                    name,
                    ts,
                    dur,
                    access,
                });
            }
            Some("C") => counters += 1,
            Some("i") if e.get("name").and_then(JsonValue::as_str) == Some("dummy_issued") => {
                dummies += 1;
            }
            _ => {}
        }
    }
    Ok(ParsedTrace {
        spans,
        counters,
        dummies,
        total: events.len(),
    })
}

/// Groups a trace file's spans back into per-access breakdowns.
fn file_breakdowns(spans: &[SpanRec]) -> BTreeMap<u64, BTreeMap<&str, (u64, u64)>> {
    let mut by_access: BTreeMap<u64, BTreeMap<&str, (u64, u64)>> = BTreeMap::new();
    for s in spans {
        by_access
            .entry(s.access)
            .or_default()
            .insert(s.name.as_str(), (s.ts, s.dur));
    }
    by_access
}

/// Parses and validates a Chrome-trace file: well-formed JSON, and every
/// `oram-access` span has matched component spans that telescope exactly
/// back to its duration.
///
/// # Errors
///
/// Returns a description of the first structural problem (I/O, JSON, or
/// schema).
pub fn validate_file(path: &Path) -> Result<ValidateReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = parse_trace(&doc)?;
    let mut complete = 0usize;
    let mut mismatched = 0usize;
    for parts in file_breakdowns(&parsed.spans).values() {
        let Some(&(t0, total)) = parts.get("oram-access") else {
            continue; // dummy instants / dram-only groups are not accesses
        };
        let ok = match (
            parts.get("link.req"),
            parts.get("sd.read"),
            parts.get("link.resp"),
        ) {
            (Some(&(rq_ts, rq)), Some(&(sd_ts, sd)), Some(&(rs_ts, rs))) => {
                rq + sd + rs == total && rq_ts == t0 && sd_ts == t0 + rq && rs_ts == t0 + rq + sd
            }
            _ => false,
        };
        if ok {
            complete += 1;
        } else {
            mismatched += 1;
        }
    }
    Ok(ValidateReport {
        trace_events: parsed.total,
        complete_accesses: complete,
        mismatched,
        counter_samples: parsed.counters,
    })
}

/// Rebuilds the per-subsystem latency breakdown from a Chrome-trace file
/// (the `doram-cli trace summarize` back end).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn summarize_file(path: &Path) -> Result<TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = parse_trace(&doc)?;
    let dropped = doc
        .get("otherData")
        .and_then(|d| d.get("dropped_events"))
        .and_then(JsonValue::as_str)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut rebuilt = Vec::new();
    for parts in file_breakdowns(&parsed.spans).values() {
        let Some(&(t0, total)) = parts.get("oram-access") else {
            continue;
        };
        let (Some(&(_, rq)), Some(&(sd_ts, _sd)), Some(&(rs_ts, _))) = (
            parts.get("link.req"),
            parts.get("sd.read"),
            parts.get("link.resp"),
        ) else {
            continue;
        };
        let dram = parts.get("dram").map(|&(_, d)| d).unwrap_or(0);
        let integrity = parts.get("sd.integrity").map(|&(_, d)| d).unwrap_or(0);
        let span = AccessSpan {
            id: 0,
            t0: Some(t0),
            t1: Some(t0 + rq),
            t2: Some(rs_ts),
            t3: Some(t0 + total),
            dram_first: Some(sd_ts),
            dram_last: Some(sd_ts + dram),
            writeback_done: None,
            integrity,
        };
        rebuilt.push(span);
    }
    Ok(TraceSummary::from_spans(
        &rebuilt,
        parsed.dummies as u64,
        dropped,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Subsystem, NO_ACCESS};
    use crate::recorder::Recorder;

    fn recorded_access(rec: &mut Recorder, base: u64) {
        rec.engine_send(base, true);
        rec.link_tx(base, 72);
        rec.sd_arrival(base + 15, true);
        rec.sd_access_started(base + 16);
        rec.dram_issue(base + 17, 0);
        rec.dram_done(base + 50, 0);
        rec.sd_read_done(base + 55, true);
        rec.engine_response(base + 70, true);
        rec.sd_access_done(base + 90, true);
    }

    #[test]
    fn spans_reconstruct_and_telescope() {
        let mut rec = Recorder::new(1024, crate::event::FILTER_ALL, 100);
        recorded_access(&mut rec, 100);
        recorded_access(&mut rec, 300);
        let events = rec.events();
        let spans = spans_from_events(&events);
        assert_eq!(spans.len(), 2);
        for s in &spans {
            assert!(s.complete());
            assert_eq!(
                s.link_cycles() + s.dram_cycles() + s.stash_cycles(),
                s.total_cycles()
            );
        }
        let sum = TraceSummary::from_spans(&spans, 0, 0);
        assert_eq!(sum.accesses, 2);
        assert!((sum.breakdown_sum() - sum.mean_total).abs() < 1e-9);
        assert_eq!(sum.mean_total, 70.0);
        assert_eq!(sum.mean_link, 15.0 + 15.0);
        assert_eq!(sum.mean_dram, 33.0);
        assert_eq!(sum.mean_stash, 40.0 - 33.0);
        // Both accesses took exactly 70 cycles, so every percentile is 70
        // and the rendered summary prints them next to the mean.
        let p = sum
            .percentiles
            .as_ref()
            .expect("completed accesses have percentiles");
        assert_eq!(p.quantiles, [70; 4]);
        let text = sum.to_string();
        assert!(text.contains("p50 70"), "{text}");
        assert!(text.contains("p99 70"), "{text}");
    }

    #[test]
    fn chrome_trace_round_trips_through_validate_and_summarize() {
        let mut rec = Recorder::new(1024, crate::event::FILTER_ALL, 100);
        recorded_access(&mut rec, 100);
        recorded_access(&mut rec, 300);
        rec.engine_send(500, false); // a dummy instant
        rec.instant(Subsystem::Stash, EventKind::StashHit, 501, 1);
        rec.metrics.set("sd.sub0.queue", 3.0);
        rec.metrics.sample(0);
        rec.metrics.set("sd.sub0.queue", 5.0);
        rec.metrics.sample(100);

        let dir = std::env::temp_dir().join(format!("doram-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &rec.events(), rec.metrics.series(), 0).unwrap();

        let report = validate_file(&path).unwrap();
        assert_eq!(report.complete_accesses, 2);
        assert_eq!(report.mismatched, 0);
        assert_eq!(report.counter_samples, 2);
        assert!(report.trace_events > 8);

        let sum = summarize_file(&path).unwrap();
        assert_eq!(sum.accesses, 2);
        assert_eq!(sum.mean_total, 70.0);
        assert_eq!(sum.mean_link, 30.0);
        assert!((sum.breakdown_sum() - sum.mean_total).abs() <= 0.01 * sum.mean_total);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn integrity_component_telescopes_and_round_trips() {
        let mut rec = Recorder::new(1024, crate::event::FILTER_ALL, 100);
        rec.engine_send(100, true);
        rec.sd_arrival(115, true);
        rec.sd_access_started(116);
        rec.dram_issue(117, 0);
        rec.dram_done(150, 0);
        rec.integrity_verify(152, 4);
        rec.sd_read_done(155, true);
        rec.engine_response(170, true);
        let spans = spans_from_events(&rec.events());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.integrity_cycles(), 4);
        assert_eq!(
            s.link_cycles() + s.dram_cycles() + s.integrity_cycles() + s.stash_cycles(),
            s.total_cycles()
        );

        let dir = std::env::temp_dir().join(format!("doram-obs-int-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &rec.events(), &[], 0).unwrap();
        let sum = summarize_file(&path).unwrap();
        assert_eq!(sum.accesses, 1);
        assert_eq!(sum.mean_integrity, 4.0);
        assert!((sum.breakdown_sum() - sum.mean_total).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_spans_are_excluded_from_export() {
        let mut rec = Recorder::new(1024, crate::event::FILTER_ALL, 100);
        recorded_access(&mut rec, 100);
        rec.engine_send(500, true); // still in flight at run end
        let json = chrome_trace_json(&rec.events(), &[], 0);
        let doc = parse(&json).unwrap();
        let parsed = parse_trace(&doc).unwrap();
        let accesses: Vec<&SpanRec> = parsed
            .spans
            .iter()
            .filter(|s| s.name == "oram-access")
            .collect();
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].access, 0);
    }

    #[test]
    fn csv_and_jsonl_are_well_formed() {
        let mut rec = Recorder::new(16, crate::event::FILTER_ALL, 10);
        rec.metrics.set("a", 1.5);
        rec.metrics.set("b", f64::NAN);
        rec.metrics.sample(0);
        let csv = metrics_csv(rec.metrics.series());
        assert_eq!(csv.lines().next().unwrap(), "cycle,a,b");
        assert_eq!(csv.lines().nth(1).unwrap(), "0,1.5,0");
        let jsonl = metrics_jsonl(rec.metrics.series());
        for line in jsonl.lines() {
            parse(line).unwrap();
        }
    }

    #[test]
    fn dummy_dram_groups_do_not_count_as_accesses() {
        let mut rec = Recorder::new(1024, crate::event::FILTER_ALL, 100);
        rec.engine_send(1, false);
        rec.sd_arrival(10, false);
        rec.sd_access_started(11);
        rec.dram_issue(12, 0);
        rec.dram_done(40, 0);
        rec.sd_read_done(41, false);
        rec.engine_response(55, false);
        let spans = spans_from_events(&rec.events());
        assert!(
            spans.is_empty(),
            "dummies must not produce spans: {spans:?}"
        );
        let _ = NO_ACCESS;
    }
}
