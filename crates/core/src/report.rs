//! Plain-text table rendering for experiment output.

/// Renders a table: header row + data rows, columns padded to fit.
///
/// # Examples
///
/// ```
/// use doram_core::report::render_table;
/// let s = render_table(
///     &["bench", "norm"],
///     &[vec!["libq".into(), "0.875".into()]],
/// );
/// assert!(s.contains("libq"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Renders a horizontal text bar chart: one row per `(label, value)`,
/// scaled so the largest value spans `width` characters.
///
/// # Examples
///
/// ```
/// use doram_core::report::render_bars;
/// let s = render_bars(&[("a".into(), 1.0), ("b".into(), 2.0)], 10);
/// assert!(s.lines().count() == 2);
/// ```
pub fn render_bars(rows: &[(String, f64)], width: usize) -> String {
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in rows {
        let n = ((v / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "{label:>label_w$} |{} {v:.3}\n",
            "█".repeat(n.min(width))
        ));
    }
    out
}

/// Renders rows as CSV with a header; cells are escaped by the caller
/// being sensible (benchmark names and numbers only — no quoting needed).
pub fn render_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Serializes a [`RunReport`](crate::metrics::RunReport) as a JSON object
/// (hand-rolled: the report is flat enough that a serde dependency is not
/// warranted).
pub fn report_json(r: &crate::metrics::RunReport) -> String {
    fn arr_u64(v: &[u64]) -> String {
        let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        format!("[{}]", items.join(","))
    }
    fn arr_f64(v: impl Iterator<Item = f64>) -> String {
        let items: Vec<String> = v.map(|x| format!("{x:.6}")).collect();
        format!("[{}]", items.join(","))
    }
    let mut out = String::from("{");
    out.push_str(&format!("\"scheme\":\"{}\",", r.scheme));
    out.push_str(&format!("\"benchmark\":\"{}\",", r.benchmark));
    out.push_str(&format!("\"total_mem_cycles\":{},", r.total_mem_cycles));
    out.push_str(&format!(
        "\"ns_exec_cpu_cycles\":{},",
        arr_u64(&r.ns_exec_cpu_cycles)
    ));
    out.push_str(&format!("\"ns_exec_mean\":{:.3},", r.ns_exec_mean()));
    out.push_str(&format!("\"ns_exec_gmean\":{:.3},", r.ns_exec_geomean()));
    out.push_str(&format!(
        "\"ns_read_latency_mean\":{:.3},",
        r.ns_read_latency.mean()
    ));
    out.push_str(&format!(
        "\"ns_write_latency_mean\":{:.3},",
        r.ns_write_latency.mean()
    ));
    for (name, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        out.push_str(&format!(
            "\"ns_read_{name}\":{},",
            r.ns_read_percentile(q).unwrap_or(0)
        ));
    }
    out.push_str(&format!(
        "\"channel_utilization\":{},",
        arr_f64(r.channel_utilization.iter().copied())
    ));
    out.push_str(&format!(
        "\"channel_row_hit\":{},",
        arr_f64(r.channel_row_hit.iter().copied())
    ));
    match &r.oram {
        Some(o) => out.push_str(&format!(
            "\"oram\":{{\"real\":{},\"dummy\":{},\"access_latency\":{:.3},\"read_phase_latency\":{:.3}}},",
            o.real_accesses, o.dummy_accesses, o.access_latency, o.read_phase_latency
        )),
        None => out.push_str("\"oram\":null,"),
    }
    match r.secure_link_bytes {
        Some((up, down)) => out.push_str(&format!("\"secure_link_bytes\":[{up},{down}],")),
        None => out.push_str("\"secure_link_bytes\":null,"),
    }
    match &r.faults {
        Some(fr) => {
            let quarantined: Vec<String> =
                fr.quarantined_subs.iter().map(|s| s.to_string()).collect();
            let health: Vec<String> = fr
                .sub_health
                .iter()
                .map(|h| format!("\"{}\"", h.name()))
                .collect();
            let entries: Vec<String> = fr
                .quarantine_entries
                .iter()
                .map(|e| e.to_string())
                .collect();
            let unhealthy: Vec<String> =
                fr.unhealthy_cycles.iter().map(|c| c.to_string()).collect();
            let latched = match &fr.latched_fault {
                // The detail strings carry no quotes or backslashes
                // (component names + counters), so escaping is minimal.
                Some(msg) => format!("\"{}\"", msg.replace('\\', "\\\\").replace('"', "\\\"")),
                None => "null".into(),
            };
            out.push_str(&format!(
                concat!(
                    "\"faults\":{{",
                    "\"injected\":{{\"corrupt_frames\":{},\"drop_frames\":{},",
                    "\"delay_frames\":{},\"bit_flips\":{},\"forged_macs\":{},",
                    "\"replays\":{},\"relocations\":{},\"rollback_bursts\":{}}},",
                    "\"retransmissions\":{},\"crc_errors\":{},\"timeouts\":{},",
                    "\"exhausted_retries\":{},",
                    "\"link_recovery_cycles\":{},\"integrity_failures\":{},",
                    "\"refetches\":{},\"sd_recovery_cycles\":{},",
                    "\"quarantined_subs\":[{}],",
                    "\"parity_rebuilds\":{},\"scrub_repairs\":{},",
                    "\"replay_detected\":{},\"relocation_detected\":{},",
                    "\"rollback_rejected\":{},",
                    "\"freshness_ops\":{},\"freshness_cycles\":{},",
                    "\"sub_health\":[{}],\"quarantine_entries\":[{}],",
                    "\"unhealthy_cycles\":[{}],",
                    "\"degraded_episode\":{},\"latched_fault\":{}}},"
                ),
                fr.injected.corrupt_frames,
                fr.injected.drop_frames,
                fr.injected.delay_frames,
                fr.injected.bit_flips,
                fr.injected.forged_macs,
                fr.injected.replays,
                fr.injected.relocations,
                fr.injected.rollback_bursts,
                fr.retransmissions,
                fr.crc_errors,
                fr.timeouts,
                fr.exhausted_retries,
                fr.link_recovery_cycles,
                fr.integrity_failures,
                fr.refetches,
                fr.sd_recovery_cycles,
                quarantined.join(","),
                fr.parity_rebuilds,
                fr.scrub_repairs,
                fr.replay_detected,
                fr.relocation_detected,
                fr.rollback_rejected,
                fr.freshness_ops,
                fr.freshness_cycles,
                health.join(","),
                entries.join(","),
                unhealthy.join(","),
                fr.degraded_episode(),
                latched,
            ));
        }
        None => out.push_str("\"faults\":null,"),
    }
    out.push_str(&format!("\"total_energy_mj\":{:.6}", r.total_energy_mj()));
    out.push('}');
    out
}

/// Formats a ratio with three decimals.
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage with one decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "bench"],
            &[
                vec!["1".into(), "x".into()],
                vec!["22".into(), "yyyyyy".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("yyyyyy"));
    }

    #[test]
    fn bars_scale_to_width() {
        let s = render_bars(&[("x".into(), 1.0), ("yy".into(), 4.0)], 8);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].matches('█').count() == 8);
        assert!(lines[0].matches('█').count() == 2);
    }

    #[test]
    fn csv_rendering() {
        let csv = render_csv(
            &["bench", "v"],
            &[
                vec!["libq".into(), "0.9".into()],
                vec!["mu".into(), "1.1".into()],
            ],
        );
        assert_eq!(csv, "bench,v\nlibq,0.9\nmu,1.1\n");
    }

    #[test]
    fn report_json_is_well_formed() {
        use crate::config::Scheme;
        use crate::metrics::RunReport;
        use doram_sim::stats::{Histogram, RunningMean};
        use doram_trace::Benchmark;
        let r = RunReport {
            scheme: Scheme::DOram { k: 1, c: 4 },
            benchmark: Benchmark::Libq,
            ns_exec_cpu_cycles: vec![10, 20],
            ns_read_latency: RunningMean::new(),
            ns_write_latency: RunningMean::new(),
            ns_read_histogram: Histogram::new(8, 4),
            channel_utilization: vec![0.5, 0.25],
            channel_row_hit: vec![0.9],
            oram: None,
            secure_link_bytes: Some((100, 200)),
            channel_energy: vec![],
            total_mem_cycles: 999,
            faults: Some(crate::metrics::FaultReport {
                retransmissions: 3,
                exhausted_retries: 1,
                integrity_failures: 2,
                quarantined_subs: vec![1],
                parity_rebuilds: 4,
                scrub_repairs: 5,
                replay_detected: 6,
                relocation_detected: 7,
                rollback_rejected: 8,
                freshness_ops: 9,
                freshness_cycles: 126,
                sub_health: vec![
                    doram_sim::health::HealthState::Healthy,
                    doram_sim::health::HealthState::Quarantined,
                ],
                quarantine_entries: vec![0, 1],
                unhealthy_cycles: vec![0, 1234],
                latched_fault: Some("link \"to_mem\": retries exhausted".into()),
                ..Default::default()
            }),
        };
        let j = report_json(&r);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"scheme\":\"D-ORAM+1/4\""));
        assert!(j.contains("\"ns_exec_cpu_cycles\":[10,20]"));
        assert!(j.contains("\"oram\":null"));
        assert!(j.contains("\"secure_link_bytes\":[100,200]"));
        assert!(j.contains("\"retransmissions\":3"));
        assert!(j.contains("\"integrity_failures\":2"));
        assert!(j.contains("\"quarantined_subs\":[1]"));
        assert!(j.contains("\"exhausted_retries\":1"));
        assert!(j.contains("\"parity_rebuilds\":4"));
        assert!(j.contains("\"scrub_repairs\":5"));
        assert!(j.contains("\"replay_detected\":6"));
        assert!(j.contains("\"relocation_detected\":7"));
        assert!(j.contains("\"rollback_rejected\":8"));
        assert!(j.contains("\"freshness_ops\":9"));
        assert!(j.contains("\"freshness_cycles\":126"));
        assert!(j.contains("\"rollback_bursts\":0"));
        assert!(j.contains("\"sub_health\":[\"healthy\",\"quarantined\"]"));
        assert!(j.contains("\"quarantine_entries\":[0,1]"));
        assert!(j.contains("\"unhealthy_cycles\":[0,1234]"));
        assert!(j.contains("\"degraded_episode\":true"));
        assert!(j.contains("\"latched_fault\":\"link \\\"to_mem\\\": retries exhausted\""));
        // Balanced braces and quotes (cheap well-formedness proxy).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('"').count() % 2, 0);
    }

    #[test]
    fn report_json_emits_freshness_keys_even_when_zero() {
        // A clean run (no adversary, no freshness-tree walks) must still
        // carry the freshness fields: downstream comparers key on a
        // stable schema, and a vanishing key reads as a format change.
        use crate::config::Scheme;
        use crate::metrics::RunReport;
        use doram_sim::stats::{Histogram, RunningMean};
        use doram_trace::Benchmark;
        let r = RunReport {
            scheme: Scheme::Baseline,
            benchmark: Benchmark::Libq,
            ns_exec_cpu_cycles: vec![10],
            ns_read_latency: RunningMean::new(),
            ns_write_latency: RunningMean::new(),
            ns_read_histogram: Histogram::new(8, 4),
            channel_utilization: vec![],
            channel_row_hit: vec![],
            oram: None,
            secure_link_bytes: None,
            channel_energy: vec![],
            total_mem_cycles: 1,
            faults: Some(crate::metrics::FaultReport::default()),
        };
        let j = report_json(&r);
        assert!(
            j.contains("\"freshness_ops\":0"),
            "missing zero freshness_ops: {j}"
        );
        assert!(
            j.contains("\"freshness_cycles\":0"),
            "missing zero freshness_cycles: {j}"
        );
        assert!(j.contains("\"replay_detected\":0"));
        assert!(j.contains("\"degraded_episode\":false"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt3(0.87512), "0.875");
        assert_eq!(fmt_pct(0.225), "22.5%");
    }
}
