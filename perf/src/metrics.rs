//! Metric names and units, and the bounds `BENCHMARK.json` sets on them.

use crate::stats::Better;
use doram_obs::json::{self, JsonValue};

/// End-to-end metrics of the timed pass (recorder off): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("mem_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced pass: name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.system.cpu_step_ns_per_cycle", "ns"),
    ("core.system.memory_tick_ns_per_cycle", "ns"),
    ("core.system.mux_queue_delay_cycles", "cycles"),
    ("cpu.core_step_ns", "ns"),
    ("trace.next_record_ns", "ns"),
    ("dram.subchannel_tick_ns", "ns"),
    ("dram.bus_util", "ratio"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.queue_delay_cycles", "cycles"),
    ("core.secure_channel.tick_ns", "ns"),
    ("core.secure_channel.queue_delay_cycles", "cycles"),
    ("core.secure_channel.refetches", "count"),
    ("core.secure_channel.freshness_ops", "count"),
    ("core.secure_channel.detections", "count"),
    ("core.secure_channel.parity_rebuilds", "count"),
    ("core.secure_channel.scrub_repairs", "count"),
    ("crypto.cmac_72B_ns", "ns"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.merkle_build_ms", "ms"),
    ("core.onchip_oram.tick_ns", "ns"),
    ("oram.plan_ns", "ns"),
    ("oram.accesses", "count"),
    ("oram.real_share", "ratio"),
    ("oram.access_latency_cycles", "cycles"),
    ("core.channels.bob_tick_ns", "ns"),
    ("core.channels.direct_tick_ns", "ns"),
    ("bob.queue_delay_cycles", "cycles"),
    ("bob.secure_link_bytes", "bytes"),
    ("bob.retransmissions", "count"),
    ("obs.recorder_overhead_pct", "%"),
    ("layers.explained_share", "ratio"),
];

/// Unit of the metric called `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`END_TO_END`] or [`PER_LAYER`]: every
/// metric the benchmark reports is declared there.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// The repository's benchmark definition, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One end-to-end metric's comparison rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` entries of `BENCHMARK.json`.
pub fn bounds() -> Vec<Bound> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    section(&doc, "end_to_end")
        .iter()
        .map(|m| Bound {
            name: text(m, "name").to_string(),
            better: match text(m, "better") {
                "higher" => Better::Higher,
                _ => Better::Lower,
            },
            bound: m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .expect("every end-to-end metric has a bound"),
        })
        .collect()
}

fn section<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        section(doc, key)
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    }

    fn declared(specs: &[(&str, &str)]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    fn keys(v: &JsonValue) -> Vec<&str> {
        match v {
            JsonValue::Object(m) => m.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(names(&doc, "end_to_end"), declared(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), declared(&PER_LAYER));
        let workloads: Vec<&str> = section(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let setup = bounds().into_iter().find(|b| b.name == "setup_s").unwrap();
        assert_eq!(setup.better, Better::Lower);
        assert!(bounds()
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }

    #[test]
    fn benchmark_json_has_exactly_the_required_keys() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for w in section(&doc, "workloads") {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(text(w, "why").len() <= 200);
        }
        for m in section(&doc, "end_to_end") {
            assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        }
        for m in section(&doc, "per_layer") {
            assert_eq!(keys(m), ["better", "name", "unit"]);
        }
        let paths = section(&doc, "paths");
        assert_eq!(paths, [JsonValue::String("perf".into())]);
    }

    #[test]
    fn metric_names_and_counts_are_within_limits() {
        let valid = |s: &str| {
            s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid(name), "{name}");
        }
        for unit in END_TO_END.iter().chain(&PER_LAYER).map(|m| m.1) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }
}
