//! `perf`: the host-speed benchmark of the D-ORAM simulator.
//!
//! ```text
//! perf run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! perf compare PARENT_DIR CHANGE_DIR
//! perf bless
//! ```
//!
//! `run` measures the workloads one at a time. The timed pass splits
//! `--seconds` into slices of about [`SLICE_SECONDS`], each a fresh child
//! process of its own (`perf measure`) that repeats the workload's batch,
//! so peak RSS is per workload and counts by its median over the slices.
//! The slices take the allowed CPUs in turn (see [`cpus`]). The traced
//! pass is one child process per workload. `run` prints one
//! `workload metric value unit` line per metric, then one JSON summary
//! line, and with `--out` writes every run's full record as JSON. See
//! `README.md` for the workloads, metrics and checks.
//!
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`; the
//! benchmark's command-line convention (`--workload W --seed N --seconds S
//! --trace 0|1`) passes it explicitly. The fastest-repetition metrics
//! depend on how many repetitions a run holds, so records keep their
//! `seconds` and `compare` refuses to set run lengths against each other.

mod clock;
mod compare;
mod cpus;
mod drivers;
mod golden;
mod measure;
mod metrics;
mod stats;
mod workload;

use doram_obs::json::{self, escape, JsonValue};
use measure::{Outcome, Sample};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, BENCHES, WORKLOADS};

const USAGE: &str = "usage:
  perf run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  perf measure --workload W [--seed N] [--seconds S] [--trace [0|1]] [--cpu C]
  perf compare PARENT_DIR CHANGE_DIR
  perf bless";

/// Target length of one timed slice, in seconds.
const SLICE_SECONDS: f64 = 2.0;

/// Options of `run` and `measure`.
#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    /// CPU a `measure` process pins itself to.
    cpu: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: default_seconds(),
        trace: false,
        out: None,
        cpu: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
                opts.workloads.push(w);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                let value = it.next_if(|v| v.as_str() == "0" || v.as_str() == "1");
                opts.trace = value.is_none_or(|v| v == "1");
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--cpu" => opts.cpu = Some(value()?.parse().map_err(|e| format!("--cpu: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.to_vec();
    }
    Ok(opts)
}

/// `run_seconds` of `BENCHMARK.json`.
fn default_seconds() -> f64 {
    json::parse(metrics::BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(JsonValue::as_f64))
        .expect("BENCHMARK.json sets run_seconds")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run(&o)),
        Some("measure") => parse_options(&args[1..]).and_then(|o| measure_one(&o)),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("bless") if args.len() == 1 => bless(),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `perf measure`: one timed slice, or the whole traced pass, of one
/// workload in this process; prints its record as one JSON line.
fn measure_one(opts: &Options) -> Result<(), String> {
    let [w] = opts.workloads[..] else {
        return Err("measure takes exactly one --workload".into());
    };
    if opts.out.is_some() {
        return Err("measure writes its record to stdout; --out belongs to run".into());
    }
    if let Some(cpu) = opts.cpu {
        // Unpinned, the slice still measures correctly, only less steadily.
        if let Err(e) = cpus::pin(cpu) {
            eprintln!("perf: {e}; measuring unpinned");
        }
    }
    let outcome = if opts.trace {
        measure::traced(&w, opts.seed, opts.seconds)
    } else {
        measure::timed(&w, opts.seed, opts.seconds)
    };
    println!("{}", record(&w, opts, &outcome));
    Ok(())
}

/// One run's full record as a single JSON line.
fn record(w: &Workload, opts: &Options, o: &Outcome) -> String {
    let digests: Vec<String> = BENCHES
        .iter()
        .zip(o.digests)
        .filter_map(|(b, d)| d.map(|d| format!("\"{b}\":\"{d:016x}\"")))
        .collect();
    let failures: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let drivers: Vec<String> = o
        .drivers
        .iter()
        .map(|(name, q)| {
            format!(
                "\"{name}\":{{\"q1\":{},\"median\":{},\"q3\":{}}}",
                q.q1, q.median, q.q3
            )
        })
        .collect();
    let spans: Vec<String> = o
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.layer, s.start_ns, s.end_ns, s.count
            )
        })
        .collect();
    let samples: Vec<String> = o
        .samples
        .iter()
        .map(|s| {
            let digest = s.digest.map_or("null".into(), |d| format!("\"{d:016x}\""));
            let setup_s = s.setup_s.map_or("null".into(), |t| t.to_string());
            format!(
                concat!(
                    "{{\"bench\":\"{}\",\"cycles\":{},\"run_s\":{},\"setup_s\":{},",
                    "\"host_hz\":{},\"digest\":{},\"failed\":{}}}"
                ),
                BENCHES[s.slot], s.cycles, s.run_s, setup_s, s.host_hz, digest, s.failed
            )
        })
        .collect();
    let rss: Vec<String> = o.rss_mb.iter().map(f64::to_string).collect();
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],",
            "\"digests\":{{{}}},\"metrics\":{},\"samples\":[{}],\"rss_mb\":[{}],",
            "\"drivers\":{{{}}},\"spans\":[{}]}}"
        ),
        w.name,
        opts.seed,
        opts.seconds,
        opts.trace,
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        failures.join(","),
        digests.join(","),
        metrics_json(
            o.metrics
                .iter()
                .map(|&(n, v)| (n.to_string(), v, metrics::unit(n)))
        ),
        samples.join(","),
        rss.join(","),
        drivers.join(","),
        spans.join(","),
    )
}

/// A timed slice's record, as its process printed it, parsed back into
/// what [`measure::merge`] needs.
fn slice_of(doc: &JsonValue) -> Option<Outcome> {
    let list = |key| doc.get(key).and_then(JsonValue::as_array);
    let sample = |s: &JsonValue| {
        let num = |key| s.get(key).and_then(JsonValue::as_f64);
        let bench = s.get("bench")?.as_str()?;
        let digest = match s.get("digest")? {
            JsonValue::Null => None,
            d => Some(u64::from_str_radix(d.as_str()?, 16).ok()?),
        };
        let setup_s = match s.get("setup_s")? {
            JsonValue::Null => None,
            t => Some(t.as_f64()?),
        };
        Some(Sample {
            slot: BENCHES.iter().position(|b| b.to_string() == bench)?,
            cycles: s.get("cycles")?.as_u64()?,
            run_s: num("run_s")?,
            setup_s,
            host_hz: num("host_hz")?,
            digest,
            failed: s.get("failed")? == &JsonValue::Bool(true),
        })
    };
    Some(Outcome {
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        failures: list("failures")?
            .iter()
            .map(|f| f.as_str().map(String::from))
            .collect::<Option<_>>()?,
        samples: list("samples")?.iter().map(sample).collect::<Option<_>>()?,
        rss_mb: list("rss_mb")?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Option<_>>()?,
        ..Outcome::default()
    })
}

/// Runs `perf measure` on workload `w` for `seconds` in a child process,
/// pinned to `cpu` if given, and returns its record line.
fn measure_child(
    exe: &Path,
    w: &Workload,
    opts: &Options,
    seconds: f64,
    cpu: Option<usize>,
) -> Result<String, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("measure")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if let Some(cpu) = cpu {
        cmd.args(["--cpu", &cpu.to_string()]);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} measurement: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("measuring {} failed: {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

/// Measures workload `w` and returns its record line: the traced pass from
/// one child, or the timed pass merged from equal slices of `--seconds`,
/// each a fresh child on the next allowed CPU.
fn measure_workload(exe: &Path, w: &Workload, opts: &Options) -> Result<String, String> {
    if opts.trace {
        return measure_child(exe, w, opts, opts.seconds, None);
    }
    let slices = (opts.seconds / SLICE_SECONDS).round().max(1.0);
    let cpus = cpus::allowed();
    let mut outcomes = Vec::new();
    for i in 0..slices as usize {
        let cpu = (!cpus.is_empty()).then(|| cpus[i % cpus.len()]);
        let line = measure_child(exe, w, opts, opts.seconds / slices, cpu)?;
        let slice = json::parse(&line)
            .ok()
            .as_ref()
            .and_then(slice_of)
            .ok_or(format!("{} slice record is malformed: {line}", w.name))?;
        outcomes.push(slice);
    }
    // The run's record keeps how many simulations its metrics come from
    // (`attempted`), not each one: a run holds thousands.
    let mut merged = measure::merge(outcomes);
    merged.samples.clear();
    Ok(record(w, opts, &merged))
}

/// `{"key": {"value": v, "unit": u}, ...}` in the given order.
fn metrics_json(metrics: impl Iterator<Item = (String, f64, &'static str)>) -> String {
    let items: Vec<String> = metrics
        .map(|(key, v, unit)| format!("\"{key}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", items.join(","))
}

/// A measured record, parsed back.
struct Run {
    workload: &'static str,
    line: String,
    doc: JsonValue,
}

impl Run {
    fn count(&self, key: &str) -> u64 {
        self.doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    /// The record's metrics in declaration order.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let table: &[(&str, &str)] = if self.doc.get("trace") == Some(&JsonValue::Bool(true)) {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        };
        table
            .iter()
            .filter_map(|&(name, _)| {
                let m = self.doc.get("metrics")?.get(name)?;
                Some((name, m.get("value")?.as_f64()?))
            })
            .collect()
    }
}

/// `perf run`: measures each workload in child processes, prints the
/// metric lines and the summary line, and writes `--out`.
fn run(opts: &Options) -> Result<(), String> {
    if opts.cpu.is_some() {
        return Err("run picks each slice's CPU itself; --cpu belongs to measure".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut runs = Vec::new();
    for w in &opts.workloads {
        let line = measure_workload(&exe, w, opts)?;
        let doc = json::parse(&line).map_err(|e| format!("{} record: {e}", w.name))?;
        runs.push(Run {
            workload: w.name,
            line,
            doc,
        });
    }
    for run in &runs {
        for (name, value) in run.metrics() {
            println!("{} {name} {value} {}", run.workload, metrics::unit(name));
        }
        if let Some(JsonValue::Object(digests)) = run.doc.get("digests") {
            let listed: Vec<String> = digests
                .iter()
                .filter_map(|(bench, d)| Some(format!("{bench}={}", d.as_str()?)))
                .collect();
            eprintln!(
                "perf: {} seed {} report digests {}",
                run.workload,
                opts.seed,
                listed.join(" ")
            );
        }
        if let Some(failures) = run.doc.get("failures").and_then(JsonValue::as_array) {
            for f in failures.iter().filter_map(JsonValue::as_str) {
                eprintln!("perf: {} check failed: {f}", run.workload);
            }
        }
    }
    if let Some(path) = &opts.out {
        let lines: Vec<&str> = runs.iter().map(|r| r.line.as_str()).collect();
        let doc = format!(
            "{{\"host\":{},\"runs\":[\n{}\n]}}\n",
            host_json(),
            lines.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", summary(&runs));
    Ok(())
}

/// The last line of `run`: correctness, counts and every metric. With
/// several workloads, metric names are prefixed `workload.`.
fn summary(runs: &[Run]) -> String {
    let attempted: u64 = runs.iter().map(|r| r.count("attempted")).sum();
    let failed: u64 = runs.iter().map(|r| r.count("failed")).sum();
    let correct = runs
        .iter()
        .all(|r| r.doc.get("correct") == Some(&JsonValue::Bool(true)));
    let metrics = runs.iter().flat_map(|r| {
        r.metrics().into_iter().map(move |(name, v)| {
            let key = if runs.len() == 1 {
                name.to_string()
            } else {
                format!("{}.{name}", r.workload)
            };
            (key, v, metrics::unit(name))
        })
    });
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

/// The measuring host: CPUs, CPU model and compiler.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\"}}",
        escape(&cpu),
        escape(&rustc)
    )
}

/// `perf bless`: reruns every workload at the golden seeds and rewrites
/// `golden.json`. Only the benchmark changes; rebuild to compile it in.
fn bless() -> Result<(), String> {
    let mut table = Vec::new();
    for w in WORKLOADS {
        let mut seeds = Vec::new();
        for seed in golden::GOLDEN_SEEDS {
            let digests = measure::golden_digests(&w, seed)
                .map_err(|e| format!("{} seed {seed}: {e}", w.name))?;
            eprintln!("perf: {} seed {seed} blessed", w.name);
            seeds.push((seed, digests));
        }
        table.push((w, seeds));
    }
    std::fs::write(golden::GOLDEN_PATH, golden::render(&table))
        .map_err(|e| format!("writing {}: {e}", golden::GOLDEN_PATH))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_follow_the_benchmark_command_line() {
        let o = parse_options(&args("--workload solo-ns --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(o.workloads, vec![workload::SOLO_NS]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, false));
        let o = parse_options(&args("--trace --out r.json")).unwrap();
        assert!(o.trace);
        assert_eq!(o.workloads.len(), 4);
        assert_eq!(o.seconds, default_seconds());
        assert!(parse_options(&args("--trace 1")).unwrap().trace);
        assert_eq!(parse_options(&args("--cpu 1")).unwrap().cpu, Some(1));
        assert!(run(&parse_options(&args("--cpu 1")).unwrap()).is_err());
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seconds 0")).is_err());
        assert!(parse_options(&args("--seed")).is_err());
    }

    #[test]
    fn summary_line_has_the_contract_keys() {
        let w = workload::DORAM_CORUN;
        let opts = parse_options(&args("--workload doram-corun")).unwrap();
        let outcome = Outcome {
            attempted: 3,
            metrics: vec![
                ("mem_cycles_per_s", 1.5),
                ("setup_s", 0.25),
                ("peak_rss_mb", 9.0),
            ],
            ..Outcome::default()
        };
        let line = record(&w, &opts, &outcome);
        let run = Run {
            workload: w.name,
            doc: json::parse(&line).unwrap(),
            line,
        };
        let doc = json::parse(&summary(&[run])).unwrap();
        let JsonValue::Object(keys) = &doc else {
            panic!("not an object")
        };
        assert_eq!(
            keys.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn slice_records_parse_back() {
        let w = workload::SOLO_NS;
        let opts = parse_options(&args("--workload solo-ns")).unwrap();
        let sample = Sample {
            slot: 1,
            cycles: 7,
            run_s: 0.125,
            setup_s: Some(1e-6),
            host_hz: 2.5e9,
            digest: Some(u64::MAX),
            failed: false,
        };
        let errored = Sample {
            slot: 2,
            setup_s: None,
            digest: None,
            failed: true,
            ..sample
        };
        let outcome = Outcome {
            attempted: 2,
            failed: 1,
            failures: vec!["comm4: \"quoted\"".into()],
            samples: vec![sample, errored],
            rss_mb: vec![3.25],
            ..Outcome::default()
        };
        let doc = json::parse(&record(&w, &opts, &outcome)).unwrap();
        let back = slice_of(&doc).unwrap();
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.failures, outcome.failures);
        assert_eq!(back.samples, outcome.samples);
        assert_eq!(back.rss_mb, outcome.rss_mb);
    }
}
