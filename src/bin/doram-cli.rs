//! Command-line driver for the D-ORAM simulation stack.
//!
//! ```text
//! doram-cli run     --bench mummer --scheme doram --k 1 --c 4 --accesses 2000
//! doram-cli sweep-c --bench libq   --accesses 1500
//! doram-cli profile --bench black
//! doram-cli list
//! ```

use doram::core::experiments::{run_scheme, validation, Scale};
use doram::core::profiling::{profile, ProfileScale};
use doram::core::secure_channel::hostile_sub_plan;
use doram::core::{RunOptions, RunReport, Scheme, SimError, Simulation, SystemConfig};
use doram::obs::{self, SharedRecorder};
use doram::sim::snapshot::write_atomic;
use doram::trace::Benchmark;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command-line options: `--key value` pairs plus flags.
#[derive(Debug, Default)]
struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    opts.pairs.push((key.to_string(), it.next().expect("peeked").clone()));
                }
                _ => opts.flags.push(key.to_string()),
            }
        }
        Ok(opts)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }

    /// [`Opts::get_u64`] for an option the config holds as a `u32`: a value
    /// that does not fit is rejected, not truncated.
    fn get_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        let v = self.get_u64(key, default.into())?;
        u32::try_from(v)
            .map_err(|_| format!("--{key} expects a number up to {}, got '{v}'", u32::MAX))
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects the first option outside `known`, naming it: a subcommand
    /// that does not read an option would otherwise leave its default in
    /// force without a word.
    fn only(self, known: &[&str]) -> Result<Opts, String> {
        let mut given = self.pairs.iter().map(|(k, _)| k).chain(&self.flags);
        match given.find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option '--{k}' for this command")),
            None => Ok(self),
        }
    }
}

/// The options `doram-cli run` reads, in usage order.
const RUN_OPTIONS: &[&str] = &[
    "bench", "scheme", "k", "c", "accesses", "seed", "dummy-interval",
    "merge", "pipeline", "json", "out",
    "parity", "scrub-every", "probation-window", "probation-successes",
    "chaos-sub", "chaos-at",
    "adversary", "adversary-sub", "adversary-at", "adversary-ppm",
    "checkpoint-every", "checkpoint-dir", "resume", "watchdog", "ckpt-key",
    "trace-out", "trace-filter", "metrics-every", "metrics-window", "trace-ring",
    "obs-out", "prom-out",
];

fn parse_benchmark(opts: &Opts) -> Result<Benchmark, String> {
    let name = opts.get("bench").unwrap_or("mummer");
    Benchmark::ALL
        .into_iter()
        .find(|b| b.spec().name == name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (see `doram-cli list`)"))
}

fn parse_scheme(opts: &Opts) -> Result<Scheme, String> {
    let k = opts.get_u32("k", 0)?;
    let c = opts.get_u32("c", 7)?;
    match opts.get("scheme").unwrap_or("doram") {
        "solo" | "1ns" => Ok(Scheme::SoloNs),
        "7ns-4ch" | "ns4" => Ok(Scheme::Ns7on4),
        "7ns-3ch" | "ns3" => Ok(Scheme::Ns7on3),
        "baseline" => Ok(Scheme::Baseline),
        "secmem" => Ok(Scheme::SecureMemory),
        "partition" | "1s-3ch" => Ok(Scheme::Partition1S),
        "doram" => Ok(Scheme::DOram { k, c }),
        other => Err(format!("unknown scheme '{other}' (see `doram-cli list`)")),
    }
}

fn build_config(opts: &Opts) -> Result<SystemConfig, String> {
    let mut b = SystemConfig::builder(parse_benchmark(opts)?)
        .scheme(parse_scheme(opts)?)
        .ns_accesses(opts.get_u64("accesses", 2_000)?)
        .seed(opts.get_u64("seed", 1)?)
        .merge_split_reads(opts.has_flag("merge"))
        .sd_pipeline(opts.has_flag("pipeline"))
        .parity(opts.has_flag("parity"))
        .scrub_every(opts.get_u64("scrub-every", 0)?)
        .probation_window(opts.get_u64("probation-window", 0)?)
        .probation_successes(opts.get_u32("probation-successes", 4)?);
    if let Some(t) = opts.get("dummy-interval") {
        b = b.dummy_interval(t.parse().map_err(|_| "--dummy-interval expects a number")?);
    }
    if let Some(sub) = opts.get("chaos-sub") {
        let sub: u64 = sub
            .parse()
            .map_err(|_| format!("--chaos-sub expects a sub-channel index, got '{sub}'"))?;
        // From `--chaos-at` on, sub-channel `sub` forges every MAC: the
        // sustained hostile-region fault that quarantines it mid-run.
        let (seed, start) = (opts.get_u64("seed", 1)?, opts.get_u64("chaos-at", 10_000)?);
        b = b.fault_plan(hostile_sub_plan(seed, sub, start, u64::MAX));
    }
    if let Some(mode) = opts.get("adversary") {
        if opts.get("chaos-sub").is_some() {
            return Err("--adversary and --chaos-sub are mutually exclusive".into());
        }
        b = b.fault_plan(adversary_fault_plan(
            mode,
            opts.get_u64("seed", 1)?,
            opts.get_u64("adversary-sub", 0)?,
            opts.get_u64("adversary-at", 10_000)?,
            opts.get_u32("adversary-ppm", 30_000)?,
        )?);
    }
    b.build().map_err(|e| e.to_string())
}

/// `--adversary MODE`: a seeded schedule of repeating attack bursts
/// against secure sub-channel `sub`
/// ([`adversary_sub_plan`](doram::core::secure_channel::adversary_sub_plan)),
/// sized to land several times inside a default-scale run (a few tens of
/// thousands of memory cycles). `mix` mounts all three active attacks
/// with staggered onsets so their bursts interleave.
fn adversary_fault_plan(
    mode: &str,
    seed: u64,
    sub: u64,
    start: u64,
    ppm: u32,
) -> Result<doram::sim::fault::FaultPlan, String> {
    use doram::sim::fault::FaultKind;
    let kinds: &[FaultKind] = match mode {
        "replay" => &[FaultKind::ReplayStale],
        "relocate" => &[FaultKind::RelocateBucket],
        "rollback" => &[FaultKind::RollbackBurst],
        "mix" => &[
            FaultKind::ReplayStale,
            FaultKind::RelocateBucket,
            FaultKind::RollbackBurst,
        ],
        other => {
            return Err(format!(
                "unknown adversary '{other}' (replay|relocate|rollback|mix)"
            ))
        }
    };
    doram::core::secure_channel::adversary_sub_plan(seed, kinds, sub, start, 50, ppm)
        .map_err(|e| e.to_string())
}

fn print_report(r: &RunReport) {
    println!("scheme     : {}", r.scheme);
    println!("benchmark  : {}", r.benchmark);
    println!("mem cycles : {}", r.total_mem_cycles);
    println!(
        "NS exec    : mean {:.0} / gmean {:.0} / best {} / worst {} CPU cycles",
        r.ns_exec_mean(),
        r.ns_exec_geomean(),
        r.ns_exec_best(),
        r.ns_exec_worst()
    );
    println!(
        "NS read lat: mean {:.1} p50 {} p95 {} p99 {} (mem cycles)",
        r.ns_read_latency.mean(),
        r.ns_read_percentile(0.50).unwrap_or(0),
        r.ns_read_percentile(0.95).unwrap_or(0),
        r.ns_read_percentile(0.99).unwrap_or(0),
    );
    println!("NS write lat: mean {:.1}", r.ns_write_latency.mean());
    let util: Vec<String> = r
        .channel_utilization
        .iter()
        .map(|u| format!("{:.0}%", u * 100.0))
        .collect();
    println!("channel util: [{}]", util.join(", "));
    if let Some(o) = &r.oram {
        println!(
            "ORAM       : {} real + {} dummy accesses, {:.0} cycles/access ({:.0} read phase)",
            o.real_accesses, o.dummy_accesses, o.access_latency, o.read_phase_latency
        );
    }
    if let Some((up, down)) = r.secure_link_bytes {
        println!("secure link: {up} B to SD, {down} B to CPU");
    }
    if let Some(fr) = &r.faults {
        if fr.any_activity() {
            println!(
                "faults     : {} injected, {} retransmissions, {} integrity failures, {} refetches",
                fr.injected.total(),
                fr.retransmissions,
                fr.integrity_failures,
                fr.refetches
            );
        }
        if fr.replay_detected > 0 || fr.relocation_detected > 0 || fr.rollback_rejected > 0 {
            println!(
                "adversary  : {} replays, {} relocations, {} rollbacks detected \
                 ({} freshness walks, {} cycles)",
                fr.replay_detected,
                fr.relocation_detected,
                fr.rollback_rejected,
                fr.freshness_ops,
                fr.freshness_cycles
            );
        }
        if fr.degraded_episode() {
            let health: Vec<String> = fr.sub_health.iter().map(|h| h.to_string()).collect();
            println!(
                "degraded   : health [{}], {} parity rebuilds, {} scrub repairs, episodes {:?}",
                health.join(", "),
                fr.parity_rebuilds,
                fr.scrub_repairs,
                fr.quarantine_entries
            );
        }
        if let Some(latched) = &fr.latched_fault {
            println!("LATCHED    : {latched}");
        }
    }
    println!("DRAM energy : {:.3} mJ", r.total_energy_mj());
}

/// Builds the crash-safety knobs (`--checkpoint-every`, `--checkpoint-dir`,
/// `--watchdog`) into a [`RunOptions`] and enables signal handling so Ctrl-C
/// and SIGTERM shut the run down gracefully.
fn parse_run_options(opts: &Opts) -> Result<RunOptions, String> {
    let mut ro = RunOptions {
        handle_signals: true,
        ..RunOptions::default()
    };
    if let Some(v) = opts.get("checkpoint-every") {
        let n = v
            .parse()
            .map_err(|_| format!("--checkpoint-every expects a number, got '{v}'"))?;
        ro.checkpoint_every = Some(n);
    }
    if let Some(d) = opts.get("checkpoint-dir") {
        ro.checkpoint_dir = Some(PathBuf::from(d));
    }
    if let Some(v) = opts.get("watchdog") {
        let n = v
            .parse()
            .map_err(|_| format!("--watchdog expects a number, got '{v}'"))?;
        ro.watchdog_budget = Some(n);
    }
    if let Some(v) = opts.get("ckpt-key") {
        let k = v
            .parse()
            .map_err(|_| format!("--ckpt-key expects a number, got '{v}'"))?;
        ro.ckpt_key = Some(k);
    }
    Ok(ro)
}

/// Observability knobs of `doram-cli run`: any of `--trace-out FILE`
/// (Perfetto trace + metrics sidecars), `--obs-out FILE` (interference
/// report JSON), or `--prom-out FILE` (Prometheus text snapshot) switches
/// the recorder on; `--trace-filter SUBS`, `--metrics-every N`,
/// `--metrics-window N`, and `--trace-ring N` tune it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ObsOpts {
    trace_out: Option<PathBuf>,
    obs_out: Option<PathBuf>,
    prom_out: Option<PathBuf>,
    filter: u8,
    metrics_every: u64,
    metrics_window: Option<usize>,
    ring_capacity: usize,
}

fn parse_obs_options(opts: &Opts) -> Result<Option<ObsOpts>, String> {
    const OUTS: [&str; 3] = ["trace-out", "obs-out", "prom-out"];
    if OUTS.iter().all(|k| opts.get(k).is_none()) {
        for key in ["trace-filter", "metrics-every", "metrics-window", "trace-ring"] {
            if opts.get(key).is_some() {
                return Err(format!(
                    "--{key} requires --trace-out, --obs-out, or --prom-out"
                ));
            }
        }
        return Ok(None);
    }
    let filter = match opts.get("trace-filter") {
        Some(spec) => obs::parse_filter(spec)?,
        None => obs::FILTER_ALL,
    };
    let metrics_window = match opts.get("metrics-window") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                return Err(format!(
                    "--metrics-window expects a positive number, got '{v}'"
                ))
            }
        },
    };
    Ok(Some(ObsOpts {
        trace_out: opts.get("trace-out").map(PathBuf::from),
        obs_out: opts.get("obs-out").map(PathBuf::from),
        prom_out: opts.get("prom-out").map(PathBuf::from),
        filter,
        metrics_every: opts.get_u64("metrics-every", obs::DEFAULT_METRICS_EVERY)?,
        metrics_window,
        ring_capacity: opts.get_u64("trace-ring", obs::DEFAULT_RING_CAPACITY as u64)? as usize,
    }))
}

/// Exports everything the recorder holds: the Chrome trace (Perfetto) with
/// its `<out>.metrics.jsonl` / `<out>.metrics.csv` sidecars to
/// `--trace-out`, the interference report to `--obs-out`, and the
/// Prometheus snapshot to `--prom-out`. Runs on every exit path — an
/// interrupted or stalled run still leaves its telemetry behind for
/// diagnosis.
fn export_obs(t: &ObsOpts, rec: &SharedRecorder) -> Result<(), Box<dyn Error>> {
    let rec = rec.borrow();
    if let Some(out) = &t.trace_out {
        let events = rec.events();
        let (_, dropped, _) = rec.ring_stats();
        obs::write_chrome_trace(out, &events, rec.metrics.series(), dropped)?;
        eprintln!("wrote {}", out.display());
        let jsonl = out.with_extension("metrics.jsonl");
        write_atomic(&jsonl, obs::metrics_jsonl(rec.metrics.series()).as_bytes())?;
        eprintln!("wrote {}", jsonl.display());
        let csv = out.with_extension("metrics.csv");
        write_atomic(&csv, obs::metrics_csv(rec.metrics.series()).as_bytes())?;
        eprintln!("wrote {}", csv.display());
    }
    if let Some(out) = &t.obs_out {
        let report = obs::InterferenceReport::from_recorder(&rec);
        write_atomic(out, report.to_json().as_bytes())?;
        eprintln!("wrote {}", out.display());
    }
    if let Some(out) = &t.prom_out {
        write_atomic(out, obs::prometheus_text(&rec).as_bytes())?;
        eprintln!("wrote {}", out.display());
    }
    Ok(())
}

/// Emits `text` to `--out FILE` via the crash-consistent writer when the flag
/// is present, otherwise to stdout.
fn emit_output(opts: &Opts, text: &str) -> Result<(), Box<dyn Error>> {
    match opts.get("out") {
        Some(path) => {
            let path = Path::new(path);
            write_atomic(path, text.as_bytes())?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

/// Minimal JSON report for a run that was interrupted by a signal: enough
/// for an orchestrator to find the checkpoint and resume.
fn partial_report_json(at: u64, checkpoint: Option<&Path>) -> String {
    let ckpt = match checkpoint {
        Some(p) => format!("\"{}\"", p.display().to_string().replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".to_string(),
    };
    format!("{{\"status\":\"interrupted\",\"mem_cycles\":{at},\"checkpoint\":{ckpt}}}")
}

fn cmd_run(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let cfg = build_config(opts)?;
    let run_opts = parse_run_options(opts)?;
    let obs_opts = parse_obs_options(opts)?;
    let mut sim = match opts.get("resume") {
        Some(path) => Simulation::resume_with_key(cfg, Path::new(path), run_opts.ckpt_key)?,
        None => Simulation::new(cfg)?,
    };
    // Clone the shared recorder before `run_with` consumes the simulation
    // so the trace survives the run on every exit path.
    let rec = obs_opts.as_ref().map(|t| {
        let rec = sim.enable_tracing(t.ring_capacity, t.filter, t.metrics_every);
        if let Some(w) = t.metrics_window {
            rec.borrow_mut().metrics.set_window(Some(w));
        }
        rec
    });
    let result = sim.run_with(&run_opts);
    if let (Some(t), Some(rec)) = (&obs_opts, &rec) {
        match export_obs(t, rec) {
            Ok(()) => {}
            // A failed run is the more important error; a failed export
            // of a successful run is its own.
            Err(e) if result.is_ok() => return Err(e),
            Err(e) => eprintln!("telemetry export failed: {e}"),
        }
    }
    let report = match result {
        Ok(report) => report,
        Err(SimError::Interrupted { at, checkpoint }) => {
            eprintln!(
                "interrupted at memory cycle {at}{}",
                match &checkpoint {
                    Some(p) => format!("; checkpoint written to {}", p.display()),
                    None => "; no checkpoint directory configured".to_string(),
                }
            );
            emit_output(opts, &partial_report_json(at, checkpoint.as_deref()))?;
            return Ok(());
        }
        Err(e) => return Err(Box::new(e)),
    };
    if opts.has_flag("json") || opts.get("out").is_some() {
        emit_output(opts, &doram::core::report::report_json(&report))?;
    } else {
        print_report(&report);
    }
    Ok(())
}

fn cmd_sweep_c(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let bench = parse_benchmark(opts)?;
    let scale = Scale {
        ns_accesses: opts.get_u64("accesses", 1_500)?,
        seed: opts.get_u64("seed", 1)?,
        benchmarks: vec![bench],
    };
    let base = run_scheme(bench, Scheme::Baseline, &scale)?.ns_exec_mean();
    println!("{bench}: normalized NS execution time vs Baseline");
    let mut best = (0u32, f64::INFINITY);
    for c in 0..=7u32 {
        let t = run_scheme(bench, Scheme::DOram { k: 0, c }, &scale)?.ns_exec_mean() / base;
        if t < best.1 {
            best = (c, t);
        }
        println!("  c={c}: {t:.3}");
    }
    println!("best: c={} ({:.3})", best.0, best.1);
    Ok(())
}

fn cmd_profile(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let bench = parse_benchmark(opts)?;
    let p = profile(
        bench,
        ProfileScale {
            accesses: opts.get_u64("accesses", 1_000)?,
            seed: opts.get_u64("seed", 1)?,
            stream: 7,
        },
    )?;
    println!("{bench}: solo {:.1} cycles", p.solo_latency);
    println!("T33 {:.3}  T25 {:.3}  T25mix {:.3}", p.t33, p.t25, p.t25mix);
    println!(
        "r = {:.3} → {}",
        p.ratio(),
        if p.prefers_small_c() {
            "prefer small c (keep NS-Apps off the secure channel)"
        } else {
            "prefer large c (use all four channels)"
        }
    );
    Ok(())
}

const TRACE_USAGE: &str = "usage: doram-cli trace <summarize|validate> FILE [--min-accesses N]";

/// `doram-cli trace summarize FILE` / `trace validate FILE`: offline
/// inspection of a Chrome-trace file written by `run --trace-out`.
fn cmd_trace(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (Some(sub), Some(file)) = (args.first(), args.get(1)) else {
        return Err(TRACE_USAGE.into());
    };
    // The name is checked before the options, so a misspelt subcommand
    // is reported as such whatever follows it.
    let known: &[&str] = match sub.as_str() {
        "summarize" => &[],
        "validate" => &["min-accesses"],
        other => return Err(format!("unknown trace subcommand '{other}'\n{TRACE_USAGE}").into()),
    };
    let opts = Opts::parse(&args[2..])?.only(known)?;
    let path = Path::new(file);
    match sub.as_str() {
        "summarize" => {
            let summary = obs::summarize_file(path)?;
            println!("{summary}");
            Ok(())
        }
        "validate" => {
            let report = obs::validate_file(path)?;
            println!(
                "{}: {} trace events, {} complete ORAM accesses, {} mismatched, \
                 {} counter samples",
                path.display(),
                report.trace_events,
                report.complete_accesses,
                report.mismatched,
                report.counter_samples
            );
            if report.mismatched > 0 {
                return Err(format!(
                    "{} access span group(s) do not telescope",
                    report.mismatched
                )
                .into());
            }
            let min = opts.get_u64("min-accesses", 0)? as usize;
            if report.complete_accesses < min {
                return Err(format!(
                    "expected at least {min} complete ORAM access(es), found {}",
                    report.complete_accesses
                )
                .into());
            }
            Ok(())
        }
        _ => unreachable!("subcommand checked above"),
    }
}

const OBS_USAGE: &str = "usage: doram-cli obs report FILE
       doram-cli obs check-prom FILE
       doram-cli obs check-jsonl FILE";

/// `doram-cli obs <report|check-prom|check-jsonl>`: offline inspection of
/// the telemetry artifacts written by `run --obs-out` / `--prom-out` /
/// `--trace-out`.
fn cmd_obs(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (Some(sub), Some(file)) = (args.first(), args.get(1)) else {
        return Err(OBS_USAGE.into());
    };
    if !matches!(sub.as_str(), "report" | "check-prom" | "check-jsonl") {
        return Err(format!("unknown obs subcommand '{sub}'\n{OBS_USAGE}").into());
    }
    let path = Path::new(file);
    Opts::parse(&args[2..])?.only(&[])?;
    match sub.as_str() {
        "report" => {
            let text = std::fs::read_to_string(path)?;
            let report = obs::InterferenceReport::from_json(&text)?;
            print!("{}", report.render());
            if let Err((name, attributed, delay)) = report.check_conservation() {
                return Err(format!(
                    "blame conservation violated at '{name}': attributed {attributed} != queue delay {delay}"
                )
                .into());
            }
            Ok(())
        }
        "check-prom" => {
            let text = std::fs::read_to_string(path)?;
            match obs::validate_prometheus(&text) {
                Ok(samples) => {
                    println!("{}: {samples} Prometheus samples OK", path.display());
                    Ok(())
                }
                Err((line, msg)) => Err(format!("{}:{line}: {msg}", path.display()).into()),
            }
        }
        "check-jsonl" => {
            let text = std::fs::read_to_string(path)?;
            let lines = check_metrics_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("{}: {lines} metric samples OK", path.display());
            Ok(())
        }
        _ => unreachable!("subcommand checked above"),
    }
}

/// Validates a `<trace>.metrics.jsonl` sidecar: every non-empty line must
/// be a JSON object with an integer `cycle`, a string `metric`, and a
/// numeric `value`. Returns the number of samples.
fn check_metrics_jsonl(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = obs::json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if v.get("cycle").and_then(obs::json::JsonValue::as_u64).is_none() {
            return Err(format!("line {lineno}: missing integer 'cycle'"));
        }
        if v.get("metric").and_then(obs::json::JsonValue::as_str).is_none() {
            return Err(format!("line {lineno}: missing string 'metric'"));
        }
        if v.get("value").and_then(obs::json::JsonValue::as_f64).is_none() {
            return Err(format!("line {lineno}: missing numeric 'value'"));
        }
        samples += 1;
    }
    Ok(samples)
}

fn cmd_check(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let scale = Scale {
        ns_accesses: opts.get_u64("accesses", 800)?,
        seed: opts.get_u64("seed", 1)?,
        benchmarks: Scale::from_env()?.benchmarks,
    };
    let card = validation::validate(&scale)?;
    println!("{}", card.render());
    if card.structural_ok() {
        Ok(())
    } else {
        Err("structural claims failed".into())
    }
}

fn cmd_list(_: &Opts) -> Result<(), Box<dyn Error>> {
    println!("benchmarks (Table III):");
    for b in Benchmark::ALL {
        println!("  {:<8} MPKI {:>5.1}  {:?}", b.spec().name, b.spec().mpki, b.suite());
    }
    println!("\nschemes: solo | 7ns-4ch | 7ns-3ch | baseline | secmem | partition | doram (--k 0..3 --c 0..7)");
    println!("flags  : --merge (split-read merging) --pipeline (SD pipelining)");
    println!(
        "degraded mode: --parity (rebuild lost buckets from surviving sub-channels) \
         --scrub-every N (background scrub/probe period) \
         --probation-window N (cycles before a quarantined sub may probe back in) \
         --probation-successes N (clean probes required, default 4)"
    );
    println!(
        "chaos  : --chaos-sub I (sub-channel I turns hostile: 100% forged MACs) \
         --chaos-at N (onset cycle, default 10000)"
    );
    println!(
        "adversary: --adversary replay|relocate|rollback|mix (seeded attack bursts on the SD) \
         --adversary-sub I (target sub-channel, default 0) \
         --adversary-at N (onset cycle, default 10000) \
         --adversary-ppm N (in-burst rate, default 30000)"
    );
    println!(
        "crash-safety: --checkpoint-every N --checkpoint-dir DIR --resume FILE --watchdog N \
         --ckpt-key K (CMAC-authenticate checkpoints; resume requires the same key)"
    );
    println!(
        "tracing: --trace-out FILE (Perfetto JSON + metrics sidecars) \
         --trace-filter SUBS --metrics-every N --metrics-window N --trace-ring N"
    );
    println!("         subsystems: engine, link, sd, dram, stash, fault (comma-separated, or all/none)");
    println!(
        "observability: --obs-out FILE (interference report JSON: blame matrix + percentiles) \
         --prom-out FILE (Prometheus text snapshot); \
         inspect offline with `doram-cli obs report|check-prom|check-jsonl|compare`"
    );
    Ok(())
}

const USAGE: &str = "usage: doram-cli <run|sweep-c|profile|check|trace|obs|list> [--bench NAME] [--scheme NAME]
    [--k 0..3] [--c 0..7] [--accesses N] [--seed N] [--dummy-interval T]
    [--merge] [--pipeline] [--json] [--out FILE]
    [--parity] [--scrub-every N] [--probation-window N] [--probation-successes N]
    [--chaos-sub I] [--chaos-at N]
    [--adversary replay|relocate|rollback|mix] [--adversary-sub I] [--adversary-at N] [--adversary-ppm N]
    [--checkpoint-every N] [--checkpoint-dir DIR] [--resume FILE] [--watchdog N] [--ckpt-key K]
    [--trace-out FILE] [--trace-filter SUBS] [--metrics-every N] [--metrics-window N] [--trace-ring N]
    [--obs-out FILE] [--prom-out FILE]
       doram-cli trace <summarize|validate> FILE [--min-accesses N]
       doram-cli obs <report|check-prom|check-jsonl> FILE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if cmd == "trace" || cmd == "obs" {
        // Positional subcommand + file(s); parsed inside.
        let result = match cmd.as_str() {
            "trace" => cmd_trace(&args[1..]),
            _ => cmd_obs(&args[1..]),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // Each subcommand and the options it reads.
    type Command = fn(&Opts) -> Result<(), Box<dyn Error>>;
    let (command, known): (Command, &[&str]) = match cmd.as_str() {
        "run" => (cmd_run, RUN_OPTIONS),
        "sweep-c" => (cmd_sweep_c, &["bench", "accesses", "seed"]),
        "profile" => (cmd_profile, &["bench", "accesses", "seed"]),
        "check" => (cmd_check, &["accesses", "seed"]),
        "list" => (cmd_list, &[]),
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let opts = match Opts::parse(&args[1..]).and_then(|o| o.only(known)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let o = opts(&["--bench", "libq", "--merge", "--c", "3"]);
        assert_eq!(o.get("bench"), Some("libq"));
        assert_eq!(o.get("c"), Some("3"));
        assert!(o.has_flag("merge"));
        assert!(!o.has_flag("pipeline"));
        assert_eq!(o.get_u64("c", 7).unwrap(), 3);
        assert_eq!(o.get_u64("k", 0).unwrap(), 0);
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Opts::parse(&["oops".to_string()]).is_err());
    }

    #[test]
    fn rejects_options_a_command_does_not_read() {
        let err = opts(&["--ns-accesses", "5"]).only(RUN_OPTIONS).unwrap_err();
        assert!(err.contains("'--ns-accesses'"), "{err}");
        assert!(opts(&["--parity", "--accesses", "5"]).only(RUN_OPTIONS).is_ok());
        assert!(opts(&["--merge"]).only(&["bench", "accesses", "seed"]).is_err());
        // `run` accepts exactly the options its usage text lists.
        let run_usage = USAGE.split("doram-cli trace").next().unwrap();
        let listed: Vec<&str> = run_usage
            .split("[--")
            .skip(1)
            .map(|t| t.split([' ', ']']).next().unwrap())
            .collect();
        assert_eq!(listed, RUN_OPTIONS);
    }

    #[test]
    fn unknown_subcommands_are_named_before_options_are_parsed() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for extra in [&[][..], &["B"], &["--min-accesses", "1"]] {
            let obs = [&["compare", "A"][..], extra].concat();
            let err = cmd_obs(&args(&obs)).unwrap_err().to_string();
            assert!(err.starts_with("unknown obs subcommand 'compare'\n"), "{err}");
            assert!(err.ends_with(OBS_USAGE), "{err}");
            let trace = [&["bogus", "A"][..], extra].concat();
            let err = cmd_trace(&args(&trace)).unwrap_err().to_string();
            assert!(err.starts_with("unknown trace subcommand 'bogus'\n"), "{err}");
            assert!(err.ends_with(TRACE_USAGE), "{err}");
        }
        // A known subcommand still rejects what it does not read.
        let err = cmd_trace(&args(&["summarize", "A", "B"])).unwrap_err().to_string();
        assert!(err.contains("'B'"), "{err}");
    }

    #[test]
    fn rejects_u32_options_that_do_not_fit() {
        // 2^32 + 1 used to wrap to 1, so `--k 4294967297` ran D-ORAM+1.
        for key in ["--k", "--c", "--probation-successes", "--adversary-ppm"] {
            let err =
                build_config(&opts(&["--adversary", "replay", key, "4294967297"])).unwrap_err();
            assert!(err.starts_with(&format!("{key} expects")), "{err}");
        }
        assert_eq!(opts(&["--c", "4294967295"]).get_u32("c", 7), Ok(u32::MAX));
    }

    #[test]
    fn check_rejects_malformed_numbers() {
        // Both used to fall back to their defaults: 800 accesses, seed 1.
        for (key, args) in [
            ("--accesses", ["--accesses", "2k", "--seed", "3"]),
            ("--seed", ["--accesses", "200", "--seed", "x"]),
        ] {
            let err = cmd_check(&opts(&args)).unwrap_err().to_string();
            assert!(err.starts_with(&format!("{key} expects")), "{err}");
        }
    }

    #[test]
    fn experiment_commands_reject_zero_accesses() {
        // `check` and `profile` used to panic on the builder's error.
        let zero = opts(&["--accesses", "0"]);
        for command in [cmd_check, cmd_profile, cmd_sweep_c] {
            let err = command(&zero).unwrap_err().to_string();
            assert_eq!(err, "invalid configuration: NS traces must be non-empty");
        }
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme(&opts(&[])).unwrap(), Scheme::DOram { k: 0, c: 7 });
        assert_eq!(
            parse_scheme(&opts(&["--scheme", "doram", "--k", "2", "--c", "1"])).unwrap(),
            Scheme::DOram { k: 2, c: 1 }
        );
        assert_eq!(parse_scheme(&opts(&["--scheme", "baseline"])).unwrap(), Scheme::Baseline);
        assert!(parse_scheme(&opts(&["--scheme", "nope"])).is_err());
    }

    #[test]
    fn benchmark_parsing() {
        assert_eq!(parse_benchmark(&opts(&["--bench", "tigr"])).unwrap(), Benchmark::Tigr);
        assert!(parse_benchmark(&opts(&["--bench", "nope"])).is_err());
    }

    #[test]
    fn run_options_parsing() {
        let ro = parse_run_options(&opts(&[
            "--checkpoint-every",
            "5000",
            "--checkpoint-dir",
            "/tmp/ck",
            "--watchdog",
            "100000",
        ]))
        .unwrap();
        assert_eq!(ro.checkpoint_every, Some(5_000));
        assert_eq!(ro.checkpoint_dir, Some(PathBuf::from("/tmp/ck")));
        assert_eq!(ro.watchdog_budget, Some(100_000));
        assert!(ro.handle_signals);

        let ro = parse_run_options(&opts(&[])).unwrap();
        assert_eq!(ro.checkpoint_every, None);
        assert!(ro.handle_signals);

        assert!(parse_run_options(&opts(&["--watchdog", "soon"])).is_err());
        assert!(parse_run_options(&opts(&["--checkpoint-every", "x"])).is_err());
    }

    #[test]
    fn obs_options_parsing() {
        assert_eq!(parse_obs_options(&opts(&[])).unwrap(), None);
        let t = parse_obs_options(&opts(&[
            "--trace-out",
            "t.json",
            "--trace-filter",
            "sd,link",
            "--metrics-every",
            "500",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(t.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(t.obs_out, None);
        assert_eq!(t.metrics_every, 500);
        assert_eq!(t.metrics_window, None);
        assert_eq!(t.filter, obs::parse_filter("sd,link").unwrap());
        assert_eq!(t.ring_capacity, obs::DEFAULT_RING_CAPACITY);
        // Tuning knobs without an output are a user error, not silence.
        assert!(parse_obs_options(&opts(&["--trace-filter", "sd"])).is_err());
        assert!(parse_obs_options(&opts(&["--metrics-every", "100"])).is_err());
        assert!(parse_obs_options(&opts(&["--metrics-window", "4"])).is_err());
        assert!(
            parse_obs_options(&opts(&["--trace-out", "t.json", "--trace-filter", "bogus"]))
                .is_err()
        );
    }

    #[test]
    fn obs_outputs_enable_the_recorder_without_trace_out() {
        let t = parse_obs_options(&opts(&[
            "--obs-out",
            "r.json",
            "--prom-out",
            "m.prom",
            "--metrics-window",
            "64",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(t.trace_out, None);
        assert_eq!(t.obs_out, Some(PathBuf::from("r.json")));
        assert_eq!(t.prom_out, Some(PathBuf::from("m.prom")));
        assert_eq!(t.metrics_window, Some(64));
        assert_eq!(t.filter, obs::FILTER_ALL);
        // A zero window would panic inside the registry; reject it here.
        assert!(parse_obs_options(&opts(&["--obs-out", "r.json", "--metrics-window", "0"]))
            .is_err());
    }

    #[test]
    fn metrics_jsonl_checker() {
        let good = "{\"cycle\":10,\"metric\":\"stash.occupancy\",\"value\":3}\n\
                    {\"cycle\":20,\"metric\":\"stash.occupancy\",\"value\":4.5}\n";
        assert_eq!(check_metrics_jsonl(good).unwrap(), 2);
        assert_eq!(check_metrics_jsonl("\n\n").unwrap(), 0);
        assert!(check_metrics_jsonl("not json\n").is_err());
        assert!(check_metrics_jsonl("{\"cycle\":1,\"metric\":\"m\"}\n")
            .unwrap_err()
            .contains("value"));
        assert!(check_metrics_jsonl("{\"cycle\":-1,\"metric\":\"m\",\"value\":0}\n")
            .unwrap_err()
            .contains("cycle"));
    }

    #[test]
    fn partial_report_shape() {
        assert_eq!(
            partial_report_json(42, Some(Path::new("/tmp/c.dorc"))),
            "{\"status\":\"interrupted\",\"mem_cycles\":42,\"checkpoint\":\"/tmp/c.dorc\"}"
        );
        assert_eq!(
            partial_report_json(7, None),
            "{\"status\":\"interrupted\",\"mem_cycles\":7,\"checkpoint\":null}"
        );
    }

    #[test]
    fn config_building_honors_flags() {
        let cfg = build_config(&opts(&["--accesses", "500", "--merge", "--pipeline"])).unwrap();
        assert_eq!(cfg.ns_accesses, 500);
        assert!(cfg.merge_split_reads);
        assert!(cfg.sd_pipeline);
        assert!(build_config(&opts(&["--k", "9"])).is_err());
    }

    #[test]
    fn degraded_mode_flags() {
        // Defaults: everything off — bit-identical to the legacy run.
        let cfg = build_config(&opts(&[])).unwrap();
        assert!(!cfg.parity);
        assert_eq!(cfg.scrub_every, 0);
        assert_eq!(cfg.probation_window, 0);
        assert_eq!(cfg.probation_successes, 4);

        let cfg = build_config(&opts(&[
            "--parity",
            "--scrub-every",
            "5000",
            "--probation-window",
            "200000",
            "--probation-successes",
            "2",
        ]))
        .unwrap();
        assert!(cfg.parity);
        assert_eq!(cfg.scrub_every, 5_000);
        assert_eq!(cfg.probation_window, 200_000);
        assert_eq!(cfg.probation_successes, 2);

        // Validation: probation needs the scrubber's probes.
        assert!(build_config(&opts(&["--probation-window", "1000"])).is_err());
    }

    #[test]
    fn ckpt_key_parsing() {
        let ro = parse_run_options(&opts(&["--ckpt-key", "12345"])).unwrap();
        assert_eq!(ro.ckpt_key, Some(12_345));
        assert_eq!(parse_run_options(&opts(&[])).unwrap().ckpt_key, None);
        assert!(parse_run_options(&opts(&["--ckpt-key", "hunter2"])).is_err());
    }

    #[test]
    fn adversary_flags_install_attack_bursts() {
        use doram::sim::fault::FaultKind;
        let cfg = build_config(&opts(&["--adversary", "replay", "--seed", "9"])).unwrap();
        assert!(cfg.fault_plan.has_adversary());
        assert_eq!(cfg.fault_plan, adversary_fault_plan("replay", 9, 0, 10_000, 30_000).unwrap());

        // `mix` mounts all three attack kinds somewhere in the schedule.
        let mix = adversary_fault_plan("mix", 1, 0, 10_000, 30_000).unwrap();
        for kind in [
            FaultKind::ReplayStale,
            FaultKind::RelocateBucket,
            FaultKind::RollbackBurst,
        ] {
            assert!(
                mix.site_windows
                    .iter()
                    .any(|sw| sw.window.rates.rate(kind) > 0),
                "mix is missing {kind:?}"
            );
        }

        assert!(build_config(&opts(&["--adversary", "nope"])).is_err());
        assert!(build_config(&opts(&["--adversary", "replay", "--chaos-sub", "1"])).is_err());
    }

    #[test]
    fn chaos_flags_install_a_hostile_sub_plan() {
        // Default: no chaos, no fault plan.
        let cfg = build_config(&opts(&[])).unwrap();
        assert_eq!(cfg.fault_plan, doram::sim::fault::FaultPlan::none());

        let cfg = build_config(&opts(&[
            "--seed", "7", "--chaos-sub", "2", "--chaos-at", "5000", "--parity",
        ]))
        .unwrap();
        assert_eq!(cfg.fault_plan, hostile_sub_plan(7, 2, 5_000, u64::MAX));
        assert_ne!(cfg.fault_plan, doram::sim::fault::FaultPlan::none());

        assert!(build_config(&opts(&["--chaos-sub", "nope"])).is_err());
    }
}
