//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each submodule reproduces one exhibit: it runs the required simulations
//! and returns typed rows plus a plain-text rendering in the paper's
//! layout. The experiment binaries in `doram-bench` are thin wrappers
//! around these functions, so the tests exercise the binaries' code
//! paths.
//!
//! Every simulation goes through one runner, [`simulate`], which runs
//! each configuration once per process and hands the same report to
//! every exhibit that asks for it again. The exhibits compare a small
//! set of runs per benchmark (1NS, 7NS-3ch/4ch, Baseline, SecMem,
//! D-ORAM/c, D-ORAM+k), so each one asks for the runs it needs and the
//! runner does the sharing: Figure 9 reads its /X values from the
//! Figure 11 sweep, and Figure 12 reads Figure 8's profiles.
//!
//! | Module | Exhibit | Content |
//! |---|---|---|
//! | [`fig4`] | Figure 4 | NS-App degradation under co-run settings |
//! | [`fig8`] | Figure 8 | profiled channel-latency slowdowns |
//! | [`fig9`] | Figure 9 | Normalized execution time of the D-ORAM family |
//! | [`fig10`] | Figure 10 | Overhead of expanding the tree (+k) |
//! | [`fig11`] | Figure 11 | Secure-channel sharing sweep (c = 0..7) |
//! | [`fig12`] | Figure 12 | T25mix/T33 ratio vs best c |
//! | [`fig13`] | Figure 13 | NS-App read/write latency reduction |
//! | [`table1`] | Table I | Tree-split space and message accounting |
//! | [`ablations`] | — | design-choice sweeps beyond the paper |
//! | [`sapp`] | §V-E | S-App latency/throughput impact |
//! | [`validation`] | all | machine-checked reproduction scorecard |
//! | [`table3`] | Table III | Benchmark MPKIs (spec vs measured) |
//!
//! Absolute numbers differ from the paper (synthetic traces, scaled runs);
//! the *shapes* — orderings, approximate factors, crossovers — are the
//! reproduction targets recorded in `EXPERIMENTS.md`.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod sapp;
pub mod table1;
pub mod table3;
pub mod validation;

use crate::config::{Scheme, SystemConfig, SystemConfigBuilder};
use crate::metrics::RunReport;
use crate::system::{SimError, Simulation};
use doram_sim::ConfigError;
use doram_trace::Benchmark;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Scale of an experiment sweep.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Memory accesses per NS-App trace.
    pub ns_accesses: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Benchmarks to sweep (default: all fifteen).
    pub benchmarks: Vec<Benchmark>,
}

impl Scale {
    /// Fast scale for unit tests: two representative benchmarks, short
    /// traces.
    pub fn quick() -> Scale {
        Scale {
            ns_accesses: 800,
            seed: 1,
            benchmarks: vec![Benchmark::Mummer, Benchmark::Libq],
        }
    }

    /// The default reproduction scale: all benchmarks, traces long enough
    /// for stable shapes (minutes of wall clock for the big sweeps).
    pub fn full() -> Scale {
        Scale {
            ns_accesses: 2_000,
            seed: 1,
            benchmarks: Benchmark::ALL.to_vec(),
        }
    }

    /// Reads `DORAM_ACCESSES` (trace length) and `DORAM_BENCH`
    /// (comma-separated benchmark names) from the environment; an unset
    /// variable keeps [`Scale::full`]'s value.
    ///
    /// # Errors
    ///
    /// Names the variable and the value [`Scale::parse`] rejects.
    pub fn from_env() -> Result<Scale, String> {
        let accesses = std::env::var("DORAM_ACCESSES").ok();
        let benchmarks = std::env::var("DORAM_BENCH").ok();
        Scale::parse(accesses.as_deref(), benchmarks.as_deref())
    }

    /// [`Scale::from_env`] given the two variables' values: `accesses`
    /// must be a positive number and every name in `benchmarks` a
    /// benchmark, swept in Table III order.
    ///
    /// # Errors
    ///
    /// Names the variable and the value it rejects.
    pub fn parse(accesses: Option<&str>, benchmarks: Option<&str>) -> Result<Scale, String> {
        let mut scale = Scale::full();
        if let Some(n) = accesses {
            match n.parse() {
                Ok(n) if n > 0 => scale.ns_accesses = n,
                _ => {
                    return Err(format!(
                        "DORAM_ACCESSES expects a positive number, got '{n}'"
                    ))
                }
            }
        }
        if let Some(list) = benchmarks {
            scale.benchmarks = Benchmark::ALL
                .into_iter()
                .filter(|b| list.split(',').any(|n| n.trim() == b.spec().name))
                .collect();
            // A listed name that selected no benchmark is not one.
            let names = || scale.benchmarks.iter().map(|b| b.spec().name);
            let mut listed = list.split(',').map(str::trim);
            if let Some(bad) = listed.find(|&n| !names().any(|b| b == n)) {
                return Err(format!("DORAM_BENCH names an unknown benchmark '{bad}'"));
            }
        }
        Ok(scale)
    }
}

/// Why an experiment produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The builder rejected a configuration (for example zero accesses).
    Config(ConfigError),
    /// A simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Config(e) => e.fmt(f),
            ExperimentError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ConfigError> for ExperimentError {
    fn from(e: ConfigError) -> ExperimentError {
        ExperimentError::Config(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> ExperimentError {
        ExperimentError::Sim(e)
    }
}

/// Maps `f` over the benchmarks of `scale`, running up to
/// `std::thread::available_parallelism()` simulations concurrently
/// (each simulation is single-threaded and deterministic, so parallel
/// sweeps return bit-identical results in benchmark order).
///
/// # Errors
///
/// Propagates the first error in benchmark order.
pub fn par_over_benchmarks<T: Send>(
    scale: &Scale,
    f: impl Fn(Benchmark) -> Result<T, ExperimentError> + Sync,
) -> Result<Vec<T>, ExperimentError> {
    let benches = &scale.benchmarks;
    let mut results: Vec<Option<Result<T, ExperimentError>>> = Vec::new();
    results.resize_with(benches.len(), || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots = std::sync::Mutex::new(&mut results);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(benches.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= benches.len() {
                    break;
                }
                let r = f(benches[i]);
                slots.lock().expect("no panics hold the lock")[i] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}

/// Runs the configuration `cfg` builds, once per process: every later
/// call whose configuration has the same `Debug` text (every field, the
/// text checkpoint config hashes cover) gets the first call's report.
/// Simulations are deterministic, so a shared report equals a fresh
/// run's. Concurrent calls for one configuration wait for a single run.
///
/// # Errors
///
/// Returns the builder's [`ConfigError`] for an invalid configuration and
/// the simulation's error for a failed run.
pub fn simulate(cfg: SystemConfigBuilder) -> Result<Arc<RunReport>, ExperimentError> {
    type Slot = Arc<OnceLock<Result<Arc<RunReport>, ExperimentError>>>;
    static MEMO: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());
    let cfg = cfg.build()?;
    let slot = Arc::clone(
        MEMO.lock()
            .expect("no panics hold the lock")
            .entry(format!("{cfg:?}"))
            .or_default(),
    );
    slot.get_or_init(|| Ok(Arc::new(Simulation::new(cfg)?.run()?)))
        .clone()
}

/// The configuration the exhibits run: `scheme` on `benchmark` at
/// `scale`, every other knob at the paper's setting.
pub fn config_for(benchmark: Benchmark, scheme: Scheme, scale: &Scale) -> SystemConfigBuilder {
    SystemConfig::builder(benchmark)
        .scheme(scheme)
        .ns_accesses(scale.ns_accesses)
        .seed(scale.seed)
}

/// Runs `scheme` on `benchmark` at `scale` through [`simulate`].
///
/// # Errors
///
/// As [`simulate`].
pub fn run_scheme(
    benchmark: Benchmark,
    scheme: Scheme,
    scale: &Scale,
) -> Result<Arc<RunReport>, ExperimentError> {
    simulate(config_for(benchmark, scheme, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_constructors() {
        assert_eq!(Scale::full().benchmarks.len(), 15);
        assert!(Scale::quick().ns_accesses < Scale::full().ns_accesses);
    }

    #[test]
    fn env_scale_parsing() {
        let s = Scale::parse(None, None).unwrap();
        assert_eq!((s.ns_accesses, s.benchmarks.len()), (2_000, 15));
        // Table III order, whatever the order of the list.
        let s = Scale::parse(Some("300"), Some("mummer, libq")).unwrap();
        assert_eq!(s.ns_accesses, 300);
        assert_eq!(s.benchmarks, [Benchmark::Libq, Benchmark::Mummer]);
        // A bad value is named with its variable, never replaced by a
        // default.
        let accesses = |v| Scale::parse(Some(v), None).unwrap_err();
        let benchmarks = |v| Scale::parse(None, Some(v)).unwrap_err();
        let want = "DORAM_ACCESSES expects a positive number, got";
        assert_eq!(accesses("2k"), format!("{want} '2k'"));
        assert_eq!(accesses("0"), format!("{want} '0'"));
        assert_eq!(accesses(""), format!("{want} ''"));
        let want = "DORAM_BENCH names an unknown benchmark";
        assert_eq!(benchmarks("mummer,lbq"), format!("{want} 'lbq'"));
        assert_eq!(benchmarks("mumer"), format!("{want} 'mumer'"));
        assert_eq!(benchmarks(""), format!("{want} ''"));
    }
}
