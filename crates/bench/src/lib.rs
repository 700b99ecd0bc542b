#![warn(missing_docs)]

//! Shared helpers for the experiment binaries.
//!
//! Every binary regenerates one exhibit of the paper (see the
//! [`doram_core::experiments`] module for the experiment definitions) and
//! honors the same environment knobs:
//!
//! * `DORAM_ACCESSES` — NS-App trace length (default 2000);
//! * `DORAM_BENCH` — comma-separated benchmark subset (default: all 15).
//!
//! The binaries that write a checked-in `BENCH_*.json` baseline write it
//! into `DORAM_BENCH_OUT` when that variable is set.

use doram_core::experiments::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Writes `csv` to `$DORAM_CSV/<exhibit>.csv` when the variable is set.
/// The write is crash-consistent (temp file + fsync + atomic rename), so
/// a killed sweep never leaves a truncated CSV behind.
///
/// # Panics
///
/// Panics if the directory is not writable (the operator asked for CSVs).
pub fn maybe_write_csv(exhibit: &str, csv: &str) {
    if let Ok(dir) = std::env::var("DORAM_CSV") {
        let path = std::path::Path::new(&dir).join(format!("{exhibit}.csv"));
        doram_sim::snapshot::write_atomic(&path, csv.as_bytes()).expect("write CSV");
        eprintln!("[{exhibit}] wrote {}", path.display());
    }
}

/// Writes a `BENCH_*.json` baseline named `file` into `$DORAM_BENCH_OUT`,
/// or the working directory when the variable is unset, with the same
/// crash-consistent write as [`maybe_write_csv`].
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_baseline(exhibit: &str, file: &str, json: &str) {
    let path = std::env::var_os("DORAM_BENCH_OUT")
        .map_or_else(|| PathBuf::from(file), |dir| Path::new(&dir).join(file));
    doram_sim::snapshot::write_atomic(&path, json.as_bytes()).expect("write baseline");
    eprintln!("[{exhibit}] wrote {}", path.display());
}

/// Resolves the sweep scale from the environment and announces it; the
/// scale names at least one benchmark. A malformed `DORAM_ACCESSES` or
/// `DORAM_BENCH` ends the process with exit status 1, naming the
/// variable.
pub fn announce(exhibit: &str) -> Scale {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("[{exhibit}] error: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "[{exhibit}] {} benchmarks × {} accesses/NS-App (set DORAM_BENCH / DORAM_ACCESSES to change)",
        scale.benchmarks.len(),
        scale.ns_accesses
    );
    scale
}

/// Runs `f`, printing its rendering and the elapsed wall time.
///
/// # Errors
///
/// Propagates the experiment error.
pub fn emit<E: std::fmt::Display>(
    exhibit: &str,
    f: impl FnOnce() -> Result<String, E>,
) -> Result<(), E> {
    let start = Instant::now();
    let text = f()?;
    println!("{text}");
    eprintln!("[{exhibit}] done in {:.1}s", start.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_returns_scale() {
        let s = announce("test");
        assert!(!s.benchmarks.is_empty());
    }

    #[test]
    fn csv_written_when_env_set() {
        let dir = std::env::temp_dir().join("doram-csv-test");
        // SAFETY: test-local env mutation; no other thread in this test
        // binary reads DORAM_CSV concurrently.
        unsafe { std::env::set_var("DORAM_CSV", &dir) };
        maybe_write_csv("unit", "a,b\n1,2\n");
        let got = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(got, "a,b\n1,2\n");
        unsafe { std::env::remove_var("DORAM_CSV") };
    }

    #[test]
    fn emit_prints_and_propagates() {
        assert!(emit::<std::fmt::Error>("t", || Ok("x".into())).is_ok());
        assert!(emit("t", || Err(std::fmt::Error)).is_err());
    }
}
