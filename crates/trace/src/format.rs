//! Text serialization of traces, in the spirit of USIMM's input format.
//!
//! Each line is one record:
//!
//! ```text
//! <gap> R <hex address>
//! <gap> W <hex address>
//! ```
//!
//! where `gap` is the number of non-memory instructions preceding the
//! access. Lines starting with `#` and blank lines are ignored. This lets
//! generated workloads be exported for external tools (or real post-LLC
//! traces be imported and replayed through the simulator).

use crate::record::{AccessOp, TraceRecord};

/// A parse failure, with the offending 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes records to the text format.
pub fn write_trace<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = String::new();
    for r in records {
        let op = match r.op {
            AccessOp::Read => 'R',
            AccessOp::Write => 'W',
        };
        out.push_str(&format!("{} {} {:#x}\n", r.gap, op, r.addr));
    }
    out
}

/// Parses the text format.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let err = |message: String| ParseTraceError { line, message };
        let gap: u64 = parts
            .next()
            .ok_or_else(|| err("missing gap".into()))?
            .parse()
            .map_err(|e| err(format!("bad gap: {e}")))?;
        let op = match parts.next() {
            Some("R") | Some("r") => AccessOp::Read,
            Some("W") | Some("w") => AccessOp::Write,
            Some(other) => return Err(err(format!("bad op '{other}' (expected R or W)"))),
            None => return Err(err("missing op".into())),
        };
        let addr_str = parts.next().ok_or_else(|| err("missing address".into()))?;
        let addr = if let Some(hex) = addr_str.strip_prefix("0x").or(addr_str.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).map_err(|e| err(format!("bad address: {e}")))?
        } else {
            addr_str
                .parse()
                .map_err(|e| err(format!("bad address: {e}")))?
        };
        if parts.next().is_some() {
            return Err(err("trailing tokens".into()));
        }
        out.push(TraceRecord { gap, op, addr });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::generator::TraceGenerator;

    #[test]
    fn round_trip_generated_trace() {
        let mut g = TraceGenerator::new(Benchmark::Swapt.spec(), 3, 0);
        let records = g.take_records(500);
        let text = write_trace(&records);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n10 R 0x40\n  \n0 W 64\n";
        let parsed = parse_trace(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].gap, 10);
        assert_eq!(parsed[0].addr, 0x40);
        assert_eq!(parsed[1].op, AccessOp::Write);
        assert_eq!(parsed[1].addr, 64, "decimal addresses accepted");
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(parse_trace("x R 0x40").unwrap_err().line, 1);
        let e = parse_trace("0 R 0x40\n5 Q 0x80").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad op"));
        assert!(e.to_string().contains("line 2"));
        assert!(parse_trace("0 R")
            .unwrap_err()
            .message
            .contains("missing address"));
        assert!(parse_trace("0 R 0x40 junk")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(parse_trace("0 R 0xZZ")
            .unwrap_err()
            .message
            .contains("bad address"));
        assert!(parse_trace("0").unwrap_err().message.contains("missing op"));
    }

    #[test]
    fn written_form_is_stable() {
        let r = TraceRecord {
            gap: 7,
            op: AccessOp::Read,
            addr: 0x1240,
        };
        assert_eq!(write_trace(std::iter::once(&r)), "7 R 0x1240\n");
    }
}
