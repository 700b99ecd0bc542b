//! Property tests for the trace text format.

use doram_trace::{parse_trace, write_trace, AccessOp, TraceRecord};
use proptest::prelude::*;

fn gen_records() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (any::<u32>(), any::<bool>(), 0u64..(1 << 40)).prop_map(|(gap, w, line)| TraceRecord {
            gap: gap as u64,
            op: if w { AccessOp::Write } else { AccessOp::Read },
            addr: line * 64,
        }),
        0..200,
    )
}

proptest! {
    /// write → parse is the identity for any record set.
    #[test]
    fn round_trip(records in gen_records()) {
        let text = write_trace(&records);
        let parsed = parse_trace(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }

    /// The parser never panics on arbitrary input — it returns a
    /// line-numbered error instead.
    #[test]
    fn parser_total_on_garbage(text in ".{0,300}") {
        let _ = parse_trace(&text);
    }

    /// Error line numbers point at the offending line.
    #[test]
    fn error_line_numbers(good_lines in 0usize..20) {
        let mut text = String::new();
        for i in 0..good_lines {
            text.push_str(&format!("{i} R 0x{:x}\n", i * 64));
        }
        text.push_str("not a record\n");
        let e = parse_trace(&text).unwrap_err();
        prop_assert_eq!(e.line, good_lines + 1);
    }
}
