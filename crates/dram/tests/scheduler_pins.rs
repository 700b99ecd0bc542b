//! Pins the scheduler's decisions: one sub-channel, driven through a seeded
//! mixed stream, must issue exactly the recorded command sequence and
//! complete requests in exactly the recorded order, under every arbiter
//! and both page policies.
//!
//! The stream mixes reads and writes of both request classes over four
//! banks of four rows each (so row hits and same-bank conflicts are both
//! common), alternates heavy and light phases (the heavy ones fill the
//! write queue past the drain watermark, the light ones let reads run
//! dry), and runs long enough for four refreshes. Any change to which
//! command issues when moves a digest; a refactor of the scheduler must
//! leave all of them as they are.

use doram_dram::{
    CommandRecord, Completion, DeviceCommand, MemOp, MemRequest, PagePolicy, RequestClass,
    ShareArbiter, SubChannel, SubChannelConfig,
};
use doram_sim::rng::Xoshiro256;
use doram_sim::snapshot::fnv1a64;
use doram_sim::{AppId, MemCycle, RequestId};

/// Memory cycles simulated per case (tREFI is 6,240 cycles).
const CYCLES: u64 = 30_000;

/// Byte address of a line, in the default mapper's layout (64 B lines,
/// 128 lines per row, 8 banks).
fn line_addr(bank: u64, row: u64, col: u64) -> u64 {
    ((row * 8 + bank) * 128 + col) * 64
}

/// What one case's run produced.
struct Outcome {
    commands: Vec<CommandRecord>,
    completions: Vec<Completion>,
    writes_enqueued: u64,
    /// Whether the write queue was ever full (so past the drain
    /// watermark).
    write_queue_filled: bool,
}

fn drive(arbiter: ShareArbiter, page_policy: PagePolicy, seed: u64) -> Outcome {
    let cfg = SubChannelConfig {
        arbiter,
        page_policy,
        ..SubChannelConfig::default()
    };
    let mut sc = SubChannel::new(cfg);
    sc.enable_command_trace();
    let mut rng = Xoshiro256::seed_from(seed);
    let mut completions = Vec::new();
    let (mut next_id, mut writes_enqueued, mut write_queue_filled) = (0, 0, false);
    for now in 0..CYCLES {
        let heavy = (now / 1_500) % 2 == 0;
        if rng.gen_bool(if heavy { 0.22 } else { 0.04 }) {
            let op = if rng.gen_bool(0.45) {
                MemOp::Write
            } else {
                MemOp::Read
            };
            let class = if rng.gen_bool(0.5) {
                RequestClass::Oram
            } else {
                RequestClass::Normal
            };
            let addr = line_addr(rng.gen_below(4), rng.gen_below(4), rng.gen_below(16));
            let req = MemRequest {
                id: RequestId(next_id),
                app: AppId(0),
                op,
                addr,
                class,
                arrival: MemCycle(now),
            };
            if sc.enqueue(req).is_ok() {
                next_id += 1;
                writes_enqueued += u64::from(op == MemOp::Write);
            }
        }
        write_queue_filled |= !sc.can_accept_write();
        sc.tick(MemCycle(now), &mut completions);
    }
    Outcome {
        commands: sc.take_command_trace(),
        completions,
        writes_enqueued,
        write_queue_filled,
    }
}

fn command_digest(commands: &[CommandRecord]) -> u64 {
    let mut bytes = Vec::with_capacity(commands.len() * 25);
    for c in commands {
        bytes.extend_from_slice(&c.cycle.to_le_bytes());
        bytes.push(c.command as u8);
        bytes.extend_from_slice(&(c.bank as u64).to_le_bytes());
        bytes.extend_from_slice(&c.row.to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn completion_digest(completions: &[Completion]) -> u64 {
    let mut bytes = Vec::with_capacity(completions.len() * 16);
    for c in completions {
        bytes.extend_from_slice(&c.request.id.0.to_le_bytes());
        bytes.extend_from_slice(&c.finished.0.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// (arbiter, page policy, command count, command digest, completion
/// count, completion digest).
type Pin = (&'static str, PagePolicy, usize, u64, usize, u64);

const PINS: [Pin; 6] = [
    (
        "disabled",
        PagePolicy::Open,
        6255,
        0xfc1fb5c8ddd459a6,
        3333,
        0x987d5ba11d89d886,
    ),
    (
        "disabled",
        PagePolicy::Closed,
        6568,
        0x3c4a3688916be5c9,
        3363,
        0x634b9007f8416d77,
    ),
    (
        "paper_default",
        PagePolicy::Open,
        4829,
        0x6c1e5b7a006dbf6b,
        2547,
        0xed0cd56354000e79,
    ),
    (
        "paper_default",
        PagePolicy::Closed,
        4910,
        0x3b346568af6fb125,
        2528,
        0x3e5e3fc52fdd413f,
    ),
    (
        "oram_priority",
        PagePolicy::Open,
        895,
        0x1656e3c8e6f8712a,
        599,
        0xb3d97341ea91203c,
    ),
    (
        "oram_priority",
        PagePolicy::Closed,
        858,
        0xab51f7fda294570b,
        570,
        0x4dfdfdfa0b264cce,
    ),
];

fn arbiter(name: &str) -> ShareArbiter {
    match name {
        "disabled" => ShareArbiter::disabled(),
        "paper_default" => ShareArbiter::paper_default(),
        "oram_priority" => ShareArbiter::oram_priority(),
        other => panic!("unknown arbiter {other}"),
    }
}

#[test]
fn scheduler_decisions_are_pinned() {
    let mut mismatches = Vec::new();
    for &(name, policy, n_cmd, cmd_hash, n_done, done_hash) in &PINS {
        let out = drive(arbiter(name), policy, 0x5eed);
        // The stream must reach the paths it is meant to pin.
        let count = |kind: DeviceCommand| out.commands.iter().filter(|c| c.command == kind).count();
        assert!(
            count(DeviceCommand::Refresh) >= 4,
            "{name}/{policy:?}: too few refreshes"
        );
        assert!(
            count(DeviceCommand::Precharge) > 50,
            "{name}/{policy:?}: too few precharges"
        );
        assert!(
            out.writes_enqueued > 300,
            "{name}/{policy:?}: too few writes"
        );
        assert!(
            out.write_queue_filled,
            "{name}/{policy:?}: the write queue never filled"
        );
        let got = (
            out.commands.len(),
            command_digest(&out.commands),
            out.completions.len(),
            completion_digest(&out.completions),
        );
        if got != (n_cmd, cmd_hash, n_done, done_hash) {
            mismatches.push(format!(
                "(\"{name}\", PagePolicy::{policy:?}, {}, {:#018x}, {}, {:#018x}),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "scheduler decisions moved; the runs now give:\n{}",
        mismatches.join("\n")
    );
}
