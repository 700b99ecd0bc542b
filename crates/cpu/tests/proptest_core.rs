//! Property tests for the ROB core.

use doram_cpu::{CoreConfig, MemoryPort, TraceCore};
use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use doram_sim::RequestId;
use doram_trace::{AccessOp, TraceRecord};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

/// A memory port answering reads after a fixed delay, refusing nothing.
struct DelayPort {
    delay: u64,
    now: u64,
    next_id: u64,
    inflight: VecDeque<(u64, RequestId)>,
    reads: u64,
    writes: u64,
}

impl DelayPort {
    fn new(delay: u64) -> DelayPort {
        DelayPort {
            delay,
            now: 0,
            next_id: 0,
            inflight: VecDeque::new(),
            reads: 0,
            writes: 0,
        }
    }
    fn ready(&mut self) -> Vec<RequestId> {
        let mut out = Vec::new();
        while let Some(&(t, id)) = self.inflight.front() {
            if t <= self.now {
                self.inflight.pop_front();
                out.push(id);
            } else {
                break;
            }
        }
        out
    }
}

impl MemoryPort for DelayPort {
    fn try_read(&mut self, _addr: u64) -> Option<RequestId> {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.reads += 1;
        self.inflight.push_back((self.now + self.delay, id));
        Some(id)
    }
    fn try_write(&mut self, _addr: u64) -> bool {
        self.writes += 1;
        true
    }
}

fn gen_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (0u64..40, any::<bool>(), 0u64..1_000).prop_map(|(gap, w, line)| TraceRecord {
            gap,
            op: if w { AccessOp::Write } else { AccessOp::Read },
            addr: line * 64,
        }),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core retires exactly the trace's instruction count and issues
    /// exactly its memory operations, for any trace and memory delay.
    #[test]
    fn retirement_conservation(trace in gen_trace(), delay in 1u64..80) {
        let expect_instr: u64 = trace.iter().map(|r| r.instructions()).sum();
        let expect_reads = trace.iter().filter(|r| r.op == AccessOp::Read).count() as u64;
        let expect_writes = trace.len() as u64 - expect_reads;

        let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace.into_iter()));
        let mut port = DelayPort::new(delay);
        let mut cycles = 0u64;
        while !core.finished() {
            prop_assert!(cycles < 1_000_000, "liveness");
            for id in port.ready() {
                core.complete_read(id);
            }
            core.step(&mut port);
            port.now += 1;
            cycles += 1;
        }
        prop_assert_eq!(core.retired(), expect_instr);
        prop_assert_eq!(port.reads, expect_reads);
        prop_assert_eq!(port.writes, expect_writes);
    }

    /// The core drains, and leaves no read outstanding, however
    /// completions arrive: early, twice, or for ids the core never issued.
    #[test]
    fn noisy_completions_drain_the_rob(
        trace in gen_trace(),
        delay in 1u64..60,
        noise in prop::collection::vec((0u8..4, 0u64..1_000), 1..64),
    ) {
        let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace.into_iter()));
        let mut port = DelayPort::new(delay);
        let mut completed: Vec<RequestId> = Vec::new();
        let mut cycles = 0usize;
        while !core.finished() {
            prop_assert!(cycles < 1_000_000, "liveness");
            for id in port.ready() {
                core.complete_read(id);
                completed.push(id);
            }
            let (kind, x) = noise[cycles % noise.len()];
            match kind {
                // A duplicate of a completion already delivered.
                1 if !completed.is_empty() => {
                    core.complete_read(completed[x as usize % completed.len()]);
                }
                // An id the core never issued.
                2 => core.complete_read(RequestId(1_000_000 + x)),
                // A read still in flight completes early; its on-time
                // delivery later is then a duplicate.
                3 if !port.inflight.is_empty() => {
                    let (_, id) = port.inflight[x as usize % port.inflight.len()];
                    core.complete_read(id);
                    completed.push(id);
                }
                _ => {}
            }
            core.step(&mut port);
            port.now += 1;
            cycles += 1;
        }
        prop_assert_eq!(core.outstanding_reads().count(), 0);
    }

    /// Slower memory never makes the core finish faster.
    #[test]
    fn monotone_in_memory_latency(trace in gen_trace()) {
        let time = |delay: u64, trace: Vec<TraceRecord>| {
            let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace.into_iter()));
            let mut port = DelayPort::new(delay);
            let mut cycles = 0u64;
            while !core.finished() {
                for id in port.ready() {
                    core.complete_read(id);
                }
                core.step(&mut port);
                port.now += 1;
                cycles += 1;
            }
            cycles
        };
        let fast = time(2, trace.clone());
        let slow = time(100, trace);
        prop_assert!(slow >= fast, "slow memory finished sooner: {slow} < {fast}");
    }

}

/// SplitMix64's finalizer: a seeded, stateless schedule.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One port call: cycle, whether it was a write, address, accepted.
type Call = (u64, bool, u64, bool);

/// A port on a seeded script: it refuses reads in about a quarter of the
/// cycles and writes in about a third, completes each read 1–400 cycles
/// after issue (so out of order), and logs every call with its cycle.
struct ScriptPort {
    seed: u64,
    now: u64,
    next_id: u64,
    inflight: Vec<(u64, RequestId)>,
    calls: Vec<Call>,
}

impl ScriptPort {
    fn new(seed: u64) -> ScriptPort {
        ScriptPort {
            seed,
            now: 0,
            next_id: 0,
            inflight: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// Removes and returns the reads that complete at `now`.
    fn due(&mut self) -> Vec<RequestId> {
        let now = self.now;
        let (due, later): (Vec<_>, Vec<_>) = self.inflight.iter().partition(|(t, _)| *t <= now);
        self.inflight = later;
        due.into_iter().map(|(_, id)| id).collect()
    }

    /// Cycles from `now` to the next completion.
    fn until_next_completion(&self) -> u64 {
        self.inflight
            .iter()
            .map(|&(t, _)| t - self.now)
            .min()
            .unwrap_or(u64::MAX)
    }
}

impl MemoryPort for ScriptPort {
    fn try_read(&mut self, addr: u64) -> Option<RequestId> {
        let accepted = !mix(self.seed ^ self.now.wrapping_mul(3)).is_multiple_of(4);
        self.calls.push((self.now, false, addr, accepted));
        if !accepted {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let delay = 1 + mix(self.seed.wrapping_add(id.0)) % 400;
        self.inflight.push((self.now + delay, id));
        Some(id)
    }
    fn try_write(&mut self, addr: u64) -> bool {
        let accepted = !mix(!self.seed ^ self.now.wrapping_mul(5)).is_multiple_of(3);
        self.calls.push((self.now, true, addr, accepted));
        accepted
    }
}

fn saved(core: &TraceCore) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    core.save_state(&mut w);
    w.into_bytes()
}

/// A fresh core of `cfg` restored from `bytes`, its trace fast-forwarded.
fn restored(cfg: CoreConfig, trace: &[TraceRecord], bytes: &[u8]) -> TraceCore {
    let mut core = TraceCore::new(cfg, Box::new(Vec::new().into_iter()));
    let mut r = SnapshotReader::new(bytes);
    core.load_state(&mut r).expect("loads");
    r.finish().expect("no trailing bytes");
    core.resume_trace(Box::new(Vec::from(trace).into_iter()))
        .expect("trace long enough");
    core
}

/// Runs a core stepped every cycle beside one that takes in bulk every
/// stretch its quiet horizon allows before the next read completes, each
/// on its own copy of the script.
fn bulk_matches_stepping(
    cfg: CoreConfig,
    trace: &[TraceRecord],
    seed: u64,
) -> Result<(), TestCaseError> {
    let core = || TraceCore::new(cfg, Box::new(Vec::from(trace).into_iter()));
    let (mut stepped, mut bulk) = (core(), core());
    let (mut sp, mut bp) = (ScriptPort::new(seed), ScriptPort::new(seed));
    while !stepped.finished() {
        prop_assert!(sp.now < 2_000_000, "liveness");
        for id in sp.due() {
            stepped.complete_read(id);
        }
        for id in bp.due() {
            bulk.complete_read(id);
        }
        let stretch = bulk.quiet_horizon().min(bp.until_next_completion());
        if stretch == 0 {
            stepped.step(&mut sp);
            bulk.step(&mut bp);
            sp.now += 1;
            bp.now += 1;
        } else {
            let start = saved(&stepped);
            let mut marks = Vec::new();
            let mut last_retiring = 0;
            for i in 1..=stretch {
                let before = stepped.retired();
                stepped.step(&mut sp);
                sp.now += 1;
                if stepped.retired() > before {
                    last_retiring = i;
                }
                if i == 1 || i == stretch / 2 || i + 1 == stretch {
                    marks.push((i, saved(&stepped)));
                }
            }
            prop_assert_eq!(bulk.advance_quiet(stretch), last_retiring);
            bp.now += stretch;
            // A core restored at the stretch's start or anywhere inside it
            // takes the rest of it in bulk just the same.
            marks.push((0, start));
            for (i, bytes) in marks {
                let mut core = restored(cfg, trace, &bytes);
                prop_assert!(core.quiet_horizon() >= stretch - i);
                core.advance_quiet(stretch - i);
                prop_assert_eq!(saved(&core), saved(&stepped), "restored {} cycles in", i);
            }
        }
        prop_assert_eq!(&bp.calls, &sp.calls, "port calls at cycle {}", sp.now);
        prop_assert_eq!(bulk.retired(), stepped.retired());
        prop_assert_eq!(saved(&bulk), saved(&stepped), "state at cycle {}", sp.now);
    }
    prop_assert!(bulk.finished());
    Ok(())
}

/// Reads and writes with gaps of 0–300 instructions, a quarter of them
/// under 8 so that fetch and retirement often meet an access within one
/// cycle's width.
fn gen_long_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (0u64..300, 0u8..4, any::<bool>(), 0u64..1_000).prop_map(|(gap, short, w, line)| {
            TraceRecord {
                gap: if short == 0 { gap % 8 } else { gap },
                op: if w { AccessOp::Write } else { AccessOp::Read },
                addr: line * 64,
            }
        }),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Taking each quiet stretch in bulk makes the same port calls in the
    /// same cycles and leaves the same retired count and snapshot bytes as
    /// stepping every cycle, for the default core and for small ones.
    #[test]
    fn bulk_quiet_stretches_match_stepping(
        trace in gen_long_trace(),
        seed in any::<u64>(),
        (rob_size, fetch_width, retire_width) in (1usize..40, 1usize..7, 1usize..7),
    ) {
        bulk_matches_stepping(CoreConfig::default(), &trace, seed)?;
        let small = CoreConfig { rob_size, fetch_width, retire_width };
        bulk_matches_stepping(small, &trace, seed)?;
    }
}
