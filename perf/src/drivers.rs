//! Isolated layer drivers. Each one calls a single layer's public entry
//! point in a loop, outside the full system, with the workload's
//! configuration and trace. A driver rep is one [`Span`] around a fixed
//! number of calls; every layer runs [`REPS`] reps and reports the median
//! and quartiles of the time per call.
//!
//! A driver runs only on workloads whose simulation calls its layer: the
//! secure channel, its crypto and the BOB channels under D-ORAM, the
//! on-chip controller under the Baseline, direct channels everywhere else,
//! and the Merkle build where the fault plan arms the adversary. Elsewhere
//! its metric reads 0, as an off-path count does.

use crate::stats::Quartiles;
use crate::workload::{Workload, BENCHES};
use doram_core::channels::{Channel, ChannelFabric, NsRouter};
use doram_core::cpu_engine::CpuEngine;
use doram_core::onchip_oram::{FabricSink, OramFsm, OramJob};
use doram_core::secure_channel::{SecureChannel, SecureChannelConfig};
use doram_core::{Scheme, SystemConfig};
use doram_cpu::{CoreConfig, MemoryPort, TraceCore};
use doram_crypto::{Aes128, Cmac, MerkleTree};
use doram_dram::{
    Completion, MemOp, MemRequest, RequestClass, ShareArbiter, SubChannel, SubChannelConfig,
};
use doram_oram::plan::{PlanConfig, Planner};
use doram_oram::split::SplitConfig;
use doram_oram::tree::TreeGeometry;
use doram_sim::rng::Xoshiro256;
use doram_sim::{AppId, MemCycle, RequestId, RequestIdGen};
use doram_trace::{AccessOp, TraceGenerator};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Timed reps per layer.
pub const REPS: usize = 5;

/// Calls per rep, sized so one rep takes a few tens of milliseconds.
const CORE_STEPS: u64 = 300_000;
const TRACE_RECORDS: u64 = 600_000;
const CHANNEL_TICKS: u64 = 150_000;
const SD_CYCLES: u64 = 40_000;
const ORAM_CYCLES: u64 = 40_000;
const CMAC_CALLS: u64 = 30_000;
const AES_CALLS: u64 = 150_000;
const PLAN_CALLS: u64 = 30_000;

/// NS-App requests kept in flight by the channel drivers' closed loop.
const OUTSTANDING: usize = 16;
/// Records of NS-App traffic the channel drivers cycle through.
const TRACE_LEN: usize = 4_096;
/// CPU cycles the stub memory port takes to answer a read (about one
/// DDR3 round trip).
const STUB_READ_CPU_CYCLES: u64 = 160;
/// Depth of the SD's freshness Merkle tree.
const MERKLE_DEPTH: u32 = 14;

/// One timed batch of `count` calls into `layer`. Times are nanoseconds
/// since the process's first span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric (layer) the calls belong to.
    pub layer: &'static str,
    /// Start of the batch.
    pub start_ns: u64,
    /// End of the batch.
    pub end_ns: u64,
    /// Calls made (simulated cycles, for whole-system spans).
    pub count: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

impl Span {
    /// Runs `work`, which makes `count` calls into `layer`, and records
    /// its span.
    pub fn time<T>(layer: &'static str, count: u64, work: impl FnOnce() -> T) -> (Span, T) {
        let epoch = *EPOCH.get_or_init(Instant::now);
        let start = Instant::now();
        let out = black_box(work());
        let end = Instant::now();
        let ns = |t: Instant| u64::try_from((t - epoch).as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            count,
        };
        (span, out)
    }

    /// Wall nanoseconds the batch took.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        self.nanos() as f64 / self.count.max(1) as f64
    }
}

/// What the drivers share.
struct Inputs {
    seed: u64,
    /// The workload's configuration (first batch benchmark).
    cfg: SystemConfig,
    /// NS-App traffic: the batch's programs interleaved, as app-local
    /// channel addresses.
    requests: Vec<(MemOp, u64)>,
}

impl Inputs {
    fn new(w: &Workload, seed: u64) -> Inputs {
        let router = NsRouter::new(AppId(1), vec![0]);
        let mut gens = generators(seed);
        let n = gens.len();
        let requests = (0..TRACE_LEN)
            .map(|i| {
                let r = gens[i % n].next_record();
                (mem_op(r.op), router.route(r.addr).1)
            })
            .collect();
        Inputs {
            seed,
            cfg: w.config(BENCHES[0], seed),
            requests,
        }
    }
}

type Driver = fn(&Inputs) -> Span;

/// Whether a simulation of this configuration calls the driver's layer.
type OnPath = fn(&SystemConfig) -> bool;

fn doram(cfg: &SystemConfig) -> bool {
    matches!(cfg.scheme, Scheme::DOram { .. })
}

/// Every driver, by the metric it reports, with where its layer is on the
/// path.
const DRIVERS: [(&str, OnPath, Driver); 11] = [
    ("cpu.core_step_ns", |_| true, core_step),
    ("trace.next_record_ns", |_| true, next_record),
    ("dram.subchannel_tick_ns", |_| true, subchannel_tick),
    ("core.secure_channel.tick_ns", doram, secure_tick),
    ("crypto.cmac_72B_ns", doram, cmac),
    ("crypto.aes_block_ns", doram, aes_block),
    (
        "crypto.merkle_build_ms",
        |c| doram(c) && c.fault_plan.has_adversary(),
        merkle_build,
    ),
    (
        "core.onchip_oram.tick_ns",
        |c| c.scheme == Scheme::Baseline,
        onchip_tick,
    ),
    (
        "oram.plan_ns",
        |c| doram(c) || c.scheme == Scheme::Baseline,
        plan,
    ),
    ("core.channels.bob_tick_ns", doram, bob_tick),
    ("core.channels.direct_tick_ns", |c| !doram(c), direct_tick),
];

/// Runs every driver whose layer is on workload `w`'s path, appending each
/// rep's span to `spans`, and returns the quartiles of time per call by
/// metric (in the metric's unit: ns, or ms for `_ms` metrics).
pub fn run(w: &Workload, seed: u64, spans: &mut Vec<Span>) -> BTreeMap<&'static str, Quartiles> {
    let inputs = Inputs::new(w, seed);
    DRIVERS
        .iter()
        .filter(|&&(_, on_path, _)| on_path(&inputs.cfg))
        .map(|&(name, _, driver)| {
            let reps: Vec<Span> = (0..REPS).map(|_| driver(&inputs)).collect();
            let scale = if name.ends_with("_ms") { 1e-6 } else { 1.0 };
            let per_call: Vec<f64> = reps.iter().map(|s| s.ns_per_call() * scale).collect();
            spans.extend(reps);
            (name, Quartiles::of(&per_call))
        })
        .collect()
}

fn mem_op(op: AccessOp) -> MemOp {
    match op {
        AccessOp::Read => MemOp::Read,
        AccessOp::Write => MemOp::Write,
    }
}

/// One trace generator per batch benchmark.
fn generators(seed: u64) -> Vec<TraceGenerator> {
    BENCHES
        .iter()
        .zip(0..)
        .map(|(b, stream)| TraceGenerator::new(b.spec(), seed, stream))
        .collect()
}

fn key(seed: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&seed.to_le_bytes());
    k
}

/// Sub-channel configuration of the normal channels, as
/// `Simulation::new` builds it.
fn normal_subchannel_config(cfg: &SystemConfig) -> SubChannelConfig {
    let share = if cfg.scheme == Scheme::Baseline {
        cfg.share_threshold
    } else {
        1.0
    };
    SubChannelConfig {
        page_policy: cfg.page_policy,
        ..ChannelFabric::paper_subchannel_config(cfg.timing, share)
    }
}

/// ORAM plan of the scheme's controller, as `Simulation::new` builds it.
fn plan_config(cfg: &SystemConfig) -> PlanConfig {
    let plan = PlanConfig {
        geometry: TreeGeometry::new(cfg.tree_l_max, cfg.tree_z),
        subtree_levels: cfg.subtree_levels,
        cached_levels: cfg.tree_top_levels,
        split: SplitConfig::none(),
        tree_units: cfg.channels,
    };
    match cfg.scheme {
        Scheme::DOram { k, .. } => PlanConfig {
            split: if k == 0 {
                SplitConfig::none()
            } else {
                SplitConfig::new(k, cfg.channels - 1)
            },
            tree_units: cfg.secure_subchannels,
            ..plan
        },
        _ => plan,
    }
}

/// The D-ORAM secure channel with its SD, as `Simulation::new` builds it.
fn secure_channel(cfg: &SystemConfig) -> SecureChannel {
    let arbiter = if cfg.secure_share_threshold >= 1.0 {
        ShareArbiter::oram_priority()
    } else {
        ShareArbiter::new(cfg.secure_share_threshold, 64)
    };
    let sub = SubChannelConfig {
        arbiter,
        page_policy: cfg.page_policy,
        ..ChannelFabric::paper_subchannel_config(cfg.timing, 1.0)
    };
    SecureChannel::new(SecureChannelConfig {
        link: cfg.link,
        sub_channels: vec![sub; cfg.secure_subchannels],
        plan: plan_config(cfg),
        s_app: AppId(0),
        seed: cfg.seed ^ 0x0A0A,
        merge_split_reads: cfg.merge_split_reads,
        sd_pipeline: cfg.sd_pipeline,
        fault_plan: cfg.fault_plan.clone(),
        recovery: cfg.recovery,
        parity: cfg.parity,
        scrub_every: cfg.scrub_every,
        probation_window: cfg.probation_window,
        probation_successes: cfg.probation_successes,
    })
}

/// A memory port that accepts every access and answers each read a fixed
/// number of CPU cycles later.
#[derive(Default)]
struct StubPort {
    now: u64,
    issued: u64,
    pending: VecDeque<(u64, RequestId)>,
}

impl MemoryPort for StubPort {
    fn try_read(&mut self, _addr: u64) -> Option<RequestId> {
        self.issued += 1;
        let id = RequestId(self.issued);
        self.pending
            .push_back((self.now + STUB_READ_CPU_CYCLES, id));
        Some(id)
    }

    fn try_write(&mut self, _addr: u64) -> bool {
        true
    }
}

/// `TraceCore::step`, one core per batch benchmark stepped in turn.
fn core_step(i: &Inputs) -> Span {
    let mut cores: Vec<(TraceCore, StubPort)> = generators(i.seed)
        .into_iter()
        .map(|g| {
            let core = TraceCore::new(CoreConfig::default(), Box::new(g.finite(u64::MAX)));
            (core, StubPort::default())
        })
        .collect();
    let rounds = CORE_STEPS / cores.len() as u64;
    let count = rounds * cores.len() as u64;
    let (span, _) = Span::time("cpu.core_step_ns", count, || {
        for cycle in 0..rounds {
            for (core, port) in cores.iter_mut() {
                port.now = cycle;
                core.step(port);
                while let Some(&(due, id)) = port.pending.front() {
                    if due > cycle {
                        break;
                    }
                    port.pending.pop_front();
                    core.complete_read(id);
                }
            }
        }
        cores.iter().map(|(c, _)| c.retired()).sum::<u64>()
    });
    span
}

/// `TraceGenerator::next_record`, the batch benchmarks in turn.
fn next_record(i: &Inputs) -> Span {
    let mut gens = generators(i.seed);
    let n = gens.len();
    let (span, _) = Span::time("trace.next_record_ns", TRACE_RECORDS, || {
        (0..TRACE_RECORDS as usize)
            .map(|k| gens[k % n].next_record().addr)
            .fold(0u64, u64::wrapping_add)
    });
    span
}

/// Ticks a memory layer `cycles` times in a closed loop of NS-App
/// requests: one is offered each cycle while fewer than [`OUTSTANDING`]
/// are in flight.
fn closed_loop<L>(
    layer: &mut L,
    requests: &[(MemOp, u64)],
    cycles: u64,
    enqueue: fn(&mut L, MemRequest, MemCycle) -> bool,
    tick: fn(&mut L, MemCycle, &mut Vec<Completion>),
) -> usize {
    let mut done = Vec::new();
    let (mut in_flight, mut offered, mut completed) = (0usize, 0usize, 0usize);
    for c in 0..cycles {
        let now = MemCycle(c);
        if in_flight < OUTSTANDING {
            let (op, addr) = requests[offered % requests.len()];
            let req = MemRequest {
                id: RequestId(offered as u64),
                app: AppId(1),
                op,
                addr,
                class: RequestClass::Normal,
                arrival: now,
            };
            if enqueue(layer, req, now) {
                in_flight += 1;
                offered += 1;
            }
        }
        tick(layer, now, &mut done);
        in_flight = in_flight.saturating_sub(done.len());
        completed += done.len();
        done.clear();
    }
    completed
}

/// `SubChannel::tick` under the closed loop.
fn subchannel_tick(i: &Inputs) -> Span {
    let mut sub = SubChannel::new(normal_subchannel_config(&i.cfg));
    let (span, _) = Span::time("dram.subchannel_tick_ns", CHANNEL_TICKS, || {
        closed_loop(
            &mut sub,
            &i.requests,
            CHANNEL_TICKS,
            |s, r, _| s.enqueue(r).is_ok(),
            SubChannel::tick,
        )
    });
    span
}

/// `Channel::tick` of `fabric`'s only channel under the closed loop.
fn channel_tick(layer: &'static str, mut fabric: ChannelFabric, requests: &[(MemOp, u64)]) -> Span {
    let (span, _) = Span::time(layer, CHANNEL_TICKS, || {
        closed_loop(
            fabric.channel_mut(0),
            requests,
            CHANNEL_TICKS,
            |ch, r, now| ch.try_enqueue(r, now).is_ok(),
            Channel::tick,
        )
    });
    span
}

/// One normal BOB channel as `Simulation::new` builds it: serial link,
/// SimpleMC and DRAM, its link on fault site 1 (the first normal channel;
/// site 0 is the secure link).
fn bob_fabric(cfg: &SystemConfig) -> ChannelFabric {
    let mut fabric = ChannelFabric::bob(1, cfg.link, &normal_subchannel_config(cfg));
    if !cfg.fault_plan.is_zero() {
        fabric.set_fault_plan(&cfg.fault_plan, 1);
    }
    fabric
}

/// One BOB channel.
fn bob_tick(i: &Inputs) -> Span {
    channel_tick("core.channels.bob_tick_ns", bob_fabric(&i.cfg), &i.requests)
}

/// One direct-attached channel.
fn direct_tick(i: &Inputs) -> Span {
    let fabric = ChannelFabric::direct(1, &normal_subchannel_config(&i.cfg));
    channel_tick("core.channels.direct_tick_ns", fabric, &i.requests)
}

/// One memory cycle of the D-ORAM S-App path: `CpuEngine::poll_send`,
/// `SecureChannel::tick`, and split-level reads answered at once through
/// `try_deliver_split_read` (split writes are dropped). The engine is fed
/// the S-App's trace; no NS-App traffic shares the channel.
fn secure_tick(i: &Inputs) -> Span {
    let cfg = &i.cfg;
    let mut secure = secure_channel(cfg);
    let mut engine = CpuEngine::new(cfg.dummy_interval_cpu, 4);
    let mut trace = TraceGenerator::new(cfg.benchmark.spec(), cfg.seed, 0);
    let (span, _) = Span::time("core.secure_channel.tick_ns", SD_CYCLES, || {
        let (mut ns, mut responses, mut reads, mut writes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut undelivered = VecDeque::new();
        for c in 0..SD_CYCLES {
            let now = MemCycle(c);
            if engine.can_submit() {
                let r = trace.next_record();
                engine.submit(None, mem_op(r.op), r.addr >> 6);
            }
            if secure.can_send_secure() {
                if let Some(job) = engine.poll_send(now) {
                    secure.send_secure(job);
                }
            }
            secure.tick(now, &mut ns, &mut responses, &mut reads, &mut writes);
            for job in responses.drain(..) {
                engine.on_response(job, now);
            }
            undelivered.extend(reads.drain(..));
            writes.clear();
            while let Some(&f) = undelivered.front() {
                if secure.try_deliver_split_read(f).is_err() {
                    break;
                }
                undelivered.pop_front();
            }
        }
        engine.stats().responses.get()
    });
    span
}

/// One memory cycle of the Baseline's on-chip controller: `OramFsm::tick`
/// through a `FabricSink` over `ChannelFabric::direct`, then the fabric's
/// tick, with the S-App's trace queued as real accesses.
fn onchip_tick(i: &Inputs) -> Span {
    let cfg = &i.cfg;
    let mut fabric = ChannelFabric::direct(cfg.channels, &normal_subchannel_config(cfg));
    let mut fsm = OramFsm::new(plan_config(cfg), cfg.seed ^ 0x0A0A, 4);
    let mut trace = TraceGenerator::new(cfg.benchmark.spec(), cfg.seed, 0);
    let mut idgen = RequestIdGen::new();
    let mut issued = HashSet::new();
    let (span, _) = Span::time("core.onchip_oram.tick_ns", ORAM_CYCLES, || {
        let (mut events, mut done) = (Vec::new(), Vec::new());
        for c in 0..ORAM_CYCLES {
            let now = MemCycle(c);
            if fsm.can_submit() {
                let r = trace.next_record();
                fsm.submit(OramJob::Real {
                    id: None,
                    op: mem_op(r.op),
                    block: r.addr >> 6,
                });
            }
            let mut sink = FabricSink {
                fabric: &mut fabric,
                idgen: &mut idgen,
                app: AppId(0),
                issued: &mut issued,
            };
            fsm.tick(now, &mut sink, &mut events);
            events.clear();
            fabric.tick(now, &mut done);
            for c in done.drain(..) {
                if issued.remove(&c.request.id) {
                    fsm.on_block_complete(c.request.id);
                }
            }
        }
        fsm.stats().real_accesses.get()
    });
    span
}

/// `Planner::plan` for uniformly random leaves of the workload's ORAM.
fn plan(i: &Inputs) -> Span {
    let planner = Planner::new(plan_config(&i.cfg));
    let leaves = planner.config().geometry.num_leaves();
    let mut rng = Xoshiro256::seed_from(i.seed);
    let (span, _) = Span::time("oram.plan_ns", PLAN_CALLS, || {
        (0..PLAN_CALLS)
            .map(|_| planner.plan(rng.gen_below(leaves)).blocks.len())
            .sum::<usize>()
    });
    span
}

/// `Cmac::tag` over a 72-byte secure packet.
fn cmac(i: &Inputs) -> Span {
    let mac = Cmac::new(key(i.seed));
    let mut packet = [0x55u8; 72];
    let (span, _) = Span::time("crypto.cmac_72B_ns", CMAC_CALLS, || {
        let mut acc = 0u8;
        for n in 0..CMAC_CALLS {
            packet[0] = n as u8;
            acc ^= mac.tag(black_box(&packet))[0];
        }
        acc
    });
    span
}

/// `Aes128::encrypt_block`.
fn aes_block(i: &Inputs) -> Span {
    let aes = Aes128::new(key(i.seed));
    let (span, _) = Span::time("crypto.aes_block_ns", AES_CALLS, || {
        let mut block = [0x42u8; 16];
        for _ in 0..AES_CALLS {
            block = aes.encrypt_block(black_box(block));
        }
        block
    });
    span
}

/// `MerkleTree::new` at the SD's freshness-tree depth (one call per rep).
fn merkle_build(i: &Inputs) -> Span {
    let (span, _) = Span::time("crypto.merkle_build_ms", 1, || {
        MerkleTree::new(MERKLE_DEPTH, key(i.seed)).root()
    });
    span
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::{BASELINE_ORAM, DORAM_CORUN, DORAM_HARDENED, SOLO_NS, WORKLOADS};

    #[test]
    fn drivers_report_declared_metrics() {
        for (name, _, _) in DRIVERS {
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        }
    }

    /// Names of the drivers run on workload `w`.
    fn on_path(w: &Workload) -> Vec<&'static str> {
        let cfg = w.config(BENCHES[0], 1);
        DRIVERS.iter().filter(|d| d.1(&cfg)).map(|d| d.0).collect()
    }

    #[test]
    fn drivers_run_only_where_their_layer_is_on_the_path() {
        let corun = on_path(&DORAM_CORUN);
        let hardened = on_path(&DORAM_HARDENED);
        let baseline = on_path(&BASELINE_ORAM);
        let solo = on_path(&SOLO_NS);
        for doram in [&corun, &hardened] {
            assert!(doram.contains(&"core.secure_channel.tick_ns"));
            assert!(doram.contains(&"core.channels.bob_tick_ns"));
            assert!(!doram.contains(&"core.onchip_oram.tick_ns"));
            assert!(!doram.contains(&"core.channels.direct_tick_ns"));
        }
        assert!(hardened.contains(&"crypto.merkle_build_ms"));
        assert!(!corun.contains(&"crypto.merkle_build_ms"));
        assert!(baseline.contains(&"core.onchip_oram.tick_ns"));
        assert!(baseline.contains(&"oram.plan_ns"));
        assert!(!baseline.contains(&"crypto.cmac_72B_ns"));
        assert_eq!(
            solo,
            [
                "cpu.core_step_ns",
                "trace.next_record_ns",
                "dram.subchannel_tick_ns",
                "core.channels.direct_tick_ns"
            ]
        );
    }

    /// The mirrored constructors follow `Simulation::new`'s per-workload
    /// rules: the normal links carry the workload's fault plan, and the
    /// SD's tree spreads over its sub-channels with `k` levels split off.
    #[test]
    fn mirrored_constructors_follow_the_workload() {
        for w in [DORAM_CORUN, DORAM_HARDENED] {
            let cfg = w.config(BENCHES[0], 1);
            let Scheme::DOram { k, .. } = cfg.scheme else {
                unreachable!()
            };
            let mut fabric = bob_fabric(&cfg);
            let i = Inputs::new(&w, 1);
            closed_loop(
                fabric.channel_mut(0),
                &i.requests,
                20_000,
                |ch, r, now| ch.try_enqueue(r, now).is_ok(),
                Channel::tick,
            );
            let retransmitted = fabric.link_stats().retransmissions > 0;
            assert_eq!(retransmitted, !cfg.fault_plan.is_zero(), "{}", w.name);
            let plan = plan_config(&cfg);
            let split = match k {
                0 => SplitConfig::none(),
                k => SplitConfig::new(k, cfg.channels - 1),
            };
            assert_eq!(plan.split, split, "{}", w.name);
            assert_eq!(plan.tree_units, cfg.secure_subchannels, "{}", w.name);
        }
        let cfg = BASELINE_ORAM.config(BENCHES[0], 1);
        assert_eq!(plan_config(&cfg).tree_units, cfg.channels);
        assert!(plan_config(&cfg).validate().is_ok());
    }

    #[test]
    fn closed_loop_completes_requests() {
        let i = Inputs::new(&WORKLOADS[0], 1);
        let mut sub = SubChannel::new(normal_subchannel_config(&i.cfg));
        let done = closed_loop(
            &mut sub,
            &i.requests,
            5_000,
            |s, r, _| s.enqueue(r).is_ok(),
            SubChannel::tick,
        );
        assert!(done > 100, "{done}");
    }
}
