//! The full-system simulation driver.
//!
//! Steps the 8-core CMP against the memory backend of the configured
//! scheme at memory-clock granularity (4 CPU cycles per memory cycle, as
//! USIMM does). NS-App cores that finish their trace are restarted with a
//! fresh trace segment so memory pressure stays constant; the reported
//! execution time is the first completion.

use crate::channels::{sub_energy, sub_mean, ChannelFabric, NsRouter, SPLIT_REGION_BASE};
use crate::config::{Scheme, SystemConfig};
use crate::cpu_engine::CpuEngine;
use crate::metrics::{OramSummary, RunReport};
use crate::onchip_oram::{FabricSink, FsmEvent, OramFsm, OramJob};
use crate::secmem_frontend::SecMemFrontend;
use crate::secure_channel::{SecureChannel, SecureChannelConfig, SplitFetch};
use doram_cpu::{CoreConfig, MemoryPort, TraceCore};
use doram_crypto::Cmac;
use doram_dram::{Completion, MemOp, MemRequest, RequestClass, SubChannel, SubChannelStats};
use doram_obs::{CoreStall, Recorder, SharedRecorder, StallDump, Subsystem};
use doram_oram::plan::PlanConfig;
use doram_oram::split::SplitConfig;
use doram_oram::tree::TreeGeometry;
use doram_sim::snapshot::{
    checkpoint_auth_message, fnv1a64, read_checkpoint, write_atomic, write_checkpoint,
    CheckpointData, Codec, Snapshot, SnapshotError, SnapshotErrorKind, SnapshotReader,
    SnapshotWriter,
};
use doram_sim::stats::{Histogram, RunningMean};
use doram_sim::{
    AppId, ConfigError, IdMap, MemCycle, RequestId, RequestIdGen, CPU_CYCLES_PER_MEM_CYCLE,
};
use doram_trace::{TraceGenerator, TraceRecord};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Error ending a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configured cycle cap was reached before all NS-Apps finished.
    CycleCapExceeded {
        /// The cap that was hit.
        cap: u64,
    },
    /// A sub-channel's command stream violated a JEDEC timing rule
    /// (only reported by [`Simulation::run_with_conformance_check`]).
    JedecViolation {
        /// Which sub-channel (flat index across channels).
        sub_channel: usize,
        /// First violation's description.
        detail: String,
    },
    /// Fault recovery was exhausted: a link retry budget ran out, or the
    /// SD quarantined a sub-channel after persistent integrity failures.
    /// Fail-stop is the correct response to untrusted memory that keeps
    /// tampering — continuing would leak through degraded behaviour.
    IntegrityFailStop {
        /// The latched fault's description.
        detail: String,
    },
    /// A run option was rejected before the simulation started (zero
    /// checkpoint interval, watchdog budget below one DRAM round trip, …).
    Config {
        /// The violated constraint.
        detail: String,
    },
    /// A checkpoint file could not be written, read, or restored.
    Checkpoint {
        /// What went wrong, naming the file where relevant.
        detail: String,
    },
    /// The liveness watchdog fired: no core retired an instruction and no
    /// DRAM column command issued for a whole budget of memory cycles.
    Stalled {
        /// Memory cycle at which the stall was declared.
        at: u64,
        /// The no-progress budget that elapsed.
        budget: u64,
        /// Structured diagnostic dump of every component's dynamic state
        /// (per-core progress, blocked reads, backend summaries, and —
        /// when tracing is on — latest metrics and the event-log tail).
        dump: StallDump,
    },
    /// The run was interrupted (Ctrl-C / SIGTERM or
    /// [`request_shutdown`]) and shut down gracefully.
    Interrupted {
        /// Memory cycle the run had completed up to.
        at: u64,
        /// Final checkpoint written on the way out, when a checkpoint
        /// directory was configured.
        checkpoint: Option<PathBuf>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleCapExceeded { cap } => {
                write!(f, "simulation exceeded the {cap}-memory-cycle cap")
            }
            SimError::JedecViolation {
                sub_channel,
                detail,
            } => {
                write!(f, "JEDEC violation on sub-channel {sub_channel}: {detail}")
            }
            SimError::IntegrityFailStop { detail } => {
                write!(f, "fault recovery exhausted (fail-stop): {detail}")
            }
            SimError::Config { detail } => write!(f, "invalid run options: {detail}"),
            SimError::Checkpoint { detail } => write!(f, "checkpoint: {detail}"),
            SimError::Stalled { at, budget, dump } => write!(
                f,
                "no forward progress for {budget} memory cycles (stalled at cycle {at})\n{dump}"
            ),
            SimError::Interrupted { at, checkpoint } => match checkpoint {
                Some(p) => write!(
                    f,
                    "interrupted at memory cycle {at}; checkpoint written to {}",
                    p.display()
                ),
                None => write!(
                    f,
                    "interrupted at memory cycle {at} (no checkpoint directory)"
                ),
            },
        }
    }
}

impl std::error::Error for SimError {}

/// Knobs of [`Simulation::run_with`]: periodic checkpointing, the
/// liveness watchdog, and graceful-shutdown handling. The default is the
/// plain [`Simulation::run`] behaviour (everything off).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Write a checkpoint every `N` memory cycles (requires
    /// [`checkpoint_dir`](RunOptions::checkpoint_dir)).
    pub checkpoint_every: Option<u64>,
    /// Directory receiving `ckpt-<cycle>.dorc` files (and the final
    /// checkpoint on interruption).
    pub checkpoint_dir: Option<PathBuf>,
    /// Declare the run stalled after this many memory cycles without a
    /// retired instruction or a DRAM column command. Must cover at least
    /// one DRAM round trip (tRCD + CL + tBurst + tRP).
    pub watchdog_budget: Option<u64>,
    /// Install SIGINT/SIGTERM handlers that trigger graceful shutdown
    /// (final checkpoint + [`SimError::Interrupted`]).
    pub handle_signals: bool,
    /// Key authenticating checkpoints: every file written carries a CMAC
    /// over its header and payload under this key, and
    /// [`Simulation::resume_with_key`] refuses files whose tag does not
    /// verify. `None` writes unkeyed (legacy, bit-compatible) files.
    pub ckpt_key: Option<u64>,
}

impl RunOptions {
    /// Validates the options against `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] naming the violated constraint.
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), SimError> {
        if self.checkpoint_every == Some(0) {
            return Err(SimError::Config {
                detail: "checkpoint interval must be at least one memory cycle".into(),
            });
        }
        if self.checkpoint_every.is_some() && self.checkpoint_dir.is_none() {
            return Err(SimError::Config {
                detail: "periodic checkpointing requires a checkpoint directory".into(),
            });
        }
        if let Some(budget) = self.watchdog_budget {
            let t = &cfg.timing;
            // One closed-row read: ACT → tRCD → READ → CL + burst → PRE.
            let round_trip = t.t_rcd + t.cl + t.t_burst + t.t_rp;
            if budget < round_trip {
                return Err(SimError::Config {
                    detail: format!(
                        "watchdog budget {budget} is below one DRAM round trip \
                         ({round_trip} memory cycles)"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Name of the run-epoch marker file kept next to the checkpoints. It
/// records the highest epoch any run has checkpointed under in that
/// directory, so a resume can reject a checkpoint from an *earlier*
/// epoch — an attacker substituting an old-but-authentic file.
const EPOCH_MARKER: &str = "epoch.mark";

/// Salt mixed into the 64-bit checkpoint key when expanding it to the
/// 128-bit CMAC key (the same seed-expansion idiom as the SD tag key).
const CKPT_KEY_SALT: u64 = 0xC4EC_4B01_C4EC_4B01;

fn ckpt_mac(key: u64) -> Cmac {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&key.to_le_bytes());
    k[8..].copy_from_slice(&(key ^ CKPT_KEY_SALT).to_le_bytes());
    Cmac::new(k)
}

/// Reads the run-epoch marker in `dir` (0 when absent — a directory that
/// never checkpointed, or a checkpoint moved elsewhere deliberately).
fn read_epoch_marker(dir: &Path) -> Result<u64, SimError> {
    let path = dir.join(EPOCH_MARKER);
    match std::fs::read_to_string(&path) {
        Ok(s) => s.trim().parse::<u64>().map_err(|_| SimError::Checkpoint {
            detail: format!("{}: malformed epoch marker", path.display()),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(SimError::Checkpoint {
            detail: format!("reading {}: {e}", path.display()),
        }),
    }
}

/// Allocates this run's epoch — one past the largest ever recorded in
/// `dir` — and durably bumps the marker before any checkpoint carries it.
fn allocate_epoch(dir: &Path) -> Result<u64, SimError> {
    let epoch = read_epoch_marker(dir)?
        .checked_add(1)
        .ok_or_else(|| SimError::Checkpoint {
            detail: "run-epoch counter overflow".into(),
        })?;
    let path = dir.join(EPOCH_MARKER);
    write_atomic(&path, format!("{epoch}\n").as_bytes()).map_err(|e| SimError::Checkpoint {
        detail: format!("writing {}: {e}", path.display()),
    })?;
    Ok(epoch)
}

/// Set by the SIGINT/SIGTERM handlers; polled once per memory cycle.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests graceful shutdown of the running simulation, exactly as a
/// SIGINT would: the run writes a final checkpoint (when a checkpoint
/// directory is configured) and returns [`SimError::Interrupted`].
/// Embedders and tests call this directly; the CLI installs signal
/// handlers that call it via [`RunOptions::handle_signals`].
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" fn shutdown_handler(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = shutdown_handler as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Hash binding a checkpoint to the configuration it was taken under;
/// resuming under a different configuration is rejected.
fn config_hash(cfg: &SystemConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

/// Event-log tail length carried in a [`StallDump`].
const STALL_EVENT_TAIL: usize = 16;

/// One core and its bookkeeping.
struct CoreSlot {
    core: TraceCore,
    is_sapp: bool,
    first_finish_cpu: Option<u64>,
    restarts: u64,
    /// The memory cycle at whose start `core`'s state stands: behind the
    /// loop's cycle while the core is parked.
    at: u64,
    /// The first memory cycle the core must be stepped in, unless a read
    /// completes for it first: `at` plus the whole memory cycles of its
    /// quiet horizon (never, for a core that can only wait).
    wake: u64,
}

// The restart count picks the trace segment the core runs; restoring
// re-opens that segment and fast-forwards it (`TraceCore::resume_trace`).
// `at` and `wake` are derived: a restored core steps in the first cycle.
doram_sim::impl_snapshot!(CoreSlot {
    restarts,
    first_finish_cpu,
    core: state,
} skip { is_sapp, at, wake });

impl CoreSlot {
    /// Parks the core, whose state stands at the start of memory cycle
    /// `at`, until the memory cycle in which its quiet horizon ends.
    fn park(&mut self, at: u64) {
        self.at = at;
        let quiet = self.core.quiet_horizon() / CPU_CYCLES_PER_MEM_CYCLE;
        self.wake = at.saturating_add(quiet);
    }

    /// Takes a parked core through its quiet cycles up to the start of
    /// memory cycle `to`, no later than its wake cycle, and tells the
    /// watchdog what it retired on the way.
    fn catch_up(&mut self, to: u64, watchdog: Option<&mut Watchdog>) {
        let from = std::mem::replace(&mut self.at, to);
        if from == to {
            return;
        }
        let retired = self.core.retired();
        let last = self
            .core
            .advance_quiet((to - from) * CPU_CYCLES_PER_MEM_CYCLE);
        if let (Some(wd), true) = (watchdog, last > 0) {
            wd.stamp += self.core.retired() - retired;
            wd.since = wd
                .since
                .max(from + (last - 1) / CPU_CYCLES_PER_MEM_CYCLE + 1);
        }
    }
}

/// The liveness watchdog's view of forward progress. A parked core's
/// retirements become known only when it is caught up.
struct Watchdog {
    budget: u64,
    /// The progress stamp at the last check, plus the retirements that
    /// catch-ups revealed since: a catch-up's retirements belong to the
    /// cycles it skipped, not to the cycle it happens in.
    stamp: u64,
    /// The memory cycle after the last one known to make progress.
    since: u64,
}

impl Watchdog {
    /// Whether no progress is known for a whole budget before cycle `m`.
    fn expired(&self, m: u64) -> bool {
        m - self.since >= self.budget
    }
}

/// The trace segment core `core_idx` runs after `restart` restarts: the
/// S-App's benchmark (core 0 when the scheme has one) or its NS-App
/// benchmark, each restart a fresh stream.
fn trace_segment(
    cfg: &SystemConfig,
    core_idx: usize,
    restart: u64,
) -> Box<dyn Iterator<Item = TraceRecord> + Send> {
    let sapp = cfg.scheme.has_sapp();
    let (bench, accesses) = if sapp && core_idx == 0 {
        (cfg.benchmark, cfg.s_accesses)
    } else {
        (
            cfg.ns_benchmark(core_idx - usize::from(sapp)),
            cfg.ns_accesses,
        )
    };
    let stream = trace_stream_id(cfg, core_idx, restart);
    Box::new(TraceGenerator::new(bench.spec(), cfg.seed, stream).finite(accesses))
}

/// The memory backend. Every scheme runs its NS-Apps on a channel fabric;
/// the schemes differ only in the path the S-App takes to memory.
struct Backend {
    /// The NS-App channels: four direct channels, or D-ORAM's three BOB
    /// normal channels (NS channels 1–3; the secure channel is NS channel 0).
    fabric: ChannelFabric,
    sapp: SAppPath,
}

/// How the S-App reaches memory.
#[allow(clippy::large_enum_variant)] // one backend is live per run; no arrays of these
enum SAppPath {
    /// NS-only schemes (1NS, 7NS-4ch, 7NS-3ch).
    None,
    /// Baseline and 1S-partition: the on-chip Path ORAM controller, whose
    /// block requests in flight on the fabric are `ids`.
    Oram {
        fsm: OramFsm,
        ids: HashSet<RequestId>,
    },
    /// The secure-memory front end, fanning each access out over the fabric.
    SecMem(SecMemFrontend),
    /// D-ORAM: delegation to the SD on the secure channel.
    Delegated(Box<Delegated>),
}

/// D-ORAM's S-App path: the secure channel (NS channel 0) with the CPU-side
/// engine, and the split-level queues between the SD and the normal channels.
struct Delegated {
    secure: SecureChannel,
    engine: CpuEngine,
    /// Outstanding split reads on normal channels: id → fetch.
    split_fwd: IdMap<RequestId, SplitFetch>,
    /// Split operations waiting for normal-channel capacity.
    pending_split: VecDeque<(SplitFetch, MemOp)>,
    /// Fetched split blocks waiting for secure-link capacity.
    pending_deliver: VecDeque<SplitFetch>,
    /// The recorder and its `cpu.mux.split` and `cpu.mux.deliver` blame
    /// rows; `None` keeps the channel mux silent.
    mux_blame: Option<(SharedRecorder, usize, usize)>,
}

impl SAppPath {
    /// Checkpoint tag guarding against a restore into another scheme.
    fn tag(&self) -> u8 {
        match self {
            SAppPath::None => 0,
            SAppPath::Oram { .. } => 1,
            SAppPath::SecMem(_) => 2,
            SAppPath::Delegated(_) => 3,
        }
    }

    /// Hands a fabric completion to the S-App path when the path issued
    /// it; `false` leaves it to the NS ledger.
    fn claim(&mut self, c: &Completion) -> bool {
        let id = c.request.id;
        match self {
            SAppPath::None => false,
            SAppPath::Oram { fsm, ids } => {
                let owned = ids.remove(&id);
                if owned {
                    fsm.on_block_complete(id);
                }
                owned
            }
            SAppPath::SecMem(frontend) => {
                let owned = frontend.owns(id);
                if owned {
                    frontend.on_completion(id, c.finished);
                }
                owned
            }
            SAppPath::Delegated(d) => {
                let owned = c.request.class == RequestClass::Oram;
                // Split writes complete silently.
                if let Some(f) = owned.then(|| d.split_fwd.remove(&id)).flatten() {
                    d.pending_deliver.push_back(f);
                }
                owned
            }
        }
    }
}

impl Delegated {
    /// The secure side of one memory cycle, ahead of the fabric's: engine
    /// → secure link, the secure channel itself, and split operations
    /// forwarded onto the normal channels. Returns the secure channel's NS
    /// completions.
    fn tick_secure(
        &mut self,
        now: MemCycle,
        fabric: &mut ChannelFabric,
        idgen: &mut RequestIdGen,
        ledger: &mut Ledger,
    ) -> Vec<Completion> {
        if self.secure.can_send_secure() {
            if let Some(job) = self.engine.poll_send(now) {
                self.secure.send_secure(job);
            }
        }
        let mut ns_done = Vec::new();
        let mut responses = Vec::new();
        let mut sreads = Vec::new();
        let mut swrites = Vec::new();
        self.secure
            .tick(now, &mut ns_done, &mut responses, &mut sreads, &mut swrites);
        for job in responses {
            if let Some(core_read) = self.engine.on_response(job, now) {
                ledger.wake(core_read);
            }
        }
        self.pending_split
            .extend(sreads.into_iter().map(|f| (f, MemOp::Read)));
        self.pending_split
            .extend(swrites.into_iter().map(|f| (f, MemOp::Write)));

        // Forward split operations onto normal channels.
        while let Some(&(f, op)) = self.pending_split.front() {
            let id = idgen.next_id();
            let req = MemRequest {
                id,
                app: AppId(0),
                op,
                addr: SPLIT_REGION_BASE + f.addr,
                class: RequestClass::Oram,
                arrival: now,
            };
            if fabric
                .channel_mut(f.channel - 1)
                .try_enqueue(req, now)
                .is_err()
            {
                break;
            }
            if op == MemOp::Read {
                self.split_fwd.insert(id, f);
            }
            self.pending_split.pop_front();
        }
        // Aggregate blame: split operations still held behind a full
        // normal channel waited this cycle, blamed on the head's class
        // (read fetches are the S-App's critical path; writes its
        // background writebacks).
        if let (Some((obs, res, _)), Some(&(_, op))) = (&self.mux_blame, self.pending_split.front())
        {
            let cls = match op {
                MemOp::Read => doram_obs::BlameClass::SAppRead,
                MemOp::Write => doram_obs::BlameClass::SAppWriteback,
            };
            let n = self.pending_split.len() as u64;
            let mut rec = obs.borrow_mut();
            rec.blame.wait(*res, cls, n);
            rec.blame.delay(*res, n);
        }
        ns_done
    }

    /// Returns fetched split blocks to the SD, after the fabric's cycle.
    fn deliver_splits(&mut self) {
        while let Some(&f) = self.pending_deliver.front() {
            if self.secure.try_deliver_split_read(f).is_err() {
                break;
            }
            self.pending_deliver.pop_front();
        }
        // Aggregate blame: fetched blocks still waiting for secure-link
        // capacity are on the S-App's read critical path.
        if let (Some((obs, _, res)), false) = (&self.mux_blame, self.pending_deliver.is_empty()) {
            let n = self.pending_deliver.len() as u64;
            let mut rec = obs.borrow_mut();
            rec.blame.wait(*res, doram_obs::BlameClass::SAppRead, n);
            rec.blame.delay(*res, n);
        }
    }
}

impl Backend {
    /// The paper's channel number of fabric channel 0: D-ORAM's secure
    /// channel is channel #0 and its normal channels are #1–#3 (§III-C).
    /// Metrics, blame rows and the stall dump all name fabric channels
    /// by this number.
    fn fabric_base(&self) -> usize {
        usize::from(matches!(self.sapp, SAppPath::Delegated(_)))
    }

    /// Routes an NS request to NS channel `ch`; `false` on back-pressure.
    fn route_ns(&mut self, ch: usize, req: MemRequest, now: MemCycle) -> bool {
        let base = self.fabric_base();
        match &mut self.sapp {
            SAppPath::Delegated(d) if ch == 0 => d.secure.try_send_ns(req).is_ok(),
            _ => self
                .fabric
                .channel_mut(ch - base)
                .try_enqueue(req, now)
                .is_ok(),
        }
    }

    /// Each paper channel's sub-channels, in paper order: D-ORAM's secure
    /// channel (#0) first, then the fabric's channels.
    fn channel_subs(&self) -> impl Iterator<Item = &[SubChannel]> {
        let secure = match &self.sapp {
            SAppPath::Delegated(d) => Some(d.secure.subs()),
            _ => None,
        };
        secure.into_iter().chain(self.fabric.subs())
    }

    /// Every sub-channel, in the order of
    /// [`channel_subs`](Backend::channel_subs): for device-command tracing
    /// only.
    fn subs_mut(&mut self) -> impl Iterator<Item = &mut SubChannel> {
        let secure = match &mut self.sapp {
            SAppPath::Delegated(d) => d.secure.subs_mut(),
            _ => &mut [],
        };
        secure.iter_mut().chain(self.fabric.subs_mut())
    }

    /// Monotone forward-progress counter: DRAM column commands issued
    /// anywhere in the backend.
    fn column_ops(&self) -> u64 {
        self.channel_subs()
            .flatten()
            .map(|s| s.stats().reads.get() + s.stats().writes.get())
            .sum()
    }

    /// The earliest cycle at which the backend can do more than count, if
    /// its sub-channels' wake cycles bound that: direct channels with no
    /// S-App path. Every other backend has a link, an SD or an ORAM
    /// controller that acts on cycles of its own, and answers `None`.
    fn wake_at(&self) -> Option<MemCycle> {
        match self.sapp {
            SAppPath::None => self.fabric.wake_at(),
            _ => None,
        }
    }

    /// Per-component state summaries for the watchdog's diagnostic dump:
    /// the S-App path's lines, then one line per fabric channel.
    fn debug_lines(&self) -> Vec<String> {
        let mut lines = match &self.sapp {
            SAppPath::None => Vec::new(),
            SAppPath::Oram { fsm, ids } => vec![format!(
                "oram-fsm[{}] outstanding={}",
                fsm.debug_state(),
                ids.len()
            )],
            SAppPath::SecMem(frontend) => vec![format!("secmem[{}]", frontend.debug_state())],
            SAppPath::Delegated(d) => vec![
                format!("secure[{}]", d.secure.debug_state()),
                format!(
                    "engine[sent={}/{} resp={}] split_fwd={} pending_split={} \
                     pending_deliver={}",
                    d.engine.stats().real_sent.get(),
                    d.engine.stats().dummies_sent.get(),
                    d.engine.stats().responses.get(),
                    d.split_fwd.len(),
                    d.pending_split.len(),
                    d.pending_deliver.len()
                ),
            ],
        };
        lines.extend(self.fabric.debug_states(self.fabric_base()));
        lines
    }

    /// Hands the shared recorder to every instrumented component: the
    /// D-ORAM access path end to end (engine → secure link → SD →
    /// sub-channels), every fabric channel (links, SimpleMCs, sub-channels
    /// — the `ch{n}.*` blame rows, `n` the paper's channel number), and
    /// D-ORAM's channel-mux holding queues
    /// (`cpu.mux.*`). Safe to call again after a filter change: blame-row
    /// registration re-evaluates against the recorder's current subsystem
    /// mask.
    fn set_obs(&mut self, obs: &SharedRecorder) {
        if let SAppPath::Delegated(d) = &mut self.sapp {
            d.secure.set_obs(Some(obs.clone()));
            d.engine.set_obs(Some(obs.clone()));
        }
        self.fabric.set_obs(Some(obs.clone()), self.fabric_base());
        if let SAppPath::Delegated(d) = &mut self.sapp {
            let mut rec = obs.borrow_mut();
            d.mux_blame = rec.wants(Subsystem::Engine).then(|| {
                let split = rec.blame.resource("cpu.mux.split");
                (obs.clone(), split, rec.blame.resource("cpu.mux.deliver"))
            });
        }
    }
}

/// The S-App path's tag guards against restoring into a backend of a
/// different scheme; then come the fabric and the S-App path's fields.
impl Snapshot for Backend {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.sapp.tag());
        self.fabric.save_state(w);
        match &self.sapp {
            SAppPath::None => {}
            SAppPath::Oram { fsm, ids } => {
                fsm.save_state(w);
                ids.put(w);
            }
            SAppPath::SecMem(frontend) => frontend.save_state(w),
            SAppPath::Delegated(d) => d.save_state(w),
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        if tag != self.sapp.tag() {
            return Err(SnapshotError::new(format!(
                "backend flavor mismatch: checkpoint has {tag}, configuration builds {}",
                self.sapp.tag()
            )));
        }
        self.fabric.load_state(r)?;
        match &mut self.sapp {
            SAppPath::None => {}
            SAppPath::Oram { fsm, ids } => {
                fsm.load_state(r)?;
                *ids = Codec::get(r)?;
            }
            SAppPath::SecMem(frontend) => frontend.load_state(r)?,
            SAppPath::Delegated(d) => d.load_state(r)?,
        }
        Ok(())
    }
}

// The recorder wiring is redone by the host after restore.
doram_sim::impl_snapshot!(Delegated {
    secure: state,
    engine: state,
    split_fwd,
    pending_split,
    pending_deliver,
} skip { mux_blame });

/// Who waits on which read, and the NS-Apps' latency record.
struct Ledger {
    /// Read ids the cores are blocked on → core index.
    owners: IdMap<RequestId, usize>,
    ns_read_latency: RunningMean,
    ns_write_latency: RunningMean,
    ns_read_histogram: Histogram,
    /// Read ids completed this cycle, to deliver to cores.
    ready_reads: Vec<(usize, RequestId)>,
}

impl Ledger {
    /// Records an NS completion (latency stats + core wake-up).
    fn record(&mut self, c: &Completion) {
        let lat = (c.finished.0 - c.request.arrival.0) as f64;
        match c.request.op {
            MemOp::Read => {
                self.ns_read_latency.record(lat);
                self.ns_read_histogram.record(lat as u64);
                self.wake(c.request.id);
            }
            MemOp::Write => self.ns_write_latency.record(lat),
        }
    }

    /// Wakes the core blocked on read `id`, if any.
    fn wake(&mut self, id: RequestId) {
        if let Some(core) = self.owners.remove(&id) {
            self.ready_reads.push((core, id));
        }
    }
}

doram_sim::impl_snapshot!(Ledger {
    owners,
    ns_read_latency: state,
    ns_write_latency: state,
    ns_read_histogram: state,
    ready_reads,
});

/// Everything the memory side owns (kept separate from the cores so both
/// can be borrowed at once).
struct MemoryState {
    backend: Backend,
    routers: Vec<NsRouter>,
    idgen: RequestIdGen,
    ledger: Ledger,
}

impl MemoryState {
    /// NS router index for a core: the S-App, when present, is core 0.
    fn ns_index(&self, core_idx: usize) -> usize {
        core_idx - usize::from(!matches!(self.backend.sapp, SAppPath::None))
    }
}

// Routing tables are configuration.
doram_sim::impl_snapshot!(MemoryState { backend: state, idgen, ledger: state } skip { routers });

/// The port one core uses during its step.
struct CorePort<'a> {
    mem: &'a mut MemoryState,
    core_idx: usize,
    is_sapp: bool,
    now: MemCycle,
}

impl MemoryPort for CorePort<'_> {
    fn try_read(&mut self, addr: u64) -> Option<RequestId> {
        if self.is_sapp {
            return self.try_sapp(MemOp::Read, addr).flatten();
        }
        let id = self.try_ns(MemOp::Read, addr)?;
        self.mem.ledger.owners.insert(id, self.core_idx);
        Some(id)
    }

    fn try_write(&mut self, addr: u64) -> bool {
        if self.is_sapp {
            return self.try_sapp(MemOp::Write, addr).is_some();
        }
        self.try_ns(MemOp::Write, addr).is_some()
    }
}

impl CorePort<'_> {
    /// NS access on the channel the core's router picks; the request's id
    /// when the channel accepted it.
    fn try_ns(&mut self, op: MemOp, addr: u64) -> Option<RequestId> {
        let mem = &mut *self.mem;
        let id = mem.idgen.next_id();
        let router = &mem.routers[mem.ns_index(self.core_idx)];
        let (ch, req) = router.request(id, op, addr, self.now);
        mem.backend.route_ns(ch, req, self.now).then_some(id)
    }

    /// S-App access through the scheme's S-App path. `None` is
    /// back-pressure; an accepted access yields the read id the core
    /// blocks on, or `Some(None)` for a posted write.
    fn try_sapp(&mut self, op: MemOp, addr: u64) -> Option<Option<RequestId>> {
        let MemoryState {
            backend,
            idgen,
            ledger,
            ..
        } = &mut *self.mem;
        let is_read = op == MemOp::Read;
        let block = addr >> 6;
        let id = match &mut backend.sapp {
            SAppPath::None => unreachable!("no S-App in NS-only schemes"),
            SAppPath::Oram { fsm, .. } => {
                if !fsm.can_submit() {
                    return None;
                }
                let id = is_read.then(|| idgen.next_id());
                fsm.submit(OramJob::Real { id, op, block });
                id
            }
            SAppPath::SecMem(frontend) => {
                // A refused read still consumes its id.
                let id = is_read.then(|| idgen.next_id());
                if !frontend.try_submit(id, op, addr, self.now, &mut backend.fabric, idgen) {
                    return None;
                }
                id
            }
            SAppPath::Delegated(d) => {
                if !d.engine.can_submit() {
                    return None;
                }
                let id = is_read.then(|| idgen.next_id());
                d.engine.submit(id, op, block);
                id
            }
        };
        if let Some(id) = id {
            ledger.owners.insert(id, self.core_idx);
        }
        Some(id)
    }
}

/// A configured, runnable simulation.
pub struct Simulation {
    cfg: SystemConfig,
    cores: Vec<CoreSlot>,
    mem: MemoryState,
    /// Memory cycles completed so far (non-zero after a resume).
    cycle: u64,
    /// Trace recorder shared with every instrumented component; `None`
    /// (the default) keeps the whole stack silent. Deliberately not part
    /// of [`SystemConfig`]: tracing is a run option and must not change
    /// the checkpoint configuration hash.
    obs: Option<SharedRecorder>,
}

impl Simulation {
    /// Builds the system for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: SystemConfig) -> Result<Simulation, ConfigError> {
        cfg.validate()?;
        let sapp = cfg.scheme.has_sapp();
        let n_ns = cfg.scheme.ns_apps();
        let n_cores = n_ns + usize::from(sapp);

        // Cores and traces.
        let mut cores = Vec::with_capacity(n_cores);
        for core_idx in 0..n_cores {
            cores.push(CoreSlot {
                core: TraceCore::new(CoreConfig::default(), trace_segment(&cfg, core_idx, 0)),
                is_sapp: sapp && core_idx == 0,
                first_finish_cpu: None,
                restarts: 0,
                at: 0,
                wake: 0,
            });
        }

        // NS routing tables.
        let routers: Vec<NsRouter> = (0..n_ns)
            .map(|ns| NsRouter::new(AppId(ns + usize::from(sapp)), cfg.allowed_channels(ns)))
            .collect();

        // Memory backend.
        let share = match cfg.scheme {
            // Cooperative bandwidth preallocation applies where the ORAM
            // burst co-runs persistently: the Baseline's shared channels.
            // D-ORAM's normal channels only see sparse split-level fetches,
            // which plain FR-FCFS absorbs (slot partitioning would delay
            // every fetch by up to an epoch and stall the SD's read phase).
            Scheme::Baseline => cfg.share_threshold,
            _ => 1.0,
        };
        let mut sub_cfg = ChannelFabric::paper_subchannel_config(cfg.timing, share);
        sub_cfg.page_policy = cfg.page_policy;
        let plan = PlanConfig {
            geometry: TreeGeometry::new(cfg.tree_l_max, cfg.tree_z),
            subtree_levels: cfg.subtree_levels,
            cached_levels: cfg.tree_top_levels,
            split: SplitConfig::none(),
            tree_units: cfg.channels,
        };
        let oram = |plan| SAppPath::Oram {
            fsm: OramFsm::new(plan, cfg.seed ^ 0x0A0A, 4),
            ids: HashSet::new(),
        };
        let sapp = match cfg.scheme {
            Scheme::SoloNs | Scheme::Ns7on4 | Scheme::Ns7on3 => SAppPath::None,
            Scheme::Baseline => oram(plan),
            // The partitioned setting confines the tree to channel #0
            // (tree_units = 1 ⇒ every block lands on unit 0 = channel 0);
            // the NS routers already exclude that channel.
            Scheme::Partition1S => oram(PlanConfig {
                tree_units: 1,
                ..plan
            }),
            Scheme::SecureMemory => SAppPath::SecMem(SecMemFrontend::new(
                cfg.channels,
                AppId(0),
                cfg.seed ^ 0x5EC,
            )),
            Scheme::DOram { k, .. } => {
                let split = if k == 0 {
                    SplitConfig::none()
                } else {
                    SplitConfig::new(k, cfg.channels - 1)
                };
                let mut secure_sub_cfg = if cfg.secure_share_threshold >= 1.0 {
                    doram_dram::SubChannelConfig {
                        arbiter: doram_dram::ShareArbiter::oram_priority(),
                        ..ChannelFabric::paper_subchannel_config(cfg.timing, 1.0)
                    }
                } else {
                    ChannelFabric::paper_subchannel_config(cfg.timing, cfg.secure_share_threshold)
                };
                secure_sub_cfg.page_policy = cfg.page_policy;
                let secure = SecureChannel::new(SecureChannelConfig {
                    link: cfg.link,
                    sub_channels: vec![secure_sub_cfg; cfg.secure_subchannels],
                    plan: PlanConfig {
                        split,
                        tree_units: cfg.secure_subchannels,
                        ..plan
                    },
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
                });
                SAppPath::Delegated(Box::new(Delegated {
                    secure,
                    engine: CpuEngine::new(cfg.dummy_interval_cpu, 4),
                    split_fwd: IdMap::default(),
                    pending_split: VecDeque::new(),
                    pending_deliver: VecDeque::new(),
                    mux_blame: None,
                }))
            }
        };
        let fabric = if matches!(sapp, SAppPath::Delegated(_)) {
            let mut normals = ChannelFabric::bob(cfg.channels - 1, cfg.link, &sub_cfg);
            // Link sites: 0 is the secure channel; normal channel links
            // start at 1.
            normals.set_fault_plan(&cfg.fault_plan, 1);
            normals
        } else {
            ChannelFabric::direct(cfg.channels, &sub_cfg)
        };

        let mem = MemoryState {
            backend: Backend { fabric, sapp },
            routers,
            idgen: RequestIdGen::new(),
            ledger: Ledger {
                owners: IdMap::default(),
                ns_read_latency: RunningMean::new(),
                ns_write_latency: RunningMean::new(),
                ns_read_histogram: Histogram::new(8, 256),
                ready_reads: Vec::new(),
            },
        };

        Ok(Simulation {
            cfg,
            cores,
            mem,
            cycle: 0,
            obs: None,
        })
    }

    /// Attaches the cycle-accurate trace recorder, wiring it into every
    /// instrumented component, and returns the shared handle (clone it
    /// before [`run`](Simulation::run) consumes the simulation to export
    /// the trace afterwards). Idempotent: called on a simulation that
    /// already records — e.g. after [`Simulation::resume`] restored a
    /// traced checkpoint — it only updates the subsystem filter and the
    /// metrics sampling interval, so a resumed run continues its trace
    /// seamlessly.
    pub fn enable_tracing(
        &mut self,
        ring_capacity: usize,
        filter: u8,
        metrics_every: u64,
    ) -> SharedRecorder {
        if let Some(obs) = &self.obs.clone() {
            {
                let mut rec = obs.borrow_mut();
                rec.set_filter(filter);
                rec.metrics.set_every(metrics_every);
            }
            // Re-wire: blame-row registration is gated on the subsystem
            // filter at attach time, so a filter change must propagate.
            self.mem.backend.set_obs(obs);
            return obs.clone();
        }
        let obs = Recorder::shared(ring_capacity, filter, metrics_every);
        self.mem.backend.set_obs(&obs);
        self.obs = Some(obs.clone());
        obs
    }

    /// Rebuilds the simulation from `cfg` and restores its dynamic state
    /// from the checkpoint at `path`; [`Simulation::run`] (or
    /// [`run_with`](Simulation::run_with)) then continues from the
    /// checkpointed cycle, producing a [`RunReport`] bit-identical to an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] if `cfg` is invalid, [`SimError::Checkpoint`]
    /// if the file is unreadable, corrupt, from another format version, or
    /// was taken under a different configuration.
    pub fn resume(cfg: SystemConfig, path: &Path) -> Result<Simulation, SimError> {
        Simulation::resume_with_key(cfg, path, None)
    }

    /// Like [`resume`](Simulation::resume), additionally enforcing the
    /// active-adversary checks: with a key, the checkpoint's CMAC must
    /// verify (`bad_mac` otherwise — tampered file or wrong key), and in
    /// either mode the checkpoint's run epoch must not pre-date the
    /// directory's epoch marker (`rolled_back` — an older-but-authentic
    /// file substituted for the latest one).
    ///
    /// # Errors
    ///
    /// Everything [`resume`](Simulation::resume) returns, plus
    /// [`SimError::Checkpoint`] for authentication and rollback failures.
    pub fn resume_with_key(
        cfg: SystemConfig,
        path: &Path,
        key: Option<u64>,
    ) -> Result<Simulation, SimError> {
        let mut sim = Simulation::new(cfg).map_err(|e| SimError::Config {
            detail: e.to_string(),
        })?;
        let data = read_checkpoint(path).map_err(|e| SimError::Checkpoint {
            detail: format!("[{}] {}: {}", e.kind().label(), path.display(), e.message()),
        })?;
        let typed = |kind: SnapshotErrorKind, msg: String| SimError::Checkpoint {
            detail: format!("[{}] {}: {msg}", kind.label(), path.display()),
        };
        match (key, data.is_authenticated()) {
            (Some(k), _) => {
                let want = ckpt_mac(k).full_tag(&checkpoint_auth_message(&data));
                if data.auth != want {
                    return Err(typed(
                        SnapshotErrorKind::BadMac,
                        "checkpoint authentication failed (tampered file or wrong key)".into(),
                    ));
                }
            }
            (None, true) => {
                return Err(typed(
                    SnapshotErrorKind::BadMac,
                    "checkpoint is authenticated; resuming requires its key".into(),
                ));
            }
            (None, false) => {}
        }
        if let Some(dir) = path.parent() {
            let marker = read_epoch_marker(dir)?;
            if data.epoch < marker {
                return Err(typed(
                    SnapshotErrorKind::RolledBack,
                    format!(
                        "checkpoint epoch {} pre-dates the directory's latest run \
                         epoch {marker} (rollback rejected)",
                        data.epoch
                    ),
                ));
            }
        }
        let want = config_hash(&sim.cfg);
        if data.config_hash != want {
            return Err(SimError::Checkpoint {
                detail: format!(
                    "{}: taken under a different configuration \
                     (hash {:#018x}, this run's is {want:#018x})",
                    path.display(),
                    data.config_hash
                ),
            });
        }
        sim.restore_payload(&data.payload)
            .map_err(|e| SimError::Checkpoint {
                detail: format!("{}: {e}", path.display()),
            })?;
        if sim.cycle != data.cycle {
            return Err(SimError::Checkpoint {
                detail: format!(
                    "{}: header cycle {} disagrees with payload cycle {}",
                    path.display(),
                    data.cycle,
                    sim.cycle
                ),
            });
        }
        Ok(sim)
    }

    /// Serializes the complete dynamic state (cycle, cores, memory, and —
    /// when tracing is on — the recorder, so a resumed run continues its
    /// trace seamlessly).
    fn snapshot_payload(&self) -> Vec<u8> {
        let Simulation {
            cfg: _,
            cores,
            mem,
            cycle,
            obs,
        } = self;
        let mut w = SnapshotWriter::new();
        cycle.put(&mut w);
        cores.save_state(&mut w);
        mem.save_state(&mut w);
        // The recorder travels with its ring capacity, so a resume without
        // tracing options can rebuild it.
        w.put_bool(obs.is_some());
        if let Some(rec) = obs {
            let rec = rec.borrow();
            let (_, _, capacity) = rec.ring_stats();
            capacity.put(&mut w);
            rec.save_state(&mut w);
        }
        w.into_bytes()
    }

    /// Restores the dynamic state written by
    /// [`snapshot_payload`](Simulation::snapshot_payload).
    fn restore_payload(&mut self, payload: &[u8]) -> Result<(), SnapshotError> {
        let Simulation {
            cfg,
            cores,
            mem,
            cycle,
            obs,
        } = self;
        let mut r = SnapshotReader::new(payload);
        *cycle = Codec::get(&mut r)?;
        cores.load_state(&mut r)?;
        for (core_idx, slot) in cores.iter_mut().enumerate() {
            slot.core
                .resume_trace(trace_segment(cfg, core_idx, slot.restarts))?;
            (slot.at, slot.wake) = (*cycle, *cycle);
        }
        mem.load_state(&mut r)?;
        if r.get_bool()? {
            let capacity = r.get_usize()?;
            // Filter and sampling interval are run options, not state;
            // `enable_tracing` overrides these defaults when the resumed
            // run passes its own.
            let rec = obs.take().unwrap_or_else(|| {
                Recorder::shared(
                    capacity,
                    doram_obs::FILTER_ALL,
                    doram_obs::DEFAULT_METRICS_EVERY,
                )
            });
            rec.borrow_mut().load_state(&mut r)?;
            mem.backend.set_obs(&rec);
            *obs = Some(rec);
        }
        r.finish()
    }

    /// Writes a `ckpt-<cycle>.dorc` file into `dir` crash-consistently,
    /// stamped with this run's epoch and — when keyed — an authentication
    /// tag over the whole header and payload.
    fn write_checkpoint_file(
        &self,
        dir: &Path,
        hash: u64,
        epoch: u64,
        key: Option<u64>,
    ) -> Result<PathBuf, SimError> {
        let path = dir.join(format!("ckpt-{:012}.dorc", self.cycle));
        let payload = self.snapshot_payload();
        let mut data = CheckpointData::unkeyed(hash, epoch, self.cycle, payload);
        if let Some(k) = key {
            data.auth = ckpt_mac(k).full_tag(&checkpoint_auth_message(&data));
        }
        write_checkpoint(&path, &data).map_err(|e| SimError::Checkpoint {
            detail: format!("writing {}: {e}", path.display()),
        })?;
        Ok(path)
    }

    /// The watchdog's forward-progress stamp: retired instructions plus
    /// DRAM column commands, both monotone. Unchanged over a whole budget
    /// of cycles means nothing retired and nothing drained.
    fn progress_stamp(&self) -> u64 {
        let retired: u64 = self.cores.iter().map(|c| c.core.retired()).sum();
        retired + self.mem.backend.column_ops()
    }

    /// Takes every core to the start of memory cycle `to`, before a
    /// checkpoint, the watchdog's verdict or the stall dump reads them.
    fn catch_up_all(&mut self, to: u64, mut watchdog: Option<&mut Watchdog>) {
        for slot in &mut self.cores {
            slot.catch_up(to, watchdog.as_deref_mut());
        }
    }

    /// Structured diagnostic dump of every component's dynamic state for
    /// [`SimError::Stalled`]. When tracing is on, the dump also carries
    /// the latest latched metrics and the tail of the event log — the
    /// last things that happened before progress stopped.
    fn stall_dump(&self) -> StallDump {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, slot)| CoreStall {
                index: i,
                is_sapp: slot.is_sapp,
                retired: slot.core.retired(),
                finished: slot.core.finished(),
                restarts: slot.restarts,
            })
            .collect();
        let (metrics, recent_events) = match &self.obs {
            Some(obs) => {
                let rec = obs.borrow();
                (rec.metrics.latest(), rec.recent_events(STALL_EVENT_TAIL))
            }
            None => (Vec::new(), Vec::new()),
        };
        StallDump {
            cores,
            blocked_reads: self.mem.ledger.owners.len() as u64,
            components: self.mem.backend.debug_lines(),
            metrics,
            recent_events,
        }
    }

    /// Samples the telemetry gauges into the recorder's time-series when
    /// the sampling interval elapses. A single branch when tracing is off.
    fn sample_metrics(&self, m: u64) {
        let Some(obs) = &self.obs else { return };
        let mut rec = obs.borrow_mut();
        if !rec.metrics.due(m) {
            return;
        }
        let metrics = &mut rec.metrics;
        metrics.set("blocked_reads", self.mem.ledger.owners.len() as f64);
        let Backend { fabric, sapp } = &self.mem.backend;
        let delegated = match sapp {
            SAppPath::Delegated(d) => Some(d),
            _ => None,
        };
        if let Some(d) = delegated {
            let (secure, engine) = (&d.secure, &d.engine);
            let st = engine.stats();
            let real = st.real_sent.get();
            let dummy = st.dummies_sent.get();
            metrics.set("engine.queue", engine.queue_len() as f64);
            metrics.set("engine.sent", (real + dummy) as f64);
            let rate = if real + dummy > 0 {
                real as f64 / (real + dummy) as f64
            } else {
                0.0
            };
            metrics.set("engine.real_rate", rate);
            metrics.set("sd.queue", secure.sd_queue_len() as f64);
            metrics.set("sd.out_pending", secure.out_pending_len() as f64);
            for (i, sub) in secure.subs().iter().enumerate() {
                metrics.set(&format!("sd.sub{i}.queue"), sub.queued() as f64);
                metrics.set(&format!("sd.sub{i}.util"), sub.stats().bus_utilization());
            }
        }
        // The secure channel reports per sub-channel above.
        let backend = &self.mem.backend;
        let base = backend.fabric_base();
        for (n, subs) in backend.channel_subs().enumerate().skip(base) {
            let util = sub_mean(subs, SubChannelStats::bus_utilization);
            metrics.set(&format!("ch{n}.util"), util);
        }
        if let Some(d) = delegated {
            let secure = &d.secure;
            let sd = secure.sd_fault_stats();
            let mut link = secure.link_stats();
            link.absorb(&fabric.link_stats());
            metrics.set("fault.integrity_failures", sd.integrity_failures as f64);
            metrics.set("fault.refetches", sd.refetches as f64);
            metrics.set("fault.retransmissions", link.retransmissions as f64);
            metrics.set("fault.parity_rebuilds", sd.parity_rebuilds as f64);
            metrics.set("fault.scrub_repairs", sd.scrub_repairs as f64);
            for (i, h) in sd.health.iter().enumerate() {
                metrics.set(&format!("health.sub{i}"), *h as u8 as f64);
            }
            let (lm, lc) = secure.link_health();
            metrics.set("health.link_to_mem", lm as u8 as f64);
            metrics.set("health.link_to_cpu", lc as u8 as f64);
            let split_backlog = d.split_fwd.len() + d.pending_split.len() + d.pending_deliver.len();
            metrics.set("split.backlog", split_backlog as f64);
        }
        metrics.sample(m);
    }

    /// Like [`run`](Simulation::run), but records every DRAM device
    /// command and re-validates the full JEDEC rule set with the
    /// independent checker of [`doram_dram::conformance`] before
    /// reporting. Slower and memory-hungry; meant for validation suites.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleCapExceeded`] or [`SimError::JedecViolation`].
    pub fn run_with_conformance_check(mut self) -> Result<RunReport, SimError> {
        for sub in self.mem.backend.subs_mut() {
            sub.enable_command_trace();
        }
        self.advance(&RunOptions::default())?;
        for (idx, sub) in self.mem.backend.subs_mut().enumerate() {
            let trace = sub.take_command_trace();
            if let Err(v) = doram_dram::check_conformance(&trace, &self.cfg.timing) {
                return Err(SimError::JedecViolation {
                    sub_channel: idx,
                    detail: v[0].to_string(),
                });
            }
        }
        Ok(self.report())
    }

    /// Runs to completion (every NS-App finished its trace once).
    ///
    /// # Errors
    ///
    /// [`SimError::CycleCapExceeded`] if the safety cap is hit first.
    pub fn run(self) -> Result<RunReport, SimError> {
        self.run_with(&RunOptions::default())
    }

    /// Like [`run`](Simulation::run), with crash-safety harness features:
    /// periodic checkpointing, the liveness watchdog, and graceful
    /// shutdown on SIGINT/SIGTERM. Continues from the checkpointed cycle
    /// when `self` came from [`Simulation::resume`].
    ///
    /// # Errors
    ///
    /// Everything [`run`](Simulation::run) returns, plus
    /// [`SimError::Config`] for invalid options, [`SimError::Checkpoint`]
    /// for checkpoint I/O failures, [`SimError::Stalled`] when the
    /// watchdog fires, and [`SimError::Interrupted`] on graceful shutdown.
    pub fn run_with(mut self, opts: &RunOptions) -> Result<RunReport, SimError> {
        self.advance(opts)?;
        Ok(self.report())
    }

    /// Steps memory cycles until every NS-App has finished its trace once.
    fn advance(&mut self, opts: &RunOptions) -> Result<(), SimError> {
        opts.validate(&self.cfg)?;
        let cap = self.cfg.max_mem_cycles;
        // Checkpoint files carry the config hash and this run's epoch; a run
        // that writes none computes neither. Claim the epoch up front: the
        // marker is durably bumped before any checkpoint carries it, so
        // even a crash mid-run leaves older-epoch files detectable as
        // rolled back.
        let ckpt = match &opts.checkpoint_dir {
            Some(dir) => Some((dir, config_hash(&self.cfg), allocate_epoch(dir)?)),
            None => None,
        };
        let start_cycle = self.cycle;
        if opts.handle_signals {
            install_signal_handlers();
        }
        let mut watchdog = opts.watchdog_budget.map(|budget| Watchdog {
            budget,
            stamp: self.progress_stamp(),
            since: self.cycle,
        });
        // Host self-profiler: wall-clock throughput plus a strided sample
        // of where host time goes. Never checkpointed; purely diagnostic.
        let prof_ids = self.obs.as_ref().map(|obs| {
            let mut rec = obs.borrow_mut();
            rec.prof.begin_segment();
            (
                rec.prof.component("cpu.step"),
                rec.prof.component("memory.tick"),
                rec.prof.component("loop.jump"),
            )
        });
        // Jumps taken while profiling: one in every stride is timed.
        let mut jumps = 0u64;
        loop {
            let m = self.cycle;
            if m >= cap {
                return Err(SimError::CycleCapExceeded { cap });
            }
            if opts.handle_signals && SHUTDOWN.load(Ordering::SeqCst) {
                SHUTDOWN.store(false, Ordering::SeqCst);
                let checkpoint = match ckpt {
                    Some((dir, hash, epoch)) => {
                        self.catch_up_all(m, watchdog.as_mut());
                        Some(self.write_checkpoint_file(dir, hash, epoch, opts.ckpt_key)?)
                    }
                    None => None,
                };
                return Err(SimError::Interrupted { at: m, checkpoint });
            }
            if let (Some(every), Some((dir, hash, epoch))) = (opts.checkpoint_every, ckpt) {
                // State here reflects cycles 0..m completed; skip the
                // trivial cycle-0 file and the cycle a resume started at
                // (its checkpoint already exists).
                if m > 0 && m != start_cycle && m.is_multiple_of(every) {
                    self.catch_up_all(m, watchdog.as_mut());
                    self.write_checkpoint_file(dir, hash, epoch, opts.ckpt_key)?;
                }
            }
            if let Some(wd) = &mut watchdog {
                let p = self.progress_stamp();
                if p != wd.stamp {
                    wd.stamp = p;
                    wd.since = m;
                }
            }
            if watchdog.as_ref().is_some_and(|wd| wd.expired(m)) {
                // Parked cores may have retired since: learn when.
                self.catch_up_all(m, watchdog.as_mut());
                if let Some(wd) = watchdog.as_ref().filter(|wd| wd.expired(m)) {
                    return Err(SimError::Stalled {
                        at: m,
                        budget: wd.budget,
                        dump: self.stall_dump(),
                    });
                }
            }
            // Every core is parked and no channel can act: take the
            // cycles up to the next event that must be stepped at once.
            if let Some(end) = self.quiet_until(m) {
                let mut end = end.min(cap);
                if let (Some(every), Some(_)) = (opts.checkpoint_every, ckpt) {
                    end = end.min((m / every + 1) * every);
                }
                if let Some(wd) = &watchdog {
                    end = end.min(wd.since + wd.budget);
                }
                if let Some(obs) = &self.obs {
                    end = end.min(m.next_multiple_of(obs.borrow().metrics.every()));
                }
                if end > m {
                    let prof_t0 = prof_ids
                        .filter(|_| {
                            jumps += 1;
                            doram_obs::SelfProfiler::sample_due(jumps - 1)
                        })
                        .map(|(_, _, jump_id)| (jump_id, std::time::Instant::now()));
                    self.mem.backend.fabric.skip(MemCycle(m), MemCycle(end));
                    self.cycle = end;
                    if let (Some((jump_id, t0)), Some(obs)) = (prof_t0, &self.obs) {
                        obs.borrow_mut().prof.charge(jump_id, t0.elapsed());
                    }
                    continue;
                }
            }
            let now = MemCycle(m);
            let prof_now = prof_ids
                .filter(|_| doram_obs::SelfProfiler::sample_due(m))
                .map(|(cpu_id, mem_id, _)| ((cpu_id, mem_id), std::time::Instant::now()));

            // CPU: 4 cycles per memory cycle, for the cores awake in it.
            // A parked core calls no port method, so skipping it leaves
            // the others' port calls as they were.
            for slot in &mut self.cores {
                if slot.wake <= m {
                    slot.catch_up(m, watchdog.as_mut());
                }
            }
            for _ in 0..CPU_CYCLES_PER_MEM_CYCLE {
                for core_idx in 0..self.cores.len() {
                    if self.cores[core_idx].wake > m {
                        continue;
                    }
                    let is_sapp = self.cores[core_idx].is_sapp;
                    let mut port = CorePort {
                        mem: &mut self.mem,
                        core_idx,
                        is_sapp,
                        now,
                    };
                    self.cores[core_idx].core.step(&mut port);
                }
            }
            for slot in &mut self.cores {
                if slot.wake <= m {
                    slot.park(m + 1);
                }
            }
            let prof_cpu_done =
                prof_now.map(|(ids, t0)| (ids, t0.elapsed(), std::time::Instant::now()));

            // Memory side.
            tick_memory(&mut self.mem, now);
            if let (Some(((cpu_id, mem_id), cpu_cost, mem_t0)), Some(obs)) =
                (prof_cpu_done, &self.obs)
            {
                let mem_cost = mem_t0.elapsed();
                let mut rec = obs.borrow_mut();
                rec.prof.charge(cpu_id, cpu_cost);
                rec.prof.charge(mem_id, mem_cost);
            }
            self.sample_metrics(m);

            // Deliver read completions to cores, each brought to the end of
            // this cycle first.
            for (core_idx, id) in std::mem::take(&mut self.mem.ledger.ready_reads) {
                let slot = &mut self.cores[core_idx];
                slot.catch_up(m + 1, watchdog.as_mut());
                slot.core.complete_read(id);
                slot.park(m + 1);
            }

            // Finish / restart bookkeeping.
            let mut all_ns_done = true;
            for (core_idx, slot) in self.cores.iter_mut().enumerate() {
                // Finishing pulls from the trace, which ends a quiet
                // horizon: only a core that stepped this cycle can finish.
                debug_assert!(
                    slot.at == m + 1 || !slot.core.finished(),
                    "core {core_idx} finished while parked"
                );
                if slot.core.finished() {
                    if slot.first_finish_cpu.is_none() {
                        slot.first_finish_cpu = Some((m + 1) * CPU_CYCLES_PER_MEM_CYCLE);
                    }
                    // Restart to keep pressure constant.
                    slot.restarts += 1;
                    let trace = trace_segment(&self.cfg, core_idx, slot.restarts);
                    slot.core = TraceCore::new(CoreConfig::default(), trace);
                    slot.wake = m + 1;
                }
                if !slot.is_sapp && slot.first_finish_cpu.is_none() {
                    all_ns_done = false;
                }
            }
            if all_ns_done {
                break;
            }
            self.cycle += 1;
        }
        if let (Some(_), Some(obs)) = (prof_ids, &self.obs) {
            obs.borrow_mut()
                .prof
                .end_segment(self.cycle + 1 - start_cycle);
        }
        // Escalate exhausted SD integrity recovery: unauthenticated data
        // may have been served, so the run's results cannot be trusted.
        // Link retry exhaustion is different — the frame was still
        // delivered (the link latches the fault but keeps going), so a
        // run that drained afterwards completes and surfaces the latched
        // fault through `FaultReport::latched_fault` instead of silently
        // discarding its results behind a hard error.
        if let SAppPath::Delegated(d) = &self.mem.backend.sapp {
            if let Some(fault) = d.secure.sd_fault() {
                return Err(SimError::IntegrityFailStop {
                    detail: fault.to_string(),
                });
            }
        }
        Ok(())
    }

    /// The end of a stretch from cycle `m` in which every cycle only
    /// counts and every core is parked: the earlier of the backend's wake
    /// cycle, before which no channel acts and so no read completes, and
    /// the earliest core wake. `None` when cycle `m` must be stepped.
    fn quiet_until(&self, m: u64) -> Option<u64> {
        let wake = self.mem.backend.wake_at()?.0;
        let end = self.cores.iter().map(|slot| slot.wake).fold(wake, u64::min);
        (end > m).then_some(end)
    }

    /// The report of a run [`advance`](Simulation::advance) finished.
    fn report(self) -> RunReport {
        let Simulation {
            cfg,
            cores,
            mem,
            cycle,
            ..
        } = self;
        let ns_exec: Vec<u64> = cores
            .iter()
            .filter(|c| !c.is_sapp)
            .map(|c| c.first_finish_cpu.expect("run ended with all NS done"))
            .collect();

        // Per-channel figures in paper channel order.
        let backend = &mem.backend;
        let energy_params = doram_dram::EnergyParams::ddr3_1600();
        let per_channel = |f: fn(&SubChannelStats) -> f64| {
            backend.channel_subs().map(|s| sub_mean(s, f)).collect()
        };
        let channel_utilization = per_channel(SubChannelStats::bus_utilization);
        let channel_row_hit = per_channel(SubChannelStats::row_hit_rate);
        let channel_energy = backend
            .channel_subs()
            .map(|s| sub_energy(s, &energy_params))
            .collect();
        let (oram, secure_link_bytes, faults) = match &backend.sapp {
            SAppPath::None | SAppPath::SecMem(_) => (None, None, None),
            SAppPath::Oram { fsm, .. } => (Some(summarize(fsm.stats())), None, None),
            SAppPath::Delegated(d) => (
                Some(summarize(d.secure.oram_stats())),
                Some(d.secure.link_bytes()),
                Some(fault_report(&d.secure, &backend.fabric)),
            ),
        };

        RunReport {
            scheme: cfg.scheme,
            benchmark: cfg.benchmark,
            ns_exec_cpu_cycles: ns_exec,
            ns_read_latency: mem.ledger.ns_read_latency,
            ns_write_latency: mem.ledger.ns_write_latency,
            ns_read_histogram: mem.ledger.ns_read_histogram,
            channel_utilization,
            channel_row_hit,
            oram,
            secure_link_bytes,
            channel_energy,
            total_mem_cycles: cycle + 1,
            faults,
        }
    }
}

/// Aggregates fault and recovery counters over the secure channel and
/// every normal channel's link.
fn fault_report(secure: &SecureChannel, normals: &ChannelFabric) -> crate::metrics::FaultReport {
    let mut injected = secure.fault_counts();
    injected.absorb(&normals.fault_counts());
    let mut link = secure.link_stats();
    link.absorb(&normals.link_stats());
    let sd = secure.sd_fault_stats();
    crate::metrics::FaultReport {
        injected,
        retransmissions: link.retransmissions,
        crc_errors: link.crc_errors,
        timeouts: link.timeouts,
        exhausted_retries: link.exhausted_retries,
        link_recovery_cycles: link.recovery_cycles,
        integrity_failures: sd.integrity_failures,
        refetches: sd.refetches,
        sd_recovery_cycles: sd.recovery_cycles,
        quarantined_subs: sd.quarantined_subs,
        parity_rebuilds: sd.parity_rebuilds,
        scrub_repairs: sd.scrub_repairs,
        // Link stale-drops are replays caught one layer down (sequence
        // check) before they could reach the SD; fold them in.
        replay_detected: sd.replay_detected + link.stale_drops,
        relocation_detected: sd.relocation_detected,
        rollback_rejected: sd.rollback_rejected,
        freshness_ops: sd.freshness_ops,
        freshness_cycles: sd.freshness_cycles,
        sub_health: sd.health,
        quarantine_entries: sd.quarantine_entries,
        unhealthy_cycles: sd.unhealthy_cycles,
        // A drained run can still carry a latched link fault (the retry
        // budget ran out but the frame was delivered); record it.
        latched_fault: secure
            .fault()
            .or_else(|| normals.fault())
            .map(|f| f.to_string()),
    }
}

fn summarize(s: &crate::onchip_oram::OramStats) -> OramSummary {
    OramSummary {
        real_accesses: s.real_accesses.get(),
        dummy_accesses: s.dummy_accesses.get(),
        access_latency: s.access_latency.mean(),
        read_phase_latency: s.read_phase_latency.mean(),
    }
}

/// Stream id: distinct per (segment, core, restart).
fn trace_stream_id(cfg: &SystemConfig, core_idx: usize, restart: u64) -> u64 {
    cfg.trace_stream * 1_000_000 + core_idx as u64 * 1_000 + restart
}

/// One memory-cycle step of the backend: the S-App path issues, the
/// fabric ticks, and the S-App path collects what came back.
fn tick_memory(mem: &mut MemoryState, now: MemCycle) {
    let MemoryState {
        backend: Backend { fabric, sapp },
        idgen,
        ledger,
        ..
    } = mem;
    let mut secure_ns_done = Vec::new();
    match sapp {
        SAppPath::None | SAppPath::SecMem(_) => {}
        SAppPath::Oram { fsm, ids } => {
            let mut events = Vec::new();
            let mut sink = FabricSink {
                fabric,
                idgen,
                app: AppId(0),
                issued: ids,
            };
            fsm.tick(now, &mut sink, &mut events);
            for e in events {
                if let FsmEvent::ReadPhaseDone(OramJob::Real { id: Some(id), .. }) = e {
                    ledger.wake(id);
                }
            }
        }
        SAppPath::Delegated(d) => secure_ns_done = d.tick_secure(now, fabric, idgen, ledger),
    }

    let mut completions = Vec::new();
    fabric.tick(now, &mut completions);
    for c in &completions {
        if !sapp.claim(c) {
            ledger.record(c);
        }
    }

    match sapp {
        SAppPath::SecMem(frontend) => {
            for id in frontend.poll_ready(now) {
                ledger.wake(id);
            }
        }
        SAppPath::Delegated(d) => d.deliver_splits(),
        SAppPath::None | SAppPath::Oram { .. } => {}
    }
    for c in &secure_ns_done {
        ledger.record(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_trace::Benchmark;
    use std::collections::BTreeSet;

    fn quick(scheme: Scheme) -> RunReport {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(scheme)
            .ns_accesses(400)
            .tree_l_max(12)
            .max_mem_cycles(20_000_000)
            .build()
            .unwrap();
        Simulation::new(cfg).unwrap().run().unwrap()
    }

    #[test]
    fn solo_runs_to_completion() {
        let r = quick(Scheme::SoloNs);
        assert_eq!(r.ns_exec_cpu_cycles.len(), 1);
        assert!(r.ns_exec_cpu_cycles[0] > 0);
        assert!(r.ns_read_latency.count() > 0);
    }

    #[test]
    fn corun_is_slower_than_solo() {
        let solo = quick(Scheme::SoloNs);
        let corun = quick(Scheme::Ns7on4);
        assert_eq!(corun.ns_exec_cpu_cycles.len(), 7);
        assert!(
            corun.ns_exec_mean() > solo.ns_exec_mean(),
            "7 co-runners must contend: solo {} vs corun {}",
            solo.ns_exec_mean(),
            corun.ns_exec_mean()
        );
    }

    #[test]
    fn three_channels_slower_than_four() {
        let four = quick(Scheme::Ns7on4);
        let three = quick(Scheme::Ns7on3);
        assert!(three.ns_exec_mean() > four.ns_exec_mean());
        // Channel 0 idles in the 3-channel partition.
        assert!(three.channel_utilization[0] < 0.01);
    }

    #[test]
    fn baseline_oram_interferes_heavily() {
        let plain = quick(Scheme::Ns7on4);
        let oram = quick(Scheme::Baseline);
        assert!(
            oram.ns_exec_mean() > plain.ns_exec_mean() * 1.1,
            "Path ORAM co-run must hurt NS-Apps: {} vs {}",
            oram.ns_exec_mean(),
            plain.ns_exec_mean()
        );
        let s = oram.oram.expect("ORAM stats present");
        assert!(s.real_accesses > 0);
        assert!(s.access_latency > 0.0);
    }

    #[test]
    fn doram_beats_baseline() {
        // Delegation pays off at realistic tree depth (the paper's L = 23),
        // where the Baseline's on-chip ORAM hammers all four channels; a
        // shallow tree underplays the interference delegation removes.
        let run = |scheme| {
            let cfg = SystemConfig::builder(Benchmark::Mummer)
                .scheme(scheme)
                .ns_accesses(800)
                .max_mem_cycles(50_000_000)
                .build()
                .unwrap();
            Simulation::new(cfg).unwrap().run().unwrap()
        };
        let base = run(Scheme::Baseline);
        let doram = run(Scheme::DOram { k: 0, c: 7 });
        assert!(
            doram.ns_exec_mean() < base.ns_exec_mean(),
            "delegation must relieve NS-Apps: D-ORAM {} vs Baseline {}",
            doram.ns_exec_mean(),
            base.ns_exec_mean()
        );
        assert!(doram.secure_link_bytes.unwrap().0 > 0);
        assert!(doram.oram.unwrap().dummy_accesses > 0, "pacing dummies ran");
    }

    #[test]
    fn secmem_runs() {
        let r = quick(Scheme::SecureMemory);
        assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
        assert!(r.oram.is_none());
    }

    #[test]
    fn doram_split_runs() {
        let r = quick(Scheme::DOram { k: 1, c: 7 });
        assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
        assert!(r.oram.unwrap().real_accesses > 0);
    }

    #[test]
    fn doram_sharing_c0_keeps_ns_off_secure_channel() {
        let r = quick(Scheme::DOram { k: 0, c: 0 });
        // All NS data on channels 1-3; the secure channel only serves the
        // S-App (so its NS utilization share is ORAM-only).
        assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
    }

    #[test]
    fn partitioned_sapp_keeps_normal_channels_clean() {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::Partition1S)
            .ns_accesses(400)
            .tree_l_max(12)
            .max_mem_cycles(50_000_000)
            .build()
            .unwrap();
        let r = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
        let o = r.oram.expect("on-chip ORAM ran");
        assert!(o.real_accesses > 0);
        // All ORAM traffic is on channel #0; it must be the busiest, and
        // the NS channels carry only NS traffic.
        assert!(
            r.channel_utilization[0] > r.channel_utilization[1],
            "utils {:?}",
            r.channel_utilization
        );
    }

    #[test]
    fn heterogeneous_mix_runs_distinct_benchmarks() {
        let mix = vec![
            Benchmark::Libq,
            Benchmark::Mummer,
            Benchmark::Black,
            Benchmark::Face,
            Benchmark::Tigr,
            Benchmark::Comm1,
            Benchmark::Stream,
        ];
        let cfg = SystemConfig::builder(Benchmark::Mummer)
            .scheme(Scheme::Ns7on4)
            .ns_accesses(300)
            .ns_benchmarks(mix)
            .build()
            .unwrap();
        let r = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(r.ns_exec_cpu_cycles.len(), 7);
        // Different MPKIs must produce visibly different execution times.
        assert!(
            r.ns_exec_worst() > 2 * r.ns_exec_best(),
            "{:?}",
            r.ns_exec_cpu_cycles
        );
    }

    #[test]
    fn mix_length_is_validated() {
        let bad = SystemConfig::builder(Benchmark::Black)
            .scheme(Scheme::Ns7on4)
            .ns_benchmarks(vec![Benchmark::Libq; 3])
            .build();
        assert!(bad.is_err());
    }

    #[test]
    fn faulty_doram_run_recovers_with_only_latency_cost() {
        use doram_sim::fault::{FaultPlan, FaultRates};
        // A fault plan corrupting (500 ppm) and dropping link frames plus
        // DRAM bit flips and forged MACs at the SD — the acceptance
        // scenario: the run completes, fault counters are nonzero,
        // recovery latency is broken out, and the workload's completion
        // profile matches the fault-free run (recovery hides faults from
        // correctness, costing only cycles).
        let run = |plan: FaultPlan| {
            let cfg = SystemConfig::builder(Benchmark::Libq)
                .scheme(Scheme::DOram { k: 0, c: 7 })
                .ns_accesses(400)
                .tree_l_max(12)
                .max_mem_cycles(50_000_000)
                .fault_plan(plan)
                .build()
                .unwrap();
            Simulation::new(cfg).unwrap().run().unwrap()
        };
        let clean = run(FaultPlan::none());
        let faulty_plan = FaultPlan::with_rates(
            42,
            FaultRates {
                corrupt_ppm: 500,
                drop_ppm: 200,
                bitflip_ppm: 2_000,
                forge_mac_ppm: 500,
                ..FaultRates::none()
            },
        );
        let faulty = run(faulty_plan.clone());
        let fr = faulty.faults.as_ref().expect("D-ORAM reports faults");
        assert!(fr.any_activity(), "faults must have fired: {fr:?}");
        assert!(fr.injected.total() > 0);
        assert!(fr.total_recovery_cycles() > 0, "recovery costs latency");
        assert!(fr.quarantined_subs.is_empty(), "rates stay sub-threshold");
        // The clean run reports an all-zero fault block.
        let cr = clean.faults.as_ref().expect("fault block present");
        assert!(!cr.any_activity(), "no faults without a plan: {cr:?}");
        // Same work got done either way (same accesses, same ORAM protocol
        // work); the runs differ only in time.
        assert_eq!(
            faulty.ns_exec_cpu_cycles.len(),
            clean.ns_exec_cpu_cycles.len()
        );
        let co = clean.oram.as_ref().unwrap();
        let fo = faulty.oram.as_ref().unwrap();
        assert!(fo.real_accesses > 0);
        // Same seed ⇒ same deterministic fault schedule.
        let again = run(faulty_plan);
        let fr2 = again.faults.as_ref().unwrap();
        assert_eq!(fr2, fr, "fault schedule must be reproducible");
        assert_eq!(again.ns_exec_cpu_cycles, faulty.ns_exec_cpu_cycles);
        assert!(co.access_latency > 0.0 && fo.access_latency > 0.0);
    }

    #[test]
    fn hostile_memory_fail_stops_the_run() {
        use doram_sim::fault::{FaultPlan, FaultRates};
        // Forge every MAC at the SD: recovery cannot converge and the run
        // must end in IntegrityFailStop rather than report results.
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 0, c: 7 })
            .ns_accesses(400)
            .tree_l_max(12)
            .max_mem_cycles(50_000_000)
            .fault_plan(FaultPlan::with_rates(
                7,
                FaultRates {
                    forge_mac_ppm: 1_000_000,
                    ..FaultRates::none()
                },
            ))
            .build()
            .unwrap();
        let err = Simulation::new(cfg).unwrap().run().unwrap_err();
        assert!(
            matches!(err, SimError::IntegrityFailStop { .. }),
            "expected fail-stop, got {err:?}"
        );
    }

    #[test]
    fn drained_run_surfaces_latched_link_fault() {
        use doram_sim::fault::{FaultPlan, FaultRates, FaultWindow};
        // A short 100%-corruption burst on the secure link exhausts at
        // least one frame's retry budget; the frame is still delivered,
        // so the run drains — and the latched fault must appear in the
        // report instead of being silently swallowed.
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 0, c: 7 })
            .ns_accesses(400)
            .tree_l_max(12)
            .max_mem_cycles(50_000_000)
            .fault_plan(
                FaultPlan {
                    seed: 11,
                    ..FaultPlan::none()
                }
                .site_window(
                    0,
                    FaultWindow {
                        start: doram_sim::MemCycle(1_000),
                        end: doram_sim::MemCycle(6_000),
                        rates: FaultRates {
                            corrupt_ppm: 1_000_000,
                            ..FaultRates::none()
                        },
                    },
                ),
            )
            .build()
            .unwrap();
        let report = Simulation::new(cfg).unwrap().run().unwrap();
        let fr = report.faults.as_ref().expect("fault block present");
        assert!(fr.exhausted_retries > 0, "budget must have run out: {fr:?}");
        let latched = fr
            .latched_fault
            .as_ref()
            .expect("latched fault surfaces in the drained run's report");
        assert!(latched.contains("retry budget exhausted"), "{latched}");
        assert!(fr.any_activity());
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("doram-sys-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Path of the checkpoint with the highest cycle in `dir`.
    fn latest_checkpoint(dir: &std::path::Path) -> std::path::PathBuf {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "dorc"))
            .collect();
        files.sort();
        files.pop().expect("at least one checkpoint written")
    }

    #[test]
    fn run_options_validation() {
        let cfg = SystemConfig::builder(Benchmark::Libq).build().unwrap();
        let reject = |opts: RunOptions, needle: &str| {
            let err = opts.validate(&cfg).unwrap_err();
            match &err {
                SimError::Config { detail } => {
                    assert!(detail.contains(needle), "{detail} missing '{needle}'")
                }
                other => panic!("expected Config error, got {other:?}"),
            }
        };
        reject(
            RunOptions {
                checkpoint_every: Some(0),
                checkpoint_dir: Some("/tmp".into()),
                ..RunOptions::default()
            },
            "at least one",
        );
        reject(
            RunOptions {
                checkpoint_every: Some(100),
                ..RunOptions::default()
            },
            "directory",
        );
        // ddr3-1600 round trip: tRCD 11 + CL 11 + burst 4 + tRP 11 = 37.
        reject(
            RunOptions {
                watchdog_budget: Some(36),
                ..RunOptions::default()
            },
            "round trip",
        );
        let ok = RunOptions {
            checkpoint_every: Some(1),
            checkpoint_dir: Some("/tmp".into()),
            watchdog_budget: Some(37),
            ..RunOptions::default()
        };
        assert!(ok.validate(&cfg).is_ok());
        assert!(RunOptions::default().validate(&cfg).is_ok());
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let cfg = || {
            SystemConfig::builder(Benchmark::Libq)
                .scheme(Scheme::DOram { k: 1, c: 4 })
                .ns_accesses(300)
                .tree_l_max(12)
                .max_mem_cycles(20_000_000)
                .build()
                .unwrap()
        };
        let baseline = Simulation::new(cfg()).unwrap().run().unwrap();
        let dir = ckpt_dir("resume-identity");
        let opts = RunOptions {
            checkpoint_every: Some(2_000),
            checkpoint_dir: Some(dir.clone()),
            watchdog_budget: Some(1_000_000),
            ..RunOptions::default()
        };
        // Checkpointing must not perturb the run itself.
        let checkpointed = Simulation::new(cfg()).unwrap().run_with(&opts).unwrap();
        assert_eq!(format!("{checkpointed:?}"), format!("{baseline:?}"));
        // Resuming from the last checkpoint must land on the same report,
        // bit for bit (Debug shows f64s at round-trip precision).
        let ckpt = latest_checkpoint(&dir);
        let resumed = Simulation::resume(cfg(), &ckpt).unwrap().run().unwrap();
        assert_eq!(format!("{resumed:?}"), format!("{baseline:?}"));
        assert_eq!(
            crate::report::report_json(&resumed),
            crate::report::report_json(&baseline)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_other_configuration() {
        let cfg = |seed| {
            SystemConfig::builder(Benchmark::Libq)
                .scheme(Scheme::SoloNs)
                .ns_accesses(200)
                .seed(seed)
                .build()
                .unwrap()
        };
        let dir = ckpt_dir("cfg-mismatch");
        let opts = RunOptions {
            checkpoint_every: Some(500),
            checkpoint_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        Simulation::new(cfg(1)).unwrap().run_with(&opts).unwrap();
        let ckpt = latest_checkpoint(&dir);
        match Simulation::resume(cfg(2), &ckpt) {
            Err(SimError::Checkpoint { detail }) => {
                assert!(detail.contains("configuration"), "{detail}")
            }
            Err(other) => panic!("expected Checkpoint error, got {other:?}"),
            Ok(_) => panic!("resume under a different seed must be rejected"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_kills_stalled_run() {
        // Deliberately stalled configuration: a link whose propagation
        // delay is beyond the simulation horizon. Every frame "arrives"
        // ~10^12 cycles from now, so cores block on reads that never
        // complete; without the watchdog the run would grind until the
        // cycle cap (hanging CI at realistic caps).
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 0, c: 7 })
            .ns_accesses(400)
            .tree_l_max(12)
            .max_mem_cycles(50_000_000)
            .link(doram_bob::LinkConfig {
                latency: MemCycle(1 << 40),
                ..doram_bob::LinkConfig::default()
            })
            .build()
            .unwrap();
        let opts = RunOptions {
            watchdog_budget: Some(50_000),
            ..RunOptions::default()
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.enable_tracing(1 << 12, doram_obs::FILTER_ALL, 10_000);
        let err = sim.run_with(&opts).unwrap_err();
        match &err {
            SimError::Stalled { at, budget, dump } => {
                assert_eq!(*budget, 50_000);
                assert!(*at < 10_000_000, "watchdog must beat the cycle cap");
                // The structured dump carries every component class…
                assert_eq!(dump.cores[0].index, 0);
                assert!(dump.cores[0].is_sapp);
                assert!(dump.components.iter().any(|c| c.starts_with("secure[")));
                assert!(dump.components.iter().any(|c| c.starts_with("engine[")));
                // …and, with tracing on, metrics and the event tail.
                assert!(!dump.metrics.is_empty(), "{dump}");
                assert!(!dump.recent_events.is_empty(), "{dump}");
                // The rendered form keeps the legacy grep targets.
                let text = dump.to_string();
                assert!(text.contains("core0"), "{text}");
                assert!(text.contains("secure["), "{text}");
                assert!(text.contains("engine["), "{text}");
                assert!(text.contains("blocked reads"), "{text}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(err.to_string().contains("no forward progress"));
    }

    /// A 1NS run stalls in the first refresh, with the core blocked on
    /// reads: the watchdog fires at the cycle, and with the dump, that
    /// stepping every cycle gives, though the budget runs out in a
    /// stretch of cycles where neither the core nor any channel can act.
    #[test]
    fn watchdog_fires_on_time_while_every_component_waits() {
        let cfg = SystemConfig::builder(Benchmark::Mummer)
            .scheme(Scheme::SoloNs)
            .ns_accesses(2_000)
            .seed(1)
            .build()
            .unwrap();
        let opts = RunOptions {
            watchdog_budget: Some(100),
            ..RunOptions::default()
        };
        let err = Simulation::new(cfg).unwrap().run_with(&opts).unwrap_err();
        assert!(matches!(err, SimError::Stalled { at: 6_343, .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "no forward progress for 100 memory cycles (stalled at cycle 6343)\n\
             core0: retired=26503 finished=false restarts=0\n\
             blocked reads: 5\n\
             ch0[rq=0 wq=0 fly=0 drain=false refresh_pending=false refreshing=true rd=99 wr=44]\n\
             ch1[rq=1 wq=0 fly=0 drain=false refresh_pending=false refreshing=true rd=100 wr=39]\n\
             ch2[rq=3 wq=1 fly=0 drain=false refresh_pending=false refreshing=true rd=103 wr=48]\n\
             ch3[rq=1 wq=1 fly=0 drain=false refresh_pending=false refreshing=true rd=108 wr=45]"
        );
    }

    /// The watchdog's text for a 2,000-access 1NS run of `bench`.
    fn solo_stall(bench: Benchmark, seed: u64, budget: u64) -> String {
        let cfg = SystemConfig::builder(bench)
            .scheme(Scheme::SoloNs)
            .ns_accesses(2_000)
            .seed(seed)
            .build()
            .unwrap();
        let opts = RunOptions {
            watchdog_budget: Some(budget),
            ..RunOptions::default()
        };
        match Simulation::new(cfg).unwrap().run_with(&opts) {
            Err(err @ SimError::Stalled { .. }) => err.to_string(),
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    /// 1NS runs that stall in the first refresh, whose last retirement
    /// before it falls in a stretch where the core runs on while every
    /// sub-channel waits: the budget counts from the cycle after that
    /// retirement, as stepping every cycle does, not from the end of the
    /// stretch.
    #[test]
    fn watchdog_counts_from_the_last_retirement_in_a_busy_stretch() {
        let text = |budget, at, core: &str, blocked, channels: [(u32, u32, u32, u32); 4]| {
            let mut text = format!(
                "no forward progress for {budget} memory cycles (stalled at cycle {at})\n\
                 core0: {core} finished=false restarts=0\nblocked reads: {blocked}"
            );
            for (i, (rq, wq, rd, wr)) in channels.into_iter().enumerate() {
                text += &format!(
                    "\nch{i}[rq={rq} wq={wq} fly=0 drain=false refresh_pending=false \
                     refreshing=true rd={rd} wr={wr}]"
                );
            }
            text
        };
        assert_eq!(
            solo_stall(Benchmark::Libq, 1, 50),
            text(
                50,
                6_300,
                "retired=37050",
                2,
                [
                    (2, 0, 86, 29),
                    (0, 0, 71, 37),
                    (0, 0, 82, 32),
                    (0, 0, 78, 34)
                ]
            )
        );
        assert_eq!(
            solo_stall(Benchmark::Libq, 2, 100),
            text(
                100,
                6_336,
                "retired=40156",
                1,
                [
                    (1, 1, 77, 37),
                    (0, 0, 94, 31),
                    (0, 0, 87, 38),
                    (0, 0, 81, 38)
                ]
            )
        );
        assert_eq!(
            solo_stall(Benchmark::Comm4, 1, 200),
            text(
                200,
                6_439,
                "retired=54098",
                1,
                [
                    (1, 0, 37, 11),
                    (0, 0, 24, 16),
                    (0, 0, 45, 15),
                    (0, 0, 31, 13)
                ]
            )
        );
        assert_eq!(
            solo_stall(Benchmark::Comm4, 2, 75),
            text(
                75,
                6_303,
                "retired=51726",
                1,
                [
                    (0, 0, 34, 13),
                    (0, 0, 36, 14),
                    (1, 0, 36, 15),
                    (0, 0, 38, 9)
                ]
            )
        );
    }

    /// The watchdog's text for a 300-access co-run of `bench` under
    /// `scheme`.
    fn corun_stall(scheme: Scheme, bench: Benchmark, seed: u64, budget: u64) -> String {
        let cfg = SystemConfig::builder(bench)
            .scheme(scheme)
            .ns_accesses(300)
            .seed(seed)
            .build()
            .unwrap();
        let opts = RunOptions {
            watchdog_budget: Some(budget),
            ..RunOptions::default()
        };
        match Simulation::new(cfg).unwrap().run_with(&opts) {
            Err(err @ SimError::Stalled { .. }) => err.to_string(),
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    /// Co-runs stall where stepping every core in every cycle stalls,
    /// with every core's retirement count as stepping leaves it: the
    /// Baseline while its channels drain writes, D-ORAM in the first
    /// refresh.
    #[test]
    fn watchdog_pins_corun_stalls_exactly() {
        let cores = |retired: [u32; 8]| {
            let mut text = String::new();
            for (i, r) in retired.into_iter().enumerate() {
                let sapp = if i == 0 { " (S-App)" } else { "" };
                text += &format!("\ncore{i}{sapp}: retired={r} finished=false restarts=0");
            }
            text
        };
        let sub = |rq, wq, drain, refreshing, rd, wr| {
            format!(
                "rq={rq} wq={wq} fly=0 drain={drain} refresh_pending=false \
                 refreshing={refreshing} rd={rd} wr={wr}"
            )
        };
        assert_eq!(
            corun_stall(Scheme::Baseline, Benchmark::Libq, 1, 40),
            format!(
                "no forward progress for 40 memory cycles (stalled at cycle 1711){}\n\
                 blocked reads: 17\n\
                 oram-fsm[queue=4 phase=[write 84/84 out=57] overlap=[-]] outstanding=57\n\
                 ch0[{}]\nch1[{}]\nch2[{}]\nch3[{}]",
                cores([352, 3827, 3243, 5098, 3738, 4536, 3972, 4977]),
                sub(1, 17, true, false, 107, 57),
                sub(8, 21, true, false, 111, 51),
                sub(3, 16, true, false, 111, 48),
                sub(1, 19, true, false, 111, 50),
            )
        );
        let bob = |s: String| format!("link_pending=0 mc_pending=0 resp_pending=0 subs=[{s}]");
        assert_eq!(
            corun_stall(Scheme::DOram { k: 0, c: 7 }, Benchmark::Libq, 1, 40),
            format!(
                "no forward progress for 40 memory cycles (stalled at cycle 6320){}\n\
                 blocked reads: 14\n\
                 secure[fsm=[queue=1 phase=[write 84/84 out=7] overlap=[-]] mc_pending=0 \
                 resp_pending=0 out_pending=0 verify=0 refetch=0 rebuild=0 \
                 health=[healthy,healthy,healthy,healthy] subs=[{}]]\n\
                 engine[sent=17/1 resp=17] split_fwd=0 pending_split=0 pending_deliver=0\n\
                 ch1[{}]\nch2[{}]\nch3[{}]",
                cores([1416, 16678, 15173, 18892, 17660, 15997, 17635, 17409]),
                [
                    sub(1, 4, true, true, 421, 378),
                    sub(0, 8, true, true, 421, 379),
                    sub(2, 0, false, true, 419, 386),
                    sub(0, 0, false, true, 428, 383),
                ]
                .join(" | "),
                bob(sub(3, 3, true, true, 268, 106)),
                bob(sub(4, 3, false, true, 243, 115)),
                bob(sub(3, 1, false, true, 247, 118)),
            )
        );
    }

    /// The watchdog dump's component lines, mid-run: restored from the
    /// checkpoint a small run of `scheme` takes at memory cycle 1,000.
    fn components_at_cycle_1000(scheme: Scheme, name: &str) -> Vec<String> {
        let cfg = || {
            SystemConfig::builder(Benchmark::Libq)
                .scheme(scheme)
                .ns_accesses(200)
                .tree_l_max(12)
                .build()
                .unwrap()
        };
        let dir = ckpt_dir(name);
        let opts = RunOptions {
            checkpoint_every: Some(1_000),
            checkpoint_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        Simulation::new(cfg()).unwrap().run_with(&opts).unwrap();
        let sim = Simulation::resume(cfg(), &dir.join("ckpt-000000001000.dorc")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        sim.stall_dump().components
    }

    /// Every scheme's dump lists its S-App path's lines first, then one
    /// `ch{n}[…]` line per fabric channel, `n` its paper channel number.
    #[test]
    fn stall_dump_lists_sapp_path_then_fabric_channels() {
        // Sub-channel state: queues, in-flight, drain, refresh, and reads/writes issued.
        let sub = |rq, wq, fly, drain, rd, wr| {
            format!(
                "rq={rq} wq={wq} fly={fly} drain={drain} refresh_pending=false \
                 refreshing=false rd={rd} wr={wr}"
            )
        };
        let direct = |i, s: String| format!("ch{i}[{s}]");
        let bob =
            |i, s: String| format!("ch{i}[link_pending=0 mc_pending=0 resp_pending=0 subs=[{s}]]");
        assert_eq!(
            components_at_cycle_1000(Scheme::SoloNs, "dump-solo"),
            [
                direct(0, sub(0, 0, 0, false, 12, 4)),
                direct(1, sub(0, 0, 0, false, 11, 5)),
                direct(2, sub(0, 1, 0, true, 11, 3)),
                direct(3, sub(0, 0, 0, false, 8, 7)),
            ]
        );
        assert_eq!(
            components_at_cycle_1000(Scheme::Baseline, "dump-baseline"),
            [
                "oram-fsm[queue=1 phase=[write 40/40 out=1] overlap=[-]] outstanding=1".to_string(),
                direct(0, sub(6, 5, 0, false, 52, 24)),
                direct(1, sub(1, 5, 0, false, 58, 20)),
                direct(2, sub(2, 2, 0, false, 56, 19)),
                direct(3, sub(1, 8, 0, false, 52, 23)),
            ]
        );
        assert_eq!(
            components_at_cycle_1000(Scheme::SecureMemory, "dump-secmem"),
            [
                "secmem[pending=4 dummies=16 delayed=0]".to_string(),
                direct(0, sub(4, 8, 1, false, 61, 21)),
                direct(1, sub(4, 8, 2, false, 67, 20)),
                direct(2, sub(2, 4, 1, false, 66, 18)),
                direct(3, sub(1, 8, 2, false, 62, 23)),
            ]
        );
        let secure_subs = [
            sub(0, 0, 0, false, 52, 47),
            sub(0, 5, 0, true, 51, 41),
            sub(0, 1, 3, true, 52, 45),
            sub(1, 0, 0, false, 50, 47),
        ];
        assert_eq!(
            components_at_cycle_1000(Scheme::DOram { k: 1, c: 4 }, "dump-doram"),
            [
                format!(
                    "secure[fsm=[queue=1 phase=[write 40/40 out=9] overlap=[-]] mc_pending=0 \
                     resp_pending=0 out_pending=0 verify=0 refetch=0 rebuild=0 \
                     health=[healthy,healthy,healthy,healthy] subs=[{}]]",
                    secure_subs.join(" | ")
                ),
                "engine[sent=5/1 resp=5] split_fwd=0 pending_split=0 pending_deliver=0".to_string(),
                bob(1, sub(0, 8, 1, true, 57, 18)),
                bob(2, sub(1, 7, 1, false, 57, 17)),
                bob(3, sub(5, 8, 0, false, 55, 21)),
            ]
        );
    }

    /// The `ch{n}` prefixes of a finished traced run's blame rows, stall
    /// dump lines and metric names, in that order.
    fn channel_prefixes(scheme: Scheme) -> [BTreeSet<String>; 3] {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(scheme)
            .ns_accesses(200)
            .tree_l_max(12)
            .build()
            .unwrap();
        let mut sim = Simulation::new(cfg).unwrap();
        let rec = sim.enable_tracing(1 << 10, doram_obs::FILTER_ALL, 1_000);
        sim.advance(&RunOptions::default()).unwrap();
        let dump = sim.stall_dump();
        let prefixes = |names: Vec<&str>| -> BTreeSet<String> {
            names
                .into_iter()
                .filter_map(|n| n.split(['.', '[']).next())
                .filter(|p| {
                    p.strip_prefix("ch")
                        .is_some_and(|d| d.parse::<usize>().is_ok())
                })
                .map(str::to_string)
                .collect()
        };
        let rec = rec.borrow();
        let blame = rec.blame.resources();
        [
            prefixes(blame.iter().map(|r| r.name.as_str()).collect()),
            prefixes(dump.components.iter().map(String::as_str).collect()),
            prefixes(dump.metrics.iter().map(|(n, _)| n.as_str()).collect()),
        ]
    }

    /// Blame rows, the stall dump and metrics all name a fabric channel by
    /// its paper channel number: D-ORAM's normal channels are #1–#3 (the
    /// secure channel is #0), Baseline's four channels #0–#3.
    #[test]
    fn every_view_names_channels_by_paper_number() {
        let names =
            |ns: &[usize]| -> BTreeSet<String> { ns.iter().map(|n| format!("ch{n}")).collect() };
        for (scheme, want) in [
            (Scheme::DOram { k: 1, c: 4 }, names(&[1, 2, 3])),
            (Scheme::Baseline, names(&[0, 1, 2, 3])),
        ] {
            for (view, got) in ["blame rows", "stall dump", "metrics"]
                .into_iter()
                .zip(channel_prefixes(scheme))
            {
                assert_eq!(got, want, "{scheme:?} {view}");
            }
        }
    }

    #[test]
    fn graceful_shutdown_checkpoints_and_resumes() {
        let cfg = || {
            SystemConfig::builder(Benchmark::Libq)
                .scheme(Scheme::Baseline)
                .ns_accesses(300)
                .tree_l_max(12)
                .max_mem_cycles(20_000_000)
                .build()
                .unwrap()
        };
        let baseline = Simulation::new(cfg()).unwrap().run().unwrap();
        let dir = ckpt_dir("graceful");
        let opts = RunOptions {
            checkpoint_dir: Some(dir.clone()),
            handle_signals: true,
            ..RunOptions::default()
        };
        // Simulate Ctrl-C before the first cycle (the handler just sets
        // the same flag request_shutdown sets).
        request_shutdown();
        let err = Simulation::new(cfg()).unwrap().run_with(&opts).unwrap_err();
        let SimError::Interrupted { at, checkpoint } = &err else {
            panic!("expected Interrupted, got {err:?}");
        };
        assert_eq!(*at, 0);
        let ckpt = checkpoint.as_ref().expect("final checkpoint written");
        assert!(ckpt.exists());
        // The interrupted run resumes into the same report.
        let resumed = Simulation::resume(cfg(), ckpt).unwrap().run().unwrap();
        assert_eq!(format!("{resumed:?}"), format!("{baseline:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cycle_cap_reports_error() {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::SoloNs)
            .ns_accesses(400)
            .max_mem_cycles(10)
            .build()
            .unwrap();
        let err = Simulation::new(cfg).unwrap().run().unwrap_err();
        assert_eq!(err, SimError::CycleCapExceeded { cap: 10 });
        assert!(err.to_string().contains("10"));
    }
}
