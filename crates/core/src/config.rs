//! System configuration: schemes and knobs.

use doram_bob::LinkConfig;
use doram_dram::{DramTiming, PagePolicy};
use doram_oram::verified::RecoveryPolicy;
use doram_sim::fault::FaultPlan;
use doram_sim::ConfigError;
use doram_trace::Benchmark;

/// The co-run / protection schemes of §V (plus the §II-C motivation
/// settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// 1NS: one NS-App running alone on four direct-attached channels.
    SoloNs,
    /// 7NS-4ch: seven NS-Apps sharing four direct channels, no S-App.
    Ns7on4,
    /// 7NS-3ch: seven NS-Apps confined to channels #1–#3.
    Ns7on3,
    /// Baseline / 1S7NS (Path ORAM): the S-App runs Path ORAM from the
    /// on-chip controller, striped over all four direct channels.
    Baseline,
    /// 1S7NS under the secure-memory model (ObfusMem/InvisiMem-like).
    SecureMemory,
    /// Channel partition: the S-App runs Path ORAM from the on-chip
    /// controller *confined to channel #0* while the seven NS-Apps use
    /// channels #1–#3 — the "(with results not shown)" companion of the
    /// 7NS-3ch setting in §II-C.
    Partition1S,
    /// D-ORAM with tree split `k` (0..=3) and secure-channel sharing `c`
    /// (number of NS-Apps allowed on channel #0, 0..=7).
    /// `k = 0, c = 7` is plain D-ORAM.
    DOram {
        /// Levels split onto normal channels.
        k: u32,
        /// NS-Apps allowed to allocate on the secure channel.
        c: u32,
    },
}

impl Scheme {
    /// Whether an S-App is present.
    pub fn has_sapp(self) -> bool {
        matches!(
            self,
            Scheme::Baseline | Scheme::SecureMemory | Scheme::Partition1S | Scheme::DOram { .. }
        )
    }

    /// Number of NS-App cores in this scheme.
    pub fn ns_apps(self) -> usize {
        match self {
            Scheme::SoloNs => 1,
            _ => 7,
        }
    }

    /// Display name matching the paper's legends.
    pub fn label(self) -> String {
        match self {
            Scheme::SoloNs => "1NS".into(),
            Scheme::Ns7on4 => "7NS-4ch".into(),
            Scheme::Ns7on3 => "7NS-3ch".into(),
            Scheme::Baseline => "Baseline".into(),
            Scheme::SecureMemory => "SecMem".into(),
            Scheme::Partition1S => "1S+7NS-3ch".into(),
            Scheme::DOram { k: 0, c: 7 } => "D-ORAM".into(),
            Scheme::DOram { k: 0, c } => format!("D-ORAM/{c}"),
            Scheme::DOram { k, c: 7 } => format!("D-ORAM+{k}"),
            Scheme::DOram { k, c } => format!("D-ORAM+{k}/{c}"),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Protection / co-run scheme.
    pub scheme: Scheme,
    /// Benchmark run by the S-App, and by every NS-App unless
    /// [`ns_benchmarks`](Self::ns_benchmarks) overrides them ("Our results
    /// use the same program for S-App and NS-App", §IV).
    pub benchmark: Benchmark,
    /// Per-NS-App benchmark override for heterogeneous mixes; when set,
    /// its length must equal the scheme's NS-App count.
    pub ns_benchmarks: Option<Vec<Benchmark>>,
    /// Memory accesses per NS-App trace (experiment scale).
    pub ns_accesses: u64,
    /// Memory accesses in the S-App trace (it normally restarts to keep
    /// pressure; this just sizes its loop).
    pub s_accesses: u64,
    /// RNG seed (traces, position map, dummy addresses).
    pub seed: u64,
    /// Trace stream offset; profiling runs use a different segment
    /// (Figure 12 methodology).
    pub trace_stream: u64,
    /// Number of memory channels.
    pub channels: usize,
    /// Sub-channels behind the secure channel's SimpleMC (D-ORAM).
    pub secure_subchannels: usize,
    /// DDR3 timing.
    pub timing: DramTiming,
    /// Row-buffer management policy of every sub-channel.
    pub page_policy: PagePolicy,
    /// BOB serial-link parameters.
    pub link: LinkConfig,
    /// ORAM tree leaf level (paper: 23 — scaled runs may shrink it; the
    /// path length, not the capacity, is what matters for traffic).
    pub tree_l_max: u32,
    /// Blocks per bucket (paper: 4).
    pub tree_z: u32,
    /// Tree-top cache depth (paper: 3).
    pub tree_top_levels: u32,
    /// Subtree packing depth (paper: 7).
    pub subtree_levels: u32,
    /// Dummy-request pacing: new request `t` CPU cycles after the previous
    /// response (paper: 50). Applies to D-ORAM schemes.
    pub dummy_interval_cpu: u64,
    /// Bandwidth-preallocation threshold when ORAM shares a channel
    /// (paper: 0.5).
    pub share_threshold: f64,
    /// ORAM slot share on the secure channel's own sub-channels (D-ORAM
    /// only). `>= 1.0` (the default) models the SD as the master of its
    /// DIMMs: path bursts have strict priority and guest NS traffic is
    /// served in the gaps — the behaviour behind Figure 8's "secure
    /// channel is still slower" and the D-ORAM/c tradeoff. Lower values
    /// apply the epoch-partitioned cooperative split instead.
    pub secure_share_threshold: f64,
    /// Merge each ORAM access's split-level read packets into one short
    /// packet per normal channel (footnote 1 of §III-C — the paper leaves
    /// this to future work, so it defaults to off; the ablation sweeps
    /// measure its value).
    pub merge_split_reads: bool,
    /// Overlap the SD's buffered access's read phase with the current
    /// write phase (extension; the paper's SD strictly serializes, so the
    /// default is off).
    pub sd_pipeline: bool,
    /// Hard cap on simulated memory cycles (safety net).
    pub max_mem_cycles: u64,
    /// Deterministic fault plan for the untrusted-memory stack, the only
    /// source of injected faults: when non-zero, every serial link and the
    /// SD's DRAM reads draw faults from it (seeded independently per site)
    /// and recover through CRC/NAK retransmission and integrity re-fetch.
    pub fault_plan: FaultPlan,
    /// Integrity-recovery policy at the SD (re-fetch budget, quarantine
    /// threshold).
    pub recovery: RecoveryPolicy,
    /// Stripe bucket parity across the SD's sub-channels so a quarantined
    /// sub-channel's buckets are rebuilt from the surviving N−1 instead of
    /// fail-stopping (graceful degradation). Off by default — disabled
    /// runs are bit-identical to pre-parity behavior.
    pub parity: bool,
    /// Background-scrubber period in memory cycles: every `scrub_every`
    /// cycles the SD repairs one parity-rebuildable bucket and probes
    /// quarantined sub-channels. `0` (the default) disables scrubbing.
    pub scrub_every: u64,
    /// Cycles a quarantined component waits before entering probation
    /// (the circuit breaker's half-open state). `0` (the default) keeps
    /// the legacy latch-forever quarantine.
    pub probation_window: u64,
    /// Clean scrub probes required in probation before a sub-channel
    /// returns to service.
    pub probation_successes: u32,
}

impl SystemConfig {
    /// Starts a builder for `benchmark` with the paper's Table II values.
    pub fn builder(benchmark: Benchmark) -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig {
                scheme: Scheme::Baseline,
                benchmark,
                ns_benchmarks: None,
                ns_accesses: 20_000,
                s_accesses: 1_000_000,
                seed: 1,
                trace_stream: 0,
                channels: 4,
                secure_subchannels: 4,
                timing: DramTiming::ddr3_1600(),
                page_policy: PagePolicy::Open,
                link: LinkConfig::default(),
                tree_l_max: 23,
                tree_z: 4,
                tree_top_levels: 3,
                subtree_levels: 7,
                dummy_interval_cpu: 50,
                share_threshold: 0.5,
                secure_share_threshold: 1.0,
                merge_split_reads: false,
                sd_pipeline: false,
                max_mem_cycles: 2_000_000_000,
                fault_plan: FaultPlan::none(),
                recovery: RecoveryPolicy::default(),
                parity: false,
                scrub_every: 0,
                probation_window: 0,
                probation_successes: 4,
            },
        }
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channels < 2 {
            return Err(ConfigError::new("need at least two channels"));
        }
        if self.tree_z == 0 {
            return Err(ConfigError::new("buckets need at least one slot (Z >= 1)"));
        }
        // Path/leaf indices are u64 bit paths: level l uses bit l-1, so
        // the leaf level must leave the index representable.
        if self.tree_l_max >= 63 {
            return Err(ConfigError::new(
                "tree leaf level must stay below 63 (path indices are 64-bit)",
            ));
        }
        if let Scheme::DOram { k, c } = self.scheme {
            if k > 3 {
                return Err(ConfigError::new("tree split k must be <= 3"));
            }
            if c as usize > self.scheme.ns_apps() {
                return Err(ConfigError::new("c exceeds the number of NS-Apps"));
            }
            if !(self.tree_z as usize).is_multiple_of(self.secure_subchannels) {
                return Err(ConfigError::new(
                    "Z must be divisible by the secure sub-channel count",
                ));
            }
        }
        if self.tree_top_levels + 1 >= self.tree_l_max {
            return Err(ConfigError::new("tree-top cache swallows the tree"));
        }
        if !(0.0..=1.0).contains(&self.share_threshold) {
            return Err(ConfigError::new("share threshold must be in [0,1]"));
        }
        if self.ns_accesses == 0 {
            return Err(ConfigError::new("NS traces must be non-empty"));
        }
        if let Some(mix) = &self.ns_benchmarks {
            if mix.len() != self.scheme.ns_apps() {
                return Err(ConfigError::new(format!(
                    "workload mix has {} entries but the scheme runs {} NS-Apps",
                    mix.len(),
                    self.scheme.ns_apps()
                )));
            }
        }
        self.fault_plan.validate().map_err(|e| {
            let detail = match &e {
                doram_sim::SimError::Config(c) => c.message().to_string(),
                other => other.to_string(),
            };
            ConfigError::new(format!("fault plan: {detail}"))
        })?;
        if self.recovery.quarantine_threshold == 0 {
            return Err(ConfigError::new("quarantine threshold must be >= 1"));
        }
        if self.probation_window > 0 && self.probation_successes == 0 {
            return Err(ConfigError::new(
                "probation needs at least one clean probe to promote",
            ));
        }
        if self.parity && self.secure_subchannels < 2 {
            return Err(ConfigError::new(
                "parity needs at least two secure sub-channels",
            ));
        }
        if self.probation_window > 0 && self.scrub_every == 0 {
            return Err(ConfigError::new(
                "probation promotion is driven by scrub probes; set --scrub-every too",
            ));
        }
        Ok(())
    }

    /// Benchmark an NS-App runs (honoring a heterogeneous mix).
    pub fn ns_benchmark(&self, ns_index: usize) -> Benchmark {
        self.ns_benchmarks
            .as_ref()
            .and_then(|m| m.get(ns_index).copied())
            .unwrap_or(self.benchmark)
    }

    /// Channels an NS-App `ns_index` (0-based among NS-Apps) may allocate
    /// on, per the scheme's partition / sharing rules.
    pub fn allowed_channels(&self, ns_index: usize) -> Vec<usize> {
        let all: Vec<usize> = (0..self.channels).collect();
        match self.scheme {
            Scheme::SoloNs | Scheme::Ns7on4 | Scheme::Baseline | Scheme::SecureMemory => all,
            Scheme::Ns7on3 | Scheme::Partition1S => (1..self.channels).collect(),
            Scheme::DOram { c, .. } => {
                if (ns_index as u32) < c {
                    all
                } else {
                    (1..self.channels).collect()
                }
            }
        }
    }
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Sets the scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the NS-App trace length in memory accesses.
    pub fn ns_accesses(mut self, n: u64) -> Self {
        self.cfg.ns_accesses = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Overrides the NS-Apps' benchmarks (heterogeneous mix); length must
    /// equal the scheme's NS-App count.
    pub fn ns_benchmarks(mut self, mix: Vec<Benchmark>) -> Self {
        self.cfg.ns_benchmarks = Some(mix);
        self
    }

    /// Selects a trace segment (profiling runs use a different one).
    pub fn trace_stream(mut self, stream: u64) -> Self {
        self.cfg.trace_stream = stream;
        self
    }

    /// Sets the ORAM tree depth (leaf level).
    pub fn tree_l_max(mut self, l: u32) -> Self {
        self.cfg.tree_l_max = l;
        self
    }

    /// Sets the bucket size (blocks per bucket).
    pub fn tree_z(mut self, z: u32) -> Self {
        self.cfg.tree_z = z;
        self
    }

    /// Sets the tree-top cache depth.
    pub fn tree_top_levels(mut self, levels: u32) -> Self {
        self.cfg.tree_top_levels = levels;
        self
    }

    /// Sets the subtree packing depth.
    pub fn subtree_levels(mut self, levels: u32) -> Self {
        self.cfg.subtree_levels = levels;
        self
    }

    /// Sets the dummy-request pacing interval (CPU cycles).
    pub fn dummy_interval(mut self, t: u64) -> Self {
        self.cfg.dummy_interval_cpu = t;
        self
    }

    /// Sets the bandwidth-preallocation threshold.
    pub fn share_threshold(mut self, t: f64) -> Self {
        self.cfg.share_threshold = t;
        self
    }

    /// Sets the ORAM slot share on the secure channel's sub-channels.
    pub fn secure_share_threshold(mut self, t: f64) -> Self {
        self.cfg.secure_share_threshold = t;
        self
    }

    /// Sets the row-buffer page policy.
    pub fn page_policy(mut self, policy: PagePolicy) -> Self {
        self.cfg.page_policy = policy;
        self
    }

    /// Sets the BOB link configuration.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.cfg.link = link;
        self
    }

    /// Enables footnote-1 merging of split-level read packets.
    pub fn merge_split_reads(mut self, on: bool) -> Self {
        self.cfg.merge_split_reads = on;
        self
    }

    /// Enables SD pipelining (overlap read of the next access with the
    /// current write phase).
    pub fn sd_pipeline(mut self, on: bool) -> Self {
        self.cfg.sd_pipeline = on;
        self
    }

    /// Sets the simulated-cycle safety cap.
    pub fn max_mem_cycles(mut self, cap: u64) -> Self {
        self.cfg.max_mem_cycles = cap;
        self
    }

    /// Installs a fault plan for the untrusted-memory stack.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Sets the SD's integrity-recovery policy.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.cfg.recovery = policy;
        self
    }

    /// Enables parity striping across the SD's sub-channels (graceful
    /// degradation on quarantine instead of fail-stop).
    pub fn parity(mut self, on: bool) -> Self {
        self.cfg.parity = on;
        self
    }

    /// Sets the background scrub period in memory cycles (0 disables).
    pub fn scrub_every(mut self, every: u64) -> Self {
        self.cfg.scrub_every = every;
        self
    }

    /// Sets the quarantine probation window in memory cycles (0 keeps the
    /// legacy latch-forever quarantine).
    pub fn probation_window(mut self, window: u64) -> Self {
        self.cfg.probation_window = window;
        self
    }

    /// Sets the clean probes needed to promote out of probation.
    pub fn probation_successes(mut self, probes: u32) -> Self {
        self.cfg.probation_successes = probes;
        self
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_table2() {
        let cfg = SystemConfig::builder(Benchmark::Black).build().unwrap();
        assert_eq!(cfg.channels, 4);
        assert_eq!(cfg.tree_l_max, 23);
        assert_eq!(cfg.tree_z, 4);
        assert_eq!(cfg.tree_top_levels, 3);
        assert_eq!(cfg.subtree_levels, 7);
        assert_eq!(cfg.dummy_interval_cpu, 50);
        assert_eq!(cfg.share_threshold, 0.5);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::DOram { k: 0, c: 7 }.label(), "D-ORAM");
        assert_eq!(Scheme::DOram { k: 1, c: 7 }.label(), "D-ORAM+1");
        assert_eq!(Scheme::DOram { k: 0, c: 4 }.label(), "D-ORAM/4");
        assert_eq!(Scheme::DOram { k: 1, c: 4 }.label(), "D-ORAM+1/4");
        assert_eq!(Scheme::Ns7on3.to_string(), "7NS-3ch");
    }

    #[test]
    fn scheme_populations() {
        assert_eq!(Scheme::SoloNs.ns_apps(), 1);
        assert_eq!(Scheme::Baseline.ns_apps(), 7);
        assert!(Scheme::Baseline.has_sapp());
        assert!(!Scheme::Ns7on4.has_sapp());
    }

    #[test]
    fn validation_rejects_bad_doram() {
        let bad_k = SystemConfig::builder(Benchmark::Black)
            .scheme(Scheme::DOram { k: 4, c: 7 })
            .build();
        assert!(bad_k.is_err());
        let bad_c = SystemConfig::builder(Benchmark::Black)
            .scheme(Scheme::DOram { k: 0, c: 8 })
            .build();
        assert!(bad_c.is_err());
        let bad_ns = SystemConfig::builder(Benchmark::Black)
            .ns_accesses(0)
            .build();
        assert!(bad_ns.is_err());
    }

    #[test]
    fn validation_rejects_zero_bucket_slots() {
        let err = SystemConfig::builder(Benchmark::Black)
            .tree_z(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("slot"), "{err}");
    }

    #[test]
    fn validation_rejects_overflowing_tree_depth() {
        let err = SystemConfig::builder(Benchmark::Black)
            .tree_l_max(63)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("63"), "{err}");
        // The deepest representable tree passes depth validation.
        assert!(SystemConfig::builder(Benchmark::Black)
            .tree_l_max(62)
            .build()
            .is_ok());
    }

    #[test]
    fn validation_rejects_inconsistent_degradation_knobs() {
        // Probation without a scrubber can never promote.
        assert!(SystemConfig::builder(Benchmark::Black)
            .probation_window(100)
            .build()
            .is_err());
        assert!(SystemConfig::builder(Benchmark::Black)
            .probation_window(100)
            .scrub_every(50)
            .probation_successes(0)
            .build()
            .is_err());
        assert!(SystemConfig::builder(Benchmark::Black)
            .probation_window(100)
            .scrub_every(50)
            .parity(true)
            .build()
            .is_ok());
    }

    #[test]
    fn channel_allocation_rules() {
        let doram4 = SystemConfig::builder(Benchmark::Black)
            .scheme(Scheme::DOram { k: 0, c: 4 })
            .build()
            .unwrap();
        assert_eq!(doram4.allowed_channels(0), vec![0, 1, 2, 3]);
        assert_eq!(doram4.allowed_channels(3), vec![0, 1, 2, 3]);
        assert_eq!(doram4.allowed_channels(4), vec![1, 2, 3]);

        let part = SystemConfig::builder(Benchmark::Black)
            .scheme(Scheme::Ns7on3)
            .build()
            .unwrap();
        assert_eq!(part.allowed_channels(0), vec![1, 2, 3]);

        let base = SystemConfig::builder(Benchmark::Black).build().unwrap();
        assert_eq!(base.allowed_channels(6), vec![0, 1, 2, 3]);
    }
}
