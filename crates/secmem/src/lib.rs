#![warn(missing_docs)]

//! Secure-memory execution model (ObfusMem \[3\] / InvisiMem \[2\]).
//!
//! The comparison point of §II-C: the TCB includes the memory module, so no
//! ORAM is needed — but the channel itself is still untrusted, so
//!
//! * packets are fixed-size and encrypted (reads and writes look alike),
//! * with multiple channels, **dummy requests are issued to every channel
//!   other than the real target**, otherwise the channel selection leaks
//!   address bits ("the scheme needs to generate dummy requests to the
//!   channels other than the one that the data located"),
//! * the S-App pays a modest constant overhead (~10% per \[3\]) for
//!   en/decryption and packetization.
//!
//! The model produces, for each S-App access, the full per-channel request
//! fan-out; the system layer injects these into the channel models, where
//! the dummy traffic interferes with NS-Apps — the effect Figure 4
//! quantifies.

use doram_dram::MemOp;
use doram_sim::rng::Xoshiro256;

/// One expanded secure-memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecMemRequest {
    /// Channel the packet is sent to.
    pub channel: usize,
    /// Address within that channel's S-App region.
    pub addr: u64,
    /// Operation. Dummies mirror the real op so type counts match.
    pub op: MemOp,
    /// Whether this is the real access (false = obfuscation dummy).
    pub is_real: bool,
}

/// Configuration of the secure-memory engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecMemConfig {
    /// Number of memory channels in the system (4 in the paper).
    pub channels: usize,
    /// Size of the S-App's per-channel region, in 64 B lines (dummy
    /// addresses are drawn uniformly from it).
    pub region_lines: u64,
    /// Constant S-App latency overhead factor (≈ 1.10 per ObfusMem).
    pub sapp_overhead: f64,
}

impl Default for SecMemConfig {
    fn default() -> SecMemConfig {
        SecMemConfig {
            channels: 4,
            region_lines: 1 << 20,
            sapp_overhead: 1.10,
        }
    }
}

/// Expands S-App accesses into per-channel obfuscated request fan-outs.
#[derive(Debug, Clone)]
pub struct SecureMemoryEngine {
    cfg: SecMemConfig,
    rng: Xoshiro256,
}

impl SecureMemoryEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no channels or an empty region.
    pub fn new(cfg: SecMemConfig, seed: u64) -> SecureMemoryEngine {
        assert!(cfg.channels > 0, "need at least one channel");
        assert!(cfg.region_lines > 0, "region must be non-empty");
        SecureMemoryEngine {
            cfg,
            rng: Xoshiro256::stream(seed, 0x5EC_3E3),
        }
    }

    /// Expands one S-App access at `addr` (line-aligned, channel-local)
    /// homed on `home_channel` into one request per channel: the real one
    /// plus `channels − 1` dummies at random addresses.
    ///
    /// # Panics
    ///
    /// Panics if `home_channel` is out of range.
    pub fn expand(&mut self, home_channel: usize, addr: u64, op: MemOp) -> Vec<SecMemRequest> {
        assert!(home_channel < self.cfg.channels, "bad home channel");
        (0..self.cfg.channels)
            .map(|ch| {
                if ch == home_channel {
                    SecMemRequest {
                        channel: ch,
                        addr,
                        op,
                        is_real: true,
                    }
                } else {
                    SecMemRequest {
                        channel: ch,
                        addr: self.rng.gen_below(self.cfg.region_lines) * 64,
                        op,
                        is_real: false,
                    }
                }
            })
            .collect()
    }
}

doram_sim::impl_snapshot!(SecureMemoryEngine { rng } skip { cfg });

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SecureMemoryEngine {
        SecureMemoryEngine::new(SecMemConfig::default(), 42)
    }

    #[test]
    fn one_request_per_channel() {
        let mut e = engine();
        let reqs = e.expand(2, 640, MemOp::Read);
        assert_eq!(reqs.len(), 4);
        let channels: Vec<_> = reqs.iter().map(|r| r.channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn exactly_one_real_request_at_home() {
        let mut e = engine();
        let reqs = e.expand(1, 128, MemOp::Write);
        let real: Vec<_> = reqs.iter().filter(|r| r.is_real).collect();
        assert_eq!(real.len(), 1);
        assert_eq!(real[0].channel, 1);
        assert_eq!(real[0].addr, 128);
        assert_eq!(real[0].op, MemOp::Write);
    }

    #[test]
    fn dummies_mirror_the_op_and_stay_in_region() {
        let mut e = engine();
        for _ in 0..100 {
            for r in e.expand(0, 0, MemOp::Read) {
                assert_eq!(r.op, MemOp::Read);
                assert_eq!(r.addr % 64, 0);
                assert!(r.addr / 64 < SecMemConfig::default().region_lines);
            }
        }
    }

    #[test]
    fn dummy_addresses_vary() {
        let mut e = engine();
        let a = e.expand(0, 0, MemOp::Read)[1].addr;
        let b = e.expand(0, 0, MemOp::Read)[1].addr;
        assert_ne!(a, b, "dummies must not be a fixed address");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SecureMemoryEngine::new(SecMemConfig::default(), 7);
        let mut b = SecureMemoryEngine::new(SecMemConfig::default(), 7);
        assert_eq!(a.expand(0, 64, MemOp::Read), b.expand(0, 64, MemOp::Read));
    }

    #[test]
    #[should_panic(expected = "bad home channel")]
    fn bad_home_channel_panics() {
        engine().expand(4, 0, MemOp::Read);
    }
}
