//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// An invalid simulation configuration.
///
/// Returned by builders throughout the workspace when parameters are out of
/// the modeled range (e.g. a tree-split depth larger than the tree, or more
/// sharing apps than NS-Apps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates an error carrying a human-readable description.
    pub fn new(message: impl Into<String>) -> ConfigError {
        ConfigError {
            message: message.into(),
        }
    }

    /// The description without the "invalid configuration:" prefix
    /// [`Display`](fmt::Display) adds, for callers that re-wrap it.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// The workspace-wide simulation error hierarchy.
///
/// Components below the system layer (links, ORAM protocol, integrity
/// checks) report failures through these typed variants instead of bare
/// `String`s or panics, so callers can distinguish a misconfiguration from
/// an injected fault from a genuine protocol bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Invalid configuration (wraps the long-standing [`ConfigError`]).
    Config(ConfigError),
    /// An injected fault exceeded what the recovery machinery tolerates.
    Fault {
        /// Which component gave up (e.g. `"link cpu->mem"`, `"sd"`).
        site: String,
        /// Human-readable description of the exhausted recovery.
        detail: String,
    },
    /// A MAC/integrity check failed and could not be recovered by re-fetch.
    IntegrityViolation {
        /// Bucket (or block) address whose authentication failed.
        addr: u64,
        /// Description: expected/actual tag state, retry count, etc.
        detail: String,
    },
    /// A link-level retransmission budget or timeout was exhausted.
    LinkTimeout {
        /// How many retransmission attempts were made before giving up.
        attempts: u32,
        /// Description of the frame that could not be delivered.
        detail: String,
    },
    /// An internal protocol invariant was violated (a bug, not a fault).
    Protocol {
        /// Description of the violated invariant.
        detail: String,
    },
    /// The Path ORAM stash exceeded its configured capacity.
    ///
    /// Stefanov et al. bound stash occupancy with overwhelming
    /// probability for adequate Z; hitting this means the configuration
    /// (bucket slots, tree height, eviction rate) is outside that regime.
    StashOverflow {
        /// Number of blocks the stash would have held after the insert.
        occupancy: usize,
        /// The configured capacity that was exceeded.
        capacity: usize,
    },
}

impl SimError {
    /// Convenience constructor for [`SimError::Config`].
    pub fn config(message: impl Into<String>) -> SimError {
        SimError::Config(ConfigError::new(message))
    }

    /// Convenience constructor for [`SimError::Fault`].
    pub fn fault(site: impl Into<String>, detail: impl Into<String>) -> SimError {
        SimError::Fault {
            site: site.into(),
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`SimError::IntegrityViolation`].
    pub fn integrity(addr: u64, detail: impl Into<String>) -> SimError {
        SimError::IntegrityViolation {
            addr,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`SimError::LinkTimeout`].
    pub fn link_timeout(attempts: u32, detail: impl Into<String>) -> SimError {
        SimError::LinkTimeout {
            attempts,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`SimError::Protocol`].
    pub fn protocol(detail: impl Into<String>) -> SimError {
        SimError::Protocol {
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`SimError::StashOverflow`].
    pub fn stash_overflow(occupancy: usize, capacity: usize) -> SimError {
        SimError::StashOverflow {
            occupancy,
            capacity,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => e.fmt(f),
            SimError::Fault { site, detail } => {
                write!(f, "unrecovered fault at {site}: {detail}")
            }
            SimError::IntegrityViolation { addr, detail } => {
                write!(f, "integrity violation at 0x{addr:x}: {detail}")
            }
            SimError::LinkTimeout { attempts, detail } => {
                write!(f, "link timeout after {attempts} attempts: {detail}")
            }
            SimError::Protocol { detail } => {
                write!(f, "protocol invariant violated: {detail}")
            }
            SimError::StashOverflow {
                occupancy,
                capacity,
            } => {
                write!(
                    f,
                    "stash overflow: {occupancy} blocks exceed capacity {capacity}"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

// Checkpoint encoding of latched faults.
crate::impl_codec!(struct ConfigError { message });

crate::impl_codec!(enum SimError {
    Config(e) = 0,
    Fault { site, detail } = 1,
    IntegrityViolation { addr, detail } = 2,
    LinkTimeout { attempts, detail } = 3,
    Protocol { detail } = 4,
    StashOverflow { occupancy, capacity } = 5,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = ConfigError::new("k must be <= 3");
        assert_eq!(e.to_string(), "invalid configuration: k must be <= 3");
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<SimError>();
    }

    #[test]
    fn sim_error_displays_by_variant() {
        assert_eq!(
            SimError::config("bad k").to_string(),
            "invalid configuration: bad k"
        );
        assert_eq!(
            SimError::fault("link cpu->mem", "retries exhausted").to_string(),
            "unrecovered fault at link cpu->mem: retries exhausted"
        );
        assert_eq!(
            SimError::integrity(0xff, "tag mismatch").to_string(),
            "integrity violation at 0xff: tag mismatch"
        );
        assert_eq!(
            SimError::link_timeout(4, "72B frame").to_string(),
            "link timeout after 4 attempts: 72B frame"
        );
        assert_eq!(
            SimError::protocol("stash overflow").to_string(),
            "protocol invariant violated: stash overflow"
        );
        assert_eq!(
            SimError::stash_overflow(130, 128).to_string(),
            "stash overflow: 130 blocks exceed capacity 128"
        );
    }

    #[test]
    fn config_error_converts() {
        let e: SimError = ConfigError::new("x").into();
        assert_eq!(e, SimError::Config(ConfigError::new("x")));
        assert!(e.source().is_some());
    }
}
