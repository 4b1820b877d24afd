//! Tiered durability's one knob: whether servers run an uploader into
//! an off-node object store, and how long its requests take.
//!
//! The local WAL and store live on a losable volume; each tiered server
//! keeps a [`DurableLog`](repl_db::DurableLog) — the pending tail, the
//! sealed frames, the loss claims and the restore — built from this
//! configuration. A frame becomes durable `upload_lag` ticks after it is
//! sealed, so the tier splits the node's acknowledged commits into a
//! *durable prefix* and an *exposed suffix*: the data-loss window a
//! volume-loss disaster realises.
//!
//! The tier is strictly passive with respect to the simulation: sealing
//! happens from the settle hook after normal event processing, uploads
//! do not travel the simulated network (backup traffic has its own path
//! and must not contend with replication traffic), and a disabled tier
//! leaves a run bit-for-bit unchanged (the digest-identity tests pin
//! this).

/// Configuration of one run's durable log tier.
///
/// # Examples
///
/// ```
/// use repl_core::DurabilityConfig;
///
/// let off = DurabilityConfig::disabled();
/// assert!(!off.enabled);
/// let tiered = DurabilityConfig::with_upload_lag(2_000);
/// assert!(tiered.enabled);
/// assert_eq!(tiered.upload_lag, 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Whether servers run an uploader at all. Disabled (the default)
    /// reproduces the untiered behaviour bit-for-bit.
    pub enabled: bool,
    /// Latency of one object-store request, in ticks: a sealed frame is
    /// durable this long after the seal, and a restore's download takes
    /// as long. Zero is a synchronous tier, which loses nothing.
    pub upload_lag: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig::disabled()
    }
}

impl DurabilityConfig {
    /// No durable tier: the pre-tier behaviour.
    pub fn disabled() -> Self {
        DurabilityConfig {
            enabled: false,
            upload_lag: 0,
        }
    }

    /// A tier whose requests take `lag` ticks — the knob the P12 study
    /// sweeps against the data-loss window.
    pub fn with_upload_lag(lag: u64) -> Self {
        DurabilityConfig {
            enabled: true,
            upload_lag: lag,
        }
    }
}
