//! # repl-gcs — group communication for the replication reproduction
//!
//! The distributed-systems substrate of *Understanding Replication in
//! Databases and Distributed Systems* (Wiesmann et al., ICDCS 2000):
//! the paper's Section 3.1 abstractions, built from scratch on top of the
//! [`repl_sim`] kernel.
//!
//! * [`HeartbeatFd`] — eventually-perfect failure detector,
//! * [`ConsensusPool`] — rotating-coordinator consensus (◇S style),
//! * [`SequencerAbcast`], [`ConsensusAbcast`] — Atomic Broadcast (total
//!   order), the primitive behind active replication and ABCAST-based
//!   database replication,
//! * [`GenuineMulticast`] — genuine Atomic Multicast (Skeen-style
//!   timestamp agreement): globally consistent order delivered only to
//!   the groups a message touches, the cross-shard ordering primitive
//!   of partial replication,
//!
//!   the three behind one [`TotalOrder`] interface and one wire message
//!   [`AbMsg`]; the first two share one ordered log (own ids, pending
//!   submissions, batch staging, the replay log and rejoin bookkeeping),
//!   as genuine multicast sits behind the same total-order interface as
//!   single-group broadcast in partial replication,
//! * [`ViewGroup`] — group membership with view-synchronous broadcast
//!   (VSCAST), the primitive behind passive replication.
//!
//! All protocols are written as [`Component`]s: passive state machines a
//! host actor drives, so a replication server can stack them freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abcast;
mod component;
mod consensus;
mod fd;
mod gmcast;
mod ordered;
mod receiver;
mod runset;
pub mod testkit;
mod vscast;

pub use abcast::{AbDeliver, Batch, BatchConfig, ConsensusAbcast, SequencerAbcast};
pub use component::{apply_outbox, Action, Component, Outbox, TAG_SPACE};
pub use consensus::{ConsEvent, ConsMsg, ConsensusConfig, ConsensusPool};
pub use fd::{FdConfig, FdEvent, FdMsg, HeartbeatFd};
pub use gmcast::GenuineMulticast;
pub use ordered::{AbMsg, AbOutbox, TotalOrder};
pub use receiver::MsgId;
pub use runset::RunSet;
pub use vscast::{View, ViewGroup, VsConfig, VsEvent, VsMsg};
