//! # repl-db — the database kernel under the replication reproduction
//!
//! The database-side substrate of *Understanding Replication in Databases
//! and Distributed Systems* (Wiesmann et al., ICDCS 2000):
//!
//! * [`Store`] — one site's versioned physical copies; [`ShadowStore`]
//!   for optimistic (certification-based) execution,
//! * [`LockManager`] — strict two-phase locking with wound-wait
//!   prevention, or deadlock detection over the wait-for graph it reads
//!   off its table on demand,
//! * [`TxnManager`] — the undo log: begin/write/commit/abort,
//! * [`WriteSet`]/[`RedoLog`] — the log records replication propagates,
//! * [`TpcCoordinator`]/[`TpcParticipant`] — two-phase commit,
//! * [`Certifier`] — the deterministic certification test,
//! * [`Transfer`]/[`RecoveryTracker`] — crash-recovery state transfer
//!   (log-suffix vs snapshot) and MTTR accounting,
//! * [`DurableLog`] — the off-node durable log tier (sealed frames,
//!   durable watermark, disaster wipe/restore),
//! * [`ReplicatedHistory`] — one-copy-serializability checking,
//! * [`first_cycle`] — the one cycle finder, shared by the 1SR checker
//!   and distributed deadlock detection.
//!
//! The crate is pure data structures and state machines: no I/O, no
//! simulator dependency. The replication protocols in `repl-core` embed
//! these pieces inside simulated server actors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod certify;
mod durable;
mod graph;
pub mod hash;
mod history;
mod item;
mod locks;
mod log;
mod recovery;
mod store;
mod twopc;
mod txn;
pub mod wire;

pub use arena::{shared_arena, ArenaStats, PayloadArena, SharedArena, WriteSetRef, WsView};
pub use certify::{Certification, Certifier};
pub use durable::{DurableFrame, DurableLog, DurableRestore, TxnColumn};
pub use graph::first_cycle;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use history::{ReplicatedHistory, SerializabilityViolation};
pub use item::{AccessKind, Key, Keyspace, TxnId, Value};
pub use locks::{Acquire, DeadlockPolicy, LockManager, LockMode};
pub use log::{RedoLog, WriteRecord, WriteSet, FSYNC_TICKS};
pub use recovery::{RecoveryTracker, Transfer, TransferStrategy};
pub use store::{ShadowStore, Store, Versioned};
pub use twopc::{TpcCoordState, TpcCoordinator, TpcDecision, TpcMsg, TpcPartState, TpcParticipant};
pub use txn::{TxnManager, UnknownTxn};
