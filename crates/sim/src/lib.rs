//! # repl-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the replication techniques of
//! *Understanding Replication in Databases and Distributed Systems*
//! (Wiesmann et al., ICDCS 2000) are reproduced. It provides:
//!
//! * a virtual clock ([`SimTime`], [`SimDuration`]) and a deterministic
//!   event queue,
//! * an [`Actor`] model for simulated processes,
//! * a [`Network`] model with latency, jitter, FIFO links, loss and
//!   partitions,
//! * scheduled fault injection: crashes, recoveries and [`NetFault`]s
//!   (partitions/heals and directional link degradations — latency
//!   spikes, loss, cuts) at arbitrary virtual times,
//! * a [`TraceLog`] that hashes every event and keeps the phase marks
//!   (the paper's phase diagrams are regenerated from them) and faults,
//! * [`Metrics`] and [`LatencyStats`] for the performance study.
//!
//! Runs are fully deterministic: the same [`SimConfig`] (seed) and actor
//! set produce the same trace hash.
//!
//! # Examples
//!
//! ```
//! use repl_sim::*;
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Message for Hello {}
//!
//! struct Greeter { got: bool }
//! impl Actor<Hello> for Greeter {
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: NodeId, _msg: Hello) {
//!         self.got = true;
//!     }
//!     impl_as_any!();
//! }
//! struct Sender { to: NodeId }
//! impl Actor<Hello> for Sender {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         ctx.send(self.to, Hello);
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, Hello>, _: NodeId, _: Hello) {}
//!     impl_as_any!();
//! }
//!
//! let mut world = World::new(SimConfig::new(7));
//! let g = world.add_actor(Box::new(Greeter { got: false }));
//! world.add_actor(Box::new(Sender { to: g }));
//! world.start();
//! world.run_to_quiescence(SimTime::from_ticks(1_000));
//! assert!(world.actor_ref::<Greeter>(g).got);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod ids;
mod metrics;
mod network;
mod time;
mod trace;
mod wheel;
mod world;

pub use actor::{Actor, Message};
pub use ids::{GroupSet, NodeId, TimerId};
pub use metrics::{LatencyHistogram, LatencyStats, Metrics};
pub use network::{Delivery, LinkQuality, NetFault, Network, NetworkConfig};
pub use time::{SimDuration, SimTime};
pub use trace::{Fnv1a, TraceEvent, TraceLog, TraceRecord};
pub use wheel::{TimingWheel, WheelEntry};
pub use world::{Context, SimConfig, World};
