//! The actor abstraction: every simulated process (replica server, client,
//! sequencer, …) implements [`Actor`].

use std::any::Any;

use crate::ids::{NodeId, TimerId};
use crate::time::SimTime;
use crate::world::Context;

/// A message exchanged between actors.
///
/// `wire_size` feeds the byte counters used by the message-cost experiments;
/// the default of 64 bytes approximates a small control message with headers.
///
/// # Examples
///
/// ```
/// use repl_sim::Message;
///
/// #[derive(Clone, Debug)]
/// enum Ping { Ping, Pong }
///
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 16 }
/// }
/// assert_eq!(Ping::Ping.wire_size(), 16);
/// ```
pub trait Message: Clone + std::fmt::Debug + 'static {
    /// Approximate serialized size in bytes, for byte accounting.
    fn wire_size(&self) -> usize {
        64
    }

    /// Whether `clone` is allocation-free. Nothing reads it:
    /// [`Context::multicast`] clones every leg but the last whatever it
    /// returns. It stays only because the benchmark's multicast driver
    /// overrides it, and goes together with that driver.
    fn clone_is_cheap(&self) -> bool {
        false
    }

    /// Whether this message is background traffic — a failure detector's
    /// heartbeat — rather than protocol traffic. Background sends are
    /// also counted in [`crate::Metrics::background_messages`] and
    /// [`crate::Metrics::background_bytes`].
    fn is_background(&self) -> bool {
        false
    }
}

impl Message for () {
    fn wire_size(&self) -> usize {
        1
    }
}
impl Message for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}
impl Message for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}
impl Message for i64 {
    fn wire_size(&self) -> usize {
        8
    }
}
impl Message for String {
    fn wire_size(&self) -> usize {
        self.len() + 8
    }
}

/// A simulated process driven by messages and timers.
///
/// Actors never share memory; all interaction goes through
/// [`Context::send`] and is subject to the network model. The scheduler
/// guarantees the callbacks of a single actor never overlap, so an actor
/// can be written as plain sequential code.
///
/// `as_any`/`as_any_mut` allow the harness to inspect concrete actor state
/// after a run (histories, stores, …) without the kernel knowing the types.
pub trait Actor<M: Message>: 'static {
    /// Called once when the world starts, before any message flows.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _timer: TimerId, _tag: u64) {}

    /// Called when the node crashes. The actor cannot interact with the
    /// world from here; it only gets to observe the time of death.
    fn on_crash(&mut self, _now: SimTime) {}

    /// Called when the node recovers. State is retained across the crash
    /// (crash-recovery with stable storage); protocols that assume
    /// crash-stop simply never schedule a recovery.
    fn on_recover(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a scheduled drain (planned decommission) fires at the
    /// node. Unlike a crash the node stays up and keeps processing
    /// messages: the actor is expected to stop accepting new work, hand
    /// off any distinguished role it holds, and leave its replication
    /// group gracefully. The default does nothing (clients and
    /// non-member actors are never drained).
    fn on_drain(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when the node's storage volume is lost (disaster fault).
    /// Like [`on_crash`](Self::on_crash) the node is down afterwards, but
    /// the actor must additionally discard everything it modeled as living
    /// on the lost volume (WAL, versioned store). The default treats the
    /// disaster as a plain crash — correct for actors with no durable
    /// state, e.g. clients.
    fn on_volume_loss(&mut self, now: SimTime) {
        self.on_crash(now);
    }

    /// Called after every completed interactive callback (`on_start`,
    /// `on_message`, `on_timer`, `on_recover`) while the actor still has
    /// the context. Durability tiers use this to seal and ship log frames
    /// exactly once per event, after the event's full effect is applied.
    /// The default does nothing.
    fn on_settle(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements `as_any`/`as_any_mut` for an actor type.
///
/// # Examples
///
/// ```
/// use repl_sim::{impl_as_any, Actor, Context, Message, NodeId};
///
/// #[derive(Clone, Debug)]
/// struct Msg;
/// impl Message for Msg {}
///
/// struct Echo;
/// impl Actor<Msg> for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
///         ctx.send(from, msg);
///     }
///     impl_as_any!();
/// }
/// ```
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}
