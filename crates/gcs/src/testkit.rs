//! Helpers for exercising a single [`Component`] inside a [`repl_sim::World`].
//!
//! Production code embeds components inside protocol actors; tests (and the
//! ablation benchmarks) often want to run a component stand-alone. The
//! [`ComponentActor`] wrapper turns any component into an actor, records
//! every event it delivers (timestamped), and can run a *script* of API
//! calls against the component at chosen times — e.g. "broadcast message 3
//! at t=500".

use repl_sim::{
    impl_as_any, Actor, Context, Message, NodeId, SimDuration, SimTime, TimerId, World,
};

use crate::component::{apply_outbox, Component, Outbox, TAG_SPACE};

/// A scripted call against the wrapped component.
type Step<C> = Box<dyn FnMut(&mut C, &mut Outbox<<C as Component>::Msg, <C as Component>::Event>)>;

/// Schedules a crash at `down` and the matching recovery at `up` for
/// `node` — the standard outage shape the recovery tests exercise.
///
/// # Panics
///
/// Panics if `up <= down` (a recovery must follow its crash).
pub fn schedule_outage<M: Message>(world: &mut World<M>, node: NodeId, down: SimTime, up: SimTime) {
    assert!(down < up, "outage must recover after it crashes");
    world.schedule_crash(down, node);
    world.schedule_recover(up, node);
}

/// An actor that hosts exactly one component, records its events, and
/// replays a script of API calls.
pub struct ComponentActor<C: Component> {
    /// The wrapped component.
    pub inner: C,
    /// Every event the component delivered, with its virtual time.
    pub events: Vec<(SimTime, C::Event)>,
    script: Vec<(SimDuration, Option<Step<C>>)>,
    recover_hook: Option<Step<C>>,
    out: Outbox<C::Msg, C::Event>,
}

impl<C: Component> ComponentActor<C> {
    /// Wraps a component.
    pub fn new(inner: C) -> Self {
        ComponentActor {
            inner,
            events: Vec::new(),
            script: Vec::new(),
            recover_hook: None,
            out: Outbox::new(),
        }
    }

    /// Schedules `step` to run against the component at `at` (ticks after
    /// start). Returns `self` for chaining.
    pub fn with_step(
        mut self,
        at: SimDuration,
        step: impl FnMut(&mut C, &mut Outbox<C::Msg, C::Event>) + 'static,
    ) -> Self {
        self.script.push((at, Some(Box::new(step))));
        self
    }

    /// Runs `hook` against the component whenever the hosting node
    /// recovers from a crash, *instead of* the default `on_start`
    /// restart — the place to call a component's rejoin API (e.g.
    /// [`crate::SequencerAbcast::rejoin`]).
    pub fn with_recovery(
        mut self,
        hook: impl FnMut(&mut C, &mut Outbox<C::Msg, C::Event>) + 'static,
    ) -> Self {
        self.recover_hook = Some(Box::new(hook));
        self
    }

    /// Applies what the component queued and records its events.
    fn flush(&mut self, ctx: &mut Context<'_, C::Msg>)
    where
        C::Msg: Message,
    {
        let now = ctx.now();
        apply_outbox(
            ctx,
            &mut self.out,
            0,
            |m| m,
            |_, e| self.events.push((now, e)),
        );
    }
}

impl<C> Actor<C::Msg> for ComponentActor<C>
where
    C: Component + 'static,
    C::Msg: Message,
    C::Event: 'static,
{
    fn on_start(&mut self, ctx: &mut Context<'_, C::Msg>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*at, TAG_SPACE + i as u64);
        }
        self.inner.on_start(&mut self.out);
        self.flush(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, C::Msg>, from: NodeId, msg: C::Msg) {
        self.inner.on_message(from, msg, &mut self.out);
        self.flush(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, C::Msg>) {
        // Restart the component's timers after a crash (state is
        // retained); a recovery hook replaces the plain restart.
        match self.recover_hook.as_mut() {
            Some(hook) => hook(&mut self.inner, &mut self.out),
            None => self.inner.on_start(&mut self.out),
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, C::Msg>, _timer: TimerId, tag: u64) {
        if tag >= TAG_SPACE {
            let idx = (tag - TAG_SPACE) as usize;
            if let Some(step) = self.script[idx].1.as_mut() {
                step(&mut self.inner, &mut self.out);
            }
        } else {
            self.inner.on_timer(tag, &mut self.out);
        }
        self.flush(ctx);
    }

    impl_as_any!();
}
