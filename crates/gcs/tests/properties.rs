//! Property-based tests for the group-communication stack: total order
//! and consensus agreement — under arbitrary schedules, seeds and
//! minority crashes.

use proptest::prelude::*;

use repl_gcs::testkit::ComponentActor;
use repl_gcs::{
    AbMsg, ConsMsg, ConsensusAbcast, ConsensusConfig, ConsensusPool, RunSet, SequencerAbcast,
};
use repl_sim::{NodeId, SimConfig, SimDuration, SimTime, World};

/// A broadcast schedule: (sender index, time, payload).
fn schedule_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, u64, u32)>> {
    proptest::collection::vec((0..n, 0u64..6_000, any::<u32>()), 1..24)
}

fn total_order_holds(per_node: &[Vec<u32>], alive: &[bool]) -> Result<(), String> {
    // All alive nodes' delivery sequences must be equal (the sim runs to
    // quiescence, so prefixes don't arise in failure-free cases; with
    // crashes we require prefix-consistency).
    let longest = per_node
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(v, _)| v)
        .max_by_key(|v| v.len())
        .cloned()
        .unwrap_or_default();
    for (i, (v, &a)) in per_node.iter().zip(alive).enumerate() {
        if !a {
            continue;
        }
        if v[..] != longest[..v.len()] {
            return Err(format!(
                "node {i} sequence {v:?} not a prefix of {longest:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequencer ABCAST: identical delivery order everywhere, no loss,
    /// no duplication, for arbitrary schedules.
    #[test]
    fn sequencer_abcast_total_order(
        seed in any::<u64>(),
        sched in schedule_strategy(4),
    ) {
        let n = 4u32;
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(seed).with_trace(false));
        for i in 0..n {
            let mut actor = ComponentActor::new(SequencerAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
            ));
            for &(s, at, v) in &sched {
                if s == i as usize {
                    actor = actor.with_step(SimDuration::from_ticks(at), move |ab, out| {
                        ab.broadcast(v, out);
                    });
                }
            }
            world.add_actor(Box::new(actor));
        }
        world.start();
        world.run_to_quiescence(SimTime::from_ticks(10_000_000));
        let per_node: Vec<Vec<u32>> = group
            .iter()
            .map(|&g| {
                world
                    .actor_ref::<ComponentActor<SequencerAbcast<u32>>>(g)
                    .events
                    .iter()
                    .map(|(_, d)| d.payload)
                    .collect()
            })
            .collect();
        prop_assert_eq!(per_node[0].len(), sched.len(), "lost or duplicated messages");
        total_order_holds(&per_node, &[true; 4]).map_err(TestCaseError::fail)?;
    }

    /// Consensus ABCAST keeps total order among survivors even when one
    /// member (possibly the round coordinator) crashes mid-run.
    #[test]
    fn consensus_abcast_total_order_with_crash(
        seed in any::<u64>(),
        sched in schedule_strategy(5),
        crash_node in 0u32..5,
        crash_at in 100u64..8_000,
    ) {
        let n = 5u32;
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut world: World<AbMsg<u32>> = World::new(SimConfig::new(seed).with_trace(false));
        for i in 0..n {
            let mut actor = ComponentActor::new(ConsensusAbcast::<u32>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            ));
            for &(s, at, v) in &sched {
                if s == i as usize {
                    actor = actor.with_step(SimDuration::from_ticks(at), move |ab, out| {
                        ab.broadcast(v, out);
                    });
                }
            }
            world.add_actor(Box::new(actor));
        }
        world.schedule_crash(SimTime::from_ticks(crash_at), NodeId::new(crash_node));
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        let per_node: Vec<Vec<u32>> = group
            .iter()
            .map(|&g| {
                world
                    .actor_ref::<ComponentActor<ConsensusAbcast<u32>>>(g)
                    .events
                    .iter()
                    .map(|(_, d)| d.payload)
                    .collect()
            })
            .collect();
        let alive: Vec<bool> = (0..n).map(|i| i != crash_node).collect();
        total_order_holds(&per_node, &alive).map_err(TestCaseError::fail)?;
        // Messages broadcast by survivors before the end must be delivered
        // at every survivor (validity): survivors' sequences are equal and
        // contain every payload a survivor broadcast.
        let longest = per_node
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| a)
            .map(|(v, _)| v.clone())
            .max_by_key(|v| v.len())
            .unwrap_or_default();
        for &(s, _, v) in &sched {
            if s as u32 != crash_node {
                prop_assert!(
                    longest.contains(&v),
                    "survivor broadcast {} lost", v
                );
            }
        }
    }

    /// Consensus: agreement + validity for arbitrary proposer subsets and
    /// an arbitrary minority crash.
    #[test]
    fn consensus_agreement_and_validity(
        seed in any::<u64>(),
        proposers in proptest::collection::btree_set(0u32..5, 1..5),
        values in proptest::collection::vec(any::<u64>(), 5),
        crash_node in 0u32..5,
        crash_at in 0u64..5_000,
    ) {
        let n = 5u32;
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut world: World<ConsMsg<u64>> = World::new(SimConfig::new(seed).with_trace(false));
        for i in 0..n {
            let mut actor = ComponentActor::new(ConsensusPool::<u64>::new(
                NodeId::new(i),
                group.clone(),
                ConsensusConfig::default(),
            ));
            if proposers.contains(&i) {
                let v = values[i as usize];
                actor = actor.with_step(SimDuration::from_ticks(10 + i as u64), move |p, out| {
                    p.propose(0, v, out);
                });
            }
            world.add_actor(Box::new(actor));
        }
        world.schedule_crash(SimTime::from_ticks(crash_at), NodeId::new(crash_node));
        world.start();
        world.run_until(SimTime::from_ticks(3_000_000));
        let decisions: Vec<Option<u64>> = (0..n)
            .filter(|&i| i != crash_node)
            .map(|i| {
                world
                    .actor_ref::<ComponentActor<ConsensusPool<u64>>>(NodeId::new(i))
                    .events
                    .iter()
                    .map(|(_, e)| match e {
                        repl_gcs::ConsEvent::Decided { value, .. } => *value,
                    })
                    .next()
            })
            .collect();
        // Agreement: all decided survivors agree.
        let decided: Vec<u64> = decisions.iter().flatten().copied().collect();
        prop_assert!(decided.windows(2).all(|w| w[0] == w[1]), "disagreement: {:?}", decisions);
        // Validity: any decision is a proposed value.
        for d in &decided {
            prop_assert!(
                proposers.iter().any(|&p| values[p as usize] == *d),
                "invalid decision {}", d
            );
        }
        // Termination: unless every proposer crashed (then nothing need
        // decide), survivors must decide.
        let surviving_proposer = proposers.iter().any(|&p| p != crash_node);
        if surviving_proposer {
            prop_assert!(
                decisions.iter().all(|d| d.is_some()),
                "undecided survivors: {:?}", decisions
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// View synchrony under randomized single-crash schedules: for every
    /// message, the surviving members either all deliver it or none does
    /// (all-or-none w.r.t. the view change), and all survivors install the
    /// same final view.
    #[test]
    fn vscast_view_synchrony(
        seed in any::<u64>(),
        bcasts in proptest::collection::vec((0usize..4, 0u64..4_000), 1..8),
        crash_node in 0u32..4,
        crash_at in 500u64..4_500,
    ) {
        use repl_gcs::{ViewGroup, VsConfig, VsEvent, VsMsg};
        let n = 4u32;
        let group: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut world: World<VsMsg<u32>> = World::new(SimConfig::new(seed).with_trace(false));
        for i in 0..n {
            let mut actor = ComponentActor::new(ViewGroup::<u32>::new(
                NodeId::new(i),
                group.clone(),
                VsConfig::default(),
            ));
            for (k, &(s, at)) in bcasts.iter().enumerate() {
                if s == i as usize {
                    let v = k as u32;
                    actor = actor.with_step(SimDuration::from_ticks(at), move |vg, out| {
                        vg.broadcast(v, out);
                    });
                }
            }
            world.add_actor(Box::new(actor));
        }
        world.schedule_crash(SimTime::from_ticks(crash_at), NodeId::new(crash_node));
        world.start();
        world.run_until(SimTime::from_ticks(2_000_000));

        let survivors: Vec<NodeId> = group
            .iter()
            .copied()
            .filter(|g| g.raw() != crash_node)
            .collect();
        // Collect per-survivor delivered payload sets and installed views.
        let mut delivered: Vec<std::collections::BTreeSet<u32>> = Vec::new();
        let mut final_views: Vec<Vec<NodeId>> = Vec::new();
        for &s in &survivors {
            let host = world.actor_ref::<ComponentActor<ViewGroup<u32>>>(s);
            prop_assert!(
                !host.inner.is_excluded(),
                "survivor {} falsely excluded", s
            );
            delivered.push(
                host.events
                    .iter()
                    .filter_map(|(_, e)| match e {
                        VsEvent::Deliver { payload, .. } => Some(*payload),
                        _ => None,
                    })
                    .collect(),
            );
            final_views.push(host.inner.view().members.clone());
        }
        // All-or-none delivery among survivors.
        for w in delivered.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "survivors delivered different sets");
        }
        // Same final view, excluding the corpse.
        for v in &final_views {
            prop_assert_eq!(v, &survivors, "wrong final view {:?}", v);
        }
        // Survivors' own broadcasts issued well before the end must be in.
        for (k, &(s, _)) in bcasts.iter().enumerate() {
            if s as u32 != crash_node {
                prop_assert!(
                    delivered[0].contains(&(k as u32)),
                    "survivor broadcast {} lost", k
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The run-compressed id set answers exactly like a `HashSet` of
    /// `(origin, seq)` pairs under arbitrary multi-origin histories —
    /// dense, reversed and gapped stretches, re-inserted duplicates,
    /// clears — and never stores more runs than the model has maximal
    /// runs (so never more entries than inserts).
    #[test]
    fn run_set_matches_a_hash_set_model(
        stretches in proptest::collection::vec((0u32..3, 0u64..40, 1u64..12, 0u8..8), 1..40),
    ) {
        use std::collections::HashSet;
        let mut set: RunSet<u32> = RunSet::new();
        let mut model: HashSet<(u32, u64)> = HashSet::new();
        for (origin, start, len, shape) in stretches {
            let seqs: Vec<u64> = match shape {
                0..=2 => (start..start + len).collect(),
                3..=4 => (start..start + len).rev().collect(),
                5..=6 => (0..len).map(|k| start + 2 * k).collect(),
                _ => {
                    set.clear();
                    model.clear();
                    continue;
                }
            };
            for seq in seqs {
                prop_assert_eq!(
                    set.insert(origin, seq),
                    model.insert((origin, seq)),
                    "insert({}, {}) answered differently", origin, seq
                );
            }
            for o in 0..3 {
                for s in 0..64 {
                    prop_assert_eq!(
                        set.contains(o, s),
                        model.contains(&(o, s)),
                        "contains({}, {}) answered differently", o, s
                    );
                }
            }
            let maximal_runs = model
                .iter()
                .filter(|&&(o, s)| s == 0 || !model.contains(&(o, s - 1)))
                .count();
            prop_assert_eq!(set.runs(), maximal_runs, "runs not merged");
            prop_assert!(set.runs() <= model.len());
        }
    }
}
