//! Property-based tests for the fault-load generators: nemesis plans are
//! reproducible, valid by construction, fully healed, and survivable
//! (rank 0 and a majority of replicas stay untouched) for arbitrary
//! seeds, intensities and group sizes.

use proptest::prelude::*;
use repl_db::Key;
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, MembershipPlan, ShardMap, WorkloadGen, WorkloadSpec};

proptest! {
    /// The same (seed, intensity, nodes, horizon) always yields the same
    /// plan — the reproducibility contract fault sweeps rely on.
    #[test]
    fn nemesis_plans_are_reproducible(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
        nodes in 2u32..=9,
        horizon in 0u64..=200_000,
    ) {
        let h = SimTime::from_ticks(horizon);
        let a = FaultPlan::random(seed, intensity, nodes, h);
        let b = FaultPlan::random(seed, intensity, nodes, h);
        prop_assert_eq!(a, b);
    }

    /// Generated plans always validate against their own parameters, heal
    /// every fault they inject, and confine the blast radius to the tail
    /// victim pool — rank 0 and a majority are never disturbed.
    #[test]
    fn nemesis_plans_are_valid_survivable_and_healed(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
        nodes in 2u32..=9,
    ) {
        let h = SimTime::from_ticks(120_000);
        let plan = FaultPlan::random(seed, intensity, nodes, h);
        prop_assert!(plan.validate(nodes, h).is_ok());
        prop_assert!(plan.fully_healed());
        let pool = ((nodes - 1) / 2).max(1);
        let disturbed = plan.disturbed_nodes();
        prop_assert!(!disturbed.contains(&NodeId::new(0)));
        for d in &disturbed {
            prop_assert!(d.index() >= (nodes - pool) as usize);
        }
        prop_assert!(disturbed.len() <= pool as usize);
    }

    /// At every instant of a nemesis plan — any seed, any intensity up to
    /// the disaster tier — the set of down nodes (crashed or volume-lost)
    /// stays within the minority victim pool: a majority of replicas is
    /// never down, and in particular never wiped, simultaneously.
    #[test]
    fn nemesis_never_downs_a_majority_simultaneously(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
        nodes in 2u32..=9,
    ) {
        use repl_workload::FaultEvent;
        let h = SimTime::from_ticks(120_000);
        let plan = FaultPlan::random(seed, intensity, nodes, h);
        let mut order: Vec<&FaultEvent> = plan.events().iter().collect();
        order.sort_by_key(|e| e.time());
        let minority = ((nodes - 1) / 2).max(1) as usize;
        let mut down = std::collections::BTreeSet::new();
        let mut wiped = std::collections::BTreeSet::new();
        for e in order {
            match e {
                FaultEvent::Crash { node, .. } => { down.insert(*node); }
                FaultEvent::VolumeLoss { node, .. } => {
                    down.insert(*node);
                    wiped.insert(*node);
                }
                FaultEvent::Recover { node, .. } => {
                    down.remove(node);
                    wiped.remove(node);
                }
                FaultEvent::Net { .. } => {}
            }
            prop_assert!(down.len() <= minority);
            prop_assert!(wiped.len() <= minority);
        }
    }

    /// The elastic nemesis never strands a shrunk view below quorum: for
    /// arbitrary seeds, intensities and group sizes, composing the plan
    /// with a grow–shrink membership cycle whose drains overlap the
    /// fault window keeps live members at a majority of the current
    /// membership at every instant, never touches a planned joiner, and
    /// still heals every fault it injects.
    #[test]
    fn elastic_nemesis_survives_grow_shrink_composition(
        seed in any::<u64>(),
        intensity in 0.0f64..=1.0,
        initial in 3u32..=7,
    ) {
        let h = SimTime::from_ticks(120_000);
        // Joins early, drains *inside* the fault window [12k, 60k] so a
        // shrunk view genuinely overlaps the generated chaos, ending
        // with a drain of an initial tail node (smallest final view).
        let m = MembershipPlan::new()
            .join_at(SimTime::from_ticks(8_000), NodeId::new(initial))
            .join_at(SimTime::from_ticks(10_000), NodeId::new(initial + 1))
            .drain_at(SimTime::from_ticks(30_000), NodeId::new(initial))
            .drain_at(SimTime::from_ticks(40_000), NodeId::new(initial + 1))
            .drain_at(SimTime::from_ticks(50_000), NodeId::new(initial - 1));
        prop_assert!(m.validate(initial, h).is_ok());
        let plan = FaultPlan::random_elastic(seed, intensity, initial, h, &m);
        prop_assert!(m.survivable_with(&plan, initial));
        prop_assert!(plan.validate(m.peak_servers(initial), h).is_ok());
        prop_assert!(plan.fully_healed());
        // Joiners are never victims: the blast radius stays inside the
        // initial servers' tail pool.
        for d in plan.disturbed_nodes() {
            prop_assert!(d.index() < initial as usize);
        }
        // Determinism: the guardrail search is reproducible.
        prop_assert_eq!(plan, FaultPlan::random_elastic(seed, intensity, initial, h, &m));
    }

    /// Explicitly composed disaster + outage + partition plans stay valid
    /// and fully healed as long as each node's down intervals are
    /// serialised — the composition the P12 nemesis test drives.
    #[test]
    fn disaster_crash_partition_composition_stays_valid(
        raw in proptest::collection::vec(
            (0u64..=40_000, 1u32..=4, 1u64..=8_000, any::<bool>()), 0..6),
        cut in 1u64..=40_000,
    ) {
        // Serialise per-node down intervals, alternating crash outages and
        // volume-loss disasters, then overlay a partition + heal.
        let mut next_free = [0u64; 5];
        let mut plan = FaultPlan::new();
        let mut raw = raw;
        raw.sort_by_key(|&(at, node, down, _)| (at, node, down));
        for (at, node, down, disaster) in raw {
            let start = at.max(next_free[node as usize]);
            next_free[node as usize] = start + down + 1;
            let (n, t, d) = (
                NodeId::new(node),
                SimTime::from_ticks(start),
                SimDuration::from_ticks(down),
            );
            plan = if disaster {
                plan.disaster_at(t, n, d)
            } else {
                plan.outage_at(t, n, d)
            };
        }
        plan = plan
            .partition_at(
                SimTime::from_ticks(cut),
                vec![
                    vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                    vec![NodeId::new(3), NodeId::new(4)],
                ],
            )
            .heal_at(SimTime::from_ticks(cut + 5_000));
        let deadline = SimTime::from_ticks(200_000);
        prop_assert!(plan.validate(5, deadline).is_ok());
        prop_assert!(plan.fully_healed());
        prop_assert!(!plan.disturbed_nodes().contains(&NodeId::new(0)));
    }

    /// A crash/recover pair on one node validates exactly when the node
    /// is a server and the recovery does not precede the crash (a tie
    /// keeps insertion order, crash first).
    #[test]
    fn crash_recover_pair_validates_iff_well_formed(
        crash in 0u64..=50_000,
        recover in 0u64..=50_000,
        node in 0u32..=4,
        servers in 1u32..=4,
    ) {
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_ticks(crash), NodeId::new(node))
            .recover_at(SimTime::from_ticks(recover), NodeId::new(node));
        let verdict = plan.validate(servers, SimTime::from_ticks(60_000));
        prop_assert_eq!(verdict.is_ok(), node < servers && crash <= recover);
    }

    /// Every key of the keyspace is owned by exactly one shard, that
    /// shard's range contains it, and the shard sizes are contiguous,
    /// exhaustive and near-equal — for arbitrary (items, shards).
    #[test]
    fn shard_map_gives_every_key_exactly_one_owner(
        items in 1u64..=4_096,
        shards_raw in 1u32..=64,
    ) {
        let shards = shards_raw.min(items as u32);
        let map = ShardMap::new(items, shards);
        let mut counts = vec![0u64; shards as usize];
        let mut next = 0u64;
        for s in 0..shards {
            let (lo, hi) = map.range(s);
            prop_assert_eq!(lo, next, "gap or overlap before shard {}", s);
            prop_assert!(hi > lo, "shard {} owns no keys", s);
            next = hi;
        }
        prop_assert_eq!(next, items, "ranges do not cover the keyspace");
        for k in 0..items {
            let s = map.shard_of(Key(k));
            prop_assert!(s < shards);
            let (lo, hi) = map.range(s);
            prop_assert!(lo <= k && k < hi, "key {} outside shard {}'s range", k, s);
            counts[s as usize] += 1;
        }
        let (min, max) = (
            counts.iter().copied().min().unwrap(),
            counts.iter().copied().max().unwrap(),
        );
        prop_assert!(max - min <= 1, "imbalanced shards: {}..{}", min, max);
    }

    /// Routing is a pure function of (items, shards): independently
    /// constructed maps — including ones consulted on other threads —
    /// agree on every key's owner. The sharded runner relies on clients
    /// and servers deriving identical routing without shared state.
    #[test]
    fn shard_routing_is_deterministic_across_threads(
        items in 1u64..=2_048,
        shards_raw in 1u32..=32,
    ) {
        let shards = shards_raw.min(items as u32);
        let here: Vec<u32> = {
            let map = ShardMap::new(items, shards);
            (0..items).map(|k| map.shard_of(Key(k))).collect()
        };
        let threads: Vec<Vec<u32>> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let map = ShardMap::new(items, shards);
                    (0..items).map(|k| map.shard_of(Key(k))).collect::<Vec<u32>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("routing thread panicked"))
            .collect();
        for t in threads {
            prop_assert_eq!(&t, &here);
        }
    }

    /// The sharded generator respects `cross_shard_ratio` within
    /// statistical tolerance: with at least two operations per
    /// transaction, the fraction of generated transactions that touch
    /// more than one shard tracks the knob, and no transaction ever
    /// touches more than two shards.
    #[test]
    fn generator_respects_cross_shard_ratio(
        seed in any::<u64>(),
        ratio_pct in 0u32..=100,
        shards in 2u32..=16,
    ) {
        let ratio = f64::from(ratio_pct) / 100.0;
        let spec = WorkloadSpec::default()
            .with_items(1_024)
            .with_ops_per_txn(4)
            .with_shards(shards)
            .with_cross_shard_ratio(ratio);
        let map = spec.shard_map();
        let mut gen = WorkloadGen::new(&spec, seed);
        let total = 600u32;
        let mut cross = 0u32;
        for _ in 0..total {
            let txn = gen.next_txn();
            let touched = map.shards_of(&txn);
            prop_assert!(!touched.is_empty() && touched.len() <= 2,
                "transaction touches {} shards", touched.len());
            if touched.len() > 1 {
                cross += 1;
            }
        }
        let observed = f64::from(cross) / f64::from(total);
        // Binomial tolerance: ~4.5 sigma at n=600 plus a small floor.
        let tol = 4.5 * (ratio * (1.0 - ratio) / f64::from(total)).sqrt() + 0.01;
        prop_assert!((observed - ratio).abs() <= tol,
            "cross-shard fraction {} vs requested {} (tol {})", observed, ratio, tol);
    }

    /// Paired outages round-trip: a plan built purely from `outage_at`
    /// always validates, fully heals, and `outages()` recovers exactly
    /// the scheduled (node, crash time, downtime) triples — whatever the
    /// order, spacing, or per-node overlap the generator produces.
    #[test]
    fn paired_outages_round_trip_through_the_distribution(
        raw in proptest::collection::vec((0u64..=40_000, 0u32..=4, 1u64..=10_000), 0..6),
    ) {
        // Serialise overlapping same-node outages: each node's next crash
        // starts strictly after its previous recovery.
        let mut next_free = [0u64; 5];
        let mut scheduled: Vec<(NodeId, SimTime, SimDuration)> = Vec::new();
        let mut plan = FaultPlan::new();
        let mut raw = raw;
        raw.sort();
        for (at, node, down) in raw {
            let start = at.max(next_free[node as usize]);
            next_free[node as usize] = start + down + 1;
            let (n, t, d) = (
                NodeId::new(node),
                SimTime::from_ticks(start),
                SimDuration::from_ticks(down),
            );
            plan = plan.outage_at(t, n, d);
            scheduled.push((n, t, d));
        }
        let deadline = SimTime::from_ticks(200_000);
        prop_assert!(plan.validate(5, deadline).is_ok());
        prop_assert!(plan.fully_healed());
        let mut expected: Vec<(NodeId, SimTime, Option<SimDuration>)> =
            scheduled.into_iter().map(|(n, t, d)| (n, t, Some(d))).collect();
        expected.sort_by_key(|&(n, t, _)| (t, n));
        prop_assert_eq!(plan.outages(), expected);
    }
}
