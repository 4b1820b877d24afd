//! Partition behaviour of the view-synchronous group: the primary
//! partition keeps going, the minority halts — the assumption the paper's
//! passive replication inherits from its group-communication substrate.

use repl_gcs::testkit::ComponentActor;
use repl_gcs::{ViewGroup, VsConfig, VsEvent};
use repl_sim::{NetFault, NodeId, SimConfig, SimDuration, SimTime, World};

type Host = ComponentActor<ViewGroup<u32>>;

fn views_installed(world: &World<repl_gcs::VsMsg<u32>>, n: NodeId) -> Vec<Vec<NodeId>> {
    world
        .actor_ref::<Host>(n)
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            VsEvent::ViewInstalled(v) => Some(v.members.clone()),
            _ => None,
        })
        .collect()
}

/// Partition {0,1,2} | {3,4}.
fn split(group: &[NodeId]) -> NetFault {
    NetFault::Partition(vec![group[..3].to_vec(), group[3..].to_vec()])
}

#[test]
fn majority_side_installs_a_view_excluding_the_minority() {
    let group: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    let mut world: World<repl_gcs::VsMsg<u32>> = World::new(SimConfig::new(5));
    for i in 0..5u32 {
        world.add_actor(Box::new(ComponentActor::new(ViewGroup::<u32>::new(
            NodeId::new(i),
            group.clone(),
            VsConfig::default(),
        ))));
    }
    world.start();
    world.run_until(SimTime::from_ticks(1_000));
    world.schedule_net_fault(world.now(), split(&group));
    world.run_until(SimTime::from_ticks(120_000));
    // Majority members agree on the 3-member view.
    for &n in &group[..3] {
        let views = views_installed(&world, n);
        let last = views
            .last()
            .unwrap_or_else(|| panic!("{n} installed nothing"));
        assert_eq!(last, &group[..3].to_vec(), "at {n}: {views:?}");
    }
    // Minority members never install a view without the majority: they
    // cannot win consensus (primary-partition assumption). They are
    // either stuck in view 0 or excluded — but never in a minority view.
    for &n in &group[3..] {
        for v in views_installed(&world, n) {
            assert!(
                v.len() * 2 > group.len(),
                "minority member {n} installed a minority view {v:?}"
            );
        }
    }
}

#[test]
fn broadcasts_continue_in_the_primary_partition() {
    let group: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    let mut world: World<repl_gcs::VsMsg<u32>> = World::new(SimConfig::new(9));
    for i in 0..5u32 {
        let mut actor = ComponentActor::new(ViewGroup::<u32>::new(
            NodeId::new(i),
            group.clone(),
            VsConfig::default(),
        ));
        if i == 1 {
            // A broadcast well after the partition has settled.
            actor = actor.with_step(SimDuration::from_ticks(100_000), |vg, out| {
                vg.broadcast(77, out);
            });
        }
        world.add_actor(Box::new(actor));
    }
    world.start();
    world.run_until(SimTime::from_ticks(1_000));
    world.schedule_net_fault(world.now(), split(&group));
    world.run_until(SimTime::from_ticks(300_000));
    for &n in &group[..3] {
        let delivered: Vec<u32> = world
            .actor_ref::<Host>(n)
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                VsEvent::Deliver { payload, .. } => Some(*payload),
                _ => None,
            })
            .collect();
        assert!(
            delivered.contains(&77),
            "majority member {n} missed the post-partition broadcast: {delivered:?}"
        );
    }
}
