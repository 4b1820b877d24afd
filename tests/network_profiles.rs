//! The protocols under different network assumptions: WAN latencies and
//! message loss. Correctness must be latency-independent; the latency
//! *ratios* between techniques must keep their LAN shapes.

use replication::core::protocols::common::AbcastImpl;
use replication::core::protocols::lazy_ue::ReconcileMode;
use replication::sim::{NetworkConfig, SimDuration};
use replication::{run, RunConfig, Technique, WorkloadSpec};

fn updates(n: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(64)
        .with_read_ratio(0.0)
        .with_txns_per_client(n)
}

#[test]
fn wan_preserves_correctness_for_every_technique() {
    for technique in Technique::ALL {
        let cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(2)
            .with_seed(601)
            .with_network(NetworkConfig::wan())
            .with_trace(false)
            .with_workload(updates(6));
        let report = run(&cfg);
        assert_eq!(report.ops_unanswered, 0, "{technique} under WAN");
        assert!(report.converged(), "{technique} diverged under WAN");
    }
}

#[test]
fn wan_amplifies_the_eager_lazy_gap() {
    // On a WAN, every coordination round costs ~5000t, so the one-round
    // advantage of lazy replication becomes a large absolute gap.
    let lat = |technique| {
        run(&RunConfig::new(technique)
            .with_servers(3)
            .with_clients(2)
            .with_seed(607)
            .with_network(NetworkConfig::wan())
            .with_trace(false)
            .with_workload(updates(8)))
        .latencies
        .mean()
        .ticks()
    };
    let lazy = lat(Technique::LazyUpdateEverywhere);
    let locking = lat(Technique::EagerUpdateEverywhereLocking);
    assert!(
        locking > 2 * lazy,
        "WAN should widen the gap: lazy={lazy}t locking={locking}t"
    );
}

#[test]
fn the_default_retry_timer_waits_out_a_wan() {
    // No fault, no loss: every operation is answered, only later on a
    // WAN. The default retry timeout is tuned to the network, so no
    // client re-submits an operation whose reply is on its way.
    for technique in Technique::ALL {
        let cfg = RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(1)
            .with_network(NetworkConfig::wan())
            .with_trace(false)
            .with_workload(updates(10));
        let report = run(&cfg);
        assert_eq!(report.ops_unanswered, 0, "{technique}");
        assert_eq!(
            report.client_retries, 0,
            "{technique} re-submitted on a WAN"
        );
    }
    // A LAN keeps the 25,000 ticks every recorded figure was taken with.
    let lan = RunConfig::new(Technique::Active);
    assert_eq!(lan.retry_after(), SimDuration::from_ticks(25_000));
    let set = lan.with_retry_after(SimDuration::from_ticks(7));
    assert_eq!(
        set.with_network(NetworkConfig::wan()).retry_after().ticks(),
        7
    );
}

#[test]
fn a_wan_costs_time_not_messages() {
    // Every timeout that paces background traffic — heartbeats, sequencer
    // retransmissions — is tuned to the run's network, so a WAN stretches
    // rounds without multiplying them. The client retry timer is set
    // beyond any WAN round so that re-submissions are not counted.
    let cells = Technique::ALL
        .into_iter()
        .map(|t| (t, ReconcileMode::Lww))
        .chain([(Technique::LazyUpdateEverywhere, ReconcileMode::AbcastOrder)]);
    let coord = |technique, reconcile, network| {
        let report = run(&RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(1)
            .with_reconcile(reconcile)
            .with_retry_after(SimDuration::from_ticks(400_000))
            .with_network(network)
            .with_trace(false)
            .with_workload(updates(10)));
        assert_eq!(report.ops_unanswered, 0, "{technique} ({reconcile:?})");
        report.coordination_messages_per_op()
    };
    for (technique, reconcile) in cells {
        let lan = coord(technique, reconcile, NetworkConfig::lan());
        let wan = coord(technique, reconcile, NetworkConfig::wan());
        assert!(
            wan <= 1.5 * lan,
            "{technique} ({reconcile:?}): {wan:.2} coordination messages per op on a WAN, \
             {lan:.2} on a LAN"
        );
    }
}

#[test]
fn message_loss_is_survivable_where_retransmission_exists() {
    // The sequencer ABCAST retransmits; client retries cover the rest.
    // 10% loss must not prevent completion nor break the total order.
    let cfg = RunConfig::new(Technique::EagerUpdateEverywhereAbcast)
        .with_servers(3)
        .with_clients(2)
        .with_seed(613)
        .with_abcast(AbcastImpl::Sequencer)
        .with_network(NetworkConfig::lan().with_drop_prob(0.10))
        .with_trace(false)
        .with_workload(updates(6));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "loss not recovered");
    report
        .check_one_copy_serializable()
        .expect("loss must not corrupt the order");
}

#[test]
fn consensus_abcast_tolerates_loss_too() {
    let cfg = RunConfig::new(Technique::Active)
        .with_servers(3)
        .with_clients(1)
        .with_seed(617)
        .with_abcast(AbcastImpl::Consensus)
        .with_network(NetworkConfig::lan().with_drop_prob(0.05))
        .with_trace(false)
        .with_workload(updates(5));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "consensus stalled under loss");
    // All replicas that received everything agree.
    assert!(report.converged() || report.fingerprints.len() > 1);
}

#[test]
fn a_fault_free_run_raises_no_suspicion_on_a_lan_or_a_wan() {
    // Protocol traffic stands in for heartbeats over a busy link; the
    // think time leaves links idle for whole intervals, so beats are
    // skipped in some intervals and sent in others.
    let detectors = [
        Technique::Passive,
        Technique::SemiActive,
        Technique::SemiPassive,
        Technique::EagerPrimary,
    ];
    for technique in detectors {
        for n in [3, 5] {
            for (profile, net) in [("LAN", NetworkConfig::lan()), ("WAN", NetworkConfig::wan())] {
                let think = SimDuration::from_ticks(net.base_latency.ticks() * 3);
                for seed in 0..4 {
                    let cfg = RunConfig::new(technique)
                        .with_servers(n)
                        .with_clients(2)
                        .with_seed(seed)
                        .with_network(net.clone())
                        .with_trace(false)
                        .with_workload(updates(10).with_think_time(think));
                    let report = run(&cfg);
                    let at = format!("{technique}, n = {n}, {profile}, seed {seed}");
                    assert_eq!(report.ops_unanswered, 0, "{at}");
                    assert_eq!(report.suspicions, 0, "{at}: a false suspicion");
                    // No member was excluded and readmitted: a VSCAST
                    // host kept its first view.
                    assert!(report.availability.recoveries.is_empty(), "{at}");
                    assert!(report.messages.background_messages > 0, "{at}");
                }
            }
        }
    }
}
