//! Elastic membership: online joins of brand-new sites and graceful
//! decommissions, uniformly for all ten techniques.
//!
//! The scenarios mirror `tests/recovery.rs` in shape — update-only load
//! flowing the whole time, one uniform configuration, the same
//! assertions for every technique:
//!
//! * **Liveness** — traffic keeps flowing across every membership
//!   change; no client is left unanswered.
//! * **Join accounting** — a cold joiner (no prior state) completes the
//!   online join: the report carries its catch-up (join time) and the
//!   state it pulled over the wire (transfer bytes).
//! * **Safety** — no acked update is silently lost across a drain, the
//!   strong techniques stay one-copy serializable, and at quiescence
//!   every undrained replica carries the same fingerprint.
//! * **Byte-identity** — an empty membership plan changes nothing: the
//!   run digest and trace hash match a plan-free configuration exactly.

use repl_core::protocols::common::ExecutionMode;
use repl_core::{run, Guarantee, Propagation, RunConfig, Technique};
use repl_sim::{NetworkConfig, NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, MembershipPlan, WorkloadSpec};

const SERVERS: u32 = 3;
const CLIENTS: u32 = 4;

/// The uniform elastic scenario: update-only load, a tight retry
/// timeout so reroutes are picked up promptly, and the given membership
/// plan.
fn elastic_cfg(technique: Technique, seed: u64, membership: MembershipPlan) -> RunConfig {
    let mut cfg = RunConfig::new(technique)
        .with_servers(SERVERS)
        .with_clients(CLIENTS)
        .with_seed(seed)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(64)
                .with_read_ratio(0.0)
                .with_txns_per_client(25)
                .with_think_time(SimDuration::from_ticks(3_000)),
        )
        .with_retry_after(SimDuration::from_ticks(4_000))
        .with_membership(membership);
    if technique.info().propagation == Propagation::Lazy {
        cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
    }
    cfg
}

/// A single online join: 3 → 4 replicas mid-run.
fn single_join() -> MembershipPlan {
    MembershipPlan::new().join_at(SimTime::from_ticks(6_000), NodeId::new(SERVERS))
}

/// The acceptance cycle: 3 → 7 → 3. Four cold sites join staggered
/// (each admission completes before the next starts), run at full
/// strength for a while, then all four drain back out.
fn grow_shrink_cycle() -> MembershipPlan {
    MembershipPlan::new()
        .join_at(SimTime::from_ticks(6_000), NodeId::new(SERVERS))
        .join_at(SimTime::from_ticks(12_000), NodeId::new(SERVERS + 1))
        .join_at(SimTime::from_ticks(18_000), NodeId::new(SERVERS + 2))
        .join_at(SimTime::from_ticks(24_000), NodeId::new(SERVERS + 3))
        .drain_at(SimTime::from_ticks(45_000), NodeId::new(SERVERS))
        .drain_at(SimTime::from_ticks(50_000), NodeId::new(SERVERS + 1))
        .drain_at(SimTime::from_ticks(55_000), NodeId::new(SERVERS + 2))
        .drain_at(SimTime::from_ticks(60_000), NodeId::new(SERVERS + 3))
}

fn assert_converged(technique: Technique, report: &repl_core::RunReport) {
    let fps = &report.fingerprints;
    assert!(
        fps.windows(2).all(|w| w[0] == w[1]),
        "{technique}: undrained replicas diverged: {fps:?}"
    );
}

/// A brand-new site with no prior state joins mid-run while traffic
/// keeps flowing, for every technique.
#[test]
fn every_technique_admits_a_cold_joiner_and_converges() {
    for technique in Technique::ALL {
        let cfg = elastic_cfg(technique, 31, single_join());
        let report = run(&cfg);

        assert_eq!(
            report.ops_unanswered, 0,
            "{technique}: clients left unanswered across an online join"
        );

        // Join accounting: the joiner began and completed its catch-up
        // (join time) and pulled state over the wire (transfer bytes).
        let rec = report
            .availability
            .recoveries
            .iter()
            .find(|r| r.site == SERVERS)
            .unwrap_or_else(|| panic!("{technique}: no join record for the cold site"));
        assert!(rec.recoveries >= 1, "{technique}: join not counted");
        assert!(
            rec.catch_up_ticks.is_some(),
            "{technique}: joiner never finished its state transfer"
        );
        assert!(
            rec.transfer_bytes > 0,
            "{technique}: cold joiner was welcomed without receiving any state"
        );

        // Convergence: the joiner ends bit-identical to the incumbents.
        assert_eq!(
            report.fingerprints.len(),
            SERVERS as usize + 1,
            "{technique}: joiner missing from the fingerprint set"
        );
        assert_converged(technique, &report);
    }
}

/// The acceptance scenario: every technique scales 3 → 7 → 3 mid-run —
/// four cold joins, four graceful drains — without losing an acked
/// update or leaving a client unanswered.
#[test]
fn every_technique_survives_a_grow_shrink_cycle() {
    for technique in Technique::ALL {
        let cfg = elastic_cfg(technique, 37, grow_shrink_cycle());
        let report = run(&cfg);

        assert_eq!(
            report.ops_unanswered, 0,
            "{technique}: clients left unanswered across the 3→7→3 cycle"
        );
        report
            .check_no_silent_loss()
            .unwrap_or_else(|l| panic!("{technique}: acked updates lost across a drain: {l:?}"));
        if technique.info().guarantee != Guarantee::Weak {
            report
                .check_one_copy_serializable()
                .unwrap_or_else(|e| panic!("{technique}: 1SR violated across the cycle: {e}"));
        }

        // All four joiners completed their transfers.
        for site in SERVERS..SERVERS + 4 {
            let rec = report
                .availability
                .recoveries
                .iter()
                .find(|r| r.site == site)
                .unwrap_or_else(|| panic!("{technique}: no join record for site {site}"));
            assert!(
                rec.catch_up_ticks.is_some(),
                "{technique}: joiner {site} never completed its join"
            );
        }

        // Drained stores are excluded from the fingerprint set (they
        // froze at retirement); the survivors must agree.
        assert_eq!(
            report.fingerprints.len(),
            SERVERS as usize,
            "{technique}: fingerprint set should be the 3 undrained replicas"
        );
        assert_converged(technique, &report);
    }
}

/// The donor-cut floor. Updates flow with no think time while a cold
/// site joins over 300-tick links: the join's round trips outlast a
/// heartbeat round, so the updates its donor delivers after cutting the
/// snapshot become stable (every incumbent has delivered them) before
/// the join view installs, and the keyspace is wide enough that no later
/// update overwrites one the joiner missed. The donor forgets nothing
/// more until that view, whose flush therefore still ships them, and the
/// joiner converges: under Passive (updates over VSCAST) and under
/// Semi-Active with non-deterministic execution (leader choices over
/// VSCAST).
#[test]
fn a_joiner_gets_what_became_stable_after_its_donor_cut() {
    let slow = NetworkConfig::lan().with_base_latency(SimDuration::from_ticks(300));
    for (technique, exec) in [
        (Technique::Passive, ExecutionMode::Deterministic),
        (Technique::SemiActive, ExecutionMode::NonDeterministic),
    ] {
        for seed in 0..8 {
            let cfg = elastic_cfg(technique, seed, single_join())
                .with_exec(exec)
                .with_network(slow.clone())
                .with_workload(
                    WorkloadSpec::default()
                        .with_items(1 << 16)
                        .with_read_ratio(0.0)
                        .with_txns_per_client(150)
                        .with_think_time(SimDuration::ZERO),
                );
            let report = run(&cfg);
            assert_eq!(
                report.ops_unanswered, 0,
                "{technique}, seed {seed}: clients left unanswered"
            );
            assert_eq!(
                report.fingerprints.len(),
                SERVERS as usize + 1,
                "{technique}, seed {seed}: joiner missing from the fingerprint set"
            );
            assert_converged(technique, &report);
        }
    }
}

/// The decommission regression: clients of the primary-copy techniques
/// pin every request to the primary. Draining it must hand the role
/// off and bounce the pinned clients to the survivors — not leave them
/// retrying a removed node forever.
#[test]
fn clients_pinned_to_a_drained_primary_are_rerouted() {
    for &technique in &[Technique::Passive, Technique::EagerPrimary] {
        let plan = MembershipPlan::new().drain_at(SimTime::from_ticks(10_000), NodeId::new(0));
        let cfg = elastic_cfg(technique, 41, plan);
        let report = run(&cfg);
        assert_eq!(
            report.ops_unanswered, 0,
            "{technique}: clients wedged on the drained primary"
        );
        report
            .check_no_silent_loss()
            .unwrap_or_else(|l| panic!("{technique}: primary handoff lost acked updates: {l:?}"));
        assert_eq!(
            report.fingerprints.len(),
            SERVERS as usize - 1,
            "{technique}: fingerprint set should exclude the drained primary"
        );
        assert_converged(technique, &report);
    }
}

/// Membership changes compose with the nemesis: a cold join before the
/// fault window, seeded chaos (crash + partition + link spikes against
/// the initial tail) across the middle of the run, and a drain after it
/// heals. The elastic nemesis guardrail keeps the composition
/// survivable by construction.
#[test]
fn membership_changes_compose_with_nemesis_faults() {
    for &technique in &[
        Technique::Active,
        Technique::SemiPassive,
        Technique::LazyPrimary,
    ] {
        let plan = MembershipPlan::new()
            .join_at(SimTime::from_ticks(6_000), NodeId::new(SERVERS))
            .drain_at(SimTime::from_ticks(60_000), NodeId::new(SERVERS));
        let horizon = SimTime::from_ticks(100_000);
        let faults = FaultPlan::random_elastic(43, 0.4, SERVERS, horizon, &plan);
        assert!(!faults.events().is_empty());
        assert!(plan.survivable_with(&faults, SERVERS));
        let cfg = elastic_cfg(technique, 43, plan).with_faults(faults);
        let report = run(&cfg);
        assert_eq!(
            report.ops_unanswered, 0,
            "{technique}: clients unanswered under faults + membership churn"
        );
        report.check_no_silent_loss().unwrap_or_else(|l| {
            panic!("{technique}: silent loss under faults + membership churn: {l:?}")
        });
        assert_converged(technique, &report);
    }
}

/// Same seed, same plan ⇒ identical reports: the elastic paths must be
/// as deterministic as the rest of the simulator.
#[test]
fn elastic_runs_are_deterministic() {
    for &technique in &[
        Technique::Active,
        Technique::EagerUpdateEverywhereLocking,
        Technique::LazyUpdateEverywhere,
    ] {
        let cfg = elastic_cfg(technique, 47, grow_shrink_cycle());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.digest(), b.digest(), "{technique}: elastic runs diverged");
    }
}

/// The byte-identity contract: a configuration carrying an *empty*
/// membership plan is indistinguishable — digest and trace hash — from
/// one that never mentions membership at all.
#[test]
fn empty_membership_plan_is_byte_identical() {
    for &technique in &[
        Technique::Passive,
        Technique::EagerUpdateEverywhereAbcast,
        Technique::Certification,
    ] {
        let base = RunConfig::new(technique)
            .with_servers(SERVERS)
            .with_clients(CLIENTS)
            .with_seed(53)
            .with_trace(true)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(32)
                    .with_txns_per_client(10),
            );
        let plain = run(&base);
        let elastic = run(&base.clone().with_membership(MembershipPlan::new()));
        assert_eq!(
            plain.digest(),
            elastic.digest(),
            "{technique}: empty membership plan changed the run digest"
        );
        assert_eq!(
            plain.trace_hash, elastic.trace_hash,
            "{technique}: empty membership plan changed the event trace"
        );
    }
}
