//! The healed-partition grid: a replica cut off from its group while
//! alive must, once the cut heals, end the run in its group's state.
//!
//! Shape: n ∈ {3, 5} servers; node n − 1 cut off at tick 5,000 for 500,
//! 2,000 or 12,000 ticks; 3 clients × 10 update-only transactions over 64
//! items with a 2,000-tick think time, so traffic flows before, during
//! and after the cut. Every cell must answer every operation and end with
//! every replica's fingerprint equal ([`RunReport::converged`]), the cut
//! replica's included — after the grace drain, when nothing more moves.
//!
//! The replica learns it fell behind where the evidence is, and rejoins by
//! the one recovery path (`Shell::fell_behind`): a VSCAST member on its
//! exclusion or on a stream hole no view change filled, an ordered-stream
//! member on a sequencer hole that outlived a retransmit period.
//!
//! Seeds 0–2 run in every build; seeds 3–9 only in release builds (CI
//! runs them in its release step). Cells still red are `#[ignore]`d
//! tests below, each asserting green on one seed and naming its cause.

use repl_core::{run, Propagation, RunConfig, RunReport, Technique};
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, WorkloadSpec};

const CUTS: [u64; 3] = [500, 2_000, 12_000];

/// One cell: node `n − 1` cut off at tick 5,000 for `cut` ticks.
fn grid_cfg(technique: Technique, n: u32, cut: u64, seed: u64, think: u64) -> RunConfig {
    let victim = NodeId::new(n - 1);
    let rest: Vec<NodeId> = (0..n - 1).map(NodeId::new).collect();
    let plan = FaultPlan::new()
        .partition_at(SimTime::from_ticks(5_000), vec![rest, vec![victim]])
        .heal_at(SimTime::from_ticks(5_000 + cut));
    let mut cfg = RunConfig::new(technique)
        .with_servers(n)
        .with_clients(3)
        .with_seed(seed)
        .with_trace(false)
        .with_workload(
            WorkloadSpec::default()
                .with_items(64)
                .with_read_ratio(0.0)
                .with_txns_per_client(10)
                .with_think_time(SimDuration::from_ticks(think)),
        )
        .with_faults(plan);
    if technique.info().propagation == Propagation::Lazy {
        cfg = cfg.with_propagation_delay(SimDuration::from_ticks(2_000));
    }
    cfg
}

fn assert_healed(report: &RunReport, cell: &str) {
    assert_eq!(report.ops_unanswered, 0, "{cell}: operations unanswered");
    assert!(
        report.converged(),
        "{cell}: the cut replica stayed behind: {:x?}",
        report.fingerprints
    );
}

/// Techniques whose every cell heals.
const GREEN: [Technique; 7] = [
    Technique::Active,
    Technique::Passive,
    Technique::SemiActive,
    Technique::EagerUpdateEverywhereLocking,
    Technique::EagerUpdateEverywhereAbcast,
    Technique::LazyPrimary,
    Technique::Certification,
];

fn grid(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        for n in [3, 5] {
            for cut in CUTS {
                for technique in GREEN {
                    let report = run(&grid_cfg(technique, n, cut, seed, 2_000));
                    assert_healed(&report, &format!("{technique} n={n} cut={cut} seed={seed}"));
                }
                // Semi-Passive heals every cell but one (pinned below).
                if (n, cut) != (5, 12_000) {
                    let report = run(&grid_cfg(Technique::SemiPassive, n, cut, seed, 2_000));
                    assert_healed(
                        &report,
                        &format!("Semi-Passive n={n} cut={cut} seed={seed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn every_healed_partition_converges_on_seeds_0_to_2() {
    grid(0..3);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "seeds 3-9 run in release builds")]
fn every_healed_partition_converges_on_seeds_3_to_9() {
    grid(3..10);
}

#[test]
#[ignore = "known red: a Semi-Passive member cut off while instances decide stays behind"]
fn semi_passive_catches_up_after_a_long_cut() {
    // 10/10 seeds at n = 5 with a 12,000-tick cut (and, at zero think
    // time, with a 2,000-tick one). The cut member's `decided` holds the
    // later instances behind the first one it missed; it has no pending
    // operation, so it never engages that instance, and only a late
    // message about a decided instance draws its decision. No exclusion
    // exists to make it rejoin.
    let report = run(&grid_cfg(Technique::SemiPassive, 5, 12_000, 0, 2_000));
    assert_healed(&report, "Semi-Passive n=5 cut=12000 seed=0");
}

#[test]
#[ignore = "known red: Lazy Update Everywhere cannot see the propagation it missed"]
fn lazy_update_everywhere_converges_after_a_cut() {
    // 9-10/10 seeds from 2,000-tick cuts on, at n = 3 and 5. Its
    // last-writer-wins `Propagate` carries no per-origin sequence, so no
    // receiver can tell it missed one; adding one costs 8 B per message.
    let report = run(&grid_cfg(
        Technique::LazyUpdateEverywhere,
        3,
        2_000,
        0,
        2_000,
    ));
    assert_healed(&report, "Lazy Update Everywhere n=3 cut=2000 seed=0");
}

#[test]
#[ignore = "known red: Eager Primary Copy wedges after a cut shorter than its suspicion window"]
fn eager_primary_answers_everything_after_a_short_cut() {
    // Every seed 0-9 at n = 3 and 5 ends with 3 operations unanswered.
    // The cut (≤ 1,000 ticks) is shorter than the detector's 3 × 500-tick
    // window, so the cohort never shrinks, and nothing resends the
    // Prepare or Propagate the cut dropped: the transaction holds its
    // locks, waiting for a vote that never comes.
    let report = run(&grid_cfg(Technique::EagerPrimary, 3, 500, 0, 2_000));
    assert_healed(&report, "Eager Primary Copy n=3 cut=500 seed=0");
}

#[test]
#[ignore = "known red: Eager Primary Copy splits its brain under a partition"]
fn eager_primary_converges_after_a_long_cut() {
    // 9-10/10 seeds at cuts of 2,000 and 12,000 ticks: the cut backup
    // suspects every lower rank, promotes itself and commits what clients
    // send it, and nothing reconciles the two sides after the heal. Out
    // of the fail-stop model Eager Primary Copy assumes (paper §4.3.2).
    let report = run(&grid_cfg(Technique::EagerPrimary, 3, 2_000, 0, 2_000));
    assert_healed(&report, "Eager Primary Copy n=3 cut=2000 seed=0");
}
