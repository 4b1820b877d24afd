//! Serial-vs-parallel determinism: the sweep engine must be a pure
//! scheduler.
//!
//! Every replication technique is run at two seeds, once on the serial
//! reference path (`threads = 1`) and once fanned across worker
//! threads. For every cell the two sweeps must produce *identical*
//! reports — compared by the full [`RunReport::digest`] (latency
//! samples, message counters, per-op records, availability) and by the
//! event-level trace hash. Any cross-run state leak (a shared RNG, a
//! global, unordered iteration feeding event order) shows up here as a
//! digest mismatch naming the exact technique/seed cell.

use repl_bench::sweep::{run_sweep, SweepCell};
use repl_bench::{update_workload, Study};
use repl_core::{RunConfig, Technique};

/// The first run of every row of `study` — the disturbed run where rows
/// pair one with baselines — with tracing switched on.
fn traced_cells(study: &Study) -> Vec<SweepCell> {
    study
        .rows
        .iter()
        .map(|row| SweepCell::new(row.label.clone(), row.runs[0].clone().with_trace(true)))
        .collect()
}

fn study_cells() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for technique in Technique::ALL {
        for seed in [11u64, 8_675_309] {
            cells.push(SweepCell::new(
                format!("{}/seed={seed}", technique.name()),
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(2)
                    .with_seed(seed)
                    .with_trace(true)
                    .with_workload(update_workload(6)),
            ));
        }
    }
    cells
}

#[test]
fn serial_and_parallel_sweeps_agree_exactly() {
    let cells = study_cells();
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 4);
    assert_eq!(serial.len(), cells.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "sweep results out of order");
        let sr = s
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("serial cell `{}` failed: {e}", s.label));
        let pr = p
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("parallel cell `{}` failed: {e}", p.label));
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(
            sr.trace_hash, pr.trace_hash,
            "event trace diverged between serial and parallel for `{}`",
            s.label
        );
        assert_eq!(
            sr.digest(),
            pr.digest(),
            "report digest diverged between serial and parallel for `{}`",
            s.label
        );
    }
}

#[test]
fn sweep_smoke_two_techniques_two_seeds() {
    // The cheap CI gate: a 2×2 matrix through the parallel path must
    // succeed and agree with the serial reference.
    let mut cells = Vec::new();
    for technique in [Technique::Active, Technique::EagerPrimary] {
        for seed in [1u64, 2] {
            cells.push(SweepCell::new(
                format!("{}/seed={seed}", technique.name()),
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(2)
                    .with_seed(seed)
                    .with_trace(true)
                    .with_workload(update_workload(4)),
            ));
        }
    }
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 2);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
    }
}

#[test]
fn batching_cells_are_deterministic() {
    // Batching adds flush timers and staged state to the hot path; none
    // of it may leak across cells or threads. Every ABCAST technique ×
    // implementation × window must agree digest-for-digest and
    // trace-for-trace between the serial reference and a parallel sweep.
    let cells = traced_cells(&repl_bench::batching(&[2], &[250, 1_000]));
    assert!(!cells.is_empty());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn recovery_cells_are_deterministic() {
    // Crash→recover plans exercise rejoin, state transfer and the MTTR
    // accounting; none of it may depend on sweep scheduling. Every
    // technique under a paired outage must agree digest-for-digest and
    // trace-for-trace between the serial reference and a parallel
    // sweep — and must actually have recovered, or the cell is vacuous.
    let cells = traced_cells(&repl_bench::recovery(&[15_000], &[1.0]));
    assert_eq!(cells.len(), Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(
            sr.availability.mttr_ticks().is_some(),
            "cell `{}` never completed its recovery",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn disaster_cells_are_deterministic() {
    // Volume-loss plans exercise the durable tier end to end: sealing,
    // asynchronous uploads, the wipe, the tier restore and the loss
    // accounting. None of it may depend on sweep scheduling. Every
    // technique under the P12 disaster must agree digest-for-digest and
    // trace-for-trace between the serial reference and a parallel
    // sweep — and must actually have restored, or the cell is vacuous.
    let cells = traced_cells(&repl_bench::disaster(&[2_000]));
    assert_eq!(cells.len(), Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(
            sr.durability.restores > 0,
            "cell `{}` never restored from the durable tier",
            s.label
        );
        assert!(
            sr.check_no_silent_loss().is_ok(),
            "cell `{}` silently lost acknowledged commits",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn elasticity_cells_are_deterministic() {
    // Membership plans exercise dormant-actor spawn, the online-join
    // protocol (view change + state transfer), drain handoff and client
    // rerouting; none of it may depend on sweep scheduling. Every
    // technique under the P15 3→7→3 cycle must agree digest-for-digest
    // and trace-for-trace between the serial reference and a parallel
    // sweep — and every joiner must actually have joined, or the cell
    // is vacuous.
    use repl_bench::joiner_accounting;
    let cells = traced_cells(&repl_bench::elasticity());
    assert_eq!(cells.len(), Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        let (join_mean, _, joined) = joiner_accounting(sr);
        assert_eq!(joined, 4, "cell `{}`: not every joiner joined", s.label);
        assert!(
            join_mean.is_some(),
            "cell `{}` has no join time despite completed joins",
            s.label
        );
        assert!(
            sr.check_no_silent_loss().is_ok(),
            "cell `{}` silently lost acknowledged updates across a drain",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn open_loop_cells_are_deterministic() {
    // The aggregated open-loop engine replaces per-client actors with
    // per-group arrival streams, streams latencies into a histogram, and
    // runs servers lean; none of it may depend on sweep scheduling.
    // Every technique at a small population must agree
    // digest-for-digest between the serial reference and a parallel
    // sweep, and the digest must cover the histogram (cells with equal
    // counters but different latency distributions must not collide).
    use repl_core::Arrival;
    use repl_workload::ArrivalDist;
    let cells: Vec<SweepCell> = Technique::ALL
        .iter()
        .flat_map(|&technique| {
            [ArrivalDist::Poisson, ArrivalDist::Uniform].map(|dist| {
                SweepCell::new(
                    format!("{}/agg/{dist:?}", technique.name()),
                    RunConfig::new(technique)
                        .with_servers(3)
                        .with_clients(6)
                        .with_seed(23)
                        .with_trace(false)
                        .with_arrival(Arrival::OpenAggregated { mean: 2_000, dist })
                        .with_workload(update_workload(4)),
                )
            })
        })
        .collect();
    assert_eq!(cells.len(), 2 * Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        let hist = sr
            .latency_hist
            .as_ref()
            .unwrap_or_else(|| panic!("cell `{}` has no streaming histogram", s.label));
        assert_eq!(
            hist.count(),
            sr.ops_completed,
            "cell `{}` histogram lost samples",
            s.label
        );
        assert!(
            sr.records.is_empty(),
            "cell `{}` kept per-op records on the aggregated path",
            s.label
        );
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
    }
    // The two arrival shapes share every config knob except the gap
    // distribution; their digests must differ through the histogram.
    for pair in serial.chunks(2) {
        let (a, b) = (
            pair[0].result.as_ref().unwrap(),
            pair[1].result.as_ref().unwrap(),
        );
        assert_ne!(
            a.digest(),
            b.digest(),
            "Poisson and Uniform arrivals produced identical digests for `{}`",
            pair[0].label
        );
    }
}

#[test]
fn sharded_cells_are_deterministic() {
    // Partial replication splits the keyspace across replica groups that
    // run interleaved in one world: per-group protocol instances, the
    // shard router in the clients, and (at ratio > 0) the cross-shard
    // commit paths — 2PC for the locking technique, genuine atomic
    // multicast for ABCAST. None of it may depend on sweep scheduling.
    // Two techniques × S ∈ {1, 4}, plus cross-shard cells at S=4, must
    // agree digest-for-digest and trace-for-trace between the serial
    // reference and a parallel sweep.
    use repl_bench::sharding_cfg;
    let mut cells = Vec::new();
    for technique in [Technique::Active, Technique::EagerUpdateEverywhereLocking] {
        for shards in [1u32, 4] {
            cells.push(SweepCell::new(
                format!("{}/S={shards}/x=0%", technique.name()),
                sharding_cfg(technique, shards, 0.0).with_trace(true),
            ));
        }
        cells.push(SweepCell::new(
            format!("{}/S=4/x=20%", technique.name()),
            sharding_cfg(technique, 4, 0.20).with_trace(true),
        ));
    }
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        if s.label.ends_with("x=20%") {
            assert!(
                sr.sharding.cross_shard_ops > 0,
                "cell `{}` routed no cross-shard transactions",
                s.label
            );
        }
        assert!(
            sr.check_one_copy_serializable().is_ok(),
            "cell `{}` violated one-copy serializability",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn thread_count_is_not_observable() {
    // Different worker counts (and therefore different cell-to-thread
    // assignments) must still agree cell-for-cell.
    let cells: Vec<SweepCell> = study_cells().into_iter().take(8).collect();
    let a = run_sweep(&cells, 2);
    let b = run_sweep(&cells, 5);
    for (x, y) in a.iter().zip(&b) {
        let (xr, yr) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
        assert_eq!(xr.digest(), yr.digest(), "cell `{}` diverged", x.label);
        assert_eq!(xr.trace_hash, yr.trace_hash, "cell `{}` diverged", x.label);
    }
}
