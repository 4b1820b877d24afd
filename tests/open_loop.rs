//! Open-loop (Poisson) workload tests: the arrival process the
//! performance study's saturation experiment (P7) relies on.

use replication::{run, Arrival, ArrivalDist, RunConfig, Technique, WorkloadSpec};

fn updates(n: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(64)
        .with_read_ratio(0.0)
        .with_txns_per_client(n)
}

/// Poisson arrivals at a per-client mean gap of `mean` ticks.
fn poisson(mean: u64) -> Arrival {
    Arrival::OpenAggregated {
        mean,
        dist: ArrivalDist::Poisson,
    }
}

#[test]
fn open_loop_completes_at_moderate_load() {
    for technique in [Technique::Active, Technique::LazyUpdateEverywhere] {
        let report = run(&RunConfig::new(technique)
            .with_servers(3)
            .with_clients(3)
            .with_seed(401)
            .with_arrival(poisson(1_000))
            .with_workload(updates(15)));
        assert_eq!(report.ops_unanswered, 0, "{technique}");
        assert_eq!(report.ops_completed, 45, "{technique}");
        assert!(report.converged(), "{technique}");
    }
}

#[test]
fn open_loop_allows_concurrent_outstanding_operations() {
    // With a tiny inter-arrival and non-trivial latency, several ops must
    // overlap: some operation is submitted before an earlier response.
    let report = run(&RunConfig::new(Technique::Active)
        .with_servers(3)
        .with_clients(1)
        .with_seed(409)
        .with_arrival(poisson(50))
        .with_workload(updates(10)));
    assert!(
        report.peak_outstanding > 1,
        "expected pipelined operations under open loop"
    );
    assert_eq!(report.ops_unanswered, 0);
    assert_eq!(report.ops_completed, 10);
}

#[test]
fn saturation_raises_latency_for_pipeline_bound_techniques() {
    let lat = |mean: u64| {
        let report = run(&RunConfig::new(Technique::SemiPassive)
            .with_servers(3)
            .with_clients(3)
            .with_seed(419)
            .with_arrival(poisson(mean))
            .with_trace(false)
            .with_workload(updates(20)));
        let hist = report
            .latency_hist
            .expect("the open loop streams latencies");
        hist.mean().ticks()
    };
    // Semi-passive runs one consensus instance at a time, so under
    // overload a request that arrives while an instance decides waits for
    // the next one. It does not queue behind every earlier arrival: the
    // next instance decides all of them as one batch.
    let light = lat(5_000);
    let heavy = lat(100);
    assert!(
        light < heavy && heavy < 2 * light,
        "semi-passive should wait out one instance under open-loop overload, \
         not queue (light={light}, heavy={heavy})"
    );
}

#[test]
fn open_loop_determinism() {
    let go = || {
        run(&RunConfig::new(Technique::Certification)
            .with_servers(3)
            .with_clients(2)
            .with_seed(421)
            .with_arrival(poisson(500))
            .with_trace(false)
            .with_workload(updates(12)))
    };
    let a = go();
    let b = go();
    assert_eq!(a.ops_completed, b.ops_completed);
    let fingerprint = |r: &replication::RunReport| {
        let hist = r
            .latency_hist
            .as_ref()
            .expect("the open loop streams latencies");
        hist.fingerprint()
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.fingerprints, b.fingerprints);
}
