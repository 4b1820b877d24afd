//! P5 — failover cost per fault-tolerance strategy.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::sweep::{default_threads, run_sweep, SweepCell};
use repl_bench::{availability_table, failover_table, render, update_workload};
use repl_core::protocols::common::AbcastImpl;
use repl_core::{RunConfig, Technique};
use repl_sim::{NodeId, SimTime};
use repl_workload::FaultPlan;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render(
            "P5 — failover: rank-0 server crashes mid-run (5 replicas)",
            &failover_table()
        )
    );
    println!(
        "{}",
        render(
            "P5b — availability under a primary crash (failover latency, unavailability windows)",
            &availability_table()
        )
    );
    let crash = FaultPlan::new().crash_at(SimTime::from_ticks(12_000), NodeId::new(0));
    let cells: Vec<SweepCell> = [
        Technique::Active,
        Technique::Passive,
        Technique::EagerPrimary,
    ]
    .into_iter()
    .map(|technique| {
        SweepCell::new(
            format!("{technique}/crash"),
            RunConfig::new(technique)
                .with_servers(5)
                .with_clients(2)
                .with_seed(113)
                .with_trace(false)
                .with_abcast(AbcastImpl::Consensus)
                .with_faults(crash.clone())
                .with_workload(update_workload(10)),
        )
    })
    .collect();

    let mut g = c.benchmark_group("failover");
    g.sample_size(10);
    // Per-technique cost, each through the sweep engine's serial path.
    for cell in &cells {
        let one = std::slice::from_ref(cell);
        g.bench_function(cell.label.clone(), |b| {
            b.iter(|| {
                std::hint::black_box(run_sweep(one, 1))
                    .pop()
                    .expect("one result")
                    .expect_report()
                    .ops_completed
            })
        });
    }
    // The whole crash matrix fanned across available cores.
    let threads = default_threads();
    g.bench_function(format!("sweep3/threads={threads}"), |b| {
        b.iter(|| {
            std::hint::black_box(run_sweep(&cells, threads))
                .into_iter()
                .map(|r| r.expect_report().ops_completed)
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
