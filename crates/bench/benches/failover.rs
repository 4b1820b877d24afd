//! P5 — failover cost per fault-tolerance strategy.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::sweep::{default_threads, run_sweep, SweepCell};
use repl_bench::{availability, failover};
use repl_core::Technique;

fn bench(c: &mut Criterion) {
    let threads = default_threads();
    let study = failover();
    println!("{}", study.render(threads));
    println!("{}", availability().render(threads));
    // The crashed run (not its fault-free baseline) of three rows.
    let cells: Vec<SweepCell> = study
        .rows
        .iter()
        .map(|row| SweepCell::new(format!("{}/crash", row.label), row.runs[0].clone()))
        .filter(|cell| {
            matches!(
                cell.cfg.technique,
                Technique::Active | Technique::Passive | Technique::EagerPrimary
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
