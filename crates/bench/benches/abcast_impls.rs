//! A2 — sequencer- vs consensus-based Atomic Broadcast.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::abcast_impls;
use repl_bench::sweep::default_threads;
use repl_core::run;

fn bench(c: &mut Criterion) {
    let study = abcast_impls();
    println!("{}", study.render(default_threads()));
    let mut g = c.benchmark_group("abcast_impls");
    g.sample_size(10);
    // Active replication over the sequencer, then over consensus.
    for cell in study.sweep_cells().into_iter().take(2) {
        g.bench_function(cell.label, |b| {
            b.iter(|| std::hint::black_box(run(&cell.cfg)).ops_completed)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
