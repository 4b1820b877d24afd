//! P6 — the eager/lazy trade-off: latency against staleness.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::eager_vs_lazy;
use repl_bench::sweep::default_threads;
use repl_core::run;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        eager_vs_lazy(&[1_000, 10_000, 50_000]).render(default_threads())
    );
    let mut g = c.benchmark_group("eager_vs_lazy");
    g.sample_size(10);
    // Both eager techniques, and both lazy ones at a 10 000-tick window.
    for cell in eager_vs_lazy(&[10_000]).sweep_cells() {
        g.bench_function(cell.label, |b| {
            b.iter(|| std::hint::black_box(run(&cell.cfg)).ops_completed)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
