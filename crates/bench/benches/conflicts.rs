//! P4 — conflict behaviour (aborts, wounds, reconciliations) vs skew.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::conflicts;
use repl_bench::sweep::default_threads;
use repl_core::run;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        conflicts(&[0.0, 0.5, 1.0, 1.5]).render(default_threads())
    );
    let mut g = c.benchmark_group("conflicts");
    g.sample_size(10);
    // The certification and locking runs of the zipf-1.0 row.
    for cell in conflicts(&[1.0]).sweep_cells().into_iter().take(2) {
        let cfg = cell.cfg;
        g.bench_function(format!("{}/zipf1.0", cfg.technique), |b| {
            b.iter(|| std::hint::black_box(run(&cfg)).ops_completed)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
