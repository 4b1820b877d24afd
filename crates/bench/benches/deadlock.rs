//! A3 — wound-wait prevention vs distributed deadlock detection.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::deadlock;
use repl_bench::sweep::default_threads;
use repl_core::run;

fn bench(c: &mut Criterion) {
    println!("{}", deadlock(&[0.5, 1.0, 1.5]).render(default_threads()));
    let mut g = c.benchmark_group("deadlock");
    g.sample_size(10);
    for cell in deadlock(&[1.0]).sweep_cells() {
        g.bench_function(cell.label, |b| {
            b.iter(|| std::hint::black_box(run(&cell.cfg)).ops_completed)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
