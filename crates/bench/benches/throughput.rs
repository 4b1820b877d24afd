//! P2 — closed-loop throughput per technique vs client count.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::sweep::default_threads;
use repl_bench::throughput;
use repl_core::{run, Technique};

fn bench(c: &mut Criterion) {
    println!("{}", throughput(&[1, 2, 4, 8]).render(default_threads()));
    let mut g = c.benchmark_group("throughput");
    g.sample_size(10);
    for cell in throughput(&[2, 8]).sweep_cells() {
        let cfg = cell.cfg;
        if matches!(
            cfg.technique,
            Technique::Active | Technique::EagerUpdateEverywhereAbcast
        ) {
            g.bench_function(format!("{}/c{}", cfg.technique, cfg.clients), |b| {
                b.iter(|| std::hint::black_box(run(&cfg)).throughput())
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
