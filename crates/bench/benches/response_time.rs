//! P1 — response time per technique vs replication degree.
//!
//! Prints the experiment table once, then benchmarks representative
//! cells of the same study.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::response_time;
use repl_bench::sweep::default_threads;
use repl_core::{run, Technique};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        response_time(&[2, 4, 8, 16]).render(default_threads())
    );
    let mut g = c.benchmark_group("response_time");
    g.sample_size(10);
    for cell in response_time(&[2, 8]).sweep_cells() {
        let cfg = cell.cfg;
        if matches!(
            cfg.technique,
            Technique::Active | Technique::Passive | Technique::LazyPrimary
        ) {
            g.bench_function(format!("{}/n{}", cfg.technique, cfg.servers), |b| {
                b.iter(|| std::hint::black_box(run(&cfg)).ops_completed)
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
