//! P3 — messages per operation vs replication degree.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_bench::message_cost;
use repl_bench::sweep::default_threads;
use repl_core::{run, Technique};

fn bench(c: &mut Criterion) {
    println!("{}", message_cost(&[2, 4, 8, 16]).render(default_threads()));
    let mut g = c.benchmark_group("message_cost");
    g.sample_size(10);
    for cell in message_cost(&[4]).sweep_cells() {
        let cfg = cell.cfg;
        if matches!(
            cfg.technique,
            Technique::Passive
                | Technique::EagerUpdateEverywhereLocking
                | Technique::EagerUpdateEverywhereAbcast
        ) {
            g.bench_function(format!("{}/n4", cfg.technique), |b| {
                b.iter(|| std::hint::black_box(run(&cfg)).messages_per_op())
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
