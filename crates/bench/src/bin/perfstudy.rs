//! The performance study the paper promised, in one command:
//!
//! ```sh
//! cargo run --release --bin perfstudy -- [--threads N] [--<id>-only ...]
//! ```
//!
//! Prints every registered study (`repl_bench::studies`: P1–P10, P5b,
//! P12–P16, A2–A5) in order; EXPERIMENTS.md records a reference output
//! with the paper-predicted shapes annotated, and
//! `tests/study_tables.rs` pins every table byte for byte. Tables are
//! computed through the parallel sweep engine (`repl_bench::sweep`), so
//! `--threads N` (default: the `REPL_SWEEP_THREADS` environment
//! variable, else the machine's parallelism) fans the run matrix across
//! cores without changing a single printed number — each cell is an
//! isolated, seed-keyed, single-threaded simulation.
//!
//! `--<id>-only` (`--p8-only`, `--a3-only`, …; any registered id, any
//! number of them) prints just those studies' tables.

use std::time::Instant;

use repl_bench::{studies, Study};

struct Args {
    threads: usize,
    /// Indices into the registry selected by `--<id>-only`; empty = all.
    only: Vec<usize>,
}

fn parse_args(studies: &[Study]) -> Args {
    let mut args = Args {
        threads: repl_bench::sweep::default_threads(),
        only: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let id = a.strip_prefix("--").and_then(|r| r.strip_suffix("-only"));
        let selected = id.and_then(|id| studies.iter().position(|s| s.id.eq_ignore_ascii_case(id)));
        if let Some(i) = selected {
            args.only.push(i);
            continue;
        }
        match a.as_str() {
            "--threads" => {
                args.threads = it
                    .next()
                    .unwrap_or_else(|| usage(studies, "--threads needs a value"))
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage(studies, "--threads needs a positive integer"));
            }
            "--help" | "-h" => usage(studies, ""),
            other => usage(studies, &format!("unknown argument `{other}`")),
        }
    }
    args
}

fn usage(studies: &[Study], err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let ids: Vec<String> = studies.iter().map(|s| s.id.to_lowercase()).collect();
    eprintln!(
        "usage: perfstudy [--threads N] [--<id>-only ...]   (ids: {})",
        ids.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let studies = studies();
    let Args { threads, only } = parse_args(&studies);
    let full = only.is_empty();
    if full {
        println!(
            "Performance study of the replication techniques of Wiesmann et al. \
             (ICDCS 2000)\nunits: t = virtual ticks (≈ µs at the LAN profile); \
             deterministic, seed-fixed runs\nsweep threads: {threads}\n"
        );
    }
    let total = Instant::now();
    for (i, study) in studies.iter().enumerate() {
        if full || only.contains(&i) {
            let start = Instant::now();
            let table = study.render(threads);
            println!("{table}[{:.2}s]\n", start.elapsed().as_secs_f64());
        }
    }
    if full {
        println!(
            "full study wall clock: {:.2}s ({threads} sweep threads)",
            total.elapsed().as_secs_f64()
        );
    }
}
