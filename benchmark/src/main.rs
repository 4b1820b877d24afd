//! `repl-benchmark --workload <name> [--seed N] [--seconds S]
//! [--trace 0|1] [--out FILE]` runs one workload and prints its
//! metrics, the last line being the result object; `repl-benchmark
//! compare A B` compares two result sets. See `README.md`.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use repl_benchmark::compare::compare;
use repl_benchmark::report::{self, Plan};
use repl_benchmark::workloads::{Scale, Workload};

const USAGE: &str = "usage: run.sh --workload <open_1m|shard16_closed|hot_closed|study_mix> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       run.sh compare <A> <B>";

/// The seed runs use unless told otherwise. Seed 977 is the held-out
/// one: never used while a change is written, run once to confirm it.
const DEFAULT_SEED: u64 = 163;
const DEFAULT_SECONDS: f64 = 15.0;

fn parse(args: &[String]) -> Result<(Plan, Option<String>), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Plan {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
        },
        out,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a)
            .and_then(|a| Ok((a, read(b)?)))
            .and_then(|(a, b)| compare(&a, &b))
        {
            Ok((table, any_worse)) => {
                print!("{table}");
                ExitCode::from(u8::from(any_worse))
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (plan, out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = report::run(plan);
    print!("{}", outcome.render());
    if plan.trace {
        // Beside the package, wherever the checkout is: the path is
        // fixed at build time and the benchmark is built in place.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{}.json", plan.workload.name()));
        if let Err(e) = report::write_trace(&outcome, &path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("  spans written to {}", path.display());
    }
    if let Some(out) = out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .and_then(|mut f| writeln!(f, "{}", outcome.record_json().to_line()));
        if let Err(e) = appended {
            eprintln!("cannot append to {out}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.result_json().to_line());
    ExitCode::SUCCESS
}
