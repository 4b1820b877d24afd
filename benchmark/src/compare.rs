//! `compare A B`: reads two result sets (files of `--out` records) and
//! prints, per workload × metric (the end-to-end ones and the host
//! times), both values, the relative difference, the bound and a
//! verdict.
//!
//! * Host metrics are held to the bound in `metrics.rs` (for the
//!   end-to-end ones, the one in `BENCHMARK.json`). When the min–max
//!   spread of either set's own repetitions and runs exceeds the bound,
//!   the verdict is `unresolved`, not `agree`.
//! * Simulated metrics are deterministic for a seed: when both sets ran
//!   the same seeds they are held to a bound of 0 and the digests are
//!   compared too. With different seeds they fall back to the
//!   cross-seed bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{Better, Kind, END_TO_END, HOST_TIMES};
use crate::workloads::Workload;

/// Median of a non-empty slice (mean of the middle two when even).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end records of one workload in one set.
#[derive(Default)]
struct Runs {
    seeds: Vec<u64>,
    digests: BTreeMap<u64, String>,
    /// Per metric: the reported values, and the extremes seen anywhere
    /// (repetition min/max included).
    values: BTreeMap<String, Vec<f64>>,
    extremes: BTreeMap<String, (f64, f64)>,
    failed: f64,
    attempted: f64,
}

fn load(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut sets: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("line {}: no `{k}`", n + 1))
        };
        if field("trace")? == &Json::Bool(true) {
            continue;
        }
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        let seed = field("seed")?.num().unwrap_or(0.0) as u64;
        let result = field("result")?;
        let runs = sets.entry(workload).or_default();
        runs.seeds.push(seed);
        runs.digests
            .insert(seed, field("digest")?.str().unwrap_or_default().to_string());
        runs.failed += result.get("failed").and_then(Json::num).unwrap_or(0.0);
        runs.attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0);
        let metrics = result
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        // The host times sit beside the result object, in the same shape.
        let host = rec.get("host").and_then(Json::obj);
        for (name, m) in metrics.iter().chain(host.into_iter().flatten()) {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("line {}: metric `{name}` has no value", n + 1))?;
            runs.values.entry(name.clone()).or_default().push(value);
            let spread = rec
                .get("spread")
                .and_then(|s| s.get(name))
                .and_then(Json::arr);
            let (lo, hi) = match spread {
                Some([lo, hi]) => (lo.num().unwrap_or(value), hi.num().unwrap_or(value)),
                _ => (value, value),
            };
            let e = runs.extremes.entry(name.clone()).or_insert((lo, hi));
            *e = (e.0.min(lo), e.1.max(hi));
        }
    }
    for runs in sets.values_mut() {
        runs.seeds.sort_unstable();
    }
    Ok(sets)
}

/// The comparison table and whether any row is `worse`.
///
/// # Errors
///
/// A description of the first malformed record.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a_sets = load(a_text)?;
    let b_sets = load(b_text)?;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<15} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff%", "bound%"
    );
    for workload in Workload::ALL {
        let (Some(a), Some(b)) = (a_sets.get(workload.name()), b_sets.get(workload.name())) else {
            continue;
        };
        let same_seeds = a.seeds == b.seeds;
        for def in END_TO_END.iter().chain(&HOST_TIMES) {
            let (Some(av), Some(bv)) = (a.values.get(def.name), b.values.get(def.name)) else {
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            let exact = def.kind == Kind::Simulated && same_seeds;
            let bound = if exact { 0.0 } else { def.bound };
            let diff = if am == 0.0 { 0.0 } else { (bm - am) / am };
            // Positive `worse_by`: B is worse than A by that share.
            let worse_by = match def.better {
                Better::Lower => diff,
                Better::Higher => -diff,
            };
            let spread = |runs: &Runs, m: f64| {
                runs.extremes
                    .get(def.name)
                    .map_or(0.0, |(lo, hi)| if m == 0.0 { 0.0 } else { (hi - lo) / m })
            };
            let noisy = def.kind == Kind::Host
                && def.name != "setup_s"
                && spread(a, am).max(spread(b, bm)) > bound;
            let verdict = if worse_by > bound {
                any_worse = true;
                "worse"
            } else if exact && worse_by < 0.0 {
                "better"
            } else if noisy {
                "unresolved"
            } else {
                "agree"
            };
            let _ = writeln!(
                out,
                "{:<15} {:<18} {:>16.6} {:>16.6} {:>+9.3} {:>7.1}  {verdict}",
                workload.name(),
                def.name,
                am,
                bm,
                diff * 100.0,
                bound * 100.0
            );
        }
        let share = |r: &Runs| r.failed / r.attempted.max(1.0);
        let verdict = if share(b) > share(a) {
            any_worse = true;
            "worse"
        } else {
            "agree"
        };
        let _ = writeln!(
            out,
            "{:<15} {:<18} {:>16.6} {:>16.6} {:>9} {:>7.1}  {verdict}",
            workload.name(),
            "failed_share",
            share(a),
            share(b),
            "",
            0.0
        );
        if same_seeds {
            let verdict = if a.digests == b.digests {
                "agree"
            } else {
                "differs"
            };
            let _ = writeln!(
                out,
                "{:<15} {:<18} {:>16} {:>16} {:>9} {:>7}  {verdict}",
                workload.name(),
                "digest",
                a.digests.values().next().map_or("", String::as_str),
                b.digests.values().next().map_or("", String::as_str),
                "",
                ""
            );
        }
    }
    Ok((out, any_worse))
}
