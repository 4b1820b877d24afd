//! One benchmark run: set-up, timed repetitions, the metrics computed
//! from them, and how they are printed and written out.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::api::LatencyHistogram;
use crate::clock::Tick;
use crate::harness::{
    best_s, divergence, judged_of, oracle_of, run_of, run_rep, Recorder, Rep, SimCounts, Span,
    Stage, StageSecs,
};
use crate::json::{object, Json};
use crate::layers::{self, Shape};
use crate::metrics::{EndToEnd, Kind, END_TO_END, HOST_TIMES, PER_LAYER};
use crate::workloads::{Cell, Scale, Workload};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Base seed; cell *i* runs with `seed + i`.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// `Full` to measure, `Smoke` in tests.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value; for host times the best observed cost
    /// ([`best_s`]).
    pub value: f64,
    /// The fastest and the slowest whole repetition (or set-up), where
    /// there is more than one.
    pub range: Option<(f64, f64)>,
}

/// The result of a run.
pub struct Outcome {
    /// What was run.
    pub plan: Plan,
    /// Client operations attempted in one repetition.
    pub attempted: u64,
    /// Of those, the ones that count as failed: unanswered, or part of
    /// a cell that errored, diverged between repetitions or failed a
    /// required oracle.
    pub failed: u64,
    /// Every end-to-end metric (`trace` off) or every per-layer metric
    /// (`trace` on), in `BENCHMARK.json` order.
    pub metrics: Vec<Measured>,
    /// The host times of the untraced repetitions ([`HOST_TIMES`]):
    /// printed and recorded by every run, but in neither metric list of
    /// the result object unless the run is traced.
    pub host: Vec<Measured>,
    /// FNV-1a fold of every cell's `RunReport::digest()`, in cell order.
    pub digest: u64,
    /// `(cell label, why)` for every cell with failed operations.
    pub red: Vec<(String, String)>,
    /// Timed repetitions run.
    pub repetitions: usize,
    /// Cells per repetition.
    pub cells: usize,
    /// Response-time samples pooled into the percentiles.
    pub latency_samples: u64,
    /// `run_s` of every untraced repetition, in run order.
    pub run_s_each: Vec<f64>,
    /// Wall seconds ÷ CPU seconds of the timed calls of all repetitions:
    /// 1 when the process had its core to itself.
    pub wall_over_cpu: f64,
    /// The spans of the traced repetitions (empty when `trace` is off).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.host)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }

    /// The record `--out` appends and `compare` reads: the result
    /// object plus what it leaves out (which run it was, the digest,
    /// the host times, the spread of the repetitions).
    pub fn record_json(&self) -> Json {
        let spread = self
            .metrics
            .iter()
            .chain(&self.host)
            .filter_map(|m| {
                let (lo, hi) = m.range?;
                Some((
                    m.name.to_string(),
                    Json::Arr(vec![Json::Num(lo), Json::Num(hi)]),
                ))
            })
            .collect();
        object([
            ("workload", Json::Str(self.plan.workload.name().to_string())),
            ("seed", Json::Num(self.plan.seed as f64)),
            ("trace", Json::Bool(self.plan.trace)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("repetitions", Json::Num(self.repetitions as f64)),
            ("spread", Json::Obj(spread)),
            ("host", metrics_json(&self.host)),
            ("result", self.result_json()),
        ])
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let p = &self.plan;
        let _ = writeln!(
            s,
            "workload {} seed {} trace {}: {} timed repetitions of {} cells, digest {:016x}",
            p.workload.name(),
            p.seed,
            u8::from(p.trace),
            self.repetitions,
            self.cells,
            self.digest
        );
        // A traced run lists the host times among its per-layer metrics.
        let host = self.host.iter().filter(|_| !p.trace);
        for m in self.metrics.iter().chain(host) {
            let _ = write!(s, "  {:<40} {:>18.6} {:<8}", m.name, m.value, m.unit);
            if let Some((lo, hi)) = m.range {
                let _ = write!(s, " (repetitions {lo:.6} to {hi:.6})");
            }
            let def = |table: &'static [EndToEnd]| table.iter().find(|e| e.name == m.name);
            if let Some(e) = def(&END_TO_END) {
                let kind = match e.kind {
                    Kind::Simulated => "simulated",
                    Kind::Host => "host",
                };
                let _ = write!(
                    s,
                    "  [{kind}, {} is better, bound {}%]",
                    e.better.word(),
                    e.bound * 100.0
                );
            } else if let Some(e) = def(&HOST_TIMES).filter(|_| !p.trace) {
                let _ = write!(
                    s,
                    "  [host, {} is better, not held by the driver; `compare` allows {}%]",
                    e.better.word(),
                    e.bound * 100.0
                );
            }
            if m.name.ends_with("_ticks") && m.name.starts_with("sim_p") {
                let _ = write!(s, " ({} samples)", self.latency_samples);
            }
            let _ = writeln!(s);
        }
        let each: Vec<String> = self.run_s_each.iter().map(|t| format!("{t:.3}")).collect();
        let _ = writeln!(s, "  run_s of each repetition: {}", each.join(" "));
        let _ = writeln!(
            s,
            "  wall seconds per CPU second of the timed calls: {:.4}",
            self.wall_over_cpu
        );
        let _ = writeln!(
            s,
            "  attempted {} failed {} failed_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (label, why) in &self.red {
            let _ = writeln!(s, "  RED {label}: {why}");
        }
        s
    }
}

/// `{name: {"value", "unit"}}`, the shape of the result object's
/// `metrics`.
fn metrics_json(metrics: &[Measured]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = object([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

fn fold_digests(rep: &Rep) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in &rep.cells {
        for b in cell.digest.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The sums over the cells of one repetition.
fn totals(rep: &Rep) -> SimCounts {
    let mut t = SimCounts::default();
    for c in &rep.cells {
        let s = &c.sim;
        t.completed += s.completed;
        t.committed += s.committed;
        t.aborted += s.aborted;
        t.unanswered += s.unanswered;
        t.retries += s.retries;
        t.events += s.events;
        t.timers += s.timers;
        t.msgs += s.msgs;
        t.coord_msgs += s.coord_msgs;
        t.bytes += s.bytes;
        t.ticks += s.ticks;
        t.wounds += s.wounds;
        t.server_aborts += s.server_aborts;
        t.peak_outstanding = t.peak_outstanding.max(s.peak_outstanding);
        t.restore_bytes += s.restore_bytes;
        t.history_records += s.history_records;
    }
    t
}

/// Mean of `pick` over the fault cells that report it; 0 when none do
/// (every workload but `study_mix`).
fn fault_mean(cells: &[Cell], rep: &Rep, pick: impl Fn(&SimCounts) -> Option<u64>) -> f64 {
    let values: Vec<u64> = cells
        .iter()
        .zip(&rep.cells)
        .filter(|(c, _)| c.fault)
        .filter_map(|(_, r)| pick(&r.sim))
        .collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

fn peak_rss_mb() -> f64 {
    // `VmHWM` is the process's resident high-water mark, in kB.
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The smallest and the largest sample, when there is more than one.
fn range(samples: &[f64]) -> Option<(f64, f64)> {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (samples.len() > 1).then_some((lo, hi))
}

/// A measured value before it is matched to its table entry.
type Value = (&'static str, f64, Option<(f64, f64)>);

/// Orders `values` by the metric table `defs` (name, unit) and attaches
/// the units. Panics on a metric the run did not produce: the tables
/// and the code that fills them must not drift apart, and the smoke
/// tests run this for every workload in both modes.
fn by_table(
    defs: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[Value],
) -> Vec<Measured> {
    defs.map(|(name, unit)| {
        let &(_, value, range) = values
            .iter()
            .find(|v| v.0 == name)
            .unwrap_or_else(|| panic!("metric `{name}` is in the table but was not measured"));
        Measured {
            name,
            unit,
            value,
            range,
        }
    })
    .collect()
}

/// What the repetitions of a run produced.
struct Reps {
    cells: Vec<Cell>,
    /// Best observed set-up, and each one.
    setup_s: f64,
    setup_each: Vec<f64>,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    /// Client response times of the first repetition, all cells pooled.
    pool: LatencyHistogram,
}

/// Set-ups before every timed repetition: `setup_s` is the one host
/// time the driver holds a change to, a set-up costs a tenth of a
/// repetition, and every further one is another chance to see the box
/// in a quiet moment.
const SETUPS_PER_REPETITION: usize = 3;

/// Alternates set-ups (config building plus a 1/10-size warm-up
/// repetition, [`SETUPS_PER_REPETITION`] times) and timed repetitions
/// of the full cell list until `plan.seconds` have passed, at least
/// three repetitions. The set-ups are
/// spread over the whole run, not bunched at its start, so that their
/// best observed cost sees as many quiet moments of the box as the
/// repetitions' does: five set-ups back to back all fell into one phase
/// of the machine and spread by half between runs. A traced run keeps
/// spans for every other repetition, so the overhead of keeping them is
/// measured inside the one process.
fn repeat(plan: Plan, rec: &mut Recorder) -> Reps {
    let warm_scale = match plan.scale {
        Scale::Full => Scale::Warmup,
        other => other,
    };
    let window = Duration::from_secs_f64(plan.seconds);
    let min_reps = if plan.trace { 4 } else { 3 };
    let started = Instant::now();
    let mut cells = Vec::new();
    let mut building = Vec::new();
    let mut warmups = Vec::new();
    let mut pool = LatencyHistogram::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while untraced.len() + traced.len() < min_reps || started.elapsed() < window {
        rec.on = false;
        for _ in 0..SETUPS_PER_REPETITION {
            let start = Tick::now();
            cells = plan.workload.cells(plan.seed, plan.scale);
            let warm = plan.workload.cells(plan.seed, warm_scale);
            building.push(Tick::now().cpu_since(&start));
            warmups.push(run_rep(&warm, rec, None));
        }

        let nth = untraced.len() + traced.len();
        rec.on = plan.trace && nth % 2 == 1;
        let rep = run_rep(&cells, rec, (nth == 0).then_some(&mut pool));
        if rec.on {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
    }
    // Like every host time: the best observed cost.
    let setup_s =
        building.iter().copied().fold(f64::INFINITY, f64::min) + best_s(&warmups, judged_of);
    let setup_each = building
        .iter()
        .zip(&warmups)
        .map(|(b, w)| b + w.total(judged_of))
        .collect();
    Reps {
        cells,
        setup_s,
        setup_each,
        untraced,
        traced,
        pool,
    }
}

/// Wall seconds per CPU second over the timed calls of every
/// repetition, traced or not.
fn wall_over_cpu(reps: &Reps) -> f64 {
    let all = || reps.untraced.iter().chain(&reps.traced);
    let wall: f64 = all().map(|r| r.wall_s).sum();
    let cpu: f64 = all().map(|r| r.total(judged_of)).sum();
    wall / cpu
}

/// Correctness: per cell, its unanswered operations, or all of them
/// when it errored, failed an oracle or differed between repetitions.
/// Returns the failed operations and `(cell label, why)` per red cell.
fn judge(reps: &Reps) -> (u64, Vec<(String, String)>) {
    let first = &reps.untraced[0];
    let mut diverged = vec![false; reps.cells.len()];
    for rep in reps.untraced.iter().skip(1).chain(&reps.traced) {
        for i in divergence(first, rep) {
            diverged[i] = true;
        }
    }
    let mut red = Vec::new();
    let mut failed = 0u64;
    for (i, (cell, r)) in reps.cells.iter().zip(&first.cells).enumerate() {
        let attempted = cell.attempted();
        let lost = attempted.saturating_sub(r.sim.completed);
        let (ops, why) = if let Some(why) = &r.red {
            (attempted, why.clone())
        } else if diverged[i] {
            (
                attempted,
                "digest or counts differ between repetitions".to_string(),
            )
        } else if lost > 0 {
            (lost, format!("{lost} operations unanswered"))
        } else {
            continue;
        };
        failed += ops;
        red.push((cell.label.clone(), why));
    }
    (failed, red)
}

/// The host times ([`HOST_TIMES`]) of the untraced repetitions: the
/// best observed cost (see `best_s`), in CPU seconds; the range beside
/// each is the fastest and the slowest repetition.
fn host_times(reps: &Reps, t: &SimCounts) -> Vec<Measured> {
    let each = |pick: fn(&StageSecs) -> f64| {
        range(
            &reps
                .untraced
                .iter()
                .map(|r| r.total(pick))
                .collect::<Vec<_>>(),
        )
    };
    let run_s = best_s(&reps.untraced, run_of);
    let run_range = each(run_of);
    let per_s = |count: u64| {
        (
            count as f64 / run_s,
            run_range.map(|(lo, hi)| (count as f64 / hi, count as f64 / lo)),
        )
    };
    let (txn_per_s, txn_range) = per_s(t.completed);
    let (events_per_s, events_range) = per_s(t.events);
    let values = [
        ("host.run_s", run_s, run_range),
        (
            "host.judged_s",
            best_s(&reps.untraced, judged_of),
            each(judged_of),
        ),
        ("host.txn_per_s", txn_per_s, txn_range),
        ("host.events_per_s", events_per_s, events_range),
    ];
    by_table(HOST_TIMES.iter().map(|d| (d.name, d.unit)), &values)
}

/// The end-to-end metrics: set-up time (best observed, like every host
/// time) and the numbers that are exact for a seed.
fn end_to_end(reps: &Reps, t: &SimCounts) -> Vec<Measured> {
    let first = &reps.untraced[0];
    let done = t.completed.max(1) as f64;
    let pool = &reps.pool;
    let values = [
        ("setup_s", reps.setup_s, range(&reps.setup_each)),
        (
            "peak_heap_mb",
            first.peak_heap_bytes as f64 / (1024.0 * 1024.0),
            None,
        ),
        ("allocs_per_txn", first.allocs as f64 / done, None),
        ("sim_p50_ticks", pool.percentile(0.5).ticks() as f64, None),
        ("sim_p99_ticks", pool.percentile(0.99).ticks() as f64, None),
        (
            "sim_txn_per_mtick",
            t.completed as f64 * 1e6 / t.ticks.max(1) as f64,
            None,
        ),
        ("msgs_per_txn", t.msgs as f64 / done, None),
        ("bytes_per_txn", t.bytes as f64 / done, None),
        ("commit_pct", t.committed as f64 * 100.0 / done, None),
    ];
    by_table(END_TO_END.iter().map(|d| (d.name, d.unit)), &values)
}

/// The per-layer metrics: the drivers (given another third of the
/// run's time, shared out in slices), the spans of the traced
/// repetitions, the runs' exact counts, and the attribution.
fn per_layer(
    plan: Plan,
    reps: &Reps,
    t: &SimCounts,
    host: &[Measured],
    spans: usize,
) -> Vec<Measured> {
    let first = &reps.untraced[0];
    let cells = &reps.cells;
    let slice = Duration::from_secs_f64(plan.seconds / 3.0 / f64::from(layers::DRIVERS));
    let shape = Shape::of(&cells[0].cfg, u64::from(plan.scale.divisor()));
    let mut values: Vec<Value> = layers::run_all(&shape, slice)
        .into_iter()
        .map(|v| (v.name, v.value, None))
        .collect();
    let driver = |values: &[Value], name: &str| {
        values
            .iter()
            .find(|v| v.0 == name)
            .unwrap_or_else(|| panic!("no driver reports `{name}`"))
            .1
    };

    let stage = |s: Stage| best_s(&reps.traced, |secs| secs[s as usize]);
    let try_run_s = stage(Stage::TryRun);
    let drop_s = stage(Stage::Drop);
    let oracle_s = best_s(&reps.traced, oracle_of);
    let traced_run_s = best_s(&reps.traced, run_of);
    let untraced_run_s = best_s(&reps.untraced, run_of);
    let done = t.completed.max(1) as f64;
    let events = t.events.max(1) as f64;

    // Attribution from outside: what the runs' exact counts would cost
    // at the drivers' prices. An estimate until spans exist inside the
    // program (ROADMAP 1b); the residual is handlers and clients.
    let per_event = if cells[0].cfg.trace {
        driver(&values, "sim.dispatch.traced_ns_per_event")
    } else {
        driver(&values, "sim.dispatch.ns_per_event")
    };
    let per_coord_msg = driver(&values, "gcs.abcast_seq.ns_per_deliver")
        * f64::from(shape.replicas)
        / driver(&values, "gcs.abcast_seq.msgs_per_bcast").max(1.0);
    let per_record = if shape.spec.skew > 0.0 {
        driver(&values, "db.history.hot_ns_per_record")
    } else {
        driver(&values, "db.history.uniform_ns_per_record")
    };
    let sim_s = t.events as f64 * per_event / 1e9;
    let gcs_s = t.coord_msgs as f64 * per_coord_msg / 1e9;
    let history_s = t.history_records as f64 * per_record / 1e9;
    let residual_s = try_run_s - sim_s - gcs_s - history_s;
    let judged_s = try_run_s + drop_s + oracle_s;
    let pct = |s: f64| s * 100.0 / judged_s;

    let fault = |pick: fn(&SimCounts) -> Option<u64>| fault_mean(cells, first, pick);
    values.extend(
        [
            (
                "trace_overhead_pct",
                (traced_run_s - untraced_run_s) * 100.0 / untraced_run_s,
            ),
            ("sim.events_per_txn", t.events as f64 / done),
            ("sim.timers_per_txn", t.timers as f64 / done),
            ("core.try_run.ns_per_event", try_run_s * 1e9 / events),
            ("core.try_run.ns_per_txn", try_run_s * 1e9 / done),
            ("core.residual_ns_per_event", residual_s * 1e9 / events),
            ("core.report.drop_s", drop_s),
            ("core.oracle.1sr_s", stage(Stage::OneSr)),
            ("core.oracle.converged_s", stage(Stage::Converged)),
            ("core.oracle.no_silent_loss_s", stage(Stage::NoSilentLoss)),
            ("core.digest_s", stage(Stage::Digest)),
            ("core.oracle_s", oracle_s),
            ("core.retries_per_txn", t.retries as f64 / done),
            ("core.wounds_per_txn", t.wounds as f64 / done),
            ("core.server_aborts_per_txn", t.server_aborts as f64 / done),
            ("core.coord_msgs_per_txn", t.coord_msgs as f64 / done),
            ("core.abort_pct", t.aborted as f64 * 100.0 / done),
            (
                "core.history_records_per_txn",
                t.history_records as f64 / done,
            ),
            ("core.peak_outstanding", t.peak_outstanding as f64),
            ("core.unavail_ticks", fault(|s| Some(s.worst_gap))),
            ("core.failover_ticks", fault(|s| s.failover)),
            ("core.mttr_ticks", fault(|s| s.mttr)),
            ("core.join_ticks", fault(|s| s.join)),
            ("core.restore_bytes", t.restore_bytes as f64),
            ("core.latency_samples", reps.pool.count() as f64),
            ("attr.sim_pct", pct(sim_s)),
            ("attr.gcs_pct", pct(gcs_s)),
            ("attr.db_history_pct", pct(history_s)),
            ("attr.oracle_pct", pct(oracle_s)),
            ("attr.drop_pct", pct(drop_s)),
            ("attr.residual_pct", pct(residual_s)),
            ("attr.history_and_oracle_pct", pct(history_s + oracle_s)),
            ("traced.run_s", traced_run_s),
            ("traced.repetitions", reps.traced.len() as f64),
            ("traced.spans", spans as f64),
            ("host.peak_rss_mb", peak_rss_mb()),
            ("host.wall_over_cpu", wall_over_cpu(reps)),
        ]
        .map(|(name, value)| (name, value, None)),
    );
    values.extend(host.iter().map(|m| (m.name, m.value, None)));
    by_table(PER_LAYER.iter().map(|d| (d.name, d.unit)), &values)
}

/// Runs `plan`: set-ups and timed repetitions, the correctness
/// verdict, then the end-to-end metrics or — in a traced run — the
/// per-layer ones.
pub fn run(plan: Plan) -> Outcome {
    let mut rec = Recorder::new(false);
    let reps = repeat(plan, &mut rec);
    let (failed, red) = judge(&reps);
    let first = &reps.untraced[0];
    let t = totals(first);
    let host = host_times(&reps, &t);
    let metrics = if plan.trace {
        per_layer(plan, &reps, &t, &host, rec.spans.len())
    } else {
        end_to_end(&reps, &t)
    };
    Outcome {
        plan,
        attempted: reps.cells.iter().map(Cell::attempted).sum(),
        failed,
        metrics,
        host,
        digest: fold_digests(first),
        red,
        repetitions: reps.untraced.len() + reps.traced.len(),
        cells: reps.cells.len(),
        latency_samples: reps.pool.count(),
        run_s_each: reps.untraced.iter().map(|r| r.total(run_of)).collect(),
        wall_over_cpu: wall_over_cpu(&reps),
        spans: rec.spans,
    }
}

/// Writes the spans as `{"workload", "seed", "spans": [{name, start_ns,
/// end_ns, parent, cell}, …]}`; `parent` is an index into the same
/// array (`null` for a root) and `cell` the cell's index within its
/// repetition (`null` for a repetition span).
///
/// # Errors
///
/// Any I/O error creating the directory or writing the file.
pub fn write_trace(outcome: &Outcome, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": [",
        outcome.plan.workload.name(),
        outcome.plan.seed
    )?;
    let index = |i: u32| {
        if i == u32::MAX {
            "null".to_string()
        } else {
            i.to_string()
        }
    };
    for (i, s) in outcome.spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            index(s.parent),
            index(s.cell)
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}
