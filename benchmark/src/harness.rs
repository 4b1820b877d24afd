//! Runs a workload's cell list, times the calls into the program,
//! judges every run with the oracles and collects the exact simulated
//! counts.
//!
//! One repetition runs every cell once. Each call into `repl-core` is
//! bracketed by two clock reads whether or not spans are kept, so the
//! traced and the untraced repetition execute the same instructions up
//! to one `Vec::push` per call — that difference is what
//! `trace_overhead_pct` reports. The reported seconds are CPU seconds
//! (see [`crate::clock`]); spans carry wall nanoseconds.

use std::time::Instant;

use crate::alloc;
use crate::api::{pool_latencies, try_run, Guarantee, LatencyHistogram, RunReport};
use crate::clock::Tick;
use crate::workloads::Cell;

/// The calls a repetition times, in call order. `TryRun + Drop` is
/// `run_s`; the four in between are the oracle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `repl_core::try_run` — world construction included, users pay it
    /// on every run.
    TryRun,
    /// `RunReport::converged`.
    Converged,
    /// `RunReport::check_no_silent_loss`.
    NoSilentLoss,
    /// `RunReport::check_one_copy_serializable` (non-weak techniques).
    OneSr,
    /// `RunReport::digest`.
    Digest,
    /// Dropping the `RunReport` (history, records, samples).
    Drop,
}

impl Stage {
    /// The span name written to the trace file.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::TryRun => "core.try_run",
            Stage::Converged => "core.oracle.converged",
            Stage::NoSilentLoss => "core.oracle.no_silent_loss",
            Stage::OneSr => "core.oracle.1sr",
            Stage::Digest => "core.digest",
            Stage::Drop => "core.report.drop",
        }
    }
}

/// One timed interval. `parent` indexes into the same span list
/// (`u32::MAX` for a root); `cell` is the cell index within the
/// repetition (`u32::MAX` for spans that cover a whole repetition).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (a [`Stage`] name, `cell` or `repetition`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: u32,
    /// Cell index, shared by every span of one run.
    pub cell: u32,
}

/// Keeps spans in memory; [`crate::report::write_trace`] writes them out
/// when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    /// Whether spans are kept at all.
    pub on: bool,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans iff `on`.
    pub fn new(on: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span and returns its index (meaningless when off).
    fn open(&mut self, name: &'static str, start: Instant, parent: u32, cell: u32) -> u32 {
        if !self.on {
            return u32::MAX;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32, end: Instant) {
        if self.on {
            self.spans[idx as usize].end_ns = self.ns(end);
        }
    }

    fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32, cell: u32) {
        let idx = self.open(name, start, parent, cell);
        self.close(idx, end);
    }
}

/// The exact simulated counts of one run: deterministic for a seed, so
/// two repetitions must produce equal values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Client operations answered (committed or aborted).
    pub completed: u64,
    /// Answered with a commit.
    pub committed: u64,
    /// Answered with an abort.
    pub aborted: u64,
    /// Never answered before the deadline.
    pub unanswered: u64,
    /// Client-side re-submissions.
    pub retries: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Messages offered to the network.
    pub msgs: u64,
    /// Server↔server share of `msgs`.
    pub coord_msgs: u64,
    /// Payload bytes offered to the network.
    pub bytes: u64,
    /// Virtual duration of the run.
    pub ticks: u64,
    /// Wound-wait / detection victims.
    pub wounds: u64,
    /// Server-side aborts (wounds, certification failures).
    pub server_aborts: u64,
    /// Peak in-flight operations (aggregated open loop; else 0).
    pub peak_outstanding: u64,
    /// Worst request→response gap any client saw.
    pub worst_gap: u64,
    /// First crash → next committed response.
    pub failover: Option<u64>,
    /// Mean catch-up window of servers that recovered.
    pub mttr: Option<u64>,
    /// Mean spawn → caught-up window of sites beyond the initial group.
    pub join: Option<u64>,
    /// Bytes downloaded from the durable tier during restores.
    pub restore_bytes: u64,
    /// Operations in the merged execution history (0 on lean servers).
    pub history_records: u64,
}

impl SimCounts {
    fn of(report: &RunReport, initial_servers: u32) -> SimCounts {
        let joins: Vec<u64> = report
            .availability
            .recoveries
            .iter()
            .filter(|r| r.site >= initial_servers)
            .filter_map(|r| r.catch_up_ticks)
            .collect();
        SimCounts {
            completed: report.ops_completed,
            committed: report.ops_committed,
            aborted: report.ops_aborted,
            unanswered: report.ops_unanswered,
            retries: report.client_retries,
            events: report.messages.events_processed,
            timers: report.messages.timers_fired,
            msgs: report.messages.messages_sent,
            coord_msgs: report.messages.coordination_messages,
            bytes: report.messages.bytes_sent,
            ticks: report.duration.ticks(),
            wounds: report.wounds,
            server_aborts: report.server_aborts,
            peak_outstanding: report.peak_outstanding,
            worst_gap: report.availability.worst_gap().ticks(),
            failover: report.availability.failover_latency.map(|d| d.ticks()),
            mttr: report.availability.mttr_ticks(),
            join: (!joins.is_empty()).then(|| joins.iter().sum::<u64>() / joins.len() as u64),
            restore_bytes: report.durability.restore_bytes,
            history_records: report.history.len() as u64,
        }
    }
}

/// What one cell produced in one repetition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// `RunReport::digest()`; 0 when the run returned a `RunError`.
    pub digest: u64,
    /// The exact counts; all zero when the run returned a `RunError`.
    pub sim: SimCounts,
    /// Why every operation of the cell counts as failed, if it does:
    /// a `RunError` or a required oracle that was not green.
    pub red: Option<String>,
}

/// CPU seconds per [`Stage`] of one cell in one repetition.
pub type StageSecs = [f64; 6];

/// `try_run` plus dropping the report.
pub fn run_of(secs: &StageSecs) -> f64 {
    secs[Stage::TryRun as usize] + secs[Stage::Drop as usize]
}

/// The required oracles plus `digest()`.
pub fn oracle_of(secs: &StageSecs) -> f64 {
    secs[Stage::Converged as usize]
        + secs[Stage::NoSilentLoss as usize]
        + secs[Stage::OneSr as usize]
        + secs[Stage::Digest as usize]
}

/// Everything a judged run costs: `try_run`, oracles, digest, drop.
pub fn judged_of(secs: &StageSecs) -> f64 {
    run_of(secs) + oracle_of(secs)
}

/// One repetition of the cell list.
pub struct Rep {
    /// CPU seconds per [`Stage`], per cell, in cell order.
    pub secs: Vec<StageSecs>,
    /// Wall seconds of the same timed calls, all cells and stages.
    pub wall_s: f64,
    /// Heap allocations made inside the timed calls.
    pub allocs: u64,
    /// The most heap any one cell had in use above what was live when
    /// it started — the program's own peak, whatever the harness holds.
    pub peak_heap_bytes: i64,
    /// Per-cell outcome, in cell order.
    pub cells: Vec<CellResult>,
}

impl Rep {
    /// `pick` summed over the cells of this repetition.
    pub fn total(&self, pick: impl Fn(&StageSecs) -> f64) -> f64 {
        self.secs.iter().map(pick).sum()
    }
}

/// The best observed cost of the cell list: for each cell the fastest
/// `pick` seen in any of `reps`, summed over the cells.
///
/// The box this runs on shares its cores: identical repetitions were
/// measured back to back at 1.9 s and at 3.4 s, in phases that last
/// longer than a run. Interference only ever adds time, so the minimum
/// is the estimator of what the program itself costs; taking it per
/// cell lets a run use the quiet moments of every repetition. Over ten
/// runs its spread was half that of the median of repetitions.
pub fn best_s(reps: &[Rep], pick: impl Fn(&StageSecs) -> f64) -> f64 {
    let cells = reps.first().map_or(0, |r| r.secs.len());
    (0..cells)
        .map(|c| {
            reps.iter()
                .map(|r| pick(&r.secs[c]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Runs every cell once. Latencies are pooled into `pool` when given
/// (only the first timed repetition needs them: later ones must be
/// identical, which [`divergence`] checks through the digests).
pub fn run_rep(cells: &[Cell], rec: &mut Recorder, mut pool: Option<&mut LatencyHistogram>) -> Rep {
    let mut rep = Rep {
        secs: vec![[0.0; 6]; cells.len()],
        wall_s: 0.0,
        allocs: 0,
        peak_heap_bytes: 0,
        cells: Vec::with_capacity(cells.len()),
    };
    let rep_start = Instant::now();
    let rep_span = rec.open("repetition", rep_start, u32::MAX, u32::MAX);
    for (i, cell) in cells.iter().enumerate() {
        let i = i as u32;
        let allocs_before = alloc::count();
        let live_before = alloc::live_bytes();
        alloc::reset_peak();
        let t0 = Tick::now();
        let cell_span = rec.open("cell", t0.wall, rep_span, i);
        let mark = |rec: &mut Recorder, rep: &mut Rep, stage: Stage, from: Tick| {
            let now = Tick::now();
            rep.secs[i as usize][stage as usize] = now.cpu_since(&from);
            rep.wall_s += now.wall_since(&from);
            rec.leaf(stage.span_name(), from.wall, now.wall, cell_span, i);
            now
        };
        let result = try_run(&cell.cfg);
        let t1 = mark(rec, &mut rep, Stage::TryRun, t0);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                rec.close(cell_span, t1.wall);
                rep.allocs += alloc::count() - allocs_before;
                rep.peak_heap_bytes = rep.peak_heap_bytes.max(alloc::peak_bytes() - live_before);
                rep.cells.push(CellResult {
                    digest: 0,
                    sim: SimCounts::default(),
                    red: Some(format!("RunError: {e}")),
                });
                continue;
            }
        };
        let mut red = Vec::new();
        if !report.converged() {
            red.push("replicas did not converge".to_string());
        }
        let t2 = mark(rec, &mut rep, Stage::Converged, t1);
        if let Err(lost) = report.check_no_silent_loss() {
            red.push(format!("{} acknowledged commits silently lost", lost.len()));
        }
        let t3 = mark(rec, &mut rep, Stage::NoSilentLoss, t2);
        let t4 = if cell.cfg.technique.info().guarantee != Guarantee::Weak {
            if report.check_one_copy_serializable().is_err() {
                red.push("merged history is not one-copy serializable".to_string());
            }
            mark(rec, &mut rep, Stage::OneSr, t3)
        } else {
            t3
        };
        let digest = report.digest();
        mark(rec, &mut rep, Stage::Digest, t4);
        // Reading the counts is the benchmark's own work: untimed.
        let sim = SimCounts::of(&report, cell.cfg.servers);
        if let Some(pool) = pool.as_deref_mut() {
            pool_latencies(&report, pool);
        }
        let t6 = Tick::now();
        drop(report);
        let t7 = mark(rec, &mut rep, Stage::Drop, t6);
        rec.close(cell_span, t7.wall);
        rep.allocs += alloc::count() - allocs_before;
        rep.peak_heap_bytes = rep.peak_heap_bytes.max(alloc::peak_bytes() - live_before);
        rep.cells.push(CellResult {
            digest,
            sim,
            red: (!red.is_empty()).then(|| red.join("; ")),
        });
    }
    rec.close(rep_span, Instant::now());
    rep
}

/// The indices of cells whose digest or counts differ between two
/// repetitions of the same cell list.
pub fn divergence(first: &Rep, other: &Rep) -> Vec<usize> {
    first
        .cells
        .iter()
        .zip(&other.cells)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect()
}
