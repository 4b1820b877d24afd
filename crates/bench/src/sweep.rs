//! Parallel sweep engine: fan seeded single-threaded [`World`] runs
//! across OS threads.
//!
//! The simulator is deliberately single-threaded — determinism comes
//! from a totally ordered event heap and one RNG stream — so the unit
//! of parallelism is the *run*, never the event. A sweep is a list of
//! independent `(label, RunConfig)` cells; workers pull cells off a
//! shared atomic index and execute each one with
//! [`repl_core::try_run`], which is `Send` end to end (verified by a
//! compile-time assertion in `repl-core`). Results land back in cell
//! order regardless of completion order, so every table renders
//! identically at any thread count — a property locked in by
//! `tests/determinism.rs`.
//!
//! Errors don't tear down the sweep: each cell carries its own
//! `Result<RunReport, RunError>`, so one mis-configured cell (or an
//! internal panic, converted by `try_run`) surfaces as data while the
//! rest of the matrix completes.
//!
//! [`World`]: repl_sim::World

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use repl_core::{try_run, RunConfig, RunError, RunReport};

/// One unit of sweep work: a display label and the run it describes.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Human-readable cell name, e.g. `"active/n=8"`.
    pub label: String,
    /// The full run configuration (technique, seed, workload, faults).
    pub cfg: RunConfig,
}

impl SweepCell {
    /// Creates a cell.
    pub fn new(label: impl Into<String>, cfg: RunConfig) -> Self {
        SweepCell {
            label: label.into(),
            cfg,
        }
    }
}

/// Outcome of one cell: the run's report (or typed error) plus the
/// wall-clock time that cell took on its worker thread.
#[derive(Debug)]
pub struct CellResult {
    /// Label copied from the input cell.
    pub label: String,
    /// The run outcome; `Err` carries [`RunError`] without aborting the
    /// rest of the sweep.
    pub result: Result<RunReport, RunError>,
    /// Wall-clock duration of this cell alone.
    pub wall: Duration,
}

impl CellResult {
    /// Unwraps the report, panicking with the cell label on error.
    ///
    /// Use for sweeps whose configs are statically known-good (the
    /// study tables); anything driven by external input should match
    /// on [`CellResult::result`] instead.
    pub fn expect_report(self) -> RunReport {
        match self.result {
            Ok(r) => r,
            Err(e) => panic!("sweep cell `{}` failed: {e}", self.label),
        }
    }
}

/// Number of worker threads to use when the caller was not told: the
/// `REPL_SWEEP_THREADS` environment variable if set and positive, else
/// the machine's available parallelism, else 1. Read once, by the
/// binaries and benches, and passed down — nothing below them consults
/// the environment.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("REPL_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every cell, fanning across `threads` workers, and returns
/// results **in cell order**.
///
/// `threads == 1` executes inline on the caller's thread (the serial
/// reference path — no spawn, identical to a plain `try_run` loop).
/// Each worker claims cells through a shared atomic counter, so the
/// assignment of cells to threads is load-balanced and *not*
/// deterministic — but cell results are, because every run is an
/// isolated single-threaded simulation keyed only by its config.
pub fn run_sweep(cells: &[SweepCell], threads: usize) -> Vec<CellResult> {
    let threads = threads.max(1).min(cells.len().max(1));
    if threads == 1 {
        return cells.iter().map(run_cell).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let done = run_cell(&cells[i]);
                *slots[i].lock().expect("sweep slot poisoned") = Some(done);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every sweep cell completed")
        })
        .collect()
}

fn run_cell(cell: &SweepCell) -> CellResult {
    let start = Instant::now();
    let result = try_run(&cell.cfg);
    CellResult {
        label: cell.label.clone(),
        result,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update_workload;
    use repl_core::Technique;

    fn small_cfg(seed: u64) -> RunConfig {
        RunConfig::new(Technique::Active)
            .with_servers(3)
            .with_clients(2)
            .with_seed(seed)
            .with_trace(false)
            .with_workload(update_workload(3))
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<SweepCell> = (0..6)
            .map(|i| SweepCell::new(format!("seed-{i}"), small_cfg(100 + i)))
            .collect();
        let results = run_sweep(&cells, 3);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.label, format!("seed-{i}"));
            assert!(r.result.is_ok());
        }
    }

    #[test]
    fn a_failing_cell_does_not_abort_the_sweep() {
        let mut bad = small_cfg(7);
        bad.servers = 0;
        let cells = vec![
            SweepCell::new("good-a", small_cfg(7)),
            SweepCell::new("bad", bad),
            SweepCell::new("good-b", small_cfg(8)),
        ];
        let results = run_sweep(&cells, 2);
        assert!(results[0].result.is_ok());
        assert_eq!(
            results[1].result.as_ref().unwrap_err(),
            &RunError::NoServers
        );
        assert!(results[2].result.is_ok());
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let cells: Vec<SweepCell> = (0..4)
            .map(|i| SweepCell::new(format!("c{i}"), small_cfg(40 + i)))
            .collect();
        let serial = run_sweep(&cells, 1);
        let parallel = run_sweep(&cells, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(s.digest(), p.digest());
            assert_eq!(s.trace_hash, p.trace_hash);
        }
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let cells = vec![SweepCell::new("only", small_cfg(1))];
        let results = run_sweep(&cells, 64);
        assert_eq!(results.len(), 1);
        assert!(results[0].result.is_ok());
    }

    #[test]
    fn wall_clock_is_recorded() {
        let cells = vec![SweepCell::new("timed", small_cfg(2))];
        let results = run_sweep(&cells, 1);
        assert!(results[0].wall > Duration::ZERO);
    }
}
