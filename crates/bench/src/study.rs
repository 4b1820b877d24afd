//! The one shape every study has: labelled rows of runs, named columns
//! folded from each row's reports.
//!
//! A [`Study`] is declared once (see the constructors in the crate root)
//! and read three ways: [`Study::sweep_cells`] hands its runs to anything
//! that wants raw reports (the determinism suite),
//! [`Study::table`] sweeps them and folds the printable [`Row`]s, and the
//! `perfstudy` binary selects studies by [`Study::id`].

use repl_core::{RunConfig, RunReport};

use crate::sweep::{run_sweep, CellResult, SweepCell};

/// One row of a printed table: a label and named columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (technique, parameter value, …).
    pub label: String,
    /// `(column name, value)` pairs.
    pub cells: Vec<(String, String)>,
}

impl Row {
    /// The value under column `name`.
    ///
    /// # Panics
    ///
    /// If the row has no such column — callers name columns of a study
    /// they know.
    pub fn get(&self, name: &str) -> &str {
        match self.cells.iter().find(|(n, _)| n == name) {
            Some((_, v)) => v,
            None => panic!("row `{}` has no column `{name}`", self.label),
        }
    }
}

/// Renders rows as an aligned text table.
pub fn render(title: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "### {title}");
    if rows.is_empty() {
        let _ = writeln!(s, "(no rows)");
        return s;
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max(5);
    let _ = write!(s, "{:<label_w$}", "");
    let mut col_w = Vec::new();
    for (name, _) in &rows[0].cells {
        let w = rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.len())
            .max()
            .unwrap_or(0)
            .max(name.len());
        col_w.push(w);
        let _ = write!(s, "  {name:>w$}");
    }
    let _ = writeln!(s);
    for r in rows {
        let _ = write!(s, "{:<label_w$}", r.label);
        for ((_, v), w) in r.cells.iter().zip(&col_w) {
            let _ = write!(s, "  {v:>w$}");
        }
        let _ = writeln!(s);
    }
    s
}

/// One row of a study before it has run: its label and the runs it
/// needs. Most rows need one; a fault study pairs the faulted run with
/// its fault-free baseline, an axis study (P1–P3) has one run per axis
/// value. A study's columns index this list.
#[derive(Debug, Clone)]
pub struct StudyRow {
    /// Row label, as printed.
    pub label: String,
    /// The runs, in the order the study's columns expect them.
    pub runs: Vec<RunConfig>,
}

impl StudyRow {
    /// Creates a row over `runs`.
    pub fn new(label: impl Into<String>, runs: impl Into<Vec<RunConfig>>) -> Self {
        StudyRow {
            label: label.into(),
            runs: runs.into(),
        }
    }
}

/// Reads one cell out of a row's reports.
type CellFn = Box<dyn Fn(&[RunReport]) -> String>;

/// One column of a study: its header and how to read the cell out of a
/// row's reports (indexed like [`StudyRow::runs`]).
pub struct Column {
    /// Column header, as printed.
    pub name: String,
    value: CellFn,
}

/// Creates a column.
pub fn col(name: impl Into<String>, value: impl Fn(&[RunReport]) -> String + 'static) -> Column {
    Column {
        name: name.into(),
        value: Box::new(value),
    }
}

/// One study of the performance evaluation, declared once.
pub struct Study {
    /// Short identifier (`"P8"`, `"A3"`); `perfstudy --p8-only` matches
    /// it case-insensitively.
    pub id: &'static str,
    /// What the table shows (printed after the id).
    pub title: &'static str,
    /// The rows and the runs behind each.
    pub rows: Vec<StudyRow>,
    /// The columns, folded from each row's reports.
    pub columns: Vec<Column>,
}

impl Study {
    /// Declares a study: every cell is a function of its row's reports.
    pub fn new(
        id: &'static str,
        title: &'static str,
        rows: Vec<StudyRow>,
        columns: Vec<Column>,
    ) -> Self {
        Study {
            id,
            title,
            rows,
            columns,
        }
    }

    /// The printed heading, `"P8 — end-to-end batching (…)"`.
    pub fn heading(&self) -> String {
        format!("{} — {}", self.id, self.title)
    }

    /// Every run of the study as a labelled sweep cell, rows flattened in
    /// order. A row's first run carries the row label; further runs
    /// (baselines, further axis values) append their index.
    pub fn sweep_cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for row in &self.rows {
            for (i, cfg) in row.runs.iter().enumerate() {
                let label = match i {
                    0 => row.label.clone(),
                    _ => format!("{} [{i}]", row.label),
                };
                cells.push(SweepCell::new(label, cfg.clone()));
            }
        }
        cells
    }

    /// Runs the study across `threads` workers and folds its table.
    ///
    /// # Panics
    ///
    /// If a cell fails — study configs are static, so a failure is a bug.
    pub fn table(&self, threads: usize) -> Vec<Row> {
        let mut reports = run_sweep(&self.sweep_cells(), threads)
            .into_iter()
            .map(CellResult::expect_report);
        self.rows
            .iter()
            .map(|row| {
                let runs: Vec<RunReport> = reports.by_ref().take(row.runs.len()).collect();
                Row {
                    label: row.label.clone(),
                    cells: self
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), (c.value)(&runs)))
                        .collect(),
                }
            })
            .collect()
    }

    /// The rendered table under its heading.
    pub fn render(&self, threads: usize) -> String {
        render(&self.heading(), &self.table(threads))
    }
}
