//! Golden study tables and the shapes they must keep.
//!
//! Every number `perfstudy` prints is a pure function of a seed, so "the
//! same tables" is an exact oracle for any change that is not meant to
//! move simulated behaviour. `golden/study_tables.txt` is `perfstudy`'s
//! output without its header and timing lines — every registered study
//! through [`Study::render`]. A change that *is* meant to move a table
//! replaces that study's block with the "actual" half of the failure
//! message.
//!
//! EXPERIMENTS.md publishes these tables by quoting the golden file, so a
//! re-recording updates the docs or fails here too.

use repl_bench::{studies, Row, Study, P8_CLIENTS, P8_WINDOWS};
use repl_core::Technique;

const GOLDEN: &str = include_str!("golden/study_tables.txt");
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

fn study(id: &str) -> Study {
    studies()
        .into_iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("no study `{id}`"))
}

/// The golden block under `heading`, up to the next heading.
fn golden_block(heading: &str) -> String {
    let head = format!("### {heading}\n");
    let start = GOLDEN
        .find(&head)
        .unwrap_or_else(|| panic!("no golden table headed `{heading}`"));
    let rest = &GOLDEN[start + head.len()..];
    let end = rest.find("### ").unwrap_or(rest.len());
    format!("{head}{}\n", rest[..end].trim_end())
}

/// Renders `study` at one and at two sweep threads and compares both
/// byte for byte with its golden block.
fn assert_matches_golden(study: &Study) {
    for threads in [1, 2] {
        let actual = study.render(threads);
        let golden = golden_block(&study.heading());
        assert!(
            actual == golden,
            "{} moved at {threads} sweep thread(s)\n--- golden\n{golden}--- actual\n{actual}",
            study.id
        );
    }
}

#[test]
fn every_study_matches_its_golden_table() {
    let all = studies();
    assert_eq!(
        GOLDEN.matches("### ").count(),
        all.len(),
        "golden file and registry disagree on the number of studies"
    );
    // P13 has a test of its own below.
    for study in all.iter().filter(|s| s.id != "P13") {
        assert_matches_golden(study);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "P13's 100k-client cells take 15 s unoptimised; CI's release step runs this"
)]
fn p13_matches_its_golden_table() {
    assert_matches_golden(&study("P13"));
}

/// Every fenced block of EXPERIMENTS.md is a shell recipe (tagged `sh`)
/// or a quote of one golden table: its `### <id> — <title>` heading, its
/// column-header line, then some of its rows in golden order, each byte
/// for byte.
#[test]
fn experiments_md_quotes_the_golden_tables() {
    let mut lines = EXPERIMENTS.lines().enumerate();
    let mut quoted = 0;
    while let Some((n, line)) = lines.next() {
        let Some(tag) = line.strip_prefix("```") else {
            continue;
        };
        let at = n + 1;
        let block: Vec<&str> = lines
            .by_ref()
            .map(|(_, l)| l)
            .take_while(|l| !l.starts_with("```"))
            .collect();
        match tag {
            "sh" => continue,
            "" => {}
            _ => panic!(
                "EXPERIMENTS.md:{at}: a fence is tagged `sh` or quotes a golden table, not `{tag}`"
            ),
        }
        let Some((heading, quote)) = block.split_first() else {
            panic!("EXPERIMENTS.md:{at}: empty fence");
        };
        let Some(heading) = heading.strip_prefix("### ") else {
            panic!("EXPERIMENTS.md:{at}: an untagged fence must open with a golden `### <id> — <title>` heading");
        };
        let golden = golden_block(heading);
        let mut rows = golden.lines().skip(1);
        let header = rows.next().expect("a golden table has a header line");
        assert_eq!(
            quote.first(),
            Some(&header),
            "EXPERIMENTS.md:{at}: `{heading}` must quote the golden column headers"
        );
        assert!(
            quote.len() > 1,
            "EXPERIMENTS.md:{at}: `{heading}` quotes no rows"
        );
        for row in &quote[1..] {
            assert!(
                rows.any(|g| g == *row),
                "EXPERIMENTS.md:{at}: `{heading}` has a row that is not in its golden block, \
                 or not in golden order:\n{row}\n--- golden\n{golden}"
            );
        }
        quoted += 1;
    }
    assert!(quoted > 0, "EXPERIMENTS.md quotes no golden table");
}

fn ratio(cell: &str) -> f64 {
    let number = cell.trim_end_matches('x');
    number
        .parse()
        .unwrap_or_else(|_| panic!("`{cell}` is not a ratio"))
}

/// P7's claim: under open-loop overload Semi-Passive, which decides all
/// the operations that arrived during one consensus instance in the
/// next, does not queue — its mean latency at the highest offered rate
/// is at most a quarter of the 34,588 t it took while an instance decided
/// one operation, picked lowest id first — while Active, whose
/// operations run in parallel, stays within 1.2× across the rates. The
/// rows run from the lowest offered rate to the highest.
fn assert_p7_shape(table: &[Row]) {
    let means = |technique: &str| -> Vec<f64> {
        let prefix = format!("{technique} @ ");
        let rows = table.iter().filter(|r| r.label.starts_with(&prefix));
        let mean = |r: &Row| r.get("mean").trim_end_matches('t').parse().expect("mean");
        rows.map(mean).collect()
    };
    let semi = means("Semi-Passive");
    assert!(semi.len() >= 2, "P7 sweeps Semi-Passive over the rates");
    let highest = semi[semi.len() - 1];
    assert!(
        highest <= 34_588.0 / 4.0,
        "P7: Semi-Passive must not queue under overload ({highest}t at the highest rate)"
    );
    let active = means("Active");
    let (lo, hi) = (active.iter()).fold((f64::MAX, 0.0f64), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    assert!(
        active.len() >= 2 && hi <= 1.2 * lo,
        "P7: Active must stay flat across the rates ({active:?})"
    );
}

/// P2's claim: with a batch per consensus instance, Semi-Passive's
/// closed-loop throughput at 16 clients is within 2× of Passive's (it was
/// 2,255/s against 25,229/s while an instance decided one operation).
fn assert_p2_shape(table: &[Row]) {
    let at_16 = |technique: &str| -> f64 {
        let row = (table.iter().find(|r| r.label == technique)).expect("P2 row");
        row.get("c=16")
            .trim_end_matches("/s")
            .parse()
            .expect("throughput")
    };
    let (semi, passive) = (at_16("Semi-Passive"), at_16("Passive"));
    assert!(
        2.0 * semi >= passive,
        "P2: Semi-Passive must stay within 2x of Passive at c=16 ({semi}/s against {passive}/s)"
    );
}

/// A3's claim: wound-wait, whose queues are ordered by age so a request
/// wounds only the younger holders blocking it, aborts no more than it
/// did while it also wounded every younger waiter queued ahead of the
/// requester (7, 4 and 13 server aborts at zipf 0.5, 1.0 and 1.5).
fn assert_a3_shape(table: &[Row]) {
    for (skew, before) in [("0.5", 7), ("1.0", 4), ("1.5", 13)] {
        let label = format!("zipf {skew} / wound-wait");
        let row = (table.iter().find(|r| r.label == label)).expect("A3 row");
        let aborts: u64 = row.get("server aborts").parse().expect("aborts");
        assert!(
            aborts <= before,
            "A3: {label} aborted {aborts} transactions, {before} before"
        );
    }
}

/// The claims EXPERIMENTS.md makes about the shape of A3, P2, P7, P8,
/// P15 and P16, read off the same rows the tables print.
#[test]
fn study_shapes() {
    assert_p7_shape(&study("P7").table(2));
    assert_p2_shape(&study("P2").table(2));
    assert_a3_shape(&study("A3").table(2));

    // P8: at the highest client count every ABCAST technique, under at
    // least one ABCAST implementation, cuts coordination messages per
    // transaction at least 2× against its own unbatched (w=0) baseline.
    let p8 = study("P8");
    let table = p8.table(2);
    let high = *P8_CLIENTS.iter().max().expect("client axis nonempty");
    let mut reduced: Vec<Technique> = Vec::new();
    // The window axis is innermost and starts at 0, so each chunk is one
    // (technique, abcast, clients) series headed by its baseline.
    assert_eq!(P8_WINDOWS[0], 0);
    for (cfgs, series) in p8
        .rows
        .chunks(P8_WINDOWS.len())
        .zip(table.chunks(P8_WINDOWS.len()))
    {
        let head = &cfgs[0].runs[0];
        if head.technique == Technique::EagerPrimary || head.clients != high {
            continue;
        }
        let coord = |row: &Row| -> f64 { row.get("coord/txn").parse().expect("coord/txn") };
        let best = series[1..].iter().map(coord).fold(f64::MAX, f64::min);
        if coord(&series[0]) / best.max(f64::MIN_POSITIVE) >= 2.0 {
            reduced.push(head.technique);
        }
    }
    reduced.dedup();
    assert_eq!(
        reduced,
        [
            Technique::Active,
            Technique::SemiActive,
            Technique::EagerUpdateEverywhereAbcast,
            Technique::Certification
        ],
        "P8: ABCAST techniques with a 2x coordination-message reduction at c={high}"
    );

    // P15: every joiner completes its online join, no acknowledged update
    // is silently lost across a drain, nobody is left unanswered, and
    // membership churn may disturb traffic but not halve it (1.15 today).
    let table = study("P15").table(2);
    assert_eq!(table.len(), Technique::ALL.len());
    for row in &table {
        assert_eq!(row.get("joined"), "4/4", "{}", row.label);
        assert_eq!(row.get("no silent loss"), "true", "{}", row.label);
        assert_eq!(row.get("unanswered"), "0", "{}", row.label);
        let dip = ratio(row.get("thru dip"));
        assert!(dip <= 2.0, "{}: throughput dip {dip}", row.label);
    }

    // P16: per-group load is constant, so an ideal split reaches 16× at
    // 16 shards; 4× is the floor below which sharding is not buying real
    // horizontal scale, and at least three techniques must clear it at
    // 0 % cross-shard (4 today). Every cell stays 1SR over the merged
    // history, converges and answers everything.
    let table = study("P16").table(2);
    let mut scaled = 0;
    for row in &table {
        assert_eq!(row.get("1SR"), "true", "{}", row.label);
        assert_eq!(row.get("converged"), "true", "{}", row.label);
        assert_eq!(row.get("unanswered"), "0", "{}", row.label);
        if row.label.ends_with("/ S=16 / x=0%") && ratio(row.get("vs S=1")) >= 4.0 {
            scaled += 1;
        }
    }
    assert!(
        scaled >= 3,
        "P16: only {scaled} techniques reach 4x at S=16"
    );
}
