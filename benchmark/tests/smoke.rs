//! Smoke and schema tests: every workload at 1/50 size, the metric set
//! against `BENCHMARK.json`, and determinism of the simulated numbers.

use std::collections::BTreeSet;

use repl_benchmark::compare::compare;
use repl_benchmark::json::Json;
use repl_benchmark::metrics::{Kind, END_TO_END, HOST_TIMES, PER_LAYER};
use repl_benchmark::report::{run, Outcome, Plan};
use repl_benchmark::workloads::{Scale, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(Plan {
        workload,
        seed,
        // No measuring window: the minimum number of repetitions, and
        // three batches per driver.
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    })
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `name`s of the array `key`, checked for form and uniqueness.
fn names(doc: &Json, key: &str) -> Vec<String> {
    let list: Vec<String> = doc
        .get(key)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
        .collect();
    for name in &list {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name `{name}` must match [A-Za-z0-9_.-]+"
        );
    }
    let unique: BTreeSet<&String> = list.iter().collect();
    assert_eq!(unique.len(), list.len(), "a name is used twice in `{key}`");
    list
}

/// The simulated end-to-end metrics of an outcome, by name.
fn simulated(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .filter(|def| def.kind == Kind::Simulated)
        .map(|def| (def.name, outcome.metric(def.name).expect("reported")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads");
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    let e2e = doc
        .get("end_to_end")
        .and_then(Json::arr)
        .expect("end_to_end");
    assert_eq!(names(&doc, "end_to_end").len(), END_TO_END.len());
    for (entry, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(entry.get("name").and_then(Json::str), Some(def.name));
        assert_eq!(entry.get("unit").and_then(Json::str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::str),
            Some(def.better.word())
        );
        assert_eq!(entry.get("bound").and_then(Json::num), Some(def.bound));
        assert!(
            def.bound <= 0.25,
            "{}: bound above the contract's cap",
            def.name
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));

    let layers = doc.get("per_layer").and_then(Json::arr).expect("per_layer");
    assert_eq!(names(&doc, "per_layer").len(), PER_LAYER.len());
    for (entry, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("name").and_then(Json::str), Some(def.name));
        assert_eq!(entry.get("unit").and_then(Json::str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Json::str),
            Some(def.better.word())
        );
    }
    assert_eq!(
        doc.get("paths").and_then(Json::arr),
        Some(&[Json::Str("benchmark".to_string())][..])
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric_once_and_is_deterministic() {
    for workload in Workload::ALL {
        let a = smoke(workload, 163, false);
        assert!(a.correct(), "{}: {:?}", workload.name(), a.red);
        assert!(a.attempted >= 1);
        let reported: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(reported, expected, "{}", workload.name());
        for m in &a.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        // The printed result object carries exactly the contract's keys.
        let line = a.result_json().to_line();
        let parsed = Json::parse(&line).expect("result line parses");
        let keys: Vec<&String> = parsed.obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

        // The host times ride beside the result object, not in it, and
        // `compare` reads both back from a record.
        let host: Vec<&str> = a.host.iter().map(|m| m.name).collect();
        let host_expected: Vec<&str> = HOST_TIMES.iter().map(|d| d.name).collect();
        assert_eq!(host, host_expected, "{}", workload.name());
        assert!(a.host.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        let record = a.record_json().to_line();
        let (table, any_worse) = compare(&record, &record).expect("a record compares");
        assert!(!any_worse, "{table}");
        for def in END_TO_END.iter().chain(&HOST_TIMES) {
            assert!(
                table.contains(def.name),
                "no `{}` row in\n{table}",
                def.name
            );
        }

        // Same seed: identical simulated metrics and digest.
        let b = smoke(workload, 163, false);
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());

        // Another seed: other digest, same metric set.
        let c = smoke(workload, 977, false);
        assert_ne!(a.digest, c.digest, "{}", workload.name());
        let other: Vec<&str> = c.metrics.iter().map(|m| m.name).collect();
        assert_eq!(other, expected, "{}", workload.name());
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_once_when_traced() {
    for workload in Workload::ALL {
        let traced = smoke(workload, 163, true);
        assert!(traced.correct(), "{}: {:?}", workload.name(), traced.red);
        let reported: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(reported, expected, "{}", workload.name());
        for m in &traced.metrics {
            assert!(m.value.is_finite(), "{} {}", workload.name(), m.name);
        }
        // Spans: a repetition holds its cells, a cell holds its calls.
        assert!(!traced.spans.is_empty());
        for s in &traced.spans {
            assert!(s.end_ns >= s.start_ns);
            if s.parent != u32::MAX {
                let p = &traced.spans[s.parent as usize];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{}",
                    s.name
                );
            }
        }
        // The traced and the untraced run of a seed are the same runs.
        assert_eq!(traced.digest, smoke(workload, 163, false).digest);
    }
}
