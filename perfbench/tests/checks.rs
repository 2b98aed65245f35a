//! The benchmark's correctness checks on a seed kept out of tuning, and
//! the agreement between `BENCHMARK.json` and the metrics the code
//! reports.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use elsc_lab::jsonv::Value;
use elsc_perfbench::{per_layer, run, Options, Workload, END_TO_END};

/// A seed never used while the benchmark was tuned.
const CHECK_SEED: u64 = 424_242;

/// One traced invocation at the minimum repetition count: it runs the
/// untraced and traced repetitions and every correctness check.
fn traced_run_passes(workload: Workload) {
    let out = run(
        workload,
        Options {
            seed: CHECK_SEED,
            budget: Duration::ZERO,
            trace: true,
        },
    );
    assert!(out.correct(), "{}: {:#?}", workload.name(), out.notes);
    for (name, value, _) in out.metrics(true) {
        assert!(value >= 0.0, "{name} = {value}");
    }
    let overhead = out.values["trace.overhead"];
    assert!(overhead > 0.0, "trace.overhead = {overhead}");
    for (name, value, _) in out.metrics(false) {
        assert!(value > 0.0, "{}: {name} = {value}", workload.name());
    }
}

#[test]
fn volano_mega_passes_its_checks() {
    traced_run_passes(Workload::VolanoMega);
}

#[test]
fn volano_paper_passes_its_checks() {
    traced_run_passes(Workload::VolanoPaper);
}

#[test]
fn paper_figures_passes_its_checks() {
    traced_run_passes(Workload::PaperFigures);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let v = benchmark_json();
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(&v, "end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_and_units(&v, "per_layer"), layers);
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    // The file lists the gated workloads in the code's order; the code
    // may offer more (`volano-mega` is run by name only).
    let mut ours = Workload::ALL.iter().map(|w| w.name());
    for name in &workloads {
        assert!(
            ours.any(|w| w == *name),
            "{name} is not a workload, or out of order"
        );
    }
}
