//! Every workload runs at a tiny size with zero failures, and reports
//! exactly the metrics `BENCHMARK.json` declares.

use radio_benchmark::{run, Options, Report, Workload, NAMES};

fn tiny_run(name: &str, trace: bool) -> Report {
    let workload = Workload::tiny(name).expect("known workload");
    run(Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The metric names listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_runs_tiny_without_failures() {
    for name in NAMES {
        for trace in [false, true] {
            let report = tiny_run(name, trace);
            assert!(report.attempted >= 1, "{name}");
            assert_eq!(report.failed, 0, "{name}: {:?}", report.lines);
            assert!(report.correct, "{name}: {:?}", report.lines);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        }
    }
}

#[test]
fn reported_metrics_match_the_declared_ones() {
    for name in NAMES {
        assert_eq!(names(&tiny_run(name, false)), declared("end_to_end"));
        assert_eq!(names(&tiny_run(name, true)), declared("per_layer"));
    }
}

#[test]
fn end_to_end_metrics_are_positive() {
    for name in NAMES {
        let report = tiny_run(name, false);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn traced_split_adds_up() {
    for name in ["path-rfastbc", "grid-decay"] {
        let r = tiny_run(name, true);
        let get = |m: &str| r.metric(m).expect("reported");
        let phases = ["act", "reach", "receive", "merge", "other"]
            .iter()
            .map(|p| get(&format!("engine.{p}_ms")))
            .sum::<f64>();
        assert!((phases - get("core.run_ms")).abs() < 1e-9, "{name}");
        assert!(get("engine.active_node_rounds") > 0.0, "{name}");
    }
    let r = tiny_run("star-gap", true);
    let get = |m| r.metric(m).expect("reported");
    let arms = get("star.routing_ms") + get("star.coding_ms");
    assert!((arms - get("core.run_ms")).abs() < 1e-9);
    assert!(get("routing.decide_ms") + get("routing.resolve_ms") <= get("star.routing_ms"));
}
