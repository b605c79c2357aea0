//! The telemetry determinism contract, end to end on the real binary:
//! `--telemetry` writes a schema-valid JSONL event log **without
//! changing a single measured artifact byte** — the `--json` artifact
//! of a telemetry-enabled run is byte-identical to the telemetry-off
//! run but for the wall-clock values in `cell_ms`, which differ between
//! any two runs, so the CI `--diff` gates never see telemetry
//! (DESIGN.md §12).

use std::process::Command;

use radio_sweep::Json;

/// Runs the `experiments` binary in a temp dir and returns the JSON
/// artifact bytes plus (when requested) the JSONL telemetry bytes.
fn run_binary(dir: &std::path::Path, telemetry: bool) -> (Vec<u8>, Option<Vec<u8>>) {
    let json_path = dir.join(if telemetry {
        "with.json"
    } else {
        "without.json"
    });
    let jsonl_path = dir.join("telemetry.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(["--quick", "--jobs", "2", "--seed", "42", "E12"])
        .arg("--json")
        .arg(&json_path);
    if telemetry {
        cmd.arg("--telemetry").arg(&jsonl_path);
        cmd.arg("--telemetry-summary");
    }
    let out = cmd.output().expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "experiments binary failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = std::fs::read(&json_path).expect("artifact written");
    let events = telemetry.then(|| std::fs::read(&jsonl_path).expect("telemetry written"));
    (artifact, events)
}

/// The artifact's text without its `cell_ms` arrays, and how many cells
/// each array timed. Everything else is compared byte for byte.
fn without_cell_ms(artifact: &[u8]) -> (String, Vec<usize>) {
    let text = std::str::from_utf8(artifact).expect("artifact is UTF-8");
    let (mut kept, mut cells) = (String::new(), Vec::new());
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim_start().starts_with("\"cell_ms\": [") {
            // The cell lines up to and including the closing bracket.
            let timed = lines
                .by_ref()
                .take_while(|l| !l.trim_start().starts_with(']'));
            cells.push(timed.count());
        } else {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    (kept, cells)
}

#[test]
fn telemetry_leaves_the_artifact_byte_identical() {
    let dir = std::env::temp_dir().join(format!("radio-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let (plain, _) = run_binary(&dir, false);
    let (with_telemetry, events) = run_binary(&dir, true);
    let (plain, plain_cells) = without_cell_ms(&plain);
    let (with_telemetry, telemetry_cells) = without_cell_ms(&with_telemetry);
    assert_eq!(
        plain, with_telemetry,
        "--telemetry changed the --json artifact"
    );
    assert!(!plain_cells.is_empty(), "E12 records its cell timings");
    assert_eq!(plain_cells, telemetry_cells, "both runs time every cell");

    // The event log is non-empty and every line parses as exactly one
    // span-or-counter object with a numeric value.
    let events = events.expect("telemetry requested");
    let text = String::from_utf8(events).expect("telemetry is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "telemetry log is empty");
    let mut saw_experiment_span = false;
    for line in &lines {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let span = doc.get("span").and_then(Json::as_str);
        let counter = doc.get("counter").and_then(Json::as_str);
        assert!(
            span.is_some() != counter.is_some(),
            "line must be exactly one of span/counter: {line:?}"
        );
        assert!(
            matches!(doc.get("value"), Some(Json::U64(_) | Json::F64(_))),
            "line must carry a numeric value: {line:?}"
        );
        if span == Some("experiment/E12") {
            saw_experiment_span = true;
        }
    }
    assert!(
        saw_experiment_span,
        "expected an experiment/E12 span in:\n{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
