//! Artifact diffing end to end: generate a real `--json` artifact,
//! diff it against itself (empty), mutate one cell and one finding,
//! and check the diff names exactly what moved. Also exercises the
//! `experiments --diff` binary surface and its exit codes.

use noisy_radio_bench::{diff_artifacts, experiments, suite_json, Scale};
use radio_sweep::{Json, SweepConfig};

fn quick_artifact() -> String {
    // F1 is the cheapest driver (a handful of GBST builds).
    let cfg = SweepConfig::new(Some(2), 42);
    let reports =
        experiments::run_selected(Scale::Quick, &cfg, &["F1".to_string()]).expect("known id");
    suite_json(&reports, Scale::Quick.name(), 42)
}

#[test]
fn self_diff_is_empty_and_mutations_are_located() {
    let text = quick_artifact();
    let doc = Json::parse(&text).expect("artifact parses");
    assert!(diff_artifacts(&doc, &doc).is_empty());

    // Mutate one table cell and one finding in the rendered text: the
    // path topology row starts with "path" and the first finding says
    // every GBST validates.
    let mutated_text = text
        .replacen("\"path\"", "\"mutated-topology\"", 1)
        .replacen("every GBST validates", "every GBST explodes", 1);
    assert_ne!(mutated_text, text, "mutation must hit the artifact");
    let mutated = Json::parse(&mutated_text).expect("mutated artifact parses");

    let diff = diff_artifacts(&doc, &mutated);
    assert!(!diff.is_empty());
    let rendered = diff.render();
    assert!(
        rendered.contains("F1 row 0 (path) [topology]: path -> mutated-topology"),
        "cell change not located:\n{rendered}"
    );
    assert!(
        rendered.contains("F1 finding 0 text:"),
        "finding change not located:\n{rendered}"
    );
    assert_eq!(
        diff.changes.len(),
        2,
        "exactly the two mutations:\n{rendered}"
    );
}

#[test]
fn diff_binary_reports_and_gates() {
    let text = quick_artifact();
    let dir = std::env::temp_dir().join(format!("noisy-radio-diff-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, &text).expect("write old");
    std::fs::write(&new, text.replacen("\"path\"", "\"other\"", 1)).expect("write new");

    let bin = env!("CARGO_BIN_EXE_experiments");
    let same = std::process::Command::new(bin)
        .args(["--diff", old.to_str().unwrap(), old.to_str().unwrap()])
        .output()
        .expect("run experiments --diff");
    assert!(same.status.success(), "self-diff must exit 0");
    assert!(String::from_utf8_lossy(&same.stdout).contains("artifacts are identical"));

    let moved = std::process::Command::new(bin)
        .args(["--diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .expect("run experiments --diff");
    assert!(
        !moved.status.success(),
        "a moved cell must gate with a non-zero exit"
    );
    let out = String::from_utf8_lossy(&moved.stdout);
    assert!(out.contains("path -> other"), "diff output:\n{out}");

    let missing = std::process::Command::new(bin)
        .args([
            "--diff",
            "/nonexistent-artifact.json",
            old.to_str().unwrap(),
        ])
        .output()
        .expect("run experiments --diff");
    assert!(!missing.status.success(), "unreadable artifact must fail");

    // Nesting deep enough to overflow an uncapped recursive parser is
    // reported as a parse error, not a crash.
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("write deep");
    let deep = deep.to_str().unwrap();
    let rejected = std::process::Command::new(bin)
        .args(["--diff", deep, deep])
        .output()
        .expect("run experiments --diff");
    assert_eq!(
        rejected.status.code(),
        Some(1),
        "deep nesting must fail cleanly"
    );
    let err = String::from_utf8_lossy(&rejected.stderr);
    assert!(err.contains("nesting deeper than"), "stderr:\n{err}");
}
