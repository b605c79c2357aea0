//! Command lines the `experiments` binary must refuse before it runs
//! anything: each exits 1, says why on stderr, and prints no report.
//! An unwritable output path would otherwise surface only after the
//! whole sweep, and a second scale flag would silently override the
//! first.

use std::process::Command;

/// Runs the binary with `args` and returns its stderr, after checking
/// that it exited 1 without printing a report.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    stderr
}

#[test]
fn an_unwritable_json_path_fails_before_any_cell() {
    let stderr = refused(&["--quick", "--json", "/nonexistent/dir/x.json", "E1"]);
    assert!(
        stderr.contains("cannot write /nonexistent/dir/x.json"),
        "{stderr}"
    );
}

#[test]
fn an_unwritable_telemetry_path_fails_before_any_cell() {
    let stderr = refused(&["--quick", "--telemetry", "/nonexistent/x.jsonl", "E1"]);
    assert!(
        stderr.contains("cannot write /nonexistent/x.jsonl"),
        "{stderr}"
    );
}

#[test]
fn an_unknown_id_fails_before_any_output_is_created() {
    let path = std::env::temp_dir().join(format!("radio-unknown-{}.json", std::process::id()));
    let stderr = refused(&["--json", path.to_str().expect("UTF-8 temp path"), "E99"]);
    assert!(stderr.contains("unknown experiment id `E99`"), "{stderr}");
    assert!(
        !path.exists(),
        "an output was created for a run that never started"
    );
}

#[test]
fn a_second_scale_flag_is_refused() {
    let stderr = refused(&["--quick", "--smoke", "E1"]);
    assert!(stderr.contains("give one scale flag"), "{stderr}");
    refused(&["--full", "--full", "E1"]);
}

#[test]
fn jobs_beyond_the_bound_are_refused() {
    // The parser refuses the count, so no worker thread starts.
    let stderr = refused(&["--jobs", "1025", "E1"]);
    assert!(stderr.contains("at most 1024"), "{stderr}");
}
