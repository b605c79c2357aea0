//! Command lines the `cli` binary must refuse before its first trial:
//! each exits 1, says why on stderr, and prints nothing on stdout.

use std::process::Command;

fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cli"))
        .args(args)
        .output()
        .expect("run cli");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    stderr
}

/// A telemetry path in the temporary directory, unique to this process
/// and `name`, that does not exist yet.
fn fresh_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("cli-{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_str().expect("a UTF-8 temporary path").to_owned()
}

/// Commands that open `--telemetry` and then fail on their own input.
fn failing_with_telemetry(out: &str) -> [Vec<&str>; 2] {
    [
        vec!["broadcast", "--topology", "bogus:3", "--telemetry", out],
        vec!["gap", "--leaves", "4", "--k", "0", "--telemetry", out],
    ]
}

#[test]
fn an_unwritable_telemetry_path_fails_before_any_trial() {
    let stderr = refused(&[
        "broadcast",
        "--topology",
        "path:64",
        "--trials",
        "1",
        "--telemetry",
        "/nonexistent/x.jsonl",
    ]);
    assert!(
        stderr.contains("cannot write /nonexistent/x.jsonl"),
        "{stderr}"
    );
}

#[test]
fn jobs_beyond_the_bound_are_refused() {
    // The parser refuses the count, so no worker thread starts.
    let stderr = refused(&["broadcast", "--topology", "path:2", "--jobs", "1025"]);
    assert!(stderr.contains("at most 1024"), "{stderr}");
}

#[test]
fn telemetry_flags_are_refused_where_nothing_is_recorded() {
    let path = std::env::temp_dir().join(format!("cli-refused-{}.jsonl", std::process::id()));
    let out = path.to_str().expect("a UTF-8 temporary path");
    let multicast = ["multicast", "--topology", "path:8", "--trials", "1"];
    for args in [
        [&multicast[..], &["--telemetry", out, "--telemetry-summary"]].concat(),
        [&multicast[..], &["--telemetry-summary"]].concat(),
        vec!["topo", "--telemetry", out],
        vec!["topo", "--telemetry-summary"],
    ] {
        let stderr = refused(&args);
        assert!(stderr.contains("records no telemetry"), "{stderr}");
        assert!(!path.exists(), "{args:?} created {out}");
    }
}

#[test]
fn an_unknown_command_is_refused_before_any_output_is_opened() {
    let path = std::env::temp_dir().join(format!("cli-unknown-{}.jsonl", std::process::id()));
    let out = path.to_str().expect("a UTF-8 temporary path");
    let stderr = refused(&["frobnicate", "--telemetry", out]);
    assert!(stderr.contains("unknown command `frobnicate`"), "{stderr}");
    assert!(!path.exists(), "an unknown command created {out}");
}

#[test]
fn a_failing_command_leaves_no_telemetry_file_behind() {
    let out = fresh_path("failing");
    for (args, why) in failing_with_telemetry(&out)
        .iter()
        .zip(["bad topology spec", "gap needs --k ≥ 1"])
    {
        let stderr = refused(args);
        assert!(stderr.contains(why), "{stderr}");
        assert!(
            !std::path::Path::new(&out).exists(),
            "{args:?} left {out} behind"
        );
    }
}

#[test]
fn a_failing_command_keeps_an_existing_telemetry_file() {
    let out = fresh_path("existing");
    for args in failing_with_telemetry(&out) {
        std::fs::write(&out, b"an earlier run's events").unwrap();
        refused(&args);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            b"an earlier run's events",
            "{args:?} changed {out}"
        );
    }
    std::fs::remove_file(&out).unwrap();
}

#[test]
fn the_usage_hint_names_the_binary() {
    let stderr = refused(&["broadcast", "--trials"]);
    assert!(stderr.ends_with("run `cli help` for usage\n"), "{stderr}");
}
