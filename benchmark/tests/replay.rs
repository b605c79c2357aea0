//! A benchmark trial replays with the repository's own `cli`: trial `i`
//! of workload seed `S` is trial `i` of `cli broadcast --seed S`.

use std::process::Command;

use radio_benchmark::{trial_rounds, Workload};

/// Rounds per trial as printed by `cli broadcast` (`  trial T: R rounds …`).
fn cli_rounds(seed: u64, trials: u64) -> Vec<u64> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    // A target directory of its own, so the nested build never waits on
    // the lock of the build running this test.
    let target = concat!(env!("CARGO_TARGET_TMPDIR"), "/replay-cli");
    let out = Command::new(env!("CARGO"))
        .args([
            "run",
            "--quiet",
            "--offline",
            "--bin",
            "cli",
            "--manifest-path",
        ])
        .arg(format!("{root}/Cargo.toml"))
        .args(["--target-dir", target, "--", "broadcast"])
        .args(["--topology", "path:1024", "--fault", "receiver:0.3"])
        .args(["--algo", "robust-fastbc", "--jobs", "1"])
        .args(["--seed", &seed.to_string(), "--trials", &trials.to_string()])
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "cli failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("trial ")?;
            let (_, rest) = rest.split_once(": ")?;
            rest.split_once(" rounds")?.0.parse().ok()
        })
        .collect()
}

#[test]
fn path_rfastbc_trials_replay_with_cli_broadcast() {
    let workload = Workload::named("path-rfastbc").expect("known workload");
    let seed = 2017;
    let bench: Vec<u64> = (0..2)
        .map(|i| trial_rounds(workload, seed, i).expect("trial passes its checks")[0])
        .collect();
    assert_eq!(bench, cli_rounds(seed, 2));
}
