//! The E16 acceptance gate at quick scale: every shape check passes,
//! the empirical f-thresholds re-derived from the table degrade on
//! noisy links (strictly somewhere, never the other way), and the
//! artifact is byte-identical across `--jobs` 1 and 4.

use noisy_radio_bench::{experiments, suite_json, ExperimentReport, Scale};
use radio_sweep::SweepConfig;

fn run_e16(jobs: usize) -> ExperimentReport {
    let cfg = SweepConfig::new(Some(jobs), 42);
    let mut reports =
        experiments::run_selected(Scale::Quick, &cfg, &["E16".to_string()]).expect("known id");
    assert_eq!(reports.len(), 1);
    reports.pop().expect("one report")
}

fn column(report: &ExperimentReport, name: &str) -> usize {
    report
        .table
        .headers()
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("missing column `{name}`"))
}

/// Re-derives one `(algo, grid, channel)` group's empirical
/// f-threshold from the published table: the largest `f` such that
/// every arm with tolerance ≤ `f` has termination rate 1.00, or `None`
/// if even the honest f = 0 baseline failed.
fn f_threshold(report: &ExperimentReport, algo: &str, grid: &str, channel: &str) -> Option<i64> {
    let (algo_c, grid_c, channel_c, f_c, term_c) = (
        column(report, "algo"),
        column(report, "grid"),
        column(report, "channel"),
        column(report, "f"),
        column(report, "term"),
    );
    let rows: Vec<(i64, bool)> = report
        .table
        .rows()
        .iter()
        .filter(|r| r[algo_c] == algo && r[grid_c] == grid && r[channel_c] == channel)
        .map(|r| {
            let f: i64 = r[f_c].parse().expect("numeric f cell");
            let term: f64 = r[term_c].parse().expect("numeric term cell");
            (f, term == 1.0)
        })
        .collect();
    assert!(!rows.is_empty(), "no rows for {algo}/{grid}/{channel}");
    let f_max = rows.iter().map(|&(f, _)| f).max().expect("nonempty");
    (0..=f_max)
        .take_while(|&f| rows.iter().all(|&(rf, ok)| rf > f || ok))
        .last()
}

#[test]
fn e16_noisy_thresholds_never_beat_faultless_and_degrade_somewhere() {
    let report = run_e16(2);
    assert!(
        report.all_ok(),
        "E16 shape checks failed:\n{}",
        report.render()
    );
    let (algo_c, grid_c, channel_c, agree_c) = (
        column(&report, "algo"),
        column(&report, "grid"),
        column(&report, "channel"),
        column(&report, "agree"),
    );

    // Safety is unconditional: the agreement column is 1.00 in every
    // single cell, noisy or Byzantine or both.
    for row in report.table.rows() {
        assert_eq!(row[agree_c], "1.00", "agreement violated in {row:?}");
    }

    // Enumerate the swept groups from the table itself.
    let mut algos: Vec<String> = Vec::new();
    let mut grids: Vec<String> = Vec::new();
    let mut channels: Vec<String> = Vec::new();
    for row in report.table.rows() {
        if !algos.contains(&row[algo_c]) {
            algos.push(row[algo_c].clone());
        }
        if !grids.contains(&row[grid_c]) {
            grids.push(row[grid_c].clone());
        }
        if !channels.contains(&row[channel_c]) {
            channels.push(row[channel_c].clone());
        }
    }
    assert_eq!(algos, ["brb", "ben-or"]);
    assert_eq!(grids, ["path", "star", "mesh"]);
    assert!(channels.contains(&"faultless".to_string()));
    assert!(
        channels.iter().any(|c| c.contains('+')),
        "a composed channel arm must be swept: {channels:?}"
    );

    // The headline gap: on every (algo, grid), no noisy channel's
    // f-threshold beats the faultless one, and at least one noisy arm
    // is strictly worse somewhere.
    let mut strictly_degraded = 0;
    for algo in &algos {
        for grid in &grids {
            let base = f_threshold(&report, algo, grid, "faultless");
            for channel in channels.iter().filter(|c| *c != "faultless") {
                let noisy = f_threshold(&report, algo, grid, channel);
                assert!(
                    noisy <= base,
                    "{algo}/{grid}/{channel}: noisy threshold {noisy:?} beats faultless {base:?}"
                );
                if noisy < base {
                    strictly_degraded += 1;
                }
            }
        }
    }
    assert!(
        strictly_degraded > 0,
        "no noisy arm degraded the f-threshold anywhere"
    );
}

#[test]
fn e16_artifact_is_byte_identical_across_jobs() {
    let reference = suite_json(&[run_e16(1)], Scale::Quick.name(), 42);
    let artifact = suite_json(&[run_e16(4)], Scale::Quick.name(), 42);
    assert_eq!(reference, artifact, "E16 artifact differs at --jobs 4");
}
