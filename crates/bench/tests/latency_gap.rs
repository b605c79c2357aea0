//! The E14 acceptance gate at quick scale: latency columns populated
//! on every grid point, the Xin–Xia schedule's measured path-graph
//! latency beating Decay's, byte-identical artifacts across `--jobs` 1
//! and 4, and every shape check passing.

use noisy_radio_bench::{experiments, suite_json, ExperimentReport, Scale};
use radio_sweep::SweepConfig;

fn run_e14(jobs: usize) -> ExperimentReport {
    let cfg = SweepConfig::new(Some(jobs), 42);
    let mut reports =
        experiments::run_selected(Scale::Quick, &cfg, &["E14".to_string()]).expect("known id");
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

#[test]
fn e14_latency_columns_are_populated_and_xin_xia_beats_decay() {
    let report = run_e14(2);
    assert!(
        report.all_ok(),
        "E14 shape checks failed:\n{}",
        report.render()
    );
    let grid = column(&report, "grid");
    let n_col = column(&report, "n");
    let algo = column(&report, "algo");
    let channel = column(&report, "channel");
    let rounds = column(&report, "rounds");
    let lat_cols: Vec<usize> = ["lat mean", "lat p50", "lat p99", "lat max"]
        .iter()
        .map(|h| column(&report, h))
        .collect();
    assert!(!report.table.rows().is_empty());

    // Every latency cell parses and is positive, the percentiles are
    // ordered, and the worst node is served no later than completion.
    for row in report.table.rows() {
        let cells: Vec<f64> = lat_cols
            .iter()
            .map(|&c| row[c].parse().expect("numeric latency cell"))
            .collect();
        let (mean, p50, p99, max) = (cells[0], cells[1], cells[2], cells[3]);
        assert!(mean > 0.0 && p50 > 0.0, "unpopulated latency in {row:?}");
        assert!(p50 <= p99 && p99 <= max, "unordered percentiles in {row:?}");
        let r: f64 = row[rounds].parse().expect("numeric rounds cell");
        assert!(mean <= r, "mean latency above completion rounds in {row:?}");
    }

    // Re-derive the headline claim from the table: on every noisy path
    // grid point the Xin–Xia mean latency beats Decay's.
    let mean_of = |want_algo: &str, want_n: &str| -> f64 {
        report
            .table
            .rows()
            .iter()
            .find(|row| {
                row[grid] == "path"
                    && row[n_col] == want_n
                    && row[algo] == want_algo
                    && row[channel].starts_with("receiver")
            })
            .unwrap_or_else(|| panic!("missing path row for {want_algo} n={want_n}"))[lat_cols[0]]
            .parse()
            .expect("numeric cell")
    };
    let mut compared = 0;
    for row in report.table.rows() {
        if row[grid] == "path" && row[algo] == "decay" && row[channel].starts_with("receiver") {
            let n = row[n_col].as_str();
            assert!(
                mean_of("xin-xia", n) < mean_of("decay", n),
                "Xin–Xia did not beat Decay at path n = {n}"
            );
            compared += 1;
        }
    }
    assert!(compared >= 3, "expected at least 3 path grid points");
}

#[test]
fn e14_artifact_is_byte_identical_across_jobs() {
    let reference = suite_json(&[run_e14(1)], Scale::Quick.name(), 42);
    let artifact = suite_json(&[run_e14(4)], Scale::Quick.name(), 42);
    assert_eq!(reference, artifact, "E14 artifact differs at --jobs 4");
}

#[test]
fn e14_records_per_cell_timings() {
    // The timing satellite: one wall-clock sample per grid cell, all
    // finite — and absent from the deterministic artifact rendering.
    let report = run_e14(1);
    assert!(!report.cell_ms.is_empty());
    assert!(report.cell_ms.iter().all(|&ms| ms.is_finite() && ms >= 0.0));
    let doc = suite_json(&[report], Scale::Quick.name(), 42);
    assert!(
        !doc.contains("cell_ms"),
        "suite_json must stay timing-free; timing rides on suite_json_timed only"
    );
}
