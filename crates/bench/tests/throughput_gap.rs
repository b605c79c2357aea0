//! The E15 acceptance gate at quick scale: measurable saturation per
//! algorithm (every arm has a bisected λ* and an overload row that
//! hits the cap), the pipelined workloads sustaining strictly higher
//! rates than sequential Decay on noisy paths, byte-identical
//! artifacts across `--jobs` 1 and 4, and every shape check passing.

use noisy_radio_bench::{experiments, suite_json, ExperimentReport, Scale};
use radio_sweep::SweepConfig;

fn run_e15(jobs: usize) -> ExperimentReport {
    let cfg = SweepConfig::new(Some(jobs), 42);
    let mut reports =
        experiments::run_selected(Scale::Quick, &cfg, &["E15".to_string()]).expect("known id");
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
fn e15_shows_saturation_and_pipelined_workloads_sustain_more_load() {
    let report = run_e15(2);
    assert!(
        report.all_ok(),
        "E15 shape checks failed:\n{}",
        report.render()
    );
    let grid = column(&report, "grid");
    let algo = column(&report, "algo");
    let channel = column(&report, "channel");
    let star = column(&report, "λ*");
    let load = column(&report, "load·λ*");
    let drained = column(&report, "drained");
    let peak_q = column(&report, "peak_q");
    assert!(!report.table.rows().is_empty());

    // Every arm reports four load rows: three drained, one saturated
    // with an unserved backlog left behind.
    for rows in report.table.rows().chunks(4) {
        assert_eq!(rows.len(), 4, "each arm emits exactly 4 load rows");
        for row in rows {
            let lambda: f64 = row[star].parse().expect("numeric λ* cell");
            assert!(lambda > 0.0, "unmeasured saturation rate in {row:?}");
            let q: u64 = row[peak_q].parse().expect("numeric peak_q cell");
            if row[load] == "2.00" {
                assert_eq!(row[drained], "SAT", "overload row must saturate: {row:?}");
                assert!(q > 0, "a saturated probe must report its backlog: {row:?}");
            } else {
                assert_eq!(row[drained], "yes", "loaded row must drain: {row:?}");
            }
        }
    }

    // Re-derive the headline claim from the table: on every noisy path
    // grid point both pipelined workloads sustain a strictly higher λ*
    // than sequential Decay.
    let star_of = |want_algo: &str| -> f64 {
        report
            .table
            .rows()
            .iter()
            .find(|row| {
                row[grid] == "path"
                    && row[algo] == want_algo
                    && row[channel].starts_with("receiver")
            })
            .unwrap_or_else(|| panic!("missing noisy path row for {want_algo}"))[star]
            .parse()
            .expect("numeric cell")
    };
    assert!(
        star_of("xin-xia") > star_of("decay"),
        "Xin–Xia must sustain a higher rate than Decay on the noisy path"
    );
    assert!(
        star_of("rlnc") > star_of("decay"),
        "batched RLNC must sustain a higher rate than Decay on the noisy path"
    );
}

#[test]
fn e15_artifact_is_byte_identical_across_jobs() {
    let reference = suite_json(&[run_e15(1)], Scale::Quick.name(), 42);
    let artifact = suite_json(&[run_e15(4)], Scale::Quick.name(), 42);
    assert_eq!(reference, artifact, "E15 artifact differs at --jobs 4");
}

#[test]
fn e15_records_per_cell_timings() {
    let report = run_e15(1);
    assert!(!report.cell_ms.is_empty());
    assert!(report.cell_ms.iter().all(|&ms| ms.is_finite() && ms >= 0.0));
    let doc = suite_json(&[report], Scale::Quick.name(), 42);
    assert!(
        !doc.contains("cell_ms"),
        "suite_json must stay timing-free; timing rides on suite_json_timed only"
    );
}
