//! The sweep-harness determinism contract, end to end: experiment
//! tables and JSON artifacts are byte-identical for any worker count
//! (§4b cell-level `--jobs`) under a fixed master seed.
//!
//! These tests exercise a representative driver subset at `Quick`
//! scale so they stay affordable in debug CI runs; the full-suite
//! release binary is exercised the same way by the CI workflow's
//! `--jobs` smoke steps. The subset spans every harness
//! shape: plain replicated trials (E3), a raw `run_cells` grid (E9,
//! F1), mixed-group plans with validity flags (E12), the
//! erasure-vs-noise grid with its deadlock control cell (E13), the
//! latency sweep with its per-node `LatencyProfile` percentiles and
//! per-cell timing (E14 — timing rides only on the binary's timed
//! artifact, so `suite_json` stays byte-exact), the continuous-traffic
//! saturation sweep whose per-arm bisection forks many probe seeds
//! (E15), a two-phase plan whose second grid depends on the first's
//! results (A2), a large-`n` scaling sweep (E8), and the Byzantine
//! consensus sweep whose adversary streams, per-listener equivocation
//! payloads, and seeded common coin all ride the same fork-seed
//! contract (E16).

use noisy_radio_bench::{experiments, suite_json, Scale};
use radio_sweep::SweepConfig;

const SUBSET: &[&str] = &[
    "E3", "E8", "E9", "E12", "E13", "E14", "E15", "E16", "F1", "A2",
];

fn run_subset(jobs: usize, seed: u64) -> (String, String) {
    let cfg = SweepConfig::new(Some(jobs), seed);
    let ids: Vec<String> = SUBSET.iter().map(|s| s.to_string()).collect();
    let reports = experiments::run_selected(Scale::Quick, &cfg, &ids).expect("known ids");
    let text: String = reports.iter().map(|r| r.render()).collect();
    let json = suite_json(&reports, Scale::Quick.name(), seed);
    (text, json)
}

#[test]
fn tables_and_json_are_byte_identical_across_jobs() {
    let (text_1, json_1) = run_subset(1, 42);
    for jobs in [4, 8] {
        let (text_n, json_n) = run_subset(jobs, 42);
        assert_eq!(
            text_1, text_n,
            "tables differ between sequential and --jobs {jobs}"
        );
        assert_eq!(
            json_1, json_n,
            "JSON differs between sequential and --jobs {jobs}"
        );
    }
}

#[test]
fn master_seed_actually_reaches_the_cells() {
    // Guard against a harness bug that would make determinism vacuous
    // (e.g. every cell ignoring its forked seed): a different master
    // seed must change at least the measured tables.
    let (_, json_42) = run_subset(1, 42);
    let (_, json_7) = run_subset(1, 7);
    assert_ne!(
        json_42, json_7,
        "different master seeds measured identical tables"
    );
}

#[test]
fn unknown_experiment_id_is_rejected() {
    let cfg = SweepConfig::new(Some(1), 42);
    let err = experiments::run_selected(Scale::Quick, &cfg, &["E99".to_string()]);
    assert!(err.is_err());
}
