//! Pins the per-node random streams to committed artifacts at quick
//! scale with seed 42, exactly (`diff_artifacts` ignores only the
//! `cell_ms` timings):
//!
//! - E8 must reproduce `BENCH_e8_quick.json`. Any change to how the
//!   engine, the channel, or the star schedules draw from their streams
//!   moves these bytes.
//! - E2, E4 and E5 must reproduce `BENCH_gbst_quick.json`. They run the
//!   GBST schedules (FASTBC, Robust FASTBC, dilated FASTBC) against
//!   Decay, so any change to which rounds a fast node broadcasts in
//!   moves these bytes too.
//! - E10 and E12 must reproduce `BENCH_routing_quick.json`. They drive
//!   the adaptive-routing runner with the BFS-layer pipeline on the
//!   worst-case topology (many senders, listed out of node order) and
//!   with the sequential source on a single link, so any change to how
//!   the runner resolves senders or draws losses moves these bytes.
//! - E1, E3, E13 and E14 must reproduce `BENCH_engine_quick.json`.
//!   They run Decay faultless and under receiver, sender and composed
//!   sender+erasure channels, the erasure-aware relay, and first-packet
//!   latencies, so any change to how the engine resolves a listener's
//!   slot — collisions, sender faults, loss draws — moves these bytes.
//! - E6, E7, E11, A1, A2 and A3 must reproduce `BENCH_core_quick.json`.
//!   They run the RLNC multi-message schedules (Decay, Robust FASTBC and
//!   the ungated streaming pipeline), Robust FASTBC across block sizes,
//!   Decay's fixed-budget failure rate and the Lemma 25–26 transforms,
//!   so any change to their Decay coins, block slots or sole-sender
//!   resolution moves these bytes.

use noisy_radio_bench::{diff_artifacts, experiments, suite_json, Scale};
use radio_sweep::{Json, SweepConfig};

const COMMITTED_E8_QUICK: &str = include_str!("../../../BENCH_e8_quick.json");
const COMMITTED_GBST_QUICK: &str = include_str!("../../../BENCH_gbst_quick.json");
const COMMITTED_ROUTING_QUICK: &str = include_str!("../../../BENCH_routing_quick.json");
const COMMITTED_ENGINE_QUICK: &str = include_str!("../../../BENCH_engine_quick.json");
const COMMITTED_CORE_QUICK: &str = include_str!("../../../BENCH_core_quick.json");

fn assert_reproduces(ids: &[&str], committed: &str) {
    let cfg = SweepConfig::new(Some(2), 42);
    let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
    let reports = experiments::run_selected(Scale::Quick, &cfg, &ids).expect("known ids");
    let fresh = Json::parse(&suite_json(&reports, Scale::Quick.name(), 42)).expect("parses");
    let committed = Json::parse(committed).expect("committed artifact parses");
    let diff = diff_artifacts(&committed, &fresh);
    assert!(diff.is_empty(), "{ids:?} quick moved:\n{}", diff.render());
}

#[test]
fn e8_quick_reproduces_the_committed_artifact() {
    assert_reproduces(&["E8"], COMMITTED_E8_QUICK);
}

#[test]
fn gbst_quick_reproduces_the_committed_artifact() {
    assert_reproduces(&["E2", "E4", "E5"], COMMITTED_GBST_QUICK);
}

#[test]
fn routing_quick_reproduces_the_committed_artifact() {
    assert_reproduces(&["E10", "E12"], COMMITTED_ROUTING_QUICK);
}

#[test]
fn engine_quick_reproduces_the_committed_artifact() {
    assert_reproduces(&["E1", "E3", "E13", "E14"], COMMITTED_ENGINE_QUICK);
}

#[test]
fn core_quick_reproduces_the_committed_artifact() {
    assert_reproduces(&["E6", "E7", "E11", "A1", "A2", "A3"], COMMITTED_CORE_QUICK);
}
