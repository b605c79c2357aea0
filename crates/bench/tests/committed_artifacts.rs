//! Pins the per-node random streams to a committed artifact: E8 at
//! quick scale with seed 42 must reproduce `BENCH_e8_quick.json`
//! exactly (`diff_artifacts` ignores only the `cell_ms` timings). Any
//! change to how the engine, the channel, or the star schedules draw
//! from their streams moves these bytes.

use noisy_radio_bench::{diff_artifacts, experiments, suite_json, Scale};
use radio_sweep::{Json, SweepConfig};

const COMMITTED_E8_QUICK: &str = include_str!("../../../BENCH_e8_quick.json");

#[test]
fn e8_quick_reproduces_the_committed_artifact() {
    let cfg = SweepConfig::new(Some(2), 42);
    let reports =
        experiments::run_selected(Scale::Quick, &cfg, &["E8".to_string()]).expect("known id");
    let fresh = Json::parse(&suite_json(&reports, Scale::Quick.name(), 42)).expect("parses");
    let committed = Json::parse(COMMITTED_E8_QUICK).expect("committed artifact parses");
    let diff = diff_artifacts(&committed, &fresh);
    assert!(diff.is_empty(), "E8 quick moved:\n{}", diff.render());
}
