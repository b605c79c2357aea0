//! The experiment drivers, indexed as in `DESIGN.md` §4.
//!
//! Every driver takes the [`Scale`] knob and the sweep configuration
//! ([`SweepConfig`]: worker count + master seed) and fans its trial
//! grid out through `radio_sweep` — results are bit-identical for any
//! `jobs` value.

mod ablations;
mod byzantine;
mod erasure;
mod gaps;
mod latency;
mod multi;
mod single_link;
mod single_message;
mod structure;
mod throughput;
mod transforms;

pub use ablations::{a1_block_size, a2_failure_probability, a3_streaming_rlnc};
pub use byzantine::e16_byzantine_consensus;
pub use erasure::e13_erasure_gap;
pub use gaps::{e10_wct_gap, e8_star_gap, e9_wct_collision};
pub use latency::e14_latency_sweep;
pub use multi::{e6_decay_rlnc, e7_rfastbc_rlnc};
pub use single_link::e12_single_link;
pub use single_message::{
    e1_decay_faultless, e2_fastbc_faultless, e3_decay_noisy, e4_fastbc_degradation,
    e5_robust_fastbc,
};
pub use structure::f1_gbst_structure;
pub use throughput::e15_saturation_sweep;
pub use transforms::e11_transformations;

use radio_sweep::SweepConfig;

use crate::{ExperimentReport, Scale};

/// An experiment driver: scale + sweep config → report.
pub type Driver = fn(Scale, &SweepConfig) -> ExperimentReport;

/// One registry entry: id, a one-line description (printed by
/// `experiments --list`), and the driver.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The registry id (`E1`…`E16`, `F1`, `A1`…`A3`).
    pub id: &'static str,
    /// One-line description of what the experiment measures.
    pub description: &'static str,
    /// The driver function.
    pub driver: Driver,
}

/// Shorthand for registry entries.
const fn exp(id: &'static str, description: &'static str, driver: Driver) -> Experiment {
    Experiment {
        id,
        description,
        driver,
    }
}

/// The experiment registry, in run order (`DESIGN.md` §4 index).
pub const EXPERIMENTS: &[Experiment] = &[
    exp(
        "E1",
        "Decay on faultless graphs: O(D log n + log² n) rounds (Lemma 6)",
        e1_decay_faultless,
    ),
    exp(
        "E2",
        "FASTBC faultless: diameter-linear O(D + log² n) rounds (Lemma 8)",
        e2_fastbc_faultless,
    ),
    exp(
        "E3",
        "Decay under receiver faults: 1/(1−p) slowdown only (Lemma 9)",
        e3_decay_noisy,
    ),
    exp(
        "E4",
        "FASTBC degradation under faults: Θ(p·D·log n) (Lemma 10)",
        e4_fastbc_degradation,
    ),
    exp(
        "E5",
        "Robust FASTBC: diameter-linear under faults (Theorem 11)",
        e5_robust_fastbc,
    ),
    exp(
        "E6",
        "Decay-RLNC k-message broadcast: O((D + k + log² n) log n) (Lemma 12)",
        e6_decay_rlnc,
    ),
    exp(
        "E7",
        "Robust-FASTBC-RLNC multi-message pipelining (Lemma 13)",
        e7_rfastbc_rlnc,
    ),
    exp(
        "E8",
        "Star coding-vs-routing throughput gap Θ(log n) (Theorem 17)",
        e8_star_gap,
    ),
    exp(
        "E9",
        "WCT collision structure: spine vs clique interference (Lemma 19)",
        e9_wct_collision,
    ),
    exp(
        "E10",
        "WCT worst-case gap: routing Θ(1/log² n) vs coding Θ(1/log n) (Theorem 24)",
        e10_wct_gap,
    ),
    exp(
        "E11",
        "Faultless → faulty schedule transformations (Lemmas 25–26)",
        e11_transformations,
    ),
    exp(
        "E12",
        "Single-link: non-adaptive Θ(1/log k) vs adaptive/coding Θ(1) (Lemmas 29–32)",
        e12_single_link,
    ),
    exp(
        "E13",
        "Erasure feedback closes the noisy-model log factors (DISC 2019)",
        e13_erasure_gap,
    ),
    exp(
        "E14",
        "Latency sweep: Xin–Xia pipelined schedules vs Decay/Robust FASTBC (arXiv:1709.01494)",
        e14_latency_sweep,
    ),
    exp(
        "E15",
        "Continuous-traffic saturation: bisected λ* and latency-vs-load per workload (DESIGN.md §9)",
        e15_saturation_sweep,
    ),
    exp(
        "E16",
        "Byzantine consensus (BRB, Ben-Or) over noisy gossip: empirical f-thresholds (DESIGN.md §10)",
        e16_byzantine_consensus,
    ),
    exp(
        "F1",
        "GBST structure: rank bound, stretch partition, demotions (§3)",
        f1_gbst_structure,
    ),
    exp(
        "A1",
        "Ablation: RLNC block size vs decode success",
        a1_block_size,
    ),
    exp(
        "A2",
        "Ablation: fault probability sweep on Decay/Robust FASTBC",
        a2_failure_probability,
    ),
    exp(
        "A3",
        "Ablation: streaming RLNC pipelining",
        a3_streaming_rlnc,
    ),
];

/// Runs the experiments whose ids appear in `ids`
/// (case-insensitively), in registry order; an empty filter runs all.
///
/// # Errors
///
/// Returns the offending id if one matches no registered experiment.
pub fn run_selected(
    scale: Scale,
    cfg: &SweepConfig,
    ids: &[String],
) -> Result<Vec<ExperimentReport>, String> {
    run_selected_timed(scale, cfg, ids).map(|reports| reports.into_iter().map(|(r, _)| r).collect())
}

/// Checks that every id in `ids` names a registered experiment
/// (case-insensitively), without running anything.
///
/// # Errors
///
/// Returns the first id that matches no registered experiment.
pub fn check_ids(ids: &[String]) -> Result<(), String> {
    match ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|e| e.id.eq_ignore_ascii_case(id)))
    {
        Some(id) => Err(format!("unknown experiment id `{id}`")),
        None => Ok(()),
    }
}

/// As [`run_selected`], additionally returning each driver's wall-clock
/// duration in milliseconds.
///
/// The timings are observability data only: the reports are
/// bit-identical to [`run_selected`]'s under the same arguments.
///
/// # Errors
///
/// Returns the offending id if one matches no registered experiment.
pub fn run_selected_timed(
    scale: Scale,
    cfg: &SweepConfig,
    ids: &[String],
) -> Result<Vec<(ExperimentReport, f64)>, String> {
    check_ids(ids)?;
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| e.id.eq_ignore_ascii_case(id)))
        .map(|e| {
            let start = std::time::Instant::now();
            let report = (e.driver)(scale, cfg);
            (report, start.elapsed().as_secs_f64() * 1e3)
        })
        .collect())
}

/// Renders the registry listing printed by `experiments --list`: one
/// `id  description` line per entry, in run order.
pub fn render_registry() -> String {
    let width = EXPERIMENTS.iter().map(|e| e.id.len()).max().unwrap_or(0);
    let mut out = String::new();
    for e in EXPERIMENTS {
        out.push_str(&format!("{:width$}  {}\n", e.id, e.description));
    }
    out
}
