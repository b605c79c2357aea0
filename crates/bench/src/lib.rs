//! Experiment drivers regenerating every quantitative claim of
//! *Broadcasting in Noisy Radio Networks* (see `DESIGN.md` §4 for the
//! experiment index E1–E16/F1/A1–A3; the committed `BENCH_*.json`
//! artifacts record their results).
//!
//! Each driver runs a parameter sweep on the simulator and returns an
//! [`ExperimentReport`] with the measured table, the shape checks the
//! paper's theorems predict, and the wall-clock time of every sweep
//! cell. Sweeps fan out over the `radio_sweep` worker pool (`--jobs`),
//! deterministically: for a fixed master seed, every table and JSON
//! artifact is byte-identical for any worker count. The `experiments`
//! binary prints all reports (`--json` writes the structured artifact).

#![forbid(unsafe_code)]

pub mod diff;
pub mod experiments;
mod report;
pub mod telemetry;

pub use diff::{diff_artifact_files, diff_artifacts, ArtifactDiff};
pub use report::{suite_json, suite_json_timed, ExperimentReport};
pub use telemetry::{emit_suite_telemetry, render_suite_summary};

/// Scale knob for experiment drivers: `Quick` keeps every sweep small
/// enough for CI; `Full` uses the report-scale sizes of the committed
/// full-scale `BENCH_*.json` artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized sweeps (seconds).
    Quick,
    /// Report-sized sweeps (minutes).
    Full,
    /// A single large-`n` gate point per driver that opts in (CI
    /// byte-identity smoke for the sparse engine); drivers without a
    /// dedicated smoke grid fall back to their quick one.
    Smoke,
}

impl Scale {
    /// Picks `quick` or `full` by variant ([`Scale::Smoke`] picks
    /// `quick`; drivers with a dedicated smoke grid match on the
    /// variant directly).
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick | Scale::Smoke => quick,
            Scale::Full => full,
        }
    }

    /// The scale's lowercase name, as recorded in JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}
