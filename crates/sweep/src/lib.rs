//! Deterministic parallel sweep harness for the noisy-radio workspace.
//!
//! The experiment drivers (E1–E12, F1, A1–A3 in `noisy_radio_bench`)
//! verify the paper's claims by sweeping grids of
//! `(scenario, n, fault model, seed)` cells. This crate runs those
//! grids in parallel while keeping every result **bit-identical to the
//! sequential run**:
//!
//! 1. a sweep is flattened into a list of *cells*, indexed in grid
//!    order;
//! 2. each cell's randomness is derived from the master seed and the
//!    cell index alone via [`radio_model::fork_seed`] (SplitMix64), so
//!    it does not depend on which worker runs the cell or when;
//! 3. a [`std::thread::scope`] worker pool claims cells from a shared
//!    atomic counter and evaluates them;
//! 4. results are merged back **in grid order** before any statistics
//!    or table rendering sees them.
//!
//! The determinism contract: for a fixed master seed and grid, the
//! merged results — and therefore every downstream table, fit, and
//! JSON artifact — are byte-identical for any worker count
//! (`--jobs 1` ≡ `--jobs 8`). `noisy_radio_bench`'s integration tests
//! assert exactly this.
//!
//! Three layers:
//!
//! * [`run_cells`] — the generic runner: evaluate `count` cells of any
//!   `Send` output type in parallel, return results in index order;
//! * [`Plan`]/[`Resolved`] — a builder for whole experiments: register
//!   groups of replicated trials (each a [`TrialResult`]), run them as
//!   one flat grid, then read per-group [`radio_throughput::Summary`]
//!   statistics back;
//! * [`Json`] — a dependency-free JSON value tree for structured
//!   result artifacts (`BENCH_*.json`-style), with deterministic
//!   rendering.
//!
//! For the binaries that run sweeps, [`parse_jobs`] bounds the worker
//! count a command line may ask for, and [`OutputFile`] opens an output
//! path before any cell runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod output;
pub mod plan;
pub mod runner;

pub use json::Json;
pub use output::OutputFile;
pub use plan::{Handle, Plan, Resolved, TrialResult};
pub use runner::{
    emit_cell_spans, parse_jobs, run_cells, run_cells_timed, CellCtx, SweepConfig, MAX_JOBS,
};
