//! Experiment harness: statistics, scaling fits, gap ratios, latency
//! and traffic reporting, and table rendering.
//!
//! The paper's results are asymptotic (round complexities and
//! throughput gaps in `O`/`Θ`/`Ω` form). This crate turns simulator
//! measurements into the finite-size evidence the experiment drivers
//! report:
//!
//! * [`stats`] — sample summaries (mean, deviation, confidence
//!   intervals) over repeated seeded trials;
//! * [`fit`] — least-squares fits, including log–log slope estimation
//!   for scaling-shape checks (e.g. "rounds grow linearly in `D`" ↔
//!   slope ≈ 1);
//! * [`throughput`] — coding-gap ratios (Definitions 2–3);
//! * [`table`] — fixed-width and Markdown table rendering for reports;
//! * [`latency`] — mean / p50 / p99 / max latency columns over
//!   per-node delivery-latency samples (the reporting half of the
//!   latency subsystem, DESIGN.md §5);
//! * [`traffic`] — the continuous-traffic injection/drain engine: a
//!   deterministic rate-λ [`traffic::TrafficSource`], the
//!   [`traffic::TrafficWorkload`] protocol plug-in trait, and the
//!   [`traffic::run_traffic`] driver reporting per-message latency,
//!   queue-depth series, and saturation (DESIGN.md §9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod latency;
pub mod stats;
pub mod table;
pub mod throughput;
pub mod traffic;

pub use fit::{linear_fit, log_log_fit, Fit};
pub use latency::{LatencySummary, LATENCY_HEADERS};
pub use stats::{quantile, Summary};
pub use table::Table;
pub use throughput::gap_ratio;
pub use traffic::{
    run_traffic, run_traffic_traced, ThroughputRun, TrafficConfig, TrafficError, TrafficSource,
    TrafficWorkload,
};
