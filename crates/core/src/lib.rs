//! The algorithms of *Broadcasting in Noisy Radio Networks*
//! (Censor-Hillel, Haeupler, Hershkowitz, Zuzic — PODC 2017).
//!
//! This crate is the paper's primary contribution, implemented on top
//! of the workspace substrates ([`netgraph`], [`radio_model`],
//! [`radio_coding`], [`gbst`]):
//!
//! | Module | Paper reference | What it implements |
//! |---|---|---|
//! | [`decay`] | §3.4.1, Lemmas 6 & 9 | The Decay single-message broadcast, robust as-is to both fault models |
//! | [`fastbc`] | §3.4.2, Lemmas 8 & 10 | GBST-based diameter-linear broadcast, fragile under faults |
//! | [`robust_fastbc`] | §4.1, Theorem 11 | The paper's block-pipelined, fault-robust diameter-linear broadcast |
//! | [`repetition`] | §4.1 discussion | Naive robustification baselines (`Θ(log n)` / `Θ(log log n)` repetition) |
//! | [`multi_message`] | §4.2, Lemmas 12–13 | Multi-message broadcast via random linear network coding |
//! | [`schedules`] | §5 & Appendix A | Adaptive routing and Reed–Solomon coding schedules for the star, single link, WCT, and the general bipartite pipeline |
//! | [`traffic`] | §4.2 applied | Continuous-traffic workloads (sequential Decay, Xin–Xia pipeline, generation-batched RLNC) for the injection/drain engine |
//! | [`erasure`] | DISC 2019 follow-up (arXiv:1805.04165) | Erasure-aware NACK feedback protocols that close the noisy-model log factors |
//! | [`consensus`] | Byzantine workloads over §3–4 primitives | Bracha reliable broadcast and Ben-Or binary consensus on the noisy gossip transport |
//! | [`transform`] | §5.2, Lemmas 25–26 | Faultless → sender-fault schedule transformations |
//!
//! # Quick start
//!
//! ```
//! use netgraph::{generators, NodeId};
//! use noisy_radio_core::decay::Decay;
//! use radio_model::Channel;
//!
//! let g = generators::path(32);
//! let run = Decay::default()
//!     .run(&g, NodeId::new(0), Channel::receiver(0.3).unwrap(), 42, 100_000)
//!     .unwrap();
//! assert!(run.completed(), "Decay is robust to receiver faults (Lemma 9)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
#[cfg(test)]
mod opaque;
mod outcome;

pub mod consensus;
pub mod decay;
pub mod erasure;
pub mod experimental;
pub mod fastbc;
pub mod multi_message;
pub mod repetition;
pub mod robust_fastbc;
pub mod schedules;
pub mod tdma;
pub mod traffic;
pub mod transform;

pub use error::CoreError;
pub use outcome::BroadcastRun;
