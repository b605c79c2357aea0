//! Discrete-round simulator for the (noisy) radio network model of
//! Censor-Hillel, Haeupler, Hershkowitz and Zuzic (PODC 2017), with
//! the erasure extension of their DISC 2019 follow-up.
//!
//! # The model
//!
//! Nodes of an undirected graph communicate in synchronized rounds.
//! Each round every node either *listens* or *broadcasts* a packet to
//! all of its neighbors. A listening node receives a packet **iff
//! exactly one** of its neighbors broadcasts; with zero broadcasting
//! neighbors its slot is empty and with two or more it hears a
//! collision. The engine reports each listener's slot outcome as a
//! [`Reception`]: `Packet`, `Noise` (collision or fault), `Erased`
//! (a detected loss) or `Silence` (empty slot).
//!
//! The loss process is a [`Channel`]:
//!
//! * [`Channel::faultless`] — the classic Chlamtac–Kutten model;
//! * [`Channel::sender`] — each broadcasting node transmits noise
//!   instead of its packet with probability `p`; the transmission
//!   still occupies the channel (it still collides with others);
//! * [`Channel::receiver`] — each would-be delivery independently
//!   becomes noise with probability `p`;
//! * [`Channel::erasure`] — each would-be delivery is independently
//!   *erased* with probability `p` and the listener observes
//!   [`Reception::Erased`]: it learns *that* the slot was lost
//!   (the erasure model of DISC 2019, arXiv:1805.04165).
//!
//! **Model-fidelity contract.** In the paper's noisy model, silence,
//! collisions and faults are indistinguishable to a node (no collision
//! detection). The engine nevertheless reports the *physical* outcome;
//! protocols claiming the noisy model must only match
//! [`Reception::Packet`] and treat everything else identically.
//! Erasure-model protocols may additionally branch on
//! [`Reception::Erased`] — that extra bit is exactly what separates
//! the two models (see `noisy_radio_core::erasure`).
//!
//! # Two execution styles
//!
//! * [`Simulator`] runs *distributed protocols*: each node owns a
//!   [`NodeBehavior`] state machine that decides an [`Action`] per
//!   round and observes a [`Reception`]. This is how Decay, FASTBC,
//!   Robust FASTBC, and the RLNC multi-message algorithms run.
//! * [`adaptive::run_routing`] runs *centralized adaptive routing
//!   schedules* (paper Definition 14): a [`adaptive::RoutingController`]
//!   sees the complete knowledge matrix (which node has which message)
//!   every round and directs all nodes. This is the strong model in
//!   which the paper proves its routing lower bounds.
//!
//! # Latency instrumentation
//!
//! The engine records a per-node [`LatencyProfile`]: the round of each
//! node's first [`Reception::Packet`] and the round its decode
//! completed (behaviors opt in via [`NodeBehavior::decoded`]). The
//! profile is available at any point through
//! [`Simulator::latency_profile`], its aggregates ride on
//! [`SimStats`]/[`RoundReport`]/[`RoundTrace`].
//!
//! # Example
//!
//! ```
//! use netgraph::{generators, NodeId};
//! use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, Simulator};
//!
//! /// Trivial flooding: node 0 always broadcasts "1"; everyone else listens.
//! struct Flood { informed: bool }
//! impl NodeBehavior<u32> for Flood {
//!     fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u32> {
//!         if self.informed && ctx.node == NodeId::new(0) {
//!             Action::Broadcast(1)
//!         } else {
//!             Action::Listen
//!         }
//!     }
//!     fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u32>) {
//!         // Noisy-model discipline: only a packet means anything.
//!         if rx.is_packet() {
//!             self.informed = true;
//!         }
//!     }
//! }
//!
//! let g = generators::path(2);
//! let behaviors = vec![Flood { informed: true }, Flood { informed: false }];
//! let mut sim = Simulator::new(&g, Channel::faultless(), behaviors, 7).unwrap();
//! let report = sim.step();
//! assert_eq!(report.deliveries, 1);
//! assert!(sim.behavior(NodeId::new(1)).informed);
//!
//! // The erasure channel loses the same slots as `Channel::receiver`
//! // under the same seed, but listeners *observe* each loss:
//! let noisy = Channel::erasure(0.5).unwrap();
//! assert_eq!(noisy.to_string(), "erasure(p=0.5)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod bitmat;
mod channel;
mod engine;
mod error;
mod latency;
mod payload;
mod rng;

pub mod adaptive;
pub mod adversary;

pub use action::Action;
pub use adversary::{Adversary, ByzantineNode, Misbehavior};
pub use bitmat::BitMatrix;
pub use channel::{Channel, Reception, ReceptionKind};
pub use engine::{
    Ctx, EngineTelemetry, NodeBehavior, RoundReport, RoundTrace, SimStats, Simulator,
};
pub use error::ModelError;
pub use latency::LatencyProfile;
pub use payload::{AdversarialPayload, Payload};
pub use rng::{fork_rng, fork_seed};
