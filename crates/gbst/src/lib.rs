//! Ranked BFS trees and gathering-broadcasting spanning trees (GBST).
//!
//! The FASTBC algorithm of Gąsieniec, Peleg and Xin (Distributed
//! Computing 2007) and the Robust FASTBC algorithm of Censor-Hillel,
//! Haeupler, Hershkowitz and Zuzic (PODC 2017, §3.4.2/§4.1) broadcast
//! along a *gathering-broadcasting spanning tree*:
//!
//! * a **ranked BFS tree** is a BFS tree whose nodes carry integral
//!   ranks assigned bottom-up — leaves get rank 1; an internal node
//!   whose maximum child rank is `r` gets rank `r` if exactly one child
//!   attains `r` and rank `r + 1` otherwise. Gaber–Mansour's bound
//!   (paper Lemma 7) gives `r_max ≤ ⌈log₂ n⌉`;
//! * a node is **fast** if one of its tree children has the same rank
//!   (that edge is a *fast edge*); maximal chains of fast edges are
//!   **fast stretches**, along which FASTBC pipelines a message as an
//!   uninterrupted wave;
//! * the **GBST property** guarantees the wave is collision-free: no
//!   fast child may be G-adjacent to a *different* fast node of the
//!   same rank on the same level as its parent (two such nodes
//!   broadcast simultaneously in FASTBC's fast rounds, which would
//!   collide at the child — the dashed yellow edge of the paper's
//!   Figure 1).
//!
//! The paper assumes a GBST is agreed upon beforehand (known-topology
//! model) and gives no construction; [`Gbst::build`] constructs one
//! by (1) assigning parents bottom-up with *same-rank funneling* —
//! children of equal rank are funneled into a shared parent, inflating
//! that parent's rank and thinning out fast nodes — and (2) *demoting*
//! any fast edge that still violates the GBST property to a slow edge.
//! Demotion is always sound (slow edges are served by the Decay rounds
//! interleaved into FASTBC); on the evaluation topologies of this
//! workspace demotions are rare (zero on trees, paths and grids by
//! construction). [`Gbst::validate`] re-checks every structural
//! invariant, and the property-test suite asserts them on random
//! graphs.
//!
//! # Example
//!
//! ```
//! use netgraph::{generators, NodeId};
//! use gbst::Gbst;
//!
//! let g = generators::path(10);
//! let t = Gbst::build(&g, NodeId::new(0)).unwrap();
//! // A path is one long fast stretch of rank-1 nodes.
//! assert_eq!(t.max_rank(), 1);
//! assert_eq!(t.stretches().len(), 1);
//! assert_eq!(t.demoted_count(), 0);
//! t.validate(&g).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod error;
mod tree;

pub use build::ParentStrategy;
pub use error::GbstError;
pub use tree::{FastStretch, Gbst};
