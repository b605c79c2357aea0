//! Graph substrate for radio-network simulation.
//!
//! This crate provides the graph machinery that the rest of the
//! `noisy-radio` workspace builds on:
//!
//! * [`Graph`] — a compact, immutable, undirected graph in CSR
//!   (compressed sparse row) form, built through [`GraphBuilder`];
//! * [`bfs`] — breadth-first layering, distances, and parent forests,
//!   the backbone of every known-topology broadcast algorithm;
//! * [`Bitset`] — word-parallel index sets with ascending range
//!   iteration, the storage behind the engine's sparse round loop;
//! * [`metrics`] — eccentricity, diameter, connectivity, and degree
//!   statistics;
//! * [`generators`] — deterministic and seeded random topology
//!   generators (paths, stars, grids, trees, hypercubes, G(n,p), …);
//! * [`collision`] — the bipartite *collision network* of Ghaffari,
//!   Haeupler and Khabbazian (arXiv:1302.0264), in which at most an
//!   `O(1/log n)` fraction of receivers hear a collision-free packet
//!   per round;
//! * [`wct`] — the *worst-case topology* (WCT) of Censor-Hillel,
//!   Haeupler, Hershkowitz and Zuzic (PODC 2017, Figure 2), obtained by
//!   duplicating each collision-network receiver into a star-like
//!   cluster.
//!
//! # Example
//!
//! ```
//! use netgraph::{generators, metrics, NodeId};
//!
//! let g = generators::path(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(metrics::diameter(&g), Some(7));
//! assert_eq!(g.degree(NodeId::new(0)), 1);
//! assert_eq!(g.degree(NodeId::new(3)), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod node;

pub mod bfs;
pub mod bitset;
pub mod collision;
pub mod generators;
pub mod metrics;
pub mod wct;

pub use bitset::Bitset;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeIter, Graph};
pub use node::NodeId;
