//! Coding substrate for the noisy-radio workspace.
//!
//! The paper's coding schedules use two primitives, both implemented
//! here from scratch:
//!
//! * **Reed–Solomon erasure codes** ([`rs`]): from `k` messages,
//!   generate up to `|F| - 1` coded packets such that *any* `k` of
//!   them reconstruct the originals (used by the star / single-link /
//!   WCT coding schedules, Lemmas 16, 23, 26, 30);
//! * **Random linear network coding** ([`rlnc`]): nodes broadcast
//!   uniformly random `F`-linear combinations of everything they have
//!   received; a node decodes once it has collected `k` linearly
//!   independent combinations (Haeupler, *Analyzing network coding
//!   gossip made easy*; used by the multi-message broadcast algorithms
//!   of Lemmas 12–13).
//!
//! Both are generic over a [`Field`]; [`Gf256`] (GF(2⁸)) covers
//! instances with < 256 packets in flight and [`Gf65536`] (GF(2¹⁶))
//! covers every experiment in this workspace. The field implementations
//! use log/exp tables over the standard primitive polynomials
//! (`x⁸+x⁴+x³+x²+1` and `x¹⁶+x¹²+x³+x+1`).
//!
//! # Example: Reed–Solomon round trip
//!
//! ```
//! use radio_coding::{Gf256, rs::ReedSolomon};
//!
//! // 3 messages of 4 symbols each.
//! let data: Vec<Vec<Gf256>> = vec![
//!     vec![Gf256::new(1), Gf256::new(2), Gf256::new(3), Gf256::new(4)],
//!     vec![Gf256::new(5), Gf256::new(6), Gf256::new(7), Gf256::new(8)],
//!     vec![Gf256::new(9), Gf256::new(10), Gf256::new(11), Gf256::new(12)],
//! ];
//! let rs = ReedSolomon::<Gf256>::new(3).unwrap();
//! // Take packets 0, 5 and 17 — any 3 distinct packets decode.
//! let packets: Vec<_> = [0usize, 5, 17]
//!     .iter()
//!     .map(|&j| (j, rs.packet(&data, j).unwrap()))
//!     .collect();
//! let decoded = rs.decode(&packets).unwrap();
//! assert_eq!(decoded, data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod field;
mod gf256;
mod gf65536;

pub mod matrix;
pub mod rlnc;
pub mod rs;

pub use error::CodingError;
pub use field::Field;
pub use gf256::Gf256;
pub use gf65536::Gf65536;
