//! Adaptive routing and coding schedules (paper §5 and Appendix A).
//!
//! The throughput-gap results compare, per topology, the best routing
//! schedule the paper's strong adaptive model allows (Definition 14)
//! with Reed–Solomon-style coding schedules:
//!
//! | Module | Topology | Paper claims |
//! |---|---|---|
//! | [`star`] | star | routing `Θ(1/log n)` (Lemma 15) vs coding `Θ(1)` (Lemma 16) ⇒ `Θ(log n)` gap (Theorem 17) |
//! | [`single_link`] | two nodes, one edge | non-adaptive routing `Θ(1/log k)` (Lemma 29), coding `Θ(1)` (Lemma 30), adaptive routing `Θ(1)` (Lemma 32) |
//! | [`pipeline`] | any graph | adaptive routing `Ω(1/log² n)` via BFS-layer batch pipelining (Lemmas 20–21) |
//! | [`wct`] | worst-case topology (Figure 2) | routing `Θ(1/log² n)` (Lemma 19) vs coding `Θ(1/log n)` (Lemma 23) ⇒ worst-case gap `Θ(log n)` (Theorem 24) |
//! | [`latency`] | mesh / any graph | Xin–Xia (arXiv:1709.01494) layer-pipelined broadcast: per-node latency `O(d)` instead of Decay's `O(d log n)` |

pub mod latency;
pub mod pipeline;
pub mod single_link;
pub mod star;
pub mod wct;

use netgraph::NodeId;
use radio_model::adaptive::{Knowledge, MsgId, RoutingController};
use rand::rngs::SmallRng;

/// The sequential source schedule of Lemmas 15 and 32: the source
/// broadcasts the lowest-indexed message some node is still missing,
/// and keeps broadcasting it until everyone has it.
///
/// On the star this is the `Θ(1/log n)`-throughput adaptive routing
/// schedule of Lemma 15; on the single link it is the
/// `Θ(1)`-throughput schedule of Lemma 32.
#[derive(Debug, Clone, Copy)]
pub struct SequentialSourceController {
    /// The broadcasting source.
    pub source: NodeId,
}

impl RoutingController for SequentialSourceController {
    fn decide(
        &mut self,
        _round: u64,
        knowledge: &Knowledge,
        _rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        senders.extend(knowledge.lowest_missing().map(|m| (self.source, m)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;
    use radio_model::adaptive::run_routing;
    use radio_model::Channel;

    #[test]
    fn sequential_source_on_faultless_star_uses_k_rounds() {
        let g = generators::star(16);
        let mut c = SequentialSourceController {
            source: NodeId::new(0),
        };
        let out =
            run_routing(&g, Channel::faultless(), NodeId::new(0), 8, &mut c, 1, 1000).unwrap();
        assert_eq!(out.rounds, Some(8));
    }
}
