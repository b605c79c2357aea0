//! The bipartite-layer pipelining schedule (paper §5.1.2, Lemmas
//! 20–21): an adaptive routing schedule achieving `Ω(1/log² n)`
//! throughput on **every** topology, under receiver faults.
//!
//! The BFS layering of the graph from the source decomposes broadcast
//! into bipartite hops `L_i → L_{i+1}`. Layers work `3` apart (layer
//! `i` is active in meta-rounds `≡ i (mod 3)`), so receivers of an
//! active layer never hear broadcasters of another active layer — BFS
//! adjacency only spans one level. Within its activation, a layer
//! pushes its lowest not-yet-delivered message to the next layer with
//! Decay steps; each message costs `O(log² n)` rounds per hop w.h.p.
//! (Lemma 20), and the pipeline overlaps hops so `k` messages cross
//! the whole network in `O((D + k) log² n)` rounds (Lemma 21).
//!
//! On the worst-case topology this schedule is *tight*: Lemma 19 shows
//! `O(1/log² n)` is also an upper bound there, making the worst-case
//! routing throughput `Θ(1/log² n)` (Lemma 22).

use netgraph::bfs::BfsLayers;
use netgraph::{Graph, NodeId};
use radio_model::adaptive::{run_routing, Knowledge, MsgId, RoutingController, RoutingOutcome};
use radio_model::Channel;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::decay::{default_phase_len, DecayNode};
use crate::CoreError;

/// The Lemma 21 controller. Construct with [`BipartitePipeline::new`],
/// then drive it through [`radio_model::adaptive::run_routing`] or the
/// convenience wrapper [`pipeline_routing`].
#[derive(Debug, Clone)]
pub struct BipartitePipeline {
    /// `layers[i]` = nodes at distance `i` from the source.
    layers: Vec<Vec<NodeId>>,
    phase_len: u32,
    /// Rounds per meta-round (one activation window).
    meta_len: u64,
}

impl BipartitePipeline {
    /// Builds the pipeline controller for `graph` from `source`: Decay
    /// phases of `phase_len = ⌈log₂ n⌉ + 1` rounds in meta-rounds of
    /// `3 · phase_len`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the source is out of bounds
    /// or some node is unreachable from it.
    pub fn new(graph: &Graph, source: NodeId) -> Result<Self, CoreError> {
        if source.index() >= graph.node_count() {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "source {source} out of bounds for {} nodes",
                    graph.node_count()
                ),
            });
        }
        let layering = BfsLayers::compute(graph, source);
        if !layering.spans_graph() {
            return Err(CoreError::InvalidParameter {
                reason: "graph is disconnected from the source".into(),
            });
        }
        let layers: Vec<Vec<NodeId>> = (0..layering.layer_count())
            .map(|i| layering.layer(i).to_vec())
            .collect();
        let phase_len = default_phase_len(graph.node_count());
        Ok(BipartitePipeline {
            layers,
            phase_len,
            meta_len: 3 * u64::from(phase_len),
        })
    }

    /// Number of BFS layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The meta-round length in rounds.
    pub fn meta_len(&self) -> u64 {
        self.meta_len
    }

    /// The message layer `i` should push next: the lowest message that
    /// some node of layer `i+1` misses and some node of layer `i` has.
    fn frontier_message(&self, i: usize, knowledge: &Knowledge) -> Option<MsgId> {
        let next = self.layers.get(i + 1)?;
        let k = knowledge.message_count();
        let mut candidate: Option<MsgId> = None;
        for &v in next {
            if let Some(m) = knowledge.first_missing(v) {
                candidate = Some(match candidate {
                    None => m,
                    Some(cur) if m < cur => m,
                    Some(cur) => cur,
                });
                if candidate == Some(MsgId(0)) {
                    break;
                }
            }
        }
        let mut m = candidate?;
        // Advance to the lowest missing message the pushing layer can
        // actually supply.
        while (m.index()) < k {
            if self.layers[i].iter().any(|&u| knowledge.knows(u, m))
                && next.iter().any(|&v| !knowledge.knows(v, m))
            {
                return Some(m);
            }
            m = MsgId(m.0 + 1);
        }
        None
    }
}

impl RoutingController for BipartitePipeline {
    /// Lists each active layer's Decay winners, layer by layer in BFS
    /// order; the runner sorts them by node.
    fn decide(
        &mut self,
        round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        let active_residue = (round / self.meta_len) % 3;
        let p = DecayNode::broadcast_probability(self.phase_len, round);
        for i in 0..self.layers.len().saturating_sub(1) {
            if i as u64 % 3 != active_residue {
                continue;
            }
            let Some(m) = self.frontier_message(i, knowledge) else {
                continue;
            };
            for &u in &self.layers[i] {
                if knowledge.knows(u, m) && rng.gen_bool(p) {
                    senders.push((u, m));
                }
            }
        }
    }
}

/// Convenience wrapper: run the pipeline schedule for `k` messages on
/// `graph` from `source`.
///
/// # Errors
///
/// Propagates construction and simulator errors.
pub fn pipeline_routing(
    graph: &Graph,
    source: NodeId,
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<RoutingOutcome, CoreError> {
    let mut controller = BipartitePipeline::new(graph, source)?;
    Ok(run_routing(
        graph,
        fault,
        source,
        k,
        &mut controller,
        seed,
        max_rounds,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn faultless_path_completes() {
        let g = generators::path(12);
        let out =
            pipeline_routing(&g, NodeId::new(0), 4, Channel::faultless(), 1, 200_000).unwrap();
        assert!(out.rounds.is_some());
    }

    #[test]
    fn receiver_faults_star_completes() {
        let g = generators::star(64);
        let out = pipeline_routing(
            &g,
            NodeId::new(0),
            8,
            Channel::receiver(0.5).unwrap(),
            3,
            1_000_000,
        )
        .unwrap();
        assert!(out.rounds.is_some());
    }

    #[test]
    fn layered_graph_pipelines_under_faults() {
        let g = generators::layered_random(6, 6, 0.3, 5).unwrap();
        let out = pipeline_routing(
            &g,
            NodeId::new(0),
            6,
            Channel::receiver(0.3).unwrap(),
            7,
            2_000_000,
        )
        .unwrap();
        assert!(
            out.rounds.is_some(),
            "pipeline must finish on layered graphs"
        );
    }

    #[test]
    fn throughput_scales_with_k_not_diameter_times_k() {
        // Pipelining: 2k messages over a D-layer graph should cost
        // roughly double k messages, not 2k·D.
        let g = generators::layered_random(8, 4, 0.4, 9).unwrap();
        let rounds = |k: usize| {
            pipeline_routing(
                &g,
                NodeId::new(0),
                k,
                Channel::receiver(0.3).unwrap(),
                11,
                4_000_000,
            )
            .unwrap()
            .rounds
            .unwrap()
        };
        let r8 = rounds(8);
        let r16 = rounds(16);
        assert!(
            (r16 as f64) < 2.8 * r8 as f64,
            "pipelining broken: k=8 took {r8}, k=16 took {r16}"
        );
    }

    #[test]
    fn disconnected_rejected() {
        let g = netgraph::Graph::from_edges(3, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert!(matches!(
            BipartitePipeline::new(&g, NodeId::new(0)),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn layer_count_matches_bfs() {
        let g = generators::path(7);
        let p = BipartitePipeline::new(&g, NodeId::new(0)).unwrap();
        assert_eq!(p.layer_count(), 7);
        assert!(p.meta_len() > 0);
    }
}
