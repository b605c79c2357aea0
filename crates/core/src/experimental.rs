//! Experimental algorithms beyond the paper.
//!
//! §4.2 closes with an open problem: *"We leave as an open problem the
//! existence of an algorithm that is robust to sender and receiver
//! faults and can broadcast k messages in `O(D + k log n +
//! poly log(n))` — this would be optimal up to additive poly log
//! factors."*
//!
//! [`StreamingRlnc`] is an exploratory candidate: Robust FASTBC's
//! block-gated wave is replaced by an *ungated* mod-3 pipeline — every
//! fast node whose level matches the round residue broadcasts a fresh
//! random linear combination every third even round, and odd rounds
//! run Decay-RLNC as usual. Messages no longer ride one wave at a
//! time; the whole stretch streams combinations continuously, so `k`
//! messages pipeline behind each other at constant spacing.
//!
//! **Caveats (why this does not settle the open problem).** Without
//! block gating, fast nodes of *different ranks* on the same level
//! broadcast simultaneously; the GBST demotion rule only separates
//! same-rank rivals, so on general graphs a fast child adjacent to a
//! different-rank fast node can face systematic fast-round collisions
//! and fall back to the Decay rounds. On trees, paths, grids and other
//! low-rank topologies no such rival exists and the pipeline streams
//! cleanly — the `A3` experiment measures exactly this regime, where
//! the round count tracks `O(D + k/(1−p))`, strictly better than the
//! `Θ(k log n)` of Lemma 12 for large `k`.

use netgraph::{Graph, NodeId};
use radio_coding::rlnc::{CodedPacket, RlncNode};
use radio_coding::Gf256;
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception};

use crate::decay::{default_phase_len, DecayNode};
use crate::multi_message::{check_k, run_rlnc, MultiMessageRun};
use crate::robust_fastbc::RobustFastbcSchedule;
use crate::CoreError;

/// The ungated streaming-RLNC pipeline (see the [module docs](self)).
/// Odd rounds run Decay with the derived phase length `⌈log₂ n⌉ + 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingRlnc {
    /// Payload symbols per message (0 = coefficients only).
    pub payload_len: usize,
}

impl StreamingRlnc {
    /// Runs `k`-message broadcast from `source`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `k` is outside `1..=255`;
    /// [`CoreError::Gbst`] if the GBST cannot be built;
    /// [`CoreError::Model`] from the simulator.
    pub fn run(
        &self,
        graph: &Graph,
        source: NodeId,
        k: usize,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<MultiMessageRun, CoreError> {
        check_k(k)?;
        // Reuse Robust FASTBC's GBST compilation (we only need the
        // fast set and levels).
        let sched = RobustFastbcSchedule::new(graph, source)?;
        let gbst = sched.gbst();
        let n = graph.node_count();
        let phase_len = default_phase_len(n);
        let mut rng = radio_model::fork_rng(seed, 0xA3);
        let messages: Vec<Vec<Gf256>> = (0..k)
            .map(|_| {
                (0..self.payload_len)
                    .map(|_| radio_coding::Field::random(&mut rng))
                    .collect()
            })
            .collect();
        let behaviors: Vec<StreamingNode> = (0..n)
            .map(|i| {
                let v = NodeId::from_index(i);
                StreamingNode {
                    state: if v == source {
                        RlncNode::source(k, self.payload_len, &messages)
                    } else {
                        RlncNode::new(k, self.payload_len)
                    },
                    phase_len,
                    stream_slot: gbst.is_fast(v).then(|| u64::from(gbst.level(v)) % 3),
                }
            })
            .collect();
        run_rlnc(graph, fault, behaviors, seed, max_rounds, &messages, |b| {
            &b.state
        })
    }
}

/// Per-node streaming behavior: ungated mod-3 fast slots + Decay.
#[derive(Debug, Clone)]
struct StreamingNode {
    state: RlncNode<Gf256>,
    phase_len: u32,
    /// `Some(level mod 3)` for fast nodes; `None` for the rest.
    stream_slot: Option<u64>,
}

impl NodeBehavior<CodedPacket<Gf256>> for StreamingNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<CodedPacket<Gf256>> {
        let wants_slot = if ctx.round.is_multiple_of(2) {
            self.stream_slot == Some(ctx.round % 3)
        } else {
            let t = (ctx.round - 1) / 2;
            DecayNode::draw_broadcast(self.phase_len, t, ctx.rng)
        };
        if wants_slot {
            match self.state.random_combination(ctx.rng) {
                Some(packet) => Action::Broadcast(packet),
                None => Action::Listen,
            }
        } else {
            Action::Listen
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<CodedPacket<Gf256>>) {
        if let Reception::Packet(packet) = rx {
            self.state.absorb(packet);
        }
    }

    fn decoded(&self) -> bool {
        self.state.can_decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_message::DecayRlnc;
    use netgraph::generators;

    #[test]
    fn completes_on_noisy_path_with_verified_payloads() {
        let g = generators::path(64);
        let out = StreamingRlnc { payload_len: 2 }
            .run(
                &g,
                NodeId::new(0),
                8,
                Channel::receiver(0.3).unwrap(),
                3,
                5_000_000,
            )
            .unwrap();
        assert!(out.run.completed());
        assert!(out.decoded_ok);
    }

    #[test]
    fn completes_on_trees_and_grids_under_both_fault_kinds() {
        for g in [
            generators::balanced_tree(2, 5).unwrap(),
            generators::grid(8, 8),
        ] {
            for fault in [
                Channel::sender(0.3).unwrap(),
                Channel::receiver(0.3).unwrap(),
            ] {
                let out = StreamingRlnc { payload_len: 0 }
                    .run(&g, NodeId::new(0), 6, fault, 5, 5_000_000)
                    .unwrap();
                assert!(out.run.completed(), "stalled under {fault}");
                assert!(out.decoded_ok);
            }
        }
    }

    #[test]
    fn beats_decay_rlnc_for_large_k_on_long_paths() {
        // The open-problem regime: D and k both large, low-rank
        // topology. Streaming pays ~O(D + k); Decay-RLNC pays
        // Θ((D + k) log n).
        let g = generators::path(128);
        let fault = Channel::receiver(0.3).unwrap();
        let k = 48;
        let streaming = StreamingRlnc { payload_len: 0 }
            .run(&g, NodeId::new(0), k, fault, 7, 50_000_000)
            .unwrap()
            .run
            .rounds_used();
        let decay = DecayRlnc { payload_len: 0 }
            .run(&g, NodeId::new(0), k, fault, 7, 50_000_000)
            .unwrap()
            .run
            .rounds_used();
        assert!(
            streaming < decay,
            "streaming ({streaming}) should beat Decay-RLNC ({decay}) at k = {k}"
        );
    }

    #[test]
    fn k_bounds_enforced() {
        let g = generators::path(4);
        assert!(StreamingRlnc::default()
            .run(&g, NodeId::new(0), 0, Channel::faultless(), 0, 10)
            .is_err());
        assert!(StreamingRlnc::default()
            .run(&g, NodeId::new(0), 256, Channel::faultless(), 0, 10)
            .is_err());
    }
}
