//! Multi-message broadcast via random linear network coding
//! (paper §4.2, Lemmas 12–13).
//!
//! A fault-robust single-message schedule is lifted to `k` messages in
//! a black-box way: whenever the schedule gives a node a broadcast
//! slot, the node transmits a **uniformly random linear combination**
//! of everything it has received (the source holds all `k` messages
//! from the start). A node has all messages once it accumulates `k`
//! independent combinations (see [`radio_coding::rlnc`]).
//!
//! * [`DecayRlnc`] — Decay slots; `O(D log n + k log n + log² n)`
//!   rounds under faults, i.e. throughput `Ω(1/log n)` (Lemma 12);
//! * [`RobustFastbcRlnc`] — Robust FASTBC slots;
//!   `O(D + k log n log log n + log² n log log n)` rounds, throughput
//!   `Ω(1/(log n log log n))` (Lemma 13).
//!
//! Both behaviors are *oblivious* in the sense required by the paper's
//! black-box lemma: the broadcast pattern never depends on receptions
//! (a node with nothing to send simply emits silence in its slot).

use netgraph::{Graph, NodeId};
use radio_coding::rlnc::{CodedPacket, RlncNode};
use radio_coding::{Field, Gf256};
use radio_model::{Action, Channel, Ctx, LatencyProfile, NodeBehavior, Reception, Simulator};

use crate::decay::{default_phase_len, DecayNode};
use crate::robust_fastbc::{BlockTiming, RobustFastbcSchedule};
use crate::{BroadcastRun, CoreError};

/// Outcome of a multi-message run: the broadcast result, the decoded
/// payload check, and the per-node latency profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiMessageRun {
    /// Rounds/stats of the run.
    pub run: BroadcastRun,
    /// Whether every node's decoded messages matched the source's
    /// (always checked when the run completes; `false` only flags a
    /// coding bug, never a channel fault).
    pub decoded_ok: bool,
    /// Per-node rounds: `first_packet` is the round a node first heard
    /// *any* combination, `decode_complete` the round its decoder
    /// reached full rank `k` (the `can_decode`-driven decode latency
    /// the E6/E7 tables report).
    pub profile: LatencyProfile,
}

fn random_messages(k: usize, payload_len: usize, seed: u64) -> Vec<Vec<Gf256>> {
    let mut rng = radio_model::fork_rng(seed, 0xC0DE);
    (0..k)
        .map(|_| (0..payload_len).map(|_| Gf256::random(&mut rng)).collect())
        .collect()
}

pub(crate) fn check_k(k: usize) -> Result<(), CoreError> {
    if k == 0 || k > 255 {
        return Err(CoreError::InvalidParameter {
            reason: format!("k = {k} outside supported range 1..=255 (GF(256) coefficients)"),
        });
    }
    Ok(())
}

/// The shared run body of every RLNC variant: run until every node's
/// decoder has full rank (the `can_decode`-driven [`NodeBehavior::decoded`]
/// hook records per-node decode rounds in the [`LatencyProfile`]), then
/// verify the decoded payloads against the source's.
pub(crate) fn run_rlnc<B>(
    graph: &Graph,
    fault: Channel,
    behaviors: Vec<B>,
    seed: u64,
    max_rounds: u64,
    messages: &[Vec<Gf256>],
    state: impl Fn(&B) -> &RlncNode<Gf256>,
) -> Result<MultiMessageRun, CoreError>
where
    B: NodeBehavior<CodedPacket<Gf256>>,
{
    let mut sim = Simulator::new(graph, fault, behaviors, seed)?;
    let rounds = sim.run_until(max_rounds, |bs| bs.iter().all(|b| state(b).can_decode()));
    let stats = *sim.stats();
    let decoded_ok = rounds.is_some()
        && sim
            .behaviors()
            .iter()
            .all(|b| state(b).decode().map(|d| d == messages).unwrap_or(false));
    Ok(MultiMessageRun {
        run: BroadcastRun { rounds, stats },
        decoded_ok,
        profile: sim.latency_profile(),
    })
}

/// Decay-slotted RLNC multi-message broadcast (Lemma 12), with the
/// derived phase length `⌈log₂ n⌉ + 1`.
///
/// # Example
///
/// ```
/// use netgraph::{generators, NodeId};
/// use noisy_radio_core::multi_message::DecayRlnc;
/// use radio_model::Channel;
///
/// let g = generators::path(8);
/// let out = DecayRlnc::default()
///     .run(&g, NodeId::new(0), 4, Channel::receiver(0.2).unwrap(), 7, 200_000)
///     .unwrap();
/// assert!(out.run.completed());
/// assert!(out.decoded_ok);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecayRlnc {
    /// Payload symbols per message (0 = track coefficients only,
    /// fastest; > 0 = carry and verify real payloads).
    pub payload_len: usize,
}

impl DecayRlnc {
    /// Runs `k`-message broadcast from `source`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `k` is outside `1..=255` or
    /// the source is out of bounds; [`CoreError::Model`] from the
    /// simulator.
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
        let n = graph.node_count();
        if source.index() >= n {
            return Err(CoreError::InvalidParameter {
                reason: format!("source {source} out of bounds for {n} nodes"),
            });
        }
        let phase_len = default_phase_len(n);
        let messages = random_messages(k, self.payload_len, seed);
        let behaviors: Vec<RlncDecayNode> = (0..n)
            .map(|i| RlncDecayNode {
                state: if i == source.index() {
                    RlncNode::source(k, self.payload_len, &messages)
                } else {
                    RlncNode::new(k, self.payload_len)
                },
                phase_len,
            })
            .collect();
        run_rlnc(graph, fault, behaviors, seed, max_rounds, &messages, |b| {
            &b.state
        })
    }
}

/// Per-node behavior: Decay timing, RLNC payload.
#[derive(Debug, Clone)]
struct RlncDecayNode {
    state: RlncNode<Gf256>,
    phase_len: u32,
}

impl NodeBehavior<CodedPacket<Gf256>> for RlncDecayNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<CodedPacket<Gf256>> {
        if DecayNode::draw_broadcast(self.phase_len, ctx.round, ctx.rng) {
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

/// Robust-FASTBC-slotted RLNC multi-message broadcast (Lemma 13), on
/// the schedule [`RobustFastbcSchedule::new`] compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustFastbcRlnc {
    /// Payload symbols per message (see [`DecayRlnc::payload_len`]).
    pub payload_len: usize,
}

impl RobustFastbcRlnc {
    /// Runs `k`-message broadcast from `source`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on bad `k`;
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
        let sched = RobustFastbcSchedule::new(graph, source)?;
        let gbst = sched.gbst();
        let n = graph.node_count();
        let messages = random_messages(k, self.payload_len, seed);
        let phase_len = sched.phase_len();
        let behaviors: Vec<RlncRobustNode> = (0..n)
            .map(|i| {
                let v = NodeId::from_index(i);
                RlncRobustNode {
                    state: if v == source {
                        RlncNode::source(k, self.payload_len, &messages)
                    } else {
                        RlncNode::new(k, self.payload_len)
                    },
                    phase_len,
                    slot: gbst.is_fast(v).then(|| sched.timing(v)),
                }
            })
            .collect();
        run_rlnc(graph, fault, behaviors, seed, max_rounds, &messages, |b| {
            &b.state
        })
    }
}

/// Per-node behavior: Robust FASTBC timing, RLNC payload.
#[derive(Debug, Clone)]
struct RlncRobustNode {
    state: RlncNode<Gf256>,
    phase_len: u32,
    slot: Option<BlockTiming>,
}

impl NodeBehavior<CodedPacket<Gf256>> for RlncRobustNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<CodedPacket<Gf256>> {
        let wants_slot = if ctx.round.is_multiple_of(2) {
            matches!(self.slot, Some(slot) if slot.matches(ctx.round))
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
    use netgraph::generators;

    #[test]
    fn decay_rlnc_small_path() {
        let g = generators::path(6);
        let out = DecayRlnc { payload_len: 2 }
            .run(&g, NodeId::new(0), 3, Channel::faultless(), 1, 100_000)
            .unwrap();
        assert!(out.run.completed());
        assert!(out.decoded_ok);
    }

    #[test]
    fn decay_rlnc_star_with_receiver_faults() {
        let g = generators::star(32);
        let out = DecayRlnc { payload_len: 1 }
            .run(
                &g,
                NodeId::new(0),
                16,
                Channel::receiver(0.5).unwrap(),
                3,
                1_000_000,
            )
            .unwrap();
        assert!(
            out.run.completed(),
            "Lemma 12: coding throughput Ω(1/log n) on the star"
        );
        assert!(out.decoded_ok);
    }

    #[test]
    fn decay_rlnc_gnp_sender_faults() {
        let g = generators::gnp_connected(48, 0.1, 5).unwrap();
        let out = DecayRlnc { payload_len: 0 }
            .run(
                &g,
                NodeId::new(0),
                8,
                Channel::sender(0.3).unwrap(),
                7,
                1_000_000,
            )
            .unwrap();
        assert!(out.run.completed());
        assert!(
            out.decoded_ok,
            "payload-free runs still decode (empty payloads)"
        );
    }

    #[test]
    fn robust_fastbc_rlnc_path() {
        let g = generators::path(48);
        let out = RobustFastbcRlnc { payload_len: 1 }
            .run(
                &g,
                NodeId::new(0),
                6,
                Channel::receiver(0.3).unwrap(),
                11,
                2_000_000,
            )
            .unwrap();
        assert!(
            out.run.completed(),
            "Lemma 13 variant must complete under faults"
        );
        assert!(out.decoded_ok);
    }

    #[test]
    fn robust_fastbc_rlnc_tree_faultless() {
        let g = generators::balanced_tree(2, 5).unwrap();
        let out = RobustFastbcRlnc { payload_len: 2 }
            .run(&g, NodeId::new(0), 5, Channel::faultless(), 13, 2_000_000)
            .unwrap();
        assert!(out.run.completed());
        assert!(out.decoded_ok);
    }

    #[test]
    fn k_bounds_enforced() {
        let g = generators::path(4);
        for k in [0usize, 256] {
            assert!(matches!(
                DecayRlnc::default().run(&g, NodeId::new(0), k, Channel::faultless(), 0, 10),
                Err(CoreError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn bad_source_rejected() {
        let g = generators::path(4);
        assert!(matches!(
            DecayRlnc::default().run(&g, NodeId::new(9), 2, Channel::faultless(), 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn k_equals_one_decode_matches_first_packet() {
        // k = 1 edge case: one nonzero combination is the message, so
        // every non-source node's decode completes the round it first
        // hears a packet (random_combination never emits the zero
        // vector), and the source decodes at construction.
        let g = generators::path(8);
        let out = DecayRlnc { payload_len: 1 }
            .run(
                &g,
                NodeId::new(0),
                1,
                Channel::receiver(0.4).unwrap(),
                3,
                1_000_000,
            )
            .unwrap();
        let profile = &out.profile;
        assert!(out.run.completed() && out.decoded_ok);
        assert_eq!(profile.decode_complete(NodeId::new(0)), Some(0));
        for i in 1..8u32 {
            let v = NodeId::new(i);
            assert_eq!(
                profile.decode_complete(v),
                profile.first_packet(v),
                "k = 1 decode must land with the first packet at {v}"
            );
        }
    }

    #[test]
    fn k_larger_than_n_completes_with_full_decode_profile() {
        // k > n edge case: more messages than nodes; rank must still
        // reach k everywhere and every decode round is recorded no
        // earlier than the node's first packet.
        let g = generators::path(4);
        let out = DecayRlnc { payload_len: 0 }
            .run(&g, NodeId::new(0), 8, Channel::faultless(), 5, 1_000_000)
            .unwrap();
        let profile = &out.profile;
        assert!(out.run.completed() && out.decoded_ok);
        assert_eq!(profile.decoded_count(), 4);
        for i in 1..4u32 {
            let v = NodeId::new(i);
            let first = profile.first_packet(v).expect("served");
            let decode = profile.decode_complete(v).expect("decoded");
            assert!(decode >= first, "rank k needs ≥ k receptions at {v}");
            assert!(decode < out.run.rounds_used());
        }
    }

    #[test]
    fn decode_rounds_are_monotone_in_k() {
        // The `can_decode`-driven decode hook: accumulating rank k
        // takes longer for larger k, so the mean decode latency is
        // nondecreasing in k (averaged over seeds to tame variance).
        let g = generators::path(8);
        let mean_decode = |k: usize| {
            let (mut total, mut count) = (0u64, 0u64);
            for seed in 0..4 {
                let out = DecayRlnc { payload_len: 0 }
                    .run(
                        &g,
                        NodeId::new(0),
                        k,
                        Channel::receiver(0.3).unwrap(),
                        seed,
                        1_000_000,
                    )
                    .unwrap();
                let profile = &out.profile;
                assert!(out.run.completed(), "k = {k} seed {seed}");
                let lats = profile.decode_latencies();
                total += lats.iter().sum::<u64>();
                count += lats.len() as u64;
            }
            total as f64 / count as f64
        };
        let (m2, m8, m32) = (mean_decode(2), mean_decode(8), mean_decode(32));
        assert!(
            m2 <= m8 && m8 <= m32,
            "decode latency must grow with k: {m2} → {m8} → {m32}"
        );
        assert!(m2 < m32, "k = 32 must be strictly slower than k = 2");
    }

    #[test]
    fn robust_fastbc_rlnc_profiled_populates_decode_rounds() {
        let g = generators::path(24);
        let out = RobustFastbcRlnc { payload_len: 0 }
            .run(
                &g,
                NodeId::new(0),
                4,
                Channel::receiver(0.3).unwrap(),
                7,
                2_000_000,
            )
            .unwrap();
        let profile = &out.profile;
        assert!(out.run.completed());
        assert_eq!(profile.decoded_count(), 24);
        assert!(profile
            .decode_latencies()
            .iter()
            .all(|&l| l <= out.run.rounds_used()));
    }

    #[test]
    fn rounds_scale_roughly_linearly_in_k() {
        // Lemma 12 shape: k log n + D log n; doubling k from a
        // k-dominant regime should not much more than double rounds.
        let g = generators::star(64);
        let run = |k: usize| {
            DecayRlnc { payload_len: 0 }
                .run(
                    &g,
                    NodeId::new(0),
                    k,
                    Channel::receiver(0.5).unwrap(),
                    21,
                    4_000_000,
                )
                .unwrap()
                .run
                .rounds_used()
        };
        let r32 = run(32);
        let r64 = run(64);
        let ratio = r64 as f64 / r32 as f64;
        assert!(
            (1.2..3.4).contains(&ratio),
            "rounds should scale ~linearly in k: {r32} -> {r64} (ratio {ratio})"
        );
    }
}
