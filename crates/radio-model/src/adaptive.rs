//! Centralized adaptive routing schedules (paper Definition 14).
//!
//! An *adaptive routing schedule* is a sequence of functions — one per
//! round — that sees (i) the entire topology and (ii) every tuple
//! `(u, i)` such that node `u` has received message `m_i` so far, and
//! outputs for each node either *stay silent* or *broadcast a message
//! the node knows*. This is deliberately stronger than any distributed
//! routing algorithm (real algorithms get far less feedback), which
//! makes routing *lower bounds* proved against it — and measured
//! against it here — meaningful.
//!
//! The runner enforces the routing semantics of §3.1: if a controller
//! directs a node to broadcast a message the node has not received,
//! the node stays silent instead.

use netgraph::{Graph, NodeId};
use radio_obs::{PhaseSet, SpanTimer};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::rng::{fork_rng, kept_mask, loss_threshold};
use crate::{BitMatrix, Channel, ModelError};

/// Index of one of the `k` broadcast messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u32);

impl MsgId {
    /// The message index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The global knowledge state: `knows(v, i)` iff node `v` has message
/// `i`. This is exactly the information an adaptive routing schedule
/// is allowed to consult (Definition 14).
///
/// Beside the matrix it keeps, per message, the number of nodes still
/// lacking it, and a cursor at the lowest message some node lacks.
/// Counts only fall, so the cursor only moves forward, and
/// [`Knowledge::all_complete`] and [`Knowledge::lowest_missing`] are
/// O(1).
#[derive(Debug, Clone)]
pub struct Knowledge {
    matrix: BitMatrix,
    /// `missing[m]`: how many nodes still lack message `m`.
    missing: Vec<usize>,
    /// The lowest `m` with `missing[m] > 0`; `k` once all is known.
    lowest: usize,
}

impl Knowledge {
    /// Creates an empty knowledge state for `n` nodes and `k` messages.
    pub fn new(n: usize, k: usize) -> Self {
        let mut knowledge = Knowledge {
            matrix: BitMatrix::new(n, k),
            missing: vec![n; k],
            lowest: 0,
        };
        knowledge.advance();
        knowledge
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of messages `k`.
    pub fn message_count(&self) -> usize {
        self.matrix.cols()
    }

    /// Grants message `m` to node `v`. Returns whether this was new.
    pub fn grant(&mut self, v: NodeId, m: MsgId) -> bool {
        let fresh = self.grant_if(v.index(), m.index(), u64::MAX) == 1;
        self.advance();
        fresh
    }

    /// Grants all messages to `v` (the source's initial state).
    pub fn grant_all(&mut self, v: NodeId) {
        for m in 0..self.message_count() {
            self.grant_if(v.index(), m, u64::MAX);
        }
        self.advance();
    }

    /// Whether node `v` knows message `m`.
    pub fn knows(&self, v: NodeId, m: MsgId) -> bool {
        self.matrix.get(v.index(), m.index())
    }

    /// Number of messages `v` knows.
    pub fn known_count(&self, v: NodeId) -> usize {
        self.matrix.row_count_ones(v.index())
    }

    /// Whether `v` knows all messages.
    pub fn node_complete(&self, v: NodeId) -> bool {
        self.matrix.row_all_ones(v.index())
    }

    /// Whether every node knows every message (broadcast solved).
    pub fn all_complete(&self) -> bool {
        self.lowest == self.missing.len()
    }

    /// The lowest message some node still lacks, if any.
    pub fn lowest_missing(&self) -> Option<MsgId> {
        (!self.all_complete()).then_some(MsgId(self.lowest as u32))
    }

    /// The smallest message index `v` is missing, if any.
    pub fn first_missing(&self, v: NodeId) -> Option<MsgId> {
        self.matrix
            .first_zero_in_row(v.index())
            .map(|c| MsgId(c as u32))
    }

    /// Grants `m` to `v` if `enable` is all ones (0 grants nothing),
    /// without branching; returns 1 if the grant was new, else 0. The
    /// cursor waits for [`Self::advance`].
    #[inline]
    fn grant_if(&mut self, v: usize, m: usize, enable: u64) -> u64 {
        let fresh = self.matrix.set_masked(v, m, enable);
        self.missing[m] -= fresh as usize;
        fresh
    }

    /// Moves the cursor past every message that no node lacks.
    fn advance(&mut self) {
        while self.missing.get(self.lowest) == Some(&0) {
            self.lowest += 1;
        }
    }
}

/// A centralized adaptive routing schedule: sees the topology (however
/// it was captured at construction) and the full [`Knowledge`] each
/// round, and names the round's broadcasters.
pub trait RoutingController {
    /// Appends the broadcasters of round `round` to `senders` as
    /// `(node, message)` pairs, in any order. `senders` arrives empty,
    /// and every node it does not list stays silent.
    ///
    /// A node may be listed once, with a node index below the graph's
    /// node count and a message index below `k`; the runner rejects
    /// anything else with [`ModelError::InvalidSender`]. A listed node
    /// that does not know its message stays silent (§3.1).
    fn decide(
        &mut self,
        round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    );
}

impl<F> RoutingController for F
where
    F: FnMut(u64, &Knowledge, &mut SmallRng, &mut Vec<(NodeId, MsgId)>),
{
    fn decide(
        &mut self,
        round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        self(round, knowledge, rng, senders)
    }
}

/// Outcome of an adaptive-routing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// Rounds until every node had every message, or `None` if the
    /// round budget ran out first.
    pub rounds: Option<u64>,
    /// Total broadcast actions taken (after the knows-it filter).
    pub broadcasts: u64,
    /// Total successful deliveries that granted a *new* message.
    pub fresh_deliveries: u64,
}

/// Runs a [`RoutingController`] on `graph` under `channel` until all
/// nodes know all `k` messages or `max_rounds` elapse.
///
/// `source` initially knows all `k` messages; everyone else knows
/// nothing.
///
/// In this centralized model the controller already sees the full
/// knowledge matrix, so a lost delivery grants nothing whether the
/// channel presents it as noise or as a detected erasure —
/// [`Channel::erasure`] and [`Channel::receiver`] behave identically
/// here (and lose identical slots under the same seed).
///
/// # Errors
///
/// [`ModelError::InvalidSender`] if the controller lists a node twice
/// in one round, a node outside the graph, or a message outside
/// `0..k`.
pub fn run_routing(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
) -> Result<RoutingOutcome, ModelError> {
    run_routing_inner(
        graph, channel, source, k, controller, seed, max_rounds, false,
    )
    .map(|(out, _)| out)
}

/// [`run_routing`] with per-phase wall-clock attribution: returns the
/// outcome together with a [`PhaseSet`] splitting the run between
/// `routing/decide` (the controller's decision, the sender-list checks
/// and the knows-it filter) and `routing/resolve` (fault draws and the
/// delivery sweep), one call tallied per round.
///
/// Timing is observational only: the outcome is bit-identical to
/// [`run_routing`] under the same arguments.
///
/// # Errors
///
/// Same as [`run_routing`].
pub fn run_routing_telemetry(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
) -> Result<(RoutingOutcome, PhaseSet), ModelError> {
    run_routing_inner(
        graph, channel, source, k, controller, seed, max_rounds, true,
    )
}

/// `heard` entry of a node no broadcaster reached.
const SILENT: u32 = u32::MAX;
/// `heard` entry of a broadcaster (half-duplex: it hears nothing).
const SENDING: u32 = u32::MAX - 1;
/// `heard` entry of a listener that heard noise: two or more
/// broadcasters, or one whose sender fault fired. Every smaller entry
/// is the index of the one clean broadcaster in the sender list.
const NOISE: u32 = u32::MAX - 2;

#[allow(clippy::too_many_arguments)]
fn run_routing_inner(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
    timed: bool,
) -> Result<(RoutingOutcome, PhaseSet), ModelError> {
    let n = graph.node_count();
    let mut knowledge = Knowledge::new(n, k);
    knowledge.grant_all(source);
    let mut ctrl_rng = fork_rng(seed, 0);
    let mut fault_rng = fork_rng(seed, 1);
    let sender_fault = channel.sender_fault();
    let delivery_fault = channel.delivery_fault();

    let mut broadcasts = 0u64;
    let mut fresh = 0u64;
    let mut round = 0u64;
    let mut senders: Vec<(NodeId, MsgId)> = Vec::new();
    let mut heard = vec![SILENT; n];
    let mut phases = PhaseSet::new();

    loop {
        if knowledge.all_complete() || round >= max_rounds {
            return Ok((
                RoutingOutcome {
                    rounds: knowledge.all_complete().then_some(round),
                    broadcasts,
                    fresh_deliveries: fresh,
                },
                phases,
            ));
        }
        let decide_timer = SpanTimer::start(timed);
        senders.clear();
        controller.decide(round, &knowledge, &mut ctrl_rng, &mut senders);
        check_senders(&mut senders, round, n, k)?;
        // Routing semantics: broadcasting an unknown message = silence.
        senders.retain(|&(u, m)| knowledge.knows(u, m));
        broadcasts += senders.len() as u64;
        if decide_timer.enabled() {
            phases.add("routing/decide", decide_timer.elapsed_nanos());
        }
        let resolve_timer = SpanTimer::start(timed);
        for &(u, _) in &senders {
            heard[u.index()] = SENDING;
        }
        // Sender faults: one draw per broadcaster, in ascending node
        // order (composed channels contribute their sender-side
        // component). A faulted broadcast still occupies the channel.
        for (j, &(u, _)) in senders.iter().enumerate() {
            let faulted = sender_fault.is_some_and(|p| fault_rng.gen_bool(p));
            let tag = if faulted { NOISE } else { j as u32 };
            // A second broadcaster turns a listener's slot into noise;
            // a broadcaster stays SENDING, the larger sentinel.
            for &v in graph.neighbors(u) {
                let h = &mut heard[v.index()];
                *h = if *h == SILENT { tag } else { (*h).max(NOISE) };
            }
        }
        fresh += match delivery_fault {
            None => deliver(&mut knowledge, &mut heard, &senders, || u64::MAX),
            Some(p) => {
                // A local copy keeps the stream in registers.
                let threshold = loss_threshold(p);
                let mut rng = fault_rng.clone();
                let fresh = deliver(&mut knowledge, &mut heard, &senders, || {
                    kept_mask(rng.next_u64(), threshold)
                });
                fault_rng = rng;
                fresh
            }
        };
        knowledge.advance();
        if resolve_timer.enabled() {
            phases.add("routing/resolve", resolve_timer.elapsed_nanos());
        }
        round += 1;
    }
}

/// Sorts the round's sender list by node and checks that every entry
/// names a distinct node below `n` and a message below `k`.
fn check_senders(
    senders: &mut [(NodeId, MsgId)],
    round: u64,
    n: usize,
    k: usize,
) -> Result<(), ModelError> {
    senders.sort_unstable_by_key(|&(u, _)| u);
    let mut previous = None;
    for &(u, m) in senders.iter() {
        if u.index() >= n || m.index() >= k || previous == Some(u) {
            return Err(ModelError::InvalidSender {
                round,
                node: u.index(),
                message: m.index(),
                nodes: n,
                messages: k,
            });
        }
        previous = Some(u);
    }
    // Sender indices are stored as `u32` below the sentinels.
    assert!(
        senders.len() < NOISE as usize,
        "{} senders overflow the heard index",
        senders.len()
    );
    Ok(())
}

/// The delivery sweep. Visits every node in ascending order and resets
/// its `heard` entry; each clean listener draws one keep mask from
/// `kept` and gets a grant masked by it, so no branch depends on the
/// draw or on whether the message was new. Returns the fresh
/// deliveries.
fn deliver(
    knowledge: &mut Knowledge,
    heard: &mut [u32],
    senders: &[(NodeId, MsgId)],
    mut kept: impl FnMut() -> u64,
) -> u64 {
    let mut fresh = 0;
    for (v, h) in heard.iter_mut().enumerate() {
        let j = std::mem::replace(h, SILENT);
        if j < NOISE {
            let m = senders[j as usize].1;
            fresh += knowledge.grant_if(v, m.index(), kept());
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;
    use proptest::prelude::*;

    /// Controller: the source broadcasts the lowest message some node
    /// is still missing; everyone else is silent. On a star this is
    /// the Lemma 15 schedule.
    struct SourceSweep {
        source: NodeId,
    }

    impl RoutingController for SourceSweep {
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

    #[test]
    fn faultless_star_takes_k_rounds() {
        let g = generators::star(10);
        let mut c = SourceSweep {
            source: NodeId::new(0),
        };
        let out =
            run_routing(&g, Channel::faultless(), NodeId::new(0), 5, &mut c, 3, 1000).unwrap();
        assert_eq!(out.rounds, Some(5));
        assert_eq!(out.broadcasts, 5);
        assert_eq!(out.fresh_deliveries, 50);
    }

    #[test]
    fn receiver_faults_need_about_log_n_rounds_per_message() {
        let n_leaves = 256;
        let g = generators::star(n_leaves);
        let mut c = SourceSweep {
            source: NodeId::new(0),
        };
        let fault = Channel::receiver(0.5).unwrap();
        let k = 20;
        let out = run_routing(&g, fault, NodeId::new(0), k, &mut c, 3, 1_000_000).unwrap();
        let rounds = out.rounds.expect("must complete") as f64;
        let per_msg = rounds / k as f64;
        // E[rounds per message] ≈ log2(256) + O(1) = 8 + O(1).
        assert!(per_msg >= 6.0, "per-message rounds {per_msg} too small");
        assert!(per_msg <= 14.0, "per-message rounds {per_msg} too large");
    }

    #[test]
    fn unknown_message_broadcast_is_silenced() {
        // Controller tells a leaf (which knows nothing) to broadcast:
        // nothing should ever be delivered, and broadcast count stays 0.
        let g = generators::star(2);
        let mut c = |_round: u64,
                     _k: &Knowledge,
                     _rng: &mut SmallRng,
                     senders: &mut Vec<(NodeId, MsgId)>| {
            senders.push((NodeId::new(1), MsgId(0)));
        };
        let out = run_routing(&g, Channel::faultless(), NodeId::new(0), 1, &mut c, 0, 10).unwrap();
        assert_eq!(out.rounds, None);
        assert_eq!(out.broadcasts, 0);
    }

    /// Runs a controller that lists `later` from round 1 on, after the
    /// source sends message 0 alone in round 0, on the path 0–1–2.
    fn run_listing(later: Vec<(NodeId, MsgId)>, k: usize) -> Result<RoutingOutcome, ModelError> {
        let g = generators::path(3);
        let mut c = move |round: u64,
                          _k: &Knowledge,
                          _rng: &mut SmallRng,
                          senders: &mut Vec<(NodeId, MsgId)>| {
            if round == 0 {
                senders.push((NodeId::new(0), MsgId(0)));
            } else {
                senders.extend_from_slice(&later);
            }
        };
        run_routing(&g, Channel::faultless(), NodeId::new(0), k, &mut c, 0, 10)
    }

    #[test]
    fn message_beyond_k_is_rejected_not_granted_elsewhere() {
        // Message 64 with k = 1 used to alias bit 0 of the next node's
        // row: node 1 "knew" it and granted message 0 to node 2, which
        // is not adjacent to the sender.
        assert_eq!(
            run_listing(vec![(NodeId::new(0), MsgId(64))], 1),
            Err(ModelError::InvalidSender {
                round: 1,
                node: 0,
                message: 64,
                nodes: 3,
                messages: 1,
            })
        );
    }

    #[test]
    fn node_outside_the_graph_is_rejected() {
        assert_eq!(
            run_listing(vec![(NodeId::new(3), MsgId(0))], 1),
            Err(ModelError::InvalidSender {
                round: 1,
                node: 3,
                message: 0,
                nodes: 3,
                messages: 1,
            })
        );
    }

    #[test]
    fn node_listed_twice_is_rejected() {
        let twice = vec![
            (NodeId::new(1), MsgId(0)),
            (NodeId::new(0), MsgId(0)),
            (NodeId::new(1), MsgId(1)),
        ];
        let err = run_listing(twice, 2).unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::InvalidSender {
                    round: 1,
                    node: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn collision_between_two_senders_blocks_delivery() {
        // Cycle 0–1–2–3–0, k = 1. Round 0: the source informs nodes 1
        // and 3. From round 1 on, both broadcast, listed in descending
        // order, and node 2 hears a collision every round.
        let g = generators::cycle(4).unwrap();
        let relay = |both: bool| {
            move |round: u64,
                  _k: &Knowledge,
                  _rng: &mut SmallRng,
                  senders: &mut Vec<(NodeId, MsgId)>| {
                if round == 0 {
                    senders.push((NodeId::new(0), MsgId(0)));
                } else {
                    senders.push((NodeId::new(3), MsgId(0)));
                    if both {
                        senders.push((NodeId::new(1), MsgId(0)));
                    }
                }
            }
        };
        let out = run_routing(
            &g,
            Channel::faultless(),
            NodeId::new(0),
            1,
            &mut relay(true),
            0,
            10,
        )
        .unwrap();
        assert_eq!(out.rounds, None);
        assert_eq!(out.broadcasts, 1 + 2 * 9);
        assert_eq!(out.fresh_deliveries, 2);
        // Control: node 3 alone informs node 2 in round 1.
        let out = run_routing(
            &g,
            Channel::faultless(),
            NodeId::new(0),
            1,
            &mut relay(false),
            0,
            10,
        )
        .unwrap();
        assert_eq!(out.rounds, Some(2));
        assert_eq!(out.fresh_deliveries, 3);
    }

    #[test]
    fn knowledge_bookkeeping() {
        let mut k = Knowledge::new(3, 4);
        assert_eq!(k.node_count(), 3);
        assert_eq!(k.message_count(), 4);
        k.grant_all(NodeId::new(0));
        assert!(k.node_complete(NodeId::new(0)));
        assert!(!k.all_complete());
        assert_eq!(k.lowest_missing(), Some(MsgId(0)));
        assert!(k.grant(NodeId::new(1), MsgId(2)));
        assert!(!k.grant(NodeId::new(1), MsgId(2)), "regrant is not fresh");
        assert_eq!(k.known_count(NodeId::new(1)), 1);
        assert_eq!(k.first_missing(NodeId::new(1)), Some(MsgId(0)));
        assert_eq!(k.first_missing(NodeId::new(0)), None);
        for v in 1..3 {
            assert!(k.grant(NodeId::new(v), MsgId(0)));
        }
        assert_eq!(k.lowest_missing(), Some(MsgId(1)));
    }

    #[test]
    fn empty_knowledge_is_complete() {
        for (n, k) in [(0, 0), (0, 5), (4, 0)] {
            let knowledge = Knowledge::new(n, k);
            assert!(knowledge.all_complete(), "n = {n}, k = {k}");
            assert_eq!(knowledge.lowest_missing(), None, "n = {n}, k = {k}");
        }
        assert_eq!(Knowledge::new(1, 1).lowest_missing(), Some(MsgId(0)));
    }

    /// The lowest message some node lacks, by scanning every row.
    fn brute_lowest_missing(k: &Knowledge) -> Option<MsgId> {
        (0..k.node_count())
            .filter_map(|v| k.first_missing(NodeId::from_index(v)))
            .min()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lowest_missing_and_all_complete_match_a_scan(
            n in 0usize..6,
            k in 0usize..71,
            grants in proptest::collection::vec((0usize..6, 0usize..71, any::<bool>()), 0..300),
        ) {
            let mut knowledge = Knowledge::new(n, k);
            for (v, m, all) in grants {
                if v >= n || m >= k {
                    continue;
                }
                if all {
                    knowledge.grant_all(NodeId::from_index(v));
                } else {
                    knowledge.grant(NodeId::from_index(v), MsgId(m as u32));
                }
                let scan = brute_lowest_missing(&knowledge);
                prop_assert_eq!(knowledge.lowest_missing(), scan);
                let complete = (0..n).all(|v| knowledge.node_complete(NodeId::from_index(v)));
                prop_assert_eq!(knowledge.all_complete(), complete);
            }
            prop_assert_eq!(knowledge.lowest_missing(), brute_lowest_missing(&knowledge));
        }
    }

    #[test]
    fn sender_faults_slow_single_link() {
        let g = generators::single_link();
        let fault = Channel::sender(0.5).unwrap();
        let mut c = SourceSweep {
            source: NodeId::new(0),
        };
        let k = 64;
        let out = run_routing(&g, fault, NodeId::new(0), k, &mut c, 9, 100_000).unwrap();
        let rounds = out.rounds.unwrap();
        // Each message takes Geom(1/2) rounds: expect ~2k total, far
        // more than k but far less than 10k.
        assert!(rounds > k as u64, "rounds {rounds} should exceed k={k}");
        assert!(rounds < 6 * k as u64, "rounds {rounds} unexpectedly large");
    }

    #[test]
    fn zero_messages_complete_immediately() {
        let g = generators::single_link();
        let mut c = SourceSweep {
            source: NodeId::new(0),
        };
        let out = run_routing(&g, Channel::faultless(), NodeId::new(0), 0, &mut c, 0, 10).unwrap();
        assert_eq!(out.rounds, Some(0));
    }
}
