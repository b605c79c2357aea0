//! Differential test of the adaptive-routing runner against a copy of
//! the dense runner it replaced.
//!
//! The runner resolves each round from the controller's sparse sender
//! list with the engine's reach pass, then draws losses and grants 64
//! listeners at a time, with integer loss draws and a grant only for
//! each delivered listener. The reference below scans every listener's
//! neighbours and draws with `gen_bool`, as the runner once did. Both
//! must agree on the outcome and on the knowledge state in every round,
//! over random graphs, some past one 64-node bitset word, channels,
//! message counts across a word boundary, and controllers that list
//! random nodes in random order with known and unknown messages, or
//! all with the one lowest missing message (the runner's word-at-a-time
//! single-message path), or the two by turns. Stars of up to 3,000
//! leaves carry the single-message path's skipped draws far enough to
//! use the fault stream's jump tables up to level 5.

use netgraph::{generators, Graph, NodeId};
use proptest::prelude::*;
use radio_model::adaptive::{run_routing, Knowledge, MsgId, RoutingController, RoutingOutcome};
use radio_model::{fork_rng, Channel};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// FNV-1a over every `knows(v, m)` bit (the per-message columns), every
/// node's `first_missing` and `node_complete` (its row), plus the O(1)
/// summaries.
fn digest(knowledge: &Knowledge) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in (0..knowledge.node_count()).map(NodeId::from_index) {
        for m in 0..knowledge.message_count() {
            mix(u64::from(knowledge.knows(v, MsgId(m as u32))));
        }
        mix(knowledge
            .first_missing(v)
            .map_or(u64::MAX, |m| u64::from(m.0)));
        mix(u64::from(knowledge.node_complete(v)));
    }
    mix(knowledge
        .lowest_missing()
        .map_or(u64::MAX, |m| u64::from(m.0)));
    mix(u64::from(knowledge.all_complete()));
    h
}

/// Lists each node with probability `rate`, shuffled. A listed node
/// gets any message a quarter of the time; another quarter, the lowest
/// message someone still lacks if it knows that one, so that runs also
/// finish; otherwise a message it knows. Records the knowledge digest
/// of every round it is asked about.
struct RandomLister {
    rate: f64,
    digests: Vec<u64>,
}

impl RoutingController for RandomLister {
    fn decide(
        &mut self,
        _round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        self.digests.push(digest(knowledge));
        let k = knowledge.message_count() as u32;
        let mut nodes: Vec<NodeId> = (0..knowledge.node_count())
            .map(NodeId::from_index)
            .filter(|_| rng.gen_bool(self.rate))
            .collect();
        nodes.shuffle(rng);
        let lowest = knowledge.lowest_missing();
        for u in nodes {
            let known: Vec<u32> = (0..k).filter(|&m| knowledge.knows(u, MsgId(m))).collect();
            let m = match (rng.gen_range(0..4), lowest) {
                (0, _) => MsgId(rng.gen_range(0..k)),
                (1, Some(m)) if knowledge.knows(u, m) => m,
                _ => MsgId(
                    known
                        .choose(rng)
                        .copied()
                        .unwrap_or_else(|| rng.gen_range(0..k)),
                ),
            };
            senders.push((u, m));
        }
    }
}

/// Lists each node with probability `rate`, shuffled, every one with
/// the lowest message someone still lacks, so that every round has a
/// single message on air (and listed nodes that lack it stay silent).
/// Records the knowledge digest of every round it is asked about.
struct LowestLister {
    rate: f64,
    digests: Vec<u64>,
}

impl RoutingController for LowestLister {
    fn decide(
        &mut self,
        _round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        self.digests.push(digest(knowledge));
        let Some(m) = knowledge.lowest_missing() else {
            return;
        };
        let mut nodes: Vec<NodeId> = (0..knowledge.node_count())
            .map(NodeId::from_index)
            .filter(|_| rng.gen_bool(self.rate))
            .collect();
        nodes.shuffle(rng);
        senders.extend(nodes.into_iter().map(|u| (u, m)));
    }
}

/// The centre (node 0) with the lowest message someone still lacks,
/// plus each other node with probability `rate`, shuffled: on a star,
/// a single-message round every round in which the centre knows that
/// message. Records the knowledge digest of every round it is asked
/// about.
struct CentreLister {
    rate: f64,
    digests: Vec<u64>,
}

impl RoutingController for CentreLister {
    fn decide(
        &mut self,
        _round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        self.digests.push(digest(knowledge));
        let Some(m) = knowledge.lowest_missing() else {
            return;
        };
        let mut nodes: Vec<NodeId> = (1..knowledge.node_count())
            .map(NodeId::from_index)
            .filter(|_| rng.gen_bool(self.rate))
            .chain([NodeId::new(0)])
            .collect();
        nodes.shuffle(rng);
        senders.extend(nodes.into_iter().map(|u| (u, m)));
    }
}

/// A [`LowestLister`] round, then a [`RandomLister`] round, and so on.
/// Without sender faults the single-message rounds' reach pass leaves
/// `heard_from` unwritten, so the mixed rounds after them run on
/// entries a skipped round left stale; with sender faults every round
/// reads them. Records the knowledge digest of every round.
struct TakingTurns {
    lowest: LowestLister,
    random: RandomLister,
}

impl TakingTurns {
    fn new(rate: f64) -> Self {
        TakingTurns {
            lowest: LowestLister {
                rate,
                digests: Vec::new(),
            },
            random: RandomLister {
                rate,
                digests: Vec::new(),
            },
        }
    }
}

impl RoutingController for TakingTurns {
    fn decide(
        &mut self,
        round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        senders: &mut Vec<(NodeId, MsgId)>,
    ) {
        if round.is_multiple_of(2) {
            self.lowest.decide(round, knowledge, rng, senders);
        } else {
            self.random.decide(round, knowledge, rng, senders);
        }
    }
}

/// The dense runner the sparse one replaced: the controller's list
/// becomes an n-length action vector, every listener scans its
/// neighbours, and losses are `gen_bool` draws. Completion is a scan.
fn reference_run(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
) -> RoutingOutcome {
    let n = graph.node_count();
    let mut knowledge = Knowledge::new(n, k).unwrap();
    knowledge.grant_all(source);
    let mut ctrl_rng = fork_rng(seed, 0);
    let mut fault_rng = fork_rng(seed, 1);
    let sender_fault = channel.sender_fault();
    let delivery_fault = channel.delivery_fault();

    let mut broadcasts = 0u64;
    let mut fresh = 0u64;
    let mut round = 0u64;
    let mut sending: Vec<Option<MsgId>> = vec![None; n];
    let mut list = Vec::new();
    loop {
        if (0..n).all(|v| knowledge.node_complete(NodeId::from_index(v))) {
            return RoutingOutcome {
                rounds: Some(round),
                broadcasts,
                fresh_deliveries: fresh,
            };
        }
        if round >= max_rounds {
            return RoutingOutcome {
                rounds: None,
                broadcasts,
                fresh_deliveries: fresh,
            };
        }
        list.clear();
        controller.decide(round, &knowledge, &mut ctrl_rng, &mut list);
        let mut actions = vec![None; n];
        for &(u, m) in &list {
            actions[u.index()] = Some(m);
        }
        for (i, action) in actions.iter().enumerate() {
            sending[i] = match *action {
                Some(m) if knowledge.knows(NodeId::from_index(i), m) => {
                    broadcasts += 1;
                    Some(m)
                }
                _ => None,
            };
        }
        let mut sender_ok = vec![true; n];
        if let Some(p) = sender_fault {
            for (i, s) in sending.iter().enumerate() {
                if s.is_some() && fault_rng.gen_bool(p) {
                    sender_ok[i] = false;
                }
            }
        }
        for i in 0..n {
            if sending[i].is_some() {
                continue;
            }
            let v = NodeId::from_index(i);
            let mut tx: Option<NodeId> = None;
            let mut count = 0;
            for &u in graph.neighbors(v) {
                if sending[u.index()].is_some() {
                    count += 1;
                    if count > 1 {
                        break;
                    }
                    tx = Some(u);
                }
            }
            if count == 1 {
                let s = tx.expect("count == 1 implies a sender");
                if !sender_ok[s.index()] {
                    continue;
                }
                if delivery_fault.is_some_and(|p| fault_rng.gen_bool(p)) {
                    continue;
                }
                let m = sending[s.index()].expect("sender has a message");
                if knowledge.grant(v, m) {
                    fresh += 1;
                }
            }
        }
        round += 1;
    }
}

/// Small graphs of every family, and paths, stars and grids past one
/// 64-node bitset word, so that the runner's loss draws, grants and
/// per-message counts cross word boundaries.
fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (1usize..30).prop_map(generators::path),
        (0usize..30).prop_map(generators::star),
        (1usize..6, 1usize..6).prop_map(|(r, c)| generators::grid(r, c)),
        (2usize..30, 0.05..0.5f64, any::<u64>())
            .prop_map(|(n, p, seed)| generators::gnp_connected(n, p, seed).unwrap()),
        (60usize..201).prop_map(generators::path),
        (60usize..301).prop_map(generators::star),
        (6usize..13, 6usize..13).prop_map(|(r, c)| generators::grid(r, c)),
    ]
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::faultless()),
        (0.0..0.9f64).prop_map(|p| Channel::sender(p).unwrap()),
        (0.0..0.9f64).prop_map(|p| Channel::receiver(p).unwrap()),
        (0.0..0.9f64).prop_map(|p| Channel::erasure(p).unwrap()),
        (0.0..0.6f64, 0.0..0.6f64).prop_map(|(s, d)| Channel::sender(s)
            .unwrap()
            .compose(Channel::receiver(d).unwrap())
            .unwrap()),
        (0.0..0.6f64, 0.0..0.6f64).prop_map(|(s, d)| Channel::sender(s)
            .unwrap()
            .compose(Channel::erasure(d).unwrap())
            .unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_runner_matches_the_dense_reference(
        graph in arb_graph(),
        channel in arb_channel(),
        // Half the cases take few messages, so that runs also finish.
        k in prop_oneof![0usize..4, 0usize..71],
        rate in 0.05..0.6f64,
        source_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let source = NodeId::from_index(source_pick as usize % graph.node_count());
        let max_rounds = 200;
        let mut sparse = RandomLister { rate, digests: Vec::new() };
        let out = run_routing(&graph, channel, source, k, &mut sparse, seed, max_rounds)
            .expect("the lister only names valid senders");
        let mut dense = RandomLister { rate, digests: Vec::new() };
        let want = reference_run(&graph, channel, source, k, &mut dense, seed, max_rounds);
        prop_assert_eq!(out, want);
        prop_assert_eq!(sparse.digests, dense.digests);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-message rounds on stars past one 64-node word: the centre
    /// and random leaves all send the lowest missing message, so the
    /// centre hears collisions and the leaves the centre's packet, its
    /// sender faults and their own losses.
    #[test]
    fn single_message_rounds_match_the_dense_reference(
        graph in prop_oneof![(65usize..301).prop_map(generators::star), arb_graph()],
        channel in arb_channel(),
        k in prop_oneof![1usize..4, 1usize..71],
        rate in 0.01..0.5f64,
        source_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let source = NodeId::from_index(source_pick as usize % graph.node_count());
        let max_rounds = 200;
        let mut sparse = LowestLister { rate, digests: Vec::new() };
        let out = run_routing(&graph, channel, source, k, &mut sparse, seed, max_rounds)
            .expect("the lister only names valid senders");
        let mut dense = LowestLister { rate, digests: Vec::new() };
        let want = reference_run(&graph, channel, source, k, &mut dense, seed, max_rounds);
        prop_assert_eq!(out, want);
        prop_assert_eq!(sparse.digests, dense.digests);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-message and mixed rounds by turns, on graphs past one
    /// 64-node word: a mixed round must not read a broadcaster that a
    /// single-message round before it left in `heard_from`.
    #[test]
    fn rounds_taking_turns_match_the_dense_reference(
        graph in prop_oneof![
            (65usize..201, 0.01..0.1f64, any::<u64>())
                .prop_map(|(n, p, seed)| generators::gnp_connected(n, p, seed).unwrap()),
            (9usize..13, 8usize..13).prop_map(|(r, c)| generators::grid(r, c)),
            (65usize..201).prop_map(generators::path),
        ],
        channel in arb_channel(),
        k in prop_oneof![1usize..4, 1usize..71],
        rate in 0.05..0.6f64,
        source_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let source = NodeId::from_index(source_pick as usize % graph.node_count());
        let max_rounds = 200;
        let mut sparse = TakingTurns::new(rate);
        let out = run_routing(&graph, channel, source, k, &mut sparse, seed, max_rounds)
            .expect("the listers only name valid senders");
        let mut dense = TakingTurns::new(rate);
        let want = reference_run(&graph, channel, source, k, &mut dense, seed, max_rounds);
        prop_assert_eq!(out, want);
        prop_assert_eq!(sparse.lowest.digests, dense.lowest.digests);
        prop_assert_eq!(sparse.random.digests, dense.random.digests);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-message rounds on stars of 1,000–3,000 leaves, from the
    /// centre: once most leaves hold a message, the runner skips the
    /// draws of runs of words in which every leaf does, thousands of
    /// draws at a time, and every table level of the jump up to 5
    /// serves them. A few leaves send too, so the centre also hears
    /// packets and collisions.
    #[test]
    fn single_message_rounds_on_large_stars_match_the_dense_reference(
        leaves in 1000usize..3001,
        channel in arb_channel(),
        k in 1usize..5,
        rate in 0.0..0.002f64,
        seed in any::<u64>(),
    ) {
        let graph = generators::star(leaves);
        let (source, max_rounds) = (NodeId::new(0), 120);
        let mut sparse = CentreLister { rate, digests: Vec::new() };
        let out = run_routing(&graph, channel, source, k, &mut sparse, seed, max_rounds)
            .expect("the lister only names valid senders");
        let mut dense = CentreLister { rate, digests: Vec::new() };
        let want = reference_run(&graph, channel, source, k, &mut dense, seed, max_rounds);
        prop_assert_eq!(out, want);
        prop_assert_eq!(sparse.digests, dense.digests);
    }
}
