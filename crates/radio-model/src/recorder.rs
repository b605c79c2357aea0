//! Execution recording: capture per-round traces into a serializable
//! history for offline analysis, visualization, or regression
//! fixtures.
//!
//! # Sparse round deltas
//!
//! Long recordings of flood-style protocols repeat themselves: the
//! broadcaster set of round `r + 1` overlaps round `r`'s almost
//! entirely. [`RecordedRound`] therefore stores node sets in
//! word-compressed sparse form ([`SparseIds`]: sorted
//! `(word, bits)` pairs, 64 ids per entry) and the broadcaster set as
//! the **XOR delta** against the previous round's set — the recorder
//! keeps one persistent rolling set per history and stores only what
//! changed. [`History::dense`] replays the deltas back into the old
//! flat-vector form ([`DenseRound`]), and
//! [`History::memory_footprint`] reports what the recording actually
//! holds so the telemetry summary can surface recorder overhead.

use netgraph::NodeId;
use radio_obs::TelemetrySink;

use crate::{NodeBehavior, RoundTrace, Simulator};

/// A sparse sorted set of node ids, stored as `(word, bits)` pairs:
/// entry `(w, bits)` holds the ids `64 * w + b` for every set bit `b`.
/// Empty words are absent, so dense clusters cost 16 bytes per 64 ids
/// and isolated ids 16 bytes each — never more than the flat `Vec<u32>`
/// form beyond one word of slack.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseIds {
    words: Vec<(u32, u64)>,
}

impl SparseIds {
    /// Builds a set from ascending ids (as every [`RoundTrace`] field
    /// supplies them).
    pub fn from_sorted<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut words: Vec<(u32, u64)> = Vec::new();
        for id in ids {
            let (w, b) = (id / 64, id % 64);
            match words.last_mut() {
                Some((lw, bits)) if *lw == w => *bits |= 1 << b,
                _ => {
                    debug_assert!(
                        words.last().is_none_or(|&(lw, _)| lw < w),
                        "ids must be ascending"
                    );
                    words.push((w, 1 << b));
                }
            }
        }
        SparseIds { words }
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().flat_map(|&(w, word_bits)| {
            let mut bits = word_bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }

    /// The ids as a flat ascending vector (the old dense form).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words
            .iter()
            .map(|&(_, bits)| bits.count_ones() as usize)
            .sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id / 64, id % 64);
        self.words
            .binary_search_by_key(&w, |&(lw, _)| lw)
            .is_ok_and(|i| self.words[i].1 & (1 << b) != 0)
    }

    /// The symmetric difference, by a sorted merge walk over the word
    /// lists. `a.xor(&a.xor(&b)) == b`, which is exactly how
    /// [`History::dense`] replays broadcaster deltas.
    pub fn xor(&self, other: &SparseIds) -> SparseIds {
        let mut words = Vec::new();
        let mut a = self.words.iter().peekable();
        let mut b = other.words.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(wa, ba)), Some(&&(wb, bb))) => {
                    if wa < wb {
                        words.push((wa, ba));
                        a.next();
                    } else if wb < wa {
                        words.push((wb, bb));
                        b.next();
                    } else {
                        let bits = ba ^ bb;
                        if bits != 0 {
                            words.push((wa, bits));
                        }
                        a.next();
                        b.next();
                    }
                }
                (Some(&&w), None) => {
                    words.push(w);
                    a.next();
                }
                (None, Some(&&w)) => {
                    words.push(w);
                    b.next();
                }
                (None, None) => break,
            }
        }
        SparseIds { words }
    }

    /// Heap bytes held by this set's word list.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<(u32, u64)>()
    }
}

/// One recorded round in sparse-delta form (see the module docs): node
/// sets are word-compressed [`SparseIds`], and the broadcaster set is
/// stored as the XOR delta against the previous recorded round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRound {
    /// Round index.
    pub round: u64,
    /// Broadcaster-set XOR delta vs the previous recorded round (the
    /// full set, for the first round).
    broadcast_delta: SparseIds,
    /// Successful `(sender, receiver)` deliveries. Pairs, not a node
    /// set — kept flat.
    deliveries: Vec<(u32, u32)>,
    /// Listeners that observed a collision.
    collisions: SparseIds,
    /// Listeners whose delivery was erased (erasure channel).
    erasures: SparseIds,
    /// Listeners that received their first packet this round.
    first_packets: SparseIds,
    /// Nodes whose decode completed this round.
    decoded: SparseIds,
}

impl RecordedRound {
    /// Successful `(sender, receiver)` deliveries.
    pub fn deliveries(&self) -> &[(u32, u32)] {
        &self.deliveries
    }

    /// The broadcaster-set XOR delta vs the previous recorded round.
    /// Reconstructing the absolute set requires replaying from the
    /// history start — see [`History::dense`].
    pub fn broadcast_delta(&self) -> &SparseIds {
        &self.broadcast_delta
    }

    /// Listeners that observed a collision, ascending.
    pub fn collision_ids(&self) -> Vec<u32> {
        self.collisions.to_vec()
    }

    /// Listeners whose delivery was erased, ascending.
    pub fn erasure_ids(&self) -> Vec<u32> {
        self.erasures.to_vec()
    }

    /// Listeners first served this round, ascending.
    pub fn first_packet_ids(&self) -> Vec<u32> {
        self.first_packets.to_vec()
    }

    /// Nodes whose decode completed this round, ascending.
    pub fn decoded_ids(&self) -> Vec<u32> {
        self.decoded.to_vec()
    }

    /// Heap bytes held by this round's sets and delivery list.
    fn heap_bytes(&self) -> usize {
        self.deliveries.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.broadcast_delta.heap_bytes()
            + self.collisions.heap_bytes()
            + self.erasures.heap_bytes()
            + self.first_packets.heap_bytes()
            + self.decoded.heap_bytes()
    }

    fn from_trace(round: u64, trace: &RoundTrace, prev_broadcasters: &mut SparseIds) -> Self {
        let broadcasters = SparseIds::from_sorted(trace.broadcasters.iter().map(|v| v.raw()));
        let broadcast_delta = prev_broadcasters.xor(&broadcasters);
        *prev_broadcasters = broadcasters;
        RecordedRound {
            round,
            broadcast_delta,
            deliveries: trace
                .deliveries
                .iter()
                .map(|&(s, r)| (s.raw(), r.raw()))
                .collect(),
            collisions: SparseIds::from_sorted(trace.collided_listeners.iter().map(|v| v.raw())),
            erasures: SparseIds::from_sorted(trace.erased_listeners.iter().map(|v| v.raw())),
            first_packets: SparseIds::from_sorted(
                trace.first_packet_listeners.iter().map(|v| v.raw()),
            ),
            decoded: SparseIds::from_sorted(trace.decoded_nodes.iter().map(|v| v.raw())),
        }
    }
}

/// One round in the old flat-vector form, produced by
/// [`History::dense`]: every set fully materialized, broadcaster
/// deltas replayed into absolute sets. The round-trip equivalence
/// fixture for the sparse-delta storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseRound {
    /// Round index.
    pub round: u64,
    /// Ids of nodes that broadcast.
    pub broadcasters: Vec<u32>,
    /// Successful `(sender, receiver)` deliveries.
    pub deliveries: Vec<(u32, u32)>,
    /// Listeners that observed a collision.
    pub collisions: Vec<u32>,
    /// Listeners whose delivery was erased (erasure channel).
    pub erasures: Vec<u32>,
    /// Listeners that received their first packet this round.
    pub first_packets: Vec<u32>,
    /// Nodes whose decode completed this round (per
    /// [`crate::NodeBehavior::decoded`]).
    pub decoded: Vec<u32>,
}

/// A recorded execution: every round's broadcast/delivery/collision
/// sets in sparse-delta form (see the module docs).
///
/// # Example
///
/// ```
/// use netgraph::{generators, NodeId};
/// use radio_model::{recorder::History, Action, Ctx, Channel, NodeBehavior, Reception, Simulator};
///
/// struct Shout;
/// impl NodeBehavior<()> for Shout {
///     fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
///         if ctx.node == NodeId::new(0) { Action::Broadcast(()) } else { Action::Listen }
///     }
///     fn receive(&mut self, _: &mut Ctx<'_>, _: Reception<()>) {}
/// }
///
/// let g = generators::star(3);
/// let mut sim = Simulator::new(&g, Channel::faultless(), vec![Shout, Shout, Shout, Shout], 1).unwrap();
/// let history = History::record(&mut sim, 2);
/// assert_eq!(history.rounds.len(), 2);
/// assert_eq!(history.rounds[0].deliveries().len(), 3);
/// assert_eq!(history.dense()[0].broadcasters, vec![0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// The recorded rounds, in execution order.
    pub rounds: Vec<RecordedRound>,
}

impl History {
    /// Steps `sim` for `rounds` rounds, recording each.
    pub fn record<P: crate::Payload, B: NodeBehavior<P>>(
        sim: &mut Simulator<'_, P, B>,
        rounds: u64,
    ) -> Self {
        let mut history = History::default();
        let mut trace = RoundTrace::default();
        let mut prev = SparseIds::default();
        for _ in 0..rounds {
            let round = sim.round();
            sim.step_traced(&mut trace);
            history
                .rounds
                .push(RecordedRound::from_trace(round, &trace, &mut prev));
        }
        history
    }

    /// Steps `sim` until `done` or the `max_rounds` budget runs out,
    /// recording each round. Returns the rounds executed when `done`
    /// fired (as in [`Simulator::run_until`]).
    pub fn record_until<P: crate::Payload, B: NodeBehavior<P>>(
        sim: &mut Simulator<'_, P, B>,
        max_rounds: u64,
        mut done: impl FnMut(&[B]) -> bool,
    ) -> (Self, Option<u64>) {
        let mut history = History::default();
        let mut trace = RoundTrace::default();
        let mut prev = SparseIds::default();
        let start = sim.round();
        loop {
            if done(sim.behaviors()) {
                return (history, Some(sim.round() - start));
            }
            if sim.round() - start >= max_rounds {
                return (history, None);
            }
            let round = sim.round();
            sim.step_traced(&mut trace);
            history
                .rounds
                .push(RecordedRound::from_trace(round, &trace, &mut prev));
        }
    }

    /// Replays the sparse deltas into the old flat-vector form: each
    /// round's absolute broadcaster set (XOR-accumulated from the
    /// deltas) and fully materialized listener sets.
    pub fn dense(&self) -> Vec<DenseRound> {
        let mut broadcasters = SparseIds::default();
        self.rounds
            .iter()
            .map(|r| {
                broadcasters = broadcasters.xor(&r.broadcast_delta);
                DenseRound {
                    round: r.round,
                    broadcasters: broadcasters.to_vec(),
                    deliveries: r.deliveries.clone(),
                    collisions: r.collision_ids(),
                    erasures: r.erasure_ids(),
                    first_packets: r.first_packet_ids(),
                    decoded: r.decoded_ids(),
                }
            })
            .collect()
    }

    /// Bytes this recording holds (the struct plus every round's heap
    /// allocations) — what the sparse-delta storage actually costs,
    /// for the telemetry summary.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rounds.capacity() * std::mem::size_of::<RecordedRound>()
            + self
                .rounds
                .iter()
                .map(RecordedRound::heap_bytes)
                .sum::<usize>()
    }

    /// Emits recorder overhead counters (`recorder/rounds`,
    /// `recorder/bytes`) into `sink`.
    pub fn emit_telemetry<S: TelemetrySink>(&self, sink: &mut S) {
        if !sink.enabled() {
            return;
        }
        sink.counter("recorder/rounds", self.rounds.len() as u64);
        sink.counter("recorder/bytes", self.memory_footprint() as u64);
    }

    /// Total deliveries across the history.
    pub fn total_deliveries(&self) -> u64 {
        self.rounds.iter().map(|r| r.deliveries.len() as u64).sum()
    }

    /// Total observed erasures across the history.
    pub fn total_erasures(&self) -> u64 {
        self.rounds.iter().map(|r| r.erasures.len() as u64).sum()
    }

    /// The first round in which `v` received a packet, if any.
    pub fn first_reception(&self, v: NodeId) -> Option<u64> {
        self.rounds
            .iter()
            .find(|r| r.deliveries.iter().any(|&(_, d)| d == v.raw()))
            .map(|r| r.round)
    }

    /// Per-round delivery counts (a simple progress curve).
    pub fn delivery_curve(&self) -> Vec<(u64, usize)> {
        self.rounds
            .iter()
            .map(|r| (r.round, r.deliveries.len()))
            .collect()
    }

    /// Per-round *first*-delivery counts: the recorded latency curve
    /// (how many nodes were first served each round).
    pub fn first_delivery_curve(&self) -> Vec<(u64, usize)> {
        self.rounds
            .iter()
            .map(|r| (r.round, r.first_packets.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Channel, Ctx};
    use netgraph::generators;

    struct Flood {
        informed: bool,
    }
    impl NodeBehavior<()> for Flood {
        fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
            if self.informed {
                Action::Broadcast(())
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: crate::Reception<()>) {
            if rx.is_packet() {
                self.informed = true;
            }
        }
    }

    fn sim(g: &netgraph::Graph) -> Simulator<'_, (), Flood> {
        let behaviors: Vec<Flood> = (0..g.node_count())
            .map(|i| Flood { informed: i == 0 })
            .collect();
        Simulator::new(g, Channel::faultless(), behaviors, 3).unwrap()
    }

    #[test]
    fn sparse_ids_round_trip_and_ops() {
        let ids = vec![0, 1, 63, 64, 200, 201, 1000];
        let s = SparseIds::from_sorted(ids.clone());
        assert_eq!(s.to_vec(), ids);
        assert_eq!(s.len(), ids.len());
        assert!(!s.is_empty());
        assert!(s.contains(63) && s.contains(200) && !s.contains(2) && !s.contains(999));
        assert!(SparseIds::default().is_empty());

        let t = SparseIds::from_sorted(vec![1, 64, 500]);
        let x = s.xor(&t);
        assert_eq!(x.to_vec(), vec![0, 63, 200, 201, 500, 1000]);
        // XOR is its own inverse: replaying the delta restores t.
        assert_eq!(s.xor(&x), t);
        assert_eq!(x.xor(&t), s);
    }

    #[test]
    fn records_path_flood() {
        let g = generators::path(5);
        let mut s = sim(&g);
        let history = History::record(&mut s, 4);
        assert_eq!(history.rounds.len(), 4);
        assert_eq!(history.total_deliveries(), 4);
        // Node i first hears in round i-1.
        for i in 1..5u32 {
            assert_eq!(
                history.first_reception(NodeId::new(i)),
                Some(u64::from(i) - 1)
            );
        }
        assert_eq!(history.first_reception(NodeId::new(0)), None);
    }

    #[test]
    fn dense_replay_matches_flood_semantics() {
        // Path flood: in round r nodes 0..=r broadcast — the replayed
        // absolute broadcaster sets must say exactly that even though
        // each stored delta holds only the one newly informed node.
        let g = generators::path(5);
        let mut s = sim(&g);
        let history = History::record(&mut s, 4);
        let dense = history.dense();
        for (r, round) in dense.iter().enumerate() {
            let expect: Vec<u32> = (0..=r as u32).collect();
            assert_eq!(round.broadcasters, expect, "round {r}");
            assert_eq!(round.round, r as u64);
        }
        // The stored deltas really are deltas: one node per round
        // after the first.
        for (r, round) in history.rounds.iter().enumerate().skip(1) {
            assert_eq!(
                round.broadcast_delta().to_vec(),
                vec![r as u32],
                "round {r}"
            );
        }
    }

    #[test]
    fn dense_replay_round_trips_against_raw_traces() {
        // Full equivalence against the old dense form: re-run the
        // identical seeded simulation, building each round the way the
        // pre-delta recorder did, and compare field by field.
        let g = generators::gnp_connected(24, 0.15, 11).unwrap();
        let channel = Channel::erasure(0.3).unwrap();
        let behaviors = |g: &netgraph::Graph| -> Vec<Flood> {
            (0..g.node_count())
                .map(|i| Flood { informed: i == 0 })
                .collect()
        };
        let mut rec_sim = Simulator::new(&g, channel, behaviors(&g), 7).unwrap();
        let history = History::record(&mut rec_sim, 12);

        let mut ref_sim = Simulator::new(&g, channel, behaviors(&g), 7).unwrap();
        let mut trace = RoundTrace::default();
        let mut expected = Vec::new();
        for round in 0..12 {
            ref_sim.step_traced(&mut trace);
            expected.push(DenseRound {
                round,
                broadcasters: trace.broadcasters.iter().map(|v| v.raw()).collect(),
                deliveries: trace
                    .deliveries
                    .iter()
                    .map(|&(s, r)| (s.raw(), r.raw()))
                    .collect(),
                collisions: trace.collided_listeners.iter().map(|v| v.raw()).collect(),
                erasures: trace.erased_listeners.iter().map(|v| v.raw()).collect(),
                first_packets: trace
                    .first_packet_listeners
                    .iter()
                    .map(|v| v.raw())
                    .collect(),
                decoded: trace.decoded_nodes.iter().map(|v| v.raw()).collect(),
            });
        }
        assert_eq!(history.dense(), expected);
    }

    #[test]
    fn memory_footprint_reports_and_beats_dense_on_overlap() {
        let g = generators::path(512);
        let mut s = sim(&g);
        let history = History::record(&mut s, 500);
        let sparse = history.memory_footprint();
        assert!(sparse > 0);
        // The dense form re-materializes every absolute broadcaster
        // set: O(rounds²) ids on a flood. The delta form stores O(1)
        // words per round, so it must win by a wide margin. Measure
        // the dense form the same way (structs plus heap payload).
        let dense_rounds = history.dense();
        let dense = std::mem::size_of_val(dense_rounds.as_slice())
            + dense_rounds
                .iter()
                .map(|r| {
                    std::mem::size_of_val(r.broadcasters.as_slice())
                        + std::mem::size_of_val(r.deliveries.as_slice())
                        + std::mem::size_of_val(r.collisions.as_slice())
                        + std::mem::size_of_val(r.erasures.as_slice())
                        + std::mem::size_of_val(r.first_packets.as_slice())
                        + std::mem::size_of_val(r.decoded.as_slice())
                })
                .sum::<usize>();
        assert!(
            2 * sparse < dense,
            "sparse {sparse} bytes should be well under dense {dense}"
        );
        let mut sink = radio_obs::CounterSink::new();
        history.emit_telemetry(&mut sink);
        assert_eq!(sink.counter_total("recorder/rounds"), Some(500));
        assert_eq!(sink.counter_total("recorder/bytes"), Some(sparse as u64));
    }

    #[test]
    fn record_until_stops_when_done() {
        let g = generators::path(6);
        let mut s = sim(&g);
        let (history, rounds) =
            History::record_until(&mut s, 100, |bs| bs.iter().all(|b| b.informed));
        assert_eq!(rounds, Some(5));
        assert_eq!(history.rounds.len(), 5);
    }

    #[test]
    fn record_until_budget_exhaustion() {
        let g = generators::path(10);
        let mut s = sim(&g);
        let (history, rounds) =
            History::record_until(&mut s, 3, |bs| bs.iter().all(|b| b.informed));
        assert_eq!(rounds, None);
        assert_eq!(history.rounds.len(), 3);
    }

    #[test]
    fn records_erasures_under_erasure_channel() {
        let g = generators::single_link();
        let behaviors: Vec<Flood> = (0..2).map(|i| Flood { informed: i == 0 }).collect();
        let mut s = Simulator::new(&g, Channel::erasure(0.8).unwrap(), behaviors, 5).unwrap();
        let history = History::record(&mut s, 50);
        assert_eq!(history.total_erasures(), s.stats().erasures);
        assert!(history.total_erasures() > 0, "p=0.8 should erase something");
    }

    #[test]
    fn delivery_curve_shape() {
        let g = generators::star(4);
        let mut s = sim(&g);
        let history = History::record(&mut s, 2);
        assert_eq!(history.delivery_curve(), vec![(0, 4), (1, 0)]);
        assert_eq!(history.first_delivery_curve(), vec![(0, 4), (1, 0)]);
    }

    #[test]
    fn first_packets_recorded_once_per_node() {
        // Path flood: each node appears in first_packets exactly once,
        // in its first-reception round.
        let g = generators::path(5);
        let mut s = sim(&g);
        let history = History::record(&mut s, 4);
        for (i, r) in history.rounds.iter().enumerate() {
            assert_eq!(r.first_packet_ids(), vec![i as u32 + 1]);
        }
    }
}
