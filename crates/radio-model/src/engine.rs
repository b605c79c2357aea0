//! The behavior-driven simulation engine.
//!
//! # Sparse round loop
//!
//! The engine does not visit every node every round. It keeps an
//! **active set** (a word-parallel [`Bitset`]): the act sweep runs
//! only over active nodes, and the receive sweep only over the active
//! set united with the **reach set** — the neighbors of this round's
//! broadcasters, recomputed each round, which is exactly the set of
//! nodes that hear something other than silence. A node leaves the
//! active set when its behavior reports [`NodeBehavior::next_act`]`
//! = u64::MAX` with no queued traffic (a quiescence promise: acting and
//! hearing silence are no-ops for it), and re-enters it the moment a
//! broadcast reaches it (for a silence-transparent behavior, the moment
//! a packet is delivered to it). Dense execution is therefore reproduced
//! bit-for-bit — skipped nodes are precisely those for which the
//! dense sweeps would have drawn nothing and changed nothing —
//! and [`Simulator::with_dense_sweeps`] forces the dense reference
//! behavior for differential tests.
//!
//! # Wake wheel
//!
//! A [silence-transparent](NodeBehavior::SILENCE_TRANSPARENT) node
//! whose `next_act` lies past the next round also leaves the active
//! set, right after its `act`, and is filed in a wheel of 64 bitsets
//! under that round; each round begins by moving its due slot back
//! into the active set. A wake more than 64 rounds ahead is filed in
//! the wheel's last slot, and when that slot fires the node acts (a
//! no-op, by the promise) and is filed again. A node reached while
//! asleep stays in its slot, which the reception rule of
//! [`NodeBehavior::next_act`] makes safe.
//!
//! # Slot resolution
//!
//! The reach pass that enumerates each broadcaster's neighbors also
//! settles who every reached node heard: a node a second broadcaster
//! reaches joins a `collided` set, and `heard_from` records the
//! broadcaster of each node reached once. A broadcaster's neighbors of
//! one bitset word are gathered in a register and meet `reach` once per
//! word. The adaptive-routing runner ([`crate::adaptive`]) resolves its
//! slots with the same pass, which leaves `heard_from` unwritten in the
//! rounds where the runner reads none of it. The receive sweep then
//! resolves 64 listeners at a time from bit masks — collided,
//! sender-faulted, lost, delivered — drawing each clean listener's loss
//! once, counting outcomes by popcount, and only then handing out
//! receptions in ascending node order. No listener re-scans its
//! neighbors. For a
//! [silence-transparent](NodeBehavior::SILENCE_TRANSPARENT) behavior
//! only the delivered listeners are called at all: every other
//! reception is a no-op for it, so every other node keeps its activity
//! bit a whole word at a time. Since a decoded node of such a behavior
//! ignores packets too, a delivered listener that is decoded after its
//! packet joins a `settled` set, and later deliveries to it are counted
//! and traced from the word's masks without a call: of a single-message
//! broadcast's deliveries, only the first to each node reaches a
//! behavior.
//!
//! # Per-node random streams
//!
//! All randomness is drawn from *per-node* streams forked from the
//! master seed via [`crate::fork_seed`] — behavior streams at index
//! `i`, channel-loss streams at `FAULT_STREAM_BASE + i` (see
//! `DESIGN.md` §4c) — so no draw depends on which other nodes were
//! swept, or in what order. This is what lets the sparse sweeps skip
//! quiescent nodes without moving anyone else's draws.

use std::time::Instant;

use netgraph::{Bitset, Graph, NodeId};
use radio_obs::TelemetrySink;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::latency::LatencyProfile;
use crate::rng::{fork_rng, kept_mask, loss_threshold};
use crate::{Action, Channel, ModelError, Payload, Reception};

/// Fork-index base of the per-node channel-loss streams: node `i`
/// draws its sender-fault / receiver-fault / erasure randomness from
/// `fork_rng(seed, FAULT_STREAM_BASE + i)`. Disjoint from the behavior
/// streams at indices `0..n` for any representable node count.
const FAULT_STREAM_BASE: u64 = 1 << 63;

/// Slots in the wake wheel: a sleeper is filed at most this many rounds
/// ahead (see the module docs).
const WHEEL_SLOTS: u64 = 64;

/// Per-round context handed to a [`NodeBehavior`].
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The node this behavior instance controls.
    pub node: NodeId,
    /// The current round (0-based).
    pub round: u64,
    /// The node's private RNG stream (deterministic per master seed).
    pub rng: &'a mut SmallRng,
    /// The network, for topology queries such as [`Ctx::degree`].
    pub graph: &'a Graph,
}

impl Ctx<'_> {
    /// The node's degree in the network. Computed on demand: the CSR
    /// offset loads would otherwise tax every sweep iteration of every
    /// behavior, degree-aware or not.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }
}

/// A distributed per-node protocol: decides an action each round and
/// observes its slot outcome.
///
/// The engine calls [`NodeBehavior::act`] for every node at the start
/// of a round (before any delivery of that round), resolves the radio
/// semantics, then calls [`NodeBehavior::receive`] on **every
/// listening node** with its [`Reception`] for the round — a packet,
/// noise, a detected erasure, or silence. Broadcasters receive nothing
/// (the model is half-duplex). State updated in `receive` is visible
/// from the *next* round's `act`, matching the synchronous model.
///
/// **Model fidelity.** Protocols for the paper's noisy model must not
/// distinguish [`Reception::Noise`], [`Reception::Silence`] and
/// [`Reception::Erased`] (see the [`Reception`] contract); erasure-
/// model protocols may branch on [`Reception::Erased`].
pub trait NodeBehavior<P> {
    /// Decide this round's action. Must not depend on this round's
    /// receptions (the engine enforces this by calling `act` first).
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<P>;

    /// Called once per round for every listening node with the slot's
    /// outcome.
    fn receive(&mut self, ctx: &mut Ctx<'_>, rx: Reception<P>);

    /// Whether this node's decode is complete, for latency profiling
    /// ([`crate::LatencyProfile`]): informed, for single-message
    /// protocols; full decoder rank, for multi-message ones. The
    /// engine polls this at the end of every round (and once at
    /// construction) and records the first `true` round. The default
    /// reports `false` forever — behaviors that opt out simply leave
    /// their decode-completion rounds unrecorded.
    fn decoded(&self) -> bool {
        false
    }

    /// This node's pending traffic backlog — messages injected at or
    /// relayed through it that are not yet delivered — for the
    /// continuous-traffic subsystem. The engine polls this at the end
    /// of every round, alongside [`NodeBehavior::decoded`], and
    /// surfaces the per-round total in [`RoundReport::queued`], the
    /// running peak in [`SimStats::peak_queued`], and the nonzero
    /// per-node depths in [`RoundTrace::queued_nodes`]. The default
    /// reports `0`: one-shot behaviors carry no queue.
    fn queued(&self) -> u64 {
        0
    }

    /// The earliest round whose [`NodeBehavior::act`] can do anything
    /// before this node next hears a non-[`Reception::Silence`]
    /// reception.
    ///
    /// Answering `r` is a **quiescence promise**: until this node next
    /// hears a non-silent reception, its `act` in every round before
    /// `r` returns [`Action::Listen`] without drawing from the node's
    /// RNG or mutating state. The default `0` promises nothing and
    /// keeps the node swept every round — always safe. `u64::MAX`
    /// promises it for every round, and further that (b) the node's
    /// [`NodeBehavior::receive`] of [`Reception::Silence`] is a no-op
    /// and (c) its [`NodeBehavior::decoded`] and
    /// [`NodeBehavior::queued`] answers are frozen. The engine then
    /// drops the node from the active set and skips it entirely —
    /// which is observationally identical to sweeping it, by the
    /// promise — until a neighbor's broadcast reaches it (any packet,
    /// noise, or erasure re-wakes it; only a packet, for a
    /// silence-transparent behavior) or its state is touched through
    /// [`Simulator::behaviors_mut`]. A node with
    /// [`NodeBehavior::queued`]` > 0` stays active regardless of this
    /// answer.
    ///
    /// A finite round later than the next one lets a
    /// [silence-transparent](NodeBehavior::SILENCE_TRANSPARENT) node
    /// sleep: the engine takes it out of the active set right after
    /// its `act` and files it in a 64-slot wake wheel under that round
    /// (a round further ahead under the wheel's last slot, where the
    /// node acts, as a no-op, and is filed again). Other behaviors stay
    /// swept every round while the answer is finite.
    ///
    /// The engine re-polls this whenever it sweeps the node, so the
    /// answer may change with state (e.g. an uninformed Decay node
    /// answers `u64::MAX`, `0` from the round it first hears the
    /// message, and its next broadcast round from its first act on).
    /// **Reception rule:** a reception may leave the answer unchanged
    /// or bring it to the next round or earlier, never to any other
    /// round — a node reached while asleep stays filed where it was.
    /// For a silence-transparent behavior only a packet can move it
    /// (every other reception is a no-op), and the engine re-polls a
    /// reached node only when a packet was delivered to it.
    fn next_act(&self) -> u64 {
        0
    }

    /// Whether this behavior is **silence-transparent**: a compile-time
    /// promise, for every node and every state, that
    ///
    /// 1. [`NodeBehavior::receive`] of every reception that is not a
    ///    [`Reception::Packet`] — silence, noise or an erasure — is a
    ///    no-op,
    /// 2. [`NodeBehavior::act`] never changes the answers of
    ///    [`NodeBehavior::decoded`] or [`NodeBehavior::queued`] (only
    ///    packets can),
    /// 3. [`NodeBehavior::queued`] is identically `0`, and
    /// 4. once [`NodeBehavior::decoded`] reports `true`,
    ///    [`NodeBehavior::receive`] of a packet is a no-op too: a
    ///    decoded node is final.
    ///
    /// Promise 1 is what the [`Reception`] fidelity contract already
    /// asks of noisy-model protocols, which cannot tell noise or an
    /// erasure from silence. Under this promise every listener but a
    /// delivered one, and every broadcaster, is observationally inert
    /// in the delivery sweep — no reception to hand out, no decode or
    /// queue transition to record — so the engine calls, polls and
    /// re-decides only the **delivered** listeners and carries everyone
    /// else's activity bits forward a whole word at a time, and it may
    /// put a node to sleep until its [`NodeBehavior::next_act`].
    /// Promise 4 is what a single-message broadcast keeps: a node that
    /// holds the message ignores every later packet. The engine
    /// **settles** a node the first time a delivered packet finds it
    /// decoded, and afterwards hands it no packet at all: a delivery to
    /// a settled listener is counted, traced and carries the listener's
    /// activity bit like any other reception. A node decoded at
    /// construction, such as the source, settles only at its first
    /// delivery, whose round the latency profile records; a behavior
    /// that keeps counting packets after decoding keeps the default
    /// [`NodeBehavior::decoded`], which never settles it. Observables
    /// are bit-identical either way; the promise merely licenses
    /// skipping work the contract makes vacuous.
    ///
    /// The default `false` hands every swept listener its reception
    /// and polls every swept node at the end of the round — always
    /// safe. Behaviors that queue traffic, react to quiet slots, or
    /// branch on [`Reception::Erased`] (the erasure model) must not
    /// opt in.
    const SILENCE_TRANSPARENT: bool = false;
}

/// Aggregate statistics over an entire simulation, with one counter
/// per channel loss kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Total broadcast actions.
    pub broadcasts: u64,
    /// Successful packet deliveries.
    pub deliveries: u64,
    /// Listener-rounds that saw ≥ 2 broadcasting neighbors.
    pub collisions: u64,
    /// Broadcasts replaced by noise (sender channel; one per faulted
    /// broadcaster draw, shared by all its listeners).
    pub sender_faults: u64,
    /// Deliveries replaced by noise (receiver channel; one per lost
    /// delivery).
    pub receiver_faults: u64,
    /// Deliveries erased with the listener aware (erasure channel; one
    /// per lost delivery).
    pub erasures: u64,
    /// Nodes that have received at least one packet so far (their
    /// first-delivery round is recorded in the
    /// [`crate::LatencyProfile`]).
    pub delivered_nodes: u64,
    /// Nodes whose decode has completed so far (per
    /// [`NodeBehavior::decoded`]), including nodes decoded at
    /// construction such as the source.
    pub decoded_nodes: u64,
    /// Peak end-of-round total queue depth observed so far (per
    /// [`NodeBehavior::queued`]); 0 for queue-free behaviors.
    pub peak_queued: u64,
}

impl SimStats {
    /// Total channel-induced losses across all kinds.
    pub fn losses(&self) -> u64 {
        self.sender_faults + self.receiver_faults + self.erasures
    }
}

/// What happened in one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// The executed round index.
    pub round: u64,
    /// Nodes that broadcast.
    pub broadcasters: u64,
    /// Successful deliveries.
    pub deliveries: u64,
    /// Listeners that observed a collision.
    pub collisions: u64,
    /// Sender faults drawn this round.
    pub sender_faults: u64,
    /// Receiver faults drawn this round.
    pub receiver_faults: u64,
    /// Erasures drawn this round.
    pub erasures: u64,
    /// Listeners that received their *first* packet this round.
    pub first_deliveries: u64,
    /// Nodes whose decode completed this round (per
    /// [`NodeBehavior::decoded`]).
    pub decodes: u64,
    /// Total queue depth across all nodes at the end of this round
    /// (per [`NodeBehavior::queued`]).
    pub queued: u64,
}

/// A detailed trace of one round, for invariant checking in tests:
/// who broadcast, and which (sender → receiver) deliveries succeeded
/// or were erased.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTrace {
    /// Nodes that broadcast this round (sorted by id).
    pub broadcasters: Vec<NodeId>,
    /// Successful deliveries as `(sender, receiver)` pairs.
    pub deliveries: Vec<(NodeId, NodeId)>,
    /// Listeners that had ≥ 2 broadcasting neighbors.
    pub collided_listeners: Vec<NodeId>,
    /// Listeners whose delivery was erased (erasure channel only).
    pub erased_listeners: Vec<NodeId>,
    /// Listeners that received their first packet this round (sorted
    /// by id).
    pub first_packet_listeners: Vec<NodeId>,
    /// Nodes whose decode completed this round (sorted by id).
    pub decoded_nodes: Vec<NodeId>,
    /// Nonzero end-of-round queue depths as `(node, depth)` pairs
    /// (sorted by id; per [`NodeBehavior::queued`]).
    pub queued_nodes: Vec<(NodeId, u64)>,
}

/// Per-phase engine telemetry accumulated while
/// [`Simulator::with_telemetry`] is on: wall-clock nanoseconds per
/// sweep phase, word-parallel sweep efficiency (words visited vs
/// skipped wholesale), and the act sweep's node visits summed over
/// rounds.
///
/// Pure observation: the engine computes every result before touching
/// these tallies, so enabling telemetry cannot change any artifact —
/// only wall clock. With telemetry off (the default) the struct stays
/// at its zero state and the round loop reads no clocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Rounds executed with telemetry enabled.
    pub rounds: u64,
    /// Act-sweep nanoseconds.
    pub act_ns: u64,
    /// Delivery/receive-sweep nanoseconds.
    pub receive_ns: u64,
    /// Reach-set computation nanoseconds.
    pub reach_ns: u64,
    /// Per-round merge/finish nanoseconds (report and stats
    /// aggregation).
    pub merge_ns: u64,
    /// Act-sweep bitset words with at least one active bit (entered
    /// the per-node loop).
    pub act_words_visited: u64,
    /// Act-sweep bitset words skipped wholesale (all-zero).
    pub act_words_skipped: u64,
    /// Receive-sweep words with at least one active-or-reached bit.
    pub recv_words_visited: u64,
    /// Receive-sweep words skipped wholesale.
    pub recv_words_skipped: u64,
    /// Node visits the act sweep made, summed over rounds: the
    /// active-set occupancy at the start of each act sweep, before
    /// sleepers leave it.
    pub active_node_rounds: u64,
    /// Deliveries to settled listeners, which the receive sweep counts
    /// without calling (promise 4 of
    /// [`NodeBehavior::SILENCE_TRANSPARENT`]).
    pub settled_deliveries: u64,
}

/// The radio-network simulator driving one [`NodeBehavior`] per node.
///
/// See the [crate-level documentation](crate) for the model semantics
/// and an example.
pub struct Simulator<'g, P, B> {
    graph: &'g Graph,
    channel: Channel,
    behaviors: Vec<B>,
    node_rngs: Vec<SmallRng>,
    /// Per-node channel-loss streams (see [`FAULT_STREAM_BASE`]).
    fault_rngs: Vec<SmallRng>,
    round: u64,
    stats: SimStats,
    /// Per-node first-packet rounds (latency subsystem).
    first_packet: Vec<Option<u64>>,
    /// Per-node decode-completion rounds (see [`NodeBehavior::decoded`]).
    decode_round: Vec<Option<u64>>,
    // Reusable per-round scratch, allocated once. `actions[i]` and
    // `sender_ok[i]` are written only when node `i` broadcasts; stale
    // entries are never read because every read is guarded by the
    // `broadcasting` bit, which is rebuilt every round.
    actions: Vec<Action<P>>,
    broadcasting: Bitset,
    sender_ok: Vec<bool>,
    /// Nodes swept by this round's act sweep (see the module docs).
    active: Bitset,
    /// The wake wheel: slot `r % 64` holds the sleepers due back in
    /// round `r` (see the module docs). Empty unless the behavior is
    /// silence-transparent.
    wheel: Vec<Bitset>,
    /// The active set being accumulated for the next round.
    next_active: Bitset,
    /// Neighbors of this round's broadcasters: the nodes that hear
    /// something other than silence. The receive sweep's domain is
    /// `active ∪ reach`, unioned word-by-word on the fly.
    reach: Bitset,
    /// The members of `reach` that two or more broadcasters reached.
    collided: Bitset,
    /// `heard_from[i]`: a broadcaster that reached node `i` this round.
    /// Read only for reached nodes outside `collided`, where it is the
    /// one broadcaster, so stale entries never need clearing.
    heard_from: Vec<u32>,
    /// Nodes a delivery found decoded, whose later deliveries the
    /// receive sweep counts without calling them (promise 4 of
    /// [`NodeBehavior::SILENCE_TRANSPARENT`]). Empty for other
    /// behaviors.
    settled: Bitset,
    /// Set by [`Simulator::behaviors_mut`]: behavior state may have
    /// changed outside a sweep, so the active set must be rebuilt from
    /// `next_act`/`queued` before the next round.
    stale: bool,
    /// Forces full sweeps every round (the dense reference mode).
    dense: bool,
    /// Whether the round loop reads clocks and accumulates
    /// [`EngineTelemetry`] (see [`Simulator::with_telemetry`]).
    timed: bool,
    telemetry: EngineTelemetry,
}

impl<P, B> std::fmt::Debug for Simulator<'_, P, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("graph", &self.graph)
            .field("channel", &self.channel)
            .field("round", &self.round)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'g, P: Payload, B: NodeBehavior<P>> Simulator<'g, P, B> {
    /// Creates a simulator over `graph` with one behavior per node.
    ///
    /// `seed` drives all randomness: per-node behavior RNGs and the
    /// channel loss process are independently forked from it.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeCountMismatch`] if `behaviors.len()` differs
    /// from the node count. (A [`Channel`] is valid by construction.)
    pub fn new(
        graph: &'g Graph,
        channel: Channel,
        behaviors: Vec<B>,
        seed: u64,
    ) -> Result<Self, ModelError> {
        let n = graph.node_count();
        if behaviors.len() != n {
            return Err(ModelError::NodeCountMismatch {
                supplied: behaviors.len(),
                expected: n,
            });
        }
        let node_rngs = (0..n as u64).map(|i| fork_rng(seed, i)).collect();
        let fault_rngs = (0..n as u64)
            .map(|i| fork_rng(seed, FAULT_STREAM_BASE + i))
            .collect();
        // Nodes decoded before any round executes (e.g. the source)
        // are recorded at round 0 — the earliest representable round.
        let decode_round: Vec<Option<u64>> =
            behaviors.iter().map(|b| b.decoded().then_some(0)).collect();
        let decoded_nodes = decode_round.iter().filter(|r| r.is_some()).count() as u64;
        Ok(Simulator {
            graph,
            channel,
            behaviors,
            node_rngs,
            fault_rngs,
            round: 0,
            stats: SimStats {
                decoded_nodes,
                ..SimStats::default()
            },
            first_packet: vec![None; n],
            decode_round,
            actions: (0..n).map(|_| Action::Listen).collect(),
            broadcasting: Bitset::new(n),
            sender_ok: vec![true; n],
            active: Bitset::new(n),
            wheel: if B::SILENCE_TRANSPARENT {
                (0..WHEEL_SLOTS).map(|_| Bitset::new(n)).collect()
            } else {
                Vec::new()
            },
            next_active: Bitset::new(n),
            reach: Bitset::new(n),
            collided: Bitset::new(n),
            heard_from: vec![0; n],
            // Nobody is settled yet: a node decoded at construction
            // must still record its first packet.
            settled: Bitset::new(n),
            // The first round's active set is built from the
            // constructed behaviors' own answers.
            stale: true,
            dense: false,
            timed: false,
            telemetry: EngineTelemetry::default(),
        })
    }

    /// Forces the dense reference mode: every round sweeps every node,
    /// as if every behavior answered [`NodeBehavior::next_act`]` = 0`,
    /// and the wake wheel is unused. By the quiescence contract this is
    /// bit-identical to the default sparse mode — differential tests
    /// use it as the oracle; there is no other reason to turn it on.
    pub fn with_dense_sweeps(mut self, dense: bool) -> Self {
        self.dense = dense;
        self
    }

    /// Enables per-phase telemetry: the round loop times the act,
    /// reach, receive, and merge phases and tallies word-sweep
    /// efficiency and active-set occupancy into
    /// [`Simulator::telemetry`].
    ///
    /// **Determinism contract**: telemetry observes, it never
    /// influences — no randomness is drawn and no result depends on
    /// it, so every report, trace, stat, and behavior state is
    /// bit-identical with telemetry on or off. Off (the default), the
    /// loop reads no clocks: the only cost is an untaken branch per
    /// round phase.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.timed = enabled;
        self
    }

    /// The per-phase telemetry accumulated so far (all-zero unless
    /// [`Simulator::with_telemetry`] was enabled).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// Emits the run's telemetry into `sink`: `engine/*` phase spans
    /// (when [`Simulator::with_telemetry`] was on) plus counters for
    /// the aggregate stats, sweep efficiency, and the *derived* RNG
    /// draw counts per stream class — sender-stream draws are one per
    /// broadcast (drawn iff the channel has a sender component) and
    /// delivery-stream draws one per resolved uncollided delivery
    /// (iff it has a delivery component), so no hot-loop counting is
    /// needed.
    pub fn emit_telemetry<S: TelemetrySink>(&self, sink: &mut S) {
        if !sink.enabled() {
            return;
        }
        let t = &self.telemetry;
        if t.rounds > 0 {
            sink.span("engine/act", t.act_ns);
            sink.span("engine/reach", t.reach_ns);
            sink.span("engine/receive", t.receive_ns);
            sink.span("engine/merge", t.merge_ns);
            sink.counter("engine/act_words_visited", t.act_words_visited);
            sink.counter("engine/act_words_skipped", t.act_words_skipped);
            sink.counter("engine/recv_words_visited", t.recv_words_visited);
            sink.counter("engine/recv_words_skipped", t.recv_words_skipped);
            sink.counter("engine/active_node_rounds", t.active_node_rounds);
        }
        let s = &self.stats;
        sink.counter("engine/rounds", s.rounds);
        sink.counter("engine/broadcasts", s.broadcasts);
        sink.counter("engine/deliveries", s.deliveries);
        if t.rounds > 0 {
            sink.counter("engine/settled_deliveries", t.settled_deliveries);
        }
        sink.counter("engine/collisions", s.collisions);
        sink.counter("engine/sender_faults", s.sender_faults);
        sink.counter("engine/receiver_faults", s.receiver_faults);
        sink.counter("engine/erasures", s.erasures);
        sink.counter("engine/delivered_nodes", s.delivered_nodes);
        sink.counter("engine/decoded_nodes", s.decoded_nodes);
        sink.counter("engine/peak_queued", s.peak_queued);
        let sender_draws = if self.channel.sender_fault().is_some() {
            s.broadcasts
        } else {
            0
        };
        let delivery_draws = if self.channel.delivery_fault().is_some() {
            s.deliveries + s.receiver_faults + s.erasures
        } else {
            0
        };
        sink.counter("rng/sender_stream_draws", sender_draws);
        sink.counter("rng/delivery_stream_draws", delivery_draws);
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The channel in force.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// The next round to execute (0-based; equals rounds executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The per-node latency profile accumulated so far: first-packet
    /// and decode-completion rounds (see [`LatencyProfile`]).
    pub fn latency_profile(&self) -> LatencyProfile {
        LatencyProfile {
            first_packet: self.first_packet.clone(),
            decode: self.decode_round.clone(),
        }
    }

    /// The behavior of node `v`.
    pub fn behavior(&self, v: NodeId) -> &B {
        &self.behaviors[v.index()]
    }

    /// All behaviors, indexed by node id.
    pub fn behaviors(&self) -> &[B] {
        &self.behaviors
    }

    /// Mutable access to all behaviors, indexed by node id — the
    /// between-rounds hook of the continuous-traffic subsystem: a
    /// driver injects newly arrived messages into the source behavior
    /// (and retires globally delivered ones from relay queues) here,
    /// never mid-round. Determinism caveat: mutations become part of
    /// the run's definition, so a driver must derive them only from
    /// deterministic inputs (the round index, behavior state, prior
    /// reports) — never from wall-clock, thread identity, or ambient
    /// randomness — to preserve the seed/jobs reproducibility
    /// contract.
    pub fn behaviors_mut(&mut self) -> &mut [B] {
        // Mutations may wake quiescent nodes (e.g. traffic injection),
        // so the next round rebuilds the active set from scratch. They
        // may also undo a decode, so nobody stays settled; a node still
        // decoded settles again at its next delivery.
        self.stale = true;
        self.settled.clear();
        &mut self.behaviors
    }

    /// Consumes the simulator, returning the behaviors.
    pub fn into_behaviors(self) -> Vec<B> {
        self.behaviors
    }

    /// Executes one round.
    pub fn step(&mut self) -> RoundReport {
        self.step_inner(None)
    }

    /// Executes one round and records a detailed [`RoundTrace`]
    /// (used by invariant tests; slower than [`Simulator::step`]).
    pub fn step_traced(&mut self, trace: &mut RoundTrace) -> RoundReport {
        trace.broadcasters.clear();
        trace.deliveries.clear();
        trace.collided_listeners.clear();
        trace.erased_listeners.clear();
        trace.first_packet_listeners.clear();
        trace.decoded_nodes.clear();
        trace.queued_nodes.clear();
        self.step_inner(Some(trace))
    }

    /// One synchronous round: act, reach, deliver/receive, merge.
    fn step_inner(&mut self, mut trace: Option<&mut RoundTrace>) -> RoundReport {
        self.begin_round();
        let wheel: &mut [Bitset] = if self.dense { &mut [] } else { &mut self.wheel };
        let act = act_sweep(
            self.graph,
            self.channel,
            self.round,
            &mut self.active,
            wheel,
            &mut self.behaviors,
            &mut self.node_rngs,
            &mut self.fault_rngs,
            &mut self.actions,
            &mut self.broadcasting,
            &mut self.sender_ok,
            trace.as_deref_mut(),
            self.timed,
        );
        self.compute_reach();
        let recv = receive_sweep(
            self.graph,
            self.channel,
            self.round,
            &self.active,
            &self.broadcasting,
            &self.reach,
            &self.collided,
            &self.heard_from,
            &mut self.settled,
            &mut self.behaviors,
            &mut self.node_rngs,
            &mut self.fault_rngs,
            &mut self.first_packet,
            &mut self.decode_round,
            &self.actions,
            &self.sender_ok,
            &mut self.next_active,
            trace,
            self.timed,
        );
        self.finish_round(&act, &recv)
    }

    /// Prepares the round's scratch sets: rebuilds the active set when
    /// it is stale (or forced dense), moves the sleepers due this round
    /// from the wake wheel into it, and clears the per-round
    /// broadcaster and next-active accumulators.
    fn begin_round(&mut self) {
        if self.dense {
            self.active.insert_all();
            self.stale = false;
        } else {
            if self.stale {
                // Every node that may act joins; a sleeper that acts
                // before its round does nothing and is filed again.
                self.active.clear();
                self.wheel.iter_mut().for_each(Bitset::clear);
                for (i, b) in self.behaviors.iter().enumerate() {
                    if b.next_act() != u64::MAX || b.queued() > 0 {
                        self.active.insert(i);
                    }
                }
                self.stale = false;
            }
            if let Some(due) = self.wheel.get_mut((self.round % WHEEL_SLOTS) as usize) {
                for (a, d) in self.active.words_mut().iter_mut().zip(due.words_mut()) {
                    *a |= *d;
                    *d = 0;
                }
            }
        }
        self.broadcasting.clear();
        self.next_active.clear();
    }

    /// Runs the [reach pass](reach_pass) over this round's
    /// broadcasters, after the act sweep.
    fn compute_reach(&mut self) {
        let t0 = self.timed.then(Instant::now);
        reach_pass::<true>(
            self.graph,
            &self.broadcasting,
            &mut self.reach,
            &mut self.collided,
            &mut self.heard_from,
        );
        if let Some(t) = t0 {
            self.telemetry.reach_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Folds the round's sweep tallies into the round report and the
    /// aggregate stats, then advances the round counter.
    fn finish_round(&mut self, act: &ActPart, recv: &RecvPart) -> RoundReport {
        let t0 = self.timed.then(Instant::now);
        let report = RoundReport {
            round: self.round,
            broadcasters: act.broadcasters,
            sender_faults: act.sender_faults,
            deliveries: recv.deliveries,
            collisions: recv.collisions,
            receiver_faults: recv.receiver_faults,
            erasures: recv.erasures,
            first_deliveries: recv.first_deliveries,
            decodes: recv.decodes,
            queued: recv.queued,
        };
        if self.timed {
            self.telemetry.rounds += 1;
            self.telemetry.active_node_rounds += act.visits;
            self.telemetry.act_ns += act.nanos;
            self.telemetry.receive_ns += recv.nanos;
            self.telemetry.act_words_visited += act.words_visited;
            self.telemetry.act_words_skipped += act.words_skipped;
            self.telemetry.recv_words_visited += recv.words_visited;
            self.telemetry.recv_words_skipped += recv.words_skipped;
            self.telemetry.settled_deliveries += recv.settled_deliveries;
        }
        // The accumulated next-active set becomes the coming round's
        // active set (dense mode rebuilds it wholesale instead).
        if !self.dense {
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
        self.round += 1;
        self.stats.rounds += 1;
        self.stats.broadcasts += report.broadcasters;
        self.stats.deliveries += report.deliveries;
        self.stats.collisions += report.collisions;
        self.stats.sender_faults += report.sender_faults;
        self.stats.receiver_faults += report.receiver_faults;
        self.stats.erasures += report.erasures;
        self.stats.delivered_nodes += report.first_deliveries;
        self.stats.decoded_nodes += report.decodes;
        self.stats.peak_queued = self.stats.peak_queued.max(report.queued);
        if let Some(t) = t0 {
            self.telemetry.merge_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        report
    }

    /// Runs exactly `rounds` rounds.
    pub fn run(&mut self, rounds: u64) -> &SimStats {
        for _ in 0..rounds {
            self.step();
        }
        &self.stats
    }

    /// Runs until `done(behaviors)` returns true (checked before every
    /// round) or `max_rounds` rounds have executed.
    ///
    /// Returns the number of rounds executed when `done` fired, or
    /// `None` if the bound was exhausted first.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut done: impl FnMut(&[B]) -> bool,
    ) -> Option<u64> {
        let start = self.round;
        loop {
            if done(&self.behaviors) {
                return Some(self.round - start);
            }
            if self.round - start >= max_rounds {
                return None;
            }
            self.step();
        }
    }

    /// Runs until every node's decode is complete (per
    /// [`NodeBehavior::decoded`], checked before every round) or
    /// `max_rounds` rounds have executed.
    ///
    /// Equivalent to [`Simulator::run_until`] with an all-decoded
    /// predicate, but the check is O(1) — it reads the running
    /// [`SimStats::decoded_nodes`] tally instead of scanning every
    /// behavior — so the per-round cost stays proportional to the
    /// active set, not the node count. Returns the rounds executed
    /// when the last node decoded, or `None` if the bound was
    /// exhausted first.
    pub fn run_until_decoded(&mut self, max_rounds: u64) -> Option<u64> {
        let n = self.graph.node_count() as u64;
        let start = self.round;
        loop {
            if self.stats.decoded_nodes >= n {
                return Some(self.round - start);
            }
            if self.round - start >= max_rounds {
                return None;
            }
            self.step();
        }
    }
}

/// Tallies of one round's act sweep.
#[derive(Default)]
struct ActPart {
    broadcasters: u64,
    sender_faults: u64,
    /// Nodes whose `act` the sweep called (0 unless the simulator is
    /// timed).
    visits: u64,
    /// Sweep wall-clock (0 unless the simulator is timed).
    nanos: u64,
    /// Bitset words that entered the per-node loop.
    words_visited: u64,
    /// Bitset words skipped wholesale (all-zero).
    words_skipped: u64,
}

/// Tallies of one round's delivery sweep.
#[derive(Default)]
struct RecvPart {
    deliveries: u64,
    collisions: u64,
    receiver_faults: u64,
    erasures: u64,
    first_deliveries: u64,
    decodes: u64,
    queued: u64,
    /// Sweep wall-clock (0 unless the simulator is timed).
    nanos: u64,
    /// Bitset words that entered the per-node loop.
    words_visited: u64,
    /// Bitset words skipped wholesale (no active or reached bit).
    words_skipped: u64,
    /// Deliveries to settled listeners (0 unless the simulator is
    /// timed).
    settled_deliveries: u64,
}

/// Phase 1+2 over the **active** nodes: collect actions, mark
/// broadcasters, and sample sender faults (one draw per broadcaster,
/// from the broadcaster's own channel stream — a faulted sender still
/// occupies the channel). Inactive nodes are skipped entirely: by the
/// [`NodeBehavior::next_act`] contract their `act` would return
/// [`Action::Listen`] without drawing or mutating.
///
/// Unless `wheel` is empty (behaviors that cannot sleep, and dense
/// mode), a node whose `next_act` lies past the next round leaves
/// `active` right after its `act` and is filed in the wheel under that
/// round, or under the wheel's last slot if it lies further ahead; a
/// node that answers `u64::MAX` is filed nowhere, as a reception is
/// what wakes it.
///
/// `actions` and `sender_ok` entries are written only for
/// broadcasters — every read of either is guarded by the broadcaster
/// bit. Broadcasters are appended to `trace` in ascending node order.
// Out of line on purpose: inlined into the round step, this loop
// measured 5–15% more ns per active node-round on the benchmark's path
// and grid workloads.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn act_sweep<P: Payload, B: NodeBehavior<P>>(
    graph: &Graph,
    channel: Channel,
    round: u64,
    active: &mut Bitset,
    wheel: &mut [Bitset],
    behaviors: &mut [B],
    node_rngs: &mut [SmallRng],
    fault_rngs: &mut [SmallRng],
    actions: &mut [Action<P>],
    broadcasting: &mut Bitset,
    sender_ok: &mut [bool],
    mut trace: Option<&mut RoundTrace>,
    timed: bool,
) -> ActPart {
    // Telemetry is observational only: the clock is read outside the
    // sweep and the word tallies are plain register adds, so `timed`
    // cannot change any draw or result.
    let t0 = timed.then(Instant::now);
    // Composed channels contribute their sender-side component here;
    // presence is structural, so `sender(0.0)` consumes the same draws
    // as before composition existed.
    let sender_fault = channel.sender_fault();
    let mut part = ActPart::default();
    // Word-at-a-time sweep: zero words are skipped wholesale, and each
    // word's broadcaster bits accumulate in a register with a single
    // store at the end. Re-slicing every per-node buffer to the node
    // count lets the optimizer fold their bounds checks into one; the
    // word slice is consumed by iterator for the same reason.
    let n = graph.node_count();
    let behaviors = &mut behaviors[..n];
    let node_rngs = &mut node_rngs[..n];
    let fault_rngs = &mut fault_rngs[..n];
    let actions = &mut actions[..n];
    let sender_ok = &mut sender_ok[..n];
    let sleeps = B::SILENCE_TRANSPARENT && !wheel.is_empty();
    let words = active.words_mut();
    for (w, word) in words.iter_mut().enumerate() {
        let mw = *word;
        let mut m = mw;
        if m == 0 {
            continue;
        }
        part.words_visited += 1;
        // Only a timed `finish_round` reads the tally, and without a
        // popcount instruction it costs about a dozen instructions.
        if timed {
            part.visits += u64::from(mw.count_ones());
        }
        let mut b_word = 0u64;
        let mut asleep = 0u64;
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            m &= m - 1;
            let i = w * 64 + bit;
            let node = NodeId::from_index(i);
            let mut ctx = Ctx {
                node,
                round,
                rng: &mut node_rngs[i],
                graph,
            };
            let action = behaviors[i].act(&mut ctx);
            if sleeps {
                let wake = behaviors[i].next_act();
                if wake > round + 1 {
                    asleep |= 1 << bit;
                    if wake != u64::MAX {
                        let slot = wake.min(round + WHEEL_SLOTS) % WHEEL_SLOTS;
                        wheel[slot as usize].or_word(w, 1 << bit);
                    }
                }
            }
            if action.is_broadcast() {
                b_word |= 1 << bit;
                part.broadcasters += 1;
                sender_ok[i] = true;
                if sender_fault.map_or(false, |p| fault_rngs[i].gen_bool(p)) {
                    sender_ok[i] = false;
                    part.sender_faults += 1;
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.broadcasters.push(node);
                }
                actions[i] = action;
            }
        }
        *word = mw & !asleep;
        if b_word != 0 {
            broadcasting.or_word(w, b_word);
        }
    }
    part.words_skipped = words.len() as u64 - part.words_visited;
    if let Some(t) = t0 {
        part.nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    part
}

/// The reach pass of slot resolution, shared by the engine and the
/// adaptive-routing runner. Rebuilds `reach` — every neighbor of every
/// `broadcasting` node, i.e. exactly the nodes whose slot resolves to
/// something other than silence — and settles who each reached node
/// heard: the nodes a second broadcaster reaches join `collided`, and,
/// when `SOURCES` is true, `heard_from` records a broadcaster of every
/// reached node. Only the entries of reached nodes outside `collided`
/// are meaningful (there the one broadcaster), so `heard_from` is never
/// cleared.
///
/// `heard_from` is read to find a clean listener's broadcaster: for its
/// sender fault ([`sender_faulted`]), its message in the routing runner
/// when several are on air, and its packet and trace entry in the
/// receive sweep. The engine always passes `SOURCES = true`. The
/// routing runner passes `false` for a round with one message on air
/// and no sender faults, where nothing reads it; `heard_from` is then
/// left as it was, and a later round with `true` rewrites every entry
/// it reads. The switch is a const so that the per-neighbor loop holds
/// no test of it.
///
/// A broadcaster's neighbor bits of one word gather in a register and
/// meet `reach` once per word. A hub, a broadcaster with at least 64
/// neighbors, goes through [`hub_reach`], which also takes each word
/// it covers whole in one step. Broadcasters of lower degree never look
/// for whole words.
pub(crate) fn reach_pass<const SOURCES: bool>(
    graph: &Graph,
    broadcasting: &Bitset,
    reach: &mut Bitset,
    collided: &mut Bitset,
    heard_from: &mut [u32],
) {
    reach.clear();
    collided.clear();
    // Word-at-a-time over the broadcasters, like `act_sweep`; re-slicing
    // `collided` to `reach`'s length folds their bounds checks into one.
    let reach = reach.words_mut();
    let collided = &mut collided.words_mut()[..reach.len()];
    let heard_from = &mut heard_from[..graph.node_count()];
    for (bw_index, &bw) in broadcasting.words().iter().enumerate() {
        let mut m = bw;
        while m != 0 {
            let sender = NodeId::from_index(bw_index * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
            // CSR neighbor lists are sorted and free of duplicates, so
            // the sender's bits of one word gather in a register and
            // meet `reach` once per word; none of them can collide with
            // another of its own.
            let neighbors = graph.neighbors(sender);
            // Gated on degree, and out of line: a whole-word check in
            // this loop measured slower on the grid, where no word is
            // ever whole, and the hub loop written inline here slowed
            // this loop's traced reach by 8–16% on grids and paths.
            if neighbors.len() >= 64 {
                hub_reach::<SOURCES>(sender, neighbors, reach, collided, heard_from);
                continue;
            }
            let Some(first) = neighbors.first() else {
                continue;
            };
            // A bit already in `reach` means a second broadcaster: no
            // branch, the old reach bits of the word move into
            // `collided`.
            let mut meet = |w: usize, bits: u64| {
                let r = reach[w];
                collided[w] |= r & bits;
                reach[w] = r | bits;
            };
            let mut w = first.index() / 64;
            let mut bits = 0u64;
            for &u in neighbors {
                let i = u.index();
                if SOURCES {
                    heard_from[i] = sender.raw();
                }
                if i / 64 != w {
                    meet(w, bits);
                    (w, bits) = (i / 64, 0);
                }
                bits |= 1 << (i % 64);
            }
            meet(w, bits);
        }
    }
}

/// The [reach pass](reach_pass) of one hub `sender` with its sorted,
/// duplicate-free `neighbors`. Wherever the list holds all 64 ids of a
/// word, `reach` is met with all ones and, when `SOURCES` is true, the
/// word's 64 `heard_from` entries are filled at once; the other
/// neighbors are gathered per word as in the reach pass.
#[inline(never)]
fn hub_reach<const SOURCES: bool>(
    sender: NodeId,
    neighbors: &[NodeId],
    reach: &mut [u64],
    collided: &mut [u64],
    heard_from: &mut [u32],
) {
    let collided = &mut collided[..reach.len()];
    let mut meet = |w: usize, bits: u64| {
        let r = reach[w];
        collided[w] |= r & bits;
        reach[w] = r | bits;
    };
    let (mut w, mut bits) = (0, 0u64);
    let mut j = 0;
    while let Some(&u) = neighbors.get(j) {
        let i = u.index();
        // Sorted and duplicate-free, the list holds all of word `i / 64`
        // iff it holds the word's first id here and its last id 63
        // places on.
        if i % 64 == 0 && neighbors.get(j + 63).is_some_and(|v| v.index() == i + 63) {
            meet(w, bits);
            if SOURCES {
                heard_from[i..i + 64].fill(sender.raw());
            }
            (w, bits) = (i / 64, !0);
            j += 64;
            continue;
        }
        if SOURCES {
            heard_from[i] = sender.raw();
        }
        if i / 64 != w {
            meet(w, bits);
            (w, bits) = (i / 64, 0);
        }
        bits |= 1 << (i % 64);
        j += 1;
    }
    meet(w, bits);
}

/// The listeners of word `w` in `single` — each reached by exactly one
/// broadcaster, `heard_from` — whose broadcaster's sender fault fired
/// (`sender_ok` false): that broadcaster transmitted noise to every
/// listener it reached. `sender_ok` is read only at broadcasters.
pub(crate) fn sender_faulted(single: u64, w: usize, heard_from: &[u32], sender_ok: &[bool]) -> u64 {
    let mut faulted = 0u64;
    let mut m = single;
    while m != 0 {
        let bit = m.trailing_zeros();
        m &= m - 1;
        let s = heard_from[w * 64 + bit as usize] as usize;
        faulted |= u64::from(!sender_ok[s]) << bit;
    }
    faulted
}

/// Appends the nodes of word `w` in `bits` to `list`, in ascending
/// order.
fn push_word(list: &mut Vec<NodeId>, w: usize, bits: u64) {
    let mut m = bits;
    while m != 0 {
        list.push(NodeId::from_index(w * 64 + m.trailing_zeros() as usize));
        m &= m - 1;
    }
}

/// Phase 3 over `active ∪ reach`: resolve every listener's slot
/// outcome and deliver it, then poll each swept node's decode and
/// queue state and decide its next-round activity. Skipped nodes would
/// have heard silence and, by the [`NodeBehavior::next_act`]
/// contract, ignored it with frozen observables. Trace entries are
/// appended in ascending listener order.
///
/// Each word's outcomes are settled before any behavior runs: from the
/// `reach`, `collided` and `heard_from` the reach pass recorded, the
/// sweep builds the word's sender-faulted, lost and delivered masks,
/// drawing each clean listener's loss once from its own channel
/// stream, tallies the round's counters by popcount, and fills the
/// trace's collided, erased and delivery lists from the masks.
/// Behaviors then receive in ascending order: every swept node, or, for
/// a [silence-transparent](NodeBehavior::SILENCE_TRANSPARENT) behavior,
/// only the delivered listeners not yet `settled`; a delivered listener
/// of such a behavior that is decoded after its reception joins
/// `settled`. Every draw comes from the listener's own stream and no
/// behavior can touch another node's, so drawing a word's losses before
/// its behaviors run moves no draw.
// Out of line like `act_sweep`, so each phase timer brackets its own
// loop.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn receive_sweep<P: Payload, B: NodeBehavior<P>>(
    graph: &Graph,
    channel: Channel,
    round: u64,
    active: &Bitset,
    broadcasting: &Bitset,
    reach: &Bitset,
    collided: &Bitset,
    heard_from: &[u32],
    settled: &mut Bitset,
    behaviors: &mut [B],
    node_rngs: &mut [SmallRng],
    fault_rngs: &mut [SmallRng],
    first_packet: &mut [Option<u64>],
    decode_round: &mut [Option<u64>],
    actions: &[Action<P>],
    sender_ok: &[bool],
    next_active: &mut Bitset,
    mut trace: Option<&mut RoundTrace>,
    timed: bool,
) -> RecvPart {
    let t0 = timed.then(Instant::now);
    // receiver(p) and erasure(p) draw from the same per-node streams
    // in the same order, so they lose identical slots under one seed.
    // Composed channels contribute their delivery-side component here
    // (the sender side was drawn in the act sweep, from the
    // broadcaster's stream — the two components never share a draw).
    let sender_fault = channel.sender_fault().is_some();
    let loss = channel.delivery_fault().map(loss_threshold);
    let presents_erasure = channel.delivery_presents_erasure();
    let mut part = RecvPart::default();
    // Word-at-a-time sweep over active ∪ reach, unioned on the fly:
    // each node's classification is a register bit test, and each
    // word's next-active bits accumulate in a register with one store.
    // For silence-transparent behaviors every bit but the live
    // listeners' is carried wholesale — their per-node processing is
    // vacuous by the [`NodeBehavior::SILENCE_TRANSPARENT`] promises —
    // and only the live listeners, delivered and not settled, enter the
    // per-node loop.
    let n = graph.node_count();
    let behaviors = &mut behaviors[..n];
    let node_rngs = &mut node_rngs[..n];
    let fault_rngs = &mut fault_rngs[..n];
    let first_packet = &mut first_packet[..n];
    let decode_round = &mut decode_round[..n];
    let heard_from = &heard_from[..n];
    let active_words = active.words();
    for (w, ((((&aw, &rw), &bw), &cw), sw)) in active_words
        .iter()
        .zip(reach.words())
        .zip(broadcasting.words())
        .zip(collided.words())
        .zip(settled.words_mut())
        .enumerate()
    {
        if aw | rw == 0 {
            continue;
        }
        part.words_visited += 1;
        // Reached listeners (broadcasters hear nothing: half-duplex),
        // split into collided ones and those one broadcaster reached.
        let heard = rw & !bw;
        let noisy = heard & cw;
        let single = heard & !cw;
        let faulted = if sender_fault {
            sender_faulted(single, w, heard_from, sender_ok)
        } else {
            0
        };
        let clean = single & !faulted;
        // One loss draw per clean listener, from its own stream.
        let mut lost = 0u64;
        if let Some(threshold) = loss {
            let mut m = clean;
            while m != 0 {
                let bit = m.trailing_zeros();
                m &= m - 1;
                let kept = kept_mask(fault_rngs[w * 64 + bit as usize].next_u64(), threshold);
                lost |= !kept & (1 << bit);
            }
        }
        let delivered = clean & !lost;
        let erased = if presents_erasure { lost } else { 0 };
        part.collisions += u64::from(noisy.count_ones());
        part.deliveries += u64::from(delivered.count_ones());
        if presents_erasure {
            part.erasures += u64::from(lost.count_ones());
        } else {
            part.receiver_faults += u64::from(lost.count_ones());
        }
        // A settled listener ignores its packet: only the live ones are
        // handed theirs. Only a silence-transparent behavior settles.
        let live = delivered & !*sw;
        if timed {
            part.settled_deliveries += u64::from((delivered & !live).count_ones());
        }
        if let Some(t) = trace.as_deref_mut() {
            push_word(&mut t.collided_listeners, w, noisy);
            push_word(&mut t.erased_listeners, w, erased);
            let mut m = delivered;
            while m != 0 {
                let i = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                t.deliveries
                    .push((NodeId::new(heard_from[i]), NodeId::from_index(i)));
            }
        }
        let (mut m, mut na_word) = if B::SILENCE_TRANSPARENT {
            // Everyone but the live listeners keeps its activity bit
            // verbatim (nothing about them can change this sweep); live
            // listeners are re-decided per node below.
            (live, aw & !live)
        } else {
            (aw | rw, 0u64)
        };
        let mut settles = 0u64;
        while m != 0 {
            let bit = m.trailing_zeros() as usize;
            let mask = 1u64 << bit;
            m &= m - 1;
            let i = w * 64 + bit;
            let node = NodeId::from_index(i);
            if !B::SILENCE_TRANSPARENT && bw & mask != 0 {
                // Broadcasters do not receive (half-duplex), but their
                // decode and queue state is still polled, and having
                // just acted they stay active for the coming round.
                poll_node(
                    &behaviors[i],
                    node,
                    round,
                    decode_round,
                    &mut part,
                    trace.as_deref_mut(),
                );
                na_word |= mask;
                continue;
            }
            let rx: Reception<P> = if delivered & mask != 0 {
                // The delivery site asks the payload for this
                // listener's copy: honest payloads clone, while
                // equivocating payloads split the audience (see the
                // `Payload` trait).
                let sender = NodeId::new(heard_from[i]);
                let packet = actions[sender.index()]
                    .payload()
                    .expect("broadcasting sender has a payload")
                    .for_listener(node);
                if first_packet[i].is_none() {
                    first_packet[i] = Some(round);
                    part.first_deliveries += 1;
                    if let Some(t) = trace.as_deref_mut() {
                        t.first_packet_listeners.push(node);
                    }
                }
                Reception::Packet(packet)
            } else if erased & mask != 0 {
                Reception::Erased
            } else if heard & mask != 0 {
                // A collision, a sender fault or a receiver fault.
                Reception::Noise
            } else {
                // Active but out of every broadcaster's reach: the
                // slot is silent, no channel randomness is drawn.
                Reception::Silence
            };
            let mut ctx = Ctx {
                node,
                round,
                rng: &mut node_rngs[i],
                graph,
            };
            let before = if cfg!(debug_assertions) {
                behaviors[i].next_act()
            } else {
                0
            };
            behaviors[i].receive(&mut ctx, rx);
            let depth = poll_node(
                &behaviors[i],
                node,
                round,
                decode_round,
                &mut part,
                trace.as_deref_mut(),
            );
            // Re-polled *after* the reception: a node stays active
            // exactly while its (possibly just-updated) state asks for
            // sweeping. Nodes that go quiescent here are re-woken
            // through the reach set the next time a broadcast arrives;
            // a silence-transparent sleeper delivered to here stays
            // filed in the wake wheel, which the reception rule keeps
            // on time.
            let wake = behaviors[i].next_act();
            debug_assert!(
                !B::SILENCE_TRANSPARENT || wake == before || wake <= round + 1,
                "{node}'s reception in round {round} moved next_act from {before} to {wake}"
            );
            let stays = if B::SILENCE_TRANSPARENT {
                wake <= round + 1
            } else {
                depth > 0 || wake != u64::MAX
            };
            if stays {
                na_word |= mask;
            }
            // Its first packet is recorded, its decode too: no later
            // delivery can change anything.
            if B::SILENCE_TRANSPARENT && behaviors[i].decoded() {
                settles |= mask;
            }
        }
        *sw |= settles;
        if na_word != 0 {
            next_active.or_word(w, na_word);
        }
    }
    part.words_skipped = active_words.len() as u64 - part.words_visited;
    if let Some(t) = t0 {
        part.nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    part
}

/// End-of-round poll for one swept node: records the first round in
/// which [`NodeBehavior::decoded`] reports `true`, and tallies the
/// node's [`NodeBehavior::queued`] depth (returned for the caller's
/// activity decision). Unswept nodes need no poll: their observables
/// are frozen by the quiescence contract, and a queued depth > 0 keeps
/// a node swept.
fn poll_node<P, B: NodeBehavior<P>>(
    behavior: &B,
    node: NodeId,
    round: u64,
    decode_round: &mut [Option<u64>],
    part: &mut RecvPart,
    mut trace: Option<&mut RoundTrace>,
) -> u64 {
    if decode_round[node.index()].is_none() && behavior.decoded() {
        decode_round[node.index()] = Some(round);
        part.decodes += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.decoded_nodes.push(node);
        }
    }
    let depth = behavior.queued();
    if depth > 0 {
        part.queued += depth;
        if let Some(t) = trace {
            t.queued_nodes.push((node, depth));
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    /// Flood protocol used across engine tests: informed nodes always
    /// broadcast `()`; packet reception informs.
    struct AlwaysFlood {
        informed: bool,
    }

    impl NodeBehavior<()> for AlwaysFlood {
        fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
            if self.informed {
                Action::Broadcast(())
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
            if rx.is_packet() {
                self.informed = true;
            }
        }
        fn decoded(&self) -> bool {
            self.informed
        }
    }

    /// `reach_pass` against a per-neighbor count, over every subset of
    /// five broadcasters and random subsets of all nodes: hub 0 holds
    /// word 1 and word 3 whole, word 2 but for node 130, and partial
    /// words at both ends; hub 399's list is exactly word 3; hub 398
    /// overlaps hub 0 in partial words and holds word 2 whole; node 397
    /// has four neighbors in different words. Stale `heard_from`
    /// entries carry over from one subset to the next. Without
    /// `SOURCES`, the pass builds the same `reach` and `collided` and
    /// leaves every `heard_from` entry as it was.
    #[test]
    fn reach_pass_matches_a_per_neighbor_reference() {
        use rand::SeedableRng;
        let n = 400;
        let edges = (1..=300)
            .filter(|&i| i != 130)
            .map(|i| (0, i))
            .chain((192..256).map(|i| (399, i)))
            .chain((100..=200).map(|i| (398, i)))
            .chain([5, 64, 250, 396].map(|i| (397, i)));
        let g = netgraph::Graph::from_edges(
            n,
            edges.map(|(u, v)| (NodeId::from_index(u), NodeId::from_index(v))),
        )
        .unwrap();
        assert_eq!(g.degree(NodeId::new(399)), 64);
        let mut subsets: Vec<Vec<usize>> = (0..32u32)
            .map(|mask| {
                [0, 399, 398, 397, 396]
                    .into_iter()
                    .enumerate()
                    .filter(|&(b, _)| mask & (1 << b) != 0)
                    .map(|(_, v)| v)
                    .collect()
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        subsets.extend((0..40).map(|_| (0..n).filter(|_| rng.gen_bool(0.04)).collect()));
        let (mut reach, mut collided) = (Bitset::new(n), Bitset::new(n));
        let mut heard_from = vec![u32::MAX; n];
        let (mut bare_reach, mut bare_collided) = (Bitset::new(n), Bitset::new(n));
        let mut untouched = vec![u32::MAX - 1; n];
        for senders in subsets {
            let mut broadcasting = Bitset::new(n);
            senders.iter().for_each(|&u| broadcasting.insert(u));
            reach_pass::<true>(
                &g,
                &broadcasting,
                &mut reach,
                &mut collided,
                &mut heard_from,
            );
            reach_pass::<false>(
                &g,
                &broadcasting,
                &mut bare_reach,
                &mut bare_collided,
                &mut untouched,
            );
            assert_eq!(bare_reach, reach, "{senders:?}: reach without sources");
            assert_eq!(
                bare_collided, collided,
                "{senders:?}: collided without sources"
            );
            assert!(
                untouched.iter().all(|&s| s == u32::MAX - 1),
                "{senders:?}: heard_from written without sources"
            );
            let mut count = vec![0; n];
            let mut from = vec![0; n];
            for &u in &senders {
                for &v in g.neighbors(NodeId::from_index(u)) {
                    count[v.index()] += 1;
                    from[v.index()] = u as u32;
                }
            }
            for v in 0..n {
                assert_eq!(reach.contains(v), count[v] > 0, "{senders:?}: reach of {v}");
                assert_eq!(
                    collided.contains(v),
                    count[v] > 1,
                    "{senders:?}: collided {v}"
                );
                if count[v] == 1 {
                    assert_eq!(heard_from[v], from[v], "{senders:?}: heard_from[{v}]");
                }
            }
        }
    }

    fn flood_behaviors(n: usize, informed: &[usize]) -> Vec<AlwaysFlood> {
        (0..n)
            .map(|i| AlwaysFlood {
                informed: informed.contains(&i),
            })
            .collect()
    }

    #[test]
    fn single_broadcaster_delivers_to_all_neighbors() {
        let g = generators::star(5);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(6, &[0]), 1).unwrap();
        let r = sim.step();
        assert_eq!(r.broadcasters, 1);
        assert_eq!(r.deliveries, 5);
        assert_eq!(r.collisions, 0);
        assert!(sim.behaviors().iter().all(|b| b.informed));
    }

    #[test]
    fn two_broadcasters_collide_at_common_neighbor() {
        // Path 0 - 1 - 2 with both endpoints informed: middle node
        // hears a collision and never receives.
        let g = generators::path(3);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(3, &[0, 2]), 1).unwrap();
        let r = sim.step();
        assert_eq!(r.broadcasters, 2);
        assert_eq!(r.deliveries, 0);
        assert_eq!(r.collisions, 1);
        assert!(!sim.behavior(NodeId::new(1)).informed);
    }

    #[test]
    fn broadcaster_does_not_receive() {
        // Two adjacent informed nodes broadcast at each other: no
        // deliveries (half-duplex), no collisions.
        let g = generators::path(2);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(2, &[0, 1]), 1).unwrap();
        let r = sim.step();
        assert_eq!(r.deliveries, 0);
        assert_eq!(r.collisions, 0);
    }

    #[test]
    fn flood_crosses_path_one_hop_per_round() {
        let g = generators::path(5);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(5, &[0]), 1).unwrap();
        let used = sim
            .run_until(100, |bs| bs.iter().all(|b| b.informed))
            .expect("faultless flood must finish");
        // On a path, flooding from an endpoint takes exactly D rounds:
        // each round the frontier advances one hop (the frontier node's
        // neighbors behind it are also broadcasting, but the node ahead
        // has a unique broadcasting neighbor... actually nodes behind
        // the frontier collide; the frontier still advances because the
        // next node's only *broadcasting* neighbor is the frontier).
        assert_eq!(used, 4);
    }

    #[test]
    fn receiver_faults_delay_but_do_not_block() {
        let g = generators::path(2);
        let channel = Channel::receiver(0.9).unwrap();
        let mut sim = Simulator::new(&g, channel, flood_behaviors(2, &[0]), 3).unwrap();
        let used = sim
            .run_until(10_000, |bs| bs[1].informed)
            .expect("must eventually deliver");
        assert!(used >= 1);
        assert!(
            sim.stats().receiver_faults > 0,
            "with p=0.9 some faults should occur"
        );
        assert_eq!(sim.stats().erasures, 0, "receiver noise is not an erasure");
    }

    #[test]
    fn sender_faults_recorded_and_consistent() {
        let g = generators::star(8);
        let channel = Channel::sender(0.5).unwrap();
        let mut sim = Simulator::new(&g, channel, flood_behaviors(9, &[0]), 5).unwrap();
        // One broadcaster: each round either all 8 leaves receive
        // (sender ok) or none (sender fault) — sender faults are a
        // single draw shared by all receivers.
        for _ in 0..20 {
            let r = sim.step();
            assert!(
                r.deliveries == 0 || r.deliveries.is_multiple_of(8),
                "partial delivery {} under sender fault",
                r.deliveries
            );
        }
        assert!(sim.stats().sender_faults > 0);
        assert_eq!(sim.stats().losses(), sim.stats().sender_faults);
    }

    #[test]
    fn erasures_are_observed_and_counted() {
        /// A listener that tallies every reception kind it observes.
        struct Tally {
            packets: u64,
            noise: u64,
            erased: u64,
            silence: u64,
        }
        impl NodeBehavior<()> for Tally {
            fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
                if ctx.node == NodeId::new(0) {
                    Action::Broadcast(())
                } else {
                    Action::Listen
                }
            }
            fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
                match rx {
                    Reception::Packet(()) => self.packets += 1,
                    Reception::Noise => self.noise += 1,
                    Reception::Erased => self.erased += 1,
                    Reception::Silence => self.silence += 1,
                }
            }
        }
        let g = generators::single_link();
        let behaviors = || {
            vec![
                Tally {
                    packets: 0,
                    noise: 0,
                    erased: 0,
                    silence: 0,
                },
                Tally {
                    packets: 0,
                    noise: 0,
                    erased: 0,
                    silence: 0,
                },
            ]
        };
        let mut sim = Simulator::new(&g, Channel::erasure(0.5).unwrap(), behaviors(), 7).unwrap();
        sim.run(200);
        let listener = sim.behavior(NodeId::new(1));
        assert_eq!(listener.packets, sim.stats().deliveries);
        assert_eq!(listener.erased, sim.stats().erasures);
        assert_eq!(listener.noise, 0, "erasure channel never emits noise here");
        assert!(listener.packets > 0 && listener.erased > 0);
        assert_eq!(sim.stats().receiver_faults, 0);
        // Same seed under the receiver channel: identical loss slots,
        // but presented as noise.
        let mut noisy =
            Simulator::new(&g, Channel::receiver(0.5).unwrap(), behaviors(), 7).unwrap();
        noisy.run(200);
        let nl = noisy.behavior(NodeId::new(1));
        assert_eq!(nl.noise, listener.erased);
        assert_eq!(nl.packets, listener.packets);
        assert_eq!(noisy.stats().receiver_faults, sim.stats().erasures);
    }

    #[test]
    fn listeners_observe_silence_and_collisions() {
        struct Observe {
            last: Option<Reception<()>>,
            broadcast: bool,
        }
        impl NodeBehavior<()> for Observe {
            fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
                if self.broadcast {
                    Action::Broadcast(())
                } else {
                    Action::Listen
                }
            }
            fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
                self.last = Some(rx);
            }
        }
        // Path 0-1-2: both endpoints broadcast, middle node hears a
        // collision (Noise); a lone pair hears Silence.
        let g = generators::path(3);
        let behaviors = vec![
            Observe {
                last: None,
                broadcast: true,
            },
            Observe {
                last: None,
                broadcast: false,
            },
            Observe {
                last: None,
                broadcast: true,
            },
        ];
        let mut sim = Simulator::new(&g, Channel::faultless(), behaviors, 1).unwrap();
        sim.step();
        assert_eq!(sim.behavior(NodeId::new(1)).last, Some(Reception::Noise));

        let g2 = generators::path(2);
        let behaviors = vec![
            Observe {
                last: None,
                broadcast: false,
            },
            Observe {
                last: None,
                broadcast: false,
            },
        ];
        let mut sim2 = Simulator::new(&g2, Channel::faultless(), behaviors, 1).unwrap();
        sim2.step();
        assert_eq!(sim2.behavior(NodeId::new(0)).last, Some(Reception::Silence));
        assert_eq!(sim2.behavior(NodeId::new(1)).last, Some(Reception::Silence));
    }

    #[test]
    fn faultless_star_informs_everyone_in_one_round() {
        let g = generators::star(100);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(101, &[0]), 9).unwrap();
        let used = sim
            .run_until(10, |bs| bs.iter().all(|b| b.informed))
            .unwrap();
        assert_eq!(used, 1);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let g = generators::gnp_connected(30, 0.1, 4).unwrap();
        let run = |seed| {
            let mut sim = Simulator::new(
                &g,
                Channel::receiver(0.4).unwrap(),
                flood_behaviors(30, &[0]),
                seed,
            )
            .unwrap();
            sim.run(50);
            (
                sim.stats().deliveries,
                sim.stats().receiver_faults,
                sim.stats().collisions,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn behavior_count_mismatch_rejected() {
        let g = generators::path(3);
        let err = Simulator::<(), _>::new(&g, Channel::faultless(), flood_behaviors(2, &[]), 0)
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::NodeCountMismatch {
                supplied: 2,
                expected: 3
            }
        );
    }

    #[test]
    fn invalid_probability_rejected_at_construction() {
        // The old engine validated a FaultModel at Simulator::new; the
        // Channel constructors now reject bad probabilities up front.
        let err = Channel::sender(1.0).unwrap_err();
        assert_eq!(err, ModelError::InvalidFaultProbability { p: 1.0 });
        assert!(Channel::erasure(-0.5).is_err());
    }

    #[test]
    fn traced_step_matches_report() {
        let g = generators::star(4);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(5, &[0]), 2).unwrap();
        let mut trace = RoundTrace::default();
        let r = sim.step_traced(&mut trace);
        assert_eq!(trace.broadcasters, vec![NodeId::new(0)]);
        assert_eq!(trace.deliveries.len() as u64, r.deliveries);
        assert!(trace.collided_listeners.is_empty());
        assert!(trace.erased_listeners.is_empty());
        for &(s, _) in &trace.deliveries {
            assert_eq!(s, NodeId::new(0));
        }
    }

    #[test]
    fn traced_step_records_erasures() {
        let g = generators::star(6);
        let mut sim = Simulator::new(
            &g,
            Channel::erasure(0.6).unwrap(),
            flood_behaviors(7, &[0]),
            3,
        )
        .unwrap();
        let mut trace = RoundTrace::default();
        let r = sim.step_traced(&mut trace);
        assert_eq!(trace.erased_listeners.len() as u64, r.erasures);
        assert_eq!(
            trace.deliveries.len() + trace.erased_listeners.len(),
            6,
            "every leaf slot either delivers or erases"
        );
    }

    #[test]
    fn stats_accumulate_over_rounds() {
        let g = generators::star(3);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(4, &[0]), 2).unwrap();
        sim.run(5);
        assert_eq!(sim.stats().rounds, 5);
        assert_eq!(sim.round(), 5);
        // After round 1 everyone is informed; later rounds all collide
        // at every listener... actually all nodes broadcast, nobody
        // listens. Deliveries only in round 1.
        assert_eq!(sim.stats().deliveries, 3);
    }

    #[test]
    fn run_until_checks_before_first_round() {
        let g = generators::path(2);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(2, &[0, 1]), 0).unwrap();
        let used = sim
            .run_until(10, |bs| bs.iter().all(|b| b.informed))
            .unwrap();
        assert_eq!(used, 0, "done predicate already true at entry");
        assert_eq!(sim.round(), 0);
    }

    #[test]
    fn run_until_returns_none_when_budget_exhausted() {
        let g = generators::path(2);
        // Nobody informed: nothing ever happens.
        let mut sim = Simulator::new(&g, Channel::faultless(), flood_behaviors(2, &[]), 0).unwrap();
        assert_eq!(sim.run_until(5, |bs| bs.iter().all(|b| b.informed)), None);
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn into_behaviors_returns_state() {
        let g = generators::path(2);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(2, &[0]), 0).unwrap();
        sim.step();
        let bs = sim.into_behaviors();
        assert!(bs[1].informed);
    }

    #[test]
    fn channel_accessor() {
        let g = generators::path(2);
        let channel = Channel::erasure(0.25).unwrap();
        let sim = Simulator::<(), _>::new(&g, channel, flood_behaviors(2, &[]), 0).unwrap();
        assert_eq!(sim.channel(), channel);
    }

    /// Runs `rounds` traced rounds, sparse or forced dense, and returns
    /// everything observable: reports, traces, stats, the latency
    /// profile, and the final informed-set of the flood behaviors.
    #[allow(clippy::type_complexity)]
    fn observe_flood(
        g: &netgraph::Graph,
        channel: Channel,
        informed: &[usize],
        seed: u64,
        dense: bool,
    ) -> (
        Vec<RoundReport>,
        Vec<RoundTrace>,
        SimStats,
        LatencyProfile,
        Vec<bool>,
    ) {
        let n = g.node_count();
        let mut sim = Simulator::new(g, channel, flood_behaviors(n, informed), seed)
            .unwrap()
            .with_dense_sweeps(dense);
        let mut reports = Vec::new();
        let mut traces = Vec::new();
        for _ in 0..12 {
            let mut t = RoundTrace::default();
            reports.push(sim.step_traced(&mut t));
            traces.push(t);
        }
        let stats = *sim.stats();
        let profile = sim.latency_profile();
        let informed = sim.into_behaviors().iter().map(|b| b.informed).collect();
        (reports, traces, stats, profile, informed)
    }

    #[test]
    fn empty_graph_steps() {
        let g = netgraph::Graph::from_edges(0, []).unwrap();
        let mut sim =
            Simulator::<(), AlwaysFlood>::new(&g, Channel::faultless(), vec![], 1).unwrap();
        let r = sim.step();
        assert_eq!(r, RoundReport::default());
        assert_eq!(sim.round(), 1);
        assert_eq!(sim.stats().rounds, 1);
    }

    #[test]
    fn single_node_graph_broadcasts_to_nobody() {
        // A lone informed node broadcasts every round and draws its
        // sender fault every round, but nobody can hear it.
        let g = netgraph::Graph::from_edges(1, []).unwrap();
        let channel = Channel::sender(0.5).unwrap();
        let sparse = observe_flood(&g, channel, &[0], 3, false);
        assert_eq!(sparse, observe_flood(&g, channel, &[0], 3, true));
        let stats = sparse.2;
        assert_eq!(stats.broadcasts, 12);
        assert!(stats.sender_faults > 0 && stats.sender_faults < 12);
        assert_eq!((stats.deliveries, stats.collisions), (0, 0));
        assert_eq!(sparse.3.decode_complete(NodeId::new(0)), Some(0));
    }

    #[test]
    fn isolated_nodes_match_dense_sweeps() {
        // 6 nodes, one edge: the degree-0 nodes are never reached, so
        // the sparse sweeps never visit them after the first round.
        let g = netgraph::Graph::from_edges(6, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        for channel in [
            Channel::faultless(),
            Channel::sender(0.3).unwrap(),
            Channel::erasure(0.3).unwrap(),
        ] {
            let sparse = observe_flood(&g, channel, &[0], 7, false);
            assert_eq!(sparse, observe_flood(&g, channel, &[0], 7, true));
            assert_eq!(sparse.4, [true, true, false, false, false, false]);
        }
    }

    #[test]
    fn latency_profile_records_path_flood() {
        // Faultless flood on a path: node i first hears (and decodes)
        // in round i-1; the source decodes at construction (round 0)
        // and never receives.
        let g = generators::path(5);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(5, &[0]), 1).unwrap();
        assert_eq!(sim.stats().decoded_nodes, 1, "source decoded up front");
        sim.run(4);
        let p = sim.latency_profile();
        assert_eq!(p.first_packet(NodeId::new(0)), None);
        assert_eq!(p.decode_complete(NodeId::new(0)), Some(0));
        for i in 1..5u32 {
            assert_eq!(p.first_packet(NodeId::new(i)), Some(u64::from(i) - 1));
            assert_eq!(p.decode_complete(NodeId::new(i)), Some(u64::from(i) - 1));
        }
        assert_eq!(p.delivered_count(), 4);
        assert_eq!(p.decoded_count(), 5);
        assert_eq!(p.delivery_latencies(), vec![1, 2, 3, 4]);
        assert_eq!(p.max_delivery_latency(), Some(4));
        assert_eq!(sim.stats().delivered_nodes, 4);
        assert_eq!(sim.stats().decoded_nodes, 5);
    }

    #[test]
    fn round_report_and_trace_surface_first_deliveries() {
        let g = generators::star(4);
        let mut sim =
            Simulator::new(&g, Channel::faultless(), flood_behaviors(5, &[0]), 2).unwrap();
        let mut trace = RoundTrace::default();
        let r = sim.step_traced(&mut trace);
        assert_eq!(r.first_deliveries, 4, "all leaves first-served in round 0");
        assert_eq!(r.decodes, 4, "all leaves decode in round 0");
        assert_eq!(trace.first_packet_listeners.len(), 4);
        assert_eq!(trace.decoded_nodes.len(), 4);
        // Round 1: everyone broadcasts, nothing new is delivered.
        let r1 = sim.step_traced(&mut trace);
        assert_eq!(r1.first_deliveries, 0);
        assert_eq!(r1.decodes, 0);
        assert!(trace.first_packet_listeners.is_empty());
        assert!(trace.decoded_nodes.is_empty());
    }

    #[test]
    fn first_delivery_not_re_recorded_on_later_packets() {
        /// Node 0 broadcasts every round; node 1 only listens.
        struct Shout {
            node0: bool,
        }
        impl NodeBehavior<()> for Shout {
            fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
                if self.node0 {
                    Action::Broadcast(())
                } else {
                    Action::Listen
                }
            }
            fn receive(&mut self, _ctx: &mut Ctx<'_>, _rx: Reception<()>) {}
        }
        let g = generators::single_link();
        let behaviors = vec![Shout { node0: true }, Shout { node0: false }];
        let mut sim = Simulator::new(&g, Channel::faultless(), behaviors, 1).unwrap();
        sim.run(10);
        let p = sim.latency_profile();
        assert_eq!(p.first_packet(NodeId::new(1)), Some(0));
        assert_eq!(
            sim.stats().delivered_nodes,
            1,
            "first delivery counted once"
        );
        assert_eq!(sim.stats().deliveries, 10, "every round still delivers");
    }

    #[test]
    fn latency_profile_counts_losses() {
        // Under a heavy receiver channel the first delivery happens
        // strictly later than round 0 for some seed.
        let g = generators::single_link();
        let channel = Channel::receiver(0.9).unwrap();
        let mut sim = Simulator::new(&g, channel, flood_behaviors(2, &[0]), 3).unwrap();
        sim.run_until(10_000, |bs| bs[1].informed).unwrap();
        let p = sim.latency_profile();
        let first = p.first_packet(NodeId::new(1)).expect("delivered");
        assert!(first > 0, "p=0.9 seed 3 should lose round 0");
        assert_eq!(p.decode_complete(NodeId::new(1)), Some(first));
    }

    /// A source that drains an injected backlog one message per round;
    /// non-sources report no queue. Used by the queue-hook tests.
    struct Backlog {
        pending: u64,
    }
    impl NodeBehavior<()> for Backlog {
        fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
            if self.pending > 0 {
                self.pending -= 1;
                Action::Broadcast(())
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, _rx: Reception<()>) {}
        fn queued(&self) -> u64 {
            self.pending
        }
    }

    #[test]
    fn queued_hook_surfaces_in_report_trace_and_stats() {
        let g = generators::star(3);
        let behaviors = vec![
            Backlog { pending: 3 },
            Backlog { pending: 0 },
            Backlog { pending: 0 },
            Backlog { pending: 0 },
        ];
        let mut sim = Simulator::new(&g, Channel::faultless(), behaviors, 1).unwrap();
        let mut trace = RoundTrace::default();
        let r0 = sim.step_traced(&mut trace);
        assert_eq!(r0.queued, 2, "one of three drained in round 0");
        assert_eq!(trace.queued_nodes, vec![(NodeId::new(0), 2)]);
        let r1 = sim.step_traced(&mut trace);
        assert_eq!(r1.queued, 1);
        let r2 = sim.step_traced(&mut trace);
        assert_eq!(r2.queued, 0);
        assert!(trace.queued_nodes.is_empty());
        assert_eq!(sim.stats().peak_queued, 2);
    }

    #[test]
    fn behaviors_mut_injects_between_rounds() {
        let g = generators::star(2);
        let behaviors = vec![
            Backlog { pending: 0 },
            Backlog { pending: 0 },
            Backlog { pending: 0 },
        ];
        let mut sim = Simulator::new(&g, Channel::faultless(), behaviors, 1).unwrap();
        assert_eq!(sim.step().queued, 0);
        sim.behaviors_mut()[0].pending += 2;
        let r = sim.step();
        assert_eq!(r.broadcasters, 1);
        assert_eq!(r.queued, 1);
        assert_eq!(sim.stats().peak_queued, 1);
    }
}
