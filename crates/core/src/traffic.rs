//! Continuous-traffic workloads: the paper's algorithms plugged into
//! the injection/drain engine (`radio_throughput::traffic`,
//! DESIGN.md §9).
//!
//! Three [`TrafficWorkload`] implementations cover the throughput
//! story the one-shot experiments cannot see:
//!
//! * [`DecayTraffic`] — the baseline: repeated one-shot Decay, one
//!   message in service at a time. Sequential service means the
//!   sustainable rate is `1 / E[service]` — the full
//!   `Θ((D + log n) · log n / (1−p))` broadcast time is paid *per
//!   message*.
//! * [`XinXiaTraffic`] — the oblivious Xin–Xia frame-TDMA pipeline
//!   (arXiv:1709.01494) run continuously: node `j` of BFS layer `ℓ`
//!   owns slot `3j + (ℓ mod 3)` of every `3W`-round frame (`W` the
//!   widest layer) and round-robins its relay queue through it, so
//!   many messages march through the layering at once and a lost hop
//!   is retried next frame. Collision-free: each slot belongs to one
//!   node per layer, and layers that share a residue mod 3 are at
//!   least three apart, so no two of a slot's broadcasters share a
//!   listener.
//! * [`RlncTraffic`] — generation-batched RLNC (paper §4.2): arrivals
//!   are grouped into generations of up to `gen_size` messages, each
//!   generation broadcast as one `core::multi_message`-style coded
//!   batch under Decay timing; all messages of a generation complete
//!   when every node's decoder reaches full rank.
//!
//! All three keep the conservation invariant the driver checks every
//! round (`injected == delivered + queued`): the source behavior's
//! [`NodeBehavior::queued`] depth is exactly its injected-but-
//! unretired count, and non-source nodes report 0 — relay-queue
//! occupancy is protocol-internal and observable through
//! `RoundTrace::queued_nodes` in traced runs instead.

use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use netgraph::bfs::BfsLayers;
use netgraph::{Graph, NodeId};
use radio_coding::rlnc::{CodedPacket, RlncNode};
use radio_coding::Gf256;
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception};
use radio_throughput::traffic::{
    run_traffic, ThroughputRun, TrafficConfig, TrafficError, TrafficWorkload,
};

use crate::decay::{default_phase_len, DecayNode};
use crate::CoreError;

/// Maps a traffic-layer error into the core error vocabulary.
fn traffic_err(e: TrafficError) -> CoreError {
    match e {
        TrafficError::InvalidRate { rate } => CoreError::InvalidParameter {
            reason: format!("arrival rate must be finite and > 0, got {rate}"),
        },
        TrafficError::Model(m) => CoreError::Model(m),
    }
}

fn check_source(graph: &Graph, source: NodeId) -> Result<(), CoreError> {
    let n = graph.node_count();
    if source.index() >= n {
        return Err(CoreError::InvalidParameter {
            reason: format!("source {source} out of bounds for {n} nodes"),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decay baseline
// ---------------------------------------------------------------------------

/// Repeated one-shot Decay as a traffic workload: messages are served
/// strictly one at a time, each by a fresh Decay broadcast (the phase
/// clock keeps running on the global round, exactly like
/// [`crate::decay::DecayNode`]).
///
/// With a single injected message this degenerates bit-for-bit to
/// one-shot [`crate::decay::Decay`] on the same seed — the regression
/// test in `tests/traffic_invariants.rs` pins that against
/// [`crate::decay::DecayNode`]s stepped by hand.
#[derive(Debug)]
pub struct DecayTraffic {
    n: usize,
    source: NodeId,
    phase_len: u32,
    active: Option<u64>,
    pending: VecDeque<u64>,
}

impl DecayTraffic {
    /// Compiles the workload for `graph`, deriving the canonical phase
    /// length `⌈log₂ n⌉ + 1`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `source` is out of bounds.
    pub fn new(graph: &Graph, source: NodeId) -> Result<Self, CoreError> {
        check_source(graph, source)?;
        Ok(DecayTraffic {
            n: graph.node_count(),
            source,
            phase_len: default_phase_len(graph.node_count()),
            active: None,
            pending: VecDeque::new(),
        })
    }
}

/// Per-node [`DecayTraffic`] behavior: Decay's step rule over the
/// currently active message, plus the source's backlog counter.
#[derive(Debug, Clone)]
pub struct DecayTrafficNode {
    /// Whether this node holds the active message.
    informed: bool,
    phase_len: u32,
    /// Source only: injected-but-unretired messages (the engine-polled
    /// backlog).
    outstanding: u64,
}

impl NodeBehavior<u64> for DecayTrafficNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
        // Identical RNG discipline to `DecayNode`: only an informed
        // node draws, one gen_bool per round, so the one-message run
        // replays the one-shot trajectory exactly.
        if !self.informed {
            return Action::Listen;
        }
        if DecayNode::draw_broadcast(self.phase_len, ctx.round, ctx.rng) {
            Action::Broadcast(0)
        } else {
            Action::Listen
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
        if rx.is_packet() {
            self.informed = true;
        }
    }

    fn decoded(&self) -> bool {
        self.informed
    }

    // Quiescence opt-in, as for `DecayNode`: uninformed nodes listen
    // without drawing. The source additionally stays swept through its
    // `queued` backlog, and every injection goes through
    // `Simulator::behaviors_mut`, which re-activates it regardless.
    fn next_act(&self) -> u64 {
        if self.informed {
            0
        } else {
            u64::MAX
        }
    }

    fn queued(&self) -> u64 {
        self.outstanding
    }
}

impl TrafficWorkload for DecayTraffic {
    type Packet = u64;
    type Node = DecayTrafficNode;

    fn behaviors(&mut self) -> Vec<DecayTrafficNode> {
        self.active = None;
        self.pending.clear();
        (0..self.n)
            .map(|_| DecayTrafficNode {
                informed: false,
                phase_len: self.phase_len,
                outstanding: 0,
            })
            .collect()
    }

    fn inject(&mut self, nodes: &mut [DecayTrafficNode], ids: Range<u64>) {
        nodes[self.source.index()].outstanding += ids.end - ids.start;
        self.pending.extend(ids);
    }

    fn drain(&mut self, nodes: &mut [DecayTrafficNode]) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            if let Some(m) = self.active {
                if nodes.iter().all(|nd| nd.informed) {
                    for nd in nodes.iter_mut() {
                        nd.informed = false;
                    }
                    nodes[self.source.index()].outstanding -= 1;
                    self.active = None;
                    out.push(m);
                } else {
                    break;
                }
            }
            match self.pending.pop_front() {
                Some(m) => {
                    nodes[self.source.index()].informed = true;
                    self.active = Some(m);
                }
                None => break,
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Xin–Xia frame-TDMA pipeline
// ---------------------------------------------------------------------------

/// The oblivious Xin–Xia pipeline as a continuous relay: per-node
/// FIFO relay queues served round-robin in the node's own TDMA slot.
///
/// Messages are never generation-batched and never collide; under a
/// per-delivery loss channel a hop simply retries in the next frame,
/// so the sustainable rate on a path is `≈ (1−p) / frame_len` — far
/// above sequential Decay's `1 / E[service]`.
///
/// Retirement is in injection order (head-of-line commit): a message
/// that completes out of order retires once everything injected
/// before it has. That keeps the global-ACK scan `O(n)` per round at
/// any backlog, at the cost of slightly conservative completion
/// stamps for reordered messages.
#[derive(Debug)]
pub struct XinXiaTraffic {
    n: usize,
    source: NodeId,
    /// Per-node broadcast slot within the frame (`3j + ℓ mod 3`).
    slots: Vec<u64>,
    frame_len: u64,
    /// Injected-but-unretired ids, in injection order.
    in_flight: VecDeque<u64>,
}

impl XinXiaTraffic {
    /// Compiles the BFS layering and slot assignment for `graph`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `source` is out of bounds or
    /// the graph is disconnected (the layering must span the graph).
    pub fn new(graph: &Graph, source: NodeId) -> Result<Self, CoreError> {
        check_source(graph, source)?;
        let n = graph.node_count();
        let layers = BfsLayers::compute(graph, source);
        if !layers.spans_graph() {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "graph is disconnected: only {} of {n} nodes reachable from {source}",
                    layers.reachable_count()
                ),
            });
        }
        let depth = layers.layer_count();
        let width = (0..depth).map(|l| layers.layer(l).len()).max().unwrap_or(1);
        let mut slots = vec![0u64; n];
        for l in 0..depth {
            for (j, &v) in layers.layer(l).iter().enumerate() {
                slots[v.index()] = (3 * j + l % 3) as u64;
            }
        }
        Ok(XinXiaTraffic {
            n,
            source,
            slots,
            frame_len: 3 * width as u64,
            in_flight: VecDeque::new(),
        })
    }

    /// The frame length `3·W` in rounds.
    pub fn frame_len(&self) -> u64 {
        self.frame_len
    }
}

/// Per-node [`XinXiaTraffic`] behavior: a relay queue round-robined
/// through the node's TDMA slot.
#[derive(Debug, Clone)]
pub struct XinXiaTrafficNode {
    slot: u64,
    frame_len: u64,
    /// Unretired messages this node holds, in round-robin order.
    relay: VecDeque<u64>,
    /// Messages this node holds (for the global completion scan).
    has: HashSet<u64>,
    /// Source only: injected-but-unretired count.
    outstanding: u64,
}

impl XinXiaTrafficNode {
    /// Whether this node currently holds message `m`.
    fn holds(&self, m: u64) -> bool {
        self.has.contains(&m)
    }
}

impl NodeBehavior<u64> for XinXiaTrafficNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
        if ctx.round % self.frame_len != self.slot {
            return Action::Listen;
        }
        match self.relay.pop_front() {
            Some(m) => {
                // Round-robin: requeue for the next frame; the message
                // leaves the queue only on global retirement.
                self.relay.push_back(m);
                Action::Broadcast(m)
            }
            None => Action::Listen,
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
        if let Reception::Packet(m) = rx {
            if self.has.insert(m) {
                self.relay.push_back(m);
            }
        }
    }

    fn decoded(&self) -> bool {
        !self.has.is_empty()
    }

    // Quiescence opt-in: with an empty relay queue the slot-gated
    // `act` neither draws nor mutates (it only cycles a non-empty
    // queue), and only packets change state.
    fn next_act(&self) -> u64 {
        if self.relay.is_empty() {
            u64::MAX
        } else {
            0
        }
    }

    fn queued(&self) -> u64 {
        self.outstanding
    }
}

impl TrafficWorkload for XinXiaTraffic {
    type Packet = u64;
    type Node = XinXiaTrafficNode;

    fn behaviors(&mut self) -> Vec<XinXiaTrafficNode> {
        self.in_flight.clear();
        (0..self.n)
            .map(|i| XinXiaTrafficNode {
                slot: self.slots[i],
                frame_len: self.frame_len,
                relay: VecDeque::new(),
                has: HashSet::new(),
                outstanding: 0,
            })
            .collect()
    }

    fn inject(&mut self, nodes: &mut [XinXiaTrafficNode], ids: Range<u64>) {
        let src = &mut nodes[self.source.index()];
        src.outstanding += ids.end - ids.start;
        for m in ids {
            src.has.insert(m);
            src.relay.push_back(m);
            self.in_flight.push_back(m);
        }
    }

    fn drain(&mut self, nodes: &mut [XinXiaTrafficNode]) -> Vec<u64> {
        let mut done = Vec::new();
        // Head-of-line commit: only the oldest in-flight message is
        // checked; a completed head cascades into the next.
        while let Some(&m) = self.in_flight.front() {
            if nodes.iter().all(|nd| nd.holds(m)) {
                self.in_flight.pop_front();
                done.push(m);
            } else {
                break;
            }
        }
        if !done.is_empty() {
            for nd in nodes.iter_mut() {
                for &m in &done {
                    nd.has.remove(&m);
                }
                nd.relay.retain(|m| !done.contains(m));
            }
            nodes[self.source.index()].outstanding -= done.len() as u64;
        }
        done
    }
}

// ---------------------------------------------------------------------------
// Generation-batched RLNC
// ---------------------------------------------------------------------------

/// Generation-batched RLNC traffic: pending arrivals are grouped into
/// generations of up to `gen_size` messages; each generation is a
/// fresh coded batch (coefficients only, Decay-timed random
/// combinations, as in [`crate::multi_message::DecayRlnc`]) and
/// completes when every node's decoder reaches full rank.
///
/// Batching amortizes the pipeline fill: per-message cost inside a
/// generation is `O(log n / (1−p))` rounds instead of the full
/// broadcast time, so the sustainable rate beats sequential Decay by
/// ≈ the batch factor while staying below the collision-free Xin–Xia
/// pipeline's.
#[derive(Debug)]
pub struct RlncTraffic {
    n: usize,
    source: NodeId,
    phase_len: u32,
    gen_size: usize,
    /// Generation counter (tags packets so stale ones are ignored).
    generation: u64,
    active: Option<Vec<u64>>,
    pending: VecDeque<u64>,
}

impl RlncTraffic {
    /// Compiles the workload: canonical Decay phase length,
    /// generations of up to `gen_size` messages.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `source` is out of bounds or
    /// `gen_size` is outside `1..=255` (GF(256) coefficients).
    pub fn new(graph: &Graph, source: NodeId, gen_size: usize) -> Result<Self, CoreError> {
        check_source(graph, source)?;
        if gen_size == 0 || gen_size > 255 {
            return Err(CoreError::InvalidParameter {
                reason: format!("gen_size = {gen_size} outside supported range 1..=255"),
            });
        }
        Ok(RlncTraffic {
            n: graph.node_count(),
            source,
            phase_len: default_phase_len(graph.node_count()),
            gen_size,
            generation: 0,
            active: None,
            pending: VecDeque::new(),
        })
    }
}

/// Per-node [`RlncTraffic`] behavior: an RLNC decoder for the current
/// generation (idle between generations), Decay broadcast timing.
#[derive(Debug, Clone)]
pub struct RlncTrafficNode {
    /// The decoder of the current generation; `None` while idle.
    state: Option<RlncNode<Gf256>>,
    /// The generation the decoder belongs to.
    generation: u64,
    phase_len: u32,
    /// Source only: injected-but-unretired count.
    outstanding: u64,
}

impl NodeBehavior<(u64, CodedPacket<Gf256>)> for RlncTrafficNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<(u64, CodedPacket<Gf256>)> {
        let Some(state) = &self.state else {
            return Action::Listen;
        };
        if DecayNode::draw_broadcast(self.phase_len, ctx.round, ctx.rng) {
            match state.random_combination(ctx.rng) {
                Some(packet) => Action::Broadcast((self.generation, packet)),
                None => Action::Listen,
            }
        } else {
            Action::Listen
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<(u64, CodedPacket<Gf256>)>) {
        if let Reception::Packet((generation, packet)) = rx {
            if generation == self.generation {
                if let Some(state) = &mut self.state {
                    state.absorb(packet);
                }
            }
        }
    }

    fn decoded(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.can_decode())
    }

    // Quiescence opt-in: between generations (`state == None`) the
    // node listens without drawing and discards every reception, so
    // the engine may skip it until `drain` starts the next generation
    // (which runs under `Simulator::behaviors_mut` and re-activates).
    fn next_act(&self) -> u64 {
        if self.state.is_some() {
            0
        } else {
            u64::MAX
        }
    }

    fn queued(&self) -> u64 {
        self.outstanding
    }
}

impl TrafficWorkload for RlncTraffic {
    type Packet = (u64, CodedPacket<Gf256>);
    type Node = RlncTrafficNode;

    fn behaviors(&mut self) -> Vec<RlncTrafficNode> {
        self.generation = 0;
        self.active = None;
        self.pending.clear();
        (0..self.n)
            .map(|_| RlncTrafficNode {
                state: None,
                generation: 0,
                phase_len: self.phase_len,
                outstanding: 0,
            })
            .collect()
    }

    fn inject(&mut self, nodes: &mut [RlncTrafficNode], ids: Range<u64>) {
        nodes[self.source.index()].outstanding += ids.end - ids.start;
        self.pending.extend(ids);
    }

    fn drain(&mut self, nodes: &mut [RlncTrafficNode]) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            if let Some(ids) = &self.active {
                if nodes.iter().all(|nd| nd.decoded()) {
                    nodes[self.source.index()].outstanding -= ids.len() as u64;
                    out.extend(ids.iter().copied());
                    for nd in nodes.iter_mut() {
                        nd.state = None;
                    }
                    self.active = None;
                } else {
                    break;
                }
            }
            if self.pending.is_empty() {
                break;
            }
            let k = self.gen_size.min(self.pending.len());
            let ids: Vec<u64> = self.pending.drain(..k).collect();
            self.generation += 1;
            // Coefficient-only generation: payloads are empty, ids are
            // tracked here — decoding rank is what is measured.
            let payloads: Vec<Vec<Gf256>> = vec![Vec::new(); k];
            for (i, nd) in nodes.iter_mut().enumerate() {
                nd.generation = self.generation;
                nd.state = Some(if i == self.source.index() {
                    RlncNode::source(k, 0, &payloads)
                } else {
                    RlncNode::new(k, 0)
                });
            }
            self.active = Some(ids);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Convenience runners
// ---------------------------------------------------------------------------

/// Runs continuous Decay-baseline traffic (see [`DecayTraffic`]).
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] on a bad source or rate;
/// [`CoreError::Model`] from the simulator.
pub fn run_decay_traffic(
    graph: &Graph,
    source: NodeId,
    channel: Channel,
    config: &TrafficConfig,
    seed: u64,
) -> Result<ThroughputRun, CoreError> {
    let mut w = DecayTraffic::new(graph, source)?;
    run_traffic(graph, channel, &mut w, config, seed).map_err(traffic_err)
}

/// Runs continuous Xin–Xia pipelined traffic (see [`XinXiaTraffic`]).
///
/// # Errors
///
/// As [`run_decay_traffic`], plus rejection of disconnected graphs.
pub fn run_xin_xia_traffic(
    graph: &Graph,
    source: NodeId,
    channel: Channel,
    config: &TrafficConfig,
    seed: u64,
) -> Result<ThroughputRun, CoreError> {
    let mut w = XinXiaTraffic::new(graph, source)?;
    run_traffic(graph, channel, &mut w, config, seed).map_err(traffic_err)
}

/// Runs generation-batched RLNC traffic (see [`RlncTraffic`]).
///
/// # Errors
///
/// As [`run_decay_traffic`], plus rejection of a bad `gen_size`.
pub fn run_rlnc_traffic(
    graph: &Graph,
    source: NodeId,
    gen_size: usize,
    channel: Channel,
    config: &TrafficConfig,
    seed: u64,
) -> Result<ThroughputRun, CoreError> {
    let mut w = RlncTraffic::new(graph, source, gen_size)?;
    run_traffic(graph, channel, &mut w, config, seed).map_err(traffic_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn cfg(rate: f64, messages: u64, max_rounds: u64) -> TrafficConfig {
        TrafficConfig {
            rate,
            messages,
            max_rounds,
        }
    }

    #[test]
    fn decay_traffic_drains_light_load() {
        let g = generators::path(8);
        let run = run_decay_traffic(
            &g,
            NodeId::new(0),
            Channel::receiver(0.3).unwrap(),
            &cfg(0.002, 4, 100_000),
            5,
        )
        .unwrap();
        assert!(run.drained() && run.conserved);
        assert_eq!(run.delivered, 4);
        assert_eq!(run.latencies.len(), 4);
        assert!(run.latencies.iter().all(|&l| l > 0));
    }

    #[test]
    fn xin_xia_traffic_pipelines_on_the_path() {
        // Faultless path: frame_len = 3, one hop per frame. Messages
        // pipeline instead of queueing sequentially.
        let g = generators::path(8);
        let mut w = XinXiaTraffic::new(&g, NodeId::new(0)).unwrap();
        assert_eq!(w.frame_len(), 3);
        let run = run_traffic(&g, Channel::faultless(), &mut w, &cfg(0.2, 6, 10_000), 1).unwrap();
        assert!(run.drained() && run.conserved);
        assert_eq!(run.delivered, 6);
        // Sequential service would need ≥ 6 · 7 hops · 3 rounds; the
        // pipeline overlaps messages and finishes much sooner.
        assert!(
            run.rounds < 6 * 7 * 3,
            "pipeline did not overlap: {} rounds",
            run.rounds
        );
    }

    #[test]
    fn xin_xia_traffic_survives_noise_and_erasures_identically() {
        // The relay only matches Packet, so erasure(p) trajectories
        // equal receiver(p) trajectories per seed.
        let g = generators::grid(4, 4);
        let run_with = |channel| {
            let mut w = XinXiaTraffic::new(&g, NodeId::new(0)).unwrap();
            run_traffic(&g, channel, &mut w, &cfg(0.05, 5, 50_000), 9).unwrap()
        };
        let noisy = run_with(Channel::receiver(0.4).unwrap());
        let erased = run_with(Channel::erasure(0.4).unwrap());
        assert!(noisy.drained() && noisy.conserved);
        assert_eq!(noisy.rounds, erased.rounds);
        assert_eq!(noisy.latencies, erased.latencies);
    }

    #[test]
    fn rlnc_traffic_batches_generations() {
        let g = generators::path(6);
        let run = run_rlnc_traffic(
            &g,
            NodeId::new(0),
            4,
            Channel::receiver(0.3).unwrap(),
            &cfg(0.5, 8, 200_000),
            3,
        )
        .unwrap();
        assert!(run.drained() && run.conserved);
        assert_eq!(run.delivered, 8);
        // λ = 0.5 front-loads arrivals, so messages batch into
        // generations and generation-mates complete together.
        let mut distinct: Vec<u64> = run
            .latencies
            .iter()
            .zip(0u64..)
            .map(|(&lat, m)| lat + m * 2) // completion round = latency + arrival
            .collect();
        distinct.dedup();
        assert!(
            distinct.len() < 8,
            "expected shared generation completion rounds, got {distinct:?}"
        );
    }

    #[test]
    fn rlnc_traffic_rejects_bad_gen_size() {
        let g = generators::path(4);
        for gen_size in [0usize, 256] {
            assert!(matches!(
                RlncTraffic::new(&g, NodeId::new(0), gen_size),
                Err(CoreError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn workloads_reject_bad_sources_and_disconnection() {
        let g = generators::path(4);
        assert!(DecayTraffic::new(&g, NodeId::new(9)).is_err());
        assert!(XinXiaTraffic::new(&g, NodeId::new(9)).is_err());
        assert!(RlncTraffic::new(&g, NodeId::new(9), 4).is_err());
        let disconnected = Graph::from_edges(4, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert!(XinXiaTraffic::new(&disconnected, NodeId::new(0)).is_err());
        assert!(matches!(
            run_decay_traffic(
                &g,
                NodeId::new(0),
                Channel::faultless(),
                &cfg(0.0, 1, 10),
                0
            ),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn saturation_ordering_on_the_noisy_path() {
        // The E15 headline at unit scale: offered λ = 0.2 on a noisy
        // path overloads sequential Decay (≈ 1070 rounds to drain 10
        // messages at this seed) but both pipelined workloads drain
        // well inside the 900-round cap (≈ 250 and ≈ 800 rounds).
        let g = generators::path(12);
        let channel = Channel::receiver(0.5).unwrap();
        let c = cfg(0.2, 10, 900);
        let decay = run_decay_traffic(&g, NodeId::new(0), channel, &c, 7).unwrap();
        let xin = run_xin_xia_traffic(&g, NodeId::new(0), channel, &c, 7).unwrap();
        let rlnc = run_rlnc_traffic(&g, NodeId::new(0), 8, channel, &c, 7).unwrap();
        assert!(decay.saturated, "sequential Decay must choke at λ=0.2");
        assert!(xin.drained(), "the Xin–Xia pipeline must sustain λ=0.2");
        assert!(rlnc.drained(), "batched RLNC must sustain λ=0.2");
        assert!(xin.conserved && rlnc.conserved && decay.conserved);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let g = generators::grid(4, 5);
        let channel = Channel::receiver(0.3).unwrap();
        let run_with = |seed: u64| {
            let mut w = XinXiaTraffic::new(&g, NodeId::new(0)).unwrap();
            run_traffic(&g, channel, &mut w, &cfg(0.04, 6, 50_000), seed).unwrap()
        };
        assert_eq!(run_with(11), run_with(11));
        assert_ne!(run_with(11), run_with(12));
    }
}
