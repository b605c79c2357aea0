//! Latency-optimal pipelined broadcast schedules (Xin–Xia 2017,
//! *Latency Optimal Broadcasting in Noisy Wireless Mesh Networks*,
//! arXiv:1709.01494).
//!
//! Decay pays `Θ(log n)` rounds *per hop* because every informed node
//! contends blindly; under noise `p` a node at distance `d` decodes
//! after `Θ(d · log n / (1−p))` rounds. Xin–Xia observe that in a mesh
//! whose BFS layering from the source is known, the log factor can be
//! pipelined away: schedule layer `ℓ` in rounds `r ≡ ℓ (mod 3)` so
//! adjacent layers never interfere, and resolve the bounded in-layer
//! contention with a constant success probability per slot. A node at
//! distance `d` then decodes in `O(c·d/(1−p))` *expected* rounds —
//! **latency linear in its own distance**, not in `D·log n` — which is
//! the per-node quantity [`radio_model::LatencyProfile`] measures.
//!
//! Two variants:
//!
//! * [`XinXiaSchedule`] — the randomized distributed protocol run on
//!   the [`radio_model::Simulator`]: layer-slotted (`mod 3`) flooding where a
//!   layer-`ℓ` node broadcasts in its slots with probability
//!   `1/c_ℓ`, `c_ℓ` the layer's compiled contention bound. This is
//!   the noisy-model protocol the E14 sweep races against Decay and
//!   Robust FASTBC.
//! * [`xin_xia_pipeline`] — the **oblivious** multi-message variant: a
//!   deterministic, collision-free [`BaseSchedule`] (layer-TDMA inside
//!   the `mod 3` slots, one message entering the pipeline per frame).
//!   Being a plain faultless `BaseSchedule`, it is eligible for the
//!   paper's §5.2 black-box transforms
//!   ([`SenderFaultRoutingTransform`], [`CodingFaultTransform`])
//!   exactly like the star and path pipelines.
//!
//! [`SenderFaultRoutingTransform`]: crate::transform::SenderFaultRoutingTransform
//! [`CodingFaultTransform`]: crate::transform::CodingFaultTransform

use netgraph::bfs::BfsLayers;
use netgraph::{Graph, NodeId};
use radio_model::{Action, Channel, Ctx, LatencyProfile, NodeBehavior, Reception};

use crate::transform::BaseSchedule;
use crate::{BroadcastRun, CoreError};

/// A compiled Xin–Xia layer-pipelined broadcast schedule.
///
/// Compilation computes the BFS layering from the source and, per
/// layer `ℓ`, the contention bound `c_ℓ` = the maximum number of
/// layer-`ℓ` neighbors any layer-`ℓ+1` node has (≥ 1). At run time a
/// layer-`ℓ` node that holds the message broadcasts in rounds
/// `r ≡ ℓ (mod 3)` with probability `1/c_ℓ`; the `mod 3` slotting
/// guarantees a listener only ever hears from a single adjacent layer
/// (BFS edges span at most one layer), so the per-slot success
/// probability at every frontier listener is at least
/// `(1/c)(1−1/c)^{c−1} ≥ 1/(e·c)` — constant per slot, no `log n`.
///
/// # Example
///
/// ```
/// use netgraph::{generators, NodeId};
/// use noisy_radio_core::schedules::latency::XinXiaSchedule;
/// use radio_model::Channel;
///
/// let g = generators::path(64);
/// let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
/// let (run, profile) = sched
///     .run_profiled(Channel::receiver(0.3).unwrap(), 1, 100_000)
///     .unwrap();
/// assert!(run.completed());
/// // Per-node latency is linear in the node's own distance.
/// assert!(profile.first_packet(NodeId::new(1)).unwrap()
///     <= profile.first_packet(NodeId::new(63)).unwrap());
/// ```
#[derive(Debug)]
pub struct XinXiaSchedule<'g> {
    graph: &'g Graph,
    layers: BfsLayers,
    /// `contention[ℓ]` = `c_ℓ` for broadcasting layer `ℓ` (≥ 1).
    contention: Vec<u32>,
}

impl<'g> XinXiaSchedule<'g> {
    /// Compiles the schedule: BFS layering plus per-layer contention
    /// bounds.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `source` is out of bounds or
    /// the graph is not connected (the layering must span the graph
    /// for the pipeline to reach everyone).
    pub fn new(graph: &'g Graph, source: NodeId) -> Result<Self, CoreError> {
        let n = graph.node_count();
        if source.index() >= n {
            return Err(CoreError::InvalidParameter {
                reason: format!("source {source} out of bounds for {n} nodes"),
            });
        }
        let layers = BfsLayers::compute(graph, source);
        if !layers.spans_graph() {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "graph is disconnected: only {} of {n} nodes reachable from {source}",
                    layers.reachable_count()
                ),
            });
        }
        let contention = contention_bounds(graph, &layers);
        Ok(XinXiaSchedule {
            graph,
            layers,
            contention,
        })
    }

    /// The compiled BFS layering.
    pub fn layers(&self) -> &BfsLayers {
        &self.layers
    }

    /// The contention bound `c_ℓ` of broadcasting layer `ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if `layer ≥ layer_count`.
    pub fn contention(&self, layer: usize) -> u32 {
        self.contention[layer]
    }

    pub(crate) fn behaviors(&self) -> Vec<XinXiaNode> {
        let n = self.graph.node_count();
        (0..n)
            .map(|i| {
                let v = NodeId::from_index(i);
                let layer = self.layers.level(v).expect("schedule spans the graph");
                XinXiaNode {
                    layer,
                    slot_probability: 1.0 / f64::from(self.contention[layer as usize]),
                    informed: v == self.layers.source(),
                    next_slot: 0,
                }
            })
            .collect()
    }

    /// Runs the schedule until every node is informed or `max_rounds`
    /// elapse.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] for simulator configuration errors.
    pub fn run(
        &self,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<BroadcastRun, CoreError> {
        Ok(self.run_profiled(fault, seed, max_rounds)?.0)
    }

    /// As [`XinXiaSchedule::run`], additionally returning the per-node
    /// [`LatencyProfile`] — the quantity this schedule optimizes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] for simulator configuration errors.
    pub fn run_profiled(
        &self,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(BroadcastRun, LatencyProfile), CoreError> {
        self.run_telemetry(fault, seed, max_rounds, &mut radio_obs::NullSink)
    }

    /// As [`XinXiaSchedule::run_profiled`], with per-phase telemetry:
    /// emits `schedule/setup` (behavior construction), `schedule/run`,
    /// and the engine's `engine/*` breakdown into `sink`. Results are
    /// bit-identical whatever sink is attached.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] for simulator configuration errors.
    pub fn run_telemetry<S: radio_obs::TelemetrySink>(
        &self,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
        sink: &mut S,
    ) -> Result<(BroadcastRun, LatencyProfile), CoreError> {
        let setup = radio_obs::SpanTimer::start(sink.enabled());
        let behaviors = self.behaviors();
        setup.stop(sink, "schedule/setup");
        crate::outcome::run_profiled_telemetry(self.graph, fault, behaviors, seed, max_rounds, sink)
    }
}

/// Per-layer contention bounds: `c_ℓ` = max over layer-`ℓ+1` nodes of
/// their layer-`ℓ` degree, clamped to ≥ 1 (the last layer has no
/// frontier but its nodes still broadcast for stragglers).
fn contention_bounds(graph: &Graph, layers: &BfsLayers) -> Vec<u32> {
    let mut bounds = vec![1u32; layers.layer_count()];
    for (l, bound) in bounds.iter_mut().enumerate() {
        let Some(next) = (l + 1 < layers.layer_count()).then(|| layers.layer(l + 1)) else {
            continue;
        };
        for &v in next {
            let in_prev = graph
                .neighbors(v)
                .iter()
                .filter(|&&u| layers.level(u) == Some(l as u32))
                .count() as u32;
            *bound = (*bound).max(in_prev);
        }
    }
    bounds
}

/// Per-node Xin–Xia behavior: broadcast (if informed) in rounds
/// `r ≡ layer (mod 3)` with the layer's slot probability.
#[derive(Debug, Clone)]
pub(crate) struct XinXiaNode {
    layer: u32,
    slot_probability: f64,
    informed: bool,
    /// Three rounds on from the last slot round this node acted in;
    /// `0` before its first, so the engine sweeps it until then.
    next_slot: u64,
}

impl NodeBehavior<()> for XinXiaNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if !self.informed || ctx.round % 3 != u64::from(self.layer) % 3 {
            return Action::Listen;
        }
        self.next_slot = ctx.round + 3;
        if rand::Rng::gen_bool(ctx.rng, self.slot_probability) {
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

    // Uninformed: never, until a packet arrives. Informed: every round
    // until its first slot round, then three rounds on from each, since
    // `act` only listens in the rounds between.
    fn next_act(&self) -> u64 {
        if self.informed {
            self.next_slot
        } else {
            u64::MAX
        }
    }

    // Only a packet changes a Xin–Xia node (see `receive`), `act`
    // only reads the slot gate and draws, and there is no queue.
    const SILENCE_TRANSPARENT: bool = true;
}

/// The oblivious Xin–Xia pipeline as a faultless [`BaseSchedule`]:
/// deterministic, collision-free, and eligible for the §5.2 black-box
/// transforms.
///
/// Time is divided into *frames* of `3·W` rounds, `W` the largest BFS
/// layer. Within a frame, round `3·j + (ℓ mod 3)` belongs to the
/// `j`-th node of every layer `ℓ` with that residue — in-layer TDMA
/// inside the `mod 3` layer slots, so **no two broadcasting nodes ever
/// share a listener** (layers ≥ 3 apart cannot have common neighbors).
/// In frame `t`, layer `ℓ` broadcasts message `t − ℓ` (when
/// `0 ≤ t − ℓ < k`): message `m` enters the pipeline at frame `m` and
/// marches one layer per frame, so the schedule spans `k + D` frames —
/// `3·W·(k + D)` rounds, per-message latency `O(W·(m + d))` instead of
/// the sequential `O(W·k·d)`.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if `k == 0`, the source is out of
/// bounds, or the graph is disconnected.
pub fn xin_xia_pipeline(
    graph: &Graph,
    source: NodeId,
    k: usize,
) -> Result<BaseSchedule, CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "need at least one message".into(),
        });
    }
    let n = graph.node_count();
    if source.index() >= n {
        return Err(CoreError::InvalidParameter {
            reason: format!("source {source} out of bounds for {n} nodes"),
        });
    }
    let layers = BfsLayers::compute(graph, source);
    if !layers.spans_graph() {
        return Err(CoreError::InvalidParameter {
            reason: format!(
                "graph is disconnected: only {} of {n} nodes reachable from {source}",
                layers.reachable_count()
            ),
        });
    }
    let depth = layers.layer_count(); // D + 1
    let width = (0..depth).map(|l| layers.layer(l).len()).max().unwrap_or(1);
    let frame_len = 3 * width;
    let frames = k + depth - 1;
    let mut actions = vec![vec![None; n]; frames * frame_len];
    for (l, layer) in (0..depth).map(|l| (l, layers.layer(l))) {
        for (j, &v) in layer.iter().enumerate() {
            let slot = 3 * j + l % 3;
            for m in 0..k {
                let t = m + l; // frame in which layer l carries message m
                actions[t * frame_len + slot][v.index()] = Some(m);
            }
        }
    }
    Ok(BaseSchedule { k, actions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::Decay;
    use crate::transform::{CodingFaultTransform, SenderFaultRoutingTransform};
    use netgraph::generators;

    #[test]
    fn faultless_path_has_unit_per_hop_latency() {
        // On a path every contention bound is 1, so layer ℓ broadcasts
        // with probability 1 in its slot and node d first hears in
        // round d − 1: latency exactly d.
        let g = generators::path(32);
        let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
        assert!((0..32).all(|l| sched.contention(l) == 1));
        let (run, profile) = sched.run_profiled(Channel::faultless(), 3, 10_000).unwrap();
        assert_eq!(run.rounds, Some(31));
        for d in 1..32u32 {
            assert_eq!(profile.first_packet(NodeId::new(d)), Some(u64::from(d) - 1));
        }
    }

    #[test]
    fn noisy_path_latency_stays_linear_per_hop() {
        // Under receiver(p) each hop costs 3/(1−p) expected rounds —
        // constant, no log n factor. Check the far end's latency stays
        // within a generous constant of 3d/(1−p).
        let g = generators::path(64);
        let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
        let mut total = 0u64;
        for seed in 0..5 {
            let (run, profile) = sched
                .run_profiled(Channel::receiver(0.5).unwrap(), seed, 100_000)
                .unwrap();
            assert!(run.completed());
            total += profile.first_packet(NodeId::new(63)).unwrap() + 1;
        }
        let mean = total as f64 / 5.0;
        let expected = 3.0 * 63.0 / 0.5; // 378
        assert!(
            mean < 1.6 * expected,
            "far-end latency {mean} not O(d/(1−p)) (expected ≈ {expected})"
        );
    }

    #[test]
    fn beats_decay_latency_on_noisy_paths() {
        // The headline claim E14 measures: per-hop Θ(1) beats Decay's
        // per-hop Θ(log n) already at n = 64.
        let g = generators::path(64);
        let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
        let fault = Channel::receiver(0.5).unwrap();
        let (mut xin, mut decay) = (0u64, 0u64);
        for seed in 0..3 {
            xin += sched.run(fault, seed, 1_000_000).unwrap().rounds_used();
            decay += Decay::new()
                .run(&g, NodeId::new(0), fault, seed, 1_000_000)
                .unwrap()
                .rounds_used();
        }
        assert!(
            xin < decay,
            "Xin–Xia ({xin}) should beat Decay ({decay}) on the noisy path"
        );
    }

    #[test]
    fn mesh_contention_bounds_are_respected() {
        let g = generators::grid(6, 6);
        let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
        // A grid node has at most 2 previous-layer neighbors.
        for l in 0..sched.layers().layer_count() {
            assert!((1..=2).contains(&sched.contention(l)), "layer {l}");
        }
        let run = sched
            .run(Channel::receiver(0.4).unwrap(), 7, 1_000_000)
            .unwrap();
        assert!(run.completed());
    }

    #[test]
    fn random_meshes_complete_under_noise_and_erasures() {
        for seed in 0..3 {
            let g = generators::unit_disk_connected(80, 0.25, seed).unwrap();
            let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
            for fault in [
                Channel::receiver(0.5).unwrap(),
                Channel::erasure(0.5).unwrap(),
                Channel::sender(0.3).unwrap(),
            ] {
                let run = sched.run(fault, seed, 5_000_000).unwrap();
                assert!(
                    run.completed(),
                    "seed {seed} did not complete under {fault}"
                );
            }
        }
    }

    #[test]
    fn erasure_channel_matches_receiver_channel_per_seed() {
        // Xin–Xia is a noisy-model protocol: it only matches Packet,
        // so erasure(p) runs are bit-identical to receiver(p) runs.
        let g = generators::gnp_connected(48, 0.1, 9).unwrap();
        let sched = XinXiaSchedule::new(&g, NodeId::new(0)).unwrap();
        let (noisy, noisy_profile) = sched
            .run_profiled(Channel::receiver(0.5).unwrap(), 11, 1_000_000)
            .unwrap();
        let (erased, erased_profile) = sched
            .run_profiled(Channel::erasure(0.5).unwrap(), 11, 1_000_000)
            .unwrap();
        assert_eq!(noisy.rounds, erased.rounds);
        assert_eq!(noisy_profile, erased_profile);
    }

    #[test]
    fn rejects_disconnected_graphs_and_bad_sources() {
        let g = Graph::from_edges(4, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert!(matches!(
            XinXiaSchedule::new(&g, NodeId::new(0)),
            Err(CoreError::InvalidParameter { .. })
        ));
        let p = generators::path(4);
        assert!(XinXiaSchedule::new(&p, NodeId::new(9)).is_err());
        assert!(xin_xia_pipeline(&g, NodeId::new(0), 2).is_err());
        assert!(xin_xia_pipeline(&p, NodeId::new(0), 0).is_err());
        assert!(xin_xia_pipeline(&p, NodeId::new(9), 2).is_err());
    }

    #[test]
    fn oblivious_pipeline_validates_faultlessly_everywhere() {
        for (name, g) in [
            ("path", generators::path(10)),
            ("star", generators::star(8)),
            ("grid", generators::grid(4, 5)),
            ("gnp", generators::gnp_connected(24, 0.15, 2).unwrap()),
        ] {
            let base = xin_xia_pipeline(&g, NodeId::new(0), 5).unwrap();
            let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
            assert!(trace.complete, "{name}: pipeline must deliver everything");
        }
    }

    #[test]
    fn oblivious_pipeline_generalizes_the_path_pipeline() {
        // On a path (W = 1) the frame structure reduces to the classic
        // 3-separated pipeline: 3(k + n − 1) rounds for k messages.
        let base = xin_xia_pipeline(&generators::path(8), NodeId::new(0), 4).unwrap();
        assert_eq!(base.round_count(), 3 * (4 + 8 - 1));
    }

    #[test]
    fn oblivious_pipeline_is_transform_eligible() {
        // The §5.2 black-box transforms accept the pipeline as-is:
        // routing under sender faults, coding under receiver faults.
        let g = generators::grid(3, 4);
        let base = xin_xia_pipeline(&g, NodeId::new(0), 3).unwrap();
        let routing = SenderFaultRoutingTransform {
            group_size: 96,
            eta: 0.5,
        };
        let run = routing.run(&g, &base, NodeId::new(0), 0.3, 5).unwrap();
        assert!(run.success, "routing transform must deliver everything");
        let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
        let coding = CodingFaultTransform {
            group_size: 64,
            eta: 0.3,
        };
        let run = coding
            .run(&g, &base, &trace, Channel::receiver(0.4).unwrap(), 9)
            .unwrap();
        assert!(run.success, "coding transform must meet every quota");
    }
}
