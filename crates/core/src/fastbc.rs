//! The FASTBC algorithm (Gąsieniec, Peleg, Xin 2007; paper §3.4.2).
//!
//! FASTBC assumes the topology is known, pre-agrees on a
//! [gathering-broadcasting spanning tree](gbst) and alternates:
//!
//! * **fast rounds** (even rounds `2t`): the fast node at level `l`
//!   with rank `r` broadcasts iff `t ≡ l − 6r (mod 6·r_max)`. By the
//!   GBST properties these broadcasts never collide at fast children,
//!   so a message rides an uninterrupted *wave* down each fast stretch
//!   — one level per fast round;
//! * **slow rounds** (odd rounds `2t+1`): a standard Decay step pushes
//!   messages across the `O(log n)` non-fast edges of any root path.
//!
//! Faultless, this gives `D + O(log n (log n + log 1/δ))` rounds
//! (Lemma 8). Under random faults the wave logic is *fragile*: one
//! dropped hop forfeits the wave, and the stretch owner waits
//! `Θ(6·r_max) = Θ(log n)` fast rounds before the schedule lets it
//! transmit again, giving the `Θ((p/(1−p))·D·log n + D/(1−p))`
//! degradation of Lemma 10 that motivates
//! [Robust FASTBC](crate::robust_fastbc).

use gbst::Gbst;
use netgraph::{Graph, NodeId};
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, RoundTrace, Simulator};

use crate::decay::{default_phase_len, DecayNode, UNDRAWN};
use crate::{BroadcastRun, CoreError};

/// Tunables for [`FastbcSchedule`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastbcParams {
    /// Decay phase length for slow rounds; `None` derives
    /// `⌈log₂ n⌉ + 1`.
    pub phase_len: Option<u32>,
    /// Number of rank slots `R` in the fast-round modulus `6R`;
    /// `None` uses the GBST's `r_max`. The paper's analysis (and
    /// Lemma 10's `Θ(log n)` retransmission wait) assumes
    /// `R = Θ(log n)`; pass `Some(⌈log₂ n⌉)` to reproduce that regime
    /// on low-rank topologies such as bare paths.
    pub rank_slots: Option<u32>,
}

/// A compiled FASTBC schedule: the GBST plus per-node timing data.
///
/// Compile once with [`FastbcSchedule::new`], then [`run`] many
/// noisy/faultless trials against it.
///
/// [`run`]: FastbcSchedule::run
///
/// # Example
///
/// ```
/// use netgraph::{generators, NodeId};
/// use noisy_radio_core::fastbc::FastbcSchedule;
/// use radio_model::Channel;
///
/// let g = generators::path(64);
/// let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
/// let run = sched.run(Channel::faultless(), 1, 100_000).unwrap();
/// assert!(run.completed());
/// ```
#[derive(Debug)]
pub struct FastbcSchedule<'g> {
    graph: &'g Graph,
    gbst: Gbst,
    phase_len: u32,
    /// Fast-round modulus `6R`.
    modulus: u64,
}

impl<'g> FastbcSchedule<'g> {
    /// Compiles a FASTBC schedule with default parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::Gbst`] if the graph is disconnected or the source
    /// is invalid.
    pub fn new(graph: &'g Graph, source: NodeId) -> Result<Self, CoreError> {
        Self::with_params(graph, source, FastbcParams::default())
    }

    /// Compiles a FASTBC schedule with explicit parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::Gbst`] on construction failure, or
    /// [`CoreError::InvalidParameter`] for zero parameters.
    pub fn with_params(
        graph: &'g Graph,
        source: NodeId,
        params: FastbcParams,
    ) -> Result<Self, CoreError> {
        let gbst = Gbst::build(graph, source)?;
        let n = graph.node_count();
        let phase_len = params.phase_len.unwrap_or_else(|| default_phase_len(n));
        if phase_len == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "phase length must be ≥ 1".into(),
            });
        }
        let rank_slots = params.rank_slots.unwrap_or_else(|| gbst.max_rank());
        if rank_slots == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "rank slots must be ≥ 1".into(),
            });
        }
        if rank_slots < gbst.max_rank() {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "rank slots {rank_slots} below GBST max rank {}",
                    gbst.max_rank()
                ),
            });
        }
        Ok(FastbcSchedule {
            graph,
            gbst,
            phase_len,
            modulus: 6 * u64::from(rank_slots),
        })
    }

    /// The underlying GBST.
    pub fn gbst(&self) -> &Gbst {
        &self.gbst
    }

    /// The fast-round modulus `6R`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// The slow-round Decay phase length.
    pub fn phase_len(&self) -> u32 {
        self.phase_len
    }

    /// Whether the fast node `v` is scheduled to transmit in fast
    /// round `t` (i.e. real round `2t`): `t ≡ level − 6·rank (mod 6R)`.
    pub fn fast_slot_matches(&self, v: NodeId, t: u64) -> bool {
        self.timing(v).matches(t)
    }

    /// The fast-round timing of node `v` under this schedule.
    pub(crate) fn timing(&self, v: NodeId) -> FastTiming {
        FastTiming {
            level: self.gbst.level(v),
            rank: self.gbst.rank(v),
            modulus: self.modulus,
        }
    }

    pub(crate) fn behaviors(&self) -> Vec<FastbcNode<FastTiming>> {
        let n = self.graph.node_count();
        (0..n)
            .map(|i| {
                let v = NodeId::from_index(i);
                FastbcNode::new(
                    v == self.gbst.source(),
                    self.phase_len,
                    self.gbst.is_fast(v).then(|| self.timing(v)),
                )
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

    /// As [`FastbcSchedule::run`], additionally returning the per-node
    /// [`radio_model::LatencyProfile`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] for simulator configuration errors.
    pub fn run_profiled(
        &self,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(BroadcastRun, radio_model::LatencyProfile), CoreError> {
        self.run_telemetry(fault, seed, max_rounds, &mut radio_obs::NullSink)
    }

    /// As [`FastbcSchedule::run_profiled`], with per-phase telemetry:
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
    ) -> Result<(BroadcastRun, radio_model::LatencyProfile), CoreError> {
        let setup = radio_obs::SpanTimer::start(sink.enabled());
        let behaviors = self.behaviors();
        setup.stop(sink, "schedule/setup");
        crate::outcome::run_profiled_telemetry(self.graph, fault, behaviors, seed, max_rounds, sink)
    }

    /// Runs like [`FastbcSchedule::run`] but hands every round's
    /// [`RoundTrace`] to `inspect` — used by the invariant tests that
    /// assert fast-round collision-freedom.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] for simulator configuration errors.
    pub fn run_traced(
        &self,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
        mut inspect: impl FnMut(u64, &RoundTrace),
    ) -> Result<BroadcastRun, CoreError> {
        let mut sim = Simulator::new(self.graph, fault, self.behaviors(), seed)?;
        let mut trace = RoundTrace::default();
        let mut rounds = None;
        for used in 0..=max_rounds {
            if sim.behaviors().iter().all(|b| b.informed) {
                rounds = Some(used);
                break;
            }
            if used == max_rounds {
                break;
            }
            let r = sim.round();
            sim.step_traced(&mut trace);
            inspect(r, &trace);
        }
        Ok(BroadcastRun {
            rounds,
            stats: *sim.stats(),
        })
    }
}

/// The fast-round slots of one fast node, as [`FastbcNode`] consults
/// them.
pub(crate) trait FastSlots: Copy {
    /// The first even real round `≥ from` in which the node is
    /// scheduled to broadcast ([`NEVER`] if no such round fits a
    /// `u64`).
    fn next_due(&self, from: u64) -> u64;
}

/// A round no run reaches: the next fast slot of an uninformed or slow
/// node.
const NEVER: u64 = u64::MAX;

/// Fast-round timing of a fast node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastTiming {
    level: u32,
    rank: u32,
    modulus: u64,
}

impl FastTiming {
    /// Whether the node is scheduled in fast round `t`: the stateless
    /// reference for [`FastSlots::next_due`].
    pub(crate) fn matches(&self, t: u64) -> bool {
        let l = i64::from(self.level);
        let r = i64::from(self.rank);
        (t as i64 - (l - 6 * r)).rem_euclid(self.modulus as i64) == 0
    }
}

impl FastSlots for FastTiming {
    fn next_due(&self, from: u64) -> u64 {
        let m = self.modulus;
        let slot = (i64::from(self.level) - 6 * i64::from(self.rank)).rem_euclid(m as i64) as u64;
        // First fast round whose real round 2t is ≥ from, then the wait
        // to the next t ≡ slot (mod m).
        let t = from.div_ceil(2);
        let phase = t % m;
        let wait = if slot >= phase {
            slot - phase
        } else {
            slot + m - phase
        };
        (t + wait).saturating_mul(2)
    }
}

/// Per-node behavior of FASTBC and Robust FASTBC: the fast slots `T`
/// on even rounds, a Decay step on odd rounds.
///
/// Both halves are cached as the round they next broadcast in, and
/// [`NodeBehavior::next_act`] reports the earlier of the two, so the
/// engine wakes an informed node only in the rounds it broadcasts.
#[derive(Debug, Clone)]
pub(crate) struct FastbcNode<T> {
    informed: bool,
    phase_len: u32,
    fast: Option<T>,
    /// The even round this node broadcasts in next: set from the round
    /// after it is informed (round 0 for the source) and advanced past
    /// each broadcast, so a fast round costs one compare instead of
    /// re-deriving the slot. [`NEVER`] while uninformed and for slow
    /// nodes.
    next_due: u64,
    /// The odd round whose Decay coin fires next, drawn ahead from the
    /// node's own stream (see [`DecayNode::next_broadcast`]) at its
    /// first act after being informed and again after each slow
    /// broadcast. [`NEVER`] while uninformed, [`UNDRAWN`] from being
    /// informed until that first act.
    next_slow: u64,
}

impl<T: FastSlots> FastbcNode<T> {
    pub(crate) fn new(source: bool, phase_len: u32, fast: Option<T>) -> Self {
        let mut node = FastbcNode {
            informed: false,
            phase_len,
            fast,
            next_due: NEVER,
            next_slow: NEVER,
        };
        if source {
            node.inform(0);
        }
        node
    }

    fn inform(&mut self, from: u64) {
        self.informed = true;
        self.next_due = self.fast.map_or(NEVER, |slots| slots.next_due(from));
        self.next_slow = UNDRAWN;
    }

    /// The odd round `2t + 1` of the first Decay step `t ≥ from_step`
    /// whose coin fires.
    fn draw_slow(&self, from_step: u64, ctx: &mut Ctx<'_>) -> u64 {
        2 * DecayNode::next_broadcast(self.phase_len, from_step, ctx.rng) + 1
    }
}

impl<T: FastSlots> NodeBehavior<()> for FastbcNode<T> {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if !self.informed {
            return Action::Listen;
        }
        if self.next_slow == UNDRAWN {
            // Slow round 2t + 1 runs Decay step t; the first at or
            // after this round is step ⌊round/2⌋.
            self.next_slow = self.draw_slow(ctx.round / 2, ctx);
        }
        // The engine wakes the node at `next_act`, the earlier of the
        // two, so neither due round can pass unseen.
        debug_assert!(ctx.round <= self.next_due, "fast slot skipped");
        debug_assert!(ctx.round <= self.next_slow, "slow broadcast skipped");
        if ctx.round == self.next_due {
            if let Some(slots) = self.fast {
                self.next_due = slots.next_due(ctx.round + 1);
            }
            Action::Broadcast(())
        } else if ctx.round == self.next_slow {
            // Slow round 2t + 1: draw ahead from Decay step t + 1.
            self.next_slow = self.draw_slow(ctx.round.div_ceil(2), ctx);
            Action::Broadcast(())
        } else {
            Action::Listen
        }
    }

    fn receive(&mut self, ctx: &mut Ctx<'_>, rx: Reception<()>) {
        if rx.is_packet() && !self.informed {
            self.inform(ctx.round + 1);
        }
    }

    fn decoded(&self) -> bool {
        self.informed
    }

    // Uninformed: never, until a packet arrives. Informed: every round
    // until the first act draws the slow coins ahead, then the next
    // fast or slow broadcast. A packet only moves `NEVER` to `UNDRAWN`.
    fn next_act(&self) -> u64 {
        self.next_due.min(self.next_slow)
    }

    // Only a packet changes a node (see `receive`), `act` only draws
    // ahead and advances the cached rounds, and there is no queue.
    const SILENCE_TRANSPARENT: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn faultless_path_is_diameter_linear() {
        let g = generators::path(200);
        let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let run = sched.run(Channel::faultless(), 1, 100_000).unwrap();
        let rounds = run.rounds_used();
        // The wave advances one level per fast round (2 real rounds)
        // once started; budget 2D + startup + slack. (The final hop's
        // reception lands inside round 2(D-1), hence the -1.)
        assert!(rounds >= 2 * 198, "wave cannot beat 2 rounds/hop: {rounds}");
        assert!(
            rounds <= 2 * 199 + 200,
            "rounds {rounds} not diameter-linear"
        );
    }

    #[test]
    fn faultless_tree_completes() {
        let g = generators::balanced_tree(3, 5).unwrap();
        let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let run = sched.run(Channel::faultless(), 3, 100_000).unwrap();
        assert!(run.completed());
    }

    #[test]
    fn random_graph_completes_with_faults() {
        let g = generators::gnp_connected(128, 0.04, 5).unwrap();
        let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        for fault in [
            Channel::faultless(),
            Channel::sender(0.3).unwrap(),
            Channel::receiver(0.3).unwrap(),
        ] {
            let run = sched.run(fault, 7, 1_000_000).unwrap();
            assert!(run.completed(), "did not complete under {fault}");
        }
    }

    #[test]
    fn faults_degrade_fastbc_on_paths() {
        // Lemma 10's shape: with rank_slots = ceil(log2 n), the noisy
        // run pays ~6·log n fast rounds per dropped hop.
        let g = generators::path(256);
        let params = FastbcParams {
            phase_len: None,
            rank_slots: Some(8 /* log2 256 */),
        };
        let sched = FastbcSchedule::with_params(&g, NodeId::new(0), params).unwrap();
        let clean = sched
            .run(Channel::faultless(), 1, 1_000_000)
            .unwrap()
            .rounds_used();
        let mut noisy_total = 0;
        for seed in 0..3 {
            noisy_total += sched
                .run(Channel::receiver(0.5).unwrap(), seed, 10_000_000)
                .unwrap()
                .rounds_used();
        }
        let noisy = noisy_total / 3;
        assert!(
            noisy as f64 > 2.5 * clean as f64,
            "faults should blow up FASTBC: clean {clean}, noisy {noisy}"
        );
    }

    #[test]
    fn fast_rounds_never_collide_at_fast_children() {
        // The GBST non-interference invariant, observed end-to-end:
        // in faultless fast rounds every broadcasting fast node's fast
        // child receives its packet.
        let g = generators::gnp_connected(96, 0.06, 11).unwrap();
        let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let gbst = sched.gbst();
        let run = sched
            .run_traced(Channel::faultless(), 5, 100_000, |round, trace| {
                if round % 2 != 0 {
                    return;
                }
                for &u in &trace.broadcasters {
                    let c = gbst
                        .fast_child(u)
                        .expect("even-round broadcasters are fast nodes");
                    let delivered = trace.deliveries.iter().any(|&(s, d)| s == u && d == c);
                    let child_broadcasting = trace.broadcasters.contains(&c);
                    assert!(
                        delivered || child_broadcasting,
                        "round {round}: fast child {c} of {u} missed the wave"
                    );
                }
            })
            .unwrap();
        assert!(run.completed());
    }

    #[test]
    fn rank_slots_below_max_rank_rejected() {
        let g = generators::balanced_tree(2, 4).unwrap();
        let err = FastbcSchedule::with_params(
            &g,
            NodeId::new(0),
            FastbcParams {
                phase_len: None,
                rank_slots: Some(1),
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn zero_params_rejected() {
        let g = generators::path(8);
        assert!(FastbcSchedule::with_params(
            &g,
            NodeId::new(0),
            FastbcParams {
                phase_len: Some(0),
                rank_slots: None
            }
        )
        .is_err());
        assert!(FastbcSchedule::with_params(
            &g,
            NodeId::new(0),
            FastbcParams {
                phase_len: None,
                rank_slots: Some(0)
            }
        )
        .is_err());
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(3, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert!(matches!(
            FastbcSchedule::new(&g, NodeId::new(0)),
            Err(CoreError::Gbst(gbst::GbstError::Disconnected { .. }))
        ));
    }

    #[test]
    fn fast_slot_matches_is_periodic() {
        let g = generators::path(16);
        let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let v = NodeId::new(3); // level 3, rank 1, modulus 6
        let hits: Vec<u64> = (0..24).filter(|&t| sched.fast_slot_matches(v, t)).collect();
        assert_eq!(hits, vec![3, 9, 15, 21]); // 3 - 6 ≡ 3 (mod 6)
    }

    #[test]
    fn next_due_is_the_first_matching_even_round() {
        for level in 0..14 {
            for rank in 1..=3 {
                for rank_slots in rank..=4 {
                    let timing = FastTiming {
                        level,
                        rank,
                        modulus: 6 * u64::from(rank_slots),
                    };
                    let period = 2 * timing.modulus;
                    for from in 0..2 * period {
                        let brute = (from..)
                            .find(|&r| r % 2 == 0 && timing.matches(r / 2))
                            .unwrap();
                        assert_eq!(timing.next_due(from), brute, "{timing:?} from {from}");
                        let far = 1_000_000_007 * period;
                        assert_eq!(timing.next_due(from + far), brute + far);
                    }
                }
            }
        }
    }

    #[test]
    fn even_round_broadcasters_are_the_informed_matching_fast_nodes() {
        // The cached gating against the stateless reference: in every
        // fast round the broadcasters are exactly the informed fast
        // nodes whose slot matches.
        let path = generators::path(64);
        let gnp = generators::gnp_connected(96, 0.06, 11).unwrap();
        let log_n = FastbcParams {
            phase_len: None,
            rank_slots: Some(6),
        };
        for (g, params) in [(&path, log_n), (&gnp, FastbcParams::default())] {
            let sched = FastbcSchedule::with_params(g, NodeId::new(0), params).unwrap();
            let gbst = sched.gbst();
            for fault in [Channel::faultless(), Channel::receiver(0.3).unwrap()] {
                let mut informed = vec![false; g.node_count()];
                informed[0] = true;
                let run = sched
                    .run_traced(fault, 5, 1_000_000, |round, trace| {
                        if round % 2 == 0 {
                            let due: Vec<NodeId> = (0..g.node_count())
                                .map(NodeId::from_index)
                                .filter(|&v| informed[v.index()] && gbst.is_fast(v))
                                .filter(|&v| sched.fast_slot_matches(v, round / 2))
                                .collect();
                            assert_eq!(trace.broadcasters, due, "round {round} under {fault}");
                        }
                        for v in &trace.first_packet_listeners {
                            informed[v.index()] = true;
                        }
                    })
                    .unwrap();
                assert!(run.completed());
            }
        }
    }

    /// Runs `behaviors` to full decode (or 100 000 rounds), sparse or
    /// dense, returning every round's trace, the stats, the latency
    /// profile and the act sweep's node visits.
    fn observe<B: NodeBehavior<()> + Clone>(
        g: &Graph,
        channel: Channel,
        behaviors: &[B],
        seed: u64,
        dense: bool,
    ) -> (
        Vec<RoundTrace>,
        radio_model::SimStats,
        radio_model::LatencyProfile,
        u64,
    ) {
        let mut sim = Simulator::new(g, channel, behaviors.to_vec(), seed)
            .unwrap()
            .with_dense_sweeps(dense)
            .with_telemetry(true);
        let mut traces = Vec::new();
        while sim.stats().decoded_nodes < g.node_count() as u64 && sim.round() < 100_000 {
            let mut t = RoundTrace::default();
            sim.step_traced(&mut t);
            traces.push(t);
        }
        let visits = sim.telemetry().active_node_rounds;
        (traces, *sim.stats(), sim.latency_profile(), visits)
    }

    /// Checks that informed nodes sleeping in the engine's wake wheel
    /// change nothing against the dense oracle, which acts every node in
    /// every round, and that they do sleep.
    fn assert_sleeping_matches_dense<B: NodeBehavior<()> + Clone>(
        g: &Graph,
        channel: Channel,
        behaviors: &[B],
        seed: u64,
    ) {
        let (traces, stats, profile, visits) = observe(g, channel, behaviors, seed, false);
        let dense = observe(g, channel, behaviors, seed, true);
        assert_eq!(stats.decoded_nodes, g.node_count() as u64, "{channel}");
        for (round, (sparse, dense)) in traces.iter().zip(&dense.0).enumerate() {
            assert_eq!(sparse, dense, "round {round} under {channel}, seed {seed}");
        }
        assert_eq!(traces.len(), dense.0.len());
        assert_eq!(
            (stats, profile),
            (dense.1, dense.2),
            "{channel}, seed {seed}"
        );
        // At least a quarter of the dense visits are skipped.
        assert!(
            4 * visits < 3 * dense.3,
            "{visits} of {} act visits",
            dense.3
        );
    }

    #[test]
    fn sleeping_decay_and_fastbc_nodes_match_dense_sweeps() {
        // Dilated FASTBC (`ρ = 3`) rides along: it sleeps through the
        // fast base rounds whose slot does not fire. So does Xin–Xia,
        // which sleeps through the rounds outside its layer's mod-3 slot.
        use crate::decay::{default_phase_len, DecayNode};
        use crate::repetition::RepeatedFastbcSchedule;
        use crate::robust_fastbc::RobustFastbcSchedule;
        use crate::schedules::latency::XinXiaSchedule;
        let graphs = [
            generators::path(40),
            generators::grid(8, 8),
            generators::gnp_connected(64, 0.08, 3).unwrap(),
        ];
        let channels = [
            Channel::faultless(),
            Channel::receiver(0.3).unwrap(),
            Channel::sender(0.2)
                .unwrap()
                .compose(Channel::erasure(0.3).unwrap())
                .unwrap(),
        ];
        for g in &graphs {
            let source = NodeId::new(0);
            let phase_len = default_phase_len(g.node_count());
            let decay: Vec<DecayNode> = (0..g.node_count())
                .map(|i| DecayNode::new(i == 0, phase_len))
                .collect();
            let fast = FastbcSchedule::new(g, source).unwrap().behaviors();
            let robust = RobustFastbcSchedule::new(g, source).unwrap().behaviors();
            let dilated = RepeatedFastbcSchedule::new(g, source, 3)
                .unwrap()
                .behaviors();
            let xin_xia = XinXiaSchedule::new(g, source).unwrap().behaviors();
            for channel in channels {
                for seed in [3, 4] {
                    assert_sleeping_matches_dense(g, channel, &decay, seed);
                    assert_sleeping_matches_dense(g, channel, &fast, seed);
                    assert_sleeping_matches_dense(g, channel, &robust, seed);
                    assert_sleeping_matches_dense(g, channel, &dilated, seed);
                    assert_sleeping_matches_dense(g, channel, &xin_xia, seed);
                }
            }
        }
    }

    #[test]
    fn packet_only_dispatch_matches_the_opaque_oracle() {
        // Past one 64-node bitset word, so that the receive sweep's
        // activity carries cross word boundaries.
        use crate::decay::{default_phase_len, DecayNode};
        use crate::opaque::assert_matches_opaque;
        use crate::repetition::RepeatedFastbcSchedule;
        use crate::robust_fastbc::RobustFastbcSchedule;
        use crate::schedules::latency::XinXiaSchedule;
        let graphs = [
            generators::path(200),
            generators::grid(12, 12),
            generators::star(150),
        ];
        let channels = [
            Channel::faultless(),
            Channel::receiver(0.3).unwrap(),
            Channel::sender(0.2)
                .unwrap()
                .compose(Channel::erasure(0.3).unwrap())
                .unwrap(),
        ];
        for g in &graphs {
            let source = NodeId::new(0);
            let phase_len = default_phase_len(g.node_count());
            let decay: Vec<DecayNode> = (0..g.node_count())
                .map(|i| DecayNode::new(i == 0, phase_len))
                .collect();
            let fast = FastbcSchedule::new(g, source).unwrap().behaviors();
            let robust = RobustFastbcSchedule::new(g, source).unwrap().behaviors();
            let dilated = RepeatedFastbcSchedule::new(g, source, 3)
                .unwrap()
                .behaviors();
            let xin_xia = XinXiaSchedule::new(g, source).unwrap().behaviors();
            for channel in channels {
                let seed = 6;
                assert_matches_opaque(g, channel, &decay, seed, 100_000);
                assert_matches_opaque(g, channel, &fast, seed, 100_000);
                assert_matches_opaque(g, channel, &robust, seed, 100_000);
                assert_matches_opaque(g, channel, &dilated, seed, 100_000);
                assert_matches_opaque(g, channel, &xin_xia, seed, 100_000);
            }
        }
    }

    use netgraph::Graph;
}
