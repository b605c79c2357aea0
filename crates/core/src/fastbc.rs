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
//!
//! One node type runs FASTBC, Robust FASTBC and the dilated baselines
//! of [`crate::repetition`]: `FastbcNode<T>`, over a per-node timing
//! `T` (this module's `FastTiming`, Robust FASTBC's block timing, or
//! the dilated timing) that says in which rounds the node broadcasts.
//! An informed node keeps the round of its next fast slot and the round
//! its next slow Decay coin fires, drawn ahead from its own stream, and
//! the engine wakes it only in those rounds. After a broadcast the
//! timing steps to the next round by addition from the one it last
//! returned (FASTBC's slot recurs every `2·6R` rounds), so a broadcast
//! runs no division; the division-based search runs once, when the
//! node is informed.

use gbst::Gbst;
use netgraph::{Graph, NodeId};
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, RoundTrace};
use rand::RngCore;

use crate::decay::{default_phase_len, DecayNode, UNDRAWN};
use crate::{BroadcastRun, CoreError};

/// A compiled FASTBC schedule: the GBST plus per-node timing data.
/// Slow rounds run Decay with the derived phase length
/// `⌈log₂ n⌉ + 1`.
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
    /// Compiles a FASTBC schedule whose fast-round modulus is `6R` with
    /// `R` the GBST's `r_max`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Gbst`] if the graph is disconnected or the source
    /// is invalid.
    pub fn new(graph: &'g Graph, source: NodeId) -> Result<Self, CoreError> {
        Self::build(graph, source, None)
    }

    /// Compiles with `rank_slots` rank slots `R` in the fast-round
    /// modulus `6R` instead of the GBST's `r_max`. The paper's analysis
    /// (and Lemma 10's `Θ(log n)` retransmission wait) assumes
    /// `R = Θ(log n)`; pass `⌈log₂ n⌉` to reproduce that regime on
    /// low-rank topologies such as bare paths.
    ///
    /// # Errors
    ///
    /// As [`FastbcSchedule::new`], or [`CoreError::InvalidParameter`] if
    /// `rank_slots` is below the GBST's `r_max` (which is at least 1).
    pub fn with_rank_slots(
        graph: &'g Graph,
        source: NodeId,
        rank_slots: u32,
    ) -> Result<Self, CoreError> {
        Self::build(graph, source, Some(rank_slots))
    }

    fn build(graph: &'g Graph, source: NodeId, rank_slots: Option<u32>) -> Result<Self, CoreError> {
        let gbst = Gbst::build(graph, source)?;
        let rank_slots = rank_slots.unwrap_or_else(|| gbst.max_rank());
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
            phase_len: default_phase_len(graph.node_count()),
            modulus: 6 * u64::from(rank_slots),
        })
    }

    /// The underlying GBST.
    pub fn gbst(&self) -> &Gbst {
        &self.gbst
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
                    self.gbst.is_fast(v),
                    self.timing(v),
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
        Ok(self
            .run_telemetry(fault, seed, max_rounds, &mut radio_obs::NullSink)?
            .0)
    }

    /// As [`FastbcSchedule::run`], additionally returning the per-node
    /// [`radio_model::LatencyProfile`] and emitting `schedule/setup`
    /// (behavior construction), `schedule/run`, and the engine's
    /// `engine/*` breakdown into `sink`. Pass [`radio_obs::NullSink`]
    /// for the profile alone; results are bit-identical whatever sink
    /// is attached.
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
        inspect: impl FnMut(u64, &RoundTrace),
    ) -> Result<BroadcastRun, CoreError> {
        crate::outcome::run_traced(
            self.graph,
            fault,
            self.behaviors(),
            seed,
            max_rounds,
            inspect,
        )
    }
}

/// The rounds one node of a GBST schedule broadcasts in, as
/// [`FastbcNode`] walks them: its fast slots, if it is a fast node, and
/// the rounds its slow Decay coins fire.
///
/// Each walk starts with a search from the round the node is informed
/// in (`first_due`, `first_slow`) and then steps on from the round it
/// last returned (`due_after`, `slow_after`). The timing keeps what a
/// step needs, so that a broadcast costs additions and compares.
pub(crate) trait Timing: Copy {
    /// The first fast slot at or after round `from` ([`NEVER`] if no
    /// such round fits a `u64`): stateless, the reference for the walk.
    fn next_due(&self, from: u64) -> u64;

    /// As [`Timing::next_due`], starting the walk at that slot.
    fn first_due(&mut self, from: u64) -> u64 {
        self.next_due(from)
    }

    /// The fast slot after `due`, the slot the walk last returned:
    /// `next_due(due + 1)`.
    fn due_after(&mut self, due: u64) -> u64;

    /// The first slow round at or after `from` whose Decay coin fires,
    /// drawing the coin of every slow round from `from` on in turn from
    /// `rng`. Undilated, slow round `2t + 1` runs Decay step `t`, so
    /// the first at or after `from` is step `⌊from/2⌋`.
    fn first_slow<R: RngCore>(&mut self, phase_len: u32, from: u64, rng: &mut R) -> u64 {
        2 * DecayNode::next_broadcast(phase_len, from / 2, rng) + 1
    }

    /// The slow broadcast after `round`, the one the walk last
    /// returned: the coins drawn on from the round after it.
    fn slow_after<R: RngCore>(&mut self, phase_len: u32, round: u64, rng: &mut R) -> u64 {
        self.first_slow(phase_len, round + 1, rng)
    }
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
    /// reference for [`Timing::next_due`].
    pub(crate) fn matches(&self, t: u64) -> bool {
        let l = i64::from(self.level);
        let r = i64::from(self.rank);
        (t as i64 - (l - 6 * r)).rem_euclid(self.modulus as i64) == 0
    }

    /// The real rounds from one slot to the next: `2·6R`.
    pub(crate) fn period(&self) -> u64 {
        2 * self.modulus
    }
}

impl Timing for FastTiming {
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

    fn due_after(&mut self, due: u64) -> u64 {
        due.saturating_add(self.period())
    }
}

/// Per-node behavior of FASTBC, Robust FASTBC and dilated FASTBC: the
/// fast slots and slow Decay coins of the timing `T`.
///
/// Both halves are cached as the round they next broadcast in, and
/// [`NodeBehavior::next_act`] reports the earlier of the two, so the
/// engine wakes an informed node only in the rounds it broadcasts.
#[derive(Debug, Clone)]
pub(crate) struct FastbcNode<T> {
    informed: bool,
    /// Whether the node holds fast slots: a fast node of the GBST.
    fast: bool,
    phase_len: u32,
    timing: T,
    /// The round this node broadcasts in next in a fast round: set from
    /// the round after it is informed (round 0 for the source) and
    /// stepped past each fast broadcast, so a fast round costs one
    /// compare. [`NEVER`] while uninformed and for slow nodes.
    next_due: u64,
    /// The round whose slow Decay coin fires next, drawn ahead from the
    /// node's own stream at its first act after being informed and
    /// again after each slow broadcast. [`NEVER`] while uninformed,
    /// [`UNDRAWN`] from being informed until that first act.
    next_slow: u64,
}

impl<T: Timing> FastbcNode<T> {
    pub(crate) fn new(source: bool, phase_len: u32, fast: bool, timing: T) -> Self {
        let mut node = FastbcNode {
            informed: false,
            fast,
            phase_len,
            timing,
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
        self.next_due = if self.fast {
            self.timing.first_due(from)
        } else {
            NEVER
        };
        self.next_slow = UNDRAWN;
    }
}

impl<T: Timing> NodeBehavior<()> for FastbcNode<T> {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if !self.informed {
            return Action::Listen;
        }
        if self.next_slow == UNDRAWN {
            self.next_slow = self.timing.first_slow(self.phase_len, ctx.round, ctx.rng);
        }
        // The engine wakes the node at `next_act`, the earlier of the
        // two, so neither due round can pass unseen.
        debug_assert!(ctx.round <= self.next_due, "fast slot skipped");
        debug_assert!(ctx.round <= self.next_slow, "slow broadcast skipped");
        if ctx.round == self.next_due {
            self.next_due = self.timing.due_after(ctx.round);
            Action::Broadcast(())
        } else if ctx.round == self.next_slow {
            self.next_slow = self.timing.slow_after(self.phase_len, ctx.round, ctx.rng);
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

    // Only a packet changes a node, and only an uninformed one (see
    // `receive`); `act` only draws ahead and advances the cached rounds,
    // and there is no queue.
    const SILENCE_TRANSPARENT: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;
    use radio_model::Simulator;

    #[test]
    fn faultless_path_is_diameter_linear() {
        // Without faults the fast wave never collides on a path: it
        // advances one hop per fast round (two real rounds), and the
        // last hop's reception lands in round 2D − 1. Slow Decay
        // rounds can only bring a short path's far end in earlier.
        for n in [2, 3, 5, 17, 63, 64, 65, 200, 1024] {
            let g = generators::path(n);
            let wave = 2 * (n as u64 - 1) - 1;
            let sched = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
            for seed in 0..4 {
                let rounds = sched
                    .run(Channel::faultless(), seed, 100_000)
                    .unwrap()
                    .rounds_used();
                assert!(rounds <= wave, "path:{n}, seed {seed}: {rounds} rounds");
                if [64, 200, 1024].contains(&n) {
                    assert_eq!(rounds, wave, "path:{n}, seed {seed}");
                }
            }
        }
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
        let sched = FastbcSchedule::with_rank_slots(&g, NodeId::new(0), 8 /* log2 256 */).unwrap();
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
        let err = FastbcSchedule::with_rank_slots(&g, NodeId::new(0), 1).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn zero_params_rejected() {
        // A GBST's ranks start at 1, so no graph takes zero rank slots.
        let g = generators::path(8);
        assert!(FastbcSchedule::with_rank_slots(&g, NodeId::new(0), 0).is_err());
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
    fn stepping_from_each_slot_walks_every_matching_even_round() {
        // The walk against the brute-force sweep of `matches`: started
        // from every round of one period (so from every slot and from
        // between slots), `first_due` and then `due_after` hit exactly
        // the matching even rounds, over three periods.
        for level in 0..14 {
            for rank in 1..=3 {
                for rank_slots in rank..=4 {
                    let timing = FastTiming {
                        level,
                        rank,
                        modulus: 6 * u64::from(rank_slots),
                    };
                    let period = timing.period();
                    let slots: Vec<u64> = (0..5 * period)
                        .filter(|&r| r % 2 == 0 && timing.matches(r / 2))
                        .collect();
                    let far = 1_000_000_007 * period;
                    for from in 0..period {
                        let want = slots.iter().copied().filter(|&r| r >= from);
                        let want: Vec<u64> = want.take_while(|&r| r < from + 3 * period).collect();
                        assert!(want.len() >= 3, "{timing:?} from {from}");
                        for offset in [0, far] {
                            let mut walk = timing;
                            let mut due = walk.first_due(from + offset);
                            for &slot in &want {
                                assert_eq!(due, slot + offset, "{timing:?} from {from}");
                                due = walk.due_after(due);
                            }
                        }
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
        let scheds = [
            FastbcSchedule::with_rank_slots(&path, NodeId::new(0), 6).unwrap(),
            FastbcSchedule::new(&gnp, NodeId::new(0)).unwrap(),
        ];
        for (g, sched) in [(&path, &scheds[0]), (&gnp, &scheds[1])] {
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

    /// Runs `behaviors` to full decode with telemetry on and checks that
    /// the behaviors were handed exactly one packet per node that got
    /// any: every other delivery found its listener settled.
    fn assert_each_node_sees_one_packet<B: NodeBehavior<()>>(
        g: &Graph,
        channel: Channel,
        behaviors: Vec<B>,
    ) {
        let mut sink = radio_obs::CounterSink::new();
        let (run, _) =
            crate::outcome::run_profiled_telemetry(g, channel, behaviors, 9, 1_000_000, &mut sink)
                .unwrap();
        let at = format!("{} nodes, {channel}", g.node_count());
        assert!(run.completed(), "{at}");
        let deliveries = sink.counter_total("engine/deliveries").unwrap();
        let settled = sink.counter_total("engine/settled_deliveries").unwrap();
        assert_eq!(deliveries - settled, run.stats.delivered_nodes, "{at}");
    }

    /// Checks the five single-message schedules against their opaque
    /// twins, and that each hands its behaviors one packet per node.
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
            generators::grid(16, 16),
            generators::star(150),
        ];
        let channels = [
            Channel::faultless(),
            Channel::receiver(0.3).unwrap(),
            Channel::sender(0.2)
                .unwrap()
                .compose(Channel::erasure(0.3).unwrap())
                .unwrap(),
            Channel::sender(0.2)
                .unwrap()
                .compose(Channel::receiver(0.3).unwrap())
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
                assert_each_node_sees_one_packet(g, channel, decay.clone());
                assert_each_node_sees_one_packet(g, channel, fast.clone());
                assert_each_node_sees_one_packet(g, channel, robust.clone());
                assert_each_node_sees_one_packet(g, channel, dilated.clone());
                assert_each_node_sees_one_packet(g, channel, xin_xia.clone());
            }
        }
    }

    use netgraph::Graph;
}
