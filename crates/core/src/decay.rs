//! The Decay broadcast algorithm (Bar-Yehuda, Goldreich, Itai 1992;
//! paper §3.4.1).
//!
//! Rounds are grouped into phases of `L = ⌈log₂ n⌉ + 1` rounds. In the
//! `i`-th round of a phase (`i = 1..=L`) every *informed* node
//! broadcasts the message independently with probability `2^{-i}`.
//! Whatever the number of informed neighbors a node has, some round of
//! the phase has a broadcast probability near the inverse of that
//! count, so an uninformed node with an informed neighbor becomes
//! informed with constant probability per phase (Lemma 5).
//!
//! Decay needs no topology knowledge and — the paper's Lemma 9 — keeps
//! its guarantees under both sender and receiver faults, slowed only
//! by the `1/(1-p)` fault factor:
//! `O((log n / (1-p)) · (D + log n + log 1/δ))` rounds.

use netgraph::{Graph, NodeId};
use radio_model::{Action, Channel, Ctx, LatencyProfile, NodeBehavior, Reception};

use crate::{BroadcastRun, CoreError};

/// Configuration for [`Decay`].
///
/// The algorithmic knob is the phase length; `None` (default) derives
/// `⌈log₂ n⌉ + 1` from the graph at run time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decay {
    /// Phase length override; `None` derives `⌈log₂ n⌉ + 1`.
    pub phase_len: Option<u32>,
}

impl Decay {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an explicit phase length (must be ≥ 1).
    pub fn with_phase_len(mut self, phase_len: u32) -> Self {
        self.phase_len = Some(phase_len);
        self
    }

    /// The phase length used for an `n`-node graph.
    pub fn effective_phase_len(&self, n: usize) -> u32 {
        self.phase_len.unwrap_or_else(|| default_phase_len(n))
    }

    /// Runs single-message Decay from `source` until every node is
    /// informed or `max_rounds` elapse.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if an explicit phase length is 0;
    /// * [`CoreError::Model`] for simulator configuration errors.
    pub fn run(
        &self,
        graph: &Graph,
        source: NodeId,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<BroadcastRun, CoreError> {
        Ok(self.run_profiled(graph, source, fault, seed, max_rounds)?.0)
    }

    /// As [`Decay::run`], additionally returning the per-node
    /// [`LatencyProfile`] (first-delivery and decode-completion
    /// rounds).
    ///
    /// # Errors
    ///
    /// As [`Decay::run`].
    pub fn run_profiled(
        &self,
        graph: &Graph,
        source: NodeId,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(BroadcastRun, LatencyProfile), CoreError> {
        self.run_telemetry(
            graph,
            source,
            fault,
            seed,
            max_rounds,
            &mut radio_obs::NullSink,
        )
    }

    /// As [`Decay::run_profiled`], with per-phase telemetry: emits a
    /// `schedule/setup` span (behavior construction), a `schedule/run`
    /// span, and the engine's `engine/*` breakdown into `sink`. The
    /// returned results are bit-identical whatever sink is attached.
    ///
    /// # Errors
    ///
    /// As [`Decay::run`].
    pub fn run_telemetry<S: radio_obs::TelemetrySink>(
        &self,
        graph: &Graph,
        source: NodeId,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
        sink: &mut S,
    ) -> Result<(BroadcastRun, LatencyProfile), CoreError> {
        let n = graph.node_count();
        if source.index() >= n {
            return Err(CoreError::InvalidParameter {
                reason: format!("source {source} out of bounds for {n} nodes"),
            });
        }
        let phase_len = self.effective_phase_len(n);
        if phase_len == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "phase length must be ≥ 1".into(),
            });
        }
        let setup = radio_obs::SpanTimer::start(sink.enabled());
        let behaviors: Vec<DecayNode> = (0..n)
            .map(|i| DecayNode::new(i == source.index(), phase_len))
            .collect();
        setup.stop(sink, "schedule/setup");
        crate::outcome::run_profiled_telemetry(graph, fault, behaviors, seed, max_rounds, sink)
    }

    /// Runs Decay for exactly `budget` rounds and reports whether the
    /// broadcast finished — the *fixed-length, failure-probability*
    /// form in which Lemmas 6 and 9 are stated (`δ` is the probability
    /// this returns `false` for a `Θ((log n/(1−p))(D + log n + log 1/δ))`
    /// budget).
    ///
    /// # Errors
    ///
    /// As [`Decay::run`].
    pub fn run_fixed(
        &self,
        graph: &Graph,
        source: NodeId,
        fault: Channel,
        seed: u64,
        budget: u64,
    ) -> Result<bool, CoreError> {
        Ok(self.run(graph, source, fault, seed, budget)?.completed())
    }

    /// Monte-Carlo estimate of the failure probability `δ` of the
    /// fixed-length schedule with the given round `budget`.
    ///
    /// # Errors
    ///
    /// As [`Decay::run`].
    pub fn failure_rate(
        &self,
        graph: &Graph,
        source: NodeId,
        fault: Channel,
        budget: u64,
        trials: u64,
        seed0: u64,
    ) -> Result<f64, CoreError> {
        let mut failures = 0u64;
        for t in 0..trials {
            if !self.run_fixed(graph, source, fault, seed0 + t, budget)? {
                failures += 1;
            }
        }
        Ok(failures as f64 / trials as f64)
    }
}

/// Derives the canonical phase length `⌈log₂ n⌉ + 1`.
pub fn default_phase_len(n: usize) -> u32 {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) + 1
}

/// `⌈2⁶⁴/L⌉` for `L` in `2..=64`, indexed by `L`: the magic
/// reciprocals behind [`phase_step`]'s division-free modulo. Built at
/// compile time; entries 0 and 1 are unused padding (`⌈2⁶⁴/1⌉`
/// overflows, and `step mod 1` needs no reciprocal).
const PHASE_RECIP: [u64; 65] = {
    let mut t = [0u64; 65];
    let mut l = 2u64;
    while l <= 64 {
        // ⌈2⁶⁴/l⌉ without 128-bit arithmetic: ⌊(2⁶⁴−1)/l⌋ + 1 (equal
        // whether or not l divides 2⁶⁴, since only powers of two do
        // and for those ⌊(2⁶⁴−1)/l⌋ = 2⁶⁴/l − 1).
        t[l as usize] = u64::MAX / l + 1;
        l += 1;
    }
    t
};

/// `step mod phase_len`, division-free for the phase lengths that
/// occur in practice (`⌈log₂ n⌉ + 1 ≤ 64` up to astronomical n).
///
/// Decay-family nodes evaluate this for their coins (a [`DecayNode`]
/// once per draw-ahead), and a runtime `u64` modulo is the single most
/// expensive instruction on that path. The multiply-shift
/// `⌊step·⌈2⁶⁴/L⌉ / 2⁶⁴⌋ = ⌊step/L⌋` is exact whenever
/// `step·(L·⌈2⁶⁴/L⌉ − 2⁶⁴) < 2⁶⁴`, which holds comfortably for every
/// reachable round count (`step < 2⁵⁷` suffices for `L ≤ 64`).
#[inline]
fn phase_step(phase_len: u32, step: u64) -> u64 {
    let l = u64::from(phase_len);
    if !(2..PHASE_RECIP.len()).contains(&(phase_len as usize)) || step >= 1 << 57 {
        return step % l;
    }
    let q = ((u128::from(step) * u128::from(PHASE_RECIP[phase_len as usize])) >> 64) as u64;
    let r = step - q * l;
    debug_assert_eq!(r, step % l);
    r
}

/// [`DecayNode`]'s next round while it is uninformed: never, until the
/// message reaches it.
const UNINFORMED: u64 = u64::MAX;

/// A drawn-ahead broadcast round from being informed until the first
/// act draws it: round 0, so the engine sweeps the node in every round
/// until then.
pub(crate) const UNDRAWN: u64 = 0;

/// Per-node Decay state machine. Exposed so other algorithms (FASTBC's
/// slow rounds) and the multi-message variants can reuse the step rule.
///
/// An informed node draws its coins ahead: at its first act it draws
/// round by round until one fires, broadcasts in that round, and then
/// draws ahead again from the round after. Every coin still comes from
/// the node's own stream in round order, one per round, so the
/// broadcasts are exactly those of a coin drawn in each round, and the
/// engine can skip the node until its next broadcast (see
/// [`NodeBehavior::next_act`]).
#[derive(Debug, Clone)]
pub struct DecayNode {
    /// Phase length `L`.
    phase_len: u32,
    /// The round of this node's next broadcast: [`UNINFORMED`],
    /// [`UNDRAWN`], or the round its coin next fires.
    next: u64,
}

impl DecayNode {
    /// A node that holds the message from the start iff `informed`,
    /// running phases of `phase_len` rounds.
    pub fn new(informed: bool, phase_len: u32) -> Self {
        DecayNode {
            phase_len,
            next: if informed { UNDRAWN } else { UNINFORMED },
        }
    }

    /// Whether this node holds the message.
    pub fn informed(&self) -> bool {
        self.next != UNINFORMED
    }

    /// The Decay broadcast probability for (0-based) `step` within the
    /// phase structure: `2^{-((step mod L) + 1)}`.
    pub fn broadcast_probability(phase_len: u32, step: u64) -> f64 {
        let i = phase_step(phase_len, step) + 1;
        // 2^-i built directly as an IEEE-754 exponent: every informed
        // node evaluates this each round, and `powi` compiles to a
        // multiplication loop. Exact powers of two, so bit-identical
        // to `0.5f64.powi(i)` (both are exact for i ≤ 1022; phases are
        // orders of magnitude shorter).
        debug_assert!(i <= 1022, "phase step would denormalize 2^-i");
        f64::from_bits((1023 - i) << 52)
    }

    /// Performs the Decay coin flip for `step`: bit-identical to
    /// `gen_bool(broadcast_probability(phase_len, step))`, as a single
    /// integer comparison.
    ///
    /// `gen_bool(p)` samples an `f64` as `(next_u64() >> 11)·2⁻⁵³` and
    /// compares it against `p`; for `p = 2⁻ⁱ` with `1 ≤ i ≤ 53` both
    /// sides are exact, so the comparison is precisely
    /// `(next_u64() >> 11) < 2^(53−i)`. Same stream consumption, same
    /// outcome, no float traffic — this is the hottest line of every
    /// Decay-family sweep.
    pub fn draw_broadcast<R: rand::RngCore>(phase_len: u32, step: u64, rng: &mut R) -> bool {
        // One predictable guard covers the reciprocal table, the
        // multiply-shift exactness bound, and the i ≤ 53 threshold
        // exactness all at once (L ≤ 54 ⇒ i ≤ 54 needs the extra
        // check only at the boundary).
        if (2..=53).contains(&phase_len) && step < 1 << 57 {
            let l = u64::from(phase_len);
            let q = ((u128::from(step) * u128::from(PHASE_RECIP[phase_len as usize])) >> 64) as u64;
            let i = step - q * l + 1;
            debug_assert_eq!(i, step % l + 1);
            (rng.next_u64() >> 11) < (1u64 << (53 - i))
        } else {
            rand::Rng::gen_bool(rng, Self::broadcast_probability(phase_len, step))
        }
    }

    /// The first step at or after `from_step` whose Decay coin fires,
    /// drawing the coins of `from_step`, `from_step + 1`, … in turn:
    /// the same draws, in the same order and with the same outcomes,
    /// as calling [`DecayNode::draw_broadcast`] step by step until it
    /// returns `true`.
    pub fn next_broadcast<R: rand::RngCore>(phase_len: u32, from_step: u64, rng: &mut R) -> u64 {
        let mut step = from_step;
        if !(1..=53).contains(&phase_len) {
            while !Self::draw_broadcast(phase_len, step, rng) {
                step += 1;
            }
            return step;
        }
        // `draw_broadcast`'s test for phase index `i`, `(draw >> 11) <
        // 2^(53−i)`, is `draw < 2^(64−i)`. The threshold halves from
        // step to step and returns to 2⁶³ at each phase start, exact at
        // every step, so there is no 2⁵⁷ bound. The loop above instead
        // re-derives `i` with a 128-bit multiply per draw; used for
        // every phase length, it ran the benchmark's `grid-decay` at
        // 282M node-rounds/s against this carry's 379M (medians of 10
        // rotated 30 s runs, 2-vCPU Xeon host).
        let last = 1u64 << (64 - phase_len);
        let mut threshold = 1u64 << (63 - phase_step(phase_len, step));
        while rng.next_u64() >= threshold {
            step += 1;
            threshold = if threshold == last {
                1 << 63
            } else {
                threshold >> 1
            };
        }
        step
    }
}

impl NodeBehavior<()> for DecayNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if self.next == UNDRAWN {
            self.next = Self::next_broadcast(self.phase_len, ctx.round, ctx.rng);
        }
        // The engine wakes the node at `next` (see `next_act`); an
        // uninformed node's `next` is never reached.
        debug_assert!(ctx.round <= self.next, "Decay broadcast skipped");
        if ctx.round != self.next {
            return Action::Listen;
        }
        self.next = Self::next_broadcast(self.phase_len, ctx.round + 1, ctx.rng);
        Action::Broadcast(())
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
        if rx.is_packet() && self.next == UNINFORMED {
            self.next = UNDRAWN;
        }
    }

    fn decoded(&self) -> bool {
        self.informed()
    }

    // Uninformed: never, until a packet arrives. Informed: every round
    // until the first act draws ahead, then the round of the next
    // broadcast. A packet only moves `UNINFORMED` to `UNDRAWN`, round 0.
    fn next_act(&self) -> u64 {
        self.next
    }

    // Only a packet changes a Decay node (see `receive`), `act` only
    // draws ahead, and there is no queue: the engine may settle every
    // Decay node but the delivered listeners word-at-a-time.
    const SILENCE_TRANSPARENT: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn phase_step_matches_modulo() {
        for l in 1u32..=64 {
            for step in (0..200).chain([u64::MAX, (1 << 57) - 1, 1 << 57, 199_999_999]) {
                assert_eq!(
                    phase_step(l, step),
                    step % u64::from(l),
                    "L {l} step {step}"
                );
            }
        }
        // Oversized phase lengths fall back to the hardware modulo.
        assert_eq!(phase_step(65, 1_000), 1_000 % 65);
        assert_eq!(phase_step(u32::MAX, 7), 7);
    }

    #[test]
    fn draw_broadcast_matches_gen_bool() {
        use rand::{RngCore, SeedableRng};
        let mut a = rand::rngs::SmallRng::seed_from_u64(7);
        let mut b = a.clone();
        for phase_len in [2u32, 13, 53, 54, 64] {
            for step in 0..u64::from(phase_len) * 4 {
                let fast = DecayNode::draw_broadcast(phase_len, step, &mut a);
                let p = DecayNode::broadcast_probability(phase_len, step);
                let slow = rand::Rng::gen_bool(&mut b, p);
                assert_eq!(fast, slow, "phase_len {phase_len} step {step}");
                assert_eq!(a.next_u64(), b.next_u64(), "streams diverged");
            }
        }
    }

    #[test]
    fn next_broadcast_matches_drawing_step_by_step() {
        use rand::{RngCore, SeedableRng};
        // 54 and 64 take the `gen_bool` fallback; the rest carry the
        // threshold across phase boundaries and past 2⁵⁷.
        for phase_len in [1u32, 2, 13, 53, 54, 64] {
            let l = u64::from(phase_len);
            let near_2_57 = (1u64 << 57) / l * l;
            let starts = [0, l - 1, l, l + 1, 5 * l - 1, 5 * l, 5 * l + 1]
                .into_iter()
                .chain([near_2_57 - l - 1, near_2_57 - 1, near_2_57, (1 << 57) - 1])
                .chain([1 << 57, (1 << 57) + 1]);
            for (k, from) in starts.enumerate() {
                for seed in 0..40 {
                    let mut ahead = rand::rngs::SmallRng::seed_from_u64(seed * 31 + k as u64);
                    let mut stepwise = ahead.clone();
                    let got = DecayNode::next_broadcast(phase_len, from, &mut ahead);
                    let want = (from..)
                        .find(|&s| DecayNode::draw_broadcast(phase_len, s, &mut stepwise))
                        .unwrap();
                    assert_eq!(got, want, "phase_len {phase_len} from {from} seed {seed}");
                    assert_eq!(ahead.next_u64(), stepwise.next_u64(), "streams diverged");
                }
            }
        }
    }

    #[test]
    fn broadcast_probability_matches_powi() {
        for phase_len in [2u32, 5, 11, 21, 64] {
            for step in 0..u64::from(phase_len) * 3 {
                let i = (step % u64::from(phase_len)) + 1;
                assert_eq!(
                    DecayNode::broadcast_probability(phase_len, step).to_bits(),
                    0.5f64.powi(i as i32).to_bits(),
                    "phase_len {phase_len} step {step}"
                );
            }
        }
    }

    #[test]
    fn default_phase_len_values() {
        assert_eq!(default_phase_len(2), 2);
        assert_eq!(default_phase_len(8), 4);
        assert_eq!(default_phase_len(9), 5);
        assert_eq!(default_phase_len(1024), 11);
        // Degenerate sizes clamp to n = 2.
        assert_eq!(default_phase_len(0), 2);
        assert_eq!(default_phase_len(1), 2);
    }

    #[test]
    fn broadcast_probability_cycles() {
        assert_eq!(DecayNode::broadcast_probability(3, 0), 0.5);
        assert_eq!(DecayNode::broadcast_probability(3, 1), 0.25);
        assert_eq!(DecayNode::broadcast_probability(3, 2), 0.125);
        assert_eq!(DecayNode::broadcast_probability(3, 3), 0.5);
    }

    #[test]
    fn faultless_path_completes() {
        let g = generators::path(32);
        let run = Decay::new()
            .run(&g, NodeId::new(0), Channel::faultless(), 1, 100_000)
            .unwrap();
        assert!(run.completed());
        assert!(run.rounds_used() > 31, "path needs at least D rounds");
    }

    #[test]
    fn receiver_faults_completes_slower() {
        let g = generators::path(32);
        let base = Decay::new()
            .run(&g, NodeId::new(0), Channel::faultless(), 7, 1_000_000)
            .unwrap()
            .rounds_used();
        // Average several noisy runs to dodge variance.
        let mut total = 0;
        for seed in 0..5 {
            total += Decay::new()
                .run(
                    &g,
                    NodeId::new(0),
                    Channel::receiver(0.6).unwrap(),
                    seed,
                    1_000_000,
                )
                .unwrap()
                .rounds_used();
        }
        let noisy = total / 5;
        assert!(
            noisy > base,
            "receiver faults should slow Decay (faultless {base}, noisy {noisy})"
        );
    }

    #[test]
    fn sender_faults_complete() {
        let g = generators::gnp_connected(64, 0.08, 3).unwrap();
        let run = Decay::new()
            .run(
                &g,
                NodeId::new(0),
                Channel::sender(0.5).unwrap(),
                11,
                1_000_000,
            )
            .unwrap();
        assert!(
            run.completed(),
            "Decay must finish under sender faults (Lemma 9)"
        );
    }

    #[test]
    fn star_completes_within_phases() {
        let g = generators::star(127);
        let run = Decay::new()
            .run(&g, NodeId::new(0), Channel::faultless(), 5, 10_000)
            .unwrap();
        // One hop: all leaves hear the center's first solo broadcast.
        // Decay's first broadcast at probability 1/2 happens within a
        // couple of phases.
        assert!(run.rounds_used() <= 64, "rounds {}", run.rounds_used());
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let g = generators::path(64);
        let run = Decay::new()
            .run(&g, NodeId::new(0), Channel::faultless(), 1, 3)
            .unwrap();
        assert!(!run.completed());
    }

    #[test]
    fn bad_source_rejected() {
        let g = generators::path(4);
        assert!(matches!(
            Decay::new().run(&g, NodeId::new(9), Channel::faultless(), 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn zero_phase_len_rejected() {
        let g = generators::path(4);
        assert!(matches!(
            Decay::new()
                .with_phase_len(0)
                .run(&g, NodeId::new(0), Channel::faultless(), 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn determinism() {
        let g = generators::gnp_connected(40, 0.1, 2).unwrap();
        let fault = Channel::receiver(0.3).unwrap();
        let a = Decay::new()
            .run(&g, NodeId::new(0), fault, 13, 100_000)
            .unwrap();
        let b = Decay::new()
            .run(&g, NodeId::new(0), fault, 13, 100_000)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn failure_rate_decreases_with_budget() {
        // Lemma 9's δ-dependence: a larger budget lowers the failure
        // probability; a generous budget drives it to ~0.
        let g = generators::path(48);
        let fault = Channel::receiver(0.5).unwrap();
        let decay = Decay::new();
        let tight = decay
            .failure_rate(&g, NodeId::new(0), fault, 300, 30, 7)
            .unwrap();
        let loose = decay
            .failure_rate(&g, NodeId::new(0), fault, 3_000, 30, 7)
            .unwrap();
        assert!(
            loose <= tight,
            "budget 3000 failed more ({loose}) than 300 ({tight})"
        );
        assert_eq!(loose, 0.0, "a 10× budget should essentially never fail");
        assert!(tight > 0.0, "a starved budget should fail sometimes");
    }

    #[test]
    fn profiled_run_orders_latencies_along_the_path() {
        let g = generators::path(24);
        let (run, profile) = Decay::new()
            .run_profiled(
                &g,
                NodeId::new(0),
                Channel::receiver(0.3).unwrap(),
                5,
                100_000,
            )
            .unwrap();
        assert!(run.completed());
        // Every non-source node was served (the source may also hear
        // packets echoed back from its neighbor).
        assert!(profile.delivered_count() >= 23);
        assert_eq!(profile.decode_complete(NodeId::new(0)), Some(0));
        // Decay informs a node the round it first hears, so the two
        // profiles agree; the flood front is monotone along the path.
        let mut last = 0;
        for i in 1..24u32 {
            let v = NodeId::new(i);
            let first = profile.first_packet(v).expect("delivered");
            assert_eq!(profile.decode_complete(v), Some(first));
            assert!(first >= last, "front moved backwards at {v}");
            assert!(first < run.rounds_used());
            last = first;
        }
    }

    #[test]
    fn informed_nodes_are_visited_only_to_broadcast() {
        // The act sweep visits an informed node in the rounds it
        // broadcasts (plus its first act, which draws ahead), not in
        // every round after it is informed.
        let g = generators::grid(16, 16);
        let mut sink = radio_obs::CounterSink::new();
        let (run, profile) = Decay::new()
            .run_telemetry(
                &g,
                NodeId::new(0),
                Channel::receiver(0.3).unwrap(),
                9,
                100_000,
                &mut sink,
            )
            .unwrap();
        let rounds = run.rounds_used();
        let informed_node_rounds: u64 = g
            .nodes()
            .map(|v| rounds - profile.decode_complete(v).expect("decoded"))
            .sum();
        let visits = sink.counter_total("engine/active_node_rounds").unwrap();
        let broadcasts = sink.counter_total("engine/broadcasts").unwrap();
        assert!(
            broadcasts <= visits,
            "{broadcasts} broadcasts, {visits} visits"
        );
        assert!(
            visits < informed_node_rounds / 3,
            "{visits} act visits over {informed_node_rounds} informed node-rounds"
        );
    }

    #[test]
    fn run_fixed_matches_run() {
        let g = generators::path(16);
        let fault = Channel::receiver(0.3).unwrap();
        let rounds = Decay::new()
            .run(&g, NodeId::new(0), fault, 5, 1_000_000)
            .unwrap()
            .rounds_used();
        assert!(Decay::new()
            .run_fixed(&g, NodeId::new(0), fault, 5, rounds)
            .unwrap());
        assert!(!Decay::new()
            .run_fixed(&g, NodeId::new(0), fault, 5, rounds - 1)
            .unwrap());
    }
}
