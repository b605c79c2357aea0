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
use radio_obs::NullSink;

use crate::{BroadcastRun, CoreError};

/// Single-message Decay. It has nothing to configure: the phase length
/// is derived from the graph, `L = ⌈log₂ n⌉ + 1` (see
/// [`default_phase_len`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decay;

impl Decay {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Decay
    }

    /// Runs single-message Decay from `source` until every node is
    /// informed or `max_rounds` elapse.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if `source` is out of bounds;
    /// * [`CoreError::Model`] for simulator configuration errors.
    pub fn run(
        &self,
        graph: &Graph,
        source: NodeId,
        fault: Channel,
        seed: u64,
        max_rounds: u64,
    ) -> Result<BroadcastRun, CoreError> {
        Ok(self
            .run_telemetry(graph, source, fault, seed, max_rounds, &mut NullSink)?
            .0)
    }

    /// As [`Decay::run`], additionally returning the per-node
    /// [`LatencyProfile`] (first-delivery and decode-completion
    /// rounds) and emitting a `schedule/setup` span (behavior
    /// construction), a `schedule/run` span, and the engine's
    /// `engine/*` breakdown into `sink`. Pass [`radio_obs::NullSink`]
    /// for the profile alone; the returned results are bit-identical
    /// whatever sink is attached.
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
        let phase_len = default_phase_len(n);
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

/// Derives the canonical phase length `⌈log₂ n⌉ + 1`: from 2 (for
/// `n ≤ 2`) up to 33, since a [`NodeId`] is a `u32` and a graph has at
/// most 2³² nodes.
pub fn default_phase_len(n: usize) -> u32 {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) + 1
}

/// The longest phase [`DecayNode::new`] accepts. A coin at phase
/// position `i` fires with probability `2^-i`, which a 53-bit uniform
/// compares exactly only for `i ≤ 53` (see [`DecayNode::draw_broadcast`]);
/// derived phase lengths are at most 33.
const MAX_PHASE_LEN: u32 = 53;

/// `⌈2⁶⁴/L⌉` for `L` in `2..=53`, indexed by `L`: the magic reciprocals
/// behind [`phase_step`]'s division-free modulo. Built at compile time;
/// entries 0 and 1 are unused padding (`⌈2⁶⁴/1⌉` overflows, and
/// `step mod 1` needs no reciprocal).
const PHASE_RECIP: [u64; MAX_PHASE_LEN as usize + 1] = {
    let mut t = [0u64; MAX_PHASE_LEN as usize + 1];
    let mut l = 2u64;
    while l <= MAX_PHASE_LEN as u64 {
        // ⌈2⁶⁴/l⌉ without 128-bit arithmetic: ⌊(2⁶⁴−1)/l⌋ + 1 (equal
        // whether or not l divides 2⁶⁴, since only powers of two do
        // and for those ⌊(2⁶⁴−1)/l⌋ = 2⁶⁴/l − 1).
        t[l as usize] = u64::MAX / l + 1;
        l += 1;
    }
    t
};

/// `step mod phase_len`: division-free for every phase length in
/// `2..=53` below step 2⁵⁷, a hardware modulo otherwise.
///
/// Decay-family nodes evaluate this for their coins (a [`DecayNode`]
/// once per draw-ahead), and a runtime `u64` modulo is the single most
/// expensive instruction on that path. The multiply-shift
/// `⌊step·⌈2⁶⁴/L⌉ / 2⁶⁴⌋ = ⌊step/L⌋` is exact whenever
/// `step·(L·⌈2⁶⁴/L⌉ − 2⁶⁴) < 2⁶⁴`, which holds comfortably for every
/// reachable round count (`step < 2⁵⁷` suffices for `L ≤ 64`).
#[inline]
pub(crate) fn phase_step(phase_len: u32, step: u64) -> u64 {
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
    /// running phases of `phase_len` rounds ([`default_phase_len`] gives
    /// the paper's length for a graph).
    ///
    /// # Panics
    ///
    /// If `phase_len` is outside `1..=53`: the coin of phase position
    /// 54 would need more than the 53 bits of a uniform draw.
    pub fn new(informed: bool, phase_len: u32) -> Self {
        assert!(
            (1..=MAX_PHASE_LEN).contains(&phase_len),
            "Decay phase length {phase_len} outside 1..=53"
        );
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
    pub(crate) fn broadcast_probability(phase_len: u32, step: u64) -> f64 {
        let i = phase_step(phase_len, step) + 1;
        // 2^-i built directly as an IEEE-754 exponent: exact, so
        // bit-identical to `0.5f64.powi(i)`.
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
    /// outcome, no float traffic. Every phase length is in `1..=53`
    /// (see [`DecayNode::new`]), so every `i` is.
    pub(crate) fn draw_broadcast<R: rand::RngCore>(phase_len: u32, step: u64, rng: &mut R) -> bool {
        let i = phase_step(phase_len, step) + 1;
        (rng.next_u64() >> 11) < (1u64 << (53 - i))
    }

    /// The first step at or after `from_step` whose Decay coin fires,
    /// drawing the coins of `from_step`, `from_step + 1`, … in turn:
    /// the same draws, in the same order and with the same outcomes,
    /// as calling [`DecayNode::draw_broadcast`] step by step until it
    /// returns `true`.
    pub(crate) fn next_broadcast<R: rand::RngCore>(
        phase_len: u32,
        from_step: u64,
        rng: &mut R,
    ) -> u64 {
        // `draw_broadcast`'s test for phase index `i`, `(draw >> 11) <
        // 2^(53−i)`, is `draw < 2^(64−i)`. The threshold halves from
        // step to step and returns to 2⁶³ at each phase start, exact at
        // every step, so there is no 2⁵⁷ bound. Calling `draw_broadcast`
        // step by step instead re-derives `i` with a 128-bit multiply per
        // draw; that ran the benchmark's `grid-decay` at 282M
        // node-rounds/s against this carry's 379M (medians of 10 rotated
        // 30 s runs, 2-vCPU Xeon host).
        let mut step = from_step;
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

    // Only a packet changes a Decay node, and only an uninformed one
    // (see `receive`); `act` only draws ahead, and there is no queue:
    // the engine calls only the delivered listeners it has not yet
    // found informed.
    const SILENCE_TRANSPARENT: bool = true;
}

/// Whether `hits` successes in `trials` independent trials of success
/// probability `p` (strictly between 0 and 1) pass a two-sided exact
/// binomial test at the 99.9% level: neither `P(X ≤ hits)` nor
/// `P(X ≥ hits)` is below 0.05%. The check of the coin laws here and in
/// `repetition.rs`. Unlike a Wilson interval it keeps its level where
/// a phase position expects about one fire, as late positions do.
#[cfg(test)]
pub(crate) fn binomial_999(hits: u64, trials: u64, p: f64) -> bool {
    // Binomial weights relative to the mode's, walked out from the mode
    // until they fall below 1e-20: the mass beyond is far below 0.05%.
    let odds = p / (1.0 - p);
    let mode = (((trials + 1) as f64 * p) as u64).min(trials);
    let (mut total, mut at_most, mut at_least) = (0.0, 0.0, 0.0);
    let mut tally = |k: u64, w: f64| {
        total += w;
        if k <= hits {
            at_most += w;
        }
        if k >= hits {
            at_least += w;
        }
    };
    let (mut k, mut w) = (mode, 1.0);
    tally(k, w);
    while k > 0 && w > 1e-20 {
        // P(k − 1) / P(k).
        w *= k as f64 / ((trials - k + 1) as f64 * odds);
        k -= 1;
        tally(k, w);
    }
    let (mut k, mut w) = (mode, 1.0);
    while k < trials && w > 1e-20 {
        // P(k + 1) / P(k).
        w *= (trials - k) as f64 * odds / (k + 1) as f64;
        k += 1;
        tally(k, w);
    }
    at_most >= 0.0005 * total && at_least >= 0.0005 * total
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
        // Past 2⁵⁷ `phase_step` takes the hardware modulo.
        let far = [(1 << 57) - 1, 1 << 57, (1 << 57) + 1, u64::MAX];
        for phase_len in [1u32, 2, 13, 33, 53] {
            for step in (0..u64::from(phase_len) * 4).chain(far) {
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
        // The threshold carries across phase boundaries and past 2⁵⁷,
        // from phase length 1 up to the longest the nodes accept.
        for phase_len in [1u32, 2, 13, 33, 53] {
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

    /// Decay's law: the coin at phase position `i` (1-based) fires with
    /// probability `2^-i`. Broadcasts found by chaining `next_broadcast`
    /// over 2¹⁸ steps per phase length (eight seeds of 2¹⁵) are counted
    /// per position and checked against `2^-i` with a two-sided exact
    /// binomial test at 99.9%, for L ∈ {1, 13, 33, 53}: 33 is the
    /// longest derived phase (2³² nodes), 53 the longest a node accepts.
    #[test]
    fn next_broadcast_fires_at_position_i_with_probability_2_pow_minus_i() {
        use rand::SeedableRng;
        const STEPS: u64 = 1 << 15;
        for phase_len in [1u32, 13, 33, 53] {
            let l = u64::from(phase_len);
            let mut fires = vec![0u64; phase_len as usize];
            for seed in 0..8 {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                let mut step = DecayNode::next_broadcast(phase_len, 0, &mut rng);
                while step < STEPS {
                    fires[(step % l) as usize] += 1;
                    step = DecayNode::next_broadcast(phase_len, step + 1, &mut rng);
                }
            }
            for (i, &x) in fires.iter().enumerate() {
                // Every step of every seed visits position `i` once per
                // phase it covers.
                let n = 8 * (STEPS - i as u64).div_ceil(l);
                let p = DecayNode::broadcast_probability(phase_len, i as u64);
                assert_eq!(p, 0.5f64.powi(i as i32 + 1));
                assert!(
                    binomial_999(x, n, p),
                    "L {phase_len}, position {}: {x} of {n} fired, want 2^-{}",
                    i + 1,
                    i + 1
                );
            }
        }
    }

    #[test]
    fn binomial_999_rejects_only_the_outer_tails() {
        // Against binomial tails computed independently: at n·p near 1,
        // where the law tests' late positions sit, and at n·p = 500.
        let (p11, p15) = (0.5f64.powi(11), 0.5f64.powi(15));
        for (hits, trials, p, pass) in [
            (3, 7944, p15, true),    // P(X ≥ 3) = 0.2%
            (4, 7944, p15, false),   // P(X ≥ 4) = 0.012%
            (5, 1986, p11, true),    // P(X ≥ 5) = 0.32%
            (7, 1986, p11, false),   // P(X ≥ 7) = 0.0068%
            (447, 1000, 0.5, false), // P(X ≤ 447) = 0.045%
            (448, 1000, 0.5, true),  // P(X ≤ 448) = 0.056%
            (552, 1000, 0.5, true),
            (553, 1000, 0.5, false),
            (1, 1000, 0.01, false), // P(X ≤ 1) = 0.048%
            (2, 1000, 0.01, true),
        ] {
            assert_eq!(
                binomial_999(hits, trials, p),
                pass,
                "{hits} of {trials} at {p}"
            );
        }
    }

    #[test]
    fn broadcast_probability_matches_powi() {
        for phase_len in [2u32, 5, 11, 21, 33, 53] {
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
    fn default_phase_len_is_at_most_33_for_every_graph() {
        // `NodeId` is a `u32`, so the generators admit at most 2³² nodes;
        // the length grows with n, so 2³² gives the longest phase.
        let most = 1usize << 32;
        assert!(generators::checked_node_count("graph", Some(most)).is_ok());
        assert!(generators::checked_node_count("graph", Some(most + 1)).is_err());
        assert_eq!(default_phase_len(most), 33);
        let counts = (0..=32).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        for n in counts.filter(|&n| n <= most) {
            let len = default_phase_len(n);
            assert!((2..=33).contains(&len), "n {n}: L {len}");
        }
    }

    /// The message `DecayNode::new` panics with for `phase_len`, or
    /// `None` if it accepts the length.
    fn new_node_panic(informed: bool, phase_len: u32) -> Option<String> {
        let payload = std::panic::catch_unwind(|| DecayNode::new(informed, phase_len)).err()?;
        let message = payload.downcast_ref::<String>().cloned();
        Some(message.unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap().to_string()))
    }

    #[test]
    fn zero_phase_len_rejected() {
        let message = new_node_panic(true, 0);
        assert_eq!(
            message.as_deref(),
            Some("Decay phase length 0 outside 1..=53")
        );
        assert_eq!(new_node_panic(true, 1), None);
    }

    #[test]
    fn phase_len_past_53_rejected() {
        let message = new_node_panic(false, 54);
        assert_eq!(
            message.as_deref(),
            Some("Decay phase length 54 outside 1..=53")
        );
        assert_eq!(new_node_panic(false, 53), None);
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
            .run_telemetry(
                &g,
                NodeId::new(0),
                Channel::receiver(0.3).unwrap(),
                5,
                100_000,
                &mut NullSink,
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
