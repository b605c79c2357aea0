//! Naive robustification baselines (paper §4.1 discussion).
//!
//! Before introducing Robust FASTBC, the paper observes two simple
//! ways to patch FASTBC against faults:
//!
//! * repeat **every round** `ρ = Θ(log n)` times — each transmission
//!   then fails with probability `p^ρ ≤ 1/n^{Ω(1)}` and a union bound
//!   over the schedule works, but the linear dependence on `D` is lost
//!   (`O(D log n + polylog n)`, no better than Decay);
//! * repeat every round `ρ = Θ(log log n)` times — drives the per-hop
//!   fault rate to `1/polylog(n)`, giving `O(D log log n + polylog n)`.
//!
//! [`RepeatedFastbcSchedule`] implements both (any `ρ ≥ 1`) by
//! dilating a compiled [`FastbcSchedule`] in time: real round `r` runs
//! base round `⌊r/ρ⌋`. These are the ablation baselines between FASTBC
//! (Lemma 10) and Robust FASTBC (Theorem 11) in the E5 experiment.
//!
//! The nodes are FASTBC's own node over a dilated timing, so, as in
//! FASTBC, an informed node is woken only in the rounds it broadcasts.
//! Its fast slots are the `ρ` real rounds of each fast base round whose
//! FASTBC slot matches. Its slow coins, one per real round of each slow
//! base round, are drawn ahead: `ρ` draws at one Decay threshold, which
//! then halves (or returns to `1/2` at a phase end) across the fast base
//! round that follows. Every coin is drawn from the node's own stream in
//! round order, exactly as a node drawing in each real round would.

use netgraph::{Graph, NodeId};
use radio_model::Channel;
use rand::RngCore;

use crate::decay::phase_step;
use crate::fastbc::{FastTiming, FastbcNode, FastbcSchedule, Timing};
use crate::{BroadcastRun, CoreError};

/// A FASTBC schedule with every round repeated `ρ` times.
///
/// # Example
///
/// ```
/// use netgraph::{generators, NodeId};
/// use noisy_radio_core::repetition::RepeatedFastbcSchedule;
/// use radio_model::Channel;
///
/// let g = generators::path(32);
/// let sched = RepeatedFastbcSchedule::new(&g, NodeId::new(0), 3).unwrap();
/// let run = sched.run(Channel::receiver(0.3).unwrap(), 1, 1_000_000).unwrap();
/// assert!(run.completed());
/// ```
#[derive(Debug)]
pub struct RepeatedFastbcSchedule<'g> {
    inner: FastbcSchedule<'g>,
    graph: &'g Graph,
    repetitions: u32,
}

impl<'g> RepeatedFastbcSchedule<'g> {
    /// Compiles a repeated-FASTBC schedule with `repetitions = ρ ≥ 1`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `ρ == 0`;
    /// [`CoreError::Gbst`] on GBST construction failure.
    pub fn new(graph: &'g Graph, source: NodeId, repetitions: u32) -> Result<Self, CoreError> {
        if repetitions == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "repetitions must be ≥ 1".into(),
            });
        }
        let inner = FastbcSchedule::new(graph, source)?;
        Ok(RepeatedFastbcSchedule {
            inner,
            graph,
            repetitions,
        })
    }

    /// The repetition factor `ρ`.
    pub fn repetitions(&self) -> u32 {
        self.repetitions
    }

    /// The wrapped (undilated) schedule.
    pub fn inner(&self) -> &FastbcSchedule<'g> {
        &self.inner
    }

    /// Runs until every node is informed or `max_rounds` elapse.
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
        Ok(crate::outcome::run_profiled_telemetry(
            self.graph,
            fault,
            self.behaviors(),
            seed,
            max_rounds,
            &mut radio_obs::NullSink,
        )?
        .0)
    }

    pub(crate) fn behaviors(&self) -> Vec<FastbcNode<DilatedTiming>> {
        let gbst = self.inner.gbst();
        (0..self.graph.node_count())
            .map(|i| {
                let v = NodeId::from_index(i);
                FastbcNode::new(
                    v == gbst.source(),
                    self.inner.phase_len(),
                    gbst.is_fast(v),
                    DilatedTiming::new(self.inner.timing(v), self.repetitions),
                )
            })
            .collect()
    }
}

/// FASTBC's timing dilated by `ρ`: real round `r` runs base round
/// `⌊r/ρ⌋`. A fast node broadcasts in all `ρ` real rounds of fast base
/// round `2t` when its FASTBC slot matches `t`; in each real round of
/// slow base round `2t + 1` an informed node draws a fresh coin for
/// Decay step `t`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DilatedTiming {
    base: FastTiming,
    rho: u64,
    /// The end of the fast base round that holds the fast slot the walk
    /// last returned: up to there the slots are consecutive rounds.
    fast_end: u64,
    /// The end of the slow base round that holds the slow broadcast the
    /// walk last returned, and that base round's Decay step.
    slow_end: u64,
    step: u64,
}

impl DilatedTiming {
    pub(crate) fn new(base: FastTiming, repetitions: u32) -> Self {
        DilatedTiming {
            base,
            rho: u64::from(repetitions),
            fast_end: 0,
            slow_end: 0,
            step: 0,
        }
    }

    /// The first fast slot at or after `from`, and the end of the fast
    /// base round that holds it.
    fn first_fast(&self, from: u64) -> (u64, u64) {
        let base = from / self.rho;
        let due = self.base.next_due(base);
        let end = due.saturating_add(1).saturating_mul(self.rho);
        if due == base {
            (from, end)
        } else {
            (due.saturating_mul(self.rho), end)
        }
    }

    /// Moves to the next slow base round, past the fast one after the
    /// current, and returns its first real round.
    fn next_slow_base(&mut self) -> u64 {
        self.step += 1;
        self.slow_end += 2 * self.rho;
        self.slow_end - self.rho
    }

    /// Draws the coin of each slow real round from `round` on in turn —
    /// the rest of the slow base round ending at `slow_end` (nothing if
    /// `round` is that end), then all `ρ` of each later one — and
    /// returns the round whose coin fires first: the same draws, in the
    /// same order and with the same outcomes, as
    /// [`DecayNode::draw_broadcast`](crate::decay::DecayNode::draw_broadcast)
    /// round by round.
    fn draw_slow<R: RngCore>(&mut self, phase_len: u32, mut round: u64, rng: &mut R) -> u64 {
        if round == self.slow_end {
            round = self.next_slow_base();
        }
        // The threshold carry of `DecayNode::next_broadcast`: step `t`
        // fires when the draw is below `2^(63 − t mod L)`, which halves
        // from step to step and returns to 2⁶³ at each phase start.
        let last = 1u64 << (64 - phase_len);
        let mut threshold = 1u64 << (63 - phase_step(phase_len, self.step));
        while rng.next_u64() >= threshold {
            round += 1;
            if round == self.slow_end {
                round = self.next_slow_base();
                threshold = if threshold == last {
                    1 << 63
                } else {
                    threshold >> 1
                };
            }
        }
        round
    }
}

impl Timing for DilatedTiming {
    fn next_due(&self, from: u64) -> u64 {
        self.first_fast(from).0
    }

    fn first_due(&mut self, from: u64) -> u64 {
        let (due, end) = self.first_fast(from);
        self.fast_end = end;
        due
    }

    fn due_after(&mut self, due: u64) -> u64 {
        let next = due.saturating_add(1);
        if next < self.fast_end {
            return next;
        }
        // The slot matches again one FASTBC period of base rounds on.
        let start = self
            .fast_end
            .saturating_add((self.base.period() - 1).saturating_mul(self.rho));
        self.fast_end = start.saturating_add(self.rho);
        start
    }

    fn first_slow<R: RngCore>(&mut self, phase_len: u32, from: u64, rng: &mut R) -> u64 {
        // The first slow base round 2t + 1 that ends after `from` (the
        // one `from` lies in, or the one after), and the first of its
        // real rounds at or after `from`.
        let base = from / self.rho;
        self.step = base / 2;
        self.slow_end = (self.step + 1) * 2 * self.rho;
        let first = if base % 2 == 1 {
            from
        } else {
            self.slow_end - self.rho
        };
        self.draw_slow(phase_len, first, rng)
    }

    fn slow_after<R: RngCore>(&mut self, phase_len: u32, round: u64, rng: &mut R) -> u64 {
        self.draw_slow(phase_len, round + 1, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::DecayNode;
    use netgraph::generators;
    use radio_model::Simulator;

    #[test]
    fn zero_repetitions_rejected() {
        let g = generators::path(8);
        assert!(matches!(
            RepeatedFastbcSchedule::new(&g, NodeId::new(0), 0),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn one_repetition_behaves_like_fastbc() {
        let g = generators::path(64);
        let rep = RepeatedFastbcSchedule::new(&g, NodeId::new(0), 1).unwrap();
        let base = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let a = rep
            .run(Channel::faultless(), 3, 100_000)
            .unwrap()
            .rounds_used();
        let b = base
            .run(Channel::faultless(), 3, 100_000)
            .unwrap()
            .rounds_used();
        // Identical schedule logic; rounds may differ only through RNG
        // stream usage, which is also identical here.
        assert_eq!(a, b);
    }

    #[test]
    fn repetition_tames_faults() {
        // With ρ = 4 and p = 0.5 the per-slot failure rate is 1/16:
        // the dilated schedule should track ρ × faultless closely,
        // while paying the dilation factor.
        let g = generators::path(128);
        let rep = RepeatedFastbcSchedule::new(&g, NodeId::new(0), 4).unwrap();
        let clean = rep
            .run(Channel::faultless(), 1, 10_000_000)
            .unwrap()
            .rounds_used();
        let noisy = rep
            .run(Channel::receiver(0.5).unwrap(), 1, 10_000_000)
            .unwrap()
            .rounds_used();
        assert!(
            (noisy as f64) < 3.0 * clean as f64,
            "ρ=4 should absorb p=0.5 faults: clean {clean}, noisy {noisy}"
        );
    }

    #[test]
    fn dilation_slows_faultless_run() {
        let g = generators::path(64);
        let base = FastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let rep = RepeatedFastbcSchedule::new(&g, NodeId::new(0), 4).unwrap();
        let b = base
            .run(Channel::faultless(), 5, 1_000_000)
            .unwrap()
            .rounds_used();
        let r = rep
            .run(Channel::faultless(), 5, 1_000_000)
            .unwrap()
            .rounds_used();
        assert!(
            r >= 3 * b,
            "dilated run should cost ~ρ× faultless: base {b}, dilated {r}"
        );
    }

    /// Dilated FASTBC's law, per real round: in each of the ρ real
    /// rounds of slow base round `2t + 1` the source broadcasts with
    /// probability `2^-(t mod L + 1)`, a fresh draw each time (checked
    /// per phase position with a two-sided exact binomial test at
    /// 99.9%); in the ρ real rounds of fast base round `2t` it
    /// broadcasts exactly when its FASTBC slot matches `t`. The nodes
    /// run phases of L = 13 and of L = 33, the longest derived phase,
    /// rather than the 2 that `path:2` derives.
    #[test]
    fn slow_rounds_follow_decay_and_fast_rounds_follow_the_slot() {
        use crate::decay::binomial_999;
        use radio_model::RoundTrace;

        const ROUNDS: u64 = 1 << 17;
        let g = generators::path(2);
        let source = NodeId::new(0);
        for rho in [2u64, 4] {
            for phase_len in [13u32, 33] {
                let sched = RepeatedFastbcSchedule::new(&g, source, rho as u32).unwrap();
                let gbst = sched.inner().gbst();
                assert!(gbst.is_fast(source), "source needs a slot");
                let behaviors: Vec<_> = g
                    .nodes()
                    .map(|v| {
                        let timing = DilatedTiming::new(sched.inner().timing(v), rho as u32);
                        FastbcNode::new(v == source, phase_len, gbst.is_fast(v), timing)
                    })
                    .collect();
                let mut sim =
                    Simulator::new(&g, Channel::faultless(), behaviors, 7).expect("valid");
                let mut trace = RoundTrace::default();
                let l = u64::from(phase_len);
                let (mut slow, mut fires) = (vec![0u64; l as usize], vec![0u64; l as usize]);
                for r in 0..ROUNDS {
                    sim.step_traced(&mut trace);
                    let sent = trace.broadcasters.contains(&source);
                    let base = r / rho;
                    if base.is_multiple_of(2) {
                        let due = sched.inner().fast_slot_matches(source, base / 2);
                        assert_eq!(sent, due, "ρ {rho}, L {phase_len}, fast round {r}");
                    } else {
                        let position = ((base - 1) / 2 % l) as usize;
                        slow[position] += 1;
                        fires[position] += u64::from(sent);
                    }
                }
                for (i, (&n, &x)) in slow.iter().zip(&fires).enumerate() {
                    let p = 0.5f64.powi(i as i32 + 1);
                    assert!(
                        binomial_999(x, n, p),
                        "ρ {rho}, L {phase_len}, position {}: {x} of {n} fired, want 2^-{}",
                        i + 1,
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn slow_broadcasts_match_drawing_each_real_round() {
        use rand::SeedableRng;
        // The carry loop against a node that draws one coin in each real
        // round of each slow base round with `draw_broadcast`, on cloned
        // streams: the first broadcast and the three after it agree, and
        // so do the streams afterwards, for phase lengths from 1 to 53.
        let g = generators::path(4);
        let base = FastbcSchedule::new(&g, NodeId::new(0))
            .unwrap()
            .timing(NodeId::new(0));
        for rho in [1u64, 2, 3, 13] {
            for phase_len in [1u32, 13, 33, 53] {
                let l = u64::from(phase_len);
                // The first real round of step t's slow base round.
                let slow = |t: u64| (2 * t + 1) * rho;
                let starts = [
                    // Inside a slow base round: its first, a middle and
                    // its last real round.
                    slow(0),
                    slow(5) + rho / 2,
                    slow(5) + rho - 1,
                    // At a fast base round: its first and last real round.
                    0,
                    2 * 7 * rho,
                    2 * 7 * rho + rho - 1,
                    // Across a phase end: the last slow real round of
                    // step L − 1 and the fast base round after it.
                    slow(l - 1) + rho - 1,
                    2 * l * rho,
                    slow(3 * l - 1) + rho / 2,
                    // Where `phase_step` leaves its multiply-shift.
                    slow((1 << 57) - 1) + rho - 1,
                ];
                for (k, from) in starts.into_iter().enumerate() {
                    for seed in 0..24 {
                        let mut ahead = rand::rngs::SmallRng::seed_from_u64(seed * 31 + k as u64);
                        let mut each_round = ahead.clone();
                        let mut timing = DilatedTiming::new(base, rho as u32);
                        let mut got = timing.first_slow(phase_len, from, &mut ahead);
                        let mut round = from;
                        for broadcast in 0..4 {
                            let want = (round..)
                                .find(|&r| {
                                    let b = r / rho;
                                    b % 2 == 1
                                        && DecayNode::draw_broadcast(
                                            phase_len,
                                            (b - 1) / 2,
                                            &mut each_round,
                                        )
                                })
                                .unwrap();
                            assert_eq!(
                                got, want,
                                "ρ {rho}, L {phase_len}, from {from}, seed {seed}, \
                                 broadcast {broadcast}"
                            );
                            round = want + 1;
                            got = timing.slow_after(phase_len, want, &mut ahead);
                        }
                        // `slow_after` drew ahead to a fifth broadcast.
                        let fifth = (round..)
                            .find(|&r| {
                                let b = r / rho;
                                b % 2 == 1
                                    && DecayNode::draw_broadcast(
                                        phase_len,
                                        (b - 1) / 2,
                                        &mut each_round,
                                    )
                            })
                            .unwrap();
                        assert_eq!(got, fifth, "ρ {rho}, L {phase_len}, from {from}");
                        assert_eq!(ahead.next_u64(), each_round.next_u64(), "streams diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_slots_are_the_real_rounds_of_matching_fast_base_rounds() {
        // The dilated walk against the brute-force sweep: started from
        // every real round of one FASTBC period, it hits exactly the
        // real rounds r whose base round ⌊r/ρ⌋ = 2t has a matching
        // slot t, over three periods.
        let g = generators::gnp_connected(24, 0.2, 3).unwrap();
        for sched in [
            FastbcSchedule::new(&g, NodeId::new(0)).unwrap(),
            FastbcSchedule::with_rank_slots(&g, NodeId::new(0), 3).unwrap(),
        ] {
            for v in g.nodes() {
                let base = sched.timing(v);
                for rho in [1u64, 2, 3, 13] {
                    let period = base.period() * rho;
                    let slots: Vec<u64> = (0..5 * period)
                        .filter(|&r| (r / rho) % 2 == 0 && base.matches(r / rho / 2))
                        .collect();
                    for from in 0..period {
                        let mut walk = DilatedTiming::new(base, rho as u32);
                        let mut due = walk.first_due(from);
                        assert_eq!(due, walk.next_due(from));
                        let want = slots.iter().filter(|&&r| r >= from);
                        for &slot in want.take_while(|&&r| r < from + 3 * period) {
                            assert_eq!(due, slot, "{v}, ρ {rho}, from {from}");
                            due = walk.due_after(due);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accessors() {
        let g = generators::path(8);
        let rep = RepeatedFastbcSchedule::new(&g, NodeId::new(0), 5).unwrap();
        assert_eq!(rep.repetitions(), 5);
        assert_eq!(rep.inner().gbst().source(), NodeId::new(0));
    }
}
