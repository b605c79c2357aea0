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
//! dilating a compiled [`FastbcSchedule`] in time. These are the
//! ablation baselines between FASTBC (Lemma 10) and Robust FASTBC
//! (Theorem 11) in the E5 experiment.

use netgraph::{Graph, NodeId};
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, Simulator};

use crate::decay::DecayNode;
use crate::fastbc::{FastTiming, FastbcParams, FastbcSchedule};
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
        Self::with_params(graph, source, repetitions, FastbcParams::default())
    }

    /// Compiles with explicit FASTBC parameters.
    ///
    /// # Errors
    ///
    /// As [`RepeatedFastbcSchedule::new`].
    pub fn with_params(
        graph: &'g Graph,
        source: NodeId,
        repetitions: u32,
        params: FastbcParams,
    ) -> Result<Self, CoreError> {
        if repetitions == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "repetitions must be ≥ 1".into(),
            });
        }
        let inner = FastbcSchedule::with_params(graph, source, params)?;
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
        let mut sim = Simulator::new(self.graph, fault, self.behaviors(), seed)?;
        let rounds = sim.run_until_decoded(max_rounds);
        Ok(BroadcastRun {
            rounds,
            stats: *sim.stats(),
        })
    }

    pub(crate) fn behaviors(&self) -> Vec<DilatedFastbcNode> {
        let gbst = self.inner.gbst();
        (0..self.graph.node_count())
            .map(|i| {
                let v = NodeId::from_index(i);
                DilatedFastbcNode {
                    informed: v == gbst.source(),
                    repetitions: u64::from(self.repetitions),
                    phase_len: self.inner.phase_len(),
                    fast: gbst.is_fast(v).then(|| self.inner.timing(v)),
                    resume: 0,
                }
            })
            .collect()
    }
}

/// FASTBC node behavior dilated by `ρ`: real round `r` executes base
/// round `r / ρ` (fresh randomness per repetition of slow rounds).
#[derive(Debug, Clone)]
pub(crate) struct DilatedFastbcNode {
    informed: bool,
    repetitions: u64,
    phase_len: u32,
    fast: Option<FastTiming>,
    /// The first round of the next slow base round, set in a fast base
    /// round whose slot does not fire: the node has nothing to do until
    /// then. Stale (at or before the current round) otherwise.
    resume: u64,
}

impl NodeBehavior<()> for DilatedFastbcNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if !self.informed {
            return Action::Listen;
        }
        let base = ctx.round / self.repetitions;
        if base.is_multiple_of(2) {
            let t = base / 2;
            match self.fast {
                Some(slot) if slot.matches(t) => Action::Broadcast(()),
                _ => {
                    self.resume = (base + 1) * self.repetitions;
                    Action::Listen
                }
            }
        } else {
            let t = (base - 1) / 2;
            if DecayNode::draw_broadcast(self.phase_len, t, ctx.rng) {
                Action::Broadcast(())
            } else {
                Action::Listen
            }
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

    // Quiescence opt-in: an uninformed node listens without drawing in
    // both halves, and an informed one draws nothing in a fast base
    // round whose slot does not fire, so it sleeps until `resume`.
    fn next_act(&self) -> u64 {
        if self.informed {
            self.resume
        } else {
            u64::MAX
        }
    }

    // Only a packet changes a node (see `receive`), `act` only draws
    // and sets `resume`, and there is no queue.
    const SILENCE_TRANSPARENT: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

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
    /// per phase position against a 99.9% Wilson interval); in the ρ
    /// real rounds of fast base round `2t` it broadcasts exactly when
    /// its FASTBC slot matches `t`. L = 13 takes `draw_broadcast`'s
    /// integer path, L = 54 its `gen_bool` fallback.
    #[test]
    fn slow_rounds_follow_decay_and_fast_rounds_follow_the_slot() {
        use crate::decay::wilson_999;
        use radio_model::RoundTrace;

        const ROUNDS: u64 = 1 << 17;
        let g = generators::path(2);
        let source = NodeId::new(0);
        for rho in [2u64, 4] {
            for phase_len in [13u32, 54] {
                let params = FastbcParams {
                    phase_len: Some(phase_len),
                    rank_slots: None,
                };
                let sched =
                    RepeatedFastbcSchedule::with_params(&g, source, rho as u32, params).unwrap();
                assert!(sched.inner().gbst().is_fast(source), "source needs a slot");
                let mut sim =
                    Simulator::new(&g, Channel::faultless(), sched.behaviors(), 7).expect("valid");
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
                        wilson_999(x, n as f64).contains(&p),
                        "ρ {rho}, L {phase_len}, position {}: {x} of {n} fired, want 2^-{}",
                        i + 1,
                        i + 1
                    );
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
