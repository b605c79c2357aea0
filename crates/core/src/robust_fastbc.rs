//! Robust FASTBC — the paper's main algorithm (§4.1, Theorem 11).
//!
//! FASTBC's wave is fragile because each hop gets exactly one
//! transmission slot per `6·r_max` fast rounds. Robust FASTBC replaces
//! the single-shot wave with *block pipelining*:
//!
//! * fast stretches are partitioned into **blocks** of
//!   `S = Θ(log log n)` consecutive levels;
//! * block `B = ⌊l/S⌋` of rank `r` is **active** during superround
//!   `u = ⌊t/(2cS)⌋` iff `B − 6r ≡ u (mod 6·r_max)`; while active,
//!   every fast node of the block at level `l` broadcasts in even
//!   rounds with `l ≡ t (mod 3)` — a mod-3 pipeline that retries each
//!   hop `Θ(c)` times inside the `cS`-fast-round window;
//! * consecutive superrounds activate consecutive blocks, so a message
//!   that crosses its block within the window rides seamlessly into
//!   the next block; a message that gets stuck waits one activation
//!   cycle (`6·r_max` superrounds).
//!
//! A hop now fails only if `Θ(c)` independent transmissions all fault,
//! so the per-block failure probability is `1/polylog(n)` and the
//! total time is `O(D + log n · log log n (log n + log 1/δ))` under
//! sender or receiver faults (Theorem 11) — diameter-*linear*, unlike
//! faulty FASTBC's `Θ(p·D·log n)` (Lemma 10).
//!
//! Odd rounds run a standard Decay step, exactly as in FASTBC, to move
//! messages across non-fast edges and into stretch heads.

use gbst::Gbst;
use netgraph::{Graph, NodeId};
use radio_model::{Channel, LatencyProfile, RoundTrace};

use crate::decay::default_phase_len;
use crate::fastbc::{FastbcNode, Timing};
use crate::{BroadcastRun, CoreError};

/// A compiled Robust FASTBC schedule. The window multiplier is the
/// constant `c = 6`, the rank slots are the GBST's `r_max`, and slow
/// rounds run Decay with the derived phase length `⌈log₂ n⌉ + 1`; only
/// the block size `S` can be chosen.
///
/// # Example
///
/// ```
/// use netgraph::{generators, NodeId};
/// use noisy_radio_core::robust_fastbc::RobustFastbcSchedule;
/// use radio_model::Channel;
///
/// let g = generators::path(64);
/// let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
/// let run = sched.run(Channel::receiver(0.3).unwrap(), 1, 1_000_000).unwrap();
/// assert!(run.completed(), "Theorem 11: robust under faults");
/// ```
#[derive(Debug)]
pub struct RobustFastbcSchedule<'g> {
    graph: &'g Graph,
    gbst: Gbst,
    phase_len: u32,
    block_size: u32,
    /// Superround modulus `6R`.
    modulus: u64,
}

/// The window multiplier `c`: a block stays active for `c·S` fast
/// rounds, so that an un-faulted message crosses its `S` levels of the
/// mod-3 pipeline (which takes `c ≥ 3`) with room for retries.
const WINDOW: u64 = 6;

/// Derives the canonical block size `max(2, ⌈log₂ log₂ n⌉ + 1)`.
pub fn default_block_size(n: usize) -> u32 {
    let log_n = f64::from(default_phase_len(n));
    (log_n.log2().ceil() as u32 + 1).max(2)
}

impl<'g> RobustFastbcSchedule<'g> {
    /// Compiles a Robust FASTBC schedule with the canonical block size
    /// [`default_block_size`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Gbst`] if the graph is disconnected or the source
    /// is invalid.
    pub fn new(graph: &'g Graph, source: NodeId) -> Result<Self, CoreError> {
        Self::with_block_size(graph, source, default_block_size(graph.node_count()))
    }

    /// Compiles with block size `S = block_size` (the A1 ablation sweeps
    /// it).
    ///
    /// # Errors
    ///
    /// As [`RobustFastbcSchedule::new`], or
    /// [`CoreError::InvalidParameter`] if `block_size` is 0.
    pub fn with_block_size(
        graph: &'g Graph,
        source: NodeId,
        block_size: u32,
    ) -> Result<Self, CoreError> {
        let gbst = Gbst::build(graph, source)?;
        if block_size == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "block size must be ≥ 1".into(),
            });
        }
        Ok(RobustFastbcSchedule {
            graph,
            phase_len: default_phase_len(graph.node_count()),
            block_size,
            modulus: 6 * u64::from(gbst.max_rank()),
            gbst,
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

    /// Whether fast node `v` is scheduled to broadcast in (even) real
    /// round `t`: block-active and `level ≡ t (mod 3)`.
    pub fn fast_slot_matches(&self, v: NodeId, t: u64) -> bool {
        debug_assert_eq!(t % 2, 0);
        self.timing(v).matches(t)
    }

    /// The block timing of node `v` under this schedule.
    pub(crate) fn timing(&self, v: NodeId) -> BlockTiming {
        BlockTiming {
            level: self.gbst.level(v),
            rank: self.gbst.rank(v),
            block_size: self.block_size,
            modulus: self.modulus,
            end: 0,
        }
    }

    pub(crate) fn behaviors(&self) -> Vec<FastbcNode<BlockTiming>> {
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

    /// As [`RobustFastbcSchedule::run`], additionally returning the
    /// per-node [`LatencyProfile`] and emitting `schedule/setup`
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
    ) -> Result<(BroadcastRun, LatencyProfile), CoreError> {
        let setup = radio_obs::SpanTimer::start(sink.enabled());
        let behaviors = self.behaviors();
        setup.stop(sink, "schedule/setup");
        crate::outcome::run_profiled_telemetry(self.graph, fault, behaviors, seed, max_rounds, sink)
    }

    /// Traced variant of [`RobustFastbcSchedule::run`] for invariant
    /// tests.
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

/// Block-pipelined fast-round timing (§4.1's formal description):
/// broadcast at even round `t` iff
/// `⌊l/S⌋ − 6r ≡ ⌊(t/2)/(cS)⌋ (mod 6·r_max)` and `l ≡ t (mod 3)`, with
/// `c` = [`WINDOW`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockTiming {
    level: u32,
    rank: u32,
    block_size: u32,
    modulus: u64,
    /// The end of the activation window that holds the slot the walk
    /// last returned (0 before it starts). Up to there the slots are 6
    /// rounds apart, so only a step past it searches.
    end: u64,
}

impl BlockTiming {
    /// Whether the node is scheduled in (even) real round `round`: the
    /// stateless reference for [`Timing::next_due`].
    pub(crate) fn matches(&self, round: u64) -> bool {
        let t = round / 2; // fast-round index
        let superround = t / (WINDOW * u64::from(self.block_size));
        let block = i64::from(self.level / self.block_size);
        let r = i64::from(self.rank);
        let m = self.modulus as i64;
        let active = (superround as i64 - (block - 6 * r)).rem_euclid(m) == 0;
        active && u64::from(self.level) % 3 == round % 3
    }

    /// Real rounds per superround, `2cS = 12·S`: below 2³⁶ for every
    /// `u32` block size.
    fn span(&self) -> u64 {
        2 * WINDOW * u64::from(self.block_size)
    }

    /// The first round at or after `r` with `r ≡ level (mod 3)` and `r`
    /// even, i.e. `r ≡ 4·(level mod 3) (mod 6)`.
    fn slot_from(&self, r: u64) -> u64 {
        let phase = 4 * u64::from(self.level % 3) % 6;
        r.saturating_add((phase + 6 - r % 6) % 6)
    }

    /// The first slot at or after `from`, and the end of the activation
    /// window that holds it.
    fn first_slot(&self, from: u64) -> (u64, u64) {
        let span = self.span();
        let m = self.modulus;
        // The superround residue in which this node's block is active.
        let active = (i64::from(self.level / self.block_size) - 6 * i64::from(self.rank))
            .rem_euclid(m as i64) as u64;
        let u0 = from / span;
        let u = u0 + (active + m - u0 % m) % m;
        let due = self.slot_from(from.max(u.saturating_mul(span)));
        let end = (u + 1).saturating_mul(span);
        if due < end {
            (due, end)
        } else {
            // Past this activation's last slot. The next activation
            // starts one cycle later, and its `2cS ≥ 12` rounds hold a
            // slot.
            let start = (u + m).saturating_mul(span);
            (self.slot_from(start), start.saturating_add(span))
        }
    }
}

impl Timing for BlockTiming {
    fn next_due(&self, from: u64) -> u64 {
        self.first_slot(from).0
    }

    fn first_due(&mut self, from: u64) -> u64 {
        let (due, end) = self.first_slot(from);
        self.end = end;
        due
    }

    fn due_after(&mut self, due: u64) -> u64 {
        let next = due.saturating_add(6);
        if next < self.end {
            return next;
        }
        // The block is active again `6R − 1` superrounds after this
        // window ends.
        let span = self.span();
        let start = self
            .end
            .saturating_add((self.modulus - 1).saturating_mul(span));
        self.end = start.saturating_add(span);
        self.slot_from(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn default_block_sizes() {
        assert_eq!(default_block_size(16), 4); // log2(16)+1 = 5, ceil(log2 5)+1 = 4
        assert!(default_block_size(1 << 20) >= 4);
        assert!(default_block_size(2) >= 2);
    }

    #[test]
    fn faultless_path_completes_diameter_linearly() {
        let g = generators::path(256);
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let run = sched.run(Channel::faultless(), 1, 1_000_000).unwrap();
        let rounds = run.rounds_used();
        // Mod-3 pipeline: ≥ 6 real rounds per hop while the wave is
        // hot, plus activation waits.
        assert!(rounds >= 255, "rounds {rounds}");
        assert!(
            rounds <= 40 * 255,
            "rounds {rounds} far from diameter-linear"
        );
    }

    #[test]
    fn noisy_path_stays_diameter_linear() {
        // The Theorem 11 headline: under receiver faults the per-hop
        // cost stays O(1) (amortized), unlike FASTBC's Θ(p log n).
        let g = generators::path(256);
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let clean = sched
            .run(Channel::faultless(), 1, 10_000_000)
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
            (noisy as f64) < 4.0 * clean as f64,
            "robust wave should degrade by O(1) only: clean {clean}, noisy {noisy}"
        );
    }

    #[test]
    fn sender_faults_complete_on_trees() {
        let g = generators::balanced_tree(2, 6).unwrap();
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let run = sched
            .run(Channel::sender(0.4).unwrap(), 9, 1_000_000)
            .unwrap();
        assert!(run.completed());
    }

    #[test]
    fn random_graphs_complete_under_faults() {
        let g = generators::gnp_connected(128, 0.05, 17).unwrap();
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        for fault in [
            Channel::sender(0.3).unwrap(),
            Channel::receiver(0.3).unwrap(),
        ] {
            let run = sched.run(fault, 23, 1_000_000).unwrap();
            assert!(run.completed(), "did not complete under {fault}");
        }
    }

    #[test]
    fn fast_rounds_never_collide_at_fast_children() {
        // Same invariant as FASTBC but for the block-pipelined slots
        // (§4.1: "no two broadcasting nodes ever interfere").
        let g = generators::gnp_connected(96, 0.06, 31).unwrap();
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let gbst = sched.gbst();
        let run = sched
            .run_traced(Channel::faultless(), 2, 200_000, |round, trace| {
                if round % 2 != 0 {
                    return;
                }
                for &u in &trace.broadcasters {
                    let c = gbst
                        .fast_child(u)
                        .expect("even-round broadcasters are fast");
                    let delivered = trace.deliveries.iter().any(|&(s, d)| s == u && d == c);
                    let child_broadcasting = trace.broadcasters.contains(&c);
                    assert!(
                        delivered || child_broadcasting,
                        "round {round}: block wave collided at fast child {c} of {u}"
                    );
                }
            })
            .unwrap();
        assert!(run.completed());
    }

    #[test]
    fn zero_block_size_rejected() {
        let g = generators::path(8);
        let err = RobustFastbcSchedule::with_block_size(&g, NodeId::new(0), 0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn block_slots_respect_mod3() {
        let g = generators::path(64);
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        for v in [NodeId::new(5), NodeId::new(12)] {
            for t in (0..600u64).step_by(2) {
                if sched.fast_slot_matches(v, t) {
                    assert_eq!(
                        u64::from(sched.gbst().level(v)) % 3,
                        t % 3,
                        "node {v} broadcast off its mod-3 slot"
                    );
                }
            }
        }
    }

    #[test]
    fn next_due_is_the_first_matching_even_round() {
        for level in 0..14 {
            for rank in 1..=2 {
                for block_size in 1..=4 {
                    for rank_slots in rank..=3 {
                        let timing = BlockTiming {
                            level,
                            rank,
                            block_size,
                            modulus: 6 * u64::from(rank_slots),
                            end: 0,
                        };
                        // One activation cycle; the schedule repeats
                        // after it.
                        let period = timing.span() * timing.modulus;
                        // first_due[r]: the brute-force first even
                        // matching round ≥ r, swept backwards.
                        let len = 2 * period;
                        let mut first_due = vec![u64::MAX; len as usize + 1];
                        for r in (0..len).rev() {
                            first_due[r as usize] = if r % 2 == 0 && timing.matches(r) {
                                r
                            } else {
                                first_due[r as usize + 1]
                            };
                        }
                        for from in 0..period {
                            let brute = first_due[from as usize];
                            assert_eq!(timing.next_due(from), brute, "{timing:?} from {from}");
                            let far = 1_000_003 * period;
                            assert_eq!(timing.next_due(from + far), brute + far);
                        }
                    }
                }
            }
        }
    }

    /// Walks `timing` from `from` with `first_due` and then `due_after`
    /// and checks each slot against `want`, the matching even rounds
    /// from `from` on as a brute-force sweep found them, in order.
    fn assert_walk(timing: BlockTiming, from: u64, want: &[u64]) {
        let mut walk = timing;
        let mut due = walk.first_due(from);
        for &slot in want {
            assert_eq!(due, slot, "{timing:?} from {from}");
            due = walk.due_after(due);
        }
    }

    #[test]
    fn stepping_from_each_slot_walks_every_matching_even_round() {
        // The walk against the brute-force sweep of `matches`, over the
        // grid of `next_due_is_the_first_matching_even_round`: started
        // from every round of one activation cycle (so from every slot
        // and from between slots), it hits exactly the matching even
        // rounds, over three cycles.
        for level in 0..14 {
            for rank in 1..=2 {
                for block_size in 1..=4 {
                    for rank_slots in rank..=3 {
                        let timing = BlockTiming {
                            level,
                            rank,
                            block_size,
                            modulus: 6 * u64::from(rank_slots),
                            end: 0,
                        };
                        let period = timing.span() * timing.modulus;
                        let slots: Vec<u64> = (0..5 * period)
                            .filter(|&r| r % 2 == 0 && timing.matches(r))
                            .collect();
                        let far = 1_000_003 * period;
                        for from in 0..period {
                            let want = slots.iter().copied().filter(|&r| r >= from);
                            let want: Vec<u64> =
                                want.take_while(|&r| r < from + 3 * period).collect();
                            assert!(want.len() >= 3, "{timing:?} from {from}");
                            assert_walk(timing, from, &want);
                            let shifted: Vec<u64> = want.iter().map(|r| r + far).collect();
                            assert_walk(timing, from + far, &shifted);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stepping_matches_the_sweep_when_window_times_block_size_exceeds_u32() {
        // The two timings of `window_times_block_size_beyond_u32_runs`.
        // With S = 800 000 000 a superround spans 2cS = 9.6e9 rounds:
        // every fast node of `path:16` is walked from each round of a
        // prefix and from just before the end of its first activation,
        // across the inactive superrounds, into the next one. Activity
        // is fixed within a superround and any 6 consecutive even
        // rounds hold one `≡ level (mod 3)`, so a superround whose
        // first 12 rounds hold no slot holds none.
        let g = generators::path(16);
        let sched = RobustFastbcSchedule::with_block_size(&g, NodeId::new(0), 800_000_000).unwrap();
        let sweep = |timing: &BlockTiming, rounds: std::ops::Range<u64>| -> Vec<u64> {
            rounds
                .filter(|&r| r % 2 == 0 && timing.matches(r))
                .collect()
        };
        for v in g.nodes().filter(|&v| sched.gbst().is_fast(v)) {
            let timing = sched.timing(v);
            let span = timing.span();
            assert_eq!(span, 9_600_000_000);
            let prefix = sweep(&timing, 0..2_000);
            for from in 0..60 {
                let want: Vec<u64> = prefix.iter().copied().filter(|&r| r >= from).collect();
                assert_walk(timing, from, &want);
            }
            // The first activation, its next one, and every superround
            // between them.
            let u = (0..timing.modulus)
                .find(|&u| !sweep(&timing, u * span..u * span + 12).is_empty())
                .expect("the block is active once per cycle");
            let next = u + timing.modulus;
            for idle in u + 1..next {
                assert!(sweep(&timing, idle * span..idle * span + 12).is_empty());
            }
            let from = (u + 1) * span - 40;
            let mut want = sweep(&timing, from..(u + 1) * span);
            want.extend(sweep(&timing, next * span..next * span + 40));
            assert!(want.len() > 10, "{timing:?}");
            assert_walk(timing, from, &want);
        }
        // S = u32::MAX: a superround spans 12·S ≈ 5.2e10 rounds, and the
        // block is active in superrounds ≡ 0 (mod 6). The walk follows
        // the sweep from round 0, and to the end of the last activation
        // that ends below 2⁶⁴; the next one would start past 2⁶⁴, so the
        // walk then answers never, as it does from the rounds above.
        let widest = BlockTiming {
            level: 5,
            rank: 1,
            block_size: u32::MAX,
            modulus: 6,
            end: 0,
        };
        let span = widest.span();
        assert_eq!(span, 12 * u64::from(u32::MAX));
        let low = sweep(&widest, 0..2_000);
        assert_eq!(low[..3], [2, 8, 14]);
        for from in 0..60 {
            let want: Vec<u64> = low.iter().copied().filter(|&r| r >= from).collect();
            assert_walk(widest, from, &want);
        }
        let last = u64::MAX / span / 6 * 6;
        assert!((last + 6).checked_mul(span).is_none());
        let end = (last + 1) * span;
        let mut want = sweep(&widest, end - 2_000..end);
        assert!(!want.is_empty());
        want.push(u64::MAX);
        assert_walk(widest, end - 2_000, &want);
        assert_walk(widest, u64::MAX - 2_000, &[u64::MAX]);
    }

    #[test]
    fn even_round_broadcasters_are_the_informed_matching_fast_nodes() {
        // The cached gating against the stateless reference: in every
        // fast round the broadcasters are exactly the informed fast
        // nodes whose block slot matches.
        let path = generators::path(128);
        let gnp = generators::gnp_connected(96, 0.06, 31).unwrap();
        for g in [&path, &gnp] {
            let sched = RobustFastbcSchedule::new(g, NodeId::new(0)).unwrap();
            let gbst = sched.gbst();
            for fault in [Channel::faultless(), Channel::receiver(0.3).unwrap()] {
                let mut informed = vec![false; g.node_count()];
                informed[0] = true;
                let run = sched
                    .run_traced(fault, 2, 1_000_000, |round, trace| {
                        if round % 2 == 0 {
                            let due: Vec<NodeId> = (0..g.node_count())
                                .map(NodeId::from_index)
                                .filter(|&v| informed[v.index()] && gbst.is_fast(v))
                                .filter(|&v| sched.fast_slot_matches(v, round))
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

    #[test]
    fn window_times_block_size_beyond_u32_runs() {
        // c·S = 4.8e9 does not fit a u32; it used to overflow in the
        // first fast round.
        let g = generators::path(16);
        let sched = RobustFastbcSchedule::with_block_size(&g, NodeId::new(0), 800_000_000).unwrap();
        let run = sched
            .run(Channel::receiver(0.3).unwrap(), 1, 100_000)
            .unwrap();
        assert!(run.completed());
        // One block spans the path and stays active for the whole run:
        // the plain mod-3 pipeline.
        let v = NodeId::new(4);
        let slots: Vec<u64> = (0..20)
            .step_by(2)
            .filter(|&t| sched.fast_slot_matches(v, t))
            .collect();
        assert_eq!(slots, vec![4, 10, 16]);
        let widest = BlockTiming {
            level: 5,
            rank: 1,
            block_size: u32::MAX,
            modulus: 6,
            end: 0,
        };
        assert_eq!(widest.next_due(0), 2);
        assert!(widest.matches(2));
    }

    #[test]
    fn determinism() {
        let g = generators::gnp_connected(60, 0.08, 3).unwrap();
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).unwrap();
        let fault = Channel::receiver(0.4).unwrap();
        let a = sched.run(fault, 5, 1_000_000).unwrap();
        let b = sched.run(fault, 5, 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
