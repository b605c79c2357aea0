//! Randomized binary Byzantine consensus over the noisy radio:
//! Ben-Or's round structure hardened with BV-broadcast value
//! justification and a seeded common coin, in the
//! Mostéfaoui–Moumen–Raynal style (exemplar lineage: the
//! kam3nskii/ConsensusProtocols SafeBBC harness).
//!
//! Per protocol round `r` (1-based), with estimate `est`:
//!
//! 1. **BV-broadcast**: send `Est(r, est)`. Relay `Est(r, v)` once `f+1`
//!    distinct origins vouch for `v` (so a value backed only by
//!    Byzantine nodes is never amplified); admit `v` to `bin_values`
//!    once `2f+1` origins vouch (so every admitted value was sent by an
//!    honest node).
//! 2. **Aux**: when `bin_values` first becomes non-empty, announce one
//!    admitted value with `Aux(r, w)`.
//! 3. **Commit**: wait for `n − f` aux announcements whose values are
//!    admitted. Let `vals` be those values, `c` the round's common
//!    coin. If `vals = {w}`: adopt `est = w` and *decide* `w` when
//!    `w = c`. If `vals = {0, 1}`: adopt `est = c`. Advance to `r + 1`.
//!
//! Safety holds for `f < n/3`; termination is probabilistic (each
//! unanimous round decides with probability ½ on the coin). The common
//! coin is the standard idealization, derived here from the run seed
//! on a dedicated fork stream so all nodes see the same coin and the
//! determinism contract holds. Decided nodes keep participating so
//! stragglers can finish; the run's `done` predicate stops the
//! simulator once every honest node has decided.

use netgraph::Graph;
use radio_model::{fork_seed, Action, Adversary, Channel, Ctx, NodeBehavior, Reception, Simulator};

use super::{Bundle, ConsensusMsg, ConsensusRun, Gossip, GossipPacket, Verb, COIN_STREAM};
use crate::decay::default_phase_len;
use crate::CoreError;

/// Ben-Or consensus runs. Like [`crate::decay::Decay`], it has nothing
/// to configure: the gossip runs Decay phases of the derived length
/// `⌈log₂ n⌉ + 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BenOr;

impl BenOr {
    /// Creates the protocol.
    pub fn new() -> Self {
        BenOr
    }

    /// Runs Ben-Or with one binary `input` per node, tolerating `f`
    /// Byzantine nodes, under `adversary`, until every honest node
    /// decides or `max_rounds` elapse.
    ///
    /// `f` is the protocol's *assumed* tolerance (it sizes the
    /// justification quorums); the adversary's actual corruption count
    /// may differ.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an input vector of the
    ///   wrong length, `f > n − 2` (a node could then complete rounds
    ///   alone), or an adversary sized for a different node count;
    /// * [`CoreError::Model`] for simulator configuration errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        graph: &Graph,
        inputs: &[bool],
        f: usize,
        fault: Channel,
        adversary: &Adversary,
        seed: u64,
        max_rounds: u64,
    ) -> Result<ConsensusRun, CoreError> {
        let n = graph.node_count();
        if inputs.len() != n {
            return Err(CoreError::InvalidParameter {
                reason: format!("{} inputs for a graph of {n} nodes", inputs.len()),
            });
        }
        if n < 2 || f > n - 2 {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "assumed tolerance f = {f} needs n − f ≥ 2 quorum partners (n = {n})"
                ),
            });
        }
        if adversary.node_count() != n {
            return Err(CoreError::InvalidParameter {
                reason: format!(
                    "adversary covers {} nodes, graph has {n}",
                    adversary.node_count()
                ),
            });
        }
        let coin_seed = fork_seed(seed, COIN_STREAM);
        let behaviors: Vec<BenOrNode> = (0..n)
            .map(|i| BenOrNode::new(i as u32, n, f, inputs[i], coin_seed))
            .collect();
        let honest = adversary.honest_mask();
        let wrapped = adversary.wrap(behaviors)?;
        let mut sim = Simulator::new(graph, fault, wrapped, seed)?;
        let rounds = sim.run_until(max_rounds, |bs| {
            bs.iter()
                .zip(&honest)
                .all(|(b, h)| !*h || b.inner().decided_value().is_some())
        });
        let decisions = sim
            .behaviors()
            .iter()
            .zip(&honest)
            .map(|(b, h)| if *h { b.inner().decided_value() } else { None })
            .collect();
        Ok(ConsensusRun {
            rounds,
            decisions,
            honest,
            stats: *sim.stats(),
        })
    }
}

/// Per-protocol-round bookkeeping: who vouched for what.
#[derive(Debug, Clone)]
struct RoundState {
    /// `est_seen[v][origin]`: origin sent `Est(r, v)` (both values per
    /// origin are legitimate — BV relay).
    est_seen: [Vec<bool>; 2],
    est_count: [usize; 2],
    /// First `Aux` value per origin.
    aux_from: Vec<Option<bool>>,
    aux_count: [usize; 2],
    /// Values admitted to `bin_values` (2f+1 distinct vouchers).
    bin: [bool; 2],
    /// The first admitted value — the one our `Aux` announces.
    first_bin: Option<bool>,
}

impl RoundState {
    fn new(n: usize) -> Self {
        RoundState {
            est_seen: [vec![false; n], vec![false; n]],
            est_count: [0; 2],
            aux_from: vec![None; n],
            aux_count: [0; 2],
            bin: [false; 2],
            first_bin: None,
        }
    }
}

/// Per-node Ben-Or state machine plus gossip transport. Exposed so
/// tests and the CLI can inspect a node after a run.
#[derive(Debug, Clone)]
pub struct BenOrNode {
    me: u32,
    n: usize,
    f: usize,
    /// Current protocol round (1-based).
    round: u32,
    est: bool,
    coin_seed: u64,
    decided: Option<bool>,
    /// Bookkeeping for rounds `1..=rounds.len()`, grown on demand.
    rounds: Vec<RoundState>,
    gossip: Gossip,
}

impl BenOrNode {
    /// Fresh node `me` of `n`, tolerating `f`, proposing `input`.
    pub fn new(me: u32, n: usize, f: usize, input: bool, coin_seed: u64) -> Self {
        let mut node = BenOrNode {
            me,
            n,
            f,
            round: 1,
            est: input,
            coin_seed,
            decided: None,
            rounds: Vec::new(),
            gossip: Gossip::new(default_phase_len(n)),
        };
        node.emit(Verb::Est { r: 1, v: input });
        node.advance();
        node
    }

    /// The decided value, if this node has decided.
    pub fn decided_value(&self) -> Option<bool> {
        self.decided
    }

    /// The round-`r` common coin: one seeded fork per round, identical
    /// at every node.
    fn coin(&self, r: u32) -> bool {
        fork_seed(self.coin_seed, u64::from(r)) & 1 == 1
    }

    fn ensure_round(&mut self, r: u32) {
        while self.rounds.len() < r as usize {
            self.rounds.push(RoundState::new(self.n));
        }
    }

    /// Emits an own-origin message: absorb it (own vouchers count) and
    /// queue it for gossip.
    fn emit(&mut self, verb: Verb) {
        let msg = ConsensusMsg {
            origin: self.me,
            verb,
        };
        if self.absorb(msg) {
            self.gossip.push(msg);
        }
    }

    /// Applies one message's bookkeeping; returns whether it was novel
    /// (and should be relayed). State transitions happen in
    /// [`Self::advance`], called once per ingested bundle.
    fn absorb(&mut self, msg: ConsensusMsg) -> bool {
        let origin = msg.origin as usize;
        if origin >= self.n {
            return false;
        }
        match msg.verb {
            Verb::Est { r, v } => {
                if r == 0 {
                    return false;
                }
                self.ensure_round(r);
                let rs = &mut self.rounds[r as usize - 1];
                let vi = usize::from(v);
                if rs.est_seen[vi][origin] {
                    return false;
                }
                rs.est_seen[vi][origin] = true;
                rs.est_count[vi] += 1;
                true
            }
            Verb::Aux { r, v } => {
                if r == 0 {
                    return false;
                }
                self.ensure_round(r);
                let rs = &mut self.rounds[r as usize - 1];
                if rs.aux_from[origin].is_some() {
                    return false;
                }
                rs.aux_from[origin] = Some(v);
                rs.aux_count[usize::from(v)] += 1;
                true
            }
            // BRB traffic is not ours; ignore.
            Verb::Init { .. } | Verb::Echo { .. } | Verb::Ready { .. } => false,
        }
    }

    /// Drives the current round as far as the accumulated messages
    /// allow: BV relays, `bin_values` admissions, the `Aux`
    /// announcement, and the commit step (possibly cascading through
    /// several rounds when future-round messages are already buffered).
    fn advance(&mut self) {
        loop {
            let r = self.round;
            self.ensure_round(r);
            let idx = r as usize - 1;
            let me = self.me as usize;

            // BV-broadcast: relay any value with f+1 vouchers (once),
            // admit any value with 2f+1.
            for v in [false, true] {
                let vi = usize::from(v);
                let relay = {
                    let rs = &self.rounds[idx];
                    rs.est_count[vi] >= self.f + 1 && !rs.est_seen[vi][me]
                };
                if relay {
                    self.emit(Verb::Est { r, v });
                }
                let rs = &mut self.rounds[idx];
                if rs.est_count[vi] >= 2 * self.f + 1 && !rs.bin[vi] {
                    rs.bin[vi] = true;
                    if rs.first_bin.is_none() {
                        rs.first_bin = Some(v);
                    }
                }
            }

            // Aux: announce the first admitted value, once.
            let announce = {
                let rs = &self.rounds[idx];
                match rs.first_bin {
                    Some(w) if rs.aux_from[me].is_none() => Some(w),
                    _ => None,
                }
            };
            if let Some(w) = announce {
                self.emit(Verb::Aux { r, v: w });
            }

            // Commit: n − f admitted-value aux announcements.
            let (vals0, vals1, enough) = {
                let rs = &self.rounds[idx];
                let valid = [0, 1]
                    .into_iter()
                    .map(|vi| if rs.bin[vi] { rs.aux_count[vi] } else { 0 })
                    .sum::<usize>();
                (
                    rs.bin[0] && rs.aux_count[0] > 0,
                    rs.bin[1] && rs.aux_count[1] > 0,
                    valid >= self.n - self.f,
                )
            };
            if !enough || (!vals0 && !vals1) {
                return;
            }
            let c = self.coin(r);
            if vals0 != vals1 {
                let w = vals1;
                self.est = w;
                if w == c && self.decided.is_none() {
                    self.decided = Some(w);
                }
            } else {
                self.est = c;
            }
            self.round = r + 1;
            self.ensure_round(self.round);
            let est = self.est;
            if !self.rounds[self.round as usize - 1].est_seen[usize::from(est)][me] {
                self.emit(Verb::Est {
                    r: self.round,
                    v: est,
                });
            }
        }
    }

    fn ingest(&mut self, bundle: &Bundle) {
        for &msg in bundle.iter() {
            if msg.origin != self.me && self.absorb(msg) {
                self.gossip.push(msg);
            }
        }
        self.advance();
    }
}

impl NodeBehavior<GossipPacket> for BenOrNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<GossipPacket> {
        self.gossip.act(ctx)
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<GossipPacket>) {
        match rx {
            Reception::Packet(GossipPacket::Honest(bundle)) => self.ingest(&bundle),
            _ => {}
        }
    }

    fn decoded(&self) -> bool {
        self.decided.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;
    use radio_model::Misbehavior;

    fn complete(n: usize) -> Graph {
        generators::gnp_connected(n, 1.0, 0).unwrap()
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let g = complete(7);
        for value in [false, true] {
            let run = BenOr::new()
                .run(
                    &g,
                    &vec![value; 7],
                    2,
                    Channel::faultless(),
                    &Adversary::honest(7),
                    42,
                    50_000,
                )
                .unwrap();
            assert!(run.completed(), "unanimous Ben-Or must terminate");
            assert!(run.agreement());
            assert!(run.valid_for(value), "decisions {:?}", run.decisions);
        }
    }

    #[test]
    fn mixed_inputs_agree() {
        let g = complete(8);
        for seed in 0..4 {
            let inputs: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
            let run = BenOr::new()
                .run(
                    &g,
                    &inputs,
                    2,
                    Channel::faultless(),
                    &Adversary::honest(8),
                    seed,
                    100_000,
                )
                .unwrap();
            assert!(run.completed(), "seed {seed}");
            assert!(run.agreement(), "seed {seed}: {:?}", run.decisions);
            assert_eq!(run.decided_count(), 8);
        }
    }

    #[test]
    fn noisy_path_still_agrees() {
        let g = generators::path(10);
        let inputs: Vec<bool> = (0..10).map(|i| i < 5).collect();
        let run = BenOr::new()
            .run(
                &g,
                &inputs,
                3,
                Channel::receiver(0.3).unwrap(),
                &Adversary::honest(10),
                9,
                500_000,
            )
            .unwrap();
        assert!(run.completed());
        assert!(run.agreement());
    }

    #[test]
    fn equivocators_cannot_break_agreement() {
        let g = complete(10);
        let adversary = Adversary::seeded(10, 3, Misbehavior::Equivocate, 4, &[]).unwrap();
        for seed in 0..5 {
            let inputs: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
            let run = BenOr::new()
                .run(
                    &g,
                    &inputs,
                    3,
                    Channel::faultless(),
                    &adversary,
                    seed,
                    200_000,
                )
                .unwrap();
            assert!(run.agreement(), "seed {seed}: {:?}", run.decisions);
        }
    }

    #[test]
    fn unanimous_honest_inputs_survive_byzantine_minority() {
        // All honest nodes propose `true`; 3 jammers cannot flip it.
        let g = complete(10);
        let adversary = Adversary::seeded(10, 3, Misbehavior::Jam, 8, &[]).unwrap();
        let run = BenOr::new()
            .run(
                &g,
                &vec![true; 10],
                3,
                Channel::faultless(),
                &adversary,
                21,
                500_000,
            )
            .unwrap();
        assert!(run.completed());
        assert!(run.valid_for(true), "decisions {:?}", run.decisions);
    }

    #[test]
    fn parameter_validation() {
        let g = complete(4);
        let adv = Adversary::honest(4);
        let ben_or = BenOr::new();
        assert!(matches!(
            ben_or.run(&g, &[true; 3], 1, Channel::faultless(), &adv, 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ben_or.run(&g, &[true; 4], 3, Channel::faultless(), &adv, 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ben_or.run(
                &g,
                &[true; 4],
                1,
                Channel::faultless(),
                &Adversary::honest(5),
                0,
                10
            ),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let g = generators::path(8);
        let run = BenOr::new()
            .run(
                &g,
                &[true; 8],
                2,
                Channel::faultless(),
                &Adversary::honest(8),
                1,
                2,
            )
            .unwrap();
        assert!(!run.completed());
    }
}
