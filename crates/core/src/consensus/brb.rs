//! Bracha's Byzantine Reliable Broadcast over the noisy radio
//! (exemplar lineage: Bracha 1987; the kam3nskii/ConsensusProtocols
//! BRB harness).
//!
//! A designated source proposes a bit; every honest node must deliver
//! the *same* bit (agreement), and the source's bit if the source is
//! honest (validity), despite up to `f < n/3` Byzantine nodes:
//!
//! 1. the source sends `Init(v)`;
//! 2. on the first `Init(v)` from the source, a node sends `Echo(v)`;
//! 3. on `⌈(n+f+1)/2⌉` echoes for `v` — or `f+1` readies for `v`
//!    (amplification) — a node sends `Ready(v)` (once);
//! 4. on `2f+1` readies for `v`, a node delivers `v`.
//!
//! A node accepts at most one `Init` (source only), one `Echo` and one
//! `Ready` per origin — first wins — so an equivocator's two-faced
//! messages split its vote but never double it.

use netgraph::{Graph, NodeId};
use radio_model::{Action, Adversary, Channel, Ctx, NodeBehavior, Reception, Simulator};

use super::{echo_quorum, Bundle, ConsensusMsg, ConsensusRun, Gossip, GossipPacket, Verb};
use crate::decay::default_phase_len;
use crate::CoreError;

/// Bracha BRB runs. Like [`crate::decay::Decay`], it has nothing to
/// configure: the gossip runs Decay phases of the derived length
/// `⌈log₂ n⌉ + 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Brb;

impl Brb {
    /// Creates the protocol.
    pub fn new() -> Self {
        Brb
    }

    /// Runs BRB from `source` proposing `value`, tolerating `f`
    /// Byzantine nodes, under `adversary`, until every honest node
    /// delivers or `max_rounds` elapse.
    ///
    /// `f` is the protocol's *assumed* tolerance (it sizes the
    /// quorums); the adversary's actual corruption count may differ —
    /// sweeping one against the other is exactly what E16 measures.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for an out-of-range source,
    ///   `f ≥ n`, or an adversary sized for a different node count;
    /// * [`CoreError::Model`] for simulator configuration errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        graph: &Graph,
        source: NodeId,
        value: bool,
        f: usize,
        fault: Channel,
        adversary: &Adversary,
        seed: u64,
        max_rounds: u64,
    ) -> Result<ConsensusRun, CoreError> {
        let n = graph.node_count();
        if source.index() >= n {
            return Err(CoreError::InvalidParameter {
                reason: format!("source {source} out of bounds for {n} nodes"),
            });
        }
        if f >= n {
            return Err(CoreError::InvalidParameter {
                reason: format!("assumed tolerance f = {f} must be < n = {n}"),
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
        let behaviors: Vec<BrbNode> = (0..n)
            .map(|i| BrbNode::new(i as u32, n, f, source.index() as u32, value))
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

/// Per-node Bracha state machine plus gossip transport. Exposed so
/// tests and the CLI can inspect a node after a run.
#[derive(Debug, Clone)]
pub struct BrbNode {
    me: u32,
    f: usize,
    source: u32,
    gossip: Gossip,
    /// First accepted `Init` value (source origin only).
    init_seen: Option<bool>,
    /// First accepted `Echo` value per origin.
    echo_from: Vec<Option<bool>>,
    /// First accepted `Ready` value per origin.
    ready_from: Vec<Option<bool>>,
    echo_count: [usize; 2],
    ready_count: [usize; 2],
    echoed: bool,
    readied: bool,
    delivered: Option<bool>,
    echo_q: usize,
}

impl BrbNode {
    /// Fresh node `me` of `n`, tolerating `f`, with the designated
    /// `source` proposing `value`.
    pub fn new(me: u32, n: usize, f: usize, source: u32, value: bool) -> Self {
        let mut node = BrbNode {
            me,
            f,
            source,
            gossip: Gossip::new(default_phase_len(n)),
            init_seen: None,
            echo_from: vec![None; n],
            ready_from: vec![None; n],
            echo_count: [0; 2],
            ready_count: [0; 2],
            echoed: false,
            readied: false,
            delivered: None,
            echo_q: echo_quorum(n, f),
        };
        if me == source {
            node.emit(Verb::Init { v: value });
        }
        node
    }

    /// The delivered value, if this node has delivered.
    pub fn decided_value(&self) -> Option<bool> {
        self.delivered
    }

    /// Emits an own-origin message: absorb it (own votes count) and
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

    /// Applies one message; returns whether it was novel (and should
    /// be relayed). Cascading own messages are emitted recursively —
    /// the chain is bounded (Echo then Ready then delivery).
    fn absorb(&mut self, msg: ConsensusMsg) -> bool {
        let origin = msg.origin as usize;
        if origin >= self.echo_from.len() {
            return false;
        }
        match msg.verb {
            Verb::Init { v } => {
                if msg.origin != self.source || self.init_seen.is_some() {
                    return false;
                }
                self.init_seen = Some(v);
                if !self.echoed {
                    self.echoed = true;
                    self.emit(Verb::Echo { v });
                }
                true
            }
            Verb::Echo { v } => {
                if self.echo_from[origin].is_some() {
                    return false;
                }
                self.echo_from[origin] = Some(v);
                self.echo_count[usize::from(v)] += 1;
                if self.echo_count[usize::from(v)] >= self.echo_q && !self.readied {
                    self.readied = true;
                    self.emit(Verb::Ready { v });
                }
                true
            }
            Verb::Ready { v } => {
                if self.ready_from[origin].is_some() {
                    return false;
                }
                self.ready_from[origin] = Some(v);
                self.ready_count[usize::from(v)] += 1;
                if self.ready_count[usize::from(v)] >= self.f + 1 && !self.readied {
                    self.readied = true;
                    self.emit(Verb::Ready { v });
                }
                if self.ready_count[usize::from(v)] >= 2 * self.f + 1 && self.delivered.is_none() {
                    self.delivered = Some(v);
                }
                true
            }
            // Ben-Or traffic is not ours; ignore (the workloads never
            // share a run, but the type space is shared).
            Verb::Est { .. } | Verb::Aux { .. } => false,
        }
    }

    fn ingest(&mut self, bundle: &Bundle) {
        for &msg in bundle.iter() {
            if msg.origin != self.me && self.absorb(msg) {
                self.gossip.push(msg);
            }
        }
    }
}

impl NodeBehavior<GossipPacket> for BrbNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<GossipPacket> {
        self.gossip.act(ctx)
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<GossipPacket>) {
        match rx {
            Reception::Packet(GossipPacket::Honest(bundle)) => self.ingest(&bundle),
            // A Split packet is resolved to Honest by the engine's
            // for_listener; junk and non-packet slots carry nothing.
            _ => {}
        }
    }

    fn decoded(&self) -> bool {
        self.delivered.is_some()
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
    fn faultless_honest_delivery() {
        let g = complete(7);
        let run = Brb::new()
            .run(
                &g,
                NodeId::new(0),
                true,
                2,
                Channel::faultless(),
                &Adversary::honest(7),
                42,
                20_000,
            )
            .unwrap();
        assert!(run.completed(), "honest BRB must terminate");
        assert!(run.agreement());
        assert!(run.valid_for(true), "decisions {:?}", run.decisions);
        assert_eq!(run.decided_count(), 7);
    }

    #[test]
    fn star_and_path_deliver_under_noise() {
        for g in [generators::star(9), generators::path(10)] {
            let run = Brb::new()
                .run(
                    &g,
                    NodeId::new(0),
                    false,
                    3,
                    Channel::receiver(0.3).unwrap(),
                    &Adversary::honest(10),
                    7,
                    200_000,
                )
                .unwrap();
            assert!(run.completed());
            assert!(run.valid_for(false));
        }
    }

    #[test]
    fn equivocating_source_cannot_split_honest_nodes() {
        // n = 10, f = 3: the equivocating source splits its audience,
        // but the echo quorum ⌈(n+f+1)/2⌉ = 7 forces a single value.
        let g = complete(10);
        let adversary = Adversary::new(
            (0..10)
                .map(|i| (i == 0).then_some(Misbehavior::Equivocate))
                .collect(),
        );
        for seed in 0..5 {
            let run = Brb::new()
                .run(
                    &g,
                    NodeId::new(0),
                    true,
                    3,
                    Channel::faultless(),
                    &adversary,
                    seed,
                    50_000,
                )
                .unwrap();
            assert!(run.agreement(), "seed {seed}: {:?}", run.decisions);
        }
    }

    #[test]
    fn crash_faulty_nodes_do_not_block_delivery() {
        let g = complete(10);
        let adversary =
            Adversary::seeded(10, 3, Misbehavior::Crash { round: 4 }, 9, &[NodeId::new(0)])
                .unwrap();
        let run = Brb::new()
            .run(
                &g,
                NodeId::new(0),
                true,
                3,
                Channel::faultless(),
                &adversary,
                3,
                50_000,
            )
            .unwrap();
        assert!(run.completed(), "f = 3 crashes with n = 10 must not block");
        assert!(run.valid_for(true));
        assert_eq!(run.decided_count(), 7);
    }

    #[test]
    fn parameter_validation() {
        let g = complete(4);
        let adv = Adversary::honest(4);
        let brb = Brb::new();
        assert!(matches!(
            brb.run(
                &g,
                NodeId::new(9),
                true,
                1,
                Channel::faultless(),
                &adv,
                0,
                10
            ),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            brb.run(
                &g,
                NodeId::new(0),
                true,
                4,
                Channel::faultless(),
                &adv,
                0,
                10
            ),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            brb.run(
                &g,
                NodeId::new(0),
                true,
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
        let g = generators::path(10);
        let run = Brb::new()
            .run(
                &g,
                NodeId::new(0),
                true,
                3,
                Channel::faultless(),
                &Adversary::honest(10),
                1,
                3,
            )
            .unwrap();
        assert!(!run.completed());
    }
}
