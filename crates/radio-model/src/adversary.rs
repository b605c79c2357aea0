//! The adversary layer: Byzantine node misbehaviors over the noisy
//! radio engine.
//!
//! The paper's adversary is the *channel* — every node is honest. This
//! module adds the orthogonal threat: an [`Adversary`] assigns up to
//! `f` nodes a [`Misbehavior`] and [`Adversary::wrap`] turns each
//! honest [`NodeBehavior`] into a [`ByzantineNode`] that executes it:
//!
//! * [`Misbehavior::Crash`] — the node behaves honestly until a given
//!   round, then falls silent forever (fail-stop);
//! * [`Misbehavior::Equivocate`] — the node runs the honest protocol
//!   but its broadcasts are wrapped through
//!   [`AdversarialPayload::equivocated`], so *different listeners may
//!   hear conflicting packets from the same slot* (resolved per
//!   listener by [`crate::Payload::for_listener`] in the engine's
//!   delivery sweep — a radio broadcast is physically one transmission,
//!   so equivocation is only expressible at the delivery site);
//! * [`Misbehavior::Jam`] — the node abandons the protocol and spams
//!   junk transmissions ([`AdversarialPayload::jam`]) on a fair coin
//!   each round, manufacturing collisions in its whole neighborhood.
//!
//! All adversarial randomness is drawn from the wrapped node's own
//! `ctx.rng` (the engine's per-node behavior stream) and faulty-node
//! *selection* is a separate seeded draw ([`Adversary::seeded`]), so
//! Byzantine runs obey the same determinism contract as honest ones.

use netgraph::NodeId;

use crate::payload::AdversarialPayload;
use crate::rng::fork_rng;
use crate::{Action, Ctx, ModelError, NodeBehavior, Reception};

use rand::Rng;

/// Stream index for faulty-node selection, disjoint from the engine's
/// per-node behavior streams (`0..n`) and channel-loss streams
/// (`FAULT_STREAM_BASE + i = 2^63 + i`).
const ADVERSARY_STREAM: u64 = 1 << 62;

/// One node's assigned misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehavior {
    /// Fail-stop: honest until `round`, then silent and deaf forever.
    Crash {
        /// First round of the crash (the node still acts honestly in
        /// every round `< round`).
        round: u64,
    },
    /// Run the honest protocol, but broadcasts may present different
    /// payloads to different listeners.
    Equivocate,
    /// Abandon the protocol and spam junk broadcasts on a fair coin
    /// each round.
    Jam,
}

/// An assignment of misbehaviors to nodes (at most one per node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adversary {
    roles: Vec<Option<Misbehavior>>,
}

impl Adversary {
    /// The empty adversary: every node honest.
    pub fn honest(n: usize) -> Self {
        Adversary {
            roles: vec![None; n],
        }
    }

    /// An explicit per-node assignment.
    pub fn new(roles: Vec<Option<Misbehavior>>) -> Self {
        Adversary { roles }
    }

    /// Corrupts `f` distinct nodes with `kind`, chosen uniformly from
    /// the nodes *not* in `spare`, by a seeded partial Fisher–Yates
    /// draw on a dedicated stream (`fork_rng(seed, 2^62)`), so the
    /// same `(n, f, seed, spare)` always corrupts the same nodes.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooManyFaulty`] when fewer than `f` corruptible
    /// nodes exist.
    pub fn seeded(
        n: usize,
        f: usize,
        kind: Misbehavior,
        seed: u64,
        spare: &[NodeId],
    ) -> Result<Self, ModelError> {
        let mut pool: Vec<usize> = (0..n)
            .filter(|i| !spare.iter().any(|s| s.index() == *i))
            .collect();
        if pool.len() < f {
            return Err(ModelError::TooManyFaulty {
                faulty: f,
                unspared: pool.len(),
            });
        }
        let mut rng = fork_rng(seed, ADVERSARY_STREAM);
        let mut roles = vec![None; n];
        for k in 0..f {
            let j = rng.gen_range(k..pool.len());
            pool.swap(k, j);
            roles[pool[k]] = Some(kind);
        }
        Ok(Adversary { roles })
    }

    /// The number of nodes covered by this assignment.
    pub fn node_count(&self) -> usize {
        self.roles.len()
    }

    /// The number of corrupted nodes.
    pub fn faulty_count(&self) -> usize {
        self.roles.iter().filter(|r| r.is_some()).count()
    }

    /// Whether `node` is honest under this assignment.
    pub fn is_honest(&self, node: NodeId) -> bool {
        self.roles.get(node.index()).map_or(true, |r| r.is_none())
    }

    /// The assigned misbehavior of `node`, if any.
    pub fn role(&self, node: NodeId) -> Option<Misbehavior> {
        self.roles.get(node.index()).copied().flatten()
    }

    /// Per-node honesty flags, indexed by node id.
    pub fn honest_mask(&self) -> Vec<bool> {
        self.roles.iter().map(|r| r.is_none()).collect()
    }

    /// Wraps one honest behavior per node into [`ByzantineNode`]s
    /// executing this assignment.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeCountMismatch`] when `behaviors.len()`
    /// differs from the assignment's node count.
    pub fn wrap<B>(&self, behaviors: Vec<B>) -> Result<Vec<ByzantineNode<B>>, ModelError> {
        if behaviors.len() != self.roles.len() {
            return Err(ModelError::NodeCountMismatch {
                supplied: behaviors.len(),
                expected: self.roles.len(),
            });
        }
        Ok(behaviors
            .into_iter()
            .zip(&self.roles)
            .map(|(inner, &role)| ByzantineNode { inner, role })
            .collect())
    }
}

/// A node executing an honest behavior under an optional
/// [`Misbehavior`]; implements [`NodeBehavior`] for any
/// [`AdversarialPayload`].
///
/// Faulty nodes report [`NodeBehavior::decoded`]` = false` and
/// [`NodeBehavior::queued`]` = 0`: the latency and queue observables
/// track honest progress only.
#[derive(Debug, Clone)]
pub struct ByzantineNode<B> {
    inner: B,
    role: Option<Misbehavior>,
}

impl<B> ByzantineNode<B> {
    /// The wrapped honest behavior.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// This node's assigned misbehavior, if any.
    pub fn role(&self) -> Option<Misbehavior> {
        self.role
    }

    /// Whether this node is honest.
    pub fn is_honest(&self) -> bool {
        self.role.is_none()
    }
}

impl<P, B> NodeBehavior<P> for ByzantineNode<B>
where
    P: AdversarialPayload,
    B: NodeBehavior<P>,
{
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<P> {
        match self.role {
            None => self.inner.act(ctx),
            Some(Misbehavior::Crash { round }) => {
                if ctx.round >= round {
                    Action::Listen
                } else {
                    self.inner.act(ctx)
                }
            }
            Some(Misbehavior::Equivocate) => match self.inner.act(ctx) {
                Action::Broadcast(p) => Action::Broadcast(p.equivocated(ctx)),
                Action::Listen => Action::Listen,
            },
            Some(Misbehavior::Jam) => {
                if ctx.rng.gen_bool(0.5) {
                    Action::Broadcast(P::jam(ctx))
                } else {
                    Action::Listen
                }
            }
        }
    }

    fn receive(&mut self, ctx: &mut Ctx<'_>, rx: Reception<P>) {
        match self.role {
            Some(Misbehavior::Crash { round }) if ctx.round >= round => {}
            // Jammers have abandoned the protocol; whatever they hear
            // on listen rounds is discarded.
            Some(Misbehavior::Jam) => {}
            _ => self.inner.receive(ctx, rx),
        }
    }

    fn decoded(&self) -> bool {
        self.role.is_none() && self.inner.decoded()
    }

    fn queued(&self) -> u64 {
        if self.role.is_none() {
            self.inner.queued()
        } else {
            0
        }
    }

    fn next_act(&self) -> u64 {
        match self.role {
            // Jammers draw their coin every round, forever.
            Some(Misbehavior::Jam) => 0,
            // Crashed and equivocating nodes delegate `act` to (or
            // silence) the inner behavior, so its quiescence promise
            // carries over unchanged.
            _ => self.inner.next_act(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Simulator};
    use netgraph::generators;

    /// Honest test protocol: broadcast our node id every round and
    /// remember every distinct payload heard.
    #[derive(Debug, Clone, Default)]
    struct Chatter {
        heard: Vec<u64>,
        done: bool,
    }

    impl NodeBehavior<u64> for Chatter {
        fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
            // Broadcast on alternating rounds so neighbors get
            // collision-free slots on a path.
            if (ctx.round + ctx.node.index() as u64) % 2 == 0 {
                Action::Broadcast(ctx.node.index() as u64)
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
            if let Reception::Packet(p) = rx {
                if !self.heard.contains(&p) {
                    self.heard.push(p);
                }
                self.done = true;
            }
        }
        fn decoded(&self) -> bool {
            self.done
        }
    }

    impl AdversarialPayload for u64 {
        fn jam(_ctx: &mut Ctx<'_>) -> Self {
            u64::MAX
        }
        fn equivocated(self, _ctx: &mut Ctx<'_>) -> Self {
            self ^ 1
        }
    }

    #[test]
    fn honest_adversary_is_transparent() {
        let g = generators::path(4);
        let n = g.node_count();
        let adv = Adversary::honest(n);
        assert_eq!(adv.faulty_count(), 0);
        let wrapped = adv
            .wrap((0..n).map(|_| Chatter::default()).collect::<Vec<_>>())
            .unwrap();
        let mut sim = Simulator::new(&g, Channel::faultless(), wrapped, 7).unwrap();
        let mut plain = Simulator::new(
            &g,
            Channel::faultless(),
            (0..n).map(|_| Chatter::default()).collect::<Vec<_>>(),
            7,
        )
        .unwrap();
        for _ in 0..6 {
            let a = sim.step();
            let b = plain.step();
            assert_eq!(a, b, "wrapping honest nodes must not change anything");
        }
        for i in 0..n {
            assert_eq!(
                sim.behavior(NodeId::from_index(i)).inner().heard,
                plain.behavior(NodeId::from_index(i)).heard
            );
        }
    }

    #[test]
    fn crash_goes_silent_and_deaf() {
        let g = generators::path(3);
        let adv = Adversary::new(vec![None, Some(Misbehavior::Crash { round: 2 }), None]);
        let wrapped = adv.wrap(vec![Chatter::default(); 3]).unwrap();
        let mut sim = Simulator::new(&g, Channel::faultless(), wrapped, 7).unwrap();
        for _ in 0..8 {
            sim.step();
        }
        let crashed = sim.behavior(NodeId::new(1));
        assert!(!crashed.is_honest());
        // Node 1 heard something before round 2 but nothing after: its
        // inner log is frozen at the pre-crash state.
        let pre_crash_heard = crashed.inner().heard.clone();
        for _ in 0..8 {
            sim.step();
        }
        assert_eq!(sim.behavior(NodeId::new(1)).inner().heard, pre_crash_heard);
    }

    #[test]
    fn equivocator_splits_listeners() {
        // Star: center 0 equivocates; leaves hear conflicting payloads
        // from the same slots (id 0 vs id 0^1 = 1 per `equivocated`
        // composed with `for_listener` — here u64's for_listener is a
        // clone, so both leaves hear the *same* flipped value; the
        // per-listener split is exercised by payload types that
        // override for_listener, see the consensus workloads).
        let g = generators::star(2);
        let adv = Adversary::new(vec![Some(Misbehavior::Equivocate), None, None]);
        let wrapped = adv.wrap(vec![Chatter::default(); 3]).unwrap();
        let mut sim = Simulator::new(&g, Channel::faultless(), wrapped, 7).unwrap();
        for _ in 0..4 {
            sim.step();
        }
        // Leaf 1 listens on the center's broadcast rounds (leaf 2
        // broadcasts on those rounds itself, so it stays half-duplex
        // deaf): it hears 0 ^ 1 = 1, never the honest 0.
        let heard = &sim.behavior(NodeId::new(1)).inner().heard;
        assert!(heard.contains(&1), "leaf 1 heard {heard:?}");
        for leaf in [1, 2] {
            assert!(!sim.behavior(NodeId::new(leaf)).inner().heard.contains(&0));
        }
    }

    #[test]
    fn jammer_spams_junk() {
        let g = generators::star(2);
        let adv = Adversary::new(vec![Some(Misbehavior::Jam), None, None]);
        let wrapped = adv.wrap(vec![Chatter::default(); 3]).unwrap();
        let mut sim = Simulator::new(&g, Channel::faultless(), wrapped, 7).unwrap();
        let mut junk_heard = false;
        for _ in 0..32 {
            sim.step();
        }
        for leaf in [1, 2] {
            let b = sim.behavior(NodeId::new(leaf));
            junk_heard |= b.inner().heard.contains(&u64::MAX);
            // The jammer abandoned the protocol: leaves never hear an
            // honest center payload.
            assert!(!b.inner().heard.contains(&0));
        }
        assert!(junk_heard, "a fair-coin jammer transmits within 32 rounds");
        // Faulty nodes are excluded from the decode observable.
        assert!(!sim.behavior(NodeId::new(0)).decoded());
    }

    #[test]
    fn seeded_selection_is_deterministic_and_spares() {
        let spare = [NodeId::new(0)];
        let a = Adversary::seeded(10, 3, Misbehavior::Jam, 42, &spare).unwrap();
        let b = Adversary::seeded(10, 3, Misbehavior::Jam, 42, &spare).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.faulty_count(), 3);
        assert!(a.is_honest(NodeId::new(0)), "spared node stays honest");
        let c = Adversary::seeded(10, 3, Misbehavior::Jam, 43, &spare).unwrap();
        assert_ne!(a, c, "different seeds pick different nodes (w.h.p.)");
        // Over-corruption is rejected.
        assert_eq!(
            Adversary::seeded(4, 4, Misbehavior::Jam, 1, &spare),
            Err(ModelError::TooManyFaulty {
                faulty: 4,
                unspared: 3
            })
        );
        assert_eq!(
            Adversary::seeded(4, 4, Misbehavior::Jam, 1, &[])
                .unwrap()
                .faulty_count(),
            4
        );
    }

    #[test]
    fn roles_and_masks() {
        let adv = Adversary::new(vec![None, Some(Misbehavior::Equivocate)]);
        assert_eq!(adv.node_count(), 2);
        assert_eq!(adv.role(NodeId::new(1)), Some(Misbehavior::Equivocate));
        assert_eq!(adv.role(NodeId::new(0)), None);
        assert_eq!(adv.honest_mask(), vec![true, false]);
        assert!(adv.wrap(vec![Chatter::default(); 3]).is_err());
        let w = adv.wrap(vec![Chatter::default(); 2]).unwrap();
        assert!(w[0].is_honest() && !w[1].is_honest());
        assert_eq!(w[1].role(), Some(Misbehavior::Equivocate));
    }
}
