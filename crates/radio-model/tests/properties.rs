//! Property-based tests for the simulator engine: conservation laws
//! and channel semantics that every run must satisfy — including the
//! new `Channel`/`Reception` laws (erasure ≡ receiver losses per seed,
//! `erasure(0)` ≡ `faultless`, and full reception-kind coverage).

use netgraph::{generators, Graph, NodeId};
use proptest::prelude::*;
use radio_model::{
    Action, Channel, Ctx, LatencyProfile, NodeBehavior, Reception, ReceptionKind, RoundTrace,
    SimStats, Simulator,
};

/// Behavior that broadcasts with a fixed per-node probability — a
/// generic random traffic source that tallies every reception kind.
#[derive(Debug, Clone, Default, PartialEq)]
struct RandomChatter {
    probability: f64,
    packets: u64,
    noise: u64,
    erased: u64,
    silence: u64,
}

impl RandomChatter {
    fn new(probability: f64) -> Self {
        RandomChatter {
            probability,
            ..Default::default()
        }
    }

    fn receptions(&self) -> u64 {
        self.packets + self.noise + self.erased + self.silence
    }
}

impl NodeBehavior<u64> for RandomChatter {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
        if rand::Rng::gen_bool(ctx.rng, self.probability) {
            Action::Broadcast(ctx.round)
        } else {
            Action::Listen
        }
    }
    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
        match rx.kind() {
            ReceptionKind::Packet => self.packets += 1,
            ReceptionKind::Noise => self.noise += 1,
            ReceptionKind::Erased => self.erased += 1,
            ReceptionKind::Silence => self.silence += 1,
        }
    }
}

/// Every channel constructor, including the erasure channel, and the
/// compositions of a sender component with either delivery component
/// — so the generators exercise every `Reception` variant and every
/// loss path across the suite.
fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::faultless()),
        (0.0..0.9f64).prop_map(|p| Channel::sender(p).expect("valid p")),
        (0.0..0.9f64).prop_map(|p| Channel::receiver(p).expect("valid p")),
        (0.0..0.9f64).prop_map(|p| Channel::erasure(p).expect("valid p")),
        (0.0..0.9f64, 0.0..0.9f64, any::<bool>()).prop_map(|(s, d, erased)| {
            let delivery = if erased {
                Channel::erasure(d)
            } else {
                Channel::receiver(d)
            };
            Channel::sender(s)
                .expect("valid p")
                .compose(delivery.expect("valid p"))
                .expect("sender and delivery sides compose")
        }),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, any::<u64>(), 0.02..0.3f64)
        .prop_map(|(n, seed, p)| generators::gnp_connected(n, p, seed).unwrap())
}

fn chatter(n: usize, prob: f64) -> Vec<RandomChatter> {
    (0..n).map(|_| RandomChatter::new(prob)).collect()
}

/// Flooding behavior with a decode notion, for the latency-profile
/// laws: informed nodes broadcast every round, packets inform, and
/// `decoded()` reports the informed flag. It is quiescent until
/// informed and silence-transparent (a packet changes only an
/// uninformed node), so the sparse engine may skip it entirely while it
/// sleeps — the differential tests below check that this changes no
/// observable. Broadcasting in every round once informed, it never
/// hears a packet after it settles; [`Gossip`] does.
#[derive(Debug, Clone, PartialEq)]
struct Flood {
    informed: bool,
}

impl NodeBehavior<()> for Flood {
    const SILENCE_TRANSPARENT: bool = true;

    fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
        if self.informed {
            Action::Broadcast(())
        } else {
            Action::Listen
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
    fn next_act(&self) -> u64 {
        if self.informed {
            0
        } else {
            u64::MAX
        }
    }
}

/// Sleeping behavior for the wake wheel: an informed node draws the
/// round of its next broadcast ahead, 1 to `MAX_NAP` rounds on, and
/// reports it through `next_act`, so the sparse engine files it in the
/// wake wheel — past the wheel's 64 slots for most gaps — and must wake
/// it exactly on time. It tallies its packets, so nodes delivered to
/// while asleep change state without changing `next_act`; noise and
/// erasures must leave it unchanged, as silence transparency promises.
/// Counting packets once informed, it keeps the default `decoded`, so
/// that it never settles and the engine must hand it every packet.
#[derive(Debug, Clone, PartialEq)]
struct Napper {
    /// The round of the next broadcast: `u64::MAX` while uninformed,
    /// 0 from being informed until the first act draws.
    next: u64,
    packets: u64,
}

/// The longest gap a [`Napper`] draws between broadcasts.
const MAX_NAP: u64 = 200;

impl Napper {
    fn new(informed: bool) -> Self {
        Napper {
            next: if informed { 0 } else { u64::MAX },
            packets: 0,
        }
    }
}

impl NodeBehavior<()> for Napper {
    const SILENCE_TRANSPARENT: bool = true;

    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if self.next == 0 {
            self.next = ctx.round + rand::Rng::gen_range(ctx.rng, 0..MAX_NAP);
        }
        assert!(ctx.round <= self.next, "napper woken late");
        if ctx.round != self.next {
            return Action::Listen;
        }
        self.next = ctx.round + rand::Rng::gen_range(ctx.rng, 1..=MAX_NAP);
        Action::Broadcast(())
    }
    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
        if !rx.is_packet() {
            return;
        }
        self.packets += 1;
        if self.next == u64::MAX {
            self.next = 0;
        }
    }
    fn next_act(&self) -> u64 {
        self.next
    }
}

/// Flooding on a coin: an informed node broadcasts with probability
/// 1/2 in each round and listens otherwise, and ignores every packet
/// once informed, as silence transparency promises. Unlike a [`Flood`]
/// node, which never listens again once informed, it stays active while
/// packets keep reaching it after it has settled, and the source's
/// first packet is an echo, whose round must still be recorded.
#[derive(Debug, Clone, PartialEq)]
struct Gossip {
    informed: bool,
}

impl NodeBehavior<()> for Gossip {
    const SILENCE_TRANSPARENT: bool = true;

    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if self.informed && rand::Rng::gen_bool(ctx.rng, 0.5) {
            Action::Broadcast(())
        } else {
            Action::Listen
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
    fn next_act(&self) -> u64 {
        if self.informed {
            0
        } else {
            u64::MAX
        }
    }
}

/// Hides a behavior's silence transparency: forwards every hook to the
/// wrapped behavior but keeps `SILENCE_TRANSPARENT = false`, so the
/// engine hands every swept listener its reception and polls every
/// swept node. It is the oracle for the packet-only dispatch of
/// silence-transparent behaviors, which sparse ≡ dense cannot check:
/// both modes share that dispatch.
#[derive(Clone)]
struct Opaque<B>(B);

impl<P, B: NodeBehavior<P>> NodeBehavior<P> for Opaque<B> {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<P> {
        self.0.act(ctx)
    }
    fn receive(&mut self, ctx: &mut Ctx<'_>, rx: Reception<P>) {
        self.0.receive(ctx, rx)
    }
    fn decoded(&self) -> bool {
        self.0.decoded()
    }
    fn queued(&self) -> u64 {
        self.0.queued()
    }
    fn next_act(&self) -> u64 {
        self.0.next_act()
    }
}

/// Runs a single-source flood and returns its latency profile + stats.
fn flood_run(g: &Graph, channel: Channel, seed: u64, rounds: u64) -> (LatencyProfile, SimStats) {
    let behaviors: Vec<Flood> = (0..g.node_count())
        .map(|i| Flood { informed: i == 0 })
        .collect();
    let mut sim = Simulator::new(g, channel, behaviors, seed).unwrap();
    sim.run(rounds);
    (sim.latency_profile(), *sim.stats())
}

/// Full per-round traces of a run, for bit-identity comparisons.
fn traced_run(
    g: &Graph,
    channel: Channel,
    seed: u64,
    rounds: u64,
    prob: f64,
) -> (Vec<RoundTrace>, SimStats) {
    let mut sim = Simulator::new(g, channel, chatter(g.node_count(), prob), seed).unwrap();
    let mut traces = Vec::new();
    for _ in 0..rounds {
        let mut t = RoundTrace::default();
        sim.step_traced(&mut t);
        traces.push(t);
    }
    (traces, *sim.stats())
}

/// Everything a run can show: per-round traces and reports, final
/// stats, the latency profile, and the behavior states themselves.
type Observables<B> = (
    Vec<RoundTrace>,
    Vec<radio_model::RoundReport>,
    SimStats,
    LatencyProfile,
    Vec<B>,
);

/// Runs `rounds` rounds in either the default sparse mode or the dense reference mode, capturing the full
/// observable surface for the sparse ≡ dense differential tests.
fn modal_run<P, B>(
    g: &Graph,
    channel: Channel,
    behaviors: &[B],
    seed: u64,
    rounds: u64,
    dense: bool,
) -> Observables<B>
where
    P: radio_model::Payload,
    B: NodeBehavior<P> + Clone,
{
    let mut sim = Simulator::new(g, channel, behaviors.to_vec(), seed)
        .unwrap()
        .with_dense_sweeps(dense);
    let mut traces = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..rounds {
        let mut t = RoundTrace::default();
        reports.push(sim.step_traced(&mut t));
        traces.push(t);
    }
    let stats = *sim.stats();
    let profile = sim.latency_profile();
    (traces, reports, stats, profile, sim.into_behaviors())
}

/// Checks a silence-transparent behavior against its [`Opaque`]
/// oracle from one seed: equal traces and reports in every round, equal
/// stats, latency profiles and final states. Each round's trace lists
/// must also add up to its report, since both runs fill them with the
/// same code.
fn matches_opaque<P, B>(
    g: &Graph,
    channel: Channel,
    behaviors: &[B],
    seed: u64,
    rounds: u64,
) -> Result<(), TestCaseError>
where
    P: radio_model::Payload,
    B: NodeBehavior<P> + Clone + PartialEq + std::fmt::Debug,
{
    let direct = modal_run(g, channel, behaviors, seed, rounds, false);
    let wrapped: Vec<Opaque<B>> = behaviors.iter().cloned().map(Opaque).collect();
    let (traces, reports, stats, profile, states) =
        modal_run(g, channel, &wrapped, seed, rounds, false);
    for (round, (t, r)) in direct.0.iter().zip(&direct.1).enumerate() {
        prop_assert_eq!(&traces[round], t, "round {}", round);
        prop_assert_eq!(&reports[round], r, "round {}", round);
        prop_assert_eq!(r.deliveries as usize, t.deliveries.len());
        prop_assert_eq!(r.collisions as usize, t.collided_listeners.len());
        prop_assert_eq!(r.erasures as usize, t.erased_listeners.len());
    }
    prop_assert_eq!(stats, direct.2);
    prop_assert_eq!(profile, direct.3);
    let states: Vec<B> = states.into_iter().map(|o| o.0).collect();
    prop_assert_eq!(states, direct.4);
    Ok(())
}

/// Graphs past one 64-node bitset word — paths, stars and grids of up
/// to 201 nodes — plus the small random ones, so that the word sweeps'
/// carries cross word boundaries.
fn arb_wide_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (60usize..201).prop_map(generators::path),
        (60usize..201).prop_map(generators::star),
        (6usize..13, 6usize..13).prop_map(|(r, c)| generators::grid(r, c)),
        arb_graph(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packet_only_dispatch_matches_the_opaque_oracle(
        g in arb_wide_graph(),
        channel in arb_channel(),
        seed in any::<u64>(),
    ) {
        // A silence-transparent behavior is called only where a packet
        // was delivered; its opaque twin hears every reception and is
        // polled in every swept round. Flood nodes stay active from the
        // round they are informed; Nappers sleep in the wake wheel and
        // are delivered to while asleep. Gossip nodes are handed only
        // the packet that informs them: later ones find them settled,
        // and the source's first packet, an echo, must still be
        // recorded.
        let floods: Vec<Flood> = (0..g.node_count())
            .map(|i| Flood { informed: i == 0 })
            .collect();
        matches_opaque(&g, channel, &floods, seed, 60)?;
        let nappers: Vec<Napper> = (0..g.node_count()).map(|i| Napper::new(i % 2 == 0)).collect();
        matches_opaque(&g, channel, &nappers, seed, 200)?;
        let gossips: Vec<Gossip> = (0..g.node_count())
            .map(|i| Gossip { informed: i == 0 })
            .collect();
        matches_opaque(&g, channel, &gossips, seed, 60)?;
    }

    #[test]
    fn sparse_is_bit_identical_to_dense(
        g in arb_graph(),
        channel in arb_channel(),
        seed in any::<u64>(),
        prob in 0.05..0.9f64,
    ) {
        // The sparse-engine contract: for any (graph, channel, seed),
        // the default sparse round loop is bit-identical
        // to the dense reference mode over the full observable surface
        // — traces, reports, stats, latency profile, and behavior
        // state.
        //
        // Chatter nodes keep the default `next_act = 0`, so every
        // node stays in the active set; this pins the always-active
        // path.
        let chatter = chatter(g.node_count(), prob);
        let sparse = modal_run(&g, channel, &chatter, seed, 20, false);
        let dense = modal_run(&g, channel, &chatter, seed, 20, true);
        prop_assert_eq!(sparse, dense);

        // Flood nodes are quiescent until informed and
        // silence-transparent, so the sparse engine genuinely skips
        // them (act draws and Silence receptions elided); the skip
        // must still be unobservable.
        let floods: Vec<Flood> = (0..g.node_count())
            .map(|i| Flood { informed: i == 0 })
            .collect();
        let sparse = modal_run(&g, channel, &floods, seed, 25, false);
        let dense = modal_run(&g, channel, &floods, seed, 25, true);
        prop_assert_eq!(sparse, dense);

        // Nappers sleep in the wake wheel between broadcasts, often
        // beyond its last slot, and are reached while asleep. 200
        // rounds wrap the wheel three times; half the nodes start
        // informed so most sleep from the first rounds on.
        let nappers: Vec<Napper> = (0..g.node_count()).map(|i| Napper::new(i % 2 == 0)).collect();
        let sparse = modal_run(&g, channel, &nappers, seed, 200, false);
        let dense = modal_run(&g, channel, &nappers, seed, 200, true);
        prop_assert_eq!(sparse, dense);

        // Gossip nodes settle, and stay active while packets keep
        // reaching them.
        let gossips: Vec<Gossip> = (0..g.node_count())
            .map(|i| Gossip { informed: i == 0 })
            .collect();
        let sparse = modal_run(&g, channel, &gossips, seed, 25, false);
        let dense = modal_run(&g, channel, &gossips, seed, 25, true);
        prop_assert_eq!(sparse, dense);
    }

    #[test]
    fn traced_rounds_satisfy_radio_semantics(
        g in arb_graph(),
        channel in arb_channel(),
        seed in any::<u64>(),
        prob in 0.05..0.9f64,
    ) {
        let behaviors = chatter(g.node_count(), prob);
        let mut sim = Simulator::new(&g, channel, behaviors, seed).unwrap();
        let mut trace = RoundTrace::default();
        for _ in 0..30 {
            let report = sim.step_traced(&mut trace);
            // (1) Report counters match the trace.
            prop_assert_eq!(report.broadcasters as usize, trace.broadcasters.len());
            prop_assert_eq!(report.deliveries as usize, trace.deliveries.len());
            prop_assert_eq!(report.collisions as usize, trace.collided_listeners.len());
            prop_assert_eq!(report.erasures as usize, trace.erased_listeners.len());
            // (2) Every delivery edge exists, the sender broadcast, the
            //     receiver did not.
            for &(s, r) in &trace.deliveries {
                prop_assert!(g.has_edge(s, r), "delivery over a non-edge {}->{}", s, r);
                prop_assert!(trace.broadcasters.contains(&s));
                prop_assert!(!trace.broadcasters.contains(&r), "broadcaster {} received", r);
            }
            // (3) A receiver is delivered at most one packet per round.
            let mut receivers: Vec<NodeId> =
                trace.deliveries.iter().map(|&(_, r)| r).collect();
            receivers.sort_unstable();
            let before = receivers.len();
            receivers.dedup();
            prop_assert_eq!(before, receivers.len(), "a node received twice in one round");
            // (4) Exactly-one-broadcasting-neighbor rule (modulo channel
            //     losses): every delivered or erased receiver has exactly
            //     one broadcasting neighbor; every collided listener has
            //     at least two.
            let broadcasting = |v: NodeId| trace.broadcasters.binary_search(&v).is_ok();
            let reached_by =
                |v: NodeId| g.neighbors(v).iter().filter(|&&u| broadcasting(u)).count();
            let singles = trace
                .deliveries
                .iter()
                .map(|&(_, r)| r)
                .chain(trace.erased_listeners.iter().copied());
            for r in singles {
                let b = reached_by(r);
                prop_assert_eq!(b, 1, "receiver {} had {} broadcasting neighbors", r, b);
            }
            for &c in &trace.collided_listeners {
                let b = reached_by(c);
                prop_assert!(b >= 2, "collided listener {} had {} broadcasting neighbors", c, b);
            }
            // (4b) The converse, which sparse ≡ dense cannot check (both
            //     modes share the slot resolution): every listener with
            //     two or more broadcasting neighbors collided, so the
            //     collision count is exactly theirs; and every node in
            //     a listener list is a listener that some broadcaster
            //     reached.
            let mut multiply_reached = 0u64;
            for v in g.nodes().filter(|&v| !broadcasting(v)) {
                if reached_by(v) >= 2 {
                    multiply_reached += 1;
                    prop_assert!(
                        trace.collided_listeners.binary_search(&v).is_ok(),
                        "listener {} had {} broadcasting neighbors but no collision",
                        v,
                        reached_by(v)
                    );
                }
            }
            prop_assert_eq!(report.collisions, multiply_reached);
            let listed = trace
                .deliveries
                .iter()
                .map(|&(_, r)| r)
                .chain(trace.collided_listeners.iter().copied())
                .chain(trace.erased_listeners.iter().copied())
                .chain(trace.first_packet_listeners.iter().copied());
            for v in listed {
                prop_assert!(!broadcasting(v), "broadcaster {} is in a listener list", v);
                prop_assert!(reached_by(v) >= 1, "unreached node {} is in a listener list", v);
            }
            // (5) Erasures only occur on channels whose delivery losses
            //     present as erasures.
            if !channel.delivery_presents_erasure() {
                prop_assert!(trace.erased_listeners.is_empty());
            }
            // (6) Faultless runs lose nothing: every listener with
            //     exactly one broadcasting neighbor receives.
            if channel == Channel::faultless() {
                for v in g.nodes().filter(|&v| !broadcasting(v)) {
                    if reached_by(v) == 1 {
                        prop_assert!(
                            trace.deliveries.iter().any(|&(_, r)| r == v),
                            "faultless single-broadcaster listener {} missed its packet",
                            v
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stats_are_sums_of_reports(
        g in arb_graph(),
        channel in arb_channel(),
        seed in any::<u64>(),
    ) {
        let behaviors = chatter(g.node_count(), 0.3);
        let mut sim = Simulator::new(&g, channel, behaviors, seed).unwrap();
        let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for _ in 0..25 {
            let r = sim.step();
            totals.0 += r.broadcasters;
            totals.1 += r.deliveries;
            totals.2 += r.collisions;
            totals.3 += r.sender_faults;
            totals.4 += r.receiver_faults;
            totals.5 += r.erasures;
        }
        let s = sim.stats();
        prop_assert_eq!(s.rounds, 25);
        prop_assert_eq!(s.broadcasts, totals.0);
        prop_assert_eq!(s.deliveries, totals.1);
        prop_assert_eq!(s.collisions, totals.2);
        prop_assert_eq!(s.sender_faults, totals.3);
        prop_assert_eq!(s.receiver_faults, totals.4);
        prop_assert_eq!(s.erasures, totals.5);
        prop_assert_eq!(s.losses(), totals.3 + totals.4 + totals.5);
        // Reception conservation: packets seen by behaviors equal
        // deliveries, erasures equal the erasure counter, and every
        // listener-round observed exactly one reception.
        let packets: u64 = sim.behaviors().iter().map(|b| b.packets).sum();
        let erased: u64 = sim.behaviors().iter().map(|b| b.erased).sum();
        let receptions: u64 = sim.behaviors().iter().map(|b| b.receptions()).sum();
        prop_assert_eq!(packets, s.deliveries);
        prop_assert_eq!(erased, s.erasures);
        prop_assert_eq!(
            receptions,
            s.rounds * g.node_count() as u64 - s.broadcasts,
            "every non-broadcasting node-round observes exactly one Reception"
        );
    }

    #[test]
    fn loss_kinds_only_occur_on_their_channel(
        g in arb_graph(),
        seed in any::<u64>(),
        p in 0.1..0.9f64,
    ) {
        let run = |channel: Channel| {
            let behaviors = chatter(g.node_count(), 0.4);
            let mut sim = Simulator::new(&g, channel, behaviors, seed).unwrap();
            sim.run(40);
            *sim.stats()
        };
        let faultless = run(Channel::faultless());
        prop_assert_eq!(faultless.sender_faults, 0);
        prop_assert_eq!(faultless.receiver_faults, 0);
        prop_assert_eq!(faultless.erasures, 0);
        let snd = run(Channel::sender(p).expect("valid p"));
        prop_assert_eq!(snd.receiver_faults, 0);
        prop_assert_eq!(snd.erasures, 0);
        let rcv = run(Channel::receiver(p).expect("valid p"));
        prop_assert_eq!(rcv.sender_faults, 0);
        prop_assert_eq!(rcv.erasures, 0);
        let ers = run(Channel::erasure(p).expect("valid p"));
        prop_assert_eq!(ers.sender_faults, 0);
        prop_assert_eq!(ers.receiver_faults, 0);
    }

    #[test]
    fn erasure_zero_is_bit_identical_to_faultless(
        g in arb_graph(),
        seed in any::<u64>(),
        prob in 0.05..0.9f64,
    ) {
        let (clean_traces, clean_stats) =
            traced_run(&g, Channel::faultless(), seed, 25, prob);
        let (erased_traces, erased_stats) =
            traced_run(&g, Channel::erasure(0.0).expect("valid p"), seed, 25, prob);
        prop_assert_eq!(clean_traces, erased_traces);
        prop_assert_eq!(clean_stats, erased_stats);
    }

    #[test]
    fn erasure_loses_the_same_slots_as_receiver_faults(
        g in arb_graph(),
        seed in any::<u64>(),
        p in 0.05..0.9f64,
        prob in 0.05..0.9f64,
    ) {
        let (noisy_traces, noisy_stats) =
            traced_run(&g, Channel::receiver(p).expect("valid p"), seed, 25, prob);
        let (erased_traces, erased_stats) =
            traced_run(&g, Channel::erasure(p).expect("valid p"), seed, 25, prob);
        // Identical loss frequency and identical loss *slots*: the
        // channels draw from the same stream in the same order.
        prop_assert_eq!(noisy_stats.receiver_faults, erased_stats.erasures);
        prop_assert_eq!(noisy_stats.deliveries, erased_stats.deliveries);
        prop_assert_eq!(noisy_stats.broadcasts, erased_stats.broadcasts);
        prop_assert_eq!(noisy_stats.collisions, erased_stats.collisions);
        for (n, e) in noisy_traces.iter().zip(&erased_traces) {
            prop_assert_eq!(&n.broadcasters, &e.broadcasters);
            prop_assert_eq!(&n.deliveries, &e.deliveries);
            prop_assert_eq!(&n.collided_listeners, &e.collided_listeners);
        }
    }

    #[test]
    fn first_delivery_decode_and_rounds_are_ordered(
        g in arb_graph(),
        channel in arb_channel(),
        seed in any::<u64>(),
    ) {
        // The latency-profile ordering law, across random graphs,
        // channels, and seeds: each node's
        // first-delivery round ≤ its decode-completion round ≤ the
        // total rounds executed, and decode completion implies either
        // a received packet or being informed at construction.
        let (profile, stats) = flood_run(&g, channel, seed, 40);
        prop_assert_eq!(profile.node_count(), g.node_count());
        for v in g.nodes() {
            let first = profile.first_packet(v);
            let decode = profile.decode_complete(v);
            if let Some(d) = decode {
                prop_assert!(d <= stats.rounds, "decode round {} > rounds {}", d, stats.rounds);
                if v != NodeId::new(0) {
                    let f = first.expect("non-source decode requires a packet");
                    prop_assert!(f <= d, "first {} > decode {} at {}", f, d, v);
                }
            }
            if let Some(f) = first {
                prop_assert!(f < stats.rounds);
                // A flood node decodes the round it first hears.
                prop_assert_eq!(profile.decode_complete(v), Some(f));
            }
        }
        // The source decodes at construction and the aggregates agree.
        prop_assert_eq!(profile.decode_complete(NodeId::new(0)), Some(0));
        prop_assert_eq!(profile.delivered_count() as u64, stats.delivered_nodes);
        prop_assert_eq!(profile.decoded_count() as u64, stats.decoded_nodes);
    }

    #[test]
    fn determinism_per_seed(g in arb_graph(), channel in arb_channel(), seed in any::<u64>()) {
        let run = || {
            let behaviors = chatter(g.node_count(), 0.25);
            let mut sim = Simulator::new(&g, channel, behaviors, seed).unwrap();
            sim.run(30);
            *sim.stats()
        };
        prop_assert_eq!(run(), run());
    }
}

/// A designed scenario in which all four `Reception` variants must
/// appear: on the path 0-1-2-3-4 with nodes 0 and 2 always
/// broadcasting under `erasure(0.5)`, node 1 always hears a collision
/// (Noise), node 3 hears node 2 alone (Packet or Erased — both occur
/// over 60 rounds), and node 4 hears nobody (Silence).
#[test]
fn every_reception_kind_is_observable() {
    struct Fixed {
        broadcast: bool,
        counts: [u64; 4],
    }
    impl NodeBehavior<()> for Fixed {
        fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
            if self.broadcast {
                Action::Broadcast(())
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
            let i = match rx.kind() {
                ReceptionKind::Packet => 0,
                ReceptionKind::Noise => 1,
                ReceptionKind::Erased => 2,
                ReceptionKind::Silence => 3,
            };
            self.counts[i] += 1;
        }
    }
    let g = generators::path(5);
    let behaviors: Vec<Fixed> = (0..5)
        .map(|i| Fixed {
            broadcast: i == 0 || i == 2,
            counts: [0; 4],
        })
        .collect();
    let mut sim = Simulator::new(&g, Channel::erasure(0.5).unwrap(), behaviors, 11).unwrap();
    sim.run(60);
    let b = sim.behaviors();
    assert_eq!(b[1].counts, [0, 60, 0, 0], "node 1 hears only collisions");
    assert!(b[3].counts[0] > 0, "node 3 must receive some packets");
    assert!(b[3].counts[2] > 0, "node 3 must observe some erasures");
    assert_eq!(
        b[3].counts[0] + b[3].counts[2],
        60,
        "node 3's slots are packets or erasures only"
    );
    assert_eq!(b[4].counts, [0, 0, 0, 60], "node 4 hears only silence");
    assert_eq!(sim.stats().erasures, b[3].counts[2]);
}

/// Behavior that reports `next_act = u64::MAX` while listening and
/// counts every `act`/`receive` call it gets — it makes the sparse
/// engine's sweep-skipping directly visible. (It deliberately keeps
/// observable state in calls the quiescence contract lets the engine
/// elide, so it is only valid for observing *which* calls happen.)
#[derive(Debug, Clone, PartialEq)]
struct SleepCounter {
    broadcast: bool,
    acts: u64,
    receptions: u64,
}

impl SleepCounter {
    fn new(broadcast: bool) -> Self {
        SleepCounter {
            broadcast,
            acts: 0,
            receptions: 0,
        }
    }
}

impl NodeBehavior<()> for SleepCounter {
    fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<()> {
        self.acts += 1;
        if self.broadcast {
            Action::Broadcast(())
        } else {
            Action::Listen
        }
    }
    fn receive(&mut self, _ctx: &mut Ctx<'_>, _rx: Reception<()>) {
        self.receptions += 1;
    }
    fn next_act(&self) -> u64 {
        if self.broadcast {
            0
        } else {
            u64::MAX
        }
    }
}

/// A quiescent node outside every broadcaster's reach is never swept:
/// on 0—1 plus isolated node 2, with only node 0 broadcasting, node 1
/// is reached every round (receives, never acts) and node 2 sees no
/// calls at all.
#[test]
fn sparse_engine_never_sweeps_isolated_quiescent_nodes() {
    let g = Graph::from_edges(3, [(NodeId::new(0), NodeId::new(1))]).unwrap();
    let behaviors = vec![
        SleepCounter::new(true),
        SleepCounter::new(false),
        SleepCounter::new(false),
    ];
    let mut sim = Simulator::new(&g, Channel::faultless(), behaviors, 7).unwrap();
    sim.run(10);
    assert_eq!(sim.stats().broadcasts, 10);
    assert_eq!(sim.stats().deliveries, 10);
    let b = sim.behaviors();
    assert_eq!(
        (b[0].acts, b[0].receptions),
        (10, 0),
        "broadcaster acts only"
    );
    assert_eq!(
        (b[1].acts, b[1].receptions),
        (0, 10),
        "reached node receives only"
    );
    assert_eq!(
        (b[2].acts, b[2].receptions),
        (0, 0),
        "isolated node never swept"
    );
}

/// With every node quiescent, rounds still advance and count but no
/// behavior is ever polled — and the dense oracle agrees on every
/// engine-level observable.
#[test]
fn fully_quiescent_rounds_poll_nobody() {
    let g = generators::path(50);
    let sleepers: Vec<SleepCounter> = (0..50).map(|_| SleepCounter::new(false)).collect();
    let mut sim = Simulator::new(&g, Channel::faultless(), sleepers.clone(), 3).unwrap();
    sim.run(40);
    assert_eq!(sim.stats().rounds, 40);
    assert_eq!(sim.stats().broadcasts, 0);
    assert!(sim
        .behaviors()
        .iter()
        .all(|b| b.acts == 0 && b.receptions == 0));
    let mut dense = Simulator::new(&g, Channel::faultless(), sleepers, 3)
        .unwrap()
        .with_dense_sweeps(true);
    dense.run(40);
    assert_eq!(sim.stats(), dense.stats());
}

/// `behaviors_mut` marks the active set stale, so state injected
/// between rounds re-activates a fully quiescent simulation: after 5
/// silent rounds node 0 is switched to broadcasting and its neighbor
/// starts hearing packets, while the far end of the path stays
/// unswept.
#[test]
fn behaviors_mut_reactivates_quiescent_nodes() {
    let g = generators::path(3);
    let sleepers: Vec<SleepCounter> = (0..3).map(|_| SleepCounter::new(false)).collect();
    let mut sim = Simulator::new(&g, Channel::faultless(), sleepers, 11).unwrap();
    sim.run(5);
    assert_eq!(sim.stats().broadcasts, 0);
    sim.behaviors_mut()[0].broadcast = true;
    sim.run(5);
    assert_eq!(sim.stats().rounds, 10);
    assert_eq!(sim.stats().broadcasts, 5);
    assert_eq!(sim.stats().deliveries, 5);
    let b = sim.behaviors();
    assert_eq!(b[0].acts, 5, "woken broadcaster acts from round 6 on");
    assert_eq!(b[1].receptions, 5, "neighbor hears every post-wake round");
    assert_eq!(
        (b[2].acts, b[2].receptions),
        (0, 0),
        "far node stays asleep"
    );
}

/// A stale active set (after `behaviors_mut`) is rebuilt with every
/// sleeper awake and the wake wheel cleared; the sleepers then act as
/// no-ops and are filed again, so the run still matches the dense
/// oracle round for round.
#[test]
fn stale_rebuild_keeps_sleepers_on_time() {
    let g = generators::gnp_connected(30, 0.15, 5).unwrap();
    let channel = Channel::receiver(0.3).unwrap();
    let nappers: Vec<Napper> = (0..30).map(|i| Napper::new(i % 3 == 0)).collect();
    let mut sparse = Simulator::new(&g, channel, nappers.clone(), 8).unwrap();
    let mut dense = Simulator::new(&g, channel, nappers, 8)
        .unwrap()
        .with_dense_sweeps(true);
    for round in 0..300 {
        if round % 37 == 0 {
            sparse.behaviors_mut();
        }
        let (mut a, mut b) = (RoundTrace::default(), RoundTrace::default());
        sparse.step_traced(&mut a);
        dense.step_traced(&mut b);
        assert_eq!(a, b, "round {round}");
    }
    assert_eq!(sparse.stats(), dense.stats());
    assert_eq!(sparse.behaviors(), dense.behaviors());
}

/// A decode undone through `behaviors_mut` unsettles the node: Gossip
/// nodes reset to uninformed partway through are handed their next
/// packet again, so the run matches its opaque twin, reset alike, round
/// for round.
#[test]
fn behaviors_mut_unsettles_reset_nodes() {
    let g = generators::grid(12, 12);
    let channel = Channel::receiver(0.3).unwrap();
    let gossips: Vec<Gossip> = (0..g.node_count())
        .map(|i| Gossip { informed: i == 0 })
        .collect();
    let wrapped: Vec<Opaque<Gossip>> = gossips.iter().cloned().map(Opaque).collect();
    let mut direct = Simulator::new(&g, channel, gossips, 12).unwrap();
    let mut opaque = Simulator::new(&g, channel, wrapped, 12).unwrap();
    let mut forgotten = 0;
    for round in 0..120 {
        if round % 40 == 39 {
            // Every third node forgets the message.
            let twins = opaque.behaviors_mut();
            for (i, b) in direct.behaviors_mut().iter_mut().enumerate() {
                if i % 3 == 0 && b.informed {
                    b.informed = false;
                    twins[i].0.informed = false;
                    forgotten += 1;
                }
            }
        }
        let (mut a, mut b) = (RoundTrace::default(), RoundTrace::default());
        let report = direct.step_traced(&mut a);
        assert_eq!(report, opaque.step_traced(&mut b), "round {round}");
        assert_eq!(a, b, "round {round}");
    }
    assert!(forgotten > 0, "no informed node was reset");
    assert_eq!(direct.stats(), opaque.stats());
    assert_eq!(direct.latency_profile(), opaque.latency_profile());
    let twins: Vec<Gossip> = opaque.into_behaviors().into_iter().map(|o| o.0).collect();
    assert_eq!(direct.into_behaviors(), twins);
}
