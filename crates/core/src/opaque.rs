//! Test oracle for the engine's packet-only dispatch.
//!
//! The engine calls a silence-transparent behavior only where a packet
//! was delivered. Sparse ≡ dense cannot check that, because both modes
//! share the dispatch; running the same behaviors behind [`Opaque`],
//! which the engine must hand every reception, can.

use std::fmt::Debug;

use netgraph::Graph;
use radio_model::{
    Action, Channel, Ctx, LatencyProfile, NodeBehavior, Payload, Reception, RoundReport,
    RoundTrace, SimStats, Simulator,
};

/// Forwards every hook to the wrapped behavior but keeps
/// `SILENCE_TRANSPARENT = false`, so the engine hands every swept
/// listener its reception and polls every swept node.
#[derive(Clone)]
pub(crate) struct Opaque<B>(pub(crate) B);

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

/// Everything a run shows: per-round traces and reports, the stats,
/// the latency profile and the final behavior states.
type Run<B> = (
    Vec<RoundTrace>,
    Vec<RoundReport>,
    SimStats,
    LatencyProfile,
    Vec<B>,
);

/// Runs until every node decodes or `max_rounds` rounds pass.
fn observe<P: Payload, B: NodeBehavior<P>>(
    g: &Graph,
    channel: Channel,
    behaviors: Vec<B>,
    seed: u64,
    max_rounds: u64,
) -> Run<B> {
    let mut sim = Simulator::new(g, channel, behaviors, seed).unwrap();
    let (mut traces, mut reports) = (Vec::new(), Vec::new());
    while sim.stats().decoded_nodes < g.node_count() as u64 && sim.round() < max_rounds {
        let mut t = RoundTrace::default();
        reports.push(sim.step_traced(&mut t));
        traces.push(t);
    }
    let (stats, profile) = (*sim.stats(), sim.latency_profile());
    (traces, reports, stats, profile, sim.into_behaviors())
}

/// Asserts that `behaviors` and their [`Opaque`] twins, from one seed,
/// give equal traces and reports in every round, equal stats, latency
/// profiles and final states (compared by their `Debug` form), and that
/// each round's collided and erased lists add up to its report.
pub(crate) fn assert_matches_opaque<P: Payload, B: NodeBehavior<P> + Clone + Debug>(
    g: &Graph,
    channel: Channel,
    behaviors: &[B],
    seed: u64,
    max_rounds: u64,
) {
    let direct = observe(g, channel, behaviors.to_vec(), seed, max_rounds);
    let wrapped = behaviors.iter().cloned().map(Opaque).collect();
    let opaque = observe(g, channel, wrapped, seed, max_rounds);
    let at = format!("{} nodes, {channel}, seed {seed}", g.node_count());
    assert_eq!(direct.0.len(), opaque.0.len(), "rounds: {at}");
    for (round, (d, o)) in direct.0.iter().zip(&opaque.0).enumerate() {
        assert_eq!(d, o, "trace of round {round}: {at}");
        let report = direct.1[round];
        assert_eq!(report, opaque.1[round], "report of round {round}: {at}");
        // Both runs fill the listener lists with the same code, so the
        // lists must also add up to the report.
        let lists = (d.collided_listeners.len(), d.erased_listeners.len());
        let counts = (report.collisions as usize, report.erasures as usize);
        assert_eq!(lists, counts, "lists of round {round}: {at}");
    }
    assert_eq!((direct.2, &direct.3), (opaque.2, &opaque.3), "{at}");
    let states: Vec<B> = opaque.4.into_iter().map(|o| o.0).collect();
    assert_eq!(format!("{:?}", direct.4), format!("{states:?}"), "{at}");
}
