//! Every call the benchmark makes into the workspace crates.
//!
//! Nothing else in this package names a workspace item, so an API
//! change in the simulator is absorbed here. Call sites that ROADMAP
//! item 2 ("one run surface") is expected to reshape say so: it
//! collapses the `run` / `run_telemetry` variants into one sink-generic
//! entry point and merges `star_routing` with `star_routing_telemetry`.

use noisy_radio::core::decay::Decay;
use noisy_radio::core::robust_fastbc::RobustFastbcSchedule;
use noisy_radio::core::schedules::star;
use noisy_radio::model::Channel;
use noisy_radio::netgraph::{generators, metrics, NodeId};
use noisy_radio::obs::CounterSink;

pub use noisy_radio::netgraph::Graph;

/// Every broadcast starts at node 0: an end of the path, a corner of
/// the grid, the centre of the star.
const SOURCE: NodeId = NodeId::new(0);

/// The seed of the `index`-th trial under workload seed `seed`, forked
/// exactly as `radio_sweep::run_cells` forks cell seeds, so trial `i`
/// replays with `cli broadcast --seed <seed> --trials <i + 1>`.
pub fn trial_seed(seed: u64, index: u64) -> u64 {
    noisy_radio::model::fork_seed(seed, index)
}

/// `generators::path`.
pub fn path(n: usize) -> Graph {
    generators::path(n)
}

/// `generators::grid`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    generators::grid(rows, cols)
}

/// `generators::star`, the topology both star arms build internally.
pub fn star(leaves: usize) -> Graph {
    generators::star(leaves)
}

/// Eccentricity of the source: a lower bound on any broadcast's rounds.
pub fn source_eccentricity(graph: &Graph) -> Option<u64> {
    metrics::eccentricity(graph, SOURCE).map(u64::from)
}

fn receiver(loss: f64) -> Result<Channel, String> {
    Channel::receiver(loss).map_err(|e| e.to_string())
}

/// A compiled single-message broadcast schedule.
// Built once per set-up, so the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Schedule<'g> {
    /// Robust FASTBC, compiled against one graph (includes `Gbst::build`).
    RobustFastbc(RobustFastbcSchedule<'g>),
    /// Decay, which compiles nothing.
    Decay(Decay),
}

/// `RobustFastbcSchedule::new`.
pub fn compile_robust_fastbc(graph: &Graph) -> Result<Schedule<'_>, String> {
    RobustFastbcSchedule::new(graph, SOURCE)
        .map(Schedule::RobustFastbc)
        .map_err(|e| e.to_string())
}

/// `Decay::new`.
pub fn compile_decay() -> Schedule<'static> {
    Schedule::Decay(Decay::new())
}

/// What the benchmark checks of one broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Broadcast {
    /// Rounds to full decode, `None` if the budget ran out first.
    pub rounds: Option<u64>,
    /// Nodes whose decode completed.
    pub decoded_nodes: u64,
}

/// The engine's own phase split of one traced broadcast.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnginePhases {
    pub act_ns: u64,
    pub reach_ns: u64,
    pub receive_ns: u64,
    pub merge_ns: u64,
    pub active_node_rounds: u64,
    pub broadcasts: u64,
    pub act_words_visited: u64,
    pub act_words_skipped: u64,
}

impl Schedule<'_> {
    /// One untraced run (the schedule's `run`, which attaches the
    /// disabled sink).
    // ROADMAP item 2: `run` and `run_telemetry` become one entry point.
    pub fn run(
        &self,
        graph: &Graph,
        loss: f64,
        seed: u64,
        budget: u64,
    ) -> Result<Broadcast, String> {
        let fault = receiver(loss)?;
        let run = match self {
            Schedule::RobustFastbc(s) => s.run(fault, seed, budget),
            Schedule::Decay(d) => d.run(graph, SOURCE, fault, seed, budget),
        }
        .map_err(|e| e.to_string())?;
        Ok(Broadcast {
            rounds: run.rounds,
            decoded_nodes: run.stats.decoded_nodes,
        })
    }

    /// One traced run: `run_telemetry` into a fresh `CounterSink`, read
    /// back as engine phases.
    // ROADMAP item 2: `run` and `run_telemetry` become one entry point.
    pub fn run_traced(
        &self,
        graph: &Graph,
        loss: f64,
        seed: u64,
        budget: u64,
    ) -> Result<(Broadcast, EnginePhases), String> {
        let fault = receiver(loss)?;
        let mut sink = CounterSink::new();
        let (run, _profile) = match self {
            Schedule::RobustFastbc(s) => s.run_telemetry(fault, seed, budget, &mut sink),
            Schedule::Decay(d) => d.run_telemetry(graph, SOURCE, fault, seed, budget, &mut sink),
        }
        .map_err(|e| e.to_string())?;
        let span = |name| sink.span_nanos(name).unwrap_or(0);
        let counter = |name| sink.counter_total(name).unwrap_or(0);
        let phases = EnginePhases {
            act_ns: span("engine/act"),
            reach_ns: span("engine/reach"),
            receive_ns: span("engine/receive"),
            merge_ns: span("engine/merge"),
            active_node_rounds: counter("engine/active_node_rounds"),
            broadcasts: counter("engine/broadcasts"),
            act_words_visited: counter("engine/act_words_visited"),
            act_words_skipped: counter("engine/act_words_skipped"),
        };
        Ok((
            Broadcast {
                rounds: run.rounds,
                decoded_nodes: run.stats.decoded_nodes,
            },
            phases,
        ))
    }
}

/// What the benchmark checks of the star's routing arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routing {
    /// Rounds until every leaf held every message, `None` on budget.
    pub rounds: Option<u64>,
    /// Deliveries that granted a leaf a message it lacked.
    pub fresh_deliveries: u64,
}

/// The routing arm's own phase split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingPhases {
    pub decide_ns: u64,
    pub resolve_ns: u64,
}

/// `star_routing`: the adaptive routing arm of Theorem 17.
// ROADMAP item 2: merges with `star_routing_telemetry`.
pub fn star_routing(
    leaves: usize,
    k: usize,
    loss: f64,
    seed: u64,
    budget: u64,
) -> Result<Routing, String> {
    let out =
        star::star_routing(leaves, k, receiver(loss)?, seed, budget).map_err(|e| e.to_string())?;
    Ok(Routing {
        rounds: out.rounds,
        fresh_deliveries: out.fresh_deliveries,
    })
}

/// `star_routing_telemetry`: the routing arm with its decide / resolve
/// split.
// ROADMAP item 2: merges with `star_routing`.
pub fn star_routing_traced(
    leaves: usize,
    k: usize,
    loss: f64,
    seed: u64,
    budget: u64,
) -> Result<(Routing, RoutingPhases), String> {
    let (out, phases) = star::star_routing_telemetry(leaves, k, receiver(loss)?, seed, budget)
        .map_err(|e| e.to_string())?;
    Ok((
        Routing {
            rounds: out.rounds,
            fresh_deliveries: out.fresh_deliveries,
        },
        RoutingPhases {
            decide_ns: phases.nanos("routing/decide"),
            resolve_ns: phases.nanos("routing/resolve"),
        },
    ))
}

/// `star_coding`: the Reed–Solomon coding arm; rounds until every leaf
/// holds `k` packets, `None` on budget.
pub fn star_coding(
    leaves: usize,
    k: usize,
    loss: f64,
    seed: u64,
    budget: u64,
) -> Result<Option<u64>, String> {
    star::star_coding(leaves, k, receiver(loss)?, seed, budget)
        .map(|run| run.rounds)
        .map_err(|e| e.to_string())
}
