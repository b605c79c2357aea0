//! Outcome summary of a single broadcast execution.

use netgraph::Graph;
use radio_model::{
    Channel, LatencyProfile, NodeBehavior, Payload, RoundTrace, SimStats, Simulator,
};
use radio_obs::{SpanTimer, TelemetrySink};

use crate::CoreError;

/// The result of one broadcast execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastRun {
    /// Rounds until the broadcast goal was reached, or `None` if the
    /// round budget ran out first.
    pub rounds: Option<u64>,
    /// Aggregate channel statistics for the run.
    pub stats: SimStats,
}

impl BroadcastRun {
    /// Whether the broadcast completed within its round budget.
    pub fn completed(&self) -> bool {
        self.rounds.is_some()
    }

    /// Rounds used, panicking if the run did not complete.
    ///
    /// # Panics
    ///
    /// Panics if the broadcast did not complete.
    pub fn rounds_used(&self) -> u64 {
        self.rounds
            .expect("broadcast did not complete within its round budget")
    }
}

/// The shared run body of every single-message schedule (`Decay`,
/// `FastbcSchedule`, `RobustFastbcSchedule`, `XinXiaSchedule`): build
/// the simulator, run until every node's decode is complete or
/// `max_rounds`, and return the outcome with its latency profile.
///
/// The completion check is the engine's O(1)
/// [`Simulator::run_until_decoded`] tally — equivalent to an
/// all-`informed` behavior scan for these schedules (their
/// [`NodeBehavior::decoded`] *is* `informed`), but it keeps the
/// per-round cost proportional to the sparse active set instead of
/// the node count.
///
/// The simulator runs with per-phase timing enabled iff `sink` is
/// enabled, and on completion the engine's `engine/*` spans and
/// counters plus a `schedule/run` wall-clock span are emitted into
/// it. Each schedule's `run` passes [`radio_obs::NullSink`].
///
/// Telemetry is observational only: the returned run and profile are
/// bit-identical under the same arguments whatever sink is attached.
pub(crate) fn run_profiled_telemetry<P, B, S>(
    graph: &Graph,
    fault: Channel,
    behaviors: Vec<B>,
    seed: u64,
    max_rounds: u64,
    sink: &mut S,
) -> Result<(BroadcastRun, LatencyProfile), CoreError>
where
    P: Payload,
    B: NodeBehavior<P>,
    S: TelemetrySink,
{
    let timer = SpanTimer::start(sink.enabled());
    let mut sim = Simulator::new(graph, fault, behaviors, seed)?.with_telemetry(sink.enabled());
    let rounds = sim.run_until_decoded(max_rounds);
    timer.stop(sink, "schedule/run");
    sim.emit_telemetry(sink);
    Ok((
        BroadcastRun {
            rounds,
            stats: *sim.stats(),
        },
        sim.latency_profile(),
    ))
}

/// The shared body of `FastbcSchedule::run_traced` and
/// `RobustFastbcSchedule::run_traced`: steps the simulator round by
/// round, hands every round's [`RoundTrace`] to `inspect`, and stops
/// on the same decode tally as [`run_profiled_telemetry`].
pub(crate) fn run_traced<P, B>(
    graph: &Graph,
    fault: Channel,
    behaviors: Vec<B>,
    seed: u64,
    max_rounds: u64,
    mut inspect: impl FnMut(u64, &RoundTrace),
) -> Result<BroadcastRun, CoreError>
where
    P: Payload,
    B: NodeBehavior<P>,
{
    let n = graph.node_count() as u64;
    let mut sim = Simulator::new(graph, fault, behaviors, seed)?;
    let mut trace = RoundTrace::default();
    let rounds = loop {
        let round = sim.round();
        if sim.stats().decoded_nodes >= n {
            break Some(round);
        }
        if round == max_rounds {
            break None;
        }
        sim.step_traced(&mut trace);
        inspect(round, &trace);
    };
    Ok(BroadcastRun {
        rounds,
        stats: *sim.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let done = BroadcastRun {
            rounds: Some(7),
            stats: SimStats::default(),
        };
        assert!(done.completed());
        assert_eq!(done.rounds_used(), 7);
        let not = BroadcastRun {
            rounds: None,
            stats: SimStats::default(),
        };
        assert!(!not.completed());
    }

    #[test]
    #[should_panic(expected = "did not complete")]
    fn rounds_used_panics_when_incomplete() {
        let not = BroadcastRun {
            rounds: None,
            stats: SimStats::default(),
        };
        let _ = not.rounds_used();
    }
}
