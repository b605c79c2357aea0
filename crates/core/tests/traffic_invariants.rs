//! Steady-state invariants of the continuous-traffic engine
//! (DESIGN.md §9): the one-message degeneracy regression against the
//! one-shot simulator, and the saturated-cap reporting contract.

use netgraph::{generators, NodeId};
use noisy_radio_core::decay::{default_phase_len, DecayNode};
use noisy_radio_core::traffic::{run_decay_traffic, DecayTraffic};
use radio_model::{Channel, RoundTrace, Simulator};
use radio_throughput::traffic::{run_traffic_traced, TrafficConfig};

/// One injected message must replay the one-shot Decay broadcast
/// bit-for-bit: same rounds, same per-round traces (modulo the
/// traffic engine's extra backlog column), same latency profile.
#[test]
fn one_message_traffic_degenerates_to_one_shot_decay() {
    let g = generators::gnp_connected(24, 0.12, 3).unwrap();
    let source = NodeId::new(0);
    let channel = Channel::receiver(0.3).unwrap();
    let seed = 41;

    // Reference: a hand-stepped one-shot Decay run with traces.
    let phase_len = default_phase_len(g.node_count());
    let behaviors: Vec<DecayNode> = (0..g.node_count())
        .map(|i| DecayNode::new(i == source.index(), phase_len))
        .collect();
    let mut sim = Simulator::new(&g, channel, behaviors, seed).unwrap();
    let mut reference_traces = Vec::new();
    while !sim.behaviors().iter().all(DecayNode::informed) {
        let mut t = RoundTrace::default();
        sim.step_traced(&mut t);
        reference_traces.push(t);
        assert!(sim.round() < 100_000, "one-shot run did not converge");
    }
    let reference_rounds = sim.round();
    let reference_profile = sim.latency_profile();

    // Same seed through the traffic engine, one message at any rate.
    let mut w = DecayTraffic::new(&g, source).unwrap();
    let config = TrafficConfig {
        rate: 1.0,
        messages: 1,
        max_rounds: 100_000,
    };
    let (run, traces) = run_traffic_traced(&g, channel, &mut w, &config, seed).unwrap();

    assert!(run.drained() && run.conserved);
    assert_eq!(run.rounds, reference_rounds);
    assert_eq!(run.latencies, vec![reference_rounds]);
    assert_eq!(run.profile, reference_profile);

    assert_eq!(traces.len(), reference_traces.len());
    for (r, (got, want)) in traces.iter().zip(&reference_traces).enumerate() {
        assert_eq!(got.broadcasters, want.broadcasters, "round {r}");
        assert_eq!(got.deliveries, want.deliveries, "round {r}");
        assert_eq!(got.collided_listeners, want.collided_listeners, "round {r}");
        assert_eq!(got.erased_listeners, want.erased_listeners, "round {r}");
        assert_eq!(
            got.first_packet_listeners, want.first_packet_listeners,
            "round {r}"
        );
        assert_eq!(got.decoded_nodes, want.decoded_nodes, "round {r}");
        // The only divergence: the traffic engine reports the source's
        // backlog of 1 until the message retires (after the last step).
        assert_eq!(want.queued_nodes, vec![], "round {r}");
        assert_eq!(got.queued_nodes, vec![(source, 1)], "round {r}");
    }
}

/// A run capped far below the sustainable rate must report
/// `saturated: true` with partial latencies for what did complete and
/// a growing queue — never a panic or a bogus full drain.
#[test]
fn overloaded_run_reports_saturation_with_partial_latencies() {
    let g = generators::path(16);
    let channel = Channel::receiver(0.4).unwrap();
    let config = TrafficConfig {
        rate: 1.0, // one message per round — far beyond Decay's service rate
        messages: 50,
        max_rounds: 400,
    };
    let run = run_decay_traffic(&g, NodeId::new(0), channel, &config, 3).unwrap();

    assert!(run.saturated);
    assert!(!run.drained());
    assert!(run.conserved, "conservation must hold even when saturated");
    assert_eq!(run.rounds, 400);
    assert_eq!(run.injected, 50);
    assert!(run.delivered < 50);
    assert_eq!(run.latencies.len(), run.delivered as usize);
    // Sequential service: later messages wait longer.
    assert!(run.latencies.windows(2).all(|w| w[0] <= w[1]));
    // The backlog at the cap is everything injected but undelivered.
    assert_eq!(
        *run.queue_depth.last().unwrap(),
        run.injected - run.delivered
    );
    assert!(run.peak_queued >= run.injected - run.delivered);
    assert!(run.achieved_rate() < config.rate);
}
