//! Property-based tests for the continuous-traffic engine: the
//! conservation law `injected == delivered + queued` holds every
//! round for every workload, and accounting always closes at the end
//! of a run.

use netgraph::{generators, Graph, NodeId};
use noisy_radio_core::traffic::{run_decay_traffic, run_rlnc_traffic, run_xin_xia_traffic};
use proptest::prelude::*;
use radio_model::Channel;
use radio_throughput::traffic::{ThroughputRun, TrafficConfig};

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (3usize..14).prop_map(generators::path),
        (4usize..16, any::<u64>(), 0.15..0.5f64)
            .prop_map(|(n, seed, p)| generators::gnp_connected(n, p, seed).unwrap()),
    ]
}

fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::faultless()),
        (0.0..0.7f64).prop_map(|p| Channel::sender(p).expect("valid p")),
        (0.0..0.7f64).prop_map(|p| Channel::receiver(p).expect("valid p")),
        (0.0..0.7f64).prop_map(|p| Channel::erasure(p).expect("valid p")),
    ]
}

/// Runs the workload selected by `algo` (0 = Decay, 1 = Xin–Xia,
/// 2 = RLNC with generations of 4).
fn run_algo(
    algo: u8,
    g: &Graph,
    channel: Channel,
    config: &TrafficConfig,
    seed: u64,
) -> ThroughputRun {
    let src = NodeId::new(0);
    match algo {
        0 => run_decay_traffic(g, src, channel, config, seed),
        1 => run_xin_xia_traffic(g, src, channel, config, seed),
        _ => run_rlnc_traffic(g, src, 4, channel, config, seed),
    }
    .expect("valid traffic run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine-polled backlog matches the driver's accounting every
    /// round (`ThroughputRun::conserved`), and the final tallies close:
    /// whether the run drains or saturates, `injected == delivered +
    /// final backlog`, with one latency per delivered message.
    #[test]
    fn injected_equals_delivered_plus_queued(
        g in arb_graph(),
        channel in arb_channel(),
        algo in 0u8..3,
        rate in 0.01..0.6f64,
        messages in 1u64..6,
        seed in any::<u64>(),
    ) {
        let config = TrafficConfig { rate, messages, max_rounds: 3_000 };
        let run = run_algo(algo, &g, channel, &config, seed);
        prop_assert!(run.conserved, "per-round conservation violated");
        prop_assert!(run.injected <= messages);
        prop_assert!(run.delivered <= run.injected);
        prop_assert_eq!(run.queue_depth.len() as u64, run.rounds);
        // Queue depths are polled at end-of-round, before the
        // post-step drain retires that round's completions — so the
        // final sample bounds the final backlog from above.
        let backlog = run.queue_depth.last().copied().unwrap_or(0);
        prop_assert!(backlog >= run.injected - run.delivered);
        if run.saturated {
            prop_assert!(run.delivered < messages);
        } else {
            prop_assert_eq!(run.injected, messages);
            prop_assert_eq!(run.delivered, messages);
        }
        prop_assert_eq!(run.latencies.len() as u64, run.delivered);
        prop_assert_eq!(run.peak_queued, run.queue_depth.iter().copied().max().unwrap_or(0));
    }
}
