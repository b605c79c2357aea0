//! The telemetry observational-only contract (DESIGN.md §12): enabling
//! engine telemetry — with any sink attached — never changes a single
//! observable of a run. Traces, stats, and behavior states are
//! bit-identical between a telemetry-off run and a telemetry-on run
//! under the same seed; the emitted counters agree
//! with the run's own `SimStats`; and the JSONL sink writes one
//! schema-valid `{"span"|"counter", "value"}` object per line.

use netgraph::{generators, Graph};
use proptest::prelude::*;
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, RoundTrace, SimStats, Simulator};
use radio_obs::{CounterSink, JsonlSink, NullSink};

/// Random traffic source: broadcasts with a fixed probability, counts
/// packets — enough state to detect any behavioral perturbation.
#[derive(Debug, Clone, PartialEq)]
struct Chatter {
    probability: f64,
    packets: u64,
}

impl NodeBehavior<u64> for Chatter {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
        if rand::Rng::gen_bool(ctx.rng, self.probability) {
            Action::Broadcast(ctx.round)
        } else {
            Action::Listen
        }
    }
    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
        if rx.is_packet() {
            self.packets += 1;
        }
    }
}

/// Every channel constructor, so both derived RNG-draw classes
/// (sender-stream and delivery-stream) are exercised.
fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::faultless()),
        (0.0..0.9f64).prop_map(|p| Channel::sender(p).expect("valid p")),
        (0.0..0.9f64).prop_map(|p| Channel::receiver(p).expect("valid p")),
        (0.0..0.9f64).prop_map(|p| Channel::erasure(p).expect("valid p")),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, any::<u64>(), 0.02..0.3f64)
        .prop_map(|(n, seed, p)| generators::gnp_connected(n, p, seed).unwrap())
}

/// Runs `rounds` rounds and returns the full observable surface.
fn observe(
    g: &Graph,
    channel: Channel,
    seed: u64,
    rounds: u64,
    timed: bool,
) -> (Vec<RoundTrace>, SimStats, Vec<Chatter>, CounterSink) {
    let behaviors: Vec<Chatter> = (0..g.node_count())
        .map(|_| Chatter {
            probability: 0.3,
            packets: 0,
        })
        .collect();
    let mut sim = Simulator::new(g, channel, behaviors, seed)
        .unwrap()
        .with_telemetry(timed);
    let mut traces = Vec::new();
    for _ in 0..rounds {
        let mut t = RoundTrace::default();
        sim.step_traced(&mut t);
        traces.push(t);
    }
    let mut counters = CounterSink::new();
    if timed {
        sim.emit_telemetry(&mut counters);
    } else {
        // The disabled path: emitting into a disabled sink is a no-op.
        sim.emit_telemetry(&mut NullSink);
    }
    let stats = *sim.stats();
    let behaviors = sim.into_behaviors();
    (traces, stats, behaviors, counters)
}

/// One line of the JSONL schema: exactly one of span/counter, a
/// numeric value, nothing else.
fn assert_jsonl_line(line: &str) {
    let rest = line
        .strip_prefix("{\"span\": \"")
        .or_else(|| line.strip_prefix("{\"counter\": \""))
        .unwrap_or_else(|| panic!("line must open with a span or counter key: {line:?}"));
    let (name, value) = rest
        .split_once("\", \"value\": ")
        .unwrap_or_else(|| panic!("line must carry a value key: {line:?}"));
    assert!(!name.is_empty(), "empty event name: {line:?}");
    let digits = value
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("line must close the object: {line:?}"));
    digits
        .parse::<u64>()
        .unwrap_or_else(|e| panic!("value must be a u64 ({e}): {line:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole contract, end to end: telemetry on (counter and
    /// JSONL sinks) vs telemetry off — traces,
    /// stats, and behavior states are bit-identical; the counters
    /// agree with `SimStats`; the JSONL log is schema-valid and
    /// line-for-line consistent with the counter sink.
    #[test]
    fn telemetry_never_perturbs_artifacts(
        g in arb_graph(),
        channel in arb_channel(),
        seed in any::<u64>(),
        rounds in 1u64..24,
    ) {
        let (traces_off, stats_off, behaviors_off, _) =
            observe(&g, channel, seed, rounds, false);
        let (traces_on, stats_on, behaviors_on, counters) =
            observe(&g, channel, seed, rounds, true);

        prop_assert_eq!(&traces_off, &traces_on);
        prop_assert_eq!(stats_off, stats_on);
        prop_assert_eq!(&behaviors_off, &behaviors_on);

        // The emitted counters are derived from the run itself.
        prop_assert_eq!(counters.counter_total("engine/rounds"), Some(rounds));
        prop_assert_eq!(
            counters.counter_total("engine/broadcasts"),
            Some(stats_off.broadcasts)
        );
        prop_assert_eq!(
            counters.counter_total("engine/deliveries"),
            Some(stats_off.deliveries)
        );
        prop_assert_eq!(
            counters.counter_total("engine/collisions"),
            Some(stats_off.collisions)
        );
        let sender_draws = if channel.sender_fault().is_some() {
            stats_off.broadcasts
        } else {
            0
        };
        prop_assert_eq!(
            counters.counter_total("rng/sender_stream_draws"),
            Some(sender_draws)
        );

        // Replaying the counters through the JSONL sink produces a
        // non-empty, schema-valid log with one line per event.
        let mut jsonl = JsonlSink::new(Vec::new());
        counters.emit_into(&mut jsonl);
        let bytes = jsonl.finish().expect("in-memory write cannot fail");
        let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        prop_assert!(!lines.is_empty());
        prop_assert_eq!(
            lines.len(),
            counters.spans().len() + counters.counters().len()
        );
        for line in lines {
            assert_jsonl_line(line);
        }
    }
}

#[test]
fn disabled_run_collects_no_telemetry() {
    let g = generators::path(16);
    let (_, _, _, counters) = observe(&g, Channel::faultless(), 7, 8, false);
    assert!(counters.is_empty(), "telemetry-off run emitted events");
}

#[test]
fn timed_run_reports_word_sweep_totals() {
    let g = generators::path(64);
    let rounds = 10;
    let (_, _, _, counters) = observe(&g, Channel::faultless(), 7, rounds, true);
    let visited = counters
        .counter_total("engine/act_words_visited")
        .expect("timed run emits word counters");
    let skipped = counters
        .counter_total("engine/act_words_skipped")
        .expect("timed run emits word counters");
    // 64 nodes = 1 bitset word; every round visits or skips it exactly
    // once.
    assert_eq!(visited + skipped, rounds);
}
