//! Property-based tests for the consensus workloads: honest-node
//! agreement and validity hold for every channel × adversary cell with
//! assumed tolerance `f < n/3`.

use netgraph::{generators, Graph, NodeId};
use noisy_radio_core::consensus::{BenOr, Brb};
use proptest::prelude::*;
use radio_model::{Adversary, Channel, Misbehavior};

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (7usize..12).prop_map(generators::path),
        (7usize..12, any::<u64>(), 0.4..0.9f64)
            .prop_map(|(n, seed, p)| generators::gnp_connected(n, p, seed).unwrap()),
    ]
}

/// Every channel shape, including a composed sender+erasure arm.
fn arb_channel() -> impl Strategy<Value = Channel> {
    prop_oneof![
        Just(Channel::faultless()),
        (0.0..0.5f64).prop_map(|p| Channel::sender(p).expect("valid p")),
        (0.0..0.5f64).prop_map(|p| Channel::receiver(p).expect("valid p")),
        (0.0..0.5f64).prop_map(|p| Channel::erasure(p).expect("valid p")),
        (0.0..0.4f64, 0.0..0.4f64).prop_map(|(s, e)| {
            Channel::sender(s)
                .expect("valid p")
                .compose(Channel::erasure(e).expect("valid p"))
                .expect("sender composes with erasure")
        }),
    ]
}

/// An adversary cell: the misbehavior kind (`None` leaves every node
/// honest) together with the raw tolerance pick (reduced mod `n/3` per
/// graph in [`build_adversary`]).
fn arb_adversary_pick() -> impl Strategy<Value = (Option<Misbehavior>, usize)> {
    let kind = prop_oneof![
        Just(None),
        (1u64..30).prop_map(|round| Some(Misbehavior::Crash { round })),
        Just(Some(Misbehavior::Equivocate)),
        Just(Some(Misbehavior::Jam)),
    ];
    (kind, 0usize..4)
}

/// Builds the adversary for a graph of `n` nodes: `f < n/3` corrupted
/// nodes of the drawn kind, always sparing node 0 (the BRB source).
fn build_adversary(
    n: usize,
    kind: Option<Misbehavior>,
    f_pick: usize,
    adv_seed: u64,
) -> (Adversary, usize) {
    let f = f_pick % ((n - 1) / 3 + 1);
    match kind {
        Some(kind) if f > 0 => (
            Adversary::seeded(n, f, kind, adv_seed, &[NodeId::new(0)]).expect("f < n fits"),
            f,
        ),
        _ => (Adversary::honest(n), f),
    }
}

const BUDGET: u64 = 20_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bracha BRB with an honest source: honest nodes never disagree,
    /// and whenever the run completes every honest node delivered the
    /// source's value.
    #[test]
    fn brb_agreement_and_validity(
        g in arb_graph(),
        channel in arb_channel(),
        (kind, f_pick) in arb_adversary_pick(),
        value in any::<bool>(),
        (adv_seed, seed) in (any::<u64>(), any::<u64>()),
    ) {
        let n = g.node_count();
        let (adversary, f) = build_adversary(n, kind, f_pick, adv_seed);
        let run = Brb::new()
            .run(&g, NodeId::new(0), value, f, channel, &adversary, seed, BUDGET)
            .expect("valid BRB parameters");
        prop_assert!(run.agreement(), "agreement violated: {:?}", run.decisions);
        if run.completed() {
            prop_assert!(
                run.valid_for(value),
                "validity violated: {:?}",
                run.decisions
            );
        }
        if run.decided_count() > 0 {
            prop_assert_eq!(run.decided_value(), Some(value));
        }
    }

    /// Ben-Or: honest nodes never disagree, and on unanimous honest
    /// inputs no adversary can flip the decision away from that value.
    #[test]
    fn ben_or_agreement_and_validity(
        g in arb_graph(),
        channel in arb_channel(),
        (kind, f_pick) in arb_adversary_pick(),
        unanimous in prop_oneof![Just(None), any::<bool>().prop_map(Some)],
        input_bits in any::<u64>(),
        (adv_seed, seed) in (any::<u64>(), any::<u64>()),
    ) {
        let n = g.node_count();
        let (adversary, f) = build_adversary(n, kind, f_pick, adv_seed);
        let inputs: Vec<bool> = (0..n)
            .map(|i| unanimous.unwrap_or(input_bits >> (i % 64) & 1 == 1))
            .collect();
        let run = BenOr::new()
            .run(&g, &inputs, f, channel, &adversary, seed, BUDGET)
            .expect("valid Ben-Or parameters");
        prop_assert!(run.agreement(), "agreement violated: {:?}", run.decisions);
        if let (Some(v), true) = (unanimous, run.decided_count() > 0) {
            prop_assert!(
                run.valid_for(v),
                "validity violated for unanimous {v}: {:?}",
                run.decisions
            );
        }
    }
}
