//! Model laws: the simulator's loss rates against the probabilities of
//! the noisy radio model (arXiv:1705.07369 §3.1) and of its erasure
//! variant.
//!
//! The centre of a star broadcasts every round and its leaves only
//! listen, so no slot ever collides and every loss is the channel's:
//!
//! - a sender fault strikes each broadcast with probability `s`;
//! - a receiver fault or an erasure strikes each clean listener-slot
//!   (its broadcaster's sender fault did not fire) with probability
//!   `d`;
//! - so a leaf loses a slot with probability `1 − (1−s)(1−d)`.
//!
//! Each law is checked as a binomial count over fixed seeds: the
//! model's probability must lie in the 99.9% Wilson score interval of
//! the observed rate.

use netgraph::{generators, NodeId};
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, SimStats, Simulator};

const LEAVES: usize = 32;
const ROUNDS: u64 = 10_000;
const SEEDS: [u64; 3] = [11, 12, 13];
/// The two-sided 99.9% normal quantile.
const Z: f64 = 3.2905;

/// The star's centre (node 0) broadcasts in every round; the leaves
/// listen and count the packets they hear.
struct Hub {
    packets: u64,
}

impl NodeBehavior<()> for Hub {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<()> {
        if ctx.node == NodeId::new(0) {
            Action::Broadcast(())
        } else {
            Action::Listen
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<()>) {
        if rx.is_packet() {
            self.packets += 1;
        }
    }
}

/// The laws' inputs: a channel with its sender-side probability `s`
/// and delivery-side probability `d` (0 for an absent side).
struct Case {
    channel: Channel,
    s: f64,
    d: f64,
}

fn cases() -> Vec<Case> {
    let sender = |s| Channel::sender(s).unwrap();
    let receiver = |d| Channel::receiver(d).unwrap();
    let erasure = |d| Channel::erasure(d).unwrap();
    vec![
        Case {
            channel: sender(0.25),
            s: 0.25,
            d: 0.0,
        },
        Case {
            channel: receiver(0.3),
            s: 0.0,
            d: 0.3,
        },
        Case {
            channel: erasure(0.3),
            s: 0.0,
            d: 0.3,
        },
        Case {
            channel: sender(0.2).compose(receiver(0.4)).unwrap(),
            s: 0.2,
            d: 0.4,
        },
        Case {
            channel: sender(0.5).compose(erasure(0.25)).unwrap(),
            s: 0.5,
            d: 0.25,
        },
    ]
}

/// Runs the star for [`ROUNDS`] rounds under `channel` once per seed
/// and returns each run's stats and the packets leaf 1 heard, after
/// checking the laws' premise: the centre broadcast in every round and
/// no slot collided.
fn runs(channel: Channel) -> Vec<(SimStats, u64)> {
    let g = generators::star(LEAVES);
    SEEDS
        .iter()
        .map(|&seed| {
            let hubs = (0..=LEAVES).map(|_| Hub { packets: 0 }).collect();
            let mut sim = Simulator::new(&g, channel, hubs, seed).unwrap();
            sim.run(ROUNDS);
            let stats = *sim.stats();
            assert_eq!(stats.broadcasts, ROUNDS, "{channel}");
            assert_eq!(stats.collisions, 0, "{channel}");
            (stats, sim.behavior(NodeId::new(1)).packets)
        })
        .collect()
}

/// The 99.9% Wilson score interval of a binomial rate, `hits` of
/// `trials`.
fn wilson(hits: u64, trials: u64) -> (f64, f64) {
    let (k, n) = (hits as f64, trials as f64);
    let centre = (k + Z * Z / 2.0) / (n + Z * Z);
    let half = Z / (n + Z * Z) * (k * (n - k) / n + Z * Z / 4.0).sqrt();
    (centre - half, centre + half)
}

fn assert_rate(law: &str, channel: Channel, hits: u64, trials: u64, p: f64) {
    let (lo, hi) = wilson(hits, trials);
    assert!(
        (lo..=hi).contains(&p),
        "{channel}: {law} {hits}/{trials} = {:.4}, 99.9% interval [{lo:.4}, {hi:.4}] misses {p}",
        hits as f64 / trials as f64
    );
}

#[test]
fn sender_faults_per_broadcast_match_s() {
    for case in cases().into_iter().filter(|c| c.s > 0.0) {
        let runs = runs(case.channel);
        let faults = runs.iter().map(|(s, _)| s.sender_faults).sum();
        let broadcasts = runs.iter().map(|(s, _)| s.broadcasts).sum();
        assert_rate(
            "sender faults per broadcast",
            case.channel,
            faults,
            broadcasts,
            case.s,
        );
    }
}

#[test]
fn losses_per_clean_listener_slot_match_d() {
    for case in cases().into_iter().filter(|c| c.d > 0.0) {
        let runs = runs(case.channel);
        let erasures: u64 = runs.iter().map(|(s, _)| s.erasures).sum();
        let receiver_faults: u64 = runs.iter().map(|(s, _)| s.receiver_faults).sum();
        // Each loss presents one way only.
        if case.channel.delivery_presents_erasure() {
            assert_eq!(receiver_faults, 0, "{}", case.channel);
        } else {
            assert_eq!(erasures, 0, "{}", case.channel);
        }
        // Every broadcast whose sender fault did not fire reaches every
        // leaf cleanly, and each clean slot either delivers or is lost.
        let mut clean = 0;
        for (stats, _) in &runs {
            let slots = (stats.broadcasts - stats.sender_faults) * LEAVES as u64;
            assert_eq!(
                stats.deliveries + stats.receiver_faults + stats.erasures,
                slots,
                "{}",
                case.channel
            );
            clean += slots;
        }
        assert_rate(
            "losses per clean listener-slot",
            case.channel,
            erasures + receiver_faults,
            clean,
            case.d,
        );
    }
}

#[test]
fn a_leaf_loses_one_minus_the_product_of_survivals() {
    // One leaf's slots are independent across rounds (each round draws
    // the centre's sender fault and the leaf's loss afresh), while the
    // leaves of one round share the sender fault; so the count is taken
    // at a single leaf.
    for case in cases() {
        let runs = runs(case.channel);
        let heard: u64 = runs.iter().map(|&(_, packets)| packets).sum();
        let slots = ROUNDS * SEEDS.len() as u64;
        let p = 1.0 - (1.0 - case.s) * (1.0 - case.d);
        assert_rate(
            "losses per leaf slot",
            case.channel,
            slots - heard,
            slots,
            p,
        );
    }
}
