//! Star-topology schedules (paper §5.1.1).
//!
//! The star — a source adjacent to `n` leaves — is the shared-topology
//! gap witness under receiver faults:
//!
//! * **adaptive routing** needs `Θ(k log n)` rounds: each message must
//!   be rebroadcast until the *last* of `n` independent leaves catches
//!   it, a maximum of geometrics worth `Θ(log n)` (Lemma 15);
//! * **Reed–Solomon coding** needs `O(k + log n)` rounds: every coded
//!   packet is useful to every leaf that hears it, so each leaf just
//!   needs *any* `k` receptions (Lemma 16).
//!
//! Together: a `Θ(log n)` coding gap on a fixed topology (Theorem 17).

use netgraph::{generators, Graph, NodeId};
use radio_model::adaptive::{run_routing, run_routing_telemetry, RoutingOutcome};
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, Simulator};
use radio_obs::PhaseSet;

use crate::schedules::SequentialSourceController;
use crate::{BroadcastRun, CoreError};

/// The star with `leaves` leaves that every schedule here runs on.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if the star has more nodes than a
/// [`NodeId`] can index; it is rejected before anything is allocated.
fn checked_star(leaves: usize) -> Result<Graph, CoreError> {
    generators::checked_node_count("star", leaves.checked_add(1)).map_err(|e| {
        CoreError::InvalidParameter {
            reason: e.to_string(),
        }
    })?;
    Ok(generators::star(leaves))
}

/// Runs the Lemma 15 adaptive routing schedule on a star with
/// `leaves` leaves: broadcast `m_1` until every leaf has it, then
/// `m_2`, and so on.
///
/// # Errors
///
/// Propagates simulator configuration errors;
/// [`CoreError::InvalidParameter`] if the star has more than 2³² nodes.
pub fn star_routing(
    leaves: usize,
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<RoutingOutcome, CoreError> {
    let g = checked_star(leaves)?;
    let mut c = SequentialSourceController {
        source: NodeId::new(0),
    };
    Ok(run_routing(
        &g,
        fault,
        NodeId::new(0),
        k,
        &mut c,
        seed,
        max_rounds,
    )?)
}

/// [`star_routing`] with per-phase wall-clock attribution: also
/// returns the [`PhaseSet`] splitting the run between
/// `routing/decide` and `routing/resolve` (see
/// [`run_routing_telemetry`]). The outcome is bit-identical to
/// [`star_routing`].
///
/// # Errors
///
/// As [`star_routing`].
pub fn star_routing_telemetry(
    leaves: usize,
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<(RoutingOutcome, PhaseSet), CoreError> {
    let g = checked_star(leaves)?;
    let mut c = SequentialSourceController {
        source: NodeId::new(0),
    };
    Ok(run_routing_telemetry(
        &g,
        fault,
        NodeId::new(0),
        k,
        &mut c,
        seed,
        max_rounds,
    )?)
}

/// Center behavior for the coding schedule: broadcast a fresh coded
/// packet id every round (Reed–Solomon guarantees any `k` distinct
/// packets decode; validity of that black box is proven in
/// [`radio_coding::rs`], so the simulation carries packet *ids*).
#[derive(Debug, Clone)]
enum CodingNode {
    /// The source; emits packet `round` each round, and holds every
    /// message from the start.
    Center,
    /// A leaf counting down the packets it still needs to decode (all
    /// packets are globally distinct, so a counter suffices). It stops
    /// at 0, where it has decoded.
    Leaf { needed: u64 },
}

impl NodeBehavior<u64> for CodingNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
        match self {
            CodingNode::Center => Action::Broadcast(ctx.round),
            CodingNode::Leaf { .. } => Action::Listen,
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
        if !rx.is_packet() {
            return;
        }
        if let CodingNode::Leaf { needed } = self {
            *needed = needed.saturating_sub(1);
        }
    }

    fn decoded(&self) -> bool {
        match self {
            CodingNode::Center => true,
            CodingNode::Leaf { needed } => *needed == 0,
        }
    }

    // Quiescence opt-in: leaves never broadcast and only count
    // packets, so the act sweep can skip them every round — the
    // engine's reach set still delivers the center's broadcasts.
    fn next_act(&self) -> u64 {
        match self {
            CodingNode::Center => 0,
            CodingNode::Leaf { .. } => u64::MAX,
        }
    }

    // Only a packet changes a leaf (see `receive`), `queued` keeps its
    // default, and a decoded leaf's count stays at 0: the engine calls
    // only the leaves a packet reached, and a leaf no more once it has
    // decoded. The center never listens.
    const SILENCE_TRANSPARENT: bool = true;
}

/// The center, then `leaves` leaves that each need `k` packets.
fn coding_nodes(leaves: usize, k: u64) -> Vec<CodingNode> {
    std::iter::once(CodingNode::Center)
        .chain((0..leaves).map(|_| CodingNode::Leaf { needed: k }))
        .collect()
}

/// Runs the Lemma 16 Reed–Solomon coding schedule on a star until
/// every leaf holds `k` coded packets (and can therefore decode all
/// `k` messages), or `max_rounds` elapse.
///
/// A leaf reports [`NodeBehavior::decoded`] from its `k`-th packet on,
/// so the run stops on [`Simulator::run_until_decoded`]'s O(1) count,
/// and the engine settles each leaf there and hands it no more
/// packets. The returned stats count the decoded nodes, the center
/// and every leaf that finished.
///
/// # Errors
///
/// Propagates simulator configuration errors;
/// [`CoreError::InvalidParameter`] if `k == 0` or the star has more
/// than 2³² nodes.
pub fn star_coding(
    leaves: usize,
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastRun, CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "k must be ≥ 1".into(),
        });
    }
    let g = checked_star(leaves)?;
    let mut sim = Simulator::new(&g, fault, coding_nodes(leaves, k as u64), seed)?;
    let rounds = sim.run_until_decoded(max_rounds);
    Ok(BroadcastRun {
        rounds,
        stats: *sim.stats(),
    })
}

/// End-to-end Reed–Solomon validation on a small star: run the coding
/// schedule with *real* GF(2¹⁶) packets and verify every leaf decodes
/// the original messages. The counting abstraction used by
/// [`star_coding`] is justified by this path.
///
/// Returns the number of rounds used.
///
/// # Errors
///
/// Propagates coding and simulator errors;
/// [`CoreError::InvalidParameter`] if the star has more than 2³² nodes.
pub fn star_coding_end_to_end(
    leaves: usize,
    k: usize,
    payload_len: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<u64, CoreError> {
    use radio_coding::rs::ReedSolomon;
    use radio_coding::{Field, Gf65536};

    use std::rc::Rc;

    let g = checked_star(leaves)?;
    let mut rng = radio_model::fork_rng(seed, 0xE2E);
    let data: Rc<Vec<Vec<Gf65536>>> = Rc::new(
        (0..k)
            .map(|_| {
                (0..payload_len)
                    .map(|_| Gf65536::random(&mut rng))
                    .collect()
            })
            .collect(),
    );
    let rs = ReedSolomon::<Gf65536>::new(k)?;
    // The schedule can use at most |F| - 1 distinct packets.
    let max_rounds = max_rounds.min(ReedSolomon::<Gf65536>::capacity() as u64);

    #[derive(Debug)]
    struct RsStarNode {
        is_center: bool,
        k: usize,
        rs: ReedSolomon<Gf65536>,
        data: Rc<Vec<Vec<Gf65536>>>,
        packets: Vec<(usize, Vec<Gf65536>)>,
    }
    impl NodeBehavior<(u64, Vec<Gf65536>)> for RsStarNode {
        fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<(u64, Vec<Gf65536>)> {
            if self.is_center {
                let j = ctx.round as usize;
                let packet = self.rs.packet(&self.data, j).expect("round below capacity");
                Action::Broadcast((ctx.round, packet))
            } else {
                Action::Listen
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<(u64, Vec<Gf65536>)>) {
            let Some(packet) = rx.packet() else { return };
            if self.packets.len() < self.k {
                self.packets.push((packet.0 as usize, packet.1));
            }
        }
    }

    let behaviors: Vec<RsStarNode> = (0..=leaves)
        .map(|i| RsStarNode {
            is_center: i == 0,
            k,
            rs,
            data: Rc::clone(&data),
            packets: Vec::new(),
        })
        .collect();
    let mut sim = Simulator::new(&g, fault, behaviors, seed)?;
    let rounds = sim
        .run_until(max_rounds, |bs| {
            bs.iter().skip(1).all(|b| b.packets.len() >= k)
        })
        .ok_or_else(|| CoreError::InvalidParameter {
            reason: format!("star coding did not finish within {max_rounds} rounds"),
        })?;
    // Decode at every leaf and compare with the source data.
    for b in sim.behaviors().iter().skip(1) {
        let decoded = rs.decode(&b.packets)?;
        if decoded != *data {
            return Err(CoreError::InvalidParameter {
                reason: "leaf decoded different messages".into(),
            });
        }
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_routing_is_k_rounds() {
        // One broadcast per message, each reaching every leaf.
        for leaves in [1usize, 7, 32, 200] {
            for k in [0u64, 1, 10, 64, 70] {
                let out =
                    star_routing(leaves, k as usize, Channel::faultless(), 1, 10_000).unwrap();
                assert_eq!(out.rounds, Some(k), "leaves {leaves}, k {k}");
                assert_eq!(out.broadcasts, k, "leaves {leaves}, k {k}");
                let fresh = leaves as u64 * k;
                assert_eq!(out.fresh_deliveries, fresh, "leaves {leaves}, k {k}");
            }
        }
    }

    #[test]
    fn noisy_routing_pays_log_n_per_message() {
        let leaves = 256;
        let k = 32;
        let out = star_routing(leaves, k, Channel::receiver(0.5).unwrap(), 3, 1_000_000).unwrap();
        let per_msg = out.rounds.unwrap() as f64 / k as f64;
        // E[per message] ≈ log2(256) + O(1) = 8..12.
        assert!(
            (5.0..16.0).contains(&per_msg),
            "per-message rounds {per_msg}"
        );
    }

    #[test]
    fn noisy_coding_is_constant_per_message() {
        let leaves = 256;
        let k = 64;
        let run = star_coding(leaves, k, Channel::receiver(0.5).unwrap(), 5, 1_000_000).unwrap();
        let per_msg = run.rounds_used() as f64 / k as f64;
        // Each leaf needs k receptions at rate (1-p) = 1/2: ~2 rounds
        // per message plus a log n tail.
        assert!(
            (1.5..5.0).contains(&per_msg),
            "per-message rounds {per_msg}"
        );
    }

    #[test]
    fn coding_beats_routing_by_growing_factor() {
        // The Theorem 17 gap, miniaturized: ratio at n=64 < ratio at
        // n=1024.
        let k = 24;
        let gap_at = |leaves: usize| {
            let r = star_routing(leaves, k, Channel::receiver(0.5).unwrap(), 7, 1_000_000)
                .unwrap()
                .rounds
                .unwrap() as f64;
            let c = star_coding(leaves, k, Channel::receiver(0.5).unwrap(), 7, 1_000_000)
                .unwrap()
                .rounds_used() as f64;
            r / c
        };
        let small = gap_at(64);
        let large = gap_at(4096);
        assert!(
            large > small,
            "gap should grow with n: gap(64) = {small:.2}, gap(4096) = {large:.2}"
        );
        assert!(small > 1.0, "coding must already win at n = 64");
    }

    #[test]
    fn end_to_end_rs_decoding_matches_counting_abstraction() {
        let rounds =
            star_coding_end_to_end(16, 8, 4, Channel::receiver(0.3).unwrap(), 11, 10_000).unwrap();
        assert!(rounds >= 8, "at least k rounds required, got {rounds}");
    }

    #[test]
    fn star_beyond_node_id_range_is_rejected_before_it_is_built() {
        // 2³² leaves make 2³² + 1 nodes, one more than `NodeId` holds;
        // building that star would push 2³² edges first.
        let fault = Channel::faultless();
        for leaves in [1usize << 32, usize::MAX] {
            let rejected = |r: Result<(), CoreError>| {
                assert!(
                    matches!(r, Err(CoreError::InvalidParameter { .. })),
                    "{leaves} leaves: {r:?}"
                );
            };
            rejected(star_routing(leaves, 1, fault, 0, 10).map(drop));
            rejected(star_routing_telemetry(leaves, 1, fault, 0, 10).map(drop));
            rejected(star_coding(leaves, 1, fault, 0, 10).map(drop));

            rejected(star_coding_end_to_end(leaves, 1, 1, fault, 0, 10).map(drop));
        }
    }

    #[test]
    fn zero_k_rejected() {
        assert!(matches!(
            star_coding(4, 0, Channel::faultless(), 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn coding_leaves_match_the_opaque_oracle() {
        // Leaves are called only when a packet reaches them, and no
        // more once they hold `k` packets; behind `Opaque` they hear
        // every noise and erasure, and every packet after the k-th.
        let k = 8;
        let channels = [
            Channel::faultless(),
            Channel::receiver(0.3).unwrap(),
            Channel::sender(0.2)
                .unwrap()
                .compose(Channel::erasure(0.3).unwrap())
                .unwrap(),
        ];
        for leaves in [150, 299] {
            let g = generators::star(leaves);
            let behaviors = coding_nodes(leaves, k);
            for channel in channels {
                crate::opaque::assert_matches_opaque(&g, channel, &behaviors, 8, 60);
                // Every leaf settles well inside the oracle's 60 rounds.
                let run = star_coding(leaves, k as usize, channel, 8, 60).unwrap();
                assert!(
                    run.rounds.is_some_and(|r| r < 40),
                    "{leaves} leaves, {channel}"
                );
            }
        }
    }

    #[test]
    fn sender_faults_also_handled() {
        let out = star_routing(64, 8, Channel::sender(0.5).unwrap(), 9, 1_000_000).unwrap();
        assert!(out.rounds.is_some());
        let run = star_coding(64, 8, Channel::sender(0.5).unwrap(), 9, 1_000_000).unwrap();
        assert!(run.completed());
    }
}
