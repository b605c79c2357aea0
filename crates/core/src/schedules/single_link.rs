//! Single-link schedules (paper Appendix A).
//!
//! Two nodes joined by one edge. With constant fault probability:
//!
//! * **non-adaptive routing** must decide in advance how often to
//!   repeat each message; `Θ(log k)` repetitions are necessary and
//!   sufficient for failure probability `≤ 1/k`, so the throughput is
//!   `Θ(1/log k)` (Lemma 29);
//! * **coding** sends `~k/(1−p)` Reed–Solomon packets, any `k` of
//!   which decode: throughput `Θ(1)` (Lemma 30);
//! * **adaptive routing** repeats each message until it is received:
//!   `k/(1−p)` rounds in expectation, throughput `Θ(1)` (Lemma 32).
//!
//! Hence a `Θ(log k)` coding gap without adaptivity (Lemma 31) that
//! collapses to `Θ(1)` with adaptivity (Lemma 33).

use netgraph::{generators, NodeId};
use radio_model::adaptive::run_routing;
use radio_model::{Action, Channel, Ctx, NodeBehavior, Reception, Simulator};

use crate::schedules::SequentialSourceController;
use crate::{BroadcastRun, CoreError};

/// Outcome of a fixed-length (non-adaptive) single-link run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLengthRun {
    /// Total rounds the schedule used (always `k × repetitions` for
    /// routing, `total_packets` for coding).
    pub rounds: u64,
    /// Whether the receiver could reconstruct all `k` messages.
    pub success: bool,
}

/// Sender behavior for the non-adaptive routing schedule: message `i`
/// is broadcast in rounds `[i·reps, (i+1)·reps)`.
#[derive(Debug, Clone)]
enum LinkNode {
    RoutingSender {
        reps: u64,
        k: u64,
    },
    /// Receiver tracking which messages arrived.
    RoutingReceiver {
        got: Vec<bool>,
    },
    CodingSender,
    CodingReceiver {
        received: u64,
    },
}

impl NodeBehavior<u64> for LinkNode {
    fn act(&mut self, ctx: &mut Ctx<'_>) -> Action<u64> {
        match self {
            LinkNode::RoutingSender { reps, k } => {
                let msg = ctx.round / *reps;
                if msg < *k {
                    Action::Broadcast(msg)
                } else {
                    Action::Listen
                }
            }
            LinkNode::CodingSender => Action::Broadcast(ctx.round),
            _ => Action::Listen,
        }
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
        let Some(packet) = rx.packet() else { return };
        match self {
            LinkNode::RoutingReceiver { got } => {
                if let Some(slot) = got.get_mut(packet as usize) {
                    *slot = true;
                }
            }
            LinkNode::CodingReceiver { received } => *received += 1,
            _ => {}
        }
    }
}

/// Lemma 29's non-adaptive routing schedule: each of the `k` messages
/// is broadcast `repetitions` times, blindly. Succeeds iff every
/// message got through at least once.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if `k == 0` or `repetitions == 0`.
pub fn single_link_nonadaptive_routing(
    k: usize,
    repetitions: u64,
    fault: Channel,
    seed: u64,
) -> Result<FixedLengthRun, CoreError> {
    if k == 0 || repetitions == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "k and repetitions must be ≥ 1".into(),
        });
    }
    let g = generators::single_link();
    let behaviors = vec![
        LinkNode::RoutingSender {
            reps: repetitions,
            k: k as u64,
        },
        LinkNode::RoutingReceiver {
            got: vec![false; k],
        },
    ];
    let mut sim = Simulator::new(&g, fault, behaviors, seed)?;
    let rounds = k as u64 * repetitions;
    sim.run(rounds);
    let success = match &sim.behaviors()[1] {
        LinkNode::RoutingReceiver { got } => got.iter().all(|&b| b),
        _ => unreachable!("receiver is node 1"),
    };
    Ok(FixedLengthRun { rounds, success })
}

/// Lemma 30's coding schedule: broadcast `total_packets` fresh coded
/// packets; the receiver decodes iff at least `k` arrive.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if `k == 0` or `total_packets == 0`.
pub fn single_link_coding(
    k: usize,
    total_packets: u64,
    fault: Channel,
    seed: u64,
) -> Result<FixedLengthRun, CoreError> {
    if k == 0 || total_packets == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "k and total_packets must be ≥ 1".into(),
        });
    }
    let g = generators::single_link();
    let behaviors = vec![
        LinkNode::CodingSender,
        LinkNode::CodingReceiver { received: 0 },
    ];
    let mut sim = Simulator::new(&g, fault, behaviors, seed)?;
    sim.run(total_packets);
    let success = match &sim.behaviors()[1] {
        LinkNode::CodingReceiver { received } => *received >= k as u64,
        _ => unreachable!("receiver is node 1"),
    };
    Ok(FixedLengthRun {
        rounds: total_packets,
        success,
    })
}

/// Lemma 32's adaptive routing schedule: the source repeats each
/// message until the receiver has it, then moves on. Returns the
/// rounds used (`≈ k/(1−p)`).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn single_link_adaptive_routing(
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<BroadcastRun, CoreError> {
    let g = generators::single_link();
    let mut c = SequentialSourceController {
        source: NodeId::new(0),
    };
    let out = run_routing(&g, fault, NodeId::new(0), k, &mut c, seed, max_rounds)?;
    Ok(BroadcastRun {
        rounds: out.rounds,
        stats: Default::default(),
    })
}

/// Empirically finds the smallest repetition count whose non-adaptive
/// schedule succeeds in at least `required` of `trials` runs — the
/// `Θ(log k)` of Lemma 29, measured.
///
/// # Errors
///
/// Propagates [`single_link_nonadaptive_routing`] errors.
pub fn minimal_repetitions_for_success(
    k: usize,
    fault: Channel,
    trials: u64,
    required: u64,
    max_repetitions: u64,
) -> Result<Option<u64>, CoreError> {
    for reps in 1..=max_repetitions {
        let mut ok = 0;
        for t in 0..trials {
            if single_link_nonadaptive_routing(k, reps, fault, 0x51E6 + 7919 * t)?.success {
                ok += 1;
            }
        }
        if ok >= required {
            return Ok(Some(reps));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_nonadaptive_needs_one_repetition() {
        let run = single_link_nonadaptive_routing(16, 1, Channel::faultless(), 1).unwrap();
        assert!(run.success);
        assert_eq!(run.rounds, 16);
    }

    #[test]
    fn noisy_nonadaptive_single_repetition_fails_for_large_k() {
        // With p = 1/2 and one repetition, all k messages survive with
        // probability 2^-k: k = 64 fails essentially always.
        let run =
            single_link_nonadaptive_routing(64, 1, Channel::receiver(0.5).unwrap(), 3).unwrap();
        assert!(!run.success);
    }

    #[test]
    fn log_k_repetitions_suffice() {
        // Lemma 29 upper bound: c·log k repetitions with c = 3 at
        // p = 1/2 gives failure probability ≤ k · 2^{-3 log k} = 1/k².
        let k = 64;
        let reps = 3 * 6; // 3 log2(64)
        let mut ok = 0;
        for seed in 0..20 {
            if single_link_nonadaptive_routing(
                k,
                reps as u64,
                Channel::receiver(0.5).unwrap(),
                seed,
            )
            .unwrap()
            .success
            {
                ok += 1;
            }
        }
        assert!(ok >= 19, "only {ok}/20 succeeded with 3 log k repetitions");
    }

    #[test]
    fn minimal_repetitions_grow_with_k() {
        // The Θ(log k) shape: the required repetition count increases
        // from k = 4 to k = 256.
        let fault = Channel::receiver(0.5).unwrap();
        let small = minimal_repetitions_for_success(4, fault, 10, 9, 64)
            .unwrap()
            .unwrap();
        let large = minimal_repetitions_for_success(256, fault, 10, 9, 64)
            .unwrap()
            .unwrap();
        assert!(large > small, "reps(4) = {small}, reps(256) = {large}");
    }

    #[test]
    fn coding_with_linear_packets_succeeds() {
        // Lemma 30: ~k/(1-p)·(1+slack) packets decode w.h.p.
        let k = 128;
        let total = (k as f64 / 0.5 * 1.3) as u64;
        let mut ok = 0;
        for seed in 0..20 {
            if single_link_coding(k, total, Channel::receiver(0.5).unwrap(), seed)
                .unwrap()
                .success
            {
                ok += 1;
            }
        }
        assert!(ok >= 19, "only {ok}/20 coding runs succeeded");
    }

    #[test]
    fn coding_with_k_packets_fails_under_faults() {
        let k = 64;
        let run = single_link_coding(k, k as u64, Channel::receiver(0.5).unwrap(), 5).unwrap();
        assert!(!run.success, "k packets cannot survive p=1/2 erasures");
    }

    #[test]
    fn adaptive_routing_is_constant_throughput() {
        // Lemma 32: ≈ k/(1-p) = 2k rounds at p = 1/2.
        let k = 256;
        let run =
            single_link_adaptive_routing(k, Channel::sender(0.5).unwrap(), 7, 1_000_000).unwrap();
        let rounds = run.rounds_used();
        let per_msg = rounds as f64 / k as f64;
        assert!(
            (1.5..3.0).contains(&per_msg),
            "per-message rounds {per_msg}"
        );
    }

    #[test]
    fn adaptive_rounds_per_message_are_geometric() {
        // Lemma 32: each message is repeated until it arrives, so its
        // rounds are geometric with mean 1/(1−p). The mean over 500
        // seeds × 8 messages must sit in its 99.9% confidence interval.
        let (seeds, k) = (500u64, 8usize);
        for p in [0.2, 0.5] {
            for fault in [Channel::sender(p).unwrap(), Channel::receiver(p).unwrap()] {
                let total: u64 = (0..seeds)
                    .map(|i| {
                        let seed = radio_model::fork_seed(0x5EED, i);
                        single_link_adaptive_routing(k, fault, seed, 1_000_000)
                            .unwrap()
                            .rounds_used()
                    })
                    .sum();
                let samples = (seeds * k as u64) as f64;
                let mean = total as f64 / samples;
                let half_width = 3.2905 * (p / ((1.0 - p) * (1.0 - p)) / samples).sqrt();
                let expected = 1.0 / (1.0 - p);
                assert!(
                    (mean - expected).abs() <= half_width,
                    "{fault}: {mean:.4} rounds per message, want {expected:.4} ± {half_width:.4}"
                );
            }
        }
    }

    #[test]
    fn parameter_validation() {
        assert!(single_link_nonadaptive_routing(0, 1, Channel::faultless(), 0).is_err());
        assert!(single_link_nonadaptive_routing(1, 0, Channel::faultless(), 0).is_err());
        assert!(single_link_coding(0, 1, Channel::faultless(), 0).is_err());
        assert!(single_link_coding(1, 0, Channel::faultless(), 0).is_err());
    }
}
