//! Worst-case-topology schedules (paper §5.1.2).
//!
//! On the WCT (clusters of receivers duplicated from the collision
//! network of \[19\], see [`netgraph::wct`]):
//!
//! * at most an `O(1/log n)` fraction of clusters hears a
//!   collision-free packet per round, whatever the broadcast set
//!   (Lemma 18) — measured here by [`max_fraction_receiving_probe`];
//! * **adaptive routing** throughput is `Θ(1/log² n)` (Lemmas 19–22):
//!   each cluster behaves like a star needing `Ω(k log n)` receptions,
//!   and only a `1/log n` fraction of clusters makes progress per
//!   round. The matching schedule is the [bipartite
//!   pipeline](crate::schedules::pipeline), wrapped by [`wct_routing`];
//! * **coding** throughput is `Θ(1/log n)` (Lemma 23): with
//!   Reed–Solomon packets every reception is useful, so a cluster
//!   member needs only `k` receptions total — implemented by
//!   [`wct_coding`] as a two-stage schedule (source → senders, then
//!   class-rotating sender subsets → clusters).
//!
//! Together: the worst-case topology gap of Theorem 24 is `Θ(log n)`.

use netgraph::wct::Wct;
use netgraph::NodeId;
use radio_model::adaptive::RoutingOutcome;
use radio_model::{fork_rng, Channel};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::schedules::pipeline::pipeline_routing;
use crate::transform::sole_sender;
use crate::CoreError;

/// Empirical Lemma 18 probe: the maximum fraction of clusters that
/// receive a collision-free packet in one round, over a family of
/// broadcast sets (all prefix sizes `1, 2, 4, …` and `trials` random
/// subsets of each size).
pub fn max_fraction_receiving_probe(wct: &Wct, trials: u64, seed: u64) -> f64 {
    let senders = wct.senders();
    let mut rng = fork_rng(seed, 0x18);
    let mut worst: f64 = 0.0;
    let mut size = 1usize;
    while size <= senders.len() {
        let prefix: Vec<NodeId> = senders[..size].to_vec();
        worst = worst.max(wct.fraction_of_clusters_receiving(&prefix));
        for _ in 0..trials {
            let mut pool: Vec<NodeId> = senders.to_vec();
            pool.shuffle(&mut rng);
            pool.truncate(size);
            worst = worst.max(wct.fraction_of_clusters_receiving(&pool));
        }
        size *= 2;
    }
    worst
}

/// Adaptive routing on the WCT via the bipartite pipeline (the
/// Lemma 21 schedule, which Lemma 19 proves is within constants of
/// optimal here). Returns the routing outcome for `k` messages.
///
/// # Errors
///
/// Propagates pipeline construction and simulator errors.
pub fn wct_routing(
    wct: &Wct,
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<RoutingOutcome, CoreError> {
    pipeline_routing(wct.graph(), wct.source(), k, fault, seed, max_rounds)
}

/// Outcome of the WCT coding schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WctCodingRun {
    /// Rounds until every sender and every cluster member held ≥ k
    /// coded packets, or `None` if the budget ran out.
    pub rounds: Option<u64>,
    /// Rounds spent before the last sender became ready.
    pub sender_phase_rounds: u64,
}

/// The Lemma 23 coding schedule on the WCT.
///
/// Every round the source broadcasts a fresh Reed–Solomon packet
/// (senders need any `k` to decode and re-encode). Ready senders
/// broadcast fresh packets in class-rotating subsets: to serve
/// degree-class `c` (expected cluster degree `m/2^c`), a uniformly
/// random subset of `≈ 2^c` ready senders broadcasts, so class-`c`
/// clusters see exactly one broadcaster with constant probability.
/// All packets are globally distinct, so every collision-free, fault-
/// free reception is innovative and a cluster member finishes after
/// `k` receptions.
///
/// The Reed–Solomon black box (any `k` distinct packets decode) is
/// proven in [`radio_coding::rs`]; the simulation tracks packet
/// counts.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if `k == 0`;
/// [`CoreError::Model`] for an invalid fault model.
pub fn wct_coding(
    wct: &Wct,
    k: usize,
    fault: Channel,
    seed: u64,
    max_rounds: u64,
) -> Result<WctCodingRun, CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "k must be ≥ 1".into(),
        });
    }
    let p = fault.fault_probability();
    let mut fault_rng = fork_rng(seed, 1);
    let mut sched_rng = fork_rng(seed, 2);

    let m = wct.senders().len();
    let classes = (usize::BITS - (m - 1).leading_zeros()).max(1);
    let mut sender_count = vec![0u64; m];
    let cluster_count = wct.cluster_count();
    let cluster_size = wct.cluster(0).len();
    let mut member_count = vec![vec![0u64; cluster_size]; cluster_count];
    let mut sender_phase_rounds = 0u64;

    for round in 0..max_rounds {
        let all_senders_ready = sender_count.iter().all(|&c| c >= k as u64);
        if all_senders_ready
            && member_count
                .iter()
                .all(|mc| mc.iter().all(|&c| c >= k as u64))
        {
            return Ok(WctCodingRun {
                rounds: Some(round),
                sender_phase_rounds,
            });
        }
        if !all_senders_ready {
            sender_phase_rounds = round + 1;
        }

        // --- choose broadcasters ---
        // Source broadcasts while any sender still needs packets.
        let source_broadcasts = !all_senders_ready;
        // Ready senders serve one degree class per round.
        let class = 1 + (round % u64::from(classes)) as u32;
        let subset_size = 1usize << class.min(30);
        let ready: Vec<usize> = (0..m).filter(|&s| sender_count[s] >= k as u64).collect();
        let mut broadcasting_senders = vec![false; m];
        if !ready.is_empty() {
            let take = subset_size.min(ready.len());
            // Uniform subset of the ready senders.
            let mut pool = ready.clone();
            pool.shuffle(&mut sched_rng);
            for &s in pool.iter().take(take) {
                broadcasting_senders[s] = true;
            }
        }

        // --- sender faults: one draw per broadcaster ---
        let source_ok = !fault.is_sender() || !source_broadcasts || !fault_rng.gen_bool(p);
        let mut sender_ok = vec![true; m];
        if fault.is_sender() {
            for s in 0..m {
                if broadcasting_senders[s] && fault_rng.gen_bool(p) {
                    sender_ok[s] = false;
                }
            }
        }

        // --- resolve sender receptions (from the source) ---
        if source_broadcasts && source_ok {
            for s in 0..m {
                if broadcasting_senders[s] {
                    continue; // half-duplex: broadcasting senders miss the source
                }
                if (fault.is_receiver() || fault.is_erasure()) && fault_rng.gen_bool(p) {
                    continue;
                }
                sender_count[s] += 1;
            }
        }

        // --- resolve cluster receptions ---
        for c in 0..cluster_count {
            // Senders are nodes 1..=m.
            let shared = wct.cluster_sender_set(c).iter().map(|s| s.index() - 1);
            let Some(s) = sole_sender(shared, |s| broadcasting_senders[s]) else {
                continue;
            };
            if !sender_ok[s] {
                continue;
            }
            for cnt in member_count[c].iter_mut() {
                if (fault.is_receiver() || fault.is_erasure()) && fault_rng.gen_bool(p) {
                    continue;
                }
                *cnt += 1;
            }
        }
    }
    Ok(WctCodingRun {
        rounds: None,
        sender_phase_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::wct::WctParams;

    fn small_wct(seed: u64) -> Wct {
        Wct::generate(WctParams {
            senders: 32,
            clusters_per_class: 6,
            cluster_size: 12,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn lemma18_probe_stays_small() {
        let wct = small_wct(1);
        let frac = max_fraction_receiving_probe(&wct, 5, 3);
        assert!(frac < 0.7, "some broadcast set informed {frac} of clusters");
        assert!(frac > 0.0, "probe should find at least one productive set");
    }

    #[test]
    fn coding_completes_and_scales_linearly_in_k() {
        let wct = small_wct(2);
        let fault = Channel::receiver(0.5).unwrap();
        let r8 = wct_coding(&wct, 8, fault, 5, 10_000_000)
            .unwrap()
            .rounds
            .unwrap();
        let r16 = wct_coding(&wct, 16, fault, 5, 10_000_000)
            .unwrap()
            .rounds
            .unwrap();
        let ratio = r16 as f64 / r8 as f64;
        assert!(
            (1.2..3.5).contains(&ratio),
            "coding rounds should scale ~linearly in k: {r8} -> {r16}"
        );
    }

    #[test]
    fn routing_completes() {
        let wct = small_wct(3);
        let out = wct_routing(&wct, 4, Channel::receiver(0.5).unwrap(), 7, 20_000_000).unwrap();
        assert!(
            out.rounds.is_some(),
            "pipeline routing must finish on the WCT"
        );
    }

    #[test]
    fn routing_pays_more_than_coding() {
        // The Theorem 24 direction at fixed size: routing rounds
        // exceed coding rounds for the same k.
        let wct = small_wct(4);
        let k = 8;
        let fault = Channel::receiver(0.5).unwrap();
        let coding = wct_coding(&wct, k, fault, 9, 10_000_000)
            .unwrap()
            .rounds
            .unwrap();
        let routing = wct_routing(&wct, k, fault, 9, 20_000_000)
            .unwrap()
            .rounds
            .unwrap();
        assert!(
            routing > coding,
            "routing ({routing}) should be slower than coding ({coding})"
        );
    }

    #[test]
    fn sender_phase_is_reported() {
        let wct = small_wct(5);
        let run = wct_coding(&wct, 8, Channel::receiver(0.3).unwrap(), 3, 1_000_000).unwrap();
        assert!(run.rounds.is_some());
        assert!(run.sender_phase_rounds >= 8, "senders need ≥ k rounds");
        assert!(run.sender_phase_rounds <= run.rounds.unwrap());
    }

    #[test]
    fn zero_k_rejected() {
        let wct = small_wct(6);
        assert!(matches!(
            wct_coding(&wct, 0, Channel::faultless(), 0, 10),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let wct = small_wct(7);
        let run = wct_coding(&wct, 64, Channel::receiver(0.5).unwrap(), 1, 10).unwrap();
        assert_eq!(run.rounds, None);
    }
}
