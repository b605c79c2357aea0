//! Faultless → faulty schedule transformations (paper §5.2).
//!
//! * **Lemma 25** — any faultless *routing* schedule of throughput `τ`
//!   becomes an adaptive routing schedule of throughput `τ(1−p)` under
//!   **sender faults**: each base round is dilated into a meta-round of
//!   `⌈x(1+η)/(1−p)⌉` rounds; a node that broadcast message `m_i` now
//!   carries a group of `x` messages `m_{i,1..x}` and repeats each
//!   until a non-faulty transmission, then goes silent. Collisions are
//!   a subset of the base schedule's, so the base delivery pattern is
//!   preserved whenever every sender drains its queue — which fails
//!   with probability `exp(−Ω(xη²))` per meta-round.
//! * **Lemma 26** — any faultless *coding* schedule of throughput `τ`
//!   becomes a coding schedule of throughput `τ(1−p)` under **sender
//!   or receiver faults**: the node Reed–Solomon-encodes the `x` coded
//!   packets it would have sent (one per message group) into
//!   `⌈x/((1−p)(1−η))⌉` packets and broadcasts them through the
//!   meta-round; every receiver that the base round served needs *any*
//!   `x` of them.
//!
//! These transformations are why sender faults change almost nothing
//! (Theorems 27–28: the faultless gaps of Alon et al. carry over),
//! in sharp contrast to receiver faults (Theorem 24).

use netgraph::{Graph, NodeId};
use radio_model::{fork_rng, BitMatrix, Channel};
use rand::Rng;

use crate::CoreError;

/// Whom a listener hears in a collision-model round: the one element of
/// `neighbors` that `broadcasts`, or `None` if none does or several do.
/// Stops at the second broadcaster, and draws no randomness.
pub(crate) fn sole_sender<T: Copy>(
    neighbors: impl IntoIterator<Item = T>,
    mut broadcasts: impl FnMut(T) -> bool,
) -> Option<T> {
    let mut senders = neighbors.into_iter().filter(|&u| broadcasts(u));
    let first = senders.next()?;
    senders.next().is_none().then_some(first)
}

/// A faultless routing schedule given explicitly: `actions[r][v]` is
/// the message node `v` broadcasts in round `r` (`None` = silent).
///
/// Use [`BaseSchedule::validate_faultless`] to check the schedule
/// actually broadcasts every message to every node in the faultless
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseSchedule {
    /// Number of messages `k`.
    pub k: usize,
    /// Per-round, per-node actions.
    pub actions: Vec<Vec<Option<usize>>>,
}

impl BaseSchedule {
    /// The sequential star schedule: the source (node 0) broadcasts
    /// message `i` in round `i`. Faultless throughput 1.
    pub fn star(leaves: usize, k: usize) -> Self {
        let n = leaves + 1;
        let actions = (0..k)
            .map(|i| {
                let mut row = vec![None; n];
                row[0] = Some(i);
                row
            })
            .collect();
        BaseSchedule { k, actions }
    }

    /// The sequential single-link schedule (a star with one leaf).
    pub fn single_link(k: usize) -> Self {
        Self::star(1, k)
    }

    /// The classic pipelined path schedule: node `j` broadcasts
    /// message `m` in round `3m + j`. Messages march down the path
    /// three rounds apart, so broadcasters are ≥ 3 nodes apart and
    /// never collide. Faultless throughput 1/3.
    pub fn path_pipelined(n: usize, k: usize) -> Self {
        let total = if n == 0 { 0 } else { 3 * k + n };
        let mut actions = vec![vec![None; n]; total];
        for m in 0..k {
            for j in 0..n {
                let r = 3 * m + j;
                if r < total {
                    actions[r][j] = Some(m);
                }
            }
        }
        BaseSchedule { k, actions }
    }

    /// Number of rounds in the schedule.
    pub fn round_count(&self) -> usize {
        self.actions.len()
    }

    /// Simulates the schedule in the faultless model and reports
    /// whether it broadcasts all `k` messages from `source` to every
    /// node. Also returns the delivery pattern
    /// `(round, sender, receiver)` used by the coding transform.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if action rows have the wrong
    /// width; [`CoreError::Model`] if the `n × k` knowledge matrix does
    /// not fit in memory.
    pub fn validate_faultless(
        &self,
        graph: &Graph,
        source: NodeId,
    ) -> Result<FaultlessTrace, CoreError> {
        let n = graph.node_count();
        let mut knowledge = BitMatrix::new(n, self.k)?;
        for m in 0..self.k {
            knowledge.set(source.index(), m);
        }
        let mut deliveries = Vec::new();
        for (r, row) in self.actions.iter().enumerate() {
            if row.len() != n {
                return Err(CoreError::InvalidParameter {
                    reason: format!("round {r} has {} actions for {n} nodes", row.len()),
                });
            }
            // Routing semantics: only known messages are sent.
            let sending: Vec<Option<usize>> = row
                .iter()
                .enumerate()
                .map(|(v, a)| a.filter(|&m| knowledge.get(v, m)))
                .collect();
            for v in 0..n {
                if sending[v].is_some() {
                    continue;
                }
                let neighbors = graph.neighbors(NodeId::from_index(v)).iter().copied();
                if let Some(u) = sole_sender(neighbors, |u| sending[u.index()].is_some()) {
                    let m = sending[u.index()].expect("sender has message");
                    // Only fresh deliveries matter downstream: a node
                    // that re-hears a message it already has derives
                    // nothing new from it (the Lemma 26 induction only
                    // re-serves informative receptions).
                    if knowledge.set(v, m) {
                        deliveries.push((r as u64, u, NodeId::from_index(v)));
                    }
                }
            }
        }
        Ok(FaultlessTrace {
            complete: knowledge.all_ones(),
            deliveries,
        })
    }
}

/// Result of a faultless validation run of a [`BaseSchedule`].
#[derive(Debug, Clone)]
pub struct FaultlessTrace {
    /// Whether every node ends with every message.
    pub complete: bool,
    /// All `(round, sender, receiver)` deliveries.
    pub deliveries: Vec<(u64, NodeId, NodeId)>,
}

/// Result of running a transformed schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformRun {
    /// Rounds the transformed schedule used.
    pub total_rounds: u64,
    /// Rounds the base schedule used.
    pub base_rounds: u64,
    /// Total messages carried (`k · x`).
    pub messages: u64,
    /// Whether every node finished with every message (routing) /
    /// every required reception quota was met (coding).
    pub success: bool,
}

impl TransformRun {
    /// Measured throughput `messages / total_rounds`.
    pub fn throughput(&self) -> f64 {
        self.messages as f64 / self.total_rounds as f64
    }

    /// The base schedule's throughput `k / base_rounds`.
    pub fn base_throughput(&self, k: u64) -> f64 {
        k as f64 / self.base_rounds as f64
    }
}

/// The Lemma 25 transformation (routing, sender faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenderFaultRoutingTransform {
    /// Group size `x` (messages per base message slot). The paper
    /// picks `x = Ω(log(n·k)/η²)`; anything large enough to keep the
    /// per-meta-round failure below `1/(nk)^c` works.
    pub group_size: usize,
    /// Slack `η > 0` in the meta-round length.
    pub eta: f64,
}

impl SenderFaultRoutingTransform {
    /// Meta-round length `⌈x(1+η)/(1−p)⌉`.
    pub fn meta_len(&self, p: f64) -> u64 {
        ((self.group_size as f64) * (1.0 + self.eta) / (1.0 - p)).ceil() as u64
    }

    /// Runs the transformed schedule on `graph` under **sender faults**
    /// with probability `p`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a bad `x`/`η`/`p` or an
    /// invalid base schedule; [`CoreError::Model`] if the knowledge
    /// matrix of `n × k·x` bits does not fit in memory.
    pub fn run(
        &self,
        graph: &Graph,
        base: &BaseSchedule,
        source: NodeId,
        p: f64,
        seed: u64,
    ) -> Result<TransformRun, CoreError> {
        if self.group_size == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "group size must be ≥ 1".into(),
            });
        }
        if !(0.0..1.0).contains(&p) {
            return Err(CoreError::InvalidParameter {
                reason: format!("fault probability {p} outside [0, 1)"),
            });
        }
        if !(self.eta > 0.0) {
            return Err(CoreError::InvalidParameter {
                reason: "η must be > 0".into(),
            });
        }
        let n = graph.node_count();
        let x = self.group_size;
        let k_total = base.k * x;
        let meta_len = self.meta_len(p);
        let mut knowledge = BitMatrix::new(n, k_total)?;
        for m in 0..k_total {
            knowledge.set(source.index(), m);
        }
        let mut rng = fork_rng(seed, 0x25);
        let mut total_rounds = 0u64;

        // Per meta-round state: each base-broadcaster owns a queue of
        // the x messages of its group that it currently knows.
        for row in &base.actions {
            if row.len() != n {
                return Err(CoreError::InvalidParameter {
                    reason: "base schedule width mismatch".into(),
                });
            }
            let mut queues: Vec<Vec<usize>> = row
                .iter()
                .enumerate()
                .map(|(v, a)| match a {
                    Some(i) => (0..x)
                        .map(|j| i * x + j)
                        .filter(|&msg| knowledge.get(v, msg))
                        .rev() // pop() takes the lowest last -> reverse
                        .collect(),
                    None => Vec::new(),
                })
                .collect();
            for _ in 0..meta_len {
                total_rounds += 1;
                // Broadcasters: queue non-empty. One sender-fault draw each.
                let sending: Vec<Option<usize>> =
                    queues.iter().map(|q| q.last().copied()).collect();
                let faulted: Vec<bool> = sending
                    .iter()
                    .map(|s| s.is_some() && rng.gen_bool(p))
                    .collect();
                // Deliveries.
                for v in 0..n {
                    if sending[v].is_some() {
                        continue;
                    }
                    let neighbors = graph.neighbors(NodeId::from_index(v)).iter().copied();
                    if let Some(u) = sole_sender(neighbors, |u| sending[u.index()].is_some()) {
                        if !faulted[u.index()] {
                            let m = sending[u.index()].expect("sender has message");
                            knowledge.set(v, m);
                        }
                    }
                }
                // Queue advance: a non-faulted transmission succeeds.
                for v in 0..n {
                    if sending[v].is_some() && !faulted[v] {
                        queues[v].pop();
                    }
                }
            }
        }
        Ok(TransformRun {
            total_rounds,
            base_rounds: base.round_count() as u64,
            messages: k_total as u64,
            success: knowledge.all_ones(),
        })
    }
}

/// The Lemma 26 transformation (coding, sender **or** receiver
/// faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodingFaultTransform {
    /// Group size `x`.
    pub group_size: usize,
    /// Slack `η ∈ (0, 1)`.
    pub eta: f64,
}

impl CodingFaultTransform {
    /// Meta-round length `⌈x/((1−p)(1−η))⌉`.
    pub fn meta_len(&self, p: f64) -> u64 {
        ((self.group_size as f64) / ((1.0 - p) * (1.0 - self.eta))).ceil() as u64
    }

    /// Runs the transformed coding schedule. The base schedule's
    /// broadcast pattern and faultless delivery pattern are taken from
    /// `base`/`trace`; in every meta-round each base broadcaster sends
    /// its `meta_len` Reed–Solomon packets, and the run succeeds iff
    /// every base delivery `(r, u → v)` sees at least `x` of `u`'s
    /// packets arrive at `v` in meta-round `r` (then `v` reconstructs
    /// everything it would have known faultlessly — the paper's
    /// induction).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] on bad parameters.
    pub fn run(
        &self,
        graph: &Graph,
        base: &BaseSchedule,
        trace: &FaultlessTrace,
        fault: Channel,
        seed: u64,
    ) -> Result<TransformRun, CoreError> {
        if self.group_size == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "group size must be ≥ 1".into(),
            });
        }
        if !(self.eta > 0.0 && self.eta < 1.0) {
            return Err(CoreError::InvalidParameter {
                reason: "η must be in (0, 1)".into(),
            });
        }
        let p = fault.fault_probability();
        let n = graph.node_count();
        let x = self.group_size as u64;
        let meta_len = self.meta_len(p);
        let mut rng = fork_rng(seed, 0x26);

        // Count, per base delivery (r, u, v), how many of u's packets
        // v receives in meta-round r.
        let mut required: std::collections::HashMap<(u64, u32, u32), u64> = trace
            .deliveries
            .iter()
            .map(|&(r, u, v)| ((r, u.raw(), v.raw()), 0))
            .collect();
        let mut total_rounds = 0u64;

        for (r, row) in base.actions.iter().enumerate() {
            if row.len() != n {
                return Err(CoreError::InvalidParameter {
                    reason: "base schedule width mismatch".into(),
                });
            }
            let sending: Vec<bool> = row.iter().map(Option::is_some).collect();
            for _ in 0..meta_len {
                total_rounds += 1;
                let faulted: Vec<bool> = sending
                    .iter()
                    .map(|&s| s && fault.is_sender() && rng.gen_bool(p))
                    .collect();
                for v in 0..n {
                    if sending[v] {
                        continue;
                    }
                    let neighbors = graph.neighbors(NodeId::from_index(v)).iter().copied();
                    let Some(u) = sole_sender(neighbors, |u| sending[u.index()]) else {
                        continue;
                    };
                    if faulted[u.index()] {
                        continue;
                    }
                    if (fault.is_receiver() || fault.is_erasure()) && rng.gen_bool(p) {
                        continue;
                    }
                    if let Some(count) = required.get_mut(&(r as u64, u.raw(), v as u32)) {
                        *count += 1;
                    }
                }
            }
        }
        let success = required.values().all(|&c| c >= x);
        Ok(TransformRun {
            total_rounds,
            base_rounds: base.round_count() as u64,
            messages: base.k as u64 * x,
            success,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    #[test]
    fn base_star_schedule_validates() {
        let g = generators::star(8);
        let base = BaseSchedule::star(8, 5);
        let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
        assert!(trace.complete);
        assert_eq!(trace.deliveries.len(), 5 * 8);
    }

    #[test]
    fn base_path_pipeline_validates() {
        let g = generators::path(10);
        let base = BaseSchedule::path_pipelined(10, 7);
        let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
        assert!(
            trace.complete,
            "pipelined path schedule must deliver everything"
        );
        // Each of 7 messages crosses 9 edges.
        assert_eq!(trace.deliveries.len(), 7 * 9);
    }

    #[test]
    fn routing_transform_star_succeeds_with_sender_faults() {
        let g = generators::star(16);
        let base = BaseSchedule::star(16, 4);
        let t = SenderFaultRoutingTransform {
            group_size: 64,
            eta: 0.5,
        };
        let run = t.run(&g, &base, NodeId::new(0), 0.4, 3).unwrap();
        assert!(run.success, "transform must deliver all grouped messages");
        // Throughput ratio ≈ (1-p)/(1+η) = 0.6/1.5 = 0.4 of base (=1).
        let ratio = run.throughput() / run.base_throughput(4);
        assert!((0.3..0.55).contains(&ratio), "throughput ratio {ratio}");
    }

    #[test]
    fn routing_transform_path_pipeline_succeeds() {
        let g = generators::path(8);
        let base = BaseSchedule::path_pipelined(8, 3);
        let t = SenderFaultRoutingTransform {
            group_size: 96,
            eta: 0.5,
        };
        let run = t.run(&g, &base, NodeId::new(0), 0.3, 5).unwrap();
        assert!(run.success);
        // Base throughput 3/(3·3+8) ≈ 0.18; transformed ≈ ·(1-p)/(1+η).
        let ratio = run.throughput() / run.base_throughput(3);
        assert!((0.3..0.6).contains(&ratio), "throughput ratio {ratio}");
    }

    #[test]
    fn routing_transform_with_tiny_group_can_fail() {
        // x = 1, η small: a single fault during the one-slot meta
        // round leaves the message undelivered for that base slot;
        // with many messages failure is near-certain.
        let g = generators::star(4);
        let base = BaseSchedule::star(4, 32);
        let t = SenderFaultRoutingTransform {
            group_size: 1,
            eta: 0.01,
        };
        let run = t.run(&g, &base, NodeId::new(0), 0.5, 7).unwrap();
        assert!(!run.success, "x=1 under p=0.5 should drop messages");
    }

    #[test]
    fn coding_transform_succeeds_under_both_fault_kinds() {
        let g = generators::path(6);
        let base = BaseSchedule::path_pipelined(6, 3);
        let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
        let t = CodingFaultTransform {
            group_size: 64,
            eta: 0.3,
        };
        for fault in [
            Channel::sender(0.4).unwrap(),
            Channel::receiver(0.4).unwrap(),
        ] {
            let run = t.run(&g, &base, &trace, fault, 9).unwrap();
            assert!(run.success, "coding transform must succeed under {fault}");
            let ratio = run.throughput() / run.base_throughput(3);
            // (1-p)(1-η) = 0.42 of base throughput.
            assert!(
                (0.3..0.6).contains(&ratio),
                "{fault}: throughput ratio {ratio}"
            );
        }
    }

    #[test]
    fn coding_transform_with_no_slack_fails_sometimes() {
        let g = generators::single_link();
        let base = BaseSchedule::single_link(16);
        let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
        // meta_len = x exactly (η→0 not allowed; emulate by tiny η and
        // p = 0.5): every packet must arrive, which fails w.h.p.
        let t = CodingFaultTransform {
            group_size: 32,
            eta: 1e-9,
        };
        let run = t
            .run(&g, &base, &trace, Channel::receiver(0.5).unwrap(), 11)
            .unwrap();
        assert!(!run.success);
    }

    #[test]
    fn parameter_validation() {
        let g = generators::single_link();
        let base = BaseSchedule::single_link(2);
        let trace = base.validate_faultless(&g, NodeId::new(0)).unwrap();
        assert!(SenderFaultRoutingTransform {
            group_size: 0,
            eta: 0.5
        }
        .run(&g, &base, NodeId::new(0), 0.5, 0)
        .is_err());
        assert!(SenderFaultRoutingTransform {
            group_size: 4,
            eta: 0.0
        }
        .run(&g, &base, NodeId::new(0), 0.5, 0)
        .is_err());
        assert!(SenderFaultRoutingTransform {
            group_size: 4,
            eta: 0.5
        }
        .run(&g, &base, NodeId::new(0), 1.0, 0)
        .is_err());
        assert!(CodingFaultTransform {
            group_size: 0,
            eta: 0.5
        }
        .run(&g, &base, &trace, Channel::faultless(), 0)
        .is_err());
        assert!(CodingFaultTransform {
            group_size: 4,
            eta: 1.5
        }
        .run(&g, &base, &trace, Channel::faultless(), 0)
        .is_err());
    }

    #[test]
    fn meta_len_formulas() {
        let t = SenderFaultRoutingTransform {
            group_size: 10,
            eta: 0.5,
        };
        assert_eq!(t.meta_len(0.5), 30); // 10 * 1.5 / 0.5
        let c = CodingFaultTransform {
            group_size: 10,
            eta: 0.5,
        };
        assert_eq!(c.meta_len(0.5), 40); // 10 / (0.5 * 0.5)
    }
}
