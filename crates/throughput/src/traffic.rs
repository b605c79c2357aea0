//! The continuous-traffic injection/drain engine (DESIGN.md §9).
//!
//! Everything else in the workspace measures *one-shot* broadcasts: a
//! message (or `k`-batch) starts at the source, the run ends when it
//! lands. This module measures the *steady-state* regime the paper's
//! throughput definitions are about: messages arrive at the source at
//! rate `λ` ([`TrafficSource`]), queue behind one another, pipeline
//! through the network under a protocol-specific [`TrafficWorkload`],
//! and drain — or fail to, which is the saturation signal.
//!
//! # The driver contract
//!
//! [`run_traffic`] owns the round loop around a
//! `radio_model::Simulator` and performs, per round `r`:
//!
//! 1. **inject** — messages `m` with `arrival_round(m) == r` are handed
//!    to [`TrafficWorkload::inject`] (round-0 arrivals are injected
//!    *before* simulator construction, so construction-time decode
//!    polls see an informed source, and a one-message run degenerates
//!    bit-for-bit to the one-shot path);
//! 2. **activate** — [`TrafficWorkload::drain`] lets the workload
//!    promote queued messages into service;
//! 3. **step** — one simulator round, recording the end-of-round
//!    total queue depth ([`radio_model::RoundReport::queued`]);
//! 4. **retire** — `drain` again: messages now held by every node are
//!    reported complete and purged from all relay queues (an idealized
//!    zero-cost global ACK; see DESIGN.md §9 for why this is the
//!    standard idealization for saturation measurement).
//!
//! # The conservation invariant
//!
//! Every round, `injected == delivered + queued`: the workload's
//! engine-polled backlog ([`radio_model::NodeBehavior::queued`],
//! summed over nodes) must equal the driver's own arrival/retirement
//! accounting. The driver cross-checks this each round and reports the
//! verdict in [`ThroughputRun::conserved`]; the property tests in
//! `noisy_radio_core` fuzz it across graphs, channels, rates, and
//! seeds.
//!
//! # Saturation
//!
//! A run that hits [`TrafficConfig::max_rounds`] before draining
//! reports [`ThroughputRun::saturated`]` == true` with the latencies
//! of the messages that *did* complete — never a bogus mean over an
//! unfinished backlog, and never an unbounded loop. Callers bisect on
//! this flag to locate an algorithm's saturation rate (experiment
//! E15).

use std::ops::Range;

use netgraph::Graph;
use radio_model::{
    Channel, LatencyProfile, ModelError, NodeBehavior, Payload, RoundTrace, Simulator,
};

use crate::latency::LatencySummary;

/// Errors from the traffic layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The arrival rate must be finite and strictly positive.
    InvalidRate {
        /// The rejected rate.
        rate: f64,
    },
    /// The underlying simulator rejected its configuration.
    Model(ModelError),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::InvalidRate { rate } => {
                write!(f, "arrival rate must be finite and > 0, got {rate}")
            }
            TrafficError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<ModelError> for TrafficError {
    fn from(e: ModelError) -> Self {
        TrafficError::Model(e)
    }
}

/// Deterministic arrival process: message `m` arrives at the source at
/// round `⌊m / λ⌋` — one message every `1/λ` rounds, with `λ > 1`
/// batching multiple arrivals per round.
///
/// Arrivals are a pure function of the rate, so two runs at the same
/// `λ` see identical offered load regardless of seed; the seed drives
/// only the channel and the protocol's randomness. This is what makes
/// saturation bisection meaningful — the load curve is held fixed
/// while the service process varies.
///
/// The floor is computed with exact integer arithmetic against the
/// rate's exact binary value (`λ = mant · 2^exp` from the `f64` bit
/// pattern), never with float division: `⌊m / λ⌋` is therefore exactly
/// right and nondecreasing in `m` for every representable rate and
/// every `m: u64` — float division loses both properties once `m / λ`
/// outgrows the 53-bit mantissa. Rounds beyond `u64::MAX` (tiny rates
/// at huge ids) saturate to `u64::MAX`, unreachable by any run cap.
///
/// # Examples
///
/// ```
/// use radio_throughput::traffic::TrafficSource;
///
/// let slow = TrafficSource::new(0.5).unwrap();
/// assert_eq!(
///     (0..3).map(|m| slow.arrival_round(m)).collect::<Vec<_>>(),
///     vec![0, 2, 4]
/// );
/// let burst = TrafficSource::new(2.0).unwrap();
/// assert_eq!(
///     (0..4).map(|m| burst.arrival_round(m)).collect::<Vec<_>>(),
///     vec![0, 0, 1, 1]
/// );
/// let third = TrafficSource::new(3.0).unwrap();
/// assert_eq!(third.arrival_round(u64::MAX), u64::MAX / 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSource {
    rate: f64,
    /// The exact decomposition `rate = mant · 2^exp` (`mant ≥ 1`),
    /// read off the IEEE-754 bit pattern at construction.
    mant: u64,
    exp: i32,
}

impl TrafficSource {
    /// Creates a source with arrival rate `λ = rate` messages/round.
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidRate`] unless `rate` is finite and
    /// strictly positive.
    pub fn new(rate: f64) -> Result<Self, TrafficError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(TrafficError::InvalidRate { rate });
        }
        // rate > 0 and finite, so the sign bit is clear and the
        // exponent field is below 0x7ff.
        let bits = rate.to_bits();
        let frac = bits & ((1u64 << 52) - 1);
        let biased = (bits >> 52) as i32;
        let (mant, exp) = if biased == 0 {
            // Subnormal: no implicit leading bit, fixed exponent.
            (frac, -1074)
        } else {
            (frac | (1u64 << 52), biased - 1075)
        };
        debug_assert!(mant >= 1);
        Ok(TrafficSource { rate, mant, exp })
    }

    /// The arrival rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The round at which message `m` arrives at the source:
    /// exactly `⌊m / λ⌋`, nondecreasing in `m`, saturating at
    /// `u64::MAX`.
    pub fn arrival_round(&self, m: u64) -> u64 {
        if m == 0 {
            return 0;
        }
        let mant = u128::from(self.mant);
        if self.exp >= 0 {
            // λ = mant · 2^exp ≥ 2^52: arrivals collapse toward 0.
            if self.exp >= 64 {
                return 0; // denominator exceeds any u64 numerator
            }
            return ((u128::from(m)) / (mant << self.exp)) as u64;
        }
        // λ = mant / 2^s: ⌊m · 2^s / mant⌋, split s so every
        // intermediate fits in u128. First ⌊m·2^s1/mant⌋ exactly …
        let s = (-self.exp) as u32;
        let s1 = s.min(64);
        let s2 = s - s1;
        let num = u128::from(m) << s1;
        let q1 = num / mant;
        let r1 = num % mant;
        if s2 == 0 {
            return q1.min(u128::from(u64::MAX)) as u64;
        }
        // … then scale by the remaining 2^s2:
        // ⌊m·2^s/mant⌋ = q1·2^s2 + ⌊r1·2^s2/mant⌋. Saturate as soon
        // as the high part leaves u64 (q1 ≥ 2^11 here, so a
        // non-saturating s2 is ≤ 53 and r1·2^s2 < 2^106 fits).
        if s2 >= 64 || q1 > (u128::from(u64::MAX) >> s2) {
            return u64::MAX;
        }
        let hi = q1 << s2;
        let lo = (r1 << s2) / mant;
        (hi + lo).min(u128::from(u64::MAX)) as u64
    }
}

/// A protocol plugged into the traffic driver: it owns the per-node
/// behaviors and the bookkeeping that maps engine-level packets back
/// to message ids.
///
/// The driver calls the three methods strictly between rounds (or
/// before the simulator exists, for round-0 arrivals), so a workload
/// is free to mutate any node's state — the determinism contract only
/// requires that the mutations are a function of prior deterministic
/// state (see `Simulator::behaviors_mut`).
///
/// Workload contract:
///
/// * [`TrafficWorkload::behaviors`] is called exactly once per run and
///   must reset all per-run internal state;
/// * [`TrafficWorkload::inject`] appends newly arrived message ids to
///   the source's queue — the source node's
///   [`NodeBehavior::queued`] depth must grow by the batch size;
/// * [`TrafficWorkload::drain`] activates queued messages and returns
///   the ids of messages that have become held by **every** node since
///   the last call, purging them everywhere (each node's `queued`
///   depth shrinks accordingly). Returned ids must be ascending and
///   never repeat across calls.
pub trait TrafficWorkload {
    /// The packet type the protocol broadcasts.
    type Packet: Payload;
    /// The per-node behavior.
    type Node: NodeBehavior<Self::Packet>;

    /// Fresh per-node behaviors (indexed by node id), with all
    /// workload-internal per-run state reset. No messages are pending
    /// yet.
    fn behaviors(&mut self) -> Vec<Self::Node>;

    /// Delivers the contiguous id batch `ids` to the source's queue.
    fn inject(&mut self, nodes: &mut [Self::Node], ids: Range<u64>);

    /// Activates pending messages and retires completed ones,
    /// returning the newly completed ids in ascending order.
    fn drain(&mut self, nodes: &mut [Self::Node]) -> Vec<u64>;
}

/// Configuration of one [`run_traffic`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Arrival rate `λ` in messages/round (see [`TrafficSource`]).
    pub rate: f64,
    /// Total messages to inject before the arrival process stops.
    pub messages: u64,
    /// Round cap: a run still undrained here reports
    /// [`ThroughputRun::saturated`].
    pub max_rounds: u64,
}

/// The outcome of one continuous-traffic run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRun {
    /// Rounds executed.
    pub rounds: u64,
    /// Messages injected (arrival round reached before the run ended).
    pub injected: u64,
    /// Messages delivered to every node and retired.
    pub delivered: u64,
    /// `true` iff the round cap was hit before the traffic drained —
    /// the offered load exceeded the sustainable rate. Latency fields
    /// then cover only the delivered prefix.
    pub saturated: bool,
    /// `true` iff `injected == delivered + queued` held at every
    /// round's end (the steady-state conservation invariant).
    pub conserved: bool,
    /// Per-message delivery latency in rounds (completion time minus
    /// arrival round), in message-id order, delivered messages only.
    pub latencies: Vec<u64>,
    /// End-of-round total queue depth, one sample per executed round.
    pub queue_depth: Vec<u64>,
    /// Peak of [`ThroughputRun::queue_depth`] (0 on a zero-round run).
    pub peak_queued: u64,
    /// The engine's per-node first-packet / decode-round profile for
    /// the whole run.
    pub profile: LatencyProfile,
}

impl ThroughputRun {
    /// Achieved throughput in messages/round (`delivered / rounds`;
    /// 0 for a zero-round run).
    pub fn achieved_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.delivered as f64 / self.rounds as f64
        }
    }

    /// `true` iff all offered traffic was delivered within the cap.
    pub fn drained(&self) -> bool {
        !self.saturated
    }

    /// Latency columns over the delivered messages; `None` when
    /// nothing was delivered (a saturated run reports partial columns,
    /// never a mean over an empty or unfinished backlog).
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_rounds(&self.latencies)
    }
}

/// Runs continuous traffic: injects [`TrafficConfig::messages`]
/// arrivals at rate `λ` and drives the workload until drain or the
/// round cap. See the [module docs](self) for the per-round contract.
///
/// # Errors
///
/// [`TrafficError::InvalidRate`] for a bad `λ`;
/// [`TrafficError::Model`] if the workload's behavior count mismatches
/// the graph.
pub fn run_traffic<W: TrafficWorkload>(
    graph: &Graph,
    channel: Channel,
    workload: &mut W,
    config: &TrafficConfig,
    seed: u64,
) -> Result<ThroughputRun, TrafficError> {
    run_traffic_inner(graph, channel, workload, config, seed, None)
}

/// [`run_traffic`] with a full per-round [`RoundTrace`] recording,
/// for invariant and degeneracy tests (slower).
pub fn run_traffic_traced<W: TrafficWorkload>(
    graph: &Graph,
    channel: Channel,
    workload: &mut W,
    config: &TrafficConfig,
    seed: u64,
) -> Result<(ThroughputRun, Vec<RoundTrace>), TrafficError> {
    let mut traces = Vec::new();
    let run = run_traffic_inner(graph, channel, workload, config, seed, Some(&mut traces))?;
    Ok((run, traces))
}

fn run_traffic_inner<W: TrafficWorkload>(
    graph: &Graph,
    channel: Channel,
    workload: &mut W,
    config: &TrafficConfig,
    seed: u64,
    mut traces: Option<&mut Vec<RoundTrace>>,
) -> Result<ThroughputRun, TrafficError> {
    let source = TrafficSource::new(config.rate)?;
    let total = config.messages;
    let mut completed_at: Vec<Option<u64>> = vec![None; total as usize];
    let arrivals: Vec<u64> = (0..total).map(|m| source.arrival_round(m)).collect();
    // ⌊m/λ⌋ is exactly nondecreasing in m (integer arithmetic in
    // `arrival_round`), which the injection scan below relies on.
    debug_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));

    let mut next: u64 = 0; // next message id to inject
    let mut delivered: u64 = 0;

    let mut nodes = workload.behaviors();
    // Round-0 arrivals land before the simulator exists, so that
    // construction-time decode polls see an informed source and the
    // one-message run is bit-identical to the one-shot path.
    while next < total && arrivals[next as usize] == 0 {
        next += 1;
    }
    if next > 0 {
        workload.inject(&mut nodes, 0..next);
    }
    for m in workload.drain(&mut nodes) {
        completed_at[m as usize] = Some(0);
        delivered += 1;
    }

    let mut sim = Simulator::new(graph, channel, nodes, seed)?;
    let mut queue_depth: Vec<u64> = Vec::new();
    let mut conserved = true;
    let mut saturated = false;

    while delivered < total || next < total {
        let r = sim.round();
        if r >= config.max_rounds {
            saturated = true;
            break;
        }
        if r > 0 {
            let lo = next;
            while next < total && arrivals[next as usize] <= r {
                next += 1;
            }
            if next > lo {
                workload.inject(sim.behaviors_mut(), lo..next);
            }
            for m in workload.drain(sim.behaviors_mut()) {
                completed_at[m as usize] = Some(r);
                delivered += 1;
            }
        }
        // The invariant checked against the *engine's* end-of-round
        // poll: the backlog the behaviors report must equal what the
        // driver believes is in flight.
        let expected_queued = next - delivered;
        let report = match traces.as_deref_mut() {
            Some(ts) => {
                let mut t = RoundTrace::default();
                let report = sim.step_traced(&mut t);
                ts.push(t);
                report
            }
            None => sim.step(),
        };
        queue_depth.push(report.queued);
        if report.queued != expected_queued {
            conserved = false;
        }
        for m in workload.drain(sim.behaviors_mut()) {
            completed_at[m as usize] = Some(r + 1);
            delivered += 1;
        }
    }

    let latencies: Vec<u64> = (0..total)
        .filter_map(|m| {
            completed_at[m as usize].map(|done| done.saturating_sub(arrivals[m as usize]))
        })
        .collect();
    Ok(ThroughputRun {
        rounds: sim.round(),
        injected: next,
        delivered,
        saturated,
        conserved,
        peak_queued: queue_depth.iter().copied().max().unwrap_or(0),
        latencies,
        queue_depth,
        profile: sim.latency_profile(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;
    use radio_model::{Action, Ctx, Reception};
    use std::collections::VecDeque;

    /// Toy workload for driver tests: one message in service at a
    /// time, every holder floods it every round. On a faultless path
    /// of `n` nodes the per-message service time is exactly `n - 1`
    /// rounds.
    struct FloodNode {
        has: Option<u64>,
        /// Source only: injected-but-unretired count (the engine-
        /// polled backlog).
        outstanding: u64,
    }

    impl NodeBehavior<u64> for FloodNode {
        fn act(&mut self, _ctx: &mut Ctx<'_>) -> Action<u64> {
            match self.has {
                Some(m) => Action::Broadcast(m),
                None => Action::Listen,
            }
        }
        fn receive(&mut self, _ctx: &mut Ctx<'_>, rx: Reception<u64>) {
            if let Reception::Packet(m) = rx {
                self.has = Some(m);
            }
        }
        fn queued(&self) -> u64 {
            self.outstanding
        }
    }

    struct FloodWorkload {
        n: usize,
        active: Option<u64>,
        pending: VecDeque<u64>,
    }

    impl FloodWorkload {
        fn new(n: usize) -> Self {
            FloodWorkload {
                n,
                active: None,
                pending: VecDeque::new(),
            }
        }
    }

    impl TrafficWorkload for FloodWorkload {
        type Packet = u64;
        type Node = FloodNode;

        fn behaviors(&mut self) -> Vec<FloodNode> {
            self.active = None;
            self.pending.clear();
            (0..self.n)
                .map(|_| FloodNode {
                    has: None,
                    outstanding: 0,
                })
                .collect()
        }

        fn inject(&mut self, nodes: &mut [FloodNode], ids: Range<u64>) {
            nodes[0].outstanding += ids.end - ids.start;
            self.pending.extend(ids);
        }

        fn drain(&mut self, nodes: &mut [FloodNode]) -> Vec<u64> {
            let mut out = Vec::new();
            loop {
                if let Some(m) = self.active {
                    if nodes.iter().all(|nd| nd.has == Some(m)) {
                        for nd in nodes.iter_mut() {
                            nd.has = None;
                        }
                        nodes[0].outstanding -= 1;
                        self.active = None;
                        out.push(m);
                    } else {
                        break;
                    }
                }
                match self.pending.pop_front() {
                    Some(m) => {
                        nodes[0].has = Some(m);
                        self.active = Some(m);
                    }
                    None => break,
                }
            }
            out
        }
    }

    fn cfg(rate: f64, messages: u64, max_rounds: u64) -> TrafficConfig {
        TrafficConfig {
            rate,
            messages,
            max_rounds,
        }
    }

    #[test]
    fn source_rejects_bad_rates() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                TrafficSource::new(rate),
                Err(TrafficError::InvalidRate { .. })
            ));
        }
        assert!((TrafficSource::new(0.25).unwrap().rate() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn arrivals_are_every_inverse_rate_rounds() {
        let s = TrafficSource::new(0.25).unwrap();
        assert_eq!(
            (0..4).map(|m| s.arrival_round(m)).collect::<Vec<_>>(),
            vec![0, 4, 8, 12]
        );
        let unit = TrafficSource::new(1.0).unwrap();
        assert_eq!(unit.arrival_round(7), 7);
    }

    /// Exactness oracle for `arrival_round`: with `λ = mant · 2^exp`
    /// read off the float's bits, `a = ⌊m/λ⌋` must satisfy
    /// `λ·a ≤ m < λ·(a+1)`, i.e. (for `exp = -s < 0`)
    /// `mant·a ≤ m·2^s < mant·(a+1)` in exact integer arithmetic.
    fn assert_exact_floor(rate: f64, m: u64) {
        let s_ = TrafficSource::new(rate).unwrap();
        let a = s_.arrival_round(m);
        let bits = rate.to_bits();
        let frac = bits & ((1u64 << 52) - 1);
        let biased = (bits >> 52) as i32;
        let (mant, exp) = if biased == 0 {
            (frac, -1074i32)
        } else {
            (frac | (1u64 << 52), biased - 1075)
        };
        if exp > 0 || exp < -63 || a == u64::MAX {
            // Outside the range where both sides of the oracle fit in
            // u128 without case analysis; covered by the saturation
            // and huge-rate tests instead.
            return;
        }
        let s = (-exp) as u32;
        let lhs = u128::from(mant) * u128::from(a);
        let mid = u128::from(m) << s;
        let rhs = u128::from(mant) * (u128::from(a) + 1);
        assert!(
            lhs <= mid && mid < rhs,
            "arrival_round({m}) = {a} is not ⌊m/λ⌋ for λ = {rate}"
        );
    }

    #[test]
    fn arrival_round_is_exact_at_large_ids_and_awkward_rates() {
        // Rates whose binary expansions make float division round the
        // wrong way somewhere; ids straddling the 53-bit float cliff
        // and the top of u64.
        let rates = [0.1, 0.07, 1.0 / 3.0, 0.3, 3.0, 1e-9, 0.875, 1.5];
        let ids = [
            0,
            1,
            7,
            1 << 20,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &rate in &rates {
            for &m in &ids {
                assert_exact_floor(rate, m);
            }
        }
    }

    #[test]
    fn arrival_round_is_monotone_in_m() {
        // The old float path was non-monotone for large ids; the
        // integer path must never regress. Scan dense windows at the
        // float cliff and the u64 ceiling for pathological rates.
        for rate in [0.1, 0.07, 1.0 / 3.0, 3.0, 0.9999999999999999] {
            let s = TrafficSource::new(rate).unwrap();
            let windows = [0u64..2_000, (1 << 53) - 500..(1 << 53) + 500];
            for w in windows {
                let mut prev = 0;
                for m in w {
                    let a = s.arrival_round(m);
                    assert!(a >= prev, "non-monotone at m = {m}, rate = {rate}");
                    prev = a;
                }
            }
            let mut prev = 0;
            for m in (u64::MAX - 1_000)..=u64::MAX {
                let a = s.arrival_round(m);
                assert!(a >= prev, "non-monotone at m = {m}, rate = {rate}");
                prev = a;
            }
        }
    }

    #[test]
    fn arrival_round_saturates_and_collapses_at_extreme_rates() {
        // Subnormal λ: every id ≥ 1 arrives beyond u64 range.
        let tiny = TrafficSource::new(f64::from_bits(1)).unwrap();
        assert_eq!(tiny.arrival_round(0), 0);
        assert_eq!(tiny.arrival_round(1), u64::MAX);
        assert_eq!(tiny.arrival_round(u64::MAX), u64::MAX);
        // λ = smallest normal: same saturation story.
        let small = TrafficSource::new(f64::MIN_POSITIVE).unwrap();
        assert_eq!(small.arrival_round(u64::MAX), u64::MAX);
        // Huge λ: everything arrives at round 0.
        for rate in [1e300, 2f64.powi(64)] {
            let burst = TrafficSource::new(rate).unwrap();
            assert_eq!(burst.arrival_round(u64::MAX), 0, "rate = {rate}");
        }
        // λ = 10^18 (exactly representable): ⌊(2^64−1)/10^18⌋ = 18.
        let big = TrafficSource::new(1e18).unwrap();
        assert_eq!(big.arrival_round(u64::MAX), 18);
        // λ = 2^52 sits exactly on the exp ≥ 0 boundary.
        let edge = TrafficSource::new(2f64.powi(52)).unwrap();
        assert_eq!(edge.arrival_round((1 << 52) - 1), 0);
        assert_eq!(edge.arrival_round(1 << 52), 1);
        assert_eq!(edge.arrival_round(u64::MAX), (1 << 12) - 1);
    }

    #[test]
    fn light_load_drains_with_idle_system_latencies() {
        let g = generators::path(6);
        let mut w = FloodWorkload::new(6);
        let run = run_traffic(&g, Channel::faultless(), &mut w, &cfg(0.05, 4, 1_000), 1).unwrap();
        assert!(run.drained());
        assert!(run.conserved, "conservation must hold");
        assert_eq!((run.injected, run.delivered), (4, 4));
        // λ = 0.05's binary value sits just above 1/20, so the exact
        // floor lands arrivals at rounds 0, 19, 39, 59 (float division
        // used to round them up to multiples of 20). Service time 5:
        // each message still meets an idle system.
        assert_eq!(run.latencies, vec![5, 5, 5, 5]);
        assert_eq!(run.peak_queued, 1);
        let s = run.latency_summary().unwrap();
        assert_eq!((s.mean, s.max), (5.0, 5.0));
        // The last completion happens at the last message's arrival
        // round (59) plus its service time.
        assert_eq!(run.rounds, 64);
        assert!((run.achieved_rate() - 4.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_run_reports_cap_and_partial_latencies() {
        // λ = 1 against a service time of 5 rounds: hopelessly
        // overloaded. The run must stop at the cap, flag saturation,
        // and report latencies for the delivered prefix only.
        let g = generators::path(6);
        let mut w = FloodWorkload::new(6);
        let run = run_traffic(&g, Channel::faultless(), &mut w, &cfg(1.0, 50, 40), 3).unwrap();
        assert!(run.saturated);
        assert!(run.conserved);
        assert_eq!(run.rounds, 40, "stopped exactly at the cap");
        assert!(run.delivered < run.injected);
        assert_eq!(run.latencies.len(), run.delivered as usize);
        assert!(!run.latencies.is_empty(), "the prefix did complete");
        assert!(run.latency_summary().is_some());
        // Queue grows roughly one message per 5-round service period.
        assert!(run.peak_queued >= 5, "backlog must pile up under overload");
        // Waiting time grows with queue position.
        assert!(run.latencies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_round_cap_reports_saturated_without_bogus_mean() {
        let g = generators::path(4);
        let mut w = FloodWorkload::new(4);
        let run = run_traffic(&g, Channel::faultless(), &mut w, &cfg(0.5, 3, 0), 0).unwrap();
        assert!(run.saturated);
        assert_eq!(run.rounds, 0);
        assert_eq!(run.delivered, 0);
        assert!(run.latency_summary().is_none(), "no samples → no mean");
        assert_eq!(run.achieved_rate(), 0.0);
    }

    #[test]
    fn zero_messages_drains_immediately() {
        let g = generators::path(4);
        let mut w = FloodWorkload::new(4);
        let run = run_traffic(&g, Channel::faultless(), &mut w, &cfg(0.5, 0, 100), 0).unwrap();
        assert!(run.drained());
        assert_eq!((run.rounds, run.injected, run.delivered), (0, 0, 0));
        assert!(run.latencies.is_empty() && run.queue_depth.is_empty());
    }

    #[test]
    fn single_node_graph_completes_at_arrival() {
        let g = netgraph::Graph::from_edges(1, []).unwrap();
        let mut w = FloodWorkload::new(1);
        let run = run_traffic(&g, Channel::faultless(), &mut w, &cfg(0.5, 3, 100), 0).unwrap();
        assert!(run.drained());
        assert_eq!(run.latencies, vec![0, 0, 0], "source holds ⇒ instant");
    }

    #[test]
    fn traced_run_matches_untraced() {
        let g = generators::path(8);
        let channel = Channel::erasure(0.4).unwrap();
        let mut w = FloodWorkload::new(8);
        let c = cfg(0.05, 3, 2_000);
        let plain = run_traffic(&g, channel, &mut w, &c, 11).unwrap();
        let mut w2 = FloodWorkload::new(8);
        let (traced, traces) = run_traffic_traced(&g, channel, &mut w2, &c, 11).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(traces.len() as u64, traced.rounds);
        // The trace's per-node depths must sum to the series sample.
        for (t, &total) in traces.iter().zip(&traced.queue_depth) {
            let sum: u64 = t.queued_nodes.iter().map(|&(_, d)| d).sum();
            assert_eq!(sum, total);
        }
    }
}
