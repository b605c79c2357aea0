//! E15: the continuous-traffic saturation sweep (DESIGN.md §9).
//!
//! E8–E12 measure throughput as a one-shot `k / rounds` ratio; this
//! experiment measures it the way a running network experiences it:
//! messages arrive at the source at rate `λ` and the system either
//! keeps up (queues stay bounded, latency stationary) or saturates
//! (the backlog grows without bound). For every
//! grid × algorithm × channel arm the driver bisects the saturation
//! rate `λ*` and reports latency-vs-load rows at fixed fractions of
//! it, plus an overload probe that must hit the round cap.

use netgraph::{generators, Graph, NodeId};
use noisy_radio_core::traffic::{DecayTraffic, RlncTraffic, XinXiaTraffic};
use radio_model::{fork_seed, Channel};
use radio_sweep::{run_cells_timed, SweepConfig};
use radio_throughput::traffic::{run_traffic, ThroughputRun, TrafficConfig};
use radio_throughput::{LatencySummary, Table, LATENCY_HEADERS};

use crate::{ExperimentReport, Scale};

/// RLNC generation cap (messages per coded batch).
const GEN_SIZE: usize = 16;
/// Messages in a burst-drain saturation probe (large enough to
/// amortize each workload's pipeline fill).
const BURST: u64 = 48;
/// Horizon of the latency-vs-load rows, in multiples of the
/// one-message service time `T1`.
const HORIZON_T1: u64 = 30;
/// Geometric bisection steps on the `[sustainable, unsustainable]`
/// rate bracket.
const BISECT_STEPS: u32 = 10;

/// One measured protocol arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Decay,
    XinXia,
    Rlnc,
}

impl Algo {
    const ALL: [Algo; 3] = [Algo::Decay, Algo::XinXia, Algo::Rlnc];

    fn name(self) -> &'static str {
        match self {
            Algo::Decay => "decay",
            Algo::XinXia => "xin-xia",
            Algo::Rlnc => "rlnc",
        }
    }
}

/// Runs one traffic configuration of the arm's algorithm.
fn run_algo(
    algo: Algo,
    graph: &Graph,
    channel: Channel,
    config: &TrafficConfig,
    seed: u64,
) -> ThroughputRun {
    let src = NodeId::new(0);
    match algo {
        Algo::Decay => {
            let mut w = DecayTraffic::new(graph, src).expect("valid source");
            run_traffic(graph, channel, &mut w, config, seed)
        }
        Algo::XinXia => {
            let mut w = XinXiaTraffic::new(graph, src).expect("connected graph");
            run_traffic(graph, channel, &mut w, config, seed)
        }
        Algo::Rlnc => {
            let mut w = RlncTraffic::new(graph, src, GEN_SIZE).expect("valid generation size");
            run_traffic(graph, channel, &mut w, config, seed)
        }
    }
    .expect("valid traffic run")
}

/// One latency-vs-load row of an arm.
struct LoadRow {
    label: &'static str,
    rate: f64,
    run: ThroughputRun,
}

/// One arm's measurements: the bisected saturation rate and its rows.
struct ArmOut {
    t1: u64,
    lambda_star: f64,
    rows: Vec<LoadRow>,
}

/// Measures one (graph, algo, channel) arm: service time, bisected
/// `λ*`, latency-vs-load rows, overload probe. All randomness is
/// forked from `seed`, one stream per probe, so the arm is
/// deterministic for any jobs split.
fn run_arm(algo: Algo, graph: &Graph, channel: Channel, seed: u64) -> ArmOut {
    let mut probe = 0u64;
    let mut next_seed = || {
        probe += 1;
        fork_seed(seed, probe)
    };

    // T1: the empty-system service time of a single message.
    let one = run_algo(
        algo,
        graph,
        channel,
        &TrafficConfig {
            rate: 1.0,
            messages: 1,
            max_rounds: 10_000_000,
        },
        next_seed(),
    );
    assert!(one.drained(), "one-message run must drain");
    let t1 = one.rounds.max(1);

    // Saturation probe, burst-drain form: all `BURST` messages arrive
    // at round 0 and the system is sustainable at rate λ iff the
    // backlog clears at that rate — within `BURST/λ` rounds plus one
    // pipeline fill. Monotone in λ, and it exercises each workload at
    // full batching/pipelining from the first round, so the bisected
    // λ* is the workload's saturation throughput.
    let horizon = HORIZON_T1 * t1;
    let sustainable = |rate: f64, seed: u64| {
        let cap = (BURST as f64 / rate).ceil() as u64 + t1;
        let run = run_algo(
            algo,
            graph,
            channel,
            &TrafficConfig {
                rate: BURST as f64, // every arrival lands at round 0
                messages: BURST,
                max_rounds: cap,
            },
            seed,
        );
        assert!(run.conserved, "conservation must hold in every probe");
        run.drained()
    };

    // Bracket the saturation rate: `0.5/T1` is half the sequential
    // service rate (a burst drains at that pace for every arm; halved
    // further if a probe disagrees), 2 messages/round is unreachable
    // on any multi-hop graph.
    let mut lo = 0.5 / t1 as f64;
    while !sustainable(lo, next_seed()) {
        lo /= 2.0;
    }
    let mut hi = 2.0;
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        if sustainable(mid, next_seed()) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda_star = lo;

    // Latency-vs-load rows: drain runs at fixed fractions of λ*, plus
    // an overload probe at 2λ* capped at the horizon.
    let loads: [(&'static str, f64); 3] = [("0.25", 0.25), ("0.50", 0.5), ("0.75", 0.75)];
    let mut rows = Vec::new();
    for (label, f) in loads {
        let rate = f * lambda_star;
        let messages = ((rate * horizon as f64).ceil() as u64).max(4);
        let run = run_algo(
            algo,
            graph,
            channel,
            &TrafficConfig {
                rate,
                messages,
                max_rounds: 20 * horizon,
            },
            next_seed(),
        );
        rows.push(LoadRow { label, rate, run });
    }
    let overload = 2.0 * lambda_star;
    let messages = ((overload * horizon as f64).ceil() as u64).max(4);
    rows.push(LoadRow {
        label: "2.00",
        rate: overload,
        run: run_algo(
            algo,
            graph,
            channel,
            &TrafficConfig {
                rate: overload,
                messages,
                max_rounds: horizon,
            },
            next_seed(),
        ),
    });
    ArmOut {
        t1,
        lambda_star,
        rows,
    }
}

/// E15 — continuous-traffic saturation:
///
/// * each arm's `λ*` is bisected from a burst-drain criterion: a
///   backlog of `BURST` messages injected at round 0 must clear at
///   rate λ (within `BURST/λ + T1` rounds) — the workload's
///   saturation throughput;
/// * latency-vs-load rows show stationary latency below `λ*` and the
///   queueing growth as load approaches it;
/// * on noisy paths the pipelined arms (Xin–Xia, generation-batched
///   RLNC) sustain strictly higher `λ` than sequential Decay — the
///   continuous-traffic form of the paper's throughput separations;
/// * the overload probe at `2λ*` saturates: it hits the round cap
///   with a growing backlog yet conserved accounting and partial
///   latencies;
/// * `erasure(p)` rows are byte-identical to `receiver(p)` rows.
pub fn e15_saturation_sweep(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let p = 0.5;
    let channels = [
        Channel::receiver(p).expect("valid p"),
        Channel::erasure(p).expect("valid p"),
    ];
    let path_sizes: &[usize] = scale.pick(&[24], &[32, 48]);
    let mesh_sizes: &[usize] = scale.pick(&[16], &[24, 40]);
    let mesh_seed = cfg.scope_seed("E15/mesh-graphs");
    let graphs: Vec<(&'static str, usize, Graph)> = path_sizes
        .iter()
        .map(|&n| ("path", n, generators::path(n)))
        .chain(mesh_sizes.iter().map(|&n| {
            let g = generators::unit_disk_connected(n, 0.35, fork_seed(mesh_seed, n as u64))
                .expect("valid unit-disk parameters");
            ("mesh", n, g)
        }))
        .collect();

    struct Spec {
        graph: usize,
        algo: Algo,
        channel: Channel,
    }
    let mut specs = Vec::new();
    for graph in 0..graphs.len() {
        for algo in Algo::ALL {
            for &channel in &channels {
                specs.push(Spec {
                    graph,
                    algo,
                    channel,
                });
            }
        }
    }
    // Arm seeds depend on (graph, algo) only — NOT the per-cell seed —
    // so the receiver(p) and erasure(p) twins of an arm replay the
    // same randomness and the trajectory-identity finding is exact.
    let arm_base = cfg.scope_seed("E15/arms");
    let (arms, cell_ms) = run_cells_timed(cfg.jobs, cfg.scope_seed("E15"), specs.len(), |ctx| {
        let spec = &specs[ctx.index as usize];
        let (_, _, g) = &graphs[spec.graph];
        let algo_ix = Algo::ALL
            .iter()
            .position(|&a| a == spec.algo)
            .expect("registered");
        let seed = fork_seed(arm_base, (spec.graph * Algo::ALL.len() + algo_ix) as u64);
        run_arm(spec.algo, g, spec.channel, seed)
    });

    let mut table = Table::new(&[
        "grid",
        "n",
        "algo",
        "channel",
        "T1",
        "λ*",
        "load·λ*",
        "rate",
        "rounds",
        "drained",
        "peak_q",
        LATENCY_HEADERS[0],
        LATENCY_HEADERS[1],
        LATENCY_HEADERS[2],
        LATENCY_HEADERS[3],
    ]);
    let mut loaded_ok = true;
    let mut overload_ok = true;
    let mut latency_grows = true;
    // (graph index, algo) → λ* on the receiver channel, for the
    // ordering findings and the erasure-identity check.
    let mut stars: Vec<(usize, Algo, f64)> = Vec::new();
    let mut erasure_identical = true;
    for (spec, arm) in specs.iter().zip(&arms) {
        let (grid, n, _) = graphs[spec.graph];
        for row in &arm.rows {
            let lat = LatencySummary::from_rounds(&row.run.latencies);
            let mut cells = vec![
                grid.to_string(),
                n.to_string(),
                spec.algo.name().to_string(),
                spec.channel.to_string(),
                arm.t1.to_string(),
                format!("{:.4}", arm.lambda_star),
                row.label.to_string(),
                format!("{:.4}", row.rate),
                row.run.rounds.to_string(),
                if row.run.drained() { "yes" } else { "SAT" }.to_string(),
                row.run.peak_queued.to_string(),
            ];
            cells.extend(LatencySummary::cells_or_dash(lat.as_ref(), 1));
            table.row_owned(cells);
            if row.label == "2.00" {
                overload_ok &= row.run.saturated
                    && row.run.conserved
                    && !row.run.latencies.is_empty()
                    && row.run.delivered < row.run.injected;
            } else {
                loaded_ok &= row.run.drained() && row.run.conserved;
            }
        }
        let mean_at = |label: &str| {
            arm.rows
                .iter()
                .find(|r| r.label == label)
                .and_then(|r| r.run.latency_summary())
                .map(|l| l.mean)
                .unwrap_or(f64::NAN)
        };
        // Xin–Xia is exempt: head-of-line retirement means only the
        // earliest messages complete before the overload cap, so its
        // delivered-message latencies are censored at roughly the
        // pipeline depth while the backlog grows at the source — its
        // saturation signal is `peak_q`/`SAT`, not latency.
        if spec.algo != Algo::XinXia {
            latency_grows &= mean_at("2.00") > mean_at("0.25");
        }
        if spec.channel.is_receiver() {
            stars.push((spec.graph, spec.algo, arm.lambda_star));
        } else {
            // The receiver arm precedes the erasure arm in spec order;
            // its λ* and every row must match bit for bit.
            let twin = stars
                .iter()
                .find(|&&(g, a, _)| g == spec.graph && a == spec.algo)
                .expect("receiver arm registered first");
            erasure_identical &= twin.2 == arm.lambda_star;
            let twin_arm = &arms[specs
                .iter()
                .position(|s| s.graph == spec.graph && s.algo == spec.algo)
                .expect("twin spec exists")];
            erasure_identical &= twin_arm
                .rows
                .iter()
                .zip(&arm.rows)
                .all(|(a, b)| a.run == b.run);
        }
    }

    let mut report = ExperimentReport {
        id: "E15",
        claim: "Continuous traffic: pipelined workloads sustain strictly higher injection \
                rates than sequential Decay; below λ* queues stay bounded, above it the \
                backlog grows (DESIGN.md §9)",
        table,
        findings: Vec::new(),
        cell_ms,
    };
    report.check(
        loaded_ok,
        "every below-saturation row drained with conserved accounting",
    );
    report.check(
        overload_ok,
        "every 2λ* overload probe hit the round cap saturated, with partial latencies \
         and conserved accounting",
    );
    report.check(
        latency_grows,
        "mean latency under the 2λ* overload exceeds mean latency at 0.25λ* in every Decay \
         and RLNC arm (queueing delay grows with load; Xin–Xia's head-of-line retirement \
         censors overload latencies to the pipeline depth)",
    );
    let star = |graph: usize, algo: Algo| {
        stars
            .iter()
            .find(|&&(g, a, _)| g == graph && a == algo)
            .map(|&(_, _, s)| s)
            .expect("every receiver arm has a λ*")
    };
    let path_ordering = (0..graphs.len())
        .filter(|&g| graphs[g].0 == "path")
        .all(|g| {
            star(g, Algo::XinXia) > star(g, Algo::Decay)
                && star(g, Algo::Rlnc) > star(g, Algo::Decay)
        });
    report.check(
        path_ordering,
        "on every noisy path both pipelined arms sustain strictly higher λ* than \
         sequential Decay",
    );
    report.check(
        erasure_identical,
        "erasure(p) arms are bit-identical to receiver(p) arms (λ* and every row)",
    );
    report
}
