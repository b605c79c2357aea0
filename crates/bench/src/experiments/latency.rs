//! E14: the latency sweep (Xin–Xia, arXiv:1709.01494).
//!
//! Every other experiment reports *rounds to completion*; this one
//! reports the per-node quantity the latency-optimal line of work
//! optimizes: the distribution of first-delivery rounds across nodes
//! ([`radio_model::LatencyProfile`]), summarized into the
//! mean / p50 / p99 / max columns of
//! [`radio_throughput::LatencySummary`]. On path and random-mesh
//! grids it races Decay (per-hop `Θ(log n)`), the Xin–Xia pipelined
//! schedule (per-hop `Θ(1)` via layer `mod 3` slotting), and Robust
//! FASTBC (diameter-linear block pipelining) under both `receiver(p)`
//! and `erasure(p)`.

use netgraph::{generators, Graph, NodeId};
use noisy_radio_core::decay::Decay;
use noisy_radio_core::robust_fastbc::RobustFastbcSchedule;
use noisy_radio_core::schedules::latency::XinXiaSchedule;
use radio_model::{fork_seed, Channel};
use radio_obs::NullSink;
use radio_sweep::{run_cells_timed, SweepConfig};
use radio_throughput::{linear_fit, LatencySummary, Table, LATENCY_HEADERS};

use crate::{ExperimentReport, Scale};

const MAX_ROUNDS: u64 = 50_000_000;

/// One measured protocol arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Decay,
    XinXia,
    RobustFastbc,
}

impl Algo {
    const ALL: [Algo; 3] = [Algo::Decay, Algo::XinXia, Algo::RobustFastbc];

    fn name(self) -> &'static str {
        match self {
            Algo::Decay => "decay",
            Algo::XinXia => "xin-xia",
            Algo::RobustFastbc => "rfastbc",
        }
    }
}

/// One trial's outcome: completion rounds (`None` = budget exhausted)
/// plus the per-node delivery latencies (source excluded — its only
/// receptions are echoes of the message it already holds).
struct TrialOut {
    rounds: Option<u64>,
    latencies: Vec<u64>,
}

fn run_arm(
    algo: Algo,
    graph: &Graph,
    xin: &XinXiaSchedule<'_>,
    robust: &RobustFastbcSchedule<'_>,
    channel: Channel,
    seed: u64,
) -> TrialOut {
    let source = NodeId::new(0);
    let (run, profile) = match algo {
        Algo::Decay => Decay::new()
            .run_telemetry(graph, source, channel, seed, MAX_ROUNDS, &mut NullSink)
            .expect("valid decay run"),
        Algo::XinXia => xin
            .run_telemetry(channel, seed, MAX_ROUNDS, &mut NullSink)
            .expect("valid xin-xia run"),
        Algo::RobustFastbc => robust
            .run_telemetry(channel, seed, MAX_ROUNDS, &mut NullSink)
            .expect("valid robust-fastbc run"),
    };
    TrialOut {
        rounds: run.rounds,
        latencies: profile.delivery_latencies_excluding(source),
    }
}

/// E14 — per-node latency against rounds-to-completion:
///
/// * **path grid**: Decay pays `Θ(log n / (1−p))` per hop, so both its
///   completion rounds and its mean latency carry a `log n` factor;
///   Xin–Xia's layer-pipelined slots pay `3/(1−p)` per hop — latency
///   (and rounds) linear in `n`, beating Decay at every grid point;
/// * **random-mesh grid** (unit-disk): all three protocols complete
///   and the full latency distribution (mean / p50 / p99 / max) is
///   reported per arm;
/// * the per-trial maximum latency never exceeds the trial's
///   completion rounds (the profile is consistent with the stopping
///   rule), and `erasure(p)` runs are trajectory-identical to
///   `receiver(p)` runs for these noisy-model protocols — the extra
///   bit is invisible to protocols that only match `Packet`.
pub fn e14_latency_sweep(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let p = 0.5;
    let channels = [
        Channel::receiver(p).expect("valid p"),
        Channel::erasure(p).expect("valid p"),
    ];
    let trials = scale.pick(3u64, 5);
    let path_sizes: &[usize] = scale.pick(&[32, 64, 128], &[32, 64, 128, 256, 512, 1024]);
    let mesh_sizes: &[usize] = scale.pick(&[48, 96], &[48, 96, 192, 384]);
    let mesh_seed = cfg.scope_seed("E14/mesh-graphs");

    // The measured grids: (label, graph) in table order.
    let graphs: Vec<(&'static str, usize, Graph)> = path_sizes
        .iter()
        .map(|&n| ("path", n, generators::path(n)))
        .chain(mesh_sizes.iter().map(|&n| {
            let g = generators::unit_disk_connected(n, 0.25, fork_seed(mesh_seed, n as u64))
                .expect("valid unit-disk parameters");
            ("mesh", n, g)
        }))
        .collect();
    // Compile the topology-aware schedules once per graph.
    let schedules: Vec<(XinXiaSchedule<'_>, RobustFastbcSchedule<'_>)> = graphs
        .iter()
        .map(|(_, _, g)| {
            (
                XinXiaSchedule::new(g, NodeId::new(0)).expect("connected graph"),
                RobustFastbcSchedule::new(g, NodeId::new(0)).expect("connected graph"),
            )
        })
        .collect();

    // Flatten the grid: graph × algo × channel × trial.
    struct Spec {
        graph: usize,
        algo: Algo,
        channel: Channel,
    }
    let mut specs = Vec::new();
    for graph in 0..graphs.len() {
        for algo in Algo::ALL {
            for &channel in &channels {
                for _ in 0..trials {
                    specs.push(Spec {
                        graph,
                        algo,
                        channel,
                    });
                }
            }
        }
    }
    let (results, cell_ms) = run_cells_timed(cfg.jobs, cfg.scope_seed("E14"), specs.len(), |ctx| {
        let spec = &specs[ctx.index as usize];
        let (_, _, g) = &graphs[spec.graph];
        let (xin, robust) = &schedules[spec.graph];
        run_arm(spec.algo, g, xin, robust, spec.channel, ctx.seed)
    });

    // Aggregate each (graph, algo, channel) group back into one row:
    // mean rounds across trials, latency percentiles over the pooled
    // per-node samples.
    let mut table = Table::new(&[
        "grid",
        "n",
        "algo",
        "channel",
        "rounds",
        LATENCY_HEADERS[0],
        LATENCY_HEADERS[1],
        LATENCY_HEADERS[2],
        LATENCY_HEADERS[3],
    ]);
    let mut all_completed = true;
    let mut max_le_rounds = true;
    // (n, decay mean latency, xin-xia mean latency) per noisy path point.
    let mut path_race: Vec<(usize, f64, f64)> = Vec::new();
    let mut path_rounds_race: Vec<(usize, f64, f64)> = Vec::new();
    let mut chunk = results.chunks_exact(trials as usize);
    for &(grid, n, _) in &graphs {
        for algo in Algo::ALL {
            for &channel in &channels {
                let group = chunk.next().expect("grid order matches registration");
                let mut rounds_sum = 0.0;
                let mut completed = 0u64;
                let mut pooled: Vec<u64> = Vec::new();
                for t in group {
                    all_completed &= t.rounds.is_some();
                    if let Some(rounds) = t.rounds {
                        completed += 1;
                        rounds_sum += rounds as f64;
                        if let Some(&max) = t.latencies.iter().max() {
                            max_le_rounds &= max <= rounds;
                        }
                    }
                    pooled.extend(&t.latencies);
                }
                let rounds_mean = rounds_sum / completed.max(1) as f64;
                let lat = LatencySummary::from_rounds(&pooled);
                let mut row = vec![
                    grid.to_string(),
                    n.to_string(),
                    algo.name().to_string(),
                    channel.to_string(),
                    format!("{rounds_mean:.0}"),
                ];
                row.extend(LatencySummary::cells_or_dash(lat.as_ref(), 1));
                table.row_owned(row);
                if grid == "path" && channel.is_receiver() {
                    if !path_race.iter().any(|&(m, _, _)| m == n) {
                        path_race.push((n, 0.0, 0.0));
                        path_rounds_race.push((n, 0.0, 0.0));
                    }
                    let race = path_race
                        .iter_mut()
                        .find(|(m, _, _)| *m == n)
                        .expect("slot");
                    let rounds_race = path_rounds_race
                        .iter_mut()
                        .find(|(m, _, _)| *m == n)
                        .expect("slot");
                    match algo {
                        Algo::Decay => {
                            race.1 = lat.map_or(f64::NAN, |l| l.mean);
                            rounds_race.1 = rounds_mean;
                        }
                        Algo::XinXia => {
                            race.2 = lat.map_or(f64::NAN, |l| l.mean);
                            rounds_race.2 = rounds_mean;
                        }
                        Algo::RobustFastbc => {}
                    }
                }
            }
        }
    }

    // The structural control: erasure(p) is trajectory-identical to
    // receiver(p) for noisy-model protocols under a shared seed.
    let control_seed = cfg.scope_seed("E14/erasure-control");
    let control_graph = generators::path(64);
    let control = XinXiaSchedule::new(&control_graph, NodeId::new(0)).expect("connected graph");
    let noisy = control
        .run_telemetry(channels[0], control_seed, MAX_ROUNDS, &mut NullSink)
        .expect("valid run");
    let erased = control
        .run_telemetry(channels[1], control_seed, MAX_ROUNDS, &mut NullSink)
        .expect("valid run");
    let control_identical = noisy.0.rounds == erased.0.rounds && noisy.1 == erased.1;

    let mut report = ExperimentReport {
        id: "E14",
        claim: "Latency (Xin–Xia, arXiv:1709.01494): pipelined layer schedules make per-node \
                latency linear in distance, beating Decay's per-hop log factor",
        table,
        findings: Vec::new(),
        cell_ms,
    };
    report.check(
        all_completed,
        "every protocol completed at every grid point (latency columns fully populated)",
    );
    report.check(
        max_le_rounds,
        "per-trial max latency ≤ rounds to completion in every trial",
    );
    let xin_wins = path_race.iter().all(|&(_, decay, xin)| xin < decay)
        && path_rounds_race.iter().all(|&(_, decay, xin)| xin < decay);
    report.check(
        xin_wins,
        "Xin–Xia beats Decay on every noisy path point, in mean latency and rounds",
    );
    let lat_fit = linear_fit(
        &path_race
            .iter()
            .map(|&(n, _, xin)| (n as f64, xin))
            .collect::<Vec<_>>(),
    );
    let rounds_fit = linear_fit(
        &path_rounds_race
            .iter()
            .map(|&(n, _, xin)| (n as f64, xin))
            .collect::<Vec<_>>(),
    );
    report.check(
        lat_fit.slope > 0.0 && lat_fit.r2 > 0.95 && rounds_fit.r2 > 0.95,
        format!(
            "Xin–Xia path latency and rounds are linear in n (lat slope {:.2}/node R² = {:.3}; \
             rounds slope {:.2}/node R² = {:.3}) — ≈ 3/(1−p) per hop",
            lat_fit.slope, lat_fit.r2, rounds_fit.slope, rounds_fit.r2
        ),
    );
    let decay_per_hop: Vec<f64> = path_race
        .iter()
        .map(|&(n, decay, _)| decay / n as f64)
        .collect();
    let (first, last) = (
        decay_per_hop.first().copied().unwrap_or(0.0),
        decay_per_hop.last().copied().unwrap_or(0.0),
    );
    report.check(
        last > first,
        format!("Decay's per-hop latency grows with log n ({first:.2} → {last:.2} rounds/hop)"),
    );
    report.check(
        control_identical,
        "erasure(p) is trajectory-identical to receiver(p) for these noisy-model protocols \
         (the erasure bit is invisible to Packet-only matching)",
    );
    report
}
