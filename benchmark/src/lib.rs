//! End-to-end and per-layer benchmark of the noisy-radio simulator.
//!
//! One process runs one workload as a closed loop with a single client:
//! trials run one after another on one thread, trial `i` seeded with
//! `fork_seed(seed, i)` exactly like `radio_sweep::run_cells`, until the
//! time budget is spent. Every trial's output is checked; failed trials
//! are counted and left out of the timings.
//!
//! A shared host can slow the whole process by half for seconds or
//! minutes at a time. So a fixed reference sweep ([`reference`]) is
//! timed just before every trial and every slice of set-ups, and each
//! host time is reported at nominal host speed: multiplied by
//! [`NOMINAL_REFERENCE_MS`] over the reference time measured next to it.
//! See `README.md` for the workloads and the metric glossary.

pub mod adapter;
pub mod reference;
pub mod stats;

use std::hint::black_box;
use std::time::{Duration, Instant};

use adapter::{EnginePhases, Graph, RoutingPhases, Schedule};
use reference::Reference;

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 3] = ["path-rfastbc", "grid-decay", "star-gap"];

/// The reference sweep's time on an uncontended host (Intel Xeon,
/// 2.1 GHz), so normalised times read close to that host's raw times.
pub const NOMINAL_REFERENCE_MS: f64 = 3.0;

/// The seed and trial count of the simulated-output identity check.
const REF_SEED: u64 = 1;
const REF_TRIALS: u64 = 8;

/// Recorded identity: `workload<TAB>rounds digest<TAB>rounds mean`.
const IDENTITY: &str = include_str!("../identity.tsv");

/// A slice of set-ups is timed before every this many trials: at least
/// `MIN_SETUPS` of them, repeated until `SETUP_SLICE` is spent.
const SETUP_EVERY: u64 = 8;
const MIN_SETUPS: usize = 3;
const SETUP_SLICE: Duration = Duration::from_millis(10);

/// One benchmark workload at a stated size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Robust FASTBC on `path:n` under `receiver(0.3)`.
    PathRfastbc { n: usize },
    /// Decay on `grid:rows×cols` under `receiver(0.3)`, from a corner.
    GridDecay { rows: usize, cols: usize },
    /// One Theorem 17 pair on a `leaves`-leaf star under `receiver(0.5)`.
    StarGap { leaves: usize, k: usize },
}

impl Workload {
    /// The workload at its benchmark size.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "path-rfastbc" => Some(Workload::PathRfastbc { n: 1024 }),
            "grid-decay" => Some(Workload::GridDecay { rows: 96, cols: 96 }),
            "star-gap" => Some(Workload::StarGap {
                leaves: 16384,
                k: 16,
            }),
            _ => None,
        }
    }

    /// The workload at a size small enough for a debug-build test.
    pub fn tiny(name: &str) -> Option<Self> {
        match name {
            "path-rfastbc" => Some(Workload::PathRfastbc { n: 64 }),
            "grid-decay" => Some(Workload::GridDecay { rows: 8, cols: 8 }),
            // Large enough that routing always loses to coding.
            "star-gap" => Some(Workload::StarGap { leaves: 256, k: 8 }),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::PathRfastbc { .. } => NAMES[0],
            Workload::GridDecay { .. } => NAMES[1],
            Workload::StarGap { .. } => NAMES[2],
        }
    }

    fn nodes(&self) -> usize {
        match *self {
            Workload::PathRfastbc { n } => n,
            Workload::GridDecay { rows, cols } => rows * cols,
            Workload::StarGap { leaves, .. } => leaves + 1,
        }
    }

    fn loss(&self) -> f64 {
        match self {
            Workload::StarGap { .. } => 0.5,
            _ => 0.3,
        }
    }

    /// The round budget per run, about eight times the rounds a run
    /// takes at benchmark size.
    fn budget(&self) -> u64 {
        match self {
            Workload::PathRfastbc { .. } => 100_000,
            Workload::GridDecay { .. } => 16_000,
            Workload::StarGap { .. } => 4_000,
        }
    }

    fn generate(&self) -> Graph {
        match *self {
            Workload::PathRfastbc { n } => adapter::path(n),
            Workload::GridDecay { rows, cols } => adapter::grid(rows, cols),
            Workload::StarGap { leaves, .. } => adapter::star(leaves),
        }
    }

    /// The schedule for `graph`; the star arms compile nothing.
    fn compile<'g>(&self, graph: &'g Graph) -> Result<Option<Schedule<'g>>, String> {
        Ok(match self {
            Workload::PathRfastbc { .. } => Some(adapter::compile_robust_fastbc(graph)?),
            Workload::GridDecay { .. } => Some(adapter::compile_decay()),
            Workload::StarGap { .. } => None,
        })
    }
}

/// One run's settings, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines, printed before the result object.
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The figure called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One trial's host times, simulated rounds and (when traced) layer
/// split.
#[derive(Debug, Clone, Default)]
struct Sample {
    /// Host time of the whole trial, as measured.
    raw_ms: f64,
    /// Host time per arm: the schedule's run, or routing then coding.
    arm_ms: Vec<f64>,
    /// Simulated rounds per arm.
    rounds: Vec<u64>,
    engine: EnginePhases,
    routing: RoutingPhases,
    /// Nominal over measured reference time, applied to every host time.
    scale: f64,
}

impl Sample {
    fn ms(&self) -> f64 {
        self.raw_ms * self.scale
    }

    fn total_rounds(&self) -> u64 {
        self.rounds.iter().sum()
    }
}

/// Set-up times at nominal host speed, in seconds.
#[derive(Debug, Default)]
struct Setups {
    generate: Vec<f64>,
    compile: Vec<f64>,
    total: Vec<f64>,
}

/// The workload's graph, compiled schedule and source eccentricity.
struct Prepared<'g> {
    graph: &'g Graph,
    schedule: Option<Schedule<'g>>,
    eccentricity: u64,
}

impl<'g> Prepared<'g> {
    fn new(workload: Workload, graph: &'g Graph) -> Result<Self, String> {
        Ok(Prepared {
            graph,
            schedule: workload.compile(graph)?,
            eccentricity: adapter::source_eccentricity(graph).ok_or("graph is disconnected")?,
        })
    }
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one trial and checks its output; `Err` names the failed check.
fn trial(
    workload: Workload,
    prepared: &Prepared<'_>,
    seed: u64,
    traced: bool,
) -> Result<Sample, String> {
    let loss = workload.loss();
    let budget = workload.budget();
    match workload {
        Workload::StarGap { leaves, k } => {
            let start = Instant::now();
            let (routing, phases) = if traced {
                adapter::star_routing_traced(leaves, k, loss, seed, budget)?
            } else {
                let routing = adapter::star_routing(leaves, k, loss, seed, budget)?;
                (routing, RoutingPhases::default())
            };
            let routing_ms = elapsed_ms(start);
            let coding_start = Instant::now();
            let coding = adapter::star_coding(leaves, k, loss, seed, budget)?;
            let coding_ms = elapsed_ms(coding_start);
            let raw_ms = elapsed_ms(start);
            let routing_rounds = routing.rounds.ok_or("routing exceeded its round budget")?;
            let coding_rounds = coding.ok_or("coding exceeded its round budget")?;
            let expected = (leaves * k) as u64;
            if routing.fresh_deliveries != expected {
                return Err(format!(
                    "{} fresh deliveries, want leaves·k = {expected}",
                    routing.fresh_deliveries
                ));
            }
            if coding_rounds < k as u64 {
                return Err(format!("coding took {coding_rounds} < k = {k} rounds"));
            }
            if routing_rounds <= coding_rounds {
                return Err(format!(
                    "routing {routing_rounds} ≤ coding {coding_rounds} rounds: no Theorem 17 gap"
                ));
            }
            Ok(Sample {
                raw_ms,
                arm_ms: vec![routing_ms, coding_ms],
                rounds: vec![routing_rounds, coding_rounds],
                routing: phases,
                scale: 1.0,
                ..Sample::default()
            })
        }
        _ => {
            let schedule = prepared
                .schedule
                .as_ref()
                .ok_or("broadcast workload without a schedule")?;
            let start = Instant::now();
            let (run, engine) = if traced {
                schedule.run_traced(prepared.graph, loss, seed, budget)?
            } else {
                let run = schedule.run(prepared.graph, loss, seed, budget)?;
                (run, EnginePhases::default())
            };
            let raw_ms = elapsed_ms(start);
            let rounds = run.rounds.ok_or("broadcast exceeded its round budget")?;
            let n = workload.nodes() as u64;
            if run.decoded_nodes != n {
                return Err(format!("{} of {n} nodes decoded", run.decoded_nodes));
            }
            if rounds < prepared.eccentricity {
                return Err(format!(
                    "{rounds} rounds, below the source eccentricity {}",
                    prepared.eccentricity
                ));
            }
            Ok(Sample {
                raw_ms,
                arm_ms: vec![raw_ms],
                rounds: vec![rounds],
                engine,
                scale: 1.0,
                ..Sample::default()
            })
        }
    }
}

/// Times graph generation plus compilation, repeatedly, into `setups`.
fn time_setups(workload: Workload, scale: f64, setups: &mut Setups) -> Result<(), String> {
    let began = Instant::now();
    let mut done = 0;
    while done < MIN_SETUPS || began.elapsed() < SETUP_SLICE {
        let t0 = Instant::now();
        let graph = black_box(workload.generate());
        let t1 = Instant::now();
        let schedule = black_box(workload.compile(&graph)?);
        let t2 = Instant::now();
        drop(schedule);
        setups.generate.push((t1 - t0).as_secs_f64() * scale);
        setups.compile.push((t2 - t1).as_secs_f64() * scale);
        setups.total.push((t2 - t0).as_secs_f64() * scale);
        done += 1;
    }
    Ok(())
}

/// The recorded `(digest, rounds mean)` of `name`'s identity trials.
fn recorded_identity(name: &str) -> Option<(u64, f64)> {
    IDENTITY
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut cols = line.split('\t');
            if cols.next()? != name {
                return None;
            }
            let digest = u64::from_str_radix(cols.next()?.trim_start_matches("0x"), 16).ok()?;
            let mean = cols.next()?.parse().ok()?;
            Some((digest, mean))
        })
}

/// Runs the identity trials (also the warm-up) and describes whether
/// their simulated rounds match the recorded ones.
fn identity_check(workload: Workload, prepared: &Prepared<'_>) -> Result<String, String> {
    let mut rounds = Vec::new();
    for i in 0..REF_TRIALS {
        let seed = adapter::trial_seed(REF_SEED, i);
        let sample = trial(workload, prepared, seed, false)
            .map_err(|e| format!("identity trial {i} (seed {seed}) failed: {e}"))?;
        rounds.push(sample.rounds);
    }
    let digest = stats::rounds_digest(rounds.iter().flatten());
    let mean = rounds.iter().flatten().sum::<u64>() as f64 / REF_TRIALS as f64;
    let got = format!("rounds digest {digest:#018x}, sim.rounds_mean {mean}");
    let recorded = if Workload::named(workload.name()) == Some(workload) {
        recorded_identity(workload.name())
    } else {
        None
    };
    Ok(match recorded {
        Some((d, m)) if d == digest && m == mean => format!("identity: match ({got})"),
        Some((d, m)) => {
            format!("identity: MISMATCH ({got}; recorded digest {d:#018x}, sim.rounds_mean {m})")
        }
        None => format!("identity: not recorded ({got})"),
    })
}

/// The simulated rounds per arm of trial `index` under workload seed
/// `seed`, exactly as a measured run computes them.
pub fn trial_rounds(workload: Workload, seed: u64, index: u64) -> Result<Vec<u64>, String> {
    let graph = workload.generate();
    let prepared = Prepared::new(workload, &graph)?;
    let seed = adapter::trial_seed(seed, index);
    Ok(trial(workload, &prepared, seed, false)?.rounds)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one workload for `opts.seconds` and reports end-to-end metrics,
/// or with `opts.trace` the per-layer ones.
pub fn run(opts: Options) -> Result<Report, String> {
    let workload = opts.workload;
    let mut lines = vec![format!(
        "workload {} ({} nodes), seed {}, {} s, trace {}",
        workload.name(),
        workload.nodes(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    )];

    let reference = Reference::default();
    let graph = workload.generate();
    let prepared = Prepared::new(workload, &graph)?;

    let mut correct = true;
    match identity_check(workload, &prepared) {
        Ok(line) => lines.push(line),
        Err(e) => {
            correct = false;
            lines.push(format!("FAILED {e}"));
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut setups = Setups::default();
    let mut reference_ms = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let began = Instant::now();
    while attempted == 0 || began.elapsed() < budget {
        let ref_ms = reference.time_ms();
        reference_ms.push(ref_ms);
        let scale = NOMINAL_REFERENCE_MS / ref_ms;
        if attempted % SETUP_EVERY == 0 {
            time_setups(workload, scale, &mut setups)?;
        }
        let seed = adapter::trial_seed(opts.seed, attempted);
        attempted += 1;
        // Traced runs follow the untraced run of the same seed, which
        // must give the same rounds: telemetry only observes.
        let outcome = trial(workload, &prepared, seed, false).and_then(|p| {
            if !opts.trace {
                return Ok((p, None));
            }
            let t = trial(workload, &prepared, seed, true)?;
            if t.rounds != p.rounds {
                return Err(format!("traced rounds {:?} ≠ {:?}", t.rounds, p.rounds));
            }
            Ok((p, Some(t)))
        });
        match outcome {
            Ok((p, t)) => {
                plain.push(Sample { scale, ..p });
                traced.extend(t.map(|t| Sample { scale, ..t }));
            }
            Err(e) => {
                failed += 1;
                if failed <= 5 {
                    lines.push(format!("FAILED trial {} (seed {seed}): {e}", attempted - 1));
                }
            }
        }
    }
    correct &= failed == 0;
    let raw_ms: Vec<f64> = plain.iter().map(|s| s.raw_ms).collect();
    lines.push(format!(
        "trials: {attempted} attempted, {failed} failed, trial_fail_share {}",
        failed as f64 / attempted as f64
    ));
    lines.push(format!(
        "host: reference sweep median {:.4} ms (nominal {NOMINAL_REFERENCE_MS} ms), \
         raw trial p50 {:.4} ms",
        stats::median(&reference_ms).unwrap_or(0.0),
        stats::median(&raw_ms).unwrap_or(0.0)
    ));

    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let plain_ms: Vec<f64> = plain.iter().map(Sample::ms).collect();
    let metrics = if opts.trace {
        let traced_ms: Vec<f64> = traced.iter().map(Sample::ms).collect();
        layer_metrics(
            workload,
            &setups,
            &traced,
            &plain_ms,
            &traced_ms,
            &reference_ms,
        )
    } else {
        let rounds: Vec<u64> = plain.iter().map(Sample::total_rounds).collect();
        let seconds: Vec<f64> = plain_ms.iter().map(|ms| ms / 1e3).collect();
        vec![
            Metric {
                name: "node_rounds_per_s",
                value: stats::node_rounds_per_s(workload.nodes(), &rounds, &seconds).unwrap_or(0.0),
                unit: "1/s",
            },
            Metric {
                name: "trial_ms_p50",
                value: median(&plain_ms),
                unit: "ms",
            },
            Metric {
                name: "trial_ms_p90",
                value: stats::percentile(&plain_ms, 0.9).unwrap_or(0.0),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(&setups.total),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb()?,
                unit: "MiB",
            },
        ]
    };
    for m in &metrics {
        lines.push(format!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit));
    }
    Ok(Report {
        lines,
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The per-layer figures of a traced run: set-up medians, per traced
/// trial means (host times at nominal host speed), then the ratios the
/// optimisations target.
fn layer_metrics(
    workload: Workload,
    setups: &Setups,
    traced: &[Sample],
    plain_ms: &[f64],
    traced_ms: &[f64],
    reference_ms: &[f64],
) -> Vec<Metric> {
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let trials = traced.len() as f64;
    // Host times are scaled per trial; counts are not.
    let mean_ms =
        |f: &dyn Fn(&Sample) -> f64| ratio(traced.iter().map(|s| f(s) * s.scale).sum(), trials);
    let total = |f: &dyn Fn(&Sample) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let total_ns =
        |f: &dyn Fn(&Sample) -> u64| traced.iter().map(|s| f(s) as f64 * s.scale).sum::<f64>();
    let is_star = matches!(workload, Workload::StarGap { .. });
    let arm = |i: usize| move |s: &Sample| if is_star { s.arm_ms[i] } else { 0.0 };

    let run_ms = mean_ms(&|s| s.arm_ms.iter().sum());
    let act_ms = mean_ms(&|s| s.engine.act_ns as f64 / 1e6);
    let reach_ms = mean_ms(&|s| s.engine.reach_ns as f64 / 1e6);
    let receive_ms = mean_ms(&|s| s.engine.receive_ns as f64 / 1e6);
    let merge_ms = mean_ms(&|s| s.engine.merge_ns as f64 / 1e6);
    let other_ms = if is_star {
        0.0
    } else {
        run_ms - act_ms - reach_ms - receive_ms - merge_ms
    };
    let active = total(&|s| s.engine.active_node_rounds);
    let words = total(&|s| s.engine.act_words_visited + s.engine.act_words_skipped);
    let routing_node_rounds = if is_star {
        total(&|s| s.rounds[0]) * workload.nodes() as f64
    } else {
        0.0
    };
    let overhead = match (stats::median(traced_ms), stats::median(plain_ms)) {
        (Some(t), Some(p)) => ratio(t - p, p) * 100.0,
        _ => 0.0,
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("netgraph.generate_ms", median(&setups.generate) * 1e3, "ms"),
        m("core.compile_ms", median(&setups.compile) * 1e3, "ms"),
        m("core.run_ms", run_ms, "ms"),
        m("star.routing_ms", mean_ms(&arm(0)), "ms"),
        m("star.coding_ms", mean_ms(&arm(1)), "ms"),
        m("engine.act_ms", act_ms, "ms"),
        m("engine.reach_ms", reach_ms, "ms"),
        m("engine.receive_ms", receive_ms, "ms"),
        m("engine.merge_ms", merge_ms, "ms"),
        m("engine.other_ms", other_ms, "ms"),
        m("engine.active_node_rounds", ratio(active, trials), "count"),
        m(
            "engine.act_ns_per_active_node_round",
            ratio(total_ns(&|s| s.engine.act_ns), active),
            "ns",
        ),
        m(
            "engine.broadcast_share",
            ratio(total(&|s| s.engine.broadcasts), active),
            "share",
        ),
        m(
            "engine.act_word_skip_share",
            ratio(total(&|s| s.engine.act_words_skipped), words),
            "share",
        ),
        m(
            "routing.decide_ms",
            mean_ms(&|s| s.routing.decide_ns as f64 / 1e6),
            "ms",
        ),
        m(
            "routing.resolve_ms",
            mean_ms(&|s| s.routing.resolve_ns as f64 / 1e6),
            "ms",
        ),
        m(
            "routing.ns_per_node_round",
            ratio(
                total_ns(&|s| s.routing.decide_ns + s.routing.resolve_ns),
                routing_node_rounds,
            ),
            "ns",
        ),
        m("obs.overhead_pct", overhead, "%"),
        m(
            "sim.rounds_mean",
            ratio(total(&|s| s.total_rounds()), trials),
            "rounds",
        ),
        m("host.reference_ms", median(reference_ms), "ms"),
    ]
}
