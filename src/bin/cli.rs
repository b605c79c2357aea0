//! `noisy-radio-cli` — run the paper's algorithms from the command
//! line.
//!
//! ```text
//! noisy-radio-cli broadcast --topology path:256 --algo robust-fastbc \
//!     --fault receiver:0.3 --seed 7 --trials 5
//! noisy-radio-cli multicast --topology grid:12x12 --algo decay-rlnc --k 16
//! noisy-radio-cli gap --leaves 1024 --k 16 --fault receiver:0.5
//! noisy-radio-cli topo --topology gnp:200:0.05
//! ```
//!
//! Run `noisy-radio-cli help` for the full grammar.

use std::process::ExitCode;

use noisy_radio::core::consensus::{BenOr, Brb, ConsensusRun};
use noisy_radio::core::decay::Decay;
use noisy_radio::core::experimental::StreamingRlnc;
use noisy_radio::core::fastbc::FastbcSchedule;
use noisy_radio::core::multi_message::{DecayRlnc, RobustFastbcRlnc};
use noisy_radio::core::robust_fastbc::RobustFastbcSchedule;
use noisy_radio::core::schedules::latency::XinXiaSchedule;
use noisy_radio::core::schedules::star::{star_coding, star_routing, star_routing_telemetry};
use noisy_radio::core::traffic::{run_decay_traffic, run_rlnc_traffic, run_xin_xia_traffic};
use noisy_radio::gbst::Gbst;
use noisy_radio::model::{Adversary, Channel, Misbehavior, ModelError};
use noisy_radio::netgraph::{generators, metrics, Graph, NodeId};
use noisy_radio::obs::{CounterSink, JsonlSink, NullSink, TelemetrySink};
use noisy_radio::sweep::{run_cells, SweepConfig};
use noisy_radio::throughput::traffic::{ThroughputRun, TrafficConfig};
use noisy_radio::throughput::LatencySummary;

const MAX_ROUNDS: u64 = 500_000_000;

const HELP: &str = "\
noisy-radio-cli — Broadcasting in Noisy Radio Networks (PODC 2017)

USAGE:
  noisy-radio-cli <COMMAND> [OPTIONS]

COMMANDS:
  broadcast   single-message broadcast; prints rounds per trial + mean
  multicast   k-message broadcast via RLNC; verifies decoded payloads
  traffic     continuous traffic at rate λ; prints throughput, latency,
              queue peaks, and whether the run drained or saturated
  gap         star coding-vs-routing throughput gap (Theorem 17)
  consensus   Byzantine consensus (BRB / Ben-Or) gossiped over the
              noisy radio; prints decisions, agreement, and rounds
  topo        print topology statistics and GBST structure
  help        this message

COMMON OPTIONS:
  --topology SPEC   path:N | cycle:N | star:N | grid:RxC | torus:RxC |
                    tree:ARITY:DEPTH | gnp:N:P | hypercube:D |
                    caterpillar:SPINE:LEGS | spider:LEGS:LEN | udg:N:R
                    (default path:128)
  --fault SPEC      faultless | receiver:P | sender:P | erasure:P, or a
                    `+`-joined composition like sender:0.1+erasure:0.3
                    (default receiver:0.3)
  --seed N          RNG seed (default 42)
  --trials N        independent trials (default 3)
  --jobs N          worker threads for trials (default: available
                    parallelism); results are identical for any N
  --telemetry PATH  write a JSONL telemetry event log (one span/counter
                    object per line); never changes the measured output
  --telemetry-summary
                    print aggregated telemetry tables to stderr

broadcast:
  --algo NAME       decay | fastbc | robust-fastbc | xin-xia
                    (default robust-fastbc); prints per-node latency
                    (mean/p50/p99/max rounds) alongside rounds per trial
multicast:
  --algo NAME       decay-rlnc | rfastbc-rlnc | streaming-rlnc (default decay-rlnc)
  --k N             number of messages (default 8)
traffic:
  --algo NAME       decay | xin-xia | rlnc (default decay)
  --rate L          arrival rate λ in messages/round (default 0.05)
  --messages N      messages to inject before arrivals stop (default 32)
  --max-rounds N    round cap; an undrained run reports SATURATED
                    (default 100000)
  --gen N           RLNC generation size cap, 1..=255 (default 16)
gap:
  --leaves N        star size (default 1024)
  --k N             messages (default 8)
consensus:
  --algo NAME       brb | ben-or (default brb); BRB broadcasts `true`
                    from node 0, Ben-Or proposes by node parity
  --faulty F        Byzantine nodes (default 0 = all honest); also the
                    assumed tolerance sizing the quorums (needs F < n/3)
  --adversary KIND  crash[:ROUND] | equivocate | jam (default crash,
                    crashing at round 10); node 0 is always spared
  --max-rounds N    round cap per trial (default 100000)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `noisy-radio-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print!("{HELP}");
        return Ok(());
    };
    // Help wins over option parsing, so `gap --help` prints it too.
    if command == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return Ok(());
    }
    let opts = Options::parse(&args[1..])?;
    match command.as_str() {
        "broadcast" => cmd_broadcast(&opts),
        "multicast" => cmd_multicast(&opts),
        "traffic" => cmd_traffic(&opts),
        "gap" => cmd_gap(&opts),
        "consensus" => cmd_consensus(&opts),
        "topo" => cmd_topo(&opts),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parsed command-line options with defaults.
struct Options {
    topology: String,
    fault: Channel,
    seed: u64,
    trials: u64,
    jobs: Option<usize>,
    algo: Option<String>,
    k: usize,
    leaves: usize,
    rate: f64,
    messages: u64,
    max_rounds: u64,
    gen: usize,
    faulty: usize,
    adversary: String,
    telemetry: Option<String>,
    telemetry_summary: bool,
}

impl Options {
    /// The sweep configuration trials fan out over: `--jobs` workers
    /// (or all available), seeds forked from `--seed` per trial.
    fn sweep(&self) -> SweepConfig {
        SweepConfig::new(self.jobs, self.seed)
    }

    /// Whether any telemetry output was requested.
    fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some() || self.telemetry_summary
    }

    /// Writes/prints the collected telemetry: `--telemetry` gets the
    /// JSONL event log, `--telemetry-summary` the aggregated tables on
    /// stderr. Telemetry is observational only — the measured output
    /// above is byte-identical with or without it.
    fn finish_telemetry(&self, counters: &CounterSink) -> Result<(), String> {
        if let Some(path) = &self.telemetry {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let mut jsonl = JsonlSink::new(std::io::BufWriter::new(file));
            counters.emit_into(&mut jsonl);
            let lines = jsonl.lines();
            jsonl
                .finish()
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("(wrote {path}: {lines} telemetry events)");
        }
        if self.telemetry_summary {
            eprint!("{}", counters.render_summary());
        }
        Ok(())
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            topology: "path:128".into(),
            fault: Channel::receiver(0.3).expect("valid default"),
            seed: 42,
            trials: 3,
            jobs: None,
            algo: None,
            k: 8,
            leaves: 1024,
            rate: 0.05,
            messages: 32,
            max_rounds: 100_000,
            gen: 16,
            faulty: 0,
            adversary: "crash".into(),
            telemetry: None,
            telemetry_summary: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--topology" => opts.topology = value()?,
                "--fault" => opts.fault = parse_fault(&value()?)?,
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--trials" => {
                    opts.trials = value()?.parse().map_err(|e| format!("bad --trials: {e}"))?
                }
                "--jobs" => {
                    let n: usize = value()?.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                    if n == 0 {
                        return Err("--jobs must be ≥ 1".into());
                    }
                    opts.jobs = Some(n);
                }
                "--algo" => opts.algo = Some(value()?),
                "--k" => opts.k = value()?.parse().map_err(|e| format!("bad --k: {e}"))?,
                "--leaves" => {
                    opts.leaves = value()?.parse().map_err(|e| format!("bad --leaves: {e}"))?
                }
                "--rate" => opts.rate = value()?.parse().map_err(|e| format!("bad --rate: {e}"))?,
                "--messages" => {
                    opts.messages = value()?
                        .parse()
                        .map_err(|e| format!("bad --messages: {e}"))?
                }
                "--max-rounds" => {
                    opts.max_rounds = value()?
                        .parse()
                        .map_err(|e| format!("bad --max-rounds: {e}"))?
                }
                "--gen" => opts.gen = value()?.parse().map_err(|e| format!("bad --gen: {e}"))?,
                "--faulty" => {
                    opts.faulty = value()?.parse().map_err(|e| format!("bad --faulty: {e}"))?
                }
                "--adversary" => opts.adversary = value()?,
                "--telemetry" => opts.telemetry = Some(value()?),
                "--telemetry-summary" => opts.telemetry_summary = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.trials == 0 {
            return Err("--trials must be ≥ 1".into());
        }
        Ok(opts)
    }
}

/// Delegates to [`Channel`]'s own parser, so every spec the model
/// understands — including composed ones like `sender:0.1+erasure:0.3`
/// — is accepted anywhere a channel is parsed.
fn parse_fault(spec: &str) -> Result<Channel, String> {
    spec.parse().map_err(|e: ModelError| e.to_string())
}

/// Parses an adversary spec: `crash` (round 10), `crash:R`,
/// `equivocate`, or `jam`.
fn parse_adversary(spec: &str) -> Result<Misbehavior, String> {
    match spec.split_once(':') {
        Some(("crash", round)) => Ok(Misbehavior::Crash {
            round: round.parse().map_err(|e| format!("bad crash round: {e}"))?,
        }),
        None => match spec {
            "crash" => Ok(Misbehavior::Crash { round: 10 }),
            "equivocate" => Ok(Misbehavior::Equivocate),
            "jam" => Ok(Misbehavior::Jam),
            other => Err(format!(
                "unknown adversary `{other}` (want crash[:R], equivocate, or jam)"
            )),
        },
        Some((other, _)) => Err(format!(
            "unknown adversary `{other}` (want crash[:R], equivocate, or jam)"
        )),
    }
}

fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let usage = || format!("bad topology spec `{spec}`");
    let num = |s: &str| s.parse::<usize>().map_err(|_| usage());
    let fnum = |s: &str| s.parse::<f64>().map_err(|_| usage());
    let dims = |s: &str| -> Result<(usize, usize), String> {
        let (r, c) = s.split_once('x').ok_or_else(usage)?;
        Ok((num(r)?, num(c)?))
    };
    // The infallible generators build whatever they are asked for, so
    // their node counts are checked here.
    let count = |family, n| generators::checked_node_count(family, n).map_err(|e| e.to_string());
    let g = match (parts.first().copied(), parts.len()) {
        (Some("path"), 2) => generators::path(count("path", Some(num(parts[1])?))?),
        (Some("cycle"), 2) => generators::cycle(num(parts[1])?).map_err(|e| e.to_string())?,
        (Some("star"), 2) => {
            let leaves = num(parts[1])?;
            count("star", leaves.checked_add(1))?;
            generators::star(leaves)
        }
        (Some("grid"), 2) => {
            let (r, c) = dims(parts[1])?;
            count("grid", r.checked_mul(c))?;
            generators::grid(r, c)
        }
        (Some("torus"), 2) => {
            let (r, c) = dims(parts[1])?;
            generators::torus(r, c).map_err(|e| e.to_string())?
        }
        (Some("tree"), 3) => {
            generators::balanced_tree(num(parts[1])?, num(parts[2])?).map_err(|e| e.to_string())?
        }
        (Some("gnp"), 3) => generators::gnp_connected(num(parts[1])?, fnum(parts[2])?, seed)
            .map_err(|e| e.to_string())?,
        (Some("hypercube"), 2) => {
            let dim = parts[1].parse::<u32>().map_err(|_| usage())?;
            generators::hypercube(dim).map_err(|e| e.to_string())?
        }
        (Some("caterpillar"), 3) => {
            generators::caterpillar(num(parts[1])?, num(parts[2])?).map_err(|e| e.to_string())?
        }
        (Some("spider"), 3) => {
            generators::spider(num(parts[1])?, num(parts[2])?).map_err(|e| e.to_string())?
        }
        (Some("udg"), 3) => generators::unit_disk_connected(num(parts[1])?, fnum(parts[2])?, seed)
            .map_err(|e| e.to_string())?,
        _ => return Err(usage()),
    };
    Ok(g)
}

/// The rounds a run took, or an error if it used up the
/// `MAX_ROUNDS` budget without completing.
fn completed_rounds(rounds: Option<u64>) -> Result<u64, String> {
    rounds.ok_or_else(|| format!("did not complete within {MAX_ROUNDS} rounds"))
}

fn cmd_broadcast(opts: &Options) -> Result<(), String> {
    let g = parse_topology(&opts.topology, opts.seed)?;
    let algo = opts.algo.as_deref().unwrap_or("robust-fastbc");
    let source = NodeId::new(0);
    println!(
        "topology {} ({} nodes, {} edges), fault {}, algo {algo}",
        opts.topology,
        g.node_count(),
        g.edge_count(),
        opts.fault
    );
    // Compile the schedule once; trials fan out over the sweep pool
    // with per-trial forked seeds (identical output for any --jobs).
    enum Algo<'g> {
        Decay,
        Fastbc(FastbcSchedule<'g>),
        Robust(RobustFastbcSchedule<'g>),
        XinXia(XinXiaSchedule<'g>),
    }
    let algo = match algo {
        "decay" => Algo::Decay,
        "fastbc" => Algo::Fastbc(FastbcSchedule::new(&g, source).map_err(|e| e.to_string())?),
        "robust-fastbc" => {
            Algo::Robust(RobustFastbcSchedule::new(&g, source).map_err(|e| e.to_string())?)
        }
        "xin-xia" => Algo::XinXia(XinXiaSchedule::new(&g, source).map_err(|e| e.to_string())?),
        other => return Err(format!("unknown broadcast algo `{other}`")),
    };
    let cfg = opts.sweep();
    let telemetry_on = opts.telemetry_enabled();
    let per_trial: Vec<Result<(u64, Vec<u64>, f64, CounterSink), String>> =
        run_cells(cfg.jobs, cfg.master_seed, opts.trials as usize, |ctx| {
            // Each trial collects its engine telemetry into its own
            // CounterSink (merged after the ordered join); with
            // telemetry off the engine sees the disabled NullSink.
            let mut counter = CounterSink::new();
            let mut null = NullSink;
            let mut sink: &mut dyn TelemetrySink = if telemetry_on {
                &mut counter
            } else {
                &mut null
            };
            let t0 = std::time::Instant::now();
            let (run, profile) = match &algo {
                Algo::Decay => Decay::new()
                    .run_telemetry(&g, source, opts.fault, ctx.seed, MAX_ROUNDS, &mut sink)
                    .map_err(|e| e.to_string())?,
                Algo::Fastbc(sched) => sched
                    .run_telemetry(opts.fault, ctx.seed, MAX_ROUNDS, &mut sink)
                    .map_err(|e| e.to_string())?,
                Algo::Robust(sched) => sched
                    .run_telemetry(opts.fault, ctx.seed, MAX_ROUNDS, &mut sink)
                    .map_err(|e| e.to_string())?,
                Algo::XinXia(sched) => sched
                    .run_telemetry(opts.fault, ctx.seed, MAX_ROUNDS, &mut sink)
                    .map_err(|e| e.to_string())?,
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            Ok((
                completed_rounds(run.rounds)?,
                profile.delivery_latencies_excluding(source),
                ms,
                counter,
            ))
        });
    let mut total = 0u64;
    let mut pooled: Vec<u64> = Vec::new();
    let mut aggregate = CounterSink::new();
    for (t, trial) in per_trial.into_iter().enumerate() {
        let (rounds, latencies, ms, counters) = trial?;
        // A trial that delivered to nobody (e.g. a single-node
        // "broadcast") has no latency distribution; `LatencySummary`
        // renders it as dashes, the same as every table caller.
        let lat = LatencySummary::from_rounds(&latencies);
        println!(
            "  trial {t}: {rounds} rounds (latency {}, {ms:.1} ms)",
            LatencySummary::inline_or_dash(lat.as_ref())
        );
        total += rounds;
        pooled.extend(latencies);
        if telemetry_on {
            aggregate.span(&format!("trial/{t}"), (ms * 1e6) as u64);
            aggregate.merge(&counters);
        }
    }
    println!("mean: {:.1} rounds", total as f64 / opts.trials as f64);
    let pooled_lat = LatencySummary::from_rounds(&pooled);
    println!(
        "per-node latency over {} samples: {} rounds",
        pooled.len(),
        LatencySummary::inline_or_dash(pooled_lat.as_ref())
    );
    if telemetry_on {
        opts.finish_telemetry(&aggregate)?;
    }
    Ok(())
}

fn cmd_multicast(opts: &Options) -> Result<(), String> {
    let g = parse_topology(&opts.topology, opts.seed)?;
    let algo = opts.algo.as_deref().unwrap_or("decay-rlnc");
    let source = NodeId::new(0);
    println!(
        "topology {} ({} nodes), k = {}, fault {}, algo {algo}",
        opts.topology,
        g.node_count(),
        opts.k,
        opts.fault
    );
    if !matches!(algo, "decay-rlnc" | "rfastbc-rlnc" | "streaming-rlnc") {
        return Err(format!("unknown multicast algo `{algo}`"));
    }
    let cfg = opts.sweep();
    let per_trial: Vec<Result<(u64, bool), String>> =
        run_cells(cfg.jobs, cfg.master_seed, opts.trials as usize, |ctx| {
            let out = match algo {
                "decay-rlnc" => DecayRlnc {
                    phase_len: None,
                    payload_len: 4,
                }
                .run(&g, source, opts.k, opts.fault, ctx.seed, MAX_ROUNDS)
                .map_err(|e| e.to_string())?,
                "rfastbc-rlnc" => RobustFastbcRlnc {
                    params: Default::default(),
                    payload_len: 4,
                }
                .run(&g, source, opts.k, opts.fault, ctx.seed, MAX_ROUNDS)
                .map_err(|e| e.to_string())?,
                _ => StreamingRlnc {
                    phase_len: None,
                    payload_len: 4,
                }
                .run(&g, source, opts.k, opts.fault, ctx.seed, MAX_ROUNDS)
                .map_err(|e| e.to_string())?,
            };
            Ok((completed_rounds(out.run.rounds)?, out.decoded_ok))
        });
    let mut total = 0u64;
    for (t, trial) in per_trial.into_iter().enumerate() {
        let (rounds, decoded_ok) = trial?;
        println!(
            "  trial {t}: {rounds} rounds ({:.1}/message), payloads {}",
            rounds as f64 / opts.k as f64,
            if decoded_ok { "verified" } else { "MISMATCH" }
        );
        if !decoded_ok {
            return Err("decoded payloads did not match the source".into());
        }
        total += rounds;
    }
    println!("mean: {:.1} rounds", total as f64 / opts.trials as f64);
    Ok(())
}

fn cmd_traffic(opts: &Options) -> Result<(), String> {
    let g = parse_topology(&opts.topology, opts.seed)?;
    let algo = opts.algo.as_deref().unwrap_or("decay");
    if !matches!(algo, "decay" | "xin-xia" | "rlnc") {
        return Err(format!("unknown traffic algo `{algo}`"));
    }
    let source = NodeId::new(0);
    let config = TrafficConfig {
        rate: opts.rate,
        messages: opts.messages,
        max_rounds: opts.max_rounds,
    };
    println!(
        "topology {} ({} nodes, {} edges), fault {}, algo {algo}",
        opts.topology,
        g.node_count(),
        g.edge_count(),
        opts.fault
    );
    println!(
        "offered load λ = {} messages/round, {} messages, cap {} rounds",
        opts.rate, opts.messages, opts.max_rounds
    );
    let cfg = opts.sweep();
    let per_trial: Vec<Result<(ThroughputRun, f64), String>> =
        run_cells(cfg.jobs, cfg.master_seed, opts.trials as usize, |ctx| {
            let t0 = std::time::Instant::now();
            let run = match algo {
                "decay" => run_decay_traffic(&g, source, opts.fault, &config, ctx.seed),
                "xin-xia" => run_xin_xia_traffic(&g, source, opts.fault, &config, ctx.seed),
                _ => run_rlnc_traffic(&g, source, opts.gen, opts.fault, &config, ctx.seed),
            }
            .map_err(|e| e.to_string())?;
            Ok((run, t0.elapsed().as_secs_f64() * 1e3))
        });
    let mut aggregate = CounterSink::new();
    for (t, trial) in per_trial.into_iter().enumerate() {
        let (run, ms) = trial?;
        println!(
            "  trial {t}: {} rounds, {}/{} delivered, throughput {:.4} msg/round, \
             peak queue {} ({ms:.1} ms){}",
            run.rounds,
            run.delivered,
            run.injected,
            run.achieved_rate(),
            run.peak_queued,
            if run.saturated {
                " — SATURATED at the round cap"
            } else {
                ""
            }
        );
        let lat = run.latency_summary();
        println!(
            "    latency over {} delivered: {} rounds",
            run.delivered,
            LatencySummary::inline_or_dash(lat.as_ref())
        );
        if opts.telemetry_enabled() {
            aggregate.span(&format!("trial/{t}"), (ms * 1e6) as u64);
            aggregate.counter("traffic/delivered", run.delivered);
            aggregate.counter("traffic/injected", run.injected);
            aggregate.counter("traffic/peak_queued", run.peak_queued);
        }
    }
    if opts.telemetry_enabled() {
        opts.finish_telemetry(&aggregate)?;
    }
    Ok(())
}

fn cmd_gap(opts: &Options) -> Result<(), String> {
    // Both arms need something to send and someone to send it to;
    // reject empty inputs before either arm runs.
    if opts.leaves == 0 {
        return Err("gap needs --leaves ≥ 1".into());
    }
    if opts.k == 0 {
        return Err("gap needs --k ≥ 1".into());
    }
    println!(
        "star with {} leaves, k = {}, fault {} (Theorem 17 setting)",
        opts.leaves, opts.k, opts.fault
    );
    // With telemetry requested, the routing run additionally
    // attributes wall clock to its decide/resolve phases; results are
    // identical either way.
    let (routing_out, phases) = if opts.telemetry_enabled() {
        let (out, phases) =
            star_routing_telemetry(opts.leaves, opts.k, opts.fault, opts.seed, MAX_ROUNDS)
                .map_err(|e| e.to_string())?;
        (out, Some(phases))
    } else {
        let out = star_routing(opts.leaves, opts.k, opts.fault, opts.seed, MAX_ROUNDS)
            .map_err(|e| e.to_string())?;
        (out, None)
    };
    let routing = routing_out.rounds.ok_or("routing did not finish")?;
    let coding = completed_rounds(
        star_coding(opts.leaves, opts.k, opts.fault, opts.seed, MAX_ROUNDS)
            .map_err(|e| e.to_string())?
            .rounds,
    )?;
    println!(
        "  adaptive routing: {routing} rounds (τ = {:.4})",
        opts.k as f64 / routing as f64
    );
    println!(
        "  RS coding:        {coding} rounds (τ = {:.4})",
        opts.k as f64 / coding as f64
    );
    println!("  coding gap:       {:.2}×", routing as f64 / coding as f64);
    if let Some(phases) = phases {
        eprint!("{}", phases.render_table("routing phase breakdown"));
        let mut counters = CounterSink::new();
        phases.emit(&mut counters, "");
        opts.finish_telemetry(&counters)?;
    }
    Ok(())
}

fn cmd_consensus(opts: &Options) -> Result<(), String> {
    let g = parse_topology(&opts.topology, opts.seed)?;
    let n = g.node_count();
    let algo = opts.algo.as_deref().unwrap_or("brb");
    if !matches!(algo, "brb" | "ben-or") {
        return Err(format!("unknown consensus algo `{algo}`"));
    }
    let f = opts.faulty;
    // Node 0 (the BRB source) is always spared; the selection is
    // seeded from --seed, so reruns corrupt the same nodes.
    let adversary = if f == 0 {
        Adversary::honest(n)
    } else {
        Adversary::seeded(
            n,
            f,
            parse_adversary(&opts.adversary)?,
            opts.seed,
            &[NodeId::new(0)],
        )
        .map_err(|e| e.to_string())?
    };
    println!(
        "topology {} ({n} nodes), fault {}, algo {algo}, f = {f} ({})",
        opts.topology,
        opts.fault,
        if f == 0 {
            "all honest".to_string()
        } else {
            format!("adversary {}", opts.adversary)
        }
    );
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let cfg = opts.sweep();
    let per_trial: Vec<Result<(ConsensusRun, f64), String>> =
        run_cells(cfg.jobs, cfg.master_seed, opts.trials as usize, |ctx| {
            let t0 = std::time::Instant::now();
            match algo {
                "brb" => Brb::new().run(
                    &g,
                    NodeId::new(0),
                    true,
                    f,
                    opts.fault,
                    &adversary,
                    ctx.seed,
                    opts.max_rounds,
                ),
                _ => BenOr::new().run(
                    &g,
                    &inputs,
                    f,
                    opts.fault,
                    &adversary,
                    ctx.seed,
                    opts.max_rounds,
                ),
            }
            .map_err(|e| e.to_string())
            .map(|run| (run, t0.elapsed().as_secs_f64() * 1e3))
        });
    let mut aggregate = CounterSink::new();
    for (t, trial) in per_trial.into_iter().enumerate() {
        let (run, ms) = trial?;
        let rounds = match run.rounds {
            Some(r) => format!("{r} rounds"),
            None => format!("DID NOT TERMINATE within {} rounds", opts.max_rounds),
        };
        let decision = match run.decided_value() {
            Some(v) => format!("decided {v}"),
            None if run.agreement() => "no decision yet".to_string(),
            None => "DISAGREEMENT".to_string(),
        };
        println!(
            "  trial {t}: {rounds}, {}/{} honest decided, {decision} ({ms:.1} ms)",
            run.decided_count(),
            run.honest_count(),
        );
        if !run.agreement() {
            return Err("honest nodes disagreed".into());
        }
        if opts.telemetry_enabled() {
            aggregate.span(&format!("trial/{t}"), (ms * 1e6) as u64);
            aggregate.counter("consensus/decided", run.decided_count() as u64);
        }
    }
    if opts.telemetry_enabled() {
        opts.finish_telemetry(&aggregate)?;
    }
    Ok(())
}

fn cmd_topo(opts: &Options) -> Result<(), String> {
    let g = parse_topology(&opts.topology, opts.seed)?;
    println!("topology {}", opts.topology);
    println!("  nodes:     {}", g.node_count());
    println!("  edges:     {}", g.edge_count());
    println!("  connected: {}", metrics::is_connected(&g));
    if let Some(d) = metrics::diameter(&g) {
        println!("  diameter:  {d}");
    }
    if let Some(s) = metrics::degree_stats(&g) {
        println!(
            "  degrees:   min {} / mean {:.2} / max {}",
            s.min, s.mean, s.max
        );
    }
    match Gbst::build(&g, NodeId::new(0)) {
        Ok(t) => {
            println!(
                "  GBST:      r_max {}, {} fast stretches, {} demotions",
                t.max_rank(),
                t.stretches().len(),
                t.demoted_count()
            );
        }
        Err(e) => println!("  GBST:      unavailable ({e})"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs() {
        assert_eq!(parse_fault("faultless").unwrap(), Channel::faultless());
        assert_eq!(
            parse_fault("receiver:0.5").unwrap(),
            Channel::receiver(0.5).unwrap()
        );
        assert_eq!(
            parse_fault("sender:0.25").unwrap(),
            Channel::sender(0.25).unwrap()
        );
        assert_eq!(
            parse_fault("erasure:0.5").unwrap(),
            Channel::erasure(0.5).unwrap()
        );
        // Composed specs work everywhere a channel spec is parsed, and
        // the Display form round-trips back through the same parser.
        let composed = parse_fault("sender:0.1+erasure:0.3").unwrap();
        assert_eq!(
            composed,
            Channel::sender(0.1)
                .unwrap()
                .compose(Channel::erasure(0.3).unwrap())
                .unwrap()
        );
        assert_eq!(parse_fault(&composed.to_string()).unwrap(), composed);
        assert!(parse_fault("receiver").is_err());
        assert!(parse_fault("gamma:0.5").is_err());
        assert!(parse_fault("receiver:1.5").is_err());
        // Mixed delivery presentations cannot compose.
        assert!(parse_fault("receiver:0.1+erasure:0.1").is_err());
        // Nor can components whose merged loss rounds to certainty.
        assert_eq!(
            parse_fault("receiver:0.99999999999+receiver:0.99999999999"),
            Err("fault probability 1 outside [0, 1)".into())
        );
    }

    #[test]
    fn adversary_specs() {
        assert_eq!(
            parse_adversary("crash").unwrap(),
            Misbehavior::Crash { round: 10 }
        );
        assert_eq!(
            parse_adversary("crash:25").unwrap(),
            Misbehavior::Crash { round: 25 }
        );
        assert_eq!(
            parse_adversary("equivocate").unwrap(),
            Misbehavior::Equivocate
        );
        assert_eq!(parse_adversary("jam").unwrap(), Misbehavior::Jam);
        assert!(parse_adversary("crash:soon").is_err());
        assert!(parse_adversary("bribe").is_err());
    }

    #[test]
    fn consensus_flag_parsing() {
        let args: Vec<String> = ["--faulty", "2", "--adversary", "jam"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.faulty, 2);
        assert_eq!(o.adversary, "jam");
        let d = Options::parse(&[]).unwrap();
        assert_eq!(d.faulty, 0);
        assert_eq!(d.adversary, "crash");
    }

    #[test]
    fn topology_specs() {
        assert_eq!(parse_topology("path:9", 1).unwrap().node_count(), 9);
        assert_eq!(parse_topology("star:5", 1).unwrap().node_count(), 6);
        assert_eq!(parse_topology("grid:3x4", 1).unwrap().node_count(), 12);
        assert_eq!(parse_topology("torus:3x3", 1).unwrap().node_count(), 9);
        assert_eq!(parse_topology("tree:2:3", 1).unwrap().node_count(), 15);
        assert_eq!(parse_topology("hypercube:3", 1).unwrap().node_count(), 8);
        assert!(parse_topology("gnp:30:0.2", 1).is_ok());
        assert!(parse_topology("udg:30:0.3", 1).is_ok());
        assert!(parse_topology("banana:3", 1).is_err());
        assert!(parse_topology("grid:3", 1).is_err());
        // Node counts past `NodeId`'s range are errors, not truncated
        // or panicking builds.
        for spec in [
            "hypercube:4294967297",
            "grid:4294967296x4294967296",
            "torus:4294967296x4294967296",
            "spider:4294967296:4294967296",
            "tree:1000:1000",
            "star:18446744073709551615",
            "caterpillar:4294967296:4294967296",
        ] {
            assert!(parse_topology(spec, 1).is_err(), "{spec}");
        }
    }

    #[test]
    fn option_parsing() {
        let args: Vec<String> = ["--topology", "path:5", "--k", "3", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.topology, "path:5");
        assert_eq!(o.k, 3);
        assert_eq!(o.seed, 9);
        assert!(Options::parse(&["--bogus".to_string()]).is_err());
        assert!(Options::parse(&["--k".to_string()]).is_err());
    }

    #[test]
    fn traffic_flag_parsing() {
        let args: Vec<String> = [
            "--rate",
            "0.2",
            "--messages",
            "64",
            "--max-rounds",
            "5000",
            "--gen",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.rate, 0.2);
        assert_eq!(o.messages, 64);
        assert_eq!(o.max_rounds, 5000);
        assert_eq!(o.gen, 8);
        let bad: Vec<String> = ["--rate", "fast"].iter().map(|s| s.to_string()).collect();
        assert!(Options::parse(&bad).is_err());
    }

    #[test]
    fn telemetry_flag_parsing() {
        let args: Vec<String> = ["--telemetry", "out.jsonl", "--telemetry-summary"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.telemetry.as_deref(), Some("out.jsonl"));
        assert!(o.telemetry_summary);
        assert!(o.telemetry_enabled());
        let d = Options::parse(&[]).unwrap();
        assert!(!d.telemetry_enabled());
    }

    #[test]
    fn jobs_parsing() {
        let args: Vec<String> = ["--jobs", "2"].iter().map(|s| s.to_string()).collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.jobs, Some(2));
        assert_eq!(o.sweep().jobs, 2);
        // Default: resolved from available parallelism, always ≥ 1.
        let d = Options::parse(&[]).unwrap();
        assert_eq!(d.jobs, None);
        assert!(d.sweep().jobs >= 1);
        let zero: Vec<String> = ["--jobs", "0"].iter().map(|s| s.to_string()).collect();
        assert!(Options::parse(&zero).is_err());
    }

    #[test]
    fn help_flag_after_a_command_prints_help() {
        for args in [["gap", "--help"], ["broadcast", "-h"]] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            assert_eq!(run(&args), Ok(()));
        }
    }

    #[test]
    fn gap_rejects_empty_inputs_before_running() {
        let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            run(&args(&["gap", "--leaves", "0"])),
            Err("gap needs --leaves ≥ 1".into())
        );
        assert_eq!(
            run(&args(&["gap", "--leaves", "4", "--k", "0"])),
            Err("gap needs --k ≥ 1".into())
        );
        assert_eq!(run(&args(&["gap", "--leaves", "1", "--k", "1"])), Ok(()));
        // One node past `NodeId`'s range: an error, not a 2³²-edge star.
        let err = run(&args(&["gap", "--leaves", "4294967296"])).unwrap_err();
        assert!(err.contains("star has more than"), "{err}");
    }

    #[test]
    fn an_exhausted_budget_is_an_error_not_a_panic() {
        assert_eq!(completed_rounds(Some(17)), Ok(17));
        assert_eq!(
            completed_rounds(None),
            Err("did not complete within 500000000 rounds".into())
        );
    }

    #[test]
    fn help_states_the_k_default_gap_runs_with() {
        let k = Options::parse(&[]).unwrap().k;
        assert!(HELP.contains(&format!("--k N             messages (default {k})")));
    }
}
