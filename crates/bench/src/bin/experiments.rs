//! Runs the experiment suite and prints the reports (text by default,
//! `--markdown` for Markdown fragments).
//!
//! ```text
//! experiments [--quick|--full|--smoke] [--markdown] [--jobs N]
//!             [--seed S] [--json PATH]
//!             [--telemetry PATH] [--telemetry-summary] [IDS...]
//! experiments --list
//! experiments --diff OLD.json NEW.json
//! experiments --help
//! ```
//!
//! `--smoke` selects the large-`n` CI gate grids (currently E8 at
//! 2¹⁷ leaves); drivers without a dedicated smoke grid run their
//! quick one.
//!
//! `IDS` filters by experiment id (e.g. `E8 E10`); default runs all.
//! At most one scale flag may be given (default `--quick`).
//! `--list` prints the registry (one `id  description` line per
//! experiment) and exits; `--help` (or `-h`) prints the synopsis above
//! and exits. `--jobs` sets the sweep worker count, at most 1024
//! (default: available parallelism) — for a fixed `--seed`, tables and
//! the measured content of the `--json` artifact are byte-identical for
//! any `--jobs` value (DESIGN.md §4b). The `--json` and `--telemetry`
//! paths are opened before any experiment runs, so a path that cannot
//! be written fails at once. The artifact additionally
//! records every experiment's per-cell wall-clock milliseconds
//! (`cell_ms`); that one field is observability data and is ignored
//! by `--diff`.
//!
//! `--diff` compares two `--json` artifacts instead of running
//! anything: it prints which findings and table cells moved and exits
//! non-zero when the artifacts differ, turning the suite into a
//! measured regression gate.
//!
//! `--telemetry PATH` writes a JSONL event log (one
//! `{"span"|"counter", "value"}` object per line, DESIGN.md §12) of
//! per-driver and per-cell wall clocks; `--telemetry-summary` prints
//! the aggregated span/counter tables to stderr. Both are
//! observational only: reports and the `--json` artifact are
//! byte-identical with telemetry on or off.

use std::process::ExitCode;

use noisy_radio_bench::{
    diff_artifact_files, emit_suite_telemetry, experiments, render_suite_summary, suite_json_timed,
    Scale,
};
use radio_obs::{CounterSink, JsonlSink};
use radio_sweep::{parse_jobs, OutputFile, SweepConfig};

/// The synopsis of the module docs, printed by `--help` and `-h`.
const USAGE: &str = "\
usage: experiments [--quick|--full|--smoke] [--markdown] [--jobs N]
                   [--seed S] [--json PATH]
                   [--telemetry PATH] [--telemetry-summary] [IDS...]
       experiments --list
       experiments --diff OLD.json NEW.json
       experiments --help

One scale flag at most (default --quick); --jobs N takes 1 to 1024
workers (default: available parallelism).
";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut scale: Option<Scale> = None;
    let mut markdown = false;
    let mut jobs: Option<usize> = None;
    let mut master_seed: u64 = 42;
    let mut json_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut telemetry_summary = false;
    let mut diff_paths: Option<(String, String)> = None;
    let mut filter: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {arg} needs a value"))
        };
        let mut set_scale = |chosen: Scale| match scale.replace(chosen) {
            None => Ok(()),
            Some(first) => Err(format!(
                "{arg} after --{}: give one scale flag",
                first.name()
            )),
        };
        match arg.as_str() {
            "--quick" => set_scale(Scale::Quick)?,
            "--full" => set_scale(Scale::Full)?,
            "--smoke" => set_scale(Scale::Smoke)?,
            "--markdown" => markdown = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--list" => {
                print!("{}", experiments::render_registry());
                return Ok(ExitCode::SUCCESS);
            }
            "--jobs" => jobs = Some(parse_jobs(&value()?)?),
            "--seed" => {
                master_seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--json" => json_path = Some(value()?),
            "--telemetry" => telemetry_path = Some(value()?),
            "--telemetry-summary" => telemetry_summary = true,
            "--diff" => {
                let old = value()?;
                let new = it
                    .next()
                    .cloned()
                    .ok_or("--diff needs two artifact paths")?;
                diff_paths = Some((old, new));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            id => filter.push(id.to_uppercase()),
        }
    }

    if let Some((old, new)) = diff_paths {
        let diff = diff_artifact_files(&old, &new)?;
        print!("{}", diff.render());
        return Ok(if diff.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // Check the ids and open every output before any cell runs, so
    // that a bad id or a path that cannot be written fails at once.
    experiments::check_ids(&filter)?;
    let json_out = json_path.as_deref().map(OutputFile::open).transpose()?;
    let telemetry_out = telemetry_path
        .as_deref()
        .map(OutputFile::open)
        .transpose()?;
    let scale = scale.unwrap_or(Scale::Quick);
    let cfg = SweepConfig::new(jobs, master_seed);
    let t0 = std::time::Instant::now();
    let timed = experiments::run_selected_timed(scale, &cfg, &filter)?;
    let (reports, driver_ms): (Vec<_>, Vec<f64>) = timed.into_iter().unzip();

    let mut failures = 0;
    for report in &reports {
        if markdown {
            print!("{}", report.render_markdown());
        } else {
            print!("{}", report.render());
            println!();
        }
        if !report.all_ok() {
            failures += 1;
        }
    }
    if let Some(out) = &json_out {
        out.write(suite_json_timed(&reports, scale.name(), master_seed).as_bytes())?;
        eprintln!("(wrote {})", out.path());
    }
    if telemetry_out.is_some() || telemetry_summary {
        let mut counters = CounterSink::new();
        emit_suite_telemetry(&mut counters, &reports, &driver_ms);
        if let Some(out) = &telemetry_out {
            let mut jsonl = JsonlSink::new(Vec::new());
            counters.emit_into(&mut jsonl);
            let lines = jsonl.lines();
            let bytes = jsonl.finish().expect("writing to memory cannot fail");
            out.write(&bytes)?;
            eprintln!("(wrote {}: {lines} telemetry events)", out.path());
        }
        if telemetry_summary {
            eprint!("{}", render_suite_summary(&counters));
        }
    }
    eprintln!(
        "(completed in {:.1?}; scale: {scale:?}, jobs: {}, seed: {master_seed})",
        t0.elapsed(),
        cfg.jobs
    );
    if failures > 0 {
        eprintln!("{failures} experiment(s) had failed shape checks");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
