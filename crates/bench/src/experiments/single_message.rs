//! E1–E5: single-message round complexities (Lemmas 6, 8, 9, 10 and
//! Theorem 11).

use netgraph::{generators, NodeId};
use noisy_radio_core::decay::Decay;
use noisy_radio_core::fastbc::FastbcSchedule;
use noisy_radio_core::repetition::RepeatedFastbcSchedule;
use noisy_radio_core::robust_fastbc::RobustFastbcSchedule;
use radio_model::Channel;
use radio_sweep::{Plan, SweepConfig};
use radio_throughput::{log_log_fit, Table};

use crate::{ExperimentReport, Scale};

const MAX_ROUNDS: u64 = 200_000_000;

/// E1 — Lemma 6: faultless Decay finishes in `O(D log n + log² n)`.
///
/// Sweep path lengths; the measured rounds should grow as `D·log n`:
/// the log–log slope of rounds against `D·log₂ n` is ≈ 1.
pub fn e1_decay_faultless(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    // Full grid extended two doublings past the original 1024 (the
    // ROADMAP "larger-n grids" item).
    let sizes: &[usize] = scale.pick(
        &[32, 64, 128, 256],
        &[32, 64, 128, 256, 512, 1024, 2048, 4096],
    );
    let trials = scale.pick(3, 10);
    let decay = Decay::new();
    let graphs: Vec<_> = sizes.iter().map(|&n| generators::path(n)).collect();
    let mut plan = Plan::new();
    let handles: Vec<_> = graphs
        .iter()
        .map(|g| {
            plan.trials(trials, move |ctx| {
                decay
                    .run(
                        g,
                        NodeId::new(0),
                        Channel::faultless(),
                        ctx.seed,
                        MAX_ROUNDS,
                    )
                    .expect("valid config")
                    .rounds_used()
            })
        })
        .collect();
    let res = plan.run(cfg, "E1");

    let mut table = Table::new(&[
        "n (path)",
        "D",
        "log2 n",
        "rounds (mean ± ci)",
        "rounds/(D·log n)",
    ]);
    let mut curve = Vec::new();
    for (&n, &h) in sizes.iter().zip(&handles) {
        let d = (n - 1) as f64;
        let log_n = (n as f64).log2();
        let s = res.summary(h);
        let normalized = s.mean / (d * log_n);
        table.row_owned(vec![
            n.to_string(),
            format!("{d:.0}"),
            format!("{log_n:.1}"),
            s.display_mean_ci(0),
            format!("{normalized:.2}"),
        ]);
        curve.push((d * log_n, s.mean));
    }
    let fit = log_log_fit(&curve);
    let mut report = ExperimentReport {
        id: "E1",
        claim: "Lemma 6: faultless Decay broadcasts in O(D log n + log² n)",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    report.check(
        (0.85..1.15).contains(&fit.slope),
        format!(
            "rounds scale as (D·log n)^{:.2} (expect exponent ≈ 1), R² = {:.3}",
            fit.slope, fit.r2
        ),
    );
    report
}

/// E2 — Lemma 8: faultless FASTBC finishes in `D + O(log² n)`; the
/// dependence on `D` is linear with slope ≈ 2 rounds per hop (the
/// schedule interleaves fast and slow rounds).
pub fn e2_fastbc_faultless(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    // Full grid extended two doublings (2048 → 8192).
    let sizes: &[usize] = scale.pick(
        &[64, 128, 256],
        &[64, 128, 256, 512, 1024, 2048, 4096, 8192],
    );
    let trials = scale.pick(3, 8);
    let decay = Decay::new();
    let graphs: Vec<_> = sizes.iter().map(|&n| generators::path(n)).collect();
    let scheds: Vec<_> = graphs
        .iter()
        .map(|g| FastbcSchedule::new(g, NodeId::new(0)).expect("path is connected"))
        .collect();
    let mut plan = Plan::new();
    let handles: Vec<_> = graphs
        .iter()
        .zip(&scheds)
        .map(|(g, sched)| {
            let fast = plan.trials(trials, move |ctx| {
                sched
                    .run(Channel::faultless(), ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            let decay = plan.trials(trials, move |ctx| {
                decay
                    .run(
                        g,
                        NodeId::new(0),
                        Channel::faultless(),
                        ctx.seed,
                        MAX_ROUNDS,
                    )
                    .expect("valid")
                    .rounds_used()
            });
            (fast, decay)
        })
        .collect();
    let res = plan.run(cfg, "E2");

    let mut table = Table::new(&[
        "n (path)",
        "D",
        "FASTBC rounds",
        "Decay rounds",
        "rounds/D (FASTBC)",
    ]);
    let mut curve = Vec::new();
    let mut ratio_large = 0.0f64;
    for (&n, &(fast_h, decay_h)) in sizes.iter().zip(&handles) {
        let d = (n - 1) as f64;
        let fast = res.summary(fast_h);
        let decay = res.summary(decay_h);
        ratio_large = decay.mean / fast.mean;
        table.row_owned(vec![
            n.to_string(),
            format!("{d:.0}"),
            fast.display_mean_ci(0),
            decay.display_mean_ci(0),
            format!("{:.2}", fast.mean / d),
        ]);
        curve.push((d, fast.mean));
    }
    let fit = log_log_fit(&curve);
    let mut report = ExperimentReport {
        id: "E2",
        claim: "Lemma 8: faultless FASTBC broadcasts in D + O(log² n) — diameter-linear",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    report.check(
        (0.9..1.1).contains(&fit.slope),
        format!(
            "FASTBC rounds scale as D^{:.2} (expect 1.0), R² = {:.3}",
            fit.slope, fit.r2
        ),
    );
    report.check(
        ratio_large > 2.0,
        format!(
            "FASTBC beats Decay by {ratio_large:.1}× at the largest D (Decay pays log n per hop)"
        ),
    );
    report
}

/// E3 — Lemma 9: Decay stays correct under faults, paying the
/// `1/(1−p)` slowdown.
pub fn e3_decay_noisy(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let n = scale.pick(128, 512);
    let trials = scale.pick(3, 10);
    let ps = [0.0, 0.1, 0.3, 0.5, 0.7];
    let g = generators::path(n);
    // The channel's uniform Display labels the rows — no hand-made
    // "receiver"/"sender" strings. The composed arm splits each loss
    // budget evenly across both fault sites (`(1−q)² = 1−p`), so its
    // combined `fault_probability` matches the simple arms and the
    // `rounds × (1−p)` normalization extends to it unchanged.
    let mut channels = Vec::new();
    for &p in &ps {
        if p == 0.0 {
            channels.push(Channel::faultless());
        } else {
            channels.push(Channel::receiver(p).expect("valid p"));
            channels.push(Channel::sender(p).expect("valid p"));
            let q = ((1.0 - (1.0 - p).sqrt()) * 1e4).round() / 1e4;
            channels.push(
                Channel::sender(q)
                    .expect("valid p")
                    .compose(Channel::erasure(q).expect("valid p"))
                    .expect("sender composes with erasure"),
            );
        }
    }
    let mut plan = Plan::new();
    let cells: Vec<_> = channels
        .iter()
        .map(|&fault| {
            let g = &g;
            let h = plan.trials(trials, move |ctx| {
                Decay::new()
                    .run(g, NodeId::new(0), fault, ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            (fault, h)
        })
        .collect();
    let res = plan.run(cfg, "E3");

    let mut table = Table::new(&["channel", "rounds (mean ± ci)", "rounds × (1-p)"]);
    let mut normalized = Vec::new();
    for &(fault, h) in &cells {
        let s = res.summary(h);
        let norm = s.mean * (1.0 - fault.fault_probability());
        table.row_owned(vec![
            fault.to_string(),
            s.display_mean_ci(0),
            format!("{norm:.0}"),
        ]);
        normalized.push(norm);
    }
    let base = normalized[0];
    let spread = normalized
        .iter()
        .fold(0.0f64, |acc, &v| acc.max((v - base).abs() / base));
    let mut report = ExperimentReport {
        id: "E3",
        claim: "Lemma 9: Decay under faults needs O((log n/(1−p))(D + log n)) rounds",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    report.check(
        spread < 0.8,
        format!(
            "rounds × (1−p) stays within {:.0}% of the faultless baseline across p ≤ 0.7",
            spread * 100.0
        ),
    );
    report
}

/// E4 — Lemma 10: FASTBC on a path degrades to
/// `Θ((p/(1−p)) D log n + D/(1−p))` — the noisy/faultless ratio grows
/// with `log n`, unlike Robust FASTBC's `O(1)`.
pub fn e4_fastbc_degradation(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let sizes: &[usize] = scale.pick(&[128, 512], &[128, 512, 2048]);
    let trials = scale.pick(3, 6);
    let p = 0.5;
    let graphs: Vec<_> = sizes.iter().map(|&n| generators::path(n)).collect();
    let scheds: Vec<_> = sizes
        .iter()
        .zip(&graphs)
        .map(|(&n, g)| {
            let log_n = (n as f64).log2().ceil() as u32;
            // The paper's analysis regime: rank slots = Θ(log n).
            FastbcSchedule::with_rank_slots(g, NodeId::new(0), log_n).expect("valid")
        })
        .collect();
    let robusts: Vec<_> = graphs
        .iter()
        .map(|g| RobustFastbcSchedule::new(g, NodeId::new(0)).expect("valid"))
        .collect();
    let noisy_fault = Channel::receiver(p).expect("valid p");
    let mut plan = Plan::new();
    let handles: Vec<_> = scheds
        .iter()
        .zip(&robusts)
        .map(|(sched, robust)| {
            let clean = plan.trials(trials, move |ctx| {
                sched
                    .run(Channel::faultless(), ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            let noisy = plan.trials(trials, move |ctx| {
                sched
                    .run(noisy_fault, ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            let rclean = plan.trials(trials, move |ctx| {
                robust
                    .run(Channel::faultless(), ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            let rnoisy = plan.trials(trials, move |ctx| {
                robust
                    .run(noisy_fault, ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            (clean, noisy, rclean, rnoisy)
        })
        .collect();
    let res = plan.run(cfg, "E4");

    let mut table = Table::new(&[
        "n (path)",
        "log2 n",
        "FASTBC clean",
        "FASTBC noisy",
        "FASTBC noisy/clean",
        "RobustFASTBC noisy/clean",
    ]);
    let mut fast_ratios = Vec::new();
    let mut robust_ratios = Vec::new();
    for (&n, &(clean_h, noisy_h, rclean_h, rnoisy_h)) in sizes.iter().zip(&handles) {
        let log_n = (n as f64).log2().ceil() as u32;
        let clean = res.summary(clean_h);
        let noisy = res.summary(noisy_h);
        let rclean = res.summary(rclean_h);
        let rnoisy = res.summary(rnoisy_h);
        let fr = noisy.mean / clean.mean;
        let rr = rnoisy.mean / rclean.mean;
        fast_ratios.push(fr);
        robust_ratios.push(rr);
        table.row_owned(vec![
            n.to_string(),
            log_n.to_string(),
            format!("{:.0}", clean.mean),
            format!("{:.0}", noisy.mean),
            format!("{fr:.2}"),
            format!("{rr:.2}"),
        ]);
    }
    let mut report = ExperimentReport {
        id: "E4",
        claim: "Lemma 10: faulty FASTBC pays Θ(p·log n) per hop; Robust FASTBC pays O(1)",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    // The ratio grows like log n, so the expected growth across the
    // sweep is log(n_max)/log(n_min): ≈ 1.29 for the quick grid
    // (128 → 512), ≈ 1.57 for the full grid (128 → 2048). Thresholds
    // sit below those with margin for trial noise.
    let growth_min = scale.pick(1.15, 1.5);
    let growth = fast_ratios.last().unwrap() / fast_ratios.first().unwrap();
    report.check(
        growth > growth_min,
        format!(
            "FASTBC noisy/clean ratio grows {:.2}× from smallest to largest n (log n growth)",
            growth
        ),
    );
    let rmax = robust_ratios.iter().cloned().fold(0.0f64, f64::max);
    report.check(
        rmax < 4.0,
        format!("Robust FASTBC noisy/clean ratio stays bounded (max {rmax:.2})"),
    );
    report.check(
        fast_ratios.last().unwrap() > robust_ratios.last().unwrap(),
        "at the largest n, FASTBC degrades more than Robust FASTBC",
    );
    report
}

/// E5 — Theorem 11: Robust FASTBC is diameter-linear under faults and
/// beats Decay and the naive repetition baselines for large `D`.
pub fn e5_robust_fastbc(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    // Full grid extended two doublings (2048 → 8192).
    let sizes: &[usize] = scale.pick(&[128, 256, 512], &[128, 256, 512, 1024, 2048, 4096, 8192]);
    let trials = scale.pick(3, 6);
    let p = 0.3;
    let fault = Channel::receiver(p).expect("valid p");
    let decay = Decay::new();
    let graphs: Vec<_> = sizes.iter().map(|&n| generators::path(n)).collect();
    let robusts: Vec<_> = graphs
        .iter()
        .map(|g| RobustFastbcSchedule::new(g, NodeId::new(0)).expect("valid"))
        .collect();
    let repeateds: Vec<_> = sizes
        .iter()
        .zip(&graphs)
        .map(|(&n, g)| {
            let reps = (n as f64).log2().ceil() as u32;
            RepeatedFastbcSchedule::new(g, NodeId::new(0), reps).expect("valid")
        })
        .collect();
    let mut plan = Plan::new();
    let handles: Vec<_> = graphs
        .iter()
        .zip(robusts.iter().zip(&repeateds))
        .map(|(g, (robust, repeated))| {
            let r = plan.trials(trials, move |ctx| {
                robust
                    .run(fault, ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            let decay = plan.trials(trials, move |ctx| {
                decay
                    .run(g, NodeId::new(0), fault, ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            let rep = plan.trials(trials, move |ctx| {
                repeated
                    .run(fault, ctx.seed, MAX_ROUNDS)
                    .expect("valid")
                    .rounds_used()
            });
            (r, decay, rep)
        })
        .collect();
    let res = plan.run(cfg, "E5");

    let mut table = Table::new(&[
        "n (path)",
        "RobustFASTBC",
        "Decay",
        "FASTBC×log n reps",
        "Robust rounds/D",
    ]);
    let mut curve = Vec::new();
    let mut robust_per_hop = Vec::new();
    let mut decay_per_hop = Vec::new();
    let mut last_vs_decay = 0.0f64;
    for (&n, &(r_h, decay_h, rep_h)) in sizes.iter().zip(&handles) {
        let d = (n - 1) as f64;
        let r = res.summary(r_h);
        let decay = res.summary(decay_h);
        let rep = res.summary(rep_h);
        last_vs_decay = decay.mean / r.mean;
        robust_per_hop.push(r.mean / d);
        decay_per_hop.push(decay.mean / d);
        table.row_owned(vec![
            n.to_string(),
            r.display_mean_ci(0),
            decay.display_mean_ci(0),
            rep.display_mean_ci(0),
            format!("{:.2}", r.mean / d),
        ]);
        curve.push((d, r.mean));
    }
    let fit = log_log_fit(&curve);
    let mut report = ExperimentReport {
        id: "E5",
        claim: "Theorem 11: Robust FASTBC broadcasts in O(D + polylog) under faults",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    report.check(
        (0.85..1.15).contains(&fit.slope),
        format!(
            "Robust FASTBC rounds scale as D^{:.2} (expect 1.0), R² = {:.3}",
            fit.slope, fit.r2
        ),
    );
    // The separation claim: Decay's per-hop cost is Θ(log n) and keeps
    // growing; Robust FASTBC's per-hop cost is O(1) — flat across the
    // sweep — so Robust FASTBC pulls ahead as D grows.
    let robust_growth =
        robust_per_hop.last().expect("nonempty") / robust_per_hop.first().expect("nonempty");
    report.check(
        robust_growth < 1.25,
        format!("Robust FASTBC per-hop cost is flat in D (growth {robust_growth:.2}×)"),
    );
    report.check(
        last_vs_decay > 1.05,
        format!(
            "Robust FASTBC beats Decay by {last_vs_decay:.2}× at the largest D \
                 (margin widens with log n)"
        ),
    );
    report
}
