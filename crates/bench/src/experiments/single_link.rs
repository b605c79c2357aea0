//! E12: single-link gaps (Appendix A, Lemmas 29–33).

use noisy_radio_core::schedules::single_link::{
    minimal_repetitions_for_success, single_link_adaptive_routing, single_link_coding,
};
use radio_model::Channel;
use radio_sweep::{Plan, SweepConfig, TrialResult};
use radio_throughput::{linear_fit, Table};

use crate::{ExperimentReport, Scale};

/// E12 — the single link at `p = 1/2`:
///
/// * non-adaptive routing needs `Θ(log k)` repetitions per message
///   (Lemma 29) — measured as the minimal repetition count reaching
///   ≥ 90% success, which should grow linearly in `log₂ k`;
/// * coding ships `k` messages in `Θ(k)` packets (Lemma 30);
/// * adaptive routing ships them in `≈ k/(1−p)` rounds (Lemma 32);
/// * so the non-adaptive gap is `Θ(log k)` (Lemma 31) and the adaptive
///   gap is `Θ(1)` (Lemma 33).
pub fn e12_single_link(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let ks: &[usize] = scale.pick(&[16, 64, 256], &[16, 64, 256, 1024, 4096]);
    let p = 0.5;
    let fault = Channel::receiver(p).expect("valid p");
    let trials = scale.pick(10, 20);
    let required = (trials as f64 * 0.9).ceil() as u64;
    let mut plan = Plan::new();
    let handles: Vec<_> = ks
        .iter()
        .map(|&k| {
            let reps = plan.one(move |_ctx| {
                // The last parameter is the search cap, not a seed.
                minimal_repetitions_for_success(k, fault, trials, required, 64)
                    .expect("valid")
                    .expect("some repetition count ≤ 64 must work")
            });
            // Coding: the Lemma 30 sizing (k/(1-p) with 30% slack);
            // each trial flags whether that budget succeeded.
            let coding_budget = (k as f64 / (1.0 - p) * 1.3).ceil() as u64;
            let coding = plan.trials(trials, move |ctx| {
                let ok = single_link_coding(k, coding_budget, fault, ctx.seed)
                    .expect("valid")
                    .success;
                TrialResult::flagged(coding_budget as f64, ok)
            });
            let adaptive = plan.trials(trials, move |ctx| {
                single_link_adaptive_routing(k, fault, ctx.seed, 100_000_000)
                    .expect("valid")
                    .rounds_used()
            });
            (reps, coding, coding_budget, adaptive)
        })
        .collect();
    let res = plan.run(cfg, "E12");

    let mut table = Table::new(&[
        "k",
        "log2 k",
        "min reps (non-adaptive)",
        "coding rounds (≥95% ok)",
        "adaptive rounds",
        "non-adaptive gap",
        "adaptive gap",
    ]);
    let mut reps_curve = Vec::new();
    let mut nonadaptive_gaps = Vec::new();
    let mut adaptive_gaps = Vec::new();
    for (&k, &(reps_h, coding_h, coding_budget, adaptive_h)) in ks.iter().zip(&handles) {
        let reps = res.value(reps_h) as u64;
        let ok = res.ok_count(coding_h);
        assert!(
            ok * 100 >= trials * 90,
            "coding budget too small: {ok}/{trials}"
        );
        let adaptive = res.mean(adaptive_h);
        let nonadaptive_rounds = (k as u64 * reps) as f64;
        let na_gap = nonadaptive_rounds / coding_budget as f64;
        let a_gap = adaptive / coding_budget as f64;
        let log_k = (k as f64).log2();
        table.row_owned(vec![
            k.to_string(),
            format!("{log_k:.0}"),
            reps.to_string(),
            coding_budget.to_string(),
            format!("{adaptive:.0}"),
            format!("{na_gap:.2}"),
            format!("{a_gap:.2}"),
        ]);
        reps_curve.push((log_k, reps as f64));
        nonadaptive_gaps.push(na_gap);
        adaptive_gaps.push(a_gap);
    }
    let fit = linear_fit(&reps_curve);
    let mut report = ExperimentReport {
        id: "E12",
        claim: "Lemmas 29–33: single link — Θ(log k) non-adaptive gap, Θ(1) adaptive gap",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    report.check(
        fit.slope > 0.3 && fit.r2 > 0.8,
        format!(
            "minimal repetitions grow linearly in log k (slope {:.2}/bit, R² = {:.3})",
            fit.slope, fit.r2
        ),
    );
    let na_growth =
        nonadaptive_gaps.last().expect("nonempty") / nonadaptive_gaps.first().expect("nonempty");
    report.check(
        na_growth > 1.4,
        format!("non-adaptive gap grows with k ({na_growth:.2}× across the sweep)"),
    );
    let a_spread = adaptive_gaps.iter().cloned().fold(0.0f64, f64::max)
        / adaptive_gaps.iter().cloned().fold(f64::INFINITY, f64::min);
    report.check(
        a_spread < 1.6,
        format!("adaptive gap stays Θ(1) (spread {a_spread:.2}× across the sweep)"),
    );
    report
}
