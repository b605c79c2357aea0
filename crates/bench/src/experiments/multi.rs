//! E6–E7: multi-message RLNC broadcast (Lemmas 12–13).
//!
//! Both tables carry per-node decode-latency columns next to the
//! completion rounds: the decode round of a node is when its RLNC
//! decoder first reaches full rank `k` (`decode_complete` in
//! `MultiMessageRun::profile`), so the spread between `lat p50` and
//! `lat max` shows how long the last stragglers gate the run.

use netgraph::{generators, NodeId};
use noisy_radio_core::multi_message::{DecayRlnc, MultiMessageRun, RobustFastbcRlnc};
use radio_model::{Channel, LatencyProfile};
use radio_sweep::{run_cells_timed, SweepConfig};
use radio_throughput::{linear_fit, LatencySummary, Table, LATENCY_HEADERS};

use crate::{ExperimentReport, Scale};

const MAX_ROUNDS: u64 = 100_000_000;

/// The decode-latency cells of one run, from the per-node profile.
fn decode_cells(profile: &LatencyProfile) -> Vec<String> {
    match LatencySummary::from_rounds(&profile.decode_latencies()) {
        Some(lat) => lat.cells(1),
        None => (0..4).map(|_| "-".to_string()).collect(),
    }
}

/// E6 — Lemma 12: Decay+RLNC broadcasts `k` messages in
/// `O(D log n + k log n + log² n)` rounds under faults, i.e. the
/// marginal cost per message is `Θ(log n)` and the throughput is
/// `Ω(1/log n)`.
pub fn e6_decay_rlnc(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let n = scale.pick(64, 128);
    let ks: &[usize] = scale.pick(&[8, 16, 32], &[8, 16, 32, 64, 128]);
    let p = 0.3;
    let fault = Channel::receiver(p).expect("valid p");
    let g = generators::gnp_connected(n, 4.0 / n as f64, 77).expect("valid");
    let log_n = (n as f64).log2();
    let (outs, cell_ms): (Vec<MultiMessageRun>, Vec<f64>) =
        run_cells_timed(cfg.jobs, cfg.scope_seed("E6"), ks.len(), |ctx| {
            DecayRlnc { payload_len: 0 }
                .run(
                    &g,
                    NodeId::new(0),
                    ks[ctx.index as usize],
                    fault,
                    ctx.seed,
                    MAX_ROUNDS,
                )
                .expect("valid")
        });

    let mut table = Table::new(&[
        "k",
        "rounds",
        "rounds/k",
        "(rounds/k)/log n",
        LATENCY_HEADERS[0],
        LATENCY_HEADERS[1],
        LATENCY_HEADERS[2],
        LATENCY_HEADERS[3],
    ]);
    let mut curve = Vec::new();
    let mut decode_bounded = true;
    for (&k, out) in ks.iter().zip(&outs) {
        assert!(out.decoded_ok, "RLNC decode failure");
        let rounds = out.run.rounds_used() as f64;
        let mut cells = vec![
            k.to_string(),
            format!("{rounds:.0}"),
            format!("{:.1}", rounds / k as f64),
            format!("{:.2}", rounds / k as f64 / log_n),
        ];
        cells.extend(decode_cells(&out.profile));
        table.row_owned(cells);
        let lat = LatencySummary::from_rounds(&out.profile.decode_latencies());
        decode_bounded &= lat
            .is_some_and(|l| l.count == n && l.max <= out.run.rounds_used() as f64 && l.mean > 0.0);
        curve.push((k as f64, rounds));
    }
    // Marginal cost per message from the linear fit of rounds vs k.
    let fit = linear_fit(&curve);
    let per_message_norm = fit.slope / log_n;
    let mut report = ExperimentReport {
        id: "E6",
        claim: "Lemma 12: Decay+RLNC sends k messages in O(D log n + k log n + log² n)",
        table,
        findings: Vec::new(),
        cell_ms,
    };
    report.check(
        fit.r2 > 0.97,
        format!("rounds grow linearly in k (R² = {:.3})", fit.r2),
    );
    report.check(
        (0.3..12.0).contains(&per_message_norm),
        format!(
            "marginal cost {:.1} rounds/message ≈ Θ(log n) (ratio to log n: {per_message_norm:.2})",
            fit.slope
        ),
    );
    report.check(
        decode_bounded,
        "every node's full-rank decode round is recorded and bounded by the run length",
    );
    report
}

/// E7 — Lemma 13: RobustFASTBC+RLNC broadcasts `k` messages in
/// `O(D + k log n log log n + polylog)` rounds; the marginal cost per
/// message is `Θ(log n log log n)`, but the additive `D`-term is
/// linear (not `D log n` as in E6).
pub fn e7_rfastbc_rlnc(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let n = scale.pick(64, 128);
    let ks: &[usize] = scale.pick(&[4, 8, 16], &[4, 8, 16, 32, 64]);
    let p = 0.3;
    let fault = Channel::receiver(p).expect("valid p");
    let g = generators::path(n);
    let log_n = (n as f64).log2();
    let loglog_n = log_n.log2();
    let (outs, cell_ms): (Vec<MultiMessageRun>, Vec<f64>) =
        run_cells_timed(cfg.jobs, cfg.scope_seed("E7"), ks.len(), |ctx| {
            RobustFastbcRlnc { payload_len: 0 }
                .run(
                    &g,
                    NodeId::new(0),
                    ks[ctx.index as usize],
                    fault,
                    ctx.seed,
                    MAX_ROUNDS,
                )
                .expect("valid")
        });

    let mut table = Table::new(&[
        "k",
        "rounds",
        "rounds/k",
        "(rounds/k)/(log n · log log n)",
        LATENCY_HEADERS[0],
        LATENCY_HEADERS[1],
        LATENCY_HEADERS[2],
        LATENCY_HEADERS[3],
    ]);
    let mut curve = Vec::new();
    let mut decode_bounded = true;
    for (&k, out) in ks.iter().zip(&outs) {
        assert!(out.decoded_ok, "RLNC decode failure");
        let rounds = out.run.rounds_used() as f64;
        let mut cells = vec![
            k.to_string(),
            format!("{rounds:.0}"),
            format!("{:.1}", rounds / k as f64),
            format!("{:.2}", rounds / k as f64 / (log_n * loglog_n)),
        ];
        cells.extend(decode_cells(&out.profile));
        table.row_owned(cells);
        let lat = LatencySummary::from_rounds(&out.profile.decode_latencies());
        decode_bounded &= lat
            .is_some_and(|l| l.count == n && l.max <= out.run.rounds_used() as f64 && l.mean > 0.0);
        curve.push((k as f64, rounds));
    }
    let fit = linear_fit(&curve);
    let mut report = ExperimentReport {
        id: "E7",
        claim: "Lemma 13: RobustFASTBC+RLNC sends k messages in O(D + k log n log log n + polylog)",
        table,
        findings: Vec::new(),
        cell_ms,
    };
    report.check(
        fit.r2 > 0.9,
        format!("rounds grow linearly in k (R² = {:.3})", fit.r2),
    );
    report.check(
        fit.slope > 0.0,
        format!("marginal cost {:.1} rounds/message", fit.slope),
    );
    report.check(
        decode_bounded,
        "every node's full-rank decode round is recorded and bounded by the run length",
    );
    report
}
