//! E11: faultless → sender-fault transformations (Lemmas 25–26,
//! Theorems 27–28).

use netgraph::{generators, NodeId};
use noisy_radio_core::transform::{
    BaseSchedule, CodingFaultTransform, SenderFaultRoutingTransform,
};
use radio_model::Channel;
use radio_sweep::{Plan, SweepConfig, TrialResult};
use radio_throughput::Table;

use crate::{ExperimentReport, Scale};

/// E11 — Lemmas 25/26: transformed schedules retain `τ(1−p)` of the
/// faultless throughput. Sweep `p` on two base schedules (star,
/// pipelined path); the measured ratio `τ'/τ` should track
/// `(1−p)/(1+η)` (routing) and `(1−p)(1−η)` (coding).
pub fn e11_transformations(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let ps = [0.1, 0.3, 0.5];
    let eta = 0.5;
    let x = scale.pick(64, 128);
    let k = scale.pick(4, 8);
    let path_n = scale.pick(8, 16);

    // Shared base schedules: the star and the pipelined path, plus the
    // faultless trace the coding transform replays.
    let star_graph = generators::star(16);
    let star_base = BaseSchedule::star(16, k);
    let path_graph = generators::path(path_n);
    let path_base = BaseSchedule::path_pipelined(path_n, k);
    let trace = path_base
        .validate_faultless(&path_graph, NodeId::new(0))
        .expect("valid base");
    assert!(trace.complete, "base schedule must be complete");

    // Register cells in row order: per p — star/routing, path/routing,
    // then the two coding fault kinds on the path.
    let mut plan = Plan::new();
    let mut cells = Vec::new();
    for &p in &ps {
        for (name, graph, base) in [
            ("star/routing".to_string(), &star_graph, &star_base),
            ("path/routing".to_string(), &path_graph, &path_base),
        ] {
            let h = plan.one(move |ctx| {
                let t = SenderFaultRoutingTransform { group_size: x, eta };
                let run = t
                    .run(graph, base, NodeId::new(0), p, ctx.seed)
                    .expect("valid transform");
                TrialResult::flagged(run.throughput(), run.success)
            });
            let predicted = (1.0 - p) / (1.0 + eta);
            cells.push((name, p, base.round_count(), predicted, h));
        }
        for fault in [
            Channel::sender(p).expect("valid p"),
            Channel::receiver(p).expect("valid p"),
        ] {
            // Label through the channel's uniform Display.
            let name = format!("path/coding {fault}");
            let graph = &path_graph;
            let base = &path_base;
            let trace = &trace;
            let h = plan.one(move |ctx| {
                let t = CodingFaultTransform {
                    group_size: x,
                    eta: 0.3,
                };
                let run = t
                    .run(graph, base, trace, fault, ctx.seed)
                    .expect("valid transform");
                TrialResult::flagged(run.throughput(), run.success)
            });
            let predicted = (1.0 - p) * (1.0 - 0.3);
            cells.push((name, p, path_base.round_count(), predicted, h));
        }
    }
    let res = plan.run(cfg, "E11");

    let mut table = Table::new(&[
        "base schedule",
        "p",
        "success",
        "τ base",
        "τ transformed",
        "ratio",
        "predicted",
    ]);
    let mut all_success = true;
    let mut max_err = 0.0f64;
    for (name, p, round_count, predicted, h) in &cells {
        let success = res.ok(*h);
        let throughput = res.value(*h);
        all_success &= success;
        let tau_base = k as f64 / *round_count as f64;
        let ratio = throughput / tau_base;
        max_err = max_err.max((ratio - predicted).abs() / predicted);
        table.row_owned(vec![
            name.clone(),
            format!("{p:.1}"),
            success.to_string(),
            format!("{tau_base:.3}"),
            format!("{throughput:.3}"),
            format!("{ratio:.3}"),
            format!("{predicted:.3}"),
        ]);
    }
    let mut report = ExperimentReport {
        id: "E11",
        claim: "Lemmas 25–26: faultless schedules transform to τ(1−p) under sender faults \
                (coding also under receiver faults) — hence Theorems 27–28",
        table,
        findings: Vec::new(),
        cell_ms: res.cell_ms().to_vec(),
    };
    report.check(
        all_success,
        "every transformed schedule delivered all grouped messages",
    );
    report.check(
        max_err < 0.25,
        format!(
            "throughput ratios track the predicted (1−p) factors within {:.0}%",
            max_err * 100.0
        ),
    );
    report
}
