//! F1: GBST structure (Figure 1, Lemma 7).

use gbst::Gbst;
use netgraph::{generators, NodeId};
use radio_sweep::{run_cells_timed, SweepConfig};
use radio_throughput::Table;

use crate::{ExperimentReport, Scale};

/// Per-topology measurements of one GBST build.
struct GbstRow {
    nodes: usize,
    r_max: u32,
    log_bound: u32,
    demoted: usize,
    stretches: usize,
    max_stretches: usize,
    ok: bool,
}

/// F1 — Figure 1 / Lemma 7: GBSTs exist (after conflict demotion) on
/// every evaluation topology, with `r_max ≤ ⌈log₂ n⌉` and few
/// demotions; root paths decompose into `O(log n)` fast stretches.
pub fn f1_gbst_structure(scale: Scale, cfg: &SweepConfig) -> ExperimentReport {
    let n = scale.pick(256, 1024);
    let graphs: Vec<(&str, netgraph::Graph)> = vec![
        ("path", generators::path(n)),
        ("star", generators::star(n - 1)),
        ("grid", generators::grid(16, n / 16)),
        (
            "binary tree",
            generators::balanced_tree(2, (n as f64).log2() as usize - 1).expect("valid"),
        ),
        (
            "gnp sparse",
            generators::gnp_connected(n, 3.0 / n as f64, 5).expect("valid"),
        ),
        (
            "gnp dense",
            generators::gnp_connected(n, 16.0 / n as f64, 6).expect("valid"),
        ),
        (
            "caterpillar",
            generators::caterpillar(n / 4, 3).expect("valid"),
        ),
        (
            "hypercube",
            generators::hypercube((n as f64).log2() as u32).expect("valid"),
        ),
    ];
    // One cell per topology: GBST construction, validation, and the
    // all-nodes path decompositions are the expensive part.
    let (rows, cell_ms) = run_cells_timed(cfg.jobs, cfg.scope_seed("F1"), graphs.len(), |ctx| {
        let (_, g) = &graphs[ctx.index as usize];
        let t = Gbst::build(g, NodeId::new(0)).expect("connected");
        let nn = g.node_count();
        let log_bound = (nn as f64).log2().ceil() as u32;
        let max_stretches = g
            .nodes()
            .map(|v| t.path_decomposition(v).fast_stretches)
            .max()
            .unwrap_or(0);
        GbstRow {
            nodes: nn,
            r_max: t.max_rank(),
            log_bound,
            demoted: t.demoted_count(),
            stretches: t.stretches().len(),
            max_stretches,
            ok: t.validate(g).is_ok() && t.max_rank() <= log_bound + 1,
        }
    });

    let mut table = Table::new(&[
        "topology",
        "n",
        "r_max",
        "⌈log2 n⌉",
        "demoted",
        "stretches",
        "max stretches/path",
    ]);
    let mut all_ok = true;
    let mut max_demote_frac = 0.0f64;
    for ((name, _), row) in graphs.iter().zip(&rows) {
        all_ok &= row.ok;
        max_demote_frac = max_demote_frac.max(row.demoted as f64 / row.nodes.max(1) as f64);
        table.row_owned(vec![
            name.to_string(),
            row.nodes.to_string(),
            row.r_max.to_string(),
            row.log_bound.to_string(),
            row.demoted.to_string(),
            row.stretches.to_string(),
            row.max_stretches.to_string(),
        ]);
    }
    let mut report = ExperimentReport {
        id: "F1",
        claim: "Figure 1 / Lemma 7: GBSTs with r_max ≤ ⌈log₂ n⌉ and non-interfering fast edges",
        table,
        findings: Vec::new(),
        cell_ms,
    };
    report.check(
        all_ok,
        "every GBST validates (rank rule, Lemma 7 bound, non-interference)",
    );
    report.check(
        max_demote_frac < 0.2,
        format!(
            "conflict demotions affect ≤ {:.1}% of nodes on all topologies",
            max_demote_frac * 100.0
        ),
    );
    report
}
