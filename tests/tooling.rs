//! Cross-crate integration for the tooling layer: DOT export and
//! percentile reporting over real algorithm runs.

use noisy_radio::core::decay::Decay;
use noisy_radio::gbst::Gbst;
use noisy_radio::model::Channel;
use noisy_radio::netgraph::{dot, generators, NodeId};
use noisy_radio::throughput::Percentiles;

#[test]
fn gbst_dot_renders_every_stretch_on_generated_graphs() {
    for seed in 0..3 {
        let g = generators::gnp_connected(40, 0.08, seed).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        let text = noisy_radio::gbst::dot::to_dot(&t, &g);
        // Every fast edge appears with the Figure-1 styling.
        let fast_edges: usize = g.nodes().filter(|&v| t.fast_child(v).is_some()).count();
        assert_eq!(text.matches("style=dashed color=green").count(), fast_edges);
        // Plain graph export agrees on edge count.
        let plain = dot::to_dot(&g, |_| None);
        assert_eq!(plain.matches(" -- ").count(), g.edge_count());
    }
}

#[test]
fn percentiles_of_broadcast_latency_are_ordered() {
    let g = generators::gnp_connected(48, 0.08, 7).unwrap();
    let fault = Channel::receiver(0.4).unwrap();
    let samples: Vec<f64> = (0..24)
        .map(|seed| {
            Decay::new()
                .run(&g, NodeId::new(0), fault, seed, 10_000_000)
                .unwrap()
                .rounds_used() as f64
        })
        .collect();
    let p = Percentiles::from_samples(&samples);
    assert!(p.p50 <= p.p90 && p.p90 <= p.p99);
    assert!(p.p50 > 0.0);
}
