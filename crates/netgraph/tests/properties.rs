//! Property-based tests for the graph substrate.

use netgraph::bfs::{self, BfsLayers};
use netgraph::{generators, metrics, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Strategy: a random simple graph as (node_count, edge list).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(NodeId::from_index(u), NodeId::from_index(v))
                        .unwrap();
                }
            }
            b.build()
        })
    })
}

/// Strategy: a graph from one of the named generators, which hand the
/// builder their edges in their own orders, past one 64-node bitset
/// word.
fn arb_named_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (65usize..400).prop_map(generators::path),
        (65usize..400).prop_map(|n| generators::cycle(n).unwrap()),
        (65usize..400).prop_map(generators::star),
        (65usize..100).prop_map(generators::complete),
        (2usize..30, 65usize..400).prop_map(|(r, n)| generators::grid(r, n / r + 1)),
        (65usize..400).prop_map(|n| generators::grid(1, n)),
        (65usize..400).prop_map(|n| generators::grid(n, 1)),
        (3usize..30, 65usize..400).prop_map(|(r, n)| generators::torus(r, n / r + 3).unwrap()),
        (2usize..5).prop_map(|arity| generators::balanced_tree(arity, 6).unwrap()),
        (2usize..30, 65usize..400)
            .prop_map(|(spine, n)| generators::caterpillar(spine, n / spine).unwrap()),
        (2usize..30, 65usize..400)
            .prop_map(|(legs, n)| generators::spider(legs, n / legs + 1).unwrap()),
        (7u32..10).prop_map(|dim| generators::hypercube(dim).unwrap()),
        (65usize..400, any::<u64>()).prop_map(|(n, seed)| generators::gnp(n, 0.05, seed).unwrap()),
        (65usize..400, any::<u64>())
            .prop_map(|(n, seed)| generators::gnp_connected(n, 0.02, seed).unwrap()),
        (65usize..400, any::<u64>())
            .prop_map(|(n, seed)| generators::random_tree(n, seed).unwrap()),
        (2usize..30, 65usize..400, any::<u64>()).prop_map(|(layers, n, seed)| {
            generators::layered_random(layers, n / layers + 1, 0.2, seed).unwrap()
        }),
        (65usize..400, any::<u64>())
            .prop_map(|(n, seed)| generators::unit_disk(n, 0.15, seed).unwrap()),
    ]
}

/// Strategy: a random *connected* graph (random tree + extra edges).
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>(), 0.0..0.3f64)
        .prop_map(|(n, seed, p)| generators::gnp_connected(n, p, seed).unwrap())
}

proptest! {
    #[test]
    fn adjacency_is_symmetric(g in arb_graph(40, 120)) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn neighbor_lists_sorted_and_unique(
        g in prop_oneof![arb_graph(40, 120), arb_named_graph()],
    ) {
        for v in g.nodes() {
            let ns = g.neighbors(v);
            for w in ns.windows(2) {
                prop_assert!(w[0] < w[1], "neighbors of {v} not strictly sorted");
            }
            prop_assert!(!ns.contains(&v), "self-loop at {v}");
        }
    }

    #[test]
    fn handshake_lemma(g in arb_graph(40, 120)) {
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn edges_iter_matches_edge_count(g in arb_graph(40, 120)) {
        prop_assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn bfs_levels_differ_by_at_most_one_across_edges(g in arb_connected_graph(40)) {
        let layers = BfsLayers::compute(&g, NodeId::new(0));
        for (u, v) in g.edges() {
            let lu = layers.level(u).unwrap() as i64;
            let lv = layers.level(v).unwrap() as i64;
            prop_assert!((lu - lv).abs() <= 1, "edge ({u},{v}) spans levels {lu},{lv}");
        }
    }

    #[test]
    fn bfs_layers_partition_reachable_nodes(g in arb_connected_graph(40)) {
        let layers = BfsLayers::compute(&g, NodeId::new(0));
        let total: usize = (0..layers.layer_count()).map(|i| layers.layer(i).len()).sum();
        prop_assert_eq!(total, g.node_count());
        prop_assert!(layers.spans_graph());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_over_edges(g in arb_connected_graph(30)) {
        let d = bfs::distances(&g, NodeId::new(0));
        for (u, v) in g.edges() {
            let du = d[u.index()];
            let dv = d[v.index()];
            prop_assert!(du <= dv + 1 && dv <= du + 1);
        }
    }


    #[test]
    fn path_to_source_has_level_many_edges(g in arb_connected_graph(30)) {
        // Following BFS parents from any node reaches the source along
        // graph edges in exactly `level` steps.
        let layers = BfsLayers::compute(&g, NodeId::new(0));
        for v in g.nodes() {
            let mut cur = v;
            for _ in 0..layers.level(v).unwrap() {
                let parent = layers.parent(cur);
                prop_assert!(g.has_edge(cur, parent));
                cur = parent;
            }
            prop_assert_eq!(cur, layers.source());
        }
    }

    #[test]
    fn diameter_at_least_source_eccentricity(g in arb_connected_graph(25)) {
        let diam = metrics::diameter(&g).unwrap();
        for v in g.nodes() {
            let ecc = metrics::eccentricity(&g, v).unwrap();
            prop_assert!(ecc <= diam);
        }
    }


    #[test]
    fn random_trees_have_n_minus_1_edges(n in 1usize..120, seed in any::<u64>()) {
        let g = generators::random_tree(n, seed).unwrap();
        prop_assert_eq!(g.edge_count(), n - 1);
        prop_assert!(metrics::is_connected(&g));
    }

    #[test]
    fn gnp_connected_always_connected(n in 2usize..60, seed in any::<u64>(), p in 0.0..0.2f64) {
        let g = generators::gnp_connected(n, p, seed).unwrap();
        prop_assert!(metrics::is_connected(&g));
    }
}
