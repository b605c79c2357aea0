//! Property-based tests for GBST construction (paper Figure 1,
//! Lemma 7, and the non-interference property used by Lemma 8 /
//! Theorem 11).

use gbst::Gbst;
use netgraph::{generators, NodeId};
use proptest::prelude::*;

fn arb_connected() -> impl Strategy<Value = netgraph::Graph> {
    prop_oneof![
        (2usize..80, any::<u64>(), 0.0..0.25f64)
            .prop_map(|(n, seed, p)| generators::gnp_connected(n, p, seed).unwrap()),
        (1usize..80, any::<u64>()).prop_map(|(n, seed)| generators::random_tree(n, seed).unwrap()),
        (1usize..40, 0usize..4)
            .prop_map(|(spine, legs)| generators::caterpillar(spine, legs).unwrap()),
        (2usize..30, 1usize..6, 0.0..0.4f64, any::<u64>())
            .prop_map(|(l, w, p, s)| { generators::layered_random(l, w, p, s).unwrap() }),
    ]
}

proptest! {
    #[test]
    fn construction_always_validates(g in arb_connected()) {
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        t.validate(&g).unwrap();
    }

    #[test]
    fn lemma7_rank_bound(g in arb_connected()) {
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        let n = g.node_count() as f64;
        let bound = n.log2().ceil() as u32 + 1;
        prop_assert!(t.max_rank() <= bound.max(1),
            "max rank {} exceeds ceil(log2 {n}) + 1", t.max_rank());
    }

    #[test]
    fn tree_spans_and_levels_match_bfs(g in arb_connected()) {
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        let d = netgraph::bfs::distances(&g, NodeId::new(0));
        for v in g.nodes() {
            prop_assert_eq!(t.level(v), d[v.index()]);
            if v != t.source() {
                let p = t.parent(v).unwrap();
                prop_assert!(g.has_edge(v, p));
            }
        }
    }

    #[test]
    fn path_decomposition_bounded_by_rank(g in arb_connected()) {
        // A root path has non-increasing ranks, so it crosses at most
        // r_max distinct-rank fast stretches... a rank can repeat
        // across stretches only if separated by slow edges of equal
        // rank — but each stretch consumes its rank (next stretch has
        // rank <= current). Multiple same-rank stretches cannot occur:
        // once we leave a rank-r stretch the next node has rank <= r,
        // and a later rank-r stretch would need rank back at r, i.e.
        // equality is allowed. So we only assert the weaker O(log n)+
        // slow-edge bound measured empirically: stretches <= r_max +
        // slow_edges + 1.
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        for v in g.nodes() {
            let d = t.path_decomposition(v);
            prop_assert!(
                d.fast_stretches <= (t.max_rank() as usize) + d.slow_edges + 1,
                "node {v}: {} stretches, {} slow edges, r_max {}",
                d.fast_stretches, d.slow_edges, t.max_rank()
            );
        }
    }

    #[test]
    fn non_interference_after_demotion(g in arb_connected()) {
        // The operative FASTBC invariant: for every fast node u with
        // fast child c, no *other* fast node with u's (level, rank) is
        // G-adjacent to c. (validate() checks this too; we re-assert
        // it here directly as the property the simulator relies on.)
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        for u in g.nodes() {
            if let Some(c) = t.fast_child(u) {
                for &q in g.neighbors(c) {
                    if q != u && t.is_fast(q) {
                        prop_assert!(
                            t.level(q) != t.level(u) || t.rank(q) != t.rank(u),
                            "rival fast nodes {u} and {q} both reach child {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stretch_nodes_are_consecutive_tree_levels(g in arb_connected()) {
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        for s in t.stretches() {
            for w in s.nodes.windows(2) {
                prop_assert_eq!(t.level(w[1]), t.level(w[0]) + 1);
                prop_assert_eq!(t.parent(w[1]), Some(w[0]));
                prop_assert_eq!(t.rank(w[0]), s.rank);
                prop_assert_eq!(t.rank(w[1]), s.rank);
            }
        }
    }


    #[test]
    fn trees_never_demote(n in 1usize..100, seed in any::<u64>()) {
        // On trees there are no cross edges at all, so demotion can
        // never trigger.
        let g = generators::random_tree(n, seed).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        prop_assert_eq!(t.demoted_count(), 0);
    }
}
