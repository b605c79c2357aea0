//! GBST construction: bottom-up parent assignment with same-rank
//! funneling, followed by conflict demotion.

use netgraph::bfs::BfsLayers;
use netgraph::{Graph, NodeId};

use crate::tree::FastStretch;
use crate::{Gbst, GbstError};

/// Parent-selection strategy for GBST construction.
///
/// [`ParentStrategy::FunnelSameRank`] is the default and what
/// [`Gbst::build`] uses; [`ParentStrategy::FirstNeighbor`] is the
/// naive canonical-BFS-parent choice, kept as an ablation baseline —
/// it produces many more same-rank rival fast nodes and therefore
/// many more conflict demotions (see the `F1` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParentStrategy {
    /// Funnel equal-rank children into shared parents (greedy
    /// max-coverage), inflating parent ranks and thinning fast-node
    /// rivalry.
    #[default]
    FunnelSameRank,
    /// Each node takes its smallest-id neighbor one level up.
    FirstNeighbor,
}

impl Gbst {
    /// Builds a gathering-broadcasting spanning tree of `graph` rooted
    /// at `source`.
    ///
    /// The construction (see the [crate docs](crate) for background):
    ///
    /// 1. BFS-layer the graph from `source`.
    /// 2. For each level from the deepest up: compute ranks of the
    ///    level's nodes from their already-assigned children, then
    ///    assign each node a parent one level up. Parents are chosen by
    ///    *same-rank funneling*: within a rank group, repeatedly pick
    ///    the candidate parent adjacent to the most unassigned group
    ///    members and give it all of them. Funneling concentrates
    ///    equal-rank children under shared parents (bumping the
    ///    parent's rank), which provably cannot increase `r_max` beyond
    ///    the Lemma 7 bound and empirically minimizes fast-node rivalry.
    /// 3. Mark fast edges (parent and child of equal rank).
    /// 4. *Demote* any fast edge whose wave would collide: if the fast
    ///    child of `u` is G-adjacent to a different same-rank fast node
    ///    on `u`'s level (or a rival's fast child is G-adjacent to
    ///    `u`), greedily demote the later node's edge. Demoted edges
    ///    become slow edges, which FASTBC's interleaved Decay rounds
    ///    serve — correctness is unaffected, only the constant in the
    ///    round complexity.
    ///
    /// # Errors
    ///
    /// * [`GbstError::SourceOutOfBounds`] for a bad source id;
    /// * [`GbstError::Disconnected`] if some node is unreachable.
    pub fn build(graph: &Graph, source: NodeId) -> Result<Self, GbstError> {
        Self::build_with_strategy(graph, source, ParentStrategy::FunnelSameRank)
    }

    /// Builds with an explicit [`ParentStrategy`] (ablation hook; see
    /// [`Gbst::build`] for the semantics and errors).
    ///
    /// # Errors
    ///
    /// As [`Gbst::build`].
    pub fn build_with_strategy(
        graph: &Graph,
        source: NodeId,
        strategy: ParentStrategy,
    ) -> Result<Self, GbstError> {
        let n = graph.node_count();
        if source.index() >= n {
            return Err(GbstError::SourceOutOfBounds {
                source,
                node_count: n,
            });
        }
        let layers = BfsLayers::compute(graph, source);
        if !layers.spans_graph() {
            return Err(GbstError::Disconnected {
                unreachable: n - layers.reachable_count(),
            });
        }
        let depth = layers.eccentricity();
        let level: Vec<u32> = layers.levels().to_vec();

        let mut parent: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut rank: Vec<u32> = vec![0; n];

        // Bottom-up: ranks for level l are derived from children
        // assigned when level l+1 was processed.
        for l in (1..=depth as usize).rev() {
            for &v in layers.layer(l) {
                rank[v.index()] = rank_from_children(&children[v.index()], &rank);
            }
            match strategy {
                ParentStrategy::FunnelSameRank => assign_parents_with_funneling(
                    graph,
                    layers.layer(l),
                    &level,
                    &rank,
                    &mut parent,
                    &mut children,
                ),
                ParentStrategy::FirstNeighbor => {
                    for &v in layers.layer(l) {
                        let p = layers.parent(v);
                        parent[v.index()] = p;
                        children[p.index()].push(v);
                    }
                }
            }
        }
        rank[source.index()] = rank_from_children(&children[source.index()], &rank);
        let max_rank = rank.iter().copied().max().unwrap_or(1);
        for kids in &mut children {
            kids.sort_unstable();
        }

        // Fast edges: the unique same-rank child, if any.
        let mut fast_child: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                let v = NodeId::from_index(i);
                children[i]
                    .iter()
                    .copied()
                    .find(|&c| rank[c.index()] == rank[i])
                    .inspect(|_c| {
                        debug_assert_eq!(
                            children[i]
                                .iter()
                                .filter(|&&c2| rank[c2.index()] == rank[i])
                                .count(),
                            1,
                            "two same-rank children under {v} contradict the rank rule"
                        );
                    })
            })
            .collect();

        // Conflict demotion, per (level, rank) group.
        let demoted = demote_conflicts(graph, &level, &rank, &mut fast_child, depth, max_rank);

        // Stretch extraction.
        let stretches = extract_stretches(n, &parent, &rank, &fast_child, source);

        Ok(Gbst {
            source,
            level,
            parent,
            children,
            rank,
            max_rank,
            fast_child,
            demoted,
            stretches,
            depth,
        })
    }
}

/// The ranked-BFS-tree rank rule (paper §3.4.2).
fn rank_from_children(children: &[NodeId], rank: &[u32]) -> u32 {
    if children.is_empty() {
        return 1;
    }
    let max = children
        .iter()
        .map(|c| rank[c.index()])
        .max()
        .expect("non-empty");
    let at_max = children.iter().filter(|c| rank[c.index()] == max).count();
    if at_max >= 2 {
        max + 1
    } else {
        max
    }
}

/// Assigns every node in `layer` (level `l`) a parent on level `l-1`,
/// funneling same-rank nodes into shared parents greedily.
fn assign_parents_with_funneling(
    graph: &Graph,
    layer: &[NodeId],
    level: &[u32],
    rank: &[u32],
    parent: &mut [NodeId],
    children: &mut [Vec<NodeId>],
) {
    if layer.is_empty() {
        return;
    }
    let l = level[layer[0].index()];
    // Group members by rank.
    let mut ranks: Vec<u32> = layer.iter().map(|v| rank[v.index()]).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for &r in &ranks {
        let mut unassigned: Vec<NodeId> = layer
            .iter()
            .copied()
            .filter(|v| rank[v.index()] == r)
            .collect();
        while !unassigned.is_empty() {
            // Candidate parents and their coverage of the group.
            let mut best: Option<(NodeId, usize)> = None;
            let mut counted: std::collections::HashMap<NodeId, usize> =
                std::collections::HashMap::new();
            for &v in &unassigned {
                for &p in graph.neighbors(v) {
                    if level[p.index()] + 1 == l {
                        *counted.entry(p).or_insert(0) += 1;
                    }
                }
            }
            for (&p, &c) in &counted {
                best = match best {
                    None => Some((p, c)),
                    Some((bp, bc)) if c > bc || (c == bc && p < bp) => Some((p, c)),
                    keep => keep,
                };
            }
            let (p, _) = best.expect("every BFS-layered node has a parent candidate");
            unassigned.retain(|&v| {
                if graph.has_edge(v, p) {
                    parent[v.index()] = p;
                    children[p.index()].push(v);
                    false
                } else {
                    true
                }
            });
        }
    }
}

/// Demotes fast edges that would collide in fast rounds; returns the
/// number of demotions.
fn demote_conflicts(
    graph: &Graph,
    level: &[u32],
    rank: &[u32],
    fast_child: &mut [Option<NodeId>],
    depth: u32,
    max_rank: u32,
) -> usize {
    let n = level.len();
    // Group fast nodes by (level, rank).
    let mut groups: Vec<Vec<NodeId>> =
        vec![Vec::new(); (depth as usize + 1) * (max_rank as usize + 1)];
    let gid = |l: u32, r: u32| l as usize * (max_rank as usize + 1) + r as usize;
    for i in 0..n {
        if fast_child[i].is_some() {
            let v = NodeId::from_index(i);
            groups[gid(level[i], rank[i])].push(v);
        }
    }
    let mut demoted = 0usize;
    for group in &groups {
        if group.len() < 2 {
            continue;
        }
        let mut kept: Vec<NodeId> = Vec::with_capacity(group.len());
        for &u in group {
            let c = fast_child[u.index()].expect("group members are fast");
            let conflicts = kept.iter().any(|&v| {
                let cv = fast_child[v.index()].expect("kept members stay fast");
                graph.has_edge(c, v) || graph.has_edge(cv, u)
            });
            if conflicts {
                fast_child[u.index()] = None;
                demoted += 1;
            } else {
                kept.push(u);
            }
        }
    }
    demoted
}

/// Walks fast edges into maximal stretches.
fn extract_stretches(
    n: usize,
    parent: &[NodeId],
    rank: &[u32],
    fast_child: &[Option<NodeId>],
    source: NodeId,
) -> Vec<FastStretch> {
    let mut stretches = Vec::new();
    for i in 0..n {
        let head = NodeId::from_index(i);
        if fast_child[i].is_none() {
            continue;
        }
        // Head test: not itself the fast child of its parent.
        let p = parent[i];
        let is_head = head == source || fast_child[p.index()] != Some(head);
        if !is_head {
            continue;
        }
        let mut nodes = vec![head];
        let mut cur = head;
        while let Some(next) = fast_child[cur.index()] {
            nodes.push(next);
            cur = next;
        }
        stretches.push(FastStretch {
            rank: rank[i],
            nodes,
        });
    }
    stretches
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{generators, Graph};

    #[test]
    fn path_is_single_stretch() {
        let g = generators::path(12);
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        assert_eq!(t.max_rank(), 1);
        assert_eq!(t.depth(), 11);
        assert_eq!(t.stretches().len(), 1);
        assert_eq!(t.stretches()[0].nodes.len(), 12);
        assert_eq!(t.stretches()[0].len(), 11);
        assert_eq!(t.demoted_count(), 0);
        t.validate(&g).unwrap();
        let d = t.path_decomposition(NodeId::new(11));
        assert_eq!(d.fast_stretches, 1);
        assert_eq!(d.slow_edges, 0);
    }

    #[test]
    fn star_has_rank_two_center() {
        let g = generators::star(6);
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        assert_eq!(t.rank(NodeId::new(0)), 2);
        for i in 1..=6 {
            assert_eq!(t.rank(NodeId::new(i)), 1);
            assert_eq!(t.parent(NodeId::new(i)), Some(NodeId::new(0)));
        }
        assert!(t.stretches().is_empty(), "no fast edges in a star");
        t.validate(&g).unwrap();
    }

    #[test]
    fn spider_two_legs_no_gbst_violation() {
        // Two legs of length 3 from a center: both legs are rank-1
        // stretches; no cross edges, so no demotion is needed even
        // though two same-rank fast nodes share levels.
        let g = generators::spider(2, 3).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        assert_eq!(t.demoted_count(), 0);
        assert_eq!(t.stretches().len(), 2);
        assert_eq!(t.rank(NodeId::new(0)), 2);
        t.validate(&g).unwrap();
    }

    #[test]
    fn balanced_binary_tree_ranks() {
        let g = generators::balanced_tree(2, 4).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        // Complete binary tree of depth d: root rank = d + 1 with the
        // standard rank rule... every internal node has two children
        // of equal rank, so rank increments at each level up.
        assert_eq!(t.rank(NodeId::new(0)), 5);
        assert_eq!(t.max_rank(), 5);
        assert_eq!(t.demoted_count(), 0);
        t.validate(&g).unwrap();
    }

    #[test]
    fn rank_bound_lemma7_on_random_graphs() {
        for seed in 0..10 {
            let g = generators::gnp_connected(200, 0.03, seed).unwrap();
            let t = Gbst::build(&g, NodeId::new(0)).unwrap();
            let bound = (200f64).log2().ceil() as u32 + 1;
            assert!(
                t.max_rank() <= bound,
                "seed {seed}: max rank {}",
                t.max_rank()
            );
            t.validate(&g).unwrap();
        }
    }

    #[test]
    fn grid_validates() {
        let g = generators::grid(8, 9);
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        t.validate(&g).unwrap();
        assert_eq!(t.depth(), 15);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert_eq!(
            Gbst::build(&g, NodeId::new(0)).unwrap_err(),
            GbstError::Disconnected { unreachable: 2 }
        );
    }

    #[test]
    fn bad_source_rejected() {
        let g = generators::path(3);
        assert_eq!(
            Gbst::build(&g, NodeId::new(9)).unwrap_err(),
            GbstError::SourceOutOfBounds {
                source: NodeId::new(9),
                node_count: 3
            }
        );
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, []).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        assert_eq!(t.rank(NodeId::new(0)), 1);
        assert_eq!(t.depth(), 0);
        assert!(t.stretches().is_empty());
        t.validate(&g).unwrap();
    }

    #[test]
    fn path_decomposition_counts_are_logarithmic() {
        for seed in 0..5 {
            let g = generators::gnp_connected(300, 0.02, seed).unwrap();
            let t = Gbst::build(&g, NodeId::new(0)).unwrap();
            let log_bound = ((300f64).log2().ceil() as usize + 1) * 3;
            for v in g.nodes() {
                let d = t.path_decomposition(v);
                assert!(
                    d.fast_stretches <= log_bound,
                    "seed {seed}, node {v}: {} stretches",
                    d.fast_stretches
                );
            }
        }
    }

    #[test]
    fn ranks_non_increasing_along_paths() {
        let g = generators::gnp_connected(120, 0.05, 3).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        for v in g.nodes() {
            let path = t.path_from_source(v);
            for w in path.windows(2) {
                assert!(t.rank(w[0]) >= t.rank(w[1]));
            }
        }
    }

    #[test]
    fn children_parent_consistency() {
        let g = generators::gnp_connected(80, 0.06, 9).unwrap();
        let t = Gbst::build(&g, NodeId::new(0)).unwrap();
        let mut counted = 0;
        for v in g.nodes() {
            for &c in t.children(v) {
                assert_eq!(t.parent(c), Some(v));
                counted += 1;
            }
        }
        assert_eq!(counted, g.node_count() - 1, "tree must span");
    }

    #[test]
    fn funneling_concentrates_equal_rank_children() {
        // Complete bipartite K_{1,1} with a shared second layer:
        // source -> {a, b} -> {x, y} where x and y see both a and b.
        // Funneling should give both x and y to the same parent,
        // making that parent rank 2 and leaving the other a leaf.
        let mut b = netgraph::GraphBuilder::new(5);
        let s = NodeId::new(0);
        let (a, bb, x, y) = (
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
            NodeId::new(4),
        );
        for &v in &[a, bb] {
            b.add_edge(s, v).unwrap();
            b.add_edge(v, x).unwrap();
            b.add_edge(v, y).unwrap();
        }
        let g = b.build();
        let t = Gbst::build(&g, s).unwrap();
        assert_eq!(t.parent(x), t.parent(y), "equal-rank children not funneled");
        let shared = t.parent(x).unwrap();
        assert_eq!(t.rank(shared), 2);
        let other = if shared == a { bb } else { a };
        assert_eq!(t.rank(other), 1);
        assert_eq!(t.demoted_count(), 0);
        t.validate(&g).unwrap();
    }

    #[test]
    fn naive_strategy_still_validates_after_demotion() {
        for seed in 0..6 {
            let g = generators::gnp_connected(120, 0.05, seed).unwrap();
            let t = Gbst::build_with_strategy(&g, NodeId::new(0), ParentStrategy::FirstNeighbor)
                .unwrap();
            t.validate(&g).unwrap();
        }
    }

    #[test]
    fn funneling_needs_no_more_demotions_than_naive_on_average() {
        let mut funneled = 0usize;
        let mut naive = 0usize;
        for seed in 0..10 {
            let g = generators::gnp_connected(150, 0.06, seed).unwrap();
            funneled += Gbst::build(&g, NodeId::new(0)).unwrap().demoted_count();
            naive += Gbst::build_with_strategy(&g, NodeId::new(0), ParentStrategy::FirstNeighbor)
                .unwrap()
                .demoted_count();
        }
        assert!(
            funneled <= naive,
            "funneling should not increase demotions: funneled {funneled}, naive {naive}"
        );
    }

    #[test]
    fn demotion_resolves_cross_edge_rivals() {
        // Two parallel paths with a cross edge from one path's child
        // to the other path's fast node:
        //   s - a1 - a2,  s - b1 - b2,  plus cross edge a2 - b1.
        // a1 and b1 are both rank-1 fast nodes at level 1; a2 (fast
        // child of a1) is adjacent to rival b1 => one edge demoted.
        let mut bld = netgraph::GraphBuilder::new(5);
        let s = NodeId::new(0);
        let (a1, a2, b1, b2) = (
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
            NodeId::new(4),
        );
        bld.add_edge(s, a1).unwrap();
        bld.add_edge(a1, a2).unwrap();
        bld.add_edge(s, b1).unwrap();
        bld.add_edge(b1, b2).unwrap();
        bld.add_edge(a2, b1).unwrap();
        let g = bld.build();
        let t = Gbst::build(&g, s).unwrap();
        t.validate(&g).unwrap();
        // Whatever the parent choices, validation must pass and at
        // most one demotion may have been needed.
        assert!(t.demoted_count() <= 1);
    }
}
