//! The gathering broadcast spanning tree structure: levels, ranks, stretches, and queries.

use netgraph::bfs::BfsLayers;
use netgraph::{Graph, NodeId};

use crate::GbstError;

/// A maximal chain of fast edges: consecutive tree nodes of equal rank
/// along which FASTBC pipelines messages as an uninterrupted wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastStretch {
    /// The shared rank of every node on the stretch.
    pub rank: u32,
    /// The nodes in order from the stretch head (closest to the
    /// source) to its tail. Always has at least 2 nodes (one fast
    /// edge).
    pub nodes: Vec<NodeId>,
}

impl FastStretch {
    /// Number of fast edges on the stretch.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether the stretch is empty (never true for constructed
    /// stretches; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() < 2
    }
}

/// A gathering-broadcasting spanning tree over a graph.
///
/// Construct with [`Gbst::build`]; see the
/// [crate documentation](crate) for the structure's role and an
/// example.
#[derive(Debug, Clone)]
pub struct Gbst {
    pub(crate) source: NodeId,
    /// BFS level of every node.
    pub(crate) level: Vec<u32>,
    /// Tree parent (source maps to itself).
    pub(crate) parent: Vec<NodeId>,
    /// Children lists (sorted).
    pub(crate) children: Vec<Vec<NodeId>>,
    /// 1-based ranks.
    pub(crate) rank: Vec<u32>,
    pub(crate) max_rank: u32,
    /// The fast child of each fast node (post-demotion).
    pub(crate) fast_child: Vec<Option<NodeId>>,
    /// Fast edges demoted to slow to restore the GBST property.
    pub(crate) demoted: usize,
    /// Fast stretches, head-first.
    pub(crate) stretches: Vec<FastStretch>,

    /// Depth of the tree (max level).
    pub(crate) depth: u32,
}

impl Gbst {
    /// The broadcast source (tree root).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.level.len()
    }

    /// BFS level (distance from the source) of `v`.
    pub fn level(&self, v: NodeId) -> u32 {
        self.level[v.index()]
    }

    /// Rank of `v` (1-based).
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Maximum rank over all nodes (`r_max`); at most `⌈log₂ n⌉ + 1`.
    pub fn max_rank(&self) -> u32 {
        self.max_rank
    }

    /// Depth of the tree (the source's eccentricity).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Tree parent of `v`, or `None` for the source.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        (v != self.source).then(|| self.parent[v.index()])
    }

    /// Tree children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// The fast child of `v`, if `v` is a fast node (post-demotion).
    pub fn fast_child(&self, v: NodeId) -> Option<NodeId> {
        self.fast_child[v.index()]
    }

    /// Whether `v` is a fast node (has a fast child, post-demotion).
    pub fn is_fast(&self, v: NodeId) -> bool {
        self.fast_child[v.index()].is_some()
    }

    /// Number of fast edges demoted to slow during construction to
    /// restore the GBST non-interference property (0 on trees, paths,
    /// grids; small on dense random graphs).
    pub fn demoted_count(&self) -> usize {
        self.demoted
    }

    /// All fast stretches.
    pub fn stretches(&self) -> &[FastStretch] {
        &self.stretches
    }

    /// The tree path from the source to `v` (inclusive).
    pub fn path_from_source(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[cur.index()];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Number of fast stretches and non-fast edges along the tree path
    /// from the source to `v` — the decomposition used in Lemma 8 and
    /// Theorem 11 (`O(log n)` of each).
    pub fn path_decomposition(&self, v: NodeId) -> PathDecomposition {
        let path = self.path_from_source(v);
        let mut stretches = 0usize;
        let mut slow_edges = 0usize;
        let mut i = 0;
        while i + 1 < path.len() {
            if self.fast_child(path[i]) == Some(path[i + 1]) {
                // Walk the whole fast run.
                stretches += 1;
                while i + 1 < path.len() && self.fast_child(path[i]) == Some(path[i + 1]) {
                    i += 1;
                }
            } else {
                slow_edges += 1;
                i += 1;
            }
        }
        PathDecomposition {
            fast_stretches: stretches,
            slow_edges,
        }
    }

    /// Validates every structural invariant against `graph`:
    ///
    /// 1. the tree spans the graph, parents are G-neighbors one level
    ///    up;
    /// 2. ranks satisfy the ranked-BFS-tree rule and are non-increasing
    ///    from parent to child;
    /// 3. `r_max ≤ ⌈log₂ n⌉ + 1` (Lemma 7);
    /// 4. fast children have their parent's rank;
    /// 5. **GBST non-interference**: no fast child is G-adjacent to a
    ///    different same-rank fast node on its parent's level.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as
    /// [`GbstError::InvariantViolated`].
    pub fn validate(&self, graph: &Graph) -> Result<(), GbstError> {
        let n = self.node_count();
        let fail = |description: String| Err(GbstError::InvariantViolated { description });
        if graph.node_count() != n {
            return fail(format!(
                "graph has {} nodes, tree has {n}",
                graph.node_count()
            ));
        }
        for v in graph.nodes() {
            if v == self.source {
                if self.level(v) != 0 {
                    return fail(format!("source level is {}", self.level(v)));
                }
                continue;
            }
            let p = self.parent[v.index()];
            if !graph.has_edge(v, p) {
                return fail(format!("parent edge ({p}, {v}) missing from G"));
            }
            if self.level(p) + 1 != self.level(v) {
                return fail(format!(
                    "parent {p} level {} not one above child {v} level {}",
                    self.level(p),
                    self.level(v)
                ));
            }
            if !self.children[p.index()].contains(&v) {
                return fail(format!("{v} missing from children of {p}"));
            }
        }
        // Rank rule.
        for v in graph.nodes() {
            let kids = &self.children[v.index()];
            let expected = if kids.is_empty() {
                1
            } else {
                let max = kids.iter().map(|c| self.rank(*c)).max().expect("non-empty");
                let at_max = kids.iter().filter(|c| self.rank(**c) == max).count();
                if at_max >= 2 {
                    max + 1
                } else {
                    max
                }
            };
            if self.rank(v) != expected {
                return fail(format!(
                    "rank of {v} is {}, rule gives {expected}",
                    self.rank(v)
                ));
            }
            for &c in kids {
                if self.rank(c) > self.rank(v) {
                    return fail(format!("child {c} outranks parent {v}"));
                }
            }
        }
        // Lemma 7 bound.
        let bound = (usize::BITS - n.leading_zeros()) + 1; // ceil(log2 n) + 1 with slack
        if self.max_rank > bound {
            return fail(format!(
                "max rank {} exceeds log bound {bound}",
                self.max_rank
            ));
        }
        // Fast-edge sanity.
        for v in graph.nodes() {
            if let Some(c) = self.fast_child(v) {
                if self.rank(c) != self.rank(v) {
                    return fail(format!("fast child {c} rank differs from {v}"));
                }
                if self.parent(c) != Some(v) {
                    return fail(format!("fast child {c} is not a tree child of {v}"));
                }
            }
        }
        // GBST non-interference.
        for v in graph.nodes() {
            let Some(c) = self.fast_child(v) else {
                continue;
            };
            for &q in graph.neighbors(c) {
                if q != v
                    && self.level(q) == self.level(v)
                    && self.rank(q) == self.rank(v)
                    && self.is_fast(q)
                {
                    return fail(format!(
                        "fast child {c} of {v} is adjacent to rival fast node {q} \
                         (level {}, rank {})",
                        self.level(q),
                        self.rank(q)
                    ));
                }
            }
        }
        // Stretch bookkeeping.
        for (sid, s) in self.stretches.iter().enumerate() {
            if s.nodes.len() < 2 {
                return fail(format!("stretch {sid} has < 2 nodes"));
            }
            for w in s.nodes.windows(2) {
                if self.fast_child(w[0]) != Some(w[1]) {
                    return fail(format!("stretch {sid} broken at {} -> {}", w[0], w[1]));
                }
            }
            if s.nodes.iter().any(|&v| self.rank(v) != s.rank) {
                return fail(format!("stretch {sid} has mixed ranks"));
            }
        }
        Ok(())
    }

    /// Recovers the BFS layering this tree was built from (levels are
    /// stored; this recomputes the layer lists).
    pub fn layers(&self, graph: &Graph) -> BfsLayers {
        BfsLayers::compute(graph, self.source)
    }
}

/// The fast-stretch / slow-edge decomposition of a root-to-node path
/// (paper Lemma 8 / Theorem 11: both counts are `O(log n)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathDecomposition {
    /// Number of maximal fast runs on the path.
    pub fast_stretches: usize,
    /// Number of non-fast edges on the path.
    pub slow_edges: usize,
}
