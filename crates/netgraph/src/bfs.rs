//! Breadth-first search: distances, layerings, and parent forests.
//!
//! Every known-topology broadcast algorithm in the paper (FASTBC,
//! Robust FASTBC, the bipartite pipelining schedule of Lemma 21) is
//! built on the BFS layering of the network from the source, so this
//! module is the substrate they share.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Distance value marking unreachable nodes in [`BfsLayers::level`].
pub const UNREACHABLE: u32 = u32::MAX;

/// The BFS layering of a graph from a source node.
///
/// Layer `i` contains exactly the nodes at distance `i` from the
/// source (paper §5.1.2, Lemma 21 uses this decomposition directly).
///
/// # Example
///
/// ```
/// use netgraph::{generators, bfs::BfsLayers, NodeId};
///
/// let g = generators::path(5);
/// let layers = BfsLayers::compute(&g, NodeId::new(0));
/// assert_eq!(layers.eccentricity(), 4);
/// assert_eq!(layers.level(NodeId::new(3)), Some(3));
/// assert_eq!(layers.layer(2), &[NodeId::new(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct BfsLayers {
    source: NodeId,
    /// `levels[v]` = BFS distance from source, or [`UNREACHABLE`].
    levels: Vec<u32>,
    /// `layers[i]` = nodes at distance exactly `i`, each sorted.
    layers: Vec<Vec<NodeId>>,
    /// BFS-tree parent (lowest-id neighbor in the previous layer);
    /// `parent[source] = source`, unreachable nodes map to themselves.
    parents: Vec<NodeId>,
    reachable: usize,
}

impl BfsLayers {
    /// Runs BFS from `source` and records levels, layers, and a
    /// canonical parent forest (each node's parent is its smallest-id
    /// neighbor in the previous layer, making the result
    /// deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn compute(graph: &Graph, source: NodeId) -> Self {
        let n = graph.node_count();
        assert!(
            source.index() < n,
            "source {source} out of bounds for {n} nodes"
        );
        let mut levels = vec![UNREACHABLE; n];
        let mut parents: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        let mut layers: Vec<Vec<NodeId>> = vec![vec![source]];
        levels[source.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        let mut reachable = 1usize;
        while let Some(u) = queue.pop_front() {
            let next_level = levels[u.index()] + 1;
            for &v in graph.neighbors(u) {
                if levels[v.index()] == UNREACHABLE {
                    levels[v.index()] = next_level;
                    parents[v.index()] = u;
                    if layers.len() as u32 <= next_level {
                        layers.push(Vec::new());
                    }
                    layers[next_level as usize].push(v);
                    queue.push_back(v);
                    reachable += 1;
                }
            }
        }
        // Canonicalize parents: smallest-id neighbor in previous layer.
        for (i, layer) in layers.iter().enumerate().skip(1) {
            for &v in layer {
                let parent = graph
                    .neighbors(v)
                    .iter()
                    .copied()
                    .find(|&u| levels[u.index()] as usize == i - 1)
                    .expect("layered node must have a neighbor in the previous layer");
                parents[v.index()] = parent;
            }
        }
        for layer in &mut layers {
            layer.sort_unstable();
        }
        BfsLayers {
            source,
            levels,
            layers,
            parents,
            reachable,
        }
    }

    /// The BFS source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// BFS distance of `v` from the source, or `None` if unreachable.
    pub fn level(&self, v: NodeId) -> Option<u32> {
        let l = self.levels[v.index()];
        (l != UNREACHABLE).then_some(l)
    }

    /// The raw level array (`UNREACHABLE` marks unreachable nodes).
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// The nodes at distance exactly `i`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `i > self.eccentricity()`.
    pub fn layer(&self, i: usize) -> &[NodeId] {
        &self.layers[i]
    }

    /// Number of non-empty layers minus one: the eccentricity of the
    /// source within its connected component.
    pub fn eccentricity(&self) -> u32 {
        (self.layers.len() - 1) as u32
    }

    /// Number of layers (eccentricity + 1).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The canonical BFS-tree parent of `v` (smallest-id neighbor in
    /// the previous layer). The source and unreachable nodes map to
    /// themselves.
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parents[v.index()]
    }

    /// Number of nodes reachable from the source (including it).
    pub fn reachable_count(&self) -> usize {
        self.reachable
    }

    /// Whether every node of the graph is reachable from the source.
    pub fn spans_graph(&self) -> bool {
        self.reachable == self.levels.len()
    }
}

/// BFS distances from `source` only (cheaper than [`BfsLayers`] when
/// layers and parents are not needed). Unreachable nodes get
/// [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    let n = graph.node_count();
    assert!(
        source.index() < n,
        "source {source} out of bounds for {n} nodes"
    );
    let mut dist = vec![UNREACHABLE; n];
    dist[source.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()] + 1;
        for &v in graph.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = d;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_layers() {
        let g = generators::path(6);
        let l = BfsLayers::compute(&g, NodeId::new(0));
        assert_eq!(l.eccentricity(), 5);
        for i in 0..6 {
            assert_eq!(l.layer(i), &[NodeId::new(i as u32)]);
            assert_eq!(l.level(NodeId::new(i as u32)), Some(i as u32));
        }
        assert!(l.spans_graph());
    }

    #[test]
    fn path_from_middle() {
        let g = generators::path(5);
        let l = BfsLayers::compute(&g, NodeId::new(2));
        assert_eq!(l.eccentricity(), 2);
        assert_eq!(l.layer(1), &[NodeId::new(1), NodeId::new(3)]);
        assert_eq!(l.layer(2), &[NodeId::new(0), NodeId::new(4)]);
    }

    #[test]
    fn star_layers() {
        let g = generators::star(10);
        let l = BfsLayers::compute(&g, NodeId::new(0));
        assert_eq!(l.eccentricity(), 1);
        assert_eq!(l.layer(1).len(), 10);
    }

    #[test]
    fn parents_point_to_previous_layer() {
        let g = generators::grid(4, 5);
        let l = BfsLayers::compute(&g, NodeId::new(0));
        for v in g.nodes() {
            if v == l.source() {
                assert_eq!(l.parent(v), v);
                continue;
            }
            let p = l.parent(v);
            assert!(g.has_edge(v, p));
            assert_eq!(l.level(p).unwrap() + 1, l.level(v).unwrap());
        }
    }

    #[test]
    fn parent_is_smallest_id_in_previous_layer() {
        let g = generators::complete(4);
        let l = BfsLayers::compute(&g, NodeId::new(2));
        for v in g.nodes() {
            if v != l.source() {
                assert_eq!(l.parent(v), NodeId::new(2));
            }
        }
    }

    #[test]
    fn disconnected_unreachable() {
        let g = Graph::from_edges(4, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        let l = BfsLayers::compute(&g, NodeId::new(0));
        assert_eq!(l.level(NodeId::new(3)), None);
        assert!(!l.spans_graph());
        assert_eq!(l.reachable_count(), 2);
    }

    #[test]
    fn distances_match_layers() {
        let g = generators::grid(5, 5);
        let l = BfsLayers::compute(&g, NodeId::new(7));
        let d = distances(&g, NodeId::new(7));
        for v in g.nodes() {
            assert_eq!(l.level(v), Some(d[v.index()]));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn source_out_of_bounds_panics() {
        let g = generators::path(3);
        let _ = BfsLayers::compute(&g, NodeId::new(9));
    }
}
