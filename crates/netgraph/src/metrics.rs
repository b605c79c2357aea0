//! Graph metrics: connectivity, eccentricity, diameter, degree stats.
//!
//! Round-complexity claims in the paper are parameterized by the
//! diameter `D`; the experiment harness uses these helpers both to
//! report `D` for generated topologies and to sanity-check generators.

use crate::bfs::{self, UNREACHABLE};
use crate::{Graph, NodeId};

/// Whether the graph is connected. The empty graph is considered
/// connected vacuously; a single node is connected.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.node_count() == 0 {
        return true;
    }
    let dist = bfs::distances(graph, NodeId::new(0));
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Eccentricity of `v`: the maximum BFS distance from `v` to any
/// reachable node. Returns `None` if some node is unreachable from `v`
/// (eccentricity is infinite on disconnected graphs).
pub fn eccentricity(graph: &Graph, v: NodeId) -> Option<u32> {
    let dist = bfs::distances(graph, v);
    let mut max = 0;
    for &d in &dist {
        if d == UNREACHABLE {
            return None;
        }
        max = max.max(d);
    }
    Some(max)
}

/// Exact diameter via all-pairs BFS (`O(n·(n+m))`).
///
/// Returns `None` for disconnected graphs and `Some(0)` for graphs
/// with at most one node. Intended for the evaluation-scale graphs in
/// this workspace (n up to a few tens of thousands on sparse graphs).
pub fn diameter(graph: &Graph) -> Option<u32> {
    if graph.node_count() == 0 {
        return Some(0);
    }
    let mut best = 0;
    for v in graph.nodes() {
        best = best.max(eccentricity(graph, v)?);
    }
    Some(best)
}

/// Summary of a graph's degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree `Δ`.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
}

/// Computes [`DegreeStats`]. Returns `None` for the empty graph.
pub fn degree_stats(graph: &Graph) -> Option<DegreeStats> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    let mut min = usize::MAX;
    let mut max = 0;
    for v in graph.nodes() {
        let d = graph.degree(v);
        min = min.min(d);
        max = max.max(d);
    }
    Some(DegreeStats {
        min,
        max,
        mean: 2.0 * graph.edge_count() as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_diameter() {
        assert_eq!(diameter(&generators::path(10)), Some(9));
        assert_eq!(diameter(&generators::path(1)), Some(0));
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter(&generators::cycle(8).unwrap()), Some(4));
        assert_eq!(diameter(&generators::cycle(9).unwrap()), Some(4));
    }

    #[test]
    fn star_diameter() {
        assert_eq!(diameter(&generators::star(50)), Some(2));
    }

    #[test]
    fn complete_diameter() {
        assert_eq!(diameter(&generators::complete(6)), Some(1));
    }

    #[test]
    fn grid_diameter() {
        assert_eq!(diameter(&generators::grid(3, 4)), Some(5));
    }

    #[test]
    fn disconnected_diameter_none() {
        let g = Graph::from_edges(3, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert_eq!(diameter(&g), None);
        assert!(!is_connected(&g));
        assert_eq!(eccentricity(&g, NodeId::new(0)), None);
    }

    #[test]
    fn connected_detection() {
        assert!(is_connected(&generators::path(5)));
        assert!(is_connected(&Graph::from_edges(0, []).unwrap()));
        assert!(is_connected(&Graph::from_edges(1, []).unwrap()));
    }

    #[test]
    fn degree_stats_path() {
        let s = degree_stats(&generators::path(4)).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2);
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert_eq!(degree_stats(&Graph::from_edges(0, []).unwrap()), None);
    }
}
