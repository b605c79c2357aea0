//! The immutable undirected graph with sorted adjacency lists.

use std::fmt;

use crate::{GraphBuilder, NodeId};

/// An immutable, simple, undirected graph in CSR (compressed sparse
/// row) form.
///
/// Built through [`GraphBuilder`]; neighbor lists are sorted, which
/// makes [`Graph::has_edge`] a binary search and gives deterministic
/// iteration order everywhere (important for reproducible simulation).
///
/// # Example
///
/// ```
/// use netgraph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// b.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// let g = b.build();
///
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
/// assert_eq!(g.neighbors(NodeId::new(1)), &[NodeId::new(0), NodeId::new(2)]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `adjacency` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    adjacency: Vec<NodeId>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl Graph {
    pub(crate) fn from_parts(offsets: Vec<u32>, adjacency: Vec<NodeId>, edge_count: usize) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, adjacency.len());
        Graph {
            offsets,
            adjacency,
            edge_count,
        }
    }

    /// Builds a graph directly from an iterator of edges over nodes
    /// `0..node_count`.
    ///
    /// Duplicate edges are merged. This is a convenience wrapper around
    /// [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError`] if an endpoint is out of bounds or
    /// an edge is a self-loop.
    pub fn from_edges<I>(node_count: usize, edges: I) -> Result<Self, crate::GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut builder = GraphBuilder::new(node_count);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the undirected edge `{u, v}` is present.
    ///
    /// Runs in `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterator over all undirected edges, each reported once with
    /// `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            node: 0,
            pos: 0,
        }
    }

    /// Maximum degree `Δ` over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Iterator over the undirected edges of a [`Graph`], created by
/// [`Graph::edges`]. Each edge `{u, v}` is yielded once as `(u, v)`
/// with `u < v`, in lexicographic order.
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    node: u32,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.graph.node_count() as u32;
        while self.node < n {
            let u = NodeId::new(self.node);
            let nbrs = self.graph.neighbors(u);
            while self.pos < nbrs.len() {
                let v = nbrs[self.pos];
                self.pos += 1;
                if u < v {
                    return Some((u, v));
                }
            }
            self.node += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    fn triangle() -> Graph {
        Graph::from_edges(
            3,
            [
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(2), NodeId::new(0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(
            4,
            [
                (NodeId::new(3), NodeId::new(0)),
                (NodeId::new(1), NodeId::new(3)),
                (NodeId::new(3), NodeId::new(2)),
            ],
        )
        .unwrap();
        assert_eq!(
            g.neighbors(NodeId::new(3)),
            &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Graph::from_edges(
            2,
            [
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(0)),
                (NodeId::new(0), NodeId::new(1)),
            ],
        )
        .unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        for (u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(0)));
    }

    #[test]
    fn edge_iter_reports_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(0), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(2)),
            ]
        );
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(2, [(NodeId::new(1), NodeId::new(1))]).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = Graph::from_edges(2, [(NodeId::new(0), NodeId::new(5))]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfBounds {
                node: NodeId::new(5),
                node_count: 2
            }
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = Graph::from_edges(5, [(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert_eq!(g.degree(NodeId::new(4)), 0);
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn debug_output_is_compact() {
        let g = triangle();
        assert_eq!(format!("{g:?}"), "Graph { nodes: 3, edges: 3 }");
    }
}
