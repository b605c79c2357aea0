//! Incremental graph construction.

use crate::{Graph, GraphError, NodeId};

/// Incremental builder for [`Graph`].
///
/// Collects undirected edges, validates endpoints, deduplicates, and
/// produces the final CSR representation with sorted neighbor lists.
///
/// # Example
///
/// ```
/// use netgraph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// for i in 0..3u32 {
///     b.add_edge(NodeId::new(i), NodeId::new(i + 1)).unwrap();
/// }
/// let g = b.build();
/// assert_eq!(g.edge_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `node_count` nodes
    /// (ids `0..node_count`) with no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Adding the same edge twice is allowed; duplicates are merged by
    /// [`GraphBuilder::build`].
    ///
    /// # Errors
    ///
    /// * [`GraphError::SelfLoop`] if `u == v`;
    /// * [`GraphError::NodeOutOfBounds`] if an endpoint is `>= node_count`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w.index() >= self.node_count {
                return Err(GraphError::NodeOutOfBounds {
                    node: w,
                    node_count: self.node_count,
                });
            }
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        Ok(self)
    }

    /// Consumes the builder and produces the CSR graph.
    ///
    /// Runs in `O(m log m)` for `m` added edges, and in `O(n + m)` when
    /// they were added already sorted by `(min, max)` endpoint, as the
    /// named generators add them. Neighbor lists come out sorted
    /// without a sort of their own (see the comment in the body).
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.node_count;
        let mut degrees = vec![0u32; n];
        for &(u, v) in &self.edges {
            degrees[u.index()] += 1;
            degrees[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adjacency = vec![NodeId::new(0); acc as usize];
        for &(u, v) in &self.edges {
            adjacency[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            adjacency[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        // Edges are filled in sorted (u, v) order with u < v. Node x
        // meets its smaller neighbors as the v of edges (u, x), which
        // all sort before its own edges (x, v), so each list is its
        // smaller neighbors ascending, then its larger ones ascending:
        // sorted, and free of duplicates after the dedup.
        debug_assert!((0..n).all(|v| {
            let list = &adjacency[offsets[v] as usize..offsets[v + 1] as usize];
            list.windows(2).all(|w| w[0] < w[1])
        }));
        let edge_count = self.edges.len();
        Graph::from_parts(offsets, adjacency, edge_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaining_add_edge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1))
            .unwrap()
            .add_edge(NodeId::new(1), NodeId::new(2))
            .unwrap();

        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn normalizes_edge_orientation() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId::new(1), NodeId::new(0)).unwrap();
        b.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn node_count_accessor() {
        assert_eq!(GraphBuilder::new(11).node_count(), 11);
    }
}
