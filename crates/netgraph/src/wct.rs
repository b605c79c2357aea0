//! The worst-case topology (WCT) of the paper (§5.1.2, Figure 2).
//!
//! Starting from the collision network of Ghaffari–Haeupler–Khabbazian
//! ([`crate::collision`]), every receiver node is duplicated into a
//! *cluster* of nodes that share exactly the same sender neighborhood.
//! Because cluster members have identical neighborhoods, in each round
//! either *every* member of a cluster is offered the same collision-free
//! packet or none is (each member then keeps/loses it independently
//! under receiver faults) — which is what forces routing to pay an
//! extra `Θ(log n)` factor per cluster while Reed–Solomon coding does
//! not (Lemmas 19 and 23, Theorem 24).

use crate::collision::{CollisionNetwork, CollisionParams};
use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Parameters for [`Wct::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WctParams {
    /// Number of sender nodes `m` (paper: `Θ(√n)`).
    pub senders: usize,
    /// Clusters per degree class (the collision network's receivers
    /// per class; paper: `Θ̃(√n)` clusters in total).
    pub clusters_per_class: usize,
    /// Nodes per cluster (paper: `Θ̃(√n)`).
    pub cluster_size: usize,
    /// RNG seed (drives the underlying collision network).
    pub seed: u64,
}

/// The generated worst-case topology with its cluster decomposition.
///
/// Node layout: node 0 is the source, nodes `1..=m` are senders, then
/// clusters are laid out contiguously.
///
/// # Example
///
/// ```
/// use netgraph::wct::{Wct, WctParams};
///
/// let wct = Wct::generate(WctParams {
///     senders: 16,
///     clusters_per_class: 4,
///     cluster_size: 8,
///     seed: 1,
/// }).unwrap();
/// assert_eq!(wct.cluster_count(), 4 * 4); // 4 classes for m = 16
/// assert_eq!(wct.cluster(0).len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Wct {
    graph: Graph,
    source: NodeId,
    senders: Vec<NodeId>,
    /// `clusters[c]` = the member nodes of cluster `c` (sorted).
    clusters: Vec<Vec<NodeId>>,
    /// For each cluster, the shared sender neighborhood.
    cluster_senders: Vec<Vec<NodeId>>,
}

impl Wct {
    /// Generates a WCT by cluster-duplicating a collision network.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DegenerateTopology`] if the underlying
    /// collision network parameters are degenerate or
    /// `cluster_size == 0`.
    pub fn generate(params: WctParams) -> Result<Self, GraphError> {
        let WctParams {
            senders: m,
            clusters_per_class,
            cluster_size,
            seed,
        } = params;
        if cluster_size == 0 {
            return Err(GraphError::DegenerateTopology {
                reason: "cluster_size must be >= 1".into(),
            });
        }
        let base = CollisionNetwork::generate(CollisionParams {
            senders: m,
            receivers_per_class: clusters_per_class,
            seed,
        })?;
        let cluster_count = base.receivers().len();
        let n = 1 + m + cluster_count * cluster_size;
        let mut b = GraphBuilder::new(n);
        let source = NodeId::new(0);
        let senders: Vec<NodeId> = (1..=m).map(NodeId::from_index).collect();
        for &s in &senders {
            b.add_edge(source, s)
                .expect("source-sender edges are always valid");
        }
        let mut clusters = Vec::with_capacity(cluster_count);

        let mut cluster_senders = Vec::with_capacity(cluster_count);
        let mut next = 1 + m;
        for &r in base.receivers() {
            let shared: Vec<NodeId> = base.graph().neighbors(r).to_vec();
            let mut members = Vec::with_capacity(cluster_size);
            for _ in 0..cluster_size {
                let v = NodeId::from_index(next);
                next += 1;
                for &s in &shared {
                    b.add_edge(v, s)
                        .expect("cluster-sender edges are always valid");
                }
                members.push(v);
            }
            clusters.push(members);

            cluster_senders.push(shared);
        }
        Ok(Wct {
            graph: b.build(),
            source,
            senders,
            clusters,
            cluster_senders,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The source node (node 0).
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The sender nodes.
    pub fn senders(&self) -> &[NodeId] {
        &self.senders
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Members of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cluster_count()`.
    pub fn cluster(&self, c: usize) -> &[NodeId] {
        &self.clusters[c]
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Vec<NodeId>] {
        &self.clusters
    }

    /// The shared sender neighborhood of cluster `c`.
    pub fn cluster_sender_set(&self, c: usize) -> &[NodeId] {
        &self.cluster_senders[c]
    }

    /// Fraction of *clusters* offered a collision-free packet when the
    /// given senders broadcast — the per-round progress bound of
    /// Lemma 18 lifted to clusters (a cluster receives iff its shared
    /// sender set contains exactly one broadcaster).
    pub fn fraction_of_clusters_receiving(&self, broadcasters: &[NodeId]) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        let mut is_b = vec![false; self.graph.node_count()];
        for &s in broadcasters {
            is_b[s.index()] = true;
        }
        let hit = self
            .cluster_senders
            .iter()
            .filter(|shared| shared.iter().filter(|&&u| is_b[u.index()]).count() == 1)
            .count();
        hit as f64 / self.clusters.len() as f64
    }

    /// Index of the cluster containing node `v`, or `None` for the
    /// source/sender nodes.
    pub fn cluster_of(&self, v: NodeId) -> Option<usize> {
        let first = 1 + self.senders.len();
        if v.index() < first {
            return None;
        }
        let size = self.clusters.first().map_or(1, Vec::len);
        let c = (v.index() - first) / size;
        (c < self.clusters.len()).then_some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn wct() -> Wct {
        Wct::generate(WctParams {
            senders: 32,
            clusters_per_class: 8,
            cluster_size: 16,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn layout() {
        let w = wct();
        assert_eq!(w.cluster_count(), 5 * 8); // 5 classes for m = 32
        assert_eq!(w.graph().node_count(), 1 + 32 + 40 * 16);
        assert_eq!(w.senders().len(), 32);
    }

    #[test]
    fn connected_radius_two() {
        let w = wct();
        assert!(metrics::is_connected(w.graph()));
        assert_eq!(metrics::eccentricity(w.graph(), w.source()), Some(2));
    }

    #[test]
    fn cluster_members_share_neighborhood() {
        let w = wct();
        for c in 0..w.cluster_count() {
            let members = w.cluster(c);
            let expected = w.cluster_sender_set(c);
            for &v in members {
                assert_eq!(w.graph().neighbors(v), expected, "cluster {c} member {v}");
            }
        }
    }

    #[test]
    fn clusters_partition_non_sender_nodes() {
        let w = wct();
        let mut seen = vec![false; w.graph().node_count()];
        for c in 0..w.cluster_count() {
            for &v in w.cluster(c) {
                assert!(!seen[v.index()], "node {v} in two clusters");
                seen[v.index()] = true;
                assert_eq!(w.cluster_of(v), Some(c));
            }
        }
        assert_eq!(w.cluster_of(w.source()), None);
        assert_eq!(w.cluster_of(w.senders()[0]), None);
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, w.graph().node_count() - 1 - w.senders().len());
    }

    #[test]
    fn cluster_reception_is_all_or_nothing() {
        // A cluster is offered a packet iff exactly one of its shared
        // senders broadcasts; verify consistency with the raw graph.
        let w = wct();
        let broadcasters = vec![w.senders()[0], w.senders()[5]];
        let mut is_b = vec![false; w.graph().node_count()];
        for &s in &broadcasters {
            is_b[s.index()] = true;
        }
        for c in 0..w.cluster_count() {
            let offered = w
                .cluster_sender_set(c)
                .iter()
                .filter(|&&u| is_b[u.index()])
                .count()
                == 1;
            for &v in w.cluster(c) {
                let v_offered = w
                    .graph()
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| is_b[u.index()])
                    .count()
                    == 1;
                assert_eq!(offered, v_offered);
            }
        }
    }

    #[test]
    fn fraction_of_clusters_receiving_small_for_all_set_sizes() {
        let w = wct();
        for size in [1usize, 2, 4, 8, 16, 32] {
            let set: Vec<_> = w.senders()[..size].to_vec();
            let f = w.fraction_of_clusters_receiving(&set);
            assert!(f <= 0.6, "set size {size}: fraction {f}");
        }
    }

    #[test]
    fn degenerate_rejected() {
        assert!(Wct::generate(WctParams {
            senders: 8,
            clusters_per_class: 2,
            cluster_size: 0,
            seed: 0
        })
        .is_err());
    }

    #[test]
    fn determinism() {
        let p = WctParams {
            senders: 16,
            clusters_per_class: 4,
            cluster_size: 4,
            seed: 11,
        };
        assert_eq!(
            Wct::generate(p).unwrap().graph(),
            Wct::generate(p).unwrap().graph()
        );
    }
}
