//! Topology generators.
//!
//! Deterministic families (paths, stars, grids, trees, hypercubes) and
//! seeded random families (G(n,p), random trees, layered random
//! graphs). These are the workloads of the experiment suite: the
//! paper's round-complexity results are exercised on paths,
//! caterpillars and trees (diameter sweeps), random graphs (generic
//! topologies), and stars / the WCT (throughput-gap topologies).
//!
//! All random generators take an explicit `u64` seed and are fully
//! deterministic given that seed. Every fallible generator rejects a
//! node count that [`NodeId`] cannot index (see
//! [`checked_node_count`]) before it allocates anything.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// The most nodes a graph can hold: [`NodeId`]s are `u32`, so ids run
/// from 0 to `u32::MAX`.
const MAX_NODES: u64 = 1 << 32;

/// Checks the node count of a `family` topology, computed with checked
/// arithmetic (`None` where it overflowed), against the range of
/// [`NodeId`]. The fallible generators call this before they build;
/// callers of the infallible ones (`path`, `star`, `grid`) can call it
/// first to turn an oversized request into an error.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if the count overflowed
/// or exceeds `2³²`.
pub fn checked_node_count(family: &str, count: Option<usize>) -> Result<usize, GraphError> {
    count
        .filter(|&n| n as u64 <= MAX_NODES)
        .ok_or_else(|| GraphError::DegenerateTopology {
            reason: format!("{family} has more than {MAX_NODES} nodes"),
        })
}

/// Path graph `P_n`: nodes `0 — 1 — … — n-1`. Diameter `n - 1`.
///
/// A single node yields the edgeless graph; `path(0)` yields the empty
/// graph.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i))
            .expect("path edges are always valid");
    }
    b.build()
}

/// Cycle graph `C_n` (requires `n >= 3`). Diameter `⌊n/2⌋`.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] when `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::DegenerateTopology {
            reason: format!("cycle requires n >= 3, got {n}"),
        });
    }
    let mut b = GraphBuilder::new(checked_node_count("cycle", Some(n))?);
    for i in 0..n {
        b.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n))
            .expect("cycle edges are always valid");
    }
    Ok(b.build())
}

/// Star topology: center node `0` adjacent to `leaves` leaf nodes
/// `1..=leaves` (paper §5.1.1: "a node s and n other adjacent nodes").
///
/// Total node count is `leaves + 1`.
pub fn star(leaves: usize) -> Graph {
    let mut b = GraphBuilder::new(leaves + 1);
    for i in 1..=leaves {
        b.add_edge(NodeId::new(0), NodeId::from_index(i))
            .expect("star edges are always valid");
    }
    b.build()
}

/// The single-link topology of Appendix A: two nodes joined by one
/// edge.
pub fn single_link() -> Graph {
    path(2)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                .expect("complete-graph edges are always valid");
        }
    }
    b.build()
}

/// `rows × cols` grid graph. Diameter `rows + cols - 2`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    let id = |r: usize, c: usize| NodeId::from_index(r * cols + c);
    // Right edge first, then down: the edges arrive sorted.
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1))
                    .expect("grid edges are always valid");
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c))
                    .expect("grid edges are always valid");
            }
        }
    }
    b.build()
}

/// Balanced `arity`-ary tree of the given `depth` (root at node 0;
/// depth 0 is a single node). Diameter `2·depth`.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `arity == 0` or the
/// tree has more nodes than [`NodeId`] can index.
pub fn balanced_tree(arity: usize, depth: usize) -> Result<Graph, GraphError> {
    if arity == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "tree arity must be >= 1".into(),
        });
    }
    // Node count: 1 + a + a^2 + ... + a^depth. Every level adds a node,
    // so 2³² levels are out of range, and the loop stops as soon as the
    // count is.
    let mut count = ((depth as u64) < MAX_NODES).then_some(1usize);
    let mut level = 1usize;
    for _ in 0..depth {
        level = level.saturating_mul(arity);
        count = count.and_then(|c| c.checked_add(level));
        if count.map_or(true, |c| c as u64 > MAX_NODES) {
            break;
        }
    }
    let count = checked_node_count("tree", count)?;
    let mut b = GraphBuilder::new(count);
    // Children of node i are a*i + 1 .. a*i + a (heap layout) for arity a.
    for i in 0..count {
        for c in 1..=arity {
            let child = arity * i + c;
            if child < count {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(child))
                    .expect("tree edges are always valid");
            }
        }
    }
    Ok(b.build())
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` leaf
/// nodes attached. Diameter `spine + 1` for `legs >= 1` (leaf to leaf).
///
/// Useful for diameter sweeps at higher densities than a bare path.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `spine == 0` or the
/// caterpillar has more nodes than [`NodeId`] can index.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph, GraphError> {
    if spine == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "caterpillar spine empty".into(),
        });
    }
    let n = checked_node_count(
        "caterpillar",
        spine.checked_mul(legs).and_then(|l| l.checked_add(spine)),
    )?;
    let mut b = GraphBuilder::new(n);
    for i in 1..spine {
        b.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i))
            .expect("spine edges are always valid");
    }
    for i in 0..spine {
        for l in 0..legs {
            let leaf = spine + i * legs + l;
            b.add_edge(NodeId::from_index(i), NodeId::from_index(leaf))
                .expect("leg edges are always valid");
        }
    }
    Ok(b.build())
}

/// Spider: `legs` paths of length `leg_len` joined at a center node 0.
/// Diameter `2·leg_len` (for `legs >= 2`).
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `legs == 0`,
/// `leg_len == 0`, or the spider has more nodes than [`NodeId`] can
/// index.
pub fn spider(legs: usize, leg_len: usize) -> Result<Graph, GraphError> {
    if legs == 0 || leg_len == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "spider requires legs >= 1 and leg_len >= 1".into(),
        });
    }
    let n = checked_node_count(
        "spider",
        legs.checked_mul(leg_len).and_then(|l| l.checked_add(1)),
    )?;
    let mut b = GraphBuilder::new(n);
    for leg in 0..legs {
        let base = 1 + leg * leg_len;
        b.add_edge(NodeId::new(0), NodeId::from_index(base))
            .expect("spider edges are always valid");
        for i in 1..leg_len {
            b.add_edge(
                NodeId::from_index(base + i - 1),
                NodeId::from_index(base + i),
            )
            .expect("spider edges are always valid");
        }
    }
    Ok(b.build())
}

/// Hypercube `Q_dim` on `2^dim` nodes; node ids are coordinate
/// bitmasks. Diameter `dim`.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `dim > 24` (guard
/// against accidental huge allocations).
pub fn hypercube(dim: u32) -> Result<Graph, GraphError> {
    if dim > 24 {
        return Err(GraphError::DegenerateTopology {
            reason: format!("hypercube dimension {dim} too large"),
        });
    }
    let n = 1usize << dim;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(NodeId::from_index(v), NodeId::from_index(u))
                    .expect("hypercube edges are always valid");
            }
        }
    }
    Ok(b.build())
}

/// Erdős–Rényi `G(n, p)`: each of the `n·(n-1)/2` candidate edges is
/// present independently with probability `edge_prob`.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `edge_prob` is not in
/// `[0, 1]`.
pub fn gnp(n: usize, edge_prob: f64, seed: u64) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&edge_prob) {
        return Err(GraphError::DegenerateTopology {
            reason: format!("edge probability {edge_prob} outside [0, 1]"),
        });
    }
    checked_node_count("gnp", Some(n))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(edge_prob) {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                    .expect("gnp edges are always valid");
            }
        }
    }
    Ok(b.build())
}

/// `G(n, p)` conditioned on connectivity by overlaying a uniformly
/// random spanning tree (random permutation + random attachment),
/// so the result is always connected while remaining `G(n,p)`-like.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `n == 0` or
/// `edge_prob` is not in `[0, 1]`.
pub fn gnp_connected(n: usize, edge_prob: f64, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "gnp_connected needs n >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&edge_prob) {
        return Err(GraphError::DegenerateTopology {
            reason: format!("edge probability {edge_prob} outside [0, 1]"),
        });
    }
    checked_node_count("gnp_connected", Some(n))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Random spanning tree: random order, attach each new node to a
    // uniformly random earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b.add_edge(NodeId::from_index(order[i]), NodeId::from_index(order[j]))
            .expect("spanning-tree edges are always valid");
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(edge_prob) {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                    .expect("gnp edges are always valid");
            }
        }
    }
    Ok(b.build())
}

/// Uniformly random tree on `n` nodes via random attachment (each node
/// `i > 0` in a random order attaches to a uniform earlier node).
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "random_tree needs n >= 1".into(),
        });
    }
    checked_node_count("random_tree", Some(n))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b.add_edge(NodeId::from_index(order[i]), NodeId::from_index(order[j]))
            .expect("tree edges are always valid");
    }
    Ok(b.build())
}

/// Layered random graph: `layers` layers of `width` nodes; consecutive
/// layers are joined by random bipartite edges (each present with
/// probability `edge_prob`), plus one guaranteed edge per node to keep
/// the graph connected. Node 0 is a dedicated source adjacent to all
/// of layer 0. Diameter `Θ(layers)`.
///
/// This family gives diameter sweeps with non-tree structure — the
/// regime where FASTBC's fast stretches and Decay differ most.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `layers == 0`,
/// `width == 0`, or `edge_prob` is not in `[0, 1]`.
pub fn layered_random(
    layers: usize,
    width: usize,
    edge_prob: f64,
    seed: u64,
) -> Result<Graph, GraphError> {
    if layers == 0 || width == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "layered_random requires layers >= 1 and width >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&edge_prob) {
        return Err(GraphError::DegenerateTopology {
            reason: format!("edge probability {edge_prob} outside [0, 1]"),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = checked_node_count(
        "layered_random",
        layers.checked_mul(width).and_then(|l| l.checked_add(1)),
    )?;
    let id = |layer: usize, i: usize| NodeId::from_index(1 + layer * width + i);
    let mut b = GraphBuilder::new(n);
    for i in 0..width {
        b.add_edge(NodeId::new(0), id(0, i))
            .expect("source edges are always valid");
    }
    for l in 1..layers {
        for i in 0..width {
            // Guaranteed parent keeps every node reachable.
            let parent = rng.gen_range(0..width);
            b.add_edge(id(l - 1, parent), id(l, i))
                .expect("layer edges are always valid");
            for j in 0..width {
                if rng.gen_bool(edge_prob) {
                    b.add_edge(id(l - 1, j), id(l, i))
                        .expect("layer edges are always valid");
                }
            }
        }
    }
    Ok(b.build())
}

/// Random geometric graph (unit-disk graph): `n` points uniform in
/// the unit square, an edge wherever two points are within `radius`.
///
/// The canonical model of physical radio coverage; disconnected
/// outputs are possible for small radii — see
/// [`unit_disk_connected`] for a connectivity-patched variant.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if `n == 0` or `radius`
/// is not positive and finite.
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "unit_disk needs n >= 1".into(),
        });
    }
    if !(radius > 0.0) || !radius.is_finite() {
        return Err(GraphError::DegenerateTopology {
            reason: format!("radius {radius} must be positive and finite"),
        });
    }
    checked_node_count("unit_disk", Some(n))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                    .expect("unit-disk edges are always valid");
            }
        }
    }
    Ok(b.build())
}

/// [`unit_disk`] patched to be connected: nodes are additionally
/// chained in x-order (each point linked to its successor), modeling a
/// deployment with a guaranteed relay backbone.
///
/// # Errors
///
/// As [`unit_disk`].
pub fn unit_disk_connected(n: usize, radius: f64, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::DegenerateTopology {
            reason: "unit_disk needs n >= 1".into(),
        });
    }
    if !(radius > 0.0) || !radius.is_finite() {
        return Err(GraphError::DegenerateTopology {
            reason: format!("radius {radius} must be positive and finite"),
        });
    }
    checked_node_count("unit_disk", Some(n))?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(NodeId::from_index(i), NodeId::from_index(j))
                    .expect("unit-disk edges are always valid");
            }
        }
    }
    // Backbone: chain points in x-order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b2| {
        points[a]
            .partial_cmp(&points[b2])
            .expect("coordinates are finite")
    });
    for w in order.windows(2) {
        b.add_edge(NodeId::from_index(w[0]), NodeId::from_index(w[1]))
            .expect("backbone edges are always valid");
    }
    Ok(b.build())
}

/// `rows × cols` grid with wraparound edges (torus). Diameter
/// `⌊rows/2⌋ + ⌊cols/2⌋`.
///
/// # Errors
///
/// Returns [`GraphError::DegenerateTopology`] if either dimension is
/// below 3 (wraparound would create multi-edges/self-loops) or the
/// torus has more nodes than [`NodeId`] can index.
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::DegenerateTopology {
            reason: format!("torus needs both dimensions >= 3, got {rows}×{cols}"),
        });
    }
    let n = checked_node_count("torus", rows.checked_mul(cols))?;
    let id = |r: usize, c: usize| NodeId::from_index(r * cols + c);
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id((r + 1) % rows, c))
                .expect("torus edges are always valid");
            b.add_edge(id(r, c), id(r, (c + 1) % cols))
                .expect("torus edges are always valid");
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
    }

    #[test]
    fn path_trivial_sizes() {
        assert_eq!(path(0).node_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(5).unwrap();
        assert_eq!(g.edge_count(), 5);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.degree(NodeId::new(0)), 7);
        for i in 1..8 {
            assert_eq!(g.degree(NodeId::new(i)), 1);
        }
    }

    #[test]
    fn single_link_shape() {
        let g = single_link();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_tree(2, 3).unwrap();
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert!(metrics::is_connected(&g));
        assert_eq!(metrics::diameter(&g), Some(6));
        assert!(balanced_tree(0, 3).is_err());
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 + 8);
        assert_eq!(metrics::diameter(&g), Some(5));
        assert!(caterpillar(0, 2).is_err());
    }

    #[test]
    fn spider_shape() {
        let g = spider(3, 4).unwrap();
        assert_eq!(g.node_count(), 13);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(metrics::diameter(&g), Some(8));
        assert!(spider(0, 1).is_err());
        assert!(spider(1, 0).is_err());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(metrics::diameter(&g), Some(4));
        assert!(hypercube(25).is_err());
    }

    #[test]
    fn gnp_determinism() {
        let a = gnp(30, 0.2, 9).unwrap();
        let b = gnp(30, 0.2, 9).unwrap();
        assert_eq!(a, b);
        let c = gnp(30, 0.2, 10).unwrap();
        assert_ne!(a, c);
        assert!(gnp(5, 1.5, 0).is_err());
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).unwrap().edge_count(), 0);
        assert_eq!(gnp(10, 1.0, 1).unwrap().edge_count(), 45);
    }

    #[test]
    fn gnp_connected_is_connected() {
        for seed in 0..5 {
            let g = gnp_connected(40, 0.02, seed).unwrap();
            assert!(
                metrics::is_connected(&g),
                "seed {seed} gave disconnected graph"
            );
        }
        assert!(gnp_connected(0, 0.5, 1).is_err());
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(25, seed).unwrap();
            assert_eq!(g.edge_count(), 24);
            assert!(metrics::is_connected(&g));
        }
        assert!(random_tree(0, 0).is_err());
    }

    #[test]
    fn layered_random_connected_and_layered() {
        let g = layered_random(10, 5, 0.3, 3).unwrap();
        assert_eq!(g.node_count(), 51);
        assert!(metrics::is_connected(&g));
        let d = metrics::diameter(&g).unwrap();
        assert!(d >= 10, "diameter {d} should scale with layer count");
        assert!(layered_random(0, 5, 0.3, 3).is_err());
    }

    #[test]
    fn unit_disk_shapes() {
        let g = unit_disk(60, 0.25, 4).unwrap();
        assert_eq!(g.node_count(), 60);
        // Radius 1.5 covers the whole square: complete graph.
        let g = unit_disk(10, 1.5, 4).unwrap();
        assert_eq!(g.edge_count(), 45);
        assert!(unit_disk(0, 0.2, 1).is_err());
        assert!(unit_disk(5, 0.0, 1).is_err());
        assert!(unit_disk(5, f64::NAN, 1).is_err());
    }

    #[test]
    fn unit_disk_connected_is_connected() {
        for seed in 0..5 {
            let g = unit_disk_connected(50, 0.05, seed).unwrap();
            assert!(metrics::is_connected(&g), "seed {seed}");
        }
        assert!(unit_disk_connected(0, 0.2, 1).is_err());
    }

    #[test]
    fn unit_disk_determinism() {
        assert_eq!(
            unit_disk(40, 0.2, 9).unwrap(),
            unit_disk(40, 0.2, 9).unwrap()
        );
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 5).unwrap();
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 40);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(metrics::diameter(&g), Some(4));
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn node_counts_beyond_node_ids_are_errors() {
        let big = 1usize << 32;
        assert_eq!(checked_node_count("path", Some(big)), Ok(big));
        assert!(checked_node_count("path", Some(big + 1)).is_err());
        assert!(checked_node_count("grid", big.checked_mul(big)).is_err());
        // Each fails before building anything.
        assert!(torus(big, big).is_err());
        assert!(torus(big, 3).is_err());
        assert!(spider(big, big).is_err());
        assert!(caterpillar(big, big).is_err());
        assert!(layered_random(big, 2, 0.5, 1).is_err());
        assert!(balanced_tree(1000, 1000).is_err());
        assert!(balanced_tree(2, 32).is_err());
        assert!(balanced_tree(1, usize::MAX).is_err());
        assert!(gnp(big + 1, 0.5, 1).is_err());
        assert_eq!(balanced_tree(2, 3).unwrap().node_count(), 15);
    }
}
