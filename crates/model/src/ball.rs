//! Radius-`t` views and the indistinguishability principle.
//!
//! In the LOCAL model, a `t`-round algorithm's output at `v` is a function of
//! the information reachable in `t` exchanges: the port-numbered topology of
//! `N^t(v)` (minus edges between two vertices at distance exactly `t`), plus
//! any vertex/edge input labels in that ball — and, in DetLOCAL, the IDs.
//!
//! [`encode`] computes a canonical encoding of that view. Two vertices with
//! equal encodings are **indistinguishable** to every `t`-round algorithm, so
//! any such algorithm must output the same label at both. This is the engine
//! behind Linial's lower-bound argument (step (i) of the proof sketched in
//! the paper's introduction: "in `o(log_Δ n)` time, a vertex cannot always
//! distinguish whether the input graph is a tree or a graph of girth
//! `Ω(log_Δ n)`"), which experiment E4 demonstrates concretely.

use local_graphs::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Canonical encoding of a radius-`t` port-numbered view.
///
/// Equality of encodings implies indistinguishability to `t`-round
/// algorithms (with the supplied labels as the only symmetry-breaking
/// input).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BallEncoding(Vec<u64>);

impl BallEncoding {
    /// The raw token stream (for tests and hashing).
    pub fn tokens(&self) -> &[u64] {
        &self.0
    }
}

/// Sentinel token for "edge leads outside the known ball".
const UNKNOWN: u64 = u64::MAX;

/// Compute the canonical radius-`t` view of `v`.
///
/// * `vertex_labels`: per-vertex input labels (IDs in DetLOCAL; an input
///   coloring; …). Pass `None` for anonymous vertices.
/// * `edge_labels`: per-edge input labels (e.g. the proper Δ-edge-coloring
///   that sinkless coloring/orientation take as input). Pass `None` if
///   absent.
///
/// Encoding scheme: BFS from `v` exploring ports in order; vertices are named
/// by discovery index. For each discovered vertex at distance `< t` we emit
/// `(label, degree, [per-port: discovery index of the other endpoint and edge
/// label])`; for vertices at distance exactly `t` we emit `(label, degree)`
/// only — a `t`-round algorithm knows their labels and degrees (messages from
/// round `t` arrive) but not their other edges.
///
/// # Panics
///
/// Panics if `v >= g.n()` or a label slice has the wrong length.
pub fn encode(
    g: &Graph,
    v: NodeId,
    t: usize,
    vertex_labels: Option<&[u64]>,
    edge_labels: Option<&[u64]>,
) -> BallEncoding {
    if let Some(l) = vertex_labels {
        assert_eq!(l.len(), g.n(), "vertex label slice length");
    }
    if let Some(l) = edge_labels {
        assert_eq!(l.len(), g.m(), "edge label slice length");
    }
    let mut index = vec![usize::MAX; g.n()];
    let mut dist = vec![usize::MAX; g.n()];
    let mut order: Vec<NodeId> = Vec::new();
    index[v] = 0;
    dist[v] = 0;
    order.push(v);
    let mut queue = VecDeque::from([v]);
    while let Some(u) = queue.pop_front() {
        if dist[u] == t {
            continue;
        }
        for nb in g.neighbors(u) {
            if index[nb.node()] == usize::MAX {
                index[nb.node()] = order.len();
                dist[nb.node()] = dist[u] + 1;
                order.push(nb.node());
                queue.push_back(nb.node());
            }
        }
    }
    let mut tokens: Vec<u64> = Vec::new();
    tokens.push(t as u64);
    for &u in &order {
        tokens.push(vertex_labels.map_or(0, |l| l[u]));
        tokens.push(g.degree(u) as u64);
        if dist[u] < t {
            for nb in g.neighbors(u) {
                let idx = index[nb.node()];
                tokens.push(if idx == usize::MAX {
                    UNKNOWN
                } else {
                    idx as u64
                });
                tokens.push(edge_labels.map_or(0, |l| l[nb.edge()]));
            }
        }
    }
    BallEncoding(tokens)
}

/// Canonical encoding of a radius-`t` view **up to port renumbering**, for
/// balls that are trees (always the case when `2t + 1 <` girth).
///
/// The ordered [`encode`] captures the exact port-numbered view — two
/// vertices with different parent-port positions are genuinely
/// distinguishable by a port-aware algorithm. Lower-bound arguments,
/// however, let the adversary pick the port numbering, so they work with
/// views *modulo* local port permutations. This AHU-style canonical form
/// (children sorted by their own encodings) realizes that equivalence:
/// `encode_unordered(u) == encode_unordered(v)` iff some port renumbering
/// makes the two tree-balls identical.
///
/// Returns `None` if the ball contains a cycle (the canonical form is
/// defined for tree balls; beyond half the girth use [`encode`]).
pub fn encode_unordered(
    g: &Graph,
    v: NodeId,
    t: usize,
    vertex_labels: Option<&[u64]>,
) -> Option<BallEncoding> {
    if let Some(l) = vertex_labels {
        assert_eq!(l.len(), g.n(), "vertex label slice length");
    }
    // BFS to depth t, recording parents; bail out on any non-tree edge
    // between two ball vertices (other than child → parent).
    let mut dist = vec![usize::MAX; g.n()];
    let mut parent = vec![usize::MAX; g.n()];
    let mut order: Vec<NodeId> = vec![v];
    dist[v] = 0;
    let mut queue = VecDeque::from([v]);
    while let Some(u) = queue.pop_front() {
        if dist[u] == t {
            continue;
        }
        for nb in g.neighbors(u) {
            if dist[nb.node()] == usize::MAX {
                dist[nb.node()] = dist[u] + 1;
                parent[nb.node()] = u;
                order.push(nb.node());
                queue.push_back(nb.node());
            } else if nb.node() != parent[u] && parent[nb.node()] != u {
                return None; // cycle within the ball
            }
        }
    }
    // AHU from the deepest vertices up: enc(u) = (label, deg, sorted children).
    fn enc(
        g: &Graph,
        u: NodeId,
        t: usize,
        dist: &[usize],
        parent: &[usize],
        labels: Option<&[u64]>,
    ) -> Vec<u64> {
        let mut tokens = vec![labels.map_or(0, |l| l[u]), g.degree(u) as u64];
        if dist[u] < t {
            let mut children: Vec<Vec<u64>> = g
                .neighbors(u)
                .iter()
                .filter(|nb| parent[nb.node()] == u && dist[nb.node()] == dist[u] + 1)
                .map(|nb| enc(g, nb.node(), t, dist, parent, labels))
                .collect();
            children.sort();
            tokens.push(children.len() as u64);
            for c in children {
                tokens.push(u64::MAX); // open bracket
                tokens.extend(c);
            }
        }
        tokens
    }
    let mut tokens = vec![t as u64];
    tokens.extend(enc(g, v, t, &dist, &parent, vertex_labels));
    Some(BallEncoding(tokens))
}

/// Encode the view of *every* vertex at radius `t`.
pub fn encode_all(
    g: &Graph,
    t: usize,
    vertex_labels: Option<&[u64]>,
    edge_labels: Option<&[u64]>,
) -> Vec<BallEncoding> {
    g.vertices()
        .map(|v| encode(g, v, t, vertex_labels, edge_labels))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;

    #[test]
    fn anonymous_cycle_vertices_are_indistinguishable() {
        // Port numbering is part of the input: vertices 1..n−1 of gen::cycle
        // see (port 0 → predecessor, port 1 → successor), while vertex 0's
        // ports are flipped — a legitimate distinguishing mark for any vertex
        // whose radius-3 ball contains vertex 0. Vertices 4..8 of C_12 have
        // 0-free balls and must be mutually indistinguishable.
        let g = gen::cycle(12);
        let views = encode_all(&g, 3, None, None);
        for w in 5..=8 {
            assert_eq!(views[4], views[w], "vertex {w} must look like vertex 4");
        }
        // And the mark is real: vertex 1 (ball contains 0) differs.
        assert_ne!(views[1], views[4]);
    }

    #[test]
    fn ids_break_symmetry() {
        let g = gen::cycle(6);
        let ids: Vec<u64> = (0..6).collect();
        let views = encode_all(&g, 1, Some(&ids), None);
        let distinct: std::collections::HashSet<_> = views.iter().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn radius_zero_sees_only_label_and_degree() {
        let g = gen::star(5);
        let views = encode_all(&g, 0, None, None);
        // All leaves identical, hub different (degree 4 vs 1).
        assert_ne!(views[0], views[1]);
        for w in 2..5 {
            assert_eq!(views[1], views[w]);
        }
    }

    #[test]
    fn tree_interior_matches_high_girth_graph() {
        // The indistinguishability principle: interior vertices of a complete
        // (Δ−1)-ary tree look exactly like vertices of a Δ-regular graph of
        // girth > 2t+1, for radius t (up to port numbering, which BFS-order
        // canonicalization normalizes identically for degree-regular trees).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tree = gen::complete_dary_tree(400, 3);
        let mut rng = StdRng::seed_from_u64(424242);
        let t = 2; // need girth > 2t + 1 = 5
        let g = gen::high_girth_regular(150, 3, 6, &mut rng).unwrap();
        // Interior tree vertex: everything in its t-ball has degree 3.
        let interior = tree
            .vertices()
            .find(|&v| {
                let dist = local_graphs::analysis::bfs_distances(&tree, v);
                tree.vertices()
                    .filter(|&u| dist[u] <= t)
                    .all(|u| tree.degree(u) == 3)
            })
            .expect("interior vertex exists");
        let tv = encode(&tree, interior, t, None, None);
        let gv = encode(&g, 0, t, None, None);
        assert_eq!(
            tv, gv,
            "t-round algorithms cannot tell tree interiors from high-girth graphs"
        );
    }

    #[test]
    fn unordered_views_collapse_port_wirings() {
        // On a cycle, ordered views distinguish vertex 0 (flipped ports) from
        // the rest; unordered views do not.
        let g = gen::cycle(12);
        let a = encode_unordered(&g, 0, 3, None).expect("ball is a path");
        for v in 1..12 {
            let b = encode_unordered(&g, v, 3, None).expect("ball is a path");
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn unordered_detects_cycles_in_ball() {
        let g = gen::cycle(6);
        assert!(
            encode_unordered(&g, 0, 3, None).is_none(),
            "radius 3 wraps C6"
        );
        assert!(encode_unordered(&g, 0, 2, None).is_some());
    }

    #[test]
    fn unordered_separates_different_structures() {
        let path = gen::path(9);
        let star = gen::star(9);
        let a = encode_unordered(&path, 4, 2, None).unwrap();
        let b = encode_unordered(&star, 0, 2, None).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn unordered_respects_labels() {
        let g = gen::path(5);
        let l0 = vec![0u64; 5];
        let l1 = vec![0, 1, 0, 0, 0];
        let a = encode_unordered(&g, 2, 1, Some(&l0)).unwrap();
        let b = encode_unordered(&g, 2, 1, Some(&l1)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn edge_labels_affect_views() {
        let g = gen::cycle(6);
        let e0: Vec<u64> = vec![0; 6];
        let e1: Vec<u64> = (0..6).map(|i| (i % 2) as u64).collect();
        let a = encode(&g, 0, 1, None, Some(&e0));
        let b = encode(&g, 0, 1, None, Some(&e1));
        assert_ne!(a, b);
    }

    #[test]
    fn larger_radius_refines_views() {
        // On a path, radius 1 cannot separate the two middle vertices of
        // P_6 (both see degree-2 neighbors on both sides), but a large
        // enough radius sees the ends.
        let g = gen::path(6);
        let r1 = encode_all(&g, 1, None, None);
        assert_eq!(r1[2], r1[3]);
        let r3 = encode_all(&g, 3, None, None);
        assert_ne!(r3[2], r3[3]);
    }

    #[test]
    #[should_panic(expected = "vertex label slice")]
    fn wrong_label_length_panics() {
        let g = gen::path(3);
        let labels = vec![0u64; 2];
        let _ = encode(&g, 0, 1, Some(&labels), None);
    }
}
