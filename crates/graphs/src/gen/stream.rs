//! Streaming constructors for the regular families the large-`n` sweeps use.
//!
//! These build the CSR adjacency directly from a closed-form edge iterator —
//! no `GraphBuilder`, no edge `HashSet`, and (thanks to the implicit edge
//! representation in [`Graph`]) no materialized `(u, v)` list. At 100M
//! vertices that removes the builder's per-edge hashing and halves peak
//! memory; the adjacency itself is still resident, which is what the round
//! engine needs.
//!
//! [`cycle`] and [`complete_dary_tree`] are the only constructors of their
//! families (`gen` re-exports them). Each produces the graph `==` to the one
//! `GraphBuilder` gives for the same edge sequence (same ports, edge ids,
//! and endpoints); differential tests below pin that.

use crate::error::GraphError;
use crate::graph::implicit;
use crate::graph::Graph;

/// The cycle `C_n` with an implicit edge table: edge `e < n−1` joins `e` and
/// `e + 1`, edge `n−1` closes the cycle. Smaller `n` (`< 3`) yields the path
/// `P_n`.
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return super::path(n);
    }
    implicit::cycle(n)
}

/// The `d`-regular circulant `C_n(1, …, ⌊d/2⌋ [, n/2])` — the deterministic
/// Δ-regular workload for scaling runs, and the base graph of the
/// [`crate::gen::random_regular`] switch chain.
///
/// # Errors
///
/// [`GraphError::InfeasibleParameters`] if `n·d` is odd or `d ≥ n`.
pub fn circulant(n: usize, d: usize) -> Result<Graph, GraphError> {
    if d == 0 {
        return Ok(crate::GraphBuilder::new(n).build());
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InfeasibleParameters {
            reason: format!("n*d = {n}*{d} is odd"),
        });
    }
    if d >= n {
        return Err(GraphError::InfeasibleParameters {
            reason: format!("d = {d} >= n = {n}"),
        });
    }
    Ok(implicit::circulant(n, d))
}

/// The complete `(d−1)`-ary tree of maximum degree `d` with at least `n_min`
/// vertices: the root has `d` children, internal vertices have `d − 1`
/// children, all leaves at equal depth. Vertices are numbered layer by
/// layer, and edge `e` joins vertex `e + 1` to its parent.
///
/// This is the "complete regular tree" whose diameter realizes the
/// `Ω(log_Δ n)` bound discussed after Theorem 6. The actual vertex count is
/// returned implicitly via `Graph::n()`.
///
/// # Panics
///
/// Panics if `d < 2`.
pub fn complete_dary_tree(n_min: usize, d: usize) -> Graph {
    assert!(d >= 2, "complete_dary_tree requires d >= 2");
    // Depth 0: 1 vertex (root). Depth 1: d. Depth k≥2: d(d−1)^(k−1).
    let mut layers: Vec<usize> = vec![1];
    let mut total = 1usize;
    while total < n_min {
        let next = if layers.len() == 1 {
            d
        } else {
            layers.last().expect("nonempty") * (d - 1)
        };
        layers.push(next);
        total += next;
    }
    let mut layer_start = vec![0usize; layers.len() + 1];
    for (i, &sz) in layers.iter().enumerate() {
        layer_start[i + 1] = layer_start[i] + sz;
    }
    implicit::dary_tree(layer_start, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// `C_n` built edge by edge, `(v, v + 1 mod n)` in order; the path for
    /// `n < 3`.
    fn builder_cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        if n < 3 {
            for v in 1..n {
                b.add_edge(v - 1, v).expect("path edges are unique");
            }
        } else {
            for v in 0..n {
                b.add_edge(v, (v + 1) % n).expect("cycle edges are unique");
            }
        }
        b.build()
    }

    /// The complete `(d−1)`-ary tree built edge by edge, each child joined
    /// to its parent in vertex order.
    fn builder_dary_tree(n_min: usize, d: usize) -> Graph {
        let mut layers: Vec<usize> = vec![1];
        let mut total = 1usize;
        while total < n_min {
            let next = if layers.len() == 1 {
                d
            } else {
                layers[layers.len() - 1] * (d - 1)
            };
            layers.push(next);
            total += next;
        }
        let mut b = GraphBuilder::new(total);
        let mut layer_start = 0;
        for i in 1..layers.len() {
            let per_parent = if i == 1 { d } else { d - 1 };
            let start = layer_start + layers[i - 1];
            for j in 0..layers[i] {
                b.add_edge(layer_start + j / per_parent, start + j)
                    .expect("tree edges are unique");
            }
            layer_start = start;
        }
        b.build()
    }

    #[test]
    fn cycle_matches_builder() {
        for n in [0, 1, 2, 3, 4, 7, 64, 257] {
            assert_eq!(cycle(n), builder_cycle(n), "n = {n}");
        }
    }

    #[test]
    fn cycle_edges_match_builder() {
        for n in [3, 5, 12] {
            assert_eq!(cycle(n).edges(), builder_cycle(n).edges(), "n = {n}");
        }
    }

    #[test]
    fn circulant_is_regular_and_consistent() {
        for (n, d) in [(8, 2), (8, 3), (9, 4), (10, 5), (12, 6), (64, 7), (8, 1)] {
            let g = circulant(n, d).unwrap();
            assert!(g.is_regular(d), "(n, d) = ({n}, {d})");
            assert!(g.handshake_holds());
            for v in g.vertices() {
                for (p, nb) in g.neighbors(v).iter().enumerate() {
                    let back = g.neighbor(nb.node, nb.back_port);
                    assert_eq!((back.node, back.back_port, back.edge), (v, p, nb.edge));
                    let (a, b) = g.endpoints(nb.edge);
                    assert_eq!((a.min(b), a.max(b)), (v.min(nb.node), v.max(nb.node)));
                }
            }
        }
    }

    #[test]
    fn circulant_matches_switch_chain_base() {
        // The circulant is exactly random_regular's base graph before any
        // swaps: zero mixing steps can't happen through the public API, but
        // the edge *set* must agree — check endpoints as sets.
        for (n, d) in [(10, 3), (20, 4), (16, 5), (8, 7)] {
            let g = circulant(n, d).unwrap();
            let mut ours: Vec<_> = g.edges().to_vec();
            ours.sort_unstable();
            let mut base: Vec<(usize, usize)> = Vec::new();
            for v in 0..n {
                for off in 1..=(d / 2) {
                    let u = (v + off) % n;
                    let k = (v.min(u), v.max(u));
                    if !base.contains(&k) {
                        base.push(k);
                    }
                }
                if d % 2 == 1 {
                    let u = (v + n / 2) % n;
                    let k = (v.min(u), v.max(u));
                    if !base.contains(&k) {
                        base.push(k);
                    }
                }
            }
            base.sort_unstable();
            assert_eq!(ours, base, "(n, d) = ({n}, {d})");
        }
    }

    #[test]
    fn circulant_rejects_infeasible() {
        assert!(circulant(5, 3).is_err(), "odd n*d");
        assert!(circulant(4, 4).is_err(), "d >= n");
        assert_eq!(circulant(5, 0).unwrap().m(), 0);
    }

    #[test]
    fn dary_tree_matches_builder() {
        for (n_min, d) in [(1, 2), (10, 2), (40, 3), (100, 4), (500, 5), (16_384, 16)] {
            let a = complete_dary_tree(n_min, d);
            let b = builder_dary_tree(n_min, d);
            assert_eq!(a, b, "(n_min, d) = ({n_min}, {d})");
            assert_eq!(a.edges(), b.edges());
            assert_eq!(a.max_degree(), b.max_degree());
        }
    }

    #[test]
    fn endpoints_agree_with_edge_list() {
        let g = circulant(30, 5).unwrap();
        let edges = g.edges().to_vec();
        for (e, &pair) in edges.iter().enumerate() {
            assert_eq!(g.endpoints(e), pair);
        }
        let t = complete_dary_tree(200, 3);
        let edges = t.edges().to_vec();
        for (e, &pair) in edges.iter().enumerate() {
            assert_eq!(t.endpoints(e), pair);
        }
    }
}
