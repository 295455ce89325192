//! Differential property tests for the CSR adjacency.
//!
//! [`Graph`] stores its adjacency as one flat CSR arena (offsets + a single
//! `Vec<Neighbor>`), but its public contract is still the old nested
//! `Vec<Vec<Neighbor>>` semantics: ports are numbered in edge-insertion
//! order, `back_port` cross-references are exact, and edge ids are insertion
//! indices. These tests rebuild that reference representation independently
//! from the same edge list and require the CSR graph to agree neighbor-for-
//! neighbor on arbitrary random graphs.

use local_graphs::{gen, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-refactor adjacency representation, built by the pre-refactor
/// rule: each inserted edge appends one `(node, back_port, edge)` entry to
/// each endpoint's list.
fn reference_adj(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<(usize, usize, usize)>> {
    let mut adj: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n];
    for (e, &(u, v)) in edges.iter().enumerate() {
        let pu = adj[u].len();
        let pv = adj[v].len();
        adj[u].push((v, pv, e));
        adj[v].push((u, pu, e));
    }
    adj
}

/// A random simple edge list on `n` vertices: every `u < v` pair included
/// independently with probability `p`, in lexicographic insertion order.
fn random_edges(n: usize, p: f64, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

fn assert_matches_reference(g: &Graph, n: usize, edges: &[(usize, usize)]) {
    let reference = reference_adj(n, edges);
    assert_eq!(g.n(), n);
    assert_eq!(g.m(), edges.len());
    let expected_max = reference.iter().map(Vec::len).max().unwrap_or(0);
    assert_eq!(g.max_degree(), expected_max);

    let offsets = g.csr_offsets();
    assert_eq!(offsets.len(), n + 1);
    assert_eq!(offsets[0], 0);
    assert_eq!(offsets[n], 2 * edges.len());

    for v in 0..n {
        assert_eq!(g.degree(v), reference[v].len(), "degree of {v}");
        assert_eq!(
            offsets[v + 1] - offsets[v],
            reference[v].len(),
            "CSR slot span of {v}"
        );
        let entries: Vec<_> = g
            .neighbors(v)
            .iter()
            .map(|nb| (nb.node(), nb.back_port(), nb.edge()))
            .collect();
        assert_eq!(entries, reference[v], "adjacency of {v}");
    }
    for (e, &(u, v)) in edges.iter().enumerate() {
        assert_eq!(g.endpoints(e), (u, v), "endpoints of edge {e}");
        assert!(g.has_edge(u, v) && g.has_edge(v, u));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_csr_matches_nested_vec_reference(n in 1usize..40, seed in 0u64..10_000, pct in 0u32..90) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(n, f64::from(pct) / 100.0, &mut rng);
        let g = GraphBuilder::from_edges(n, edges.iter().copied()).expect("valid simple edges");
        assert_matches_reference(&g, n, &edges);
    }

    #[test]
    fn streamed_cycle_matches_nested_vec_reference(n in 3usize..200) {
        // The implicit-edge constructor must agree with the same reference
        // model on the cycle's canonical insertion order (edge i = (i, i+1),
        // closing edge last).
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((0, n - 1));
        let g = gen::stream::cycle(n);
        assert_matches_reference(&g, n, &edges);
    }
}

#[test]
fn empty_and_isolated_vertices_have_empty_csr_rows() {
    let g = GraphBuilder::new(5).build();
    assert_eq!(g.m(), 0);
    assert_eq!(g.csr_offsets(), &[0, 0, 0, 0, 0, 0]);
    for v in 0..5 {
        assert!(g.neighbors(v).is_empty());
    }
}
