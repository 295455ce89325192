//! Random regular and bipartite-regular graph generators.
//!
//! Sampling strategy: build a deterministic `d`-regular base graph (a
//! circulant), then randomize with `Θ(n·d)` double-edge swaps (the standard
//! switch-chain MCMC). Unlike the configuration model this never rejects, so
//! it works for every feasible `(n, d)` — including the small dense cases the
//! tests and toy experiments use.

use super::edge_set::EdgeSet;
use crate::error::GraphError;
use crate::graph::{fits_u32, Graph};
use crate::GraphBuilder;
use rand::Rng;

/// Number of switch-chain steps used to randomize a base graph with `m`
/// edges: `16` proposed swaps per edge (plus a floor for tiny graphs).
///
/// The chain mixes in `O(m)` steps for the regular degree sequences used
/// here; 16 passes is comfortably past the empirical mixing point (edge-set
/// overlap with the base graph stops decreasing after ~4 passes) while
/// keeping generation linear in `m` — the previous constant, `40` swaps per
/// edge expressed as `20·n·d`, made generation dominate engine time at
/// `n ≥ 1M` for no extra mixing.
fn mixing_steps(m: usize) -> usize {
    16 * m + 64
}

fn key(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

/// Apply `steps` random double-edge swaps to `edges`, preserving the degree
/// sequence, simplicity, and — when `bipartite_split` is set — the property
/// that every edge crosses the split (left endpoints `< split`).
fn switch_chain(
    edges: &mut [(usize, usize)],
    seen: &mut EdgeSet,
    steps: usize,
    bipartite_split: Option<usize>,
    rng: &mut impl Rng,
) {
    let m = edges.len();
    if m < 2 {
        return;
    }
    for _ in 0..steps {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        if i == j {
            continue;
        }
        let (mut a, mut b) = edges[i];
        let (mut c, mut d) = edges[j];
        match bipartite_split {
            Some(split) => {
                // Orient both edges left→right so the swap stays bipartite.
                if a >= split {
                    std::mem::swap(&mut a, &mut b);
                }
                if c >= split {
                    std::mem::swap(&mut c, &mut d);
                }
            }
            None => {
                // Randomly flip one edge's orientation for symmetry of the chain.
                if rng.gen_bool(0.5) {
                    std::mem::swap(&mut c, &mut d);
                }
            }
        }
        // Proposed swap: {a,b},{c,d} → {a,d},{c,b}.
        if a == d || c == b {
            continue;
        }
        let ad = key(a, d);
        let cb = key(c, b);
        if seen.contains(a, d) || seen.contains(c, b) || ad == cb {
            continue;
        }
        seen.remove(a, b);
        seen.remove(c, d);
        seen.insert(a, d);
        seen.insert(c, b);
        edges[i] = ad;
        edges[j] = cb;
    }
}

/// Random `d`-regular graph on `n` vertices: a circulant base randomized by
/// the switch chain.
///
/// # Errors
///
/// [`GraphError::InfeasibleParameters`] if `n·d` is odd or `d ≥ n`, and
/// [`GraphError::TooLarge`] if `n` or `n·d` exceeds `u32::MAX`.
pub fn random_regular(n: usize, d: usize, rng: &mut impl Rng) -> Result<Graph, GraphError> {
    fits_u32(n, n.saturating_mul(d) / 2)?;
    if d == 0 {
        return Ok(GraphBuilder::new(n).build());
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
    // Circulant base: connect v to v±1, …, v±⌊d/2⌋; if d is odd, also v+n/2
    // (n is even in that case because n·d is even).
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * d / 2);
    let mut seen = EdgeSet::with_capacity(n * d / 2);
    for v in 0..n {
        for off in 1..=(d / 2) {
            let u = (v + off) % n;
            if seen.insert(v, u) {
                edges.push(key(v, u));
            }
        }
        if d % 2 == 1 {
            let u = (v + n / 2) % n;
            if seen.insert(v, u) {
                edges.push(key(v, u));
            }
        }
    }
    debug_assert_eq!(edges.len(), n * d / 2);
    let steps = mixing_steps(edges.len());
    switch_chain(&mut edges, &mut seen, steps, None, rng);
    // The chain maintains simplicity and normalization exactly (the EdgeSet
    // mirrors `edges` at every step), so skip builder re-validation.
    Ok(GraphBuilder::from_edges_unchecked(n, edges))
}

/// Random `d`-regular bipartite graph with `n_side` vertices on each side
/// (vertices `0..n_side` on the left, `n_side..2·n_side` on the right): a
/// bipartite circulant base randomized by the bipartiteness-preserving switch
/// chain.
///
/// These are the lower-bound instances of Theorem 4: bipartite Δ-regular
/// graphs are trivially Δ-edge-colorable (see [`crate::edge_coloring::konig`])
/// and any Δ-coloring of such a graph is a valid Δ-sinkless coloring.
///
/// # Errors
///
/// [`GraphError::InfeasibleParameters`] if `d > n_side`, and
/// [`GraphError::TooLarge`] if `2·n_side` or `2·n_side·d` exceeds `u32::MAX`.
pub fn random_bipartite_regular(
    n_side: usize,
    d: usize,
    rng: &mut impl Rng,
) -> Result<Graph, GraphError> {
    fits_u32(n_side.saturating_mul(2), n_side.saturating_mul(d))?;
    if d > n_side {
        return Err(GraphError::InfeasibleParameters {
            reason: format!("d = {d} > n_side = {n_side}"),
        });
    }
    // Base: left u ↔ right (u + j) mod n_side for j = 0..d.
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n_side * d);
    let mut seen = EdgeSet::with_capacity(n_side * d);
    for u in 0..n_side {
        for j in 0..d {
            let v = n_side + (u + j) % n_side;
            seen.insert(u, v);
            edges.push(key(u, v));
        }
    }
    let steps = mixing_steps(edges.len());
    switch_chain(&mut edges, &mut seen, steps, Some(n_side), rng);
    Ok(GraphBuilder::from_edges_unchecked(2 * n_side, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regular_degrees() {
        let mut rng = StdRng::seed_from_u64(11);
        for (n, d) in [(10, 3), (20, 4), (16, 5), (50, 3), (8, 7)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert!(g.is_regular(d), "n={n} d={d}");
            assert!(g.handshake_holds());
        }
    }

    #[test]
    fn regular_rejects_odd_product() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            random_regular(5, 3, &mut rng),
            Err(GraphError::InfeasibleParameters { .. })
        ));
    }

    #[test]
    fn regular_rejects_d_ge_n() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            random_regular(4, 4, &mut rng),
            Err(GraphError::InfeasibleParameters { .. })
        ));
    }

    #[test]
    fn regular_d_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_regular(7, 0, &mut rng).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn regular_reproducible() {
        let a = random_regular(30, 3, &mut StdRng::seed_from_u64(2)).unwrap();
        let b = random_regular(30, 3, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn regular_samples_differ_across_seeds() {
        let a = random_regular(30, 3, &mut StdRng::seed_from_u64(2)).unwrap();
        let b = random_regular(30, 3, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_ne!(a, b, "switch chain should actually randomize");
    }

    #[test]
    fn bipartite_regular_structure() {
        let mut rng = StdRng::seed_from_u64(13);
        for (ns, d) in [(8, 3), (20, 4), (30, 5), (6, 6)] {
            let g = random_bipartite_regular(ns, d, &mut rng).unwrap();
            assert_eq!(g.n(), 2 * ns);
            assert!(g.is_regular(d), "ns={ns} d={d}");
            let side = analysis::bipartition(&g).expect("must be bipartite");
            for &(u, v) in g.edges() {
                assert_ne!(side[u], side[v]);
            }
        }
    }

    #[test]
    fn bipartite_regular_edges_cross_sides() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = random_bipartite_regular(10, 3, &mut rng).unwrap();
        for &(u, v) in g.edges() {
            assert!(
                u < 10 && v >= 10,
                "edge ({u},{v}) must cross the bipartition"
            );
        }
    }

    #[test]
    fn bipartite_regular_rejects_large_d() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_bipartite_regular(3, 4, &mut rng).is_err());
    }

    #[test]
    fn bipartite_full_d_is_complete_bipartite() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_bipartite_regular(4, 4, &mut rng).unwrap();
        assert_eq!(g.m(), 16);
        for u in 0..4 {
            for v in 4..8 {
                assert!(g.has_edge(u, v));
            }
        }
    }
}
