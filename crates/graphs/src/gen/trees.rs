//! Tree generators: the workloads for the paper's Δ-coloring experiments.

use crate::graph::Graph;
use crate::GraphBuilder;
use rand::Rng;

/// Uniform random labeled tree on `n` vertices via a random Prüfer sequence.
///
/// Degrees are unbounded (expected max degree `Θ(log n / log log n)`); use
/// [`random_tree_max_degree`] when a degree cap Δ is part of the experiment.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    if n <= 1 {
        return GraphBuilder::new(n).build();
    }
    if n == 2 {
        return GraphBuilder::from_edges(2, [(0, 1)]).expect("single edge");
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Standard O(n log n) decoding with a min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &p in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("tree always has a leaf");
        b.add_edge(leaf, p).expect("prufer edges are unique");
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.push(std::cmp::Reverse(p));
        }
    }
    let std::cmp::Reverse(u) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = leaves.pop().expect("two leaves remain");
    b.add_edge(u, v).expect("final edge is unique");
    b.build()
}

/// Random tree on `n` vertices with maximum degree at most `delta`, grown by
/// random attachment among vertices that still have spare degree.
///
/// The result is connected, acyclic, and satisfies `Δ(G) ≤ delta`. For
/// `delta ≥ 3` and large `n` the maximum degree is typically exactly `delta`.
///
/// # Panics
///
/// Panics if `delta < 2` and `n > 2` (no such tree exists).
pub fn random_tree_max_degree(n: usize, delta: usize, rng: &mut impl Rng) -> Graph {
    if n > 2 {
        assert!(delta >= 2, "a tree on {n} > 2 vertices needs delta >= 2");
    }
    let mut b = GraphBuilder::new(n);
    if n <= 1 {
        return b.build();
    }
    // `open[i]` = vertices with residual capacity; attach each new vertex to a
    // uniformly random open one.
    let mut capacity = vec![0usize; n];
    let mut open: Vec<usize> = vec![0];
    capacity[0] = delta;
    for v in 1..n {
        let idx = rng.gen_range(0..open.len());
        let parent = open[idx];
        b.add_edge(parent, v).expect("attachment edges are unique");
        capacity[parent] -= 1;
        if capacity[parent] == 0 {
            open.swap_remove(idx);
        }
        capacity[v] = delta - 1;
        if capacity[v] > 0 {
            open.push(v);
        }
    }
    b.build()
}

/// A caterpillar: a spine path of `spine` vertices, each carrying `legs`
/// pendant leaves. Diameter `Θ(spine)` with maximum degree `legs + 2` —
/// the *deep* tree family used by adversarial-ID workloads, where random
/// attachment trees would only be `O(log n)` deep.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar needs a spine");
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for v in 1..spine {
        b.add_edge(v - 1, v).expect("spine edges are unique");
    }
    for s in 0..spine {
        for l in 0..legs {
            b.add_edge(s, spine + s * legs + l)
                .expect("leg edges are unique");
        }
    }
    b.build()
}

/// A broom: a path of `handle` vertices with `bristles` extra leaves
/// attached to its last vertex. Deep *and* locally dense at one end.
///
/// # Panics
///
/// Panics if `handle == 0`.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(handle > 0, "broom needs a handle");
    let n = handle + bristles;
    let mut b = GraphBuilder::new(n);
    for v in 1..handle {
        b.add_edge(v - 1, v).expect("handle edges are unique");
    }
    for l in 0..bristles {
        b.add_edge(handle - 1, handle + l)
            .expect("bristle edges are unique");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::gen::complete_dary_tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 10, 100, 500] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.n(), n);
            if n > 0 {
                assert!(analysis::is_tree(&g), "n={n}");
            }
        }
    }

    #[test]
    fn random_tree_reproducible() {
        let a = random_tree(64, &mut StdRng::seed_from_u64(5));
        let b = random_tree(64, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn degree_capped_tree_respects_cap() {
        let mut rng = StdRng::seed_from_u64(3);
        for delta in [2usize, 3, 5, 16] {
            let g = random_tree_max_degree(300, delta, &mut rng);
            assert!(analysis::is_tree(&g));
            assert!(g.max_degree() <= delta, "delta={delta}");
        }
    }

    #[test]
    fn degree_capped_tree_small_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(random_tree_max_degree(0, 3, &mut rng).n(), 0);
        assert_eq!(random_tree_max_degree(1, 3, &mut rng).m(), 0);
        assert_eq!(random_tree_max_degree(2, 2, &mut rng).m(), 1);
    }

    #[test]
    fn delta_two_cap_gives_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_tree_max_degree(50, 2, &mut rng);
        assert!(analysis::is_tree(&g));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(analysis::diameter(&g), Some(49));
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar(10, 3);
        assert_eq!(g.n(), 40);
        assert!(analysis::is_tree(&g));
        assert_eq!(g.max_degree(), 5); // interior spine: 2 spine + 3 legs
        assert_eq!(analysis::diameter(&g), Some(11)); // leaf-spine...spine-leaf
    }

    #[test]
    fn caterpillar_no_legs_is_path() {
        let g = caterpillar(7, 0);
        assert_eq!(g.n(), 7);
        assert_eq!(analysis::diameter(&g), Some(6));
    }

    #[test]
    fn broom_structure() {
        let g = broom(12, 5);
        assert_eq!(g.n(), 17);
        assert!(analysis::is_tree(&g));
        assert_eq!(g.degree(11), 1 + 5);
        assert_eq!(analysis::diameter(&g), Some(12));
    }

    #[test]
    fn complete_dary_structure() {
        let g = complete_dary_tree(1, 3); // just the root
        assert_eq!(g.n(), 1);
        let g = complete_dary_tree(2, 3); // root + 3 children
        assert_eq!(g.n(), 4);
        assert_eq!(g.degree(0), 3);
        let g = complete_dary_tree(5, 3); // next layer: 3*2 = 6 more
        assert_eq!(g.n(), 10);
        assert!(analysis::is_tree(&g));
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn complete_dary_internal_degrees() {
        let g = complete_dary_tree(100, 4);
        assert!(analysis::is_tree(&g));
        assert_eq!(g.max_degree(), 4);
        // Every non-leaf non-root vertex has degree exactly 4.
        let dmax = analysis::bfs_distances(&g, 0)
            .into_iter()
            .max()
            .expect("nonempty");
        let dist = analysis::bfs_distances(&g, 0);
        for v in g.vertices() {
            if v != 0 && dist[v] < dmax {
                assert_eq!(g.degree(v), 4, "internal vertex {v}");
            }
        }
    }
}
