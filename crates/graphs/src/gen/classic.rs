//! Deterministic classic families and G(n, p).

use crate::graph::Graph;
use crate::GraphBuilder;
use rand::Rng;

/// The path `P_n` on vertices `0 — 1 — … — n−1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v - 1, v).expect("path edges are unique");
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("complete edges are unique");
        }
    }
    b.build()
}

/// The star `K_{1,n−1}` with center 0.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v).expect("star edges are unique");
    }
    b.build()
}

/// The `w × h` grid graph (max degree 4).
pub fn grid(w: usize, h: usize) -> Graph {
    let mut b = GraphBuilder::new(w * h);
    let id = |x: usize, y: usize| y * w + x;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y)).expect("unique");
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1)).expect("unique");
            }
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` (left side `0..a`, right side
/// `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            builder.add_edge(u, v).expect("each pair once");
        }
    }
    builder.build()
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n−1)/2` possible edges included
/// independently with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u, v).expect("each pair visited once");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::gen::cycle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(3), 2);
        assert!(analysis::is_tree(&g));
    }

    #[test]
    fn cycle_is_two_regular() {
        let g = cycle(9);
        assert!(g.is_regular(2));
        assert_eq!(g.m(), 9);
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn small_cycle_degenerates_to_path() {
        assert_eq!(cycle(2).m(), 1);
        assert_eq!(cycle(1).m(), 0);
        assert_eq!(cycle(0).n(), 0);
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete(6).m(), 15);
        assert!(complete(6).is_regular(5));
    }

    #[test]
    fn star_degrees() {
        let g = star(8);
        assert_eq!(g.degree(0), 7);
        for v in 1..8 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 4 * 2); // horizontal + vertical
        assert_eq!(g.max_degree(), 4);
        assert!(analysis::is_connected(&g));
        assert_eq!(analysis::girth(&g), Some(4));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
    }

    #[test]
    fn gnp_is_reproducible() {
        let g1 = gnp(30, 0.2, &mut StdRng::seed_from_u64(7));
        let g2 = gnp(30, 0.2, &mut StdRng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gnp_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = gnp(5, 1.5, &mut rng);
    }
}
