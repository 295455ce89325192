//! Structural analysis: BFS, components, diameter, girth, bipartition,
//! power graphs.
//!
//! The girth computation matters for the paper's lower bounds: Theorems 4–5
//! require Δ-regular graphs of girth `Ω(log_Δ n)`, and the indistinguishability
//! argument needs `t < (g−1)/2`. We compute girth *exactly* so experiments can
//! verify the precondition instead of assuming it.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use std::collections::VecDeque;

/// BFS distances from `src`; unreachable vertices get `usize::MAX`.
///
/// # Panics
///
/// Panics if `src >= g.n()`.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for nb in g.neighbors(u) {
            if dist[nb.node()] == usize::MAX {
                dist[nb.node()] = dist[u] + 1;
                queue.push_back(nb.node());
            }
        }
    }
    dist
}

/// Connected components as a vector of vertex lists; each vertex appears in
/// exactly one component. Components are listed in order of their smallest
/// vertex.
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut comp_of = vec![usize::MAX; g.n()];
    let mut comps: Vec<Vec<NodeId>> = Vec::new();
    for start in g.vertices() {
        if comp_of[start] != usize::MAX {
            continue;
        }
        let c = comps.len();
        let mut members = vec![start];
        comp_of[start] = c;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for nb in g.neighbors(u) {
                if comp_of[nb.node()] == usize::MAX {
                    comp_of[nb.node()] = c;
                    members.push(nb.node());
                    queue.push_back(nb.node());
                }
            }
        }
        comps.push(members);
    }
    comps
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != usize::MAX)
}

/// Exact diameter, or `None` if the graph is disconnected or empty.
///
/// Runs one BFS per vertex: `O(n (n + m))`. Fine for the experiment scales
/// where diameter matters (lower-bound instances); avoid on huge graphs.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.n() == 0 {
        return None;
    }
    let mut best = 0;
    for v in g.vertices() {
        let d = bfs_distances(g, v);
        let ecc = *d.iter().max().expect("nonempty");
        if ecc == usize::MAX {
            return None;
        }
        best = best.max(ecc);
    }
    Some(best)
}

/// Whether the graph is a tree: connected with `m = n − 1`.
pub fn is_tree(g: &Graph) -> bool {
    g.n() > 0 && g.m() == g.n() - 1 && is_connected(g)
}

/// Whether the graph is a forest (acyclic).
pub fn is_forest(g: &Graph) -> bool {
    let comps = connected_components(g);
    // A graph is a forest iff m = n - (#components).
    g.m() + comps.len() == g.n()
}

/// Exact girth (length of the shortest cycle), or `None` for forests.
///
/// Algorithm: BFS from every vertex `v`; the first non-tree edge encountered
/// between vertices `u`, `w` on the BFS frontier closes a cycle of length
/// `dist(u) + dist(w) + 1` through `v`'s BFS tree. Taking the minimum over all
/// roots yields the exact girth (the standard `O(n·m)` method: for the root on
/// a shortest cycle, the bound is tight).
pub fn girth(g: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut dist = vec![usize::MAX; g.n()];
    let mut parent_edge = vec![usize::MAX; g.n()];
    let mut touched: Vec<NodeId> = Vec::new();
    for root in g.vertices() {
        // BFS from root, stopping when levels exceed best/2.
        for &t in &touched {
            dist[t] = usize::MAX;
            parent_edge[t] = usize::MAX;
        }
        touched.clear();
        dist[root] = 0;
        touched.push(root);
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            if let Some(b) = best {
                // Any cycle found deeper than this cannot beat `b`.
                if 2 * dist[u] + 1 >= b {
                    continue;
                }
            }
            for nb in g.neighbors(u) {
                if nb.edge() == parent_edge[u] {
                    continue;
                }
                let w = nb.node();
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    parent_edge[w] = nb.edge();
                    touched.push(w);
                    queue.push_back(w);
                } else {
                    // Non-tree edge: cycle of length dist[u] + dist[w] + 1.
                    let c = dist[u] + dist[w] + 1;
                    if best.is_none_or(|b| c < b) {
                        best = Some(c);
                    }
                }
            }
        }
    }
    best
}

/// 2-coloring of a bipartite graph: returns `sides[v] ∈ {0, 1}` per vertex, or
/// `None` if the graph contains an odd cycle.
pub fn bipartition(g: &Graph) -> Option<Vec<u8>> {
    let mut side = vec![u8::MAX; g.n()];
    for start in g.vertices() {
        if side[start] != u8::MAX {
            continue;
        }
        side[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for nb in g.neighbors(u) {
                if side[nb.node()] == u8::MAX {
                    side[nb.node()] = 1 - side[u];
                    queue.push_back(nb.node());
                } else if side[nb.node()] == side[u] {
                    return None;
                }
            }
        }
    }
    Some(side)
}

/// The power graph `G^k`: vertices of `G`, edges between distinct vertices at
/// distance `≤ k` in `G`.
///
/// This is the object Theorems 5, 6, and 8 run Linial's algorithm on ("treat
/// each ℓ-bit ID as a color, recolor `G'` where `G'` joins vertices within
/// distance `2t + 2r`"). A step of an algorithm on `G^k` is simulated in `G`
/// with `k` rounds.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn power_graph(g: &Graph, k: usize) -> Graph {
    assert!(k > 0, "power_graph requires k >= 1");
    let mut b = GraphBuilder::new(g.n());
    let mut dist = vec![usize::MAX; g.n()];
    let mut touched: Vec<NodeId> = Vec::new();
    for v in g.vertices() {
        // Bounded BFS to depth k.
        for &t in &touched {
            dist[t] = usize::MAX;
        }
        touched.clear();
        dist[v] = 0;
        touched.push(v);
        let mut queue = VecDeque::from([v]);
        while let Some(u) = queue.pop_front() {
            if dist[u] == k {
                continue;
            }
            for nb in g.neighbors(u) {
                if dist[nb.node()] == usize::MAX {
                    dist[nb.node()] = dist[u] + 1;
                    touched.push(nb.node());
                    queue.push_back(nb.node());
                    if nb.node() > v {
                        b.add_edge(v, nb.node()).expect("unique by construction");
                    }
                }
            }
        }
    }
    b.build()
}

/// The line graph `L(G)`: one vertex per edge of `G`, adjacent iff the
/// edges share an endpoint.
///
/// Used to reduce maximal matching to MIS: a maximal independent set of
/// `L(G)` is exactly a maximal matching of `G`. One round on `L(G)` is
/// simulated by two rounds on `G` (each edge is simulated by its endpoints).
pub fn line_graph(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.m());
    for v in g.vertices() {
        let inc = g.neighbors(v);
        for i in 0..inc.len() {
            for j in (i + 1)..inc.len() {
                let (e1, e2) = (inc[i].edge(), inc[j].edge());
                if !b.has_edge(e1, e2) {
                    b.add_edge(e1, e2).expect("checked for duplicates");
                }
            }
        }
    }
    b.build()
}

/// The number of vertices within distance `r` of `v` (including `v`):
/// `|N^r(v)|` in the paper's notation.
pub fn ball_size(g: &Graph, v: NodeId, r: usize) -> usize {
    let mut dist = vec![usize::MAX; g.n()];
    dist[v] = 0;
    let mut count = 1;
    let mut queue = VecDeque::from([v]);
    while let Some(u) = queue.pop_front() {
        if dist[u] == r {
            continue;
        }
        for nb in g.neighbors(u) {
            if dist[nb.node()] == usize::MAX {
                dist[nb.node()] = dist[u] + 1;
                count += 1;
                queue.push_back(nb.node());
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn components_of_disjoint_edges() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2, 3]);
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&gen::cycle(6)), Some(3));
        assert_eq!(diameter(&gen::cycle(7)), Some(3));
        assert_eq!(diameter(&gen::path(5)), Some(4));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn girth_of_cycles() {
        for n in 3..12 {
            assert_eq!(girth(&gen::cycle(n)), Some(n), "girth of C_{n}");
        }
    }

    #[test]
    fn girth_of_forest_is_none() {
        assert_eq!(girth(&gen::path(10)), None);
        assert_eq!(girth(&gen::star(10)), None);
    }

    #[test]
    fn girth_of_complete() {
        assert_eq!(girth(&gen::complete(4)), Some(3));
        assert_eq!(girth(&gen::complete(5)), Some(3));
    }

    #[test]
    fn girth_of_petersen() {
        // Petersen graph: 3-regular, girth 5.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let edges: Vec<_> = outer.into_iter().chain(spokes).chain(inner).collect();
        let g = GraphBuilder::from_edges(10, edges).unwrap();
        assert!(g.is_regular(3));
        assert_eq!(girth(&g), Some(5));
    }

    #[test]
    fn girth_of_k33() {
        // K_{3,3}: 3-regular bipartite, girth 4.
        let mut b = GraphBuilder::new(6);
        for u in 0..3 {
            for v in 3..6 {
                b.add_edge(u, v).unwrap();
            }
        }
        assert_eq!(girth(&b.build()), Some(4));
    }

    #[test]
    fn bipartition_of_even_cycle() {
        let side = bipartition(&gen::cycle(8)).unwrap();
        for e in gen::cycle(8).edges() {
            assert_ne!(side[e.0], side[e.1]);
        }
    }

    #[test]
    fn bipartition_rejects_odd_cycle() {
        assert!(bipartition(&gen::cycle(7)).is_none());
        assert!(bipartition(&gen::complete(3)).is_none());
    }

    #[test]
    fn tree_and_forest_predicates() {
        assert!(is_tree(&gen::path(5)));
        assert!(is_tree(&gen::star(7)));
        assert!(!is_tree(&gen::cycle(5)));
        assert!(is_forest(
            &GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap()
        ));
        assert!(!is_forest(&gen::cycle(4)));
    }

    #[test]
    fn power_graph_of_path() {
        let g = gen::path(5); // 0-1-2-3-4
        let g2 = power_graph(&g, 2);
        assert!(g2.has_edge(0, 2));
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(0, 3));
        assert_eq!(g2.m(), 4 + 3); // distance-1 plus distance-2 pairs
    }

    #[test]
    fn power_graph_k1_is_same_graph() {
        let g = gen::cycle(6);
        let g1 = power_graph(&g, 1);
        assert_eq!(g1.m(), g.m());
        for &(u, v) in g.edges() {
            assert!(g1.has_edge(u, v));
        }
    }

    #[test]
    fn ball_sizes_on_cycle() {
        let g = gen::cycle(10);
        assert_eq!(ball_size(&g, 0, 0), 1);
        assert_eq!(ball_size(&g, 0, 1), 3);
        assert_eq!(ball_size(&g, 0, 2), 5);
        assert_eq!(ball_size(&g, 0, 100), 10);
    }
}

#[cfg(test)]
mod line_graph_tests {
    use super::*;
    use crate::gen;

    #[test]
    fn line_graph_of_path() {
        // P4 has 3 edges in a path; L(P4) = P3.
        let g = gen::path(4);
        let l = line_graph(&g);
        assert_eq!(l.n(), 3);
        assert_eq!(l.m(), 2);
    }

    #[test]
    fn line_graph_of_cycle_is_cycle() {
        let g = gen::cycle(7);
        let l = line_graph(&g);
        assert_eq!(l.n(), 7);
        assert_eq!(l.m(), 7);
        assert!(l.is_regular(2));
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let g = gen::star(5);
        let l = line_graph(&g);
        assert_eq!(l.n(), 4);
        assert_eq!(l.m(), 6); // K4
    }

    #[test]
    fn line_graph_degree_bound() {
        // Δ(L(G)) ≤ 2Δ(G) − 2.
        let g = gen::complete(6);
        let l = line_graph(&g);
        assert!(l.max_degree() <= 2 * g.max_degree() - 2);
    }
}
