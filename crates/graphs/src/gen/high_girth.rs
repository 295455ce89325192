//! High-girth regular graphs by local search.
//!
//! The paper's lower bounds (Theorem 4/5) need Δ-regular graphs with girth
//! `Ω(log_Δ n)`; it cites explicit constructions (Dahan 2014, Bollobás 1978)
//! for their *existence*. Those constructions are deep algebraic objects; for
//! the experiments all we need is a concrete Δ-regular (bipartite) graph whose
//! girth we can *verify* exceeds `2t + 1` for the round counts `t` we probe.
//!
//! We therefore substitute a local search: start from a random Δ-regular
//! bipartite graph (girth already `≈ log_{Δ−1} n` in expectation) and
//! repeatedly break the shortest cycle with a 2-opt edge swap, re-verifying
//! girth. This is documented as a substitution in `DESIGN.md`.

use crate::analysis;
use crate::error::GraphError;
use crate::gen::regular::random_bipartite_regular;
use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use rand::Rng;
use std::collections::VecDeque;

/// Find one shortest cycle as a vertex sequence, or `None` in a forest.
fn shortest_cycle(g: &Graph) -> Option<Vec<NodeId>> {
    let girth = analysis::girth(g)?;
    // BFS from each vertex until we find a cycle of exactly `girth`.
    for root in g.vertices() {
        let mut dist = vec![usize::MAX; g.n()];
        let mut parent = vec![usize::MAX; g.n()];
        let mut parent_edge = vec![usize::MAX; g.n()];
        dist[root] = 0;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            if 2 * dist[u] + 1 > girth {
                break;
            }
            for nb in g.neighbors(u) {
                if nb.edge() == parent_edge[u] {
                    continue;
                }
                let w = nb.node();
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    parent[w] = u;
                    parent_edge[w] = nb.edge();
                    queue.push_back(w);
                } else if dist[u] + dist[w] + 1 == girth {
                    // Reconstruct the cycle: path u→root, path w→root, joined.
                    let path_to_root = |mut x: NodeId| {
                        let mut p = vec![x];
                        while parent[x] != usize::MAX {
                            x = parent[x];
                            p.push(x);
                        }
                        p
                    };
                    let pu = path_to_root(u);
                    let pw = path_to_root(w);
                    // Drop the shared suffix (common ancestors).
                    let mut iu = pu.len();
                    let mut iw = pw.len();
                    while iu > 1 && iw > 1 && pu[iu - 2] == pw[iw - 2] {
                        iu -= 1;
                        iw -= 1;
                    }
                    let mut cycle: Vec<NodeId> = pu[..iu].to_vec();
                    let mut tail: Vec<NodeId> = pw[..iw - 1].to_vec();
                    tail.reverse();
                    cycle.extend(tail);
                    return Some(cycle);
                }
            }
        }
    }
    None
}

/// Generate a `d`-regular bipartite graph on `2·n_side` vertices with girth
/// at least `min_girth`, by 2-opt local search from a random sample.
///
/// Each iteration finds a shortest cycle, picks one of its edges `{a, b}` and
/// an unrelated edge `{c, d}` on the same bipartition orientation, and swaps
/// them to `{a, d}, {c, b}` — degree sequence and bipartiteness are preserved,
/// and the short cycle is destroyed (possibly creating others; the search
/// iterates until the girth target is met).
///
/// # Errors
///
/// * Propagates generator errors from [`random_bipartite_regular`].
/// * [`GraphError::RetriesExhausted`] if the swap budget runs out — the caller
///   asked for a girth that is information-theoretically too large for
///   `(n_side, d)` (the Moore bound), or was simply unlucky.
pub fn high_girth_regular(
    n_side: usize,
    d: usize,
    min_girth: usize,
    rng: &mut impl Rng,
) -> Result<Graph, GraphError> {
    let mut g = random_bipartite_regular(n_side, d, rng)?;
    if d <= 1 {
        return Ok(g); // forests: girth is infinite
    }
    let budget = 200 + 40 * n_side;
    for _ in 0..budget {
        match analysis::girth(&g) {
            None => return Ok(g),
            Some(girth) if girth >= min_girth => return Ok(g),
            Some(_) => {}
        }
        let cycle = shortest_cycle(&g).expect("girth is finite, cycle exists");
        // Edge {a, b} on the cycle, with a on the left side.
        let i = rng.gen_range(0..cycle.len());
        let (mut a, mut b) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        if a >= n_side {
            std::mem::swap(&mut a, &mut b);
        }
        debug_assert!(a < n_side && b >= n_side);
        // Random other edge {c, d} with c on the left; retry a few times to
        // find a swap that keeps the graph simple.
        let mut swapped = false;
        for _ in 0..32 {
            let e = rng.gen_range(0..g.m());
            let (mut c, mut dd) = g.endpoints(e);
            if c >= n_side {
                std::mem::swap(&mut c, &mut dd);
            }
            if c == a || dd == b || g.has_edge(a, dd) || g.has_edge(c, b) {
                continue;
            }
            // Rebuild with the swap applied.
            let mut builder = GraphBuilder::new(g.n());
            for &(u, v) in g.edges() {
                let (uu, vv) = if (u.min(v), u.max(v)) == (a.min(b), a.max(b)) {
                    (a, dd)
                } else if (u.min(v), u.max(v)) == (c.min(dd), c.max(dd)) {
                    (c, b)
                } else {
                    (u, v)
                };
                builder.add_edge(uu, vv).expect("swap keeps graph simple");
            }
            g = builder.build();
            swapped = true;
            break;
        }
        if !swapped {
            // Could not find a compatible partner edge; resample wholesale.
            g = random_bipartite_regular(n_side, d, rng)?;
        }
    }
    Err(GraphError::RetriesExhausted {
        what: format!("girth >= {min_girth} on {d}-regular bipartite, n_side={n_side}"),
        attempts: budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn achieves_requested_girth() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = high_girth_regular(64, 3, 6, &mut rng).unwrap();
        assert!(g.is_regular(3));
        assert!(analysis::girth(&g).unwrap_or(usize::MAX) >= 6);
        assert!(analysis::bipartition(&g).is_some());
    }

    #[test]
    fn achieves_girth_eight_on_larger_instance() {
        let mut rng = StdRng::seed_from_u64(78);
        let g = high_girth_regular(200, 3, 8, &mut rng).unwrap();
        assert!(g.is_regular(3));
        assert!(analysis::girth(&g).unwrap_or(usize::MAX) >= 8);
    }

    #[test]
    fn degree_one_returns_matching() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = high_girth_regular(10, 1, 100, &mut rng).unwrap();
        assert!(g.is_regular(1));
        assert_eq!(analysis::girth(&g), None);
    }

    #[test]
    fn impossible_girth_errors_out() {
        // K_{3,3} is forced at n_side = 3, d = 3: girth is 4, and no
        // 3-regular bipartite graph on 6 vertices has girth >= 100.
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            high_girth_regular(3, 3, 100, &mut rng),
            Err(GraphError::RetriesExhausted { .. })
        ));
    }

    #[test]
    fn shortest_cycle_matches_girth() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = random_bipartite_regular(20, 3, &mut rng).unwrap();
        let girth = analysis::girth(&g).expect("3-regular has cycles");
        let cyc = shortest_cycle(&g).expect("cycle exists");
        assert_eq!(cyc.len(), girth);
        // Consecutive cycle vertices must be adjacent (including wraparound).
        for i in 0..cyc.len() {
            assert!(
                g.has_edge(cyc[i], cyc[(i + 1) % cyc.len()]),
                "cycle edge {i} missing"
            );
        }
        // All distinct.
        let set: std::collections::HashSet<_> = cyc.iter().collect();
        assert_eq!(set.len(), cyc.len());
    }
}
