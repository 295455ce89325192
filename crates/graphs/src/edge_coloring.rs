//! Proper edge colorings.
//!
//! The paper's Δ-sinkless-coloring and Δ-sinkless-orientation problems take a
//! Δ-regular graph *equipped with a proper Δ-edge coloring* as input. For
//! Δ-regular bipartite graphs such a coloring always exists (König's theorem);
//! [`konig`] computes one by peeling perfect matchings with Hopcroft–Karp.
//! For general graphs, [`misra_gries`] computes a (Δ+1)-edge-coloring
//! (Vizing's bound, constructively).

use crate::analysis::bipartition;
use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// A proper edge coloring: `colors[e]` is the color of edge `e`, colors are
/// `0..num_colors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeColoring {
    colors: Vec<usize>,
    num_colors: usize,
}

impl EdgeColoring {
    /// Wrap an explicit color vector.
    ///
    /// # Panics
    ///
    /// Panics if some entry is `>= num_colors`.
    pub fn new(colors: Vec<usize>, num_colors: usize) -> Self {
        assert!(
            colors.iter().all(|&c| c < num_colors),
            "color out of palette"
        );
        EdgeColoring { colors, num_colors }
    }

    /// Color of edge `e`.
    pub fn color(&self, e: EdgeId) -> usize {
        self.colors[e]
    }

    /// Palette size.
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// The raw per-edge color vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.colors
    }

    /// Check properness against `g`: no two incident edges share a color.
    pub fn is_proper(&self, g: &Graph) -> bool {
        self.first_violation(g).is_none()
    }

    /// The first pair of incident same-colored edges, if any.
    pub fn first_violation(&self, g: &Graph) -> Option<(EdgeId, EdgeId)> {
        for v in g.vertices() {
            let mut seen: Vec<Option<EdgeId>> = vec![None; self.num_colors];
            for nb in g.neighbors(v) {
                let c = self.colors[nb.edge()];
                if let Some(other) = seen[c] {
                    if other != nb.edge() {
                        return Some((other, nb.edge()));
                    }
                } else {
                    seen[c] = Some(nb.edge());
                }
            }
        }
        None
    }
}

/// Errors from edge-coloring routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EdgeColoringError {
    /// [`konig`] requires a bipartite input.
    NotBipartite,
    /// [`konig`] requires a regular input.
    NotRegular,
    /// Internal matching failure (should be impossible on valid input).
    MatchingFailed,
}

impl fmt::Display for EdgeColoringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeColoringError::NotBipartite => write!(f, "graph is not bipartite"),
            EdgeColoringError::NotRegular => write!(f, "graph is not regular"),
            EdgeColoringError::MatchingFailed => {
                write!(f, "perfect matching not found on regular bipartite graph")
            }
        }
    }
}

impl Error for EdgeColoringError {}

/// Hopcroft–Karp maximum matching on the subgraph of `g` whose edges have
/// `alive[e]`, restricted to left-side vertices `side[v] == 0`.
///
/// Returns `mate[v] = Some(edge)` for matched vertices.
fn hopcroft_karp(g: &Graph, side: &[u8], alive: &[bool]) -> Vec<Option<EdgeId>> {
    let n = g.n();
    let mut mate: Vec<Option<EdgeId>> = vec![None; n];
    let inf = usize::MAX;
    let mut dist = vec![inf; n];
    loop {
        // BFS from free left vertices.
        let mut queue = VecDeque::new();
        for v in g.vertices() {
            if side[v] == 0 && mate[v].is_none() {
                dist[v] = 0;
                queue.push_back(v);
            } else if side[v] == 0 {
                dist[v] = inf;
            }
        }
        let mut found_augmenting = false;
        while let Some(u) = queue.pop_front() {
            for nb in g.neighbors(u) {
                if !alive[nb.edge()] {
                    continue;
                }
                let w = nb.node(); // right side
                match mate[w] {
                    None => found_augmenting = true,
                    Some(me) => {
                        let (a, b) = g.endpoints(me);
                        let u2 = if side[a] == 0 { a } else { b };
                        if dist[u2] == inf {
                            dist[u2] = dist[u] + 1;
                            queue.push_back(u2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS augmentation along level graph.
        fn try_augment(
            g: &Graph,
            side: &[u8],
            alive: &[bool],
            dist: &mut [usize],
            mate: &mut [Option<EdgeId>],
            u: NodeId,
        ) -> bool {
            for p in 0..g.degree(u) {
                let nb = g.neighbor(u, p);
                if !alive[nb.edge()] {
                    continue;
                }
                let w = nb.node();
                let ok = match mate[w] {
                    None => true,
                    Some(me) => {
                        let (a, b) = g.endpoints(me);
                        let u2 = if side[a] == 0 { a } else { b };
                        dist[u2] == dist[u] + 1 && try_augment(g, side, alive, dist, mate, u2)
                    }
                };
                if ok {
                    mate[u] = Some(nb.edge());
                    mate[w] = Some(nb.edge());
                    return true;
                }
            }
            dist[u] = usize::MAX;
            false
        }
        for v in 0..n {
            if side[v] == 0 && mate[v].is_none() {
                try_augment(g, side, alive, &mut dist, &mut mate, v);
            }
        }
    }
    mate
}

/// Exact `d`-edge-coloring of a `d`-regular bipartite graph (König's theorem)
/// by repeatedly extracting a perfect matching as one color class.
///
/// # Errors
///
/// * [`EdgeColoringError::NotRegular`] if the graph is not regular.
/// * [`EdgeColoringError::NotBipartite`] if the graph has an odd cycle.
/// * [`EdgeColoringError::MatchingFailed`] only on internal failure
///   (a regular bipartite graph always has a perfect matching).
///
/// # Example
///
/// ```
/// use local_graphs::{gen, edge_coloring};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = gen::random_bipartite_regular(16, 3, &mut rng)?;
/// let coloring = edge_coloring::konig(&g)?;
/// assert_eq!(coloring.num_colors(), 3);
/// assert!(coloring.is_proper(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn konig(g: &Graph) -> Result<EdgeColoring, EdgeColoringError> {
    let d = g.max_degree();
    if !g.is_regular(d) {
        return Err(EdgeColoringError::NotRegular);
    }
    let side = bipartition(g).ok_or(EdgeColoringError::NotBipartite)?;
    let mut colors = vec![usize::MAX; g.m()];
    let mut alive = vec![true; g.m()];
    for c in 0..d {
        let mate = hopcroft_karp(g, &side, &alive);
        for v in g.vertices() {
            if side[v] == 0 {
                let e = mate[v].ok_or(EdgeColoringError::MatchingFailed)?;
                colors[e] = c;
                alive[e] = false;
            }
        }
    }
    debug_assert!(colors.iter().all(|&c| c != usize::MAX));
    Ok(EdgeColoring::new(colors, d))
}

/// Misra–Gries `(Δ+1)`-edge-coloring of an arbitrary simple graph
/// (constructive Vizing bound). Runs in `O(n·m)`.
///
/// # Example
///
/// ```
/// use local_graphs::{gen, edge_coloring};
///
/// let g = gen::complete(5);
/// let coloring = edge_coloring::misra_gries(&g);
/// assert!(coloring.num_colors() <= g.max_degree() + 1);
/// assert!(coloring.is_proper(&g));
/// ```
pub fn misra_gries(g: &Graph) -> EdgeColoring {
    let delta = g.max_degree();
    let k = delta + 1; // palette {0..k-1}
    let mut color: Vec<Option<usize>> = vec![None; g.m()];

    // Smallest color not used at v.
    let free_color = |color: &[Option<usize>], v: NodeId| -> usize {
        let mut used = vec![false; k];
        for nb in g.neighbors(v) {
            if let Some(c) = color[nb.edge()] {
                used[c] = true;
            }
        }
        used.iter().position(|&u| !u).expect("deg <= Δ < k colors")
    };
    let is_free = |color: &[Option<usize>], v: NodeId, c: usize| -> bool {
        g.neighbors(v).iter().all(|nb| color[nb.edge()] != Some(c))
    };
    // Edge id of {u, w}.
    let edge_of = |u: NodeId, w: NodeId| -> EdgeId {
        g.neighbors(u)
            .iter()
            .find(|nb| nb.node() == w)
            .expect("fan vertices are neighbors")
            .edge()
    };

    for e0 in 0..g.m() {
        if color[e0].is_some() {
            continue;
        }
        let (u, v) = g.endpoints(e0);
        // Build a maximal fan of u starting at v.
        let mut fan: Vec<NodeId> = vec![v];
        let mut in_fan = vec![false; g.n()];
        in_fan[v] = true;
        loop {
            let last = *fan.last().expect("fan nonempty");
            let next = g.neighbors(u).iter().find(|nb| {
                !in_fan[nb.node()] && color[nb.edge()].is_some_and(|c| is_free(&color, last, c))
            });
            match next {
                Some(nb) => {
                    in_fan[nb.node()] = true;
                    fan.push(nb.node());
                }
                None => break,
            }
        }
        let c = free_color(&color, u);
        let d = free_color(&color, *fan.last().expect("fan nonempty"));
        if c != d {
            // Invert the cd-path starting at u (u has no c-edge; follow d).
            let mut x = u;
            let mut want = d;
            let mut prev_edge = usize::MAX;
            loop {
                let step = g
                    .neighbors(x)
                    .iter()
                    .find(|nb| nb.edge() != prev_edge && color[nb.edge()] == Some(want))
                    .copied();
                match step {
                    Some(nb) => {
                        color[nb.edge()] = Some(if want == c { d } else { c });
                        prev_edge = nb.edge();
                        x = nb.node();
                        want = if want == c { d } else { c };
                    }
                    None => break,
                }
            }
        }
        // After inversion d is free on u. Find a fan prefix ending at a vertex
        // where d is free, then rotate.
        let mut j = None;
        for (i, &w) in fan.iter().enumerate() {
            // Prefix validity: for i >= 1, color(u, fan[i]) must be free on
            // fan[i-1]. The inversion may have recolored edges, so re-check.
            if i >= 1 {
                let ce = color[edge_of(u, fan[i])];
                let prev = fan[i - 1];
                match ce {
                    Some(cc) if is_free(&color, prev, cc) => {}
                    _ => break,
                }
            }
            if is_free(&color, w, d) {
                j = Some(i);
            }
        }
        let j = j.expect("Misra-Gries invariant: some valid fan prefix accepts d");
        // Rotate: shift colors toward the fan start, then color (u, fan[j]) d.
        for i in 0..j {
            color[edge_of(u, fan[i])] = color[edge_of(u, fan[i + 1])];
        }
        color[edge_of(u, fan[j])] = Some(d);
    }

    let colors: Vec<usize> = color
        .into_iter()
        .map(|c| c.expect("all edges colored"))
        .collect();
    // The palette may not be fully used; report Δ+1 as the bound.
    EdgeColoring::new(colors, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn konig_on_even_cycle() {
        let g = gen::cycle(8);
        let col = konig(&g).unwrap();
        assert_eq!(col.num_colors(), 2);
        assert!(col.is_proper(&g));
    }

    #[test]
    fn konig_rejects_odd_cycle() {
        assert_eq!(konig(&gen::cycle(7)), Err(EdgeColoringError::NotBipartite));
    }

    #[test]
    fn konig_rejects_irregular() {
        let g = gen::path(4);
        assert_eq!(konig(&g), Err(EdgeColoringError::NotRegular));
    }

    #[test]
    fn konig_on_random_regular_bipartite() {
        let mut rng = StdRng::seed_from_u64(5);
        for d in 2..=5 {
            let g = gen::random_bipartite_regular(24, d, &mut rng).unwrap();
            let col = konig(&g).unwrap();
            assert_eq!(col.num_colors(), d, "d = {d}");
            assert!(col.is_proper(&g), "d = {d}");
        }
    }

    #[test]
    fn konig_on_k33() {
        let mut b = GraphBuilder::new(6);
        for u in 0..3 {
            for v in 3..6 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let col = konig(&g).unwrap();
        assert_eq!(col.num_colors(), 3);
        assert!(col.is_proper(&g));
    }

    #[test]
    fn misra_gries_on_complete_graphs() {
        for n in 2..=8 {
            let g = gen::complete(n);
            let col = misra_gries(&g);
            assert!(col.is_proper(&g), "K_{n}");
            assert!(col.num_colors() <= g.max_degree() + 1);
        }
    }

    #[test]
    fn misra_gries_on_odd_cycle() {
        let g = gen::cycle(9);
        let col = misra_gries(&g);
        assert!(col.is_proper(&g));
        assert_eq!(col.num_colors(), 3); // Δ+1 = 3 needed for odd cycles
    }

    #[test]
    fn misra_gries_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..8 {
            let g = gen::gnp(40, 0.15 + 0.08 * f64::from(i), &mut rng);
            let col = misra_gries(&g);
            assert!(col.is_proper(&g), "trial {i}");
        }
    }

    #[test]
    fn misra_gries_on_random_regular() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::random_regular(30, 5, &mut rng).unwrap();
        let col = misra_gries(&g);
        assert!(col.is_proper(&g));
    }

    #[test]
    fn misra_gries_on_trees_uses_delta_colors() {
        // Trees are class 1: Δ colors suffice, and Misra-Gries finds such a
        // coloring on stars trivially.
        let g = gen::star(9);
        let col = misra_gries(&g);
        assert!(col.is_proper(&g));
        let used: std::collections::HashSet<_> = col.as_slice().iter().collect();
        assert_eq!(used.len(), 8); // every edge at the hub needs its own color
    }

    #[test]
    fn violation_detection() {
        let g = gen::path(3); // edges (0,1), (1,2) share vertex 1
        let bad = EdgeColoring::new(vec![0, 0], 2);
        assert!(!bad.is_proper(&g));
        assert_eq!(bad.first_violation(&g), Some((0, 1)));
        let good = EdgeColoring::new(vec![0, 1], 2);
        assert!(good.is_proper(&g));
    }

    #[test]
    #[should_panic(expected = "palette")]
    fn coloring_rejects_out_of_palette() {
        let _ = EdgeColoring::new(vec![3], 2);
    }

    #[test]
    fn empty_graph_colorings() {
        let g = GraphBuilder::new(4).build();
        let col = misra_gries(&g);
        assert_eq!(col.as_slice().len(), 0);
        assert!(col.is_proper(&g));
        let col = konig(&g).unwrap(); // 0-regular bipartite
        assert_eq!(col.num_colors(), 0);
    }
}
