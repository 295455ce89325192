//! Deterministic maximal matching via edge-color classes:
//! `O(Δ + log* n)`-type rounds (with our `O(Δ²)` edge-coloring constant).
//!
//! Given a proper `(2Δ−1)`-edge-coloring, process color classes one round at
//! a time: each class is a matching, so all its edges whose endpoints are
//! both still free enter simultaneously without conflicts. After all classes
//! pass, the matching is maximal (any free–free edge's class would have
//! admitted it). This is the classical alternative to the line-graph MIS
//! reduction and, per the Elkin–Pettie–Su observation the paper cites,
//! shows why `(2Δ−1)`-edge-coloring upper-bounds maximal matching.

use crate::color::edge_distributed::edge_color_distributed;
use crate::matching::MatchingOutcome;
use crate::sync::{run_sync, SyncAlgorithm, SyncCtx, SyncStep};
use local_graphs::{Graph, PortId};
use local_model::{ExecSpec, Mode, NodeInit};

/// The class sweep over an edge coloring. The per-vertex inputs (incident
/// edge colors by port) travel in the state — legitimate local input, since
/// [`SyncAlgorithm::update`] deliberately has no vertex identity.
#[derive(Debug, Clone)]
pub struct EdgeClassSweep {
    port_colors: Vec<Vec<usize>>,
    palette: usize,
}

impl EdgeClassSweep {
    /// Build from a per-edge coloring with `palette` classes.
    ///
    /// # Panics
    ///
    /// Panics if `edge_colors.len() != g.m()`.
    pub fn new(g: &Graph, edge_colors: &[usize], palette: usize) -> Self {
        assert_eq!(edge_colors.len(), g.m(), "one color per edge");
        EdgeClassSweep {
            port_colors: g
                .vertices()
                .map(|v| {
                    g.neighbors(v)
                        .iter()
                        .map(|nb| edge_colors[nb.edge()])
                        .collect()
                })
                .collect(),
            palette,
        }
    }
}

/// Public state: this vertex's incident edge colors and its match, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcFullState {
    colors: Vec<usize>,
    matched: Option<PortId>,
}

impl SyncAlgorithm for EdgeClassSweep {
    type State = EcFullState;
    type Output = Option<PortId>;

    fn init(&self, init: &NodeInit<'_>) -> EcFullState {
        EcFullState {
            colors: self.port_colors[init.node].clone(),
            matched: None,
        }
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &EcFullState,
        neighbors: &[EcFullState],
    ) -> SyncStep<EcFullState, Option<PortId>> {
        if let Some(p) = state.matched {
            return SyncStep::Decide(state.clone(), Some(p));
        }
        let class = (round - 1) as usize;
        if class >= self.palette {
            return SyncStep::Decide(state.clone(), None);
        }
        let candidate =
            (0..ctx.degree()).find(|&p| state.colors[p] == class && neighbors[p].matched.is_none());
        match candidate {
            Some(p) => {
                let next = EcFullState {
                    colors: state.colors.clone(),
                    matched: Some(p),
                };
                SyncStep::Decide(next, Some(p))
            }
            None => SyncStep::Continue(state.clone()),
        }
    }
}

/// Deterministic maximal matching: distributed `(2Δ−1)`-edge-coloring, then
/// one class per round.
///
/// # Panics
///
/// Panics if the graph has no edges — match nothing yourself in that case.
pub fn matching_by_edge_color(g: &Graph, seed: u64) -> MatchingOutcome {
    assert!(g.m() > 0, "no edges to match");
    let coloring = edge_color_distributed(g, seed);
    let algo = EdgeClassSweep::new(g, &coloring.colors, coloring.palette);
    let out = run_sync(
        g,
        Mode::deterministic(),
        &algo,
        &ExecSpec::rounds(coloring.palette as u32 + 2),
    )
    .strict()
    .expect("sweep halts after palette rounds");
    let mut matched_edges = vec![false; g.m()];
    for v in g.vertices() {
        if let Some(p) = out.outputs[v] {
            matched_edges[g.neighbor(v, p).edge()] = true;
        }
    }
    MatchingOutcome {
        matched_edges,
        rounds: coloring.rounds + out.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_lcl::problems::MaximalMatching;
    use local_lcl::LclProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_valid(g: &Graph, matched: &[bool]) {
        let labels = MaximalMatching::labels_from_edges(g, matched);
        MaximalMatching::new()
            .validate(g, &labels)
            .unwrap_or_else(|v| panic!("invalid matching: {v}"));
    }

    #[test]
    fn valid_on_paths_cycles_stars() {
        for g in [gen::path(17), gen::cycle(12), gen::star(9)] {
            let out = matching_by_edge_color(&g, 1);
            assert_valid(&g, &out.matched_edges);
        }
    }

    #[test]
    fn valid_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(60);
        for trial in 0..4 {
            let g = gen::gnp(45, 0.12, &mut rng);
            if g.m() == 0 {
                continue;
            }
            let out = matching_by_edge_color(&g, trial);
            assert_valid(&g, &out.matched_edges);
        }
    }

    #[test]
    fn valid_on_regular_graphs() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = gen::random_regular(40, 5, &mut rng).unwrap();
        let out = matching_by_edge_color(&g, 3);
        assert_valid(&g, &out.matched_edges);
    }

    #[test]
    fn matches_agree_between_endpoints() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = gen::gnp(30, 0.2, &mut rng);
        let out = matching_by_edge_color(&g, 5);
        // Each matched edge seen exactly once per endpoint: labels validate,
        // and the count of matched ports equals 2 × matched edges.
        let labels = MaximalMatching::labels_from_edges(&g, &out.matched_edges);
        let ports = labels.as_slice().iter().flatten().count();
        let edges = out.matched_edges.iter().filter(|&&m| m).count();
        assert_eq!(ports, 2 * edges);
    }

    #[test]
    fn rounds_flat_in_n() {
        let small = matching_by_edge_color(&gen::cycle(32), 7).rounds;
        let large = matching_by_edge_color(&gen::cycle(2048), 7).rounds;
        assert!(large <= small + 6, "{small} vs {large}");
    }
}
