//! E10 — the indistinguishability principle, counted.
//!
//! Linial's lower bound (quoted in the paper's introduction) starts from:
//! *in `o(log_Δ n)` rounds, a vertex cannot distinguish a tree from a graph
//! of girth `Ω(log_Δ n)`*. We make that quantitative: for radius `t` we
//! count the distinct radius-`t` views among (a) anonymous vertices of a
//! high-girth Δ-regular graph and (b) interior vertices of the complete
//! (Δ−1)-ary tree, and check that below half the girth the regular graph
//! has exactly **one** view — and that it *equals* the tree-interior view.
//! The moment `t` crosses `(girth−1)/2`, cycles become visible and the view
//! count explodes.

use crate::report::Table;
use local_graphs::{analysis, gen, Graph};
use local_model::ball;
use local_obs::{Trace, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Degree Δ (also the tree arity + 1).
    pub delta: usize,
    /// Vertices per side of the bipartite high-girth instance.
    pub n_side: usize,
    /// Girth to enforce.
    pub min_girth: usize,
    /// Radii to probe.
    pub radii: Vec<usize>,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            delta: 3,
            n_side: 100,
            min_girth: 6,
            radii: vec![0, 1, 2, 3, 4],
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            delta: 3,
            n_side: 250,
            min_girth: 8,
            radii: vec![0, 1, 2, 3, 4, 5],
        }
    }
}

/// One measured radius.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Radius `t`.
    pub t: usize,
    /// Whether `t < (girth−1)/2` (the indistinguishability horizon).
    pub below_horizon: bool,
    /// Distinct anonymous views in the high-girth graph.
    pub graph_views: usize,
    /// Whether the (unique sub-horizon) graph view equals the tree-interior
    /// view.
    pub matches_tree: bool,
}

/// Generate the instance and run the sweep.
///
/// # Panics
///
/// Panics if the generator cannot achieve the requested girth.
///
/// With a trace sink, each radius is measured inside an
/// `e10_radius` span on trace trial 0, so the stream records per-radius
/// wall-clock timing.
pub fn run(cfg: &Config, sink: Option<&mut dyn TraceSink>) -> (Vec<Row>, usize) {
    let trace = sink.as_ref().map(|_| Trace::new(0));
    let mut rng = StdRng::seed_from_u64(0xE10);
    let g = gen::high_girth_regular(cfg.n_side, cfg.delta, cfg.min_girth, &mut rng)
        .expect("girth achievable at this scale");
    let girth = analysis::girth(&g).expect("regular graphs have cycles");
    let tree = gen::complete_dary_tree(
        cfg.delta * (cfg.delta - 1).pow(*cfg.radii.iter().max().unwrap_or(&4) as u32 + 1),
        cfg.delta,
    );
    let rows = cfg
        .radii
        .iter()
        .map(|&t| {
            let _span = trace.as_ref().map(|tr| tr.span("e10_radius"));
            // Views up to port renumbering (the equivalence lower bounds
            // use); balls that wrap a cycle fall back to the exact ordered
            // encoding, which only inflates the beyond-horizon counts.
            let views: HashSet<_> = g
                .vertices()
                .map(|v| {
                    ball::encode_unordered(&g, v, t, None)
                        .unwrap_or_else(|| ball::encode(&g, v, t, None, None))
                })
                .collect();
            let tree_view = interior_view(&tree, t);
            let matches_tree = tree_view
                .map(|tv| views.len() == 1 && views.contains(&tv))
                .unwrap_or(false);
            Row {
                t,
                below_horizon: 2 * t + 1 < girth,
                graph_views: views.len(),
                matches_tree,
            }
        })
        .collect();
    if let (Some(sink), Some(trace)) = (sink, trace) {
        for event in trace.into_events() {
            sink.record(&event);
        }
        sink.flush();
    }
    (rows, girth)
}

/// The view of a tree vertex whose `t`-ball contains no leaves, if any.
fn interior_view(tree: &Graph, t: usize) -> Option<ball::BallEncoding> {
    let delta = tree.max_degree();
    tree.vertices()
        .find(|&v| {
            let dist = analysis::bfs_distances(tree, v);
            tree.vertices()
                .filter(|&u| dist[u] <= t)
                .all(|u| tree.degree(u) == delta)
        })
        .and_then(|v| ball::encode_unordered(tree, v, t, None))
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row], delta: usize, girth: usize) -> Table {
    let mut t = Table::new(
        format!(
            "E10: indistinguishability (Δ = {delta}, girth = {girth}) — distinct radius-t views"
        ),
        &["t", "t < (g−1)/2", "distinct views", "equals tree interior"],
    );
    for r in rows {
        t.push(vec![
            r.t.to_string(),
            r.below_horizon.to_string(),
            r.graph_views.to_string(),
            r.matches_tree.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_view_below_horizon_then_explosion() {
        let (rows, girth) = run(
            &Config {
                delta: 3,
                n_side: 80,
                min_girth: 6,
                radii: vec![0, 1, 2, 4],
            },
            None,
        );
        assert!(girth >= 6);
        for r in &rows {
            if r.below_horizon {
                assert_eq!(
                    r.graph_views, 1,
                    "t = {}: below the horizon all views coincide",
                    r.t
                );
                assert!(r.matches_tree, "t = {}: and equal the tree interior", r.t);
            }
        }
        // At t = 4 (≥ girth/2) cycles are visible to someone: many views.
        let beyond = rows
            .iter()
            .find(|r| !r.below_horizon)
            .expect("t=4 is beyond");
        assert!(beyond.graph_views > 1);
        assert!(!table(&rows, 3, girth).is_empty());
    }
}
