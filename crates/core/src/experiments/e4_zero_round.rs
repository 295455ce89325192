//! E4 — the base case of Theorem 4.
//!
//! On a Δ-regular, Δ-edge-colored graph, any 0-round RandLOCAL sinkless-
//! coloring algorithm is a fixed distribution over the Δ colors; its worst
//! edge fails with probability ≥ 1/Δ². We compare the exact minimax value
//! with Monte-Carlo estimates from actually running the uniform strategy in
//! the engine, per Δ.

use crate::report::Table;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::orientation::zero_round::{
    best_zero_round_failure, zero_round_sinkless_coloring,
};
use local_graphs::edge_coloring::konig;
use local_graphs::gen;
use local_obs::TraceSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Degrees to test.
    pub deltas: Vec<usize>,
    /// Vertices per side of the bipartite instance.
    pub n_side: usize,
    /// Monte-Carlo trials.
    pub trials: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            deltas: vec![3, 4, 5],
            n_side: 24,
            trials: 400,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            deltas: vec![3, 4, 5, 6, 8],
            n_side: 64,
            trials: 2000,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Degree Δ.
    pub delta: usize,
    /// Exact minimax per-edge failure probability `1/Δ²`.
    pub exact: f64,
    /// Monte-Carlo per-edge failure estimate of the uniform strategy.
    pub empirical: f64,
    /// Fraction of whole runs containing at least one forbidden edge.
    pub run_failure_rate: f64,
}

/// Run the sweep.
///
/// With a trace sink, each trial runs inside an
/// `e4_trial` span (stamped with a globally unique trial number), so the
/// stream records per-trial wall-clock timing.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let mut trace_base = 0u64;
    let mut rows = Vec::new();
    for &delta in &cfg.deltas {
        let mut rng = StdRng::seed_from_u64(0xE4 ^ (delta as u64) << 8);
        let g = gen::random_bipartite_regular(cfg.n_side, delta, &mut rng)
            .expect("feasible bipartite regular parameters");
        let psi = konig(&g).expect("regular bipartite graphs are Δ-edge-colorable");
        let plan = TrialPlan::new(cfg.trials, 0xE4 ^ ((delta as u64) << 8));
        let spec = TrialSpec::new()
            .traced(sink.as_deref_mut())
            .trace_base(trace_base);
        trace_base += plan.trials();
        let per_trial: Vec<_> = plan
            .execute(spec, |t, trace| {
                let _span = trace.map(|tr| tr.span("e4_trial"));
                let labels = zero_round_sinkless_coloring(&g, &psi, delta, t.seed)
                    .expect("0-round protocol cannot time out");
                let mut forbidden = 0u64;
                for (e, &(u, v)) in g.edges().iter().enumerate() {
                    if labels.get(u) == labels.get(v) && *labels.get(u) == psi.color(e) {
                        forbidden += 1;
                    }
                }
                forbidden
            })
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        let forbidden_edges: u64 = per_trial.iter().sum();
        let failed_runs: u64 = per_trial.iter().filter(|&&f| f > 0).count() as u64;
        rows.push(Row {
            delta,
            exact: best_zero_round_failure(delta),
            empirical: forbidden_edges as f64 / (cfg.trials as f64 * g.m() as f64),
            run_failure_rate: failed_runs as f64 / cfg.trials as f64,
        });
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E4: zero-round sinkless coloring — per-edge failure, exact 1/Δ² vs measured",
        &["Δ", "exact 1/Δ²", "measured", "runs w/ failure"],
    );
    for r in rows {
        t.push(vec![
            r.delta.to_string(),
            format!("{:.5}", r.exact),
            format!("{:.5}", r.empirical),
            format!("{:.3}", r.run_failure_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_matches_exact_within_tolerance() {
        let rows = run(
            &Config {
                deltas: vec![3, 4],
                n_side: 18,
                trials: 400,
            },
            None,
        );
        for r in &rows {
            assert!(
                (r.empirical - r.exact).abs() < r.exact * 0.6,
                "Δ={}: measured {} vs exact {}",
                r.delta,
                r.empirical,
                r.exact
            );
            // With m = Θ(n·Δ) edges each failing at rate 1/Δ², almost every
            // run fails — the lower bound in action.
            assert!(r.run_failure_rate > 0.3, "Δ={}", r.delta);
        }
        assert_eq!(table(&rows).len(), 2);
    }
}
