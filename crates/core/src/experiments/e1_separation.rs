//! E1 — the headline exponential separation.
//!
//! Deterministic tree Δ-coloring (Theorem 9, `Θ(log_Δ n)` — also a lower
//! bound by Theorem 5) versus the paper's randomized algorithm (Theorem 10,
//! `O(log_Δ log n + log* n)`), swept over `n` for several Δ. The *shape*
//! to reproduce: the deterministic series grows logarithmically in `n` while
//! the randomized series is nearly flat, and the gap widens exponentially.
//!
//! Workload: the **complete (Δ−1)-ary tree** — the instance that realizes
//! the deterministic lower bound (its internal vertices have degree exactly
//! Δ, so the H-partition must peel one leaf layer per round, `ℓ =` tree
//! depth `= Θ(log_Δ n)`). Random attachment trees are *easy* instances
//! (nearly all degrees are below Δ and everything peels at once), which is
//! itself a finding the experiment documents.

use crate::fit::{best_model, GrowthModel};
use crate::report::Table;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::color::be_forest_coloring_detailed;
use local_algorithms::tree::{theorem10_color, Theorem10Config};
use local_graphs::gen;
use local_lcl::problems::VertexColoring;
use local_lcl::LclProblem;
use local_obs::TraceSink;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Maximum degrees to test.
    pub deltas: Vec<usize>,
    /// Tree sizes to sweep.
    pub ns: Vec<usize>,
    /// Independent seeds averaged per point.
    pub seeds: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            deltas: vec![16],
            ns: vec![1 << 8, 1 << 10, 1 << 12, 1 << 14],
            seeds: 2,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    ///
    /// Δ is capped at 32: the deterministic side carries an additive
    /// `β·Δ²` color-reduction term (our simple one-class-per-round
    /// reduction), which at Δ = 55 and n = 2^18 pushes a single run into
    /// hours of simulation. The separation *shape* (log n vs log log n
    /// growth) is what the experiment tests, and it is fully visible at
    /// Δ ≤ 32.
    pub fn full() -> Self {
        Config {
            deltas: vec![9, 16, 32],
            ns: vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16],
            seeds: 2,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Maximum degree Δ.
    pub delta: usize,
    /// Tree size.
    pub n: usize,
    /// Rounds of the deterministic Theorem-9 algorithm.
    pub det_rounds: f64,
    /// The H-partition depth `ℓ` — the `Θ(log_Δ n)` part of the
    /// deterministic bound, isolated from the implementation's `O(Δ²)`
    /// additive color-reduction constant.
    pub det_peel: f64,
    /// Rounds of the randomized Theorem-10 algorithm (mean over seeds).
    pub rand_rounds: f64,
    /// The randomized algorithm's Phase-2 rounds — its
    /// `O(log_Δ log n)`-shaped part.
    pub rand_phase2: f64,
    /// `det / rand` — the separation factor.
    pub ratio: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// All measured points.
    pub rows: Vec<Row>,
    /// Per-Δ best-fit growth model of the deterministic series.
    pub det_fit: Vec<(usize, GrowthModel)>,
    /// Per-Δ best-fit growth model of the randomized series.
    pub rand_fit: Vec<(usize, GrowthModel)>,
}

/// Run the sweep. Every produced coloring is validated before being counted.
///
/// With a trace sink, each randomized trial runs inside
/// an `e1_trial` span (stamped with a globally unique trial number), so the
/// stream records per-trial wall-clock timing.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Outcome {
    let mut trace_base = 0u64;
    let mut rows = Vec::new();
    let mut det_fit = Vec::new();
    let mut rand_fit = Vec::new();
    for &delta in &cfg.deltas {
        let mut det_series = Vec::new();
        let mut rand_series = Vec::new();
        let mut measured_sizes: Vec<usize> = Vec::new();
        for &n in &cfg.ns {
            // The complete tree rounds n up to a full layer; report its
            // actual size, skip sizes already measured (two configured n can
            // round to the same tree), and skip points whose simulation cost
            // (the Δ-only reduction constant × vertices) exceeds a
            // laptop-minutes budget — they add no new shape information.
            let g = gen::complete_dary_tree(n, delta);
            if measured_sizes.contains(&g.n()) || (delta * delta * g.n()) as u64 > 100_000_000 {
                continue;
            }
            measured_sizes.push(g.n());
            let actual_n = g.n();

            // The deterministic side is seed-independent: run it once.
            let ids: Vec<u64> = (0..g.n() as u64).collect();
            let det = be_forest_coloring_detailed(&g, delta, &ids, None, 0);
            VertexColoring::new(delta)
                .validate(&g, &det.coloring.labels)
                .expect("Theorem 9 output must be proper");
            let det_rounds = f64::from(det.coloring.rounds);
            let det_peel = f64::from(det.peel_rounds);

            let plan = TrialPlan::new(cfg.seeds, 0xE1 ^ ((delta as u64) << 32) ^ (n as u64));
            let spec = TrialSpec::new()
                .traced(sink.as_deref_mut())
                .trace_base(trace_base);
            trace_base += plan.trials();
            let per_trial: Vec<(f64, f64)> = plan
                .execute(spec, |t, trace| {
                    let _span = trace.map(|tr| tr.span("e1_trial"));
                    let rand = theorem10_color(&g, delta, t.seed, Theorem10Config::default())
                        .expect("engine should not hit round limits");
                    VertexColoring::new(delta)
                        .validate(&g, &rand.coloring.labels)
                        .expect("Theorem 10 output must be proper");
                    (
                        f64::from(rand.coloring.rounds),
                        f64::from(rand.phase2_rounds),
                    )
                })
                .into_iter()
                .map(TrialOutcome::into_ok)
                .collect();
            let k = cfg.seeds as f64;
            let rand_rounds = per_trial.iter().map(|p| p.0).sum::<f64>() / k;
            let rand_phase2 = per_trial.iter().map(|p| p.1).sum::<f64>() / k;
            // Fit the n-dependent parts: the peel depth (det) and the full
            // randomized round count (its other phases are Δ-only).
            det_series.push((actual_n as f64, det_peel));
            rand_series.push((actual_n as f64, rand_rounds));
            rows.push(Row {
                delta,
                n: actual_n,
                det_rounds,
                det_peel,
                rand_rounds,
                rand_phase2,
                ratio: det_rounds / rand_rounds.max(1.0),
            });
        }
        if det_series.len() >= 2 {
            det_fit.push((delta, best_model(&det_series).model));
            rand_fit.push((delta, best_model(&rand_series).model));
        }
    }
    Outcome {
        rows,
        det_fit,
        rand_fit,
    }
}

/// Render the outcome as the EXPERIMENTS.md table.
pub fn table(out: &Outcome) -> Table {
    let mut t = Table::new(
        "E1: tree Δ-coloring — DetLOCAL (Thm 9) vs RandLOCAL (Thm 10) rounds",
        &[
            "Δ",
            "n",
            "det total",
            "det peel ℓ",
            "rand total",
            "rand ph2",
            "det/rand",
        ],
    );
    for r in &out.rows {
        t.push(vec![
            r.delta.to_string(),
            r.n.to_string(),
            format!("{:.1}", r.det_rounds),
            format!("{:.1}", r.det_peel),
            format!("{:.1}", r.rand_rounds),
            format!("{:.1}", r.rand_phase2),
            format!("{:.2}", r.ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_separation_shape() {
        let cfg = Config {
            deltas: vec![9],
            ns: vec![1 << 8, 1 << 16],
            seeds: 1,
        };
        let out = run(&cfg, None);
        assert_eq!(out.rows.len(), 2);
        let small = &out.rows[0];
        let large = &out.rows[1];
        // Deterministic rounds grow with n; randomized barely move.
        assert!(large.det_rounds > small.det_rounds);
        // The peel depth grows with log n; the randomized phase 2 barely.
        assert!(large.det_peel > small.det_peel);
        let t = table(&out);
        assert_eq!(t.len(), 2);
    }
}
