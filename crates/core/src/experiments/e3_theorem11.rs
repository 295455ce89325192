//! E3 — Theorem 11's constant-Δ algorithm.
//!
//! Round profile per phase and the size of the shattered set `S` (whose
//! components the paper proves are `O(log n)` w.h.p. for Δ ≥ 55). The shape
//! to reproduce: setup + phase-1 rounds depend on Δ only; phase-2 rounds
//! (Theorem 9 on `S`) grow like `log log n`; total ≪ the deterministic
//! `Θ(log_Δ n)`.

use crate::report::Table;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::tree::theorem11_color;
use local_graphs::gen;
use local_lcl::problems::VertexColoring;
use local_lcl::LclProblem;
use local_obs::TraceSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Maximum degree Δ (paper: ≥ 55; any Δ ≥ 9 runs).
    pub delta: usize,
    /// Tree sizes.
    pub ns: Vec<usize>,
    /// Seeds per point.
    pub seeds: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            delta: 12,
            ns: vec![1 << 9, 1 << 11, 1 << 13],
            seeds: 2,
        }
    }

    /// The full sweep (uses the paper's Δ = 55 regime; sizes capped because
    /// the one-time base-coloring reduction costs `β·Δ²` ≈ 13k rounds at
    /// Δ = 55, which the engine simulates faithfully — large n would take
    /// hours without changing the measured shape).
    pub fn full() -> Self {
        Config {
            delta: 55,
            ns: vec![1 << 9, 1 << 10, 1 << 11, 1 << 12],
            seeds: 2,
        }
    }
}

/// One measured point (means over seeds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Tree size.
    pub n: usize,
    /// Setup rounds (base coloring).
    pub setup: f64,
    /// Phase-1 rounds (MIS peeling).
    pub phase1: f64,
    /// Phase-2 rounds (3-coloring `S`).
    pub phase2: f64,
    /// Phase-3 rounds (completion).
    pub phase3: f64,
    /// `|S|` (max over seeds).
    pub s_size: usize,
    /// Largest `S`-component (max over seeds).
    pub s_largest: usize,
}

/// Run the sweep; every coloring is validated.
///
/// With a trace sink, each trial runs inside an
/// `e3_trial` span (stamped with a globally unique trial number), so the
/// stream records per-trial wall-clock timing.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let mut trace_base = 0u64;
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let plan = TrialPlan::new(cfg.seeds, 0xE3 ^ ((n as u64) << 24));
        let spec = TrialSpec::new()
            .traced(sink.as_deref_mut())
            .trace_base(trace_base);
        trace_base += plan.trials();
        let per_trial: Vec<_> = plan
            .execute(spec, |t, trace| {
                let _span = trace.map(|tr| tr.span("e3_trial"));
                let mut rng = StdRng::seed_from_u64(t.seed);
                let g = gen::random_tree_max_degree(n, cfg.delta, &mut rng);
                let out = theorem11_color(&g, cfg.delta, t.seed).expect("fixed schedules");
                VertexColoring::new(cfg.delta)
                    .validate(&g, &out.coloring.labels)
                    .expect("Theorem 11 output must be proper");
                (
                    f64::from(out.setup_rounds),
                    f64::from(out.phase1_rounds),
                    f64::from(out.phase2_rounds),
                    f64::from(out.phase3_rounds),
                    out.stats.bad_vertices,
                    out.stats.largest_bad_component,
                )
            })
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        let su: f64 = per_trial.iter().map(|p| p.0).sum();
        let p1: f64 = per_trial.iter().map(|p| p.1).sum();
        let p2: f64 = per_trial.iter().map(|p| p.2).sum();
        let p3: f64 = per_trial.iter().map(|p| p.3).sum();
        let s_size = per_trial.iter().map(|p| p.4).max().unwrap_or(0);
        let s_largest = per_trial.iter().map(|p| p.5).max().unwrap_or(0);
        let k = cfg.seeds as f64;
        rows.push(Row {
            n,
            setup: su / k,
            phase1: p1 / k,
            phase2: p2 / k,
            phase3: p3 / k,
            s_size,
            s_largest,
        });
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row], delta: usize) -> Table {
    let mut t = Table::new(
        format!("E3: Theorem 11 (Δ = {delta}) — per-phase rounds and shattered set S"),
        &[
            "n",
            "setup",
            "phase1",
            "phase2",
            "phase3",
            "|S|",
            "max S comp",
        ],
    );
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            format!("{:.1}", r.setup),
            format!("{:.1}", r.phase1),
            format!("{:.1}", r.phase2),
            format!("{:.1}", r.phase3),
            r.s_size.to_string(),
            r.s_largest.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_has_n_independent_phase1() {
        let cfg = Config {
            delta: 10,
            ns: vec![256, 1024],
            seeds: 1,
        };
        let rows = run(&cfg, None);
        assert_eq!(rows.len(), 2);
        // Setup and phase 1 depend on Δ (and log* n): near-identical across n.
        assert!((rows[0].phase1 - rows[1].phase1).abs() <= rows[0].phase1 * 0.5 + 8.0);
        // S components stay tiny.
        for r in &rows {
            assert!(r.s_largest <= 64, "S component {} too large", r.s_largest);
        }
        assert_eq!(table(&rows, 10).len(), 2);
    }
}
