//! A1 — ablation of Theorem 10's schedule constants.
//!
//! The paper's analysis constants (`K = 3·200·e²⁰⁰`, margin `Δ/200`,
//! cap `Δ^0.1`) exist to make Chernoff bounds go through at astronomical Δ;
//! DESIGN.md documents our practical defaults (`K = 3`, margin `Δ/8`, cap
//! `Δ^0.5`). This ablation justifies them: we sweep the growth constant and
//! the palette margin and record how phase-1 length, the bad fraction, and
//! the shattered-component size respond — the defaults sit where phase 1 is
//! `log* Δ`-short *and* the residue stays tiny.

use crate::report::Table;
use crate::shatter::shatter_profile;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::tree::theorem10::theorem10_phase1;
use local_algorithms::tree::{theorem10_color, Theorem10Config};
use local_graphs::gen;
use local_lcl::problems::VertexColoring;
use local_lcl::LclProblem;
use local_model::ExecSpec;
use local_obs::TraceSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Tree size.
    pub n: usize,
    /// Maximum degree Δ.
    pub delta: usize,
    /// Growth constants `K` to ablate.
    pub growth_ks: Vec<f64>,
    /// Palette margins to ablate.
    pub margins: Vec<f64>,
    /// Seeds per point.
    pub seeds: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            n: 1 << 12,
            delta: 16,
            growth_ks: vec![1.0, 3.0, 10.0],
            margins: vec![1.0 / 32.0, 1.0 / 8.0, 1.0 / 3.0],
            seeds: 2,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            n: 1 << 15,
            delta: 32,
            growth_ks: vec![1.0, 3.0, 10.0, 30.0],
            margins: vec![1.0 / 32.0, 1.0 / 8.0, 1.0 / 3.0],
            seeds: 3,
        }
    }
}

/// One ablation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Growth constant `K`.
    pub growth_k: f64,
    /// Palette margin fraction.
    pub margin: f64,
    /// Schedule length `t` (phase-1 iterations).
    pub schedule_len: usize,
    /// Mean fraction of vertices left bad by phase 1.
    pub bad_fraction: f64,
    /// Largest bad component observed (max over seeds).
    pub largest_component: usize,
    /// Mean total rounds of the full pipeline.
    pub total_rounds: f64,
}

/// Run the ablation; every full-pipeline coloring is validated.
///
/// With a trace sink, each trial runs inside an
/// `a1_trial` span (stamped with a globally unique trial number), so the
/// stream records per-trial wall-clock timing.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let mut trace_base = 0u64;
    let mut rows = Vec::new();
    for &growth_k in &cfg.growth_ks {
        for &margin in &cfg.margins {
            let config = Theorem10Config {
                growth_k,
                palette_margin: margin,
                ..Theorem10Config::default()
            };
            let schedule_len = config.schedule(cfg.delta).len();
            let plan = TrialPlan::new(
                cfg.seeds,
                0xA1 ^ (growth_k.to_bits() >> 3) ^ margin.to_bits(),
            );
            let spec = TrialSpec::new()
                .traced(sink.as_deref_mut())
                .trace_base(trace_base);
            trace_base += plan.trials();
            let per_trial: Vec<_> = plan
                .execute(spec, |t, trace| {
                    let _span = trace.map(|tr| tr.span("a1_trial"));
                    let mut rng = StdRng::seed_from_u64(t.seed);
                    let g = gen::random_tree_max_degree(cfg.n, cfg.delta, &mut rng);
                    let status = theorem10_phase1(&g, cfg.delta, t.seed, config, &ExecSpec::new())
                        .strict()
                        .expect("fixed schedule")
                        .outputs;
                    let bad: Vec<bool> = status.iter().map(Option::is_none).collect();
                    let profile = shatter_profile(&g, &bad);
                    let full = theorem10_color(&g, cfg.delta, t.seed, config).expect("completes");
                    VertexColoring::new(cfg.delta)
                        .validate(&g, &full.coloring.labels)
                        .expect("every ablation variant must still be correct");
                    (
                        profile.undecided as f64 / cfg.n as f64,
                        profile.largest(),
                        f64::from(full.coloring.rounds),
                    )
                })
                .into_iter()
                .map(TrialOutcome::into_ok)
                .collect();
            let bad_sum: f64 = per_trial.iter().map(|p| p.0).sum();
            let largest = per_trial.iter().map(|p| p.1).max().unwrap_or(0);
            let rounds_sum: f64 = per_trial.iter().map(|p| p.2).sum();
            rows.push(Row {
                growth_k,
                margin,
                schedule_len,
                bad_fraction: bad_sum / cfg.seeds as f64,
                largest_component: largest,
                total_rounds: rounds_sum / cfg.seeds as f64,
            });
        }
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row], n: usize, delta: usize) -> Table {
    let mut t = Table::new(
        format!("A1: Theorem 10 constants ablation (n = {n}, Δ = {delta})"),
        &[
            "K",
            "margin",
            "t (iters)",
            "bad frac",
            "max comp",
            "total rounds",
        ],
    );
    for r in rows {
        t.push(vec![
            format!("{:.0}", r.growth_k),
            format!("1/{:.0}", 1.0 / r.margin),
            r.schedule_len.to_string(),
            format!("{:.4}", r.bad_fraction),
            r.largest_component.to_string(),
            format!("{:.1}", r.total_rounds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_stays_correct_and_shattered() {
        let rows = run(
            &Config {
                n: 1 << 10,
                delta: 16,
                growth_ks: vec![1.0, 10.0],
                margins: vec![1.0 / 8.0],
                seeds: 1,
            },
            None,
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.bad_fraction < 0.5, "phase 1 must color most vertices");
            assert!(r.largest_component < 256);
        }
        // Larger K ⇒ slower growth ⇒ longer schedule.
        assert!(rows[1].schedule_len >= rows[0].schedule_len);
        assert!(!table(&rows, 1 << 10, 16).is_empty());
    }
}
