//! E9 — the MIS landscape from the paper's introduction.
//!
//! Luby's RandLOCAL MIS (`Θ(log n)`), the deterministic color-class MIS
//! (`O(Δ² + log* n)` — flat in `n`), and the Ghaffari-style shattering MIS
//! (`O(log Δ)` pre-shattering + deterministic finish on `poly log`-size
//! components). The shape to reproduce: for fixed Δ, Luby grows with
//! `log n` while the other two stay flat; and the shattering algorithm's
//! *undecided residue* stays polylogarithmic.

use crate::fit::{best_model, GrowthModel};
use crate::report::Table;
use crate::shatter::shatter_profile;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::mis::ghaffari::{ghaffari_preshatter, GhaffariConfig};
use local_algorithms::mis::{det_mis, ghaffari_mis, luby_mis};
use local_graphs::gen;
use local_lcl::problems::Mis;
use local_lcl::{Labeling, LclProblem};
use local_model::IdAssignment;
use local_obs::TraceSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Degree of the random regular workload.
    pub delta: usize,
    /// Graph sizes.
    pub ns: Vec<usize>,
    /// Seeds per randomized point.
    pub seeds: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            delta: 4,
            ns: vec![1 << 8, 1 << 10, 1 << 12],
            seeds: 2,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            delta: 4,
            ns: vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16],
            seeds: 3,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Graph size.
    pub n: usize,
    /// Luby rounds (mean).
    pub luby: f64,
    /// Deterministic color-class MIS rounds.
    pub det: f64,
    /// Ghaffari-with-shattering rounds (mean).
    pub ghaffari: f64,
    /// Largest undecided component after pre-shattering (max over seeds).
    pub residue_largest: usize,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured points.
    pub rows: Vec<Row>,
    /// Best-fit growth of the Luby series.
    pub luby_fit: GrowthModel,
    /// Best-fit growth of the deterministic series.
    pub det_fit: GrowthModel,
}

/// Run the sweep; every MIS is validated.
///
/// With a trace sink, each trial runs inside an
/// `e9_trial` span (stamped with a globally unique trial number), so the
/// stream records per-trial wall-clock timing.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Outcome {
    let mut trace_base = 0u64;
    let mut rows = Vec::new();
    let mut luby_series = Vec::new();
    let mut det_series = Vec::new();
    for &n in &cfg.ns {
        let mut rng = StdRng::seed_from_u64(0xE9 ^ (n as u64) << 5);
        let g = gen::random_regular(n, cfg.delta, &mut rng).expect("feasible parameters");
        let assert_mis = |in_set: &[bool]| {
            let labels: Labeling<bool> = in_set.to_vec().into();
            Mis::new()
                .validate(&g, &labels)
                .expect("valid MIS required");
        };

        let plan = TrialPlan::new(cfg.seeds, 0xE9 ^ (n as u64));
        let spec = TrialSpec::new()
            .traced(sink.as_deref_mut())
            .trace_base(trace_base);
        trace_base += plan.trials();
        let per_trial: Vec<_> = plan
            .execute(spec, |t, trace| {
                let _span = trace.map(|tr| tr.span("e9_trial"));
                let l = luby_mis(&g, t.seed, 10_000).expect("Luby finishes whp");
                assert_mis(&l.in_set);

                let gh = ghaffari_mis(&g, t.seed, GhaffariConfig::default()).expect("finishes");
                assert_mis(&gh.in_set);

                let pre = ghaffari_preshatter(&g, t.seed, GhaffariConfig::default())
                    .expect("fixed budget");
                let undecided: Vec<bool> = pre.status.iter().map(Option::is_none).collect();
                let residue = shatter_profile(&g, &undecided).largest();
                (f64::from(l.rounds), f64::from(gh.rounds), residue)
            })
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        let luby_sum: f64 = per_trial.iter().map(|p| p.0).sum();
        let ghaffari_sum: f64 = per_trial.iter().map(|p| p.1).sum();
        let residue = per_trial.iter().map(|p| p.2).max().unwrap_or(0);

        let det = det_mis(&g, &IdAssignment::Shuffled { seed: 11 });
        assert_mis(&det.in_set);

        let luby = luby_sum / cfg.seeds as f64;
        let ghaffari = ghaffari_sum / cfg.seeds as f64;
        luby_series.push((n as f64, luby));
        det_series.push((n as f64, f64::from(det.rounds)));
        rows.push(Row {
            n,
            luby,
            det: f64::from(det.rounds),
            ghaffari,
            residue_largest: residue,
        });
    }
    Outcome {
        luby_fit: best_model(&luby_series).model,
        det_fit: best_model(&det_series).model,
        rows,
    }
}

/// Render the EXPERIMENTS.md table.
pub fn table(out: &Outcome, delta: usize) -> Table {
    let mut t = Table::new(
        format!("E9: MIS on random {delta}-regular graphs — Luby vs deterministic vs shattering"),
        &["n", "Luby", "Det (Δ²+log*)", "Ghaffari", "residue comp"],
    );
    for r in &out.rows {
        t.push(vec![
            r.n.to_string(),
            format!("{:.1}", r.luby),
            format!("{:.1}", r.det),
            format!("{:.1}", r.ghaffari),
            r.residue_largest.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_is_flat_and_luby_grows() {
        let out = run(
            &Config {
                delta: 4,
                ns: vec![1 << 8, 1 << 12],
                seeds: 1,
            },
            None,
        );
        assert_eq!(out.rows.len(), 2);
        let (small, large) = (&out.rows[0], &out.rows[1]);
        // 16x the vertices: deterministic rounds move by at most a couple
        // (log* + fixed palette), Luby's tend upward.
        assert!(
            large.det - small.det <= 4.0,
            "{} -> {}",
            small.det,
            large.det
        );
        assert!(large.residue_largest <= 128);
        assert!(!table(&out, 4).is_empty());
    }
}
