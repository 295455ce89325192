//! E5 — failure decay under truncation (the round-elimination picture).
//!
//! Theorem 4 says sinkless orientation needs `Ω(min(log_Δ log(1/p), log_Δ n))`
//! rounds to reach failure probability `p`. Running the repair algorithm
//! with an increasing phase budget traces the other side of that curve: the
//! measured sink probability per vertex drops steeply with rounds, and the
//! rounds needed to first reach zero sinks grow (slowly) with `n`.

use crate::report::Table;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::orientation::sinkless_orientation;
use local_graphs::gen;
use local_obs::TraceSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Degree (≥ 3; the problem is trivial for Δ ≤ 2... and the lower bound
    /// is for Δ-regular graphs).
    pub delta: usize,
    /// Graph sizes (vertices of the plain random Δ-regular instances; the
    /// bipartite family is only needed where an input edge coloring is —
    /// sinkless *orientation* runs on any regular graph).
    pub ns: Vec<usize>,
    /// Phase budgets to test.
    pub phases: Vec<u32>,
    /// Seeds per point.
    pub seeds: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            delta: 3,
            ns: vec![128, 512],
            phases: vec![0, 1, 2, 4, 8],
            seeds: 20,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            delta: 3,
            ns: vec![128, 512, 2048, 8192],
            phases: vec![0, 1, 2, 4, 8, 16, 32],
            seeds: 50,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Graph size.
    pub n: usize,
    /// Phase budget (rounds = 2 + 2·phases).
    pub phases: u32,
    /// Mean per-vertex sink probability.
    pub sink_probability: f64,
    /// Fraction of runs ending with at least one sink.
    pub run_failure_rate: f64,
}

/// Run the sweep.
///
/// With a trace sink, each trial runs inside an
/// `e5_trial` span (stamped with a globally unique trial number), so the
/// stream records per-trial wall-clock timing.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let mut trace_base = 0u64;
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let mut rng = StdRng::seed_from_u64(0xE5 ^ (n as u64) << 4);
        let g = gen::random_regular(n, cfg.delta, &mut rng).expect("feasible parameters");
        for &phases in &cfg.phases {
            let plan = TrialPlan::new(cfg.seeds, 0xE5 ^ ((n as u64) << 8) ^ u64::from(phases));
            let spec = TrialSpec::new()
                .traced(sink.as_deref_mut())
                .trace_base(trace_base);
            trace_base += plan.trials();
            let per_trial: Vec<_> = plan
                .execute(spec, |t, trace| {
                    let _span = trace.map(|tr| tr.span("e5_trial"));
                    let out = sinkless_orientation(&g, t.seed, phases).expect("fixed schedule");
                    out.sinks as u64
                })
                .into_iter()
                .map(TrialOutcome::into_ok)
                .collect();
            let sinks_total: u64 = per_trial.iter().sum();
            let failed: u64 = per_trial.iter().filter(|&&s| s > 0).count() as u64;
            rows.push(Row {
                n,
                phases,
                sink_probability: sinks_total as f64 / (cfg.seeds as f64 * n as f64),
                run_failure_rate: failed as f64 / cfg.seeds as f64,
            });
        }
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row], delta: usize) -> Table {
    let mut t = Table::new(
        format!("E5: sinkless orientation (Δ = {delta}) — sink probability vs round budget"),
        &["n", "phases", "P[vertex is sink]", "P[run has a sink]"],
    );
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            r.phases.to_string(),
            format!("{:.5}", r.sink_probability),
            format!("{:.3}", r.run_failure_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_decays_with_budget() {
        let rows = run(
            &Config {
                delta: 3,
                ns: vec![256],
                phases: vec![0, 8],
                seeds: 15,
            },
            None,
        );
        assert_eq!(rows.len(), 2);
        let p0 = rows[0].sink_probability;
        let p8 = rows[1].sink_probability;
        assert!(p0 > 0.05, "random orientation leaves ~2^-Δ sinks: {p0}");
        assert!(
            p8 < p0 / 3.0,
            "8 phases must cut failure sharply: {p0} -> {p8}"
        );
        assert_eq!(table(&rows, 3).len(), 2);
    }
}
