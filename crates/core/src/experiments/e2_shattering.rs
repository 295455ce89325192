//! E2 — the shattering lemma of Theorem 10's analysis.
//!
//! After Phase 1 (ColorBidding + Filtering), the paper proves that w.h.p.
//! every connected component of *bad* vertices has size ≤ Δ⁴·log n. We run
//! Phase 1 alone over an `n` sweep on complete (Δ−1)-ary trees — the
//! all-internal-degrees-equal-Δ family where filtering actually fires —
//! and record the measured component profile next to the bound.

use crate::report::Table;
use crate::shatter::shatter_profile;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_algorithms::tree::theorem10::theorem10_phase1;
use local_algorithms::tree::Theorem10Config;
use local_graphs::gen;
use local_model::ExecSpec;
use local_obs::{EventData, Obs, PowHistogram, TraceSink};
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Maximum degree Δ.
    pub delta: usize,
    /// Tree sizes.
    pub ns: Vec<usize>,
    /// Seeds per point (the max over seeds is reported — shattering is a
    /// w.h.p. statement).
    pub seeds: u64,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            delta: 16,
            ns: vec![1 << 10, 1 << 12, 1 << 14],
            seeds: 3,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            delta: 16,
            ns: vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18],
            seeds: 5,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Tree size.
    pub n: usize,
    /// Bad vertices after Phase 1 (max over seeds).
    pub bad_max: usize,
    /// Largest bad component (max over seeds).
    pub largest_component: usize,
    /// The analysis bound `Δ⁴·log₂ n`.
    pub bound: f64,
    /// Whether every seed stayed within the bound.
    pub within_bound: bool,
}

/// Run the sweep.
///
/// With a trace sink, every trial's Phase-1 engine run
/// emits per-round events (live vertices, message volume), and each trial
/// additionally records a `shattered_component_size` histogram of the bad
/// components it produced. Trials are stamped with a global sequence number
/// `point · seeds + seed` so the combined stream stays unambiguous across
/// sweep points.
pub fn run(cfg: &Config, mut sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let mut rows = Vec::new();
    for (point, &n) in cfg.ns.iter().enumerate() {
        // The hard family (matching E1): complete (Δ−1)-ary trees, whose
        // internal vertices all have degree exactly Δ.
        let g = gen::complete_dary_tree(n, cfg.delta);
        let plan = TrialPlan::new(cfg.seeds, 0xE2 ^ (n as u64));
        let base = point as u64 * cfg.seeds;
        let spec = TrialSpec::new()
            .traced(sink.as_deref_mut())
            .trace_base(base);
        let per_trial: Vec<_> = plan
            .execute(spec, |t, trace| {
                let obs = Obs::traced(trace);
                let status = theorem10_phase1(
                    &g,
                    cfg.delta,
                    t.seed,
                    Theorem10Config::default(),
                    &ExecSpec::new().with_obs(obs),
                )
                .strict()
                .expect("phase 1 has a fixed schedule")
                .outputs;
                let bad: Vec<bool> = status.iter().map(Option::is_none).collect();
                let profile = shatter_profile(&g, &bad);
                obs.emit(|| {
                    let mut hist = PowHistogram::new();
                    for &size in &profile.component_sizes {
                        hist.record(size as u64);
                    }
                    EventData::Histogram {
                        name: "shattered_component_size".to_string(),
                        hist: Box::new(hist),
                    }
                });
                (profile.undecided, profile.largest())
            })
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        let bad_max = per_trial.iter().map(|p| p.0).max().unwrap_or(0);
        let largest = per_trial.iter().map(|p| p.1).max().unwrap_or(0);
        let bound = (cfg.delta as f64).powi(4) * (g.n() as f64).log2();
        rows.push(Row {
            n: g.n(),
            bad_max,
            largest_component: largest,
            bound,
            within_bound: (largest as f64) <= bound,
        });
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row], delta: usize) -> Table {
    let mut t = Table::new(
        format!("E2: Theorem 10 shattering (Δ = {delta}) — bad components vs the Δ⁴·log n bound"),
        &["n", "bad vertices", "largest comp", "Δ⁴·log₂ n", "within"],
    );
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            r.bad_max.to_string(),
            r.largest_component.to_string(),
            format!("{:.0}", r.bound),
            r.within_bound.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_stay_within_bound() {
        let cfg = Config {
            delta: 16,
            ns: vec![512, 2048],
            seeds: 2,
        };
        let rows = run(&cfg, None);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.within_bound,
                "n = {}: {} > {}",
                r.n, r.largest_component, r.bound
            );
            // Empirically components are far below the bound.
            assert!(r.largest_component <= 100);
        }
        assert_eq!(table(&rows, 16).len(), 2);
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_histograms() {
        use local_obs::MemorySink;
        use serde_json::to_string;

        let cfg = Config {
            delta: 16,
            ns: vec![512, 1024],
            seeds: 2,
        };
        let plain = run(&cfg, None);
        let mut sink = MemorySink::new();
        let traced = run(&cfg, Some(&mut sink));
        assert_eq!(
            to_string(&plain).unwrap(),
            to_string(&traced).unwrap(),
            "tracing must not change results"
        );
        let events = sink.into_events();
        // One shattered-component histogram per trial, stamped with a
        // globally unique trial number across the two sweep points. (The
        // engine additionally emits messages/halt-round histograms per run,
        // hence the filter by name.)
        let hists: Vec<&local_obs::TraceEvent> = events
            .iter()
            .filter(|e| {
                matches!(&e.data, local_obs::EventData::Histogram { name, .. }
                    if name == "shattered_component_size")
            })
            .collect();
        assert_eq!(hists.len(), 4);
        let trials: std::collections::HashSet<u64> = hists.iter().map(|e| e.trial).collect();
        assert_eq!(trials, (0..4).collect());
        // Engine rounds were traced too.
        assert!(events.iter().any(|e| e.data.tag() == "round"));
        assert!(events
            .iter()
            .any(|e| matches!(&e.data, local_obs::EventData::SpanStart { name } if name == "t10_color_bidding")));
    }
}
