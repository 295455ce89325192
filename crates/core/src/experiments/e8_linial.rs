//! E8 — Linial's coloring (Theorems 1 & 2).
//!
//! Two tables: (a) the one-round palette shrink `k → O((Δ log_Δ k)²)` of
//! the cover-free recoloring, and (b) the `O(log* n)` convergence of the
//! iterated algorithm with its `β·Δ²` fixpoint.

use crate::report::Table;
use local_algorithms::color::{linial_color, LinialSchedule, PolyFamily};
use local_graphs::gen;
use local_lcl::problems::VertexColoring;
use local_lcl::LclProblem;
use local_model::IdAssignment;
use local_obs::{Trace, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Source palettes for the one-round table.
    pub ks: Vec<u64>,
    /// Degrees for both tables.
    pub deltas: Vec<usize>,
    /// Graph sizes for the convergence table.
    pub ns: Vec<usize>,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            ks: vec![1 << 10, 1 << 20, 1 << 40],
            deltas: vec![3, 8],
            ns: vec![1 << 8, 1 << 12, 1 << 16],
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            ks: vec![1 << 10, 1 << 20, 1 << 30, 1 << 40, 1 << 60],
            deltas: vec![3, 8, 16],
            ns: vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18],
        }
    }
}

/// One one-round shrink measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShrinkRow {
    /// Degree Δ.
    pub delta: usize,
    /// Source palette `k`.
    pub k: u64,
    /// Palette after one recoloring round.
    pub after_one_round: u64,
    /// Full schedule length to the fixpoint.
    pub rounds_to_fixpoint: u32,
    /// The fixpoint palette (`β·Δ²`).
    pub fixpoint: u64,
}

/// One convergence measurement on real graphs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceRow {
    /// Degree Δ.
    pub delta: usize,
    /// Graph size.
    pub n: usize,
    /// Measured rounds.
    pub rounds: u32,
    /// Final palette.
    pub palette: usize,
}

/// Run both sweeps.
///
/// With a trace sink, each convergence instance runs
/// inside an `e8_convergence` span on trace trial 0, so the stream records
/// per-instance wall-clock timing (the shrink table is pure arithmetic and
/// is not traced).
pub fn run(
    cfg: &Config,
    sink: Option<&mut dyn TraceSink>,
) -> (Vec<ShrinkRow>, Vec<ConvergenceRow>) {
    let trace = sink.as_ref().map(|_| Trace::new(0));
    let mut shrink = Vec::new();
    for &delta in &cfg.deltas {
        for &k in &cfg.ks {
            let fam = PolyFamily::new(k, delta);
            let schedule = LinialSchedule::new(k, delta);
            shrink.push(ShrinkRow {
                delta,
                k,
                after_one_round: if fam.shrinks() { fam.palette() } else { k },
                rounds_to_fixpoint: schedule.rounds(),
                fixpoint: schedule.final_palette(),
            });
        }
    }
    let mut conv = Vec::new();
    for &delta in &cfg.deltas {
        for &n in &cfg.ns {
            let _span = trace.as_ref().map(|t| t.span("e8_convergence"));
            let g = if delta == 2 {
                gen::cycle(n)
            } else {
                let mut rng = StdRng::seed_from_u64(0xE8 ^ (n as u64) << 2 ^ delta as u64);
                gen::random_tree_max_degree(n, delta, &mut rng)
            };
            let out = linial_color(&g, &IdAssignment::Shuffled { seed: 7 });
            VertexColoring::new(out.palette)
                .validate(&g, &out.labels)
                .expect("Linial output must be proper");
            conv.push(ConvergenceRow {
                delta,
                n,
                rounds: out.rounds,
                palette: out.palette,
            });
        }
    }
    if let (Some(sink), Some(trace)) = (sink, trace) {
        for event in trace.into_events() {
            sink.record(&event);
        }
        sink.flush();
    }
    (shrink, conv)
}

/// Render the one-round table.
pub fn shrink_table(rows: &[ShrinkRow]) -> Table {
    let mut t = Table::new(
        "E8a: Theorem 1 — one-round palette shrink and distance to the Δ² fixpoint",
        &["Δ", "k", "after 1 round", "rounds to fixpoint", "fixpoint"],
    );
    for r in rows {
        t.push(vec![
            r.delta.to_string(),
            format!("2^{}", 63 - r.k.leading_zeros()),
            r.after_one_round.to_string(),
            r.rounds_to_fixpoint.to_string(),
            r.fixpoint.to_string(),
        ]);
    }
    t
}

/// Render the convergence table.
pub fn convergence_table(rows: &[ConvergenceRow]) -> Table {
    let mut t = Table::new(
        "E8b: Theorem 2 — Linial rounds and palette on random degree-capped trees",
        &["Δ", "n", "rounds", "palette"],
    );
    for r in rows {
        t.push(vec![
            r.delta.to_string(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.palette.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_and_convergence_shapes() {
        let (shrink, conv) = run(
            &Config {
                ks: vec![1 << 20, 1 << 40],
                deltas: vec![3],
                ns: vec![256, 4096],
            },
            None,
        );
        // One round shrinks 2^20 and 2^40 palettes massively.
        for s in &shrink {
            assert!(s.after_one_round < s.k / 100);
            assert!(s.fixpoint <= 40 * 9, "fixpoint {} is O(Δ²)", s.fixpoint);
        }
        // Rounds barely grow over 16x size increase.
        assert!(conv[1].rounds <= conv[0].rounds + 2);
        assert!(!shrink_table(&shrink).is_empty());
        assert!(!convergence_table(&conv).is_empty());
    }
}
