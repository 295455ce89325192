//! E11 — Theorem 7's Δ = 2 dichotomy, measured.
//!
//! On paths/cycles every LCL is either `O(log* n)` or `Ω(n)`; there is
//! nothing in between. Two problems, one per side:
//!
//! * **3-coloring** (Cole–Vishkin): measured rounds must be `log*`-flat.
//! * **2-coloring** (parity wave): measured rounds must grow linearly.
//!
//! The table shows the two series side by side; the gap between them is the
//! forbidden middle band of the dichotomy.

use crate::fit::{best_model, GrowthModel};
use crate::report::Table;
use local_algorithms::color::cole_vishkin::cv_color_cycle;
use local_algorithms::color::path_two_color::path_two_coloring;
use local_graphs::gen;
use local_lcl::problems::VertexColoring;
use local_lcl::LclProblem;
use local_model::IdAssignment;
use local_obs::{Trace, TraceSink};
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Path/cycle lengths.
    pub ns: Vec<usize>,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            ns: vec![1 << 6, 1 << 8, 1 << 10, 1 << 12],
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            ns: vec![1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14],
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Instance size.
    pub n: usize,
    /// Cole–Vishkin 3-coloring rounds on the cycle `C_n`.
    pub three_coloring: u32,
    /// Parity-wave 2-coloring rounds on the path `P_n`.
    pub two_coloring: u32,
}

/// The sweep outcome with growth fits.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Measured points.
    pub rows: Vec<Row>,
    /// Best-fit growth of the 3-coloring series.
    pub fast_fit: GrowthModel,
    /// Best-fit growth of the 2-coloring series.
    pub slow_fit: GrowthModel,
}

/// Run the sweep; both colorings are validated at every size.
///
/// With a trace sink, each size is measured inside an
/// `e11_size` span on trace trial 0, so the stream records per-size
/// wall-clock timing.
pub fn run(cfg: &Config, sink: Option<&mut dyn TraceSink>) -> Outcome {
    let trace = sink.as_ref().map(|_| Trace::new(0));
    let mut rows = Vec::new();
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    for &n in &cfg.ns {
        let _span = trace.as_ref().map(|t| t.span("e11_size"));
        let cycle = gen::cycle(n);
        let three = cv_color_cycle(&cycle, &IdAssignment::Sequential);
        VertexColoring::new(3)
            .validate(&cycle, &three.labels)
            .expect("Cole-Vishkin output must be proper");

        let path = gen::path(n);
        let two = path_two_coloring(&path).expect("waves meet on paths");
        VertexColoring::new(2)
            .validate(&path, &two.labels)
            .expect("parity wave output must be proper");

        fast.push((n as f64, f64::from(three.rounds)));
        slow.push((n as f64, f64::from(two.rounds)));
        rows.push(Row {
            n,
            three_coloring: three.rounds,
            two_coloring: two.rounds,
        });
    }
    if let (Some(sink), Some(trace)) = (sink, trace) {
        for event in trace.into_events() {
            sink.record(&event);
        }
        sink.flush();
    }
    Outcome {
        fast_fit: best_model(&fast).model,
        slow_fit: best_model(&slow).model,
        rows,
    }
}

/// Render the EXPERIMENTS.md table.
pub fn table(out: &Outcome) -> Table {
    let mut t = Table::new(
        "E11: the Δ = 2 dichotomy — 3-coloring (log* n) vs 2-coloring (Ω(n))",
        &["n", "3-coloring rounds", "2-coloring rounds"],
    );
    for r in &out.rows {
        t.push(vec![
            r.n.to_string(),
            r.three_coloring.to_string(),
            r.two_coloring.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dichotomy_sides_separate() {
        let out = run(
            &Config {
                ns: vec![1 << 6, 1 << 8, 1 << 10],
            },
            None,
        );
        let (small, large) = (&out.rows[0], &out.rows[2]);
        // Fast side: flat. Slow side: ~16x.
        assert!(large.three_coloring <= small.three_coloring + 2);
        assert!(large.two_coloring >= 8 * small.two_coloring);
        assert_eq!(out.slow_fit, GrowthModel::Linear);
        assert!(!table(&out).is_empty());
    }
}
