//! E6 — Theorem 3 on a toy instance space.
//!
//! For `n ∈ {3, 4}` we enumerate the entire space `𝒢(n, Δ)` and execute the
//! theorem's recipe: run randomized priority-MIS with claimed size
//! `N = 2^(n²)`, sample the ID-to-randomness table `φ`, and exhaustively
//! verify the resulting deterministic algorithm. The union bound predicts a
//! random `φ` is good with probability `> 1 − |𝒢|/N`; the number of samples
//! actually needed is the measured column.

use crate::derand::{derandomize_priority_mis, DerandReport};
use crate::report::Table;
use local_obs::{Trace, TraceSink};
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// The `(n, Δ, id_bits)` spaces to derandomize over.
    pub spaces: Vec<(usize, usize, u32)>,
    /// Give up after this many φ samples.
    pub max_tries: u32,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            spaces: vec![(3, 2, 2), (3, 2, 3)],
            max_tries: 64,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            spaces: vec![(3, 2, 2), (3, 2, 3), (4, 3, 3)],
            max_tries: 64,
        }
    }
}

/// One derandomized space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Instance-space vertex count.
    pub n: usize,
    /// Degree cap.
    pub delta: usize,
    /// ID bits.
    pub id_bits: u32,
    /// Exhaustively verified instances.
    pub instances: usize,
    /// The claimed size `N = 2^(n²)`.
    pub claimed_n: u64,
    /// φ samples until success.
    pub phis_tried: u32,
}

impl From<DerandReport> for Row {
    fn from(r: DerandReport) -> Self {
        Row {
            n: r.n,
            delta: r.delta,
            id_bits: r.id_bits,
            instances: r.instances,
            claimed_n: r.claimed_n,
            phis_tried: r.phis_tried,
        }
    }
}

/// Run the sweep.
///
/// # Panics
///
/// Panics if a space exhausts `max_tries` without a good φ — at the
/// configured scales the union bound makes that a parameter bug, not a
/// recoverable condition.
///
/// With a trace sink, each `(n, Δ, id bits)` space is
/// derandomized inside an `e6_space` span on trace trial 0, so the stream
/// records per-space wall-clock timing.
pub fn run(cfg: &Config, sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let trace = sink.as_ref().map(|_| Trace::new(0));
    let rows = cfg
        .spaces
        .iter()
        .map(|&(n, delta, id_bits)| {
            let _span = trace.as_ref().map(|t| t.span("e6_space"));
            derandomize_priority_mis(n, delta, id_bits, 0xE6, cfg.max_tries)
                .unwrap_or_else(|e| panic!("E6 ({n}, {delta}, {id_bits}): {e}"))
                .into()
        })
        .collect();
    if let (Some(sink), Some(trace)) = (sink, trace) {
        for event in trace.into_events() {
            sink.record(&event);
        }
        sink.flush();
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E6: Theorem 3 derandomization — Det(n) from Rand(2^(n²)), exhaustively verified",
        &["n", "Δ", "id bits", "instances", "claimed N", "φ tries"],
    );
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            r.delta.to_string(),
            r.id_bits.to_string(),
            r.instances.to_string(),
            r.claimed_n.to_string(),
            r.phis_tried.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_spaces_derandomize_in_few_tries() {
        let rows = run(&Config::quick(), None);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.phis_tried <= 8,
                "union bound predicts ~1 try, got {}",
                r.phis_tried
            );
            assert!(r.instances > 100);
        }
        assert_eq!(table(&rows).len(), 2);
    }
}
