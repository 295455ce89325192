//! E7 — the Theorem 6 speedup, measured.
//!
//! Greedy-by-ID `(Δ+1)`-coloring takes `Θ(n)` rounds under adversarial IDs;
//! after the black-box transform (short IDs from Linial on `G²`) the same
//! algorithm finishes in `O(poly Δ)` rounds after `O(log* n)` preprocessing.
//! The shape to reproduce: the "before" column grows linearly, the "after"
//! column is flat.

use crate::report::Table;
use crate::speedup::{theorem6_demo, SpeedupReport};
use local_graphs::{analysis, gen};
use local_obs::{Trace, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Sweep configuration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Path lengths / tree sizes.
    pub ns: Vec<usize>,
    /// Degree cap for the tree workload.
    pub tree_delta: usize,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            ns: vec![256, 1024, 4096],
            tree_delta: 4,
        }
    }

    /// The full sweep EXPERIMENTS.md records.
    pub fn full() -> Self {
        Config {
            ns: vec![256, 1024, 4096, 16384],
            tree_delta: 4,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload family.
    pub family: String,
    /// Size.
    pub n: usize,
    /// Rounds before the transform (adversarial IDs).
    pub before: u32,
    /// ID-shortening preprocessing rounds.
    pub preprocessing: u32,
    /// Rounds of the transformed run.
    pub after: u32,
}

impl Row {
    fn from_report(family: &str, r: &SpeedupReport) -> Self {
        Row {
            family: family.to_owned(),
            n: r.n,
            before: r.slow_rounds,
            preprocessing: r.preprocessing_rounds,
            after: r.fast_rounds,
        }
    }
}

/// Run the sweep (paths with increasing IDs; BFS-ordered random trees).
///
/// With a trace sink, each demo instance runs inside an
/// `e7_instance` span on trace trial 0, so the stream records per-instance
/// wall-clock timing.
pub fn run(cfg: &Config, sink: Option<&mut dyn TraceSink>) -> Vec<Row> {
    let trace = sink.as_ref().map(|_| Trace::new(0));
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let _span = trace.as_ref().map(|t| t.span("e7_instance"));
        let g = gen::path(n);
        let report = theorem6_demo(&g, (0..n as u64).collect());
        rows.push(Row::from_report("path", &report));
    }
    for &n in &cfg.ns {
        let _span = trace.as_ref().map(|t| t.span("e7_instance"));
        let mut rng = StdRng::seed_from_u64(0xE7 ^ (n as u64) << 3);
        let g = gen::random_tree_max_degree(n, cfg.tree_delta, &mut rng);
        let dist = analysis::bfs_distances(&g, 0);
        let mut idx: Vec<usize> = (0..g.n()).collect();
        idx.sort_by_key(|&v| dist[v]);
        let mut ids = vec![0u64; g.n()];
        for (rank, v) in idx.into_iter().enumerate() {
            ids[v] = rank as u64;
        }
        let report = theorem6_demo(&g, ids);
        rows.push(Row::from_report("tree", &report));
    }
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
        "E7: Theorem 6 speedup — greedy-by-ID coloring before/after ID shortening",
        &["family", "n", "before", "preproc", "after", "after total"],
    );
    for r in rows {
        t.push(vec![
            r.family.clone(),
            r.n.to_string(),
            r.before.to_string(),
            r.preprocessing.to_string(),
            r.after.to_string(),
            (r.preprocessing + r.after).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_speedup_is_dramatic() {
        let rows = run(
            &Config {
                ns: vec![256, 1024],
                tree_delta: 4,
            },
            None,
        );
        let paths: Vec<&Row> = rows.iter().filter(|r| r.family == "path").collect();
        assert_eq!(paths.len(), 2);
        // Before: Θ(n). After: flat.
        assert!(paths[1].before >= 4 * paths[0].before / 2);
        assert!(paths[1].after <= paths[0].after + 8);
        for p in &paths {
            assert!(p.preprocessing + p.after < p.before);
        }
        assert!(!table(&rows).is_empty());
    }
}
