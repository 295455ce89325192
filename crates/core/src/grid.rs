//! Trial grids: the one shape behind the E12, E13 and E14 sweeps.
//!
//! A sweep experiment is a list of grid points, a per-trial body, and a
//! per-point fold. [`Grid`] states exactly that, once per experiment, and
//! everything else is generic:
//!
//! [`run`] executes a grid in-process, one [`TrialPlan`] per point, with
//! panic isolation, optional checkpoint/resume, and optional tracing (trace
//! trial numbers are the running sum of the points' trial counts, so they
//! are unique across the whole grid). Plain, traced and resumed runs fold
//! the same typed trial outcomes in the same order, so the rows and metrics
//! they produce are byte-identical once serialized.

use crate::checkpoint::Checkpoint;
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_obs::{MetricsRegistry, Trace, TraceSink};
use serde::{Deserialize, Serialize};

/// One grid point of a sweep: its checkpoint scope and how many trials it
/// contributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The scope string its trials are checkpointed under (embeds workload,
    /// grid coordinates, and master seed).
    pub scope: String,
    /// Number of trials at this point (0 for error placeholders that fold
    /// to a fixed row without running anything).
    pub trials: u64,
}

/// A sweep experiment's grid: points, per-trial body, per-point fold.
pub trait Grid: Sync {
    /// What one trial produces. Checkpoints record it, so it must
    /// round-trip through JSON unchanged.
    type Record: Serialize + Deserialize + Send;
    /// One folded grid point.
    type Row;

    /// The grid in fold order: each point's checkpoint scope and trial
    /// count (0 for placeholders that fold without running anything, such
    /// as a workload whose graph generator failed).
    fn points(&self) -> &[SweepPoint];

    /// The master seed every point's trial seeds derive from (trial `i` of
    /// any point runs at [`TrialPlan::seed`]`(i)`).
    fn master_seed(&self) -> u64;

    /// Run one trial of `point` at `seed`, emitting into `trace` if given.
    fn trial(&self, point: usize, seed: u64, trace: Option<&Trace>) -> Self::Record;

    /// Fold one point's outcomes, in trial order, into its row, merging
    /// every completed trial's metrics into `metrics`.
    fn fold(
        &self,
        point: usize,
        outcomes: Vec<TrialOutcome<Self::Record>>,
        metrics: &mut MetricsRegistry,
    ) -> Self::Row;
}

/// A folded sweep.
#[derive(Debug, Clone)]
pub struct GridOutcome<R> {
    /// One row per grid point, in grid order.
    pub rows: Vec<R>,
    /// Run-wide metrics merged over completed trials in grid/trial order.
    /// Deterministic: the same config produces byte-identical serialized
    /// metrics regardless of thread count or resumes.
    pub metrics: MetricsRegistry,
}

/// Execute `grid` in-process. Every point runs as one isolated
/// [`TrialPlan`] (a panicking trial becomes a `panicked` outcome instead of
/// taking the sweep down). With a `checkpoint`, recorded trials are
/// replayed instead of re-executed and fresh ones are appended, so a killed
/// sweep rerun with the same configuration finishes the remaining work and
/// folds identical rows. With a `sink`, each trial's events are drained
/// into it in trial order (a replayed trial emits none).
pub fn run<G: Grid>(
    grid: &G,
    checkpoint: Option<&Checkpoint>,
    mut sink: Option<&mut dyn TraceSink>,
) -> GridOutcome<G::Row> {
    let mut trace_base = 0;
    let mut metrics = MetricsRegistry::new();
    let rows = Grid::points(grid)
        .iter()
        .enumerate()
        .map(|(point, p)| {
            let spec = TrialSpec::new()
                .isolated()
                .checkpointed(checkpoint.map(|c| (c, p.scope.as_str())))
                .traced(sink.as_deref_mut())
                .trace_base(trace_base);
            trace_base += p.trials;
            let outcomes = TrialPlan::new(p.trials, grid.master_seed())
                .execute(spec, |t, trace| grid.trial(point, t.seed, trace));
            grid.fold(point, outcomes, &mut metrics)
        })
        .collect();
    GridOutcome { rows, metrics }
}
