//! Trial grids: the one shape behind the E12, E13 and E14 sweeps.
//!
//! A sweep experiment is a list of grid points, a per-trial body, and a
//! per-point fold. [`Grid`] states exactly that, once per experiment, and
//! everything else is generic:
//!
//! * [`run`] executes a grid in-process, one [`TrialPlan`] per point, with
//!   panic isolation, optional checkpoint/resume, and optional tracing
//!   (trace trial numbers are the running sum of the points' trial counts,
//!   so they are unique across the whole grid);
//! * every grid is a fabric [`Sweep`], so `--workers N` shards the same
//!   object across worker processes, and [`fold_merged`] folds the merged
//!   journal values back through the same per-point fold.
//!
//! Both paths fold the same typed trial outcomes in the same order, so the
//! rows and metrics they produce are byte-identical once serialized.

use crate::checkpoint::Checkpoint;
use crate::fabric::{decode_unit, run_unit_isolated, Sweep, SweepPoint};
use crate::trials::{TrialOutcome, TrialPlan, TrialSpec};
use local_obs::{MetricsRegistry, Trace, TraceSink};
use serde::{Deserialize, Serialize, Value};

/// A sweep experiment's grid: points, per-trial body, per-point fold.
pub trait Grid: Sync {
    /// What one trial produces. Checkpoints and fabric journals record it,
    /// so it must round-trip through JSON unchanged.
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
    /// metrics regardless of thread count, resumes, or fabric
    /// decomposition.
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
    let per_point = Grid::points(grid).iter().enumerate().map(|(point, p)| {
        let spec = TrialSpec::new()
            .isolated()
            .checkpointed(checkpoint.map(|c| (c, p.scope.as_str())))
            .traced(sink.as_deref_mut())
            .trace_base(trace_base);
        trace_base += p.trials;
        TrialPlan::new(p.trials, grid.master_seed())
            .execute(spec, |t, trace| grid.trial(point, t.seed, trace))
    });
    fold_points(grid, per_point)
}

/// Fold merged fabric unit values, grouped per point (see
/// [`crate::fabric::UnitMap::group`]), into the same outcome [`run`]
/// produces.
///
/// # Panics
///
/// If a value is not an encoded trial outcome of `G::Record` (a corrupt or
/// foreign journal).
pub fn fold_merged<G: Grid>(grid: &G, per_point: Vec<Vec<Value>>) -> GridOutcome<G::Row> {
    let per_point = per_point.into_iter().map(|values| {
        values
            .iter()
            .map(|v| decode_unit(v).expect("fabric journal record shape"))
            .collect()
    });
    fold_points(grid, per_point)
}

/// Fold each point's outcomes, in grid order, through the grid's fold.
fn fold_points<G: Grid>(
    grid: &G,
    per_point: impl Iterator<Item = Vec<TrialOutcome<G::Record>>>,
) -> GridOutcome<G::Row> {
    let mut metrics = MetricsRegistry::new();
    let rows = per_point
        .enumerate()
        .map(|(point, outcomes)| grid.fold(point, outcomes, &mut metrics))
        .collect();
    GridOutcome { rows, metrics }
}

impl<G: Grid> Sweep for G {
    fn points(&self) -> &[SweepPoint] {
        Grid::points(self)
    }

    fn run_unit(&self, point: usize, index: u64) -> Value {
        let seed = TrialPlan::new(0, self.master_seed()).seed(index);
        run_unit_isolated(|| self.trial(point, seed, None))
    }
}
