//! The declarative execution specification.
//!
//! The paper's object of study is one thing — a synchronous LOCAL execution
//! — but PRs 2–4 grew a Cartesian product of entry points around it
//! (`run`/`run_faulty`, six `run_sync*` variants, five `TrialPlan::run*`
//! variants). [`ExecSpec`] collapses the axes into one value: *what faults*,
//! *what budget*, *what trace*, *what advertised parameters*. Every layer of
//! the stack now takes a spec instead of choosing a differently-named
//! function, and composing capabilities is field assignment, not a new API.
//!
//! `ExecSpec::default()` is the fault-free, untraced run under the engine's
//! defaults (the graph's true parameters, a `100_000`-round budget, automatic
//! sharding) — byte-identical to the pre-refactor `Engine::run` path (a
//! golden differential test in the core crate holds this fixed). The spec is
//! the only run configuration: the engine itself has no builder knobs.

use crate::faults::FaultPlan;
use crate::params::GlobalParams;
use crate::recover::Budget;
use local_obs::{MetricSet, Trace};
use std::num::NonZeroUsize;

/// How one simulation executes: fault plan, watchdog budget, trace
/// attachment, and advertised global parameters.
///
/// All fields are `Option`s whose `None` means "take the engine default",
/// so a spec only states what it overrides. Borrowed fields
/// (`faults`, `trace`) keep the hot path allocation-free: a spec is a few
/// words on the stack, cheap to build per run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecSpec<'a> {
    /// Advertised global parameters (Theorems 3/6/8 pretend the graph is
    /// larger than it is); `None` advertises the graph's true parameters.
    pub params: Option<GlobalParams>,
    /// Watchdog budget (rounds, and optionally messages / wall-clock);
    /// `None` runs under a rounds-only budget of `100_000`.
    pub budget: Option<Budget>,
    /// Fault plan (drops, delays, crash-stop schedule); `None` is the
    /// statically-eliminated no-op plan — the fault-free fast path.
    pub faults: Option<&'a FaultPlan>,
    /// Trace buffer receiving run lifecycle events; `None` traces nothing
    /// (the disabled path is a single branch per sweep).
    pub trace: Option<&'a Trace>,
    /// Metric recorder receiving end-of-run aggregates (rounds, messages,
    /// halt/crash/cut counts, the two engine histograms); `None` records
    /// nothing — like tracing, the disabled path is a single branch.
    pub metrics: Option<&'a MetricSet>,
    /// Number of threads that step each sweep, the caller included; `None`
    /// lets the engine choose automatically by graph size.
    /// Output is bit-identical across shard counts, so this is purely a
    /// performance/test knob.
    pub shards: Option<NonZeroUsize>,
}

impl<'a> ExecSpec<'a> {
    /// The fault-free, untraced spec under the engine defaults.
    pub fn new() -> Self {
        ExecSpec::default()
    }

    /// Shorthand for a spec whose only override is a rounds-only [`Budget`].
    pub fn rounds(max_rounds: u32) -> Self {
        ExecSpec::default().with_budget(Budget::rounds(max_rounds))
    }

    /// Advertise `params` instead of the graph's true parameters.
    pub fn with_params(mut self, params: GlobalParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Run under `budget` instead of the default.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Override only the round axis, keeping any other budget axes already
    /// set on this spec.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        let mut b = self.budget.unwrap_or(Budget::rounds(max_rounds));
        b.max_rounds = max_rounds;
        self.budget = Some(b);
        self
    }

    /// Inject `faults` (drops, delays, crash-stop schedule).
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach `trace`: the run emits `run_start`, per-sweep `round` events,
    /// end-of-run histograms, and `run_end`.
    pub fn with_trace(mut self, trace: &'a Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// [`with_trace`](Self::with_trace) accepting the `Option` producers
    /// thread around — `None` leaves the spec untraced.
    pub fn traced(mut self, trace: Option<&'a Trace>) -> Self {
        self.trace = trace;
        self
    }

    /// Attach `metrics`: the run records its end-of-run aggregates into the
    /// per-trial recorder.
    pub fn with_metrics(mut self, metrics: &'a MetricSet) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// [`with_metrics`](Self::with_metrics) accepting the `Option` producers
    /// thread around — `None` leaves the spec unmetered.
    pub fn metered(mut self, metrics: Option<&'a MetricSet>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Step each sweep on exactly `shards` threads (clamped to `n` by the
    /// engine). Forces the sharded path even below the engine's automatic
    /// parallelism threshold, which the shard-invariance tests rely on.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(NonZeroUsize::new(shards).expect("shard count must be nonzero"));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_overrides_nothing() {
        let spec = ExecSpec::default();
        assert!(spec.params.is_none());
        assert!(spec.budget.is_none());
        assert!(spec.faults.is_none());
        assert!(spec.trace.is_none());
        assert!(spec.metrics.is_none());
        assert!(spec.shards.is_none());
    }

    #[test]
    fn with_shards_sets_count() {
        let spec = ExecSpec::default().with_shards(4);
        assert_eq!(spec.shards.map(NonZeroUsize::get), Some(4));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn with_shards_rejects_zero() {
        let _ = ExecSpec::default().with_shards(0);
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::none();
        let trace = Trace::new(0);
        let spec = ExecSpec::rounds(7)
            .with_faults(&plan)
            .with_trace(&trace)
            .with_max_rounds(9);
        assert_eq!(spec.budget.unwrap().max_rounds, 9);
        assert!(spec.faults.is_some());
        assert!(spec.trace.is_some());
    }

    #[test]
    fn with_max_rounds_keeps_other_axes() {
        let spec = ExecSpec::default()
            .with_budget(Budget::rounds(5).with_max_messages(10))
            .with_max_rounds(8);
        let b = spec.budget.unwrap();
        assert_eq!(b.max_rounds, 8);
        assert_eq!(b.max_messages, Some(10));
    }

    #[test]
    fn traced_none_is_untraced() {
        let spec = ExecSpec::default().traced(None);
        assert!(spec.trace.is_none());
    }

    #[test]
    fn metered_none_is_unmetered() {
        let spec = ExecSpec::default().metered(None);
        assert!(spec.metrics.is_none());
        let set = MetricSet::new();
        assert!(ExecSpec::default().with_metrics(&set).metrics.is_some());
        assert!(ExecSpec::default().metered(Some(&set)).metrics.is_some());
    }
}
