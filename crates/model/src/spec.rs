//! The declarative execution specification.
//!
//! The paper's object of study is one thing — a synchronous LOCAL execution
//! — but PRs 2–4 grew a Cartesian product of entry points around it
//! (`run`/`run_faulty`, six `run_sync*` variants, five `TrialPlan::run*`
//! variants). [`ExecSpec`] collapses the axes into one value: *what faults*,
//! *what budget*, *what observation*, *what advertised parameters*. Every layer of
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
use local_obs::Obs;
use std::num::NonZeroUsize;

/// How one simulation executes: fault plan, watchdog budget, observation
/// handle, and advertised global parameters.
///
/// Every field's default means "take the engine default", so a spec only
/// states what it overrides. Borrowed fields (`faults`, `obs`) keep the hot path allocation-free: a spec is a few
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
    /// Where the run's lifecycle events go: `run_start`, one `round` per
    /// sweep, the two engine histograms and `run_end`, appended to the
    /// handle's trace and folded into its metrics. The default handle
    /// observes nothing (the disabled path is a single branch per sweep).
    pub obs: Obs<'a>,
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

    /// Observe the run through `obs`: its events go to the handle's trace
    /// and metrics, whichever are attached.
    pub fn with_obs(mut self, obs: Obs<'a>) -> Self {
        self.obs = obs;
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
        assert!(!spec.obs.is_on());
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
        let trace = local_obs::Trace::new(0);
        let spec = ExecSpec::rounds(7)
            .with_faults(&plan)
            .with_obs(Obs::traced(Some(&trace)))
            .with_max_rounds(9);
        assert_eq!(spec.budget.unwrap().max_rounds, 9);
        assert!(spec.faults.is_some());
        assert!(spec.obs.trace.is_some());
        assert!(spec.obs.metrics.is_none());
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
    fn with_obs_sets_both_planes() {
        let trace = local_obs::Trace::new(0);
        let set = local_obs::MetricSet::new();
        let spec = ExecSpec::default().with_obs(Obs::new(Some(&trace), Some(&set)));
        assert!(spec.obs.trace.is_some() && spec.obs.metrics.is_some());
        assert!(!ExecSpec::default().with_obs(Obs::traced(None)).obs.is_on());
    }
}
