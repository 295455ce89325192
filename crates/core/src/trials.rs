//! The shared trial harness: seeded, parallel, reproducible.
//!
//! Every experiment that averages a randomized algorithm over independent
//! runs used to hand-roll the same sequential loop (`for seed in 0..k`).
//! [`TrialPlan`] replaces those loops: it derives one independent seed per
//! trial from a master seed through the engine's own stream-splitting
//! ([`local_model::derived_rng`]), executes the trials in parallel with
//! rayon, and returns the per-trial results *in trial order* — so the
//! aggregate an experiment computes is bit-identical no matter how many
//! worker threads ran.
//!
//! [`summarize_runs`] aggregates the engine's per-run [`RunStats`] into the
//! JSON-friendly [`StatsSummary`], and [`TrialReport`] is the stable JSON
//! envelope the `exp_e*` binaries emit under `--json` (schema documented in
//! the README).

use local_model::{derived_rng, derived_u64, RunStats};
use local_obs::{Trace, TraceSink};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A batch of independent seeded trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialPlan {
    trials: u64,
    master_seed: u64,
}

/// One trial's identity: its index in the batch and its derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Position in the batch, `0 .. trials`.
    pub index: u64,
    /// The independent per-trial seed, derived from the plan's master seed.
    pub seed: u64,
}

impl Trial {
    /// A fresh deterministic RNG for this trial (for auxiliary randomness
    /// such as workload generation, split from the trial seed the same way
    /// the engine splits node streams).
    pub fn rng(&self) -> ChaCha8Rng {
        derived_rng(self.seed, 0)
    }
}

/// The checkpoint capability of a [`TrialSpec`]: the store, the scope key,
/// and the outcome codec (captured as fn pointers when the spec is built,
/// so [`TrialPlan::execute`] itself carries no serde bounds).
struct CheckpointSlot<'a, R> {
    store: &'a crate::checkpoint::Checkpoint,
    scope: &'a str,
    encode: fn(&TrialOutcome<R>) -> serde::Value,
    decode: fn(&serde::Value) -> Option<TrialOutcome<R>>,
}

/// How a batch of trials executes: panic isolation × checkpoint/resume ×
/// per-trial tracing, composed freely.
///
/// The five `TrialPlan::run*` variants of PRs 2–4 each hard-wired one
/// combination; a spec states the combination as data and
/// [`TrialPlan::execute`] is the single entry point. The default spec is the
/// plain parallel batch: panics propagate, nothing is recorded, no trace
/// buffers are allocated.
///
/// The spec is consumed by `execute` (the trace sink is an `&mut` borrow),
/// so build it at the call site.
pub struct TrialSpec<'a, 'sink, R> {
    isolate: bool,
    checkpoint: Option<CheckpointSlot<'a, R>>,
    sink: Option<&'a mut (dyn TraceSink + 'sink)>,
    trace_base: u64,
}

impl<R> Default for TrialSpec<'_, '_, R> {
    fn default() -> Self {
        TrialSpec {
            isolate: false,
            checkpoint: None,
            sink: None,
            trace_base: 0,
        }
    }
}

impl<'a, 'sink, R> TrialSpec<'a, 'sink, R> {
    /// The plain parallel batch: no isolation, no checkpoint, no trace.
    pub fn new() -> Self {
        TrialSpec::default()
    }

    /// Catch per-trial panics: a panicking trial becomes
    /// [`TrialOutcome::Panicked`] in its slot while the rest of the batch
    /// completes — a poisoned worker never takes the batch down.
    pub fn isolated(mut self) -> Self {
        self.isolate = true;
        self
    }

    /// Checkpoint/resume against `(store, scope)`: a trial already recorded
    /// under `(scope, index)` is *not* re-executed — its recorded outcome is
    /// decoded and returned in place (a replayed trial emits no trace
    /// events) — and every freshly computed outcome is appended (and
    /// flushed) to the store before the batch completes. `None` leaves the
    /// spec un-checkpointed, so callers can thread their CLI `Option`
    /// straight through.
    ///
    /// `scope` must identify everything the trial depends on besides its
    /// index (workload, grid point, master seed), so a resumed sweep with
    /// different parameters never reuses stale results. Recorded results
    /// whose JSON no longer decodes as `R` (e.g. after a schema change) are
    /// recomputed, not errors.
    pub fn checkpointed(
        mut self,
        checkpoint: Option<(&'a crate::checkpoint::Checkpoint, &'a str)>,
    ) -> Self
    where
        R: Serialize + Deserialize,
    {
        self.checkpoint = checkpoint.map(|(store, scope)| CheckpointSlot {
            store,
            scope,
            encode: encode_outcome::<R>,
            decode: decode_outcome::<R>,
        });
        self
    }

    /// Per-trial tracing: each trial gets its own [`Trace`] buffer (stamped
    /// with the trial index), and after all trials finish the buffered
    /// events are drained into `sink` *in trial order* and flushed once. The
    /// emitted stream is therefore bit-identical no matter how many rayon
    /// workers executed the batch — thread-count invariance holds by
    /// construction, not by luck. `None` traces nothing: no buffers are
    /// allocated and the trial body sees `None`.
    pub fn traced(mut self, sink: Option<&'a mut (dyn TraceSink + 'sink)>) -> Self {
        self.sink = sink;
        self
    }

    /// Stamp traced trials starting from `base`: trial `i` of the batch is
    /// trace trial `base + i`. Experiments sweeping several points through
    /// successive plans use this to keep trial numbers unique across the
    /// whole trace file.
    pub fn trace_base(mut self, base: u64) -> Self {
        self.trace_base = base;
        self
    }
}

impl TrialPlan {
    /// A plan for `trials` runs derived from `master_seed`.
    pub fn new(trials: u64, master_seed: u64) -> Self {
        TrialPlan {
            trials,
            master_seed,
        }
    }

    /// Number of trials in the batch.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The derived seed of trial `index` — stable across runs and
    /// independent across indices.
    pub fn seed(&self, index: u64) -> u64 {
        derived_u64(self.master_seed, index)
    }

    /// Run all trials in parallel under `spec`; results come back in trial
    /// order, so any fold over them is deterministic regardless of thread
    /// count.
    ///
    /// `f` must depend only on its [`Trial`] argument, the [`Trace`] handle
    /// it is passed (when the spec traces), and shared read-only captures —
    /// the harness guarantees nothing else. Without
    /// [`TrialSpec::isolated`], every returned outcome is
    /// [`TrialOutcome::Ok`] (a panic propagates and takes the batch down);
    /// unwrap the batch with [`TrialOutcome::into_ok`].
    ///
    /// # Panics
    ///
    /// If appending to the spec's checkpoint file fails — a broken
    /// checkpoint cannot guarantee resumability, so it fails loudly rather
    /// than silently degrading.
    pub fn execute<R, F>(&self, spec: TrialSpec<'_, '_, R>, f: F) -> Vec<TrialOutcome<R>>
    where
        R: Send,
        F: Fn(Trial, Option<&Trace>) -> R + Sync,
    {
        let TrialSpec {
            isolate,
            checkpoint,
            sink,
            trace_base,
        } = spec;
        let body = |trial: Trial, trace: Option<&Trace>| -> TrialOutcome<R> {
            if let Some(slot) = &checkpoint {
                if let Some(recorded) = slot.store.lookup(slot.scope, trial.index) {
                    if let Some(outcome) = (slot.decode)(&recorded) {
                        return outcome;
                    }
                }
            }
            let outcome = if isolate {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(trial, trace))) {
                    Ok(value) => TrialOutcome::Ok(value),
                    Err(payload) => TrialOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    },
                }
            } else {
                TrialOutcome::Ok(f(trial, trace))
            };
            if let Some(slot) = &checkpoint {
                slot.store
                    .record(slot.scope, trial.index, (slot.encode)(&outcome))
                    .expect("checkpoint append failed");
            }
            outcome
        };
        let trials: Vec<Trial> = (0..self.trials)
            .map(|index| Trial {
                index,
                seed: self.seed(index),
            })
            .collect();
        match sink {
            None => trials.into_par_iter().map(|t| body(t, None)).collect(),
            Some(sink) => {
                let traced: Vec<(TrialOutcome<R>, Trace)> = trials
                    .into_par_iter()
                    .map(|trial| {
                        let trace = Trace::new(trace_base + trial.index);
                        let r = body(trial, Some(&trace));
                        (r, trace)
                    })
                    .collect();
                let mut results = Vec::with_capacity(self.trials as usize);
                for (r, trace) in traced {
                    trace.drain_into(sink);
                    results.push(r);
                }
                sink.flush();
                results
            }
        }
    }

    /// [`execute`](Self::execute), then average `value` over the trials.
    ///
    /// An empty plan has a mean of `0.0` (never `NaN`).
    pub fn mean<F>(&self, value: F) -> f64
    where
        F: Fn(Trial) -> f64 + Sync,
    {
        if self.trials == 0 {
            return 0.0;
        }
        let total: f64 = self
            .execute(TrialSpec::new(), |t, _| value(t))
            .into_iter()
            .map(TrialOutcome::into_ok)
            .sum();
        total / self.trials as f64
    }
}

/// Encode a trial outcome as a checkpoint value: `{"ok": R}` or
/// `{"panicked": "message"}`. (Hand-written — the derive macro does not
/// cover data-carrying enums.)
pub(crate) fn encode_outcome<R: Serialize>(outcome: &TrialOutcome<R>) -> serde::Value {
    match outcome {
        TrialOutcome::Ok(value) => serde::Value::Object(vec![("ok".to_string(), value.to_value())]),
        TrialOutcome::Panicked { message } => serde::Value::Object(vec![(
            "panicked".to_string(),
            serde::Value::String(message.clone()),
        )]),
    }
}

/// Decode a checkpoint value recorded by [`encode_outcome`]; `None` for any
/// shape mismatch (the trial is then recomputed).
pub(crate) fn decode_outcome<R: Deserialize>(v: &serde::Value) -> Option<TrialOutcome<R>> {
    if let Some(ok) = v.get("ok") {
        return R::from_value(ok).ok().map(TrialOutcome::Ok);
    }
    if let Some(msg) = v.get("panicked") {
        return msg.as_str().ok().map(|message| TrialOutcome::Panicked {
            message: message.to_string(),
        });
    }
    None
}

/// The fate of one isolated trial (see [`TrialSpec::isolated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialOutcome<R> {
    /// The trial completed and produced a result.
    Ok(R),
    /// The trial panicked; the batch survived.
    Panicked {
        /// The panic payload rendered as text (`"<non-string panic>"` when
        /// the payload is neither `&str` nor `String`).
        message: String,
    },
}

impl<R> TrialOutcome<R> {
    /// The result, if the trial completed.
    pub fn ok(self) -> Option<R> {
        match self {
            TrialOutcome::Ok(r) => Some(r),
            TrialOutcome::Panicked { .. } => None,
        }
    }

    /// Did the trial panic?
    pub fn is_panicked(&self) -> bool {
        matches!(self, TrialOutcome::Panicked { .. })
    }

    /// The result of a trial that cannot have panicked (a batch executed
    /// without [`TrialSpec::isolated`] propagates panics instead of
    /// recording them).
    ///
    /// # Panics
    ///
    /// If the trial did panic (only possible under isolation), re-raising
    /// its message.
    pub fn into_ok(self) -> R {
        match self {
            TrialOutcome::Ok(r) => r,
            TrialOutcome::Panicked { message } => {
                panic!("into_ok on a panicked trial: {message}")
            }
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Aggregate of the engine's [`RunStats`] over a batch of runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSummary {
    /// Number of runs aggregated.
    pub runs: u64,
    /// Total messages sent across all runs.
    pub messages_total: u64,
    /// Mean messages per run.
    pub messages_mean: f64,
    /// Mean engine sweeps per run.
    pub sweeps_mean: f64,
    /// Smallest sweep count observed.
    pub sweeps_min: u32,
    /// Largest sweep count observed.
    pub sweeps_max: u32,
    /// Mean round complexity per run (`sweeps − 1`: the final sweep only
    /// collects halts).
    pub rounds_mean: f64,
    /// Largest round complexity observed.
    pub rounds_max: u32,
    /// Largest single-round message volume observed across all runs (0 when
    /// no run recorded per-round message counts).
    pub messages_max_round: u64,
}

/// Round complexity of one run. The engine's final sweep only collects
/// halts, so a run with `s` sweeps performed `s − 1` algorithmic rounds.
/// The degenerate cases are explicit: a zero-sweep run (the engine never
/// stepped — e.g. an immediate budget cut) and a one-sweep run (every vertex
/// halted on its first activation) both count as zero rounds.
fn rounds_of(sweeps: u32) -> u32 {
    match sweeps {
        0 | 1 => 0,
        s => s - 1,
    }
}

/// Aggregate per-run [`RunStats`] into a [`StatsSummary`].
///
/// Returns a zeroed summary for an empty batch.
pub fn summarize_runs<'a, I>(runs: I) -> StatsSummary
where
    I: IntoIterator<Item = &'a RunStats>,
{
    let mut n = 0u64;
    let mut messages_total = 0u64;
    let mut sweeps_total = 0u64;
    let mut sweeps_min = u32::MAX;
    let mut sweeps_max = 0u32;
    let mut rounds_total = 0u64;
    let mut rounds_max = 0u32;
    let mut messages_max_round = 0u64;
    for s in runs {
        n += 1;
        messages_total += s.messages_sent;
        sweeps_total += u64::from(s.sweeps);
        sweeps_min = sweeps_min.min(s.sweeps);
        sweeps_max = sweeps_max.max(s.sweeps);
        let rounds = rounds_of(s.sweeps);
        rounds_total += u64::from(rounds);
        rounds_max = rounds_max.max(rounds);
        if let Some(&peak) = s.messages_per_round.iter().max() {
            messages_max_round = messages_max_round.max(peak);
        }
    }
    if n == 0 {
        return StatsSummary {
            runs: 0,
            messages_total: 0,
            messages_mean: 0.0,
            sweeps_mean: 0.0,
            sweeps_min: 0,
            sweeps_max: 0,
            rounds_mean: 0.0,
            rounds_max: 0,
            messages_max_round: 0,
        };
    }
    StatsSummary {
        runs: n,
        messages_total,
        messages_mean: messages_total as f64 / n as f64,
        sweeps_mean: sweeps_total as f64 / n as f64,
        sweeps_min,
        sweeps_max,
        rounds_mean: rounds_total as f64 / n as f64,
        rounds_max,
        messages_max_round,
    }
}

/// The JSON envelope the experiment binaries emit under `--json`: one object
/// per experiment, carrying the measured rows verbatim.
///
/// `R` is usually a row slice, but any serializable payload works (E8 emits
/// a two-section struct).
#[derive(Debug, Clone)]
pub struct TrialReport<'a, R: Serialize + ?Sized> {
    /// Experiment identifier (`"E1"`, …, `"A1"`).
    pub experiment: &'a str,
    /// `"quick"` or `"full"`.
    pub mode: &'a str,
    /// The measured rows, exactly as tabulated.
    pub rows: &'a R,
}

// Hand-written: the derive does not cover lifetime-parameterized structs.
impl<R: Serialize + ?Sized> Serialize for TrialReport<'_, R> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "experiment".to_string(),
                serde::Value::String(self.experiment.to_string()),
            ),
            (
                "mode".to_string(),
                serde::Value::String(self.mode.to_string()),
            ),
            ("rows".to_string(), self.rows.to_value()),
        ])
    }
}

impl<R: Serialize + ?Sized> TrialReport<'_, R> {
    /// Render the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report rows serialize infallibly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;

    /// The plain-batch shape, via the unified entry point.
    fn run<R: Send>(plan: &TrialPlan, f: impl Fn(Trial) -> R + Sync) -> Vec<R> {
        plan.execute(TrialSpec::new(), |t, _| f(t))
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect()
    }

    /// The isolated shape, via the unified entry point.
    fn run_isolated<R: Send>(
        plan: &TrialPlan,
        f: impl Fn(Trial) -> R + Sync,
    ) -> Vec<TrialOutcome<R>> {
        plan.execute(TrialSpec::new().isolated(), |t, _| f(t))
    }

    /// The isolated + checkpointed shape, via the unified entry point.
    fn checkpointed_batch<R: Serialize + Deserialize + Send>(
        plan: &TrialPlan,
        checkpoint: Option<(&Checkpoint, &str)>,
        f: impl Fn(Trial) -> R + Sync,
    ) -> Vec<TrialOutcome<R>> {
        plan.execute(
            TrialSpec::new().isolated().checkpointed(checkpoint),
            |t, _| f(t),
        )
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let plan = TrialPlan::new(64, 7);
        let again = TrialPlan::new(64, 7);
        let seeds: Vec<u64> = (0..64).map(|i| plan.seed(i)).collect();
        assert_eq!(seeds, (0..64).map(|i| again.seed(i)).collect::<Vec<u64>>());
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), 64, "derived seeds must not collide");
        assert_ne!(plan.seed(0), TrialPlan::new(64, 8).seed(0));
    }

    #[test]
    fn run_preserves_trial_order() {
        let plan = TrialPlan::new(500, 3);
        let indices: Vec<u64> = run(&plan, |t| t.index);
        assert_eq!(indices, (0..500).collect::<Vec<u64>>());
        let seeds: Vec<u64> = run(&plan, |t| t.seed);
        assert_eq!(seeds, (0..500).map(|i| plan.seed(i)).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_fold_is_deterministic() {
        let plan = TrialPlan::new(200, 11);
        let a: f64 = plan.mean(|t| (t.seed % 1000) as f64);
        let b: f64 = plan.mean(|t| (t.seed % 1000) as f64);
        assert_eq!(a, b);
    }

    #[test]
    fn trial_rngs_are_independent() {
        use rand::RngCore;
        let plan = TrialPlan::new(2, 9);
        let draws: Vec<u64> = run(&plan, |t| t.rng().next_u64());
        assert_ne!(draws[0], draws[1]);
    }

    #[test]
    fn stats_summary_aggregates() {
        let runs = vec![
            RunStats {
                messages_sent: 10,
                sweeps: 3,
                live_per_round: vec![4, 2, 1],
                messages_per_round: vec![6, 3, 1],
            },
            RunStats {
                messages_sent: 30,
                sweeps: 5,
                live_per_round: vec![4, 4, 3, 2, 1],
                messages_per_round: vec![12, 8, 6, 3, 1],
            },
        ];
        let s = summarize_runs(&runs);
        assert_eq!(s.runs, 2);
        assert_eq!(s.messages_total, 40);
        assert_eq!(s.messages_mean, 20.0);
        assert_eq!(s.sweeps_min, 3);
        assert_eq!(s.sweeps_max, 5);
        assert_eq!(s.sweeps_mean, 4.0);
        assert_eq!(s.rounds_mean, 3.0);
        assert_eq!(s.rounds_max, 4);
        assert_eq!(s.messages_max_round, 12);
    }

    #[test]
    fn zero_and_one_sweep_runs_count_zero_rounds() {
        // A zero-sweep run (engine cut before its first sweep) and a
        // one-sweep run (everyone halted immediately) are distinct states
        // that both perform zero algorithmic rounds.
        let runs = vec![
            RunStats {
                messages_sent: 0,
                sweeps: 0,
                live_per_round: vec![],
                messages_per_round: vec![],
            },
            RunStats {
                messages_sent: 4,
                sweeps: 1,
                live_per_round: vec![2],
                messages_per_round: vec![4],
            },
        ];
        let s = summarize_runs(&runs);
        assert_eq!(s.rounds_mean, 0.0);
        assert_eq!(s.rounds_max, 0);
        assert_eq!(s.sweeps_min, 0);
        assert_eq!(s.sweeps_max, 1);
        assert_eq!(s.messages_max_round, 4);
    }

    #[test]
    fn messages_max_round_is_zero_without_per_round_data() {
        // Old checkpoint records decode with an empty messages_per_round;
        // the aggregate must not invent a peak for them.
        let runs = vec![RunStats {
            messages_sent: 9,
            sweeps: 4,
            live_per_round: vec![3, 2, 1, 0],
            messages_per_round: vec![],
        }];
        let s = summarize_runs(&runs);
        assert_eq!(s.messages_total, 9);
        assert_eq!(s.messages_max_round, 0);
    }

    #[test]
    fn run_with_trace_is_ordered_and_matches_untraced() {
        use local_obs::{EventData, MemorySink};

        let plan = TrialPlan::new(24, 77);
        let body = |trial: Trial, trace: Option<&Trace>| {
            if let Some(tr) = trace {
                let _span = tr.span("trial");
                tr.emit(EventData::SpanStart {
                    name: format!("inner-{}", trial.index),
                });
                tr.emit(EventData::SpanEnd {
                    name: format!("inner-{}", trial.index),
                    micros: 0,
                });
            }
            trial.seed % 1000
        };
        let untraced: Vec<u64> = plan
            .execute(TrialSpec::new(), body)
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        assert_eq!(untraced, run(&plan, |t| t.seed % 1000));

        let mut sink = MemorySink::new();
        let traced: Vec<u64> = plan
            .execute(TrialSpec::new().traced(Some(&mut sink)), body)
            .into_iter()
            .map(TrialOutcome::into_ok)
            .collect();
        assert_eq!(traced, untraced, "tracing must not change results");
        let events = sink.into_events();
        assert_eq!(events.len(), 24 * 4);
        // Events arrive in trial order with per-trial sequence numbers,
        // regardless of which rayon worker ran which trial.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.trial, (i / 4) as u64);
            assert_eq!(ev.seq, (i % 4) as u64);
        }
    }

    #[test]
    fn empty_batch_summarizes_to_zeros() {
        let empty = summarize_runs([]);
        assert_eq!(empty.runs, 0);
        assert_eq!(empty.messages_total, 0);
        assert_eq!(empty.messages_mean, 0.0);
        assert_eq!(empty.sweeps_mean, 0.0);
        assert_eq!(empty.sweeps_min, 0);
        assert_eq!(empty.sweeps_max, 0);
        assert_eq!(empty.rounds_mean, 0.0);
        assert_eq!(empty.rounds_max, 0);
        assert!(!empty.messages_mean.is_nan());
    }

    #[test]
    fn zero_trial_mean_is_zero_not_nan() {
        let plan = TrialPlan::new(0, 42);
        let m = plan.mean(|_| f64::INFINITY);
        assert_eq!(m, 0.0);
        assert!(!m.is_nan());
        assert!(run(&plan, |t| t.index).is_empty());
        assert!(run_isolated(&plan, |t| t.index).is_empty());
    }

    #[test]
    fn panicking_trial_is_isolated_and_ordered() {
        let plan = TrialPlan::new(16, 5);
        let outcomes = run_isolated(&plan, |t| {
            assert!(t.index != 3 && t.index != 9, "boom at {}", t.index);
            t.index * 2
        });
        assert_eq!(outcomes.len(), 16);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 3 || i == 9 {
                assert!(o.is_panicked());
                if let TrialOutcome::Panicked { message } = o {
                    assert!(message.contains(&format!("boom at {i}")), "{message}");
                }
            } else {
                assert_eq!(o, &TrialOutcome::Ok(i as u64 * 2));
            }
        }
        // Deterministic across repeats despite the parallel pool.
        let again = run_isolated(&plan, |t| {
            assert!(t.index != 3 && t.index != 9, "boom at {}", t.index);
            t.index * 2
        });
        assert_eq!(outcomes, again);
    }

    #[test]
    fn report_renders_json() {
        #[derive(Serialize)]
        struct Row {
            n: usize,
            rounds: f64,
        }
        let rows = vec![Row { n: 8, rounds: 2.5 }];
        let json = TrialReport {
            experiment: "E1",
            mode: "quick",
            rows: &rows,
        }
        .to_json();
        assert!(json.contains("\"experiment\": \"E1\""));
        assert!(json.contains("\"rounds\": 2.5"));
        let v: serde_json::Value = serde_json::from_str(&json).expect("round-trips");
        let mode = v
            .field("mode")
            .and_then(|m| m.as_str())
            .expect("mode field");
        assert_eq!(mode, "quick");
    }

    fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lcl-trials-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpointed_run_skips_recorded_trials() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let path = temp_checkpoint("skip");
        let plan = TrialPlan::new(10, 21);
        let executed = AtomicU64::new(0);
        let first = {
            let ckpt = Checkpoint::open(&path).expect("open");
            checkpointed_batch(&plan, Some((&ckpt, "scope-a")), |t| {
                executed.fetch_add(1, Ordering::Relaxed);
                t.seed % 100
            })
        };
        assert_eq!(executed.load(Ordering::Relaxed), 10);

        // Resume: every trial is recorded, so nothing re-executes and the
        // outcomes are identical.
        let resumed = {
            let ckpt = Checkpoint::open(&path).expect("reopen");
            checkpointed_batch(&plan, Some((&ckpt, "scope-a")), |t| {
                executed.fetch_add(1, Ordering::Relaxed);
                t.seed % 100
            })
        };
        assert_eq!(executed.load(Ordering::Relaxed), 10, "no re-execution");
        assert_eq!(first, resumed);

        // A different scope shares the file but none of the results.
        {
            let ckpt = Checkpoint::open(&path).expect("reopen");
            checkpointed_batch(&plan, Some((&ckpt, "scope-b")), |t| {
                executed.fetch_add(1, Ordering::Relaxed);
                t.seed % 100
            });
        }
        assert_eq!(executed.load(Ordering::Relaxed), 20);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_run_replays_panics_without_rerunning() {
        let path = temp_checkpoint("panic");
        let plan = TrialPlan::new(6, 33);
        let run = |ckpt: &Checkpoint, allow_panic: bool| {
            checkpointed_batch(&plan, Some((ckpt, "s")), |t| {
                if t.index == 2 {
                    assert!(allow_panic, "trial 2 must come from the checkpoint");
                    panic!("boom at 2");
                }
                t.index
            })
        };
        let first = {
            let ckpt = Checkpoint::open(&path).expect("open");
            run(&ckpt, true)
        };
        assert!(first[2].is_panicked());
        let resumed = {
            let ckpt = Checkpoint::open(&path).expect("reopen");
            run(&ckpt, false)
        };
        assert_eq!(first, resumed);
        if let TrialOutcome::Panicked { message } = &resumed[2] {
            assert!(message.contains("boom at 2"), "{message}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_run_completes_a_partial_file() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let path = temp_checkpoint("partial");
        let plan = TrialPlan::new(8, 44);
        // Record only trials 0, 3, 7 — as if the first run was killed.
        {
            let ckpt = Checkpoint::open(&path).expect("open");
            for i in [0u64, 3, 7] {
                ckpt.record(
                    "s",
                    i,
                    serde::Value::Object(vec![(
                        "ok".to_string(),
                        serde::Value::U64(plan.seed(i) % 100),
                    )]),
                )
                .expect("rec");
            }
        }
        let executed = AtomicU64::new(0);
        let outcomes = {
            let ckpt = Checkpoint::open(&path).expect("reopen");
            checkpointed_batch(&plan, Some((&ckpt, "s")), |t| {
                executed.fetch_add(1, Ordering::Relaxed);
                t.seed % 100
            })
        };
        assert_eq!(executed.load(Ordering::Relaxed), 5, "3 of 8 were recorded");
        let expected: Vec<TrialOutcome<u64>> = (0..8)
            .map(|i| TrialOutcome::Ok(plan.seed(i) % 100))
            .collect();
        assert_eq!(outcomes, expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn outcome_encoding_is_ok_or_panicked() {
        let ok = encode_outcome(&TrialOutcome::Ok(42u64));
        assert_eq!(serde_json::to_string(&ok).unwrap(), r#"{"ok":42}"#);
        assert_eq!(decode_outcome::<u64>(&ok), Some(TrialOutcome::Ok(42)));
        let boom = run_isolated(&TrialPlan::new(1, 9), |_| -> u64 { panic!("kaput") });
        let encoded = encode_outcome(&boom[0]);
        assert_eq!(
            serde_json::to_string(&encoded).unwrap(),
            r#"{"panicked":"kaput"}"#
        );
        assert_eq!(decode_outcome::<u64>(&encoded), Some(boom[0].clone()));
        assert_eq!(decode_outcome::<u64>(&serde::Value::U64(42)), None);
    }

    #[test]
    fn checkpoint_none_matches_run_isolated() {
        let plan = TrialPlan::new(12, 55);
        let a: Vec<TrialOutcome<u64>> = run_isolated(&plan, |t| t.seed);
        let b: Vec<TrialOutcome<u64>> = checkpointed_batch(&plan, None, |t| t.seed);
        assert_eq!(a, b);
    }

    #[test]
    fn undecodable_recorded_value_is_recomputed() {
        let path = temp_checkpoint("undecodable");
        let plan = TrialPlan::new(1, 66);
        {
            let ckpt = Checkpoint::open(&path).expect("open");
            // Recorded under an old schema: a string where a u64 is expected.
            ckpt.record(
                "s",
                0,
                serde::Value::Object(vec![(
                    "ok".to_string(),
                    serde::Value::String("stale".to_string()),
                )]),
            )
            .expect("rec");
            let outcomes: Vec<TrialOutcome<u64>> =
                checkpointed_batch(&plan, Some((&ckpt, "s")), |t| t.seed);
            assert_eq!(outcomes, vec![TrialOutcome::Ok(plan.seed(0))]);
        }
        let _ = std::fs::remove_file(&path);
    }
}
