//! E14 — adversary: worst-case fault-plan search with graceful degradation.
//!
//! E13 samples fault plans *randomly* and shows the recovery subsystem heals
//! them (its full grid recovers 100% of trials at boundary radius ≤ 1). This
//! experiment asks the complementary question: how much damage can a
//! *searched* plan do under the same fault budget? For each workload-catalog
//! entry ([`crate::workloads`]) × [`Objective`] grid point it runs several
//! restarts of the deterministic tabu search ([`crate::adversary::search`])
//! over [`FaultPlan`] space; every candidate plan is scored by replaying the
//! workload at a **fixed** evaluation seed and attempting recovery
//! ([`Workload::assess`]) — a plan that defeats recovery outright comes back
//! as a scored [`DegradedRun`](local_algorithms::DegradedRun) census instead
//! of an error.
//!
//! Workload sizes are fixed constants — deliberately *not* scaled by
//! `--full` — so a pinned best-found plan replays against the identical
//! graph no matter which mode found it; `quick`/`full` differ only in search
//! effort (iterations, candidates per iteration, restarts). Restart search
//! seeds derive from the master seed through the shared
//! [`TrialPlan`](crate::trials::TrialPlan) stream, so the whole sweep is a
//! pure function of its configuration, per-restart records are integer-plus-
//! string only, and a checkpoint-resumed sweep reproduces the uninterrupted
//! JSON byte-for-byte. [`artifact_json`] renders the replayable artifact the
//! CI adversary-replay gate pins (see `adversary_replay` in `local-bench`).

use crate::adversary::{search, Evaluation, Objective, SearchConfig};
use crate::checkpoint::Checkpoint;
use crate::grid::{self, Grid, GridOutcome, SweepPoint};
use crate::report::Table;
use crate::trials::TrialOutcome;
use crate::workloads::{workloads, Sizes, Workload, WorkloadSlot};
use local_algorithms::RecoveryPolicy;
use local_model::FaultPlan;
use local_obs::{MetricsRegistry, Trace, TraceSink};
use serde::{Deserialize, Serialize};

/// Vertices in the tree-coloring workload (fixed; see the module docs).
pub const TREE_N: usize = 64;
/// Vertices in the sinkless-orientation and edge-coloring base workloads
/// (fixed, 3-regular).
pub const SINKLESS_N: usize = 48;
/// Vertices in the MIS, ruling-set, and defective-coloring workloads
/// (fixed).
pub const MIS_N: usize = 48;

/// Seed of the workload graph generators.
const GRAPH_SEED: u64 = 0xE14F;
/// The fixed base-run seed every evaluation replays: the fault plan is the
/// *only* variable the search moves, which is what makes a pinned plan's
/// score reproducible.
const EVAL_SEED: u64 = 0xE14D;

/// The fixed catalog sizes of this experiment.
fn sizes() -> Sizes {
    Sizes {
        tree_n: TREE_N,
        sinkless_n: SINKLESS_N,
        mis_n: MIS_N,
    }
}

/// Sweep configuration: search effort only (workload sizes are fixed).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Config {
    /// Tabu-search iterations per restart.
    pub iterations: u64,
    /// Candidate moves proposed per iteration.
    pub candidates: u32,
    /// Tabu tenure (iterations a touched attribute stays banned).
    pub tenure: u32,
    /// Independent search restarts per grid point (each from its own
    /// derived search seed; the best restart wins the row).
    pub restarts: u64,
    /// Maximum vertices a plan may crash.
    pub crash_budget: usize,
    /// Maximum directed edges a plan may hard-drop.
    pub drop_budget: usize,
    /// Master seed the restart search seeds derive from.
    pub master_seed: u64,
    /// Recovery policy the evaluator heals under (same default as E13).
    pub policy: RecoveryPolicy,
}

impl Config {
    /// A laptop-seconds configuration.
    pub fn quick() -> Self {
        Config {
            iterations: 12,
            candidates: 4,
            tenure: 6,
            restarts: 2,
            crash_budget: 4,
            drop_budget: 6,
            master_seed: 0xE14,
            policy: RecoveryPolicy::default(),
        }
    }

    /// The full search EXPERIMENTS.md records and CI pins artifacts from.
    pub fn full() -> Self {
        Config {
            iterations: 40,
            candidates: 6,
            tenure: 8,
            restarts: 4,
            crash_budget: 4,
            drop_budget: 6,
            master_seed: 0xE14,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// One measured grid point: the best plan a workload × objective search
/// found, with its full damage census.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name (a [`crate::workloads::NAMES`] catalog entry).
    pub workload: &'static str,
    /// Objective name (see [`Objective::name`]).
    pub objective: String,
    /// Search restarts attempted.
    pub restarts: u64,
    /// Restarts that panicked (isolated; excluded from the best pick).
    pub panicked: u64,
    /// The captured panic payloads, in restart order.
    pub panic_messages: Vec<String>,
    /// Set when the workload's graph generator failed (typed error text).
    pub error: Option<String>,
    /// Index of the winning restart (ties go to the lowest index).
    pub best_restart: u64,
    /// The winning restart's search seed — with the config, enough to
    /// replay its whole trajectory.
    pub best_search_seed: u64,
    /// The winning plan's objective score.
    pub best_objective: u64,
    /// Recovery radius the winning plan forced (`max_radius + 1` when it
    /// defeated recovery).
    pub radius: u32,
    /// Whether the winning plan defeated recovery entirely.
    pub degraded: bool,
    /// Budget breaches across the winning plan's recovery attempts.
    pub breaches: u64,
    /// Residual violations of the surviving partial labeling.
    pub violations: u64,
    /// Vertices the winning plan crashed.
    pub crashed: u64,
    /// Vertices the base run's budget cut.
    pub cut: u64,
    /// Moves the winning restart committed.
    pub accepted: u64,
    /// Evaluator calls across *all* restarts of this grid point.
    pub evaluations: u64,
    /// The winning [`FaultPlan`], as its exact JSON.
    pub plan_json: String,
    /// The winning plan's degradation report JSON (`null` when recovery
    /// still succeeded).
    pub report_json: String,
}

/// The sweep result: measured grid points, workload-major in
/// [`Objective::ALL`] order, plus the run-wide `search_*` metrics folded
/// from every restart in trial order.
pub type Outcome14 = GridOutcome<Row>;

impl Outcome14 {
    /// The row of one grid point, if measured.
    pub fn get(&self, workload: &str, objective: Objective) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.objective == objective.name())
    }
}

/// What one search restart contributes to its grid point. Integer-plus-
/// string only, so checkpointed records round-trip byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialResult {
    search_seed: u64,
    objective: u64,
    radius: u32,
    degraded: bool,
    breaches: u64,
    violations: u64,
    crashed: u64,
    cut: u64,
    accepted: u64,
    evaluations: u64,
    plan_json: String,
    report_json: String,
    metrics: MetricsRegistry,
}

/// Re-evaluate a plan against the named fixed workload: the entry point the
/// `adversary_replay` gate uses to re-score a pinned artifact. Returns
/// `None` for an unknown workload name (or one whose generator failed).
pub fn evaluate_plan(
    workload: &str,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> Option<(Evaluation, String)> {
    workloads(&sizes(), GRAPH_SEED)
        .into_iter()
        .flatten()
        .find(|w| w.name() == workload)
        .map(|w| w.assess(EVAL_SEED, plan, policy, None))
}

/// One tabu-search restart: search, then re-evaluate the best plan once to
/// capture its degradation report. The search itself evaluates untraced —
/// a traced sweep records the `search_iter` trajectory, not every
/// candidate's engine run.
fn restart(
    w: &dyn Workload,
    objective: Objective,
    cfg: &Config,
    search_seed: u64,
    trace: Option<&Trace>,
) -> TrialResult {
    let scfg = SearchConfig {
        iterations: cfg.iterations,
        candidates: cfg.candidates,
        tenure: cfg.tenure,
        crash_budget: cfg.crash_budget,
        drop_budget: cfg.drop_budget,
        crash_window: w.adversary_crash_window(),
        search_seed,
    };
    let set = local_obs::MetricSet::new();
    let out = search(
        w.graph(),
        FaultPlan::none(),
        objective,
        &scfg,
        |p| w.assess(EVAL_SEED, p, &cfg.policy, None).0,
        trace,
        Some(&set),
    );
    let (eval, report_json) = w.assess(EVAL_SEED, &out.best_plan, &cfg.policy, None);
    debug_assert_eq!(out.best_objective, objective.score(&eval));
    let mut metrics = MetricsRegistry::new();
    metrics.absorb(&set);
    TrialResult {
        search_seed,
        objective: objective.score(&eval),
        radius: eval.radius,
        degraded: eval.degraded,
        breaches: eval.breaches,
        violations: eval.violations,
        crashed: eval.crashed,
        cut: eval.cut,
        accepted: out.accepted,
        evaluations: out.evaluations + 1,
        plan_json: serde_json::to_string(&out.best_plan).expect("plan serializes"),
        report_json,
        metrics,
    }
}

/// The checkpoint scope of one grid point (everything a restart depends on
/// besides its index).
fn scope(cfg: &Config, workload: &str, objective: Objective) -> String {
    format!(
        "e14/{workload}/{}/iters={}/cands={}/tenure={}/crash={}/drop={}/radius={}/seed={}",
        objective.name(),
        cfg.iterations,
        cfg.candidates,
        cfg.tenure,
        cfg.crash_budget,
        cfg.drop_budget,
        cfg.policy.max_radius,
        cfg.master_seed
    )
}

/// Fold one grid point's restart outcomes into a [`Row`]: the best restart
/// wins, ties on the lowest index. Every restart's metric registry — not
/// just the winner's — merges into `metrics`, in restart order.
fn fold_row(
    workload: &'static str,
    objective: Objective,
    cfg: &Config,
    outcomes: Vec<TrialOutcome<TrialResult>>,
    metrics: &mut MetricsRegistry,
) -> Row {
    let mut panicked = 0u64;
    let mut panic_messages = Vec::new();
    let mut evaluations = 0u64;
    let mut best: Option<(u64, TrialResult)> = None;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            TrialOutcome::Panicked { message } => {
                panicked += 1;
                panic_messages.push(message);
            }
            TrialOutcome::Ok(r) => {
                metrics.merge(&r.metrics);
                evaluations += r.evaluations;
                if best.as_ref().is_none_or(|(_, b)| r.objective > b.objective) {
                    best = Some((i as u64, r));
                }
            }
        }
    }
    let (best_restart, b) = best.unwrap_or((
        0,
        TrialResult {
            search_seed: 0,
            objective: 0,
            radius: 0,
            degraded: false,
            breaches: 0,
            violations: 0,
            crashed: 0,
            cut: 0,
            accepted: 0,
            evaluations: 0,
            plan_json: String::new(),
            report_json: "null".to_string(),
            metrics: MetricsRegistry::new(),
        },
    ));
    Row {
        workload,
        objective: objective.name().to_string(),
        restarts: cfg.restarts,
        panicked,
        panic_messages,
        error: None,
        best_restart,
        best_search_seed: b.search_seed,
        best_objective: b.objective,
        radius: b.radius,
        degraded: b.degraded,
        breaches: b.breaches,
        violations: b.violations,
        crashed: b.crashed,
        cut: b.cut,
        accepted: b.accepted,
        evaluations,
        plan_json: b.plan_json,
        report_json: b.report_json,
    }
}

/// The sweep's grid (see [`crate::grid`]): one point per workload ×
/// objective cell, with zero-trial points for failed workload slots. A
/// trial is one search restart.
pub struct Grid14 {
    cfg: Config,
    slots: Vec<WorkloadSlot>,
    points: Vec<SweepPoint>,
}

impl Grid14 {
    /// Build the fixed workloads and the grid of `cfg`'s sweep.
    pub fn new(cfg: &Config) -> Self {
        let slots = workloads(&sizes(), GRAPH_SEED);
        let mut points = Vec::new();
        for slot in &slots {
            let (name, trials) = match slot {
                Ok(w) => (w.name(), cfg.restarts),
                Err((name, _)) => (*name, 0),
            };
            for objective in Objective::ALL {
                points.push(SweepPoint {
                    scope: scope(cfg, name, objective),
                    trials,
                });
            }
        }
        Grid14 {
            cfg: cfg.clone(),
            slots,
            points,
        }
    }

    /// The workload slot and objective of point `point`.
    fn coords(&self, point: usize) -> (&WorkloadSlot, Objective) {
        let per_slot = Objective::ALL.len();
        (
            &self.slots[point / per_slot],
            Objective::ALL[point % per_slot],
        )
    }
}

impl Grid for Grid14 {
    type Record = TrialResult;
    type Row = Row;

    fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    fn master_seed(&self) -> u64 {
        self.cfg.master_seed
    }

    fn trial(&self, point: usize, seed: u64, trace: Option<&Trace>) -> TrialResult {
        let (slot, objective) = self.coords(point);
        let w = slot
            .as_ref()
            .expect("zero-trial error points run no trials");
        restart(w.as_ref(), objective, &self.cfg, seed, trace)
    }

    fn fold(
        &self,
        point: usize,
        outcomes: Vec<TrialOutcome<TrialResult>>,
        metrics: &mut MetricsRegistry,
    ) -> Row {
        match self.coords(point) {
            (Err((name, err)), objective) => Row {
                restarts: 0,
                error: Some(err.to_string()),
                ..fold_row(name, objective, &self.cfg, outcomes, metrics)
            },
            (Ok(w), objective) => fold_row(w.name(), objective, &self.cfg, outcomes, metrics),
        }
    }
}

/// Run the sweep: isolated restarts, resumable from `checkpoint`, and with
/// a `sink`, every restart emits one `search_iter` event per search
/// iteration (committed move, committed score, running best) under restart
/// numbers unique across the whole grid.
pub fn run(
    cfg: &Config,
    checkpoint: Option<&Checkpoint>,
    sink: Option<&mut dyn TraceSink>,
) -> Outcome14 {
    grid::run(&Grid14::new(cfg), checkpoint, sink)
}

/// Render one row's pinned replay artifact: the best-found plan, its seed
/// lineage, and its damage census, in one self-contained JSON object. The
/// CI replay gate re-evaluates the embedded plan and asserts the re-rendered
/// artifact is byte-identical.
pub fn artifact_json(cfg: &Config, row: &Row) -> String {
    let plan: serde::Value = serde_json::from_str(&row.plan_json).unwrap_or(serde::Value::Null);
    let report: serde::Value = serde_json::from_str(&row.report_json).unwrap_or(serde::Value::Null);
    let eval = Evaluation {
        radius: row.radius,
        degraded: row.degraded,
        breaches: row.breaches,
        violations: row.violations,
        crashed: row.crashed,
        cut: row.cut,
    };
    let value = serde::Value::Object(vec![
        (
            "experiment".to_string(),
            serde::Value::String("E14".to_string()),
        ),
        (
            "workload".to_string(),
            serde::Value::String(row.workload.to_string()),
        ),
        (
            "objective".to_string(),
            serde::Value::String(row.objective.clone()),
        ),
        ("eval_seed".to_string(), serde::Value::U64(EVAL_SEED)),
        (
            "search".to_string(),
            serde::Value::Object(vec![
                ("iterations".to_string(), serde::Value::U64(cfg.iterations)),
                (
                    "candidates".to_string(),
                    serde::Value::U64(u64::from(cfg.candidates)),
                ),
                (
                    "tenure".to_string(),
                    serde::Value::U64(u64::from(cfg.tenure)),
                ),
                (
                    "crash_budget".to_string(),
                    serde::Value::U64(cfg.crash_budget as u64),
                ),
                (
                    "drop_budget".to_string(),
                    serde::Value::U64(cfg.drop_budget as u64),
                ),
                ("restart".to_string(), serde::Value::U64(row.best_restart)),
                (
                    "search_seed".to_string(),
                    serde::Value::U64(row.best_search_seed),
                ),
            ]),
        ),
        ("policy".to_string(), cfg.policy.to_value()),
        ("score".to_string(), serde::Value::U64(row.best_objective)),
        ("evaluation".to_string(), eval.to_value()),
        ("plan".to_string(), plan),
        ("report".to_string(), report),
    ]);
    serde_json::to_string(&value).expect("artifact serializes")
}

/// Render the EXPERIMENTS.md table.
pub fn table(out: &Outcome14) -> Table {
    let mut t = Table::new(
        "E14: worst-case fault plans found by adversary search".to_string(),
        &[
            "workload",
            "objective",
            "score",
            "radius",
            "degraded",
            "breach",
            "viol",
            "crash+cut",
            "accepted",
            "evals",
        ],
    );
    for r in &out.rows {
        let (score, radius) = match &r.error {
            Some(_) => ("error".to_string(), "-".to_string()),
            None => (r.best_objective.to_string(), r.radius.to_string()),
        };
        t.push(vec![
            r.workload.to_string(),
            r.objective.clone(),
            score,
            radius,
            if r.degraded { "yes" } else { "no" }.to_string(),
            r.breaches.to_string(),
            r.violations.to_string(),
            format!("{}+{}", r.crashed, r.cut),
            r.accepted.to_string(),
            r.evaluations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn tiny() -> Config {
        Config {
            iterations: 4,
            candidates: 3,
            tenure: 3,
            restarts: 1,
            crash_budget: 3,
            drop_budget: 4,
            master_seed: 7,
            policy: RecoveryPolicy::default(),
        }
    }

    #[test]
    fn grid_is_complete_and_budgets_hold() {
        let out = run(&tiny(), None, None);
        assert_eq!(out.rows.len(), NAMES.len() * Objective::ALL.len());
        for r in &out.rows {
            assert!(r.error.is_none(), "{}: {:?}", r.workload, r.error);
            assert_eq!(
                r.panicked, 0,
                "{}/{}: no restart may panic",
                r.workload, r.objective
            );
            assert!(r.evaluations > 0);
            let plan: FaultPlan = serde_json::from_str(&r.plan_json).expect("plan round-trips");
            assert!(plan.crash_count() <= tiny().crash_budget);
            assert!(plan.dropped_edge_count() <= tiny().drop_budget);
            if r.degraded {
                assert_eq!(r.radius, tiny().policy.max_radius + 1);
                assert!(r.report_json.contains("\"trail\""));
            } else {
                assert_eq!(r.report_json, "null");
            }
        }
        assert!(!table(&out).is_empty());
    }

    #[test]
    fn traced_sweep_emits_search_events() {
        use local_obs::{EventData, MemorySink};

        let cfg = tiny();
        let mut sink = MemorySink::new();
        run(&cfg, None, Some(&mut sink));
        let events = sink.into_events();
        let iters = events
            .iter()
            .filter(|e| matches!(&e.data, EventData::SearchIter { .. }))
            .count() as u64;
        // One search_iter per iteration per restart per grid point.
        assert_eq!(
            iters,
            cfg.iterations * cfg.restarts * (NAMES.len() * Objective::ALL.len()) as u64
        );
    }

    #[test]
    fn pinned_artifacts_replay_to_identical_bytes() {
        let cfg = tiny();
        let out = run(&cfg, None, None);
        for row in &out.rows {
            let artifact = artifact_json(&cfg, row);
            // Parse → re-render is byte-stable (field order preserved,
            // numbers exact).
            let value: serde::Value = serde_json::from_str(&artifact).unwrap();
            assert_eq!(artifact, serde_json::to_string(&value).unwrap());
            // Re-evaluating the embedded plan reproduces the pinned census.
            let plan: FaultPlan = serde_json::from_str(&row.plan_json).unwrap();
            let (eval, report) =
                evaluate_plan(row.workload, &plan, &cfg.policy).expect("known workload");
            let objective = Objective::from_name(&row.objective).unwrap();
            assert_eq!(objective.score(&eval), row.best_objective);
            assert_eq!(report, row.report_json);
            assert_eq!(
                serde_json::to_string(&eval).unwrap(),
                serde_json::to_string(&Evaluation {
                    radius: row.radius,
                    degraded: row.degraded,
                    breaches: row.breaches,
                    violations: row.violations,
                    crashed: row.crashed,
                    cut: row.cut,
                })
                .unwrap()
            );
        }
    }

    #[test]
    fn evaluate_plan_rejects_unknown_workloads() {
        let policy = RecoveryPolicy::default();
        assert!(evaluate_plan("warp-drive", &FaultPlan::none(), &policy).is_none());
        // The trivial plan on a real workload recovers cleanly.
        let (eval, report) = evaluate_plan("mis", &FaultPlan::none(), &policy).unwrap();
        assert!(!eval.degraded);
        assert_eq!(eval.crashed + eval.cut, 0);
        assert_eq!(report, "null");
    }
}
