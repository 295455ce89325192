//! Worst-case fault-plan search: a deterministic tabu optimizer over the
//! [`FaultPlan`] move neighborhood.
//!
//! E12/E13 sample fault plans *randomly* from a [`FaultSpec`] grid and report
//! how the paper's algorithms degrade and recover on average. This module is
//! the adversarial counterpart: instead of sampling, it *searches* the plan
//! space for the worst case — the crash schedule and hard edge-drop set that
//! maximizes a chosen damage [`Objective`] against a concrete workload. The
//! search is classic attribute-tabu local search (PARTIALCOL-style): each
//! iteration proposes a fixed number of candidate moves from
//! [`FaultPlan::propose`], filters the ones that would exceed the adversary's
//! fault budget, scores the mutated plans with a caller-supplied evaluator,
//! and commits the best admissible candidate — recently touched attributes
//! (a vertex's crash slot, an edge's drop slot) are tabu for a tenure unless
//! the move beats the best plan found so far (aspiration).
//!
//! Everything is a pure function of `(graph, start plan, config)`: move
//! proposals replay from [`FaultMove::seed`]`(search_seed, step)`, candidate
//! ties break on proposal order, and the evaluator is required to be
//! deterministic. Rerunning a search with the same inputs reproduces the
//! same trajectory, the same [`SearchOutcome`], and byte-identical artifact
//! JSON — the property the pinned-adversary replay gate in CI asserts.
//!
//! [`FaultSpec`]: local_model::FaultSpec

use local_graphs::Graph;
use local_model::{FaultMove, FaultPlan};
use local_obs::{EventData, MetricId, MetricSet, Obs, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Score scale separating an objective's primary axis from its tie-breaker
/// (primary counts stay far below this in any workload the repo runs).
const SCALE: u64 = 1 << 20;

/// What the adversary maximizes. Every objective folds an [`Evaluation`]
/// into a single `u64` score: the primary axis scaled by [`SCALE`] plus a
/// secondary tie-breaker, so "strictly larger score" always means "strictly
/// worse for the algorithm" on the primary axis first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// The boundary radius recovery needed (degraded runs count as
    /// `max_radius + 1`); ties broken by residual violations.
    RecoveryRadius,
    /// Budget breaches of the recovery attempts; ties broken by radius.
    BudgetBreaches,
    /// Residual `check_partial` violations of the base run; ties broken by
    /// radius.
    ResidualViolations,
    /// Crashed plus budget-cut vertices of the base run; ties broken by
    /// radius.
    CrashedCut,
}

impl Objective {
    /// Every objective, in the order the E14 grid sweeps them.
    pub const ALL: [Objective; 4] = [
        Objective::RecoveryRadius,
        Objective::BudgetBreaches,
        Objective::ResidualViolations,
        Objective::CrashedCut,
    ];

    /// The stable snake_case name used in artifacts, rows, and trace output.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::RecoveryRadius => "recovery_radius",
            Objective::BudgetBreaches => "budget_breaches",
            Objective::ResidualViolations => "residual_violations",
            Objective::CrashedCut => "crashed_cut",
        }
    }

    /// Parse a [`name`](Objective::name) back into the objective.
    pub fn from_name(name: &str) -> Option<Objective> {
        Objective::ALL.into_iter().find(|o| o.name() == name)
    }

    /// Fold an evaluation into the scalar the search maximizes.
    pub fn score(&self, e: &Evaluation) -> u64 {
        match self {
            Objective::RecoveryRadius => u64::from(e.radius) * SCALE + e.violations.min(SCALE - 1),
            Objective::BudgetBreaches => e.breaches * SCALE + u64::from(e.radius),
            Objective::ResidualViolations => e.violations * SCALE + u64::from(e.radius),
            Objective::CrashedCut => (e.crashed + e.cut) * SCALE + u64::from(e.radius),
        }
    }
}

impl serde::Serialize for Objective {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

impl serde::Deserialize for Objective {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let name = String::from_value(v)?;
        Objective::from_name(&name)
            .ok_or_else(|| serde::DeError(format!("unknown objective `{name}`")))
    }
}

/// What one evaluation of a candidate plan measured: the damage census the
/// objectives score. Produced by a workload-specific evaluator (run the
/// faulty execution, attempt recovery, fold the [`DegradedRun`] or
/// [`Recovery`] into counts).
///
/// [`DegradedRun`]: local_algorithms::DegradedRun
/// [`Recovery`]: local_algorithms::Recovery
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Boundary radius recovery needed; a plan that defeats recovery
    /// entirely reports the policy's `max_radius + 1`.
    pub radius: u32,
    /// Whether recovery was defeated (the run ended in a `DegradedRun`).
    pub degraded: bool,
    /// Budget breaches across the recovery attempt trail.
    pub breaches: u64,
    /// Residual `check_partial` violations of the surviving partial labeling.
    pub violations: u64,
    /// Vertices the plan crashed in the base run.
    pub crashed: u64,
    /// Vertices the base run's budget cut.
    pub cut: u64,
}

/// The knobs of one tabu search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SearchConfig {
    /// Search iterations (one committed move per iteration, at most).
    pub iterations: u64,
    /// Candidate moves proposed per iteration.
    pub candidates: u32,
    /// Iterations a touched attribute stays tabu.
    pub tenure: u32,
    /// Maximum vertices the plan may crash (a move that would schedule a
    /// crash on a *new* vertex past this cap is inadmissible; re-timing an
    /// already-crashed vertex is always allowed).
    pub crash_budget: usize,
    /// Maximum directed edges the plan may hard-drop.
    pub drop_budget: usize,
    /// Crash rounds are proposed from `0..crash_window.max(1)`.
    pub crash_window: u32,
    /// Seed of the move-proposal stream (see [`FaultMove::seed`]).
    pub search_seed: u64,
}

/// What a search found.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best plan encountered anywhere on the trajectory.
    pub best_plan: FaultPlan,
    /// Its score under the search objective.
    pub best_objective: u64,
    /// Its full evaluation.
    pub best_eval: Evaluation,
    /// Moves committed (iterations that were not stuck).
    pub accepted: u64,
    /// Evaluator calls spent (the search's real cost unit).
    pub evaluations: u64,
}

/// Whether committing `mv` on `plan` would stay inside the adversary's
/// fault budget.
fn admissible(plan: &FaultPlan, mv: &FaultMove, cfg: &SearchConfig) -> bool {
    match *mv {
        FaultMove::SetCrash { v, .. } => {
            let already = plan.crash_schedule().get(v).copied().flatten().is_some();
            already || plan.crash_count() < cfg.crash_budget
        }
        FaultMove::ClearCrash { .. } => true,
        FaultMove::ToggleDrop { slot } => {
            let turning_on = plan.edge_drop(slot) == 0.0;
            !turning_on || plan.dropped_edge_count() < cfg.drop_budget
        }
    }
}

/// Run the tabu search from `start`, maximizing `objective` under
/// `evaluate`. The evaluator must be a deterministic function of the plan
/// (run the workload at a fixed seed); the search itself adds no
/// nondeterminism.
///
/// Every iteration emits one `search_iter` event carrying the committed
/// move (or `stuck` when no candidate was admissible), the committed score,
/// and the running best, to `trace` and folded into `metrics`. The
/// evaluation total and the final best (a zero-iteration search emits no
/// event) go to `metrics` directly.
pub fn search<F>(
    g: &Graph,
    start: FaultPlan,
    objective: Objective,
    cfg: &SearchConfig,
    evaluate: F,
    trace: Option<&Trace>,
    metrics: Option<&MetricSet>,
) -> SearchOutcome
where
    F: Fn(&FaultPlan) -> Evaluation,
{
    let mut current = start;
    let current_eval = evaluate(&current);
    let mut current_score = objective.score(&current_eval);
    let mut best_plan = current.clone();
    let mut best_eval = current_eval;
    let mut best_score = current_score;
    let mut accepted = 0u64;
    let mut evaluations = 1u64;
    // Attribute → first iteration it is free again.
    let mut tabu: HashMap<u64, u64> = HashMap::new();
    let obs = Obs::new(trace, metrics);

    for iter in 0..cfg.iterations {
        let mut chosen: Option<(FaultMove, FaultPlan, Evaluation, u64)> = None;
        for c in 0..u64::from(cfg.candidates) {
            let step = iter * u64::from(cfg.candidates) + c;
            let mv = current.propose(g, FaultMove::seed(cfg.search_seed, step), cfg.crash_window);
            if !admissible(&current, &mv, cfg) {
                continue;
            }
            let mut cand = current.clone();
            cand.apply(g, &mv);
            if cand == current {
                continue; // no-op (e.g. re-toggling into the same state)
            }
            let eval = evaluate(&cand);
            evaluations += 1;
            let s = objective.score(&eval);
            let is_tabu = tabu.get(&mv.key()).is_some_and(|&free| free > iter);
            if is_tabu && s <= best_score {
                continue; // aspiration: tabu yields only to a new global best
            }
            // Strict > keeps ties on the earliest proposal: deterministic.
            if chosen.as_ref().is_none_or(|(.., cs)| s > *cs) {
                chosen = Some((mv, cand, eval, s));
            }
        }
        let (label, committed, took) = match chosen {
            Some((mv, cand, eval, s)) => {
                tabu.insert(mv.key(), iter + u64::from(cfg.tenure));
                current = cand;
                current_score = s;
                accepted += 1;
                if s > best_score {
                    best_score = s;
                    best_plan = current.clone();
                    best_eval = eval;
                }
                (mv.describe(), s, true)
            }
            None => ("stuck".to_string(), current_score, false),
        };
        obs.emit(|| EventData::SearchIter {
            iteration: iter,
            objective: committed,
            best: best_score,
            mv: label,
            accepted: took,
            tenure: cfg.tenure,
        });
    }

    if let Some(ms) = obs.metrics {
        ms.add(MetricId::SearchEvaluations, evaluations);
        ms.gauge_max(MetricId::SearchBestObjective, best_score);
    }
    SearchOutcome {
        best_plan,
        best_objective: best_score,
        best_eval,
        accepted,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_obs::MemorySink;

    /// A synthetic evaluator that needs no engine run: damage is just the
    /// plan's own fault counts, so the search optimum is the budget cap.
    fn census(p: &FaultPlan) -> Evaluation {
        Evaluation {
            radius: 0,
            degraded: false,
            breaches: 0,
            violations: p.crash_count() as u64,
            crashed: p.crash_count() as u64,
            cut: p.dropped_edge_count() as u64,
        }
    }

    fn cfg() -> SearchConfig {
        SearchConfig {
            iterations: 60,
            candidates: 8,
            tenure: 5,
            crash_budget: 3,
            drop_budget: 4,
            crash_window: 4,
            search_seed: 0xE14,
        }
    }

    #[test]
    fn search_is_deterministic() {
        let g = gen::cycle(12);
        let a = search(
            &g,
            FaultPlan::none(),
            Objective::CrashedCut,
            &cfg(),
            census,
            None,
            None,
        );
        let b = search(
            &g,
            FaultPlan::none(),
            Objective::CrashedCut,
            &cfg(),
            census,
            None,
            None,
        );
        assert_eq!(a.best_objective, b.best_objective);
        assert_eq!(a.best_plan, b.best_plan);
        assert_eq!(a.best_eval, b.best_eval);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(
            serde_json::to_string(&a.best_plan).unwrap(),
            serde_json::to_string(&b.best_plan).unwrap()
        );
    }

    #[test]
    fn search_respects_fault_budgets_and_reaches_the_cap() {
        let g = gen::cycle(12);
        let c = cfg();
        let out = search(
            &g,
            FaultPlan::none(),
            Objective::CrashedCut,
            &c,
            census,
            None,
            None,
        );
        assert!(out.best_plan.crash_count() <= c.crash_budget);
        assert!(out.best_plan.dropped_edge_count() <= c.drop_budget);
        // CrashedCut's optimum under the census evaluator is both caps
        // saturated; 60 iterations on a 12-cycle are plenty to find it.
        assert_eq!(out.best_plan.crash_count(), c.crash_budget);
        assert_eq!(out.best_plan.dropped_edge_count(), c.drop_budget);
        assert_eq!(
            out.best_objective,
            (c.crash_budget + c.drop_budget) as u64 * super::SCALE
        );
        assert!(out.accepted > 0);
        assert!(out.evaluations > out.accepted);
    }

    #[test]
    fn different_seeds_walk_different_trajectories() {
        let g = gen::cycle(12);
        let a = search(
            &g,
            FaultPlan::none(),
            Objective::CrashedCut,
            &cfg(),
            census,
            None,
            None,
        );
        let other = SearchConfig {
            search_seed: 0xBEEF,
            ..cfg()
        };
        let b = search(
            &g,
            FaultPlan::none(),
            Objective::CrashedCut,
            &other,
            census,
            None,
            None,
        );
        // Same optimum score (the evaluator is plan-count symmetric), but the
        // committed fault sets differ with overwhelming probability.
        assert_eq!(a.best_objective, b.best_objective);
        assert_ne!(a.best_plan, b.best_plan);
    }

    #[test]
    fn objectives_score_their_own_axis() {
        let e = Evaluation {
            radius: 2,
            degraded: false,
            breaches: 1,
            violations: 7,
            crashed: 3,
            cut: 4,
        };
        assert_eq!(Objective::RecoveryRadius.score(&e), 2 * SCALE + 7);
        assert_eq!(Objective::BudgetBreaches.score(&e), SCALE + 2);
        assert_eq!(Objective::ResidualViolations.score(&e), 7 * SCALE + 2);
        assert_eq!(Objective::CrashedCut.score(&e), 7 * SCALE + 2);
    }

    #[test]
    fn objective_names_round_trip() {
        for o in Objective::ALL {
            assert_eq!(Objective::from_name(o.name()), Some(o));
            let back = Objective::from_value(&o.to_value()).unwrap();
            assert_eq!(back, o);
        }
        assert_eq!(Objective::from_name("chaos"), None);
        assert!(Objective::from_value(&serde::Value::String("chaos".into())).is_err());
    }

    #[test]
    fn evaluation_serde_round_trips() {
        let e = Evaluation {
            radius: 4,
            degraded: true,
            breaches: 2,
            violations: 9,
            crashed: 5,
            cut: 1,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Evaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn traced_search_emits_one_event_per_iteration() {
        let g = gen::cycle(12);
        let c = cfg();
        let mut sink = MemorySink::new();
        let trace = Trace::new(0);
        let out = search(
            &g,
            FaultPlan::none(),
            Objective::CrashedCut,
            &c,
            census,
            Some(&trace),
            None,
        );
        trace.drain_into(&mut sink);
        let iters: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match &e.data {
                EventData::SearchIter {
                    iteration,
                    best,
                    accepted,
                    tenure,
                    ..
                } => Some((*iteration, *best, *accepted, *tenure)),
                _ => None,
            })
            .collect();
        assert_eq!(iters.len() as u64, c.iterations);
        // Iterations are sequential and the running best never regresses.
        let mut prev_best = 0;
        for (i, (iteration, best, _, tenure)) in iters.iter().enumerate() {
            assert_eq!(*iteration, i as u64);
            assert!(*best >= prev_best);
            assert_eq!(*tenure, c.tenure);
            prev_best = *best;
        }
        assert_eq!(
            iters.iter().filter(|(.., took, _)| *took).count() as u64,
            out.accepted
        );
        assert_eq!(iters.last().unwrap().1, out.best_objective);
    }
}
