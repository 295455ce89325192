//! Shattering-style self-healing: finish a faulty run's partial labeling.
//!
//! The paper's Theorem 10 structure — a randomized phase solves most
//! vertices, a deterministic finisher cleans up the small residual
//! components — is exactly a recovery algorithm if the "unsolved" vertices
//! are the ones a fault silenced. [`recover`] drives it generically:
//!
//! 1. The *core* is every unlabeled vertex plus every labeled vertex whose
//!    checked view violates the problem (a dropped message can leave two
//!    halted neighbors mutually inconsistent, so non-`Halted` alone is not
//!    enough).
//! 2. The core is dilated by a boundary radius into a
//!    [`Residue`](local_model::Residue); everything outside stays *frozen*.
//! 3. A per-problem [`Finisher`] relabels only the residue, treating the
//!    frozen boundary labels as constraints.
//! 4. The finisher's labels are spliced into a complete labeling and gated
//!    by [`check_complete`]; on failure the radius escalates (1 → 2 → …)
//!    until [`RecoveryPolicy::max_radius`], and any vertex the failed
//!    splice left violating is absorbed into the core — so a defect the
//!    relabeling pushed just past the frontier is *surrounded* on the next
//!    attempt rather than chased by radius alone. Exhaustion reports a
//!    typed [`RecoveryError`].
//!
//! Six finishers cover the workload catalog: [`SinklessFinisher`]
//! (cycle-seeded BFS orientation), [`GreedyColoringFinisher`] (boundary-first
//! greedy Δ-coloring), [`LubyRestartFinisher`] (a fresh Luby run on the
//! residue, restricted away from frozen MIS members),
//! [`EdgeGreedyFinisher`] (edge recoloring against frozen port
//! announcements), [`RulingSetFinisher`] (retain-then-join sweeps at ruling
//! distance `k`), and [`DefectiveGreedyFinisher`] (defect-budgeted greedy
//! recoloring with an improving-flip cleanup).

use crate::mis::luby::Luby;
use crate::sync::run_sync;
use local_graphs::Graph;
use local_lcl::problems::Orientation;
use local_lcl::{check_complete, check_partial, Labeling, LclProblem};
use local_model::{
    derived_u64, AttemptRecord, Breach, Budget, ExecSpec, FaultPlan, Mode, RecoveryError, Residue,
};
use local_obs::{EventData, MetricId, MetricSet, Trace};
use std::collections::VecDeque;

/// How hard [`recover`] tries: the escalation ladder and the per-attempt
/// watchdog budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Largest boundary radius tried (attempt `k` uses radius `k`).
    pub max_radius: u32,
    /// Watchdog budget each finisher attempt runs under.
    pub budget: Budget,
}

// Hand-written because `Budget` serializes by hand (see `local_model`).
impl serde::Serialize for RecoveryPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("max_radius".to_string(), self.max_radius.to_value()),
            ("budget".to_string(), self.budget.to_value()),
        ])
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_radius: 3,
            budget: Budget::rounds(100_000),
        }
    }
}

/// A successful recovery: the complete labeling plus how much it cost.
#[derive(Debug, Clone)]
pub struct Recovery<L> {
    /// The complete labeling, verified by [`check_complete`].
    pub labels: Labeling<L>,
    /// Attempts consumed (0 if the partial labeling was already complete and
    /// valid; otherwise the radius of the successful attempt).
    pub attempts: u32,
    /// The boundary radius of the successful attempt (0 if none was needed).
    pub radius: u32,
    /// Core vertices of the successful attempt: the unlabeled/violating
    /// vertices the recovery started from, plus any violations absorbed
    /// from earlier failed splices.
    pub core_size: usize,
    /// Residue vertices relabeled by the successful attempt.
    pub residue_size: usize,
    /// Extra rounds the successful finisher attempt paid.
    pub extra_rounds: u32,
}

/// What a [`Finisher`] attempt produced: one label per residue member (in
/// local index order) and the rounds the finishing pass cost.
#[derive(Debug, Clone)]
pub struct Finish<L> {
    /// Labels for `residue.members()`, by local index.
    pub labels: Vec<L>,
    /// Round cost of the pass (BFS depth for the deterministic finishers,
    /// decided rounds for the Luby restart).
    pub rounds: u32,
}

/// A problem-specific deterministic finisher: relabel the residue so the
/// spliced labeling satisfies the problem, treating labels outside the
/// residue as frozen constraints.
pub trait Finisher<P: LclProblem> {
    /// Run one attempt at the given boundary radius.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Infeasible`] if the frozen boundary admits no valid
    /// completion at this radius (the driver escalates);
    /// [`RecoveryError::Budget`] if the attempt breached `budget` (the
    /// driver gives up).
    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<P::Label>],
        budget: &Budget,
        attempt: u32,
    ) -> Result<Finish<P::Label>, RecoveryError>;

    /// A short name identifying the finisher in trace `recovery` events.
    fn name(&self) -> &'static str {
        "finisher"
    }
}

/// Recover a complete valid labeling from a partial one by escalating
/// residue repair (see the module docs for the drive cycle).
///
/// With a `trace`, the run is wrapped in a `recover` span and every
/// escalation attempt emits a `recovery` event carrying the core/residue
/// sizes, the finisher used, and whether the spliced labeling verified.
/// With `metrics`, every attempt adds to the `recovery_*` counters
/// (attempts, core and residue sizes, ok/failed verdicts, extra rounds) and
/// raises the `recovery_radius_max` gauge.
///
/// # Errors
///
/// A failure comes back as a scored [`DegradedRun`] (surviving census,
/// attempt trail, and the typed error) so callers that must always produce
/// a row — the adversary search above all — never special-case the error
/// path. Its `error` is [`RecoveryError::Budget`] as soon as any attempt
/// breaches its budget; otherwise the last attempt's
/// [`RecoveryError::Infeasible`], or [`RecoveryError::Exhausted`] if every
/// radius spliced but failed verification.
///
/// # Panics
///
/// Panics if `partial.len() != g.n()`.
pub fn recover<P, F>(
    problem: &P,
    g: &Graph,
    partial: &[Option<P::Label>],
    finisher: &F,
    policy: &RecoveryPolicy,
    trace: Option<&Trace>,
    metrics: Option<&MetricSet>,
) -> Result<Recovery<P::Label>, Box<DegradedRun>>
where
    P: LclProblem,
    F: Finisher<P>,
{
    assert_eq!(partial.len(), g.n(), "labeling must cover every vertex");
    let _span = trace.map(|t| t.span("recover"));
    let verdict = check_partial(problem, g, partial);
    let mut core = vec![false; g.n()];
    let mut core_size = 0usize;
    for (v, label) in partial.iter().enumerate() {
        if label.is_none() {
            core[v] = true;
            core_size += 1;
        }
    }
    for violation in &verdict.violations {
        if !core[violation.vertex] {
            core[violation.vertex] = true;
            core_size += 1;
        }
    }
    if core_size == 0 {
        let labels: Labeling<P::Label> = partial
            .iter()
            .map(|l| l.clone().expect("no holes when the core is empty"))
            .collect();
        return Ok(Recovery {
            labels,
            attempts: 0,
            radius: 0,
            core_size: 0,
            residue_size: 0,
            extra_rounds: 0,
        });
    }

    // The census of what survives if recovery gives up: the input
    // partial labeling's verdict, taken once above.
    let degrade = |error: RecoveryError, trail: Vec<AttemptRecord>| {
        Box::new(DegradedRun {
            n: g.n(),
            labeled: partial.iter().filter(|l| l.is_some()).count(),
            checked: verdict.checked,
            valid: verdict.valid,
            skipped: verdict.skipped,
            violations: verdict.violations.len(),
            trail,
            error,
        })
    };

    let emit = |attempt: u32, core_size: usize, residue_size: usize, ok: bool, extra: u32| {
        if let Some(ms) = metrics {
            ms.incr(MetricId::RecoveryAttempts);
            ms.incr(if ok {
                MetricId::RecoveryOk
            } else {
                MetricId::RecoveryFailed
            });
            ms.add(MetricId::RecoveryCore, core_size as u64);
            ms.add(MetricId::RecoveryResidue, residue_size as u64);
            ms.add(MetricId::RecoveryExtraRounds, u64::from(extra));
            ms.gauge_max(MetricId::RecoveryRadiusMax, u64::from(attempt));
        }
        if let Some(tr) = trace {
            tr.emit(EventData::Recovery {
                attempt,
                radius: attempt,
                core: core_size as u64,
                residue: residue_size as u64,
                finisher: finisher.name().to_string(),
                ok,
                extra_rounds: extra,
            });
        }
    };

    let mut last_violations = verdict.violations.len();
    let mut last_infeasible: Option<RecoveryError> = None;
    let mut trail: Vec<AttemptRecord> = Vec::new();
    let record = |trail: &mut Vec<AttemptRecord>,
                  attempt: u32,
                  core_size: usize,
                  residue_size: usize,
                  violations: usize,
                  breach: Option<local_model::Breach>,
                  infeasible: Option<String>| {
        trail.push(AttemptRecord {
            attempt,
            radius: attempt,
            core_size,
            residue_size,
            violations,
            breach,
            infeasible,
        });
    };
    for attempt in 1..=policy.max_radius {
        let residue = Residue::extract(g, &core, attempt);
        match finisher.finish(g, &residue, partial, &policy.budget, attempt) {
            Err(err @ RecoveryError::Budget { .. }) => {
                emit(attempt, core_size, residue.len(), false, 0);
                let breach = match err {
                    RecoveryError::Budget { breach, .. } => Some(breach),
                    _ => None,
                };
                record(
                    &mut trail,
                    attempt,
                    core_size,
                    residue.len(),
                    0,
                    breach,
                    None,
                );
                return Err(degrade(err, trail));
            }
            Err(err) => {
                emit(attempt, core_size, residue.len(), false, 0);
                let reason = match &err {
                    RecoveryError::Infeasible { reason, .. } => Some(reason.clone()),
                    _ => None,
                };
                record(
                    &mut trail,
                    attempt,
                    core_size,
                    residue.len(),
                    0,
                    None,
                    reason,
                );
                last_infeasible = Some(err);
                continue;
            }
            Ok(finish) => {
                assert_eq!(
                    finish.labels.len(),
                    residue.len(),
                    "finisher must label every residue member"
                );
                let labels: Labeling<P::Label> = g
                    .vertices()
                    .map(|v| match residue.local(v) {
                        Some(i) => finish.labels[i].clone(),
                        None => partial[v]
                            .clone()
                            .expect("unlabeled vertices are in the core"),
                    })
                    .collect();
                let spliced = check_complete(problem, g, &labels);
                emit(
                    attempt,
                    core_size,
                    residue.len(),
                    spliced.violations.is_empty(),
                    finish.rounds,
                );
                record(
                    &mut trail,
                    attempt,
                    core_size,
                    residue.len(),
                    spliced.violations.len(),
                    None,
                    None,
                );
                if spliced.violations.is_empty() {
                    return Ok(Recovery {
                        labels,
                        attempts: attempt,
                        radius: attempt,
                        core_size,
                        residue_size: residue.len(),
                        extra_rounds: finish.rounds,
                    });
                }
                // Shattering-style escalation: a defect the splice could not
                // clear — including one the finisher's own relabeling pushed
                // just past the residue frontier — joins the damaged core,
                // so the next attempt's residue is grown around it instead
                // of chasing it with radius alone.
                for violation in &spliced.violations {
                    if !core[violation.vertex] {
                        core[violation.vertex] = true;
                        core_size += 1;
                    }
                }
                last_violations = spliced.violations.len();
                last_infeasible = None;
            }
        }
    }
    let err = last_infeasible.unwrap_or(RecoveryError::Exhausted {
        attempts: policy.max_radius,
        max_radius: policy.max_radius,
        violations: last_violations,
        trail: trail.clone(),
    });
    Err(degrade(err, trail))
}

/// The graceful end of a failed recovery: a typed census of what survived
/// plus the full escalation trail, instead of a bare [`RecoveryError`].
///
/// Adversarial trials consume this (as [`recover`]'s error) so every fault
/// plan produces a *scored* row — a plan that wrecks recovery outright is
/// the most interesting one, not an error to discard. The census fields are
/// [`check_partial`] over the input partial labeling (what stands when
/// recovery gives up); `trail` is shared verbatim with
/// [`RecoveryError::Exhausted`].
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// Total vertices in the graph.
    pub n: usize,
    /// Vertices still carrying a label in the surviving partial labeling.
    pub labeled: usize,
    /// Labeled vertices whose full radius-`problem.radius()` ball was
    /// labeled, so their view could be checked.
    pub checked: usize,
    /// Checked vertices whose view satisfied the problem.
    pub valid: usize,
    /// Vertices not checked: unlabeled vertices, plus labeled ones with an
    /// unlabeled vertex in their checking ball (`checked + skipped = n`).
    pub skipped: usize,
    /// Residual violations among the checked vertices.
    pub violations: usize,
    /// The per-attempt escalation history (one record per radius tried).
    pub trail: Vec<AttemptRecord>,
    /// The terminal error recovery gave up with.
    pub error: RecoveryError,
}

impl DegradedRun {
    /// Fraction of vertices with a *valid* surviving label, in `[0, 1]`.
    pub fn surviving_fraction(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.valid as f64 / self.n as f64
        }
    }
}

// Hand-written because `AttemptRecord` and `RecoveryError` serialize by hand.
impl serde::Serialize for DegradedRun {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("labeled".to_string(), self.labeled.to_value()),
            ("checked".to_string(), self.checked.to_value()),
            ("valid".to_string(), self.valid.to_value()),
            ("skipped".to_string(), self.skipped.to_value()),
            ("violations".to_string(), self.violations.to_value()),
            (
                "surviving_fraction".to_string(),
                self.surviving_fraction().to_value(),
            ),
            ("trail".to_string(), self.trail.to_value()),
            ("error".to_string(), self.error.to_value()),
        ])
    }
}

fn infeasible(attempt: u32, reason: impl Into<String>) -> RecoveryError {
    RecoveryError::Infeasible {
        attempt,
        reason: reason.into(),
    }
}

/// Orient every residue member so it has an out-edge, consistently with the
/// frozen boundary: boundary edges are forced (the mirror of the frozen
/// side's declared direction), then a BFS from the already-satisfied members
/// orients free edges child → parent; components with no satisfied vertex get
/// a cycle oriented cyclically first. A residue tree component with no
/// possible out-edge is [`RecoveryError::Infeasible`] — escalation unfreezes
/// its boundary and typically supplies one.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinklessFinisher;

impl Finisher<local_lcl::problems::SinklessOrientation> for SinklessFinisher {
    fn name(&self) -> &'static str {
        "sinkless"
    }

    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<Orientation>],
        budget: &Budget,
        attempt: u32,
    ) -> Result<Finish<Orientation>, RecoveryError> {
        let m = residue.len();
        let mut out: Vec<Vec<Option<bool>>> = residue
            .members()
            .iter()
            .map(|&v| vec![None; g.degree(v)])
            .collect();
        let mut satisfied = vec![false; m];
        let mut depth = vec![0u32; m];

        // Boundary edges are forced: mirror the frozen side's declaration.
        for (i, &v) in residue.members().iter().enumerate() {
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                if residue.contains(nb.node) {
                    continue;
                }
                let frozen = partial[nb.node]
                    .as_ref()
                    .ok_or_else(|| infeasible(attempt, "unlabeled vertex outside the residue"))?;
                let theirs = *frozen.0.get(nb.back_port).ok_or_else(|| {
                    infeasible(
                        attempt,
                        format!("malformed frozen orientation at vertex {}", nb.node),
                    )
                })?;
                out[i][p] = Some(!theirs);
                if !theirs {
                    satisfied[i] = true;
                }
            }
        }

        let mut queue: VecDeque<usize> = (0..m).filter(|&i| satisfied[i]).collect();
        let mut rounds =
            drain_orientation_queue(g, residue, &mut queue, &mut out, &mut satisfied, &mut depth);

        // Components with no satisfied vertex need a cycle to host out-edges.
        let mut dfs_state: Vec<u8> = vec![0; m];
        let mut dfs_parent: Vec<Option<usize>> = vec![None; m];
        for start in 0..m {
            if satisfied[start] {
                continue;
            }
            let cycle = find_free_cycle(
                g,
                residue,
                &satisfied,
                &out,
                start,
                &mut dfs_state,
                &mut dfs_parent,
            )
            .ok_or_else(|| {
                infeasible(
                    attempt,
                    format!(
                        "residue component of vertex {} is a tree with no available out-edge",
                        residue.global(start)
                    ),
                )
            })?;
            // Orient the cycle cyclically: every cycle vertex gains an out-edge.
            let k = cycle.len();
            for t in 0..k {
                let a = cycle[t];
                let b = cycle[(t + 1) % k];
                let ga = residue.global(a);
                let gb = residue.global(b);
                let (p, nb) = g
                    .neighbors(ga)
                    .iter()
                    .enumerate()
                    .find(|(_, nb)| nb.node == gb)
                    .expect("cycle edges exist in the graph");
                out[a][p] = Some(true);
                out[b][nb.back_port] = Some(false);
                satisfied[a] = true;
                depth[a] = 0;
            }
            queue.extend(cycle);
            rounds = rounds.max(drain_orientation_queue(
                g,
                residue,
                &mut queue,
                &mut out,
                &mut satisfied,
                &mut depth,
            ));
        }

        // Leftover free edges (both endpoints already satisfied): orient
        // low-to-high local index, deterministically.
        for i in 0..m {
            let v = residue.global(i);
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                if out[i][p].is_some() {
                    continue;
                }
                let j = residue
                    .local(nb.node)
                    .expect("all boundary ports were forced");
                out[i][p] = Some(true);
                out[j][nb.back_port] = Some(false);
            }
        }

        if rounds > budget.max_rounds {
            return Err(RecoveryError::Budget {
                attempt,
                breach: Breach::Rounds,
            });
        }
        let labels = out
            .into_iter()
            .map(|ports| {
                Orientation(
                    ports
                        .into_iter()
                        .map(|d| d.expect("every port was oriented"))
                        .collect(),
                )
            })
            .collect();
        Ok(Finish { labels, rounds })
    }
}

/// BFS from the satisfied set: each free edge to an unsatisfied member is
/// oriented out of that member (toward the satisfied side), satisfying it.
/// Returns the maximum BFS depth reached.
fn drain_orientation_queue(
    g: &Graph,
    residue: &Residue,
    queue: &mut VecDeque<usize>,
    out: &mut [Vec<Option<bool>>],
    satisfied: &mut [bool],
    depth: &mut [u32],
) -> u32 {
    let mut max_depth = 0;
    while let Some(i) = queue.pop_front() {
        max_depth = max_depth.max(depth[i]);
        let v = residue.global(i);
        for (p, nb) in g.neighbors(v).iter().enumerate() {
            let Some(j) = residue.local(nb.node) else {
                continue;
            };
            if out[i][p].is_none() && !satisfied[j] {
                out[i][p] = Some(false);
                out[j][nb.back_port] = Some(true);
                satisfied[j] = true;
                depth[j] = depth[i] + 1;
                queue.push_back(j);
            }
        }
    }
    max_depth
}

/// Find a cycle in the free subgraph (unassigned member-member edges among
/// unsatisfied members) of `start`'s component, as a list of local indices in
/// cycle order. `None` means the component is a tree.
///
/// Iterative DFS that emulates recursion (a vertex stays "gray" while its
/// neighbor cursor is on the stack), so a gray non-parent neighbor is always
/// an ancestor and the parent chain yields a simple cycle.
fn find_free_cycle(
    g: &Graph,
    residue: &Residue,
    satisfied: &[bool],
    out: &[Vec<Option<bool>>],
    start: usize,
    state: &mut [u8],
    parent: &mut [Option<usize>],
) -> Option<Vec<usize>> {
    debug_assert_eq!(state[start], 0, "components are visited once");
    let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
    state[start] = 1;
    parent[start] = None;
    while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
        let gu = residue.global(u);
        let neighbors = g.neighbors(gu);
        let mut advanced = false;
        while *cursor < neighbors.len() {
            let p = *cursor;
            *cursor += 1;
            let nb = &neighbors[p];
            let Some(j) = residue.local(nb.node) else {
                continue;
            };
            if out[u][p].is_some() || satisfied[j] {
                continue;
            }
            match state[j] {
                0 => {
                    state[j] = 1;
                    parent[j] = Some(u);
                    stack.push((j, 0));
                    advanced = true;
                    break;
                }
                1 if parent[u] != Some(j) => {
                    // Back edge u → j: the cycle is j's descendants down to u.
                    let mut cycle = vec![u];
                    let mut w = u;
                    while w != j {
                        w = parent[w].expect("ancestor chain reaches the back edge target");
                        cycle.push(w);
                    }
                    return Some(cycle);
                }
                _ => {}
            }
        }
        if !advanced {
            state[u] = 2;
            stack.pop();
        }
    }
    None
}

/// Greedy coloring of the residue against the frozen boundary: members are
/// colored in BFS order seeded from the boundary-adjacent members (then from
/// the lowest-index member of any interior component), each taking the
/// smallest palette color unused by its already-colored and frozen
/// neighbors. Runs out of palette → [`RecoveryError::Infeasible`].
#[derive(Debug, Clone, Copy)]
pub struct GreedyColoringFinisher {
    /// Palette size (colors `0..palette`).
    pub palette: usize,
}

impl Finisher<local_lcl::problems::VertexColoring> for GreedyColoringFinisher {
    fn name(&self) -> &'static str {
        "greedy-coloring"
    }

    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<usize>],
        budget: &Budget,
        attempt: u32,
    ) -> Result<Finish<usize>, RecoveryError> {
        let m = residue.len();
        let mut color: Vec<Option<usize>> = vec![None; m];
        let mut seen = vec![false; m];
        let mut depth = vec![0u32; m];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, &v) in residue.members().iter().enumerate() {
            if g.neighbors(v).iter().any(|nb| !residue.contains(nb.node)) {
                seen[i] = true;
                queue.push_back(i);
            }
        }
        let mut rounds = 0u32;
        let mut cursor = 0usize;
        loop {
            while let Some(i) = queue.pop_front() {
                rounds = rounds.max(depth[i]);
                let v = residue.global(i);
                let mut used = vec![false; self.palette];
                for nb in g.neighbors(v) {
                    let c = match residue.local(nb.node) {
                        Some(j) => color[j],
                        None => Some(*partial[nb.node].as_ref().ok_or_else(|| {
                            infeasible(attempt, "unlabeled vertex outside the residue")
                        })?),
                    };
                    if let Some(c) = c {
                        if c < self.palette {
                            used[c] = true;
                        }
                    }
                }
                let Some(c) = (0..self.palette).find(|&c| !used[c]) else {
                    return Err(infeasible(
                        attempt,
                        format!(
                            "no free color at vertex {v}: all {} palette colors used by neighbors",
                            self.palette
                        ),
                    ));
                };
                color[i] = Some(c);
                for nb in g.neighbors(v) {
                    if let Some(j) = residue.local(nb.node) {
                        if !seen[j] {
                            seen[j] = true;
                            depth[j] = depth[i] + 1;
                            queue.push_back(j);
                        }
                    }
                }
            }
            while cursor < m && seen[cursor] {
                cursor += 1;
            }
            if cursor >= m {
                break;
            }
            seen[cursor] = true;
            depth[cursor] = 0;
            queue.push_back(cursor);
        }
        if rounds > budget.max_rounds {
            return Err(RecoveryError::Budget {
                attempt,
                breach: Breach::Rounds,
            });
        }
        let labels = color
            .into_iter()
            .map(|c| c.expect("BFS reaches every member"))
            .collect();
        Ok(Finish { labels, rounds })
    }
}

/// Restart Luby's MIS on the residue: members adjacent to a frozen MIS
/// member are knocked out (decided `false`), the rest run
/// [`Luby`] restricted to the residue's induced subgraph under the attempt's
/// derived seed and the watchdog budget.
#[derive(Debug, Clone, Copy)]
pub struct LubyRestartFinisher {
    /// Seed the per-attempt Luby streams are derived from.
    pub seed: u64,
}

/// Stream tag for per-attempt Luby restart seeds.
const LUBY_RESTART_STREAM: u64 = 0x13F1;

impl Finisher<local_lcl::problems::Mis> for LubyRestartFinisher {
    fn name(&self) -> &'static str {
        "luby-restart"
    }

    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<bool>],
        budget: &Budget,
        attempt: u32,
    ) -> Result<Finish<bool>, RecoveryError> {
        let members = residue.members();
        // Retain the prior MIS wherever it is locally consistent (greedy in
        // ascending order among conflicting prior members). Vertices just
        // outside the residue keep whatever witness they had, so the
        // restart cannot strand them by rolling dice it had no reason to
        // roll.
        let mut retained = vec![false; members.len()];
        for (i, &v) in members.iter().enumerate() {
            if partial[v] != Some(true) {
                continue;
            }
            let blocked = g
                .neighbors(v)
                .iter()
                .any(|nb| match residue.local(nb.node) {
                    Some(j) => retained[j],
                    None => partial[nb.node] == Some(true),
                });
            if !blocked {
                retained[i] = true;
            }
        }
        // The restart only decides members that are neither retained nor
        // dominated by a true vertex (retained or frozen).
        let active: Vec<bool> = members
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                !retained[i]
                    && !g
                        .neighbors(v)
                        .iter()
                        .any(|nb| match residue.local(nb.node) {
                            Some(j) => retained[j],
                            None => partial[nb.node] == Some(true),
                        })
            })
            .collect();
        let algo = Luby::restricted(active);
        let seed = derived_u64(
            self.seed,
            LUBY_RESTART_STREAM.wrapping_add(u64::from(attempt)),
        );
        let run = run_sync(
            residue.graph(),
            Mode::randomized(seed),
            &algo,
            &ExecSpec::default()
                .with_budget(*budget)
                .with_faults(&FaultPlan::none()),
        );
        if let Some(breach) = run.breach {
            return Err(RecoveryError::Budget { attempt, breach });
        }
        let mut labels: Vec<bool> = run
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| retained[i] || *o.output().expect("unbreached fault-free runs halt"))
            .collect();
        // Deterministic maximality sweep: join any member left without a
        // certificate (ascending order preserves independence — a flip
        // gives every neighbor a witness, so no later flip can conflict).
        let mut swept = false;
        for i in 0..members.len() {
            if labels[i] {
                continue;
            }
            let has_witness =
                g.neighbors(members[i])
                    .iter()
                    .any(|nb| match residue.local(nb.node) {
                        Some(j) => labels[j],
                        None => partial[nb.node] == Some(true),
                    });
            if !has_witness {
                labels[i] = true;
                swept = true;
            }
        }
        Ok(Finish {
            labels,
            rounds: run.max_decided_round() + u32::from(swept),
        })
    }
}

/// Greedy edge recoloring of the residue against the frozen boundary.
///
/// Boundary edges are pinned: the frozen endpoint cannot change its
/// announcement, and edge consistency forces the residue endpoint to copy
/// it (a duplicated or out-of-palette pin is
/// [`RecoveryError::Infeasible`], escalating the radius). Interior edges
/// are then colored in ascending `(vertex, port)` order with the smallest
/// palette color free at both endpoints — on a graph of maximum degree Δ
/// an interior edge sees at most `2(Δ−1)` constraints, so any palette
/// `> 2(Δ−1)` never starves.
#[derive(Debug, Clone, Copy)]
pub struct EdgeGreedyFinisher {
    /// Palette size (colors `0..palette`).
    pub palette: usize,
}

impl Finisher<local_lcl::problems::EdgeKColoring> for EdgeGreedyFinisher {
    fn name(&self) -> &'static str {
        "edge-greedy"
    }

    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<local_lcl::problems::PortColors>],
        _budget: &Budget,
        attempt: u32,
    ) -> Result<Finish<local_lcl::problems::PortColors>, RecoveryError> {
        let members = residue.members();
        let mut out: Vec<Vec<Option<usize>>> = members
            .iter()
            .map(|&v| vec![None; g.neighbors(v).len()])
            .collect();
        // Boundary edges copy the frozen side's announcement.
        for (i, &v) in members.iter().enumerate() {
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                if residue.contains(nb.node) {
                    continue;
                }
                let frozen = partial[nb.node]
                    .as_ref()
                    .ok_or_else(|| infeasible(attempt, "unlabeled vertex outside the residue"))?;
                let &c = frozen.0.get(nb.back_port).ok_or_else(|| {
                    infeasible(
                        attempt,
                        format!("frozen neighbor {} mislabeled its ports", nb.node),
                    )
                })?;
                if c >= self.palette {
                    return Err(infeasible(
                        attempt,
                        format!("frozen edge color {c} outside palette {}", self.palette),
                    ));
                }
                if out[i].iter().flatten().any(|&c2| c2 == c) {
                    return Err(infeasible(
                        attempt,
                        format!("frozen boundary forces duplicate color {c} at vertex {v}"),
                    ));
                }
                out[i][p] = Some(c);
            }
        }
        // Interior edges: ascending (vertex, port), smallest color free at
        // both endpoints; each edge is colored at its first encounter.
        for i in 0..members.len() {
            let v = members[i];
            for p in 0..g.neighbors(v).len() {
                if out[i][p].is_some() {
                    continue;
                }
                let nb = &g.neighbors(v)[p];
                let j = residue
                    .local(nb.node)
                    .expect("interior edges keep both endpoints in the residue");
                let free = (0..self.palette).find(|c| {
                    !out[i].iter().flatten().any(|u| u == c)
                        && !out[j].iter().flatten().any(|u| u == c)
                });
                let Some(c) = free else {
                    return Err(infeasible(
                        attempt,
                        format!(
                            "no free color on edge {v}–{}: all {} palette colors used",
                            nb.node, self.palette
                        ),
                    ));
                };
                let back = nb.back_port;
                out[i][p] = Some(c);
                out[j][back] = Some(c);
            }
        }
        let labels = out
            .into_iter()
            .map(|ports| {
                local_lcl::problems::PortColors(
                    ports
                        .into_iter()
                        .map(|c| c.expect("every port is boundary-pinned or edge-colored"))
                        .collect(),
                )
            })
            .collect();
        Ok(Finish { labels, rounds: 0 })
    }
}

/// Deterministic ruling-set repair at ruling distance `k`: prior members
/// inside the residue are retained in ascending order wherever no member
/// (kept or frozen) is already within distance `k`, then a second ascending
/// sweep joins any residue vertex still lacking a member in its radius-`k`
/// ball. Both sweeps preserve pairwise distance `> k` by construction, so
/// the splice can only fail at frozen vertices whose former witness was
/// dropped — which the violation-absorption loop then pulls into the core.
#[derive(Debug, Clone, Copy)]
pub struct RulingSetFinisher {
    /// Ruling distance `k`.
    pub k: usize,
}

impl Finisher<local_lcl::problems::RulingSet> for RulingSetFinisher {
    fn name(&self) -> &'static str {
        "ruling-sweep"
    }

    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<bool>],
        _budget: &Budget,
        _attempt: u32,
    ) -> Result<Finish<bool>, RecoveryError> {
        let members = residue.members();
        let mut labels = vec![false; members.len()];
        // Is any member (tentative residue labels or frozen) within
        // distance k of v?
        let covered = |labels: &[bool], v: usize| -> bool {
            let mut dist = vec![usize::MAX; g.n()];
            let mut queue = VecDeque::new();
            dist[v] = 0;
            queue.push_back(v);
            while let Some(u) = queue.pop_front() {
                if dist[u] == self.k {
                    continue;
                }
                for nb in g.neighbors(u) {
                    if dist[nb.node] != usize::MAX {
                        continue;
                    }
                    dist[nb.node] = dist[u] + 1;
                    let member = match residue.local(nb.node) {
                        Some(j) => labels[j],
                        None => partial[nb.node] == Some(true),
                    };
                    if member {
                        return true;
                    }
                    queue.push_back(nb.node);
                }
            }
            false
        };
        // Retain prior members first — they are what the frozen boundary's
        // non-members may be counting on as witnesses.
        for (i, &v) in members.iter().enumerate() {
            if partial[v] == Some(true) && !covered(&labels, v) {
                labels[i] = true;
            }
        }
        // Then rule everything still bare.
        for (i, &v) in members.iter().enumerate() {
            if !labels[i] && !covered(&labels, v) {
                labels[i] = true;
            }
        }
        Ok(Finish { labels, rounds: 0 })
    }
}

/// Defect-budgeted greedy recoloring: each residue vertex (ascending) takes
/// the color minimizing its monochromatic degree against frozen and
/// already-assigned neighbors, skipping colors that would push a frozen
/// neighbor past its defect budget; an improving-flip loop then settles any
/// members the later assignments made overfull. Every flip strictly
/// decreases the spliced monochromatic edge count, so the loop terminates
/// within `m` sweeps.
#[derive(Debug, Clone, Copy)]
pub struct DefectiveGreedyFinisher {
    /// Palette size (colors `0..colors`).
    pub colors: usize,
    /// Tolerated monochromatic degree.
    pub defect: usize,
}

impl Finisher<local_lcl::problems::DefectiveColoring> for DefectiveGreedyFinisher {
    fn name(&self) -> &'static str {
        "defective-greedy"
    }

    fn finish(
        &self,
        g: &Graph,
        residue: &Residue,
        partial: &[Option<usize>],
        _budget: &Budget,
        attempt: u32,
    ) -> Result<Finish<usize>, RecoveryError> {
        let members = residue.members();
        let mut assigned: Vec<Option<usize>> = vec![None; members.len()];
        let color_of = |assigned: &[Option<usize>], u: usize| -> Option<usize> {
            match residue.local(u) {
                Some(j) => assigned[j],
                None => partial[u],
            }
        };
        let mono = |assigned: &[Option<usize>], u: usize, c: usize| -> usize {
            g.neighbors(u)
                .iter()
                .filter(|nb| color_of(assigned, nb.node) == Some(c))
                .count()
        };
        // Would giving v color c push a frozen neighbor past its budget?
        let safe = |assigned: &[Option<usize>], v: usize, c: usize| -> bool {
            g.neighbors(v).iter().all(|nb| {
                residue.contains(nb.node)
                    || partial[nb.node] != Some(c)
                    || mono(assigned, nb.node, c) < self.defect
            })
        };
        for i in 0..members.len() {
            let v = members[i];
            let choice = (0..self.colors)
                .filter(|&c| safe(&assigned, v, c))
                .map(|c| (mono(&assigned, v, c), c))
                .min();
            let Some((_, c)) = choice else {
                return Err(infeasible(
                    attempt,
                    format!("no defect-safe color at vertex {v}"),
                ));
            };
            assigned[i] = Some(c);
        }
        // Improving flips until the defect bound holds on every member.
        let mut sweeps = g.m() + 2;
        loop {
            let mut flipped = false;
            let mut done = true;
            for i in 0..members.len() {
                let v = members[i];
                let c = assigned[i].expect("the greedy pass assigned every member");
                let cur = mono(&assigned, v, c);
                if cur <= self.defect {
                    continue;
                }
                done = false;
                let best = (0..self.colors)
                    .filter(|&cc| cc != c && safe(&assigned, v, cc))
                    .map(|cc| (mono(&assigned, v, cc), cc))
                    .min();
                if let Some((cnt, cc)) = best {
                    if cnt < cur {
                        assigned[i] = Some(cc);
                        flipped = true;
                    }
                }
            }
            if done {
                break;
            }
            if !flipped || sweeps == 0 {
                return Err(infeasible(
                    attempt,
                    "defective recoloring stalled above the defect bound",
                ));
            }
            sweeps -= 1;
        }
        let labels = assigned
            .into_iter()
            .map(|c| c.expect("the greedy pass assigned every member"))
            .collect();
        Ok(Finish { labels, rounds: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::sinkless::SinklessRepair;
    use local_graphs::gen;
    use local_lcl::problems::{
        DefectiveColoring, EdgeKColoring, Mis, PortColors, RulingSet, SinklessOrientation,
        VertexColoring,
    };
    use local_model::{FaultSpec, Outcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_fully_valid<P: LclProblem>(problem: &P, g: &Graph, labels: &Labeling<P::Label>) {
        let verdict = check_complete(problem, g, labels);
        assert!(
            verdict.violations.is_empty(),
            "spliced labeling must be valid, got {:?}",
            verdict.violations.first()
        );
        assert_eq!(verdict.checked, g.n());
    }

    #[test]
    fn valid_complete_labeling_needs_no_attempts() {
        let g = gen::cycle(6);
        let partial: Vec<Option<usize>> = (0..6).map(|v| Some(v % 2)).collect();
        let rec = recover(
            &VertexColoring::new(3),
            &g,
            &partial,
            &GreedyColoringFinisher { palette: 3 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.attempts, 0);
        assert_eq!(rec.core_size, 0);
        assert_eq!(rec.extra_rounds, 0);
    }

    #[test]
    fn coloring_holes_are_repaired_against_the_frozen_boundary() {
        let g = gen::path(7);
        let mut partial: Vec<Option<usize>> = (0..7).map(|v| Some(v % 2)).collect();
        partial[3] = None;
        let rec = recover(
            &VertexColoring::new(2),
            &g,
            &partial,
            &GreedyColoringFinisher { palette: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.attempts, 1);
        assert_eq!(rec.core_size, 1);
        assert_eq!(rec.residue_size, 3);
        assert_fully_valid(&VertexColoring::new(2), &g, &rec.labels);
        // Frozen vertices keep their labels.
        assert_eq!(rec.labels.as_slice()[0], 0);
        assert_eq!(rec.labels.as_slice()[6], 0);
    }

    #[test]
    fn coloring_violations_join_the_core() {
        // Adjacent equal colors with no holes: both endpoints must be relabeled.
        let g = gen::path(5);
        let partial: Vec<Option<usize>> = vec![Some(0), Some(1), Some(1), Some(0), Some(1)];
        let rec = recover(
            &VertexColoring::new(3),
            &g,
            &partial,
            &GreedyColoringFinisher { palette: 3 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.core_size, 2);
        assert!(rec.attempts >= 1);
        assert_fully_valid(&VertexColoring::new(3), &g, &rec.labels);
    }

    #[test]
    fn starved_palette_escalates_then_errors_typed() {
        // Path 0-1-2-3-4 with palette {0,1}, hole at 2. At radius 1 the
        // members {1,2,3} are pinched by the frozen endpoints (0 and 4 carry
        // different colors), and the boundary-first greedy order paints 1 → 1
        // and 3 → 0, starving vertex 2. Radius 2 unfreezes everything.
        let g = gen::path(5);
        let partial: Vec<Option<usize>> = vec![Some(0), Some(1), None, Some(0), Some(1)];
        let err = recover(
            &VertexColoring::new(2),
            &g,
            &partial,
            &GreedyColoringFinisher { palette: 2 },
            &RecoveryPolicy {
                max_radius: 1,
                ..RecoveryPolicy::default()
            },
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err.error,
            RecoveryError::Infeasible { attempt: 1, .. }
        ));
        // Escalation to radius 2 succeeds.
        let rec = recover(
            &VertexColoring::new(2),
            &g,
            &partial,
            &GreedyColoringFinisher { palette: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.attempts, 2);
        assert_fully_valid(&VertexColoring::new(2), &g, &rec.labels);
    }

    #[test]
    fn sinkless_recovers_a_crashed_cycle_vertex() {
        let n = 12;
        let g = gen::cycle(n);
        // Orient the cycle forward, then hole out two adjacent vertices.
        let mut partial: Vec<Option<Orientation>> = (0..n)
            .map(|v| {
                Some(Orientation(
                    g.neighbors(v)
                        .iter()
                        .map(|nb| nb.node == (v + 1) % n)
                        .collect(),
                ))
            })
            .collect();
        partial[4] = None;
        partial[5] = None;
        let rec = recover(
            &SinklessOrientation::new(2),
            &g,
            &partial,
            &SinklessFinisher,
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.core_size, 2);
        assert_fully_valid(&SinklessOrientation::new(2), &g, &rec.labels);
    }

    #[test]
    fn sinkless_whole_graph_residue_uses_a_cycle() {
        // Everything crashed: the residue is the whole cycle, no frozen
        // boundary at all — the finisher must find and orient a cycle.
        let g = gen::cycle(9);
        let partial: Vec<Option<Orientation>> = vec![None; 9];
        let rec = recover(
            &SinklessOrientation::new(2),
            &g,
            &partial,
            &SinklessFinisher,
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.core_size, 9);
        assert_eq!(rec.residue_size, 9);
        assert_fully_valid(&SinklessOrientation::new(2), &g, &rec.labels);
    }

    #[test]
    fn sinkless_tree_component_is_infeasible() {
        // A path is a tree: with every vertex unlabeled there is no way to
        // avoid a sink, at any radius. (The *problem* is also undefined on
        // paths — degrees differ — but the finisher fails first, typed.)
        let g = gen::path(4);
        let partial: Vec<Option<Orientation>> = vec![None; 4];
        let err = recover(
            &SinklessOrientation::new(2),
            &g,
            &partial,
            &SinklessFinisher,
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(err.error, RecoveryError::Infeasible { .. }));
        assert!(err.error.to_string().contains("tree"));
    }

    #[test]
    fn mis_restart_repairs_crashed_vertices() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::gnp(40, 0.15, &mut rng);
        let plan = local_model::FaultPlan::sample(&g, &FaultSpec::none().with_crash(0.2, 8), 5);
        let run = run_sync(
            &g,
            Mode::randomized(3),
            &Luby::new(),
            &ExecSpec::rounds(400).with_faults(&plan),
        );
        let partial: Vec<Option<bool>> = run.outcomes.iter().map(|o| o.output().copied()).collect();
        let rec = recover(
            &Mis::new(),
            &g,
            &partial,
            &LubyRestartFinisher { seed: 77 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_fully_valid(&Mis::new(), &g, &rec.labels);
    }

    #[test]
    fn budget_breach_aborts_instead_of_escalating() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnp(30, 0.2, &mut rng);
        let partial: Vec<Option<bool>> = vec![None; 30];
        // A zero-round budget cannot even run Luby's first phase.
        let err = recover(
            &Mis::new(),
            &g,
            &partial,
            &LubyRestartFinisher { seed: 1 },
            &RecoveryPolicy {
                max_radius: 3,
                budget: Budget::rounds(0),
            },
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err.error,
            RecoveryError::Budget { attempt: 1, .. }
        ));
    }

    #[test]
    fn sinkless_repair_pipeline_end_to_end() {
        // The E12/E13 shape: run the sinkless repair algorithm under crashes,
        // then recover the survivors' partial orientation to a complete one.
        let mut rng = StdRng::seed_from_u64(0xE13);
        let g = gen::random_regular(30, 3, &mut rng).expect("feasible");
        let plan = local_model::FaultPlan::sample(&g, &FaultSpec::none().with_crash(0.1, 20), 9);
        let run = run_sync(
            &g,
            Mode::randomized(21),
            &SinklessRepair { phases: 20 },
            &ExecSpec::rounds(46).with_faults(&plan),
        );
        let partial: Vec<Option<Orientation>> =
            run.outcomes.iter().map(|o| o.output().cloned()).collect();
        let rec = recover(
            &SinklessOrientation::new(3),
            &g,
            &partial,
            &SinklessFinisher,
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert!(rec.attempts <= 3);
        assert_fully_valid(&SinklessOrientation::new(3), &g, &rec.labels);
    }

    #[test]
    fn exhaustion_reports_attempts_and_violations() {
        struct Hopeless;
        impl Finisher<VertexColoring> for Hopeless {
            fn finish(
                &self,
                _g: &Graph,
                residue: &Residue,
                _partial: &[Option<usize>],
                _budget: &Budget,
                _attempt: u32,
            ) -> Result<Finish<usize>, RecoveryError> {
                // Monochrome: always invalid on an edgeful residue.
                Ok(Finish {
                    labels: vec![0; residue.len()],
                    rounds: 0,
                })
            }
        }
        let g = gen::cycle(6);
        let partial: Vec<Option<usize>> = vec![None; 6];
        let report = recover(
            &VertexColoring::new(3),
            &g,
            &partial,
            &Hopeless,
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            report.error,
            RecoveryError::Exhausted {
                attempts: 3,
                max_radius: 3,
                ..
            }
        ));
        // Satellite contract: exhaustion carries the full per-attempt trail.
        let RecoveryError::Exhausted { trail, .. } = &report.error else {
            unreachable!()
        };
        assert_eq!(trail.len(), 3);
        for (i, rec) in trail.iter().enumerate() {
            assert_eq!(rec.attempt, i as u32 + 1);
            assert_eq!(rec.radius, i as u32 + 1);
            assert!(rec.violations > 0, "every splice stayed monochrome");
            assert_eq!(rec.breach, None);
            assert_eq!(rec.infeasible, None);
        }
        // The whole cycle is core by attempt 2 (violations absorbed).
        assert!(trail[1].core_size >= trail[0].core_size);

        // The report shares the identical trail and censuses the surviving
        // labeling (all holes here: nothing survives).
        assert_eq!(&report.trail, trail);
        assert_eq!(report.n, 6);
        assert_eq!(report.labeled, 0);
        assert_eq!(report.checked, 0);
        assert_eq!(report.valid, 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.surviving_fraction(), 0.0);
    }

    #[test]
    fn recover_passes_successes_through() {
        let g = gen::path(7);
        let mut partial: Vec<Option<usize>> = (0..7).map(|v| Some(v % 2)).collect();
        partial[3] = None;
        let rec = recover(
            &VertexColoring::new(2),
            &g,
            &partial,
            &GreedyColoringFinisher { palette: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.attempts, 1);
        assert_fully_valid(&VertexColoring::new(2), &g, &rec.labels);
    }

    #[test]
    fn degraded_report_census_counts_survivors() {
        // Sinkless on a path is hopeless, but the frozen survivors census
        // must still be taken: freeze a valid orientation on 0..2, hole the
        // rest. (Vertex 2's neighbor 3 is unlabeled, so 2 is skipped, 0 and
        // 1 check; vertex 1 points at 2 so both are valid.)
        let g = gen::path(6);
        let mut partial: Vec<Option<Orientation>> = vec![None; 6];
        partial[0] = Some(Orientation(vec![true]));
        partial[1] = Some(Orientation(vec![false, true]));
        partial[2] = Some(Orientation(vec![false, true]));
        let report = recover(
            &SinklessOrientation::new(2),
            &g,
            &partial,
            &SinklessFinisher,
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(report.n, 6);
        assert_eq!(report.labeled, 3);
        assert_eq!(report.checked + report.skipped, report.n);
        assert!(report.checked <= report.labeled);
        assert!(report.valid <= report.checked);
        assert!(!report.trail.is_empty());
        assert!(matches!(report.error, RecoveryError::Infeasible { .. }));
        let infeasible = report
            .trail
            .iter()
            .filter(|r| r.infeasible.is_some())
            .count();
        assert_eq!(infeasible, report.trail.len());
        // The report serializes flat, with the error kind tagged.
        let json = serde_json::to_string(&*report).unwrap();
        assert!(json.contains("\"trail\":["));
        assert!(json.contains("\"kind\":\"infeasible\""));
    }

    #[test]
    fn budget_breach_lands_in_the_trail() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnp(30, 0.2, &mut rng);
        let partial: Vec<Option<bool>> = vec![None; 30];
        let report = recover(
            &Mis::new(),
            &g,
            &partial,
            &LubyRestartFinisher { seed: 1 },
            &RecoveryPolicy {
                max_radius: 3,
                budget: Budget::rounds(0),
            },
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(report.trail.len(), 1);
        assert_eq!(report.trail[0].breach, Some(Breach::Rounds));
        assert!(matches!(report.error, RecoveryError::Budget { .. }));
    }

    #[test]
    fn cut_vertices_recover_too() {
        // Cut a run early so some vertices are Cut (not Crashed); recovery
        // treats both the same.
        let g = gen::cycle(8);
        let run = run_sync(
            &g,
            Mode::randomized(5),
            &Luby::new(),
            &ExecSpec::rounds(1).with_faults(&FaultPlan::none()),
        );
        assert!(run.outcomes.iter().any(Outcome::is_cut));
        let partial: Vec<Option<bool>> = run.outcomes.iter().map(|o| o.output().copied()).collect();
        let rec = recover(
            &Mis::new(),
            &g,
            &partial,
            &LubyRestartFinisher { seed: 8 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_fully_valid(&Mis::new(), &g, &rec.labels);
    }

    #[test]
    fn edge_holes_are_repaired_against_frozen_ports() {
        // Path edges alternate colors 0/1; hole out the middle vertex. The
        // finisher must copy the frozen announcements on boundary edges.
        let g = gen::path(5);
        let colors: Vec<usize> = (0..g.m()).map(|e| e % 2).collect();
        let full = EdgeKColoring::labels_from_edge_colors(&g, &colors);
        let mut partial: Vec<Option<PortColors>> =
            full.as_slice().iter().cloned().map(Some).collect();
        partial[2] = None;
        let rec = recover(
            &EdgeKColoring::new(3),
            &g,
            &partial,
            &EdgeGreedyFinisher { palette: 3 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.core_size, 1);
        assert_fully_valid(&EdgeKColoring::new(3), &g, &rec.labels);
        // Frozen vertices keep their announcements.
        assert_eq!(rec.labels.as_slice()[0], PortColors(vec![0]));
    }

    #[test]
    fn edge_palette_starvation_surfaces_typed() {
        // A star center has degree 3: palette 2 cannot edge-color it at any
        // radius, so every attempt's greedy pass starves and the last typed
        // infeasibility surfaces. Palette 3 succeeds from all-holes.
        let g = gen::star(4);
        let partial: Vec<Option<PortColors>> = vec![None; 4];
        let err = recover(
            &EdgeKColoring::new(2),
            &g,
            &partial,
            &EdgeGreedyFinisher { palette: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(err.error, RecoveryError::Infeasible { .. }));
        assert!(err.error.to_string().contains("no free color"));
        let rec = recover(
            &EdgeKColoring::new(3),
            &g,
            &partial,
            &EdgeGreedyFinisher { palette: 3 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_fully_valid(&EdgeKColoring::new(3), &g, &rec.labels);
    }

    #[test]
    fn ruling_set_holes_are_rejoined() {
        // C9 ruled by {0, 3, 6} at k = 2; hole out member 3. The sweep must
        // re-rule vertices 2..4 without crowding the frozen members.
        let g = gen::cycle(9);
        let mut partial: Vec<Option<bool>> = (0..9).map(|v| Some(v % 3 == 0)).collect();
        partial[3] = None;
        let rec = recover(
            &RulingSet::new(2),
            &g,
            &partial,
            &RulingSetFinisher { k: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_fully_valid(&RulingSet::new(2), &g, &rec.labels);
    }

    #[test]
    fn ruling_set_finisher_handles_all_holes() {
        let g = gen::cycle(11);
        let partial: Vec<Option<bool>> = vec![None; 11];
        let rec = recover(
            &RulingSet::new(2),
            &g,
            &partial,
            &RulingSetFinisher { k: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.core_size, 11);
        assert_fully_valid(&RulingSet::new(2), &g, &rec.labels);
    }

    #[test]
    fn defective_holes_are_repaired_against_frozen_neighbors() {
        // Hole at cycle vertex 3: the radius-1 residue is {2,3,4}; the
        // frozen vertices 1 and 5 are each already at their defect budget,
        // so the finisher's safety check steers the boundary members away
        // from overflowing them.
        let g = gen::cycle(6);
        let partial: Vec<Option<usize>> = vec![Some(0), Some(0), Some(1), None, Some(1), Some(1)];
        let rec = recover(
            &DefectiveColoring::new(2, 1),
            &g,
            &partial,
            &DefectiveGreedyFinisher {
                colors: 2,
                defect: 1,
            },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(rec.attempts, 1);
        assert_fully_valid(&DefectiveColoring::new(2, 1), &g, &rec.labels);
        // Frozen vertices keep their labels.
        assert_eq!(rec.labels.as_slice()[0], 0);
        assert_eq!(rec.labels.as_slice()[1], 0);
        assert_eq!(rec.labels.as_slice()[5], 1);
    }

    #[test]
    fn defective_finisher_handles_all_holes() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::random_regular(20, 3, &mut rng).expect("feasible");
        let partial: Vec<Option<usize>> = vec![None; 20];
        let rec = recover(
            &DefectiveColoring::new(2, 1),
            &g,
            &partial,
            &DefectiveGreedyFinisher {
                colors: 2,
                defect: 1,
            },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert_fully_valid(&DefectiveColoring::new(2, 1), &g, &rec.labels);
    }

    // Satellite contract for the three new catalog families: a faulty run at
    // drop 0.1 × crash 0.05 recovers within the default radius ladder (≤ 3).

    fn generality_plan(g: &Graph, window: u32, seed: u64) -> FaultPlan {
        FaultPlan::sample(
            g,
            &FaultSpec::none().with_drop(0.1).with_crash(0.05, window),
            seed,
        )
    }

    #[test]
    fn edge_coloring_recovers_under_generality_faults() {
        let mut rng = StdRng::seed_from_u64(0xEC0);
        let base = gen::random_regular(30, 3, &mut rng).expect("feasible");
        let lg = local_graphs::analysis::line_graph(&base);
        let plan = generality_plan(&lg, 12, 4);
        let run = run_sync(
            &lg,
            Mode::randomized(6),
            &crate::color::rand_greedy::RandGreedy::new(5),
            &ExecSpec::rounds(120).with_faults(&plan),
        );
        // Translate per-edge colors (line-graph outputs) to per-port labels:
        // a base vertex is labeled iff all its incident edges decided.
        let edge_color: Vec<Option<usize>> =
            run.outcomes.iter().map(|o| o.output().copied()).collect();
        let partial: Vec<Option<PortColors>> = base
            .vertices()
            .map(|v| {
                base.neighbors(v)
                    .iter()
                    .map(|nb| edge_color[nb.edge])
                    .collect::<Option<Vec<usize>>>()
                    .map(PortColors)
            })
            .collect();
        let rec = recover(
            &EdgeKColoring::new(5),
            &base,
            &partial,
            &EdgeGreedyFinisher { palette: 5 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert!(rec.radius <= 3);
        assert_fully_valid(&EdgeKColoring::new(5), &base, &rec.labels);
    }

    #[test]
    fn ruling_set_recovers_under_generality_faults() {
        let mut rng = StdRng::seed_from_u64(0xD2);
        let g = gen::random_regular(48, 3, &mut rng).expect("feasible");
        let algo = crate::mis::DilatedLuby::new(2, 5 * (48 / 4 + 1));
        let plan = generality_plan(&g, algo.horizon(), 2);
        let run = run_sync(
            &g,
            Mode::randomized(9),
            &algo,
            &ExecSpec::rounds(algo.horizon() + 4).with_faults(&plan),
        );
        let partial: Vec<Option<bool>> = run.outcomes.iter().map(|o| o.output().copied()).collect();
        let rec = recover(
            &RulingSet::new(2),
            &g,
            &partial,
            &RulingSetFinisher { k: 2 },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert!(rec.radius <= 3);
        assert_fully_valid(&RulingSet::new(2), &g, &rec.labels);
    }

    #[test]
    fn defective_coloring_recovers_under_generality_faults() {
        let mut rng = StdRng::seed_from_u64(0xDC0);
        let g = gen::random_regular(48, 3, &mut rng).expect("feasible");
        let horizon = 2 * g.m() as u32 + 3;
        let plan = generality_plan(&g, horizon, 7);
        let run = run_sync(
            &g,
            Mode::randomized(3),
            &crate::color::DefectiveLocalSearch::new(2, 1, horizon),
            &ExecSpec::rounds(horizon + 4).with_faults(&plan),
        );
        let partial: Vec<Option<usize>> =
            run.outcomes.iter().map(|o| o.output().copied()).collect();
        let rec = recover(
            &DefectiveColoring::new(2, 1),
            &g,
            &partial,
            &DefectiveGreedyFinisher {
                colors: 2,
                defect: 1,
            },
            &RecoveryPolicy::default(),
            None,
            None,
        )
        .unwrap();
        assert!(rec.radius <= 3);
        assert_fully_valid(&DefectiveColoring::new(2, 1), &g, &rec.labels);
    }
}
