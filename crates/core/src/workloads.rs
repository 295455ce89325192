//! The workload catalog: one first-class registry of every fault-plane
//! workload the experiment drivers sweep, heal, and attack.
//!
//! A *workload* is the quadruple the fault experiments revolve around — a
//! graph generator, a message-passing protocol, an LCL checker, and a
//! recovery finisher. E12 (resilience), E13 (recovery), and E14 (adversary
//! search) all consume the same quadruples through the object-safe
//! [`Workload`] trait; [`workloads`] is the **single** construction point,
//! so adding an entry here automatically enrolls it in all three sweeps,
//! the fabric decomposition, and the CI replay gates.
//!
//! The catalog carries six entries, in this fixed order (legacy first, so
//! the legacy rows of every report keep their exact position and bytes):
//!
//! | name | protocol | checker | finisher |
//! |------|----------|---------|----------|
//! | `tree-coloring` | Theorem 10 Phase-1 ColorBidding | [`VertexColoring`] | [`GreedyColoringFinisher`] |
//! | `sinkless` | [`SinklessRepair`] | [`SinklessOrientation`] | [`SinklessFinisher`] |
//! | `mis` | [`Luby`] | [`Mis`] | [`LubyRestartFinisher`] |
//! | `edge-coloring` | [`RandGreedy`] on the line graph | [`EdgeKColoring`] | [`EdgeGreedyFinisher`] |
//! | `ruling-set` | [`DilatedLuby`] | [`RulingSet`] (radius-k) | [`RulingSetFinisher`] |
//! | `defective-coloring` | [`DefectiveLocalSearch`] | [`DefectiveColoring`] | [`DefectiveGreedyFinisher`] |
//!
//! Each entry answers three questions, one per experiment:
//!
//! * [`Workload::measure`] — run the protocol under a fault plan and score
//!   the surviving partial labeling ([`check_partial`]); E12's trial.
//! * [`Workload::heal`] — run, then hand the partial labeling to the
//!   recovery driver ([`recover`]) with the entry's finisher; E13's
//!   trial.
//! * [`Workload::assess`] — run at a *fixed* evaluation seed and attempt
//!   recovery via [`recover`], folding its
//!   [`DegradedRun`](local_algorithms::DegradedRun) census into the
//!   adversary objective [`Evaluation`]; E14's plan evaluator.
//!
//! Determinism contract: all graphs draw from one [`StdRng`] stream seeded
//! by `graph_seed`, legacy entries first — a config that only *appends*
//! catalog entries reproduces the legacy graphs (and therefore the legacy
//! rows) byte-for-byte.

use crate::adversary::Evaluation;
use local_algorithms::color::defective::DefectiveLocalSearch;
use local_algorithms::color::rand_greedy::RandGreedy;
use local_algorithms::mis::luby::Luby;
use local_algorithms::mis::DilatedLuby;
use local_algorithms::orientation::sinkless::SinklessRepair;
use local_algorithms::tree::theorem10::{theorem10_phase1, Theorem10Config};
use local_algorithms::{
    recover, run_sync, DefectiveGreedyFinisher, EdgeGreedyFinisher, Finisher,
    GreedyColoringFinisher, LubyRestartFinisher, RecoveryPolicy, RulingSetFinisher,
    SinklessFinisher, SyncAlgorithm, SyncRun,
};
use local_graphs::analysis::line_graph;
use local_graphs::{gen, Graph, GraphError};
use local_lcl::problems::{
    DefectiveColoring, EdgeKColoring, Mis, Orientation, PortColors, RulingSet, SinklessOrientation,
    VertexColoring,
};
use local_lcl::{check_partial, LclProblem, PartialValidity};
use local_model::{derived_u64, Budget, ExecSpec, FaultPlan, Mode, Outcome};
use local_obs::{MetricSet, MetricsRegistry, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Maximum degree of the tree-coloring workload's tree.
const TREE_DELTA: usize = 16;
/// Degree of the sinkless-orientation (and line-graph base) workloads.
const SINKLESS_DELTA: usize = 3;
/// Phases of the sinkless repair protocol.
const SINKLESS_PHASES: u32 = 20;
/// Degree of the MIS workload.
const MIS_DELTA: usize = 4;
/// Round budget of the MIS sweep runs (E12/E13).
const MIS_SWEEP_BUDGET: u32 = 400;
/// Round budget of the MIS adversary evaluator (E14; tighter, so searched
/// crash schedules stay consequential).
const MIS_ASSESS_BUDGET: u32 = 60;
/// Crash rounds an adversary plan may schedule against MIS: Luby's active
/// prefix (a crash after every node halted changes nothing).
const MIS_ADVERSARY_CRASH_WINDOW: u32 = 12;
/// Palette of the edge-coloring workload (`Δ + 2` on a cubic base graph,
/// so the greedy finisher is never starved by frozen pins).
const EDGE_PALETTE: usize = 5;
/// Round budget of the edge-coloring runs on the line graph.
const EDGE_BUDGET: u32 = 400;
/// Crash rounds an adversary plan may schedule against edge coloring:
/// RandGreedy's active prefix.
const EDGE_ADVERSARY_CRASH_WINDOW: u32 = 12;
/// Ruling distance of the ruling-set workload (`(2, k)`-ruling set).
const RULING_K: u32 = 2;
/// Palette of the defective-coloring workload.
const DEFECTIVE_COLORS: usize = 2;
/// Tolerated monochromatic degree of the defective-coloring workload.
const DEFECTIVE_DEFECT: usize = 1;
/// Stream tag separating [`Workload::heal`]'s restart-finisher seed from
/// every other consumer of the trial seed (E13's historical tag).
const HEAL_FINISHER_STREAM: u64 = 0xE13;
/// Stream tag separating [`Workload::assess`]'s restart-finisher seed from
/// every other consumer of the evaluation seed (E14's historical tag).
const ASSESS_FINISHER_STREAM: u64 = 0xE14;

/// Catalog names, in catalog order (legacy entries first).
pub const NAMES: [&str; 6] = [
    "tree-coloring",
    "sinkless",
    "mis",
    "edge-coloring",
    "ruling-set",
    "defective-coloring",
];

/// Canonicalize a runtime workload name to its `&'static str` catalog
/// entry; `None` for names outside the catalog.
pub fn static_name(name: &str) -> Option<&'static str> {
    NAMES.iter().copied().find(|n| *n == name)
}

/// Shared row lookup behind `Outcome12/13/14::get`: the first row whose
/// workload name equals `workload` and whose experiment-specific key
/// matches.
pub fn find_row<'a, R>(
    rows: &'a [R],
    workload: &str,
    name_of: impl Fn(&R) -> &str,
    key: impl Fn(&R) -> bool,
) -> Option<&'a R> {
    rows.iter().find(|r| name_of(r) == workload && key(r))
}

/// Graph sizes of the catalog's generators. The three new families reuse
/// the legacy sizes (`sinkless_n` for the edge-coloring base graph,
/// `mis_n` for the ruling-set and defective-coloring graphs), so one
/// `Sizes` fully determines the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Vertices in the tree-coloring workload (Δ = 16 tree).
    pub tree_n: usize,
    /// Vertices in the sinkless-orientation and edge-coloring base graphs
    /// (3-regular).
    pub sinkless_n: usize,
    /// Vertices in the MIS (4-regular), ruling-set, and defective-coloring
    /// (3-regular) graphs.
    pub mis_n: usize,
}

/// What one completed [`Workload::measure`] trial contributes to its grid
/// point (E12's per-trial record).
///
/// Integer-only so checkpointed records round-trip exactly and a resumed
/// sweep reproduces the uninterrupted JSON byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasureRecord {
    /// Vertices that decided an output.
    pub halted: usize,
    /// Vertices silenced by the crash schedule.
    pub crashed: usize,
    /// Vertices still undecided when the budget ran out.
    pub cut: usize,
    /// Vertices whose full view survived and was checked.
    pub checked: usize,
    /// Checked vertices whose view is acceptable.
    pub valid: usize,
    /// Vertices skipped because they or a ball neighbor carry no label.
    pub skipped: usize,
    /// Largest decided round.
    pub max_round: u32,
    /// The trial's engine metrics.
    pub metrics: MetricsRegistry,
}

/// What one completed [`Workload::heal`] trial contributes to its grid
/// point (E13's per-trial record).
///
/// Integer-only (plus strings) so checkpointed records round-trip exactly
/// and a resumed sweep reproduces the uninterrupted JSON byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealRecord {
    /// Whether recovery produced a complete valid labeling.
    pub recovered: bool,
    /// Boundary-radius escalations the recovery needed (0 = the faulty run
    /// already validated).
    pub attempts: u32,
    /// Damaged-core size.
    pub core: usize,
    /// Residue size (core + dilation).
    pub residue: usize,
    /// Largest decided round of the base run.
    pub base_rounds: u32,
    /// Extra rounds the finisher paid on top of the base run.
    pub extra_rounds: u32,
    /// Vertices of the base run that decided an output.
    pub halted: usize,
    /// Vertices silenced by the crash schedule.
    pub crashed: usize,
    /// Vertices still undecided when the budget ran out.
    pub cut: usize,
    /// The failure message when recovery was defeated.
    pub failure: Option<String>,
    /// The trial's engine + recovery metrics.
    pub metrics: MetricsRegistry,
}

/// One catalog entry, erased behind an object-safe interface: the graph,
/// the fault-plane windows, and the three per-experiment trial semantics.
///
/// Implementations are `Send + Sync` so the parallel trial harness and the
/// sweep fabric can share one boxed entry across worker threads.
pub trait Workload: Send + Sync {
    /// The catalog name (one of [`NAMES`]).
    fn name(&self) -> &'static str;

    /// The graph fault plans are sampled over and the protocol runs on.
    /// For `edge-coloring` this is the *line graph* — faults hit edges of
    /// the base graph, which is exactly the model's message surface.
    fn graph(&self) -> &Graph;

    /// Crash-round window for randomly sampled fault plans (E12/E13).
    fn crash_window(&self) -> u32;

    /// Crash-round window for searched adversary plans (E14); defaults to
    /// [`Workload::crash_window`], tightened where the protocol's active
    /// prefix is much shorter than its sweep budget.
    fn adversary_crash_window(&self) -> u32 {
        self.crash_window()
    }

    /// Run the protocol under `plan` at `seed` and score the surviving
    /// partial labeling: E12's trial.
    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord;

    /// Run the protocol under `plan` at `seed`, then recover the partial
    /// labeling with the entry's finisher under `policy`: E13's trial.
    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord;

    /// Score `plan` for the adversary search: replay at the fixed
    /// evaluation `seed`, attempt recovery, and fold the damage census into
    /// an [`Evaluation`] plus the degradation report JSON (`"null"` when
    /// recovery still succeeded): E14's plan evaluator.
    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String);
}

/// One catalog slot: a built workload, or the name plus the graph-generator
/// error that kept it from building (the sweeps render those as error rows).
pub type WorkloadSlot = Result<Box<dyn Workload>, (&'static str, GraphError)>;

/// Run `algo` on `g` under the fault plan, with the standard sweep
/// plumbing (budget, optional trace, optional meter).
fn faulty_run<A: SyncAlgorithm>(
    g: &Graph,
    algo: &A,
    budget: u32,
    seed: u64,
    plan: &FaultPlan,
    trace: Option<&Trace>,
    set: Option<&MetricSet>,
) -> SyncRun<A::Output> {
    run_sync(
        g,
        Mode::randomized(seed),
        algo,
        &ExecSpec::default()
            .with_budget(Budget::rounds(budget))
            .with_faults(plan)
            .traced(trace)
            .metered(set),
    )
}

/// Partial labels of the vertices that decided.
fn decided_labels<O: Clone>(run: &SyncRun<O>) -> Vec<Option<O>> {
    run.outcomes.iter().map(|o| o.output().cloned()).collect()
}

/// Fold a run and its partial-validity verdict into a [`MeasureRecord`].
fn measure_record<O>(run: &SyncRun<O>, pv: &PartialValidity, set: &MetricSet) -> MeasureRecord {
    let (halted, crashed, cut) = run.counts();
    let mut metrics = MetricsRegistry::new();
    metrics.absorb(set);
    MeasureRecord {
        halted,
        crashed,
        cut,
        checked: pv.checked,
        valid: pv.valid,
        skipped: pv.skipped,
        max_round: run.max_decided_round(),
        metrics,
    }
}

/// Run recovery on one faulty base run and fold the result into a
/// [`HealRecord`]. The caller owns the trial's [`MetricSet`] and absorbs it
/// into the record afterwards — this only feeds the recovery counters.
#[allow(clippy::too_many_arguments)]
fn heal_record<P, F, O>(
    g: &Graph,
    run: &SyncRun<O>,
    partial: &[Option<P::Label>],
    problem: &P,
    finisher: &F,
    policy: &RecoveryPolicy,
    trace: Option<&Trace>,
    metrics: Option<&MetricSet>,
) -> HealRecord
where
    P: LclProblem,
    F: Finisher<P>,
{
    let (halted, crashed, cut) = run.counts();
    let base_rounds = run.max_decided_round();
    match recover(problem, g, partial, finisher, policy, trace, metrics) {
        Ok(rec) => HealRecord {
            recovered: true,
            attempts: rec.attempts,
            core: rec.core_size,
            residue: rec.residue_size,
            base_rounds,
            extra_rounds: rec.extra_rounds,
            halted,
            crashed,
            cut,
            failure: None,
            metrics: MetricsRegistry::new(),
        },
        Err(report) => HealRecord {
            recovered: false,
            attempts: policy.max_radius,
            core: 0,
            residue: 0,
            base_rounds,
            extra_rounds: 0,
            halted,
            crashed,
            cut,
            failure: Some(report.error.to_string()),
            metrics: MetricsRegistry::new(),
        },
    }
}

/// Score one plan's base run + recovery attempt: the common tail of every
/// [`Workload::assess`]. Returns the [`Evaluation`] the adversary
/// objectives fold and the degradation report JSON (`"null"` when recovery
/// succeeded).
fn assess_record<P, F, O>(
    g: &Graph,
    run: &SyncRun<O>,
    partial: &[Option<P::Label>],
    problem: &P,
    finisher: &F,
    policy: &RecoveryPolicy,
    trace: Option<&Trace>,
) -> (Evaluation, String)
where
    P: LclProblem,
    F: Finisher<P>,
{
    let (_, crashed, cut) = run.counts();
    match recover(problem, g, partial, finisher, policy, trace, None) {
        Ok(rec) => (
            Evaluation {
                radius: rec.radius,
                degraded: false,
                breaches: 0,
                violations: 0,
                crashed: crashed as u64,
                cut: cut as u64,
            },
            "null".to_string(),
        ),
        Err(report) => {
            let breaches = report.trail.iter().filter(|a| a.breach.is_some()).count();
            let eval = Evaluation {
                radius: policy.max_radius + 1,
                degraded: true,
                breaches: breaches as u64,
                violations: report.violations as u64,
                crashed: crashed as u64,
                cut: cut as u64,
            };
            let json = serde_json::to_string(&*report).expect("degraded run serializes");
            (eval, json)
        }
    }
}

/// `tree-coloring` — Theorem 10's Phase-1 ColorBidding on a Δ = 16 tree.
struct TreeColoring {
    graph: Graph,
    budget: u32,
}

impl TreeColoring {
    /// Decided vertices carry `Some(color)` or `None` (filtered bad) —
    /// both are decisions, but only colors are checkable; flattening folds
    /// filtered vertices into the damaged core, so recovery colors them
    /// too (the finisher plays Theorem 10's deterministic Phase 2, bounded
    /// to the residue instead of centralized).
    fn labels(out: &SyncRun<Option<usize>>) -> Vec<Option<usize>> {
        out.outcomes
            .iter()
            .map(|o| match o {
                Outcome::Halted { output, .. } => *output,
                _ => None,
            })
            .collect()
    }

    /// Phase-1 ColorBidding under `plan` (Theorem 10's randomized half).
    fn bid(
        &self,
        seed: u64,
        plan: &FaultPlan,
        trace: Option<&Trace>,
        set: Option<&MetricSet>,
    ) -> SyncRun<Option<usize>> {
        let spec = ExecSpec::new().with_faults(plan).traced(trace).metered(set);
        theorem10_phase1(
            &self.graph,
            TREE_DELTA,
            seed,
            Theorem10Config::default(),
            &spec,
        )
    }
}

impl Workload for TreeColoring {
    fn name(&self) -> &'static str {
        NAMES[0]
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn crash_window(&self) -> u32 {
        self.budget
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let out = self.bid(seed, plan, trace, Some(&set));
        let labels = Self::labels(&out);
        // Phase 1 promises Δ − ⌈√Δ⌉ colors; the reserved tail belongs to
        // Phase 2, so the partial check scores against the tighter palette.
        let reserved = (TREE_DELTA as f64).sqrt().ceil() as usize;
        let pv = check_partial(
            &VertexColoring::new(TREE_DELTA - reserved),
            &self.graph,
            &labels,
        );
        measure_record(&out, &pv, &set)
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let out = self.bid(seed, plan, trace, Some(&set));
        let labels = Self::labels(&out);
        let mut r = heal_record(
            &self.graph,
            &out,
            &labels,
            &VertexColoring::new(TREE_DELTA),
            &GreedyColoringFinisher {
                palette: TREE_DELTA,
            },
            policy,
            trace,
            Some(&set),
        );
        r.metrics.absorb(&set);
        r
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let out = self.bid(seed, plan, trace, None);
        let labels = Self::labels(&out);
        assess_record(
            &self.graph,
            &out,
            &labels,
            &VertexColoring::new(TREE_DELTA),
            &GreedyColoringFinisher {
                palette: TREE_DELTA,
            },
            policy,
            trace,
        )
    }
}

/// `sinkless` — the sinkless-orientation repair protocol on a cubic graph.
struct Sinkless {
    graph: Graph,
}

impl Sinkless {
    fn algo() -> SinklessRepair {
        SinklessRepair {
            phases: SINKLESS_PHASES,
        }
    }

    fn budget() -> u32 {
        2 * SINKLESS_PHASES + 6
    }
}

impl Workload for Sinkless {
    fn name(&self) -> &'static str {
        NAMES[1]
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn crash_window(&self) -> u32 {
        Self::budget()
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &Self::algo(),
            Self::budget(),
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<Orientation>> = decided_labels(&out);
        let pv = check_partial(
            &SinklessOrientation::new(SINKLESS_DELTA),
            &self.graph,
            &labels,
        );
        measure_record(&out, &pv, &set)
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &Self::algo(),
            Self::budget(),
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<Orientation>> = decided_labels(&out);
        let mut r = heal_record(
            &self.graph,
            &out,
            &labels,
            &SinklessOrientation::new(SINKLESS_DELTA),
            &SinklessFinisher,
            policy,
            trace,
            Some(&set),
        );
        r.metrics.absorb(&set);
        r
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let out = faulty_run(
            &self.graph,
            &Self::algo(),
            Self::budget(),
            seed,
            plan,
            trace,
            None,
        );
        let labels: Vec<Option<Orientation>> = decided_labels(&out);
        assess_record(
            &self.graph,
            &out,
            &labels,
            &SinklessOrientation::new(SINKLESS_DELTA),
            &SinklessFinisher,
            policy,
            trace,
        )
    }
}

/// `mis` — Luby's randomized MIS on a quartic graph.
struct MisLuby {
    graph: Graph,
}

impl Workload for MisLuby {
    fn name(&self) -> &'static str {
        NAMES[2]
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn crash_window(&self) -> u32 {
        MIS_SWEEP_BUDGET
    }

    fn adversary_crash_window(&self) -> u32 {
        MIS_ADVERSARY_CRASH_WINDOW
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &Luby::new(),
            MIS_SWEEP_BUDGET,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<bool>> = decided_labels(&out);
        let pv = check_partial(&Mis::new(), &self.graph, &labels);
        measure_record(&out, &pv, &set)
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &Luby::new(),
            MIS_SWEEP_BUDGET,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<bool>> = decided_labels(&out);
        let mut r = heal_record(
            &self.graph,
            &out,
            &labels,
            &Mis::new(),
            &LubyRestartFinisher {
                seed: derived_u64(seed, HEAL_FINISHER_STREAM),
            },
            policy,
            trace,
            Some(&set),
        );
        r.metrics.absorb(&set);
        r
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let out = faulty_run(
            &self.graph,
            &Luby::new(),
            MIS_ASSESS_BUDGET,
            seed,
            plan,
            trace,
            None,
        );
        let labels: Vec<Option<bool>> = decided_labels(&out);
        assess_record(
            &self.graph,
            &out,
            &labels,
            &Mis::new(),
            &LubyRestartFinisher {
                seed: derived_u64(seed, ASSESS_FINISHER_STREAM),
            },
            policy,
            trace,
        )
    }
}

/// `edge-coloring` — randomized greedy `(Δ+2)`-edge-coloring of a cubic
/// base graph, run as a vertex coloring of its line graph. Fault plans
/// target the line graph (each line vertex *is* one base edge), and the
/// surviving edge colors translate back to per-port labels of the base.
struct EdgeColoring {
    base: Graph,
    line: Graph,
}

impl EdgeColoring {
    /// Translate decided line-graph colors to the base graph's per-vertex
    /// port labels: a base vertex is labeled iff *all* its incident edges
    /// decided.
    fn port_labels(&self, out: &SyncRun<usize>) -> Vec<Option<PortColors>> {
        let colors = decided_labels(out);
        self.base
            .vertices()
            .map(|v| {
                self.base
                    .neighbors(v)
                    .iter()
                    .map(|nb| colors[nb.edge])
                    .collect::<Option<Vec<usize>>>()
                    .map(PortColors)
            })
            .collect()
    }
}

impl Workload for EdgeColoring {
    fn name(&self) -> &'static str {
        NAMES[3]
    }

    fn graph(&self) -> &Graph {
        &self.line
    }

    fn crash_window(&self) -> u32 {
        EDGE_BUDGET
    }

    fn adversary_crash_window(&self) -> u32 {
        EDGE_ADVERSARY_CRASH_WINDOW
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.line,
            &RandGreedy::new(EDGE_PALETTE),
            EDGE_BUDGET,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels = self.port_labels(&out);
        let pv = check_partial(&EdgeKColoring::new(EDGE_PALETTE), &self.base, &labels);
        measure_record(&out, &pv, &set)
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.line,
            &RandGreedy::new(EDGE_PALETTE),
            EDGE_BUDGET,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels = self.port_labels(&out);
        let mut r = heal_record(
            &self.base,
            &out,
            &labels,
            &EdgeKColoring::new(EDGE_PALETTE),
            &EdgeGreedyFinisher {
                palette: EDGE_PALETTE,
            },
            policy,
            trace,
            Some(&set),
        );
        r.metrics.absorb(&set);
        r
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let out = faulty_run(
            &self.line,
            &RandGreedy::new(EDGE_PALETTE),
            EDGE_BUDGET,
            seed,
            plan,
            trace,
            None,
        );
        let labels = self.port_labels(&out);
        assess_record(
            &self.base,
            &out,
            &labels,
            &EdgeKColoring::new(EDGE_PALETTE),
            &EdgeGreedyFinisher {
                palette: EDGE_PALETTE,
            },
            policy,
            trace,
        )
    }
}

/// `ruling-set` — the dilated lottery computing a `(2, k)`-ruling set of a
/// cubic graph, checked by the radius-`k` partial verifier.
struct RulingSetWorkload {
    graph: Graph,
    horizon: u32,
}

impl RulingSetWorkload {
    /// Settle horizon: members are pairwise at distance > k, so radius-1
    /// member balls are disjoint and a cubic graph holds at most `n / 4`
    /// of them; one phase per member plus a final coverage phase.
    fn horizon(n: usize) -> u32 {
        (2 * RULING_K + 1) * (n as u32 / 4 + 1)
    }
}

impl Workload for RulingSetWorkload {
    fn name(&self) -> &'static str {
        NAMES[4]
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn crash_window(&self) -> u32 {
        self.horizon
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &DilatedLuby::new(RULING_K, self.horizon),
            self.horizon + 4,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<bool>> = decided_labels(&out);
        let pv = check_partial(&RulingSet::new(RULING_K as usize), &self.graph, &labels);
        measure_record(&out, &pv, &set)
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &DilatedLuby::new(RULING_K, self.horizon),
            self.horizon + 4,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<bool>> = decided_labels(&out);
        let mut r = heal_record(
            &self.graph,
            &out,
            &labels,
            &RulingSet::new(RULING_K as usize),
            &RulingSetFinisher {
                k: RULING_K as usize,
            },
            policy,
            trace,
            Some(&set),
        );
        r.metrics.absorb(&set);
        r
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let out = faulty_run(
            &self.graph,
            &DilatedLuby::new(RULING_K, self.horizon),
            self.horizon + 4,
            seed,
            plan,
            trace,
            None,
        );
        let labels: Vec<Option<bool>> = decided_labels(&out);
        assess_record(
            &self.graph,
            &out,
            &labels,
            &RulingSet::new(RULING_K as usize),
            &RulingSetFinisher {
                k: RULING_K as usize,
            },
            policy,
            trace,
        )
    }
}

/// `defective-coloring` — bid-arbitrated local search for a 1-defective
/// 2-coloring of a cubic graph.
struct Defective {
    graph: Graph,
    horizon: u32,
}

impl Defective {
    /// Settle horizon: the monochromatic edge count strictly decreases
    /// whenever a flip commits, so `m` two-round cycles suffice fault-free.
    fn horizon(m: usize) -> u32 {
        2 * m as u32 + 3
    }

    fn algo(&self) -> DefectiveLocalSearch {
        DefectiveLocalSearch::new(DEFECTIVE_COLORS, DEFECTIVE_DEFECT, self.horizon)
    }
}

impl Workload for Defective {
    fn name(&self) -> &'static str {
        NAMES[5]
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn crash_window(&self) -> u32 {
        self.horizon
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &self.algo(),
            self.horizon + 4,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<usize>> = decided_labels(&out);
        let pv = check_partial(
            &DefectiveColoring::new(DEFECTIVE_COLORS, DEFECTIVE_DEFECT),
            &self.graph,
            &labels,
        );
        measure_record(&out, &pv, &set)
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let out = faulty_run(
            &self.graph,
            &self.algo(),
            self.horizon + 4,
            seed,
            plan,
            trace,
            Some(&set),
        );
        let labels: Vec<Option<usize>> = decided_labels(&out);
        let mut r = heal_record(
            &self.graph,
            &out,
            &labels,
            &DefectiveColoring::new(DEFECTIVE_COLORS, DEFECTIVE_DEFECT),
            &DefectiveGreedyFinisher {
                colors: DEFECTIVE_COLORS,
                defect: DEFECTIVE_DEFECT,
            },
            policy,
            trace,
            Some(&set),
        );
        r.metrics.absorb(&set);
        r
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let out = faulty_run(
            &self.graph,
            &self.algo(),
            self.horizon + 4,
            seed,
            plan,
            trace,
            None,
        );
        let labels: Vec<Option<usize>> = decided_labels(&out);
        assess_record(
            &self.graph,
            &out,
            &labels,
            &DefectiveColoring::new(DEFECTIVE_COLORS, DEFECTIVE_DEFECT),
            &DefectiveGreedyFinisher {
                colors: DEFECTIVE_COLORS,
                defect: DEFECTIVE_DEFECT,
            },
            policy,
            trace,
        )
    }
}

/// Build the full catalog, in [`NAMES`] order. A failing graph generator
/// yields `Err((name, error))` for its slot instead of panicking — the
/// sweeps turn that into grid-shaped error rows.
///
/// All generators draw from one [`StdRng`] stream seeded by `graph_seed`,
/// **legacy entries first**: the three legacy graphs are bit-identical to
/// the pre-catalog drivers', so legacy report rows keep their exact bytes.
pub fn workloads(sizes: &Sizes, graph_seed: u64) -> Vec<WorkloadSlot> {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let tree = gen::random_tree_max_degree(sizes.tree_n, TREE_DELTA, &mut rng);
    let cubic = gen::random_regular(sizes.sinkless_n, SINKLESS_DELTA, &mut rng);
    let quartic = gen::random_regular(sizes.mis_n, MIS_DELTA, &mut rng);
    let edge_base = gen::random_regular(sizes.sinkless_n, SINKLESS_DELTA, &mut rng);
    let ruling = gen::random_regular(sizes.mis_n, SINKLESS_DELTA, &mut rng);
    let defective = gen::random_regular(sizes.mis_n, SINKLESS_DELTA, &mut rng);

    let tree_budget = 2 * Theorem10Config::default().schedule(TREE_DELTA).len() as u32 + 4;
    vec![
        Ok(Box::new(TreeColoring {
            graph: tree,
            budget: tree_budget,
        }) as Box<dyn Workload>),
        cubic
            .map_err(|e| (NAMES[1], e))
            .map(|graph| Box::new(Sinkless { graph }) as Box<dyn Workload>),
        quartic
            .map_err(|e| (NAMES[2], e))
            .map(|graph| Box::new(MisLuby { graph }) as Box<dyn Workload>),
        edge_base.map_err(|e| (NAMES[3], e)).map(|base| {
            let line = line_graph(&base);
            Box::new(EdgeColoring { base, line }) as Box<dyn Workload>
        }),
        ruling.map_err(|e| (NAMES[4], e)).map(|graph| {
            let horizon = RulingSetWorkload::horizon(graph.n());
            Box::new(RulingSetWorkload { graph, horizon }) as Box<dyn Workload>
        }),
        defective.map_err(|e| (NAMES[5], e)).map(|graph| {
            let horizon = Defective::horizon(graph.m());
            Box::new(Defective { graph, horizon }) as Box<dyn Workload>
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> Sizes {
        Sizes {
            tree_n: 48,
            sinkless_n: 30,
            mis_n: 32,
        }
    }

    #[test]
    fn catalog_is_complete_and_named_canonically() {
        let cat = workloads(&sizes(), 0xCA7);
        assert_eq!(cat.len(), NAMES.len());
        for (slot, name) in cat.iter().zip(NAMES) {
            let w = slot.as_ref().expect("feasible sizes");
            assert_eq!(w.name(), name);
            assert_eq!(static_name(w.name()), Some(name));
            assert!(w.graph().n() > 0);
            assert!(w.crash_window() >= 1);
            assert!(w.adversary_crash_window() <= w.crash_window());
        }
        assert_eq!(static_name("warp-drive"), None);
    }

    #[test]
    fn legacy_graphs_are_independent_of_new_entries() {
        // The legacy prefix draws first from the shared stream: the three
        // legacy graphs must be exactly what a three-entry catalog drew
        // before the menu tripled (pinned by edge count and degree here,
        // byte-identically by the golden differential tests).
        let cat = workloads(&sizes(), 0xE12F);
        let mut rng = StdRng::seed_from_u64(0xE12F);
        let tree = gen::random_tree_max_degree(48, TREE_DELTA, &mut rng);
        let cubic = gen::random_regular(30, SINKLESS_DELTA, &mut rng).unwrap();
        let quartic = gen::random_regular(32, MIS_DELTA, &mut rng).unwrap();
        for (slot, legacy) in cat.iter().take(3).zip([&tree, &cubic, &quartic]) {
            let w = slot.as_ref().unwrap();
            assert_eq!(w.graph().n(), legacy.n());
            assert_eq!(w.graph().m(), legacy.m());
        }
    }

    #[test]
    fn infeasible_slots_carry_their_catalog_name() {
        // Odd n·d kills the cubic generators: sinkless, edge-coloring.
        let cat = workloads(
            &Sizes {
                tree_n: 48,
                sinkless_n: 31,
                mis_n: 32,
            },
            1,
        );
        let failed: Vec<&str> = cat
            .iter()
            .filter_map(|s| s.as_ref().err().map(|(n, _)| *n))
            .collect();
        assert_eq!(failed, vec!["sinkless", "edge-coloring"]);
    }

    #[test]
    fn fault_free_measure_is_fully_valid() {
        for slot in workloads(&sizes(), 0xCA8) {
            let w = slot.expect("feasible sizes");
            let r = w.measure(7, &FaultPlan::none(), None);
            assert_eq!(r.crashed, 0, "{}", w.name());
            assert_eq!(r.cut, 0, "{}: nothing may outlive the budget", w.name());
            assert_eq!(r.skipped, 0, "{}: every vertex checkable", w.name());
            assert_eq!(r.valid, r.checked, "{}: fault-free is valid", w.name());
        }
    }

    #[test]
    fn fault_free_heal_is_a_no_op() {
        let policy = RecoveryPolicy::default();
        for slot in workloads(&sizes(), 0xCA9) {
            let w = slot.expect("feasible sizes");
            let r = w.heal(7, &FaultPlan::none(), &policy, None);
            assert!(r.recovered, "{}: {:?}", w.name(), r.failure);
            assert_eq!(r.attempts, 0, "{}: no escalation fault-free", w.name());
            assert_eq!(r.core, 0, "{}: empty damaged core", w.name());
            assert_eq!(r.extra_rounds, 0, "{}: finisher is a no-op", w.name());
        }
    }
}
