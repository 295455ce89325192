//! The workload catalog: one first-class registry of every fault-plane
//! workload the experiment drivers sweep, heal, and attack.
//!
//! A *workload* is the quadruple the fault experiments revolve around — a
//! graph generator, a message-passing protocol, an LCL checker, and a
//! recovery finisher. E12 (resilience), E13 (recovery), and E14 (adversary
//! search) all consume the same quadruples through the object-safe
//! [`Workload`] trait; [`workloads`] is the **single** construction point,
//! so adding an entry here automatically enrolls it in all three sweeps
//! and the CI replay gates.
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
//!   recovery via [`recover`], folding its [`DegradedRun`] census into the
//!   adversary objective [`Evaluation`]; E14's plan evaluator.
//!
//! All six entries share **one** `Workload` implementation, generic over a
//! private per-family description (`Family`): its `Problem` and `Finisher`
//! types, a `run` returning the base run's census and the partial labeling,
//! and the few per-family differences (the graph the labeling covers,
//! `tree-coloring`'s tighter measured palette). Dispatch inside an entry is
//! static; only the catalog slot is boxed.
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
use local_algorithms::tree::theorem10::{main_palette, theorem10_phase1, Theorem10Config};
use local_algorithms::{
    recover, run_sync, DefectiveGreedyFinisher, DegradedRun, EdgeGreedyFinisher, Finisher,
    GreedyColoringFinisher, LubyRestartFinisher, Recovery, RecoveryPolicy, RulingSetFinisher,
    SinklessFinisher, SyncAlgorithm, SyncRun,
};
use local_graphs::analysis::line_graph;
use local_graphs::{gen, Graph, GraphError};
use local_lcl::problems::{
    DefectiveColoring, EdgeKColoring, Mis, PortColors, RulingSet, SinklessOrientation,
    VertexColoring,
};
use local_lcl::{check_partial, LclProblem};
use local_model::{derived_u64, Budget, ExecSpec, FaultPlan, Mode};
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
/// Round budget (and crash window) of the sinkless repair runs.
const SINKLESS_BUDGET: u32 = 2 * SINKLESS_PHASES + 6;
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
/// Stream tag separating [`Workload::heal`]'s finisher seed from every
/// other consumer of the trial seed (E13's historical tag).
const HEAL_FINISHER_STREAM: u64 = 0xE13;
/// Stream tag separating [`Workload::assess`]'s finisher seed from every
/// other consumer of the evaluation seed (E14's historical tag).
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
    /// Boundary-radius escalations the recovery made (0 = the faulty run
    /// already validated; a defeated recovery counts every attempt it made
    /// before giving up).
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
/// Implementations are `Send + Sync` so the parallel trial harness can
/// share one boxed entry across worker threads.
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

/// Which trial semantics a [`Family::run`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// [`Workload::measure`].
    Measure,
    /// [`Workload::heal`].
    Heal,
    /// [`Workload::assess`].
    Assess,
}

/// The per-vertex fates of one base run.
struct Census {
    /// Vertices that decided an output.
    halted: usize,
    /// Vertices silenced by the crash schedule.
    crashed: usize,
    /// Vertices still undecided when the budget ran out.
    cut: usize,
    /// Largest decided round.
    max_round: u32,
}

impl Census {
    fn of<O>(run: &SyncRun<O>) -> Self {
        let (halted, crashed, cut) = run.counts();
        Census {
            halted,
            crashed,
            cut,
            max_round: run.max_decided_round(),
        }
    }
}

/// The label type of a family's problem.
type Label<F> = <<F as Family>::Problem as LclProblem>::Label;

/// What sets one catalog family apart: its protocol run, its LCL, and its
/// finisher. Everything the families share — scoring, healing and
/// assessing the partial labeling — is the one [`Workload`] impl over
/// [`Entry`].
trait Family: Send + Sync {
    /// The LCL the partial labeling is checked and recovered against.
    type Problem: LclProblem;
    /// The recovery finisher.
    type Finisher: Finisher<Self::Problem>;

    /// Run the protocol on `g` at `seed` under `spec` (fault plan, trace,
    /// meter): the run's census plus the partial labeling of
    /// [`Family::base`].
    fn run(
        &self,
        g: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        purpose: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>);

    /// The graph the partial labeling covers, given the graph the protocol
    /// ran on.
    fn base<'g>(&'g self, g: &'g Graph) -> &'g Graph {
        g
    }

    /// The problem [`Workload::heal`] and [`Workload::assess`] recover.
    fn problem(&self) -> Self::Problem;

    /// The problem [`Workload::measure`] scores the partial labeling by.
    fn measured_problem(&self) -> Self::Problem {
        self.problem()
    }

    /// The finisher, at a seed already separated from the base run's.
    fn finisher(&self, seed: u64) -> Self::Finisher;
}

/// Run `algo` on `g` at `seed` for at most `budget` rounds under `spec`:
/// the census plus every decided vertex's output.
fn run_decided<A: SyncAlgorithm>(
    g: &Graph,
    algo: &A,
    budget: u32,
    seed: u64,
    spec: ExecSpec<'_>,
) -> (Census, Vec<Option<A::Output>>) {
    let run = run_sync(
        g,
        Mode::randomized(seed),
        algo,
        &spec.with_budget(Budget::rounds(budget)),
    );
    let labels = run.outcomes.iter().map(|o| o.output().cloned()).collect();
    (Census::of(&run), labels)
}

/// A catalog entry: the graph plans target, its fault-plane windows, and
/// the family that runs, checks and heals on it.
struct Entry<F> {
    name: &'static str,
    graph: Graph,
    crash_window: u32,
    adversary_crash_window: u32,
    family: F,
}

impl<F: Family> Entry<F> {
    /// Run the family's protocol under `plan`, traced and metered as given.
    fn run(
        &self,
        seed: u64,
        plan: &FaultPlan,
        trace: Option<&Trace>,
        set: Option<&MetricSet>,
        purpose: Purpose,
    ) -> (Census, Vec<Option<Label<F>>>) {
        let spec = ExecSpec::new().with_faults(plan).traced(trace).metered(set);
        self.family.run(&self.graph, seed, spec, purpose)
    }

    /// [`Entry::run`], then hand the partial labeling to [`recover`] with
    /// the family's finisher, seeded on the purpose's own stream.
    fn run_and_recover(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
        set: Option<&MetricSet>,
        purpose: Purpose,
    ) -> (Census, Result<Recovery<Label<F>>, Box<DegradedRun>>) {
        let (census, labels) = self.run(seed, plan, trace, set, purpose);
        let stream = match purpose {
            Purpose::Assess => ASSESS_FINISHER_STREAM,
            Purpose::Measure | Purpose::Heal => HEAL_FINISHER_STREAM,
        };
        let finisher = self.family.finisher(derived_u64(seed, stream));
        let base = self.family.base(&self.graph);
        let healed = recover(
            &self.family.problem(),
            base,
            &labels,
            &finisher,
            policy,
            trace,
            set,
        );
        (census, healed)
    }
}

impl<F: Family> Workload for Entry<F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn crash_window(&self) -> u32 {
        self.crash_window
    }

    fn adversary_crash_window(&self) -> u32 {
        self.adversary_crash_window
    }

    fn measure(&self, seed: u64, plan: &FaultPlan, trace: Option<&Trace>) -> MeasureRecord {
        let set = MetricSet::new();
        let (census, labels) = self.run(seed, plan, trace, Some(&set), Purpose::Measure);
        let base = self.family.base(&self.graph);
        let pv = check_partial(&self.family.measured_problem(), base, &labels);
        let mut metrics = MetricsRegistry::new();
        metrics.absorb(&set);
        MeasureRecord {
            halted: census.halted,
            crashed: census.crashed,
            cut: census.cut,
            checked: pv.checked,
            valid: pv.valid,
            skipped: pv.skipped,
            max_round: census.max_round,
            metrics,
        }
    }

    fn heal(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> HealRecord {
        let set = MetricSet::new();
        let (census, healed) =
            self.run_and_recover(seed, plan, policy, trace, Some(&set), Purpose::Heal);
        let (recovered, attempts, core, residue, extra_rounds, failure) = match healed {
            Ok(rec) => (
                true,
                rec.attempts,
                rec.core_size,
                rec.residue_size,
                rec.extra_rounds,
                None,
            ),
            Err(report) => (
                false,
                report.trail.len() as u32,
                0,
                0,
                0,
                Some(report.error.to_string()),
            ),
        };
        let mut metrics = MetricsRegistry::new();
        metrics.absorb(&set);
        HealRecord {
            recovered,
            attempts,
            core,
            residue,
            base_rounds: census.max_round,
            extra_rounds,
            halted: census.halted,
            crashed: census.crashed,
            cut: census.cut,
            failure,
            metrics,
        }
    }

    fn assess(
        &self,
        seed: u64,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
        trace: Option<&Trace>,
    ) -> (Evaluation, String) {
        let (census, healed) =
            self.run_and_recover(seed, plan, policy, trace, None, Purpose::Assess);
        let (crashed, cut) = (census.crashed as u64, census.cut as u64);
        match healed {
            Ok(rec) => (
                Evaluation {
                    radius: rec.radius,
                    degraded: false,
                    breaches: 0,
                    violations: 0,
                    crashed,
                    cut,
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
                    crashed,
                    cut,
                };
                let json = serde_json::to_string(&*report).expect("degraded run serializes");
                (eval, json)
            }
        }
    }
}

/// `tree-coloring` — Theorem 10's Phase-1 ColorBidding on a Δ = 16 tree.
struct TreeColoring;

impl Family for TreeColoring {
    type Problem = VertexColoring;
    type Finisher = GreedyColoringFinisher;

    /// Decided vertices carry `Some(color)` or `None` (filtered bad) —
    /// both are decisions, but only colors are checkable; flattening folds
    /// filtered vertices into the damaged core, so recovery colors them
    /// too (the finisher plays Theorem 10's deterministic Phase 2, bounded
    /// to the residue instead of centralized).
    fn run(
        &self,
        g: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        _: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>) {
        let run = theorem10_phase1(g, TREE_DELTA, seed, Theorem10Config::default(), &spec);
        let labels = run
            .outcomes
            .iter()
            .map(|o| o.output().copied().flatten())
            .collect();
        (Census::of(&run), labels)
    }

    fn problem(&self) -> VertexColoring {
        VertexColoring::new(TREE_DELTA)
    }

    /// Phase 1 promises only its main palette; the reserved tail belongs
    /// to Phase 2, so the partial check scores against the tighter palette.
    fn measured_problem(&self) -> VertexColoring {
        VertexColoring::new(main_palette(TREE_DELTA))
    }

    fn finisher(&self, _: u64) -> GreedyColoringFinisher {
        GreedyColoringFinisher {
            palette: TREE_DELTA,
        }
    }
}

/// `sinkless` — the sinkless-orientation repair protocol on a cubic graph.
struct Sinkless;

impl Family for Sinkless {
    type Problem = SinklessOrientation;
    type Finisher = SinklessFinisher;

    fn run(
        &self,
        g: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        _: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>) {
        let algo = SinklessRepair {
            phases: SINKLESS_PHASES,
        };
        run_decided(g, &algo, SINKLESS_BUDGET, seed, spec)
    }

    fn problem(&self) -> SinklessOrientation {
        SinklessOrientation::new(SINKLESS_DELTA)
    }

    fn finisher(&self, _: u64) -> SinklessFinisher {
        SinklessFinisher
    }
}

/// `mis` — Luby's randomized MIS on a quartic graph.
struct MisLuby;

impl Family for MisLuby {
    type Problem = Mis;
    type Finisher = LubyRestartFinisher;

    fn run(
        &self,
        g: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        purpose: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>) {
        let budget = match purpose {
            Purpose::Assess => MIS_ASSESS_BUDGET,
            Purpose::Measure | Purpose::Heal => MIS_SWEEP_BUDGET,
        };
        run_decided(g, &Luby::new(), budget, seed, spec)
    }

    fn problem(&self) -> Mis {
        Mis::new()
    }

    fn finisher(&self, seed: u64) -> LubyRestartFinisher {
        LubyRestartFinisher { seed }
    }
}

/// `edge-coloring` — randomized greedy `(Δ+2)`-edge-coloring of a cubic
/// base graph, run as a vertex coloring of its line graph. Fault plans
/// target the line graph (each line vertex *is* one base edge), and the
/// surviving edge colors translate back to per-port labels of the base.
struct EdgeColoring {
    base: Graph,
}

impl Family for EdgeColoring {
    type Problem = EdgeKColoring;
    type Finisher = EdgeGreedyFinisher;

    /// A base vertex is labeled iff *all* its incident edges decided.
    fn run(
        &self,
        line: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        _: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>) {
        let algo = RandGreedy::new(EDGE_PALETTE);
        let (census, colors) = run_decided(line, &algo, EDGE_BUDGET, seed, spec);
        let ports = self
            .base
            .vertices()
            .map(|v| {
                self.base
                    .neighbors(v)
                    .iter()
                    .map(|nb| colors[nb.edge])
                    .collect::<Option<Vec<usize>>>()
                    .map(PortColors)
            })
            .collect();
        (census, ports)
    }

    fn base<'g>(&'g self, _line: &'g Graph) -> &'g Graph {
        &self.base
    }

    fn problem(&self) -> EdgeKColoring {
        EdgeKColoring::new(EDGE_PALETTE)
    }

    fn finisher(&self, _: u64) -> EdgeGreedyFinisher {
        EdgeGreedyFinisher {
            palette: EDGE_PALETTE,
        }
    }
}

/// `ruling-set` — the dilated lottery computing a `(2, k)`-ruling set of a
/// cubic graph, checked by the radius-`k` partial verifier.
struct Ruling {
    horizon: u32,
}

impl Ruling {
    /// Settle horizon: members are pairwise at distance > k, so radius-1
    /// member balls are disjoint and a cubic graph holds at most `n / 4`
    /// of them; one phase per member plus a final coverage phase.
    fn horizon(n: usize) -> u32 {
        (2 * RULING_K + 1) * (n as u32 / 4 + 1)
    }
}

impl Family for Ruling {
    type Problem = RulingSet;
    type Finisher = RulingSetFinisher;

    fn run(
        &self,
        g: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        _: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>) {
        let algo = DilatedLuby::new(RULING_K, self.horizon);
        run_decided(g, &algo, self.horizon + 4, seed, spec)
    }

    fn problem(&self) -> RulingSet {
        RulingSet::new(RULING_K as usize)
    }

    fn finisher(&self, _: u64) -> RulingSetFinisher {
        RulingSetFinisher {
            k: RULING_K as usize,
        }
    }
}

/// `defective-coloring` — bid-arbitrated local search for a 1-defective
/// 2-coloring of a cubic graph.
struct Defective {
    horizon: u32,
}

impl Defective {
    /// Settle horizon: the monochromatic edge count strictly decreases
    /// whenever a flip commits, so `m` two-round cycles suffice fault-free.
    fn horizon(m: usize) -> u32 {
        2 * m as u32 + 3
    }
}

impl Family for Defective {
    type Problem = DefectiveColoring;
    type Finisher = DefectiveGreedyFinisher;

    fn run(
        &self,
        g: &Graph,
        seed: u64,
        spec: ExecSpec<'_>,
        _: Purpose,
    ) -> (Census, Vec<Option<Label<Self>>>) {
        let algo = DefectiveLocalSearch::new(DEFECTIVE_COLORS, DEFECTIVE_DEFECT, self.horizon);
        run_decided(g, &algo, self.horizon + 4, seed, spec)
    }

    fn problem(&self) -> DefectiveColoring {
        DefectiveColoring::new(DEFECTIVE_COLORS, DEFECTIVE_DEFECT)
    }

    fn finisher(&self, _: u64) -> DefectiveGreedyFinisher {
        DefectiveGreedyFinisher {
            colors: DEFECTIVE_COLORS,
            defect: DEFECTIVE_DEFECT,
        }
    }
}

/// Box one catalog entry.
fn entry<F: Family + 'static>(
    name: &'static str,
    graph: Graph,
    crash_window: u32,
    adversary_crash_window: u32,
    family: F,
) -> Box<dyn Workload> {
    Box::new(Entry {
        name,
        graph,
        crash_window,
        adversary_crash_window,
        family,
    })
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

    let tree_budget = Theorem10Config::default().phase1_budget(TREE_DELTA);
    vec![
        Ok(entry(
            NAMES[0],
            tree,
            tree_budget,
            tree_budget,
            TreeColoring,
        )),
        cubic
            .map_err(|e| (NAMES[1], e))
            .map(|g| entry(NAMES[1], g, SINKLESS_BUDGET, SINKLESS_BUDGET, Sinkless)),
        quartic.map_err(|e| (NAMES[2], e)).map(|g| {
            let window = MIS_ADVERSARY_CRASH_WINDOW;
            entry(NAMES[2], g, MIS_SWEEP_BUDGET, window, MisLuby)
        }),
        edge_base.map_err(|e| (NAMES[3], e)).map(|base| {
            let line = line_graph(&base);
            let window = EDGE_ADVERSARY_CRASH_WINDOW;
            entry(NAMES[3], line, EDGE_BUDGET, window, EdgeColoring { base })
        }),
        ruling.map_err(|e| (NAMES[4], e)).map(|g| {
            let horizon = Ruling::horizon(g.n());
            entry(NAMES[4], g, horizon, horizon, Ruling { horizon })
        }),
        defective.map_err(|e| (NAMES[5], e)).map(|g| {
            let horizon = Defective::horizon(g.m());
            entry(NAMES[5], g, horizon, horizon, Defective { horizon })
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

    #[test]
    fn defeated_heal_counts_the_attempts_it_made() {
        use local_model::FaultSpec;

        // A zero-round budget breaches at radius 1, and recovery gives up
        // there: one attempt, not the policy's whole ladder.
        let policy = RecoveryPolicy {
            max_radius: 3,
            budget: Budget::rounds(0),
        };
        let cat = workloads(&sizes(), 0xCAA);
        let w = cat[2].as_ref().expect("feasible sizes");
        assert_eq!(w.name(), "mis");
        // Crashes in round 1 silence vertices before Luby decides them.
        let spec = FaultSpec::none().with_crash(0.2, 1);
        let plan = FaultPlan::sample(w.graph(), &spec, 7);
        assert!(plan.crash_count() > 0, "the plan must damage the run");
        let r = w.heal(7, &plan, &policy, None);
        assert!(!r.recovered, "a zero-round budget cannot heal");
        assert_eq!(r.attempts, 1);
    }
}
