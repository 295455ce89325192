//! The four benchmark workloads, each driven only through the libraries'
//! public entry points.
//!
//! A workload is built once per setup repetition ([`build`]) and then runs
//! *batches*: a batch of the sequential workloads (`separation`, `scale`) is
//! one op on the calling thread, so the engine's auto-sharding gets the
//! cores; a batch of the parallel workloads (`heal`, `adversary`) is one
//! isolated [`TrialPlan`] over a grid point, run on `nproc` workers. Every op
//! is a pure function of `(--seed, batch index)`, so a replay of the same
//! batches must reproduce every op's digest exactly.

use local_algorithms::color::be_forest_coloring_detailed;
use local_algorithms::mis::luby::Luby;
use local_algorithms::tree::theorem10::theorem10_color_traced;
use local_algorithms::tree::Theorem10Config;
use local_algorithms::{run_sync, RecoveryPolicy, SyncRun};
use local_graphs::{gen, Graph};
use local_lcl::problems::{Mis, VertexColoring};
use local_lcl::{Labeling, LclProblem};
use local_model::{derived_u64, ExecSpec, FaultPlan, FaultSpec, Mode};
use local_obs::{Trace, TraceSink};
use local_separation::adversary::{search, Objective, SearchConfig};
use local_separation::trials::{TrialPlan, TrialSpec};
use local_separation::workloads::{workloads, Sizes, Workload};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["separation", "scale", "heal", "adversary"];

/// Input sizes: the calibrated benchmark, or a seconds-scale copy of every
/// code path for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is calibrated on.
    Full,
    /// Tiny inputs that still reach every layer.
    Tiny,
}

/// One completed (or failed) op.
#[derive(Debug, Clone)]
pub struct Op {
    /// Wall-clock latency of the op in milliseconds.
    pub ms: f64,
    /// Summed latency of the op's trials in milliseconds: the worker time
    /// it occupied (equal to `ms` for an op that is a single call).
    pub busy_ms: f64,
    /// False if the op panicked, its output failed its checker, or one of
    /// the public invariants of its result did not hold.
    pub ok: bool,
    /// FNV digest of the op's deterministic result fields.
    pub digest: u64,
    /// Per-layer observations (`key`, value), summed or averaged into the
    /// per-layer metrics.
    pub samples: Vec<(&'static str, f64)>,
}

/// What checking one call's output found; the default is a failed call.
#[derive(Debug, Clone, Default)]
struct Checked {
    ok: bool,
    digest: u64,
    samples: Vec<(&'static str, f64)>,
}

impl Checked {
    /// The op of a single call that took `ms`.
    fn timed(self, ms: f64) -> Op {
        Op {
            ms,
            busy_ms: ms,
            ok: self.ok,
            digest: self.digest,
            samples: self.samples,
        }
    }
}

/// A built workload: its inputs plus the batch loop over them.
pub trait Bench {
    /// Ops every run completes, however short `--seconds` is; the
    /// fingerprint covers exactly these.
    fn min_ops(&self) -> u64;

    /// Whether batches run through the parallel trial harness (the
    /// utilization metric is only defined there).
    fn parallel(&self) -> bool;

    /// Run batch `b`. With a sink, every call records its spans into its
    /// own trace: trial 0 is the setup, and the `k` trials of batch `b` are
    /// numbered from `1 + b·k`.
    fn batch(&self, b: u64, sink: Option<&mut dyn TraceSink>) -> Vec<Op>;

    /// The `model.engine.shard_speedup` probe (only `scale` has one): rerun
    /// the first ops with one shard and with the default, and check the
    /// outputs are bit-identical.
    fn shard_probe(&self) -> Option<ShardProbe> {
        None
    }
}

/// What [`Bench::shard_probe`] measured.
#[derive(Debug, Clone, Copy)]
pub struct ShardProbe {
    /// Median 1-shard latency over median default latency.
    pub speedup: f64,
    /// Ops rerun at both shard counts.
    pub ops: u64,
    /// Ops whose two outputs differed.
    pub differing: u64,
}

/// Graph seed of E13's catalog: `heal` runs on E13 `--full`'s own graphs.
const E13_GRAPH_SEED: u64 = 0xE13F;
/// Graph seed of E14's catalog: `adversary` attacks the graphs E14's pinned
/// artifacts replay on.
const E14_GRAPH_SEED: u64 = 0xE14F;

/// Build workload `name` from `seed`. Setup is everything before the first
/// timed op: graph generation and catalog construction. The graphs are the
/// experiments' own (the complete tree and the circulant are deterministic;
/// the catalogs use E13's and E14's graph seeds), so `seed` moves every
/// trial, fault-plan and search seed while the graph-to-graph cost spread
/// stays out of the run-to-run spread.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Bench>> {
    let tiny = size == Size::Tiny;
    Some(match name {
        "separation" => Box::new(Separation {
            g: gen::complete_dary_tree(if tiny { 257 } else { 16_384 }, TREE_DELTA),
            seed: derived_u64(seed, 0x5E9),
            min_ops: if tiny { 3 } else { 5 },
        }),
        "scale" => Box::new(Scale {
            g: gen::stream::circulant(if tiny { 4_096 } else { 262_144 }, 4)
                .expect("n·d is even and d < n"),
            seed: derived_u64(seed, 0x5CA),
            min_ops: if tiny { 2 } else { 8 },
            probe_ops: if tiny { 1 } else { 3 },
        }),
        "heal" => Box::new(Heal {
            catalog: catalog(
                if tiny { (80, 60, 60) } else { (600, 240, 400) },
                E13_GRAPH_SEED,
            ),
            seed: derived_u64(seed, 0x9EA1),
            trials: if tiny { 1 } else { 2 },
            policy: RecoveryPolicy::default(),
        }),
        "adversary" => Box::new(Adversary {
            catalog: catalog((64, 48, 48), E14_GRAPH_SEED),
            seed: derived_u64(seed, 0xAD7),
            eval_seed: derived_u64(seed, 0xAD7E),
            restarts: if tiny { 1 } else { 2 },
            iterations: if tiny { 3 } else { 40 },
            candidates: if tiny { 2 } else { 6 },
            policy: RecoveryPolicy::default(),
        }),
        _ => return None,
    })
}

/// FNV-1a over 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn millis(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Open a span when tracing.
fn span<'t>(trace: Option<&'t Trace>, name: &str) -> Option<local_obs::Span<'t>> {
    trace.map(|t| t.span(name))
}

/// Run the single op of sequential batch `b` under `catch_unwind`, timing
/// it and (with a sink) recording its trace as trial `1 + b`.
fn sequential(
    b: u64,
    sink: Option<&mut dyn TraceSink>,
    body: impl FnOnce(Option<&Trace>) -> Checked,
) -> Vec<Op> {
    let trace = sink.as_ref().map(|_| Trace::new(1 + b));
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| body(trace.as_ref())));
    let ms = millis(started);
    if let (Some(sink), Some(trace)) = (sink, &trace) {
        trace.drain_into(sink);
        sink.flush();
    }
    vec![result.unwrap_or_default().timed(ms)]
}

/// Validate a complete labeling inside an `lcl.validate` span.
fn validate<P: LclProblem>(
    problem: &P,
    g: &Graph,
    labels: Vec<P::Label>,
    trace: Option<&Trace>,
) -> bool {
    let _s = span(trace, "lcl.validate");
    problem.validate(g, &Labeling::new(labels)).is_ok()
}

/// Maximum degree of the separation tree (E1's Δ = 16 point).
const TREE_DELTA: usize = 16;

/// `separation`: E1's Δ = 16 point. Op 0 is the deterministic Theorem-9
/// colouring; every later op is one randomized Theorem-10 trial.
struct Separation {
    g: Graph,
    seed: u64,
    min_ops: u64,
}

impl Bench for Separation {
    fn min_ops(&self) -> u64 {
        self.min_ops
    }

    fn parallel(&self) -> bool {
        false
    }

    fn batch(&self, b: u64, sink: Option<&mut dyn TraceSink>) -> Vec<Op> {
        let g = &self.g;
        let n = g.n() as f64;
        sequential(b, sink, |trace| {
            let (labels, rounds, key) = if b == 0 {
                let ids: Vec<u64> = (0..g.n() as u64).collect();
                let det = {
                    let _s = span(trace, "algorithms.tree_be");
                    be_forest_coloring_detailed(g, TREE_DELTA, &ids, None, 0)
                };
                (det.coloring.labels, det.coloring.rounds, "tree_be.rounds")
            } else {
                let rand = {
                    let _s = span(trace, "algorithms.theorem10");
                    theorem10_color_traced(
                        g,
                        TREE_DELTA,
                        derived_u64(self.seed, b),
                        Theorem10Config::default(),
                        trace,
                    )
                };
                match rand {
                    Ok(r) => (r.coloring.labels, r.coloring.rounds, "theorem10.rounds"),
                    Err(_) => return Checked::default(),
                }
            };
            let colors = labels.into_inner();
            let colors_digest = fnv(colors.iter().map(|&c| c as u64));
            let ok = validate(&VertexColoring::new(TREE_DELTA), g, colors, trace);
            let rounds = f64::from(rounds);
            Checked {
                ok,
                digest: fnv([rounds as u64, colors_digest]),
                samples: vec![
                    (key, rounds),
                    ("vertex_rounds", n * rounds),
                    ("validate.n", n),
                ],
            }
        })
    }
}

/// `scale`: Luby MIS on a 4-regular circulant whose working set is far
/// beyond the last-level cache; the engine is nearly the whole op.
struct Scale {
    g: Graph,
    seed: u64,
    min_ops: u64,
    probe_ops: u64,
}

impl Scale {
    fn luby(&self, b: u64, spec: &ExecSpec<'_>) -> SyncRun<bool> {
        run_sync(
            &self.g,
            Mode::randomized(derived_u64(self.seed, b)),
            &Luby::new(),
            spec,
        )
    }
}

impl Bench for Scale {
    fn min_ops(&self) -> u64 {
        self.min_ops
    }

    fn parallel(&self) -> bool {
        false
    }

    fn batch(&self, b: u64, sink: Option<&mut dyn TraceSink>) -> Vec<Op> {
        let n = self.g.n() as f64;
        sequential(b, sink, |trace| {
            let run = {
                let _s = span(trace, "model.engine");
                self.luby(b, &ExecSpec::default())
            };
            let rounds = f64::from(run.max_decided_round());
            let sweeps = f64::from(run.sweeps);
            let messages = run.messages as f64;
            let (ok, mis_digest) = match run.strict() {
                Ok(out) => {
                    let packed = out
                        .outputs
                        .chunks(64)
                        .map(|bits| bits.iter().fold(0u64, |word, &b| word << 1 | u64::from(b)));
                    let digest = fnv(packed);
                    (validate(&Mis::new(), &self.g, out.outputs, trace), digest)
                }
                Err(_) => (false, 0),
            };
            Checked {
                ok,
                digest: fnv([rounds as u64, sweeps as u64, messages as u64, mis_digest]),
                samples: vec![
                    ("vertex_rounds", n * rounds),
                    ("engine.sweeps", sweeps),
                    ("engine.messages", messages),
                    ("engine.vertex_sweeps", n * sweeps),
                    ("validate.n", n),
                ],
            }
        })
    }

    fn shard_probe(&self) -> Option<ShardProbe> {
        let mut one = Vec::new();
        let mut auto = Vec::new();
        let mut differing = 0;
        for b in 0..self.probe_ops {
            let started = Instant::now();
            let single = self.luby(b, &ExecSpec::default().with_shards(1));
            one.push(millis(started));
            let started = Instant::now();
            let sharded = self.luby(b, &ExecSpec::default());
            auto.push(millis(started));
            let same = single.outcomes == sharded.outcomes
                && single.sweeps == sharded.sweeps
                && single.messages == sharded.messages;
            differing += u64::from(!same);
        }
        Some(ShardProbe {
            speedup: crate::quantile(&mut one, 0.5) / crate::quantile(&mut auto, 0.5),
            ops: self.probe_ops,
            differing,
        })
    }
}

/// Build a catalog whose every slot is feasible at these sizes.
fn catalog(
    (tree_n, sinkless_n, mis_n): (usize, usize, usize),
    seed: u64,
) -> Vec<Box<dyn Workload>> {
    workloads(
        &Sizes {
            tree_n,
            sinkless_n,
            mis_n,
        },
        seed,
    )
    .into_iter()
    .map(|slot| slot.unwrap_or_else(|(name, e)| panic!("catalog entry {name}: {e}")))
    .collect()
}

/// Run grid point `b` as one isolated [`TrialPlan`] of `per_family` trials
/// of every catalog family, families innermost so both workers get every
/// family, and fold it into one op: the point's wall time, its trials'
/// summed time as busy time, and every trial's checks.
///
/// The op is the grid point, not the single trial, because per-trial
/// latency is a six-mode mixture (edge colouring ≈ 1 ms to defective
/// colouring ≈ 50 ms in `heal`): its p50 and p90 sit on the edges between
/// modes and swung 13–28% from run to run on a 2-core machine whose speed
/// drifted by 10%, while a grid point's latency tracks the drift 1:1.
/// Per-trial times stay visible in the trace.
fn grid_point(
    catalog: &[Box<dyn Workload>],
    per_family: u64,
    b: u64,
    seed: u64,
    sink: Option<&mut dyn TraceSink>,
    trial: impl Fn(&dyn Workload, u64, Option<&Trace>) -> Checked + Sync,
) -> Vec<Op> {
    let families = catalog.len() as u64;
    let plan = TrialPlan::new(families * per_family, derived_u64(seed, b));
    let spec = TrialSpec::new()
        .isolated()
        .traced(sink)
        .trace_base(1 + b * plan.trials());
    let started = Instant::now();
    let outcomes = plan.execute(spec, |t, trace| {
        let started = Instant::now();
        let checked = trial(
            catalog[(t.index % families) as usize].as_ref(),
            t.seed,
            trace,
        );
        checked.timed(millis(started))
    });
    let ms = millis(started);
    let trials: Vec<Op> = outcomes
        .into_iter()
        .map(|o| o.ok().unwrap_or_else(|| Checked::default().timed(0.0)))
        .collect();
    vec![Op {
        ms,
        busy_ms: trials.iter().map(|t| t.busy_ms).sum(),
        ok: trials.iter().all(|t| t.ok),
        digest: fnv(trials.iter().map(|t| t.digest)),
        samples: trials.into_iter().flat_map(|t| t.samples).collect(),
    }]
}

/// Message-drop probabilities of E13 `--full`.
const DROPS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
/// Crash probabilities of E13 `--full`.
const CRASHES: [f64; 3] = [0.0, 0.02, 0.1];

/// `heal`: E13 `--full`'s catalog sizes and fault grid. Op `b` is grid
/// point `b mod 12`, healing `trials` trials of every family; each pass
/// over the twelve points draws fresh trial seeds.
struct Heal {
    catalog: Vec<Box<dyn Workload>>,
    seed: u64,
    trials: u64,
    policy: RecoveryPolicy,
}

impl Bench for Heal {
    fn min_ops(&self) -> u64 {
        (DROPS.len() * CRASHES.len()) as u64
    }

    fn parallel(&self) -> bool {
        true
    }

    fn batch(&self, b: u64, sink: Option<&mut dyn TraceSink>) -> Vec<Op> {
        let point = b as usize % (DROPS.len() * CRASHES.len());
        let (drop_p, crash_p) = (DROPS[point / CRASHES.len()], CRASHES[point % CRASHES.len()]);
        grid_point(
            &self.catalog,
            self.trials,
            b,
            self.seed,
            sink,
            |w, seed, trace| {
                let faults = {
                    let _s = span(trace, "model.faults.sample");
                    let spec = FaultSpec::none()
                        .with_drop(drop_p)
                        .with_crash(crash_p, w.crash_window());
                    FaultPlan::sample(w.graph(), &spec, seed)
                };
                let r = {
                    let _s = span(trace, "core.workloads.heal");
                    w.heal(seed, &faults, &self.policy, trace)
                };
                // Recovery verifies its own splice with
                // `check_complete`; what is checkable from outside is that the
                // record is self-consistent and that a fault-free run always
                // heals. (It may still need a repair: the sinkless protocol's
                // phase budget leaves a sink with small probability.)
                let fault_free = drop_p == 0.0 && crash_p == 0.0;
                let ok = r.recovered == r.failure.is_none()
                    && r.core <= r.residue
                    && r.attempts <= self.policy.max_radius
                    && (r.recovered || !fault_free);
                let recovered = u64::from(r.recovered);
                Checked {
                    ok,
                    digest: fnv([
                        recovered,
                        r.attempts.into(),
                        r.core as u64,
                        r.residue as u64,
                    ]),
                    samples: vec![
                        ("repair.recovered", recovered as f64),
                        ("repair.attempts", f64::from(r.attempts)),
                        ("repair.core", r.core as f64),
                        ("repair.residue", r.residue as f64),
                        ("repair.extra_rounds", f64::from(r.extra_rounds)),
                    ],
                }
            },
        )
    }
}

/// `adversary`: E14 `--full`'s search on E14's graphs. Op `b` is objective
/// `b mod 4` against every family, `restarts` search restarts each; each
/// pass over the four objectives draws fresh search seeds.
struct Adversary {
    catalog: Vec<Box<dyn Workload>>,
    seed: u64,
    eval_seed: u64,
    restarts: u64,
    iterations: u64,
    candidates: u32,
    policy: RecoveryPolicy,
}

impl Bench for Adversary {
    fn min_ops(&self) -> u64 {
        Objective::ALL.len() as u64
    }

    fn parallel(&self) -> bool {
        true
    }

    fn batch(&self, b: u64, sink: Option<&mut dyn TraceSink>) -> Vec<Op> {
        let objective = Objective::ALL[b as usize % Objective::ALL.len()];
        grid_point(
            &self.catalog,
            self.restarts,
            b,
            self.seed,
            sink,
            |w, seed, trace| {
                let cfg = SearchConfig {
                    iterations: self.iterations,
                    candidates: self.candidates,
                    tenure: 8,
                    crash_budget: 4,
                    drop_budget: 6,
                    crash_window: w.adversary_crash_window(),
                    search_seed: seed,
                };
                // Like E14, candidates are evaluated untraced: the trace keeps
                // the search trajectory, and the benchmark's own span and timer
                // bracket each evaluation.
                let assess_us = RefCell::new(Vec::new());
                let out = {
                    let _s = span(trace, "core.adversary.search");
                    search(
                        w.graph(),
                        FaultPlan::none(),
                        objective,
                        &cfg,
                        |p| {
                            let _s = span(trace, "core.workloads.assess");
                            let t = Instant::now();
                            let eval = w.assess(self.eval_seed, p, &self.policy, None).0;
                            assess_us.borrow_mut().push(t.elapsed().as_secs_f64() * 1e6);
                            eval
                        },
                        trace,
                        None,
                    )
                };
                // E14's closing re-evaluation doubles as the output check: the
                // best plan must replay to the score the search reported.
                let replay = {
                    let _s = span(trace, "core.workloads.assess");
                    w.assess(self.eval_seed, &out.best_plan, &self.policy, None)
                        .0
                };
                let ok = objective.score(&replay) == out.best_objective
                    && out.best_plan.crash_count() <= cfg.crash_budget
                    && out.best_plan.dropped_edge_count() <= cfg.drop_budget
                    && out.evaluations == assess_us.borrow().len() as u64;
                let mut samples = vec![("search.evaluations", out.evaluations as f64)];
                samples.extend(
                    assess_us
                        .into_inner()
                        .into_iter()
                        .map(|us| ("assess_us", us)),
                );
                Checked {
                    ok,
                    digest: fnv([out.best_objective, out.evaluations]),
                    samples,
                }
            },
        )
    }
}
