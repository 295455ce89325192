//! `local-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed U64 --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop (the next op starts when
//! the previous one, or the previous parallel batch, completes) for
//! `--seconds`, and always at least the workload's fingerprint prefix. It
//! checks every output, prints a human-readable report, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with tracing
//! off; with `--trace 1` they are the per-layer set, and the spans are
//! written to `benchmark/out/NAME.trace.jsonl` in the local-obs JSON-lines
//! format, so `obs_report profile` renders them unchanged.
//!
//! The benchmark drives the system only through public library calls and
//! times those calls from its own code; it adds no timer or span inside the
//! program. Spans are the benchmark's own, around each public call; the
//! same [`Trace`] goes to the entry points that already accept one, so the
//! program's existing `t10_color_bidding`, `t10_filtered_finish` and
//! `recover` spans nest under them.
//!
//! # Workloads
//!
//! | workload | what one op is | why |
//! |---|---|---|
//! | `separation` | op 0: Theorem-9 deterministic Δ-colouring; ops ≥ 1: one Theorem-10 randomized trial; each validated by `VertexColoring` | the paper's headline E1 claim at its Δ = 16 point on the complete 15-ary tree (n = 57,857): many engine rounds per op, deterministic vs randomized in one loop |
//! | `scale` | Luby MIS via `run_sync` on `circulant(262_144, 4)`, validated by `Mis` | the engine is nearly the whole op and the working set is far beyond the last-level cache; per-call overhead is negligible |
//! | `heal` | one E13 grid point: `FaultPlan::sample` + `Workload::heal` for two trials of each of the six families, in one isolated `TrialPlan`, on E13 `--full`'s graphs and drop × crash grid | the faulty engine path, `check_partial` and recovery; the slowest family sets each point's barrier |
//! | `adversary` | one E14 objective against all six families: two `adversary::search` restarts each (E14 `--full`'s 40 iterations × 6 candidates, tenure 8, budgets 4 and 6) plus the closing re-evaluation, in one isolated `TrialPlan`, on E14's graphs | the same layers as `heal`, but as thousands of tiny calls on ≤ 64 vertices, where fixed per-call costs dominate |
//!
//! `heal` and `adversary` move in opposite directions under a change that
//! trades per-call setup for per-vertex speed, which is why both exist.
//! `--seed` derives every trial, fault-plan and search seed; the graphs are
//! the experiments' own (E1's tree, a fixed circulant, E13's and E14's
//! catalogs), so graph-to-graph cost differences stay out of the run-to-run
//! spread.
//!
//! # Thread policy
//!
//! Threads never exceed `nproc`. `separation` and `scale` run their ops
//! sequentially on the main thread, so the engine's auto-sharding (n ≥ 2048)
//! gets every core. `heal` and `adversary` run one isolated `TrialPlan` per
//! grid point on `nproc` workers; their graphs stay below the sharding
//! threshold, so no op spawns threads of its own.
//!
//! Sharding does not always pay on a small machine. On a 2-vCPU Intel Xeon
//! VM, the median Theorem-10 trial at n = 57,857 (`separation`, five seeds,
//! 15 s each) took 249–382 ms pinned to one core (`taskset -c 0`, so the
//! engine runs one shard) against 387–408 ms with the default two shards;
//! an earlier measurement on the same kind of machine gave 287–390 ms
//! against 365–508 ms. On `scale` sharding does pay:
//! `model.engine.shard_speedup` reads about 1.3. The engine spawns its
//! shard threads afresh every round, so a stalled vCPU delays the round:
//! `separation` (1,032 rounds in Theorem 9, about 76 per Theorem-10 trial)
//! is where that cost shows.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | median build time of the workload's inputs (graphs, catalog): [`SETUP_REPS`] builds before the timed loop, plus rebuilds between its batches taking [`SETUP_SHARE`] of it |
//! | `ops_per_s` | ops/s | ops completed / wall time of the timed loop |
//! | `op_ms_p50` | ms | median op latency |
//! | `op_ms_p90` | ms | 90th-percentile op latency; `ops_attempted` in the report is its sample count (on `separation`, about 70 ops a run, so only about seven lie beyond it) |
//! | `peak_rss_mib` | MiB | `VmHWM` at exit |
//!
//! `heal` and `adversary` ops are whole grid points rather than single
//! trials; see `workloads::grid_point` for why.
//!
//! Every run prints a fingerprint: FNV-1a over the results of the
//! workload's first ops, which every run completes however short
//! `--seconds` is (`separation`: rounds and colours; `scale`: rounds,
//! sweeps, messages and the MIS; `heal`: each record's recovered, attempts,
//! core and residue; `adversary`: each search's best objective and
//! evaluation count). A seed always gives the same fingerprint, traced or
//! not, and within a traced run every op's traced result must equal its
//! untraced one.
//!
//! Failed ops are the envelope's `failed` out of `attempted`: an op fails
//! if a call in it panics (caught by `TrialPlan` isolation or by
//! `catch_unwind` in the sequential loops), an output fails its LCL
//! checker, or a result breaks an invariant of its public return value
//! (a `heal` record must be self-consistent and heal fault-free runs; an
//! adversary's best plan must replay to its reported score within the
//! fault budget). A `heal` trial whose recovery reports a typed degradation
//! (E13's honest failures on defective colouring) is a correct output,
//! counted by `algorithms.repair.recovered_frac`, not a failed op.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run executes every batch twice, untraced (phase A) and traced
//! (phase B), alternating which goes first, so both phases see the same ops
//! on equally warm caches. Span times and counts come from phase B; timings
//! taken with the benchmark's own clock (assess latency, rates,
//! utilization) from phase A. A layer a workload does not exercise reads 0.
//! Each line names the end-to-end metric the layer should move, and on
//! which workload.
//!
//! | metric | unit | moves |
//! |---|---|---|
//! | `graphs.gen_s` | s | `setup_s` on scale, separation |
//! | `model.engine_s` | s | `op_ms_p50` on scale |
//! | `model.engine.ns_per_vertex_round` | ns | `op_ms_p50` on scale (engine span / Σ n × sweeps) |
//! | `model.engine.sweeps`, `.messages` | per call | exact counts behind `op_ms_p50` on scale |
//! | `model.engine.shard_speedup` | ratio | `op_ms_p50` on scale (median 1-shard / median default run, outputs bit-identical) |
//! | `model.faults.sample_s` | s | `op_ms_p50` on heal |
//! | `model.vertex_rounds_per_s` | vertex_rounds/s | `ops_per_s` on separation, scale (Σ n × rounds / wall, the paper's cost unit) |
//! | `algorithms.tree_be_s`, `.tree_be.rounds` | s, rounds | `ops_per_s` on separation |
//! | `algorithms.theorem10_s`, `.bidding_s`, `.finish_s`, `.rounds` | s, rounds | `op_ms_p50` on separation |
//! | `algorithms.repair_s` (`recover` span), `.attempts`, `.core`, `.residue`, `.extra_rounds`, `.recovered_frac` | s, per heal | `op_ms_p90` on heal |
//! | `lcl.validate_s`, `lcl.ns_per_vertex` | s, ns | `op_ms_p50` on separation, scale |
//! | `core.workloads.heal_self_s` | s | `op_ms_p50` on heal (heal span minus its `recover` span) |
//! | `core.workloads.assess_us_p50`, `_p90` | µs | `ops_per_s` on adversary (timed inside the evaluator) |
//! | `core.adversary.self_s`, `.evaluations`, `.evals_per_s` | s, per restart, 1/s | `ops_per_s` on adversary |
//! | `core.trials.utilization` | ratio | `ops_per_s` on heal, adversary (Σ trial time / (wall × nproc); one barrier per grid point) |
//! | `obs.trace_overhead` | ratio | phase-B wall / phase-A wall − 1, same ops |
//! | `obs.orphan_spans`, `obs.unclosed_spans` | count | must be 0, else the run is not correct |
//! | `bench.unattributed_frac` | ratio | 1 − span-covered share of the summed trial time |
//!
//! How they interact: on `scale` the engine is essentially the whole op, so
//! a node-step gain moves `op_ms_p50` about 1:1. On `adversary`, n ≤ 64
//! never shards, so only per-call costs move anything. On `heal` the slow
//! families set each grid point's barrier, so shortening them moves
//! `ops_per_s` by more than their share.
//!
//! # Calibration
//!
//! `BENCHMARK.json` runs each workload for 30 s. Two sets of ten runs per
//! workload (seeds 1–10, then seeds 11–20, run back to back) on a 2-vCPU
//! Intel Xeon VM shared with other tenants gave these medians, each with its
//! spread (interquartile range over median), first set / second set:
//!
//! | workload | `setup_s` (ms) | `ops_per_s` | `op_ms_p50` | `op_ms_p90` | `peak_rss_mib` |
//! |---|---|---|---|---|---|
//! | `separation` | 8.33 (.05) / 7.43 (.08) | 2.25 (.05) / 2.47 (.06) | 397 (.05) / 368 (.06) | 441 (.08) / 410 (.06) | 84.5 (.04) / 87.2 (.06) |
//! | `scale` | 15.5 (.09) / 13.8 (.07) | 4.28 (.13) / 4.76 (.09) | 233 (.13) / 209 (.08) | 260 (.15) / 236 (.09) | 216.2 (.00) / 216.2 (.00) |
//! | `heal` | 5.74 (.14) / 5.50 (.15) | 13.2 (.13) / 13.3 (.10) | 81.5 (.15) / 79.9 (.13) | 97.1 (.09) / 96.7 (.09) | 7.55 (.06) / 7.66 (.03) |
//! | `adversary` | 0.74 (.08) / 0.65 (.07) | 5.91 (.07) / 6.49 (.06) | 171 (.08) / 157 (.07) | 197 (.04) / 189 (.06) | 8.44 (.05) / 8.78 (.02) |
//!
//! Every run was correct. Each of the 80 workload–seed pairs was run twice
//! and gave the same fingerprint both times, as did a traced run of seed 3
//! of every workload. The spread is mostly the
//! machine's: in the same hour, a fixed single-threaded loop timed alone
//! had an interquartile range of 16–28% of its median, and its medians over
//! 5-s windows differed by up to 37%. So every timing bound is 0.25, the
//! most `BENCHMARK.json` allows, and `peak_rss_mib`'s is 0.2. Building the
//! inputs only before the loop gave `setup_s` spreads of 13–39%, as the
//! builds then sampled a single moment of the machine; sampling them across
//! the run (see [`measure`]) brought those to 5–15%.

mod workloads;

use local_obs::{EventData, FileSink, ResourceSample, SpanProfile, Trace, TraceEvent, TraceSink};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Bench, Op, ShardProbe, Size};

const USAGE: &str =
    "usage: local-benchmark --workload separation|scale|heal|adversary [--seed U64] [--seconds S] [--trace 0|1]";

/// Builds of the inputs before the timed loop; `setup_s` is the median of
/// these and of the rebuilds between batches.
const SETUP_REPS: usize = 7;

/// Share of the timed loop spent rebuilding the inputs between batches.
const SETUP_SHARE: f64 = 0.01;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order; see
/// [`layer_value`] for each definition.
const PER_LAYER: [(&str, &str); 33] = [
    ("graphs.gen_s", "s"),
    ("model.engine_s", "s"),
    ("model.engine.ns_per_vertex_round", "ns"),
    ("model.engine.sweeps", "sweeps"),
    ("model.engine.messages", "messages"),
    ("model.engine.shard_speedup", "ratio"),
    ("model.faults.sample_s", "s"),
    ("model.vertex_rounds_per_s", "vertex_rounds/s"),
    ("algorithms.tree_be_s", "s"),
    ("algorithms.tree_be.rounds", "rounds"),
    ("algorithms.theorem10_s", "s"),
    ("algorithms.theorem10.bidding_s", "s"),
    ("algorithms.theorem10.finish_s", "s"),
    ("algorithms.theorem10.rounds", "rounds"),
    ("algorithms.repair_s", "s"),
    ("algorithms.repair.attempts", "attempts"),
    ("algorithms.repair.core", "vertices"),
    ("algorithms.repair.residue", "vertices"),
    ("algorithms.repair.extra_rounds", "rounds"),
    ("algorithms.repair.recovered_frac", "ratio"),
    ("lcl.validate_s", "s"),
    ("lcl.ns_per_vertex", "ns"),
    ("core.workloads.heal_self_s", "s"),
    ("core.workloads.assess_us_p50", "us"),
    ("core.workloads.assess_us_p90", "us"),
    ("core.adversary.self_s", "s"),
    ("core.adversary.evaluations", "evaluations"),
    ("core.adversary.evals_per_s", "1/s"),
    ("core.trials.utilization", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.orphan_spans", "count"),
    ("obs.unclosed_spans", "count"),
    ("bench.unattributed_frac", "ratio"),
];

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for no samples). Sorts `xs`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// `x / y`, or 0 when nothing was measured.
fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// The ops of one phase and the wall time its batches took.
#[derive(Default)]
struct Phase {
    ops: Vec<Op>,
    wall_s: f64,
}

impl Phase {
    fn run(&mut self, w: &dyn Bench, b: u64, sink: Option<&mut dyn TraceSink>) {
        let started = Instant::now();
        let ops = w.batch(b, sink);
        self.wall_s += started.elapsed().as_secs_f64();
        self.ops.extend(ops);
    }

    fn values(&self, key: &str) -> Vec<f64> {
        self.ops
            .iter()
            .flat_map(|op| &op.samples)
            .filter(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .collect()
    }

    fn sum(&self, key: &str) -> f64 {
        self.values(key).iter().fold(0.0, |s, v| s + v)
    }

    fn mean(&self, key: &str) -> f64 {
        ratio(self.sum(key), self.values(key).len() as f64)
    }

    fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    fn busy_s(&self) -> f64 {
        self.ops.iter().map(|op| op.busy_ms).sum::<f64>() / 1e3
    }
}

/// Keeps only span events. The traced entry points also emit per-round
/// engine events, which the profile does not need and which would grow the
/// `heal` trace to tens of megabytes.
#[derive(Default)]
struct SpanSink(Vec<TraceEvent>);

impl TraceSink for SpanSink {
    fn record(&mut self, event: &TraceEvent) {
        if matches!(
            event.data,
            EventData::SpanStart { .. } | EventData::SpanEnd { .. }
        ) {
            self.0.push(event.clone());
        }
    }
}

/// Run batches until `seconds` have passed and the fingerprint prefix is
/// done. With a sink, every batch runs twice, untraced into the first phase
/// and traced into the second, in an order alternating by batch so that
/// neither side always runs on warm caches. Between batches, `rebuild`
/// runs whenever rebuilding has so far taken less than [`SETUP_SHARE`] of
/// the loop, so that setup is sampled across the whole run, as the ops are:
/// on a shared machine its speed drifts within a run.
fn measure(
    w: &dyn Bench,
    seconds: f64,
    mut sink: Option<&mut SpanSink>,
    rebuild: &mut dyn FnMut(),
) -> (Phase, Phase) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut rebuilding = 0.0;
    let mut b = 0;
    while (plain.ops.len() as u64) < w.min_ops() || started.elapsed().as_secs_f64() < seconds {
        while rebuilding < SETUP_SHARE * started.elapsed().as_secs_f64() {
            let t = Instant::now();
            rebuild();
            rebuilding += t.elapsed().as_secs_f64();
        }
        match sink.as_deref_mut() {
            Some(s) if b % 2 == 0 => {
                plain.run(w, b, None);
                traced.run(w, b, Some(s));
            }
            Some(s) => {
                traced.run(w, b, Some(s));
                plain.run(w, b, None);
            }
            None => plain.run(w, b, None),
        }
        b += 1;
    }
    (plain, traced)
}

/// Everything the per-layer metrics are computed from.
struct Layers<'a> {
    profile: SpanProfile,
    a: &'a Phase,
    b: &'a Phase,
    probe: Option<ShardProbe>,
    parallel: bool,
}

impl Layers<'_> {
    fn total_s(&self, path: &str) -> f64 {
        self.entry(path)
            .map_or(0.0, |e| e.total_micros as f64 / 1e6)
    }

    fn count(&self, path: &str) -> f64 {
        self.entry(path).map_or(0.0, |e| e.count as f64)
    }

    fn entry(&self, path: &str) -> Option<&local_obs::ProfileEntry> {
        self.profile.entries().iter().find(|e| e.path == path)
    }

    /// Time on `path` per closed `per` span.
    fn per(&self, path: &str, per: &str) -> f64 {
        ratio(self.total_s(path), self.count(per))
    }
}

/// The value of per-layer metric `name`.
fn layer_value(name: &str, l: &Layers<'_>) -> f64 {
    const HEAL: &str = "core.workloads.heal";
    const SEARCH: &str = "core.adversary.search";
    const T10: &str = "algorithms.theorem10";
    match name {
        "graphs.gen_s" => l.per("graphs.gen", "graphs.gen"),
        "model.engine_s" => l.per("model.engine", "model.engine"),
        "model.engine.ns_per_vertex_round" => ratio(
            l.total_s("model.engine") * 1e9,
            l.b.sum("engine.vertex_sweeps"),
        ),
        "model.engine.sweeps" => l.b.mean("engine.sweeps"),
        "model.engine.messages" => l.b.mean("engine.messages"),
        "model.engine.shard_speedup" => l.probe.map_or(0.0, |p| p.speedup),
        "model.faults.sample_s" => l.per("model.faults.sample", "model.faults.sample"),
        "model.vertex_rounds_per_s" => ratio(l.a.sum("vertex_rounds"), l.a.wall_s),
        "algorithms.tree_be_s" => l.per("algorithms.tree_be", "algorithms.tree_be"),
        "algorithms.tree_be.rounds" => l.b.mean("tree_be.rounds"),
        "algorithms.theorem10_s" => l.per(T10, T10),
        "algorithms.theorem10.bidding_s" => l.per(&format!("{T10};t10_color_bidding"), T10),
        "algorithms.theorem10.finish_s" => l.per(&format!("{T10};t10_filtered_finish"), T10),
        "algorithms.theorem10.rounds" => l.b.mean("theorem10.rounds"),
        "algorithms.repair_s" => l.per(&format!("{HEAL};recover"), HEAL),
        "algorithms.repair.attempts" => l.b.mean("repair.attempts"),
        "algorithms.repair.core" => l.b.mean("repair.core"),
        "algorithms.repair.residue" => l.b.mean("repair.residue"),
        "algorithms.repair.extra_rounds" => l.b.mean("repair.extra_rounds"),
        "algorithms.repair.recovered_frac" => l.b.mean("repair.recovered"),
        "lcl.validate_s" => l.per("lcl.validate", "lcl.validate"),
        "lcl.ns_per_vertex" => ratio(l.total_s("lcl.validate") * 1e9, l.b.sum("validate.n")),
        "core.workloads.heal_self_s" => ratio(
            l.total_s(HEAL) - l.total_s(&format!("{HEAL};recover")),
            l.count(HEAL),
        ),
        "core.workloads.assess_us_p50" => quantile(&mut l.a.values("assess_us"), 0.5),
        "core.workloads.assess_us_p90" => quantile(&mut l.a.values("assess_us"), 0.9),
        "core.adversary.self_s" => ratio(
            l.total_s(SEARCH) - l.total_s(&format!("{SEARCH};core.workloads.assess")),
            l.count(SEARCH),
        ),
        "core.adversary.evaluations" => l.b.mean("search.evaluations"),
        "core.adversary.evals_per_s" => ratio(l.a.sum("search.evaluations"), l.a.wall_s),
        "core.trials.utilization" if l.parallel => {
            ratio(l.a.busy_s(), l.a.wall_s * threads() as f64)
        }
        "core.trials.utilization" => 0.0,
        "obs.trace_overhead" => ratio(l.b.wall_s, l.a.wall_s) - 1.0,
        "obs.orphan_spans" => l.profile.orphan_ends() as f64,
        "obs.unclosed_spans" => l.profile.unclosed_starts() as f64,
        "bench.unattributed_frac" => {
            let covered = l.profile.root_micros() as f64 / 1e6 - l.total_s("graphs.gen");
            1.0 - ratio(covered, l.b.busy_s())
        }
        other => unreachable!("no definition for per-layer metric {other}"),
    }
}

/// Worker threads of the parallel trial harness (the vendored rayon uses
/// one per available core).
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What one benchmark run measured.
pub struct Report {
    /// `(name, unit, value)` in table order: the end-to-end set untraced,
    /// the per-layer set traced.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Ops run and checked (both phases of a traced run).
    pub attempted: u64,
    /// Ops that failed (see the module docs).
    pub failed: u64,
    /// FNV digest over the first `min_ops` ops' results.
    pub fingerprint: u64,
    /// Ops the fingerprint covers.
    pub fingerprint_ops: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// The trace (setup as trial 0, the ops' calls numbered from 1; see
    /// [`Bench::batch`]); empty untraced.
    pub events: Vec<TraceEvent>,
}

/// Run workload `name` once: set up, measure, check, and compute metrics.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Result<Report, String> {
    let setup_trace = traced.then(|| Trace::new(0));
    let mut setup_s = Vec::new();
    let mut build = |trace: Option<&Trace>| {
        let started = Instant::now();
        let w = {
            let _s = trace.map(|t| t.span("graphs.gen"));
            workloads::build(name, seed, size)
        };
        setup_s.push(started.elapsed().as_secs_f64());
        w.ok_or_else(|| format!("unknown workload `{name}`"))
    };
    let mut w = build(setup_trace.as_ref())?;
    for _ in 1..SETUP_REPS {
        // Drop first: a second live copy would raise peak memory. (The
        // rebuilds between batches reuse the memory an op just freed.)
        drop(w);
        w = build(setup_trace.as_ref())?;
    }

    let mut sink = SpanSink::default();
    if let Some(t) = &setup_trace {
        t.drain_into(&mut sink);
    }
    let (a, b) = measure(
        w.as_ref(),
        seconds,
        traced.then_some(&mut sink),
        &mut || drop(build(None)),
    );
    let prefix = w.min_ops().min(a.ops.len() as u64);
    let fingerprint = workloads::fnv(a.ops[..prefix as usize].iter().map(|op| op.digest));
    let mut attempted = a.ops.len() as u64;
    let mut failed = a.failed();

    if !traced {
        let mut ms: Vec<f64> = a.ops.iter().filter(|op| op.ok).map(|op| op.ms).collect();
        let rss = ResourceSample::capture().map_or(0, |r| r.peak_rss_bytes);
        let values = [
            quantile(&mut setup_s, 0.5),
            a.ops.len() as f64 / a.wall_s,
            quantile(&mut ms, 0.5),
            quantile(&mut ms, 0.9),
            rss as f64 / f64::from(1 << 20),
        ];
        return Ok(Report {
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, u, v))
                .collect(),
            attempted,
            failed,
            fingerprint,
            fingerprint_ops: prefix,
            correct: failed == 0,
            events: Vec::new(),
        });
    }

    // Tracing must not change a single result: an op whose traced digest
    // differs from its untraced one is a failed op.
    let diverged = a
        .ops
        .iter()
        .zip(&b.ops)
        .filter(|(x, y)| x.ok && y.ok && x.digest != y.digest)
        .count() as u64;
    attempted += b.ops.len() as u64;
    failed += b.failed() + diverged;
    let probe = w.shard_probe();
    if let Some(p) = probe {
        attempted += p.ops;
        failed += p.differing;
    }
    let events = sink.0;
    let layers = Layers {
        profile: SpanProfile::from_events(&events),
        a: &a,
        b: &b,
        probe,
        parallel: w.parallel(),
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, layer_value(n, &layers)))
        .collect();
    let spans_ok = layers.profile.orphan_ends() == 0 && layers.profile.unclosed_starts() == 0;
    Ok(Report {
        metrics,
        attempted,
        failed,
        fingerprint,
        fingerprint_ops: prefix,
        correct: failed == 0 && spans_ok,
        events,
    })
}

/// The envelope line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn envelope(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad(&"must be a finite number ≥ 0"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(parsed)
}

/// Write the trace as local-obs JSON lines under `benchmark/out/`.
fn write_trace(workload: &str, events: &[TraceEvent]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let mut sink = FileSink::create(&path)?;
    for e in events {
        sink.record(e);
    }
    sink.flush();
    Ok(path)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!(
        "workload {}  seed {}  seconds {}  trace {}  threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads()
    );
    println!(
        "fingerprint {:016x} over the first {} ops",
        report.fingerprint, report.fingerprint_ops
    );
    println!(
        "ops_attempted {}  failed {}",
        report.attempted, report.failed
    );
    for (name, unit, value) in &report.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    if args.trace {
        match write_trace(&args.workload, &report.events) {
            Ok(path) => println!("trace {}", path.display()),
            Err(e) => {
                eprintln!("error: writing the trace: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", envelope(&report));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn strings(v: &Value, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|s| s.as_str().ok()).unwrap_or("");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks `{key}`"),
        }
    }

    fn metric_names(v: &Value) -> Vec<String> {
        match v.get("metrics") {
            Some(Value::Object(entries)) => entries.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("envelope lacks metrics"),
        }
    }

    #[test]
    fn tiny_workloads_report_every_metric_and_replay_exactly() {
        let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Value =
            serde_json::from_str(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(strings(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(strings(&spec, "per_layer"), own(&PER_LAYER));
        let names: Vec<String> = match spec.get("workloads") {
            Some(Value::Array(w)) => w
                .iter()
                .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
                .collect(),
            _ => panic!("BENCHMARK.json lacks workloads"),
        };
        assert_eq!(names, workloads::NAMES);

        for name in workloads::NAMES {
            let plain = run(name, 7, 0.0, false, Size::Tiny).unwrap();
            let again = run(name, 7, 0.0, false, Size::Tiny).unwrap();
            let traced = run(name, 7, 0.0, true, Size::Tiny).unwrap();
            for r in [&plain, &again, &traced] {
                assert!(
                    r.correct,
                    "{name}: {} of {} ops failed",
                    r.failed, r.attempted
                );
                assert_eq!(r.failed, 0, "{name}");
                assert!(r.fingerprint_ops > 0, "{name}");
                let line: Value = serde_json::from_str(&envelope(r)).unwrap();
                let keys: Vec<&str> = match &line {
                    Value::Object(e) => e.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => panic!("envelope is not an object"),
                };
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let table = if r.events.is_empty() {
                    &END_TO_END[..]
                } else {
                    &PER_LAYER[..]
                };
                assert_eq!(
                    metric_names(&line),
                    own(table).into_iter().map(|p| p.0).collect::<Vec<_>>()
                );
                for (n, u) in table {
                    let m = line.get("metrics").unwrap().get(n).unwrap();
                    assert_eq!(m.get("unit").unwrap().as_str().unwrap(), *u, "{name}: {n}");
                }
            }
            assert_eq!(plain.fingerprint, again.fingerprint, "{name}: rerun");
            assert_eq!(plain.fingerprint, traced.fingerprint, "{name}: traced");
            let unattributed = traced
                .metrics
                .iter()
                .find(|m| m.0 == "bench.unattributed_frac")
                .unwrap()
                .2;
            assert!(unattributed < 0.05, "{name}: unattributed {unattributed}");
        }
    }
}
