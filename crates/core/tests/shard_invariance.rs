//! Shard-count invariance for the paper's algorithm pipelines.
//!
//! The engine contract (DESIGN.md appendix C) is that the shard count is
//! purely a performance knob: a `RunOutput` is bit-identical whether the
//! round loop executed serially or split across any number of vertex
//! shards. The model crate pins this at the engine level; these tests pin
//! it end-to-end through the sync layer for the three pipelines the
//! experiments lean on — Linial coloring (DetLOCAL), Luby MIS (RandLOCAL),
//! and the Theorem-10 ColorBidding phase — including runs under full fault
//! plans (drops, delays, crashes). A sharded sweep is claimed chunk by chunk
//! by whichever thread is free, so the last tests also pin an algorithm
//! whose cost per vertex is wildly uneven, and the path of a panic raised
//! on a helper thread.

use local_algorithms::color::linial::{LinialAlgorithm, LinialSchedule};
use local_algorithms::mis::luby::Luby;
use local_algorithms::tree::{theorem10_phase1, Theorem10Config};
use local_algorithms::{run_sync, SyncRun};
use local_graphs::gen;
use local_model::{
    Action, Engine, ExecSpec, FaultPlan, FaultSpec, Mode, NodeInit, NodeIo, NodeProgram, Protocol,
    SyncAlgorithm, SyncCtx, SyncStep,
};
use local_obs::{MetricSet, MetricsRegistry, Obs, Trace};
use local_separation::trials::{TrialOutcome, TrialPlan, TrialSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Field-by-field equality for two faulty runs (SyncRun doesn't implement
/// `PartialEq`, and spelling the fields out makes a divergence report say
/// *which* observable moved).
fn assert_runs_identical<O: PartialEq + std::fmt::Debug>(
    label: &str,
    serial: &SyncRun<O>,
    sharded: &SyncRun<O>,
) {
    assert_eq!(serial.outcomes, sharded.outcomes, "{label}: outcomes");
    assert_eq!(serial.sweeps, sharded.sweeps, "{label}: sweeps");
    assert_eq!(serial.messages, sharded.messages, "{label}: messages");
    assert_eq!(serial.dropped, sharded.dropped, "{label}: dropped");
    assert_eq!(serial.delayed, sharded.delayed, "{label}: delayed");
    assert_eq!(serial.breach, sharded.breach, "{label}: breach");
}

#[test]
fn linial_coloring_is_shard_invariant() {
    let g = gen::stream::circulant(64, 4).expect("64*4 is even");
    let delta = g.max_degree();
    let colors: Vec<u64> = (0..g.n() as u64).collect();
    let palette = g.n() as u64;

    let run = |spec: ExecSpec| {
        let schedule = LinialSchedule::new(palette, delta);
        let algo = LinialAlgorithm::from_colors(schedule, colors.clone());
        run_sync(&g, Mode::deterministic(), &algo, &spec)
            .strict()
            .expect("Linial halts within its schedule")
    };

    let serial = run(ExecSpec::rounds(200));
    for k in SHARD_COUNTS {
        let sharded = run(ExecSpec::rounds(200).with_shards(k));
        assert_eq!(serial.outputs, sharded.outputs, "outputs at {k} shards");
        assert_eq!(serial.rounds, sharded.rounds, "rounds at {k} shards");
    }
}

#[test]
fn luby_mis_under_faults_is_shard_invariant() {
    let g = gen::stream::circulant(50, 4).expect("50*4 is even");
    let faults = FaultSpec::none()
        .with_drop(0.25)
        .with_delay(0.25)
        .with_crash(0.08, 5);
    let plan = FaultPlan::sample(&g, &faults, 1234);

    let run = |spec: ExecSpec| run_sync(&g, Mode::randomized(7), &Luby::new(), &spec);

    let serial = run(ExecSpec::rounds(64).with_faults(&plan));
    for k in SHARD_COUNTS {
        let sharded = run(ExecSpec::rounds(64).with_faults(&plan).with_shards(k));
        assert_runs_identical(&format!("luby at {k} shards"), &serial, &sharded);
    }
}

#[test]
fn luby_mis_fault_free_is_shard_invariant() {
    let g = gen::stream::circulant(60, 6).expect("60*6 is even");

    let run = |spec: ExecSpec| {
        run_sync(&g, Mode::randomized(42), &Luby::new(), &spec)
            .strict()
            .expect("Luby halts on a 60-vertex circulant within 200 rounds")
    };

    let serial = run(ExecSpec::rounds(200));
    for k in SHARD_COUNTS {
        let sharded = run(ExecSpec::rounds(200).with_shards(k));
        assert_eq!(serial.outputs, sharded.outputs, "MIS at {k} shards");
        assert_eq!(serial.rounds, sharded.rounds, "rounds at {k} shards");
        assert_eq!(serial.messages, sharded.messages, "messages at {k} shards");
    }
}

#[test]
fn theorem10_bidding_under_faults_is_shard_invariant() {
    let g = gen::stream::complete_dary_tree(40, 10);
    let delta = 10;
    let faults = FaultSpec::none()
        .with_drop(0.2)
        .with_delay(0.2)
        .with_crash(0.05, 4);
    let plan = FaultPlan::sample(&g, &faults, 99);
    let config = Theorem10Config::default();

    let run = |k| {
        theorem10_phase1(
            &g,
            delta,
            5,
            config,
            &ExecSpec::new().with_faults(&plan).with_shards(k),
        )
    };
    let serial = run(1);
    for k in SHARD_COUNTS {
        let sharded = run(k);
        assert_runs_identical(&format!("theorem10 at {k} shards"), &serial, &sharded);
    }
}

/// RandLOCAL hashing whose cost per vertex varies sharply: the first tenth
/// of the vertices hash 2048 times per round, the rest once, and on one
/// draw in eight any vertex hashes 512 more times. Each vertex decides on
/// one draw in five, or at round 12.
struct Lumpy;

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl SyncAlgorithm for Lumpy {
    /// `(hash, base spins per round)`.
    type State = (u64, u32);
    type Output = u64;

    fn init(&self, init: &NodeInit<'_>) -> (u64, u32) {
        let heavy = init.node < init.params.n as usize / 10;
        (init.node as u64, if heavy { 2048 } else { 1 })
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        &(hash, spins): &(u64, u32),
        neighbors: &[(u64, u32)],
    ) -> SyncStep<(u64, u32), u64> {
        let draw = ctx.rng().next_u64();
        let mut acc = neighbors
            .iter()
            .fold(hash ^ draw, |a, &(h, _)| a.rotate_left(7) ^ h);
        let extra = if draw % 8 == 0 { 512 } else { 0 };
        for _ in 0..spins + extra {
            acc = mix(acc);
        }
        if draw % 5 == 0 || round >= 12 {
            SyncStep::Decide((acc, spins), acc)
        } else {
            SyncStep::Continue((acc, spins))
        }
    }
}

#[test]
fn lumpy_costs_are_shard_invariant_on_both_planes() {
    let g = gen::stream::circulant(3000, 4).expect("3000*4 is even");
    let faults = FaultSpec::none()
        .with_drop(0.2)
        .with_delay(0.2)
        .with_crash(0.05, 6);
    let plan = FaultPlan::sample(&g, &faults, 77);
    // One run's result, trace events and metrics document.
    let run = |faulty: bool, shards: usize| {
        let trace = Trace::new(0);
        let metrics = MetricSet::new();
        let mut spec = ExecSpec::rounds(40)
            .with_shards(shards)
            .with_obs(Obs::new(Some(&trace), Some(&metrics)));
        if faulty {
            spec = spec.with_faults(&plan);
        }
        let out = run_sync(&g, Mode::randomized(11), &Lumpy, &spec);
        let mut registry = MetricsRegistry::new();
        registry.absorb(&metrics);
        let doc = serde_json::to_string(&registry).expect("registries serialize");
        (out, trace.into_events(), doc)
    };
    for faulty in [false, true] {
        let (serial, serial_trace, serial_doc) = run(faulty, 1);
        if !faulty {
            assert_eq!(serial.counts(), (g.n(), 0, 0), "fault-free runs all decide");
        }
        for k in [2, 3] {
            let (sharded, trace, doc) = run(faulty, k);
            let label = format!("faulty = {faulty}, {k} shards");
            assert_runs_identical(&label, &serial, &sharded);
            assert_eq!(serial_trace, trace, "{label}: trace");
            assert_eq!(serial_doc, doc, "{label}: metrics");
        }
    }
}

/// RandLOCAL hashing whose liveness is lumpy: one vertex in sixteen is
/// long-lived and decides between rounds 36 and 43; every other vertex
/// decides in round 1 or 2. The state folds in what each vertex heard, so
/// a lost or misplaced delivery shows in the outputs.
struct LumpyLive;

impl SyncAlgorithm for LumpyLive {
    /// `(hash, decision round)`.
    type State = (u64, u32);
    type Output = u64;

    fn init(&self, init: &NodeInit<'_>) -> (u64, u32) {
        let h = mix(init.node as u64);
        let last = if h.is_multiple_of(16) {
            36 + (h >> 8) % 8
        } else {
            1 + (h >> 8) % 2
        };
        (h, last as u32)
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        &(hash, last): &(u64, u32),
        neighbors: &[(u64, u32)],
    ) -> SyncStep<(u64, u32), u64> {
        let draw = ctx.rng().next_u64();
        let acc = mix(neighbors
            .iter()
            .fold(hash ^ draw, |a, &(h, _)| a.rotate_left(9) ^ h));
        if round >= last {
            SyncStep::Decide((acc, last), acc)
        } else {
            SyncStep::Continue((acc, last))
        }
    }
}

/// A run's result, trace events and metrics document, under `spec`
/// extended by an observation handle.
fn observed<O>(
    spec: ExecSpec<'_>,
    run: impl FnOnce(&ExecSpec<'_>) -> O,
) -> (O, Vec<local_obs::TraceEvent>, String) {
    let trace = Trace::new(0);
    let metrics = MetricSet::new();
    let out = run(&spec.with_obs(Obs::new(Some(&trace), Some(&metrics))));
    let mut registry = MetricsRegistry::new();
    registry.absorb(&metrics);
    let doc = serde_json::to_string(&registry).expect("registries serialize");
    (out, trace.into_events(), doc)
}

#[test]
fn lumpy_liveness_is_shard_invariant_through_the_tail() {
    let g = gen::stream::circulant(4000, 4).expect("4000*4 is even");
    let faults = FaultSpec::none()
        .with_drop(0.2)
        .with_delay(0.2)
        .with_crash(0.05, 30);
    let plan = FaultPlan::sample(&g, &faults, 5);
    let mode = Mode::randomized(3);
    for (faulty, rounds) in [(false, 60), (true, 60), (false, 20), (true, 20)] {
        let spec = |shards: Option<usize>| {
            let spec = ExecSpec::rounds(rounds);
            let spec = if faulty {
                spec.with_faults(&plan)
            } else {
                spec
            };
            shards.map_or(spec, |k| spec.with_shards(k))
        };
        let label = |what: &str| format!("faulty = {faulty}, {rounds} rounds, {what}");
        let (serial, serial_trace, serial_doc) =
            observed(spec(None), |s| run_sync(&g, mode.clone(), &LumpyLive, s));
        let (long, cut) = (serial.sweeps > 30, serial.counts().2 > 0);
        assert_eq!(
            (long, cut),
            (rounds == 60, rounds == 20),
            "{}",
            label("shape")
        );
        for k in [1, 2, 3] {
            let (sharded, trace, doc) =
                observed(spec(Some(k)), |s| run_sync(&g, mode.clone(), &LumpyLive, s));
            let label = label(&format!("{k} shards"));
            assert_runs_identical(&label, &serial, &sharded);
            assert_eq!(serial_trace, trace, "{label}: trace");
            assert_eq!(serial_doc, doc, "{label}: metrics");
        }
        // The engine itself, with sharded sweeps until fewer than 300
        // vertices are live and the chunks stepped on one thread after.
        let engine = |threshold: Option<usize>, shards| {
            observed(spec(shards), |s| {
                let engine = Engine::new(&g, mode.clone());
                match threshold {
                    Some(t) => engine.with_par_threshold(t).execute_sync(s, &LumpyLive),
                    None => engine.execute_sync(s, &LumpyLive),
                }
            })
        };
        let (unsharded, unsharded_trace, unsharded_doc) = engine(None, None);
        for k in [2, 3] {
            let (fallback, trace, doc) = engine(Some(300), Some(k));
            let label = label(&format!("{k} shards falling back below 300 live"));
            assert_eq!(unsharded, fallback, "{label}: run");
            assert_eq!(unsharded_trace, trace, "{label}: trace");
            assert_eq!(unsharded_doc, doc, "{label}: metrics");
        }
    }
}

/// Vertex 0 runs until round 10 and outputs the sum of the states it last
/// heard; every other vertex decides at round 1 on `1000 + v`.
struct LateEcho;

impl SyncAlgorithm for LateEcho {
    type State = u64;
    type Output = u64;

    fn init(&self, _: &NodeInit<'_>) -> u64 {
        0
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        _: &u64,
        neighbors: &[u64],
    ) -> SyncStep<u64, u64> {
        match ctx.id() {
            Some(0) if round < 10 => SyncStep::Continue(0),
            Some(0) => SyncStep::Decide(0, neighbors.iter().sum()),
            Some(v) => SyncStep::Decide(1000 + v, 1000 + v),
            None => unreachable!("DetLOCAL"),
        }
    }
}

#[test]
fn a_delayed_state_from_a_halted_sender_still_arrives() {
    // Every message is delayed one exchange. Vertex 0's neighbours 1 and
    // 39 send their final states in sweep 1 and halt in sweep 2; the
    // states arrive in exchange 2, by when vertex 0 is the only live
    // vertex and the exchange visits only marked slots.
    let g = gen::cycle(40);
    let plan = FaultPlan::sample(&g, &FaultSpec::none().with_delay(1.0), 1);
    let spec = ExecSpec::rounds(20).with_faults(&plan);
    let serial = run_sync(&g, Mode::deterministic(), &LateEcho, &spec);
    assert_eq!(serial.outcomes[0].output(), Some(&(1001 + 1039)));
    assert_eq!(serial.sweeps, 12);
    for k in [1, 2, 3] {
        let sharded = run_sync(&g, Mode::deterministic(), &LateEcho, &spec.with_shards(k));
        assert_runs_identical(&format!("{k} shards"), &serial, &sharded);
    }
}

/// Flood that panics on whichever vertex a helper thread steps first; the
/// calling thread waits in its first vertex until that has happened, so
/// the panic always lands on a helper.
struct HelperBomb<'a> {
    caller: ThreadId,
    helper_stepped: &'a AtomicBool,
}

const BOMB: &str = "a vertex stepped by a helper panicked";

impl NodeProgram for HelperBomb<'_> {
    type Msg = ();
    type Output = ();

    fn step(&mut self, _round: u32, _io: &mut NodeIo<'_, ()>) -> Action<()> {
        if std::thread::current().id() != self.caller {
            self.helper_stepped.store(true, Ordering::SeqCst);
            panic!("{}", BOMB);
        }
        let start = Instant::now();
        while !self.helper_stepped.load(Ordering::SeqCst)
            && start.elapsed() < Duration::from_secs(30)
        {
            std::thread::yield_now();
        }
        Action::Halt(())
    }
}

struct HelperBombProtocol<'a> {
    caller: ThreadId,
    helper_stepped: &'a AtomicBool,
}

impl<'a> Protocol for HelperBombProtocol<'a> {
    type Node = HelperBomb<'a>;

    fn create(&self, _init: &NodeInit<'_>) -> HelperBomb<'a> {
        HelperBomb {
            caller: self.caller,
            helper_stepped: self.helper_stepped,
        }
    }
}

/// Run [`HelperBomb`] on two threads from the current one.
fn bomb() {
    let g = gen::cycle(64);
    let helper_stepped = AtomicBool::new(false);
    let protocol = HelperBombProtocol {
        caller: std::thread::current().id(),
        helper_stepped: &helper_stepped,
    };
    Engine::new(&g, Mode::deterministic()).execute(&ExecSpec::default().with_shards(2), &protocol);
}

#[test]
fn a_helper_panic_reaches_the_caller_with_its_payload() {
    let payload = std::panic::catch_unwind(bomb).expect_err("the helper's panic propagates");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some(BOMB)
    );
    // Trial isolation turns the same panic into a `Panicked` slot.
    let outcomes = TrialPlan::new(2, 5).execute(TrialSpec::new().isolated(), |_, _| bomb());
    for outcome in outcomes {
        match outcome {
            TrialOutcome::Panicked { message } => assert_eq!(message, BOMB),
            TrialOutcome::Ok(()) => panic!("a trial survived a helper's panic"),
        }
    }
}
