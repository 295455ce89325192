//! Property tests of the metrics plane's determinism guarantee.
//!
//! The metrics contract (README §Metrics) mirrors the trace plane's:
//! a `--metrics` document is a pure function of the experiment's seeds.
//! Producers record into per-trial [`MetricSet`]s, the harness absorbs each
//! set in trial order, and registries merge associatively and commutatively
//! — so any grouping of the trials (rayon threads, checkpoint resumes)
//! folds to the same registry and the same bytes.
//! These tests pin each link of that argument: merge algebra on random
//! registries, grouping invariance over random partitions, the parallel
//! harness against a plain sequential loop, the agreement of live metrics
//! with metrics folded from the trace, and the span-profile identity that
//! self-times partition the root wall-clock exactly.

use local_algorithms::mis::luby::Luby;
use local_algorithms::{recover, run_sync, LubyRestartFinisher, RecoveryPolicy};
use local_graphs::gen;
use local_lcl::problems::Mis;
use local_model::{
    Action, Engine, ExecSpec, FaultPlan, FaultSpec, Mode, NodeInit, NodeIo, NodeProgram, Protocol,
};
use local_obs::{
    EventData, MetricId, MetricSet, MetricsRegistry, Obs, PowHistogram, SpanProfile, Trace,
    TraceEvent, TraceSink,
};
use local_separation::trials::{Trial, TrialOutcome, TrialPlan, TrialSpec};
use proptest::prelude::*;

/// Apply one opcode to a recorder: a mix of counters, gauges, and both
/// histograms, so merged registries exercise every metric kind.
fn apply_op(set: &MetricSet, op: u8, v: u64) {
    match op % 6 {
        0 => set.add(MetricId::EngineRounds, v % 1000),
        1 => set.add(MetricId::EngineMessages, v),
        2 => set.gauge_max(MetricId::RecoveryRadiusMax, v % 64),
        3 => set.gauge_max(MetricId::SearchBestObjective, v % 4096),
        4 => observe(set, "halt_round", v % 300, 1),
        _ => observe(set, "messages_per_vertex", v % 64, 1 + v % 5),
    }
}

/// Record `count` samples of `value` into the engine histogram `name`, the
/// way the engine's `histogram` events do.
fn observe(set: &MetricSet, name: &str, value: u64, count: u64) {
    let mut hist = PowHistogram::new();
    hist.record_n(value, count);
    set.fold(&EventData::Histogram {
        name: name.into(),
        hist: Box::new(hist),
    });
}

fn registry_from(ops: &[(u8, u64)]) -> MetricsRegistry {
    let set = MetricSet::new();
    for (op, v) in ops {
        apply_op(&set, *op, *v);
    }
    let mut reg = MetricsRegistry::new();
    reg.absorb(&set);
    reg
}

fn merged(a: &MetricsRegistry, b: &MetricsRegistry) -> MetricsRegistry {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn bytes(reg: &MetricsRegistry) -> String {
    serde_json::to_string(reg).expect("registries serialize infallibly")
}

/// Up to 12 random recorder opcodes. (The vendored proptest's `vec` is
/// fixed-length, so variable length comes from truncating a prefix.)
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    (
        0usize..=12,
        proptest::collection::vec((0u8..=255, 0u64..1_000_000_000), 12),
    )
        .prop_map(|(len, items)| items.into_iter().take(len).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is associative and commutative, down to the serialized bytes —
    /// the algebraic core of thread-count invariance.
    #[test]
    fn merge_is_associative_and_commutative(a in ops(), b in ops(), c in ops()) {
        let (a, b, c) = (registry_from(&a), registry_from(&b), registry_from(&c));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(bytes(&left), bytes(&right));
        prop_assert_eq!(bytes(&merged(&a, &b)), bytes(&merged(&b, &a)));
    }

    /// Grouping invariance: absorbing every trial serially equals splitting
    /// the trials into arbitrary contiguous chunks (what a thread pool
    /// does), folding each chunk privately, and merging the chunk
    /// registries in order.
    #[test]
    fn chunked_fold_matches_serial_fold(
        trials in (1usize..=16, proptest::collection::vec(ops(), 16))
            .prop_map(|(len, v)| v.into_iter().take(len).collect::<Vec<_>>()),
        splits in proptest::collection::vec(1usize..4, 8),
    ) {
        let mut serial = MetricsRegistry::new();
        for t in &trials {
            serial.merge(&registry_from(t));
        }
        let mut chunked = MetricsRegistry::new();
        let mut rest: &[Vec<(u8, u64)>] = &trials;
        let mut splits = splits.into_iter();
        while !rest.is_empty() {
            let take = splits.next().unwrap_or(usize::MAX).min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            let mut worker = MetricsRegistry::new();
            for t in chunk {
                worker.merge(&registry_from(t));
            }
            chunked.merge(&worker);
            rest = tail;
        }
        prop_assert_eq!(&chunked, &serial);
        prop_assert_eq!(bytes(&chunked), bytes(&serial));
    }
}

/// A small protocol with data-dependent halting, so different trials meter
/// different round counts and message volumes.
struct Pulse {
    fuel: u32,
}

impl NodeProgram for Pulse {
    type Msg = u64;
    type Output = u64;
    fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<u64> {
        let heard: u64 = io.received().map(|(_, &m)| m).sum();
        if io.is_randomized() {
            self.fuel = self.fuel.saturating_sub((io.rng().next_u64() % 2) as u32);
        }
        if round >= self.fuel {
            Action::Halt(heard)
        } else {
            io.broadcast(heard.wrapping_add(u64::from(round)));
            Action::Continue
        }
    }
}

struct PulseProtocol;
impl Protocol for PulseProtocol {
    type Node = Pulse;
    fn create(&self, init: &NodeInit<'_>) -> Pulse {
        Pulse {
            fuel: 1 + (init.degree as u32 % 3),
        }
    }
}

/// One metered trial: a full engine run against a seed-derived ring, its
/// aggregates folded into a fresh single-trial registry.
fn metered_trial(trial: Trial) -> MetricsRegistry {
    let set = MetricSet::new();
    let n = 4 + (trial.seed % 5) as usize;
    let g = local_graphs::gen::cycle(n);
    let spec = ExecSpec::default().with_obs(Obs::new(None, Some(&set)));
    Engine::new(&g, Mode::randomized(trial.seed)).execute(&spec, &PulseProtocol);
    let mut reg = MetricsRegistry::new();
    reg.absorb(&set);
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel harness folds to the same bytes as a plain sequential
    /// loop — exactly what a one-thread pool (or `RAYON_NUM_THREADS=8`)
    /// would produce for the same plan.
    #[test]
    fn parallel_metrics_fold_is_bit_identical_to_serial(
        trials in 1u64..12,
        master_seed in 0u64..500,
    ) {
        let plan = TrialPlan::new(trials, master_seed);
        let mut parallel = MetricsRegistry::new();
        for reg in plan
            .execute(TrialSpec::new(), |t, _| metered_trial(t))
            .into_iter()
            .map(TrialOutcome::into_ok)
        {
            parallel.merge(&reg);
        }
        let mut serial = MetricsRegistry::new();
        for index in 0..plan.trials() {
            serial.merge(&metered_trial(Trial { index, seed: plan.seed(index) }));
        }
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(bytes(&parallel), bytes(&serial));
    }
}

/// Run `body` twice — first traced and metered, then metered alone — and
/// return the live registry, the registry folded from the recorded trace,
/// and the metrics-only registry.
fn observe_both_ways(
    body: impl Fn(Obs<'_>),
) -> (MetricsRegistry, MetricsRegistry, MetricsRegistry) {
    let registry = |set: &MetricSet| {
        let mut reg = MetricsRegistry::new();
        reg.absorb(set);
        reg
    };
    let trace = Trace::new(0);
    let live = MetricSet::new();
    body(Obs::new(Some(&trace), Some(&live)));
    let folded = MetricSet::new();
    for event in trace.into_events() {
        folded.fold(&event.data);
    }
    let alone = MetricSet::new();
    body(Obs::new(None, Some(&alone)));
    (registry(&live), registry(&folded), registry(&alone))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two planes agree by construction: over fault-free and faulty
    /// `run_sync` runs (both sync planes) at 1–3 forced shards, some cut by
    /// a tight budget, followed by recovery of the partial MIS, folding the
    /// trace's events gives the live metrics exactly, and a metrics-only
    /// run records the same registry as a traced one.
    #[test]
    fn metrics_fold_from_the_trace_and_ignore_whether_it_is_kept(
        n in 8usize..48,
        seed in 0u64..1000,
        faulty in 0u8..2,
        shards in 1usize..=3,
        budget in 3u32..40,
    ) {
        let g = gen::stream::circulant(n, 4).expect("4n is even");
        let faults = FaultSpec::none()
            .with_drop(0.15)
            .with_delay(0.1)
            .with_crash(0.1, 6);
        let plan = FaultPlan::sample(&g, &faults, seed);
        let (live, folded, alone) = observe_both_ways(|obs| {
            let mut spec = ExecSpec::rounds(budget).with_shards(shards).with_obs(obs);
            if faulty == 1 {
                spec = spec.with_faults(&plan);
            }
            let run = run_sync(&g, Mode::randomized(seed), &Luby::new(), &spec);
            let partial: Vec<Option<bool>> =
                run.outcomes.iter().map(|o| o.output().copied()).collect();
            let finisher = LubyRestartFinisher { seed };
            let _ = recover(&Mis::new(), &g, &partial, &finisher, &RecoveryPolicy::default(), obs);
        });
        prop_assert_eq!(live.counter(MetricId::EngineRuns), 1);
        prop_assert_eq!(&folded, &live);
        prop_assert_eq!(&alone, &live);
        prop_assert_eq!(bytes(&alone), bytes(&live));
    }
}

/// Build a random well-formed span forest for one trial, returning its
/// events and the exact root wall-clock the generator assembled. Each
/// script byte's parity decides push-vs-pop; the `u64` is a pop's
/// self-time.
fn span_forest(trial: u64, script: &[(u8, u64)]) -> (Vec<TraceEvent>, u64) {
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut emit = |data: EventData| {
        events.push(TraceEvent { trial, seq, data });
        seq += 1;
    };
    // Stack of (name index, accumulated child total).
    let mut stack: Vec<(usize, u64)> = Vec::new();
    let mut root_total = 0u64;
    let mut next_name = 0usize;
    let mut close =
        |stack: &mut Vec<(usize, u64)>, emit: &mut dyn FnMut(EventData), self_micros: u64| {
            let (name, children) = stack.pop().expect("caller checks depth");
            let total = self_micros + children;
            emit(EventData::SpanEnd {
                name: format!("s{name}"),
                micros: total,
            });
            match stack.last_mut() {
                Some(parent) => parent.1 += total,
                None => root_total += total,
            }
        };
    for (op, weight) in script {
        if op % 2 == 0 && stack.len() < 4 {
            emit(EventData::SpanStart {
                name: format!("s{next_name}"),
            });
            stack.push((next_name, 0));
            next_name += 1;
        } else if !stack.is_empty() {
            let w = weight % 1000;
            close(&mut stack, &mut emit, w);
        }
    }
    while !stack.is_empty() {
        close(&mut stack, &mut emit, 1);
    }
    (events, root_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flamegraph identity: over any well-formed span forest, per-path
    /// self-times sum exactly to the root total — no time is double-counted
    /// or lost when spans nest arbitrarily.
    #[test]
    fn span_profile_self_times_partition_the_root_total(
        scripts in (
            1usize..=3,
            proptest::collection::vec(
                (0usize..=24, proptest::collection::vec((0u8..=255, 0u64..1_000_000), 24))
                    .prop_map(|(len, v)| v.into_iter().take(len).collect::<Vec<_>>()),
                3,
            ),
        )
            .prop_map(|(len, v)| v.into_iter().take(len).collect::<Vec<_>>()),
    ) {
        let mut events = Vec::new();
        let mut expected_root = 0u64;
        for (trial, script) in scripts.iter().enumerate() {
            let (mut ev, root) = span_forest(trial as u64, script);
            events.append(&mut ev);
            expected_root += root;
        }
        let profile = SpanProfile::from_events(&events);
        prop_assert_eq!(profile.orphan_ends(), 0);
        prop_assert_eq!(profile.unclosed_starts(), 0);
        prop_assert_eq!(profile.root_micros(), expected_root);
        let self_sum: u64 = profile.entries().iter().map(|e| e.self_micros).sum();
        prop_assert_eq!(self_sum, expected_root);
    }
}

/// The same identity on a real traced experiment: E13's quick sweep records
/// phase spans through the actual producers, and its profile's self-times
/// must still partition the root total.
#[test]
fn traced_e13_profile_self_times_sum_to_root_total() {
    use local_separation::experiments::e13_recovery as e13;
    let mut sink = local_obs::MemorySink::new();
    let cfg = e13::Config::quick();
    e13::run(&cfg, None, Some(&mut sink));
    sink.flush();
    let profile = SpanProfile::from_events(sink.events());
    assert!(!profile.is_empty(), "E13's trace records phase spans");
    assert_eq!(profile.orphan_ends(), 0);
    assert_eq!(profile.unclosed_starts(), 0);
    let self_sum: u64 = profile.entries().iter().map(|e| e.self_micros).sum();
    assert_eq!(self_sum, profile.root_micros());
}
