//! Property tests of the recovery subsystem (E13's foundation).
//!
//! Three guarantees the self-healing experiment leans on:
//!
//! 1. On a fault-free run, where every vertex halts with a label, the
//!    partial checker and the complete checker are the *same* verifier —
//!    vertex for vertex, nothing skipped.
//! 2. Every labeling [`recover`] returns is accepted by `check_complete`:
//!    the splice it hands back is exactly the one it verified.
//! 3. With a full palette (maxdeg + 1 colors) the greedy finisher can never
//!    starve, so recovery of an arbitrarily-holed valid coloring always
//!    succeeds on the first attempt.
//! 4. Under *arbitrary* fuzzed fault plans — delay-only storms, every
//!    crash scheduled at round 0, or mixed drop/delay/crash — the recovery
//!    pipeline never panics and `check_partial` never over-counts, whether
//!    the engine sweeps serially or across 8 shards (E14's search evaluates
//!    thousands of such plans and leans on exactly these guarantees).

use local_algorithms::mis::luby::Luby;
use local_algorithms::orientation::sinkless::SinklessRepair;
use local_algorithms::{
    recover, run_sync, GreedyColoringFinisher, LubyRestartFinisher, RecoveryPolicy,
    SinklessFinisher,
};
use local_graphs::{gen, Graph};
use local_lcl::problems::{Mis, Orientation, SinklessOrientation, VertexColoring};
use local_lcl::{check_complete, check_partial, Labeling};
use local_model::{ExecSpec, FaultPlan, FaultSpec, Mode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, 0u64..500, 10u32..40).prop_map(|(n, seed, pct)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::gnp(n, f64::from(pct) / 100.0, &mut rng)
    })
}

/// The shape of a fuzzed fault plan. The two named corner cases the
/// adversary plane cares most about get their own variants so proptest
/// exercises them every run instead of hoping `Mixed` lands on them.
#[derive(Debug, Clone)]
enum ArbFaults {
    /// Every message delayed with probability `pct`/100, nothing else: no
    /// vertex ever crashes, no edge drops, yet rounds stretch arbitrarily.
    DelayOnly { pct: u32 },
    /// The first `count` vertices crash *before their first send* — the
    /// harshest schedule, leaving radius-1 holes around every casualty.
    CrashAtZero { count: usize },
    /// Sampled drop/delay/crash mixture.
    Mixed {
        drop_pct: u32,
        delay_pct: u32,
        crash_pct: u32,
        window: u32,
    },
}

fn arb_faults() -> impl Strategy<Value = ArbFaults> {
    prop_oneof![
        (1u32..=100).prop_map(|pct| ArbFaults::DelayOnly { pct }),
        (1usize..6).prop_map(|count| ArbFaults::CrashAtZero { count }),
        (0u32..40, 0u32..40, 0u32..30, 0u32..8).prop_map(
            |(drop_pct, delay_pct, crash_pct, window)| {
                ArbFaults::Mixed {
                    drop_pct,
                    delay_pct,
                    crash_pct,
                    window,
                }
            }
        ),
    ]
}

fn build_plan(g: &Graph, shape: &ArbFaults, fault_seed: u64) -> FaultPlan {
    match *shape {
        ArbFaults::DelayOnly { pct } => FaultPlan::sample(
            g,
            &FaultSpec::none().with_delay(f64::from(pct) / 100.0),
            fault_seed,
        ),
        ArbFaults::CrashAtZero { count } => {
            let mut plan = FaultPlan::none();
            for v in 0..count.min(g.n()) {
                plan.set_crash(g, v, Some(0));
            }
            plan
        }
        ArbFaults::Mixed {
            drop_pct,
            delay_pct,
            crash_pct,
            window,
        } => FaultPlan::sample(
            g,
            &FaultSpec::none()
                .with_drop(f64::from(drop_pct) / 100.0)
                .with_delay(f64::from(delay_pct) / 100.0)
                .with_crash(f64::from(crash_pct) / 100.0, window),
            fault_seed,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On an all-halted fault-free run, `check_partial` agrees with
    /// `check_complete` vertex for vertex: same checked/valid counts, no
    /// skips, identical violation lists.
    #[test]
    fn partial_and_complete_checkers_agree_on_fault_free_runs(
        g in arb_graph(),
        seed in 0u64..100,
    ) {
        let run = run_sync(&g, Mode::randomized(seed), &Luby::new(), &ExecSpec::rounds(10_000).with_faults(&FaultPlan::none()));
        let partial: Vec<Option<bool>> =
            run.outcomes.iter().map(|o| o.output().copied()).collect();
        prop_assert!(partial.iter().all(Option::is_some), "fault-free Luby halts everywhere");
        let full: Vec<bool> = partial.iter().map(|o| o.unwrap()).collect();

        let pv = check_partial(&Mis::new(), &g, &partial);
        let cv = check_complete(&Mis::new(), &g, &Labeling::new(full));
        prop_assert_eq!(pv.skipped, 0);
        prop_assert_eq!(pv.checked, g.n());
        prop_assert_eq!(pv.checked, cv.checked);
        prop_assert_eq!(pv.valid, cv.valid);
        prop_assert_eq!(&pv.violations, &cv.violations);
        // And a correct MIS validates outright.
        prop_assert!(cv.violations.is_empty(), "{:?}", cv.violations);
    }

    /// Every labeling MIS recovery returns passes `check_complete` — the
    /// splice handed back is the one that was verified.
    #[test]
    fn mis_recovery_is_accepted_by_check_complete(
        g in arb_graph(),
        seed in 0u64..100,
        fault_seed in 0u64..1000,
    ) {
        let spec = FaultSpec::none().with_drop(0.1).with_crash(0.1, 5);
        let plan = FaultPlan::sample(&g, &spec, fault_seed);
        let run = run_sync(&g, Mode::randomized(seed), &Luby::new(), &ExecSpec::rounds(10_000).with_faults(&plan));
        let partial: Vec<Option<bool>> =
            run.outcomes.iter().map(|o| o.output().copied()).collect();
        let finisher = LubyRestartFinisher { seed: fault_seed };
        if let Ok(rec) = recover(&Mis::new(), &g, &partial, &finisher, &RecoveryPolicy::default(), None, None) {
            prop_assert_eq!(rec.labels.len(), g.n());
            let cv = check_complete(&Mis::new(), &g, &rec.labels);
            prop_assert_eq!(cv.checked, g.n());
            prop_assert!(cv.violations.is_empty(), "{:?}", cv.violations);
            prop_assert!(rec.attempts <= 3);
        }
    }

    /// Same acceptance property for sinkless orientation on 3-regular
    /// graphs under crash faults.
    #[test]
    fn sinkless_recovery_is_accepted_by_check_complete(
        half_n in 10usize..30,
        seed in 0u64..100,
        fault_seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_regular(half_n * 2, 3, &mut rng).expect("even n·d");
        let spec = FaultSpec::none().with_drop(0.1).with_crash(0.1, 10);
        let plan = FaultPlan::sample(&g, &spec, fault_seed);
        let algo = SinklessRepair { phases: 20 };
        let run = run_sync(&g, Mode::randomized(seed), &algo, &ExecSpec::rounds(46).with_faults(&plan));
        let partial: Vec<Option<Orientation>> =
            run.outcomes.iter().map(|o| o.output().cloned()).collect();
        let problem = SinklessOrientation::new(3);
        if let Ok(rec) = recover(&problem, &g, &partial, &SinklessFinisher, &RecoveryPolicy::default(), None, None) {
            let cv = check_complete(&problem, &g, &rec.labels);
            prop_assert_eq!(cv.checked, g.n());
            prop_assert!(cv.violations.is_empty(), "{:?}", cv.violations);
        }
    }

    /// With palette maxdeg + 1 the greedy finisher always has a free color,
    /// so recovery of an arbitrarily-holed valid coloring of a tree must
    /// succeed — and on the first attempt.
    #[test]
    fn full_palette_greedy_recovery_never_fails(
        n in 5usize..60,
        delta in 3usize..8,
        seed in 0u64..500,
        holes in proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 60),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree_max_degree(n, delta, &mut rng);
        let maxdeg = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
        let palette = maxdeg + 1;

        // A valid greedy base coloring, then arbitrary holes punched in it.
        let mut base: Vec<usize> = vec![0; g.n()];
        for v in g.vertices() {
            let used: Vec<usize> = g.neighbors(v).iter().filter(|nb| nb.node < v)
                .map(|nb| base[nb.node]).collect();
            base[v] = (0..palette).find(|c| !used.contains(c)).expect("palette suffices");
        }
        let partial: Vec<Option<usize>> = base
            .iter()
            .enumerate()
            .map(|(v, &c)| if holes[v % holes.len()] { None } else { Some(c) })
            .collect();

        let problem = VertexColoring::new(palette);
        let finisher = GreedyColoringFinisher { palette };
        let rec = recover(&problem, &g, &partial, &finisher, &RecoveryPolicy::default(), None, None)
            .expect("full palette never starves");
        prop_assert!(rec.attempts <= 1, "first attempt suffices, got {}", rec.attempts);
        let cv = check_complete(&problem, &g, &rec.labels);
        prop_assert_eq!(cv.checked, g.n());
        prop_assert!(cv.violations.is_empty(), "{:?}", cv.violations);
        // Frozen vertices keep their labels.
        for (v, slot) in partial.iter().enumerate() {
            if let Some(c) = slot {
                prop_assert_eq!(rec.labels.get(v), c);
            }
        }
    }

    /// Under fuzzed fault plans — delay-only, crash-at-round-0, or mixed —
    /// `check_partial` never over-counts: every vertex is checked or
    /// skipped exactly once, a vertex is never checked beyond the labeled
    /// set, and each checked vertex contributes exactly one verdict. Holds
    /// identically whether the run swept serially or across 8 shards.
    #[test]
    fn check_partial_never_over_counts_under_fuzzed_faults(
        g in arb_graph(),
        shape in arb_faults(),
        seed in 0u64..100,
        fault_seed in 0u64..1000,
    ) {
        let plan = build_plan(&g, &shape, fault_seed);
        let mut verdicts = Vec::new();
        for shards in [1usize, 8] {
            let spec = ExecSpec::rounds(200).with_faults(&plan).with_shards(shards);
            let run = run_sync(&g, Mode::randomized(seed), &Luby::new(), &spec);
            let partial: Vec<Option<bool>> =
                run.outcomes.iter().map(|o| o.output().copied()).collect();
            let labeled = partial.iter().filter(|o| o.is_some()).count();
            let pv = check_partial(&Mis::new(), &g, &partial);
            prop_assert_eq!(pv.checked + pv.skipped, g.n());
            prop_assert!(pv.checked <= labeled, "checked {} > labeled {}", pv.checked, labeled);
            prop_assert_eq!(pv.valid + pv.violations.len(), pv.checked);
            for violation in &pv.violations {
                prop_assert!(partial[violation.vertex].is_some(),
                    "violation charged to unlabeled vertex {}", violation.vertex);
            }
            verdicts.push((partial, pv));
        }
        let (serial, sharded) = (&verdicts[0], &verdicts[1]);
        prop_assert_eq!(&serial.0, &sharded.0, "outputs diverged across shard counts");
        prop_assert_eq!(&serial.1, &sharded.1, "verdicts diverged across shard counts");
    }

    /// Recovery never panics, whatever fault plan the adversary search
    /// throws at it: it returns `Ok` with a labeling `check_complete`
    /// accepts or a clean error — on serial and 8-shard runs alike.
    #[test]
    fn recovery_never_panics_under_fuzzed_faults(
        g in arb_graph(),
        shape in arb_faults(),
        seed in 0u64..100,
        fault_seed in 0u64..1000,
    ) {
        let plan = build_plan(&g, &shape, fault_seed);
        for shards in [1usize, 8] {
            let spec = ExecSpec::rounds(200).with_faults(&plan).with_shards(shards);
            let run = run_sync(&g, Mode::randomized(seed), &Luby::new(), &spec);
            let partial: Vec<Option<bool>> =
                run.outcomes.iter().map(|o| o.output().copied()).collect();
            let finisher = LubyRestartFinisher { seed: fault_seed };
            match recover(&Mis::new(), &g, &partial, &finisher, &RecoveryPolicy::default(), None, None) {
                Ok(rec) => {
                    let cv = check_complete(&Mis::new(), &g, &rec.labels);
                    prop_assert_eq!(cv.checked, g.n());
                    prop_assert!(cv.violations.is_empty(), "{:?}", cv.violations);
                }
                Err(err) => {
                    // A clean refusal is acceptable; a panic is not.
                    prop_assert!(!err.error.to_string().is_empty());
                }
            }
        }
    }
}
