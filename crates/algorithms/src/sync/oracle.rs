//! Differential test of [`run_sync`] against the message-plane oracle,
//! [`execute_sync_on_messages`]: the state planes must reproduce, to the
//! byte, what compiling a sync algorithm to a broadcast protocol reports.

use super::{engine_spec, into_sync_run, run_sync, SyncAlgorithm, SyncRun};
use crate::color::linial::LinialAlgorithm;
use crate::color::rand_greedy::RandGreedy;
use crate::color::{DefectiveLocalSearch, LinialSchedule};
use crate::mis::luby::Luby;
use crate::mis::DilatedLuby;
use crate::orientation::sinkless::SinklessRepair;
use local_graphs::{gen, Graph};
use local_model::reference::execute_sync_on_messages;
use local_model::{Budget, Engine, ExecSpec, FaultPlan, FaultSpec, IdAssignment, Mode};
use local_obs::{MetricSet, MetricsRegistry, Obs, Trace, TraceEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// The fault plans a case can run under.
#[derive(Debug, Clone, Copy)]
enum Plan {
    None,
    Trivial,
    Drops,
    HardDrops,
    Delays,
    Crashes,
    Mixed,
}

fn plan(g: &Graph, kind: Plan, seed: u64) -> Option<FaultPlan> {
    let sample = |spec: FaultSpec| Some(FaultPlan::sample(g, &spec, seed));
    match kind {
        Plan::None => None,
        Plan::Trivial => Some(FaultPlan::none()),
        Plan::Drops => sample(FaultSpec::none().with_drop(0.3)),
        Plan::HardDrops => {
            // The adversary's plans: every edge drops always or never.
            let mut plan = FaultPlan::sample(g, &FaultSpec::none(), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for v in g.vertices() {
                for p in 0..g.degree(v) {
                    plan.set_edge_drop(g, v, p, f64::from(u8::from(rng.gen_bool(0.3))));
                }
            }
            Some(plan)
        }
        Plan::Delays => sample(FaultSpec::none().with_delay(0.4)),
        Plan::Crashes => sample(FaultSpec::none().with_crash(0.2, 4)),
        Plan::Mixed => sample(
            FaultSpec::none()
                .with_drop(0.2)
                .with_delay(0.3)
                .with_crash(0.15, 5),
        ),
    }
}

/// Run `algo` both ways under `spec` and require identical runs, scrubbed
/// traces and metrics registries.
fn agree<A>(g: &Graph, mode: &Mode, algo: &A, spec: &ExecSpec<'_>)
where
    A: SyncAlgorithm,
    A::Output: PartialEq + Debug,
{
    let observe = |f: &dyn Fn(&ExecSpec<'_>) -> SyncRun<A::Output>| {
        let trace = Trace::new(0);
        let metrics = MetricSet::new();
        let run = f(&spec.with_obs(Obs::new(Some(&trace), Some(&metrics))));
        let events: Vec<TraceEvent> = trace.into_events().iter().map(|e| e.scrubbed()).collect();
        let mut registry = MetricsRegistry::new();
        registry.absorb(&metrics);
        (run, events, registry)
    };
    let planes = observe(&|spec| run_sync(g, mode.clone(), algo, spec));
    let oracle = observe(&|spec| {
        let (engine_spec, round_limit) = engine_spec(g, spec);
        let engine = Engine::new(g, mode.clone());
        into_sync_run(
            execute_sync_on_messages(&engine, &engine_spec, algo),
            round_limit,
        )
    });
    assert_eq!(planes.0, oracle.0, "run");
    assert_eq!(planes.1, oracle.1, "trace");
    assert_eq!(planes.2, oracle.2, "metrics");
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..40, 1u32..8, 0u64..u64::MAX).prop_map(|(n, tenths, seed)| {
        gen::gnp(
            n,
            f64::from(tenths) / 20.0,
            &mut StdRng::seed_from_u64(seed),
        )
    })
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    prop_oneof![
        Just(Plan::None),
        Just(Plan::Trivial),
        Just(Plan::Drops),
        Just(Plan::HardDrops),
        Just(Plan::Delays),
        Just(Plan::Crashes),
        Just(Plan::Mixed),
    ]
}

/// A round budget, a message budget that cuts, or the default budget.
fn arb_budget() -> impl Strategy<Value = Option<Budget>> {
    prop_oneof![
        Just(None),
        (1u32..6).prop_map(|r| Some(Budget::rounds(r))),
        (0u64..200).prop_map(|m| Some(Budget::rounds(100).with_max_messages(m))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn state_planes_match_the_message_plane(
        g in arb_graph(),
        kind in arb_plan(),
        budget in arb_budget(),
        shards in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        // Every case also runs fault-free: that plane has its own halting
        // rule.
        let plan = plan(&g, kind, seed);
        for faults in [None, plan.as_ref()] {
            let mut spec = ExecSpec::default().with_shards(shards);
            spec.faults = faults;
            spec.budget = budget;
            let rand = Mode::randomized(seed);
            let delta = g.max_degree();
            agree(&g, &rand, &Luby::new(), &spec);
            agree(&g, &rand, &DefectiveLocalSearch::new(3, 1, 6), &spec);
            agree(&g, &rand, &DilatedLuby::new(2, 9), &spec);
            agree(&g, &rand, &SinklessRepair { phases: 3 }, &spec);
            agree(&g, &rand, &RandGreedy::new(delta + 1), &spec);
            let det = Mode::deterministic_with(IdAssignment::Shuffled { seed });
            let linial = LinialAlgorithm::from_ids(LinialSchedule::new(g.n() as u64, delta));
            agree(&g, &det, &linial, &spec);
        }
    }
}
