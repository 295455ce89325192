//! Property tests of the deterministic fault plane.
//!
//! Two guarantees the whole resilience experiment (E12) leans on:
//!
//! 1. A trivial [`FaultPlan`] is *observably identical* to the fault-free
//!    engine — outputs, rounds, halt schedule, message counts, sweeps — in
//!    both models (differential against both `Engine::run` and the simple
//!    reference engine).
//! 2. A fixed `fault_seed` replays the identical crash/drop/delay trace no
//!    matter how the nodes are stepped: the sequential path and the
//!    scoped-thread parallel path must produce bit-identical faulty runs.

use local_graphs::{gen, Graph};
use local_model::{
    Action, Engine, ExecSpec, FaultPlan, FaultSpec, FaultyRun, GlobalParams, Mode, NodeInit,
    NodeIo, NodeProgram, Protocol, Run, SimError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chainable sugar over the single entry point, `Engine::execute`, matching
/// the pre-refactor `run`/`run_faulty` shapes.
trait Exec {
    fn exec<P: Protocol + Sync>(
        &self,
        protocol: &P,
    ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError>;
    fn exec_faulty<P: Protocol + Sync>(
        &self,
        protocol: &P,
        faults: &FaultPlan,
    ) -> FaultyRun<<P::Node as NodeProgram>::Output>;
}

impl Exec for Engine<'_> {
    fn exec<P: Protocol + Sync>(
        &self,
        protocol: &P,
    ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError> {
        self.execute(&ExecSpec::default(), protocol)
            .into_run(100_000)
    }
    fn exec_faulty<P: Protocol + Sync>(
        &self,
        protocol: &P,
        faults: &FaultPlan,
    ) -> FaultyRun<<P::Node as NodeProgram>::Output> {
        self.execute(&ExecSpec::default().with_faults(faults), protocol)
    }
}

/// A fault-tolerant protocol mixing randomness, state, and staggered
/// halting: accumulates a hash of everything heard, halts at a
/// degree-dependent horizon whether or not messages arrive.
struct Mixer {
    horizon: u32,
    acc: u64,
}

impl NodeProgram for Mixer {
    type Msg = u64;
    type Output = u64;
    fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<u64> {
        for (p, &m) in io.received() {
            self.acc = self
                .acc
                .rotate_left(7)
                .wrapping_add(m)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(p as u64);
        }
        if io.is_randomized() {
            self.acc ^= io.rng().next_u64() & 0xFF;
        }
        if round >= self.horizon {
            Action::Halt(self.acc)
        } else {
            io.broadcast(self.acc);
            Action::Continue
        }
    }
}

struct MixerProtocol;
impl Protocol for MixerProtocol {
    type Node = Mixer;
    fn create(&self, init: &NodeInit<'_>) -> Mixer {
        Mixer {
            horizon: 2 + (init.degree as u32 % 4),
            acc: init.id.unwrap_or(0x5EED),
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, 0u64..500, 5u32..40).prop_map(|(n, seed, pct)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::gnp(n, f64::from(pct) / 100.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trivial-plan differential: `run_faulty(FaultPlan::none())` must be
    /// bit-identical to `run` in both models (which the existing arena-vs-
    /// reference proptest in turn pins to the baseline engine).
    #[test]
    fn trivial_plan_is_observably_fault_free(g in arb_graph(), seed in 0u64..50) {
        let trivial = FaultPlan::sample(&g, &FaultSpec::none(), seed);
        prop_assert!(trivial.is_trivial());
        for mode in [Mode::deterministic(), Mode::randomized(seed)] {
            let clean = Engine::new(&g, mode.clone()).exec(&MixerProtocol).unwrap();
            let faulty = Engine::new(&g, mode.clone()).exec_faulty(&MixerProtocol, &trivial);
            prop_assert_eq!(faulty.halted(), g.n());
            prop_assert_eq!(faulty.crashed(), 0);
            prop_assert_eq!(faulty.cut(), 0);
            prop_assert_eq!(faulty.dropped, 0);
            prop_assert_eq!(faulty.delayed, 0);
            prop_assert_eq!(faulty.rounds, clean.rounds);
            prop_assert_eq!(&faulty.stats, &clean.stats);
            let (outputs, halt_rounds): (Vec<u64>, Vec<u32>) = faulty
                .outcomes
                .iter()
                .map(|o| match o {
                    local_model::Outcome::Halted { round, output } => (*output, *round),
                    other => panic!("unexpected outcome {other:?}"),
                })
                .unzip();
            prop_assert_eq!(outputs, clean.outputs);
            prop_assert_eq!(halt_rounds, clean.halt_rounds);
        }
    }

    /// Replay: the same `(graph, mode, fault_seed)` triple must produce the
    /// identical fault trace — outcomes, drop/delay counters, and stats —
    /// whether nodes step sequentially or on the scoped-thread parallel
    /// path.
    #[test]
    fn fault_trace_replays_across_stepping_paths(
        g in arb_graph(),
        seed in 0u64..50,
        fault_seed in 0u64..1000,
    ) {
        let spec = FaultSpec {
            drop_p: 0.2,
            delay_p: 0.1,
            crash_p: 0.2,
            crash_window: 6,
        };
        let plan = FaultPlan::sample(&g, &spec, fault_seed);
        for mode in [Mode::deterministic(), Mode::randomized(seed)] {
            let spec = ExecSpec::rounds(50).with_faults(&plan);
            let sequential = Engine::new(&g, mode.clone()).execute(&spec, &MixerProtocol);
            let parallel = Engine::new(&g, mode.clone())
                .with_par_threshold(1)
                .execute(&spec, &MixerProtocol);
            prop_assert_eq!(&sequential.outcomes, &parallel.outcomes);
            prop_assert_eq!(sequential.dropped, parallel.dropped);
            prop_assert_eq!(sequential.delayed, parallel.delayed);
            prop_assert_eq!(&sequential.stats, &parallel.stats);
            prop_assert_eq!(sequential.rounds, parallel.rounds);

            // And the trace is a pure function of the seed: rerunning
            // reproduces it exactly.
            let again = Engine::new(&g, mode.clone()).execute(&spec, &MixerProtocol);
            prop_assert_eq!(&sequential.outcomes, &again.outcomes);
        }
    }

    /// Crash schedules actually bite: every node scheduled to crash before
    /// its horizon ends up `Crashed`, everyone else halts.
    #[test]
    fn crash_schedule_is_honored(g in arb_graph(), fault_seed in 0u64..500) {
        let spec = FaultSpec::none().with_crash(0.5, 2);
        let plan = FaultPlan::sample(&g, &spec, fault_seed);
        let run = Engine::new(&g, Mode::deterministic())
            .execute(&ExecSpec::rounds(50).with_faults(&plan), &MixerProtocol);
        for (v, outcome) in run.outcomes.iter().enumerate() {
            match plan.crash_schedule()[v] {
                // Window 2 ⇒ crash rounds 0/1, always before the ≥2 horizon.
                Some(r) => prop_assert_eq!(outcome, &local_model::Outcome::Crashed { round: r }),
                None => prop_assert!(outcome.is_halted()),
            }
        }
    }
}

/// The engine advertises the same parameters to nodes under faults.
#[test]
fn faulty_runs_see_claimed_params() {
    struct ParamCheck;
    impl NodeProgram for ParamCheck {
        type Msg = ();
        type Output = u64;
        fn step(&mut self, _round: u32, io: &mut NodeIo<'_, ()>) -> Action<u64> {
            Action::Halt(io.params().n)
        }
    }
    struct ParamProtocol;
    impl Protocol for ParamProtocol {
        type Node = ParamCheck;
        fn create(&self, _init: &NodeInit<'_>) -> ParamCheck {
            ParamCheck
        }
    }
    let g = gen::path(3);
    let params = GlobalParams::from_graph(&g).with_claimed_n(1 << 20);
    let run = Engine::new(&g, Mode::deterministic())
        .execute(&ExecSpec::default().with_params(params), &ParamProtocol);
    assert!(run
        .outcomes
        .iter()
        .all(|o| o.output() == Some(&(1u64 << 20))));
}
