//! Property tests of the round engine's core guarantees.

use local_graphs::{gen, Graph};
use local_model::{
    Action, Engine, ExecSpec, GlobalParams, IdAssignment, Mode, NodeInit, NodeIo, NodeProgram,
    Protocol, Run, SimError,
};
use local_obs::{EventData, Obs, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chainable sugar over the single entry point, `Engine::execute`: the
/// strict fault-free shape the pre-refactor `Engine::run` returned.
trait Exec {
    fn exec<P: Protocol + Sync>(
        &self,
        protocol: &P,
    ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError>;
}

impl Exec for Engine<'_> {
    fn exec<P: Protocol + Sync>(
        &self,
        protocol: &P,
    ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError> {
        // 100_000 is the engine's default round budget; only the error
        // message reads it.
        self.execute(&ExecSpec::default(), protocol)
            .into_run(100_000)
    }
}

/// A protocol mixing randomness, state, and staggered halting: each node
/// accumulates a hash of everything it hears and halts after `id-or-random`
/// dependent rounds.
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

/// The payloads of a trace's scrubbed `round` events.
fn round_events(trace: Trace) -> Vec<EventData> {
    trace
        .into_events()
        .iter()
        .filter(|e| matches!(e.data, EventData::Round { .. }))
        .map(|e| e.scrubbed().data)
        .collect()
}

/// A traced fault-free run of [`MixerProtocol`] and its `round` events.
fn traced_run(g: &Graph, mode: Mode) -> (Run<u64>, Vec<EventData>) {
    let trace = Trace::new(0);
    let run = Engine::new(g, mode)
        .execute(
            &ExecSpec::default().with_obs(Obs::traced(Some(&trace))),
            &MixerProtocol,
        )
        .into_run(100_000)
        .unwrap();
    (run, round_events(trace))
}

/// `(live, messages)` of each `round` event.
fn curve(rounds: &[EventData]) -> Vec<(u64, u64)> {
    rounds
        .iter()
        .filter_map(|e| match *e {
            EventData::Round { live, messages, .. } => Some((live, messages)),
            _ => None,
        })
        .collect()
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, 0u64..500, 5u32..40).prop_map(|(n, seed, pct)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::gnp(n, f64::from(pct) / 100.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn randomized_runs_are_seed_deterministic(g in arb_graph(), seed in 0u64..100) {
        let a = Engine::new(&g, Mode::randomized(seed)).exec(&MixerProtocol).unwrap();
        let b = Engine::new(&g, Mode::randomized(seed)).exec(&MixerProtocol).unwrap();
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn deterministic_runs_are_plain_deterministic(g in arb_graph()) {
        let a = Engine::new(&g, Mode::deterministic()).exec(&MixerProtocol).unwrap();
        let b = Engine::new(&g, Mode::deterministic()).exec(&MixerProtocol).unwrap();
        prop_assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn halt_rounds_bounded_by_rounds(g in arb_graph(), seed in 0u64..50) {
        let (run, rounds) = traced_run(&g, Mode::randomized(seed));
        let curve = curve(&rounds);
        let max = run.halt_rounds.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(max, run.rounds);
        prop_assert!(run.stats.sweeps >= run.rounds);
        // The live curve starts with all nodes and never increases.
        prop_assert_eq!(curve.first().map(|&(live, _)| live), Some(g.n() as u64));
        for w in curve.windows(2) {
            prop_assert!(w[0].0 >= w[1].0);
        }
    }

    /// Fault-free runs must account for every message: the `round` events'
    /// message counts sum to the aggregate counter, one event per sweep.
    #[test]
    fn fault_free_messages_per_round_sums_to_messages_sent(g in arb_graph(), seed in 0u64..50) {
        for mode in [Mode::deterministic(), Mode::randomized(seed)] {
            let (run, rounds) = traced_run(&g, mode);
            let curve = curve(&rounds);
            prop_assert_eq!(curve.len() as u32, run.stats.sweeps);
            prop_assert_eq!(
                curve.iter().map(|&(_, messages)| messages).sum::<u64>(),
                run.stats.messages_sent
            );
        }
    }

    #[test]
    fn id_assignments_are_permutations(g in arb_graph(), seed in 0u64..50) {
        let ids = IdAssignment::Shuffled { seed }.assign(&g);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.n() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn claimed_params_do_not_change_topology_results(g in arb_graph()) {
        // Advertising a larger n must not alter a protocol that ignores n.
        let a = Engine::new(&g, Mode::deterministic()).exec(&MixerProtocol).unwrap();
        let b = Engine::new(&g, Mode::deterministic())
            .execute(
                &ExecSpec::default()
                    .with_params(GlobalParams::from_graph(&g).with_claimed_n(1 << 40)),
                &MixerProtocol,
            )
            .into_run(100_000)
            .unwrap();
        prop_assert_eq!(a.outputs, b.outputs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arena engine must be observably equivalent to the simple
    /// reference implementation — same outputs, rounds, halt schedule,
    /// message count, sweep count and `round` events — in both models, on
    /// arbitrary graphs, under a protocol that exercises broadcasting,
    /// state, randomness, and staggered halting.
    #[test]
    fn arena_engine_matches_reference(g in arb_graph(), seed in 0u64..50) {
        let params = GlobalParams::from_graph(&g);
        for mode in [Mode::deterministic(), Mode::randomized(seed)] {
            let (fast, fast_rounds) = traced_run(&g, mode.clone());
            let slow_trace = Trace::new(0);
            let slow = local_model::reference::run_reference(
                &g, &mode, &MixerProtocol, &params, 100_000, Obs::traced(Some(&slow_trace)),
            )
            .unwrap();
            prop_assert_eq!(&fast.outputs, &slow.outputs);
            prop_assert_eq!(fast.rounds, slow.rounds);
            prop_assert_eq!(&fast.halt_rounds, &slow.halt_rounds);
            prop_assert_eq!(fast.stats.messages_sent, slow.stats.messages_sent);
            prop_assert_eq!(fast.stats.sweeps, slow.stats.sweeps);
            prop_assert_eq!(fast_rounds, round_events(slow_trace));
        }
    }
}

/// Per-node randomness must be independent: two nodes never share a stream.
#[test]
fn node_streams_are_pairwise_distinct() {
    struct Draw;
    impl NodeProgram for Draw {
        type Msg = ();
        type Output = (u64, u64);
        fn step(&mut self, _round: u32, io: &mut NodeIo<'_, ()>) -> Action<(u64, u64)> {
            let rng = io.rng();
            Action::Halt((rng.next_u64(), rng.next_u64()))
        }
    }
    struct DrawProtocol;
    impl Protocol for DrawProtocol {
        type Node = Draw;
        fn create(&self, _init: &NodeInit<'_>) -> Draw {
            Draw
        }
    }
    let g = gen::cycle(64);
    let run = Engine::new(&g, Mode::randomized(5))
        .exec(&DrawProtocol)
        .unwrap();
    let set: std::collections::HashSet<_> = run.outputs.iter().collect();
    assert_eq!(set.len(), 64);
}

/// The engine must deliver messages along the correct ports (pairing each
/// edge's two directions), even on multigraph-like dense ports.
#[test]
fn port_delivery_is_exact() {
    struct Echo;
    impl NodeProgram for Echo {
        type Msg = (u64, usize);
        type Output = bool;
        fn step(&mut self, round: u32, io: &mut NodeIo<'_, (u64, usize)>) -> Action<bool> {
            match round {
                0 => {
                    let me = io.id().expect("det");
                    for p in 0..io.degree() {
                        io.send(p, (me, p));
                    }
                    Action::Continue
                }
                _ => {
                    // Every received message must carry the neighbor's port,
                    // and echoing it back through our port must match what
                    // the graph says.
                    Action::Halt(io.received().count() == io.degree())
                }
            }
        }
    }
    struct EchoProtocol;
    impl Protocol for EchoProtocol {
        type Node = Echo;
        fn create(&self, _init: &NodeInit<'_>) -> Echo {
            Echo
        }
    }
    let mut rng = StdRng::seed_from_u64(77);
    let g = gen::gnp(30, 0.3, &mut rng);
    let run = Engine::new(&g, Mode::deterministic())
        .exec(&EchoProtocol)
        .unwrap();
    for (v, &ok) in run.outputs.iter().enumerate() {
        assert!(ok || g.degree(v) == 0, "vertex {v} missed a message");
    }
}
