//! The sync layer: [`run_sync`], the one entry point every algorithm in the
//! workspace runs through.
//!
//! Most symmetry-breaking algorithms in the literature are phrased as: *every
//! round, each vertex inspects its neighbors' current states and updates its
//! own*. [`SyncAlgorithm`] captures exactly that (it lives in `local-model`
//! and is re-exported here), and [`run_sync`] runs it on the engine's state
//! plane ([`Engine::execute_sync`]), where a vertex reads its neighbors'
//! states in place rather than receiving per-port copies.
//!
//! Round accounting: the reported complexity is the largest round in which
//! any vertex *decided* its output. Vertices keep announcing their final
//! state after deciding (processors in the LOCAL model never disappear;
//! messages are free), and the engine run terminates one bookkeeping sweep
//! after the last decision — that extra sweep is infrastructure, not
//! algorithmic cost, and is excluded from the metric.

use local_graphs::Graph;
use local_model::{
    Breach, Budget, Engine, ExecSpec, FaultyRun, GlobalParams, Mode, Outcome, SimError,
};
pub use local_model::{SyncAlgorithm, SyncCtx, SyncStep};

/// The strict all-decided shape, recovered from a [`SyncRun`] by
/// [`SyncRun::strict`].
#[derive(Debug, Clone)]
pub struct SyncOutcome<O> {
    /// Per-vertex outputs.
    pub outputs: Vec<O>,
    /// Algorithmic round complexity: the largest round in which a vertex
    /// decided.
    pub rounds: u32,
    /// Total messages sent, including the bookkeeping sweeps.
    pub messages: u64,
}

/// Outcome of [`run_sync`]: per-vertex fates with partial outputs.
///
/// `Halted { round, output }` carries the round in which the vertex
/// *decided* (the sync-layer metric, one less than its engine halt round).
/// Fault-free runs under a sufficient budget have every vertex `Halted`;
/// [`strict`](Self::strict) recovers the all-decided [`SyncOutcome`] shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRun<O> {
    /// Per-vertex fates, indexed by vertex.
    pub outcomes: Vec<Outcome<O>>,
    /// Engine sweeps consumed.
    pub sweeps: u32,
    /// Total messages sent.
    pub messages: u64,
    /// Messages discarded by drop faults.
    pub dropped: u64,
    /// Messages deferred one round by delay faults.
    pub delayed: u64,
    /// Which budget axis cut the run, if any.
    pub breach: Option<Breach>,
    /// The engine round limit the run executed under (algorithmic budget
    /// plus bookkeeping sweeps) — reported on [`strict`](Self::strict)'s
    /// error.
    round_limit: u32,
}

impl<O> SyncRun<O> {
    /// Per-vertex outputs for the vertices that decided, `None` elsewhere —
    /// the shape partial LCL validation consumes.
    pub fn partial_outputs(&self) -> Vec<Option<&O>> {
        self.outcomes.iter().map(Outcome::output).collect()
    }

    /// Count of vertices that decided / crashed / were cut.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut halted = 0;
        let mut crashed = 0;
        let mut cut = 0;
        for o in &self.outcomes {
            match o {
                Outcome::Halted { .. } => halted += 1,
                Outcome::Crashed { .. } => crashed += 1,
                Outcome::Cut => cut += 1,
            }
        }
        (halted, crashed, cut)
    }

    /// The largest decided round (0 if nobody decided).
    pub fn max_decided_round(&self) -> u32 {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Halted { round, .. } => Some(*round),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Collapse into the strict all-decided [`SyncOutcome`] shape.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] if any vertex was cut by the budget.
    ///
    /// # Panics
    ///
    /// If a vertex crashed: crash-stop fates have no strict equivalent, so
    /// calling this on a run executed under a crashing fault plan is a logic
    /// error.
    pub fn strict(self) -> Result<SyncOutcome<O>, SimError> {
        let (_, crashed, cut) = self.counts();
        assert_eq!(crashed, 0, "strict() on a run with crashed vertices");
        if cut > 0 {
            return Err(SimError::RoundLimitExceeded {
                limit: self.round_limit,
                live_nodes: cut,
                live_sample: self
                    .outcomes
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_cut())
                    .map(|(v, _)| v)
                    .take(SimError::LIVE_SAMPLE_CAP)
                    .collect(),
            });
        }
        let mut outputs = Vec::with_capacity(self.outcomes.len());
        let mut rounds = 0;
        for o in self.outcomes {
            match o {
                Outcome::Halted { round, output } => {
                    rounds = rounds.max(round);
                    outputs.push(output);
                }
                _ => unreachable!("counted above"),
            }
        }
        Ok(SyncOutcome {
            outputs,
            rounds,
            messages: self.messages,
        })
    }
}

/// Run a [`SyncAlgorithm`] on `g` under `mode`, as described by `spec` —
/// the single sync-layer entry point.
///
/// The spec's knobs compose freely:
///
/// * `spec.budget.max_rounds` counts *algorithmic* rounds; the engine gets
///   two extra bookkeeping sweeps on that axis (other budget axes pass
///   through unchanged). An absent budget allows 100 000 rounds.
/// * `spec.params` overrides the advertised global parameters (Theorems
///   3/6/8 pretend the graph is larger than it is).
/// * `spec.faults` injects message drops, delays, and crash-stop nodes. A
///   faulty run differs observably from a fault-free one — a vertex halts
///   one round after deciding instead of waiting for its neighbors — so any
///   plan, even a trivial one, selects it, and `None` the fault-free run.
/// * `spec.trace` receives the engine's per-round events (live counts,
///   message volume, crashes, fault-plane drops/delays, budget consumption).
///
/// Never errors: a vertex that cannot decide within the budget is reported
/// as [`Outcome::Cut`] (and a crashed one as [`Outcome::Crashed`]) with
/// every other vertex's output intact. Use [`SyncRun::strict`] where the
/// old `Result<SyncOutcome, SimError>` shape is wanted.
pub fn run_sync<A: SyncAlgorithm>(
    g: &Graph,
    mode: Mode,
    algo: &A,
    spec: &ExecSpec<'_>,
) -> SyncRun<A::Output> {
    let (engine_spec, round_limit) = engine_spec(g, spec);
    let run = Engine::new(g, mode).execute_sync(&engine_spec, algo);
    into_sync_run(run, round_limit)
}

/// The engine spec behind a [`run_sync`] spec — the round budget widened by
/// the two bookkeeping sweeps, the parameters resolved — and that widened
/// round limit.
fn engine_spec<'s>(g: &Graph, spec: &ExecSpec<'s>) -> (ExecSpec<'s>, u32) {
    let budget = spec.budget.unwrap_or(Budget::rounds(100_000));
    let engine_budget = Budget {
        max_rounds: budget.max_rounds.saturating_add(2),
        ..budget
    };
    let engine_spec = ExecSpec {
        params: Some(spec.params.unwrap_or_else(|| GlobalParams::from_graph(g))),
        budget: Some(engine_budget),
        ..*spec
    };
    (engine_spec, engine_budget.max_rounds)
}

/// Map an engine run's outcomes, whose outputs carry their decide round,
/// into the sync layer's shape, where `Halted.round` is that decide round.
fn into_sync_run<O>(run: FaultyRun<(O, u32)>, round_limit: u32) -> SyncRun<O> {
    SyncRun {
        outcomes: run
            .outcomes
            .into_iter()
            .map(|o| match o {
                Outcome::Halted {
                    output: (o, decided),
                    ..
                } => Outcome::Halted {
                    round: decided,
                    output: o,
                },
                Outcome::Crashed { round } => Outcome::Crashed { round },
                Outcome::Cut => Outcome::Cut,
            })
            .collect(),
        sweeps: run.stats.sweeps,
        messages: run.stats.messages_sent,
        dropped: run.dropped,
        delayed: run.delayed,
        breach: run.breach,
        round_limit,
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_model::{FaultPlan, FaultSpec, NodeInit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each vertex decides the maximum ID within distance `horizon`.
    struct MaxWithin {
        horizon: u32,
    }
    impl SyncAlgorithm for MaxWithin {
        type State = u64;
        type Output = u64;
        fn init(&self, init: &NodeInit<'_>) -> u64 {
            init.id.expect("DetLOCAL")
        }
        fn update(
            &self,
            round: u32,
            _ctx: &mut SyncCtx<'_>,
            state: &u64,
            neighbors: &[u64],
        ) -> SyncStep<u64, u64> {
            let next = neighbors.iter().copied().fold(*state, u64::max);
            if round >= self.horizon {
                SyncStep::Decide(next, next)
            } else {
                SyncStep::Continue(next)
            }
        }
    }

    #[test]
    fn max_within_radius() {
        let g = gen::path(6);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100),
        )
        .strict()
        .unwrap();
        assert_eq!(out.rounds, 2);
        // Vertex 0 sees IDs within distance 2: {0,1,2} → 2.
        assert_eq!(out.outputs[0], 2);
        assert_eq!(out.outputs[5], 5);
        assert_eq!(out.outputs[3], 5);
    }

    /// Decide immediately at round 1 with no dependence on neighbors.
    struct Instant;
    impl SyncAlgorithm for Instant {
        type State = ();
        type Output = usize;
        fn init(&self, _init: &NodeInit<'_>) {}
        fn update(
            &self,
            _round: u32,
            ctx: &mut SyncCtx<'_>,
            _state: &(),
            _neighbors: &[()],
        ) -> SyncStep<(), usize> {
            SyncStep::Decide((), ctx.degree())
        }
    }

    #[test]
    fn instant_decision_counts_one_round() {
        let g = gen::star(4);
        let out = run_sync(&g, Mode::deterministic(), &Instant, &ExecSpec::rounds(10))
            .strict()
            .unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.outputs[0], 3);
    }

    /// Vertices decide at different rounds (by ID), exercising the
    /// keep-broadcasting-after-decide path.
    struct Staggered;
    impl SyncAlgorithm for Staggered {
        type State = u64;
        type Output = u64;
        fn init(&self, init: &NodeInit<'_>) -> u64 {
            init.id.expect("DetLOCAL")
        }
        fn update(
            &self,
            round: u32,
            _ctx: &mut SyncCtx<'_>,
            state: &u64,
            neighbors: &[u64],
        ) -> SyncStep<u64, u64> {
            if u64::from(round) > *state {
                // Output = sum of neighbor states visible at decision time;
                // neighbors that decided earlier must still be visible.
                SyncStep::Decide(*state, neighbors.iter().sum())
            } else {
                SyncStep::Continue(*state)
            }
        }
    }

    #[test]
    fn staggered_decisions_see_decided_neighbors() {
        let g = gen::path(3);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &Staggered,
            &ExecSpec::rounds(100),
        )
        .strict()
        .unwrap();
        assert_eq!(out.rounds, 3); // vertex 2 decides at round 3
        assert_eq!(out.outputs[1], 2);
    }

    #[test]
    fn staggered_halts_pin_rounds_sweeps_and_messages() {
        // Vertices decide at rounds 1..=5 (ID + 1); each halts once it and
        // all its neighbors have decided, i.e. once every port is silent or
        // carries `done = true`. Expected values were recorded from the
        // earlier per-node-cache implementation.
        let expected = [
            (
                gen::path(5),
                [(1, 1), (2, 2), (3, 4), (4, 6), (5, 3)],
                7,
                39,
            ),
            (
                gen::star(5),
                [(1, 10), (2, 0), (3, 0), (4, 0), (5, 0)],
                7,
                42,
            ),
        ];
        for (g, decided, sweeps, messages) in expected {
            let run = run_sync(
                &g,
                Mode::deterministic(),
                &Staggered,
                &ExecSpec::rounds(100),
            );
            let got: Vec<(u32, u64)> = run
                .outcomes
                .iter()
                .map(|o| match o {
                    Outcome::Halted { round, output } => (*round, *output),
                    other => panic!("vertex did not halt: {other:?}"),
                })
                .collect();
            assert_eq!(got, decided);
            assert_eq!((run.sweeps, run.messages), (sweeps, messages));
        }
    }

    /// Decide at round 1 on the neighbor states seen then, by port.
    struct SeenAtRoundOne;
    impl SyncAlgorithm for SeenAtRoundOne {
        type State = u64;
        type Output = Vec<u64>;
        fn init(&self, init: &NodeInit<'_>) -> u64 {
            init.id.expect("DetLOCAL")
        }
        fn update(
            &self,
            _round: u32,
            _ctx: &mut SyncCtx<'_>,
            state: &u64,
            neighbors: &[u64],
        ) -> SyncStep<u64, Vec<u64>> {
            SyncStep::Decide(*state, neighbors.to_vec())
        }
    }

    #[test]
    fn heard_is_seeded_with_neighbor_initial_states() {
        // Round 1 sees the neighbors' initial states: fault-free because
        // sweep 0 announced them, and under certain drops because every
        // last-heard slot starts out holding them.
        let g = gen::gnp(12, 0.4, &mut StdRng::seed_from_u64(3));
        let plan = FaultPlan::sample(&g, &FaultSpec::none().with_drop(1.0), 1);
        for spec in [
            ExecSpec::rounds(10),
            ExecSpec::rounds(10).with_faults(&plan),
        ] {
            let run = run_sync(&g, Mode::deterministic(), &SeenAtRoundOne, &spec);
            for (v, o) in run.outcomes.iter().enumerate() {
                let want: Vec<u64> = g.neighbors(v).iter().map(|nb| nb.node as u64).collect();
                assert_eq!(o.output(), Some(&want), "vertex {v}");
            }
        }
    }

    /// RandLOCAL, with a state type other than [`MaxWithin`]'s: each round
    /// every vertex keeps the maximum of a fresh draw and its neighbors'
    /// states, deciding at `horizon`.
    struct RandMax {
        horizon: u32,
    }
    impl SyncAlgorithm for RandMax {
        type State = u32;
        type Output = u32;
        fn init(&self, _init: &NodeInit<'_>) -> u32 {
            0
        }
        fn update(
            &self,
            round: u32,
            ctx: &mut SyncCtx<'_>,
            state: &u32,
            neighbors: &[u32],
        ) -> SyncStep<u32, u32> {
            let draw = ctx.rng().next_u32();
            let next = neighbors.iter().copied().fold(draw.max(*state), u32::max);
            if round >= self.horizon {
                SyncStep::Decide(next, next)
            } else {
                SyncStep::Continue(next)
            }
        }
    }

    /// Run `run` here, then again on a fresh thread, whose run arena is
    /// empty, and require the same result.
    fn matches_fresh_thread<O>(run: impl Fn() -> SyncRun<O> + Sync)
    where
        O: PartialEq + std::fmt::Debug + Send,
    {
        let reused = run();
        let fresh = std::thread::scope(|s| s.spawn(&run).join().unwrap());
        assert_eq!(reused, fresh);
    }

    #[test]
    fn back_to_back_runs_match_fresh_threads() {
        // Large enough that `heard` and the engine's buffers clear the run
        // arena's floor, so each run after the first gets the buffers the
        // one before gave back (or, for another state type, evicts them).
        let g = gen::stream::circulant(20_000, 4).unwrap();
        let plan = FaultPlan::sample(
            &g,
            &FaultSpec::none()
                .with_drop(0.1)
                .with_delay(0.1)
                .with_crash(0.01, 3),
            5,
        );
        let max = MaxWithin { horizon: 3 };
        let rand_max = RandMax { horizon: 3 };
        let fault_free = || ExecSpec::rounds(100);
        let faulty = || ExecSpec::rounds(100).with_faults(&plan);
        // Each state type runs fault-free and then faulty: dropped messages
        // expose the seeded `heard` slots, so the faulty run would see
        // anything stale the fault-free run left in the reused buffer.
        matches_fresh_thread(|| run_sync(&g, Mode::randomized(1), &rand_max, &fault_free()));
        matches_fresh_thread(|| run_sync(&g, Mode::randomized(2), &rand_max, &faulty()));
        matches_fresh_thread(|| run_sync(&g, Mode::deterministic(), &max, &fault_free()));
        matches_fresh_thread(|| run_sync(&g, Mode::deterministic(), &max, &faulty()));
        matches_fresh_thread(|| run_sync(&g, Mode::randomized(3), &rand_max, &faulty()));
        matches_fresh_thread(|| run_sync(&g, Mode::randomized(1), &rand_max, &fault_free()));
    }

    #[test]
    fn faulty_run_with_trivial_plan_matches_run_sync() {
        let g = gen::gnp(20, 0.3, &mut StdRng::seed_from_u64(7));
        let clean = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100),
        )
        .strict()
        .unwrap();
        let plan = FaultPlan::none();
        let faulty = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100).with_faults(&plan),
        );
        let (halted, crashed, cut) = faulty.counts();
        assert_eq!((halted, crashed, cut), (g.n(), 0, 0));
        assert_eq!(faulty.max_decided_round(), clean.rounds);
        for (v, o) in faulty.outcomes.iter().enumerate() {
            assert_eq!(o.output(), Some(&clean.outputs[v]));
        }
    }

    #[test]
    fn crashed_vertices_yield_partial_outputs() {
        let g = gen::path(6);
        // Vertex 2 crashes before it can decide; everyone else finishes.
        let plan = FaultPlan::from_crash_schedule(vec![None, None, Some(1), None, None, None]);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 3 },
            &ExecSpec::rounds(100).with_faults(&plan),
        );
        let (halted, crashed, cut) = out.counts();
        assert_eq!((halted, crashed, cut), (5, 1, 0));
        assert!(out.outcomes[2].is_crashed());
        let partial = out.partial_outputs();
        assert!(partial[2].is_none());
        // Vertex 5 sits 3 hops from the crash: its distance-3 max (id 5,
        // which is its own) is unaffected.
        assert_eq!(partial[5], Some(&5));
        // Vertex 3 should have seen id 5 through untouched edges.
        assert_eq!(partial[3], Some(&5));
    }

    #[test]
    fn certain_drops_leave_stale_states_not_panics() {
        let g = gen::path(4);
        // Drop everything: each vertex only ever sees the initial states it
        // was seeded with, so the distance-2 max degrades to its own ID...
        let plan = FaultPlan::sample(&g, &FaultSpec::none().with_drop(1.0), 3);
        let out = run_sync(
            &g,
            Mode::deterministic(),
            &MaxWithin { horizon: 2 },
            &ExecSpec::rounds(100).with_faults(&plan),
        );
        let (halted, crashed, cut) = out.counts();
        assert_eq!((halted, crashed, cut), (4, 0, 0));
        // ...or rather to the max over the seeded initial neighbor states,
        // i.e. the distance-1 max instead of the distance-2 max.
        assert_eq!(out.partial_outputs()[0], Some(&1));
        assert!(out.dropped > 0);
    }

    #[test]
    fn round_limit_propagates() {
        struct Never;
        impl SyncAlgorithm for Never {
            type State = ();
            type Output = ();
            fn init(&self, _init: &NodeInit<'_>) {}
            fn update(
                &self,
                _round: u32,
                _ctx: &mut SyncCtx<'_>,
                _state: &(),
                _neighbors: &[()],
            ) -> SyncStep<(), ()> {
                SyncStep::Continue(())
            }
        }
        let g = gen::path(2);
        assert!(matches!(
            run_sync(&g, Mode::deterministic(), &Never, &ExecSpec::rounds(5)).strict(),
            Err(SimError::RoundLimitExceeded { .. })
        ));
    }
}
