//! A "public state" programming layer over the round engine.
//!
//! Most symmetry-breaking algorithms in the literature are phrased as: *every
//! round, each vertex inspects its neighbors' current states and updates its
//! own*. [`SyncAlgorithm`] captures exactly that; [`run_sync`] compiles it to
//! a message-passing [`Protocol`] where each vertex broadcasts its state every
//! round.
//!
//! Round accounting: the reported complexity is the largest round in which
//! any vertex *decided* its output. Vertices keep broadcasting their final
//! state after deciding (processors in the LOCAL model never disappear;
//! messages are free), and the engine run terminates one bookkeeping sweep
//! after the last decision — that extra sweep is infrastructure, not
//! algorithmic cost, and is excluded from the metric.

use local_graphs::{Graph, Neighbor, PortId};
use local_model::arena::BufferSlot;
use local_model::{
    Action, Breach, Budget, Engine, ExecSpec, GlobalParams, Mode, NodeInit, NodeIo, NodeProgram,
    Outcome, Protocol, SimError,
};
use rand::RngCore;
use std::cell::Cell;

/// The result of one [`SyncAlgorithm::update`].
#[derive(Debug, Clone)]
pub enum SyncStep<S, O> {
    /// Adopt a new state and keep running.
    Continue(S),
    /// Adopt a final state and fix the output. The state remains visible to
    /// neighbors in subsequent rounds.
    Decide(S, O),
}

/// Capabilities available inside [`SyncAlgorithm::update`].
pub struct SyncCtx<'a> {
    id: Option<u64>,
    params: &'a GlobalParams,
    rng: Option<&'a mut dyn RngCore>,
    nbrs: &'a [Neighbor],
}

impl<'a> SyncCtx<'a> {
    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.nbrs.len()
    }

    /// Unique ID (DetLOCAL only).
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Global parameters.
    pub fn params(&self) -> &GlobalParams {
        self.params
    }

    /// Private randomness (RandLOCAL only).
    ///
    /// # Panics
    ///
    /// Panics in a DetLOCAL run (model violation).
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
            .as_deref_mut()
            .expect("model violation: SyncCtx::rng() in a DetLOCAL run")
    }

    /// The neighbor-side port of the edge on our port `p`: if `u` hears `v`
    /// through port `p`, then `v` hears `u` through `back_port(p)`.
    ///
    /// Port-to-port correspondence is learned in the first exchange (each
    /// node can announce its sending port), so exposing it here is
    /// model-legitimate; per-port indexing into neighbors' state vectors is
    /// what the matching and orientation protocols need.
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn back_port(&self, p: PortId) -> PortId {
        self.nbrs[p].back_port
    }
}

/// A round-synchronous algorithm over broadcast public states.
///
/// `update` is called with round numbers `1, 2, …`; at round `r` the
/// `neighbors` slice holds (by port) the states after round `r − 1`
/// (initial states for `r = 1`).
///
/// Both associated types are `'static`, as the engine's message and output
/// types must be: the engine and this layer keep their run buffers between
/// runs, typed by element.
pub trait SyncAlgorithm: Sync {
    /// Public per-vertex state, broadcast to neighbors every round.
    type State: Clone + Send + Sync + 'static;
    /// Final per-vertex output.
    type Output: Clone + Send + 'static;

    /// The initial state of a vertex.
    fn init(&self, init: &NodeInit<'_>) -> Self::State;

    /// One round: compute the next state (and possibly the final output)
    /// from the current state and the neighbors' states.
    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &Self::State,
        neighbors: &[Self::State],
    ) -> SyncStep<Self::State, Self::Output>;
}

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

/// One vertex of a sync run: the state both node wrappers share.
struct Vertex<'a, A: SyncAlgorithm> {
    algo: &'a A,
    nbrs: &'a [Neighbor],
    state: A::State,
    decided: Option<(u32, A::Output)>,
    /// Last state heard per port: this vertex's slice of the run's flat
    /// last-heard buffer, seeded with the neighbors' initial states. A
    /// neighbor that halted stops transmitting, but its state is final —
    /// the cache stands in for the silent final broadcasts.
    heard: &'a mut [A::State],
}

impl<'a, A: SyncAlgorithm> Vertex<'a, A> {
    /// One [`SyncAlgorithm::update`] against the heard states.
    fn update<M: Clone>(&mut self, round: u32, io: &mut NodeIo<'_, M>) {
        let mut ctx = SyncCtx {
            id: io.id(),
            params: io.params(),
            rng: if io.is_randomized() {
                Some(io.rng())
            } else {
                None
            },
            nbrs: self.nbrs,
        };
        match self.algo.update(round, &mut ctx, &self.state, self.heard) {
            SyncStep::Continue(s) => self.state = s,
            SyncStep::Decide(s, o) => {
                self.state = s;
                self.decided = Some((round, o));
            }
        }
    }
}

/// Engine node wrapping a [`SyncAlgorithm`] vertex.
///
/// A vertex halts once it has decided and every neighbor has too: every
/// port is either silent or carries `done = true`. In a fault-free run a
/// port goes silent only when its neighbor halted, which that neighbor does
/// only after deciding and broadcasting `done = true` at least once.
pub struct SyncNode<'a, A: SyncAlgorithm>(Vertex<'a, A>);

impl<'a, A: SyncAlgorithm> NodeProgram for SyncNode<'a, A> {
    type Msg = (A::State, bool);
    type Output = (A::Output, u32);

    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
        let v = &mut self.0;
        if round > 0 {
            let mut all_neighbors_decided = true;
            for p in 0..io.degree() {
                if let Some((s, done)) = io.take(p) {
                    v.heard[p] = s;
                    all_neighbors_decided &= done;
                }
            }
            if v.decided.is_none() {
                v.update(round, io);
            } else if all_neighbors_decided {
                let (r, o) = v.decided.take().expect("checked above");
                return Action::Halt((o, r));
            }
        }
        io.broadcast((v.state.clone(), v.decided.is_some()));
        Action::Continue
    }
}

thread_local! {
    /// The sync layer's slot in the per-thread run arena: the CSR-aligned
    /// last-heard buffer (see [`local_model::arena`]).
    static HEARD: BufferSlot = const { BufferSlot::new() };
}

/// The setup both node wrappers share: every vertex built up front with its
/// initial state, then `heard` (empty on entry) filled with the neighbor's
/// initial state per CSR slot, and each vertex given its slice.
fn setup<'a, A: SyncAlgorithm>(
    algo: &'a A,
    g: &'a Graph,
    mode: &Mode,
    params: &GlobalParams,
    heard: &'a mut Vec<A::State>,
) -> Vec<Vertex<'a, A>> {
    let ids = match mode {
        Mode::Deterministic { ids } => Some(ids.assign(g)),
        Mode::Randomized { .. } => None,
    };
    let mut vertices: Vec<Vertex<'a, A>> = g
        .vertices()
        .map(|v| Vertex {
            algo,
            nbrs: g.neighbors(v),
            state: algo.init(&NodeInit {
                node: v,
                degree: g.degree(v),
                id: ids.as_ref().map(|ids| ids[v]),
                params,
            }),
            decided: None,
            heard: &mut [],
        })
        .collect();
    heard.extend(
        vertices
            .iter()
            .flat_map(|vx| vx.nbrs.iter().map(|nb| vertices[nb.node].state.clone())),
    );
    let mut rest = heard.as_mut_slice();
    for vx in &mut vertices {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(vx.nbrs.len());
        vx.heard = mine;
        rest = tail;
    }
    vertices
}

/// Protocol adapter handing the engine a sync run's pre-built vertices in
/// one move, each wrapped as node type `W` — the vector becomes the
/// engine's node column in place, with no second copy.
struct Handover<'a, A: SyncAlgorithm, W>(Cell<Vec<Vertex<'a, A>>>, fn(Vertex<'a, A>) -> W);

impl<'a, A: SyncAlgorithm, W: NodeProgram + Send> Protocol for Handover<'a, A, W> {
    type Node = W;

    fn create(&self, _init: &NodeInit<'_>) -> W {
        unreachable!("the engine builds sync nodes through create_all")
    }

    fn create_all(&self, _g: &Graph, _ids: Option<&[u64]>, _params: &GlobalParams) -> Vec<W> {
        self.0.take().into_iter().map(self.1).collect()
    }
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

/// Engine node wrapping a [`SyncAlgorithm`] vertex for faulty runs.
///
/// Differs from [`SyncNode`] in one fault-model concession: a vertex halts
/// one round after deciding (one final broadcast), instead of waiting for
/// all neighbors to decide — a crashed neighbor would otherwise pin the
/// whole run at the sweep budget. A dropped message means a stale state in
/// the last-heard cache, and a crash-stop neighbor freezes at its last
/// delivered state.
pub struct FaultySyncNode<'a, A: SyncAlgorithm>(Vertex<'a, A>);

impl<'a, A: SyncAlgorithm> NodeProgram for FaultySyncNode<'a, A> {
    type Msg = A::State;
    type Output = (A::Output, u32);

    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
        let v = &mut self.0;
        if round > 0 {
            if let Some((r, o)) = v.decided.take() {
                // The final state went out last round; nothing left to do.
                return Action::Halt((o, r));
            }
            for p in 0..io.degree() {
                if let Some(s) = io.take(p) {
                    v.heard[p] = s;
                }
            }
            v.update(round, io);
        }
        io.broadcast(v.state.clone());
        Action::Continue
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
/// * `spec.faults` injects message drops, delays, and crash-stop nodes. The
///   fault-tolerant node wrapper ([`FaultySyncNode`]) differs observably
///   from the fault-free one ([`SyncNode`]) — it halts one round after
///   deciding — so the fault-free case (`None`) runs [`SyncNode`]. Both
///   share one setup: initial states computed once, and one flat last-heard
///   buffer aligned with the graph's CSR slots, kept in the thread's run
///   arena between runs.
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
    let params = spec.params.unwrap_or_else(|| GlobalParams::from_graph(g));
    let budget = spec.budget.unwrap_or(Budget::rounds(100_000));
    let engine_budget = Budget {
        max_rounds: budget.max_rounds.saturating_add(2),
        ..budget
    };
    let engine_spec = ExecSpec {
        params: Some(params),
        budget: Some(engine_budget),
        faults: spec.faults,
        trace: spec.trace,
        metrics: spec.metrics,
        shards: spec.shards,
    };
    let engine = Engine::new(g, mode.clone());
    let mut heard = HEARD.with(|h| h.take(g.csr_offsets()[g.n()]));
    let vertices = Cell::new(setup(algo, g, &mode, &params, &mut heard));
    let run = match spec.faults {
        None => engine.execute(&engine_spec, &Handover(vertices, SyncNode)),
        Some(_) => engine.execute(&engine_spec, &Handover(vertices, FaultySyncNode)),
    };
    HEARD.with(|h| h.give(heard));
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
        round_limit: engine_budget.max_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_model::{FaultPlan, FaultSpec};
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

    #[test]
    fn setup_seeds_each_heard_slice() {
        let g = gen::gnp(12, 0.4, &mut StdRng::seed_from_u64(3));
        let params = GlobalParams::from_graph(&g);
        let mut heard = Vec::new();
        let algo = MaxWithin { horizon: 1 };
        let vertices = setup(&algo, &g, &Mode::deterministic(), &params, &mut heard);
        assert_eq!(vertices.len(), g.n());
        for (v, vx) in vertices.iter().enumerate() {
            let want: Vec<u64> = g.neighbors(v).iter().map(|nb| nb.node as u64).collect();
            assert_eq!(vx.heard, &want[..], "vertex {v}");
            assert_eq!(vx.state, v as u64);
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
