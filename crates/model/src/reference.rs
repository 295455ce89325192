//! Deliberately simple baselines for differential testing.
//!
//! [`run_reference`] executes a protocol with per-node `Vec` inboxes and
//! outboxes allocated every sweep and messages *cloned* on delivery — the
//! straightforward implementation the arena engine ([`crate::Engine`])
//! replaced. It is kept (sequential only, no parallel path) so property
//! tests and benchmarks can check that the optimized message plane is
//! observably equivalent: same outputs, same halt rounds, same
//! `messages_sent`, same sweep count, for any protocol and seed.
//!
//! [`execute_sync_on_messages`] runs a [`SyncAlgorithm`] the way the engine
//! did before it had state planes: compiled to a broadcast protocol on the
//! message plane ([`SyncNode`], [`FaultySyncNode`]), every vertex cloning its
//! state into every port each round and caching what it last heard. It is
//! the oracle for [`Engine::execute_sync`](crate::Engine::execute_sync),
//! which must match it in every outcome, counter, trace event and metric.

use crate::engine::{splitmix64, Engine, Mode, Run, RunStats};
use crate::error::SimError;
use crate::faults::FaultyRun;
use crate::node::{Action, NodeInit, NodeIo, NodeProgram, Protocol};
use crate::params::GlobalParams;
use crate::spec::ExecSpec;
use crate::sync::{SyncAlgorithm, SyncCtx, SyncStep};
use local_graphs::{Graph, Neighbor};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Run `protocol` on `g` under `mode` with the baseline message plane.
///
/// Semantics (round numbering, halting, message accounting, round limit,
/// RNG derivation) match [`crate::Engine::execute`] exactly; only the internal
/// data layout differs.
///
/// # Errors
///
/// [`SimError::RoundLimitExceeded`] if live nodes remain after `max_rounds`
/// sweeps.
pub fn run_reference<P>(
    g: &Graph,
    mode: &Mode,
    protocol: &P,
    params: &GlobalParams,
    max_rounds: u32,
) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError>
where
    P: Protocol,
{
    let n = g.n();
    let ids: Option<Vec<u64>> = match mode {
        Mode::Deterministic { ids } => Some(ids.assign(g)),
        Mode::Randomized { .. } => None,
    };
    let seed = match mode {
        Mode::Randomized { seed } => Some(*seed),
        Mode::Deterministic { .. } => None,
    };

    struct RefSlot<N, M, O> {
        state: N,
        rng: Option<ChaCha8Rng>,
        id: Option<u64>,
        out: Vec<Option<M>>,
        done: Option<(u32, O)>,
        sent: u64,
    }
    type SlotsOf<P> = Vec<
        RefSlot<
            <P as Protocol>::Node,
            <<P as Protocol>::Node as NodeProgram>::Msg,
            <<P as Protocol>::Node as NodeProgram>::Output,
        >,
    >;

    let mut slots: SlotsOf<P> = (0..n)
        .map(|v| {
            let id = ids.as_ref().map(|ids| ids[v]);
            let init = NodeInit {
                node: v,
                degree: g.degree(v),
                id,
                params,
            };
            RefSlot {
                state: protocol.create(&init),
                rng: seed
                    .map(|s| ChaCha8Rng::seed_from_u64(splitmix64(s ^ splitmix64(v as u64 + 1)))),
                id,
                out: Vec::new(),
                done: None,
                sent: 0,
            }
        })
        .collect();

    let mut live = n;
    let mut sweep: u32 = 0;
    let mut live_per_round: Vec<usize> = Vec::new();
    let mut messages_per_round: Vec<u64> = Vec::new();
    let mut prev_out: Vec<Vec<Option<<P::Node as NodeProgram>::Msg>>> = Vec::new();

    while live > 0 {
        if sweep >= max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: max_rounds,
                live_nodes: live,
                live_sample: slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.done.is_none())
                    .map(|(v, _)| v)
                    .take(SimError::LIVE_SAMPLE_CAP)
                    .collect(),
            });
        }
        live_per_round.push(live);
        messages_per_round.push(0);
        prev_out.clear();
        prev_out.extend(slots.iter_mut().map(|s| std::mem::take(&mut s.out)));
        let round = sweep;

        for (v, slot) in slots.iter_mut().enumerate() {
            if slot.done.is_some() {
                continue;
            }
            let deg = g.degree(v);
            let mut inbox: Vec<Option<<P::Node as NodeProgram>::Msg>> = if round == 0 {
                (0..deg).map(|_| None).collect()
            } else {
                g.neighbors(v)
                    .iter()
                    .map(|nb| {
                        prev_out
                            .get(nb.node())
                            .and_then(|o| o.get(nb.back_port()))
                            .cloned()
                            .flatten()
                    })
                    .collect()
            };
            let mut out: Vec<Option<<P::Node as NodeProgram>::Msg>> =
                (0..deg).map(|_| None).collect();
            let action = {
                let mut io = NodeIo {
                    degree: deg,
                    id: slot.id,
                    params,
                    inbox: &mut inbox,
                    outbox: &mut out,
                    rng: slot.rng.as_mut().map(|r| r as &mut dyn RngCore),
                };
                slot.state.step(round, &mut io)
            };
            let sent_now = out.iter().filter(|m| m.is_some()).count() as u64;
            slot.sent += sent_now;
            *messages_per_round.last_mut().expect("pushed this sweep") += sent_now;
            slot.out = out;
            if let Action::Halt(o) = action {
                slot.done = Some((round, o));
            }
        }

        live = slots.iter().filter(|s| s.done.is_none()).count();
        sweep += 1;
    }

    let mut outputs = Vec::with_capacity(n);
    let mut halt_rounds = Vec::with_capacity(n);
    let mut rounds = 0;
    let mut messages_sent = 0u64;
    for slot in slots {
        messages_sent += slot.sent;
        let (r, o) = slot.done.expect("loop exits only when all halted");
        rounds = rounds.max(r);
        halt_rounds.push(r);
        outputs.push(o);
    }
    Ok(Run {
        outputs,
        rounds,
        halt_rounds,
        stats: RunStats {
            messages_sent,
            sweeps: sweep,
            live_per_round,
            messages_per_round,
        },
    })
}

/// A [`SyncAlgorithm`] vertex as a message-passing node, for fault-free runs.
///
/// It broadcasts `(state, decided)` every round and halts once it has
/// decided and every port is either silent or carries `decided = true`. In a
/// fault-free run a port goes silent only when its neighbor halted, which
/// that neighbor does only after deciding and broadcasting `decided = true`
/// at least once.
pub struct SyncNode<'a, A: SyncAlgorithm> {
    algo: &'a A,
    nbrs: &'a [Neighbor],
    state: A::State,
    decided: Option<(u32, A::Output)>,
    /// Last state heard per port, seeded with the neighbors' initial states:
    /// a neighbor that halted stops transmitting, but its state is final.
    heard: Vec<A::State>,
}

impl<'a, A: SyncAlgorithm> SyncNode<'a, A> {
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
        match self.algo.update(round, &mut ctx, &self.state, &self.heard) {
            SyncStep::Continue(s) => self.state = s,
            SyncStep::Decide(s, o) => {
                self.state = s;
                self.decided = Some((round, o));
            }
        }
    }
}

impl<'a, A: SyncAlgorithm> NodeProgram for SyncNode<'a, A> {
    type Msg = (A::State, bool);
    type Output = (A::Output, u32);

    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
        if round > 0 {
            let mut all_neighbors_decided = true;
            for p in 0..io.degree() {
                if let Some((s, done)) = io.take(p) {
                    self.heard[p] = s;
                    all_neighbors_decided &= done;
                }
            }
            if self.decided.is_none() {
                self.update(round, io);
            } else if all_neighbors_decided {
                let (r, o) = self.decided.take().expect("checked above");
                return Action::Halt((o, r));
            }
        }
        io.broadcast((self.state.clone(), self.decided.is_some()));
        Action::Continue
    }
}

/// A [`SyncAlgorithm`] vertex as a message-passing node, for faulty runs.
///
/// Differs from [`SyncNode`] in one fault-model concession: a vertex halts
/// one round after deciding (one final broadcast), instead of waiting for
/// all neighbors to decide — a crashed neighbor would otherwise pin the
/// whole run at the sweep budget. A dropped message means a stale state in
/// the last-heard cache, and a crash-stop neighbor freezes at its last
/// delivered state.
pub struct FaultySyncNode<'a, A: SyncAlgorithm>(SyncNode<'a, A>);

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

/// Builds [`SyncNode`]s, and wraps them as [`FaultySyncNode`]s when `W`
/// says so.
struct SyncProtocol<'a, A: SyncAlgorithm, W> {
    algo: &'a A,
    graph: &'a Graph,
    ids: Option<Vec<u64>>,
    wrap: fn(SyncNode<'a, A>) -> W,
}

impl<'a, A: SyncAlgorithm, W: NodeProgram + Send> Protocol for SyncProtocol<'a, A, W> {
    type Node = W;

    fn create(&self, init: &NodeInit<'_>) -> W {
        let g = self.graph;
        let nbrs = g.neighbors(init.node);
        let initial = |v: usize| {
            self.algo.init(&NodeInit {
                node: v,
                degree: g.degree(v),
                id: self.ids.as_ref().map(|ids| ids[v]),
                params: init.params,
            })
        };
        (self.wrap)(SyncNode {
            algo: self.algo,
            nbrs,
            state: self.algo.init(init),
            decided: None,
            heard: nbrs.iter().map(|nb| initial(nb.node())).collect(),
        })
    }
}

/// Run `algo` on `engine`'s message plane as described by `spec`: the
/// oracle [`Engine::execute_sync`] must match in everything it reports.
/// Fault-free specs run [`SyncNode`], specs with a plan (trivial ones
/// included) [`FaultySyncNode`].
pub fn execute_sync_on_messages<A: SyncAlgorithm>(
    engine: &Engine<'_>,
    spec: &ExecSpec<'_>,
    algo: &A,
) -> FaultyRun<(A::Output, u32)> {
    let graph = engine.graph();
    let ids = match engine.mode() {
        Mode::Deterministic { ids } => Some(ids.assign(graph)),
        Mode::Randomized { .. } => None,
    };
    match spec.faults {
        None => engine.execute(
            spec,
            &SyncProtocol {
                algo,
                graph,
                ids,
                wrap: |v| v,
            },
        ),
        Some(_) => engine.execute(
            spec,
            &SyncProtocol {
                algo,
                graph,
                ids,
                wrap: FaultySyncNode,
            },
        ),
    }
}
