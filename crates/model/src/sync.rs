//! Public-state algorithms and the two state planes that run them.
//!
//! Most symmetry-breaking algorithms in the literature are phrased as: *every
//! round, each vertex inspects its neighbors' current states and updates its
//! own*. [`SyncAlgorithm`] captures exactly that, and
//! [`Engine::execute_sync`](crate::Engine::execute_sync) runs it on a state
//! plane instead of the message plane: a LOCAL round, in which every vertex
//! learns its neighbors' states, is one read of each neighbor's state.
//!
//! * **Fault-free runs** keep two state columns, the previous sweep's and
//!   the next. A vertex gathers its neighbors' previous states straight from
//!   the column into its shard's scratch slice and writes its new state into
//!   the next column, so shards never touch each other's cells and need no
//!   delivery step. A vertex halts once it has decided and every neighbor
//!   had decided as of the previous sweep; a decided vertex copies its final
//!   state into the other column one sweep later, so a halted vertex's state
//!   sits in both.
//! * **Faulty runs** keep one state column and one last-heard state per CSR
//!   slot, seeded with the neighbors' initial states. Only delivered messages
//!   write it: the serial exchange after each sweep uses a per-run table of
//!   each slot's sender and runs the fault plan's drop and delay decisions
//!   in ascending receiver-slot order, exactly as the message plane's faulty
//!   delivery does. While many vertices are live it walks every slot; once
//!   few are, it visits only the receiver slots of the vertices still live
//!   and the slots holding a delayed state, marked in a bitmap, in the same
//!   ascending order, so the plan's draws do not change. Without drop or
//!   delay faults it writes the live vertices' receiver slots directly. A vertex halts one
//!   sweep after deciding, so a crashed neighbor cannot pin it.
//!
//! Either way a vertex counts as sending one message per port in every sweep
//! it steps without halting, sweep 0 included, where it announces its initial
//! state. [`crate::reference`] keeps the broadcast compilation onto the
//! message plane as the differential oracle.

use crate::engine::{cut, Live, Plane, Resolved, Sweep, ARENA, STATE_PAR_THRESHOLD};
use crate::faults::FaultPlan;
use crate::node::NodeInit;
use crate::params::GlobalParams;
use crate::rng::VertexRng;
use local_graphs::{Graph, Neighbor, PortId};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

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
    pub(crate) id: Option<u64>,
    pub(crate) params: &'a GlobalParams,
    pub(crate) rng: Option<&'a mut dyn RngCore>,
    pub(crate) nbrs: &'a [Neighbor],
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
        self.nbrs[p].back_port()
    }
}

/// A round-synchronous algorithm over broadcast public states.
///
/// `update` is called with round numbers `1, 2, …`; at round `r` the
/// `neighbors` slice holds (by port) the states after round `r − 1`
/// (initial states for `r = 1`).
///
/// Both associated types are `'static`: the engine keeps its run buffers
/// between runs, typed by element.
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

/// A decision waiting for its vertex to halt: the round it was made in and
/// the output.
type Decision<O> = Option<(u32, O)>;

/// Fill `column` with every vertex's initial state, in vertex order.
fn push_initial_states<A: SyncAlgorithm>(
    algo: &A,
    g: &Graph,
    run: &Resolved<'_>,
    column: &mut Vec<A::State>,
) {
    column.extend(g.vertices().map(|v| {
        algo.init(&NodeInit {
            node: v,
            degree: g.degree(v),
            id: run.ids.as_ref().map(|ids| ids[v]),
            params: &run.params,
        })
    }));
}

/// Call `algo.update` for vertex `v` at `sweep`: its next state, and its
/// decision if it made one.
fn update<A: SyncAlgorithm>(
    algo: &A,
    sweep: &Sweep<'_>,
    v: usize,
    rng: Option<&mut VertexRng>,
    current: &A::State,
    neighbors: &[A::State],
) -> (A::State, Decision<A::Output>) {
    let mut ctx = SyncCtx {
        id: sweep.ids.map(|ids| ids[v]),
        params: sweep.params,
        rng: rng.map(|r| r as &mut dyn RngCore),
        nbrs: sweep.graph.neighbors(v),
    };
    match algo.update(sweep.round, &mut ctx, current, neighbors) {
        SyncStep::Continue(s) => (s, None),
        SyncStep::Decide(s, o) => (s, Some((sweep.round, o))),
    }
}

/// The fault-free state plane: two state columns and two decided-flag
/// columns, swapped after every sweep.
pub(crate) struct StatePlane<'a, A: SyncAlgorithm> {
    algo: &'a A,
    /// States after the previous sweep, read by every shard.
    prev: Vec<A::State>,
    /// States after this sweep, each written by its vertex's own shard.
    next: Vec<A::State>,
    /// Whether each vertex had decided as of the previous sweep.
    prev_decided: Vec<bool>,
    /// Whether each vertex has decided as of this sweep.
    next_decided: Vec<bool>,
    decision: Vec<Decision<A::Output>>,
    /// One gather slice per shard; its states keep their heap allocations
    /// from sweep to sweep.
    scratch: Vec<Vec<A::State>>,
}

/// One shard's view of a [`StatePlane`]: the previous columns whole, the
/// next columns and decisions cut to the shard.
pub(crate) struct StateShard<'p, A: SyncAlgorithm> {
    algo: &'p A,
    prev: &'p [A::State],
    next: &'p mut [A::State],
    prev_decided: &'p [bool],
    next_decided: &'p mut [bool],
    decision: &'p mut [Decision<A::Output>],
    scratch: &'p mut Vec<A::State>,
}

impl<'a, A: SyncAlgorithm> StatePlane<'a, A> {
    pub(crate) fn new(g: &Graph, algo: &'a A, run: &Resolved<'_>) -> Self {
        let n = g.n();
        let mut plane = ARENA.with(|a| StatePlane {
            algo,
            prev: a.states.take(n),
            next: a.next_states.take(n),
            prev_decided: a.decided.take(n),
            next_decided: a.next_decided.take(n),
            decision: a.decision.take(n),
            scratch: Vec::new(),
        });
        push_initial_states(algo, g, run, &mut plane.prev);
        plane.next.extend_from_slice(&plane.prev);
        plane.prev_decided.resize(n, false);
        plane.next_decided.resize(n, false);
        plane.decision.resize_with(n, || None);
        plane
    }
}

impl<'a, A: SyncAlgorithm> Plane for StatePlane<'a, A> {
    type Output = (A::Output, u32);
    const PAR_THRESHOLD: usize = STATE_PAR_THRESHOLD;
    type Shard<'p>
        = StateShard<'p, A>
    where
        Self: 'p;

    fn shards(&mut self, bounds: &[usize]) -> Vec<StateShard<'_, A>> {
        let k = bounds.len() - 1;
        self.scratch.resize_with(k, Vec::new);
        let mut next = self.next.as_mut_slice();
        let mut next_decided = self.next_decided.as_mut_slice();
        let mut decision = self.decision.as_mut_slice();
        let mut views = Vec::with_capacity(k);
        for (w, scratch) in bounds.windows(2).zip(&mut self.scratch) {
            let len = w[1] - w[0];
            views.push(StateShard {
                algo: self.algo,
                prev: &self.prev,
                next: cut(&mut next, len),
                prev_decided: &self.prev_decided,
                next_decided: cut(&mut next_decided, len),
                decision: cut(&mut decision, len),
                scratch,
            });
        }
        views
    }

    fn step(
        sh: &mut StateShard<'_, A>,
        sweep: &Sweep<'_>,
        v: usize,
        i: usize,
        rng: Option<&mut VertexRng>,
    ) -> (u64, Option<Self::Output>) {
        let nbrs = sweep.graph.neighbors(v);
        let degree = nbrs.len() as u64;
        let round = sweep.round;
        if round == 0 {
            return (degree, None);
        }
        match sh.decision[i] {
            None => {
                for (p, nb) in nbrs.iter().enumerate() {
                    match sh.scratch.get_mut(p) {
                        Some(slot) => slot.clone_from(&sh.prev[nb.node()]),
                        None => sh.scratch.push(sh.prev[nb.node()].clone()),
                    }
                }
                let (state, decision) = update(
                    sh.algo,
                    sweep,
                    v,
                    rng,
                    &sh.prev[v],
                    &sh.scratch[..nbrs.len()],
                );
                sh.next[i] = state;
                if decision.is_some() {
                    sh.next_decided[i] = true;
                    sh.decision[i] = decision;
                }
                (degree, None)
            }
            Some((decided, _)) => {
                if decided + 1 == round {
                    // The final state and flag reach the second column.
                    sh.next[i].clone_from(&sh.prev[v]);
                    sh.next_decided[i] = true;
                }
                if nbrs.iter().all(|nb| sh.prev_decided[nb.node()]) {
                    let (decided, output) = sh.decision[i].take().expect("matched Some");
                    (0, Some((output, decided)))
                } else {
                    (degree, None)
                }
            }
        }
    }

    fn exchange(&mut self, _: &Sweep<'_>, _: Live<'_>, _: &FaultPlan, _: &mut u64, _: &mut u64) {
        std::mem::swap(&mut self.prev, &mut self.next);
        std::mem::swap(&mut self.prev_decided, &mut self.next_decided);
    }

    fn recycle(self) {
        ARENA.with(|a| {
            a.states.give(self.prev);
            a.next_states.give(self.next);
            a.decided.give(self.prev_decided);
            a.next_decided.give(self.next_decided);
            a.decision.give(self.decision);
        });
    }
}

/// Every directed edge in ascending receiver-slot order, as its sender and
/// the sender's slot for the edge: the faulty exchange's table. A graph's
/// vertex and slot counts fit in `u32` (see [`local_graphs::Neighbor`]).
fn senders(g: &Graph) -> impl Iterator<Item = (u32, u32)> + '_ {
    let offsets = g.csr_offsets();
    g.vertices().flat_map(move |v| {
        g.neighbors(v).iter().map(move |nb| {
            let u = nb.node();
            (u as u32, (offsets[u] + nb.back_port()) as u32)
        })
    })
}

/// The faulty state plane: one state column, and the state last delivered
/// on every CSR slot.
pub(crate) struct HeardPlane<'a, A: SyncAlgorithm> {
    algo: &'a A,
    states: Vec<A::State>,
    /// Slot `offsets[v] + p` holds the state last delivered on `v`'s port
    /// `p`: a dropped message leaves it stale, a crashed neighbor freezes it.
    heard: Vec<A::State>,
    /// By receiver slot, the sender and the sender's own slot for the same
    /// edge: the fault plan draws per sender slot.
    senders: Vec<(u32, u32)>,
    /// States deferred one exchange by delay faults, by receiver slot; empty
    /// when the plan cannot delay.
    delayed: Vec<Option<A::State>>,
    decision: Vec<Decision<A::Output>>,
    /// The last sweep each vertex sent in (`u32::MAX` before its first).
    sent_in: Vec<u32>,
    /// One bit per receiver slot: between exchanges, the slots holding a
    /// delayed state; during a sparse exchange, also the slots of this
    /// sweep's messages. Empty when the plan neither drops nor delays.
    marks: Vec<u64>,
    drops: bool,
    delays: bool,
}

/// An exchange is sparse when fewer than one vertex in this many is live:
/// it then visits only the marked slots instead of walking every one.
///
/// Marking costs a pass of its own, so on mostly-live sweeps the full walk
/// is faster. Per-sweep exchange times in lossy Luby runs (4-regular
/// circulants, drop 0.1, best of 6–15 runs on a 2-vCPU VM), as sparse over
/// full at n = 4,096 / 65,536 / 262,144:
///
/// | live share  | sparse / full      |
/// |-------------|--------------------|
/// | over 1/2    | 1.29 / 1.31 / 1.32 |
/// | 1/8 – 1/4   | 0.70 / 0.98 / 1.14 |
/// | 1/16 – 1/8  | 0.56 / 0.86 / 1.19 |
/// | 1/32 – 1/16 | 0.35 / 0.58 / 0.86 |
///
/// The walks cross near one vertex live in four, eight and sixteen
/// respectively; one in eight sits between. With the sparse walk alone the
/// whole n = 4,096 run was slower in 10 of 10 alternating pairs (median
/// 2.75 against 2.58 ms).
const SPARSE_SHARE: usize = 8;

/// One shard's view of a [`HeardPlane`]: `heard` whole, which no vertex
/// writes while stepping, and the columns cut to the shard.
pub(crate) struct HeardShard<'p, A: SyncAlgorithm> {
    algo: &'p A,
    heard: &'p [A::State],
    states: &'p mut [A::State],
    decision: &'p mut [Decision<A::Output>],
    sent_in: &'p mut [u32],
}

impl<'a, A: SyncAlgorithm> HeardPlane<'a, A> {
    pub(crate) fn new(g: &Graph, algo: &'a A, run: &Resolved<'_>) -> Self {
        let n = g.n();
        let slots = g.csr_offsets()[n];
        let mut plane = ARENA.with(|a| HeardPlane {
            algo,
            states: a.states.take(n),
            heard: a.heard.take(slots),
            senders: a.senders.take(slots),
            delayed: Vec::new(),
            decision: a.decision.take(n),
            sent_in: a.sent_in.take(n),
            marks: Vec::new(),
            drops: run.faults.has_drops(),
            delays: run.faults.has_delays(),
        });
        push_initial_states(algo, g, run, &mut plane.states);
        plane.senders.extend(senders(g));
        let states = &plane.states;
        plane.heard.extend(
            plane
                .senders
                .iter()
                .map(|&(u, _)| states[u as usize].clone()),
        );
        if plane.delays {
            plane.delayed.resize_with(slots, || None);
        }
        if plane.drops || plane.delays {
            plane.marks.resize(slots.div_ceil(64), 0);
        }
        plane.decision.resize_with(n, || None);
        plane.sent_in.resize(n, u32::MAX);
        plane
    }
}

impl<'a, A: SyncAlgorithm> HeardPlane<'a, A> {
    /// Run the fault plan on receiver slot `i` after sweep `round`: deliver
    /// a state delayed by the previous exchange, and draw for the message
    /// its sender sent this sweep, if it sent one. Delaying it marks the
    /// slot for the next exchange.
    #[inline(always)]
    fn deliver(
        &mut self,
        i: usize,
        round: u32,
        faults: &FaultPlan,
        rng: &mut ChaCha8Rng,
        dropped: &mut u64,
        delayed: &mut u64,
    ) {
        let (u, j) = self.senders[i];
        let (u, j) = (u as usize, j as usize);
        // A state delayed from the previous exchange arrives now, unless
        // a fresher on-time one supersedes it below.
        let mut arrived = if self.delays {
            self.delayed[i].take()
        } else {
            None
        };
        if self.sent_in[u] == round {
            if self.drops && rng.gen::<f64>() < faults.drop_p(j) {
                *dropped += 1;
            } else if self.delays && rng.gen::<f64>() < faults.delay_p() {
                self.delayed[i] = Some(self.states[u].clone());
                self.marks[i / 64] |= 1 << (i % 64);
                *delayed += 1;
            } else {
                if arrived.take().is_some() {
                    *dropped += 1; // superseded delayed state
                }
                self.heard[i].clone_from(&self.states[u]);
            }
        }
        if let Some(s) = arrived {
            self.heard[i] = s;
        }
    }
}

impl<'a, A: SyncAlgorithm> Plane for HeardPlane<'a, A> {
    type Output = (A::Output, u32);
    const PAR_THRESHOLD: usize = STATE_PAR_THRESHOLD;
    type Shard<'p>
        = HeardShard<'p, A>
    where
        Self: 'p;

    fn shards(&mut self, bounds: &[usize]) -> Vec<HeardShard<'_, A>> {
        let mut states = self.states.as_mut_slice();
        let mut decision = self.decision.as_mut_slice();
        let mut sent_in = self.sent_in.as_mut_slice();
        let mut views = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let len = w[1] - w[0];
            views.push(HeardShard {
                algo: self.algo,
                heard: &self.heard,
                states: cut(&mut states, len),
                decision: cut(&mut decision, len),
                sent_in: cut(&mut sent_in, len),
            });
        }
        views
    }

    fn step(
        sh: &mut HeardShard<'_, A>,
        sweep: &Sweep<'_>,
        v: usize,
        i: usize,
        rng: Option<&mut VertexRng>,
    ) -> (u64, Option<Self::Output>) {
        if sweep.round > 0 {
            if let Some((decided, output)) = sh.decision[i].take() {
                // The final state went out last sweep; nothing left to do.
                return (0, Some((output, decided)));
            }
            let heard = &sh.heard[sweep.offsets[v]..sweep.offsets[v + 1]];
            let (state, decision) = update(sh.algo, sweep, v, rng, &sh.states[i], heard);
            sh.states[i] = state;
            sh.decision[i] = decision;
        }
        sh.sent_in[i] = sweep.round;
        (sweep.graph.degree(v) as u64, None)
    }

    /// Deliver this sweep's messages through the fault plan. Only the
    /// receiver slots of this sweep's senders and the slots holding a
    /// delayed state can change, so once few vertices are live the exchange
    /// marks those and visits them alone. Either way it visits them in
    /// ascending receiver-slot order, so the plan draws the same numbers in
    /// the same order.
    fn exchange(
        &mut self,
        sweep: &Sweep<'_>,
        live: Live<'_>,
        faults: &FaultPlan,
        dropped: &mut u64,
        delayed: &mut u64,
    ) {
        let round = sweep.round;
        let offsets = sweep.offsets;
        // The table is an involution: the sender slot `j` of a message
        // pairs with its receiver slot `senders[j].1`.
        if !self.drops && !self.delays {
            // Every message arrives, in any order.
            for u in live.iter() {
                for &(_, i) in &self.senders[offsets[u]..offsets[u + 1]] {
                    self.heard[i as usize].clone_from(&self.states[u]);
                }
            }
            return;
        }
        let mut rng = faults.round_rng(round);
        if live.len() * SPARSE_SHARE < sweep.graph.n() {
            for u in live.iter() {
                for &(_, i) in &self.senders[offsets[u]..offsets[u + 1]] {
                    self.marks[i as usize / 64] |= 1 << (i % 64);
                }
            }
            for w in 0..self.marks.len() {
                let mut bits = std::mem::take(&mut self.marks[w]);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.deliver(i, round, faults, &mut rng, dropped, delayed);
                }
            }
        } else {
            self.marks.fill(0);
            for i in 0..self.senders.len() {
                self.deliver(i, round, faults, &mut rng, dropped, delayed);
            }
        }
    }

    fn recycle(self) {
        ARENA.with(|a| {
            a.states.give(self.states);
            a.heard.give(self.heard);
            a.senders.give(self.senders);
            a.decision.give(self.decision);
            a.sent_in.give(self.sent_in);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::GraphBuilder;

    #[test]
    fn the_exchange_table_pairs_every_slot_with_its_reverse() {
        // Isolated vertices 0, 5 and 9, a hub of degree 5 and a path.
        let edges = [(1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (7, 8), (8, 3)];
        let g = GraphBuilder::from_edges(10, edges).expect("simple graph");
        let offsets = g.csr_offsets();
        let table: Vec<(usize, usize)> =
            senders(&g).map(|(u, j)| (u as usize, j as usize)).collect();
        assert_eq!(table.len(), offsets[g.n()]);
        for v in g.vertices() {
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                let i = offsets[v] + p;
                let (u, j) = table[i];
                assert_eq!((u, j), (nb.node(), offsets[nb.node()] + nb.back_port()));
                // The sender's slot lies in the sender's row and points back.
                assert!((offsets[u]..offsets[u + 1]).contains(&j));
                assert_eq!(table[j].1, i, "slot {i}");
                assert_eq!(table[j].0, v);
            }
        }
    }
}
