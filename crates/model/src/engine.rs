//! The synchronous round engine.

use crate::arena::BufferSlot;
use crate::faults::{FaultPlan, FaultyRun, Outcome};
use crate::ids::IdAssignment;
use crate::node::{Action, NodeInit, NodeIo, NodeProgram, Protocol};
use crate::params::GlobalParams;
use crate::recover::{Breach, Budget};
use crate::rng::VertexRng;
use crate::spec::ExecSpec;
use crate::sync::{HeardPlane, StatePlane, SyncAlgorithm};
use local_graphs::Graph;
use local_obs::{EventData, Obs, PowHistogram};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Mutex;

/// Which of the paper's two models a run executes under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// DetLOCAL: unique IDs, no randomness.
    Deterministic {
        /// How the unique IDs are assigned.
        ids: IdAssignment,
    },
    /// RandLOCAL: anonymous vertices, private per-node randomness derived
    /// from the seed.
    Randomized {
        /// Master seed; per-node streams are split from it.
        seed: u64,
    },
}

impl Mode {
    /// DetLOCAL with sequential IDs.
    pub fn deterministic() -> Self {
        Mode::Deterministic {
            ids: IdAssignment::Sequential,
        }
    }

    /// DetLOCAL with the given ID assignment.
    pub fn deterministic_with(ids: IdAssignment) -> Self {
        Mode::Deterministic { ids }
    }

    /// RandLOCAL with the given master seed.
    pub fn randomized(seed: u64) -> Self {
        Mode::Randomized { seed }
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Total messages sent across all rounds.
    pub messages_sent: u64,
    /// Number of engine sweeps executed (≥ `rounds`).
    pub sweeps: u32,
    /// How many nodes were still live *entering* each sweep — the progress
    /// curve of the protocol (length = `sweeps`).
    pub live_per_round: Vec<usize>,
    /// Messages sent during each sweep — the per-round twin of
    /// `live_per_round` (length = `sweeps`; sums to `messages_sent`).
    pub messages_per_round: Vec<u64>,
}

// Hand-written so records serialized before `messages_per_round` existed
// (e.g. old checkpoint files) still decode: the field defaults to empty.
impl Serialize for RunStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("messages_sent".into(), self.messages_sent.to_value()),
            ("sweeps".into(), self.sweeps.to_value()),
            ("live_per_round".into(), self.live_per_round.to_value()),
            (
                "messages_per_round".into(),
                self.messages_per_round.to_value(),
            ),
        ])
    }
}

impl Deserialize for RunStats {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(RunStats {
            messages_sent: u64::from_value(v.field("messages_sent")?)?,
            sweeps: u32::from_value(v.field("sweeps")?)?,
            live_per_round: Vec::from_value(v.field("live_per_round")?)?,
            messages_per_round: match v.get("messages_per_round") {
                Some(x) => Vec::from_value(x)?,
                None => Vec::new(),
            },
        })
    }
}

/// The result of running a protocol to completion.
#[derive(Debug, Clone)]
pub struct Run<O> {
    /// Per-vertex outputs, indexed by vertex.
    pub outputs: Vec<O>,
    /// Round complexity: the maximum number of communication rounds any
    /// vertex consumed before halting.
    pub rounds: u32,
    /// Per-vertex halting rounds.
    pub halt_rounds: Vec<u32>,
    /// Message and sweep counters.
    pub stats: RunStats,
}

/// SplitMix64 finalizer — used to derive independent per-node seeds from the
/// master seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The engine's own columns, struct-of-arrays.
///
/// `outcomes` is the run's result, filled in place: every vertex starts
/// [`Outcome::Cut`], and a halt or a crash overwrites its cell, so the
/// finished column is handed out as it stands. The other columns belong to
/// the run's chunks, the fixed vertex ranges a sweep is cut into. Each
/// chunk keeps its own ascending list of live vertices, which the sweep
/// walks instead of the whole range and compacts in place, and its own RNG
/// column, which the thread stepping the chunk in sweep 0 seeds; both are
/// part-buffers, so a sharded run pays its O(n) set-up on all its threads.
struct Columns<O> {
    outcomes: Vec<Outcome<O>>,
    /// Messages sent per vertex, for the `messages_per_vertex` histogram;
    /// empty when the run is not observed.
    sent: Vec<u64>,
    /// Per chunk, its live vertices in ascending order.
    live: Vec<Vec<u32>>,
    /// Per chunk, its vertices' RNG streams; all empty in DetLOCAL mode.
    rngs: Vec<Vec<VertexRng>>,
}

/// One chunk's cut of the [`Columns`].
struct ColumnCut<'c, O> {
    outcomes: &'c mut [Outcome<O>],
    sent: &'c mut [u64],
    live: &'c mut Vec<u32>,
    rngs: &'c mut Vec<VertexRng>,
}

impl<O> Columns<O> {
    /// The cuts of the vertex ranges `bounds[s]..bounds[s + 1]`.
    fn cuts(&mut self, bounds: &[usize]) -> Vec<ColumnCut<'_, O>> {
        let observed = !self.sent.is_empty();
        let mut outcomes = self.outcomes.as_mut_slice();
        let mut sent = self.sent.as_mut_slice();
        bounds
            .windows(2)
            .zip(self.live.iter_mut().zip(&mut self.rngs))
            .map(|(w, (live, rngs))| {
                let len = w[1] - w[0];
                ColumnCut {
                    outcomes: cut(&mut outcomes, len),
                    sent: cut(&mut sent, if observed { len } else { 0 }),
                    live,
                    rngs,
                }
            })
            .collect()
    }
}

/// The vertices still live after a sweep, ascending: the chunks' live lists
/// in chunk order.
#[derive(Clone, Copy)]
pub(crate) struct Live<'a> {
    lists: &'a [Vec<u32>],
    len: usize,
}

impl<'a> Live<'a> {
    pub(crate) fn len(self) -> usize {
        self.len
    }

    pub(crate) fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.lists.iter().flatten().map(|&v| v as usize)
    }
}

/// Split the first `len` elements off `rest`: how a column is dealt out to
/// shards.
pub(crate) fn cut<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// The per-thread run arena: one [`BufferSlot`] per large run buffer, taken
/// when a run starts and given back when it ends (see [`crate::arena`] for
/// the floor and eviction rules). The message plane's node programs are not
/// pooled: they may borrow from the caller.
pub(crate) struct Arena {
    rngs: BufferSlot,
    live: BufferSlot,
    sent: BufferSlot,
    partner: BufferSlot,
    inbox: BufferSlot,
    out: BufferSlot,
    /// The state planes' state column (the previous sweep's, when there
    /// are two).
    pub(crate) states: BufferSlot,
    pub(crate) next_states: BufferSlot,
    pub(crate) decided: BufferSlot,
    pub(crate) next_decided: BufferSlot,
    pub(crate) decision: BufferSlot,
    pub(crate) heard: BufferSlot,
    pub(crate) senders: BufferSlot,
    pub(crate) sent_in: BufferSlot,
}

thread_local! {
    pub(crate) static ARENA: Arena = const {
        Arena {
            rngs: BufferSlot::new(),
            live: BufferSlot::new(),
            sent: BufferSlot::new(),
            partner: BufferSlot::new(),
            inbox: BufferSlot::new(),
            out: BufferSlot::new(),
            states: BufferSlot::new(),
            next_states: BufferSlot::new(),
            decided: BufferSlot::new(),
            next_decided: BufferSlot::new(),
            decision: BufferSlot::new(),
            heard: BufferSlot::new(),
            senders: BufferSlot::new(),
            sent_in: BufferSlot::new(),
        }
    };
}

/// The plan a spec without faults runs under: no drops, delays or crashes.
static NO_FAULTS: FaultPlan = FaultPlan::none();

/// Vertex boundaries cutting `0..n` into `k` chunks of equal static weight:
/// each vertex weighs `1 + degree` (its step plus one slot per port). Vertex
/// `v`'s weight starts at `v + offsets[v]`, which is strictly increasing, so
/// each boundary is a binary search. Boundaries are monotone; empty chunks
/// are legal.
///
/// The weight only approximates the cost: a randomized algorithm's cost per
/// vertex follows its RNG, not its degree. A sharded sweep therefore cuts
/// many more chunks than it has threads ([`CHUNKS_PER_THREAD`]) and lets the
/// threads claim them, so an unlucky chunk delays one claim, not the sweep.
fn shard_bounds(offsets: &[usize], k: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = n + offsets[n];
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0usize);
    for s in 1..k {
        // First vertex whose starting weight reaches the s-th quantile.
        let target = total * s / k;
        let (mut lo, mut hi) = (bounds[s - 1], n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if mid + offsets[mid] < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bounds.push(lo);
    }
    bounds.push(n);
    bounds
}

/// A run's [`ExecSpec`] with every default filled in, plus the IDs its mode
/// assigns.
pub(crate) struct Resolved<'s> {
    pub(crate) params: GlobalParams,
    budget: Budget,
    pub(crate) faults: &'s FaultPlan,
    obs: Obs<'s>,
    /// How many threads step a sweep, resolved against the graph's size.
    shards: usize,
    /// Below this many live vertices a sweep steps on the calling thread
    /// alone: the threshold under an automatic shard count, 0 under a
    /// requested one.
    serial_below: usize,
    /// Unique IDs in DetLOCAL mode.
    pub(crate) ids: Option<Vec<u64>>,
}

/// What every vertex step of one sweep reads, shared by all shards.
pub(crate) struct Sweep<'a> {
    pub(crate) round: u32,
    pub(crate) graph: &'a Graph,
    /// The graph's CSR offsets: vertex `v`'s ports are slots
    /// `offsets[v] .. offsets[v + 1]`.
    pub(crate) offsets: &'a [usize],
    pub(crate) params: &'a GlobalParams,
    pub(crate) ids: Option<&'a [u64]>,
    /// The master seed of a RandLOCAL run, from which sweep 0 seeds every
    /// vertex's stream.
    seed: Option<u64>,
    /// Whether a live list may still hold a vertex crashed this sweep.
    crashes: bool,
}

/// How one sweep steps a chunk's vertices and how the exchange after it
/// runs: the part of a run that differs between the message plane and the
/// state planes. [`Engine`]'s round loop owns everything else — crashes,
/// liveness, budgets, trace events, metrics, outcomes and the threads that
/// claim chunks. A "shard" here is one chunk's view: a sweep cuts as many
/// as [`shard_bounds`] gives it.
pub(crate) trait Plane {
    /// What a halted vertex outputs.
    type Output: Send + 'static;
    /// The vertex count from which an automatic shard count steps sweeps
    /// on more than one thread, and the live count below which a sharded
    /// run's sweeps fall back to one.
    const PAR_THRESHOLD: usize;
    /// One chunk's disjoint view of the plane.
    type Shard<'p>: Send
    where
        Self: 'p;

    /// Views of the vertex ranges `bounds[s]..bounds[s + 1]`.
    fn shards(&mut self, bounds: &[usize]) -> Vec<Self::Shard<'_>>;

    /// Step vertex `v`, the `i`-th of its chunk, for one sweep: the
    /// messages it sent, and its output if it halted.
    fn step(
        shard: &mut Self::Shard<'_>,
        sweep: &Sweep<'_>,
        v: usize,
        i: usize,
        rng: Option<&mut VertexRng>,
    ) -> (u64, Option<Self::Output>);

    /// Finish a chunk on the thread that stepped it, once all its vertices
    /// stepped.
    fn settle(_shard: &mut Self::Shard<'_>) {}

    /// The exchange after `sweep`, run on the engine's thread; `live` are
    /// the vertices that stepped in it without halting.
    fn exchange(
        &mut self,
        sweep: &Sweep<'_>,
        live: Live<'_>,
        faults: &FaultPlan,
        dropped: &mut u64,
        delayed: &mut u64,
    );

    /// Give the pooled buffers back to the thread's arena.
    fn recycle(self);
}

/// The RNG stream of vertex `v` in a RandLOCAL run with master `seed`:
/// `ChaCha8Rng::seed_from_u64` of the same split seed, in compact form.
fn vertex_rng(seed: u64, v: usize) -> VertexRng {
    VertexRng::seed_from_u64(splitmix64(seed ^ splitmix64(v as u64 + 1)))
}

/// Step the live vertices of the chunk over `range` for one sweep against
/// its plane view and column cut, both chunk-relative, and drop the ones
/// that halted or crashed from its live list. Returns `(messages sent,
/// nodes halted)` for the chunk. In sweep 0 it first fills the chunk's live
/// list and seeds its RNG column.
///
/// This is the one stepping routine — the serial path calls it for every
/// chunk in turn and a sharded sweep once per claimed chunk, so the two
/// orders are bit-identical by construction: every vertex reads only what
/// the last exchange left and its own RNG stream, and writes only its own
/// cells.
fn step_span<P: Plane>(
    sweep: &Sweep<'_>,
    range: std::ops::Range<usize>,
    shard: &mut P::Shard<'_>,
    cut: ColumnCut<'_, P::Output>,
) -> (u64, u64) {
    let ColumnCut {
        outcomes,
        sent,
        live,
        rngs,
    } = cut;
    let lo = range.start;
    if sweep.round == 0 {
        live.extend(range.clone().map(|v| v as u32));
        if let Some(seed) = sweep.seed {
            rngs.extend(range.map(|v| vertex_rng(seed, v)));
        }
    }
    let mut sent_total = 0u64;
    let mut halts = 0u64;
    let mut kept = 0;
    for at in 0..live.len() {
        let v = live[at] as usize;
        let i = v - lo;
        if sweep.crashes && outcomes[i].is_crashed() {
            continue;
        }
        // `rngs` is empty in DetLOCAL mode and `sent` in an unobserved run.
        let (sent_now, halt) = P::step(shard, sweep, v, i, rngs.get_mut(i));
        if let Some(s) = sent.get_mut(i) {
            *s += sent_now;
        }
        sent_total += sent_now;
        match halt {
            Some(output) => {
                outcomes[i] = Outcome::Halted {
                    round: sweep.round,
                    output,
                };
                halts += 1;
            }
            None => {
                live[kept] = v as u32;
                kept += 1;
            }
        }
    }
    live.truncate(kept);
    P::settle(shard);
    (sent_total, halts)
}

/// The CSR-indexed double-buffered message plane, for [`NodeProgram`]s.
///
/// One slot per *directed* edge, laid out by the adjacency structure: the
/// outbox of vertex `v` is the contiguous segment
/// `offsets[v] .. offsets[v + 1]`, one slot per port. Two flat buffers play
/// complementary roles each sweep: nodes write sends into `out`, read
/// receives from `inbox`, and between sweeps every sent message is *moved*
/// (never cloned) to its receiver slot. Because the directed edge `(v, p)`
/// and its reverse `(u, q)` (where `u` is the neighbor of `v` on port `p`
/// and `q` the back port) occupy partner slots, delivery is the fixed
/// permutation `inbox[i] = out[partner[i]].take()` — the `take` doubles as
/// the clear of the out buffer, so after setup the plane never allocates.
/// `partner`, `inbox` and `out` come from the thread's [`Arena`] and go back
/// to it through [`recycle`](Plane::recycle).
struct MessagePlane<'g, N: NodeProgram> {
    /// CSR offsets, borrowed straight from the graph's adjacency: vertex `v`
    /// owns slots `offsets[v] .. offsets[v + 1]`.
    offsets: &'g [usize],
    /// The node programs, by vertex.
    states: Vec<N>,
    /// `partner[offsets[v] + p] = offsets[u] + q` for the reverse edge; a
    /// graph's slot count fits in `u32` (see [`local_graphs::Neighbor`]).
    partner: Vec<u32>,
    /// Receive buffer: after delivery, `v`'s inbox by port.
    inbox: Vec<Option<N::Msg>>,
    /// Send buffer: `v`'s outbox by port, all `None` between deliveries.
    out: Vec<Option<N::Msg>>,
    /// Messages deferred one round by delay faults (allocated only when the
    /// fault plan can delay).
    delayed: Vec<Option<N::Msg>>,
    /// Whether the run's fault plan can drop or delay a message.
    drops: bool,
    delays: bool,
    /// Whether each shard delivers its own inbox as soon as its stepping is
    /// done: sharded runs without drops or delays.
    eager: bool,
    /// Per shard, under eager delivery: the messages whose reader lives in
    /// another shard, with their inbox slot, waiting for the exchange.
    xfers: Vec<Vec<(usize, N::Msg)>>,
}

/// One shard's view of a [`MessagePlane`]: its node programs and its
/// segments of the two message buffers.
struct MessageShard<'p, N: NodeProgram> {
    /// `offsets[start]`, where this shard's slots begin.
    base: usize,
    states: &'p mut [N],
    inbox: &'p mut [Option<N::Msg>],
    out: &'p mut [Option<N::Msg>],
    partner: &'p [u32],
    /// This shard's export list, under eager delivery only.
    xfer: Option<&'p mut Vec<(usize, N::Msg)>>,
}

impl<'g, N: NodeProgram> MessagePlane<'g, N> {
    fn new<P: Protocol<Node = N>>(g: &'g Graph, protocol: &P, run: &Resolved<'_>) -> Self {
        let offsets = g.csr_offsets();
        let total = offsets[g.n()];
        let states = g
            .vertices()
            .map(|v| {
                protocol.create(&NodeInit {
                    node: v,
                    degree: g.degree(v),
                    id: run.ids.as_ref().map(|ids| ids[v]),
                    params: &run.params,
                })
            })
            .collect();
        let (mut partner, mut inbox, mut out) = ARENA.with(|a| {
            (
                a.partner.take(total),
                a.inbox.take(total),
                a.out.take(total),
            )
        });
        // Slot order is CSR order: vertex by vertex, port by port.
        partner.extend(g.vertices().flat_map(|v| {
            g.neighbors(v)
                .iter()
                .map(|nb| (offsets[nb.node()] + nb.back_port()) as u32)
        }));
        inbox.resize_with(total, || None);
        out.resize_with(total, || None);
        let (drops, delays) = (run.faults.has_drops(), run.faults.has_delays());
        MessagePlane {
            offsets,
            states,
            partner,
            inbox,
            out,
            delayed: Vec::new(),
            drops,
            delays,
            eager: run.shards > 1 && !drops && !delays,
            xfers: Vec::new(),
        }
    }

    /// Move every message sent this sweep to its receiver's inbox slot (and
    /// drop the now-consumed previous inbox). Leaves `out` all `None`.
    fn deliver(&mut self) {
        for (i, &j) in self.partner.iter().enumerate() {
            self.inbox[i] = self.out[j as usize].take();
        }
    }

    /// [`deliver`](Self::deliver) through the fault plan: each sent message
    /// may be dropped or deferred one round, per the plan's per-round
    /// decision stream. `round` is the sweep that produced the messages.
    ///
    /// Runs single-threaded in ascending slot order, so the fault trace is a
    /// pure function of `(plan, round, message pattern)` — identical whether
    /// the nodes were stepped sequentially or in parallel.
    fn deliver_faulty(
        &mut self,
        plan: &FaultPlan,
        round: u32,
        dropped: &mut u64,
        delayed: &mut u64,
    ) {
        let (drops, delays) = (self.drops, self.delays);
        if !drops && !delays {
            self.deliver();
            return;
        }
        if delays && self.delayed.is_empty() {
            self.delayed = (0..self.partner.len()).map(|_| None).collect();
        }
        let mut rng = plan.round_rng(round);
        for (i, j) in self.partner.iter().map(|&j| j as usize).enumerate() {
            // A message delayed from the previous exchange arrives now,
            // unless a fresher on-time message supersedes it below.
            let mut incoming = if delays { self.delayed[i].take() } else { None };
            if let Some(m) = self.out[j].take() {
                if drops && rng.gen::<f64>() < plan.drop_p(j) {
                    *dropped += 1;
                } else if delays && rng.gen::<f64>() < plan.delay_p() {
                    self.delayed[i] = Some(m);
                    *delayed += 1;
                } else {
                    if incoming.is_some() {
                        *dropped += 1; // superseded delayed message
                    }
                    incoming = Some(m);
                }
            }
            self.inbox[i] = incoming;
        }
    }
}

impl<N: NodeProgram + Send> Plane for MessagePlane<'_, N> {
    type Output = N::Output;
    const PAR_THRESHOLD: usize = MESSAGE_PAR_THRESHOLD;
    type Shard<'p>
        = MessageShard<'p, N>
    where
        Self: 'p;

    fn shards(&mut self, bounds: &[usize]) -> Vec<MessageShard<'_, N>> {
        let offsets = self.offsets;
        if self.eager {
            self.xfers.resize_with(bounds.len() - 1, Vec::new);
        }
        let mut xfers = self.xfers.iter_mut();
        let mut states = self.states.as_mut_slice();
        let mut inbox = self.inbox.as_mut_slice();
        let mut out = self.out.as_mut_slice();
        let mut views = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let slots = offsets[w[1]] - offsets[w[0]];
            views.push(MessageShard {
                base: offsets[w[0]],
                states: cut(&mut states, w[1] - w[0]),
                inbox: cut(&mut inbox, slots),
                out: cut(&mut out, slots),
                partner: &self.partner,
                xfer: xfers.next(),
            });
        }
        views
    }

    fn step(
        sh: &mut MessageShard<'_, N>,
        sweep: &Sweep<'_>,
        v: usize,
        i: usize,
        rng: Option<&mut VertexRng>,
    ) -> (u64, Option<N::Output>) {
        let (o0, o1) = (sweep.offsets[v] - sh.base, sweep.offsets[v + 1] - sh.base);
        let action = {
            let mut io = NodeIo {
                degree: o1 - o0,
                id: sweep.ids.map(|ids| ids[v]),
                params: sweep.params,
                inbox: &mut sh.inbox[o0..o1],
                outbox: &mut sh.out[o0..o1],
                rng: rng.map(|r| r as &mut dyn RngCore),
            };
            sh.states[i].step(sweep.round, &mut io)
        };
        let sent = sh.out[o0..o1].iter().filter(|m| m.is_some()).count() as u64;
        match action {
            Action::Halt(o) => (sent, Some(o)),
            Action::Continue => (sent, None),
        }
    }

    /// Eager delivery: this shard's out segment is final once its stepping
    /// is done, so it delivers its own inbox without waiting for the other
    /// shards, taking only from its own out segment. Foreign-partner slots
    /// get `None` now and their message (if any) in the exchange.
    fn settle(sh: &mut MessageShard<'_, N>) {
        let Some(xfer) = sh.xfer.as_deref_mut() else {
            return;
        };
        let (inbox, out, partner) = (&mut *sh.inbox, &mut *sh.out, sh.partner);
        let (base, end) = (sh.base, sh.base + out.len());
        for li in 0..inbox.len() {
            let j = partner[base + li] as usize;
            inbox[li] = if j >= base && j < end {
                out[j - base].take()
            } else {
                None
            };
        }
        // Whatever survives in `out` has a foreign partner (delivery is an
        // involution): export it with its destination inbox slot.
        for lj in 0..out.len() {
            if let Some(m) = out[lj].take() {
                xfer.push((partner[base + lj] as usize, m));
            }
        }
    }

    fn exchange(
        &mut self,
        sweep: &Sweep<'_>,
        _live: Live<'_>,
        faults: &FaultPlan,
        dropped: &mut u64,
        delayed: &mut u64,
    ) {
        if self.eager {
            // Serial drain of cross-shard messages: each inbox slot is
            // written at most once (its unique sender), so order does not
            // matter and the result is deterministic.
            for (i, m) in self.xfers.iter_mut().flat_map(|x| x.drain(..)) {
                self.inbox[i] = Some(m);
            }
        } else {
            self.deliver_faulty(faults, sweep.round, dropped, delayed);
        }
    }

    fn recycle(self) {
        ARENA.with(|a| {
            a.partner.give(self.partner);
            a.inbox.give(self.inbox);
            a.out.give(self.out);
        });
    }
}

/// Runs a [`Protocol`] or a [`SyncAlgorithm`] on a graph under a [`Mode`],
/// counting rounds.
///
/// Vertex steps within a sweep are independent (they read only what the
/// previous exchange left), so on large graphs the engine cuts the vertices
/// into contiguous chunks, [`CHUNKS_PER_THREAD`] per stepping thread, and in
/// each sweep the calling thread and `shards − 1` scoped helpers claim
/// chunks from a shared queue until none is left. A sweep steps only the
/// chunks' live vertices, and once fewer than the plane's threshold are
/// live, the calling thread steps every chunk alone. Results are
/// bit-identical to sequential execution — and invariant across shard
/// counts and claim orders — because every vertex's randomness comes from
/// its own stream, vertices write only their own cells, and every exchange
/// has exactly one writer per slot.
#[derive(Debug)]
pub struct Engine<'g> {
    graph: &'g Graph,
    mode: Mode,
    /// Overrides both planes' threshold (a test hook).
    par_threshold: Option<usize>,
}

/// The state planes' [`Plane::PAR_THRESHOLD`]: spawning and joining the
/// helpers of a sharded sweep costs tens of microseconds, more than it
/// saves on a smaller graph. Measured on a 2-vCPU VM, two threads against
/// one pinned core (median of ten min-of-200 runs): Luby on a 4-regular
/// circulant took 667/521 µs at n = 2048, 1034/896 µs at 4096 and
/// 1633/1799 µs at 8192, the first size where two threads won (7 of 10
/// pairs).
pub(crate) const STATE_PAR_THRESHOLD: usize = 8192;

/// The message plane's [`Plane::PAR_THRESHOLD`]. Its sweeps do less work
/// per vertex than a state plane's, and its eager delivery adds a transfer
/// per cross-chunk message, so sharding pays only on a larger graph.
/// Measured on a 2-vCPU VM with `bench_scale --workload flood`, two shards
/// against `--shards 1` pinned to one core (medians of min-of-200 runs):
/// 3372/2475 µs at n = 8192 (two threads won 1 of 5), 4395/4470 µs at
/// 16,384 (8 of 13) and 8053/9690 µs at 32,768 (12 of 13).
const MESSAGE_PAR_THRESHOLD: usize = 16_384;

/// How many chunks a sharded sweep cuts per stepping thread. More chunks
/// even out vertices whose cost the static weight misjudges, at the price
/// of one queue pop, one plane view and (on the message plane's eager path)
/// more cross-chunk transfers each.
const CHUNKS_PER_THREAD: usize = 8;

/// The round limit of a spec that states no [`Budget`].
const DEFAULT_MAX_ROUNDS: u32 = 100_000;

impl<'g> Engine<'g> {
    /// Engine for `graph` under `mode`. Everything else about a run — fault
    /// plan, budget, advertised parameters, observation handle, shard count — is
    /// stated per run by the [`ExecSpec`] passed to [`execute`](Self::execute)
    /// or [`execute_sync`](Self::execute_sync).
    pub fn new(graph: &'g Graph, mode: Mode) -> Self {
        Engine {
            graph,
            mode,
            par_threshold: None,
        }
    }

    /// Override both planes' vertex count from which nodes are stepped on
    /// scoped threads, and the live count below which a sweep falls back to
    /// one, under a requested shard count too. Exposed so tests can force
    /// the parallel path and the fallback on small graphs; results are
    /// bit-identical either way.
    #[doc(hidden)]
    pub fn with_par_threshold(mut self, par_threshold: usize) -> Self {
        self.par_threshold = Some(par_threshold.max(1));
        self
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The mode runs execute under.
    pub(crate) fn mode(&self) -> &Mode {
        &self.mode
    }

    /// Run `protocol` on the message plane as described by `spec`.
    ///
    /// Every node gets an [`Outcome`](crate::faults::Outcome) — `Halted`
    /// with its output, `Crashed` at its scheduled round, or `Cut` if it was
    /// still live when the budget ran out. A spec field left `None` takes
    /// the engine default: the graph's true [`GlobalParams`], a rounds-only
    /// budget of `100_000`, no trace or metrics, and an automatic shard count
    /// by graph size. The fault-free case runs the no-op plan, whose
    /// drop/delay/crash branches all constant-fold away, so the hot loop
    /// stays allocation-free at bench parity.
    ///
    /// With no fault plan (or a trivial one, [`FaultPlan::is_trivial`]) the
    /// result is observably identical to the faulty path: same outputs, halt
    /// rounds, message counts, and sweep counts (a property test enforces
    /// it). [`FaultyRun::into_run`] recovers the strict all-or-nothing
    /// [`Run`] shape.
    pub fn execute<P>(
        &self,
        spec: &ExecSpec<'_>,
        protocol: &P,
    ) -> FaultyRun<<P::Node as NodeProgram>::Output>
    where
        P: Protocol,
    {
        let run = self.resolve::<MessagePlane<'_, P::Node>>(spec);
        let plane = MessagePlane::new(self.graph, protocol, &run);
        self.execute_inner(&run, plane)
    }

    /// Run `algo` on a state plane as described by `spec` (defaults as for
    /// [`execute`](Self::execute)); see [`crate::SyncAlgorithm`] for the
    /// two planes and their halting rules.
    ///
    /// A halted vertex's [`Outcome::Halted`] carries the sweep it halted in
    /// and its output paired with the round it *decided* in. Sweep 0 has
    /// every vertex announce its initial state, so the first
    /// [`SyncAlgorithm::update`] is round 1.
    pub fn execute_sync<A: SyncAlgorithm>(
        &self,
        spec: &ExecSpec<'_>,
        algo: &A,
    ) -> FaultyRun<(A::Output, u32)> {
        let run = self.resolve::<StatePlane<'_, A>>(spec);
        match spec.faults {
            None => self.execute_inner(&run, StatePlane::new(self.graph, algo, &run)),
            Some(_) => self.execute_inner(&run, HeardPlane::new(self.graph, algo, &run)),
        }
    }

    /// Fill in `spec`'s defaults for a run on plane `P`.
    fn resolve<'s, P: Plane>(&self, spec: &ExecSpec<'s>) -> Resolved<'s> {
        let g = self.graph;
        let n = g.n();
        let threshold = self.par_threshold.unwrap_or(P::PAR_THRESHOLD);
        Resolved {
            params: spec.params.unwrap_or_else(|| GlobalParams::from_graph(g)),
            budget: spec.budget.unwrap_or(Budget::rounds(DEFAULT_MAX_ROUNDS)),
            faults: spec.faults.unwrap_or(&NO_FAULTS),
            obs: spec.obs,
            // An explicitly requested shard count forces the sharded path
            // even on tiny graphs — the invariance tests rely on that;
            // otherwise shard only past the parallelism threshold.
            shards: match spec.shards {
                Some(k) => k.get().min(n.max(1)),
                None if n >= threshold => std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    .min(n),
                None => 1,
            },
            // A requested shard count steps every sweep on that many
            // threads, unless the test hook sets a threshold.
            serial_below: match (spec.shards, self.par_threshold) {
                (Some(_), None) => 0,
                _ => threshold,
            },
            ids: match &self.mode {
                Mode::Deterministic { ids } => Some(ids.assign(g)),
                Mode::Randomized { .. } => None,
            },
        }
    }

    /// The round loop, the same for every plane.
    fn execute_inner<P: Plane>(&self, run: &Resolved<'_>, mut plane: P) -> FaultyRun<P::Output> {
        let g = self.graph;
        let n = g.n();
        let faults = run.faults;
        let seed = match &self.mode {
            Mode::Randomized { seed } => Some(*seed),
            Mode::Deterministic { .. } => None,
        };
        let bounds = if run.shards > 1 {
            shard_bounds(g.csr_offsets(), run.shards * CHUNKS_PER_THREAD)
        } else {
            vec![0, n]
        };
        let chunks = bounds.len() - 1;
        assert!(
            u32::try_from(n).is_ok(),
            "live lists hold vertices as u32, so n = {n} is too large"
        );
        // Pooled buffers come back empty; sweep 0 fills each chunk's parts.
        let mut cols: Columns<P::Output> = ARENA.with(|a| Columns {
            outcomes: Vec::with_capacity(n),
            sent: a.sent.take(if run.obs.is_on() { n } else { 0 }),
            live: a.live.take_parts(n),
            rngs: a.rngs.take_parts(if seed.is_some() { n } else { 0 }),
        });
        cols.outcomes.resize_with(n, || Outcome::Cut);
        if run.obs.is_on() {
            cols.sent.resize(n, 0);
        }
        cols.live.resize_with(chunks, Vec::new);
        cols.rngs.resize_with(chunks, Vec::new);

        let has_crashes = faults.has_crashes();
        // Crash schedule, flattened and sorted by (round, vertex): the sweep
        // loop consumes it with a cursor instead of re-scanning every vertex
        // each round. Same order as the old per-vertex scan.
        let crash_events: Vec<(u32, usize)> = if has_crashes {
            let mut ev: Vec<(u32, usize)> = (0..n)
                .filter_map(|v| faults.crash_round(v).map(|r| (r, v)))
                .collect();
            ev.sort_unstable();
            ev
        } else {
            Vec::new()
        };
        let mut crash_cursor = 0usize;
        let mut halted_total = 0usize;
        let mut crashed_total = 0usize;
        let mut rounds = 0;
        let mut sweep: u32 = 0;
        let mut breach: Option<Breach> = None;
        let mut dropped = 0u64;
        let mut delayed = 0u64;
        let mut live_per_round: Vec<usize> = Vec::new();
        let mut messages_per_round: Vec<u64> = Vec::new();
        let mut messages_total = 0u64;
        let budget = &run.budget;
        let started = budget.wall_clock.map(|_| std::time::Instant::now());

        run.obs.emit(|| EventData::RunStart {
            n: n as u64,
            m: g.m() as u64,
            mode: match &self.mode {
                Mode::Deterministic { .. } => "det",
                Mode::Randomized { .. } => "rand",
            }
            .to_string(),
            max_rounds: budget.max_rounds,
        });

        loop {
            // Crash-stop: nodes scheduled for this sweep fall silent before
            // stepping (their earlier messages were already delivered). The
            // stepping chunk drops them from its live list.
            let mut crashes_now = 0u64;
            while crash_cursor < crash_events.len() && crash_events[crash_cursor].0 == sweep {
                let v = crash_events[crash_cursor].1;
                crash_cursor += 1;
                if matches!(cols.outcomes[v], Outcome::Cut) {
                    cols.outcomes[v] = Outcome::Crashed { round: sweep };
                    crashed_total += 1;
                    crashes_now += 1;
                }
            }
            // Halted and crashed node sets are disjoint (a node only crashes
            // while not yet done), so liveness is pure counter arithmetic —
            // no per-sweep O(n) scans.
            let live = n - halted_total - crashed_total;
            if live == 0 {
                break;
            }
            if sweep >= budget.max_rounds {
                breach = Some(Breach::Rounds);
                break;
            }
            if let (Some(limit), Some(started)) = (budget.wall_clock, started) {
                if started.elapsed() > limit {
                    breach = Some(Breach::WallClock);
                    break;
                }
            }
            live_per_round.push(live);
            let at = Sweep {
                round: sweep,
                graph: g,
                offsets: g.csr_offsets(),
                params: &run.params,
                ids: run.ids.as_deref(),
                seed,
                crashes: crashes_now > 0,
            };

            // Each chunk steps its own live vertices against its own plane
            // view and column cut; every cell has exactly one writer per
            // sweep, so the result is bit-identical to the serial order
            // whatever the chunk count, the thread count or which thread
            // claims which chunk.
            let views = plane
                .shards(&bounds)
                .into_iter()
                .zip(cols.cuts(&bounds))
                .zip(bounds.windows(2));
            let (sweep_sent, sweep_halts) = if run.shards == 1 || live < run.serial_below {
                views
                    .map(|((mut view, cut), w)| step_span::<P>(&at, w[0]..w[1], &mut view, cut))
                    .fold((0, 0), |(s, h), (s1, h1)| (s + s1, h + h1))
            } else {
                let queue = Mutex::new(views.collect::<Vec<_>>());
                let at = &at;
                // Pop chunks until the queue is empty. The lock guard drops
                // at the end of the `let`, before the chunk is stepped.
                let claim = || {
                    let mut total = (0, 0);
                    loop {
                        let job = queue
                            .lock()
                            .expect("no thread panics while holding the chunk queue")
                            .pop();
                        let Some(((mut view, cut), w)) = job else {
                            return total;
                        };
                        let (s, h) = step_span::<P>(at, w[0]..w[1], &mut view, cut);
                        total = (total.0 + s, total.1 + h);
                    }
                };
                // The calling thread claims chunks too, beside `shards - 1`
                // scoped helpers; a helper's panic resumes here with its
                // payload.
                std::thread::scope(|scope| {
                    let helpers: Vec<_> = (1..run.shards).map(|_| scope.spawn(claim)).collect();
                    let mine = claim();
                    helpers
                        .into_iter()
                        .fold(mine, |(s, h), helper| match helper.join() {
                            Ok((s1, h1)) => (s + s1, h + h1),
                            Err(payload) => std::panic::resume_unwind(payload),
                        })
                })
            };

            messages_per_round.push(sweep_sent);
            messages_total += sweep_sent;
            halted_total += sweep_halts as usize;
            if sweep_halts > 0 {
                rounds = sweep;
            }
            let still = live - sweep_halts as usize;
            sweep += 1;
            let dropped_before = dropped;
            let delayed_before = delayed;
            let mut message_breach = false;
            if still > 0 {
                if let Some(max_messages) = budget.max_messages {
                    if messages_total > max_messages {
                        breach = Some(Breach::Messages);
                        message_breach = true;
                    }
                }
                if !message_breach {
                    let live = Live {
                        lists: &cols.live,
                        len: still,
                    };
                    plane.exchange(&at, live, faults, &mut dropped, &mut delayed);
                }
            }
            run.obs.emit(|| EventData::Round {
                round: at.round,
                live: live as u64,
                messages: sweep_sent,
                halts: sweep_halts,
                crashes: crashes_now,
                dropped: dropped - dropped_before,
                delayed: delayed - delayed_before,
                messages_total,
            });
            if message_breach {
                break;
            }
        }
        debug_assert!(
            breach.is_some() || halted_total + crashed_total == n,
            "live nodes only survive a budget cut"
        );

        // Only an observed run walks the columns again, for its histograms.
        if run.obs.is_on() {
            let mut messages_hist = PowHistogram::new();
            let mut halt_hist = PowHistogram::new();
            for (outcome, &sent) in cols.outcomes.iter().zip(&cols.sent) {
                messages_hist.record(sent);
                if let Outcome::Halted { round, .. } = outcome {
                    halt_hist.record(u64::from(*round));
                }
            }
            run.obs.emit(|| EventData::Histogram {
                name: "messages_per_vertex".into(),
                hist: Box::new(messages_hist),
            });
            run.obs.emit(|| EventData::Histogram {
                name: "halt_round".into(),
                hist: Box::new(halt_hist),
            });
        }
        plane.recycle();
        let Columns {
            outcomes,
            sent,
            live,
            rngs,
        } = cols;
        ARENA.with(|a| {
            a.sent.give(sent);
            a.live.give_parts(live);
            a.rngs.give_parts(rngs);
        });
        let fr = FaultyRun {
            outcomes,
            rounds,
            stats: RunStats {
                messages_sent: messages_total,
                sweeps: sweep,
                live_per_round,
                messages_per_round,
            },
            dropped,
            delayed,
            breach,
        };
        run.obs.emit(|| EventData::RunEnd {
            rounds: fr.rounds,
            sweeps: fr.stats.sweeps,
            messages: fr.stats.messages_sent,
            halted: fr.halted() as u64,
            crashed: fr.crashed() as u64,
            cut: fr.cut() as u64,
            breach: fr.breach.as_ref().map(|b| b.to_string()),
        });
        fr
    }
}

/// Derive a fresh RNG for auxiliary (non-node) randomness from a master seed
/// and a stream tag. Exposed so algorithm crates can split seeds the same way
/// the engine does.
pub fn derived_rng(seed: u64, tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(tag.wrapping_add(0xABCD))))
}

/// Convenience: draw a uniform `u64` from a derived stream (used for ID
/// generation in RandLOCAL algorithms).
pub fn derived_u64(seed: u64, tag: u64) -> u64 {
    derived_rng(seed, tag).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::faults::FaultSpec;
    use crate::node::NodeInit;
    use local_graphs::gen;
    use local_obs::Trace;

    /// Chainable test sugar over the single real entry point,
    /// [`Engine::execute`]: the strict fault-free shape (what `run` was) and
    /// the faulty shape (what `run_faulty` was).
    trait Exec {
        fn exec<P: Protocol + Sync>(
            &self,
            protocol: &P,
        ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError> {
            self.exec_with(&ExecSpec::default(), protocol)
        }
        fn exec_with<P: Protocol + Sync>(
            &self,
            spec: &ExecSpec<'_>,
            protocol: &P,
        ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError>;
        fn exec_faulty<P: Protocol + Sync>(
            &self,
            protocol: &P,
            faults: &FaultPlan,
        ) -> FaultyRun<<P::Node as NodeProgram>::Output>;
    }

    impl Exec for Engine<'_> {
        fn exec_with<P: Protocol + Sync>(
            &self,
            spec: &ExecSpec<'_>,
            protocol: &P,
        ) -> Result<Run<<P::Node as NodeProgram>::Output>, SimError> {
            self.execute(spec, protocol)
                .into_run(spec.budget.map_or(DEFAULT_MAX_ROUNDS, |b| b.max_rounds))
        }
        fn exec_faulty<P: Protocol + Sync>(
            &self,
            protocol: &P,
            faults: &FaultPlan,
        ) -> FaultyRun<<P::Node as NodeProgram>::Output> {
            self.execute(&ExecSpec::default().with_faults(faults), protocol)
        }
    }

    #[test]
    fn spec_fields_configure_the_run() {
        // Budget, trace and advertised parameters all come from the spec.
        let g = gen::path(3);
        let engine = Engine::new(&g, Mode::deterministic());
        let fr = engine.execute(&ExecSpec::rounds(4), &ForeverProtocol);
        assert_eq!(fr.stats.sweeps, 4);
        assert_eq!(fr.breach, Some(Breach::Rounds));

        let trace = Trace::new(3);
        let spec = ExecSpec::default().with_obs(Obs::traced(Some(&trace)));
        engine.execute(&spec, &FloodMinProtocol);
        let events = trace.into_events();
        assert_eq!(events.first().map(|e| e.data.tag()), Some("run_start"));
        assert_eq!(events.last().map(|e| e.data.tag()), Some("run_end"));

        // FloodMin's horizon comes from the advertised n: a claimed n of 64
        // stretches the halt to round 64 on a 3-path.
        let params = GlobalParams::from_graph(&g).with_claimed_n(64);
        let fr = engine.execute(&ExecSpec::default().with_params(params), &FloodMinProtocol);
        assert_eq!(fr.halted(), 3);
        assert_eq!(fr.rounds, 64);
    }

    /// Flood the minimum ID: halts after `horizon = n` rounds, by which
    /// point the minimum has reached every vertex.
    struct FloodMin {
        current: u64,
        horizon: u32,
    }
    impl NodeProgram for FloodMin {
        type Msg = u64;
        type Output = u64;
        fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<u64> {
            if round == 0 {
                io.broadcast(self.current);
                return Action::Continue;
            }
            for (_, &m) in io.received() {
                self.current = self.current.min(m);
            }
            if round >= self.horizon {
                Action::Halt(self.current)
            } else {
                io.broadcast(self.current);
                Action::Continue
            }
        }
    }
    struct FloodMinProtocol;
    impl Protocol for FloodMinProtocol {
        type Node = FloodMin;
        fn create(&self, init: &NodeInit<'_>) -> FloodMin {
            FloodMin {
                current: init.id.expect("DetLOCAL test"),
                horizon: init
                    .params
                    .round_horizon(0)
                    .expect("test n fits the round counter"),
            }
        }
    }

    #[test]
    fn flood_min_agrees_on_minimum() {
        let g = gen::cycle(11);
        let run = Engine::new(&g, Mode::deterministic())
            .exec(&FloodMinProtocol)
            .unwrap();
        assert!(run.outputs.iter().all(|&o| o == 0));
        assert_eq!(run.rounds, 11);
        assert!(run.stats.messages_sent > 0);
    }

    #[test]
    fn flood_min_with_shuffled_ids() {
        let g = gen::path(9);
        let run = Engine::new(
            &g,
            Mode::deterministic_with(IdAssignment::Shuffled { seed: 3 }),
        )
        .exec(&FloodMinProtocol)
        .unwrap();
        assert!(run.outputs.iter().all(|&o| o == 0));
    }

    /// Zero-round protocol: output the degree immediately.
    struct Immediate;
    impl NodeProgram for Immediate {
        type Msg = ();
        type Output = usize;
        fn step(&mut self, _round: u32, io: &mut NodeIo<'_, ()>) -> Action<usize> {
            Action::Halt(io.degree())
        }
    }
    struct ImmediateProtocol;
    impl Protocol for ImmediateProtocol {
        type Node = Immediate;
        fn create(&self, _init: &NodeInit<'_>) -> Immediate {
            Immediate
        }
    }

    #[test]
    fn zero_round_protocol_reports_zero_rounds() {
        let g = gen::star(6);
        let run = Engine::new(&g, Mode::deterministic())
            .exec(&ImmediateProtocol)
            .unwrap();
        assert_eq!(run.rounds, 0);
        assert_eq!(run.outputs[0], 5);
        assert_eq!(run.outputs[3], 1);
        assert_eq!(run.stats.messages_sent, 0);
    }

    /// Never halts — must trip the round limit.
    struct Forever;
    impl NodeProgram for Forever {
        type Msg = ();
        type Output = ();
        fn step(&mut self, _round: u32, _io: &mut NodeIo<'_, ()>) -> Action<()> {
            Action::Continue
        }
    }
    struct ForeverProtocol;
    impl Protocol for ForeverProtocol {
        type Node = Forever;
        fn create(&self, _init: &NodeInit<'_>) -> Forever {
            Forever
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = gen::path(3);
        let err = Engine::new(&g, Mode::deterministic())
            .exec_with(&ExecSpec::rounds(10), &ForeverProtocol)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 10,
                live_nodes: 3,
                live_sample: vec![0, 1, 2],
            }
        );
    }

    /// Halts every node at a fixed round, to probe the limit boundary.
    struct HaltAt {
        round: u32,
    }
    impl NodeProgram for HaltAt {
        type Msg = ();
        type Output = u32;
        fn step(&mut self, round: u32, _io: &mut NodeIo<'_, ()>) -> Action<u32> {
            if round >= self.round {
                Action::Halt(round)
            } else {
                Action::Continue
            }
        }
    }
    struct HaltAtProtocol(u32);
    impl Protocol for HaltAtProtocol {
        type Node = HaltAt;
        fn create(&self, _init: &NodeInit<'_>) -> HaltAt {
            HaltAt { round: self.0 }
        }
    }

    #[test]
    fn round_limit_boundary_allows_exactly_max_rounds_sweeps() {
        // A protocol halting everyone at round `max_rounds - 1` consumes
        // exactly `max_rounds` sweeps (sweeps 0 .. max_rounds - 1): allowed.
        let g = gen::path(4);
        let run = Engine::new(&g, Mode::deterministic())
            .exec_with(&ExecSpec::rounds(5), &HaltAtProtocol(4))
            .unwrap();
        assert_eq!(run.stats.sweeps, 5);
        assert_eq!(run.rounds, 4);

        // One round later would need a sixth sweep: the limit must trip, and
        // never let a sweep past `max_rounds` execute.
        let err = Engine::new(&g, Mode::deterministic())
            .exec_with(&ExecSpec::rounds(5), &HaltAtProtocol(5))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 5,
                live_nodes: 4,
                live_sample: vec![0, 1, 2, 3],
            }
        );
    }

    /// RandLOCAL: each node outputs one random u64 with no communication.
    struct RandOut;
    impl NodeProgram for RandOut {
        type Msg = ();
        type Output = u64;
        fn step(&mut self, _round: u32, io: &mut NodeIo<'_, ()>) -> Action<u64> {
            assert!(io.id().is_none(), "RandLOCAL nodes must be anonymous");
            let x = io.rng().next_u64();
            Action::Halt(x)
        }
    }
    struct RandProtocol;
    impl Protocol for RandProtocol {
        type Node = RandOut;
        fn create(&self, init: &NodeInit<'_>) -> RandOut {
            assert!(init.id.is_none());
            RandOut
        }
    }

    #[test]
    fn randomized_mode_is_seeded_and_distinct() {
        let g = gen::cycle(16);
        let a = Engine::new(&g, Mode::randomized(42))
            .exec(&RandProtocol)
            .unwrap();
        let b = Engine::new(&g, Mode::randomized(42))
            .exec(&RandProtocol)
            .unwrap();
        let c = Engine::new(&g, Mode::randomized(43))
            .exec(&RandProtocol)
            .unwrap();
        assert_eq!(a.outputs, b.outputs, "same seed, same outputs");
        assert_ne!(a.outputs, c.outputs, "different seed, different outputs");
        let distinct: std::collections::HashSet<_> = a.outputs.iter().collect();
        assert_eq!(distinct.len(), 16, "node streams must be independent");
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // A graph larger than the message plane's threshold exercises the sharded path
        // (shards on `std::thread::scope` threads); the same protocol on a
        // small graph exercises the sequential path. Both must be
        // reproducible under the same seed.
        let g = gen::cycle(MESSAGE_PAR_THRESHOLD + 10);
        let a = Engine::new(&g, Mode::randomized(7))
            .exec(&RandProtocol)
            .unwrap();
        let b = Engine::new(&g, Mode::randomized(7))
            .exec(&RandProtocol)
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn halt_rounds_are_per_node() {
        let g = gen::star(5);
        let run = Engine::new(&g, Mode::deterministic())
            .exec(&ImmediateProtocol)
            .unwrap();
        assert_eq!(run.halt_rounds, vec![0; 5]);
    }

    #[test]
    fn claimed_params_reach_nodes() {
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
        let params = GlobalParams::from_graph(&g).with_claimed_n(1 << 30);
        let run = Engine::new(&g, Mode::deterministic())
            .exec_with(&ExecSpec::default().with_params(params), &ParamProtocol)
            .unwrap();
        assert!(run.outputs.iter().all(|&o| o == 1 << 30));
    }

    #[test]
    fn live_per_round_traces_progress() {
        let g = gen::star(6);
        let run = Engine::new(&g, Mode::deterministic())
            .exec(&ImmediateProtocol)
            .unwrap();
        assert_eq!(run.stats.live_per_round, vec![6]);
        let g = gen::cycle(5);
        let run = Engine::new(&g, Mode::deterministic())
            .exec(&FloodMinProtocol)
            .unwrap();
        assert_eq!(run.stats.live_per_round.len() as u32, run.stats.sweeps);
        assert_eq!(run.stats.live_per_round[0], 5);
        // Monotonically non-increasing.
        for w in run.stats.live_per_round.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn crashed_nodes_fall_silent_and_report_crashed() {
        // FloodMin on a path; crash the minimum-ID endpoint before it ever
        // speaks. Its 0 can then never reach the far end.
        let g = gen::path(5);
        let plan = FaultPlan::from_crash_schedule(vec![Some(0), None, None, None, None]);
        let run = Engine::new(&g, Mode::deterministic()).exec_faulty(&FloodMinProtocol, &plan);
        assert!(run.outcomes[0].is_crashed());
        assert_eq!(run.crashed(), 1);
        assert_eq!(run.halted(), 4);
        assert_eq!(run.cut(), 0);
        // Survivors agree on the minimum of the *surviving* IDs.
        for v in 1..5 {
            assert_eq!(run.outcomes[v].output(), Some(&1));
        }
        let partial = run.partial_outputs();
        assert_eq!(partial[0], None);
        assert_eq!(partial[1], Some(&1));
    }

    #[test]
    fn late_crash_preserves_earlier_messages() {
        // Crash vertex 0 at round 2: its round-0/1 broadcasts still deliver,
        // so the minimum 0 has already propagated 2 hops by then.
        let g = gen::path(3);
        let plan = FaultPlan::from_crash_schedule(vec![Some(2), None, None]);
        let run = Engine::new(&g, Mode::deterministic()).exec_faulty(&FloodMinProtocol, &plan);
        assert!(run.outcomes[0].is_crashed());
        assert_eq!(run.outcomes[1].output(), Some(&0));
        assert_eq!(run.outcomes[2].output(), Some(&0));
    }

    #[test]
    fn budget_exhaustion_cuts_instead_of_erroring() {
        let g = gen::path(3);
        let run =
            Engine::new(&g, Mode::deterministic()).execute(&ExecSpec::rounds(10), &ForeverProtocol);
        assert_eq!(run.cut(), 3);
        assert_eq!(run.halted(), 0);
        assert_eq!(run.stats.sweeps, 10);
        assert!(run.outcomes.iter().all(Outcome::is_cut));
    }

    #[test]
    fn budget_breach_kind_is_recorded() {
        let g = gen::path(3);
        let run =
            Engine::new(&g, Mode::deterministic()).execute(&ExecSpec::rounds(10), &ForeverProtocol);
        assert_eq!(run.breach, Some(Breach::Rounds));
        let run = Engine::new(&g, Mode::deterministic())
            .exec_faulty(&FloodMinProtocol, &FaultPlan::none());
        assert_eq!(run.breach, None);
    }

    #[test]
    fn message_budget_cuts_a_chatty_run() {
        // FloodMin on a cycle sends 2 messages per node per sweep; a cap of
        // 10 is breached after the first sweep (12 sent > 10).
        let g = gen::cycle(6);
        let run = Engine::new(&g, Mode::deterministic()).execute(
            &ExecSpec::default().with_budget(Budget::rounds(100).with_max_messages(10)),
            &FloodMinProtocol,
        );
        assert_eq!(run.breach, Some(Breach::Messages));
        assert_eq!(run.cut(), 6);
        assert_eq!(run.stats.sweeps, 1);
        // A generous cap never trips.
        let run = Engine::new(&g, Mode::deterministic()).execute(
            &ExecSpec::default().with_budget(Budget::rounds(100).with_max_messages(1_000_000)),
            &FloodMinProtocol,
        );
        assert_eq!(run.breach, None);
        assert_eq!(run.halted(), 6);
    }

    #[test]
    fn message_budget_spares_a_run_that_finishes_on_the_cap_sweep() {
        // Immediate halting sends nothing: even a zero cap cannot breach.
        let g = gen::star(4);
        let run = Engine::new(&g, Mode::deterministic()).execute(
            &ExecSpec::default().with_budget(Budget::rounds(10).with_max_messages(0)),
            &ImmediateProtocol,
        );
        assert_eq!(run.breach, None);
        assert_eq!(run.halted(), 4);
    }

    #[test]
    fn wall_clock_budget_cuts_a_diverging_run() {
        let g = gen::path(3);
        let run = Engine::new(&g, Mode::deterministic()).execute(
            &ExecSpec::default()
                .with_budget(Budget::rounds(u32::MAX).with_wall_clock(std::time::Duration::ZERO)),
            &ForeverProtocol,
        );
        assert_eq!(run.breach, Some(Breach::WallClock));
        assert_eq!(run.cut(), 3);
    }

    #[test]
    fn certain_drop_blocks_all_messages() {
        // Drop probability 1 on every directed edge: FloodMin still halts at
        // its horizon but no value ever crosses an edge, so every vertex
        // keeps its own ID.
        let g = gen::cycle(6);
        let plan = FaultPlan::sample(&g, &FaultSpec::none().with_drop(1.0), 3);
        let run = Engine::new(&g, Mode::deterministic()).exec_faulty(&FloodMinProtocol, &plan);
        assert_eq!(run.halted(), 6);
        assert!(run.dropped > 0);
        for (v, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.output(), Some(&(v as u64)));
        }
    }

    #[test]
    fn certain_delay_defers_by_one_round() {
        // Echo once: vertex sends its ID at round 0 and reads at rounds ≥ 1.
        struct EchoOnce;
        impl NodeProgram for EchoOnce {
            type Msg = u64;
            type Output = (u32, u64);
            fn step(&mut self, round: u32, io: &mut NodeIo<'_, u64>) -> Action<(u32, u64)> {
                if round == 0 {
                    io.broadcast(io.id().expect("det"));
                    return Action::Continue;
                }
                match io.received().next().map(|(_, &m)| m) {
                    Some(m) => Action::Halt((round, m)),
                    None => Action::Continue,
                }
            }
        }
        struct EchoOnceProtocol;
        impl Protocol for EchoOnceProtocol {
            type Node = EchoOnce;
            fn create(&self, _init: &NodeInit<'_>) -> EchoOnce {
                EchoOnce
            }
        }
        let g = gen::path(2);
        let plan = FaultPlan::sample(&g, &FaultSpec::none().with_delay(1.0), 5);
        let run = Engine::new(&g, Mode::deterministic()).exec_faulty(&EchoOnceProtocol, &plan);
        assert_eq!(run.halted(), 2);
        assert_eq!(run.delayed, 2);
        // The round-0 messages arrive one round late: heard at round 2.
        assert_eq!(run.outcomes[0].output(), Some(&(2, 1)));
        assert_eq!(run.outcomes[1].output(), Some(&(2, 0)));
    }

    #[test]
    fn faulty_run_with_trivial_plan_matches_run() {
        let g = gen::cycle(9);
        let run = Engine::new(&g, Mode::randomized(5))
            .exec(&RandProtocol)
            .unwrap();
        let faulty =
            Engine::new(&g, Mode::randomized(5)).exec_faulty(&RandProtocol, &FaultPlan::none());
        assert_eq!(faulty.halted(), 9);
        assert_eq!(faulty.dropped, 0);
        assert_eq!(faulty.delayed, 0);
        let outputs: Vec<u64> = faulty
            .outcomes
            .iter()
            .map(|o| *o.output().expect("halted"))
            .collect();
        assert_eq!(outputs, run.outputs);
        assert_eq!(faulty.stats, run.stats);
    }

    #[test]
    fn messages_per_round_sums_to_messages_sent() {
        let g = gen::cycle(7);
        let run = Engine::new(&g, Mode::deterministic())
            .exec(&FloodMinProtocol)
            .unwrap();
        assert_eq!(
            run.stats.messages_per_round.len() as u32,
            run.stats.sweeps,
            "one entry per sweep"
        );
        assert_eq!(
            run.stats.messages_per_round.iter().sum::<u64>(),
            run.stats.messages_sent
        );
        // FloodMin on a cycle broadcasts on both ports every non-final sweep.
        assert_eq!(run.stats.messages_per_round[0], 14);
    }

    #[test]
    fn run_stats_decode_tolerates_records_without_messages_per_round() {
        // A record written before `messages_per_round` existed (old
        // checkpoint files) must still decode, defaulting to empty.
        let old = Value::Object(vec![
            ("messages_sent".into(), Value::U64(6)),
            ("sweeps".into(), Value::U64(2)),
            (
                "live_per_round".into(),
                Value::Array(vec![Value::U64(3), Value::U64(3)]),
            ),
        ]);
        let stats = RunStats::from_value(&old).unwrap();
        assert_eq!(stats.messages_sent, 6);
        assert_eq!(stats.sweeps, 2);
        assert_eq!(stats.messages_per_round, Vec::<u64>::new());
        // A current record round-trips with the field intact.
        let current = RunStats {
            messages_sent: 6,
            sweeps: 2,
            live_per_round: vec![3, 3],
            messages_per_round: vec![4, 2],
        };
        assert_eq!(RunStats::from_value(&current.to_value()).unwrap(), current);
    }

    #[test]
    fn trace_records_run_lifecycle() {
        let g = gen::cycle(5);
        let trace = Trace::new(7);
        let run = Engine::new(&g, Mode::deterministic())
            .exec_with(
                &ExecSpec::default().with_obs(Obs::traced(Some(&trace))),
                &FloodMinProtocol,
            )
            .unwrap();
        let events = trace.into_events();
        assert!(events.iter().all(|e| e.trial == 7));
        assert_eq!(events.first().map(|e| e.data.tag()), Some("run_start"));
        assert_eq!(events.last().map(|e| e.data.tag()), Some("run_end"));
        let rounds = events.iter().filter(|e| e.data.tag() == "round").count();
        assert_eq!(rounds as u32, run.stats.sweeps);
        let hists: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.data {
                EventData::Histogram { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(hists, ["messages_per_vertex", "halt_round"]);
        match &events[1].data {
            EventData::Round {
                round,
                live,
                messages,
                messages_total,
                ..
            } => {
                assert_eq!(*round, 0);
                assert_eq!(*live, 5);
                assert_eq!(*messages, 10);
                assert_eq!(*messages_total, 10);
            }
            other => panic!("expected round event, got {other:?}"),
        }
        match &events[events.len() - 1].data {
            EventData::RunEnd {
                halted,
                cut,
                breach,
                messages,
                ..
            } => {
                assert_eq!(*halted, 5);
                assert_eq!(*cut, 0);
                assert_eq!(*breach, None);
                assert_eq!(*messages, run.stats.messages_sent);
            }
            other => panic!("expected run_end event, got {other:?}"),
        }
    }

    #[test]
    fn trace_is_identical_across_par_thresholds() {
        // Same run, sequential vs forced-parallel stepping: the event stream
        // must match bit for bit (engine events carry no wall-clock fields).
        let g = gen::cycle(64);
        let seq = Trace::new(0);
        Engine::new(&g, Mode::deterministic())
            .exec_with(
                &ExecSpec::default().with_obs(Obs::traced(Some(&seq))),
                &FloodMinProtocol,
            )
            .unwrap();
        let par = Trace::new(0);
        Engine::new(&g, Mode::deterministic())
            .with_par_threshold(1)
            .exec_with(
                &ExecSpec::default().with_obs(Obs::traced(Some(&par))),
                &FloodMinProtocol,
            )
            .unwrap();
        assert_eq!(seq.into_events(), par.into_events());
    }

    #[test]
    fn trace_counts_crashes_and_budget_cuts() {
        let g = gen::path(5);
        let trace = Trace::new(0);
        let plan = FaultPlan::from_crash_schedule(vec![Some(1), None, None, None, None]);
        Engine::new(&g, Mode::deterministic()).execute(
            &ExecSpec::default()
                .with_obs(Obs::traced(Some(&trace)))
                .with_faults(&plan),
            &FloodMinProtocol,
        );
        let events = trace.into_events();
        let crashes: u64 = events
            .iter()
            .filter_map(|e| match &e.data {
                EventData::Round { crashes, .. } => Some(*crashes),
                _ => None,
            })
            .sum();
        assert_eq!(crashes, 1);
        match &events.last().unwrap().data {
            EventData::RunEnd {
                crashed, halted, ..
            } => {
                assert_eq!(*crashed, 1);
                assert_eq!(*halted, 4);
            }
            other => panic!("expected run_end, got {other:?}"),
        }

        let trace = Trace::new(0);
        Engine::new(&g, Mode::deterministic()).execute(
            &ExecSpec::rounds(3).with_obs(Obs::traced(Some(&trace))),
            &ForeverProtocol,
        );
        let events = trace.into_events();
        match &events.last().unwrap().data {
            EventData::RunEnd { cut, breach, .. } => {
                assert_eq!(*cut, 5);
                assert_eq!(breach.as_deref(), Some("round budget"));
            }
            other => panic!("expected run_end, got {other:?}"),
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        let g = gen::cycle(30);
        let base = Engine::new(&g, Mode::deterministic())
            .exec(&FloodMinProtocol)
            .unwrap();
        for k in [1usize, 2, 3, 8, 64] {
            let run = Engine::new(&g, Mode::deterministic())
                .execute(&ExecSpec::default().with_shards(k), &FloodMinProtocol)
                .into_run(100_000)
                .unwrap();
            assert_eq!(run.outputs, base.outputs, "shards = {k}");
            assert_eq!(run.halt_rounds, base.halt_rounds, "shards = {k}");
            assert_eq!(run.stats, base.stats, "shards = {k}");
        }
    }

    #[test]
    fn sharded_randomized_run_matches_serial() {
        // Per-node RNG streams are pre-seeded, so sharding must not perturb
        // a RandLOCAL run either.
        let g = gen::cycle(33);
        let base = Engine::new(&g, Mode::randomized(9))
            .exec(&RandProtocol)
            .unwrap();
        for k in [2usize, 5, 8] {
            let run = Engine::new(&g, Mode::randomized(9))
                .execute(&ExecSpec::default().with_shards(k), &RandProtocol)
                .into_run(100_000)
                .unwrap();
            assert_eq!(run.outputs, base.outputs, "shards = {k}");
            assert_eq!(run.stats, base.stats, "shards = {k}");
        }
    }

    #[test]
    fn engine_level_shards_builder_matches_serial() {
        let g = gen::star(17);
        let base = Engine::new(&g, Mode::deterministic())
            .exec(&FloodMinProtocol)
            .unwrap();
        let run = Engine::new(&g, Mode::deterministic())
            .exec_with(&ExecSpec::default().with_shards(4), &FloodMinProtocol)
            .unwrap();
        assert_eq!(run.outputs, base.outputs);
        assert_eq!(run.stats, base.stats);
    }

    #[test]
    fn sharded_faulty_run_matches_serial() {
        // Crashes keep the eager path; drops/delays force the serial
        // fault-delivery path under sharded stepping. Both must agree with
        // the fully serial engine in every observable.
        let g = gen::cycle(20);
        let mut crash = vec![None; 20];
        crash[3] = Some(0);
        crash[11] = Some(2);
        let crash_plan = FaultPlan::from_crash_schedule(crash);
        let lossy_plan =
            FaultPlan::sample(&g, &FaultSpec::none().with_drop(0.3).with_delay(0.3), 77);
        for plan in [&crash_plan, &lossy_plan] {
            let base = Engine::new(&g, Mode::deterministic()).exec_faulty(&FloodMinProtocol, plan);
            for k in [2usize, 7] {
                let run = Engine::new(&g, Mode::deterministic()).execute(
                    &ExecSpec::default().with_faults(plan).with_shards(k),
                    &FloodMinProtocol,
                );
                assert_eq!(run.rounds, base.rounds, "shards = {k}");
                assert_eq!(run.stats, base.stats, "shards = {k}");
                assert_eq!(run.dropped, base.dropped, "shards = {k}");
                assert_eq!(run.delayed, base.delayed, "shards = {k}");
                assert_eq!(run.breach, base.breach, "shards = {k}");
                assert_eq!(run.halted(), base.halted(), "shards = {k}");
                assert_eq!(run.crashed(), base.crashed(), "shards = {k}");
                assert_eq!(
                    run.partial_outputs(),
                    base.partial_outputs(),
                    "shards = {k}"
                );
            }
        }
    }

    #[test]
    fn sharded_message_budget_breach_matches_serial() {
        let g = gen::cycle(6);
        let spec = ExecSpec::default().with_budget(Budget::rounds(100).with_max_messages(10));
        let base = Engine::new(&g, Mode::deterministic())
            .execute(&spec, &FloodMinProtocol)
            .into_run(100)
            .unwrap_err();
        let sharded = Engine::new(&g, Mode::deterministic())
            .execute(&spec.with_shards(3), &FloodMinProtocol)
            .into_run(100)
            .unwrap_err();
        assert_eq!(base, sharded);
    }

    #[test]
    fn trace_is_identical_across_shard_counts() {
        let seq = Trace::new(0);
        let g = gen::cycle(40);
        Engine::new(&g, Mode::deterministic())
            .exec_with(
                &ExecSpec::default().with_obs(Obs::traced(Some(&seq))),
                &FloodMinProtocol,
            )
            .unwrap();
        let sharded = Trace::new(0);
        Engine::new(&g, Mode::deterministic())
            .exec_with(
                &ExecSpec::default()
                    .with_shards(6)
                    .with_obs(Obs::traced(Some(&sharded))),
                &FloodMinProtocol,
            )
            .unwrap();
        assert_eq!(seq.into_events(), sharded.into_events());
    }

    #[test]
    fn shard_bounds_are_monotone_and_cover() {
        let g = gen::star(9); // skewed degrees: hub has 8 slots
        for k in [1usize, 2, 3, 8, 9] {
            let b = shard_bounds(g.csr_offsets(), k);
            assert_eq!(b.len(), k + 1);
            assert_eq!(b[0], 0);
            assert_eq!(b[k], 9);
            for w in b.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn chunk_bounds_cover_every_vertex_once_with_empty_chunks() {
        // More chunks than vertices, as a forced shard count on a tiny
        // graph gives: the surplus chunks are empty, the rest still tile
        // `0..n` in order.
        for (g, threads) in [(gen::star(5), 3), (gen::path(2), 2), (gen::cycle(40), 3)] {
            let k = threads * CHUNKS_PER_THREAD;
            let b = shard_bounds(g.csr_offsets(), k);
            assert_eq!(b.len(), k + 1);
            assert_eq!((b[0], b[k]), (0, g.n()));
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
            let empty = b.windows(2).filter(|w| w[0] == w[1]).count();
            assert!(empty >= k.saturating_sub(g.n()), "{b:?}");
            let covered: Vec<usize> = b.windows(2).flat_map(|w| w[0]..w[1]).collect();
            assert_eq!(covered, (0..g.n()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_bounds_balance_vertices_plus_slots() {
        // A complete 16-ary tree is ~7% internal vertices (degree 16) and
        // ~93% leaves (degree 1): balancing slots alone would give shard 0
        // the internal vertices and shard 1 nearly every leaf.
        let g = gen::complete_dary_tree(16_384, 16);
        let offsets = g.csr_offsets();
        let weight = |r: std::ops::Range<usize>| r.len() + offsets[r.end] - offsets[r.start];
        let b = shard_bounds(offsets, 2);
        let half = weight(0..g.n()) / 2;
        let max_vertex = 1 + g.max_degree();
        for shard in [0..b[1], b[1]..g.n()] {
            assert!(
                weight(shard.clone()).abs_diff(half) <= max_vertex,
                "shard {shard:?} weighs {} against half {half}",
                weight(shard.clone())
            );
        }
    }

    /// RandLOCAL gossip: each round a node XORs what it heard into its
    /// output and sends a fresh draw on a random subset of its ports, then
    /// halts on one draw in four, or at round 8. The sends of the sweep in
    /// which the last nodes halt are never delivered. The `victim` vertex
    /// panics in round 1.
    struct Gossip {
        acc: u32,
        victim: bool,
    }
    impl NodeProgram for Gossip {
        type Msg = u32;
        type Output = u32;
        fn step(&mut self, round: u32, io: &mut NodeIo<'_, u32>) -> Action<u32> {
            assert!(!(self.victim && round == 1), "the victim panics mid-sweep");
            for (_, &m) in io.received() {
                self.acc ^= m;
            }
            let draw = io.rng().next_u32();
            for p in (0..io.degree()).filter(|&p| (draw >> p) & 1 == 1) {
                io.send(p, draw.rotate_left(p as u32));
            }
            if (round > 0 && draw.is_multiple_of(4)) || round == 8 {
                Action::Halt(self.acc)
            } else {
                Action::Continue
            }
        }
    }
    struct GossipProtocol {
        victim: Option<usize>,
    }
    impl Protocol for GossipProtocol {
        type Node = Gossip;
        fn create(&self, init: &NodeInit<'_>) -> Gossip {
            Gossip {
                acc: 0,
                victim: self.victim == Some(init.node),
            }
        }
    }

    /// Run `run` here, then again on a fresh thread, whose run arena is
    /// empty, and require the same result.
    fn matches_fresh_thread<O>(run: impl Fn() -> FaultyRun<O> + Sync) -> FaultyRun<O>
    where
        O: PartialEq + std::fmt::Debug + Send,
    {
        let reused = run();
        let fresh = std::thread::scope(|s| s.spawn(&run).join().unwrap());
        assert_eq!(reused, fresh);
        reused
    }

    #[test]
    fn reused_arena_buffers_match_fresh_threads() {
        // Every column and message buffer of these runs clears the arena's
        // floor, so each run after the first on this thread gets the
        // buffers the one before gave back, or evicts them for another
        // element type. A buffer that leaked state into the next run (an
        // uncleared inbox slot, a stale live-list entry, an RNG column not
        // reseeded) would make a run differ from its fresh-thread twin.
        let g = gen::stream::circulant(20_000, 4).unwrap();
        let spec = FaultSpec::none()
            .with_drop(0.1)
            .with_delay(0.1)
            .with_crash(0.01, 3);
        let plan = FaultPlan::sample(&g, &spec, 9);
        let gossip = GossipProtocol { victim: None };
        let rand = |seed| Engine::new(&g, Mode::randomized(seed));
        let first = matches_fresh_thread(|| rand(1).execute(&ExecSpec::default(), &gossip));
        assert!(first.stats.sweeps > 2);
        let det = Mode::deterministic_with(IdAssignment::Shuffled { seed: 4 });
        let short = GlobalParams::from_graph(&g).with_claimed_n(6);
        matches_fresh_thread(|| {
            Engine::new(&g, det.clone())
                .execute(&ExecSpec::default().with_params(short), &FloodMinProtocol)
        });
        matches_fresh_thread(|| rand(2).execute(&ExecSpec::default(), &gossip));
        let faulty = matches_fresh_thread(|| {
            rand(3).execute(&ExecSpec::default().with_faults(&plan), &gossip)
        });
        assert!(faulty.dropped > 0 && faulty.delayed > 0 && faulty.crashed() > 0);
        matches_fresh_thread(|| rand(1).execute(&ExecSpec::default().with_shards(2), &gossip));
        let victim = GossipProtocol {
            victim: Some(g.n() / 2),
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rand(1).execute(&ExecSpec::default(), &victim)
        }));
        assert!(unwound.is_err());
        let last = matches_fresh_thread(|| rand(1).execute(&ExecSpec::default(), &gossip));
        assert_eq!(last, first);
    }

    #[test]
    fn derived_rng_streams_differ() {
        let a = derived_u64(1, 0);
        let b = derived_u64(1, 1);
        let c = derived_u64(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(derived_u64(1, 0), a);
    }
}
