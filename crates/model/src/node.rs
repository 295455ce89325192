//! The per-vertex programming interface.

use crate::params::GlobalParams;
use local_graphs::{NodeId, PortId};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// What a node decides at the end of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<O> {
    /// Keep running; the engine will deliver this round's messages.
    Continue,
    /// Halt with an output. A halted node sends no further messages.
    Halt(O),
}

/// The algorithm run by every vertex, as a state machine stepped once per
/// round.
///
/// `step(0, …)` is called before any communication (the inbox is empty);
/// `step(k, …)` for `k ≥ 1` sees the messages sent in step `k − 1`. A node
/// that halts at step `k` has therefore used exactly `k` communication
/// rounds — the engine reports the maximum over all nodes as the run's round
/// complexity.
///
/// Both associated types are `'static`: the engine keeps its message and
/// output buffers between runs, typed by element.
pub trait NodeProgram {
    /// Message type (unbounded size, per the LOCAL model).
    type Msg: Clone + Send + Sync + 'static;
    /// Final output of a node (the label in an LCL solution).
    type Output: Clone + Send + 'static;

    /// Execute one round: read the inbox, update state, write the outbox,
    /// decide whether to halt.
    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output>;
}

/// Factory creating the per-vertex state for a protocol.
///
/// The same algorithm runs at every vertex; `create` may use
/// [`NodeInit::node`] only to look up *local input* (e.g. the colors of
/// incident edges in an input edge coloring) — never to derive an identity.
/// Identity is available exclusively through [`NodeInit::id`] /
/// [`NodeIo::id`], which the engine populates only in DetLOCAL mode.
pub trait Protocol {
    /// Node state machine type.
    type Node: NodeProgram + Send;

    /// Build the initial state for one vertex.
    fn create(&self, init: &NodeInit<'_>) -> Self::Node;
}

/// Everything a vertex legitimately knows at time zero.
#[derive(Debug, Clone, Copy)]
pub struct NodeInit<'a> {
    /// Simulator-internal vertex index — for *input lookup only* (see
    /// [`Protocol::create`]).
    pub node: NodeId,
    /// Degree of the vertex.
    pub degree: usize,
    /// The vertex's unique ID in DetLOCAL mode; `None` in RandLOCAL mode.
    pub id: Option<u64>,
    /// Global parameters (`n`, `Δ`).
    pub params: &'a GlobalParams,
}

/// Per-round I/O handle: the inbox from the previous exchange, the outbox for
/// this one, and the model capabilities (ID / randomness).
#[derive(Debug)]
pub struct NodeIo<'a, M> {
    pub(crate) degree: usize,
    pub(crate) id: Option<u64>,
    pub(crate) params: &'a GlobalParams,
    pub(crate) inbox: &'a mut [Option<M>],
    pub(crate) outbox: &'a mut [Option<M>],
    pub(crate) rng: Option<&'a mut ChaCha8Rng>,
}

impl<'a, M: Clone> NodeIo<'a, M> {
    /// Degree of this vertex (number of ports).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Global parameters known to every vertex.
    ///
    /// The returned reference outlives the `NodeIo` borrow (it points at the
    /// engine's parameters), so it can be captured while `self` is later
    /// borrowed mutably.
    pub fn params(&self) -> &'a GlobalParams {
        self.params
    }

    /// This vertex's unique ID — `Some` exactly in DetLOCAL mode.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// The message received on port `p` in the last exchange, if any.
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn recv(&self, p: PortId) -> Option<&M> {
        self.inbox[p].as_ref()
    }

    /// Move the message received on port `p` out of the inbox, leaving the
    /// port silent for the rest of this step. Saves a clone when the node
    /// keeps the message; delivery rewrites every inbox slot before the next
    /// step, so nothing else observes the move.
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn take(&mut self, p: PortId) -> Option<M> {
        self.inbox[p].take()
    }

    /// Iterate over `(port, message)` for all ports that received a message.
    pub fn received(&self) -> impl Iterator<Item = (PortId, &M)> {
        self.inbox
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.as_ref().map(|m| (p, m)))
    }

    /// Send `msg` on port `p` this round (overwrites an earlier send on the
    /// same port).
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree`.
    pub fn send(&mut self, p: PortId, msg: M) {
        self.outbox[p] = Some(msg);
    }

    /// Send a copy of `msg` on every port (the last port gets `msg` itself).
    pub fn broadcast(&mut self, msg: M) {
        if let Some((last, rest)) = self.outbox[..self.degree].split_last_mut() {
            for slot in rest {
                *slot = Some(msg.clone());
            }
            *last = Some(msg);
        }
    }

    /// The vertex's private random generator — RandLOCAL mode only.
    ///
    /// # Panics
    ///
    /// Panics in DetLOCAL mode: deterministic algorithms have no random
    /// bits, and an attempt to use them is a model violation, not a
    /// recoverable condition.
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
            .as_deref_mut()
            .expect("model violation: NodeIo::rng() called in a DetLOCAL run")
    }

    /// Whether this run provides randomness (i.e. is a RandLOCAL run).
    pub fn is_randomized(&self) -> bool {
        self.rng.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_send_recv_roundtrip() {
        let params = GlobalParams { n: 3, delta: 2 };
        let mut inbox = vec![Some(7u32), None];
        let mut outbox = vec![None, None];
        let mut io = NodeIo {
            degree: 2,
            id: Some(5),
            params: &params,
            inbox: &mut inbox,
            outbox: &mut outbox,
            rng: None,
        };
        assert_eq!(io.degree(), 2);
        assert_eq!(io.id(), Some(5));
        assert_eq!(io.recv(0), Some(&7));
        assert_eq!(io.recv(1), None);
        assert_eq!(io.received().collect::<Vec<_>>(), vec![(0, &7)]);
        assert_eq!(io.take(0), Some(7));
        assert_eq!(io.take(0), None);
        assert_eq!(io.recv(0), None);
        io.send(1, 9);
        io.broadcast(3);
        assert!(!io.is_randomized());
        let _ = io;
        assert_eq!(outbox, vec![Some(3), Some(3)]);
    }

    #[test]
    #[should_panic(expected = "model violation")]
    fn rng_in_det_mode_panics() {
        let params = GlobalParams { n: 1, delta: 0 };
        let mut inbox: Vec<Option<u32>> = vec![];
        let mut outbox: Vec<Option<u32>> = vec![];
        let mut io = NodeIo {
            degree: 0,
            id: Some(0),
            params: &params,
            inbox: &mut inbox,
            outbox: &mut outbox,
            rng: None,
        };
        let _ = io.rng();
    }
}
