//! The immutable port-numbered graph type, stored in CSR (compressed sparse
//! row) form.
//!
//! The adjacency is a single flat [`Neighbor`] array indexed by a row-offset
//! table: `adj[offsets[v]..offsets[v + 1]]` is vertex `v`'s port-ordered
//! neighbor slice. Compared to the former `Vec<Vec<Neighbor>>` this removes
//! one pointer chase and one heap allocation per vertex, and lets the round
//! engine address per-port message slots with plain offset arithmetic (see
//! `local_model`'s message plane, which borrows [`Graph::csr_offsets`]).
//!
//! Each [`Neighbor`] entry packs its three indices into `u32`s, 12 bytes a
//! port where three `usize`s took 24: the adjacency is most of a large
//! graph's memory, and every sweep of the engine streams it. Construction
//! checks once that the vertex count and the port count `2m` fit in `u32`
//! (a typed [`GraphError::TooLarge`] from the constructors that return a
//! `Result`, a panic from the rest); the public index types stay `usize`.
//!
//! Edge endpoints are stored either explicitly (one `(u, v)` pair per edge)
//! or *implicitly* for the regular families the large-`n` experiments sweep
//! (cycles, circulants, complete d-ary trees): an implicit graph answers
//! [`Graph::endpoints`] by closed form and only materializes the full edge
//! list if [`Graph::edges`] is actually called.

use crate::error::GraphError;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

/// Index of a vertex, in `0..n`.
///
/// Note: this is a *simulator-internal* index. In the `RandLOCAL` model
/// vertices are anonymous; the simulator uses `NodeId` for bookkeeping but
/// never exposes it to a randomized node program as an identifier.
pub type NodeId = usize;

/// Index of an undirected edge, in `0..m`.
pub type EdgeId = usize;

/// A port number at a vertex, in `0..deg(v)`.
///
/// Port numbering is the standard formalization of "each edge supports
/// communication in both directions" in the LOCAL model: a processor can
/// distinguish its incident edges (by port) but initially knows nothing about
/// who is on the other side.
pub type PortId = usize;

/// One entry of a vertex's adjacency list: the neighbor on a given port.
///
/// Stored as three `u32`s, 12 bytes a port: every graph's vertex count and
/// port count (`2m`) fit in `u32`, which construction checks once (see
/// [`fits_u32`]). The accessors widen back to the `usize` index types, so
/// no signature outside this struct sees the narrow form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Neighbor {
    node: u32,
    back_port: u32,
    edge: u32,
}

impl Neighbor {
    /// An entry from indices the caller has already bounded by [`fits_u32`].
    #[inline]
    fn packed(node: NodeId, back_port: PortId, edge: EdgeId) -> Self {
        Neighbor {
            node: node as u32,
            back_port: back_port as u32,
            edge: edge as u32,
        }
    }

    /// The vertex on the other end of this port's edge.
    #[inline]
    pub fn node(self) -> NodeId {
        self.node as NodeId
    }

    /// The port at [`node`](Self::node) whose edge leads back here.
    #[inline]
    pub fn back_port(self) -> PortId {
        self.back_port as PortId
    }

    /// The global edge index of this edge.
    #[inline]
    pub fn edge(self) -> EdgeId {
        self.edge as EdgeId
    }
}

const ZERO_NEIGHBOR: Neighbor = Neighbor {
    node: 0,
    back_port: 0,
    edge: 0,
};

/// Whether a graph on `n` vertices with `m` edges fits the 32-bit
/// adjacency: `n` and the port count `2m` both at most `u32::MAX`. Every
/// vertex, port and edge index is then below `2^32`.
///
/// # Errors
///
/// [`GraphError::TooLarge`] otherwise.
pub(crate) fn fits_u32(n: usize, m: usize) -> Result<(), GraphError> {
    let limit = u32::MAX as usize;
    if n > limit || m > limit / 2 {
        return Err(GraphError::TooLarge { n, m });
    }
    Ok(())
}

/// How a graph stores its edge-endpoint table.
#[derive(Debug, Clone)]
enum EdgeRepr {
    /// One `(u, v)` pair (with `u < v`) per edge, indexed by [`EdgeId`].
    Explicit(Vec<(NodeId, NodeId)>),
    /// Endpoints computed by closed form; the full list is materialized
    /// lazily and only if [`Graph::edges`] is called.
    Implicit(ImplicitEdges),
}

#[derive(Debug)]
struct ImplicitEdges {
    kind: ImplicitKind,
    m: usize,
    cache: OnceLock<Vec<(NodeId, NodeId)>>,
}

impl Clone for ImplicitEdges {
    fn clone(&self) -> Self {
        // A fresh cache: the clone re-materializes on demand rather than
        // copying a possibly-huge edge list.
        ImplicitEdges {
            kind: self.kind.clone(),
            m: self.m,
            cache: OnceLock::new(),
        }
    }
}

/// The implicit families. Each variant's edge *order* matches what the
/// corresponding explicit generator feeds `GraphBuilder`, so implicit and
/// explicit constructions of the same family are `==` (ports, edge ids, and
/// endpoints all agree) — a differential test in `gen::stream` holds this.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ImplicitKind {
    /// `C_n`, `n ≥ 3`: edge `e < n−1` is `(e, e+1)`; edge `n−1` is `(0, n−1)`.
    Cycle { n: usize },
    /// The circulant `C_n(1, …, ⌊d/2⌋ [, n/2])`: `v ~ v ± off` for
    /// `off ≤ ⌊d/2⌋`, plus the antipodal matching when `d` is odd (then `n`
    /// is even). Edges grouped by lower endpoint `v`, offsets ascending,
    /// antipodal edge last (only from `v < n/2`).
    Circulant { n: usize, d: usize },
    /// The complete `(d−1)`-ary tree laid out layer by layer: edge `e`
    /// connects child `e + 1` to its parent in the previous layer.
    /// `layer_start` has one entry per layer plus a final total-count
    /// sentinel.
    DaryTree { layer_start: Vec<usize>, d: usize },
}

impl ImplicitKind {
    /// Closed-form endpoints of edge `e`, already sorted `(u, v)`, `u < v`.
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        match self {
            ImplicitKind::Cycle { n } => {
                if e < n - 1 {
                    (e, e + 1)
                } else {
                    (0, n - 1)
                }
            }
            ImplicitKind::Circulant { n, d } => circulant_endpoints(*n, *d, e),
            ImplicitKind::DaryTree { layer_start, d } => {
                let child = e + 1;
                // Layer of `child`: last layer whose start is ≤ child.
                let i = layer_start.partition_point(|&s| s <= child) - 1;
                let j = child - layer_start[i];
                let per_parent = if i == 1 { *d } else { *d - 1 };
                (layer_start[i - 1] + j / per_parent, child)
            }
        }
    }
}

/// Endpoints of edge `e` of the circulant `C_n(1, …, ⌊d/2⌋ [, n/2])` under
/// the grouped-by-vertex edge order documented on [`ImplicitKind::Circulant`].
fn circulant_endpoints(n: usize, d: usize, e: EdgeId) -> (NodeId, NodeId) {
    let half_d = d / 2;
    let sorted = |v: usize, off: usize| -> (NodeId, NodeId) {
        let u = (v + off) % n;
        (v.min(u), v.max(u))
    };
    if d.is_multiple_of(2) {
        // d/2 offset-edges from every vertex.
        let v = e / half_d;
        let off = e % half_d + 1;
        sorted(v, off)
    } else {
        // Vertices below n/2 also emit their antipodal edge (after their
        // offset edges); vertices at or above n/2 emit offset edges only.
        let half_n = n / 2;
        let per_low = half_d + 1;
        let cut = half_n * per_low;
        if e < cut {
            let v = e / per_low;
            let r = e % per_low;
            if r < half_d {
                sorted(v, r + 1)
            } else {
                (v, v + half_n)
            }
        } else {
            let v = half_n + (e - cut) / half_d;
            let off = (e - cut) % half_d + 1;
            sorted(v, off)
        }
    }
}

/// An immutable simple undirected graph with port numbering.
///
/// Construct one with [`crate::GraphBuilder`] or a generator from
/// [`crate::gen`]. Self-loops and parallel edges are rejected at build time,
/// matching the paper's setting (simple graphs).
///
/// # Example
///
/// ```
/// use local_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1).len(), 2);
/// # Ok::<(), local_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    /// CSR row offsets, length `n + 1`: vertex `v` owns
    /// `adj[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Flat port-ordered adjacency, length `2m`.
    adj: Vec<Neighbor>,
    edges: EdgeRepr,
    max_degree: usize,
}

/// Build CSR adjacency from an edge iterator, replayable via `make_iter`.
///
/// Two passes: the first counts degrees into the offset table, the second
/// fills neighbor entries through per-vertex write cursors. The port
/// assignment is *definitionally* the `GraphBuilder` one — each endpoint's
/// ports follow edge order, and an entry's `back_port` is the other
/// endpoint's incidence count at the moment the edge is placed.
///
/// The iterator must yield exactly `m` edges, each undirected edge once
/// with valid, distinct endpoints (`u, v < n`, `u ≠ v`) — callers validate.
///
/// # Panics
///
/// Panics, before allocating, if the graph does not fit the 32-bit
/// adjacency ([`fits_u32`]); constructors that return a `Result` check
/// first.
pub(crate) fn assemble_csr<I>(
    n: usize,
    m: usize,
    make_iter: impl Fn() -> I,
) -> (Vec<usize>, Vec<Neighbor>, usize)
where
    I: Iterator<Item = (NodeId, NodeId)>,
{
    if let Err(e) = fits_u32(n, m) {
        panic!("{e}");
    }
    let mut offsets = vec![0usize; n + 1];
    for (u, v) in make_iter() {
        debug_assert!(u != v && u < n && v < n, "invalid edge ({u}, {v})");
        offsets[u + 1] += 1;
        offsets[v + 1] += 1;
    }
    debug_assert_eq!(offsets.iter().sum::<usize>(), 2 * m, "edge count");
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    let mut adj = vec![ZERO_NEIGHBOR; 2 * m];
    for (e, (u, v)) in make_iter().enumerate() {
        let pu = cursor[u] - offsets[u];
        let pv = cursor[v] - offsets[v];
        adj[cursor[u]] = Neighbor::packed(v, pv, e);
        adj[cursor[v]] = Neighbor::packed(u, pu, e);
        cursor[u] += 1;
        cursor[v] += 1;
    }
    let max_degree = (0..n)
        .map(|v| offsets[v + 1] - offsets[v])
        .max()
        .unwrap_or(0);
    (offsets, adj, max_degree)
}

impl Graph {
    pub(crate) fn from_csr(
        offsets: Vec<usize>,
        adj: Vec<Neighbor>,
        edges: Vec<(NodeId, NodeId)>,
        max_degree: usize,
    ) -> Self {
        debug_assert_eq!(adj.len(), 2 * edges.len());
        Graph {
            offsets,
            adj,
            edges: EdgeRepr::Explicit(edges),
            max_degree,
        }
    }

    /// An implicit-family graph: CSR adjacency plus a closed-form edge table.
    fn from_implicit(
        offsets: Vec<usize>,
        adj: Vec<Neighbor>,
        kind: ImplicitKind,
        max_degree: usize,
    ) -> Self {
        let m = adj.len() / 2;
        Graph {
            offsets,
            adj,
            edges: EdgeRepr::Implicit(ImplicitEdges {
                kind,
                m,
                cache: OnceLock::new(),
            }),
            max_degree,
        }
    }

    /// Number of vertices `n`.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m`.
    pub fn m(&self) -> usize {
        match &self.edges {
            EdgeRepr::Explicit(e) => e.len(),
            EdgeRepr::Implicit(ie) => ie.m,
        }
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The neighbors of `v`, indexed by port: `neighbors(v)[p]` is the
    /// endpoint of `v`'s port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[Neighbor] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The CSR row-offset table, length `n + 1`: `v`'s neighbors (and thus
    /// its per-port message slots in the engine) live at flat indices
    /// `csr_offsets()[v]..csr_offsets()[v + 1]`.
    ///
    /// Exposed so consumers that mirror per-port state (the round engine's
    /// message plane, fault plans) can share this table instead of rebuilding
    /// it from degrees.
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The neighbor of `v` on port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `p >= deg(v)`.
    pub fn neighbor(&self, v: NodeId, p: PortId) -> Neighbor {
        assert!(p < self.degree(v), "port {p} out of range at vertex {v}");
        self.adj[self.offsets[v] + p]
    }

    /// Endpoints `(u, v)` with `u < v` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        match &self.edges {
            EdgeRepr::Explicit(edges) => edges[e],
            EdgeRepr::Implicit(ie) => {
                assert!(e < ie.m, "edge {e} out of range for m = {}", ie.m);
                ie.kind.endpoints(e)
            }
        }
    }

    /// All edges as `(u, v)` pairs with `u < v`, indexed by [`EdgeId`].
    ///
    /// For implicitly-stored families this materializes (and caches) the
    /// full list on first call — prefer [`Graph::endpoints`] in loops that
    /// only need a few edges of a huge graph.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        match &self.edges {
            EdgeRepr::Explicit(edges) => edges,
            EdgeRepr::Implicit(ie) => ie
                .cache
                .get_or_init(|| (0..ie.m).map(|e| ie.kind.endpoints(e)).collect()),
        }
    }

    /// Iterator over vertex indices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// Whether `u` and `v` are adjacent. Runs in `O(min(deg u, deg v))`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).iter().any(|nb| nb.node() == b)
    }

    /// The port at `u` whose edge leads to `v`, if any.
    pub fn port_to(&self, u: NodeId, v: NodeId) -> Option<PortId> {
        self.neighbors(u).iter().position(|nb| nb.node() == v)
    }

    /// Whether the graph is `d`-regular (every vertex has degree exactly `d`).
    pub fn is_regular(&self, d: usize) -> bool {
        self.vertices().all(|v| self.degree(v) == d)
    }

    /// Total degree check: the handshake identity `Σ deg(v) = 2m`.
    ///
    /// Always true for graphs built through [`crate::GraphBuilder`]; exposed
    /// for property tests.
    pub fn handshake_holds(&self) -> bool {
        self.adj.len() == 2 * self.m()
    }

    /// The same graph with every vertex's ports independently permuted at
    /// random — the *adversarial port numbering* device: a correct LOCAL
    /// algorithm may read port numbers but must stay correct under any
    /// assignment of them, which robustness tests check by comparing runs
    /// on `g` and `g.shuffle_ports(seed)`.
    pub fn shuffle_ports(&self, seed: u64) -> Graph {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = self.n();
        // Flat, adj-aligned permutation: port_perm[offsets[v] + old] = new.
        // One shuffle call per vertex, in vertex order — the same RNG
        // consumption as the original nested-Vec implementation, so shuffles
        // stay seed-stable across the CSR change.
        let mut port_perm = vec![0usize; self.adj.len()];
        for v in 0..n {
            let (s, e) = (self.offsets[v], self.offsets[v + 1]);
            let mut p: Vec<usize> = (0..e - s).collect();
            p.shuffle(&mut rng);
            port_perm[s..e].copy_from_slice(&p);
        }
        let mut adj = vec![ZERO_NEIGHBOR; self.adj.len()];
        for v in 0..n {
            let s = self.offsets[v];
            for (old_p, nb) in self.neighbors(v).iter().enumerate() {
                let back_port = port_perm[self.offsets[nb.node()] + nb.back_port()];
                adj[s + port_perm[s + old_p]] = Neighbor::packed(nb.node(), back_port, nb.edge());
            }
        }
        Graph {
            offsets: self.offsets.clone(),
            adj,
            edges: self.edges.clone(),
            max_degree: self.max_degree,
        }
    }
}

/// Structural equality: same port-numbered adjacency. The edge table is
/// fully determined by the adjacency (each entry carries its [`EdgeId`]), so
/// explicit and implicit storage of the same graph compare equal.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.adj == other.adj
    }
}

impl Eq for Graph {}

/// Serialized as `{"n": …, "edges": [[u, v], …]}` — the canonical edge-list
/// form, independent of adjacency storage.
impl Serialize for Graph {
    fn to_value(&self) -> Value {
        let edges = self
            .edges()
            .iter()
            .map(|&(u, v)| Value::Array(vec![Value::U64(u as u64), Value::U64(v as u64)]))
            .collect();
        Value::Object(vec![
            ("n".to_string(), Value::U64(self.n() as u64)),
            ("edges".to_string(), Value::Array(edges)),
        ])
    }
}

impl Deserialize for Graph {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let n = usize::from_value(v.field("n")?)?;
        let edges: Vec<(usize, usize)> = Vec::from_value(v.field("edges")?)?;
        crate::GraphBuilder::from_edges(n, edges)
            .map_err(|e| DeError(format!("invalid graph: {e}")))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={})",
            self.n(),
            self.m(),
            self.max_degree
        )
    }
}

/// Implicit constructors used by [`crate::gen::stream`]. Kept here (not in
/// `gen`) because they are the only code allowed to pair an [`ImplicitKind`]
/// with an adjacency, and the pairing invariant lives with the types.
pub(crate) mod implicit {
    use super::*;

    /// The cycle `C_n` (`n ≥ 3`) with an implicit edge table.
    pub(crate) fn cycle(n: usize) -> Graph {
        assert!(n >= 3, "implicit cycle requires n >= 3");
        let make_iter = || (0..n).map(move |e| ImplicitKind::Cycle { n }.endpoints(e));
        let (offsets, adj, max_degree) = assemble_csr(n, n, make_iter);
        Graph::from_implicit(offsets, adj, ImplicitKind::Cycle { n }, max_degree)
    }

    /// The `d`-regular circulant on `n` vertices with an implicit edge
    /// table; requires `0 < d < n` and `n·d` even.
    pub(crate) fn circulant(n: usize, d: usize) -> Graph {
        assert!(
            d >= 1 && d < n && (n * d).is_multiple_of(2),
            "infeasible ({n}, {d})"
        );
        let m = n * d / 2;
        let make_iter = || (0..m).map(move |e| circulant_endpoints(n, d, e));
        let (offsets, adj, max_degree) = assemble_csr(n, m, make_iter);
        debug_assert_eq!(max_degree, d);
        Graph::from_implicit(offsets, adj, ImplicitKind::Circulant { n, d }, max_degree)
    }

    /// The complete `(d−1)`-ary tree over the layer layout `layer_start`
    /// (with total-count sentinel) with an implicit edge table.
    pub(crate) fn dary_tree(layer_start: Vec<usize>, d: usize) -> Graph {
        let total = *layer_start.last().expect("sentinel layer entry");
        let kind = ImplicitKind::DaryTree {
            layer_start: layer_start.clone(),
            d,
        };
        let k = kind.clone();
        let m = total.saturating_sub(1);
        let make_iter = move || {
            let k = k.clone();
            (0..m).map(move |e| k.endpoints(e))
        };
        let (offsets, adj, max_degree) = assemble_csr(total, m, make_iter);
        Graph::from_implicit(offsets, adj, kind, max_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::{fits_u32, Neighbor};
    use crate::{gen, GraphBuilder, GraphError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_port_entry_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Neighbor>(), 12);
    }

    // The guard is exercised on counts alone: nothing here allocates a
    // graph or a vector anywhere near 2^32 elements.
    #[test]
    fn counts_past_u32_are_rejected_before_anything_is_allocated() {
        let max = u32::MAX as usize;
        assert_eq!(fits_u32(max, max / 2), Ok(()));
        assert_eq!(
            fits_u32(max + 1, 0),
            Err(GraphError::TooLarge { n: max + 1, m: 0 })
        );
        assert_eq!(
            fits_u32(3, max / 2 + 1),
            Err(GraphError::TooLarge {
                n: 3,
                m: max / 2 + 1
            })
        );
        assert_eq!(
            GraphBuilder::from_edges(max + 1, std::iter::empty()),
            Err(GraphError::TooLarge { n: max + 1, m: 0 })
        );
        // n = 2^31 fits, but its 2-regular circulant has 2^32 ports.
        let n = 1usize << 31;
        assert_eq!(
            gen::stream::circulant(n, 2),
            Err(GraphError::TooLarge { n, m: n })
        );
        let e = gen::stream::circulant(max + 1, 2).unwrap_err();
        assert!(e.to_string().contains("32-bit adjacency"), "{e}");
        // The random generators check before they build their edge lists.
        let rng = &mut StdRng::seed_from_u64(0);
        assert_eq!(
            gen::random_regular(n, 2, rng),
            Err(GraphError::TooLarge { n, m: n })
        );
        assert_eq!(
            gen::random_bipartite_regular(n / 2, 2, rng),
            Err(GraphError::TooLarge { n, m: n })
        );
        assert_eq!(
            gen::high_girth_regular(n / 2, 2, 6, rng),
            Err(GraphError::TooLarge { n, m: n })
        );
    }

    #[test]
    fn triangle_basics() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_regular(2));
        assert!(g.handshake_holds());
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn ports_are_consistent() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_edge(0, 3).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        for v in g.vertices() {
            for (p, nb) in g.neighbors(v).iter().enumerate() {
                let back = g.neighbor(nb.node(), nb.back_port());
                assert_eq!(back.node(), v, "back edge must return to origin");
                assert_eq!(back.back_port(), p, "back port must be the origin port");
                assert_eq!(back.edge(), nb.edge(), "edge ids must agree on both sides");
            }
        }
    }

    #[test]
    fn endpoints_sorted() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1).unwrap();
        let g = b.build();
        assert_eq!(g.endpoints(0), (1, 2));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn port_to_finds_ports() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build();
        assert_eq!(g.port_to(0, 1), Some(0));
        assert_eq!(g.port_to(0, 2), Some(1));
        assert_eq!(g.port_to(1, 0), Some(0));
        assert_eq!(g.port_to(1, 2), None);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn display_is_informative() {
        let g = GraphBuilder::new(2).build();
        let s = format!("{g}");
        assert!(s.contains("n=2"));
    }

    #[test]
    fn csr_offsets_bracket_neighbors() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(1, 3).unwrap();
        let g = b.build();
        let offsets = g.csr_offsets();
        assert_eq!(offsets.len(), g.n() + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[g.n()], 2 * g.m());
        for v in g.vertices() {
            assert_eq!(offsets[v + 1] - offsets[v], g.degree(v));
        }
    }

    #[test]
    fn serde_roundtrip_preserves_ports() {
        use serde::{Deserialize, Serialize};
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3).unwrap();
        b.add_edge(3, 1).unwrap();
        b.add_edge(1, 4).unwrap();
        b.add_edge(0, 4).unwrap();
        let g = b.build();
        let back = crate::Graph::from_value(&g.to_value()).unwrap();
        assert_eq!(g, back);
        assert_eq!(g.edges(), back.edges());
    }
}

#[cfg(test)]
mod shuffle_tests {
    use crate::{gen, GraphBuilder};

    #[test]
    fn shuffled_ports_stay_consistent() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let g = gen::gnp(30, 0.2, &mut rng);
        let s = g.shuffle_ports(7);
        assert_eq!(s.n(), g.n());
        assert_eq!(s.m(), g.m());
        for v in s.vertices() {
            assert_eq!(s.degree(v), g.degree(v));
            for (p, nb) in s.neighbors(v).iter().enumerate() {
                let back = s.neighbor(nb.node(), nb.back_port());
                assert_eq!(back.node(), v, "shuffled back edge returns");
                assert_eq!(back.back_port(), p, "shuffled back port matches");
                assert_eq!(back.edge(), nb.edge());
            }
        }
        // Same edge set.
        assert_eq!(s.edges(), g.edges());
    }

    #[test]
    fn shuffle_actually_permutes_something() {
        let g = gen::star(20);
        let s = g.shuffle_ports(3);
        // The hub's neighbor order should differ with overwhelming probability.
        let orig: Vec<usize> = g.neighbors(0).iter().map(|nb| nb.node()).collect();
        let perm: Vec<usize> = s.neighbors(0).iter().map(|nb| nb.node()).collect();
        assert_ne!(orig, perm);
    }

    #[test]
    fn shuffle_is_seeded() {
        let g = gen::cycle(12);
        assert_eq!(g.shuffle_ports(5), g.shuffle_ports(5));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.shuffle_ports(1).n(), 0);
        let g = gen::path(2);
        let s = g.shuffle_ports(1);
        assert_eq!(s.m(), 1);
    }
}
