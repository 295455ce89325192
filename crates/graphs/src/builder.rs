//! Incremental construction of [`Graph`] values with validation.

use crate::error::GraphError;
use crate::graph::{assemble_csr, fits_u32, EdgeId, Graph, NodeId};
use std::collections::HashSet;

/// Builder for [`Graph`]: collects edges, rejects self-loops and duplicates,
/// and assigns ports in insertion order.
///
/// # Example
///
/// ```
/// use local_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
///     b.add_edge(u, v)?;
/// }
/// let g = b.build();
/// assert!(g.is_regular(2));
/// # Ok::<(), local_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    seen: HashSet<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Start building a graph on vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Add the undirected edge `{u, v}` and return its [`EdgeId`].
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if `u >= n` or `v >= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::DuplicateEdge`] if `{u, v}` was already added.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        if u >= self.n || v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u.max(v),
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let key = (u.min(v), u.max(v));
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge { u: key.0, v: key.1 });
        }
        self.edges.push(key);
        Ok(self.edges.len() - 1)
    }

    /// Whether `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen.contains(&(u.min(v), u.max(v)))
    }

    /// Finish construction. Ports are numbered in edge-insertion order at
    /// each endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `2m` exceeds `u32::MAX`; [`GraphBuilder::from_edges`]
    /// returns that as [`GraphError::TooLarge`] instead.
    pub fn build(self) -> Graph {
        let (offsets, adj, max_degree) =
            assemble_csr(self.n, self.edges.len(), || self.edges.iter().copied());
        Graph::from_csr(offsets, adj, self.edges, max_degree)
    }

    /// Build from an explicit edge list over `0..n`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`] for any listed edge,
    /// and [`GraphError::TooLarge`] if `n` or `2m` exceeds `u32::MAX`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        fits_u32(n, b.m())?;
        Ok(b.build())
    }

    /// Build straight from a pre-validated, endpoint-normalized edge list
    /// (`u < v`, no duplicates, all `< n`) without re-checking it — the fast
    /// path for generators whose own invariants already guarantee validity
    /// (e.g. the switch-chain sampler, whose edge set is maintained exactly).
    ///
    /// Port numbering is identical to [`GraphBuilder::from_edges`] on the
    /// same list. Invalid input is only caught by debug assertions.
    pub(crate) fn from_edges_unchecked(n: usize, edges: Vec<(NodeId, NodeId)>) -> Graph {
        debug_assert!(edges.iter().all(|&(u, v)| u < v && v < n));
        let (offsets, adj, max_degree) = assemble_csr(n, edges.len(), || edges.iter().copied());
        Graph::from_csr(offsets, adj, edges, max_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(1, 1),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
    }

    #[test]
    fn rejects_duplicate_both_orders() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        assert!(matches!(
            b.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 2 })
        ));
    }

    #[test]
    fn from_edges_roundtrip() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn has_edge_during_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert!(b.has_edge(1, 0));
        assert!(!b.has_edge(0, 2));
    }

    #[test]
    fn edge_ids_are_sequential() {
        let mut b = GraphBuilder::new(4);
        assert_eq!(b.add_edge(0, 1).unwrap(), 0);
        assert_eq!(b.add_edge(1, 2).unwrap(), 1);
        assert_eq!(b.add_edge(2, 3).unwrap(), 2);
    }
}
