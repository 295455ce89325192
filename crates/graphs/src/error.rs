//! Error types for graph construction and generation.

use std::error::Error;
use std::fmt;

/// Errors arising while building or generating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// An edge `{v, v}` was requested.
    SelfLoop {
        /// The vertex with the attempted self-loop.
        vertex: usize,
    },
    /// The edge `{u, v}` was added twice.
    DuplicateEdge {
        /// Smaller endpoint.
        u: usize,
        /// Larger endpoint.
        v: usize,
    },
    /// A generator was called with parameters admitting no graph
    /// (e.g. `n·d` odd for a `d`-regular graph).
    InfeasibleParameters {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The graph does not fit the 32-bit adjacency: `n` or the port count
    /// `2m` exceeds `u32::MAX`.
    TooLarge {
        /// The number of vertices.
        n: usize,
        /// The number of edges.
        m: usize,
    },
    /// A randomized generator exhausted its retry budget.
    RetriesExhausted {
        /// What was being attempted.
        what: String,
        /// How many attempts were made.
        attempts: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph on {n} vertices")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::InfeasibleParameters { reason } => {
                write!(f, "infeasible generator parameters: {reason}")
            }
            GraphError::TooLarge { n, m } => write!(
                f,
                "graph with {n} vertices and {m} edges exceeds the 32-bit adjacency \
                 (n and 2m must be at most {})",
                u32::MAX
            ),
            GraphError::RetriesExhausted { what, attempts } => {
                write!(f, "gave up on {what} after {attempts} attempts")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::SelfLoop { vertex: 3 };
        assert_eq!(e.to_string(), "self-loop at vertex 3");
        let e = GraphError::DuplicateEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("{1, 2}"));
        let e = GraphError::InfeasibleParameters {
            reason: "n*d odd".into(),
        };
        assert!(e.to_string().contains("n*d odd"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}
