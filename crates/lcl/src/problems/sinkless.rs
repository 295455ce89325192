//! The Brandt et al. problems: Δ-sinkless orientation and Δ-sinkless
//! coloring, both on Δ-regular graphs equipped with a proper Δ-edge coloring.
//!
//! These drive the paper's lower bounds (Theorem 4): a Δ-coloring of a
//! Δ-edge-colored Δ-regular graph is automatically a Δ-sinkless coloring, and
//! round elimination between the two problems forces the `Ω(log_Δ log n)` /
//! `Ω(log_Δ n)` bounds.

use crate::problem::{LclProblem, LocalView, Reason};
use local_graphs::edge_coloring::EdgeColoring;
use local_graphs::{EdgeId, PortId};
use serde::{Deserialize, Serialize};

/// A vertex's declared orientation of its incident edges, indexed by port:
/// `true` = outgoing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Orientation(pub Vec<bool>);

impl Orientation {
    /// Whether the vertex declared at least one outgoing edge.
    pub fn has_out_edge(&self) -> bool {
        self.0.iter().any(|&o| o)
    }

    /// The declared direction of port `p` (`true` = outgoing).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn outgoing(&self, p: PortId) -> bool {
        self.0[p]
    }
}

/// Δ-sinkless orientation: orient every edge such that every vertex has
/// out-degree ≥ 1, with per-vertex labels `{→,←}^Δ` that must be consistent
/// across each edge (`r = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinklessOrientation {
    delta: usize,
}

impl SinklessOrientation {
    /// The problem on Δ-regular graphs.
    pub fn new(delta: usize) -> Self {
        SinklessOrientation { delta }
    }

    /// The degree parameter Δ.
    pub fn delta(&self) -> usize {
        self.delta
    }
}

impl LclProblem for SinklessOrientation {
    type Label = Orientation;

    fn name(&self) -> String {
        format!("{}-sinkless orientation", self.delta)
    }

    fn check_view(&self, view: &LocalView<Orientation>) -> Result<(), Reason> {
        if view.degree != self.delta {
            return Err(format!(
                "degree {} but the problem is defined on {}-regular graphs",
                view.degree, self.delta
            )
            .into());
        }
        if view.label.0.len() != view.degree {
            return Err("orientation vector has wrong length".into());
        }
        for (p, nb) in view.neighbors.iter().enumerate() {
            if nb.back_port >= nb.label.0.len() {
                return Err(
                    format!("neighbor on port {p} declared a malformed orientation").into(),
                );
            }
            if view.label.outgoing(p) == nb.label.outgoing(nb.back_port) {
                return Err(format!("edge on port {p} oriented inconsistently").into());
            }
        }
        if !view.label.has_out_edge() {
            return Err("vertex is a sink".into());
        }
        Ok(())
    }
}

/// Δ-sinkless coloring: given a proper Δ-edge coloring ψ, find a vertex
/// Δ-coloring such that no edge `{u, v}` has `color(u) = color(v) = ψ({u,v})`
/// (`r = 1`).
///
/// Note monochromatic edges whose shared color *differs* from the edge's
/// color are allowed — this is weaker than proper coloring, which is exactly
/// why every Δ-coloring is a sinkless coloring but not vice versa.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinklessColoring {
    delta: usize,
    psi: EdgeColoring,
}

impl SinklessColoring {
    /// The problem with input edge coloring `psi` on a Δ-regular graph.
    ///
    /// # Panics
    ///
    /// Panics if `psi` uses more than Δ colors.
    pub fn new(delta: usize, psi: EdgeColoring) -> Self {
        assert!(
            psi.num_colors() <= delta,
            "sinkless coloring needs a Δ-edge coloring, got {} colors for Δ = {}",
            psi.num_colors(),
            delta
        );
        SinklessColoring { delta, psi }
    }

    /// The degree parameter Δ.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The input edge coloring ψ.
    pub fn psi(&self) -> &EdgeColoring {
        &self.psi
    }
}

impl LclProblem for SinklessColoring {
    type Label = usize;

    fn name(&self) -> String {
        format!("{}-sinkless coloring", self.delta)
    }

    fn edge_input(&self, e: EdgeId) -> u64 {
        self.psi.color(e) as u64
    }

    fn check_view(&self, view: &LocalView<usize>) -> Result<(), Reason> {
        let c = view.label;
        if c >= self.delta {
            return Err(format!("color {c} outside palette of size {}", self.delta).into());
        }
        for (p, nb) in view.neighbors.iter().enumerate() {
            if nb.label == c && nb.edge_input == c as u64 {
                return Err(format!(
                    "forbidden configuration on port {p}: edge color {} equals both endpoint colors",
                    nb.edge_input
                )
                .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Labeling, LclProblem};
    use local_graphs::edge_coloring::konig;
    use local_graphs::gen;

    fn oriented_cycle(n: usize) -> Labeling<Orientation> {
        // On cycle ports: vertex v has ports to v−1 and v+1; orient "forward".
        let g = gen::cycle(n);
        (0..n)
            .map(|v| {
                let ports: Vec<bool> = g
                    .neighbors(v)
                    .iter()
                    .map(|nb| nb.node() == (v + 1) % n)
                    .collect();
                Orientation(ports)
            })
            .collect()
    }

    #[test]
    fn accepts_directed_cycle() {
        let g = gen::cycle(6);
        let p = SinklessOrientation::new(2);
        assert!(p.validate(&g, &oriented_cycle(6)).is_ok());
    }

    #[test]
    fn rejects_sink() {
        let g = gen::cycle(4);
        let p = SinklessOrientation::new(2);
        // Vertex 0 declares both edges incoming; neighbors agree (outgoing
        // toward 0); vertex 2 gets both outgoing.
        let labels: Labeling<Orientation> = (0..4)
            .map(|v| {
                let ports: Vec<bool> = g
                    .neighbors(v)
                    .iter()
                    .map(|nb| match (v, nb.node()) {
                        (0, _) => false,
                        (_, 0) => true,
                        (2, _) => true,
                        (_, 2) => false,
                        _ => unreachable!("C4 adjacency"),
                    })
                    .collect();
                Orientation(ports)
            })
            .collect();
        let err = p.validate(&g, &labels).unwrap_err();
        assert_eq!(err.vertex, 0);
        assert!(err.reason.contains("sink"));
    }

    #[test]
    fn rejects_inconsistent_edge() {
        let g = gen::cycle(3);
        let p = SinklessOrientation::new(2);
        let labels: Labeling<Orientation> = (0..3).map(|_| Orientation(vec![true, true])).collect();
        let err = p.validate(&g, &labels).unwrap_err();
        assert!(err.reason.contains("inconsistently"));
    }

    #[test]
    fn rejects_wrong_degree() {
        let g = gen::path(3);
        let p = SinklessOrientation::new(2);
        let labels: Labeling<Orientation> = vec![
            Orientation(vec![true]),
            Orientation(vec![true, false]),
            Orientation(vec![false]),
        ]
        .into();
        let err = p.validate(&g, &labels).unwrap_err();
        assert!(err.reason.contains("regular"));
    }

    #[test]
    fn sinkless_coloring_accepts_proper_coloring() {
        // Any proper Δ-coloring is a sinkless coloring (paper, Section IV).
        let g = gen::cycle(6);
        let psi = konig(&g).unwrap();
        let p = SinklessColoring::new(2, psi);
        let proper: Labeling<usize> = (0..6).map(|v| v % 2).collect();
        assert!(p.validate(&g, &proper).is_ok());
    }

    #[test]
    fn sinkless_coloring_flags_exactly_psi_colored_monochromatic_edges() {
        let g = gen::cycle(4);
        let psi = konig(&g).unwrap();
        let p = SinklessColoring::new(2, psi);
        // All vertices take color 1: the two ψ=1 edges are forbidden, each
        // endpoint reports once, so 4 violations; the ψ=0 edges are fine.
        let all_ones: Labeling<usize> = vec![1; 4].into();
        assert_eq!(p.violations(&g, &all_ones).len(), 4);
    }

    #[test]
    fn sinkless_coloring_rejects_out_of_palette() {
        let g = gen::cycle(4);
        let psi = konig(&g).unwrap();
        let p = SinklessColoring::new(2, psi);
        let labels: Labeling<usize> = vec![0, 1, 0, 7].into();
        let err = p.validate(&g, &labels).unwrap_err();
        assert!(err.reason.contains("palette"));
    }

    #[test]
    #[should_panic(expected = "edge coloring")]
    fn sinkless_coloring_requires_delta_edge_colors() {
        let g = gen::cycle(5); // odd cycle needs 3 edge colors
        let psi = local_graphs::edge_coloring::misra_gries(&g);
        let _ = SinklessColoring::new(2, psi);
    }

    #[test]
    fn orientation_helpers() {
        let o = Orientation(vec![false, true, false]);
        assert!(o.has_out_edge());
        assert!(o.outgoing(1));
        assert!(!o.outgoing(0));
        assert!(!Orientation(vec![false, false]).has_out_edge());
    }

    #[test]
    fn accessors() {
        let g = gen::cycle(4);
        let psi = konig(&g).unwrap();
        let p = SinklessColoring::new(2, psi.clone());
        assert_eq!(p.delta(), 2);
        assert_eq!(p.psi(), &psi);
        assert_eq!(SinklessOrientation::new(3).delta(), 3);
        assert_eq!(p.name(), "2-sinkless coloring");
    }
}
