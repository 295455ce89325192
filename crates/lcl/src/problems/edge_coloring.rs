//! Proper `k`-edge-coloring as an LCL (`r = 1`).
//!
//! Label alphabet: each vertex announces a color per port; the radius-1
//! condition checks that both endpoints of every edge announce the *same*
//! color (consistency) and that each vertex's ports carry pairwise distinct
//! colors (properness). The paper's survey contrasts `(2Δ−1)`-edge-coloring
//! (easy, `O(log* n)`-ish deterministically) with maximal matching — this
//! problem backs those baselines.

use crate::problem::{LclProblem, LocalView, Reason};
use serde::{Deserialize, Serialize};

/// A vertex's per-port edge colors.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PortColors(pub Vec<usize>);

/// Proper edge coloring with palette `{0, …, k−1}`, labeled per vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeKColoring {
    k: usize,
}

impl EdgeKColoring {
    /// The `k`-edge-coloring problem.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "palette must be nonempty");
        EdgeKColoring { k }
    }

    /// Palette size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Build the per-vertex labeling from a per-edge color vector.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len() != g.m()`.
    pub fn labels_from_edge_colors(
        g: &local_graphs::Graph,
        colors: &[usize],
    ) -> crate::Labeling<PortColors> {
        assert_eq!(colors.len(), g.m(), "one color per edge");
        g.vertices()
            .map(|v| PortColors(g.neighbors(v).iter().map(|nb| colors[nb.edge()]).collect()))
            .collect()
    }
}

impl LclProblem for EdgeKColoring {
    type Label = PortColors;

    fn name(&self) -> String {
        format!("{}-edge-coloring", self.k)
    }

    fn check_view(&self, view: &LocalView<PortColors>) -> Result<(), Reason> {
        if view.label.0.len() != view.degree {
            return Err("port-color vector has wrong length".into());
        }
        for (p, &c) in view.label.0.iter().enumerate() {
            if c >= self.k {
                return Err(format!("port {p} color {c} outside palette {}", self.k).into());
            }
            for (q, &c2) in view.label.0.iter().enumerate().skip(p + 1) {
                if c == c2 {
                    return Err(format!("ports {p} and {q} share color {c}").into());
                }
            }
        }
        for (p, nb) in view.neighbors.iter().enumerate() {
            match nb.label.0.get(nb.back_port) {
                Some(&theirs) if theirs == view.label.0[p] => {}
                Some(&theirs) => {
                    return Err(format!(
                        "edge on port {p}: we say {}, neighbor says {theirs}",
                        view.label.0[p]
                    )
                    .into());
                }
                None => return Err(format!("neighbor on port {p} mislabeled its ports").into()),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Labeling, LclProblem};
    use local_graphs::{edge_coloring, gen};

    #[test]
    fn accepts_misra_gries_output() {
        let g = gen::complete(5);
        let col = edge_coloring::misra_gries(&g);
        let labels = EdgeKColoring::labels_from_edge_colors(&g, col.as_slice());
        let p = EdgeKColoring::new(col.num_colors());
        assert!(p.validate(&g, &labels).is_ok());
    }

    #[test]
    fn rejects_clashing_ports() {
        let g = gen::path(3); // vertex 1 has two ports
        let labels: Labeling<PortColors> = vec![
            PortColors(vec![0]),
            PortColors(vec![0, 0]),
            PortColors(vec![0]),
        ]
        .into();
        let err = EdgeKColoring::new(2).validate(&g, &labels).unwrap_err();
        assert_eq!(err.vertex, 1);
        assert!(err.reason.contains("share color"));
    }

    #[test]
    fn rejects_inconsistent_edge() {
        let g = gen::path(2);
        let labels: Labeling<PortColors> = vec![PortColors(vec![0]), PortColors(vec![1])].into();
        let err = EdgeKColoring::new(2).validate(&g, &labels).unwrap_err();
        assert!(err.reason.contains("neighbor says"));
    }

    #[test]
    fn rejects_out_of_palette() {
        let g = gen::path(2);
        let labels: Labeling<PortColors> = vec![PortColors(vec![5]), PortColors(vec![5])].into();
        let err = EdgeKColoring::new(2).validate(&g, &labels).unwrap_err();
        assert!(err.reason.contains("outside palette"));
    }

    #[test]
    fn rejects_wrong_length() {
        let g = gen::path(2);
        let labels: Labeling<PortColors> = vec![PortColors(vec![]), PortColors(vec![0])].into();
        let err = EdgeKColoring::new(2).validate(&g, &labels).unwrap_err();
        assert!(err.reason.contains("wrong length"));
    }
}
