//! Partial validation for labelings that survived a faulty run.
//!
//! A crash-tolerant execution yields labels only at the vertices that halted;
//! the rest are `None`. Validity is then a *local* notion: a vertex can be
//! judged only if its full checking ball survived — it and every vertex
//! within distance `problem.radius()` carry a label (radius 1 for most
//! problems, 2 for `RulingSet`). [`check_partial`] scores exactly those
//! vertices and reports how many passed, so resilience experiments (E12)
//! can speak of a validity rate instead of an all-or-nothing verdict.

use crate::labeling::Labeling;
use crate::problem::{fill_view, LclProblem, Violation};
use local_graphs::Graph;
use std::collections::VecDeque;

/// The verdict of [`check_partial`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialValidity {
    /// Vertices whose full radius-`problem.radius()` ball survived (every
    /// vertex in it labeled) and was checked.
    pub checked: usize,
    /// Checked vertices whose view is acceptable.
    pub valid: usize,
    /// Vertices not checked: unlabeled vertices themselves, plus labeled
    /// ones with an unlabeled vertex in their ball (`checked + skipped`
    /// is always `n`).
    pub skipped: usize,
    /// The violations among the checked vertices.
    pub violations: Vec<Violation>,
}

impl PartialValidity {
    /// Fraction of vertices that were both checkable and acceptable, over
    /// the whole graph (`valid / (checked + skipped)`); `1.0` on an empty
    /// graph. A fault that silences a vertex therefore *counts against*
    /// validity — its neighborhood becomes uncheckable.
    pub fn validity_rate(&self) -> f64 {
        let total = self.checked + self.skipped;
        if total == 0 {
            1.0
        } else {
            self.valid as f64 / total as f64
        }
    }

    /// Did every checkable vertex pass?
    pub fn all_checked_valid(&self) -> bool {
        self.valid == self.checked
    }
}

/// Check `problem`'s radius-`r` predicate at every vertex whose full ball
/// survived: the vertex and everything within distance `problem.radius()`
/// is labeled. Vertices with a hole anywhere in the ball are skipped, never
/// failed.
///
/// A complete labeling (`labels.iter().all(Option::is_some)`) checks every
/// vertex and agrees with [`LclProblem::validate`].
///
/// # Panics
///
/// Panics if `labels.len() != g.n()`.
pub fn check_partial<P: LclProblem>(
    problem: &P,
    g: &Graph,
    labels: &[Option<P::Label>],
) -> PartialValidity {
    assert_eq!(labels.len(), g.n(), "labeling must cover every vertex");
    if problem.radius() != 1 {
        return check_partial_ball(problem, g, labels);
    }
    let mut out = PartialValidity {
        checked: 0,
        valid: 0,
        skipped: 0,
        violations: Vec::new(),
    };
    let mut slot = None;
    for v in g.vertices() {
        let Some(view) = fill_view(problem, g, |u| labels[u].as_ref(), v, &mut slot) else {
            out.skipped += 1;
            continue;
        };
        out.checked += 1;
        match problem.check_view(view) {
            Ok(()) => out.valid += 1,
            Err(reason) => out.violations.push(Violation { vertex: v, reason }),
        }
    }
    out
}

/// The radius-`r` generalization (`r > 1`): a vertex is checkable iff its
/// whole distance-`r` ball is labeled, in which case the problem's
/// [`LclProblem::check_ball`] judges it.
fn check_partial_ball<P: LclProblem>(
    problem: &P,
    g: &Graph,
    labels: &[Option<P::Label>],
) -> PartialValidity {
    let radius = problem.radius();
    let mut out = PartialValidity {
        checked: 0,
        valid: 0,
        skipped: 0,
        violations: Vec::new(),
    };
    // Scratch reused across vertices: BFS distances (usize::MAX = unvisited)
    // plus the list of stamped vertices to reset.
    let mut dist = vec![usize::MAX; g.n()];
    let mut stamped: Vec<usize> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for v in g.vertices() {
        if labels[v].is_none() {
            out.skipped += 1;
            continue;
        }
        stamped.clear();
        queue.clear();
        dist[v] = 0;
        stamped.push(v);
        queue.push_back(v);
        let mut complete = true;
        'ball: while let Some(u) = queue.pop_front() {
            if dist[u] == radius {
                continue;
            }
            for nb in g.neighbors(u) {
                if dist[nb.node] != usize::MAX {
                    continue;
                }
                if labels[nb.node].is_none() {
                    complete = false;
                    break 'ball;
                }
                dist[nb.node] = dist[u] + 1;
                stamped.push(nb.node);
                queue.push_back(nb.node);
            }
        }
        for &u in &stamped {
            dist[u] = usize::MAX;
        }
        if !complete {
            out.skipped += 1;
            continue;
        }
        out.checked += 1;
        match problem.check_ball(g, labels, v) {
            Ok(()) => out.valid += 1,
            Err(reason) => out.violations.push(Violation { vertex: v, reason }),
        }
    }
    out
}

/// [`check_partial`] over a complete [`Labeling`] (test/diagnostic helper).
pub fn check_complete<P: LclProblem>(
    problem: &P,
    g: &Graph,
    labels: &Labeling<P::Label>,
) -> PartialValidity {
    let opts: Vec<Option<P::Label>> = labels.as_slice().iter().map(|l| Some(l.clone())).collect();
    check_partial(problem, g, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::VertexColoring;
    use local_graphs::gen;

    #[test]
    fn complete_valid_labeling_checks_everything() {
        let g = gen::path(4);
        let labels = vec![Some(0usize), Some(1), Some(0), Some(1)];
        let out = check_partial(&VertexColoring::new(2), &g, &labels);
        assert_eq!(out.checked, 4);
        assert_eq!(out.valid, 4);
        assert_eq!(out.skipped, 0);
        assert!(out.violations.is_empty());
        assert!((out.validity_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn holes_skip_their_whole_neighborhood() {
        let g = gen::path(5);
        // Vertex 2 has no label: vertices 1, 2, 3 become uncheckable.
        let labels = vec![Some(0usize), Some(1), None, Some(1), Some(0)];
        let out = check_partial(&VertexColoring::new(2), &g, &labels);
        assert_eq!(out.checked, 2);
        assert_eq!(out.valid, 2);
        assert_eq!(out.skipped, 3);
        assert!((out.validity_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn surviving_violations_are_still_caught() {
        let g = gen::path(4);
        // 0–1 conflict survives even though vertex 3 is silent.
        let labels = vec![Some(0usize), Some(0), Some(1), None];
        let out = check_partial(&VertexColoring::new(2), &g, &labels);
        assert_eq!(out.checked, 2);
        assert_eq!(out.valid, 0);
        assert_eq!(out.violations.len(), 2);
        assert!(!out.all_checked_valid());
    }

    #[test]
    fn empty_graph_is_vacuously_valid() {
        let g = gen::path(0);
        let out = check_partial(&VertexColoring::new(2), &g, &[]);
        assert_eq!((out.checked, out.valid, out.skipped), (0, 0, 0));
        assert!((out.validity_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_validate_on_complete_labelings() {
        let g = gen::cycle(6);
        let labeling = Labeling::new(vec![0usize, 1, 0, 1, 0, 1]);
        let problem = VertexColoring::new(2);
        let out = check_complete(&problem, &g, &labeling);
        assert_eq!(out.checked, 6);
        assert_eq!(problem.validate(&g, &labeling).is_ok(), out.valid == 6);
    }
}
