//! The LCL problem trait and the radius-1 local view.

use crate::labeling::Labeling;
use local_graphs::{Graph, NodeId, PortId};
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;

/// Why a local view is unacceptable.
///
/// A `Cow` so that the many fixed defect messages ("vertex is a sink", …)
/// borrow a `&'static str` and the fault-free checking path allocates
/// nothing; only parameterized messages (`format!`) pay for a `String`.
pub type Reason = Cow<'static, str>;

/// Why a labeling fails to solve an LCL problem, anchored at the vertex whose
/// radius-`r` neighborhood is unacceptable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The vertex whose `r`-ball is bad.
    pub vertex: NodeId,
    /// Human-readable description of the local defect.
    pub reason: Reason,
}

impl Violation {
    /// Construct a violation at `vertex`.
    pub fn new(vertex: NodeId, reason: impl Into<Reason>) -> Self {
        Violation {
            vertex,
            reason: reason.into(),
        }
    }
}

// Hand-written so the JSON shape matches what `#[derive]` produced when
// `reason` was a `String` (the vendored serde has no `Cow` impls).
impl Serialize for Violation {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (String::from("vertex"), self.vertex.to_value()),
            (
                String::from("reason"),
                Value::String(self.reason.clone().into_owned()),
            ),
        ])
    }
}

impl Deserialize for Violation {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Violation {
            vertex: Deserialize::from_value(v.field("vertex")?)?,
            reason: Cow::Owned(String::from_value(v.field("reason")?)?),
        })
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violation at vertex {}: {}", self.vertex, self.reason)
    }
}

impl std::error::Error for Violation {}

/// What one vertex knows about a neighbor after a single exchange: its label,
/// its degree, the port it used toward us, and any per-edge input on the
/// connecting edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborView<L> {
    /// The neighbor's output label.
    pub label: L,
    /// The neighbor's degree.
    pub degree: usize,
    /// The neighbor's port on the connecting edge.
    pub back_port: PortId,
    /// Problem-specific input on the connecting edge (e.g. its color in ψ);
    /// `0` when the problem has no edge input.
    pub edge_input: u64,
}

/// The complete radius-1 knowledge of a vertex: its own label and degree plus
/// one [`NeighborView`] per port.
///
/// This is *exactly* what a 1-round distributed verifier can learn, so a
/// checker phrased over `LocalView` is locally checkable by construction —
/// [`crate::verifier::check_distributed`] evaluates the same predicate inside
/// the round engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalView<L> {
    /// This vertex's output label.
    pub label: L,
    /// This vertex's degree.
    pub degree: usize,
    /// Per-port neighbor views.
    pub neighbors: Vec<NeighborView<L>>,
}

impl<L: Clone> LocalView<L> {
    /// Build the view of `v` from global data (the centralized path).
    pub fn from_graph<P>(problem: &P, g: &Graph, labels: &Labeling<L>, v: NodeId) -> Self
    where
        P: LclProblem<Label = L> + ?Sized,
    {
        let mut slot = None;
        fill_view(problem, g, |u| Some(labels.get(u)), v, &mut slot);
        slot.expect("a complete labeling labels every vertex")
    }
}

/// Refill `slot` with the radius-1 view of `v`, reading labels through
/// `label`, and return it; `None` (leaving the slot half refilled) when `v`
/// or one of its neighbours has no label. The slot keeps its neighbour
/// buffer and its labels' allocations, so a checking loop that keeps one
/// slot allocates nothing per vertex.
pub(crate) fn fill_view<'s, 'l, P>(
    problem: &P,
    g: &Graph,
    label: impl Fn(NodeId) -> Option<&'l P::Label>,
    v: NodeId,
    slot: &'s mut Option<LocalView<P::Label>>,
) -> Option<&'s LocalView<P::Label>>
where
    P: LclProblem + ?Sized,
    P::Label: 'l,
{
    let own = label(v)?;
    let nbrs = g.neighbors(v);
    let view = slot.get_or_insert_with(|| LocalView {
        label: own.clone(),
        degree: 0,
        neighbors: Vec::new(),
    });
    view.label.clone_from(own);
    view.degree = nbrs.len();
    view.neighbors.truncate(nbrs.len());
    for (p, nb) in nbrs.iter().enumerate() {
        let l = label(nb.node)?;
        let degree = g.degree(nb.node);
        let edge_input = problem.edge_input(nb.edge);
        match view.neighbors.get_mut(p) {
            Some(old) => {
                old.label.clone_from(l);
                old.degree = degree;
                old.back_port = nb.back_port;
                old.edge_input = edge_input;
            }
            None => view.neighbors.push(NeighborView {
                label: l.clone(),
                degree,
                back_port: nb.back_port,
                edge_input,
            }),
        }
    }
    Some(view)
}

/// From this many vertices on, [`LclProblem::validate`] checks contiguous
/// vertex ranges on scoped threads. Timed on a 2-vCPU VM (release build,
/// proper colouring of a 4-regular circulant, best of at least 20 calls,
/// two sessions): one thread took 31–41 µs at n = 2,048 against 72–92 µs on
/// two, 121–175 µs against 135–139 µs at 8,192, 240–379 µs against
/// 292–350 µs at 16,384 and 5.9–7.7 ms against 4.1–4.7 ms at 262,144. The
/// two cross between 8,192 and 32,768 vertices; this cut sits between them.
const VALIDATE_PAR_THRESHOLD: usize = 16_384;

/// Run `check` over `0..n` — on one thread below
/// [`VALIDATE_PAR_THRESHOLD`], else over one contiguous range per available
/// thread — and return the first violation, as [`first_violation_in`] does.
fn first_violation<F>(n: usize, check: F) -> Result<(), Violation>
where
    F: Fn(std::ops::Range<usize>) -> Result<(), Violation> + Sync,
{
    let ranges = if n < VALIDATE_PAR_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    };
    first_violation_in(n, ranges, check)
}

/// Run `check` over `ranges` contiguous ranges of `0..n`, each but the
/// first on a scoped thread of its own, and return the violation of the
/// lowest range that has one. Each range stops at its own first violation,
/// so that is the lowest vertex's.
fn first_violation_in<F>(n: usize, ranges: usize, check: F) -> Result<(), Violation>
where
    F: Fn(std::ops::Range<usize>) -> Result<(), Violation> + Sync,
{
    if ranges == 1 {
        return check(0..n);
    }
    let range = |t: usize| n * t / ranges..n * (t + 1) / ranges;
    std::thread::scope(|scope| {
        let check = &check;
        let helpers: Vec<_> = (1..ranges)
            .map(|t| scope.spawn(move || check(range(t))))
            .collect();
        let mine = check(range(0));
        helpers
            .into_iter()
            .fold(mine, |first, helper| match helper.join() {
                Ok(found) => first.and(found),
                Err(payload) => std::panic::resume_unwind(payload),
            })
    })
}

/// A locally checkable labeling problem with labels of type `L` and checking
/// radius `r`.
///
/// All of the paper's problems (coloring, MIS, maximal matching, sinkless
/// orientation, sinkless coloring) are radius-1 LCLs, so the acceptance
/// predicate is normally phrased over [`LocalView`] via [`check_view`]. The
/// formal class allows any constant radius; a problem with `radius() > 1`
/// (e.g. [`crate::problems::RulingSet`]) instead overrides [`check_ball`],
/// which sees the whole labeled `r`-ball, and every generic checking path
/// ([`validate`], [`violations`], [`crate::check_partial`]) routes through
/// it.
///
/// A problem is `Sync` so that [`validate`] can check a large graph on
/// several threads at once.
///
/// [`check_view`]: LclProblem::check_view
/// [`check_ball`]: LclProblem::check_ball
/// [`validate`]: LclProblem::validate
/// [`violations`]: LclProblem::violations
pub trait LclProblem: Sync {
    /// The label type Σ (finite in the formal definition; any `Clone + Eq`
    /// type here). `'static` because the distributed verifier sends labels
    /// as engine messages, which must be.
    type Label: Clone + Eq + Send + Sync + 'static;

    /// The checking radius `r` (1 for every built-in problem except the
    /// ruling set).
    fn radius(&self) -> usize {
        1
    }

    /// Short problem name for reports.
    fn name(&self) -> String;

    /// Problem-specific input carried by edge `e` (e.g. the color ψ(e) for
    /// sinkless coloring). Defaults to 0 for problems without edge input.
    fn edge_input(&self, _e: local_graphs::EdgeId) -> u64 {
        0
    }

    /// The acceptance predicate over a radius-1 view.
    ///
    /// # Errors
    ///
    /// A description of the local defect, if the view is unacceptable.
    fn check_view(&self, view: &LocalView<Self::Label>) -> Result<(), Reason>;

    /// The acceptance predicate over the radius-`r` ball around `v`.
    ///
    /// The caller guarantees every vertex within distance [`radius`] of `v`
    /// carries a label (`labels[u].is_some()`); the default implementation
    /// assembles the radius-1 [`LocalView`] and delegates to [`check_view`].
    /// Problems with `radius() > 1` override this instead of `check_view`.
    ///
    /// [`radius`]: LclProblem::radius
    /// [`check_view`]: LclProblem::check_view
    ///
    /// # Errors
    ///
    /// A description of the local defect, if the ball is unacceptable.
    ///
    /// # Panics
    ///
    /// May panic if a vertex inside the ball is unlabeled.
    fn check_ball(
        &self,
        g: &Graph,
        labels: &[Option<Self::Label>],
        v: NodeId,
    ) -> Result<(), Reason> {
        let mut slot = None;
        let view = fill_view(self, g, |u| labels[u].as_ref(), v, &mut slot)
            .expect("check_ball caller guarantees the ball is fully labeled");
        self.check_view(view)
    }

    /// Check the radius-1 condition at a single vertex of a concrete graph
    /// (problems with a larger radius are checked via
    /// [`check_ball`](LclProblem::check_ball)).
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] at `v` if its labeled ball is not
    /// acceptable.
    fn check_vertex(
        &self,
        g: &Graph,
        labels: &Labeling<Self::Label>,
        v: NodeId,
    ) -> Result<(), Violation> {
        let view = LocalView::from_graph(self, g, labels, v);
        self.check_view(&view)
            .map_err(|reason| Violation { vertex: v, reason })
    }

    /// Check the whole labeling by checking every vertex. A radius-1
    /// problem's views are refilled into one buffer per thread and judged
    /// by [`check_view`](LclProblem::check_view) directly; a larger radius
    /// goes through [`check_ball`](LclProblem::check_ball). On graphs of
    /// 16,384 vertices or more, contiguous vertex ranges are checked on
    /// scoped threads, one per available thread, which is what the `Sync`
    /// bound on the trait is for.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] at the lowest vertex that has one, as a
    /// scan of the vertices in order would, however many threads checked.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != g.n()`.
    fn validate(&self, g: &Graph, labels: &Labeling<Self::Label>) -> Result<(), Violation> {
        assert_eq!(labels.len(), g.n(), "labeling must cover every vertex");
        if self.radius() == 1 {
            return first_violation(g.n(), |range| {
                let mut slot = None;
                for v in range {
                    let view = fill_view(self, g, |u| Some(labels.get(u)), v, &mut slot)
                        .expect("a complete labeling labels every vertex");
                    self.check_view(view)
                        .map_err(|reason| Violation { vertex: v, reason })?;
                }
                Ok(())
            });
        }
        let opts: Vec<Option<Self::Label>> = labels.as_slice().iter().cloned().map(Some).collect();
        first_violation(g.n(), |range| {
            for v in range {
                self.check_ball(g, &opts, v)
                    .map_err(|reason| Violation { vertex: v, reason })?;
            }
            Ok(())
        })
    }

    /// All violations (for diagnostics), not just the first; radius-1
    /// views are checked as in [`validate`](LclProblem::validate).
    fn violations(&self, g: &Graph, labels: &Labeling<Self::Label>) -> Vec<Violation> {
        if self.radius() == 1 {
            let mut slot = None;
            return g
                .vertices()
                .filter_map(|v| {
                    let view = fill_view(self, g, |u| Some(labels.get(u)), v, &mut slot)
                        .expect("a complete labeling labels every vertex");
                    self.check_view(view)
                        .err()
                        .map(|reason| Violation { vertex: v, reason })
                })
                .collect();
        }
        let opts: Vec<Option<Self::Label>> = labels.as_slice().iter().cloned().map(Some).collect();
        g.vertices()
            .filter_map(|v| {
                self.check_ball(g, &opts, v)
                    .err()
                    .map(|reason| Violation { vertex: v, reason })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reused_view_slot_matches_a_fresh_one() {
        // A broom mixes degrees 1, 2 and a hub, so the reused neighbour
        // buffer both grows and shrinks; the holes stop refills midway.
        let g = local_graphs::gen::broom(6, 5);
        let problem = crate::problems::VertexColoring::new(3);
        let labels: Vec<Option<usize>> = g
            .vertices()
            .map(|v| (v % 4 != 3).then_some(v % 3))
            .collect();
        let mut reused = None;
        for round in 0..2 {
            for v in g.vertices() {
                let mut fresh = None;
                let want = fill_view(&problem, &g, |u| labels[u].as_ref(), v, &mut fresh).cloned();
                let got = fill_view(&problem, &g, |u| labels[u].as_ref(), v, &mut reused).cloned();
                assert_eq!(got, want, "vertex {v}, pass {round}");
            }
        }
    }

    #[test]
    fn the_lowest_range_with_a_violation_wins_however_many_ranges() {
        // Violations planted in several ranges, or in the last vertex
        // alone; each check stops at the first one in its range, as
        // validate's checks do.
        let n = 1000;
        for sites in [&[141, 520, 760, 999][..], &[520, 760, 999], &[999], &[]] {
            let check =
                |range: std::ops::Range<usize>| match range.clone().find(|v| sites.contains(v)) {
                    Some(v) => Err(Violation::new(v, format!("in {range:?}"))),
                    None => Ok(()),
                };
            for ranges in 1..=7 {
                let got = first_violation_in(n, ranges, check).map_err(|v| v.vertex);
                assert_eq!(
                    got,
                    sites.first().map_or(Ok(()), |&v| Err(v)),
                    "{ranges} ranges"
                );
            }
        }
    }

    #[test]
    fn violation_display() {
        let v = Violation::new(3, "two neighbors share color 1");
        assert_eq!(
            v.to_string(),
            "violation at vertex 3: two neighbors share color 1"
        );
    }
}
