//! `LclProblem::validate` checks large graphs on several threads, and still
//! returns the violation a serial scan of the vertices in order finds first.
//!
//! How many threads check comes from the machine: on a single-core runner
//! these tests take the serial path, and only the unit tests beside
//! `validate` cover the split into ranges.

use local_graphs::{gen, Graph, NodeId};
use local_lcl::problems::{Mis, RulingSet, VertexColoring};
use local_lcl::{Labeling, LclProblem, LocalView, Reason, Violation};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cycle four times `validate`'s 16,384-vertex threading threshold, so
/// every available thread gets a range. Says how many that is.
fn big_cycle() -> Graph {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if threads == 1 {
        eprintln!("one thread available: validate checks serially");
    } else {
        eprintln!("validate checks on {threads} threads");
    }
    gen::cycle(65_536)
}

/// The first violation of a scan in vertex order, through `check_vertex`.
fn serial_first<P: LclProblem>(
    problem: &P,
    g: &Graph,
    labels: &Labeling<P::Label>,
) -> Result<(), Violation> {
    g.vertices()
        .try_for_each(|v| problem.check_vertex(g, labels, v))
}

#[test]
fn the_lowest_planted_violation_wins_whichever_thread_finds_it() {
    let g = big_cycle();
    let n = g.n();
    // Alternating membership is an MIS of an even cycle.
    let valid: Vec<bool> = (0..n).map(|v| v % 2 == 0).collect();
    assert_eq!(Mis::new().validate(&g, &valid.clone().into()), Ok(()));
    // Plant an undominated vertex late and adjacent members earlier, one
    // per quarter: every range but the first holds a violation.
    let sites = [n / 4 + 10, n / 2 + 20, 3 * n / 4 + 30];
    for first in 0..sites.len() {
        let mut labels = valid.clone();
        for (k, &site) in sites.iter().enumerate().skip(first) {
            if k == sites.len() - 1 {
                labels[site] = false; // site's neighbours are out: undominated
            } else {
                labels[site + 1] = true; // next to the member at `site`
            }
        }
        let labels: Labeling<bool> = labels.into();
        let got = Mis::new().validate(&g, &labels);
        let want = serial_first(&Mis::new(), &g, &labels);
        assert!(want.is_err(), "a violation was planted");
        assert_eq!(got, want, "violations from site {first} on");
    }
}

#[test]
fn a_violation_at_the_end_of_a_range_beats_one_at_the_start_of_the_next() {
    let g = big_cycle();
    let n = g.n();
    let colors = |v: NodeId| v % 2;
    for boundary in [n / 4, n / 2, n / 3, 2 * n / 3] {
        let mut labels: Vec<usize> = (0..n).map(colors).collect();
        labels[boundary - 1] = labels[boundary - 2]; // clash on edge (b-2, b-1)
        labels[boundary + 1] = labels[boundary]; // clash on edge (b, b+1)
        let labels: Labeling<usize> = labels.into();
        let problem = VertexColoring::new(2);
        let got = problem.validate(&g, &labels);
        assert_eq!(
            got,
            serial_first(&problem, &g, &labels),
            "boundary {boundary}"
        );
        assert_eq!(got.map_err(|v| v.vertex), Err(boundary - 2));
    }
}

/// A radius-2 problem that counts its ball checks: a vertex labelled
/// `true` must have no other `true` within distance 2. Its radius-1
/// predicate must never run.
struct CountedDistanceTwo {
    balls: AtomicUsize,
}

impl LclProblem for CountedDistanceTwo {
    type Label = bool;

    fn radius(&self) -> usize {
        2
    }

    fn name(&self) -> String {
        "distance-2 independent set".into()
    }

    fn check_view(&self, _: &LocalView<bool>) -> Result<(), Reason> {
        panic!("a radius-2 problem is checked over balls")
    }

    fn check_ball(&self, g: &Graph, labels: &[Option<bool>], v: NodeId) -> Result<(), Reason> {
        self.balls.fetch_add(1, Ordering::Relaxed);
        if labels[v] != Some(true) {
            return Ok(());
        }
        let near = g.neighbors(v).iter().flat_map(|a| {
            std::iter::once(a.node()).chain(g.neighbors(a.node()).iter().map(|b| b.node()))
        });
        match near.filter(|&u| u != v).find(|&u| labels[u] == Some(true)) {
            Some(u) => Err(format!("member {u} within distance 2").into()),
            None => Ok(()),
        }
    }
}

#[test]
fn a_larger_radius_goes_through_check_ball_on_every_thread() {
    let g = big_cycle();
    let n = g.n();
    let problem = CountedDistanceTwo {
        balls: AtomicUsize::new(0),
    };
    // Every third vertex, leaving a gap of 4 where the cycle closes.
    let mut labels: Vec<bool> = (0..n).map(|v| v % 3 == 0 && v + 4 <= n).collect();
    assert_eq!(problem.validate(&g, &labels.clone().into()), Ok(()));
    assert_eq!(
        problem.balls.swap(0, Ordering::Relaxed),
        n,
        "one ball per vertex"
    );
    // Each next to a member, in different halves.
    for x in [n / 2, 3 * n / 4] {
        labels[x / 3 * 3 + 1] = true;
    }
    let labels: Labeling<bool> = labels.into();
    let opts: Vec<Option<bool>> = labels.as_slice().iter().copied().map(Some).collect();
    let want = g
        .vertices()
        .find_map(|v| {
            problem
                .check_ball(&g, &opts, v)
                .err()
                .map(|reason| Violation::new(v, reason))
        })
        .expect("a violation was planted");
    assert_eq!(problem.validate(&g, &labels), Err(want));
}

#[test]
fn a_radius_two_ruling_set_is_checked_over_balls() {
    // RulingSet's radius-1 predicate rejects every view when k = 2, so a
    // valid labelling passes only if validate goes through check_ball.
    let g = gen::path(9);
    let ruling: Labeling<bool> = (0..9).map(|v| v % 4 == 0).collect::<Vec<_>>().into();
    assert_eq!(RulingSet::new(2).validate(&g, &ruling), Ok(()));
    let crowded: Labeling<bool> = (0..9).map(|v| v % 2 == 0).collect::<Vec<_>>().into();
    let err = RulingSet::new(2).validate(&g, &crowded).unwrap_err();
    assert_eq!(err.vertex, 0);
    assert!(err.reason.contains("distance 2"), "{err}");
}
