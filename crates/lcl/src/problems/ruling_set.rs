//! Ruling sets as a radius-`k` LCL.
//!
//! A `(2, k)`-ruling set in this repo's convention (matching
//! `local_algorithms::mis::is_ruling_set`): set members are pairwise at
//! distance `> k`, and every vertex is within distance `k` of a member. For
//! `k = 1` this is exactly MIS; for `k ≥ 2` the condition is *not* checkable
//! from a radius-1 view, so this is the crate's first problem with
//! `radius() > 1` — it overrides [`LclProblem::check_ball`] and leaves
//! `check_view` as a defensive stub.

use crate::problem::{LclProblem, LocalView, Reason};
use local_graphs::{Graph, NodeId};
use std::collections::HashSet;

/// The `(2, k)`-ruling set problem: members pairwise at distance `> k`,
/// every vertex within distance `k` of a member (`r = k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RulingSet {
    k: usize,
}

impl RulingSet {
    /// The ruling set problem with ruling distance `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "ruling distance must be at least 1");
        RulingSet { k }
    }

    /// The ruling distance `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Members of the labeled ball around `v`, paired with their distance
    /// from `v` (up to distance `k`, excluding `v` itself), in BFS order.
    ///
    /// The search's visited set is local to the ball, so a call costs
    /// O(ball) rather than O(n): the ball's vertices in BFS order, which
    /// double as the queue and are scanned linearly while there are at most
    /// [`SCAN_LIMIT`] of them, and a hash set of them beyond that.
    fn members_in_ball(
        &self,
        g: &Graph,
        labels: &[Option<bool>],
        v: NodeId,
    ) -> Vec<(NodeId, usize)> {
        let mut ball = Vec::with_capacity(SCAN_LIMIT + 1);
        ball.push((v, 0));
        // Empty until the ball outgrows `SCAN_LIMIT`, then all of it.
        let mut index = HashSet::new();
        let mut members = Vec::new();
        let mut head = 0;
        while let Some(&(u, d)) = ball.get(head) {
            head += 1;
            if d == self.k {
                // BFS order: every vertex left is at distance k too.
                break;
            }
            for nb in g.neighbors(u) {
                let w = nb.node();
                let seen = if index.is_empty() {
                    ball.iter().any(|&(x, _)| x == w)
                } else {
                    !index.insert(w)
                };
                if seen {
                    continue;
                }
                ball.push((w, d + 1));
                if index.is_empty() && ball.len() > SCAN_LIMIT {
                    index.extend(ball.iter().map(|&(x, _)| x));
                }
                if labels[w] == Some(true) {
                    members.push((w, d + 1));
                }
            }
        }
        members
    }
}

/// The ball size up to which [`RulingSet::members_in_ball`] finds visited
/// vertices by a linear scan of the ball list, so the small balls of
/// low-degree graphs cost no hashing.
///
/// 64 is the measured crossover. On the radius-2 balls of 2,000-vertex
/// `d`-regular circulants (2d + 1 vertices), a search with the scan alone
/// cost a quarter of one with a `HashSet` alone up to 17 vertices, half at
/// 33, 0.95 of it at 65 and 1.1 of it at 73 (release build, 2-vCPU Xeon
/// VM). On the `heal` benchmark, whose balls stay below the limit, the
/// scan read 8.5% more ops/s than the hash set alone in the median, higher
/// in 8 of 10 alternating pairs.
const SCAN_LIMIT: usize = 64;

impl LclProblem for RulingSet {
    type Label = bool;

    fn radius(&self) -> usize {
        self.k
    }

    fn name(&self) -> String {
        format!("(2,{})-ruling set", self.k)
    }

    fn check_view(&self, view: &LocalView<bool>) -> Result<(), Reason> {
        if self.k != 1 {
            // Radius-k checking goes through `check_ball`; a radius-1 view
            // cannot decide the k >= 2 condition.
            return Err("ruling sets are checked over the radius-k ball; use check_ball".into());
        }
        // k = 1 is exactly MIS.
        let neighbor_in = view.neighbors.iter().any(|nb| nb.label);
        match (view.label, neighbor_in) {
            (true, true) => Err("set vertex adjacent to another set vertex".into()),
            (false, false) => Err("vertex outside the set with no adjacent set vertex".into()),
            _ => Ok(()),
        }
    }

    fn check_ball(&self, g: &Graph, labels: &[Option<bool>], v: NodeId) -> Result<(), Reason> {
        let member = labels[v].expect("check_ball caller guarantees the ball is fully labeled");
        let others = self.members_in_ball(g, labels, v);
        if member {
            match others.first() {
                Some(&(u, d)) => Err(format!(
                    "set vertex with another set vertex {u} at distance {d} <= {}",
                    self.k
                )
                .into()),
                None => Ok(()),
            }
        } else if others.is_empty() {
            Err(format!(
                "vertex outside the set with no set vertex within distance {} (not ruled)",
                self.k
            )
            .into())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_complete, check_partial, Labeling};
    use local_graphs::gen;

    #[test]
    fn k1_agrees_with_mis_semantics() {
        let g = gen::path(5);
        let good: Labeling<bool> = vec![true, false, true, false, true].into();
        assert!(RulingSet::new(1).validate(&g, &good).is_ok());
        let adjacent: Labeling<bool> = vec![true, true, false, true, false].into();
        assert!(RulingSet::new(1).validate(&g, &adjacent).is_err());
    }

    #[test]
    fn accepts_distance_2_ruling_set_on_path() {
        let g = gen::path(5);
        // {0, 4}: members at distance 4 > 2; everything within distance 2.
        let l: Labeling<bool> = vec![true, false, false, false, true].into();
        assert!(RulingSet::new(2).validate(&g, &l).is_ok());
    }

    #[test]
    fn rejects_close_members_and_unruled_vertices() {
        let g = gen::path(6);
        // {0, 2}: members at distance 2 <= 2.
        let close: Labeling<bool> = vec![true, false, true, false, false, false].into();
        let err = RulingSet::new(2).validate(&g, &close).unwrap_err();
        assert!(err.reason.contains("distance"));
        // {0}: vertex 5 is at distance 5 > 2 from the only member.
        let sparse: Labeling<bool> = vec![true, false, false, false, false, false].into();
        let err = RulingSet::new(2).validate(&g, &sparse).unwrap_err();
        assert_eq!(err.vertex, 3);
        assert!(err.reason.contains("not ruled"));
    }

    #[test]
    fn partial_checking_skips_holey_balls() {
        let g = gen::path(6);
        let p = RulingSet::new(2);
        // Vertex 2 unlabeled: every vertex within distance 2 of it (0..=4)
        // is skipped; only vertex 5's ball {3,4,5} survives, and it is ruled
        // by... nothing labeled true — make 4 a member so 5 passes.
        let labels = vec![
            Some(true),
            Some(false),
            None,
            Some(false),
            Some(true),
            Some(false),
        ];
        let out = check_partial(&p, &g, &labels);
        assert_eq!(out.skipped, 5);
        assert_eq!(out.checked, 1);
        assert_eq!(out.valid, 1);
    }

    #[test]
    fn complete_check_agrees_with_validate() {
        let g = gen::cycle(9);
        let p = RulingSet::new(2);
        // {0, 3, 6} on C9: pairwise distance 3 > 2, everything within 1.
        let l: Labeling<bool> = (0..9).map(|v| v % 3 == 0).collect();
        assert!(p.validate(&g, &l).is_ok());
        let out = check_complete(&p, &g, &l);
        assert_eq!(out.checked, 9);
        assert!(out.all_checked_valid());
    }

    /// The body `members_in_ball` had before its visited set became local
    /// to the ball: a BFS over a distance array of length n.
    fn members_in_ball_dense(
        k: usize,
        g: &local_graphs::Graph,
        labels: &[Option<bool>],
        v: NodeId,
    ) -> Vec<(NodeId, usize)> {
        let mut dist = vec![usize::MAX; g.n()];
        let mut queue = std::collections::VecDeque::new();
        let mut members = Vec::new();
        dist[v] = 0;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            if dist[u] == k {
                continue;
            }
            for nb in g.neighbors(u) {
                if dist[nb.node()] != usize::MAX {
                    continue;
                }
                dist[nb.node()] = dist[u] + 1;
                if labels[nb.node()] == Some(true) {
                    members.push((nb.node(), dist[nb.node()]));
                }
                queue.push_back(nb.node());
            }
        }
        members
    }

    #[test]
    fn ball_members_match_the_dense_search_on_random_partial_labellings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        // Sparse graphs keep balls under the scan limit; the dense ones
        // push radius-2 and radius-3 balls past it.
        for (n, p) in [(40, 0.05), (60, 0.08), (80, 0.15), (120, 0.3)] {
            let g = gen::gnp(n, p, &mut rng);
            for k in [2, 3] {
                let problem = RulingSet::new(k);
                let labels: Vec<Option<bool>> = (0..n)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => None,
                        1 => Some(true),
                        _ => Some(false),
                    })
                    .collect();
                for v in g.vertices() {
                    assert_eq!(
                        problem.members_in_ball(&g, &labels, v),
                        members_in_ball_dense(k, &g, &labels, v),
                        "n {n}, p {p}, k {k}, vertex {v}"
                    );
                }
                let partial = check_partial(&problem, &g, &labels);
                assert_eq!(partial.checked + partial.skipped, n);
            }
        }
    }

    #[test]
    fn name_and_radius() {
        let p = RulingSet::new(2);
        assert_eq!(p.name(), "(2,2)-ruling set");
        assert_eq!(p.radius(), 2);
        assert_eq!(p.k(), 2);
    }
}
