//! Theorem 11: randomized Δ-coloring of trees for constant Δ (paper: Δ ≥ 55)
//! in `O(log_Δ log n + log* n)` rounds.
//!
//! Three phases, exactly as in Section VI-B of the paper (0-indexed palette
//! `{0, …, Δ−1}`; the paper's colors `4…Δ` are our `3…Δ−1` and its `1,2,3`
//! are our `0,1,2`):
//!
//! 1. **MIS peeling**: for `c` from `Δ−1` down to `3`, draw a random value
//!    per vertex, seed the set `K` of strict local minima, extend it to an
//!    MIS `I ⊇ K` of the uncolored subgraph (class sweep over a fixed
//!    `(Δ+1)`-coloring), and color `I` with `c`. Every uncolored vertex
//!    loses ≥ 1 uncolored neighbor per iteration, so at the end
//!    `|N(v) ∩ U| ≤ 3` for all uncolored `v`.
//! 2. **Shattered 3-coloring**: `S = {v ∈ U : |N(v) ∩ U| = 3}` forms
//!    components of size `O(log n)` w.h.p.; Theorem 9
//!    ([`be_forest_coloring`]) 3-colors them with colors `{0, 1, 2}` in
//!    `O(log log n)` rounds.
//! 3. **List completion**: the remaining uncolored vertices have more
//!    available colors than uncolored neighbors; two restricted MIS runs
//!    3-partition them, and the three classes greedily pick free colors in
//!    three rounds.
//!
//! The algorithm is *correct* for every Δ ≥ 9 (and every forest); the
//! `O(log n)` component-size guarantee for Phase 2 is what the paper proves
//! for Δ ≥ 55 — experiment E3 measures it empirically across Δ.

use crate::color::grouped::{GroupLinial, GroupReduce};
use crate::color::linial::LinialSchedule;
use crate::color::{be_forest_coloring, ColoringOutcome, UNCOLORED};
use crate::mis::by_color::mis_by_color;
use crate::sync::{run_sync, SyncAlgorithm, SyncCtx, SyncStep};
use crate::tree::theorem10::{bad_component_stats, ShatterStats};
use local_graphs::Graph;
use local_lcl::Labeling;
use local_model::{derived_rng, ExecSpec, GlobalParams, Mode, NodeInit, SimError};
use rand::Rng;

// ------------------------------------------------- one peeling iteration

#[derive(Debug, Clone, PartialEq, Eq)]
enum PeelMisState {
    NotInU,
    Undecided { x: Option<u64>, class: usize },
    InMis,
    Out,
}

/// One Phase-1 iteration: draw values, seed `K` (strict local minima), then
/// extend to an MIS of the uncolored subgraph by a class sweep.
struct PeelMisIteration {
    base_class: Vec<usize>,
    in_u: Vec<bool>,
    palette: usize,
}

impl SyncAlgorithm for PeelMisIteration {
    type State = PeelMisState;
    type Output = bool;

    fn init(&self, init: &NodeInit<'_>) -> PeelMisState {
        if self.in_u[init.node] {
            PeelMisState::Undecided {
                x: None,
                class: self.base_class[init.node],
            }
        } else {
            PeelMisState::NotInU
        }
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &PeelMisState,
        neighbors: &[PeelMisState],
    ) -> SyncStep<PeelMisState, bool> {
        match state {
            PeelMisState::NotInU => SyncStep::Decide(PeelMisState::NotInU, false),
            PeelMisState::InMis => SyncStep::Decide(PeelMisState::InMis, true),
            PeelMisState::Out => SyncStep::Decide(PeelMisState::Out, false),
            PeelMisState::Undecided { x, class } => match round {
                1 => SyncStep::Continue(PeelMisState::Undecided {
                    x: Some(ctx.rng().gen()),
                    class: *class,
                }),
                2 => {
                    let mine = x.expect("drawn in round 1");
                    let local_min = neighbors.iter().all(|nb| match nb {
                        PeelMisState::Undecided { x: Some(v), .. } => mine < *v,
                        _ => true,
                    });
                    if local_min {
                        SyncStep::Decide(PeelMisState::InMis, true)
                    } else {
                        SyncStep::Continue(PeelMisState::Undecided {
                            x: *x,
                            class: *class,
                        })
                    }
                }
                r => {
                    if neighbors.iter().any(|nb| matches!(nb, PeelMisState::InMis)) {
                        return SyncStep::Decide(PeelMisState::Out, false);
                    }
                    if *class == (r - 3) as usize {
                        SyncStep::Decide(PeelMisState::InMis, true)
                    } else {
                        debug_assert!(
                            (*class) > (r - 3) as usize || (r - 3) as usize >= self.palette,
                            "class rounds are final"
                        );
                        SyncStep::Continue(state.clone())
                    }
                }
            },
        }
    }
}

// ---------------------------------------------------- phase-3 completion

#[derive(Debug, Clone, PartialEq, Eq)]
struct CompleteState {
    /// Current color (phase 1/2 output, or the phase-3 pick).
    color: Option<usize>,
    /// Which of the three completion classes this vertex recolors in
    /// (`usize::MAX` = already colored).
    class: usize,
}

struct Completion {
    colors: Vec<Option<usize>>,
    class_of: Vec<usize>,
    delta: usize,
}

impl SyncAlgorithm for Completion {
    type State = CompleteState;
    type Output = usize;

    fn init(&self, init: &NodeInit<'_>) -> CompleteState {
        CompleteState {
            color: self.colors[init.node],
            class: self.class_of[init.node],
        }
    }

    fn update(
        &self,
        round: u32,
        _ctx: &mut SyncCtx<'_>,
        state: &CompleteState,
        neighbors: &[CompleteState],
    ) -> SyncStep<CompleteState, usize> {
        if state.class == usize::MAX {
            let c = state.color.expect("non-completing vertices are colored");
            return SyncStep::Decide(state.clone(), c);
        }
        if state.class == (round - 1) as usize {
            let used: Vec<usize> = neighbors.iter().filter_map(|nb| nb.color).collect();
            let c = (0..self.delta)
                .find(|c| !used.contains(c))
                .expect("Theorem 11 invariant: more available colors than uncolored neighbors");
            SyncStep::Decide(
                CompleteState {
                    color: Some(c),
                    class: state.class,
                },
                c,
            )
        } else {
            SyncStep::Continue(state.clone())
        }
    }
}

// ------------------------------------------------------------ the outcome

/// The outcome of the full Theorem-11 pipeline.
#[derive(Debug, Clone)]
pub struct Theorem11Outcome {
    /// The Δ-coloring (palette `0..Δ`).
    pub coloring: ColoringOutcome,
    /// Rounds spent in the one-time base coloring (Linial + reduce).
    pub setup_rounds: u32,
    /// Rounds spent in the Δ−3 MIS-peeling iterations.
    pub phase1_rounds: u32,
    /// Rounds spent 3-coloring the shattered set `S`.
    pub phase2_rounds: u32,
    /// Rounds spent in the final completion.
    pub phase3_rounds: u32,
    /// Component statistics of the shattered set `S`.
    pub stats: ShatterStats,
}

/// Run the full Theorem-11 algorithm: Δ-color a forest with max degree ≤ Δ.
///
/// # Errors
///
/// Propagates engine errors.
///
/// # Panics
///
/// Panics if `delta < 9` (the algorithm needs peeling colors `{3..Δ}` plus a
/// 3-color reserve, and the base-coloring machinery needs room) or if
/// `g.max_degree() > delta`.
pub fn theorem11_color(g: &Graph, delta: usize, seed: u64) -> Result<Theorem11Outcome, SimError> {
    assert!(delta >= 9, "Theorem 11 implementation needs Δ ≥ 9");
    assert!(
        g.max_degree() <= delta,
        "graph degree {} exceeds Δ = {delta}",
        g.max_degree()
    );
    let n = g.n();
    let mut rng = derived_rng(seed, 0x7111);

    // One-time base (Δ+1)-coloring: random IDs → Linial → reduce. The random
    // IDs cost one round; they are unique w.h.p.
    let ids: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
    let all_groups = vec![1u64; n];
    let schedule = LinialSchedule::new(u64::MAX, delta);
    let linial_palette = schedule.final_palette() as usize;
    let linial = GroupLinial {
        schedule,
        colors: ids,
        group_of: all_groups.clone(),
    };
    let horizon = GlobalParams::from_graph(g)
        .round_horizon(200)
        .expect("materialized graphs fit the u32 round counter");
    let linial_out = run_sync(
        g,
        Mode::deterministic(),
        &linial,
        &ExecSpec::rounds(horizon),
    )
    .strict()?;
    let reduce = GroupReduce {
        from: linial_palette,
        to: delta + 1,
        colors: linial_out.outputs.iter().map(|&c| c as usize).collect(),
        group_of: all_groups,
    };
    let reduce_out = run_sync(
        g,
        Mode::deterministic(),
        &reduce,
        &ExecSpec::rounds(linial_palette as u32 + 2),
    )
    .strict()?;
    let base_class: Vec<usize> = reduce_out.outputs.iter().map(|&c| c as usize).collect();
    let setup_rounds = 1 + linial_out.rounds + reduce_out.rounds;

    // Phase 1: peel with colors Δ−1 down to 3.
    let mut colors: Vec<Option<usize>> = vec![None; n];
    let mut in_u: Vec<bool> = vec![true; n];
    let mut phase1_rounds = 0;
    for c in (3..delta).rev() {
        let iter = PeelMisIteration {
            base_class: base_class.clone(),
            in_u: in_u.clone(),
            palette: delta + 1,
        };
        let out = run_sync(
            g,
            Mode::randomized(seed ^ (c as u64).wrapping_mul(0x9E37_79B9)),
            &iter,
            &ExecSpec::rounds(delta as u32 + 8),
        )
        .strict()?;
        phase1_rounds += out.rounds;
        for v in g.vertices() {
            if out.outputs[v] {
                colors[v] = Some(c);
                in_u[v] = false;
            }
        }
    }

    // Every uncolored vertex now has at most 3 uncolored neighbors.
    debug_assert!(g
        .vertices()
        .filter(|&v| in_u[v])
        .all(|v| { g.neighbors(v).iter().filter(|nb| in_u[nb.node()]).count() <= 3 }));

    // Phase 2: S = uncolored vertices with exactly 3 uncolored neighbors.
    let s_set: Vec<bool> = g
        .vertices()
        .map(|v| in_u[v] && g.neighbors(v).iter().filter(|nb| in_u[nb.node()]).count() == 3)
        .collect();
    let stats = bad_component_stats(g, &s_set);
    let mut phase2_rounds = 1; // the |N ∩ U| count exchange
    if stats.bad_vertices > 0 {
        let ids2: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let fin = be_forest_coloring(g, 3, &ids2, Some(&s_set), 0);
        phase2_rounds += fin.rounds;
        for v in g.vertices() {
            if s_set[v] {
                colors[v] = Some(*fin.labels.get(v));
                in_u[v] = false;
            }
        }
    }

    // Phase 3: the rest have more available colors than uncolored neighbors.
    let mut phase3_rounds = 0;
    if in_u.iter().any(|&u| u) {
        let base_labeling: Labeling<usize> = Labeling::new(base_class.clone());
        let mis1 = mis_by_color(g, &base_labeling, delta + 1, Some(&in_u));
        phase3_rounds += mis1.rounds;
        let mut u_minus_i1: Vec<bool> = in_u.clone();
        for v in g.vertices() {
            if mis1.in_set[v] {
                u_minus_i1[v] = false;
            }
        }
        let mis2 = if u_minus_i1.iter().any(|&u| u) {
            mis_by_color(g, &base_labeling, delta + 1, Some(&u_minus_i1))
        } else {
            crate::mis::MisOutcome {
                in_set: vec![false; n],
                rounds: 0,
            }
        };
        phase3_rounds += mis2.rounds;
        let class_of: Vec<usize> = g
            .vertices()
            .map(|v| {
                if !in_u[v] {
                    usize::MAX
                } else if mis1.in_set[v] {
                    0
                } else if mis2.in_set[v] {
                    1
                } else {
                    2
                }
            })
            .collect();
        let completion = Completion {
            colors: colors.clone(),
            class_of,
            delta,
        };
        let out = run_sync(g, Mode::deterministic(), &completion, &ExecSpec::rounds(8)).strict()?;
        phase3_rounds += out.rounds;
        for v in g.vertices() {
            if in_u[v] {
                colors[v] = Some(out.outputs[v]);
            }
        }
    }

    let labels: Vec<usize> = colors.into_iter().map(|c| c.unwrap_or(UNCOLORED)).collect();
    debug_assert!(labels.iter().all(|&c| c != UNCOLORED));
    let total = setup_rounds + phase1_rounds + phase2_rounds + phase3_rounds;
    Ok(Theorem11Outcome {
        coloring: ColoringOutcome {
            labels: Labeling::new(labels),
            palette: delta,
            rounds: total,
        },
        setup_rounds,
        phase1_rounds,
        phase2_rounds,
        phase3_rounds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_lcl::problems::VertexColoring;
    use local_lcl::LclProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn colors_random_trees_delta_12() {
        let mut rng = StdRng::seed_from_u64(70);
        for trial in 0..3 {
            let g = gen::random_tree_max_degree(250, 12, &mut rng);
            let out = theorem11_color(&g, 12, trial).unwrap();
            VertexColoring::new(12)
                .validate(&g, &out.coloring.labels)
                .unwrap_or_else(|v| panic!("trial {trial}: {v}"));
        }
    }

    #[test]
    fn colors_complete_dary_tree() {
        let g = gen::complete_dary_tree(300, 9);
        let out = theorem11_color(&g, 9, 4).unwrap();
        assert!(VertexColoring::new(9)
            .validate(&g, &out.coloring.labels)
            .is_ok());
    }

    #[test]
    fn colors_path_with_large_palette() {
        // Degenerate but legal: the tree's degree is far below Δ.
        let g = gen::path(60);
        let out = theorem11_color(&g, 9, 1).unwrap();
        assert!(VertexColoring::new(9)
            .validate(&g, &out.coloring.labels)
            .is_ok());
    }

    #[test]
    fn shattered_set_is_small() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = gen::random_tree_max_degree(1500, 12, &mut rng);
        let out = theorem11_color(&g, 12, 2).unwrap();
        assert!(
            out.stats.bad_vertices * 5 <= g.n(),
            "|S| = {} should be a small fraction of n = {}",
            out.stats.bad_vertices,
            g.n()
        );
        assert!(VertexColoring::new(12)
            .validate(&g, &out.coloring.labels)
            .is_ok());
    }

    #[test]
    fn phase_round_counts_are_positive_and_reported() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = gen::random_tree_max_degree(200, 10, &mut rng);
        let out = theorem11_color(&g, 10, 3).unwrap();
        assert!(out.setup_rounds > 0);
        assert!(out.phase1_rounds > 0);
        assert_eq!(
            out.coloring.rounds,
            out.setup_rounds + out.phase1_rounds + out.phase2_rounds + out.phase3_rounds
        );
    }

    #[test]
    #[should_panic(expected = "Δ ≥ 9")]
    fn rejects_small_delta() {
        let g = gen::path(5);
        let _ = theorem11_color(&g, 5, 0);
    }

    #[test]
    fn reproducible() {
        let mut rng = StdRng::seed_from_u64(73);
        let g = gen::random_tree_max_degree(150, 10, &mut rng);
        let a = theorem11_color(&g, 10, 7).unwrap();
        let b = theorem11_color(&g, 10, 7).unwrap();
        assert_eq!(a.coloring.labels, b.coloring.labels);
    }
}
