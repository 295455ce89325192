//! Luby's randomized MIS: `O(log n)` rounds w.h.p.
//!
//! Each two-round phase: every undecided vertex draws a random 64-bit value;
//! strict local minima join the MIS; neighbors of new MIS members drop out.
//! (Value collisions stall at worst one phase for the colliding pair and are
//! astronomically unlikely with 64-bit draws.)

use crate::mis::MisOutcome;
use crate::sync::{run_sync, SyncAlgorithm, SyncCtx, SyncStep};
use local_graphs::Graph;
use local_model::{ExecSpec, Mode, NodeInit, SimError};
use rand::Rng;

/// Public per-vertex state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LubyState {
    /// Not participating (restricted runs).
    Inactive,
    /// Still undecided; holds this phase's draw.
    Undecided {
        /// The current random value, if one was drawn this phase.
        value: Option<u64>,
    },
    /// Joined the MIS.
    InMis,
    /// A neighbor joined the MIS.
    Out,
}

/// Luby's algorithm, optionally restricted to an active subset.
#[derive(Debug, Clone)]
pub struct Luby {
    active: Option<Vec<bool>>,
}

impl Luby {
    /// Run on the whole graph.
    pub fn new() -> Self {
        Luby { active: None }
    }

    /// Run on the subgraph induced by `active`.
    pub fn restricted(active: Vec<bool>) -> Self {
        Luby {
            active: Some(active),
        }
    }
}

impl Default for Luby {
    fn default() -> Self {
        Luby::new()
    }
}

impl SyncAlgorithm for Luby {
    type State = LubyState;
    type Output = bool;

    fn init(&self, init: &NodeInit<'_>) -> LubyState {
        match &self.active {
            Some(a) if !a[init.node] => LubyState::Inactive,
            _ => LubyState::Undecided { value: None },
        }
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &LubyState,
        neighbors: &[LubyState],
    ) -> SyncStep<LubyState, bool> {
        match state {
            LubyState::Inactive => SyncStep::Decide(LubyState::Inactive, false),
            LubyState::InMis => SyncStep::Decide(LubyState::InMis, true),
            LubyState::Out => SyncStep::Decide(LubyState::Out, false),
            LubyState::Undecided { value } => {
                if round % 2 == 1 {
                    // Odd round: drop out next to fresh MIS members, else draw.
                    if neighbors.iter().any(|nb| matches!(nb, LubyState::InMis)) {
                        return SyncStep::Decide(LubyState::Out, false);
                    }
                    SyncStep::Continue(LubyState::Undecided {
                        value: Some(ctx.rng().gen()),
                    })
                } else {
                    // Even round: strict minimum among undecided neighbors joins.
                    let mine = value.expect("drawn in the previous odd round");
                    let is_min = neighbors.iter().all(|nb| match nb {
                        LubyState::Undecided { value: Some(v) } => mine < *v,
                        _ => true,
                    });
                    if is_min {
                        SyncStep::Decide(LubyState::InMis, true)
                    } else {
                        SyncStep::Continue(LubyState::Undecided { value: *value })
                    }
                }
            }
        }
    }
}

/// Run Luby's MIS.
///
/// # Errors
///
/// The engine's round-limit error if the algorithm did not finish within
/// `max_rounds` (probability `1/poly(n)` for `max_rounds = Ω(log n)`).
pub fn luby_mis(g: &Graph, seed: u64, max_rounds: u32) -> Result<MisOutcome, SimError> {
    luby_mis_restricted(g, seed, None, max_rounds)
}

/// Run Luby's MIS on the subgraph induced by `active`.
///
/// # Errors
///
/// See [`luby_mis`].
pub fn luby_mis_restricted(
    g: &Graph,
    seed: u64,
    active: Option<Vec<bool>>,
    max_rounds: u32,
) -> Result<MisOutcome, SimError> {
    let algo = match active {
        Some(a) => Luby::restricted(a),
        None => Luby::new(),
    };
    let out = run_sync(
        g,
        Mode::randomized(seed),
        &algo,
        &ExecSpec::rounds(max_rounds),
    )
    .strict()?;
    Ok(MisOutcome {
        in_set: out.outputs,
        rounds: out.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_lcl::problems::Mis;
    use local_lcl::{Labeling, LclProblem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_valid_mis(g: &Graph, in_set: &[bool]) {
        let labels: Labeling<bool> = in_set.to_vec().into();
        Mis::new()
            .validate(g, &labels)
            .unwrap_or_else(|v| panic!("invalid MIS: {v}"));
    }

    #[test]
    fn valid_on_cycles() {
        for n in [3usize, 4, 10, 101] {
            let g = gen::cycle(n);
            let out = luby_mis(&g, 1, 200).unwrap();
            assert_valid_mis(&g, &out.in_set);
        }
    }

    #[test]
    fn valid_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..5 {
            let g = gen::gnp(70, 0.1, &mut rng);
            let out = luby_mis(&g, trial, 400).unwrap();
            assert_valid_mis(&g, &out.in_set);
        }
    }

    #[test]
    fn star_center_or_all_leaves() {
        let g = gen::star(10);
        let out = luby_mis(&g, 5, 100).unwrap();
        assert_valid_mis(&g, &out.in_set);
    }

    #[test]
    fn rounds_logarithmic() {
        let g = gen::cycle(4096);
        let out = luby_mis(&g, 2, 400).unwrap();
        assert!(out.rounds <= 80, "O(log n) expected, got {}", out.rounds);
    }

    #[test]
    fn restricted_ignores_inactive() {
        let g = gen::path(7);
        let active: Vec<bool> = (0..7).map(|v| v != 3).collect();
        let out = luby_mis_restricted(&g, 4, Some(active.clone()), 200).unwrap();
        assert!(!out.in_set[3], "inactive vertex stays out");
        // Each half must hold a valid MIS of its path.
        for (u, v) in [(0, 1), (1, 2), (4, 5), (5, 6)] {
            assert!(
                !(out.in_set[u] && out.in_set[v]),
                "adjacent members {u},{v}"
            );
        }
        for window in [[0, 1, 2], [4, 5, 6]] {
            assert!(
                window.iter().any(|&v| out.in_set[v]),
                "maximality within {window:?}"
            );
        }
    }

    #[test]
    fn reproducible() {
        let g = gen::cycle(64);
        let a = luby_mis(&g, 9, 200).unwrap();
        let b = luby_mis(&g, 9, 200).unwrap();
        assert_eq!(a.in_set, b.in_set);
    }

    #[test]
    fn empty_graph() {
        let g = local_graphs::GraphBuilder::new(3).build();
        let out = luby_mis(&g, 0, 10).unwrap();
        assert_eq!(out.in_set, vec![true, true, true]);
    }
}
