//! Ghaffari-style MIS with graph shattering.
//!
//! The modern shape of randomized MIS (Ghaffari, SODA'16): each vertex
//! maintains a *desire level* `p_v`, halved when the neighborhood is crowded
//! (`Σ_{u∈N(v)} p_u ≥ 2`) and doubled (capped at 1/2) otherwise; each phase a
//! vertex marks itself with probability `p_v` and joins the MIS if no
//! neighbor marked. After `O(log Δ) + O(1)` phases the undecided vertices
//! form components of size `poly(Δ)·log n` w.h.p. — the **graph shattering**
//! regime — and a *deterministic* MIS finishes the job on those components.
//!
//! This is exactly the two-part structure whose necessity Theorem 3 proves:
//! the randomized part cannot avoid encoding a deterministic algorithm for
//! small instances.

use crate::color::grouped::{GroupLinial, NO_GROUP};
use crate::color::linial::LinialSchedule;
use crate::mis::by_color::mis_by_color;
use crate::mis::MisOutcome;
use crate::sync::{run_sync, SyncAlgorithm, SyncCtx, SyncStep};
use local_graphs::Graph;
use local_lcl::Labeling;
use local_model::{derived_rng, ExecSpec, Mode, NodeInit, SimError};
use rand::Rng;

/// Tuning for the pre-shattering phase length.
#[derive(Debug, Clone, Copy)]
pub struct GhaffariConfig {
    /// Phases per `log₂(Δ+1)` (the theory needs a sufficiently large
    /// constant).
    pub phases_per_log_delta: u32,
    /// Additive slack phases.
    pub extra_phases: u32,
}

impl Default for GhaffariConfig {
    fn default() -> Self {
        GhaffariConfig {
            phases_per_log_delta: 6,
            extra_phases: 12,
        }
    }
}

impl GhaffariConfig {
    /// Number of two-round phases for maximum degree `delta`.
    pub fn phases(&self, delta: usize) -> u32 {
        let log_d = 64 - (delta as u64 + 1).leading_zeros();
        self.phases_per_log_delta * log_d + self.extra_phases
    }
}

/// Public state of the pre-shattering phase.
#[derive(Debug, Clone, PartialEq)]
pub enum GState {
    /// Still undecided.
    Undecided {
        /// Current desire level.
        p: f64,
        /// Whether this vertex marked itself this phase.
        marked: bool,
    },
    /// Joined the MIS.
    InMis,
    /// A neighbor joined.
    Out,
}

struct PreShatter {
    phases: u32,
}

impl SyncAlgorithm for PreShatter {
    type State = GState;
    /// `Some(true)` = in MIS, `Some(false)` = out, `None` = undecided after
    /// the phase budget (handed to the deterministic finisher).
    type Output = Option<bool>;

    fn init(&self, _init: &NodeInit<'_>) -> GState {
        GState::Undecided {
            p: 0.5,
            marked: false,
        }
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &GState,
        neighbors: &[GState],
    ) -> SyncStep<GState, Option<bool>> {
        match state {
            GState::InMis => SyncStep::Decide(GState::InMis, Some(true)),
            GState::Out => SyncStep::Decide(GState::Out, Some(false)),
            GState::Undecided { p, marked } => {
                if round > 2 * self.phases {
                    return SyncStep::Decide(state.clone(), None);
                }
                if round % 2 == 1 {
                    // Odd round: retire next to MIS members, update desire,
                    // mark.
                    if neighbors.iter().any(|nb| matches!(nb, GState::InMis)) {
                        return SyncStep::Decide(GState::Out, Some(false));
                    }
                    let crowding: f64 = neighbors
                        .iter()
                        .filter_map(|nb| match nb {
                            GState::Undecided { p, .. } => Some(*p),
                            _ => None,
                        })
                        .sum();
                    let next_p = if crowding >= 2.0 {
                        p / 2.0
                    } else {
                        (2.0 * p).min(0.5)
                    };
                    let marked = ctx.rng().gen::<f64>() < next_p;
                    SyncStep::Continue(GState::Undecided { p: next_p, marked })
                } else {
                    // Even round: lone marks join.
                    if *marked
                        && !neighbors
                            .iter()
                            .any(|nb| matches!(nb, GState::Undecided { marked: true, .. }))
                    {
                        SyncStep::Decide(GState::InMis, Some(true))
                    } else {
                        SyncStep::Continue(GState::Undecided {
                            p: *p,
                            marked: false,
                        })
                    }
                }
            }
        }
    }
}

/// Result of the pre-shattering phase alone (exposed for the shattering
/// experiments, which measure the undecided components' sizes).
#[derive(Debug, Clone)]
pub struct PreShatterOutcome {
    /// `Some(true)` in MIS, `Some(false)` out, `None` undecided.
    pub status: Vec<Option<bool>>,
    /// Rounds used.
    pub rounds: u32,
}

/// Run only the randomized pre-shattering phase.
///
/// # Errors
///
/// Propagates engine errors (the phase has a fixed budget, so this only
/// fires if `2·phases + 2` exceeds the engine limit).
pub fn ghaffari_preshatter(
    g: &Graph,
    seed: u64,
    config: GhaffariConfig,
) -> Result<PreShatterOutcome, SimError> {
    let phases = config.phases(g.max_degree().max(1));
    let algo = PreShatter { phases };
    let out = run_sync(
        g,
        Mode::randomized(seed),
        &algo,
        &ExecSpec::rounds(2 * phases + 4),
    )
    .strict()?;
    Ok(PreShatterOutcome {
        status: out.outputs,
        rounds: out.rounds,
    })
}

/// Full Ghaffari-style MIS: randomized pre-shattering + deterministic finish
/// (Linial + class sweep) on the undecided residual, using random
/// `O(log n)`-bit IDs (unique w.h.p.) for the deterministic part — exactly
/// the paper's remark that RandLOCAL can always synthesize IDs.
///
/// # Errors
///
/// Propagates engine errors from either phase.
pub fn ghaffari_mis(g: &Graph, seed: u64, config: GhaffariConfig) -> Result<MisOutcome, SimError> {
    let pre = ghaffari_preshatter(g, seed, config)?;
    let mut rounds = pre.rounds;

    // One extra round: undecided vertices adjacent to a last-moment MIS
    // member retire (the information is already at their neighbor).
    let mut residual: Vec<bool> = vec![false; g.n()];
    let mut in_set: Vec<bool> = vec![false; g.n()];
    for v in g.vertices() {
        match pre.status[v] {
            Some(true) => in_set[v] = true,
            Some(false) => {}
            None => {
                let blocked = g
                    .neighbors(v)
                    .iter()
                    .any(|nb| pre.status[nb.node()] == Some(true));
                residual[v] = !blocked;
            }
        }
    }
    rounds += 1;

    if residual.iter().any(|&r| r) {
        // Deterministic finish on the residual: random IDs, grouped Linial,
        // class sweep.
        let mut rng = derived_rng(seed, 0x6871);
        let id_bits = 4 * (64 - (g.n() as u64).leading_zeros()) + 8;
        let ids: Vec<u64> = (0..g.n())
            .map(|_| rng.gen::<u64>() >> (64 - id_bits.min(63)))
            .collect();
        let group_of: Vec<u64> = residual
            .iter()
            .map(|&r| if r { 1 } else { NO_GROUP })
            .collect();
        let max_id = ids.iter().copied().max().unwrap_or(0);
        let schedule = LinialSchedule::new(max_id + 1, g.max_degree().max(1));
        let palette = schedule.final_palette() as usize;
        let linial = GroupLinial {
            schedule,
            colors: ids,
            group_of,
        };
        let linial_out = run_sync(
            g,
            Mode::deterministic(),
            &linial,
            &ExecSpec::rounds(g.n() as u32 + 200),
        )
        .strict()?;
        rounds += linial_out.rounds;
        let colors: Labeling<usize> =
            Labeling::new(linial_out.outputs.iter().map(|&c| c as usize).collect());
        let sweep = mis_by_color(g, &colors, palette, Some(&residual));
        rounds += sweep.rounds;
        for v in g.vertices() {
            if sweep.in_set[v] {
                in_set[v] = true;
            }
        }
    }

    Ok(MisOutcome { in_set, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_lcl::problems::Mis;
    use local_lcl::LclProblem;
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
        for n in [5usize, 16, 99] {
            let g = gen::cycle(n);
            let out = ghaffari_mis(&g, 1, GhaffariConfig::default()).unwrap();
            assert_valid_mis(&g, &out.in_set);
        }
    }

    #[test]
    fn valid_on_random_regular() {
        let mut rng = StdRng::seed_from_u64(10);
        for d in [3usize, 5, 8] {
            let g = gen::random_regular(60, d, &mut rng).unwrap();
            let out = ghaffari_mis(&g, d as u64, GhaffariConfig::default()).unwrap();
            assert_valid_mis(&g, &out.in_set);
        }
    }

    #[test]
    fn valid_on_gnp() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::gnp(120, 0.06, &mut rng);
        let out = ghaffari_mis(&g, 3, GhaffariConfig::default()).unwrap();
        assert_valid_mis(&g, &out.in_set);
    }

    #[test]
    fn preshatter_decides_most_vertices() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = gen::random_regular(500, 4, &mut rng).unwrap();
        let pre = ghaffari_preshatter(&g, 7, GhaffariConfig::default()).unwrap();
        let undecided = pre.status.iter().filter(|s| s.is_none()).count();
        assert!(
            undecided * 10 <= g.n(),
            "pre-shattering left {undecided}/{} undecided",
            g.n()
        );
    }

    #[test]
    fn phase_budget_scales_with_log_delta() {
        let c = GhaffariConfig::default();
        assert!(c.phases(4) < c.phases(256));
        assert!(c.phases(256) < c.phases(65536));
        // Logarithmic, not linear (log₂ 65537 = 17 vs log₂ 5 = 3):
        assert!(c.phases(65536) <= 4 * c.phases(4));
    }

    #[test]
    fn reproducible() {
        let g = gen::cycle(64);
        let a = ghaffari_mis(&g, 5, GhaffariConfig::default()).unwrap();
        let b = ghaffari_mis(&g, 5, GhaffariConfig::default()).unwrap();
        assert_eq!(a.in_set, b.in_set);
        assert_eq!(a.rounds, b.rounds);
    }
}
