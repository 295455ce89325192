//! Randomized maximal matching by proposals: `O(log n)` rounds w.h.p.
//!
//! Three-round phases (Israeli–Itai style role splitting): free vertices flip
//! a coin for a role; *proposers* pick a random free neighbor, *acceptors*
//! accept one incoming proposal, and in the confirmation round the accepted
//! proposer records the match. In expectation a constant fraction of the
//! free edges disappear per phase.

use crate::matching::MatchingOutcome;
use crate::sync::{run_sync, SyncAlgorithm, SyncCtx, SyncStep};
use local_graphs::{Graph, PortId};
use local_model::{ExecSpec, Mode, NodeInit, SimError};
use rand::Rng;

/// Public state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IiState {
    /// Unmatched and still in play.
    Free {
        /// `Some(port)` while this vertex has an outstanding proposal.
        proposing: Option<PortId>,
        /// Whether the vertex plays proposer this phase.
        proposer: bool,
    },
    /// Matched through the given port.
    Matched {
        /// The matched port.
        port: PortId,
    },
    /// Unmatched with no free neighbors left (final).
    Retired,
}

/// The proposal algorithm.
#[derive(Debug, Clone, Default)]
pub struct IsraeliItai;

impl SyncAlgorithm for IsraeliItai {
    type State = IiState;
    type Output = Option<PortId>;

    fn init(&self, _init: &NodeInit<'_>) -> IiState {
        IiState::Free {
            proposing: None,
            proposer: false,
        }
    }

    fn update(
        &self,
        round: u32,
        ctx: &mut SyncCtx<'_>,
        state: &IiState,
        neighbors: &[IiState],
    ) -> SyncStep<IiState, Option<PortId>> {
        match state {
            IiState::Matched { port } => {
                SyncStep::Decide(IiState::Matched { port: *port }, Some(*port))
            }
            IiState::Retired => SyncStep::Decide(IiState::Retired, None),
            IiState::Free { proposing, .. } => {
                let free_ports: Vec<PortId> = (0..ctx.degree())
                    .filter(|&p| matches!(neighbors[p], IiState::Free { .. }))
                    .collect();
                match round % 3 {
                    1 => {
                        // Role + proposal round.
                        if free_ports.is_empty() {
                            return SyncStep::Decide(IiState::Retired, None);
                        }
                        let proposer = ctx.rng().gen::<bool>();
                        let proposing = if proposer {
                            let i = ctx.rng().gen_range(0..free_ports.len() as u64) as usize;
                            Some(free_ports[i])
                        } else {
                            None
                        };
                        SyncStep::Continue(IiState::Free {
                            proposing,
                            proposer,
                        })
                    }
                    2 => {
                        // Acceptance round: acceptors take the lowest-port
                        // incoming proposal from a proposer.
                        let i_am_proposer = matches!(state, IiState::Free { proposer: true, .. });
                        if !i_am_proposer {
                            let incoming = (0..ctx.degree()).find(|&p| {
                                matches!(
                                    &neighbors[p],
                                    IiState::Free {
                                        proposing: Some(q),
                                        proposer: true,
                                    } if *q == ctx.back_port(p)
                                )
                            });
                            if let Some(p) = incoming {
                                return SyncStep::Decide(IiState::Matched { port: p }, Some(p));
                            }
                        }
                        SyncStep::Continue(state.clone())
                    }
                    _ => {
                        // Confirmation round: proposers whose target accepted
                        // them become matched; everyone else resets.
                        if let Some(p) = proposing {
                            if matches!(
                                &neighbors[*p],
                                IiState::Matched { port } if *port == ctx.back_port(*p)
                            ) {
                                return SyncStep::Decide(IiState::Matched { port: *p }, Some(*p));
                            }
                        }
                        SyncStep::Continue(IiState::Free {
                            proposing: None,
                            proposer: false,
                        })
                    }
                }
            }
        }
    }
}

/// Run the randomized maximal matching; returns per-edge flags.
///
/// # Errors
///
/// The engine's round-limit error if unfinished within `max_rounds`
/// (probability `1/poly(n)` for `max_rounds = Ω(log n)`).
pub fn israeli_itai_matching(
    g: &Graph,
    seed: u64,
    max_rounds: u32,
) -> Result<MatchingOutcome, SimError> {
    let out = run_sync(
        g,
        Mode::randomized(seed),
        &IsraeliItai,
        &ExecSpec::rounds(max_rounds),
    )
    .strict()?;
    let mut matched_edges = vec![false; g.m()];
    for v in g.vertices() {
        if let Some(p) = out.outputs[v] {
            matched_edges[g.neighbor(v, p).edge()] = true;
        }
    }
    Ok(MatchingOutcome {
        matched_edges,
        rounds: out.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use local_lcl::problems::MaximalMatching;
    use local_lcl::LclProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_valid(g: &Graph, matched: &[bool]) {
        let labels = MaximalMatching::labels_from_edges(g, matched);
        MaximalMatching::new()
            .validate(g, &labels)
            .unwrap_or_else(|v| panic!("invalid matching: {v}"));
    }

    #[test]
    fn valid_on_cycles() {
        for n in [4usize, 7, 32, 111] {
            let g = gen::cycle(n);
            let out = israeli_itai_matching(&g, 1, 600).unwrap();
            assert_valid(&g, &out.matched_edges);
        }
    }

    #[test]
    fn valid_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(20);
        for trial in 0..5 {
            let g = gen::gnp(60, 0.1, &mut rng);
            let out = israeli_itai_matching(&g, trial, 900).unwrap();
            assert_valid(&g, &out.matched_edges);
        }
    }

    #[test]
    fn valid_on_star() {
        let g = gen::star(9);
        let out = israeli_itai_matching(&g, 2, 600).unwrap();
        assert_valid(&g, &out.matched_edges);
        assert_eq!(
            out.matched_edges.iter().filter(|&&m| m).count(),
            1,
            "a star admits exactly one matched edge"
        );
    }

    #[test]
    fn rounds_logarithmic() {
        let g = gen::cycle(2048);
        let out = israeli_itai_matching(&g, 3, 600).unwrap();
        assert!(out.rounds <= 150, "O(log n) expected, got {}", out.rounds);
    }

    #[test]
    fn reproducible() {
        let g = gen::cycle(50);
        let a = israeli_itai_matching(&g, 4, 600).unwrap();
        let b = israeli_itai_matching(&g, 4, 600).unwrap();
        assert_eq!(a.matched_edges, b.matched_edges);
    }

    #[test]
    fn empty_graph_retires_everyone() {
        let g = local_graphs::GraphBuilder::new(4).build();
        let out = israeli_itai_matching(&g, 0, 10).unwrap();
        assert!(out.matched_edges.is_empty());
    }
}
