//! Distributed LCL verification inside the round engine.
//!
//! The defining property of an LCL is that solutions are verifiable in `O(1)`
//! rounds. [`check_distributed`] demonstrates it mechanically: every vertex
//! exchanges exactly one round of messages (its label, degree, and sending
//! port), assembles the same [`LocalView`] the
//! centralized checker uses, and evaluates the same predicate. The two paths
//! agree by construction — a property test in the integration suite checks
//! it on random graphs and labelings.

use crate::labeling::Labeling;
use crate::problem::{LclProblem, LocalView, NeighborView, Reason, Violation};
use local_graphs::{Graph, PortId};
use local_model::{Action, Engine, ExecSpec, Mode, NodeInit, NodeIo, NodeProgram, Protocol};

/// One verification message: the sender's label, degree, and sending port.
type VerifyMsg<L> = (L, usize, PortId);

/// Per-vertex verifier state.
#[derive(Debug)]
pub struct VerifierNode<'a, P: LclProblem> {
    problem: &'a P,
    label: P::Label,
    edge_inputs: Vec<u64>,
}

impl<'a, P: LclProblem + Sync> NodeProgram for VerifierNode<'a, P>
where
    P::Label: Clone + Send + Sync,
{
    type Msg = VerifyMsg<P::Label>;
    type Output = Option<Reason>;

    fn step(&mut self, round: u32, io: &mut NodeIo<'_, Self::Msg>) -> Action<Self::Output> {
        if round == 0 {
            for p in 0..io.degree() {
                io.send(p, (self.label.clone(), io.degree(), p));
            }
            return Action::Continue;
        }
        let neighbors: Vec<NeighborView<P::Label>> = (0..io.degree())
            .map(|p| {
                let (label, degree, back_port) = io
                    .recv(p)
                    .expect("all verifier nodes send in round 0")
                    .clone();
                NeighborView {
                    label,
                    degree,
                    back_port,
                    edge_input: self.edge_inputs[p],
                }
            })
            .collect();
        let view = LocalView {
            label: self.label.clone(),
            degree: io.degree(),
            neighbors,
        };
        Action::Halt(self.problem.check_view(&view).err())
    }
}

/// The verification protocol: one exchange, then evaluate the local
/// predicate.
#[derive(Debug)]
pub struct VerifierProtocol<'a, P: LclProblem> {
    problem: &'a P,
    graph: &'a Graph,
    labels: &'a Labeling<P::Label>,
}

impl<'a, P: LclProblem + Sync> Protocol for VerifierProtocol<'a, P>
where
    P::Label: Clone + Send + Sync,
{
    type Node = VerifierNode<'a, P>;

    fn create(&self, init: &NodeInit<'_>) -> Self::Node {
        let edge_inputs = self
            .graph
            .neighbors(init.node)
            .iter()
            .map(|nb| self.problem.edge_input(nb.edge()))
            .collect();
        VerifierNode {
            problem: self.problem,
            label: self.labels.get(init.node).clone(),
            edge_inputs,
        }
    }
}

/// Verify `labels` against `problem` *distributedly*: one round of message
/// exchange in the engine, then a purely local decision at every vertex.
///
/// Agrees with [`LclProblem::validate`] on every input (both evaluate
/// [`LclProblem::check_view`] on identical views).
///
/// # Errors
///
/// The violation at the lowest-indexed failing vertex, if any.
///
/// # Panics
///
/// Panics if `problem.radius() != 1` (all built-in problems are radius-1) or
/// if `labels.len() != g.n()`.
pub fn check_distributed<P>(
    problem: &P,
    g: &Graph,
    labels: &Labeling<P::Label>,
) -> Result<(), Violation>
where
    P: LclProblem + Sync,
    P::Label: Clone + Send + Sync,
{
    assert_eq!(
        problem.radius(),
        1,
        "the distributed verifier supports radius-1 LCLs"
    );
    assert_eq!(labels.len(), g.n(), "labeling must cover every vertex");
    let protocol = VerifierProtocol {
        problem,
        graph: g,
        labels,
    };
    let run = Engine::new(g, Mode::deterministic())
        .execute(&ExecSpec::default(), &protocol)
        .into_run(100_000)
        .expect("verifier halts after one exchange");
    debug_assert!(run.rounds <= 1);
    for (v, outcome) in run.outputs.into_iter().enumerate() {
        if let Some(reason) = outcome {
            return Err(Violation { vertex: v, reason });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{Mis, VertexColoring};
    use local_graphs::gen;

    #[test]
    fn distributed_accepts_valid_coloring() {
        let g = gen::cycle(8);
        let labels: Labeling<usize> = (0..8).map(|v| v % 2).collect();
        assert!(check_distributed(&VertexColoring::new(2), &g, &labels).is_ok());
    }

    #[test]
    fn distributed_rejects_and_matches_centralized() {
        let g = gen::cycle(5); // odd cycle: 2-coloring impossible
        let labels: Labeling<usize> = (0..5).map(|v| v % 2).collect();
        let p = VertexColoring::new(2);
        let central = p.validate(&g, &labels).unwrap_err();
        let distributed = check_distributed(&p, &g, &labels).unwrap_err();
        assert_eq!(central.vertex, distributed.vertex);
        assert_eq!(central.reason, distributed.reason);
    }

    #[test]
    fn distributed_mis_check() {
        let g = gen::star(7);
        let mut labels = vec![false; 7];
        labels[0] = true;
        assert!(check_distributed(&Mis::new(), &g, &labels.into()).is_ok());
        let all_out: Labeling<bool> = vec![false; 7].into();
        assert!(check_distributed(&Mis::new(), &g, &all_out).is_err());
    }

    #[test]
    fn distributed_sinkless_coloring_uses_edge_inputs() {
        use crate::problems::SinklessColoring;
        let g = gen::cycle(6);
        let psi = local_graphs::edge_coloring::konig(&g).unwrap();
        let p = SinklessColoring::new(2, psi);
        let proper: Labeling<usize> = (0..6).map(|v| v % 2).collect();
        assert!(check_distributed(&p, &g, &proper).is_ok());
        let constant: Labeling<usize> = vec![0; 6].into();
        let central = p.validate(&g, &constant).unwrap_err();
        let distributed = check_distributed(&p, &g, &constant).unwrap_err();
        assert_eq!(central.vertex, distributed.vertex);
    }
}
