//! Recovery primitives: run budgets and residual-subgraph extraction.
//!
//! A faulty run ends with a *partial* labeling — some vertices `Halted` with
//! outputs, the rest `Crashed` or `Cut`. The paper's graph-shattering
//! structure (Theorem 10) already contains the cure: a randomized phase
//! solves most vertices and a deterministic finisher cleans up the small
//! residual components. This module provides the model-level half of that
//! recovery story:
//!
//! * [`Budget`] — a watchdog contract (`max_rounds`, optional `max_messages`
//!   and `wall_clock`) enforced by [`Engine::run_faulty`](crate::Engine); a
//!   breached run degrades to [`Outcome::Cut`](crate::Outcome) entries with
//!   the [`Breach`] recorded on the [`FaultyRun`](crate::FaultyRun), instead
//!   of hanging.
//! * [`Residue`] — the induced subgraph of a *core* vertex set (typically the
//!   unlabeled vertices plus those whose outputs violate the problem, as
//!   `local_algorithms::repair::recover` builds it) dilated by a boundary
//!   radius, with local↔global index maps so a finisher's labels can be
//!   spliced back into the full graph.
//! * [`RecoveryError`] — the typed failure surface of an escalating recovery
//!   driver (radius 1 → 2 → 3, then give up loudly).
//!
//! The problem-specific finishers and the escalation driver itself live in
//! the algorithms crate (`local_algorithms::repair`), which consumes these
//! types.

use local_graphs::{Graph, GraphBuilder, NodeId};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// A per-run resource budget enforced by the engine's watchdog.
///
/// `max_rounds` is always enforced (it subsumes the engine's historical round
/// limit); `max_messages` and `wall_clock` are opt-in. A breached run is cut,
/// never aborted: still-live nodes report [`Outcome::Cut`](crate::Outcome)
/// and the breach kind is recorded on the run.
///
/// Note that wall-clock budgets are inherently nondeterministic — two runs of
/// the same seed may cut at different sweeps. Leave `wall_clock` at `None`
/// anywhere byte-identical replay matters (the experiment sweeps do).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of engine sweeps before the run is cut.
    pub max_rounds: u32,
    /// Optional cap on total messages sent across all nodes and rounds.
    pub max_messages: Option<u64>,
    /// Optional cap on elapsed wall-clock time (checked between sweeps).
    pub wall_clock: Option<Duration>,
}

// Hand-written: `wall_clock` is a `Duration`, which the vendored serde has
// no impl for — it serializes as fractional seconds (or null).
impl serde::Serialize for Budget {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("max_rounds".to_string(), self.max_rounds.to_value()),
            ("max_messages".to_string(), self.max_messages.to_value()),
            (
                "wall_clock_secs".to_string(),
                self.wall_clock.map(|d| d.as_secs_f64()).to_value(),
            ),
        ])
    }
}

impl Budget {
    /// A budget limiting only the number of rounds.
    pub fn rounds(max_rounds: u32) -> Self {
        Budget {
            max_rounds,
            max_messages: None,
            wall_clock: None,
        }
    }

    /// Add a cap on total messages sent.
    pub fn with_max_messages(mut self, max_messages: u64) -> Self {
        self.max_messages = Some(max_messages);
        self
    }

    /// Add a wall-clock cap (checked between sweeps, so one slow sweep can
    /// overshoot it; see the type-level note on determinism).
    pub fn with_wall_clock(mut self, wall_clock: Duration) -> Self {
        self.wall_clock = Some(wall_clock);
        self
    }
}

/// Which budget axis a cut run breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Breach {
    /// The sweep count reached [`Budget::max_rounds`].
    Rounds,
    /// Total messages sent exceeded [`Budget::max_messages`].
    Messages,
    /// Elapsed time exceeded [`Budget::wall_clock`].
    WallClock,
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Breach::Rounds => write!(f, "round budget"),
            Breach::Messages => write!(f, "message budget"),
            Breach::WallClock => write!(f, "wall-clock budget"),
        }
    }
}

// Hand-written: the derive macro does not cover unit-variant enums; a breach
// serializes as its snake_case name.
impl serde::Serialize for Breach {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(
            match self {
                Breach::Rounds => "rounds",
                Breach::Messages => "messages",
                Breach::WallClock => "wall_clock",
            }
            .to_string(),
        )
    }
}

/// One rung of the recovery escalation ladder, as recorded by the driver.
///
/// The trail is the shared currency of the degradation plane: a failed
/// recovery carries it on [`RecoveryError::Exhausted`], and the graceful
/// `DegradedRun` report (in the algorithms crate) embeds the same records —
/// one struct, two consumers, so the two views can never drift apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The 1-based attempt number (attempt `k` dilates to radius `k`).
    pub attempt: u32,
    /// The boundary radius this attempt dilated the core by.
    pub radius: u32,
    /// Core vertices the residue was grown from (grows as failed splices
    /// absorb their violations).
    pub core_size: usize,
    /// Residue members relabeled by this attempt.
    pub residue_size: usize,
    /// Violations remaining after this attempt's splice (0 if the attempt
    /// never reached the splice).
    pub violations: usize,
    /// The budget axis this attempt breached, if any.
    pub breach: Option<Breach>,
    /// Why the finisher refused at this radius, if it did.
    pub infeasible: Option<String>,
}

// Hand-written because `Breach` is.
impl serde::Serialize for AttemptRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("attempt".to_string(), self.attempt.to_value()),
            ("radius".to_string(), self.radius.to_value()),
            ("core_size".to_string(), self.core_size.to_value()),
            ("residue_size".to_string(), self.residue_size.to_value()),
            ("violations".to_string(), self.violations.to_value()),
            ("breach".to_string(), self.breach.to_value()),
            ("infeasible".to_string(), self.infeasible.to_value()),
        ])
    }
}

/// Why a recovery attempt (or the whole escalation ladder) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// Every escalation radius was tried and the spliced labeling still
    /// failed `check_complete`.
    Exhausted {
        /// How many attempts ran (one per radius).
        attempts: u32,
        /// The largest boundary radius tried.
        max_radius: u32,
        /// Violations remaining after the last attempt's splice.
        violations: usize,
        /// The per-attempt history (one [`AttemptRecord`] per radius tried),
        /// shared verbatim with the graceful `DegradedRun` report.
        trail: Vec<AttemptRecord>,
    },
    /// A finisher attempt breached its [`Budget`].
    Budget {
        /// The attempt (1-based) that breached.
        attempt: u32,
        /// Which budget axis was breached.
        breach: Breach,
    },
    /// The residue admits no valid completion at this radius (e.g. a frozen
    /// boundary starves the palette, or a tree component cannot host an
    /// out-edge). Escalation may still succeed at a larger radius.
    Infeasible {
        /// The attempt (1-based) that was infeasible.
        attempt: u32,
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Exhausted {
                attempts,
                max_radius,
                violations,
                ..
            } => write!(
                f,
                "recovery exhausted after {attempts} attempt(s) up to radius \
                 {max_radius} ({violations} violation(s) remained)"
            ),
            RecoveryError::Budget { attempt, breach } => {
                write!(f, "recovery attempt {attempt} breached its {breach}")
            }
            RecoveryError::Infeasible { attempt, reason } => {
                write!(f, "recovery attempt {attempt} infeasible: {reason}")
            }
        }
    }
}

impl Error for RecoveryError {}

// Hand-written (data-carrying enum): a `kind`-tagged flat object. The
// `Exhausted` trail is deliberately omitted — the `DegradedRun` report that
// embeds this error serializes the shared trail exactly once, at top level.
impl serde::Serialize for RecoveryError {
    fn to_value(&self) -> serde::Value {
        let kind = |k: &str| ("kind".to_string(), serde::Value::String(k.to_string()));
        match self {
            RecoveryError::Exhausted {
                attempts,
                max_radius,
                violations,
                ..
            } => serde::Value::Object(vec![
                kind("exhausted"),
                ("attempts".to_string(), attempts.to_value()),
                ("max_radius".to_string(), max_radius.to_value()),
                ("violations".to_string(), violations.to_value()),
            ]),
            RecoveryError::Budget { attempt, breach } => serde::Value::Object(vec![
                kind("budget"),
                ("attempt".to_string(), attempt.to_value()),
                ("breach".to_string(), breach.to_value()),
            ]),
            RecoveryError::Infeasible { attempt, reason } => serde::Value::Object(vec![
                kind("infeasible"),
                ("attempt".to_string(), attempt.to_value()),
                ("reason".to_string(), reason.to_value()),
            ]),
        }
    }
}

/// The residual subgraph a finisher runs on: a core vertex set dilated by
/// `radius` hops, with the induced subgraph and local↔global index maps.
///
/// Members are listed in ascending global vertex order, and the induced
/// subgraph's vertices use that local order — everything here is a pure
/// function of `(graph, core, radius)`, so recovery is deterministic.
#[derive(Debug, Clone)]
pub struct Residue {
    members: Vec<NodeId>,
    to_local: Vec<Option<usize>>,
    graph: Graph,
    radius: u32,
    core_size: usize,
}

impl Residue {
    /// Extract the residue of `core` (a per-vertex mask) dilated by `radius`
    /// hops in `g`.
    ///
    /// # Panics
    ///
    /// Panics if `core.len() != g.n()`.
    pub fn extract(g: &Graph, core: &[bool], radius: u32) -> Residue {
        assert_eq!(core.len(), g.n(), "core mask must cover every vertex");
        let mut dist: Vec<Option<u32>> = vec![None; g.n()];
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for (v, &in_core) in core.iter().enumerate() {
            if in_core {
                dist[v] = Some(0);
                queue.push_back(v);
            }
        }
        let core_size = queue.len();
        while let Some(v) = queue.pop_front() {
            let d = dist[v].expect("queued vertices have distances");
            if d >= radius {
                continue;
            }
            for nb in g.neighbors(v) {
                if dist[nb.node()].is_none() {
                    dist[nb.node()] = Some(d + 1);
                    queue.push_back(nb.node());
                }
            }
        }
        let members: Vec<NodeId> = (0..g.n()).filter(|&v| dist[v].is_some()).collect();
        let mut to_local: Vec<Option<usize>> = vec![None; g.n()];
        for (i, &v) in members.iter().enumerate() {
            to_local[v] = Some(i);
        }
        let mut builder = GraphBuilder::new(members.len());
        for &(u, v) in g.edges() {
            if let (Some(lu), Some(lv)) = (to_local[u], to_local[v]) {
                builder
                    .add_edge(lu, lv)
                    .expect("induced subgraph of a simple graph is simple");
            }
        }
        Residue {
            members,
            to_local,
            graph: builder.build(),
            radius,
            core_size,
        }
    }

    /// The induced subgraph on the members (local vertex `i` is global vertex
    /// `self.global(i)`). Port numbering is the induced graph's own.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The member vertices, in ascending global order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the residue is empty (an empty core stays empty at any
    /// radius).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of core (radius-0) vertices the residue was grown from.
    pub fn core_size(&self) -> usize {
        self.core_size
    }

    /// The dilation radius this residue was extracted with.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Whether global vertex `v` is a member.
    pub fn contains(&self, v: NodeId) -> bool {
        self.to_local.get(v).is_some_and(Option::is_some)
    }

    /// The local index of global vertex `v`, if it is a member.
    pub fn local(&self, v: NodeId) -> Option<usize> {
        self.to_local.get(v).copied().flatten()
    }

    /// The global vertex behind local index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn global(&self, i: usize) -> NodeId {
        self.members[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;

    #[test]
    fn budget_builders_compose() {
        let b = Budget::rounds(10)
            .with_max_messages(100)
            .with_wall_clock(Duration::from_millis(5));
        assert_eq!(b.max_rounds, 10);
        assert_eq!(b.max_messages, Some(100));
        assert_eq!(b.wall_clock, Some(Duration::from_millis(5)));
        assert_eq!(Budget::rounds(3).max_messages, None);
    }

    #[test]
    fn breach_and_error_display() {
        assert_eq!(Breach::Rounds.to_string(), "round budget");
        let e = RecoveryError::Exhausted {
            attempts: 3,
            max_radius: 3,
            violations: 2,
            trail: Vec::new(),
        };
        assert!(e.to_string().contains("3 attempt"));
        assert!(e.to_string().contains("radius"));
        let e = RecoveryError::Budget {
            attempt: 2,
            breach: Breach::Messages,
        };
        assert!(e.to_string().contains("message budget"));
        let e = RecoveryError::Infeasible {
            attempt: 1,
            reason: "no free color".into(),
        };
        assert!(e.to_string().contains("no free color"));
    }

    #[test]
    fn attempt_record_serializes_flat() {
        let rec = AttemptRecord {
            attempt: 2,
            radius: 2,
            core_size: 5,
            residue_size: 12,
            violations: 1,
            breach: None,
            infeasible: Some("no free color".to_string()),
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert_eq!(
            json,
            "{\"attempt\":2,\"radius\":2,\"core_size\":5,\"residue_size\":12,\
             \"violations\":1,\"breach\":null,\"infeasible\":\"no free color\"}"
        );
        let breached = AttemptRecord {
            breach: Some(Breach::WallClock),
            infeasible: None,
            ..rec
        };
        assert!(serde_json::to_string(&breached)
            .unwrap()
            .contains("\"breach\":\"wall_clock\""));
    }

    #[test]
    fn residue_of_path_center_grows_with_radius() {
        // Path 0-1-2-3-4, core = {2}.
        let g = gen::path(5);
        let core = [false, false, true, false, false];
        let r1 = Residue::extract(&g, &core, 1);
        assert_eq!(r1.members(), &[1, 2, 3]);
        assert_eq!(r1.core_size(), 1);
        assert_eq!(r1.len(), 3);
        assert_eq!(r1.graph().n(), 3);
        assert_eq!(r1.graph().m(), 2);
        assert!(r1.contains(2) && !r1.contains(0));
        assert_eq!(r1.local(1), Some(0));
        assert_eq!(r1.local(4), None);
        assert_eq!(r1.global(2), 3);

        let r2 = Residue::extract(&g, &core, 2);
        assert_eq!(r2.members(), &[0, 1, 2, 3, 4]);
        assert_eq!(r2.graph().m(), 4);
        assert_eq!(r2.radius(), 2);
    }

    #[test]
    fn residue_radius_zero_is_the_core_itself() {
        let g = gen::cycle(6);
        let core = [true, false, false, true, true, false];
        let r = Residue::extract(&g, &core, 0);
        assert_eq!(r.members(), &[0, 3, 4]);
        // 3-4 is the only induced edge.
        assert_eq!(r.graph().m(), 1);
    }

    #[test]
    fn empty_core_yields_empty_residue() {
        let g = gen::cycle(4);
        let r = Residue::extract(&g, &[false; 4], 3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.core_size(), 0);
    }

    #[test]
    fn residue_keeps_induced_edges_only() {
        // Star with hub 0: core = two leaves. Radius 0 gives an edgeless
        // residue; radius 1 pulls in the hub and the two spokes.
        let g = gen::star(5);
        let mut core = vec![false; 5];
        core[1] = true;
        core[2] = true;
        let r0 = Residue::extract(&g, &core, 0);
        assert_eq!(r0.graph().m(), 0);
        let r1 = Residue::extract(&g, &core, 1);
        assert_eq!(r1.members(), &[0, 1, 2]);
        assert_eq!(r1.graph().m(), 2);
    }
}
