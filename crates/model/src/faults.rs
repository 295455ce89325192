//! Deterministic fault injection for the round engine.
//!
//! The LOCAL model assumes perfectly synchronous, fault-free rounds; every
//! theorem the repo reproduces leans on that assumption. A [`FaultPlan`]
//! breaks it *on demand and reproducibly*: per-directed-edge message-drop
//! probabilities, a per-node crash-at-round schedule, and an optional
//! one-round message delay, all sampled from the plan's own ChaCha8 streams
//! (split via the engine's `splitmix64` convention). Given the same
//! `(graph, mode, fault_seed)` triple, a faulty run replays bit-identically —
//! including across the engine's sequential and parallel stepping paths,
//! because every fault decision is made on the delivery path, which is
//! single-threaded and ordered by directed-edge slot.
//!
//! Fault semantics (all crash-stop, no Byzantine behavior):
//!
//! * **Drop**: a message sent along directed edge `(v, p)` is discarded with
//!   the slot's drop probability, independently per round.
//! * **Delay**: a surviving message is deferred by one round with probability
//!   `delay_p`. If the sender emits a fresh message on the same port in the
//!   next round, the newer message wins and the delayed one is dropped (each
//!   port buffers at most one message per round in the LOCAL model).
//! * **Crash**: a node with `crash_round = Some(r)` falls silent from sweep
//!   `r` on — it stops stepping, sends nothing, and never halts. Messages it
//!   sent in earlier rounds still deliver.
//!
//! [`Engine::execute`](crate::Engine::execute) and
//! [`Engine::execute_sync`](crate::Engine::execute_sync) consume a plan and
//! report per-node [`Outcome`]s with partial outputs instead of the
//! all-or-nothing [`Run`](crate::Run).

use crate::engine::{splitmix64, Run, RunStats};
use crate::error::SimError;
use local_graphs::{Graph, NodeId, PortId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stream tag for the crash-schedule sampler (split from the fault seed).
const CRASH_STREAM: u64 = 0xC4A5;
/// Stream tag base for per-round drop/delay decisions.
const ROUND_STREAM: u64 = 0xD409;

/// The knobs of a sampled fault plan: how faulty the network should be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that any given message is dropped (applied independently
    /// per directed edge per round).
    pub drop_p: f64,
    /// Probability that a surviving message is delayed by one round.
    pub delay_p: f64,
    /// Probability that a node crashes at all.
    pub crash_p: f64,
    /// Crashing nodes pick their crash round uniformly from
    /// `0..crash_window` (a node crashing at round 0 never acts).
    pub crash_window: u32,
}

/// Reject a probability outside `[0, 1]` (NaN included) with a message
/// naming the offending knob.
fn checked_probability(knob: &str, p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "{knob}: probability must be in [0, 1], got {p}"
    );
    p
}

impl FaultSpec {
    /// The fault-free specification.
    pub fn none() -> Self {
        FaultSpec {
            drop_p: 0.0,
            delay_p: 0.0,
            crash_p: 0.0,
            crash_window: 0,
        }
    }

    /// Fault-free, then with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_p = checked_probability("FaultSpec::with_drop", p);
        self
    }

    /// Fault-free, then with the given delay probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_delay(mut self, p: f64) -> Self {
        self.delay_p = checked_probability("FaultSpec::with_delay", p);
        self
    }

    /// Fault-free, then with the given crash probability and window.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_crash(mut self, p: f64, window: u32) -> Self {
        self.crash_p = checked_probability("FaultSpec::with_crash", p);
        self.crash_window = window;
        self
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// A fully materialized, deterministic fault schedule for one graph.
///
/// Construct with [`FaultPlan::none`] (trivial, observably identical to the
/// fault-free engine), [`FaultPlan::sample`] (from a [`FaultSpec`] and a
/// fault seed), or [`FaultPlan::from_crash_schedule`] (explicit crash rounds,
/// for tests).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-directed-edge drop probability, indexed by CSR slot (vertex `v`'s
    /// port `p` is slot `offset(v) + p`). Empty = no drops anywhere.
    drop: Vec<f64>,
    /// Probability a surviving message is deferred one round.
    delay_p: f64,
    /// Per-node crash round. Empty = no crashes anywhere.
    crash_round: Vec<Option<u32>>,
    /// The seed the per-round drop/delay streams are split from.
    seed: u64,
}

impl FaultPlan {
    /// The trivial plan: no drops, no delays, no crashes.
    pub const fn none() -> Self {
        FaultPlan {
            drop: Vec::new(),
            delay_p: 0.0,
            crash_round: Vec::new(),
            seed: 0,
        }
    }

    /// Sample a plan for `g` from `spec`, deterministically in `fault_seed`.
    ///
    /// The crash schedule is drawn up front from its own split stream; drop
    /// and delay decisions are drawn later, per round, from per-round split
    /// streams — so the whole fault trace is a pure function of
    /// `(g, spec, fault_seed)`.
    pub fn sample(g: &Graph, spec: &FaultSpec, fault_seed: u64) -> Self {
        let crash_round = if spec.crash_p > 0.0 {
            let mut rng =
                ChaCha8Rng::seed_from_u64(splitmix64(fault_seed ^ splitmix64(CRASH_STREAM)));
            (0..g.n())
                .map(|_| {
                    if rng.gen::<f64>() < spec.crash_p {
                        Some(rng.gen_range(0..u64::from(spec.crash_window.max(1))) as u32)
                    } else {
                        None
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let drop = if spec.drop_p > 0.0 {
            vec![spec.drop_p; g.vertices().map(|v| g.degree(v)).sum()]
        } else {
            Vec::new()
        };
        FaultPlan {
            drop,
            delay_p: spec.delay_p,
            crash_round,
            seed: fault_seed,
        }
    }

    /// A plan with an explicit per-node crash schedule and no message faults.
    pub fn from_crash_schedule(crash_round: Vec<Option<u32>>) -> Self {
        FaultPlan {
            drop: Vec::new(),
            delay_p: 0.0,
            crash_round,
            seed: 0,
        }
    }

    /// Override the drop probability of the single directed edge `(v, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= g.degree(v)`, or if `drop_p` is not in `[0, 1]`
    /// (NaN rejected) — the same contract as the [`FaultSpec`] builders.
    pub fn set_edge_drop(&mut self, g: &Graph, v: NodeId, p: PortId, drop_p: f64) {
        assert!(p < g.degree(v), "port {p} out of range for vertex {v}");
        let drop_p = checked_probability("FaultPlan::set_edge_drop", drop_p);
        let total: usize = g.vertices().map(|u| g.degree(u)).sum();
        if self.drop.is_empty() {
            self.drop = vec![0.0; total];
        }
        let offset: usize = (0..v).map(|u| g.degree(u)).sum();
        self.drop[offset + p] = drop_p;
    }

    /// Whether this plan can never inject a fault (the engine then takes the
    /// plain fault-free paths, so a trivial plan is observably identical to
    /// no plan at all).
    pub fn is_trivial(&self) -> bool {
        !self.has_drops() && !self.has_delays() && !self.has_crashes()
    }

    /// The fault seed the message-fault streams are split from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-node crash schedule (empty if no crashes are planned).
    pub fn crash_schedule(&self) -> &[Option<u32>] {
        &self.crash_round
    }

    /// Set (or clear, with `None`) the crash round of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn set_crash(&mut self, g: &Graph, v: NodeId, round: Option<u32>) {
        assert!(v < g.n(), "vertex {v} out of range (n = {})", g.n());
        if self.crash_round.is_empty() {
            if round.is_none() {
                return;
            }
            self.crash_round = vec![None; g.n()];
        }
        self.crash_round[v] = round;
    }

    /// Number of nodes with a scheduled crash.
    pub fn crash_count(&self) -> usize {
        self.crash_round.iter().filter(|r| r.is_some()).count()
    }

    /// Number of directed-edge slots with a nonzero drop probability.
    pub fn dropped_edge_count(&self) -> usize {
        self.drop.iter().filter(|&&p| p > 0.0).count()
    }

    /// The nonzero per-directed-edge drop probabilities, as
    /// `(CSR slot, probability)` pairs in slot order.
    pub fn edge_drops(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.drop
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(slot, &p)| (slot, p))
    }

    /// The delay probability of this plan.
    pub fn delay_probability(&self) -> f64 {
        self.delay_p
    }

    /// The drop probability of directed-edge `slot` (0.0 when unset).
    pub fn edge_drop(&self, slot: usize) -> f64 {
        self.drop.get(slot).copied().unwrap_or(0.0)
    }

    /// Propose the neighborhood move derived from `move_seed` (see
    /// [`FaultMove::seed`]): a uniformly chosen crash-round set/clear or
    /// directed-edge drop toggle. Crash rounds are drawn from
    /// `0..crash_window.max(1)`. The proposal depends only on
    /// `(g, move_seed, crash_window)` — not on the plan's current state — so
    /// a search trajectory replays exactly from its seed.
    pub fn propose(&self, g: &Graph, move_seed: u64, crash_window: u32) -> FaultMove {
        let total: usize = g.vertices().map(|u| g.degree(u)).sum();
        let r0 = splitmix64(move_seed);
        let r1 = splitmix64(r0);
        let r2 = splitmix64(r1);
        match r0 % 4 {
            0 | 1 => FaultMove::SetCrash {
                v: (r1 % g.n() as u64) as NodeId,
                round: (r2 % u64::from(crash_window.max(1))) as u32,
            },
            2 => FaultMove::ClearCrash {
                v: (r1 % g.n() as u64) as NodeId,
            },
            _ => FaultMove::ToggleDrop {
                slot: (r1 % total.max(1) as u64) as usize,
            },
        }
    }

    /// Apply `mv` to this plan. Drop toggles flip the slot between 0.0 and
    /// 1.0 (adversary plans are hard-fault plans: an edge either always
    /// delivers or never does, which also keeps their JSON artifacts exact).
    ///
    /// # Panics
    ///
    /// Panics if the move's vertex or slot is out of range for `g`.
    pub fn apply(&mut self, g: &Graph, mv: &FaultMove) {
        match *mv {
            FaultMove::SetCrash { v, round } => self.set_crash(g, v, Some(round)),
            FaultMove::ClearCrash { v } => self.set_crash(g, v, None),
            FaultMove::ToggleDrop { slot } => {
                let total: usize = g.vertices().map(|u| g.degree(u)).sum();
                assert!(slot < total, "slot {slot} out of range ({total} ports)");
                if self.drop.is_empty() {
                    self.drop = vec![0.0; total];
                }
                self.drop[slot] = if self.drop[slot] > 0.0 { 0.0 } else { 1.0 };
            }
        }
    }

    pub(crate) fn has_drops(&self) -> bool {
        self.drop.iter().any(|&p| p > 0.0)
    }

    pub(crate) fn has_delays(&self) -> bool {
        self.delay_p > 0.0
    }

    pub(crate) fn has_crashes(&self) -> bool {
        self.crash_round.iter().any(Option::is_some)
    }

    pub(crate) fn drop_p(&self, slot: usize) -> f64 {
        self.drop.get(slot).copied().unwrap_or(0.0)
    }

    pub(crate) fn delay_p(&self) -> f64 {
        self.delay_p
    }

    pub(crate) fn crash_round(&self, v: NodeId) -> Option<u32> {
        self.crash_round.get(v).copied().flatten()
    }

    /// The drop/delay decision stream for the exchange after sweep `round`.
    /// Split per round so the trace is independent of how many messages
    /// earlier rounds carried.
    pub(crate) fn round_rng(&self, round: u32) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(splitmix64(
            self.seed ^ splitmix64(ROUND_STREAM.wrapping_add(u64::from(round))),
        ))
    }
}

/// Stream tag base for adversary-search move seeds.
const MOVE_STREAM: u64 = 0xAD5E;

/// One local move in the adversary-search neighborhood of a [`FaultPlan`].
///
/// Moves are the unit of the worst-case fault search: each search step
/// proposes candidate moves via [`FaultPlan::propose`], scores the mutated
/// plans, and applies the winner with [`FaultPlan::apply`]. A move is plain
/// data, so an accepted trajectory is fully described by
/// `(search_seed, step)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMove {
    /// Schedule (or reschedule) vertex `v` to crash at sweep `round`.
    SetCrash {
        /// The vertex to crash.
        v: NodeId,
        /// The sweep from which it falls silent.
        round: u32,
    },
    /// Remove vertex `v`'s scheduled crash.
    ClearCrash {
        /// The vertex to revive.
        v: NodeId,
    },
    /// Flip directed-edge `slot` between never-drop (0.0) and always-drop
    /// (1.0).
    ToggleDrop {
        /// The CSR slot of the directed edge (vertex `v`'s port `p` is slot
        /// `offset(v) + p`).
        slot: usize,
    },
}

impl FaultMove {
    /// The move seed for step `step` of a search started from `search_seed`,
    /// split with the engine's `splitmix64` convention. Feeding this to
    /// [`FaultPlan::propose`] replays the exact proposal, so a search
    /// trajectory is a pure function of its `(search_seed, step)` sequence.
    pub fn seed(search_seed: u64, step: u64) -> u64 {
        splitmix64(search_seed ^ splitmix64(MOVE_STREAM.wrapping_add(step)))
    }

    /// The tabu attribute this move touches: crash moves key on the vertex,
    /// drop toggles on the slot. A tabu list bans *attributes* for a tenure,
    /// so a just-crashed vertex cannot be immediately revived (and vice
    /// versa), the classic PARTIALCOL-style anti-cycling rule.
    pub fn key(&self) -> u64 {
        match *self {
            FaultMove::SetCrash { v, .. } | FaultMove::ClearCrash { v } => v as u64,
            FaultMove::ToggleDrop { slot } => (1 << 63) | slot as u64,
        }
    }

    /// A short human/trace label, e.g. `crash(v3@r1)`, `revive(v3)`,
    /// `toggle(e17)`.
    pub fn describe(&self) -> String {
        match *self {
            FaultMove::SetCrash { v, round } => format!("crash(v{v}@r{round})"),
            FaultMove::ClearCrash { v } => format!("revive(v{v})"),
            FaultMove::ToggleDrop { slot } => format!("toggle(e{slot})"),
        }
    }
}

impl serde::Serialize for FaultMove {
    fn to_value(&self) -> serde::Value {
        let (kind, fields) = match *self {
            FaultMove::SetCrash { v, round } => (
                "set_crash",
                vec![
                    ("v".to_string(), serde::Value::U64(v as u64)),
                    ("round".to_string(), serde::Value::U64(u64::from(round))),
                ],
            ),
            FaultMove::ClearCrash { v } => (
                "clear_crash",
                vec![("v".to_string(), serde::Value::U64(v as u64))],
            ),
            FaultMove::ToggleDrop { slot } => (
                "toggle_drop",
                vec![("slot".to_string(), serde::Value::U64(slot as u64))],
            ),
        };
        let mut entries = vec![("move".to_string(), serde::Value::String(kind.to_string()))];
        entries.extend(fields);
        serde::Value::Object(entries)
    }
}

impl serde::Deserialize for FaultMove {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let kind = String::from_value(v.field("move")?)?;
        match kind.as_str() {
            "set_crash" => Ok(FaultMove::SetCrash {
                v: usize::from_value(v.field("v")?)?,
                round: u32::from_value(v.field("round")?)?,
            }),
            "clear_crash" => Ok(FaultMove::ClearCrash {
                v: usize::from_value(v.field("v")?)?,
            }),
            "toggle_drop" => Ok(FaultMove::ToggleDrop {
                slot: usize::from_value(v.field("slot")?)?,
            }),
            other => Err(serde::DeError(format!("unknown fault move `{other}`"))),
        }
    }
}

// Hand-written (the derive macro covers plain structs, not private-field
// invariants we want to keep): a plan serializes to a flat object whose
// `drop` entries are exact under the JSON writer when they are the
// adversary's 0.0/1.0 hard faults, so pinned artifacts round-trip
// byte-for-byte.
impl serde::Serialize for FaultPlan {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("drop".to_string(), self.drop.to_value()),
            ("delay_p".to_string(), self.delay_p.to_value()),
            ("crash_round".to_string(), self.crash_round.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

/// A parsed probability, or a typed error where the constructors would
/// panic: outside `[0, 1]` or NaN.
fn parsed_probability(field: &str, p: f64) -> Result<f64, serde::DeError> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(serde::DeError(format!(
            "{field}: probability must be in [0, 1], got {p}"
        )))
    }
}

impl serde::Deserialize for FaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(FaultPlan {
            drop: Vec::<f64>::from_value(v.field("drop")?)?
                .into_iter()
                .map(|p| parsed_probability("drop", p))
                .collect::<Result<_, _>>()?,
            delay_p: parsed_probability("delay_p", f64::from_value(v.field("delay_p")?)?)?,
            crash_round: Vec::<Option<u32>>::from_value(v.field("crash_round")?)?,
            seed: u64::from_value(v.field("seed")?)?,
        })
    }
}

/// The fate of one node in a faulty run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<O> {
    /// The node halted normally with an output.
    Halted {
        /// The round in which it halted.
        round: u32,
        /// Its output.
        output: O,
    },
    /// The node crashed (fell permanently silent) before halting.
    Crashed {
        /// The sweep from which it stopped participating.
        round: u32,
    },
    /// The node was still live when the sweep budget cut the run.
    Cut,
}

impl<O> Outcome<O> {
    /// The output, if the node halted.
    pub fn output(&self) -> Option<&O> {
        match self {
            Outcome::Halted { output, .. } => Some(output),
            _ => None,
        }
    }

    /// Whether the node halted normally.
    pub fn is_halted(&self) -> bool {
        matches!(self, Outcome::Halted { .. })
    }

    /// Whether the node crashed.
    pub fn is_crashed(&self) -> bool {
        matches!(self, Outcome::Crashed { .. })
    }

    /// Whether the node was cut by the sweep budget.
    pub fn is_cut(&self) -> bool {
        matches!(self, Outcome::Cut)
    }
}

/// The result of a crash-tolerant run: per-node outcomes with partial
/// outputs, never an error — a run that exhausts its sweep budget degrades
/// to [`Outcome::Cut`] entries instead of failing wholesale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultyRun<O> {
    /// Per-vertex fates, indexed by vertex.
    pub outcomes: Vec<Outcome<O>>,
    /// Maximum halting round over the nodes that did halt (0 if none).
    pub rounds: u32,
    /// Message and sweep counters (crashed nodes' pre-crash messages
    /// included).
    pub stats: RunStats,
    /// Messages discarded by drop faults (including delayed messages
    /// superseded by a fresher one on the same port).
    pub dropped: u64,
    /// Messages deferred by one round.
    pub delayed: u64,
    /// Which budget axis cut the run, if any ([`Outcome::Cut`] entries exist
    /// only when this is `Some`).
    pub breach: Option<crate::recover::Breach>,
}

impl<O> FaultyRun<O> {
    /// Number of nodes that halted normally.
    pub fn halted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_halted()).count()
    }

    /// Number of nodes that crashed.
    pub fn crashed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_crashed()).count()
    }

    /// Number of nodes cut by the sweep budget.
    pub fn cut(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_cut()).count()
    }

    /// Per-vertex outputs for the halted nodes, `None` elsewhere — the shape
    /// partial LCL validation consumes.
    pub fn partial_outputs(&self) -> Vec<Option<&O>> {
        self.outcomes.iter().map(Outcome::output).collect()
    }

    /// Collapse into the strict all-or-nothing [`Run`] shape: every node
    /// must have halted with an output.
    ///
    /// `limit` is the round budget reported on the error (callers know which
    /// budget they ran under; the run itself only records the breach axis).
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] if any node was cut by the budget.
    ///
    /// # Panics
    ///
    /// If a node crashed: crash-stop outcomes have no strict-run equivalent,
    /// so converting a run executed under a crashing fault plan is a logic
    /// error.
    pub fn into_run(self, limit: u32) -> Result<Run<O>, SimError> {
        let cut = self.cut();
        if cut > 0 {
            return Err(SimError::RoundLimitExceeded {
                limit,
                live_nodes: cut,
                live_sample: self
                    .outcomes
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_cut())
                    .map(|(v, _)| v)
                    .take(SimError::LIVE_SAMPLE_CAP)
                    .collect(),
            });
        }
        let mut outputs = Vec::with_capacity(self.outcomes.len());
        let mut halt_rounds = Vec::with_capacity(self.outcomes.len());
        for outcome in self.outcomes {
            let (r, o) = match outcome {
                Outcome::Halted { round, output } => (round, output),
                _ => panic!("into_run on a run with crashed nodes"),
            };
            halt_rounds.push(r);
            outputs.push(o);
        }
        Ok(Run {
            outputs,
            rounds: self.rounds,
            halt_rounds,
            stats: self.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use local_graphs::gen;
    use serde::{Deserialize, Serialize};

    #[test]
    fn trivial_plans_are_trivial() {
        assert!(FaultPlan::none().is_trivial());
        let g = gen::cycle(5);
        assert!(FaultPlan::sample(&g, &FaultSpec::none(), 7).is_trivial());
        assert!(FaultPlan::from_crash_schedule(vec![None; 5]).is_trivial());
        assert!(!FaultPlan::from_crash_schedule(vec![None, Some(2)]).is_trivial());
        assert!(!FaultPlan::sample(&g, &FaultSpec::none().with_drop(0.5), 7).is_trivial());
        assert!(!FaultPlan::sample(&g, &FaultSpec::none().with_delay(0.5), 7).is_trivial());
    }

    #[test]
    fn probability_boundaries_are_accepted() {
        let spec = FaultSpec::none()
            .with_drop(0.0)
            .with_delay(1.0)
            .with_crash(0.5, 4);
        assert_eq!(spec.drop_p, 0.0);
        assert_eq!(spec.delay_p, 1.0);
        assert_eq!(spec.crash_p, 0.5);
        assert_eq!(FaultSpec::none().with_drop(1.0).drop_p, 1.0);
        assert_eq!(FaultSpec::none().with_crash(0.0, 0).crash_p, 0.0);
    }

    #[test]
    #[should_panic(expected = "with_drop: probability must be in [0, 1]")]
    fn negative_drop_probability_panics() {
        let _ = FaultSpec::none().with_drop(-0.1);
    }

    #[test]
    #[should_panic(expected = "with_delay: probability must be in [0, 1]")]
    fn oversized_delay_probability_panics() {
        let _ = FaultSpec::none().with_delay(1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "with_crash: probability must be in [0, 1]")]
    fn nan_crash_probability_panics() {
        let _ = FaultSpec::none().with_crash(f64::NAN, 5);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let g = gen::cycle(64);
        let spec = FaultSpec {
            drop_p: 0.1,
            delay_p: 0.05,
            crash_p: 0.3,
            crash_window: 10,
        };
        let a = FaultPlan::sample(&g, &spec, 42);
        let b = FaultPlan::sample(&g, &spec, 42);
        let c = FaultPlan::sample(&g, &spec, 43);
        assert_eq!(a, b);
        assert_ne!(a.crash_schedule(), c.crash_schedule());
        assert!(a.has_crashes());
        assert!(a.crash_schedule().iter().flatten().all(|&r| r < 10));
    }

    #[test]
    fn edge_drop_overrides_one_slot() {
        let g = gen::path(3); // degrees 1, 2, 1 → slots 0..4
        let mut plan = FaultPlan::none();
        plan.set_edge_drop(&g, 1, 1, 0.75);
        assert_eq!(plan.drop_p(0), 0.0);
        assert_eq!(plan.drop_p(2), 0.75);
        assert!(plan.has_drops());
    }

    #[test]
    #[should_panic(expected = "FaultPlan::set_edge_drop: probability must be in [0, 1]")]
    fn negative_edge_drop_panics() {
        let g = gen::path(3);
        let mut plan = FaultPlan::none();
        plan.set_edge_drop(&g, 1, 0, -0.25);
    }

    #[test]
    #[should_panic(expected = "FaultPlan::set_edge_drop: probability must be in [0, 1]")]
    fn oversized_edge_drop_panics() {
        let g = gen::path(3);
        let mut plan = FaultPlan::none();
        plan.set_edge_drop(&g, 1, 0, 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "FaultPlan::set_edge_drop: probability must be in [0, 1]")]
    fn nan_edge_drop_panics() {
        let g = gen::path(3);
        let mut plan = FaultPlan::none();
        plan.set_edge_drop(&g, 1, 0, f64::NAN);
    }

    #[test]
    fn edge_drop_boundaries_are_accepted() {
        let g = gen::path(3);
        let mut plan = FaultPlan::none();
        plan.set_edge_drop(&g, 0, 0, 0.0);
        plan.set_edge_drop(&g, 2, 0, 1.0);
        assert_eq!(plan.drop_p(3), 1.0);
        assert!(!plan.is_trivial());
    }

    #[test]
    fn set_crash_and_counts() {
        let g = gen::cycle(5);
        let mut plan = FaultPlan::none();
        plan.set_crash(&g, 3, None); // clearing a crash on the empty plan is a no-op
        assert!(plan.is_trivial());
        plan.set_crash(&g, 3, Some(2));
        plan.set_crash(&g, 0, Some(0));
        assert_eq!(plan.crash_count(), 2);
        assert_eq!(plan.crash_schedule()[3], Some(2));
        plan.set_crash(&g, 3, None);
        assert_eq!(plan.crash_count(), 1);
    }

    #[test]
    fn move_proposals_replay_from_seed() {
        let g = gen::cycle(8);
        let plan = FaultPlan::none();
        for step in 0..64 {
            let seed = FaultMove::seed(99, step);
            assert_eq!(plan.propose(&g, seed, 4), plan.propose(&g, seed, 4));
        }
        // Different steps should not all collapse to one move.
        let moves: std::collections::BTreeSet<String> = (0..64)
            .map(|s| plan.propose(&g, FaultMove::seed(99, s), 4).describe())
            .collect();
        assert!(moves.len() > 8, "degenerate neighborhood: {moves:?}");
    }

    #[test]
    fn proposals_stay_in_range() {
        let g = gen::path(4); // 6 directed slots
        let plan = FaultPlan::none();
        let mut checked = plan.clone();
        for step in 0..256 {
            let mv = plan.propose(&g, FaultMove::seed(7, step), 3);
            match mv {
                FaultMove::SetCrash { v, round } => {
                    assert!(v < g.n());
                    assert!(round < 3);
                }
                FaultMove::ClearCrash { v } => assert!(v < g.n()),
                FaultMove::ToggleDrop { slot } => assert!(slot < 6),
            }
            checked.apply(&g, &mv); // must never panic for in-range moves
        }
    }

    #[test]
    fn toggle_drop_flips_between_hard_faults() {
        let g = gen::path(3);
        let mut plan = FaultPlan::none();
        let mv = FaultMove::ToggleDrop { slot: 2 };
        plan.apply(&g, &mv);
        assert_eq!(plan.drop_p(2), 1.0);
        plan.apply(&g, &mv);
        assert_eq!(plan.drop_p(2), 0.0);
        // Toggling a sampled soft fault lands on 0.0 first.
        let mut soft = FaultPlan::sample(&g, &FaultSpec::none().with_drop(0.3), 1);
        soft.apply(&g, &mv);
        assert_eq!(soft.drop_p(2), 0.0);
    }

    #[test]
    fn move_keys_distinguish_attributes() {
        let crash = FaultMove::SetCrash { v: 5, round: 1 };
        let revive = FaultMove::ClearCrash { v: 5 };
        let toggle = FaultMove::ToggleDrop { slot: 5 };
        assert_eq!(crash.key(), revive.key());
        assert_ne!(crash.key(), toggle.key());
        assert_ne!(toggle.key(), FaultMove::ToggleDrop { slot: 6 }.key());
    }

    #[test]
    fn fault_move_serde_round_trips() {
        for mv in [
            FaultMove::SetCrash { v: 3, round: 2 },
            FaultMove::ClearCrash { v: 0 },
            FaultMove::ToggleDrop { slot: 17 },
        ] {
            let back = FaultMove::from_value(&mv.to_value()).unwrap();
            assert_eq!(mv, back);
        }
        assert!(FaultMove::from_value(&serde::Value::Object(vec![(
            "move".to_string(),
            serde::Value::String("warp".to_string()),
        )]))
        .is_err());
    }

    #[test]
    fn fault_plan_serde_round_trips() {
        let g = gen::cycle(6);
        let mut plan = FaultPlan::sample(&g, &FaultSpec::none().with_crash(0.5, 4), 11);
        plan.apply(&g, &FaultMove::ToggleDrop { slot: 4 });
        plan.set_crash(&g, 2, Some(0));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Hard-fault plans must survive a second trip byte-for-byte: the
        // pinned-artifact replay gate depends on this.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn fault_plan_parse_rejects_probabilities_outside_the_unit_interval() {
        let parse = |drop: &str, delay: &str| {
            serde_json::from_str::<FaultPlan>(&format!(
                r#"{{"drop":[{drop}],"delay_p":{delay},"crash_round":[],"seed":3}}"#
            ))
        };
        assert!(parse("0,1,0.25", "1").is_ok(), "the boundaries parse");
        for (drop, delay, field, got) in [
            ("1.5,-0.25", "0", "drop", "1.5"),
            ("0,-0.25", "0", "drop", "-0.25"),
            ("0.5", "7.5", "delay_p", "7.5"),
            ("0.5", "-1e-9", "delay_p", "-0.000000001"),
        ] {
            let err = parse(drop, delay).expect_err("out of range");
            assert_eq!(
                err.0,
                format!("{field}: probability must be in [0, 1], got {got}")
            );
        }
        // NaN cannot be written in JSON, but a value tree can carry it.
        let mut plan = FaultPlan::none().to_value();
        if let serde::Value::Object(fields) = &mut plan {
            fields[1].1 = serde::Value::F64(f64::NAN);
        }
        assert!(FaultPlan::from_value(&plan).is_err());
    }

    #[test]
    fn fault_plan_parse_rejects_crash_rounds_outside_u32() {
        let parse = |rounds: &str| {
            serde_json::from_str::<FaultPlan>(&format!(
                r#"{{"drop":[],"delay_p":0,"crash_round":[{rounds}],"seed":3}}"#
            ))
        };
        assert!(parse("null,4294967295,4e9").is_ok(), "u32 values parse");
        // A whole-number float past u32::MAX used to saturate silently.
        for rounds in ["5e9", "4294967296", "1e30", "-1", "2.5"] {
            assert!(parse(rounds).is_err(), "{rounds} is not a u32 round");
        }
        assert_eq!(parse("5e9").unwrap_err().0, "5000000000 out of range");
    }

    #[test]
    fn round_streams_differ_by_round_and_seed() {
        use rand::RngCore;
        let plan = FaultPlan {
            drop: vec![0.5],
            delay_p: 0.0,
            crash_round: Vec::new(),
            seed: 9,
        };
        let mut other = plan.clone();
        other.seed = 10;
        assert_ne!(plan.round_rng(0).next_u64(), plan.round_rng(1).next_u64());
        assert_ne!(plan.round_rng(0).next_u64(), other.round_rng(0).next_u64());
        assert_eq!(plan.round_rng(3).next_u64(), plan.round_rng(3).next_u64());
    }

    #[test]
    fn outcome_accessors() {
        let h: Outcome<u32> = Outcome::Halted {
            round: 3,
            output: 7,
        };
        assert!(h.is_halted());
        assert_eq!(h.output(), Some(&7));
        let c: Outcome<u32> = Outcome::Crashed { round: 1 };
        assert!(c.is_crashed());
        assert_eq!(c.output(), None);
        let cut: Outcome<u32> = Outcome::Cut;
        assert!(cut.is_cut());
        let run = FaultyRun {
            outcomes: vec![h, c, cut],
            rounds: 3,
            stats: RunStats {
                messages_sent: 0,
                sweeps: 4,
                live_per_round: vec![3, 2, 1, 1],
                messages_per_round: vec![0, 0, 0, 0],
            },
            dropped: 0,
            delayed: 0,
            breach: Some(crate::recover::Breach::Rounds),
        };
        assert_eq!(run.halted(), 1);
        assert_eq!(run.crashed(), 1);
        assert_eq!(run.cut(), 1);
        assert_eq!(run.partial_outputs(), vec![Some(&7), None, None]);
    }
}
