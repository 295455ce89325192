//! Maximal independent set algorithms.
//!
//! * [`luby`] — Luby's RandLOCAL algorithm, `O(log n)` rounds w.h.p.
//! * [`by_color`] — the DetLOCAL baseline: Linial coloring, then one color
//!   class per round; `O(Δ² + log* n)` rounds.
//! * [`ghaffari`] — a Ghaffari-style desire-level algorithm whose
//!   pre-shattering phase runs `O(log Δ)` rounds, finished deterministically
//!   on the (w.h.p. small) undecided components — the paper's graph
//!   shattering pattern in action for MIS.
//! * [`ruling_set`] — `(2, k+1)`-ruling sets as MIS of the power graph
//!   `G^k`, simulated `k`-for-1; plus [`ruling_set::DilatedLuby`], the
//!   message-passing dilated lottery the workload catalog runs under
//!   faults.

pub mod by_color;
pub mod ghaffari;
pub mod luby;
pub mod ruling_set;

pub use by_color::{det_mis, mis_by_color};
pub use ghaffari::ghaffari_mis;
pub use luby::luby_mis;
pub use ruling_set::ruling_set as compute_ruling_set;
pub use ruling_set::{is_ruling_set, DilatedLuby, DilatedState};

/// The outcome of an MIS pipeline.
#[derive(Debug, Clone)]
pub struct MisOutcome {
    /// Per-vertex membership (inactive vertices in restricted runs get
    /// `false`).
    pub in_set: Vec<bool>,
    /// Total LOCAL rounds across all composed phases.
    pub rounds: u32,
}
