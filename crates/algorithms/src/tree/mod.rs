//! The paper's own algorithms: randomized Δ-coloring of trees in
//! `O(log_Δ log n + log* n)` rounds.
//!
//! * [`theorem10`] — the ColorBidding + Filtering graph-shattering algorithm
//!   (Section VI-A), intended for large Δ.
//! * [`theorem11`] — the MIS-peeling algorithm for constant Δ ≥ 55
//!   (Section VI-B).
//!
//! Both follow the same blueprint the paper proves *necessary* (Theorem 3):
//! a fast randomized phase colors almost everything, the leftover "bad"
//! vertices form small components w.h.p., and a *deterministic* algorithm
//! (Theorem 9, [`crate::color::be_forest_coloring`]) finishes each component
//! with a reserved sub-palette.

pub mod theorem10;
pub mod theorem11;

pub use theorem10::{theorem10_color, theorem10_phase1, Theorem10Config, Theorem10Outcome};
pub use theorem11::{theorem11_color, Theorem11Outcome};
