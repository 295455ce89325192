//! Distributed symmetry-breaking algorithms for the LOCAL model.
//!
//! Every algorithm the paper states, uses, or transforms, implemented as
//! message-passing protocols on the [`local_model`] round engine:
//!
//! * [`color`] — Linial's recoloring (Theorems 1–2), Cole–Vishkin,
//!   color reduction, randomized trial coloring, and Barenboim–Elkin tree
//!   coloring (Theorem 9).
//! * [`mis`] — Luby's randomized MIS, deterministic MIS via coloring, and a
//!   Ghaffari-style MIS with shattering.
//! * [`matching`] — Israeli–Itai randomized and color-based deterministic
//!   maximal matching.
//! * [`orientation`] — sinkless orientation algorithms and the zero-round
//!   strategies of Theorem 4's base case.
//! * [`tree`] — the paper's own contributions: the Theorem 10 graph-shattering
//!   Δ-coloring of trees and the Theorem 11 MIS-peeling algorithm for
//!   Δ ≥ 55.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod matching;
pub mod mis;
pub mod orientation;
pub mod repair;
pub mod sync;
pub mod tree;
pub mod util;

pub use repair::{
    recover, DefectiveGreedyFinisher, DegradedRun, EdgeGreedyFinisher, Finish, Finisher,
    GreedyColoringFinisher, LubyRestartFinisher, Recovery, RecoveryPolicy, RulingSetFinisher,
    SinklessFinisher,
};
pub use sync::{run_sync, SyncAlgorithm, SyncCtx, SyncOutcome, SyncRun, SyncStep};
