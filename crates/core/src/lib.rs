//! The paper's contribution: transforms and experiments connecting RandLOCAL
//! and DetLOCAL.
//!
//! * [`derand`] — Theorem 3, `Det_P(n, Δ) ≤ Rand_P(2^(n²), Δ)`: an
//!   executable derandomizer over toy instance spaces.
//! * [`speedup`] — Theorems 6/8: the automatic `f(Δ) + ε·log_Δ n →
//!   O(log* n)` speedup via ID shortening on power graphs.
//! * [`shatter`] — the generic graph-shattering combinator and component
//!   measurement.
//! * [`invariance`] — the Naor–Stockmeyer order-invariance checker (the
//!   engine behind the paper's Corollary 1 discussion).
//! * [`adversary`] — worst-case fault-plan search: the deterministic tabu
//!   optimizer over [`FaultPlan`](local_model::FaultPlan) space behind E14.
//! * [`workloads`] — the workload catalog: the graph × protocol × checker
//!   × finisher quadruples E12/E13/E14 sweep, heal, and attack, behind one
//!   object-safe trait.
//! * [`experiments`] — the E1–E9 experiment drivers behind EXPERIMENTS.md.
//! * [`trials`] — the shared seeded parallel trial harness those drivers
//!   run their randomized batches through.
//! * [`grid`] — the trial-grid shape behind the E12/E13/E14 sweeps and
//!   its one in-process driver.
//! * [`checkpoint`] — the JSON-lines checkpoint store behind the binaries'
//!   `--checkpoint` flag (kill-and-resume sweeps).
//! * [`fit`] — model-function fitting used to classify measured round
//!   complexities (`log n` vs `log log n` vs `log* n` …).
//! * [`report`] — aligned text tables for experiment output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checkpoint;
pub mod derand;
pub mod experiments;
pub mod fit;
pub mod grid;
pub mod invariance;
pub mod report;
pub mod shatter;
pub mod speedup;
pub mod trials;
pub mod workloads;
