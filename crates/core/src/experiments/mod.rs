//! The experiment drivers behind EXPERIMENTS.md.
//!
//! The paper is a theory paper with no tables or figures; its "evaluation"
//! is a set of theorems. Each experiment here is the executable face of one
//! theorem (see DESIGN.md §5 for the index):
//!
//! | id | theorem | claim under test |
//! |----|---------|------------------|
//! | E1 | Thms 9/10 + 5 | tree Δ-coloring: Det `Θ(log_Δ n)` vs Rand `O(log_Δ log n + log* n)` |
//! | E2 | Thm 10 analysis | bad components after Phase 1 are `O(Δ⁴ log n)` |
//! | E3 | Thm 11 | constant-Δ algorithm round profile and `S`-component sizes |
//! | E4 | Thm 4 base case | every 0-round sinkless coloring fails with prob ≥ 1/Δ² |
//! | E5 | Thm 4 | failure of truncated sinkless orientation decays with rounds |
//! | E6 | Thm 3 | exhaustive derandomization over a toy instance space |
//! | E7 | Thm 6 | black-box speedup of an `Θ(n)`-round algorithm to `O(log* n)` |
//! | E8 | Thms 1/2 | Linial: palette shrink per round, `O(log* n)` convergence |
//! | E9 | intro survey | MIS: Luby `Θ(log n)` vs Det `O(Δ² + log* n)` vs shattering |
//! | E12 | model robustness | validity/rounds degradation under message drops and crash-stop nodes |
//! | E13 | self-healing | recovery of faulty runs to complete valid labelings |
//! | E14 | adversary | worst-case fault plans found by deterministic tabu search |
//!
//! Every driver returns both typed rows (serde-serializable) and a rendered
//! [`Table`](crate::report::Table); the binaries in `local-bench` print the
//! tables that EXPERIMENTS.md records.
//!
//! The trial-grid sweeps (E12/E13/E14) each state their grid once as a
//! [`Grid`](crate::grid::Grid) — points, a per-trial body, a per-point fold
//! — and one generic driver ([`crate::grid::run`]) executes it in-process,
//! plain, traced or resumed from a checkpoint; a parametric test pins every
//! path byte-identical.

pub mod a1_ablation;
pub mod e10_indistinguishability;
pub mod e11_dichotomy;
pub mod e12_resilience;
pub mod e13_recovery;
pub mod e14_adversary;
pub mod e1_separation;
pub mod e2_shattering;
pub mod e3_theorem11;
pub mod e4_zero_round;
pub mod e5_truncation;
pub mod e6_derand;
pub mod e7_speedup;
pub mod e8_linial;
pub mod e9_mis;
