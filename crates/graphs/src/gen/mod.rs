//! Graph generators for every family the experiments sweep over.
//!
//! Deterministic families: [`path`], [`cycle`], [`complete`], [`star`],
//! [`grid`], [`complete_dary_tree`].
//!
//! Random families (take an explicit RNG for reproducibility):
//! [`random_tree`], [`random_tree_max_degree`], [`gnp`], [`random_regular`],
//! [`random_bipartite_regular`], [`high_girth_regular`].
//!
//! [`cycle`] and [`complete_dary_tree`] are the streaming constructors of
//! [`stream`], which builds regular families without a materialized edge
//! list; [`stream::circulant`] is the third.

mod classic;
mod edge_set;
mod high_girth;
mod regular;
pub mod stream;
mod trees;

pub use classic::{complete, complete_bipartite, gnp, grid, path, star};
pub use high_girth::high_girth_regular;
pub use regular::{random_bipartite_regular, random_regular};
pub use stream::{complete_dary_tree, cycle};
pub use trees::{broom, caterpillar, random_tree, random_tree_max_degree};
