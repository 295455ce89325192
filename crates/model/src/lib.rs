//! The LOCAL model round engine.
//!
//! This crate implements Linial's LOCAL model as bifurcated by the paper into
//! **DetLOCAL** and **RandLOCAL**:
//!
//! * The graph `G = (V, E)` is the communication topology; each vertex hosts a
//!   processor running the *same* algorithm.
//! * Computation proceeds in synchronized rounds. In a round each processor
//!   performs arbitrary local computation and sends one (unbounded) message
//!   along each incident port; messages are delivered before the next round.
//! * Every vertex initially knows its degree and the global parameters
//!   (`n`, `Δ`, …).
//! * **DetLOCAL** ([`Mode::Deterministic`]): vertices additionally hold unique
//!   `Θ(log n)`-bit IDs; the per-vertex program is deterministic — calling
//!   [`NodeIo::rng`] panics.
//! * **RandLOCAL** ([`Mode::Randomized`]): vertices are anonymous
//!   ([`NodeIo::id`] returns `None`) but may draw unbounded private random
//!   bits.
//!
//! The only complexity measure is the number of rounds, which the engine
//! counts exactly: a protocol where every node halts after consuming messages
//! from `t` exchanges has complexity `t`.
//!
//! The engine runs two kinds of program. A [`NodeProgram`] sends messages
//! port by port and runs on the message plane ([`Engine::execute`]). A
//! [`SyncAlgorithm`] reads its neighbors' states every round and runs on a
//! state plane ([`Engine::execute_sync`]), where that read is a read of the
//! neighbors' state cells rather than a delivery of per-port copies.
//!
//! # Example: every node learns its neighbors' degrees in 1 round
//!
//! ```
//! use local_graphs::gen;
//! use local_model::{Action, Engine, ExecSpec, Mode, NodeInit, NodeIo, NodeProgram, Protocol};
//!
//! struct DegreeNode;
//! impl NodeProgram for DegreeNode {
//!     type Msg = usize;
//!     type Output = usize;
//!     fn step(&mut self, round: u32, io: &mut NodeIo<'_, usize>) -> Action<usize> {
//!         if round == 0 {
//!             io.broadcast(io.degree());
//!             Action::Continue
//!         } else {
//!             let max_nb = (0..io.degree()).filter_map(|p| io.recv(p).copied()).max();
//!             Action::Halt(max_nb.unwrap_or(0))
//!         }
//!     }
//! }
//!
//! struct DegreeProtocol;
//! impl Protocol for DegreeProtocol {
//!     type Node = DegreeNode;
//!     fn create(&self, _init: &NodeInit<'_>) -> DegreeNode { DegreeNode }
//! }
//!
//! let g = gen::star(5);
//! let engine = Engine::new(&g, Mode::deterministic());
//! let run = engine.execute(&ExecSpec::default(), &DegreeProtocol).into_run(100_000)?;
//! assert_eq!(run.rounds, 1);
//! assert_eq!(run.outputs[1], 4); // a leaf sees the hub's degree
//! # Ok::<(), local_model::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod ball;
mod engine;
mod error;
mod faults;
mod ids;
mod node;
mod params;
pub mod recover;
pub mod reference;
mod rng;
mod spec;
mod sync;

pub use engine::{derived_rng, derived_u64, Engine, Mode, Run, RunStats};
pub use error::SimError;
pub use faults::{FaultMove, FaultPlan, FaultSpec, FaultyRun, Outcome};
pub use ids::{id_bits, IdAssignment};
pub use node::{Action, NodeInit, NodeIo, NodeProgram, Protocol};
pub use params::{GlobalParams, HorizonOverflow};
pub use recover::{faulty_core, AttemptRecord, Breach, Budget, RecoveryError, Residue};
pub use spec::ExecSpec;
pub use sync::{SyncAlgorithm, SyncCtx, SyncStep};
