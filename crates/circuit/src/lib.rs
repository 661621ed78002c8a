//! # ivl-circuit
//!
//! Event-driven simulation of binary circuits built from zero-time
//! Boolean gates interconnected by single-history channels — the circuit
//! model of Section II of *"A Faithful Binary Circuit Model with
//! Adversarial Noise"* (DATE 2018).
//!
//! A circuit is a directed multigraph whose nodes are input ports, output
//! ports and gates, and whose edges are channels. Gates and channels
//! alternate on every path; port-adjacent connections may be direct
//! (zero-delay), matching the paper's composition convention.
//!
//! Feedback loops are fully supported — they are the whole point: the
//! SPF circuit of Fig. 5 is a fed-back OR gate. The simulator feeds each
//! channel its input transitions in time order and honours the pairwise
//! non-FIFO cancellation semantics of `ivl-core`, including *unscheduling*
//! pending output events that a later input transition cancels — via a
//! slab event pool with generation-stamped ids, so a mismatched
//! cancellation is a hard error rather than silent corruption.
//!
//! For Monte-Carlo batteries, [`ScenarioRunner`] fans scenarios (input
//! signals plus noise seeds) across worker threads, each simulating its
//! own clone of the circuit with fully reused per-run state.
//!
//! ```
//! use ivl_circuit::{CircuitBuilder, GateKind, Simulator};
//! use ivl_core::channel::PureDelay;
//! use ivl_core::{Bit, Signal};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CircuitBuilder::new();
//! let a = b.input("a");
//! let inv = b.gate("inv", GateKind::Not, Bit::One);
//! let y = b.output("y");
//! b.connect_direct(a, inv, 0)?;
//! b.connect(inv, y, 0, PureDelay::new(1.0)?)?;
//! let mut sim = Simulator::new(b.build()?);
//! sim.set_input("a", Signal::pulse(0.0, 2.0)?)?;
//! let run = sim.run(10.0)?;
//! let out = run.signal("y")?;
//! assert_eq!(out.initial(), Bit::One);
//! assert_eq!(out.len(), 2); // inverted pulse, delayed by 1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod gate;
pub mod generate;
mod graph;
mod queue;
mod runner;
mod sim;
pub mod vcd;

pub use error::{CircuitError, SimError};
pub use gate::{GateKind, TruthTable};
pub use graph::{Circuit, CircuitBuilder, EdgeId, NodeId, NodeKind};
pub use runner::{
    FailurePolicy, FaultKind, FaultPlan, Scenario, ScenarioFailure, ScenarioOutcome,
    ScenarioRunner, SweepAborted, SweepResult, SweepStats,
};
pub use sim::{SimResult, Simulator};
