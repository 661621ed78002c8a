//! # ivl-core
//!
//! Core library of the *faithful binary circuit model with adversarial
//! noise*, a reproduction of Függer, Maier, Najvirt, Nowak and Schmid,
//! "A Faithful Binary Circuit Model with Adversarial Noise", DATE 2018.
//!
//! The crate provides the three building blocks of the paper's circuit
//! model:
//!
//! * **Signals** ([`Signal`], [`Transition`]) — continuous-time binary
//!   waveforms given as alternating transition lists (Section II of the
//!   paper, conditions S1–S3).
//! * **Involution delay functions** ([`delay`]) — pairs of strictly
//!   increasing concave delay functions `δ↑`/`δ↓` whose negatives are
//!   mutual inverses, `−δ↑(−δ↓(T)) = T`, including the closed-form
//!   [`delay::ExpChannel`] family derived from first-order RC switching.
//! * **Channels** ([`channel`]) — single-history channels mapping input
//!   signals to output signals via the paper's output-transition
//!   generation algorithm with non-FIFO cancellation. Implementations
//!   cover the classical models (pure, inertial, degradation/DDM), the
//!   deterministic involution channel of DATE'15 and the paper's
//!   η-involution channel with per-transition adversarial noise
//!   ([`channel::EtaInvolutionChannel`], [`noise`]).
//!
//! # Quick example
//!
//! ```
//! use ivl_core::delay::ExpChannel;
//! use ivl_core::channel::{Channel, EtaInvolutionChannel};
//! use ivl_core::noise::{EtaBounds, WorstCaseAdversary};
//! use ivl_core::Signal;
//!
//! # fn main() -> Result<(), ivl_core::Error> {
//! let delay = ExpChannel::new(1.0, 0.5, 0.5)?; // τ = 1, T_p = 0.5, V_th = ½
//! let bounds = EtaBounds::new(0.05, 0.05)?;
//! let mut ch = EtaInvolutionChannel::new(delay, bounds, WorstCaseAdversary);
//! let input = Signal::pulse(0.0, 2.0)?;
//! let output = ch.apply(&input);
//! assert_eq!(output.len(), 2); // wide pulse propagates
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bit;
pub mod channel;
pub mod delay;
mod error;
pub mod exec;
pub mod factory;
pub mod noise;
pub mod pulse;
pub mod signal;
mod signal_ops;

pub use bit::{Bit, Edge};
pub use error::Error;
pub use pulse::{Pulse, PulseStats};
pub use signal::{Signal, SignalBuilder, Transition};

/// Simulation time, in arbitrary but consistent units.
///
/// All of `ivl-core` is unit-agnostic; the bench harness uses seconds for
/// the theory experiments and picoseconds for the analog experiments.
pub type Time = f64;
