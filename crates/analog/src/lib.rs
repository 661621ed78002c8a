//! # ivl-analog
//!
//! A small transistor-level analog simulator standing in for the SPICE
//! simulations and UMC-90 ASIC measurements of Section V of *"A Faithful
//! Binary Circuit Model with Adversarial Noise"* (DATE 2018).
//!
//! The paper validates the η-involution model against the analog
//! threshold-crossing times of a 7-stage CMOS inverter chain under
//! supply-voltage and process variations (Figs. 6–9). This crate builds
//! the equivalent "ground truth" in pure Rust:
//!
//! * [`mosfet`] — the alpha-power-law (Sakurai–Newton) MOSFET model;
//! * [`inverter`] / [`chain`] — CMOS inverters and the 7-stage chain of
//!   Fig. 6, integrated with classic RK4 or adaptive Dormand–Prince
//!   RK45 with dense output and crossing events ([`ode`]);
//! * [`supply`] — DC and sine-modulated supplies (the ±1 % VDD
//!   experiment of Fig. 8a);
//! * [`senseamp`] — the on-chip sense-amplifier model (gain 0.15,
//!   8.5 GHz one-pole low-pass);
//! * [`waveform`] — sampled waveforms with interpolated threshold
//!   crossings and digitization to `ivl-core` [`Signal`]s;
//! * [`characterize`] — the sweep configuration, `(T, δ)` delay
//!   samples, model-vs-analog deviations `D(T)` and the reference
//!   models fitted to measured samples;
//! * [`sweep`] — a [`SweepRunner`] running pulse-width sweeps, fanned
//!   across worker threads with deterministic result assembly.
//!
//! Units: time in **ps**, voltage in **V**, current in **mA**,
//! capacitance in **fF** (so `I = C·dV/dt` is consistent without
//! conversion factors).
//!
//! ```
//! use ivl_analog::chain::InverterChain;
//! use ivl_analog::stimulus::Pulse;
//! use ivl_analog::supply::VddSource;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chain = InverterChain::umc90_like(7)?;
//! let vdd = VddSource::dc(1.0);
//! let stim = Pulse::new(50.0, 100.0, 10.0, 1.0)?; // 100 ps pulse, 10 ps slew
//! let run = chain.simulate(&stim, &vdd, 400.0, 0.1)?;
//! // the chain inverts an odd number of times: stage 7 starts high
//! assert!(run.node(6).value_at(0.0) > 0.9);
//! # Ok(())
//! # }
//! ```
//!
//! [`Signal`]: ivl_core::Signal

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod characterize;
mod error;
pub mod inverter;
pub mod mosfet;
pub mod ode;
pub mod senseamp;
pub mod stimulus;
pub mod supply;
pub mod sweep;
pub mod waveform;

pub use error::Error;
pub use sweep::SweepRunner;
pub use waveform::Waveform;
