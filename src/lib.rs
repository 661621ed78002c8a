//! # faithful — a faithful binary circuit model with adversarial noise
//!
//! Umbrella crate re-exporting the full reproduction of Függer, Maier,
//! Najvirt, Nowak and Schmid, *"A Faithful Binary Circuit Model with
//! Adversarial Noise"*, DATE 2018:
//!
//! * [`core`] — signals, involution delay functions, and channels
//!   (pure / inertial / DDM / involution / η-involution);
//! * [`circuit`] — gates, netlists, and the event-driven simulator;
//! * [`analog`] — the transistor-level analog substrate used as "ground
//!   truth" for the Section V experiments;
//! * [`spf`] — the Short-Pulse Filtration problem, the Fig. 5 circuit,
//!   and the Section IV theory (fixed points, bounds, classification).
//!
//! The recommended entry point is the spec-driven [`Experiment`]
//! facade: describe a workload — a channel application, a digital
//! scenario sweep, an analog characterization, or an SPF instance — as
//! a serializable [`ExperimentSpec`] and let [`Experiment::run`]
//! dispatch it to the right engine behind one typed
//! [`ExperimentResult`] and one [`Error`] type. The [`service`] module
//! (and the `faithful-serve` / `faithful-client` bins) turns that
//! facade into a long-running TCP daemon with an exact,
//! content-addressed result cache.
//!
//! ```
//! use faithful::{ChannelSpec, Experiment, SignalSpec};
//!
//! # fn main() -> Result<(), faithful::Error> {
//! let result = Experiment::channel(
//!     ChannelSpec::involution_exp(1.0, 0.5, 0.5),
//!     SignalSpec::pulse(0.0, 3.0),
//! )
//! .run()?;
//! assert_eq!(result.channel().expect("channel workload").output.len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for a guided tour and `EXPERIMENTS.md` for the
//! paper-figure reproduction index.
#![warn(missing_docs)]

mod atomicio;
mod checkpoint;
mod error;
mod experiment;
pub mod lint;
pub mod service;
mod spec;
mod value;

pub use ivl_analog as analog;
pub use ivl_circuit as circuit;
pub use ivl_core as core;
pub use ivl_spf as spf;

pub use error::{CheckpointError, Error, Span, SpecError};
pub use experiment::{
    AnalogResult, ChannelResult, DigitalOutcome, DigitalResult, Experiment, ExperimentResult,
    QuarantinedScenario, SpfResult,
};
pub use lint::{
    lint, lint_text, lint_text_for_service, Diagnostic, LintConfig, LintReport, Severity,
};
pub use spec::{
    AnalogSpec, AnalogTask, ChainSpec, ChannelRunSpec, ChannelSpec, DelaySpec, DigitalSpec,
    EdgeSpec, ExperimentSpec, FailurePolicySpec, GateKindSpec, IntegratorSpec, NetlistSpec,
    NodeSpec, NoiseSpec, Orientation, OutputSelect, ReferenceSpec, ScenarioSpec, SignalSpec,
    SpfSpec, SpfTask, SupplySpec, SweepSpec, TopologySpec, WorkloadSpec,
};

pub use ivl_circuit::{
    FailurePolicy, FaultKind, FaultPlan, ScenarioFailure, SweepAborted, SweepStats,
};
pub use value::SPEC_VERSION;

pub use ivl_core::{Bit, Edge, Pulse, PulseStats, Signal, SignalBuilder, Transition};
