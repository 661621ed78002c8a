//! The unified error type of the `faithful` facade.

use std::fmt;

/// A line/column position in a `faithful/1` spec document.
///
/// Both coordinates are 1-based and count characters, not bytes. Spans
/// point at the first token of the construct they describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (characters).
    pub column: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// An error while parsing or validating an [`ExperimentSpec`]
/// serialization.
///
/// Errors raised from parsed text carry the [`Span`] of the offending
/// token; errors from programmatically built specs have none.
///
/// [`ExperimentSpec`]: crate::ExperimentSpec
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    message: String,
    span: Option<Span>,
}

impl SpecError {
    /// Creates a spec error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
            span: None,
        }
    }

    /// Attaches a source location (latest call wins; `None` is a no-op,
    /// so call sites can pass `value.span()` straight through).
    #[must_use]
    pub fn at(mut self, span: impl Into<Option<Span>>) -> Self {
        if let Some(span) = span.into() {
            self.span = Some(span);
        }
        self
    }

    /// The human-readable message, without the location prefix.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Where in the spec text the error points, if known.
    #[must_use]
    pub fn span(&self) -> Option<Span> {
        self.span
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "experiment spec error at {span}: {}", self.message),
            None => write!(f, "experiment spec error: {}", self.message),
        }
    }
}

impl std::error::Error for SpecError {}

/// An error reading, writing or validating a sweep checkpoint sidecar
/// (the resumable-partial-results file behind
/// [`Experiment::resume`](crate::Experiment::resume)).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointError {
    message: String,
    path: Option<String>,
}

impl CheckpointError {
    /// Creates a checkpoint error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        CheckpointError {
            message: message.into(),
            path: None,
        }
    }

    /// Attaches the sidecar path the error refers to.
    #[must_use]
    pub fn at_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// The human-readable message, without the path prefix.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The sidecar path, if known.
    #[must_use]
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(path) => write!(f, "checkpoint error in {path:?}: {}", self.message),
            None => write!(f, "checkpoint error: {}", self.message),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SpecError> for CheckpointError {
    fn from(e: SpecError) -> Self {
        CheckpointError::new(e.to_string())
    }
}

/// Everything that can go wrong running an experiment through the
/// facade, in one matchable type.
///
/// Every layer's error converts in via `From`, and
/// [`source`](std::error::Error::source) exposes the wrapped error, so
/// callers can either match on the layer or walk the chain:
///
/// ```
/// use faithful::{Error, Experiment, ExperimentSpec, LintConfig};
///
/// // (lint pre-flight off, to reach the layer that owns the failure)
/// let err = "faithful/1 channel { channel = warp {}; input = zero }"
///     .parse::<ExperimentSpec>()
///     .map(|spec| Experiment::new(spec).with_lint(LintConfig::Off).run())
///     .unwrap()
///     .unwrap_err();
/// assert!(matches!(err, Error::Core(_)));
/// assert!(std::error::Error::source(&err).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A core-model error (signals, delay functions, channel factories).
    Core(ivl_core::Error),
    /// A circuit construction error.
    Circuit(ivl_circuit::CircuitError),
    /// A digital simulation error.
    Sim(ivl_circuit::SimError),
    /// An analog-substrate error.
    Analog(ivl_analog::Error),
    /// An SPF theory or circuit error.
    Spf(ivl_spf::Error),
    /// A spec parse/validation error.
    Spec(SpecError),
    /// A sweep stopped by the `abort` failure policy; carries the
    /// lowest-index failing scenario's index in the spec, label, seed
    /// and cause, and how many scenarios below it completed (a
    /// checkpointed sweep counts every batch, resumed scenarios
    /// included) — the same report for any worker count or timing.
    Sweep(ivl_circuit::SweepAborted),
    /// A checkpoint sidecar could not be read, written or validated.
    Checkpoint(CheckpointError),
    /// The lint pre-flight found `Error`-severity diagnostics and the
    /// effective [`LintConfig`](crate::LintConfig) is `Deny`.
    Lint(crate::lint::LintReport),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "core: {e}"),
            Error::Circuit(e) => write!(f, "circuit: {e}"),
            Error::Sim(e) => write!(f, "simulation: {e}"),
            Error::Analog(e) => write!(f, "analog: {e}"),
            Error::Spf(e) => write!(f, "spf: {e}"),
            Error::Spec(e) => write!(f, "{e}"),
            Error::Sweep(e) => write!(f, "{e}"),
            Error::Checkpoint(e) => write!(f, "{e}"),
            Error::Lint(report) => write!(f, "lint rejected the spec:\n{report}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Circuit(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Analog(e) => Some(e),
            Error::Spf(e) => Some(e),
            Error::Spec(e) => Some(e),
            Error::Sweep(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
            Error::Lint(_) => None,
        }
    }
}

impl From<ivl_core::Error> for Error {
    fn from(e: ivl_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<ivl_circuit::CircuitError> for Error {
    fn from(e: ivl_circuit::CircuitError) -> Self {
        Error::Circuit(e)
    }
}

impl From<ivl_circuit::SimError> for Error {
    fn from(e: ivl_circuit::SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<ivl_analog::Error> for Error {
    fn from(e: ivl_analog::Error) -> Self {
        Error::Analog(e)
    }
}

impl From<ivl_spf::Error> for Error {
    fn from(e: ivl_spf::Error) -> Self {
        Error::Spf(e)
    }
}

impl From<SpecError> for Error {
    fn from(e: SpecError) -> Self {
        Error::Spec(e)
    }
}

impl From<ivl_circuit::SweepAborted> for Error {
    fn from(e: ivl_circuit::SweepAborted) -> Self {
        Error::Sweep(e)
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Self {
        Error::Checkpoint(e)
    }
}
