use std::fmt;

/// Errors of the analog substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A device or simulation parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Constraint description.
        constraint: &'static str,
    },
    /// A waveform was too short or degenerate for the requested analysis.
    DegenerateWaveform {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A sweep configuration that cannot produce a meaningful result
    /// (empty width axis, non-finite or non-positive knobs).
    InvalidSweep {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A characterization sweep failed to observe an expected crossing.
    MissingCrossing {
        /// Which crossing was missing.
        what: &'static str,
        /// The pulse width (ps) being characterized.
        pulse_width: f64,
    },
    /// The adaptive integrator failed to advance (step-size underflow
    /// or step budget exhausted).
    Integration {
        /// What went wrong.
        what: &'static str,
        /// Simulation time (ps) at which the integrator gave up.
        t: f64,
    },
    /// A sweep worker panicked while running one job. The panic was
    /// contained: only this job's slot carries the failure, every other
    /// width's result is intact.
    WorkerPanic {
        /// Index of the job (width/orientation slot) that panicked.
        index: usize,
        /// The panic payload, rendered to text.
        message: String,
    },
    /// A structure too large to reserve memory for.
    TooLarge {
        /// What was being allocated.
        what: &'static str,
        /// How many were requested.
        requested: usize,
    },
    /// Propagated core error (e.g. invalid extracted signal).
    Core(ivl_core::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "parameter {name} = {value} invalid: {constraint}"),
            Error::DegenerateWaveform { reason } => write!(f, "degenerate waveform: {reason}"),
            Error::InvalidSweep { reason } => {
                write!(f, "invalid sweep configuration: {reason}")
            }
            Error::MissingCrossing { what, pulse_width } => write!(
                f,
                "missing {what} crossing while characterizing a {pulse_width} ps pulse"
            ),
            Error::Integration { what, t } => {
                write!(f, "adaptive integration failed at t = {t} ps: {what}")
            }
            Error::WorkerPanic { index, message } => {
                write!(f, "sweep worker panicked on job {index}: {message}")
            }
            Error::TooLarge { what, requested } => {
                write!(f, "cannot reserve memory for {requested} {what}")
            }
            Error::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ivl_core::Error> for Error {
    fn from(e: ivl_core::Error) -> Self {
        Error::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            Error::InvalidParameter {
                name: "c_load",
                value: -1.0,
                constraint: "must be > 0",
            },
            Error::DegenerateWaveform { reason: "empty" },
            Error::MissingCrossing {
                what: "output rise",
                pulse_width: 10.0,
            },
            Error::Integration {
                what: "step size underflow",
                t: 12.5,
            },
            Error::WorkerPanic {
                index: 3,
                message: "boom".into(),
            },
            Error::TooLarge {
                what: "inverter stages",
                requested: 7,
            },
            Error::Core(ivl_core::Error::SolverFailed { what: "x" }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
