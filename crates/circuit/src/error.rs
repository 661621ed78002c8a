use std::fmt;

/// Errors detected while constructing or validating a circuit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// Two nodes were given the same name.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A node id did not belong to this builder/circuit.
    UnknownNode {
        /// The offending id (raw index).
        index: usize,
    },
    /// A connection targeted a pin beyond the gate's input count.
    PinOutOfRange {
        /// Target node name.
        node: String,
        /// The offending pin.
        pin: usize,
        /// Number of pins the node actually has.
        arity: usize,
    },
    /// A gate input pin or output port is driven by two connections.
    PinAlreadyDriven {
        /// Target node name.
        node: String,
        /// The doubly driven pin.
        pin: usize,
    },
    /// A gate input pin or output port has no driver.
    UnconnectedPin {
        /// Target node name.
        node: String,
        /// The dangling pin.
        pin: usize,
    },
    /// A direct (zero-delay) connection was used between two gates;
    /// gates and channels must alternate (Section II of the paper).
    DirectBetweenGates {
        /// Source gate name.
        from: String,
        /// Target gate name.
        to: String,
    },
    /// A connection started at an output port or ended at an input port.
    WrongPortDirection {
        /// The port's name.
        name: String,
    },
    /// A gate was declared with an arity its kind does not support.
    BadArity {
        /// The gate's name.
        name: String,
        /// The declared input count.
        arity: usize,
    },
    /// A generated netlist is too large to build: more nodes or edges
    /// than `u32` ids address, a fat tree beyond the depth cap, or a
    /// reservation the allocator refused. Raised before the netlist is
    /// built, so nothing of its size was allocated.
    TooLarge {
        /// What is too large: `"nodes"`, `"edges"` or `"fat_tree depth"`.
        what: &'static str,
        /// The requested amount.
        requested: u64,
        /// The largest supported amount; `None` when the allocator
        /// refused the reservation.
        limit: Option<u64>,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::DuplicateName { name } => write!(f, "duplicate node name {name:?}"),
            CircuitError::UnknownNode { index } => write!(f, "unknown node id {index}"),
            CircuitError::PinOutOfRange { node, pin, arity } => {
                write!(f, "pin {pin} out of range for {node:?} with {arity} pins")
            }
            CircuitError::PinAlreadyDriven { node, pin } => {
                write!(f, "pin {pin} of {node:?} is driven twice")
            }
            CircuitError::UnconnectedPin { node, pin } => {
                write!(f, "pin {pin} of {node:?} has no driver")
            }
            CircuitError::DirectBetweenGates { from, to } => write!(
                f,
                "direct connection between gates {from:?} and {to:?}: gates and channels must alternate"
            ),
            CircuitError::WrongPortDirection { name } => {
                write!(f, "port {name:?} used against its direction")
            }
            CircuitError::BadArity { name, arity } => {
                write!(f, "gate {name:?} cannot have {arity} inputs")
            }
            CircuitError::TooLarge {
                what,
                requested,
                limit: Some(limit),
            } => write!(f, "{what} {requested} exceeds the limit of {limit}"),
            CircuitError::TooLarge {
                what,
                requested,
                limit: None,
            } => write!(f, "cannot reserve memory for {requested} {what}"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// Errors raised during simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// No port with the given name exists.
    UnknownPort {
        /// The name that failed to resolve.
        name: String,
    },
    /// An input signal violates condition S1 (transitions before time 0).
    InputViolatesS1 {
        /// The input port's name.
        name: String,
    },
    /// A channel scheduled an output transition at or before the current
    /// simulation time, or earlier than an output it still has pending
    /// on the same edge, or cancelled an already delivered one. The
    /// mathematical channel function is non-causal at this point (e.g.
    /// η⁻ too large), or the channel breaks the rule that its pending
    /// outputs stay in time order, so event-driven simulation cannot
    /// proceed.
    CausalityViolation {
        /// Simulation time at which the violation occurred: the time of
        /// the transition fed to the channel.
        time: f64,
        /// The offending edge (for diagnosis).
        edge: usize,
    },
    /// A channel reported a pairwise cancellation that does not match the
    /// event the simulator has pending for that edge (wrong time or
    /// value), or targets an event that was already delivered or
    /// cancelled. Before this was a hard error, a release build would
    /// silently invalidate the *wrong* pending event and corrupt the
    /// waveform.
    CancellationMismatch {
        /// The offending edge (for diagnosis).
        edge: usize,
        /// Time of the event the simulator would have cancelled, if any.
        pending: Option<f64>,
        /// Time of the transition the channel claims to cancel.
        cancelled: f64,
    },
    /// The event budget was exhausted (oscillation guard).
    ///
    /// The budget counts *scheduled* events, so cancel-heavy churn
    /// (schedule-then-cancel loops that deliver nothing) trips the guard
    /// too.
    MaxEventsExceeded {
        /// The configured budget.
        budget: usize,
        /// Simulation time reached when the budget ran out.
        time: f64,
    },
    /// A node name did not resolve when querying results.
    UnknownNode {
        /// The name that failed to resolve.
        name: String,
    },
    /// The node exists but the run recorded signals selectively (a
    /// watch set was configured) and this node was not in it, so no
    /// waveform is available.
    NotWatched {
        /// The node whose signal was requested.
        name: String,
    },
    /// The run was cancelled from outside (a sweep watchdog enforcing a
    /// per-scenario wall-clock budget, or an aborting sweep reclaiming
    /// its stragglers). The simulation state is discarded; rerunning the
    /// same scenario without the cancellation reproduces the full run.
    Cancelled {
        /// Simulation time reached when the cancellation was observed.
        time: f64,
    },
    /// The worker thread running this scenario panicked (a bug in the
    /// simulator or a channel implementation, not a simulation error).
    /// The panic was contained by the sweep supervisor: the worker's
    /// simulator was rebuilt and the sweep carried on.
    ScenarioPanicked {
        /// The panic payload, rendered to text.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownPort { name } => write!(f, "unknown input port {name:?}"),
            SimError::InputViolatesS1 { name } => write!(
                f,
                "input signal on {name:?} has transitions before time 0 (condition S1)"
            ),
            SimError::CausalityViolation { time, edge } => write!(
                f,
                "causality violation on edge {edge} at time {time}: channel output would land in the past"
            ),
            SimError::CancellationMismatch {
                edge,
                pending,
                cancelled,
            } => match pending {
                Some(pending) => write!(
                    f,
                    "cancellation mismatch on edge {edge}: channel cancelled the transition at \
                     {cancelled} but the pending event is at {pending}"
                ),
                None => write!(
                    f,
                    "cancellation mismatch on edge {edge}: channel cancelled the transition at \
                     {cancelled} but no event is pending"
                ),
            },
            SimError::MaxEventsExceeded { budget, time } => {
                write!(f, "event budget of {budget} exhausted at time {time}")
            }
            SimError::UnknownNode { name } => write!(f, "unknown node {name:?}"),
            SimError::NotWatched { name } => write!(
                f,
                "node {name:?} was not in the run's watch set, so its signal was not recorded"
            ),
            SimError::Cancelled { time } => {
                write!(f, "run cancelled at time {time} (watchdog or sweep abort)")
            }
            SimError::ScenarioPanicked { message } => {
                write!(f, "scenario worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(CircuitError::DuplicateName { name: "x".into() }),
            Box::new(CircuitError::UnknownNode { index: 3 }),
            Box::new(CircuitError::PinOutOfRange {
                node: "g".into(),
                pin: 2,
                arity: 2,
            }),
            Box::new(CircuitError::PinAlreadyDriven {
                node: "g".into(),
                pin: 0,
            }),
            Box::new(CircuitError::UnconnectedPin {
                node: "g".into(),
                pin: 1,
            }),
            Box::new(CircuitError::DirectBetweenGates {
                from: "a".into(),
                to: "b".into(),
            }),
            Box::new(CircuitError::WrongPortDirection { name: "o".into() }),
            Box::new(CircuitError::BadArity {
                name: "n".into(),
                arity: 0,
            }),
            Box::new(SimError::UnknownPort { name: "i".into() }),
            Box::new(SimError::InputViolatesS1 { name: "i".into() }),
            Box::new(SimError::CausalityViolation { time: 1.0, edge: 0 }),
            Box::new(SimError::CancellationMismatch {
                edge: 1,
                pending: Some(2.0),
                cancelled: 3.0,
            }),
            Box::new(SimError::CancellationMismatch {
                edge: 1,
                pending: None,
                cancelled: 3.0,
            }),
            Box::new(SimError::MaxEventsExceeded {
                budget: 10,
                time: 5.0,
            }),
            Box::new(SimError::UnknownNode { name: "g".into() }),
            Box::new(SimError::NotWatched { name: "g".into() }),
            Box::new(SimError::Cancelled { time: 4.5 }),
            Box::new(SimError::ScenarioPanicked {
                message: "boom".into(),
            }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
