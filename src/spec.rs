//! Declarative experiment descriptions.
//!
//! An [`ExperimentSpec`] describes a complete workload — what channel,
//! circuit, analog chain or SPF instance to build, what stimuli to
//! apply, how to integrate/simulate, how many workers to fan over, and
//! which outputs to keep — as plain data. Specs serialize to a
//! versioned text form via [`Display`](std::fmt::Display) /
//! [`FromStr`](std::str::FromStr) with a round-trip guarantee for every
//! finite spec, so experiments can be stored, diffed, queued and
//! shipped to workers. [`Experiment`](crate::Experiment) executes them.
//!
//! ```
//! use faithful::{ExperimentSpec, SignalSpec, ChannelSpec, WorkloadSpec, ChannelRunSpec};
//!
//! let spec = ExperimentSpec::channel(
//!     ChannelSpec::involution_exp(1.0, 0.5, 0.5),
//!     SignalSpec::pulse(0.0, 3.0),
//! );
//! let text = spec.to_string();
//! let back: ExperimentSpec = text.parse().unwrap();
//! assert_eq!(spec, back);
//! ```

use std::fmt;
use std::str::FromStr;

use ivl_core::factory::{ChannelParams, ParamValue};
use ivl_core::{Bit, Signal};

use crate::error::{Span, SpecError};
use crate::value::{
    count, key_hash, parse_document, render_document, schema, Fields, Read, Sink, Value, ValueKind,
    Walk,
};

/// A complete, serializable description of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// The workload to run.
    pub workload: WorkloadSpec,
}

/// What kind of workload an experiment runs — one variant per layer of
/// the model stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadSpec {
    /// Apply a single channel to a stimulus signal (`ivl_core`).
    Channel(ChannelRunSpec),
    /// Sweep scenarios over a digital circuit (`ivl_circuit`).
    Digital(DigitalSpec),
    /// Characterize / probe the analog substrate (`ivl_analog`).
    Analog(AnalogSpec),
    /// Short-Pulse-Filtration theory and simulation (`ivl_spf`).
    Spf(SpfSpec),
}

/// A channel constructible by name through a
/// [`ChannelRegistry`](ivl_core::factory::ChannelRegistry): a kind
/// string plus flat parameters.
///
/// Kind strings and parameter names must be identifiers
/// (`[A-Za-z_][A-Za-z0-9_]*`) for the text form to round-trip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// The registered factory kind (`pure`, `inertial`, `ddm`,
    /// `involution`, `eta`, or a custom registration).
    pub kind: String,
    /// The factory parameters.
    pub params: ChannelParams,
}

impl ChannelSpec {
    /// A channel spec with no parameters yet.
    #[must_use]
    pub fn new(kind: impl Into<String>) -> Self {
        ChannelSpec {
            kind: kind.into(),
            params: ChannelParams::new(),
        }
    }

    /// Appends a real-valued parameter.
    #[must_use]
    pub fn with_num(mut self, name: impl Into<String>, value: f64) -> Self {
        self.params = self.params.with_num(name, value);
        self
    }

    /// Appends an integer parameter.
    #[must_use]
    pub fn with_int(mut self, name: impl Into<String>, value: u64) -> Self {
        self.params = self.params.with_int(name, value);
        self
    }

    /// Appends a textual parameter.
    #[must_use]
    pub fn with_text(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.params = self.params.with_text(name, value);
        self
    }

    /// A `pure` constant-delay channel.
    #[must_use]
    pub fn pure(delay: f64) -> Self {
        ChannelSpec::new("pure").with_num("delay", delay)
    }

    /// An `inertial` delay channel.
    #[must_use]
    pub fn inertial(delay: f64, window: f64) -> Self {
        ChannelSpec::new("inertial")
            .with_num("delay", delay)
            .with_num("window", window)
    }

    /// A symmetric `ddm` channel.
    #[must_use]
    pub fn ddm(t_p0: f64, t_0: f64, tau: f64) -> Self {
        ChannelSpec::new("ddm")
            .with_num("t_p0", t_p0)
            .with_num("t_0", t_0)
            .with_num("tau", tau)
    }

    /// A deterministic involution channel over an exp delay pair.
    #[must_use]
    pub fn involution_exp(tau: f64, t_p: f64, v_th: f64) -> Self {
        ChannelSpec::new("involution")
            .with_text("delay", "exp")
            .with_num("tau", tau)
            .with_num("t_p", t_p)
            .with_num("v_th", v_th)
    }

    /// An η-involution channel over an exp delay pair with the given
    /// bounds and noise source.
    #[must_use]
    pub fn eta_exp(tau: f64, t_p: f64, v_th: f64, minus: f64, plus: f64, noise: NoiseSpec) -> Self {
        let spec = ChannelSpec::new("eta")
            .with_text("delay", "exp")
            .with_num("tau", tau)
            .with_num("t_p", t_p)
            .with_num("v_th", v_th)
            .with_num("minus", minus)
            .with_num("plus", plus);
        spec.with_noise(noise)
    }

    /// Appends the parameters describing `noise` (an `eta`-kind
    /// convenience mirroring the built-in factory's vocabulary).
    #[must_use]
    pub fn with_noise(self, noise: NoiseSpec) -> Self {
        match noise {
            NoiseSpec::Zero => self.with_text("noise", "zero"),
            NoiseSpec::WorstCase => self.with_text("noise", "worst_case"),
            NoiseSpec::Extending => self.with_text("noise", "extending"),
            NoiseSpec::Uniform { seed } => {
                self.with_text("noise", "uniform").with_int("seed", seed)
            }
            NoiseSpec::Gaussian { sigma, seed } => self
                .with_text("noise", "gaussian")
                .with_num("sigma", sigma)
                .with_int("seed", seed),
            NoiseSpec::Constant { shift } => {
                self.with_text("noise", "constant").with_num("shift", shift)
            }
        }
    }

    /// `true` when the channel may draw random noise, so its output
    /// depends on the seed it runs under: a custom kind (conservatively
    /// assumed stochastic) or `noise = uniform | gaussian`.
    pub(crate) fn is_stochastic(&self) -> bool {
        if !matches!(
            self.kind.as_str(),
            "pure" | "inertial" | "ddm" | "involution" | "eta"
        ) {
            return true;
        }
        matches!(
            self.params.text_or("noise", "zero"),
            Ok("uniform" | "gaussian")
        )
    }
}

/// Apply one channel to one input signal.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRunSpec {
    /// The channel, by name.
    pub channel: ChannelSpec,
    /// The stimulus.
    pub input: SignalSpec,
}

/// A binary stimulus signal as data.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SignalSpec {
    /// The constant-zero signal.
    Zero,
    /// A single pulse `[at, at + width)`.
    Pulse {
        /// Rising-edge time.
        at: f64,
        /// Pulse width.
        width: f64,
    },
    /// A train of pulses given as `(start, width)` pairs.
    Train {
        /// The pulses, in increasing start order.
        pulses: Vec<(f64, f64)>,
    },
    /// An explicit transition list from an initial value.
    Times {
        /// Value "until time 0".
        initial: bool,
        /// Strictly increasing transition times.
        times: Vec<f64>,
    },
}

impl SignalSpec {
    /// A single pulse.
    #[must_use]
    pub fn pulse(at: f64, width: f64) -> Self {
        SignalSpec::Pulse { at, width }
    }

    /// A pulse train from `(start, width)` pairs.
    #[must_use]
    pub fn train(pulses: impl IntoIterator<Item = (f64, f64)>) -> Self {
        SignalSpec::Train {
            pulses: pulses.into_iter().collect(),
        }
    }

    /// An explicit transition list.
    #[must_use]
    pub fn times(initial: bool, times: impl IntoIterator<Item = f64>) -> Self {
        SignalSpec::Times {
            initial,
            times: times.into_iter().collect(),
        }
    }

    /// Builds the concrete [`Signal`](ivl_core::Signal).
    ///
    /// # Errors
    ///
    /// Propagates the signal constructor's validation errors.
    pub fn build(&self) -> Result<Signal, ivl_core::Error> {
        match self {
            SignalSpec::Zero => Ok(Signal::zero()),
            SignalSpec::Pulse { at, width } => Signal::pulse(*at, *width),
            SignalSpec::Train { pulses } => Signal::pulse_train(pulses.iter().copied()),
            SignalSpec::Times { initial, times } => {
                Signal::from_times(if *initial { Bit::One } else { Bit::Zero }, times)
            }
        }
    }
}

/// A digital scenario sweep: topology, stimuli, runner knobs, output
/// selection.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalSpec {
    /// The circuit to build.
    pub topology: TopologySpec,
    /// Simulation horizon per scenario.
    pub horizon: f64,
    /// Scheduled-event budget per scenario (`None` = runner default).
    pub max_events: Option<u64>,
    /// Worker threads (`None` = machine default).
    pub workers: Option<u32>,
    /// What a scenario failure does to the sweep (default: skip).
    pub on_failure: FailurePolicySpec,
    /// The scenarios to sweep (one scenario = one run).
    pub scenarios: Vec<ScenarioSpec>,
    /// Which outputs to materialize in the result.
    pub outputs: OutputSelect,
}

impl DigitalSpec {
    /// A sweep of `topology` to `horizon` with default knobs and no
    /// scenarios yet.
    #[must_use]
    pub fn new(topology: TopologySpec, horizon: f64) -> Self {
        DigitalSpec {
            topology,
            horizon,
            max_events: None,
            workers: None,
            on_failure: FailurePolicySpec::default(),
            scenarios: Vec::new(),
            outputs: OutputSelect::default(),
        }
    }

    /// Sets the failure policy.
    #[must_use]
    pub fn with_on_failure(mut self, on_failure: FailurePolicySpec) -> Self {
        self.on_failure = on_failure;
        self
    }

    /// Sets the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the per-scenario event budget.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Appends a scenario.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Appends many scenarios.
    #[must_use]
    pub fn with_scenarios(mut self, scenarios: impl IntoIterator<Item = ScenarioSpec>) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Sets the output selection.
    #[must_use]
    pub fn with_outputs(mut self, outputs: OutputSelect) -> Self {
        self.outputs = outputs;
        self
    }
}

/// What a scenario failure does to a digital sweep — the declarative
/// mirror of [`ivl_circuit::FailurePolicy`].
///
/// Serialized as `on_failure = abort | skip | retry(attempts = n)`;
/// the field is omitted entirely for the default (`skip`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicySpec {
    /// Stop dispatching on the first failure and report the failing
    /// scenario's identity as the experiment's error.
    Abort,
    /// Record failures per scenario and keep sweeping (the default).
    #[default]
    Skip,
    /// Retry failing scenarios — with the same seed — up to `attempts`
    /// extra times before recording them. Only infrastructure flakes
    /// recover; deterministic bugs fail every attempt.
    Retry {
        /// Extra attempts per failing scenario.
        attempts: u32,
    },
}

impl FailurePolicySpec {
    /// The runner-level policy this spec maps to.
    #[must_use]
    pub fn to_policy(self) -> ivl_circuit::FailurePolicy {
        match self {
            FailurePolicySpec::Abort => ivl_circuit::FailurePolicy::Abort,
            FailurePolicySpec::Skip => ivl_circuit::FailurePolicy::Skip,
            FailurePolicySpec::Retry { attempts } => ivl_circuit::FailurePolicy::Retry(attempts),
        }
    }
}

/// How to obtain the circuit of a digital experiment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologySpec {
    /// An explicit netlist (the general form).
    Netlist(NetlistSpec),
    /// Generator: an `n`-stage inverter chain `a → inv0 → … → y` with
    /// the given channel between consecutive stages and before the
    /// output port (stage initial values alternate starting at 1).
    InverterChain {
        /// Number of inverter stages.
        stages: u32,
        /// The inter-stage channel.
        channel: ChannelSpec,
    },
    /// Generator: a `width × height` 2-D lattice — `Not` gates along
    /// the top/left border, 2-input `Nand`s inside, every lattice edge
    /// carrying the given channel (see `ivl_circuit::generate::grid`).
    Grid2d {
        /// Cells per row.
        width: u32,
        /// Number of rows.
        height: u32,
        /// The lattice channel.
        channel: ChannelSpec,
    },
    /// Generator: a seeded random DAG — gate `n{i}` draws 1–2
    /// predecessors uniformly from the gates before it (see
    /// `ivl_circuit::generate::random_dag`).
    RandomDag {
        /// Number of gates.
        nodes: u32,
        /// SplitMix64 seed; `None` means the spec omitted it (the
        /// linter flags this — an unseeded random netlist is not
        /// reproducible; building defaults to 0).
        seed: Option<u64>,
        /// The edge channel.
        channel: ChannelSpec,
    },
    /// Generator: a binary reduction tree of the given depth —
    /// `2^depth` `Not` leaves fanned out from the input, `Nand`s
    /// reducing pairwise to a single root (see
    /// `ivl_circuit::generate::fat_tree`).
    FatTree {
        /// Tree depth (the root sits at this level; `2^depth` leaves).
        depth: u32,
        /// The tree-edge channel.
        channel: ChannelSpec,
    },
}

/// A circuit as data: the declarative mirror of
/// [`CircuitBuilder`](ivl_circuit::CircuitBuilder).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetlistSpec {
    /// The circuit's nodes, in creation order.
    pub nodes: Vec<NodeSpec>,
    /// The circuit's connections.
    pub edges: Vec<EdgeSpec>,
}

impl NetlistSpec {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        NetlistSpec::default()
    }

    /// Adds an input port.
    #[must_use]
    pub fn input(mut self, name: impl Into<String>) -> Self {
        self.nodes.push(NodeSpec::Input { name: name.into() });
        self
    }

    /// Adds an output port.
    #[must_use]
    pub fn output(mut self, name: impl Into<String>) -> Self {
        self.nodes.push(NodeSpec::Output { name: name.into() });
        self
    }

    /// Adds a gate with the kind's default arity.
    #[must_use]
    pub fn gate(mut self, name: impl Into<String>, kind: GateKindSpec, init: bool) -> Self {
        self.nodes.push(NodeSpec::Gate {
            name: name.into(),
            kind,
            arity: None,
            init,
        });
        self
    }

    /// Adds a zero-delay connection from `from` to pin `pin` of `to`.
    #[must_use]
    pub fn wire(mut self, from: impl Into<String>, to: impl Into<String>, pin: u32) -> Self {
        self.edges.push(EdgeSpec {
            from: from.into(),
            to: to.into(),
            pin,
            channel: None,
        });
        self
    }

    /// Adds a channel connection from `from` to pin `pin` of `to`.
    #[must_use]
    pub fn channel(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        pin: u32,
        channel: ChannelSpec,
    ) -> Self {
        self.edges.push(EdgeSpec {
            from: from.into(),
            to: to.into(),
            pin,
            channel: Some(channel),
        });
        self
    }
}

/// One node of a [`NetlistSpec`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NodeSpec {
    /// An input port.
    Input {
        /// Port name.
        name: String,
    },
    /// An output port.
    Output {
        /// Port name.
        name: String,
    },
    /// A Boolean gate.
    Gate {
        /// Gate name.
        name: String,
        /// The Boolean function.
        kind: GateKindSpec,
        /// Input count (`None` = the kind's default arity).
        arity: Option<u32>,
        /// Output value until time 0.
        init: bool,
    },
}

/// A gate function as data.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GateKindSpec {
    /// Identity.
    Buf,
    /// Negation.
    Not,
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Parity.
    Xor,
    /// Negated parity.
    Xnor,
    /// Arbitrary lookup table: `rows[i]` is the output for the input
    /// combination with bit pattern `i` (pin 0 = LSB).
    Table {
        /// Number of inputs.
        inputs: u32,
        /// `2^inputs` output bits.
        rows: Vec<bool>,
    },
}

/// One connection of a [`NetlistSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSpec {
    /// Source node name.
    pub from: String,
    /// Target node name.
    pub to: String,
    /// Target pin.
    pub pin: u32,
    /// The channel on the edge (`None` = zero-delay port connection).
    pub channel: Option<ChannelSpec>,
}

/// One scenario of a digital sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario label (reported back in the result).
    pub label: String,
    /// Noise seed pinning every channel's RNG stream (`None` = leave
    /// streams as the worker finds them).
    pub seed: Option<u64>,
    /// Input-port assignments; unassigned ports read zero.
    pub inputs: Vec<(String, SignalSpec)>,
}

impl ScenarioSpec {
    /// An empty scenario.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        ScenarioSpec {
            label: label.into(),
            seed: None,
            inputs: Vec::new(),
        }
    }

    /// Pins the noise seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Assigns a signal to an input port.
    #[must_use]
    pub fn with_input(mut self, port: impl Into<String>, signal: SignalSpec) -> Self {
        self.inputs.push((port.into(), signal));
        self
    }
}

/// Which outputs a digital experiment materializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputSelect {
    /// Keep each scenario's output-port signals (the crossings).
    pub signals: bool,
    /// Keep the aggregate sweep statistics.
    pub stats: bool,
    /// Render a VCD dump of each scenario's output ports (timescale
    /// 1 ps, one tick per 0.001 time units).
    pub vcd: bool,
    /// Restrict recording to these nodes (plus the output ports, which
    /// are always recorded). Empty means record every node and edge —
    /// the historical behaviour. On generated scale-tier netlists a
    /// non-empty watch list bounds simulation memory by the watch set
    /// instead of the netlist, and the named signals ride along in
    /// each scenario's `signals`/VCD output.
    pub watch: Vec<String>,
}

impl Default for OutputSelect {
    /// Signals and stats on, VCD off, no watch restriction.
    fn default() -> Self {
        OutputSelect {
            signals: true,
            stats: true,
            vcd: false,
            watch: Vec::new(),
        }
    }
}

impl OutputSelect {
    /// Enables the VCD dump.
    #[must_use]
    pub fn with_vcd(mut self) -> Self {
        self.vcd = true;
        self
    }

    /// Adds a node to the watch list (switching the run to selective
    /// recording).
    #[must_use]
    pub fn with_watch(mut self, node: impl Into<String>) -> Self {
        self.watch.push(node.into());
        self
    }
}

/// An analog-substrate experiment: chain, supply, sweep configuration
/// and task.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogSpec {
    /// The inverter chain to simulate.
    pub chain: ChainSpec,
    /// The supply driving it.
    pub supply: SupplySpec,
    /// The characterization sweep configuration.
    pub sweep: SweepSpec,
    /// What to compute.
    pub task: AnalogTask,
    /// Worker threads (`None` = machine default).
    pub workers: Option<u32>,
}

impl AnalogSpec {
    /// An experiment on an `n`-stage UMC-90-like chain at DC 1 V with
    /// the default sweep, performing `task`.
    #[must_use]
    pub fn new(stages: u32, task: AnalogTask) -> Self {
        AnalogSpec {
            chain: ChainSpec::umc90(stages),
            supply: SupplySpec::Dc { volts: 1.0 },
            sweep: SweepSpec::default(),
            task,
            workers: None,
        }
    }

    /// Replaces the chain.
    #[must_use]
    pub fn with_chain(mut self, chain: ChainSpec) -> Self {
        self.chain = chain;
        self
    }

    /// Replaces the supply.
    #[must_use]
    pub fn with_supply(mut self, supply: SupplySpec) -> Self {
        self.supply = supply;
        self
    }

    /// Replaces the sweep configuration.
    #[must_use]
    pub fn with_sweep(mut self, sweep: SweepSpec) -> Self {
        self.sweep = sweep;
        self
    }

    /// Sets the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = Some(workers);
        self
    }
}

/// The analog chain as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Number of inverter stages.
    pub stages: u32,
    /// Transistor-width scaling factor (1 = nominal).
    pub width_scale: f64,
}

impl ChainSpec {
    /// A nominal UMC-90-like chain.
    #[must_use]
    pub fn umc90(stages: u32) -> Self {
        ChainSpec {
            stages,
            width_scale: 1.0,
        }
    }

    /// Scales every transistor width.
    #[must_use]
    pub fn with_width_scale(mut self, width_scale: f64) -> Self {
        self.width_scale = width_scale;
        self
    }
}

/// The supply source as data.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SupplySpec {
    /// An ideal DC supply.
    Dc {
        /// Supply voltage.
        volts: f64,
    },
    /// A DC supply with a superimposed sine.
    Sine {
        /// Nominal voltage.
        nominal: f64,
        /// Relative sine amplitude (e.g. `0.01` for ±1 %).
        amplitude: f64,
        /// Sine period (ps).
        period: f64,
        /// Phase (degrees).
        phase: f64,
    },
}

impl SupplySpec {
    /// The nominal voltage of the supply.
    #[must_use]
    pub fn nominal(&self) -> f64 {
        match self {
            SupplySpec::Dc { volts } => *volts,
            SupplySpec::Sine { nominal, .. } => *nominal,
        }
    }
}

/// The characterization sweep configuration as data (mirror of
/// [`SweepConfig`](ivl_analog::characterize::SweepConfig)).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Pulse widths to apply (ps).
    pub widths: Vec<f64>,
    /// Quiet time before the first edge (ps).
    pub settle: f64,
    /// Simulation time after the last edge (ps).
    pub tail: f64,
    /// RK4 step (ps); only used with [`IntegratorSpec::Rk4`].
    pub dt: f64,
    /// Input slew (ps).
    pub slew: f64,
    /// Which inverter stage to measure, 0-based (below the chain's
    /// `stages`).
    pub stage: u32,
    /// The integrator.
    pub integrator: IntegratorSpec,
}

impl Default for SweepSpec {
    /// Mirrors `SweepConfig::default()`.
    fn default() -> Self {
        let cfg = ivl_analog::characterize::SweepConfig::default();
        SweepSpec {
            widths: cfg.widths,
            settle: cfg.settle,
            tail: cfg.tail,
            dt: cfg.dt,
            slew: cfg.slew,
            stage: u32::try_from(cfg.stage).unwrap_or(u32::MAX),
            integrator: IntegratorSpec::default(),
        }
    }
}

impl SweepSpec {
    /// Replaces the width list.
    #[must_use]
    pub fn with_widths(mut self, widths: impl IntoIterator<Item = f64>) -> Self {
        self.widths = widths.into_iter().collect();
        self
    }
}

/// The integrator selection as data.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum IntegratorSpec {
    /// Fixed-step RK4 at the sweep's `dt`.
    Rk4,
    /// Adaptive Dormand–Prince RK45 with the given tolerances.
    Rk45 {
        /// Relative tolerance.
        rtol: f64,
        /// Absolute tolerance.
        atol: f64,
    },
}

impl Default for IntegratorSpec {
    /// RK45 at the default tolerances.
    fn default() -> Self {
        let opts = ivl_analog::ode::Rk45Options::default();
        IntegratorSpec::Rk45 {
            rtol: opts.rtol,
            atol: opts.atol,
        }
    }
}

/// What an analog experiment computes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogTask {
    /// `(T, δ)` samples of one stimulus orientation.
    Samples {
        /// Apply the inverted stimulus.
        inverted: bool,
    },
    /// Full characterization: `(δ↑, δ↓)` sample sets.
    Characterize,
    /// Deviations `D(T)` of the measured crossings against a reference
    /// delay model.
    Deviations {
        /// The reference model.
        reference: ReferenceSpec,
        /// Which stimulus orientations to measure.
        orientation: Orientation,
    },
}

/// The reference delay model of a deviation experiment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReferenceSpec {
    /// A closed-form exp-channel.
    Exp {
        /// RC time constant.
        tau: f64,
        /// Pure delay.
        t_p: f64,
        /// Switching threshold.
        v_th: f64,
    },
    /// A closed-form rational pair.
    Rational {
        /// Asymptote parameter.
        a: f64,
        /// Shift parameter.
        b: f64,
        /// Shape parameter.
        c: f64,
    },
    /// Characterize the *nominal* configuration (width scale 1, DC
    /// supply at the nominal voltage) first and use the empirical pair
    /// built from its samples — the paper's Figs. 8a–c procedure as a
    /// single self-contained spec. Each run re-measures the reference;
    /// when several deviation specs share one reference (e.g. the
    /// per-phase sweeps of Fig. 8a), characterize once and embed the
    /// samples via [`ReferenceSpec::Empirical`] instead.
    SelfEmpirical,
    /// An empirical pair built from previously measured `(T, δ)`
    /// samples (as returned by a `characterize` experiment) — the
    /// measured reference travels inside the spec, so one
    /// characterization can feed many deviation experiments.
    Empirical {
        /// Measured `(offset, delay)` samples of the rising output
        /// edge (`δ↑`).
        up: Vec<(f64, f64)>,
        /// Measured `(offset, delay)` samples of the falling output
        /// edge (`δ↓`).
        down: Vec<(f64, f64)>,
    },
}

impl ReferenceSpec {
    /// Builds an [`Empirical`](ReferenceSpec::Empirical) reference from
    /// characterization samples (the `(up, down)` sets of an
    /// [`AnalogTask::Characterize`] result).
    #[must_use]
    pub fn empirical(
        up: &[ivl_analog::characterize::DelaySample],
        down: &[ivl_analog::characterize::DelaySample],
    ) -> Self {
        ReferenceSpec::Empirical {
            up: up.iter().map(|s| (s.offset, s.delay)).collect(),
            down: down.iter().map(|s| (s.offset, s.delay)).collect(),
        }
    }
}

/// Which stimulus orientations a deviation experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Orientation {
    /// Both orientations, normal first (the Figs. 8/9 setting).
    Both,
    /// Only the normal stimulus.
    Normal,
    /// Only the inverted stimulus.
    Inverted,
}

/// An SPF experiment: the feedback delay pair, the adversary bounds and
/// a task.
#[derive(Debug, Clone, PartialEq)]
pub struct SpfSpec {
    /// The feedback channel's delay pair.
    pub delay: DelaySpec,
    /// Adversary bound `η⁻`.
    pub eta_minus: f64,
    /// Adversary bound `η⁺`.
    pub eta_plus: f64,
    /// What to compute.
    pub task: SpfTask,
}

impl SpfSpec {
    /// An SPF instance over an exp delay pair, computing the theory
    /// bundle.
    #[must_use]
    pub fn exp(tau: f64, t_p: f64, v_th: f64, eta_minus: f64, eta_plus: f64) -> Self {
        SpfSpec {
            delay: DelaySpec::Exp { tau, t_p, v_th },
            eta_minus,
            eta_plus,
            task: SpfTask::Theory,
        }
    }

    /// Replaces the task.
    #[must_use]
    pub fn with_task(mut self, task: SpfTask) -> Self {
        self.task = task;
        self
    }
}

/// A closed-form delay pair as data.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DelaySpec {
    /// First-order RC switching delays.
    Exp {
        /// RC time constant.
        tau: f64,
        /// Pure delay.
        t_p: f64,
        /// Switching threshold.
        v_th: f64,
    },
    /// The algebraic involution family.
    Rational {
        /// Asymptote parameter.
        a: f64,
        /// Shift parameter.
        b: f64,
        /// Shape parameter.
        c: f64,
    },
}

/// What an SPF experiment computes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpfTask {
    /// The Section IV theory bundle only.
    Theory,
    /// Theory plus an event-driven run of the Fig. 5 circuit.
    Simulate {
        /// The adversary / noise source on the feedback channel.
        noise: NoiseSpec,
        /// The input signal.
        input: SignalSpec,
        /// Simulation horizon.
        horizon: f64,
    },
}

/// A noise source / adversary as data.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum NoiseSpec {
    /// Always `η = 0`.
    Zero,
    /// Rising maximally late, falling maximally early (shrinks pulses).
    WorstCase,
    /// The pulse-extending adversary.
    Extending,
    /// Uniform draws over the bounds.
    Uniform {
        /// RNG seed.
        seed: u64,
    },
    /// Truncated Gaussian draws.
    Gaussian {
        /// Standard deviation before truncation.
        sigma: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A constant shift.
    Constant {
        /// The shift applied to every transition.
        shift: f64,
    },
}

// ======================================================================
// Spec construction conveniences
// ======================================================================

impl ExperimentSpec {
    /// Wraps a workload.
    #[must_use]
    pub fn new(workload: WorkloadSpec) -> Self {
        ExperimentSpec { workload }
    }

    /// A channel-application experiment.
    #[must_use]
    pub fn channel(channel: ChannelSpec, input: SignalSpec) -> Self {
        ExperimentSpec::new(WorkloadSpec::Channel(ChannelRunSpec { channel, input }))
    }

    /// A digital sweep experiment.
    #[must_use]
    pub fn digital(spec: DigitalSpec) -> Self {
        ExperimentSpec::new(WorkloadSpec::Digital(spec))
    }

    /// An analog experiment.
    #[must_use]
    pub fn analog(spec: AnalogSpec) -> Self {
        ExperimentSpec::new(WorkloadSpec::Analog(spec))
    }

    /// An SPF experiment.
    #[must_use]
    pub fn spf(spec: SpfSpec) -> Self {
        ExperimentSpec::new(WorkloadSpec::Spf(spec))
    }

    /// The spec's cache key: a compact binary encoding of its canonical
    /// tree, equal for two specs exactly when their canonical texts
    /// (`to_string()`) are equal.
    ///
    /// It is written by walking the spec once, the walk that also
    /// writes `to_string()`, so no text or tree is built for it.
    ///
    /// Every text that parses to the same spec therefore has the same
    /// key, whatever its comments, whitespace or formatting. The
    /// encoding keeps apart what the text keeps apart: an integer from
    /// a real (`1` vs `1.0`), `-0.0` from `0.0`, a word from a quoted
    /// string. The experiment service's result cache compares these
    /// bytes exactly, so a hash collision is a miss, never a wrong
    /// result.
    #[must_use]
    pub fn cache_key(&self) -> Vec<u8> {
        self.key_bytes()
    }

    /// The cache key computed the long way, by parsing the canonical
    /// text and encoding the parsed tree: the reference that
    /// [`cache_key`](ExperimentSpec::cache_key) is tested against, which
    /// ties the key to the text itself.
    #[doc(hidden)]
    #[must_use]
    pub fn cache_key_via_text(&self) -> Vec<u8> {
        parse_document(&self.to_string())
            .expect("a canonical text parses")
            .key_bytes()
    }

    /// A stable 64-bit hash of [`cache_key`](ExperimentSpec::cache_key).
    ///
    /// Comments, whitespace and formatting variants of one spec hash to
    /// the same value, which is the contract the experiment service's
    /// content-addressed result cache keys on: because replay of a spec
    /// is bit-identical, equal keys mean reusable results. The hash
    /// only picks the slot; the cache verifies the key bytes themselves.
    ///
    /// The key is hashed eight bytes at a time as little-endian words,
    /// so unlike `std::collections::hash_map::DefaultHasher` this value
    /// is stable across processes and platforms, and it names on-disk
    /// cache entries.
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        key_hash(&self.cache_key())
    }
}

// ======================================================================
// The canonical tree: one walk per spec type
// ======================================================================
//
// A walk announces each node's field count before its fields, so the
// count must match the fields it then writes, optional ones included;
// the round-trip and key proptests in `tests/spec_roundtrip.rs` fail
// when it does not.

impl Walk for f64 {
    const SCALAR: bool = true;

    fn walk(&self, s: &mut impl Sink) {
        s.num(*self);
    }
}

impl Walk for u64 {
    const SCALAR: bool = true;

    fn walk(&self, s: &mut impl Sink) {
        s.int(*self);
    }
}

impl Walk for u32 {
    const SCALAR: bool = true;

    fn walk(&self, s: &mut impl Sink) {
        s.int(u64::from(*self));
    }
}

/// Counts and indices.
impl Walk for usize {
    const SCALAR: bool = true;

    fn walk(&self, s: &mut impl Sink) {
        s.int(*self as u64);
    }
}

/// Booleans are the words `true` and `false`.
impl Walk for bool {
    const SCALAR: bool = true;

    fn walk(&self, s: &mut impl Sink) {
        s.word(if *self { "true" } else { "false" });
    }
}

/// Names and labels are quoted strings.
impl Walk for String {
    const SCALAR: bool = true;

    fn walk(&self, s: &mut impl Sink) {
        s.str(self);
    }
}

/// A `[start, width]` pulse or an `[offset, delay]` sample.
impl Walk for (f64, f64) {
    fn walk(&self, s: &mut impl Sink) {
        s.list(2, true);
        s.num(self.0);
        s.num(self.1);
    }
}

impl<T: Walk> Walk for [T] {
    fn walk(&self, s: &mut impl Sink) {
        s.list(self.len(), T::SCALAR);
        for item in self {
            item.walk(s);
        }
    }
}

impl<T: Walk> Walk for Vec<T> {
    fn walk(&self, s: &mut impl Sink) {
        self[..].walk(s);
    }
}

impl Walk for ExperimentSpec {
    fn walk(&self, s: &mut impl Sink) {
        match &self.workload {
            WorkloadSpec::Channel(c) => {
                s.node("channel", 2);
                s.entry("channel", &c.channel);
                s.entry("input", &c.input);
            }
            WorkloadSpec::Digital(d) => d.walk(s),
            WorkloadSpec::Analog(a) => a.walk(s),
            WorkloadSpec::Spf(p) => p.walk(s),
        }
    }
}

impl Walk for ChannelSpec {
    fn walk(&self, s: &mut impl Sink) {
        let params = self.params.entries();
        s.node(&self.kind, params.len());
        for (name, value) in params {
            s.field(name);
            match value {
                ParamValue::Num(v) => s.num(*v),
                ParamValue::Int(v) => s.int(*v),
                ParamValue::Text(v) if is_word(v) => s.word(v),
                ParamValue::Text(v) => s.str(v),
                // future ParamValue variants degrade to their display form
                other => s.str(&other.to_string()),
            }
        }
    }
}

fn is_word(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        && s != "true"
        && s != "false"
}

impl Walk for SignalSpec {
    fn walk(&self, s: &mut impl Sink) {
        match self {
            SignalSpec::Zero => s.word("zero"),
            SignalSpec::Pulse { at, width } => {
                s.node("pulse", 2);
                s.entry("at", at);
                s.entry("width", width);
            }
            SignalSpec::Train { pulses } => {
                s.node("train", 1);
                s.entry("pulses", pulses);
            }
            SignalSpec::Times { initial, times } => {
                s.node("times", 2);
                s.entry("initial", initial);
                s.entry("at", times);
            }
        }
    }
}

impl Walk for DigitalSpec {
    fn walk(&self, s: &mut impl Sink) {
        let optional = [
            self.max_events.is_some(),
            self.workers.is_some(),
            self.on_failure != FailurePolicySpec::Skip,
        ];
        s.node("digital", 4 + count(&optional));
        s.entry("topology", &self.topology);
        s.entry("horizon", &self.horizon);
        if let Some(m) = &self.max_events {
            s.entry("max_events", m);
        }
        if let Some(w) = &self.workers {
            s.entry("workers", w);
        }
        if self.on_failure != FailurePolicySpec::Skip {
            s.entry("on_failure", &self.on_failure);
        }
        s.entry("scenarios", &self.scenarios);
        s.entry("outputs", &self.outputs);
    }
}

impl Walk for OutputSelect {
    fn walk(&self, s: &mut impl Sink) {
        // `watch` is written only when set, so specs predating it
        // round-trip byte-identically (stable canonical hashes)
        s.node("outputs", 3 + count(&[!self.watch.is_empty()]));
        s.entry("signals", &self.signals);
        s.entry("stats", &self.stats);
        s.entry("vcd", &self.vcd);
        if !self.watch.is_empty() {
            s.entry("watch", &self.watch);
        }
    }
}

impl Walk for TopologySpec {
    fn walk(&self, s: &mut impl Sink) {
        match self {
            TopologySpec::Netlist(n) => {
                s.node("netlist", 2);
                s.entry("nodes", &n.nodes);
                s.entry("edges", &n.edges);
            }
            TopologySpec::InverterChain { stages, channel } => {
                s.node("chain", 2);
                s.entry("stages", stages);
                s.entry("channel", channel);
            }
            TopologySpec::Grid2d {
                width,
                height,
                channel,
            } => {
                s.node("grid", 3);
                s.entry("width", width);
                s.entry("height", height);
                s.entry("channel", channel);
            }
            TopologySpec::RandomDag {
                nodes,
                seed,
                channel,
            } => {
                s.node("random_dag", 2 + count(&[seed.is_some()]));
                s.entry("nodes", nodes);
                if let Some(seed) = seed {
                    s.entry("seed", seed);
                }
                s.entry("channel", channel);
            }
            TopologySpec::FatTree { depth, channel } => {
                s.node("fat_tree", 2);
                s.entry("depth", depth);
                s.entry("channel", channel);
            }
        }
    }
}

impl Walk for GateKindSpec {
    fn walk(&self, s: &mut impl Sink) {
        match self {
            GateKindSpec::Buf => s.word("buf"),
            GateKindSpec::Not => s.word("not"),
            GateKindSpec::And => s.word("and"),
            GateKindSpec::Or => s.word("or"),
            GateKindSpec::Nand => s.word("nand"),
            GateKindSpec::Nor => s.word("nor"),
            GateKindSpec::Xor => s.word("xor"),
            GateKindSpec::Xnor => s.word("xnor"),
            GateKindSpec::Table { inputs, rows } => {
                s.node("table", 2);
                s.entry("inputs", inputs);
                s.field("rows");
                s.list(rows.len(), true);
                for &row in rows {
                    s.int(u64::from(row));
                }
            }
        }
    }
}

impl Walk for EdgeSpec {
    fn walk(&self, s: &mut impl Sink) {
        s.node("edge", 3 + count(&[self.channel.is_some()]));
        s.entry("from", &self.from);
        s.entry("to", &self.to);
        s.entry("pin", &self.pin);
        if let Some(c) = &self.channel {
            s.entry("channel", c);
        }
    }
}

impl Walk for AnalogSpec {
    fn walk(&self, s: &mut impl Sink) {
        s.node("analog", 4 + count(&[self.workers.is_some()]));
        s.entry("chain", &self.chain);
        s.entry("supply", &self.supply);
        s.entry("sweep", &self.sweep);
        s.entry("task", &self.task);
        if let Some(w) = &self.workers {
            s.entry("workers", w);
        }
    }
}

impl Walk for SweepSpec {
    fn walk(&self, s: &mut impl Sink) {
        s.node("sweep", 7);
        s.entry("widths", &self.widths);
        s.entry("settle", &self.settle);
        s.entry("tail", &self.tail);
        s.entry("dt", &self.dt);
        s.entry("slew", &self.slew);
        s.entry("stage", &self.stage);
        s.entry("integrator", &self.integrator);
    }
}

impl Walk for AnalogTask {
    fn walk(&self, s: &mut impl Sink) {
        match self {
            AnalogTask::Samples { inverted } => {
                s.node("samples", 1);
                s.entry("inverted", inverted);
            }
            AnalogTask::Characterize => s.word("characterize"),
            AnalogTask::Deviations {
                reference,
                orientation,
            } => {
                s.node("deviations", 2);
                s.entry("reference", reference);
                s.field("orientation");
                s.word(match orientation {
                    Orientation::Both => "both",
                    Orientation::Normal => "normal",
                    Orientation::Inverted => "inverted",
                });
            }
        }
    }
}

impl Walk for ReferenceSpec {
    fn walk(&self, s: &mut impl Sink) {
        match self {
            // the same nodes as the delay pairs of an SPF spec
            &ReferenceSpec::Exp { tau, t_p, v_th } => DelaySpec::Exp { tau, t_p, v_th }.walk(s),
            &ReferenceSpec::Rational { a, b, c } => DelaySpec::Rational { a, b, c }.walk(s),
            ReferenceSpec::SelfEmpirical => s.word("self_empirical"),
            ReferenceSpec::Empirical { up, down } => {
                s.node("empirical", 2);
                s.entry("up", up);
                s.entry("down", down);
            }
        }
    }
}

impl Walk for SpfSpec {
    fn walk(&self, s: &mut impl Sink) {
        s.node("spf", 4);
        s.entry("delay", &self.delay);
        s.entry("eta_minus", &self.eta_minus);
        s.entry("eta_plus", &self.eta_plus);
        s.entry("task", &self.task);
    }
}

// The plain spec types: each names its fields once, in one table that
// yields its walk and its reader.

schema! {
    struct ScenarioSpec = "scenario" { label, seed?, inputs }
}

schema! {
    struct ChainSpec = "chain" { stages, width_scale }
}

// `skip`, the default, is never written: `DigitalSpec` omits the field
// for it.
schema! {
    enum FailurePolicySpec in "on_failure", "failure policy" {
        Abort = "abort",
        Skip = "skip",
        Retry = "retry" { attempts },
    }
}

schema! {
    enum NodeSpec in "node", "node kind" {
        Input = "input" { name },
        Output = "output" { name },
        Gate = "gate" { name, kind, arity?, init },
    }
}

schema! {
    enum SupplySpec in "supply", "supply kind" {
        Dc = "dc" { volts },
        Sine = "sine" { nominal, amplitude, period, phase },
    }
}

schema! {
    enum IntegratorSpec in "integrator", "integrator" {
        Rk4 = "rk4",
        Rk45 = "rk45" { rtol, atol },
    }
}

schema! {
    enum DelaySpec in "delay", "delay family" {
        Exp = "exp" { tau, t_p, v_th },
        Rational = "rational" { a, b, c },
    }
}

schema! {
    enum SpfTask in "task", "spf task" {
        Theory = "theory",
        Simulate = "simulate" { noise, input, horizon },
    }
}

schema! {
    enum NoiseSpec in "noise", "noise kind" {
        Zero = "zero",
        WorstCase = "worst_case",
        Extending = "extending",
        Uniform = "uniform" { seed },
        Gaussian = "gaussian" { sigma, seed },
        Constant = "constant" { shift },
    }
}

// ======================================================================
// Reading: tree -> spec
// ======================================================================

/// A signal in result documents and checkpoints: the node
/// `sig { initial; times }`.
impl Walk for Signal {
    fn walk(&self, s: &mut impl Sink) {
        walk_sig(s, None, self);
    }
}

/// A named signal: `sig { name; initial; times }`.
impl Walk for (String, Signal) {
    fn walk(&self, s: &mut impl Sink) {
        walk_sig(s, Some(&self.0), &self.1);
    }
}

fn walk_sig(s: &mut impl Sink, name: Option<&str>, signal: &Signal) {
    s.node("sig", 2 + count(&[name.is_some()]));
    if let Some(name) = name {
        s.field("name");
        s.str(name);
    }
    s.entry("initial", &(signal.initial() == Bit::One));
    let transitions = signal.transitions();
    s.field("times");
    s.list(transitions.len(), true);
    for t in transitions {
        s.num(t.time);
    }
}

/// A `sig` node whose `name` field, if any, `name` takes: a field it
/// leaves is unknown, like any other.
fn read_sig<N>(
    value: Value,
    name: impl FnOnce(&mut Fields) -> Result<N, SpecError>,
) -> Result<(N, Signal), SpecError> {
    let span = value.span();
    let (name, initial, times) = Fields::node(value, "sig", |f| {
        let name = name(f)?;
        Ok((name, f.req::<bool>("initial")?, f.req::<Vec<f64>>("times")?))
    })?;
    let signal = Signal::from_times(Bit::from(initial), &times)
        .map_err(|e| SpecError::new(format!("sig: invalid signal: {e}")).at(span))?;
    Ok((name, signal))
}

/// A `sig` node without a name.
impl Read for Signal {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Ok(read_sig(value, |_| Ok(()))?.1)
    }
}

/// A `sig` node that must be named.
impl Read for (String, Signal) {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        read_sig(value, |f| f.req("name"))
    }
}

/// Where the parts of a parsed spec that lint diagnostics point at sit
/// in its text. [`ExperimentSpec::parse_spanned`] records each span as
/// it consumes the field, so the table cannot drift from the parser; a
/// built spec has the empty table. List entries are indexed like the
/// spec's lists.
#[derive(Debug, Default)]
pub(crate) struct SpecSpans {
    pub(crate) workload: Option<Span>,
    pub(crate) topology: Option<Span>,
    pub(crate) nodes: Vec<Option<Span>>,
    pub(crate) edges: Vec<Option<Span>>,
    /// Edge *i*'s channel, when it has one.
    pub(crate) edge_channels: Vec<Option<Span>>,
    /// The channel workload's channel, or the topology generator's.
    pub(crate) channel: Option<Span>,
    pub(crate) scenarios: Vec<Option<Span>>,
    pub(crate) watch: Vec<Option<Span>>,
    pub(crate) horizon: Option<Span>,
    pub(crate) workers: Option<Span>,
    pub(crate) max_events: Option<Span>,
    pub(crate) on_failure: Option<Span>,
    pub(crate) widths: Option<Span>,
    pub(crate) stage: Option<Span>,
    pub(crate) delay: Option<Span>,
}

/// Reads each of `items` (the list field `tag.name`) as a `T`, after
/// recording their spans in `spans`.
fn read_items<T: Read>(
    items: Vec<Value>,
    spans: &mut Vec<Option<Span>>,
    tag: &str,
    name: &str,
) -> Result<Vec<T>, SpecError> {
    *spans = items.iter().map(Value::span).collect();
    items.into_iter().map(|v| T::read(v, tag, name)).collect()
}

impl ExperimentSpec {
    /// Parses a spec document, recording the [`SpecSpans`] of the parse.
    pub(crate) fn parse_spanned(text: &str) -> Result<(Self, SpecSpans), SpecError> {
        let mut sp = SpecSpans::default();
        let workload = Fields::variant(parse_document(text)?, "workload", |f| {
            sp.workload = f.span;
            Ok(match f.tag.as_str() {
                "channel" => {
                    sp.channel = f.span_of("channel");
                    WorkloadSpec::Channel(ChannelRunSpec {
                        channel: f.req("channel")?,
                        input: f.req("input")?,
                    })
                }
                "digital" => WorkloadSpec::Digital(digital_from_fields(f, &mut sp)?),
                "analog" => WorkloadSpec::Analog(analog_from_fields(f, &mut sp)?),
                "spf" => WorkloadSpec::Spf(spf_from_fields(f, &mut sp)?),
                _ => {
                    let kinds = ["channel", "digital", "analog", "spf"];
                    return Err(f.unknown("workload kind", &kinds));
                }
            })
        })?;
        Ok((ExperimentSpec { workload }, sp))
    }
}

/// A channel: its kind's tag and scalar parameters, in document order.
impl Read for ChannelSpec {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        let (kind, fields) = Fields::of(value, "channel")?.into_parts();
        let mut params = ChannelParams::new();
        for (name, v) in fields {
            let span = v.span();
            params = match v.into_kind() {
                ValueKind::Num(x) => params.with_num(name, x),
                ValueKind::Int(x) => params.with_int(name, x),
                ValueKind::Word(text) | ValueKind::Str(text) => params.with_text(name, text),
                other => {
                    return Err(SpecError::new(format!(
                        "{kind}: channel parameter {name:?} must be scalar, found {}",
                        Value::from(other)
                    ))
                    .at(span))
                }
            };
        }
        Ok(ChannelSpec { kind, params })
    }
}

impl Read for SignalSpec {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::variant(value, "signal", |f| {
            Ok(match f.tag.as_str() {
                "zero" => SignalSpec::Zero,
                "pulse" => SignalSpec::Pulse {
                    at: f.req("at")?,
                    width: f.req("width")?,
                },
                "train" => SignalSpec::Train {
                    pulses: pairs(f.req("pulses")?, "train", "pulse", ["start", "width"])?,
                },
                "times" => SignalSpec::Times {
                    initial: f.req("initial")?,
                    times: f.req("at")?,
                },
                _ => return Err(f.unknown("signal kind", &["zero", "pulse", "train", "times"])),
            })
        })
    }
}

/// `[a, b]` pairs of reals (a train's pulses, an empirical reference's
/// samples), whose halves errors name `a` and `b`; any other item is
/// the error that each `what` must be such a pair.
fn pairs(
    items: Vec<Value>,
    tag: &str,
    what: &str,
    [a, b]: [&str; 2],
) -> Result<Vec<(f64, f64)>, SpecError> {
    // "a [start, width] pair", "an [offset, delay] pair"
    let article = if a.starts_with(['a', 'e', 'i', 'o', 'u']) {
        "an"
    } else {
        "a"
    };
    let pair = |item: Value| {
        let span = item.span();
        match item.into_kind() {
            ValueKind::List(pair) if pair.len() == 2 => {
                let [x, y] = <[Value; 2]>::try_from(pair).expect("two items");
                Ok((f64::read(x, tag, a)?, f64::read(y, tag, b)?))
            }
            other => Err(SpecError::new(format!(
                "{tag}: each {what} must be {article} [{a}, {b}] pair, found {}",
                Value::from(other)
            ))
            .at(span)),
        }
    };
    items.into_iter().map(pair).collect()
}

fn digital_from_fields(f: &mut Fields, sp: &mut SpecSpans) -> Result<DigitalSpec, SpecError> {
    sp.topology = f.span_of("topology");
    sp.horizon = f.span_of("horizon");
    sp.max_events = f.span_of("max_events");
    sp.workers = f.span_of("workers");
    sp.on_failure = f.span_of("on_failure");
    Ok(DigitalSpec {
        topology: topology_from_value(f.req("topology")?, sp)?,
        horizon: f.req("horizon")?,
        max_events: f.opt("max_events")?,
        workers: f.opt("workers")?,
        on_failure: f.opt("on_failure")?.unwrap_or_default(),
        scenarios: read_items(
            f.req("scenarios")?,
            &mut sp.scenarios,
            "digital",
            "scenarios",
        )?,
        outputs: match f.opt("outputs")? {
            None => OutputSelect::default(),
            Some(v) => Fields::node(v, "outputs", |f| {
                let (signals, stats, vcd) = (f.req("signals")?, f.req("stats")?, f.req("vcd")?);
                let watch = f.opt("watch")?.unwrap_or_default();
                Ok(OutputSelect {
                    signals,
                    stats,
                    vcd,
                    watch: read_items(watch, &mut sp.watch, "outputs", "watch")?,
                })
            })?,
        },
    })
}

fn topology_from_value(value: Value, sp: &mut SpecSpans) -> Result<TopologySpec, SpecError> {
    Fields::variant(value, "topology", |f| {
        // a generator's channel; a netlist has none at this level
        sp.channel = f.span_of("channel");
        Ok(match f.tag.as_str() {
            "netlist" => {
                let nodes = read_items(f.req("nodes")?, &mut sp.nodes, "netlist", "nodes")?;
                let edges = f
                    .req::<Vec<Value>>("edges")?
                    .into_iter()
                    .map(|e| edge_from_value(e, sp))
                    .collect::<Result<_, _>>()?;
                TopologySpec::Netlist(NetlistSpec { nodes, edges })
            }
            "chain" => TopologySpec::InverterChain {
                stages: f.req("stages")?,
                channel: f.req("channel")?,
            },
            "grid" => TopologySpec::Grid2d {
                width: f.req("width")?,
                height: f.req("height")?,
                channel: f.req("channel")?,
            },
            "random_dag" => TopologySpec::RandomDag {
                nodes: f.req("nodes")?,
                seed: f.opt("seed")?,
                channel: f.req("channel")?,
            },
            "fat_tree" => TopologySpec::FatTree {
                depth: f.req("depth")?,
                channel: f.req("channel")?,
            },
            _ => {
                let kinds = ["netlist", "chain", "grid", "random_dag", "fat_tree"];
                return Err(f.unknown("topology kind", &kinds));
            }
        })
    })
}

impl Read for GateKindSpec {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::variant(value, "gate kind", |f| {
            Ok(match f.tag.as_str() {
                "buf" => GateKindSpec::Buf,
                "not" => GateKindSpec::Not,
                "and" => GateKindSpec::And,
                "or" => GateKindSpec::Or,
                "nand" => GateKindSpec::Nand,
                "nor" => GateKindSpec::Nor,
                "xor" => GateKindSpec::Xor,
                "xnor" => GateKindSpec::Xnor,
                "table" => GateKindSpec::Table {
                    inputs: f.req("inputs")?,
                    rows: f.req::<Vec<u64>>("rows")?.iter().map(|&r| r != 0).collect(),
                },
                _ => {
                    let kinds = [
                        "buf", "not", "and", "or", "nand", "nor", "xor", "xnor", "table",
                    ];
                    return Err(f.unknown("gate kind", &kinds));
                }
            })
        })
    }
}

fn edge_from_value(value: Value, sp: &mut SpecSpans) -> Result<EdgeSpec, SpecError> {
    sp.edges.push(value.span());
    Fields::node(value, "edge", |f| {
        sp.edge_channels.push(f.span_of("channel"));
        Ok(EdgeSpec {
            from: f.req("from")?,
            to: f.req("to")?,
            pin: f.req("pin")?,
            channel: f.opt("channel")?,
        })
    })
}

/// A scenario's input: `drive { port; signal }`.
impl Walk for (String, SignalSpec) {
    fn walk(&self, s: &mut impl Sink) {
        s.node("drive", 2);
        s.entry("port", &self.0);
        s.entry("signal", &self.1);
    }
}

impl Read for (String, SignalSpec) {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::node(value, "drive", |f| Ok((f.req("port")?, f.req("signal")?)))
    }
}

fn analog_from_fields(f: &mut Fields, sp: &mut SpecSpans) -> Result<AnalogSpec, SpecError> {
    sp.workers = f.span_of("workers");
    Ok(AnalogSpec {
        chain: f.req("chain")?,
        supply: f.req("supply")?,
        sweep: Fields::node(f.req("sweep")?, "sweep", |f| {
            sp.widths = f.span_of("widths");
            sp.stage = f.span_of("stage");
            Ok(SweepSpec {
                widths: f.req("widths")?,
                settle: f.req("settle")?,
                tail: f.req("tail")?,
                dt: f.req("dt")?,
                slew: f.req("slew")?,
                stage: f.req("stage")?,
                integrator: f.req("integrator")?,
            })
        })?,
        task: f.req("task")?,
        workers: f.opt("workers")?,
    })
}

impl Read for AnalogTask {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::variant(value, "task", |f| {
            Ok(match f.tag.as_str() {
                "samples" => AnalogTask::Samples {
                    inverted: f.req("inverted")?,
                },
                "characterize" => AnalogTask::Characterize,
                "deviations" => AnalogTask::Deviations {
                    reference: f.req("reference")?,
                    orientation: match f.req::<String>("orientation")?.as_str() {
                        "both" => Orientation::Both,
                        "normal" => Orientation::Normal,
                        "inverted" => Orientation::Inverted,
                        other => {
                            return Err(SpecError::new(format!(
                                "unknown orientation {other:?} (expected both, normal or inverted)"
                            ))
                            .at(f.span))
                        }
                    },
                },
                _ => {
                    let tasks = ["samples", "characterize", "deviations"];
                    return Err(f.unknown("analog task", &tasks));
                }
            })
        })
    }
}

impl Read for ReferenceSpec {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::variant(value, "reference", |f| {
            Ok(match f.tag.as_str() {
                "exp" => ReferenceSpec::Exp {
                    tau: f.req("tau")?,
                    t_p: f.req("t_p")?,
                    v_th: f.req("v_th")?,
                },
                "rational" => ReferenceSpec::Rational {
                    a: f.req("a")?,
                    b: f.req("b")?,
                    c: f.req("c")?,
                },
                "self_empirical" => ReferenceSpec::SelfEmpirical,
                "empirical" => ReferenceSpec::Empirical {
                    up: samples(f.req("up")?)?,
                    down: samples(f.req("down")?)?,
                },
                _ => {
                    let kinds = ["exp", "rational", "empirical", "self_empirical"];
                    return Err(f.unknown("reference", &kinds));
                }
            })
        })
    }
}

/// An empirical reference's `[offset, delay]` samples.
fn samples(value: Value) -> Result<Vec<(f64, f64)>, SpecError> {
    let span = value.span();
    let ValueKind::List(items) = value.into_kind() else {
        return Err(SpecError::new("empirical: samples must be a list").at(span));
    };
    pairs(items, "empirical", "sample", ["offset", "delay"])
}

fn spf_from_fields(f: &mut Fields, sp: &mut SpecSpans) -> Result<SpfSpec, SpecError> {
    sp.delay = f.span_of("delay");
    Ok(SpfSpec {
        delay: f.req("delay")?,
        eta_minus: f.req("eta_minus")?,
        eta_plus: f.req("eta_plus")?,
        task: f.req("task")?,
    })
}

// ======================================================================
// Display / FromStr
// ======================================================================

impl fmt::Display for ExperimentSpec {
    /// The versioned text serialization. Round-trips exactly through
    /// [`FromStr`] for every spec whose numbers are finite and whose
    /// channel kinds/parameter names are identifiers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render_document(self))
    }
}

impl FromStr for ExperimentSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse_spanned(s).map(|(spec, _)| spec)
    }
}
