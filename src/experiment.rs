//! The spec-driven [`Experiment`] facade: one entry point that
//! dispatches declarative [`ExperimentSpec`]s to the channel algebra,
//! the event-driven digital simulator, the analog characterization
//! pipeline or the SPF theory/circuit layer, behind one typed
//! [`ExperimentResult`].

use std::path::{Path, PathBuf};
use std::time::Duration;

use ivl_analog::chain::InverterChain;
use ivl_analog::characterize::{
    to_empirical, DelaySample, DeviationSample, Integrator, SweepConfig,
};
use ivl_analog::ode::Rk45Options;
use ivl_analog::supply::VddSource;
use ivl_analog::SweepRunner;
use ivl_circuit::generate;
use ivl_circuit::vcd::write_vcd;
use ivl_circuit::{
    Circuit, CircuitBuilder, FaultPlan, GateKind, Scenario, ScenarioFailure, ScenarioRunner,
    SimError, SweepStats, TruthTable,
};
use ivl_core::channel::apply_online;
use ivl_core::delay::{DelayPair, ExpChannel, RationalPair};
use ivl_core::factory::ChannelRegistry;
use ivl_core::noise::{
    ConstantShift, EtaBounds, ExtendingAdversary, TruncatedGaussian, UniformNoise,
    WorstCaseAdversary, ZeroNoise,
};
use ivl_core::{Bit, Edge, Signal};
use ivl_spf::{SpfCircuit, SpfRun, SpfTheory};

use crate::checkpoint::{self, DoneScenario};
use crate::error::{CheckpointError, Error, SpecError};
use crate::spec::{
    AnalogSpec, AnalogTask, ChannelSpec, DelaySpec, DigitalSpec, ExperimentSpec, FailurePolicySpec,
    GateKindSpec, IntegratorSpec, NodeSpec, NoiseSpec, Orientation, ReferenceSpec, SpecSpans,
    SpfSpec, SpfTask, TopologySpec, WorkloadSpec,
};

/// A ready-to-run experiment: a spec plus the channel registry used to
/// resolve by-name channels.
///
/// ```
/// use faithful::{ChannelSpec, Experiment, ExperimentSpec, SignalSpec};
///
/// # fn main() -> Result<(), faithful::Error> {
/// let spec = ExperimentSpec::channel(
///     ChannelSpec::involution_exp(1.0, 0.5, 0.5),
///     SignalSpec::pulse(0.0, 3.0),
/// );
/// let result = Experiment::new(spec).run()?;
/// let output = &result.channel().expect("channel workload").output;
/// assert_eq!(output.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Experiment {
    spec: ExperimentSpec,
    /// Where [`parse`](Experiment::parse) found the parts of the spec, so
    /// lint diagnostics point into its text (empty otherwise).
    spans: SpecSpans,
    registry: ChannelRegistry,
    lint: crate::lint::LintConfig,
    timeout: Option<Duration>,
    fault: Option<FaultPlan>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    resume: Option<checkpoint::CheckpointState>,
}

impl Experiment {
    /// Wraps a spec with the built-in channel registry.
    #[must_use]
    pub fn new(spec: ExperimentSpec) -> Self {
        Experiment {
            spec,
            spans: SpecSpans::default(),
            registry: ChannelRegistry::with_builtins(),
            lint: crate::lint::LintConfig::default(),
            timeout: None,
            fault: None,
            checkpoint: None,
            checkpoint_every: 64,
            resume: None,
        }
    }

    /// Resumes a checkpointed digital sweep from its sidecar file: the
    /// experiment is rebuilt from the spec embedded in the checkpoint,
    /// already-completed scenarios are skipped (their persisted signals
    /// and statistics merge back into the result), and checkpointing
    /// continues into the same file. For seeded scenarios the resumed
    /// result is bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] if the sidecar cannot be read or fails
    /// validation; [`Error::Spec`] if the embedded spec does not parse.
    pub fn resume(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let state = checkpoint::read(path)?;
        let spec: ExperimentSpec = state.spec_text.parse()?;
        let mut experiment = Experiment::new(spec);
        experiment.checkpoint = Some(path.to_path_buf());
        experiment.resume = Some(state);
        Ok(experiment)
    }

    /// Parses a serialized spec and wraps it. Lint diagnostics of the
    /// experiment ([`lint_report`](Experiment::lint_report) and the
    /// [`run`](Experiment::run) pre-flight) point into `text`.
    ///
    /// # Errors
    ///
    /// [`Error::Spec`] on parse failure.
    pub fn parse(text: &str) -> Result<Self, Error> {
        let (spec, spans) = ExperimentSpec::parse_spanned(text)?;
        Ok(Experiment {
            spans,
            ..Experiment::new(spec)
        })
    }

    /// Convenience: a channel-application experiment.
    #[must_use]
    pub fn channel(channel: ChannelSpec, input: crate::spec::SignalSpec) -> Self {
        Experiment::new(ExperimentSpec::channel(channel, input))
    }

    /// Convenience: a digital sweep experiment.
    #[must_use]
    pub fn digital(spec: DigitalSpec) -> Self {
        Experiment::new(ExperimentSpec::digital(spec))
    }

    /// Convenience: an analog experiment.
    #[must_use]
    pub fn analog(spec: AnalogSpec) -> Self {
        Experiment::new(ExperimentSpec::analog(spec))
    }

    /// Convenience: an SPF experiment.
    #[must_use]
    pub fn spf(spec: SpfSpec) -> Self {
        Experiment::new(ExperimentSpec::spf(spec))
    }

    /// Replaces the channel registry (to resolve custom channel kinds).
    #[must_use]
    pub fn with_registry(mut self, registry: ChannelRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Arms a per-scenario wall-clock budget for digital sweeps: a
    /// watchdog cancels any scenario still running `timeout` after it
    /// started, failing it with
    /// [`SimError::Cancelled`](ivl_circuit::SimError::Cancelled) under
    /// the spec's failure policy.
    #[must_use]
    pub fn with_scenario_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Installs a deterministic [`FaultPlan`] for digital sweeps (chaos
    /// testing). Fault indices refer to spec scenario order.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Enables periodic checkpointing of digital sweeps to the sidecar
    /// file at `path` (atomically rewritten after every completed
    /// batch), so an interrupted sweep can be picked up with
    /// [`Experiment::resume`].
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets how many scenarios run between checkpoint writes (default
    /// 64, clamped to ≥ 1). Only meaningful together with
    /// [`with_checkpoint`](Experiment::with_checkpoint).
    #[must_use]
    pub fn with_checkpoint_every(mut self, scenarios: usize) -> Self {
        self.checkpoint_every = scenarios.max(1);
        self
    }

    /// Overrides what the lint pre-flight does with its findings.
    ///
    /// Unset, [`run`](Experiment::run) denies specs with
    /// `Error`-severity diagnostics.
    #[must_use]
    pub fn with_lint(mut self, mode: crate::lint::LintConfig) -> Self {
        self.lint = mode;
        self
    }

    /// The wrapped spec.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Lints the wrapped spec against this experiment's channel
    /// registry without running anything (see [`mod@crate::lint`]).
    /// Diagnostics carry spans when the experiment was
    /// [`parse`](Experiment::parse)d.
    #[must_use]
    pub fn lint_report(&self) -> crate::lint::LintReport {
        crate::lint::lint_spanned(&self.spec, &self.spans, &self.registry, false)
    }

    /// Runs the experiment, dispatching on the workload kind.
    ///
    /// A static lint pass runs first: specs with `Error`-severity
    /// diagnostics are rejected as [`Error::Lint`] before a single
    /// event is scheduled, unless [`with_lint`](Experiment::with_lint)
    /// turns it off.
    ///
    /// # Errors
    ///
    /// [`Error::Lint`] from the pre-flight, then construction,
    /// validation and simulation errors of the selected layer, unified
    /// into [`Error`].
    pub fn run(&self) -> Result<ExperimentResult, Error> {
        if self.lint == crate::lint::LintConfig::Deny {
            let report = self.lint_report();
            if report.has_errors() {
                return Err(Error::Lint(report));
            }
        }
        match &self.spec.workload {
            WorkloadSpec::Channel(c) => {
                let mut channel = self.registry.build(&c.channel.kind, &c.channel.params)?;
                let input = c.input.build()?;
                let output = apply_online(&mut *channel, &input);
                Ok(ExperimentResult::Channel(ChannelResult { output }))
            }
            WorkloadSpec::Digital(d) => self.run_digital(d),
            WorkloadSpec::Analog(a) => Ok(ExperimentResult::Analog(self.run_analog(a)?)),
            WorkloadSpec::Spf(s) => Ok(ExperimentResult::Spf(run_spf_spec(s)?)),
        }
    }

    /// Builds the circuit described by a digital spec's topology
    /// (useful for inspecting a spec without running it).
    ///
    /// # Errors
    ///
    /// Channel factory and circuit construction errors.
    pub fn build_circuit(&self, topology: &TopologySpec) -> Result<Circuit, Error> {
        match topology {
            TopologySpec::Netlist(n) => {
                let mut b = CircuitBuilder::new();
                let mut ids = std::collections::HashMap::new();
                for node in &n.nodes {
                    match node {
                        NodeSpec::Input { name } => {
                            ids.insert(name.clone(), b.input(name));
                        }
                        NodeSpec::Output { name } => {
                            ids.insert(name.clone(), b.output(name));
                        }
                        NodeSpec::Gate {
                            name,
                            kind,
                            arity,
                            init,
                        } => {
                            let kind = build_gate_kind(kind)?;
                            let init = if *init { Bit::One } else { Bit::Zero };
                            let id = match arity {
                                Some(a) => b.gate_with_arity(name, kind, init, *a as usize),
                                None => b.gate(name, kind, init),
                            };
                            ids.insert(name.clone(), id);
                        }
                    }
                }
                for edge in &n.edges {
                    let from = *ids.get(&edge.from).ok_or_else(|| {
                        SpecError::new(format!("edge references unknown node {:?}", edge.from))
                    })?;
                    let to = *ids.get(&edge.to).ok_or_else(|| {
                        SpecError::new(format!("edge references unknown node {:?}", edge.to))
                    })?;
                    match &edge.channel {
                        None => {
                            b.connect_direct(from, to, edge.pin as usize)?;
                        }
                        Some(c) => {
                            let channel = self.registry.build(&c.kind, &c.params)?;
                            b.connect(from, to, edge.pin as usize, channel)?;
                        }
                    }
                }
                Ok(b.build()?)
            }
            // generator topologies delegate to ivl_circuit::generate;
            // the registry builds one prototype channel (validating the
            // spec's kind and params) that every channel edge shares
            TopologySpec::InverterChain { stages, channel } => {
                let proto = self.registry.build(&channel.kind, &channel.params)?;
                Ok(generate::inverter_chain(*stages, proto)?)
            }
            TopologySpec::Grid2d {
                width,
                height,
                channel,
            } => {
                let proto = self.registry.build(&channel.kind, &channel.params)?;
                Ok(generate::grid(*width, *height, proto)?)
            }
            TopologySpec::RandomDag {
                nodes,
                seed,
                channel,
            } => {
                let proto = self.registry.build(&channel.kind, &channel.params)?;
                Ok(generate::random_dag(*nodes, seed.unwrap_or(0), proto)?)
            }
            TopologySpec::FatTree { depth, channel } => {
                let proto = self.registry.build(&channel.kind, &channel.params)?;
                Ok(generate::fat_tree(*depth, proto)?)
            }
        }
    }

    fn run_digital(&self, d: &DigitalSpec) -> Result<ExperimentResult, Error> {
        let circuit = self.build_circuit(&d.topology)?;
        let output_names: Vec<String> = circuit
            .output_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        // the signals each scenario materializes: output ports first
        // (the historical behaviour, so existing results stay
        // byte-identical), then watched non-port nodes in spec order
        let ports = output_names.len();
        let mut collect_names = output_names;
        for name in &d.outputs.watch {
            if !collect_names.iter().any(|n| n == name) {
                collect_names.push(name.clone());
            }
        }
        let mut runner =
            ScenarioRunner::new(circuit, d.horizon).with_failure_policy(d.on_failure.to_policy());
        if !d.outputs.watch.is_empty() {
            runner = runner.with_watch(&d.outputs.watch).map_err(Error::Sim)?;
        }
        if let Some(w) = d.workers {
            runner = runner.with_workers(w as usize);
        }
        if let Some(m) = d.max_events {
            runner = runner.with_max_events(usize::try_from(m).unwrap_or(usize::MAX));
        }
        if let Some(t) = self.timeout {
            runner = runner.with_scenario_timeout(t);
        }

        let total = d.scenarios.len();
        // one record per spec scenario: resumed or run, success or failure
        let mut records: Vec<Option<Result<DoneScenario, ScenarioFailure>>> = Vec::new();
        records.resize_with(total, || None);
        let mut retried: u64 = 0;

        // seed already-completed scenarios from a resume checkpoint
        if let Some(state) = &self.resume {
            if state.total != total {
                return Err(Error::Checkpoint(CheckpointError::new(format!(
                    "checkpoint covers {} scenarios but the spec has {total}",
                    state.total
                ))));
            }
            retried = state.retried;
            for (&index, done) in &state.done {
                records[index] = Some(Ok(done.clone()));
            }
        }

        // the sidecar embeds the spec once per write; render it once
        let spec_text = self.checkpoint.as_ref().map(|_| self.spec.to_string());
        let persist = |records: &[Option<Result<DoneScenario, ScenarioFailure>>], retried| {
            let (Some(path), Some(spec_text)) = (&self.checkpoint, &spec_text) else {
                return Ok(());
            };
            let done = records.iter().enumerate().filter_map(|(i, r)| match r {
                Some(Ok(done)) => Some((i, done)),
                _ => None,
            });
            checkpoint::write_atomic(path, &checkpoint::render(spec_text, total, retried, done))
        };

        let pending: Vec<usize> = (0..total).filter(|&i| records[i].is_none()).collect();
        // without a checkpoint sidecar there is nothing to persist
        // between batches, so run everything in one sweep
        let batch_size = if self.checkpoint.is_some() {
            self.checkpoint_every.max(1)
        } else {
            pending.len().max(1)
        };

        for batch in pending.chunks(batch_size) {
            let mut scenarios = Vec::with_capacity(batch.len());
            for &i in batch {
                let s = &d.scenarios[i];
                let mut sc = Scenario::new(s.label.clone());
                if let Some(seed) = s.seed {
                    sc = sc.with_seed(seed);
                }
                for (port, sig) in &s.inputs {
                    sc = sc.with_input(port.clone(), sig.build()?);
                }
                scenarios.push(sc);
            }
            // faults are planned in global scenario indices; the batch
            // (ascending) runs them at their positions within it
            if let Some(plan) = &self.fault {
                let mut local = FaultPlan::new();
                for (i, kind) in plan.faults() {
                    if let Ok(pos) = batch.binary_search(i) {
                        local = local.with_fault(pos, kind.clone());
                    }
                }
                runner = runner.with_fault_plan(local);
            }
            let sweep = match runner.try_run(&scenarios) {
                Ok(sweep) => sweep,
                Err(mut aborted) => {
                    // report the global index and the whole sweep's
                    // progress, and persist the completed batches so
                    // resume() can pick the sweep back up from here
                    // (the aborted batch itself re-runs)
                    aborted.failure.index = batch[aborted.failure.index];
                    aborted.completed +=
                        records.iter().filter(|r| matches!(r, Some(Ok(_)))).count();
                    persist(&records, retried)?;
                    return Err(Error::Sweep(aborted));
                }
            };
            retried += sweep.stats().retried;
            for (&index, (label, result)) in batch.iter().zip(sweep.into_results()) {
                let record = match result {
                    Ok(mut run) => {
                        let mut signals = Vec::with_capacity(collect_names.len());
                        for name in &collect_names {
                            signals.push((name.clone(), run.take_signal(name)?));
                        }
                        Ok(DoneScenario {
                            label,
                            processed: run.processed_events() as u64,
                            scheduled: run.scheduled_events() as u64,
                            signals,
                        })
                    }
                    Err(mut failure) => {
                        failure.index = index;
                        Err(failure)
                    }
                };
                records[index] = Some(record);
            }
            persist(&records, retried)?;
        }

        // assemble in scenario-index order; statistics are re-aggregated
        // here (rather than taken from per-batch sweeps) so a resumed or
        // batched run is bit-identical to a single uninterrupted sweep
        let mut outcomes = Vec::with_capacity(total);
        let mut failures: Vec<ScenarioFailure> = Vec::new();
        let mut quarantine: Vec<QuarantinedScenario> = Vec::new();
        let mut stats = SweepStats {
            scenarios: total,
            retried,
            ..SweepStats::default()
        };
        for record in records {
            match record.expect("every scenario was executed or resumed") {
                Ok(done) => {
                    stats.processed_events += done.processed;
                    stats.scheduled_events += done.scheduled;
                    // the statistics cover output ports only
                    for (_, signal) in done.signals.iter().take(ports) {
                        stats.absorb_signal(signal);
                    }
                    let vcd = if d.outputs.vcd {
                        let pairs: Vec<(&str, &Signal)> =
                            done.signals.iter().map(|(n, s)| (n.as_str(), s)).collect();
                        Some(write_vcd(&pairs, "1ps", 0.001).map_err(SpecError::new)?)
                    } else {
                        None
                    };
                    outcomes.push(DigitalOutcome {
                        label: done.label,
                        signals: if d.outputs.signals {
                            done.signals
                        } else {
                            Vec::new()
                        },
                        vcd,
                        error: None,
                    });
                }
                Err(failure) => {
                    stats.failures += 1;
                    quarantine.push(QuarantinedScenario {
                        index: failure.index,
                        label: failure.label.clone(),
                        spec: quarantine_spec(d, failure.index, &failure.cause),
                    });
                    outcomes.push(DigitalOutcome {
                        label: failure.label.clone(),
                        signals: Vec::new(),
                        vcd: None,
                        error: Some(failure.cause.clone()),
                    });
                    failures.push(failure);
                }
            }
        }
        let failed = failures.len();
        Ok(ExperimentResult::Digital(DigitalResult {
            outcomes,
            stats: d.outputs.stats.then_some(stats),
            completed: total - failed,
            failed,
            retried,
            failures,
            quarantine,
        }))
    }

    fn run_analog(&self, a: &AnalogSpec) -> Result<AnalogResult, Error> {
        let chain = build_chain(a.chain.stages, a.chain.width_scale)?;
        let vdd = build_supply(&a.supply)?;
        let cfg = build_sweep_config(&a.sweep);
        let mut runner = SweepRunner::new();
        if let Some(w) = a.workers {
            runner = runner.with_workers(w as usize);
        }
        match &a.task {
            AnalogTask::Samples { inverted } => Ok(AnalogResult::Samples(
                runner.sweep_samples(&chain, &vdd, &cfg, *inverted)?,
            )),
            AnalogTask::Characterize => {
                let (up, down) = runner.characterize(&chain, &vdd, &cfg)?;
                Ok(AnalogResult::Characterization { up, down })
            }
            AnalogTask::Deviations {
                reference,
                orientation,
            } => {
                let deviations = match reference {
                    ReferenceSpec::Exp { tau, t_p, v_th } => self.measure(
                        &runner,
                        &chain,
                        &vdd,
                        &cfg,
                        &ExpChannel::new(*tau, *t_p, *v_th)?,
                        *orientation,
                    )?,
                    ReferenceSpec::Rational { a, b, c } => self.measure(
                        &runner,
                        &chain,
                        &vdd,
                        &cfg,
                        &RationalPair::new(*a, *b, *c)?,
                        *orientation,
                    )?,
                    ReferenceSpec::SelfEmpirical => {
                        let nominal_chain = build_chain(a.chain.stages, 1.0)?;
                        let nominal_vdd = VddSource::dc(a.supply.nominal());
                        let (up, down) = runner.characterize(&nominal_chain, &nominal_vdd, &cfg)?;
                        let pair = to_empirical(&up, &down)?;
                        self.measure(&runner, &chain, &vdd, &cfg, &pair, *orientation)?
                    }
                    ReferenceSpec::Empirical { up, down } => {
                        let pair = to_empirical(
                            &raw_samples(up, Edge::Rising),
                            &raw_samples(down, Edge::Falling),
                        )?;
                        self.measure(&runner, &chain, &vdd, &cfg, &pair, *orientation)?
                    }
                };
                Ok(AnalogResult::Deviations(deviations))
            }
        }
    }

    fn measure<D: DelayPair + ?Sized>(
        &self,
        runner: &SweepRunner,
        chain: &InverterChain,
        vdd: &VddSource,
        cfg: &SweepConfig,
        reference: &D,
        orientation: Orientation,
    ) -> Result<Vec<DeviationSample>, Error> {
        let orientations: &[bool] = match orientation {
            Orientation::Both => &[false, true],
            Orientation::Normal => &[false],
            Orientation::Inverted => &[true],
        };
        let mut all = Vec::new();
        for &inverted in orientations {
            all.extend(runner.measure_deviations(chain, vdd, cfg, reference, inverted)?);
        }
        Ok(all)
    }
}

fn build_gate_kind(kind: &GateKindSpec) -> Result<GateKind, Error> {
    Ok(match kind {
        GateKindSpec::Buf => GateKind::Buf,
        GateKindSpec::Not => GateKind::Not,
        GateKindSpec::And => GateKind::And,
        GateKindSpec::Or => GateKind::Or,
        GateKindSpec::Nand => GateKind::Nand,
        GateKindSpec::Nor => GateKind::Nor,
        GateKindSpec::Xor => GateKind::Xor,
        GateKindSpec::Xnor => GateKind::Xnor,
        GateKindSpec::Table { inputs, rows } => {
            let bits: Vec<Bit> = rows
                .iter()
                .map(|b| if *b { Bit::One } else { Bit::Zero })
                .collect();
            let table = TruthTable::new(*inputs as usize, bits).ok_or_else(|| {
                SpecError::new(format!(
                    "truth table needs 2^{inputs} rows, got {}",
                    rows.len()
                ))
            })?;
            GateKind::Table(table)
        }
    })
}

fn build_chain(stages: u32, width_scale: f64) -> Result<InverterChain, Error> {
    let chain = InverterChain::umc90_like(stages as usize)?;
    if width_scale == 1.0 {
        Ok(chain)
    } else {
        Ok(chain.scaled_width(width_scale)?)
    }
}

fn build_supply(s: &crate::spec::SupplySpec) -> Result<VddSource, Error> {
    Ok(match s {
        crate::spec::SupplySpec::Dc { volts } => VddSource::dc(*volts),
        crate::spec::SupplySpec::Sine {
            nominal,
            amplitude,
            period,
            phase,
        } => VddSource::with_sine(*nominal, *amplitude, *period, *phase)?,
    })
}

fn build_sweep_config(s: &crate::spec::SweepSpec) -> SweepConfig {
    SweepConfig {
        widths: s.widths.clone(),
        settle: s.settle,
        tail: s.tail,
        dt: s.dt,
        slew: s.slew,
        stage: s.stage as usize,
        integrator: match s.integrator {
            IntegratorSpec::Rk4 => Integrator::Rk4,
            IntegratorSpec::Rk45 { rtol, atol } => {
                Integrator::Rk45(Rk45Options::with_tolerances(rtol, atol))
            }
        },
    }
}

fn run_spf_spec(s: &SpfSpec) -> Result<SpfResult, Error> {
    let bounds = EtaBounds::new(s.eta_minus, s.eta_plus)?;
    match s.delay {
        DelaySpec::Exp { tau, t_p, v_th } => {
            run_spf(ExpChannel::new(tau, t_p, v_th)?, bounds, &s.task)
        }
        DelaySpec::Rational { a, b, c } => run_spf(RationalPair::new(a, b, c)?, bounds, &s.task),
    }
}

fn run_spf<D: DelayPair + Clone + Send + 'static>(
    delay: D,
    bounds: EtaBounds,
    task: &SpfTask,
) -> Result<SpfResult, Error> {
    let circuit = SpfCircuit::dimensioned(delay, bounds)?;
    let theory = circuit.theory()?;
    let run = match task {
        SpfTask::Theory => None,
        SpfTask::Simulate {
            noise,
            input,
            horizon,
        } => {
            let input = input.build()?;
            Some(simulate_spf(&circuit, *noise, &input, *horizon)?)
        }
    };
    Ok(SpfResult { theory, run })
}

fn simulate_spf<D: DelayPair + Clone + Send + 'static>(
    circuit: &SpfCircuit<D>,
    noise: NoiseSpec,
    input: &Signal,
    horizon: f64,
) -> Result<SpfRun, Error> {
    Ok(match noise {
        NoiseSpec::Zero => circuit.simulate(ZeroNoise, input, horizon)?,
        NoiseSpec::WorstCase => circuit.simulate(WorstCaseAdversary, input, horizon)?,
        NoiseSpec::Extending => circuit.simulate(ExtendingAdversary, input, horizon)?,
        NoiseSpec::Uniform { seed } => circuit.simulate(UniformNoise::new(seed), input, horizon)?,
        NoiseSpec::Gaussian { sigma, seed } => {
            circuit.simulate(TruncatedGaussian::new(sigma, seed)?, input, horizon)?
        }
        NoiseSpec::Constant { shift } => circuit.simulate(ConstantShift(shift), input, horizon)?,
    })
}

/// Rebuilds [`DelaySample`]s from spec-embedded `(offset, delay)`
/// pairs ([`ReferenceSpec::Empirical`]); the edge tags what the samples
/// measured.
fn raw_samples(samples: &[(f64, f64)], edge: Edge) -> Vec<DelaySample> {
    samples
        .iter()
        .map(|&(offset, delay)| DelaySample {
            offset,
            delay,
            edge,
        })
        .collect()
}

/// Repackages scenario `index` of sweep `d` as a standalone replayable
/// spec: same topology, inputs and seed; `workers = 1`; `on_failure =
/// abort`; and — for budget exhaustion — the exceeded budget.
fn quarantine_spec(d: &DigitalSpec, index: usize, cause: &SimError) -> String {
    let mut q = DigitalSpec::new(d.topology.clone(), d.horizon)
        .with_scenario(d.scenarios[index].clone())
        .with_workers(1)
        .with_on_failure(FailurePolicySpec::Abort);
    q.max_events = match cause {
        SimError::MaxEventsExceeded { budget, .. } => {
            Some(u64::try_from(*budget).unwrap_or(u64::MAX))
        }
        _ => d.max_events,
    };
    q.outputs = d.outputs.clone();
    ExperimentSpec::digital(q).to_string()
}

// ======================================================================
// Results
// ======================================================================

/// The typed result of one experiment, one variant per workload kind.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ExperimentResult {
    /// Result of a channel application.
    Channel(ChannelResult),
    /// Result of a digital sweep.
    Digital(DigitalResult),
    /// Result of an analog experiment.
    Analog(AnalogResult),
    /// Result of an SPF experiment.
    Spf(SpfResult),
}

impl ExperimentResult {
    /// The channel result, if this was a channel workload.
    #[must_use]
    pub fn channel(&self) -> Option<&ChannelResult> {
        match self {
            ExperimentResult::Channel(r) => Some(r),
            _ => None,
        }
    }

    /// The digital result, if this was a digital workload.
    #[must_use]
    pub fn digital(&self) -> Option<&DigitalResult> {
        match self {
            ExperimentResult::Digital(r) => Some(r),
            _ => None,
        }
    }

    /// The analog result, if this was an analog workload.
    #[must_use]
    pub fn analog(&self) -> Option<&AnalogResult> {
        match self {
            ExperimentResult::Analog(r) => Some(r),
            _ => None,
        }
    }

    /// The SPF result, if this was an SPF workload.
    #[must_use]
    pub fn spf(&self) -> Option<&SpfResult> {
        match self {
            ExperimentResult::Spf(r) => Some(r),
            _ => None,
        }
    }
}

/// The output signal of a channel application.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelResult {
    /// The channel's output signal.
    pub output: Signal,
}

/// The outcome of a digital sweep: per-scenario outcomes in input
/// order, plus aggregate statistics when selected.
#[derive(Debug, Clone)]
pub struct DigitalResult {
    /// Per-scenario outcomes, in spec order.
    pub outcomes: Vec<DigitalOutcome>,
    /// Aggregate sweep statistics (when selected).
    pub stats: Option<SweepStats>,
    /// Scenarios that completed successfully (including resumed ones).
    pub completed: usize,
    /// Scenarios that failed after the failure policy was exhausted.
    pub failed: usize,
    /// Retry attempts spent across the whole sweep.
    pub retried: u64,
    /// Typed descriptions of every failed scenario, in index order.
    pub failures: Vec<ScenarioFailure>,
    /// A standalone replayable spec per failed scenario, in index order.
    pub quarantine: Vec<QuarantinedScenario>,
}

impl DigitalResult {
    /// The outcome labelled `label`, if any.
    #[must_use]
    pub fn outcome(&self, label: &str) -> Option<&DigitalOutcome> {
        self.outcomes.iter().find(|o| o.label == label)
    }
}

/// A failed scenario repackaged as a standalone `faithful/1` spec.
///
/// The spec keeps the sweep's topology and the failing scenario's
/// inputs and seed, pins `workers = 1` and `on_failure = abort`, and —
/// for budget exhaustion — carries the exceeded `max_events` budget, so
/// running it reproduces the failure in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedScenario {
    /// The scenario's index within the sweep.
    pub index: usize,
    /// The scenario's label.
    pub label: String,
    /// The standalone replayable spec text.
    pub spec: String,
}

/// One scenario's outcome within a digital sweep.
#[derive(Debug, Clone)]
pub struct DigitalOutcome {
    /// The scenario's label.
    pub label: String,
    /// Output-port signals (when selected and the run succeeded).
    pub signals: Vec<(String, Signal)>,
    /// VCD dump of the output ports (when selected).
    pub vcd: Option<String>,
    /// The simulation error, if the scenario failed.
    pub error: Option<SimError>,
}

impl DigitalOutcome {
    /// The signal recorded on output port `name`, if present.
    #[must_use]
    pub fn signal(&self, name: &str) -> Option<&Signal> {
        self.signals.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// `true` if the scenario simulated successfully.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// The output of an analog experiment, shaped by the task.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogResult {
    /// `(T, δ)` samples of one orientation.
    Samples(Vec<DelaySample>),
    /// Full characterization, split by output edge.
    Characterization {
        /// `δ↑` samples, sorted by offset.
        up: Vec<DelaySample>,
        /// `δ↓` samples, sorted by offset.
        down: Vec<DelaySample>,
    },
    /// Deviations against the reference model.
    Deviations(Vec<DeviationSample>),
}

impl AnalogResult {
    /// The samples, if this was a `Samples` task.
    #[must_use]
    pub fn samples(&self) -> Option<&[DelaySample]> {
        match self {
            AnalogResult::Samples(s) => Some(s),
            _ => None,
        }
    }

    /// The `(δ↑, δ↓)` sample sets, if this was a characterization.
    #[must_use]
    pub fn characterization(&self) -> Option<(&[DelaySample], &[DelaySample])> {
        match self {
            AnalogResult::Characterization { up, down } => Some((up, down)),
            _ => None,
        }
    }

    /// The deviations, if this was a deviation task.
    #[must_use]
    pub fn deviations(&self) -> Option<&[DeviationSample]> {
        match self {
            AnalogResult::Deviations(d) => Some(d),
            _ => None,
        }
    }
}

/// The output of an SPF experiment: the theory bundle, plus the circuit
/// run when simulation was requested.
#[derive(Debug, Clone)]
pub struct SpfResult {
    /// The Section IV theory quantities.
    pub theory: SpfTheory,
    /// The Fig. 5 circuit run (for [`SpfTask::Simulate`]).
    pub run: Option<SpfRun>,
}
