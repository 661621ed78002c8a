//! `faithful-lint`: static diagnostics over experiment specs.
//!
//! The involution model's faithfulness guarantees only hold for
//! well-formed inputs — channels must satisfy constraint (C), netlists
//! must not contain undelayed combinational cycles, and specs must name
//! real channel kinds with physical parameters. This module checks all
//! of that *statically*: every pass is pure and runs without scheduling
//! a single simulation event.
//!
//! Four passes produce [`Diagnostic`]s with stable codes:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `IVL001` | error | combinational cycle with zero minimum delay on every edge |
//! | `IVL002` | info | delayed feedback loop (legal, but worth knowing about) |
//! | `IVL003` | warning | dangling node (undriven gate, or a node that drives nothing) |
//! | `IVL004` | error | output port no gate drives |
//! | `IVL005` | warning | node unreachable from any input |
//! | `IVL010` | error | channel parameters rejected by the factory |
//! | `IVL011` | error | constraint (C) violated for an `eta` channel or SPF spec |
//! | `IVL012` | error | delay pair has no positive `δ_min` fixed point |
//! | `IVL013` | warning | involution / monotonicity / concavity probing violation |
//! | `IVL014` | — | retired (no calendar queue); never reused |
//! | `IVL015` | — | retired (no calendar queue); never reused |
//! | `IVL020` | warning | a scenario's stimulus provably cancels inside a channel |
//! | `IVL021` | info | SPF input pulse provably filtered (Lemma 4 bound) |
//! | `IVL022` | info | pulse-width propagation truncated (probe budget) |
//! | `IVL030` | error | unknown channel kind |
//! | `IVL031` | error | duplicate node name |
//! | `IVL032` | error | edge references an unknown node |
//! | `IVL033` | error | scenario drives an unknown input port |
//! | `IVL034` | error | empty sweep axis / sample set |
//! | `IVL035` | error | non-finite or out-of-range numeric field |
//! | `IVL036` | error | signal spec that cannot build a valid signal |
//! | `IVL037` | warning | `workers = 0` (clamped to 1 at run time) |
//! | `IVL038` | warning | duplicate scenario label |
//! | `IVL039` | error | malformed truth table (rows ≠ 2^inputs) |
//! | `IVL040` | warning | `max_events` below the provable minimum event count |
//! | `IVL041` | warning | `retry(n)` policy on a fully deterministic workload |
//! | `IVL050` | info | `workers = n` is overridden by the experiment service's shared pool (service context only) |
//! | `IVL060` | error | degenerate generator parameters (zero-size grid or DAG, fat tree beyond the depth cap) |
//! | `IVL061` | warning | `random_dag` without an explicit seed (netlist not reproducible from the spec) |
//! | `IVL062` | error | watched node name not present in the (generated) topology |
//!
//! A generated topology is never built: lint reads it through
//! [`Family`], the generators' own numbering and naming, so its cost
//! does not grow with the generator's size, and every node a diagnostic
//! names exists in the generated netlist.
//!
//! Diagnostics on a parsed spec ([`lint_text`],
//! [`Experiment::parse`](crate::Experiment::parse)) carry the line and
//! column the parser recorded for the part they point at.
//!
//! [`Experiment::run`](crate::Experiment::run) runs the linter as a
//! pre-flight: `Error`-severity diagnostics deny the run by default,
//! and [`LintConfig::Off`] skips the pass.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use ivl_circuit::generate::{Family, FAT_TREE_MAX_DEPTH};
use ivl_core::channel::{apply_online, SimChannel};
use ivl_core::delay::{check_involution, delta_min_of, DelayPair};
use ivl_core::factory::{delay_pair_from, ChannelParams, ChannelRegistry, DelayFamily, ParamValue};
use ivl_core::noise::EtaBounds;
use ivl_core::Signal;

use crate::error::{Span, SpecError};
use crate::spec::{
    AnalogSpec, ChannelSpec, DelaySpec, DigitalSpec, ExperimentSpec, FailurePolicySpec,
    GateKindSpec, NodeSpec, ReferenceSpec, ScenarioSpec, SignalSpec, SpecSpans, SpfSpec, SpfTask,
    TopologySpec, WorkloadSpec,
};
use crate::value::Walk;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing.
    Info,
    /// Suspicious: the experiment runs, but probably not as intended.
    Warning,
    /// Broken: the experiment cannot produce a meaningful result.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of the linter.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`IVL001`…); see the module table.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Where in the spec text it points (for parsed specs).
    pub span: Option<Span>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " ({span})")?;
        }
        Ok(())
    }
}

/// Everything the linter found on one spec, in pass order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The findings, in the order the passes produced them.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` if nothing at all was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if any finding has [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

/// What [`Experiment::run`](crate::Experiment::run) does with lint
/// findings before dispatching the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintConfig {
    /// Skip the pre-flight entirely.
    Off,
    /// Refuse to run a spec with `Error`-severity findings (the
    /// default).
    #[default]
    Deny,
}

/// Lints a (typically programmatically built) spec.
///
/// Diagnostics carry no spans; parse via [`lint_text`] to get locations.
#[must_use]
pub fn lint(spec: &ExperimentSpec, registry: &ChannelRegistry) -> LintReport {
    lint_spanned(spec, &SpecSpans::default(), registry, false)
}

/// Parses a spec document and lints it, attaching line/column spans to
/// the diagnostics. The spans are the ones the parse recorded as it read
/// each field, so they point at the text exactly as written.
///
/// # Errors
///
/// [`SpecError`] when the text does not parse as a spec at all (lint
/// needs a structurally valid document to work on).
pub fn lint_text(text: &str, registry: &ChannelRegistry) -> Result<LintReport, SpecError> {
    lint_parsed(text, registry, false)
}

/// Parses a spec document and lints it *as the experiment service
/// would before running it*, attaching line/column spans.
///
/// This is the same parse and pass set as [`lint_text`], plus
/// service-context diagnostics for fields the daemon overrides
/// server-side — today `IVL050` (info) when a spec requests
/// `workers = n`, which `faithful-serve` ignores in favor of its own
/// shared pool sizing. Results are unaffected (sweeps are bit-identical
/// across worker counts), so the finding is informational, but clients
/// should not be silently surprised that the knob did nothing. The
/// daemon itself lints the spec it parsed at admission, with that
/// parse's spans, rather than parsing the text again.
///
/// # Errors
///
/// [`SpecError`] when the text does not parse as a spec at all.
pub fn lint_text_for_service(
    text: &str,
    registry: &ChannelRegistry,
) -> Result<LintReport, SpecError> {
    lint_parsed(text, registry, true)
}

fn lint_parsed(
    text: &str,
    registry: &ChannelRegistry,
    service: bool,
) -> Result<LintReport, SpecError> {
    let (spec, spans) = ExperimentSpec::parse_spanned(text)?;
    Ok(lint_spanned(&spec, &spans, registry, service))
}

/// Lints `spec` with the spans its parse recorded (the empty table for a
/// built spec); `service` adds the service-context diagnostics
/// (`IVL050`).
pub(crate) fn lint_spanned(
    spec: &ExperimentSpec,
    spans: &SpecSpans,
    registry: &ChannelRegistry,
    service: bool,
) -> LintReport {
    let linter = Linter {
        registry,
        spans,
        diagnostics: Vec::new(),
        channels: Vec::new(),
        channel_ids: HashMap::new(),
        probe_cache: HashMap::new(),
        probes_left: PROBE_BUDGET,
        walks: 0,
        truncated: false,
        service,
    };
    linter.run(spec)
}

// ======================================================================
// The linter
// ======================================================================

/// Pulse-response probes per lint run; beyond this the hazard pass
/// truncates (and says so with `IVL022`) rather than stall a pre-flight.
const PROBE_BUDGET: usize = 4096;

/// Numerical tolerance for the involution probing pass (`IVL013`).
const INVOLUTION_TOL: f64 = 1e-6;

/// Output widths at or below this count as a cancelled pulse.
const DEAD_WIDTH: f64 = 1e-12;

/// Cached per-channel facts from the channel-verification pass.
#[derive(Clone, Copy, Default)]
struct ChannelFacts {
    builds: bool,
    /// `true` when a probed single transition was delivered with zero
    /// delay (the edge can sustain a zero-delay cycle).
    zero_delay: bool,
}

/// One distinct channel spec of the linted workload. Every pass refers
/// to it by its index in [`Linter::channels`], so the spec is rendered,
/// verified and built for probing once, however many edges carry it.
struct InternedChannel<'s> {
    spec: &'s ChannelSpec,
    /// Where its first occurrence is written.
    span: Option<Span>,
    /// Set once the verification pass has run on this channel.
    facts: Option<ChannelFacts>,
    /// The pristine probe channel, built on the first probe (`Some(None)`
    /// when it does not build). Probes run on clones of it: `reset()`
    /// does not rewind noise streams, so a probed channel is spent.
    probe: Option<Option<Box<dyn SimChannel>>>,
}

struct Linter<'a, 's> {
    registry: &'a ChannelRegistry,
    spans: &'a SpecSpans,
    diagnostics: Vec<Diagnostic>,
    channels: Vec<InternedChannel<'s>>,
    /// Canonical key bytes → index into `channels`.
    channel_ids: HashMap<Vec<u8>, usize>,
    /// `(channel index, width bits)` → (surviving output width, the
    /// last hazard-pass walk that fed the width).
    probe_cache: HashMap<(usize, u64), (Option<f64>, usize)>,
    probes_left: usize,
    /// Hazard-pass walks started so far; the current one's number.
    walks: usize,
    truncated: bool,
    /// Lint for the experiment service: adds diagnostics about fields
    /// the daemon overrides server-side (`IVL050`).
    service: bool,
}

impl<'a, 's> Linter<'a, 's> {
    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: Option<Span>,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            message,
            span,
        });
    }

    fn run(mut self, spec: &'s ExperimentSpec) -> LintReport {
        match &spec.workload {
            WorkloadSpec::Channel(c) => {
                let ci = self.intern(&c.channel, self.spans.channel);
                self.check_channel(ci);
                self.check_signal(&c.input, "input", self.spans.workload);
            }
            WorkloadSpec::Digital(d) => self.lint_digital(d),
            WorkloadSpec::Analog(a) => self.lint_analog(a),
            WorkloadSpec::Spf(s) => self.lint_spf(s),
        }
        if self.truncated {
            let done = PROBE_BUDGET - self.probes_left;
            self.push(
                "IVL022",
                Severity::Info,
                None,
                format!("pulse-width propagation truncated after {done} channel probes"),
            );
        }
        LintReport {
            diagnostics: self.diagnostics,
        }
    }

    // ------------------------------------------------------------------
    // Pass 4 helpers shared by all workloads
    // ------------------------------------------------------------------

    fn check_signal(&mut self, s: &SignalSpec, what: &str, span: Option<Span>) {
        if let Err(e) = s.build() {
            self.push(
                "IVL036",
                Severity::Error,
                span,
                format!("{what}: signal spec builds no valid signal: {e}"),
            );
        }
    }

    fn check_finite(&mut self, value: f64, what: &str, span: Option<Span>) {
        if !value.is_finite() {
            self.push(
                "IVL035",
                Severity::Error,
                span,
                format!("{what} must be finite, got {value}"),
            );
        }
    }

    fn check_workers(&mut self, workers: Option<u32>) {
        if workers == Some(0) {
            self.push(
                "IVL037",
                Severity::Warning,
                self.spans.workers,
                "workers = 0 is clamped to 1 at run time".to_owned(),
            );
        }
        if let (true, Some(n)) = (self.service, workers) {
            self.push(
                "IVL050",
                Severity::Info,
                self.spans.workers,
                format!(
                    "workers = {n} is ignored by the experiment service, which schedules \
                     jobs onto its own shared pool (results are unaffected: sweeps are \
                     bit-identical across worker counts)"
                ),
            );
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: channel-parameter verification
    // ------------------------------------------------------------------

    /// The index of `c` in the channel table, adding it (written at
    /// `span`) on first sight. Specs are told apart by their key bytes,
    /// written by walking the spec (equal exactly when their renderings
    /// are), so equal specs written out separately (on different edges)
    /// share one entry, which points at the first of them.
    fn intern(&mut self, c: &'s ChannelSpec, span: Option<Span>) -> usize {
        let key = c.key_bytes();
        if let Some(&ci) = self.channel_ids.get(&key) {
            return ci;
        }
        let ci = self.channels.len();
        self.channels.push(InternedChannel {
            spec: c,
            span,
            facts: None,
            probe: None,
        });
        self.channel_ids.insert(key, ci);
        ci
    }

    /// Verifies one interned channel (once; later calls read the memo)
    /// and returns the cached facts about it.
    fn check_channel(&mut self, ci: usize) -> ChannelFacts {
        if let Some(facts) = self.channels[ci].facts {
            return facts;
        }
        let InternedChannel { spec, span, .. } = self.channels[ci];
        let facts = self.verify_channel(spec, span);
        self.channels[ci].facts = Some(facts);
        facts
    }

    fn verify_channel(&mut self, c: &ChannelSpec, span: Option<Span>) -> ChannelFacts {
        let mut facts = ChannelFacts::default();
        if !self.registry.contains(&c.kind) {
            self.push(
                "IVL030",
                Severity::Error,
                span,
                format!(
                    "unknown channel kind {:?} (registered: {})",
                    c.kind,
                    self.registry.kinds().join(", ")
                ),
            );
            return facts;
        }
        let channel = match self.registry.build(&c.kind, &c.params) {
            Ok(ch) => ch,
            Err(e) => {
                self.push(
                    "IVL010",
                    Severity::Error,
                    span,
                    format!("channel {:?}: parameters rejected: {e}", c.kind),
                );
                return facts;
            }
        };
        facts.builds = true;

        // probe the delivery delay of an isolated wide pulse: a zero (or
        // negative) first delay marks a zero-delay edge for pass 1
        let mut channel = channel;
        let probe = Signal::pulse(0.0, 1e6).expect("static probe signal");
        let out = apply_online(&mut channel, &probe);
        if let Some(first) = out.transitions().first() {
            facts.zero_delay = first.time <= DEAD_WIDTH;
        }

        // deep involution checks when the parameters describe one of the
        // built-in delay families (custom factories shadowing these
        // kinds get probing, not theory).
        if (c.kind == "involution" || c.kind == "eta") && delay_pair_from(&c.params).is_ok() {
            let eta = (c.kind == "eta").then(|| {
                (
                    c.params.num_or("minus", 0.0).unwrap_or(0.0),
                    c.params.num_or("plus", 0.0).unwrap_or(0.0),
                )
            });
            match delay_pair_from(&c.params).expect("checked above") {
                DelayFamily::Exp(d) => self.verify_pair(&d, eta, &c.kind, span),
                DelayFamily::Rational(d) => self.verify_pair(&d, eta, &c.kind, span),
                _ => {}
            }
        }
        facts
    }

    /// Involution-theory checks on one delay pair: `δ_min` existence
    /// (IVL012), grid probing (IVL013) and constraint (C) when η-bounds
    /// are present (IVL011).
    fn verify_pair<D: DelayPair>(
        &mut self,
        pair: &D,
        eta: Option<(f64, f64)>,
        kind: &str,
        span: Option<Span>,
    ) {
        let delta_min = match delta_min_of(pair) {
            Ok(d) => d,
            Err(e) => {
                self.push(
                    "IVL012",
                    Severity::Error,
                    span,
                    format!("channel {kind:?}: no positive delta_min fixed point: {e}"),
                );
                return;
            }
        };
        let hi = 5.0 * (pair.delta_up_inf() + pair.delta_down_inf()) + 1.0;
        let report = check_involution(pair, -0.9 * delta_min, hi, 96);
        if !report.is_valid(INVOLUTION_TOL) {
            self.push(
                "IVL013",
                Severity::Warning,
                span,
                format!(
                    "channel {kind:?}: delay pair fails involution probing \
                     (roundtrip {:.2e}, monotonicity {:.2e}, concavity {:.2e})",
                    report.max_roundtrip_error,
                    report.max_monotonicity_violation,
                    report.max_concavity_violation
                ),
            );
        }
        if let Some((minus, plus)) = eta {
            if let Ok(bounds) = EtaBounds::new(minus, plus) {
                if !bounds.satisfies_constraint_c(pair) {
                    let slack = pair.delta_down(-plus) - delta_min - (plus + minus);
                    self.push(
                        "IVL011",
                        Severity::Error,
                        span,
                        format!(
                            "channel {kind:?}: constraint (C) violated: \
                             eta+ + eta- = {} but delta_down(-eta+) - delta_min = {} \
                             (slack {slack:.6})",
                            plus + minus,
                            pair.delta_down(-plus) - delta_min
                        ),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Digital workload: passes 1, 3 and 4
    // ------------------------------------------------------------------

    fn lint_digital(&mut self, d: &'s DigitalSpec) {
        self.check_finite(d.horizon, "digital: field \"horizon\"", self.spans.horizon);
        if d.horizon.is_finite() && d.horizon < 0.0 {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.horizon,
                format!("digital: field \"horizon\" must be >= 0, got {}", d.horizon),
            );
        }
        self.check_workers(d.workers);

        let graph = self.extract_graph(&d.topology);
        for ci in 0..self.channels.len() {
            self.check_channel(ci);
        }
        let scc = graph.sccs();
        // generators are acyclic and wire every gate (IVL060 when gateless)
        if graph.family.is_none() {
            self.graph_pass(&graph, &scc);
        }

        let mut labels: HashSet<&str> = HashSet::new();
        let inputs = graph.inputs();
        for (i, s) in d.scenarios.iter().enumerate() {
            let span = nth(&self.spans.scenarios, i);
            if !labels.insert(&s.label) {
                self.push(
                    "IVL038",
                    Severity::Warning,
                    span,
                    format!("duplicate scenario label {:?}", s.label),
                );
            }
            for (port, sig) in &s.inputs {
                if !inputs.contains_key(port.as_str()) {
                    self.push(
                        "IVL033",
                        Severity::Error,
                        span,
                        format!(
                            "scenario {:?} drives unknown input port {:?}",
                            s.label, port
                        ),
                    );
                }
                self.check_signal(sig, &format!("scenario {:?}, port {port:?}", s.label), span);
            }
        }

        // IVL062: a watched node must exist in the topology
        for (i, name) in d.outputs.watch.iter().enumerate() {
            if !graph.has_node(name) {
                let span = nth(&self.spans.watch, i).or(self.spans.topology);
                self.push(
                    "IVL062",
                    Severity::Error,
                    span,
                    format!("watched node {name:?} does not exist in the topology"),
                );
            }
        }

        self.hazard_pass(&graph, &scc, &inputs, &d.scenarios);
        self.budget_pass(&graph, d);
        self.retry_pass(d);
    }

    /// `IVL040`: per scenario, every input transition fed into a direct
    /// (channel-less) outgoing edge is scheduled verbatim, so the
    /// scheduled-event count is provably at least
    /// Σ_ports (transitions × direct out-edges); a generator's input
    /// fanout comes from [`Family::input_fanout`] (every leaf of a fat
    /// tree, one gate otherwise). If that floor already
    /// exceeds `max_events`, the scenario is guaranteed to die with
    /// `MaxEventsExceeded` before a single gate fires.
    fn budget_pass(&mut self, g: &Graph, d: &DigitalSpec) {
        let Some(budget) = d.max_events else {
            return;
        };
        // a stand-in's one direct wire out of `a` stands for all of the
        // generator's (every leaf of a fat tree)
        let fanout = g.family.map_or(1, Family::input_fanout);
        let mut direct_out: HashMap<&str, u64> = HashMap::new();
        for e in &g.edges {
            if e.channel.is_none() && g.nodes[e.from].kind == GKind::Input {
                *direct_out.entry(g.nodes[e.from].name.as_str()).or_insert(0) += fanout;
            }
        }
        if direct_out.is_empty() {
            return;
        }
        for (i, s) in d.scenarios.iter().enumerate() {
            let mut floor: u64 = 0;
            for (port, sig) in &s.inputs {
                let Some(&fanout) = direct_out.get(port.as_str()) else {
                    continue;
                };
                let Ok(signal) = sig.build() else {
                    continue; // IVL036 already reported
                };
                floor += signal.transitions().len() as u64 * fanout;
            }
            if floor > budget {
                let span = self.spans.max_events.or(nth(&self.spans.scenarios, i));
                self.push(
                    "IVL040",
                    Severity::Warning,
                    span,
                    format!(
                        "scenario {:?} schedules at least {floor} events from its input \
                         stimuli alone, which already exceeds max_events = {budget}",
                        s.label
                    ),
                );
            }
        }
    }

    /// `IVL041`: a `retry(n)` failure policy re-runs a failed scenario
    /// with the same seed, so when every channel in the topology is
    /// deterministic the retries can only reproduce the failure.
    /// Channels of unknown (custom) kinds are conservatively assumed
    /// stochastic, so they never trigger this warning.
    fn retry_pass(&mut self, d: &DigitalSpec) {
        let FailurePolicySpec::Retry { attempts } = d.on_failure else {
            return;
        };
        let deterministic = self.channels.iter().all(|c| !c.spec.is_stochastic());
        if deterministic {
            self.push(
                "IVL041",
                Severity::Warning,
                self.spans.on_failure,
                format!(
                    "on_failure = retry({attempts}) with a fully deterministic workload: \
                     retries re-run the same seed and can only reproduce the failure"
                ),
            );
        }
    }

    // ---- pass 1: graph analysis ----

    fn extract_graph(&mut self, topology: &'s TopologySpec) -> Graph {
        let mut g = Graph::default();
        match topology {
            TopologySpec::Netlist(n) => {
                let mut by_name: HashMap<&str, usize> = HashMap::new();
                for (i, node) in n.nodes.iter().enumerate() {
                    let span = nth(&self.spans.nodes, i);
                    let (name, kind) = match node {
                        NodeSpec::Input { name } => (name, GKind::Input),
                        NodeSpec::Output { name } => (name, GKind::Output),
                        NodeSpec::Gate { name, kind, .. } => {
                            self.check_gate_kind(kind, span);
                            (name, GKind::Gate)
                        }
                    };
                    if by_name.contains_key(name.as_str()) {
                        self.push(
                            "IVL031",
                            Severity::Error,
                            span,
                            format!("duplicate node name {name:?}"),
                        );
                        continue;
                    }
                    by_name.insert(name.as_str(), g.nodes.len());
                    g.nodes.push(GNode {
                        name: name.clone(),
                        kind,
                        span,
                    });
                }
                for (i, e) in n.edges.iter().enumerate() {
                    let span = nth(&self.spans.edges, i);
                    // interned in document order, dangling edges included,
                    // so a shared channel points at its first occurrence
                    let channel_span = nth(&self.spans.edge_channels, i);
                    let channel = e.channel.as_ref().map(|c| self.intern(c, channel_span));
                    let from = by_name.get(e.from.as_str()).copied();
                    let to = by_name.get(e.to.as_str()).copied();
                    for (end, node) in [("from", &e.from), ("to", &e.to)] {
                        if !by_name.contains_key(node.as_str()) {
                            self.push(
                                "IVL032",
                                Severity::Error,
                                span,
                                format!("edge {end} references unknown node {node:?}"),
                            );
                        }
                    }
                    if let (Some(from), Some(to)) = (from, to) {
                        g.edge(from, to, channel, 1, span);
                    }
                }
            }
            _ => self.stand_in(&mut g, topology),
        }
        g.index();
        g
    }

    /// Lint's model of a generated netlist, whatever its size: the ports
    /// and gate 0, numbered and named as [`Family`] does, and wired as the
    /// generator wires them. `a` drives gate 0 directly, and gate 0 drives
    /// `y` through the channel, which on a chain stands for its `stages`
    /// channels in series. A zero-stage chain is `a → y` through one
    /// channel; a generator without gates (IVL060) leaves the ports unwired.
    fn stand_in(&mut self, g: &mut Graph, topology: &'s TopologySpec) {
        let (family, channel) = generated(topology).expect("a generated topology");
        let degenerate = match *topology {
            TopologySpec::Grid2d { width, height, .. } if width == 0 || height == 0 => {
                Some(format!(
                    "grid generator has zero size ({width} × {height}): \
                     no gate drives the output port"
                ))
            }
            TopologySpec::RandomDag { nodes: 0, .. } => Some(
                "random_dag generator has zero gates: no gate drives the output port".to_owned(),
            ),
            TopologySpec::FatTree { depth, .. } if depth > FAT_TREE_MAX_DEPTH => Some(format!(
                "fat_tree depth {depth} exceeds the cap of {FAT_TREE_MAX_DEPTH} \
                 (2^{FAT_TREE_MAX_DEPTH} leaves ≈ 33M gates)"
            )),
            _ => None,
        };
        let wired = degenerate.is_none();
        if let Some(message) = degenerate {
            self.push("IVL060", Severity::Error, self.spans.topology, message);
        }
        if let TopologySpec::RandomDag { seed: None, .. } = topology {
            self.push(
                "IVL061",
                Severity::Warning,
                self.spans.topology,
                "random_dag without a seed defaults to 0 — state the seed so the \
                 netlist is reproducible from the spec alone"
                    .to_owned(),
            );
        }
        let ci = self.intern(channel, self.spans.channel);
        let span = self.channels[ci].span;
        // node ids are the family's: `a` = 0, `y` = 1, gate 0 = 2
        let (gate, repeat) = match family {
            Family::InverterChain { stages } => (stages > 0, stages),
            _ => (wired, 1),
        };
        let kinds = [GKind::Input, GKind::Output, GKind::Gate];
        for (id, kind) in kinds.into_iter().take(2 + usize::from(gate)).enumerate() {
            let name = family.node_name(id).into_owned();
            g.nodes.push(GNode {
                name,
                kind,
                span: None,
            });
        }
        g.family = Some(family);
        if gate {
            g.edge(0, 2, None, 1, span);
            g.edge(2, 1, Some(ci), repeat, span);
        } else if wired {
            g.edge(0, 1, Some(ci), 1, span);
        }
    }

    fn check_gate_kind(&mut self, kind: &GateKindSpec, span: Option<Span>) {
        if let GateKindSpec::Table { inputs, rows } = kind {
            let expected = 1usize << (*inputs).min(24);
            if *inputs > 24 || rows.len() != expected {
                self.push(
                    "IVL039",
                    Severity::Error,
                    span,
                    format!(
                        "truth table with {inputs} input(s) needs {expected} rows, got {}",
                        rows.len()
                    ),
                );
            }
        }
    }

    fn graph_pass(&mut self, g: &Graph, scc: &Sccs) {
        // dangling / undriven / unreachable nodes
        for (i, node) in g.nodes.iter().enumerate() {
            let (ins, outs) = (g.in_degree[i], g.out_edges[i].len());
            match node.kind {
                GKind::Input if outs == 0 => self.push(
                    "IVL003",
                    Severity::Warning,
                    node.span,
                    format!("input {:?} drives nothing", node.name),
                ),
                GKind::Output if ins == 0 => self.push(
                    "IVL004",
                    Severity::Error,
                    node.span,
                    format!("output port {:?} is driven by no gate", node.name),
                ),
                GKind::Gate if ins == 0 => self.push(
                    "IVL003",
                    Severity::Warning,
                    node.span,
                    format!(
                        "gate {:?} has no driver (its inputs never change)",
                        node.name
                    ),
                ),
                GKind::Gate if outs == 0 => self.push(
                    "IVL003",
                    Severity::Warning,
                    node.span,
                    format!("gate {:?} drives nothing", node.name),
                ),
                _ => {}
            }
        }
        let reachable = g.reachable_from_inputs();
        for (i, node) in g.nodes.iter().enumerate() {
            if node.kind != GKind::Input && !reachable[i] && g.in_degree[i] > 0 {
                self.push(
                    "IVL005",
                    Severity::Warning,
                    node.span,
                    format!("node {:?} is unreachable from any input", node.name),
                );
            }
        }

        // combinational cycles: an SCC whose zero-minimum-delay edges
        // alone still close a cycle deadlocks the simulator (IVL001);
        // feedback through genuinely delayed edges is legal (IVL002).
        let undelayed = self.undelayed_cycles(g, scc);
        for (id, component) in scc.components.iter().enumerate() {
            if !scc.on_cycle[component[0]] {
                continue;
            }
            let names: Vec<&str> = component
                .iter()
                .map(|&i| g.nodes[i].name.as_str())
                .collect();
            let span = component.iter().find_map(|&i| g.nodes[i].span);
            if undelayed[id] {
                self.push(
                    "IVL001",
                    Severity::Error,
                    span,
                    format!(
                        "combinational cycle with zero minimum delay through {{{}}} \
                         (every edge delivers instantaneously; the simulation cannot make progress)",
                        names.join(", ")
                    ),
                );
            } else {
                self.push(
                    "IVL002",
                    Severity::Info,
                    span,
                    format!("delayed feedback loop through {{{}}}", names.join(", ")),
                );
            }
        }
    }

    /// Per component: `true` if its zero-delay internal edges alone close
    /// a cycle. One Kahn pass over the zero-delay edges inside cyclic
    /// components; those edges never leave their component, so a member
    /// left with in-degree > 0 sits on or behind a cycle of its own
    /// component.
    fn undelayed_cycles(&mut self, g: &Graph, scc: &Sccs) -> Vec<bool> {
        let mut zero = vec![false; g.edges.len()];
        let mut indeg = vec![0usize; g.nodes.len()];
        for (ei, e) in g.edges.iter().enumerate() {
            if scc.on_cycle[e.from]
                && scc.component_of[e.from] == scc.component_of[e.to]
                && self.edge_is_zero_delay(e)
            {
                zero[ei] = true;
                indeg[e.to] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..g.nodes.len())
            .filter(|&v| scc.on_cycle[v] && indeg[v] == 0)
            .collect();
        while let Some(v) = queue.pop() {
            for &ei in &g.out_edges[v] {
                if zero[ei] {
                    let to = g.edges[ei].to;
                    indeg[to] -= 1;
                    if indeg[to] == 0 {
                        queue.push(to);
                    }
                }
            }
        }
        let mut undelayed = vec![false; scc.components.len()];
        for (v, &d) in indeg.iter().enumerate() {
            if d > 0 {
                undelayed[scc.component_of[v]] = true;
            }
        }
        undelayed
    }

    fn edge_is_zero_delay(&mut self, e: &GEdge) -> bool {
        match e.channel {
            None => true,
            Some(ci) => {
                let facts = self.check_channel(ci);
                facts.builds && facts.zero_delay
            }
        }
    }

    // ---- pass 3: stimulus hazard analysis ----

    fn hazard_pass(
        &mut self,
        g: &Graph,
        scc: &Sccs,
        inputs: &HashMap<&str, usize>,
        scenarios: &[ScenarioSpec],
    ) {
        let order = g.topo_order(&scc.on_cycle);
        // (edge index, channel copy) -> (first scenario label, death count)
        let mut deaths: BTreeMap<(usize, u32), (String, usize)> = BTreeMap::new();
        for s in scenarios {
            let mut width: Vec<Option<f64>> = vec![None; g.nodes.len()];
            for (port, sig) in &s.inputs {
                if let Some(&idx) = inputs.get(port.as_str()) {
                    if let Some(w) = min_pulse_width(sig) {
                        width[idx] = Some(w);
                    }
                }
            }
            for &v in &order {
                let Some(w) = width[v] else { continue };
                if w <= DEAD_WIDTH {
                    continue;
                }
                for &ei in &g.out_edges[v] {
                    let e = &g.edges[ei];
                    if scc.on_cycle[e.to] {
                        continue;
                    }
                    let w_out = match e.channel {
                        None => w,
                        Some(ci) => match self.walk(ci, w, e.repeat) {
                            Ok(Some(w_out)) => w_out,
                            Ok(None) => continue,
                            Err(copy) => {
                                deaths
                                    .entry((ei, copy))
                                    .and_modify(|(_, n)| *n += 1)
                                    .or_insert_with(|| (s.label.clone(), 1));
                                continue;
                            }
                        },
                    };
                    let slot = &mut width[e.to];
                    *slot = Some(slot.map_or(w_out, |prev| prev.min(w_out)));
                }
            }
        }
        for ((ei, copy), (label, n)) in deaths {
            let e = &g.edges[ei];
            let (from, to) = g.hop(e, copy);
            let more = if n > 1 {
                format!(" (and {} more scenario(s))", n - 1)
            } else {
                String::new()
            };
            self.push(
                "IVL020",
                Severity::Warning,
                e.span,
                format!(
                    "scenario {label:?}: stimulus provably cancels in the channel \
                     {from:?} -> {to:?}{more}"
                ),
            );
        }
    }

    /// Walks a pulse of `width` through `repeat` copies of channel `ci`
    /// in series, `w ← pulse_response(w)`: `Err(k)` when copy `k` cancels
    /// it, else the width leaving the last copy, or `None` at a probe it
    /// cannot make or a width it fed before (from there the walk only
    /// repeats). Every step but the last reads a distinct probe, so a
    /// walk takes at most `PROBE_BUDGET + 1` steps, however long the chain.
    fn walk(&mut self, ci: usize, mut width: f64, repeat: u32) -> Result<Option<f64>, u32> {
        self.walks += 1;
        for copy in 0..repeat {
            match self.pulse_response(ci, width) {
                None => return Ok(None),
                Some(w) if w <= DEAD_WIDTH => return Err(copy),
                Some(w) => width = w,
            }
        }
        Ok(Some(width))
    }

    /// The surviving output pulse width for an isolated input pulse of
    /// `width` through this channel, probed against the pulse-extending
    /// adversary for `eta` channels (so a death is a death under *every*
    /// admissible noise sequence). `None` when the channel cannot be
    /// probed, the budget ran out, or the current walk fed this width
    /// before.
    fn pulse_response(&mut self, ci: usize, width: f64) -> Option<f64> {
        if !(width.is_finite() && width > 0.0) {
            return None;
        }
        let key = (ci, width.to_bits());
        if let Some((out, walk)) = self.probe_cache.get_mut(&key) {
            if *walk == self.walks {
                return None;
            }
            *walk = self.walks;
            return *out;
        }
        if self.probes_left == 0 {
            self.truncated = true;
            return None;
        }
        self.probes_left -= 1;
        let out = self.probe_once(ci, width);
        self.probe_cache.insert(key, (out, self.walks));
        out
    }

    fn probe_once(&mut self, ci: usize, width: f64) -> Option<f64> {
        if !self.check_channel(ci).builds {
            return None;
        }
        let mut channel = self.probe_channel(ci)?.clone_box();
        let input = Signal::pulse(0.0, width).ok()?;
        let out = apply_online(&mut channel, &input);
        let t = out.transitions();
        Some(match (t.first(), t.get(1)) {
            (Some(a), Some(b)) => b.time - a.time,
            (Some(_), None) => width,
            _ => 0.0,
        })
    }

    /// The pristine probe channel of an interned spec, built on first
    /// use. For `eta` it faces the pulse-extending adversary: any other
    /// admissible noise can only *shrink* the surviving width, so a death
    /// shown here is a death under every admissible noise sequence.
    fn probe_channel(&mut self, ci: usize) -> Option<&dyn SimChannel> {
        let registry = self.registry;
        let entry = &mut self.channels[ci];
        let c = entry.spec;
        entry
            .probe
            .get_or_insert_with(|| {
                if c.kind == "eta" {
                    registry
                        .build(&c.kind, &extending_params(&c.params))
                        .or_else(|_| registry.build(&c.kind, &c.params))
                        .ok()
                } else {
                    registry.build(&c.kind, &c.params).ok()
                }
            })
            .as_deref()
    }

    // ------------------------------------------------------------------
    // Analog workload: pass 4
    // ------------------------------------------------------------------

    fn lint_analog(&mut self, a: &AnalogSpec) {
        self.check_workers(a.workers);
        if a.sweep.widths.is_empty() {
            self.push(
                "IVL034",
                Severity::Error,
                self.spans.widths,
                "sweep: the width axis is empty (the sweep would silently measure nothing)"
                    .to_owned(),
            );
        }
        for w in &a.sweep.widths {
            if !(w.is_finite() && *w > 0.0) {
                self.push(
                    "IVL035",
                    Severity::Error,
                    self.spans.widths,
                    format!("sweep: width axis entries must be finite and > 0, got {w}"),
                );
                break;
            }
        }
        for (value, what) in [
            (a.sweep.settle, "sweep: field \"settle\""),
            (a.sweep.tail, "sweep: field \"tail\""),
            (a.sweep.slew, "sweep: field \"slew\""),
        ] {
            self.check_finite(value, what, self.spans.widths);
        }
        if a.sweep.stage >= a.chain.stages {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.stage,
                format!(
                    "sweep: field \"stage\" = {} is past the end of a {}-stage chain (stages \
                     count from 0)",
                    a.sweep.stage, a.chain.stages
                ),
            );
        }
        if !(a.sweep.dt.is_finite() && a.sweep.dt > 0.0) {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.widths,
                format!(
                    "sweep: field \"dt\" must be finite and > 0, got {}",
                    a.sweep.dt
                ),
            );
        }
        if let crate::spec::AnalogTask::Deviations {
            reference: ReferenceSpec::Empirical { up, down },
            ..
        } = &a.task
        {
            if up.is_empty() || down.is_empty() {
                self.push(
                    "IVL034",
                    Severity::Error,
                    self.spans.workload,
                    "empirical reference with an empty sample set".to_owned(),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // SPF workload: passes 2 and 3
    // ------------------------------------------------------------------

    fn lint_spf(&mut self, s: &SpfSpec) {
        for (v, what) in [
            (s.eta_minus, "spf: eta_minus"),
            (s.eta_plus, "spf: eta_plus"),
        ] {
            self.check_finite(v, what, self.spans.workload);
        }
        if s.eta_minus < 0.0 || s.eta_plus < 0.0 {
            self.push(
                "IVL035",
                Severity::Error,
                self.spans.workload,
                format!(
                    "spf: eta bounds must be >= 0, got eta_minus = {}, eta_plus = {}",
                    s.eta_minus, s.eta_plus
                ),
            );
            return;
        }
        let span = self.spans.delay;
        match &s.delay {
            DelaySpec::Exp { tau, t_p, v_th } => {
                match ivl_core::delay::ExpChannel::new(*tau, *t_p, *v_th) {
                    Ok(d) => self.lint_spf_pair(&d, s, span),
                    Err(e) => self.push(
                        "IVL010",
                        Severity::Error,
                        span,
                        format!("spf: exp delay family rejected: {e}"),
                    ),
                }
            }
            DelaySpec::Rational { a, b, c } => {
                match ivl_core::delay::RationalPair::new(*a, *b, *c) {
                    Ok(d) => self.lint_spf_pair(&d, s, span),
                    Err(e) => self.push(
                        "IVL010",
                        Severity::Error,
                        span,
                        format!("spf: rational delay family rejected: {e}"),
                    ),
                }
            }
        }
        if let SpfTask::Simulate { input, horizon, .. } = &s.task {
            self.check_signal(input, "spf simulate input", self.spans.workload);
            self.check_finite(*horizon, "spf: simulate horizon", self.spans.workload);
        }
    }

    fn lint_spf_pair<D: DelayPair>(&mut self, pair: &D, s: &SpfSpec, span: Option<Span>) {
        self.verify_pair(pair, Some((s.eta_minus, s.eta_plus)), "spf delay", span);
        // Lemma 4 shadow: a simulated input pulse at or below the filter
        // bound is provably cancelled in the first channel, so the run
        // can only show the trivial outcome.
        let has_error = self.has_error_for(span);
        if has_error {
            return;
        }
        if let SpfTask::Simulate { input, .. } = &s.task {
            let Ok(bounds) = EtaBounds::new(s.eta_minus, s.eta_plus) else {
                return;
            };
            let Ok(theory) = ivl_spf::SpfTheory::compute(pair, bounds) else {
                return;
            };
            if let Some(w) = min_pulse_width(input) {
                if w <= theory.filter_bound {
                    self.push(
                        "IVL021",
                        Severity::Info,
                        self.spans.workload,
                        format!(
                            "spf: input pulse width {w} is at or below the filter bound \
                             {:.6} (Lemma 4): the pulse is provably cancelled",
                            theory.filter_bound
                        ),
                    );
                }
            }
        }
    }

    fn has_error_for(&self, span: Option<Span>) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.span == span)
    }
}

/// The span of item `i` of a spanned list (none for a built spec).
fn nth(spans: &[Option<Span>], i: usize) -> Option<Span> {
    spans.get(i).copied().flatten()
}

/// The generator family of a generated topology, with the channel its
/// channel edges share; `None` for an explicit netlist.
fn generated(topology: &TopologySpec) -> Option<(Family, &ChannelSpec)> {
    use TopologySpec as T;
    Some(match *topology {
        T::Netlist(_) => return None,
        T::InverterChain {
            stages,
            ref channel,
        } => (Family::InverterChain { stages }, channel),
        T::Grid2d {
            width,
            height,
            ref channel,
        } => (Family::Grid { width, height }, channel),
        T::RandomDag {
            nodes, ref channel, ..
        } => (Family::RandomDag { nodes }, channel),
        T::FatTree { depth, ref channel } => (Family::FatTree { depth }, channel),
    })
}

/// Rebuilds `eta` parameters with the pulse-extending adversary (and
/// without the now-meaningless noise-source parameters).
fn extending_params(params: &ChannelParams) -> ChannelParams {
    let mut out = ChannelParams::new();
    for (name, v) in params.entries() {
        if matches!(name.as_str(), "noise" | "seed" | "sigma" | "shift") {
            continue;
        }
        out = match v {
            ParamValue::Num(x) => out.with_num(name.clone(), *x),
            ParamValue::Int(x) => out.with_int(name.clone(), *x),
            ParamValue::Text(s) => out.with_text(name.clone(), s.clone()),
            _ => out,
        };
    }
    out.with_text("noise", "extending")
}

/// The smallest pulse width (or inter-transition gap) a signal spec
/// presents to the circuit, if it presents any.
fn min_pulse_width(s: &SignalSpec) -> Option<f64> {
    match s {
        SignalSpec::Zero => None,
        SignalSpec::Pulse { width, .. } => Some(*width),
        SignalSpec::Train { pulses } => pulses
            .iter()
            .map(|(_, w)| *w)
            .min_by(f64::total_cmp)
            .filter(|w| w.is_finite()),
        SignalSpec::Times { times, .. } => times
            .windows(2)
            .map(|w| w[1] - w[0])
            .min_by(f64::total_cmp)
            .filter(|w| w.is_finite()),
    }
}

// ======================================================================
// Graph scaffolding
// ======================================================================

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GKind {
    Input,
    Output,
    Gate,
}

struct GNode {
    name: String,
    kind: GKind,
    span: Option<Span>,
}

struct GEdge {
    from: usize,
    to: usize,
    /// Index into the linter's channel table; `None` for a direct wire.
    channel: Option<usize>,
    /// Copies of the channel in series: a chain stand-in's last edge
    /// carries all `stages` of them, every other edge one.
    repeat: u32,
    span: Option<Span>,
}

#[derive(Default)]
struct Graph {
    /// The generator a stand-in graph models (`None` for a netlist);
    /// its node ids are the family's, and so are the names.
    family: Option<Family>,
    nodes: Vec<GNode>,
    edges: Vec<GEdge>,
    out_edges: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
}

/// Strongly connected components of a [`Graph`].
struct Sccs {
    components: Vec<Vec<usize>>,
    /// Per node: index of its component.
    component_of: Vec<usize>,
    /// Per node: its component closes a cycle (more than one member,
    /// or a self-loop).
    on_cycle: Vec<bool>,
}

impl Graph {
    fn edge(
        &mut self,
        from: usize,
        to: usize,
        channel: Option<usize>,
        repeat: u32,
        span: Option<Span>,
    ) {
        self.edges.push(GEdge {
            from,
            to,
            channel,
            repeat,
            span,
        });
    }

    /// The names of the nodes copy `copy` of `e`'s channel joins: on a
    /// chain stand-in, copy `k` runs from gate `k` to gate `k + 1`, the
    /// last one into the output port.
    fn hop(&self, e: &GEdge, copy: u32) -> (Cow<'_, str>, Cow<'_, str>) {
        let from = e.from + copy as usize;
        let to = if copy + 1 == e.repeat { e.to } else { from + 1 };
        let name = |v: usize| match self.family {
            Some(family) => family.node_name(v),
            None => Cow::Borrowed(self.nodes[v].name.as_str()),
        };
        (name(from), name(to))
    }

    fn index(&mut self) {
        self.out_edges = vec![Vec::new(); self.nodes.len()];
        self.in_degree = vec![0; self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            self.out_edges[e.from].push(i);
            self.in_degree[e.to] += 1;
        }
    }

    /// Whether `name` names a node of the linted topology, without
    /// materializing a generated one: a generator resolves the name
    /// through its naming scheme ([`Family::node_id`]).
    fn has_node(&self, name: &str) -> bool {
        match self.family {
            Some(family) => family.node_id(name).is_some(),
            None => self.nodes.iter().any(|n| n.name == name),
        }
    }

    /// Input port name → node index.
    fn inputs(&self) -> HashMap<&str, usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == GKind::Input)
            .map(|(i, n)| (n.name.as_str(), i))
            .collect()
    }

    fn reachable_from_inputs(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.inputs().into_values().collect();
        for &i in &stack {
            seen[i] = true;
        }
        while let Some(v) = stack.pop() {
            for &ei in &self.out_edges[v] {
                let to = self.edges[ei].to;
                if !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// Strongly connected components via iterative Kosaraju; component
    /// order and member order are deterministic.
    fn sccs(&self) -> Sccs {
        let n = self.nodes.len();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            // iterative post-order DFS
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            seen[start] = true;
            while let Some(top) = stack.last_mut() {
                let (v, next) = *top;
                if next < self.out_edges[v].len() {
                    top.1 += 1;
                    let to = self.edges[self.out_edges[v][next]].to;
                    if !seen[to] {
                        seen[to] = true;
                        stack.push((to, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            rev[e.to].push(e.from);
        }
        let mut component = vec![usize::MAX; n];
        let mut components: Vec<Vec<usize>> = Vec::new();
        for &start in order.iter().rev() {
            if component[start] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut members = vec![start];
            component[start] = id;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &u in &rev[v] {
                    if component[u] == usize::MAX {
                        component[u] = id;
                        members.push(u);
                        stack.push(u);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        let on_cycle = component
            .iter()
            .map(|&id| {
                let members = &components[id];
                let v = members[0];
                members.len() > 1 || self.out_edges[v].iter().any(|&ei| self.edges[ei].to == v)
            })
            .collect();
        Sccs {
            components,
            component_of: component,
            on_cycle,
        }
    }

    /// A topological order of the acyclic part (nodes `on_cycle` are
    /// excluded; their downstream still appears, fed only by what
    /// reaches it acyclically).
    fn topo_order(&self, on_cycle: &[bool]) -> Vec<usize> {
        let mut indeg = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            if !on_cycle[e.from] && !on_cycle[e.to] {
                indeg[e.to] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..self.nodes.len())
            .filter(|&v| !on_cycle[v] && indeg[v] == 0)
            .collect();
        let mut order = Vec::with_capacity(queue.len());
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &ei in &self.out_edges[v] {
                let to = self.edges[ei].to;
                if on_cycle[to] {
                    continue;
                }
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
        order
    }
}
