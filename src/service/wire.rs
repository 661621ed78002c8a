//! Result and error documents on the wire.
//!
//! The service speaks `faithful/1` in both directions. A result or
//! error document has one walk per part (signals, samples, outcomes,
//! failures, quarantine, stats, theory, run, diagnostics), written
//! through the text sink that writes specs, so every finite `f64`
//! (signal transition times, analog samples, theory quantities)
//! round-trips *exactly* — which is what makes a served result
//! byte-comparable to an in-process
//! [`Experiment::run`](crate::Experiment::run) and lets the cache
//! replay stored bytes verbatim. No tree is built to write them; the
//! parsed tree is only the reader's.
//!
//! [`render_result`] is the single serializer used by the daemon, the
//! golden tests and the benchmark harness; [`parse_result`] is the
//! typed client-side view.

use ivl_analog::characterize::{DelaySample, DeviationSample};
use ivl_circuit::{ScenarioFailure, SweepStats};
use ivl_core::{Edge, Signal};
use ivl_spf::{SpfRun, SpfTheory};

use crate::error::SpecError;
use crate::experiment::{AnalogResult, DigitalOutcome, ExperimentResult, QuarantinedScenario};
use crate::lint::{Diagnostic, Severity};
use crate::spec::{named_sigs_from_value, sig_from_value, Fields};
use crate::value::{count, parse_document, render_document, Sink, Value, ValueKind, Walk};

/// A sample's `edge` field: the word `rising` or `falling`.
fn edge_field(f: &mut Fields) -> Result<Edge, SpecError> {
    match f.string("edge")?.as_str() {
        "rising" => Ok(Edge::Rising),
        "falling" => Ok(Edge::Falling),
        other => Err(SpecError::new(format!("unknown edge {other:?}"))),
    }
}

// ======================================================================
// Results: render
// ======================================================================

/// Renders an [`ExperimentResult`] as the `faithful/1 result { … }`
/// document the daemon sends. Deterministic and canonical: the same
/// result always renders to the same bytes.
#[must_use]
pub fn render_result(result: &ExperimentResult) -> String {
    render_document(result)
}

impl Walk for ExperimentResult {
    fn walk(&self, s: &mut impl Sink) {
        match self {
            ExperimentResult::Channel(c) => {
                open_result(s, "channel", 2);
                s.entry("output", &c.output);
            }
            ExperimentResult::Digital(d) => {
                open_result(s, "digital", 7 + count(&[d.stats.is_some()]));
                s.entry("completed", &d.completed);
                s.entry("failed", &d.failed);
                s.entry("retried", &d.retried);
                s.entry("outcomes", &d.outcomes[..]);
                if let Some(stats) = &d.stats {
                    s.entry("stats", stats);
                }
                s.entry("failures", &d.failures[..]);
                s.entry("quarantine", &d.quarantine[..]);
            }
            ExperimentResult::Analog(AnalogResult::Samples(samples)) => {
                open_analog(s, "samples", 1);
                s.entry("samples", &samples[..]);
            }
            ExperimentResult::Analog(AnalogResult::Characterization { up, down }) => {
                open_analog(s, "characterization", 2);
                s.entry("up", &up[..]);
                s.entry("down", &down[..]);
            }
            ExperimentResult::Analog(AnalogResult::Deviations(deviations)) => {
                open_analog(s, "deviations", 1);
                s.entry("deviations", &deviations[..]);
            }
            ExperimentResult::Spf(p) => {
                open_result(s, "spf", 2 + count(&[p.run.is_some()]));
                s.entry("theory", &p.theory);
                if let Some(run) = &p.run {
                    s.entry("run", run);
                }
            }
        }
    }
}

/// Opens `result { workload = …; … }` of `fields` fields in all.
fn open_result(s: &mut impl Sink, workload: &str, fields: usize) {
    s.node("result", fields);
    s.field("workload");
    s.word(workload);
}

/// Opens an analog result of `task` and its `lists` sample lists.
fn open_analog(s: &mut impl Sink, task: &str, lists: usize) {
    open_result(s, "analog", 2 + lists);
    s.field("task");
    s.word(task);
}

impl Walk for DigitalOutcome {
    fn walk(&self, s: &mut impl Sink) {
        let optional = [self.vcd.is_some(), self.error.is_some()];
        s.node("outcome", 2 + count(&optional));
        s.entry("label", &self.label);
        s.entry("signals", &self.signals[..]);
        if let Some(vcd) = &self.vcd {
            s.entry("vcd", vcd);
        }
        if let Some(e) = &self.error {
            s.entry("error", &e.to_string());
        }
    }
}

impl Walk for SweepStats {
    fn walk(&self, s: &mut impl Sink) {
        let optional = [
            ("min_pulse_width", self.min_pulse_width),
            ("max_pulse_width", self.max_pulse_width),
            ("min_period", self.min_period),
        ];
        s.node("stats", 6 + count(&optional.map(|(_, v)| v.is_some())));
        s.entry("scenarios", &self.scenarios);
        s.entry("failures", &self.failures);
        s.entry("retried", &self.retried);
        s.entry("processed_events", &self.processed_events);
        s.entry("scheduled_events", &self.scheduled_events);
        s.entry("output_transitions", &self.output_transitions);
        for (name, v) in optional {
            if let Some(v) = v {
                s.entry(name, &v);
            }
        }
    }
}

impl Walk for ScenarioFailure {
    fn walk(&self, s: &mut impl Sink) {
        s.node("failure", 4 + count(&[self.seed.is_some()]));
        s.entry("index", &self.index);
        s.entry("label", &self.label);
        if let Some(seed) = &self.seed {
            s.entry("seed", seed);
        }
        s.entry("retries", &self.retries);
        s.entry("cause", &self.cause.to_string());
    }
}

impl Walk for QuarantinedScenario {
    fn walk(&self, s: &mut impl Sink) {
        s.node("quarantined", 3);
        s.entry("index", &self.index);
        s.entry("label", &self.label);
        s.entry("spec", &self.spec);
    }
}

impl Walk for DelaySample {
    fn walk(&self, s: &mut impl Sink) {
        s.node("sample", 3);
        s.entry("offset", &self.offset);
        s.entry("delay", &self.delay);
        s.entry("edge", &self.edge);
    }
}

impl Walk for DeviationSample {
    fn walk(&self, s: &mut impl Sink) {
        s.node("sample", 3);
        s.entry("offset", &self.offset);
        s.entry("deviation", &self.deviation);
        s.entry("edge", &self.edge);
    }
}

impl Walk for Edge {
    fn walk(&self, s: &mut impl Sink) {
        s.word(match self {
            Edge::Rising => "rising",
            Edge::Falling => "falling",
        });
    }
}

impl Walk for SpfTheory {
    fn walk(&self, s: &mut impl Sink) {
        s.node("theory", 11);
        s.entry("delta_min", &self.delta_min);
        s.entry("eta_minus", &self.eta_minus);
        s.entry("eta_plus", &self.eta_plus);
        s.entry("tau", &self.tau);
        s.entry("delta_bar", &self.delta_bar);
        s.entry("period", &self.period);
        s.entry("gamma", &self.gamma);
        s.entry("delta0_tilde", &self.delta0_tilde);
        s.entry("growth", &self.growth);
        s.entry("filter_bound", &self.filter_bound);
        s.entry("lock_bound", &self.lock_bound);
    }
}

impl Walk for SpfRun {
    fn walk(&self, s: &mut impl Sink) {
        s.node("run", 4);
        s.entry("or", &self.or_signal);
        s.entry("feedback", &self.feedback_signal);
        s.entry("output", &self.output);
        s.entry("events", &self.events);
    }
}

// ======================================================================
// Results: parse (the typed client-side view)
// ======================================================================

/// A result document decoded client-side.
///
/// Mirrors [`ExperimentResult`] with wire-faithful types: simulation
/// errors arrive as their rendered messages (the typed originals live
/// server-side), everything numeric round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedResult {
    /// A channel application: the output signal.
    Channel {
        /// The channel's output.
        output: Signal,
    },
    /// A digital sweep.
    Digital {
        /// Scenarios that completed.
        completed: u64,
        /// Scenarios that failed terminally.
        failed: u64,
        /// Retries spent.
        retried: u64,
        /// Per-scenario outcomes, in sweep order.
        outcomes: Vec<ServedOutcome>,
        /// Aggregate output statistics, when the spec asked for them.
        stats: Option<SweepStats>,
    },
    /// An analog experiment (samples, characterization or deviations).
    Analog(AnalogResult),
    /// An SPF experiment: theory quantities plus the optional run.
    Spf {
        /// The Section IV theory bundle.
        theory: ServedTheory,
        /// The circuit run, when simulation was requested.
        run: Option<ServedRun>,
    },
}

/// One served scenario outcome of a digital sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedOutcome {
    /// The scenario's label.
    pub label: String,
    /// Output-port signals, `(port, signal)`.
    pub signals: Vec<(String, Signal)>,
    /// The VCD dump, when the spec asked for one.
    pub vcd: Option<String>,
    /// The failure message, for scenarios that ended in an error.
    pub error: Option<String>,
}

/// The SPF theory quantities as served.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedTheory {
    /// `δ_min` of the delay pair.
    pub delta_min: f64,
    /// `η⁻` of the bounds used.
    pub eta_minus: f64,
    /// `η⁺` of the bounds used.
    pub eta_plus: f64,
    /// The Lemma 5 fixed point `τ`.
    pub tau: f64,
    /// Worst-case self-repeating up-time `∆`.
    pub delta_bar: f64,
    /// Worst-case period `P`.
    pub period: f64,
    /// Worst-case duty cycle `γ`.
    pub gamma: f64,
    /// Lemma 8 threshold `∆̃₀`.
    pub delta0_tilde: f64,
    /// Growth ratio `a` of Lemma 7.
    pub growth: f64,
    /// Lemma 4 filtering bound.
    pub filter_bound: f64,
    /// Lemma 3 locking bound.
    pub lock_bound: f64,
}

/// The served signals of an SPF circuit run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRun {
    /// The OR gate's output.
    pub or_signal: Signal,
    /// The feedback channel's output.
    pub feedback_signal: Signal,
    /// The circuit output after the high-threshold buffer.
    pub output: Signal,
    /// Simulation events processed.
    pub events: u64,
}

/// Parses a served result document.
///
/// # Errors
///
/// [`SpecError`] when the text is not a well-formed result document.
pub fn parse_result(text: &str) -> Result<ServedResult, SpecError> {
    let mut f = Fields::of(parse_document(text)?, "result")?;
    f.expect_tag(&["result"])?;
    let workload = f.string("workload")?;
    let result = match workload.as_str() {
        "channel" => {
            let (_, output) = sig_from_value(f.req("output")?)?;
            ServedResult::Channel { output }
        }
        "digital" => {
            let completed = f.u64("completed")?;
            let failed = f.u64("failed")?;
            let retried = f.u64("retried")?;
            let mut outcomes = Vec::new();
            for v in f.list("outcomes")? {
                let mut of = Fields::of(v, "outcome")?;
                of.expect_tag(&["outcome"])?;
                let label = of.string("label")?;
                let signals = named_sigs_from_value(of.list("signals")?)?;
                let vcd = of.opt_string("vcd")?;
                let error = of.opt_string("error")?;
                of.finish()?;
                outcomes.push(ServedOutcome {
                    label,
                    signals,
                    vcd,
                    error,
                });
            }
            let stats = match f.take("stats") {
                None => None,
                Some(v) => {
                    let mut sf = Fields::of(v, "stats")?;
                    sf.expect_tag(&["stats"])?;
                    let stats = SweepStats {
                        scenarios: sf.u64("scenarios")? as usize,
                        failures: sf.u64("failures")? as usize,
                        retried: sf.u64("retried")?,
                        processed_events: sf.u64("processed_events")?,
                        scheduled_events: sf.u64("scheduled_events")?,
                        output_transitions: sf.u64("output_transitions")?,
                        min_pulse_width: sf.opt_f64("min_pulse_width")?,
                        max_pulse_width: sf.opt_f64("max_pulse_width")?,
                        min_period: sf.opt_f64("min_period")?,
                    };
                    sf.finish()?;
                    Some(stats)
                }
            };
            // failures and quarantine are carried for completeness but
            // fold into the typed view only as counts; drain them so
            // unknown-field checking still covers the rest.
            f.take("failures");
            f.take("quarantine");
            ServedResult::Digital {
                completed,
                failed,
                retried,
                outcomes,
                stats,
            }
        }
        "analog" => {
            let task = f.string("task")?;
            let analog = match task.as_str() {
                "samples" => AnalogResult::Samples(delay_samples_from(f.list("samples")?)?),
                "characterization" => AnalogResult::Characterization {
                    up: delay_samples_from(f.list("up")?)?,
                    down: delay_samples_from(f.list("down")?)?,
                },
                "deviations" => {
                    let mut out = Vec::new();
                    for v in f.list("deviations")? {
                        let mut sf = Fields::of(v, "sample")?;
                        sf.expect_tag(&["sample"])?;
                        let sample = DeviationSample {
                            offset: sf.f64("offset")?,
                            deviation: sf.f64("deviation")?,
                            edge: edge_field(&mut sf)?,
                        };
                        sf.finish()?;
                        out.push(sample);
                    }
                    AnalogResult::Deviations(out)
                }
                other => {
                    return Err(SpecError::new(format!("unknown analog task {other:?}")));
                }
            };
            ServedResult::Analog(analog)
        }
        "spf" => {
            let mut tf = Fields::of(f.req("theory")?, "theory")?;
            tf.expect_tag(&["theory"])?;
            let theory = ServedTheory {
                delta_min: tf.f64("delta_min")?,
                eta_minus: tf.f64("eta_minus")?,
                eta_plus: tf.f64("eta_plus")?,
                tau: tf.f64("tau")?,
                delta_bar: tf.f64("delta_bar")?,
                period: tf.f64("period")?,
                gamma: tf.f64("gamma")?,
                delta0_tilde: tf.f64("delta0_tilde")?,
                growth: tf.f64("growth")?,
                filter_bound: tf.f64("filter_bound")?,
                lock_bound: tf.f64("lock_bound")?,
            };
            tf.finish()?;
            let run = match f.take("run") {
                None => None,
                Some(v) => {
                    let mut rf = Fields::of(v, "run")?;
                    rf.expect_tag(&["run"])?;
                    let run = ServedRun {
                        or_signal: sig_from_value(rf.req("or")?)?.1,
                        feedback_signal: sig_from_value(rf.req("feedback")?)?.1,
                        output: sig_from_value(rf.req("output")?)?.1,
                        events: rf.u64("events")?,
                    };
                    rf.finish()?;
                    Some(run)
                }
            };
            ServedResult::Spf { theory, run }
        }
        other => {
            return Err(SpecError::new(format!("unknown result workload {other:?}")));
        }
    };
    f.finish()?;
    Ok(result)
}

fn delay_samples_from(values: Vec<Value>) -> Result<Vec<DelaySample>, SpecError> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        let mut sf = Fields::of(v, "sample")?;
        sf.expect_tag(&["sample"])?;
        let sample = DelaySample {
            offset: sf.f64("offset")?,
            delay: sf.f64("delay")?,
            edge: edge_field(&mut sf)?,
        };
        sf.finish()?;
        out.push(sample);
    }
    Ok(out)
}

// ======================================================================
// Errors on the wire
// ======================================================================

/// What class of failure an error frame reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedErrorKind {
    /// The submitted text does not parse as a `faithful/1` spec.
    Spec,
    /// The lint preflight found `Error`-severity diagnostics.
    Lint,
    /// The experiment ran and failed (construction, validation or
    /// simulation error).
    Run,
    /// The daemon is shutting down and no longer accepts new jobs.
    Shutdown,
    /// The peer violated the frame protocol or sent an undecodable
    /// document.
    Protocol,
    /// The daemon contained an internal failure (e.g. a worker panic).
    Internal,
}

impl ServedErrorKind {
    fn as_word(self) -> &'static str {
        match self {
            ServedErrorKind::Spec => "spec",
            ServedErrorKind::Lint => "lint",
            ServedErrorKind::Run => "run",
            ServedErrorKind::Shutdown => "shutdown",
            ServedErrorKind::Protocol => "protocol",
            ServedErrorKind::Internal => "internal",
        }
    }

    fn from_word(w: &str) -> Option<Self> {
        Some(match w {
            "spec" => ServedErrorKind::Spec,
            "lint" => ServedErrorKind::Lint,
            "run" => ServedErrorKind::Run,
            "shutdown" => ServedErrorKind::Shutdown,
            "protocol" => ServedErrorKind::Protocol,
            "internal" => ServedErrorKind::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ServedErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_word())
    }
}

/// One diagnostic attached to a served `lint` error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedDiagnostic {
    /// The stable lint code (`IVL…`).
    pub code: String,
    /// The finding's severity.
    pub severity: Severity,
    /// The finding's message.
    pub message: String,
    /// 1-based `(line, column)` into the submitted text, when known.
    pub span: Option<(u32, u32)>,
}

/// A typed error decoded from an error frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedError {
    /// The failure class.
    pub kind: ServedErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Lint findings (all severities), for `Lint` errors.
    pub diagnostics: Vec<ServedDiagnostic>,
}

impl std::fmt::Display for ServedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        for d in &self.diagnostics {
            write!(f, "\n  {}[{}]: {}", d.severity, d.code, d.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for ServedError {}

/// Renders an error document for an error frame.
pub(crate) fn render_error(
    kind: ServedErrorKind,
    message: &str,
    diagnostics: &[Diagnostic],
) -> String {
    render_document(&ErrorDocument {
        kind,
        message,
        diagnostics,
    })
}

/// What an error frame carries: [`render_error`]'s arguments.
struct ErrorDocument<'a> {
    kind: ServedErrorKind,
    message: &'a str,
    diagnostics: &'a [Diagnostic],
}

impl Walk for ErrorDocument<'_> {
    fn walk(&self, s: &mut impl Sink) {
        let listed = !self.diagnostics.is_empty();
        s.node("error", 2 + count(&[listed]));
        s.field("kind");
        s.word(self.kind.as_word());
        s.field("message");
        s.str(self.message);
        if listed {
            s.entry("diagnostics", self.diagnostics);
        }
    }
}

impl Walk for Diagnostic {
    fn walk(&self, s: &mut impl Sink) {
        s.node("diag", 3 + 2 * count(&[self.span.is_some()]));
        s.field("code");
        s.str(self.code);
        s.field("severity");
        s.word(&self.severity.to_string());
        s.entry("message", &self.message);
        if let Some(span) = self.span {
            s.entry("line", &span.line);
            s.entry("column", &span.column);
        }
    }
}

/// Parses an error document from an error frame.
///
/// # Errors
///
/// [`SpecError`] when the text is not a well-formed error document.
pub fn parse_error(text: &str) -> Result<ServedError, SpecError> {
    let mut f = Fields::of(parse_document(text)?, "error")?;
    f.expect_tag(&["error"])?;
    let kind_word = f.string("kind")?;
    let kind = ServedErrorKind::from_word(&kind_word)
        .ok_or_else(|| SpecError::new(format!("unknown error kind {kind_word:?}")))?;
    let message = f.string("message")?;
    let mut diagnostics = Vec::new();
    if let Some(list) = f.take("diagnostics") {
        let ValueKind::List(items) = list.into_kind() else {
            return Err(SpecError::new(
                "error: field \"diagnostics\" must be a list",
            ));
        };
        for v in items {
            let mut df = Fields::of(v, "diag")?;
            df.expect_tag(&["diag"])?;
            let code = df.string("code")?;
            let severity_word = df.string("severity")?;
            let severity = match severity_word.as_str() {
                "info" => Severity::Info,
                "warning" => Severity::Warning,
                "error" => Severity::Error,
                other => {
                    return Err(SpecError::new(format!("unknown severity {other:?}")));
                }
            };
            let message = df.string("message")?;
            let line = df.opt_u64("line")?;
            let column = df.opt_u64("column")?;
            df.finish()?;
            let span = match (line, column) {
                (Some(l), Some(c)) => Some((l as u32, c as u32)),
                _ => None,
            };
            diagnostics.push(ServedDiagnostic {
                code,
                severity,
                message,
                span,
            });
        }
    }
    f.finish()?;
    Ok(ServedError {
        kind,
        message,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Span;
    use crate::Experiment;

    #[test]
    fn channel_results_round_trip_exactly() {
        let result = Experiment::parse(
            "faithful/1 channel { channel = involution { delay = exp; tau = 1.0; t_p = 0.5; \
             v_th = 0.5 }; input = pulse { at = 0.25; width = 3.5 } }",
        )
        .unwrap()
        .run()
        .unwrap();
        let text = render_result(&result);
        let ServedResult::Channel { output } = parse_result(&text).unwrap() else {
            panic!("expected a channel result");
        };
        assert_eq!(&output, &result.channel().unwrap().output);
        // rendering is canonical: a reparse of the document re-renders
        // to the same bytes
        assert_eq!(render_document(&parse_document(&text).unwrap()), text);
    }

    #[test]
    fn error_documents_round_trip() {
        let diagnostics = vec![Diagnostic {
            code: "IVL050",
            severity: Severity::Info,
            message: "workers = 4 is ignored".to_owned(),
            span: Some(Span { line: 3, column: 9 }),
        }];
        let text = render_error(ServedErrorKind::Lint, "rejected by lint", &diagnostics);
        let back = parse_error(&text).unwrap();
        assert_eq!(back.kind, ServedErrorKind::Lint);
        assert_eq!(back.message, "rejected by lint");
        assert_eq!(back.diagnostics.len(), 1);
        assert_eq!(back.diagnostics[0].code, "IVL050");
        assert_eq!(back.diagnostics[0].severity, Severity::Info);
        assert_eq!(back.diagnostics[0].span, Some((3, 9)));
    }

    /// One document of every kind the library writes, with each
    /// optional field present somewhere and lists both empty and not.
    fn every_document_kind() -> String {
        use crate::checkpoint::{self, DoneScenario};
        use crate::experiment::{
            ChannelResult, DigitalOutcome, DigitalResult, QuarantinedScenario, SpfResult,
        };
        use ivl_circuit::{ScenarioFailure, SimError};
        use ivl_core::delay::ExpChannel;
        use ivl_core::noise::EtaBounds;
        use ivl_core::Bit;
        use ivl_spf::{SpfRun, SpfTheory};

        let sig = |initial, times: &[f64]| Signal::from_times(initial, times).unwrap();
        let mut docs = Vec::new();
        for name in [
            "analog_characterize",
            "channel_pulse",
            "digital_sweep",
            "spf_theory",
        ] {
            let path = format!("{}/specs/{name}.spec", env!("CARGO_MANIFEST_DIR"));
            let spec: crate::ExperimentSpec =
                std::fs::read_to_string(&path).unwrap().parse().unwrap();
            docs.push((format!("spec {name}"), spec.to_string()));
        }
        let channel = ExperimentResult::Channel(ChannelResult {
            output: sig(Bit::One, &[0.25, 1.5, 3.0000000000000004]),
        });
        let digital = ExperimentResult::Digital(DigitalResult {
            outcomes: vec![
                DigitalOutcome {
                    label: "s0 \"quoted\"\\tab\t".to_owned(),
                    signals: vec![
                        ("y".to_owned(), sig(Bit::Zero, &[1.0, 2.5])),
                        ("z".to_owned(), Signal::zero()),
                    ],
                    vcd: Some("$timescale 1ps $end\n#0\n0!\n".to_owned()),
                    error: None,
                },
                DigitalOutcome {
                    label: "s1".to_owned(),
                    signals: Vec::new(),
                    vcd: None,
                    error: Some(SimError::UnknownPort {
                        name: "q\r\n".to_owned(),
                    }),
                },
            ],
            stats: Some(SweepStats {
                scenarios: 3,
                failures: 1,
                retried: 2,
                processed_events: 40,
                scheduled_events: 44,
                output_transitions: 4,
                min_pulse_width: Some(1.5),
                max_pulse_width: Some(-0.0),
                min_period: Some(1e-300),
            }),
            completed: 2,
            failed: 1,
            retried: 2,
            failures: vec![
                ScenarioFailure {
                    index: 1,
                    label: "s1".to_owned(),
                    seed: Some(u64::MAX),
                    cause: SimError::UnknownPort {
                        name: "q".to_owned(),
                    },
                    retries: 2,
                },
                ScenarioFailure {
                    index: 2,
                    label: "s2".to_owned(),
                    seed: None,
                    cause: SimError::InputViolatesS1 {
                        name: "a".to_owned(),
                    },
                    retries: 0,
                },
            ],
            quarantine: vec![QuarantinedScenario {
                index: 1,
                label: "s1".to_owned(),
                spec: "faithful/1 digital {\n  horizon = 1.0;\n}\n".to_owned(),
            }],
        });
        let bare_digital = ExperimentResult::Digital(DigitalResult {
            outcomes: Vec::new(),
            stats: Some(SweepStats {
                scenarios: 0,
                failures: 0,
                retried: 0,
                processed_events: 0,
                scheduled_events: 0,
                output_transitions: 0,
                min_pulse_width: None,
                max_pulse_width: None,
                min_period: None,
            }),
            completed: 0,
            failed: 0,
            retried: 0,
            failures: Vec::new(),
            quarantine: Vec::new(),
        });
        let no_stats = ExperimentResult::Digital(DigitalResult {
            outcomes: Vec::new(),
            stats: None,
            completed: 0,
            failed: 0,
            retried: 0,
            failures: Vec::new(),
            quarantine: Vec::new(),
        });
        let delay = |offset, delay, edge| DelaySample {
            offset,
            delay,
            edge,
        };
        let samples = ExperimentResult::Analog(AnalogResult::Samples(vec![
            delay(-1.5, 10.25, Edge::Rising),
            delay(0.0, 9.0, Edge::Falling),
        ]));
        let characterization = ExperimentResult::Analog(AnalogResult::Characterization {
            up: vec![delay(1.0, 2.0, Edge::Rising)],
            down: Vec::new(),
        });
        let deviations =
            ExperimentResult::Analog(AnalogResult::Deviations(vec![DeviationSample {
                offset: 2.0,
                deviation: -0.125,
                edge: Edge::Falling,
            }]));
        let theory = SpfTheory::compute(
            &ExpChannel::new(1.0, 0.5, 0.5).unwrap(),
            EtaBounds::new(0.02, 0.02).unwrap(),
        )
        .unwrap();
        let spf_theory = ExperimentResult::Spf(SpfResult { theory, run: None });
        let spf_run = ExperimentResult::Spf(SpfResult {
            theory,
            run: Some(SpfRun {
                or_signal: sig(Bit::Zero, &[1.0, 4.5]),
                feedback_signal: sig(Bit::Zero, &[2.0]),
                output: Signal::zero(),
                events: 17,
            }),
        });
        for (name, result) in [
            ("channel", channel),
            ("digital", digital),
            ("digital empty", bare_digital),
            ("digital without stats", no_stats),
            ("analog samples", samples),
            ("analog characterization", characterization),
            ("analog deviations", deviations),
            ("spf theory", spf_theory),
            ("spf run", spf_run),
        ] {
            docs.push((format!("result {name}"), render_result(&result)));
        }
        let diagnostics = [
            Diagnostic {
                code: "IVL050",
                severity: Severity::Info,
                message: "workers = 4 is \"ignored\"".to_owned(),
                span: Some(Span { line: 3, column: 9 }),
            },
            Diagnostic {
                code: "IVL001",
                severity: Severity::Error,
                message: "a zero-delay cycle".to_owned(),
                span: None,
            },
        ];
        docs.push((
            "error lint".to_owned(),
            render_error(ServedErrorKind::Lint, "rejected by lint", &diagnostics),
        ));
        docs.push((
            "error spec".to_owned(),
            render_error(ServedErrorKind::Spec, "bad\nspec", &[]),
        ));
        let done = [
            DoneScenario {
                label: "s0".to_owned(),
                processed: 7,
                scheduled: 9,
                signals: vec![("y".to_owned(), sig(Bit::One, &[1.25]))],
            },
            DoneScenario {
                label: "s3".to_owned(),
                processed: 0,
                scheduled: 0,
                signals: Vec::new(),
            },
        ];
        docs.push((
            "checkpoint".to_owned(),
            checkpoint::render(
                "faithful/1 channel {\n  channel = fixed;\n  input = zero;\n}\n",
                5,
                1,
                [(0, &done[0]), (3, &done[1])],
            ),
        ));
        docs.push((
            "checkpoint empty".to_owned(),
            checkpoint::render("", 0, 0, []),
        ));
        docs.iter()
            .map(|(name, doc)| format!("== {name}\n{doc}"))
            .collect()
    }

    #[test]
    fn written_documents_match_the_golden_file() {
        let path = format!("{}/tests/wire_golden.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).unwrap();
        let actual = every_document_kind();
        assert!(
            actual == golden,
            "written documents drifted from tests/wire_golden.txt; actual:\n{actual}"
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_result("faithful/1 result { workload = cooking }").is_err());
        assert!(parse_result("not a document").is_err());
        assert!(parse_error("faithful/1 error { kind = weird; message = \"x\" }").is_err());
    }
}
