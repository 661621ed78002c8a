//! Result and error documents on the wire.
//!
//! The service speaks `faithful/1` in both directions: responses are
//! rendered as versioned value documents with the same printer the
//! spec layer uses, so every finite `f64` (signal transition times,
//! analog samples, theory quantities) round-trips *exactly* — which is
//! what makes a served result byte-comparable to an in-process
//! [`Experiment::run`](crate::Experiment::run) and lets the cache
//! replay stored bytes verbatim.
//!
//! [`render_result`] is the single serializer used by the daemon, the
//! golden tests and the benchmark harness; [`parse_result`] is the
//! typed client-side view.

use ivl_analog::characterize::{DelaySample, DeviationSample};
use ivl_circuit::SweepStats;
use ivl_core::{Edge, Signal};

use crate::error::SpecError;
use crate::experiment::{AnalogResult, ExperimentResult};
use crate::lint::{Diagnostic, Severity};
use crate::spec::{
    as_f64, as_u64, field, into_text, named_sigs_from_value, named_sigs_to_value, sig_from_value,
    sig_to_value, Fields,
};
use crate::value::{parse_document, render_document, Value, ValueKind};

// ======================================================================
// Edges
// ======================================================================

fn edge_word(edge: Edge) -> Value {
    Value::word(match edge {
        Edge::Rising => "rising",
        Edge::Falling => "falling",
    })
}

fn edge_from_value(v: Value) -> Result<Edge, SpecError> {
    match into_text(v, "sample", "edge")?.as_str() {
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
    render_document(&result_to_value(result))
}

fn result_to_value(result: &ExperimentResult) -> Value {
    let mut fields = Vec::new();
    match result {
        ExperimentResult::Channel(c) => {
            fields.push(field("workload", Value::word("channel")));
            fields.push(field("output", sig_to_value(None, &c.output)));
        }
        ExperimentResult::Digital(d) => {
            fields.push(field("workload", Value::word("digital")));
            fields.push(field("completed", Value::int(d.completed as u64)));
            fields.push(field("failed", Value::int(d.failed as u64)));
            fields.push(field("retried", Value::int(d.retried)));
            fields.push(field(
                "outcomes",
                Value::list(
                    d.outcomes
                        .iter()
                        .map(|o| {
                            let mut of = vec![
                                field("label", Value::str(o.label.clone())),
                                field("signals", named_sigs_to_value(&o.signals)),
                            ];
                            if let Some(vcd) = &o.vcd {
                                of.push(field("vcd", Value::str(vcd.clone())));
                            }
                            if let Some(e) = &o.error {
                                of.push(field("error", Value::str(e.to_string())));
                            }
                            Value::node("outcome", of)
                        })
                        .collect(),
                ),
            ));
            if let Some(s) = &d.stats {
                let mut sf = vec![
                    field("scenarios", Value::int(s.scenarios as u64)),
                    field("failures", Value::int(s.failures as u64)),
                    field("retried", Value::int(s.retried)),
                    field("processed_events", Value::int(s.processed_events)),
                    field("scheduled_events", Value::int(s.scheduled_events)),
                    field("output_transitions", Value::int(s.output_transitions)),
                ];
                for (name, v) in [
                    ("min_pulse_width", s.min_pulse_width),
                    ("max_pulse_width", s.max_pulse_width),
                    ("min_period", s.min_period),
                ] {
                    if let Some(v) = v {
                        sf.push(field(name, Value::num(v)));
                    }
                }
                fields.push(field("stats", Value::node("stats", sf)));
            }
            fields.push(field(
                "failures",
                Value::list(
                    d.failures
                        .iter()
                        .map(|x| {
                            let mut xf = vec![
                                field("index", Value::int(x.index as u64)),
                                field("label", Value::str(x.label.clone())),
                            ];
                            if let Some(seed) = x.seed {
                                xf.push(field("seed", Value::int(seed)));
                            }
                            xf.push(field("retries", Value::int(u64::from(x.retries))));
                            xf.push(field("cause", Value::str(x.cause.to_string())));
                            Value::node("failure", xf)
                        })
                        .collect(),
                ),
            ));
            fields.push(field(
                "quarantine",
                Value::list(
                    d.quarantine
                        .iter()
                        .map(|q| {
                            Value::node(
                                "quarantined",
                                vec![
                                    field("index", Value::int(q.index as u64)),
                                    field("label", Value::str(q.label.clone())),
                                    field("spec", Value::str(q.spec.clone())),
                                ],
                            )
                        })
                        .collect(),
                ),
            ));
        }
        ExperimentResult::Analog(a) => {
            fields.push(field("workload", Value::word("analog")));
            match a {
                AnalogResult::Samples(s) => {
                    fields.push(field("task", Value::word("samples")));
                    fields.push(field("samples", delay_samples_value(s)));
                }
                AnalogResult::Characterization { up, down } => {
                    fields.push(field("task", Value::word("characterization")));
                    fields.push(field("up", delay_samples_value(up)));
                    fields.push(field("down", delay_samples_value(down)));
                }
                AnalogResult::Deviations(d) => {
                    fields.push(field("task", Value::word("deviations")));
                    fields.push(field(
                        "deviations",
                        Value::list(
                            d.iter()
                                .map(|s| {
                                    Value::node(
                                        "sample",
                                        vec![
                                            field("offset", Value::num(s.offset)),
                                            field("deviation", Value::num(s.deviation)),
                                            field("edge", edge_word(s.edge)),
                                        ],
                                    )
                                })
                                .collect(),
                        ),
                    ));
                }
            }
        }
        ExperimentResult::Spf(s) => {
            fields.push(field("workload", Value::word("spf")));
            let t = &s.theory;
            fields.push(field(
                "theory",
                Value::node(
                    "theory",
                    vec![
                        field("delta_min", Value::num(t.delta_min)),
                        field("eta_minus", Value::num(t.eta_minus)),
                        field("eta_plus", Value::num(t.eta_plus)),
                        field("tau", Value::num(t.tau)),
                        field("delta_bar", Value::num(t.delta_bar)),
                        field("period", Value::num(t.period)),
                        field("gamma", Value::num(t.gamma)),
                        field("delta0_tilde", Value::num(t.delta0_tilde)),
                        field("growth", Value::num(t.growth)),
                        field("filter_bound", Value::num(t.filter_bound)),
                        field("lock_bound", Value::num(t.lock_bound)),
                    ],
                ),
            ));
            if let Some(run) = &s.run {
                fields.push(field(
                    "run",
                    Value::node(
                        "run",
                        vec![
                            field("or", sig_to_value(None, &run.or_signal)),
                            field("feedback", sig_to_value(None, &run.feedback_signal)),
                            field("output", sig_to_value(None, &run.output)),
                            field("events", Value::int(run.events as u64)),
                        ],
                    ),
                ));
            }
        }
    }
    Value::node("result", fields)
}

fn delay_samples_value(samples: &[DelaySample]) -> Value {
    Value::list(
        samples
            .iter()
            .map(|s| {
                Value::node(
                    "sample",
                    vec![
                        field("offset", Value::num(s.offset)),
                        field("delay", Value::num(s.delay)),
                        field("edge", edge_word(s.edge)),
                    ],
                )
            })
            .collect(),
    )
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
    let workload = into_text(f.req("workload")?, "result", "workload")?;
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
                let vcd = of
                    .take("vcd")
                    .map(|v| into_text(v, "outcome", "vcd"))
                    .transpose()?;
                let error = of
                    .take("error")
                    .map(|v| into_text(v, "outcome", "error"))
                    .transpose()?;
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
                        min_pulse_width: sf
                            .take("min_pulse_width")
                            .map(|v| as_f64(&v, "stats", "min_pulse_width"))
                            .transpose()?,
                        max_pulse_width: sf
                            .take("max_pulse_width")
                            .map(|v| as_f64(&v, "stats", "max_pulse_width"))
                            .transpose()?,
                        min_period: sf
                            .take("min_period")
                            .map(|v| as_f64(&v, "stats", "min_period"))
                            .transpose()?,
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
            let task = into_text(f.req("task")?, "result", "task")?;
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
                            edge: edge_from_value(sf.req("edge")?)?,
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
            edge: edge_from_value(sf.req("edge")?)?,
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
    let mut fields = vec![
        field("kind", Value::word(kind.as_word())),
        field("message", Value::str(message)),
    ];
    if !diagnostics.is_empty() {
        fields.push(field(
            "diagnostics",
            Value::list(
                diagnostics
                    .iter()
                    .map(|d| {
                        let mut df = vec![
                            field("code", Value::str(d.code)),
                            field("severity", Value::word(d.severity.to_string())),
                            field("message", Value::str(d.message.clone())),
                        ];
                        if let Some(span) = d.span {
                            df.push(field("line", Value::int(u64::from(span.line))));
                            df.push(field("column", Value::int(u64::from(span.column))));
                        }
                        Value::node("diag", df)
                    })
                    .collect(),
            ),
        ));
    }
    render_document(&Value::node("error", fields))
}

/// Parses an error document from an error frame.
///
/// # Errors
///
/// [`SpecError`] when the text is not a well-formed error document.
pub fn parse_error(text: &str) -> Result<ServedError, SpecError> {
    let mut f = Fields::of(parse_document(text)?, "error")?;
    f.expect_tag(&["error"])?;
    let kind_word = into_text(f.req("kind")?, "error", "kind")?;
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
            let severity_word = into_text(df.req("severity")?, "diag", "severity")?;
            let severity = match severity_word.as_str() {
                "info" => Severity::Info,
                "warning" => Severity::Warning,
                "error" => Severity::Error,
                other => {
                    return Err(SpecError::new(format!("unknown severity {other:?}")));
                }
            };
            let message = df.string("message")?;
            let line = df
                .take("line")
                .map(|v| as_u64(&v, "diag", "line"))
                .transpose()?;
            let column = df
                .take("column")
                .map(|v| as_u64(&v, "diag", "column"))
                .transpose()?;
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

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_result("faithful/1 result { workload = cooking }").is_err());
        assert!(parse_result("not a document").is_err());
        assert!(parse_error("faithful/1 error { kind = weird; message = \"x\" }").is_err());
    }
}
