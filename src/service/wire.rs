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
//! typed client-side view: every part that has a walk has a reader, and
//! the view holds the library's own types wherever they round-trip. Only
//! an outcome, whose error arrives as its message, has a client type
//! ([`ServedOutcome`]); a failure is checked and dropped, its cause
//! arriving as its outcome's error.

use ivl_analog::characterize::{DelaySample, DeviationSample};
use ivl_circuit::{ScenarioFailure, SweepStats};
use ivl_core::{Edge, Signal};
use ivl_spf::{SpfRun, SpfTheory};

use crate::error::SpecError;
use crate::experiment::{AnalogResult, DigitalOutcome, ExperimentResult, QuarantinedScenario};
use crate::lint::{Diagnostic, Severity};
use crate::value::schema;
use crate::value::{count, parse_document, render_document, Fields, Read, Sink, Value, Walk};

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
                s.entry("outcomes", &d.outcomes);
                if let Some(stats) = &d.stats {
                    s.entry("stats", stats);
                }
                s.entry("failures", &d.failures);
                s.entry("quarantine", &d.quarantine);
            }
            ExperimentResult::Analog(AnalogResult::Samples(samples)) => {
                open_analog(s, "samples", 1);
                s.entry("samples", samples);
            }
            ExperimentResult::Analog(AnalogResult::Characterization { up, down }) => {
                open_analog(s, "characterization", 2);
                s.entry("up", up);
                s.entry("down", down);
            }
            ExperimentResult::Analog(AnalogResult::Deviations(deviations)) => {
                open_analog(s, "deviations", 1);
                s.entry("deviations", deviations);
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
        s.entry("signals", &self.signals);
        if let Some(vcd) = &self.vcd {
            s.entry("vcd", vcd);
        }
        if let Some(e) = &self.error {
            s.entry("error", &e.to_string());
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

impl Walk for Edge {
    fn walk(&self, s: &mut impl Sink) {
        s.word(match self {
            Edge::Rising => "rising",
            Edge::Falling => "falling",
        });
    }
}

// The plain parts of a result: each names its fields once, in one
// table that yields its walk and its reader.

schema! {
    struct SweepStats = "stats" {
        scenarios, failures, retried, processed_events, scheduled_events, output_transitions,
        min_pulse_width?, max_pulse_width?, min_period?,
    }
}

schema! {
    struct QuarantinedScenario = "quarantined" { index, label, spec }
}

schema! {
    struct DelaySample = "sample" { offset, delay, edge }
}

schema! {
    struct DeviationSample = "sample" { offset, deviation, edge }
}

schema! {
    struct SpfTheory = "theory" {
        delta_min, eta_minus, eta_plus, tau, delta_bar, period, gamma, delta0_tilde, growth,
        filter_bound, lock_bound,
    }
}

schema! {
    struct SpfRun = "run" { or_signal as "or", feedback_signal as "feedback", output, events }
}

// ======================================================================
// Results: parse (the typed client-side view)
// ======================================================================

/// A result document decoded client-side.
///
/// Mirrors [`ExperimentResult`] with the library's own types wherever
/// they round-trip: simulation errors arrive as their rendered messages
/// (the typed originals live server-side), everything numeric
/// round-trips exactly.
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
        /// A standalone replayable spec per failed scenario.
        quarantine: Vec<QuarantinedScenario>,
    },
    /// An analog experiment (samples, characterization or deviations).
    Analog(AnalogResult),
    /// An SPF experiment: theory quantities plus the optional run.
    Spf {
        /// The Section IV theory bundle.
        theory: SpfTheory,
        /// The circuit run, when simulation was requested.
        run: Option<SpfRun>,
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

/// Parses a served result document.
///
/// # Errors
///
/// [`SpecError`] when the text is not a well-formed result document.
pub fn parse_result(text: &str) -> Result<ServedResult, SpecError> {
    Fields::node(parse_document(text)?, "result", |f| {
        // taken before `req` consumes the fields: an unknown word is
        // reported at its own span
        let (workload_span, task_span) = (f.span_of("workload"), f.span_of("task"));
        Ok(match f.req::<String>("workload")?.as_str() {
            "channel" => ServedResult::Channel {
                output: f.req("output")?,
            },
            "digital" => ServedResult::Digital {
                completed: f.req("completed")?,
                failed: f.req("failed")?,
                retried: f.req("retried")?,
                outcomes: f.req("outcomes")?,
                stats: f.opt("stats")?,
                quarantine: {
                    f.req::<Vec<Failure>>("failures")?;
                    f.req("quarantine")?
                },
            },
            "analog" => ServedResult::Analog(match f.req::<String>("task")?.as_str() {
                "samples" => AnalogResult::Samples(f.req("samples")?),
                "characterization" => AnalogResult::Characterization {
                    up: f.req("up")?,
                    down: f.req("down")?,
                },
                "deviations" => AnalogResult::Deviations(f.req("deviations")?),
                other => {
                    let unknown = format!("unknown analog task {other:?}");
                    return Err(SpecError::new(unknown).at(task_span));
                }
            }),
            "spf" => ServedResult::Spf {
                theory: f.req("theory")?,
                run: f.opt("run")?,
            },
            other => {
                let unknown = format!("unknown result workload {other:?}");
                return Err(SpecError::new(unknown).at(workload_span));
            }
        })
    })
}

impl Read for ServedOutcome {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::node(value, "outcome", |f| {
            Ok(ServedOutcome {
                label: f.req("label")?,
                signals: f.req("signals")?,
                vcd: f.opt("vcd")?,
                error: f.opt("error")?,
            })
        })
    }
}

/// A `failure` node, checked and dropped: its cause already arrives as
/// the error of its scenario's outcome.
struct Failure;

impl Read for Failure {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::node(value, "failure", |f| {
            f.req::<usize>("index")?;
            f.req::<String>("label")?;
            f.opt::<u64>("seed")?;
            f.req::<u32>("retries")?;
            f.req::<String>("cause")?;
            Ok(Failure)
        })
    }
}

/// A sample's edge: the word `rising` or `falling`.
impl Read for Edge {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        let span = value.span();
        match String::read(value, tag, name)?.as_str() {
            "rising" => Ok(Edge::Rising),
            "falling" => Ok(Edge::Falling),
            other => Err(SpecError::new(format!("unknown edge {other:?}")).at(span)),
        }
    }
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

/// Every error kind and the word it is written as.
const KINDS: [(ServedErrorKind, &str); 6] = [
    (ServedErrorKind::Spec, "spec"),
    (ServedErrorKind::Lint, "lint"),
    (ServedErrorKind::Run, "run"),
    (ServedErrorKind::Shutdown, "shutdown"),
    (ServedErrorKind::Protocol, "protocol"),
    (ServedErrorKind::Internal, "internal"),
];

impl ServedErrorKind {
    fn as_word(self) -> &'static str {
        let word = KINDS.iter().find(|(k, _)| *k == self).map(|(_, w)| *w);
        word.expect("every kind has a word")
    }
}

impl Read for ServedErrorKind {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        let span = value.span();
        let word = String::read(value, tag, name)?;
        let kind = KINDS.iter().find(|(_, w)| *w == word).map(|&(k, _)| k);
        kind.ok_or_else(|| SpecError::new(format!("unknown error kind {word:?}")).at(span))
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
    Fields::node(parse_document(text)?, "error", |f| {
        Ok(ServedError {
            kind: f.req("kind")?,
            message: f.req("message")?,
            diagnostics: f.opt("diagnostics")?.unwrap_or_default(),
        })
    })
}

impl Read for ServedDiagnostic {
    fn read(value: Value, _: &str, _: &str) -> Result<Self, SpecError> {
        Fields::node(value, "diag", |f| {
            Ok(ServedDiagnostic {
                code: f.req("code")?,
                severity: f.req("severity")?,
                message: f.req("message")?,
                span: match (f.opt("line")?, f.opt("column")?) {
                    (Some(line), Some(column)) => Some((line, column)),
                    (None, None) => None,
                    _ => {
                        let both = "diag: fields \"line\" and \"column\" come together";
                        return Err(SpecError::new(both).at(f.span));
                    }
                },
            })
        })
    }
}

impl Read for Severity {
    fn read(value: Value, tag: &str, name: &str) -> Result<Self, SpecError> {
        let span = value.span();
        match String::read(value, tag, name)?.as_str() {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(SpecError::new(format!("unknown severity {other:?}")).at(span)),
        }
    }
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

    /// One result of every kind, with each optional field present
    /// somewhere and lists both empty and not.
    fn every_result() -> Vec<(&'static str, ExperimentResult)> {
        use crate::experiment::{ChannelResult, DigitalResult, SpfResult};
        use ivl_circuit::SimError;
        use ivl_core::delay::ExpChannel;
        use ivl_core::noise::EtaBounds;
        use ivl_core::Bit;

        let sig = |initial, times: &[f64]| Signal::from_times(initial, times).unwrap();
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
        vec![
            ("channel", channel),
            ("digital", digital),
            ("digital empty", bare_digital),
            ("digital without stats", no_stats),
            ("analog samples", samples),
            ("analog characterization", characterization),
            ("analog deviations", deviations),
            ("spf theory", spf_theory),
            ("spf run", spf_run),
        ]
    }

    /// One document of every kind the library writes, with each
    /// optional field present somewhere and lists both empty and not.
    fn every_document_kind() -> String {
        use crate::checkpoint::{self, DoneScenario};
        use ivl_core::Bit;

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
        for (name, result) in every_result() {
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

    /// Panics at the first line where `actual` differs from the golden
    /// file `path` (relative to the crate root), showing both lines.
    fn assert_matches_golden(path: &str, actual: &str) {
        let golden = std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")));
        let golden = golden.unwrap();
        if actual == golden {
            return;
        }
        let (mut expected, mut found) = (golden.split('\n'), actual.split('\n'));
        let show = |line: Option<&str>| line.map_or("end of file".to_owned(), |l| format!("{l:?}"));
        for number in 1.. {
            let (e, a) = (expected.next(), found.next());
            if e != a {
                panic!(
                    "{path} differs at line {number}:\n  expected {}\n  actual   {}",
                    show(e),
                    show(a)
                );
            }
        }
    }

    #[test]
    fn written_documents_match_the_golden_file() {
        assert_matches_golden("tests/wire_golden.txt", &every_document_kind());
    }

    /// What a client reads back from the document of `result`.
    fn served(result: &ExperimentResult) -> ServedResult {
        match result.clone() {
            ExperimentResult::Channel(c) => ServedResult::Channel { output: c.output },
            ExperimentResult::Digital(d) => ServedResult::Digital {
                completed: d.completed as u64,
                failed: d.failed as u64,
                retried: d.retried,
                outcomes: d
                    .outcomes
                    .into_iter()
                    .map(|o| ServedOutcome {
                        label: o.label,
                        signals: o.signals,
                        vcd: o.vcd,
                        error: o.error.map(|e| e.to_string()),
                    })
                    .collect(),
                stats: d.stats,
                quarantine: d.quarantine,
            },
            ExperimentResult::Analog(a) => ServedResult::Analog(a),
            ExperimentResult::Spf(p) => ServedResult::Spf {
                theory: p.theory,
                run: p.run,
            },
        }
    }

    #[test]
    fn every_result_kind_round_trips() {
        for (name, result) in every_result() {
            let back = parse_result(&render_result(&result));
            assert_eq!(back, Ok(served(&result)), "{name}");
        }
    }

    #[test]
    fn diagnostic_spans_are_bounded_and_whole() {
        let span = |fields: &str| {
            let text = format!(
                "faithful/1 error {{ kind = lint; message = \"m\"; diagnostics = [diag {{ \
                 code = \"IVL050\"; severity = info; message = \"d\"; {fields} }}] }}"
            );
            parse_error(&text).map(|e| e.diagnostics[0].span)
        };
        assert_eq!(span("line = 3; column = 9"), Ok(Some((3, 9))));
        assert_eq!(span(""), Ok(None));
        assert_eq!(
            span("line = 4294967295; column = 1"),
            Ok(Some((u32::MAX, 1)))
        );
        // past u32 is refused, not wrapped round to line 1
        let err = span("line = 4294967297; column = 3").unwrap_err();
        assert_eq!(err.message(), "diag: field \"line\" out of range");
        // half a span is refused, not dropped
        for half in ["line = 3", "column = 9"] {
            let err = span(half).unwrap_err();
            let both = "diag: fields \"line\" and \"column\" come together";
            assert_eq!(err.message(), both, "{half}");
        }
    }

    #[test]
    fn failures_and_quarantine_are_read_not_dropped() {
        let empty = "faithful/1 result { workload = digital; completed = 0; failed = 0; \
                     retried = 0; outcomes = []; failures = []; quarantine = [] }";
        assert!(parse_result(empty).is_ok());
        for (from, to, message) in [
            (
                "failures = []",
                "failures = 7",
                "result: field \"failures\" must be a list, found 7",
            ),
            (
                "quarantine = []",
                "quarantine = \"not a list\"",
                "result: field \"quarantine\" must be a list, found \"not a list\"",
            ),
            (
                "failures = []",
                "failures = [failure { index = x }]",
                "failure: field \"index\" must be an integer, found x",
            ),
            (
                "quarantine = []",
                "quarantine = [quarantined { index = 1; label = \"s\" }]",
                "quarantined: missing field \"spec\"",
            ),
        ] {
            let err = parse_result(&empty.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err.message(), message, "{to}");
        }
    }

    /// The documents of `tests/wire_golden.txt` by name, plus a netlist
    /// spec, which no shipped spec has.
    fn golden_documents() -> Vec<(String, String)> {
        let path = format!("{}/tests/wire_golden.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).unwrap();
        let mut docs: Vec<(String, String)> = golden
            .split("== ")
            .skip(1)
            .map(|doc| {
                let (name, text) = doc.split_once('\n').unwrap();
                (name.to_owned(), text.to_owned())
            })
            .collect();
        docs.push((
            "spec netlist".to_owned(),
            "faithful/1 digital {\n  topology = netlist {\n    nodes = [\n      \
             input { name = \"a\" },\n      \
             gate { name = \"g\"; kind = not; arity = 1; init = false },\n      \
             gate { name = \"t\"; kind = table { inputs = 1; rows = [1, 0] }; init = true },\n      \
             output { name = \"y\" }\n    ];\n    edges = [\n      \
             edge { from = \"a\"; to = \"g\"; pin = 0; channel = pure { delay = 1.0 } },\n      \
             edge { from = \"g\"; to = \"t\"; pin = 0 },\n      \
             edge { from = \"t\"; to = \"y\"; pin = 0 }\n    ];\n  };\n  \
             horizon = 10.0;\n  on_failure = retry { attempts = 2 };\n  \
             scenarios = [];\n  \
             outputs = outputs { signals = true; stats = false; vcd = false; watch = [\"g\"] };\n}\n"
                .to_owned(),
        ));
        docs
    }

    /// Malformed documents for every reader: `(document, from, to)`
    /// replaces the first `from` of the named golden document with `to`;
    /// an empty `from` reads `to` itself with the document's reader.
    const MALFORMED: &[(&str, &str, &str)] = &[
        // specs
        ("spec channel_pulse", "width = 3.0;", ""),
        ("spec channel_pulse", "at = 0.0;", "at = 0.0; bogus = 1;"),
        ("spec channel_pulse", "width = 3.0", "width = \"wide\""),
        ("spec channel_pulse", "width = 3.0", "width = 3"),
        ("spec channel_pulse", "width = 3.0;", "width = 3.0; width = 4.0;"),
        ("spec channel_pulse", "faithful/1 channel", "faithful/1 cooking"),
        ("spec", "", "faithful/1 [1, 2]"),
        ("spec", "", "faithful/1 channel"),
        ("spec channel_pulse", "input = pulse", "input = blip"),
        ("spec channel_pulse", "tau = 1.0;", "tau = [1.0];"),
        ("spec channel_pulse", "tau = 1.0;", "tau = k { x = 1 };"),
        ("spec channel_pulse", "channel = involution {", "channel = 3; c = involution {"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "train { pulses = [[1.0]] }"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "train { pulses = [[1.0, x]] }"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "train { pulses = [1.0] }"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "train { pulses = 1.0 }"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "times { initial = maybe; at = [] }"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "times { initial = true; at = [x] }"),
        ("spec channel_pulse", "pulse {\n    at = 0.0;\n    width = 3.0;\n  }", "times { initial = \"true\"; at = [] }"),
        ("spec digital_sweep", "stages = 8;", "stages = 4294967297;"),
        ("spec digital_sweep", "stages = 8;", "stages = 8.0;"),
        ("spec digital_sweep", "stages = 8;", "stages = -1;"),
        ("spec digital_sweep", "stages = 8;", ""),
        ("spec digital_sweep", "topology = chain", "topology = ring"),
        ("spec digital_sweep", "topology = chain {", "topology = 3; t = chain {"),
        ("spec digital_sweep", "horizon = 100.0;", ""),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = true;"),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = 100.0; max_events = 1.5;"),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = 100.0; max_events = 18446744073709551615;"),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = 100.0; on_failure = panic;"),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = 100.0; on_failure = retry { attempts = 4294967296 };"),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = 100.0; on_failure = retry;"),
        ("spec digital_sweep", "horizon = 100.0;", "horizon = 100.0; on_failure = [];"),
        ("spec digital_sweep", "workers = 4;", "workers = 4294967296;"),
        ("spec digital_sweep", "workers = 4;", "workers = \"four\";"),
        ("spec digital_sweep", "scenarios = [", "scenarios = 3; s = ["),
        ("spec digital_sweep", "scenario {", "scene {"),
        ("spec digital_sweep", "label = \"draw0\";", "label = 7;"),
        ("spec digital_sweep", "label = \"draw0\";", ""),
        ("spec digital_sweep", "seed = 0;\n      inputs", "seed = 0.5;\n      inputs"),
        ("spec digital_sweep", "inputs = [", "inputs = 1; i = ["),
        ("spec digital_sweep", "drive {", "push {"),
        ("spec digital_sweep", "port = \"a\";", "port = [];"),
        ("spec digital_sweep", "port = \"a\";", ""),
        ("spec digital_sweep", "outputs = outputs {", "outputs = output {"),
        ("spec digital_sweep", "signals = true;", "signals = 1;"),
        ("spec digital_sweep", "vcd = false;", ""),
        ("spec digital_sweep", "vcd = false;", "vcd = false; watch = 3;"),
        ("spec digital_sweep", "vcd = false;", "vcd = false; watch = [1];"),
        ("spec digital_sweep", "vcd = false;", "vcd = false; extra = 1;"),
        ("spec netlist", "input { name = \"a\" }", "inputs { name = \"a\" }"),
        ("spec netlist", "input { name = \"a\" }", "input { name = a }"),
        ("spec netlist", "input { name = \"a\" }", "input { name = 1 }"),
        ("spec netlist", "kind = not", "kind = maj"),
        ("spec netlist", "kind = not", "kind = 1"),
        ("spec netlist", "arity = 1", "arity = 5000000000"),
        ("spec netlist", "init = false", "init = 0"),
        ("spec netlist", "rows = [1, 0]", "rows = [1, 0.5]"),
        ("spec netlist", "rows = [1, 0]", "rows = 1"),
        ("spec netlist", "inputs = 1;", ""),
        ("spec netlist", "nodes = [", "nodes = 1; n = ["),
        ("spec netlist", "edges = [", "edges = {}; e = ["),
        ("spec netlist", "edge {", "wire {"),
        ("spec netlist", "pin = 0; channel", "channel"),
        ("spec netlist", "pin = 0; channel", "pin = 4294967296; channel"),
        ("spec netlist", "from = \"a\"", "from = 1"),
        ("spec netlist", "channel = pure { delay = 1.0 }", "channel = 1.0"),
        ("spec netlist", "watch = [\"g\"]", "watch = [\"g\", 1]"),
        ("spec netlist", "topology = netlist", "topology = mesh"),
        ("spec analog_characterize", "stages = 7;", "stages = 7.5;"),
        ("spec analog_characterize", "width_scale = 1.0;", ""),
        ("spec analog_characterize", "chain = chain", "chain = link"),
        ("spec analog_characterize", "volts = 1.0", "volts = true"),
        ("spec analog_characterize", "supply = dc", "supply = ac"),
        ("spec analog_characterize", "supply = dc {\n    volts = 1.0;\n  }", "supply = sine { nominal = 1.0; amplitude = 0.1; period = 5.0 }"),
        ("spec analog_characterize", "sweep = sweep", "sweep = scan"),
        ("spec analog_characterize", "widths = [20.0,", "widths = [\"a\","),
        ("spec analog_characterize", "widths = [", "widths = 5; w = ["),
        ("spec analog_characterize", "stage = 3;", "stage = 4294967296;"),
        ("spec analog_characterize", "dt = 0.05;", ""),
        ("spec analog_characterize", "integrator = rk45", "integrator = euler"),
        ("spec analog_characterize", "rtol = 1e-6;", "rtol = \"tight\";"),
        ("spec analog_characterize", "task = characterize", "task = boil"),
        ("spec analog_characterize", "task = characterize", "task = samples { inverted = 2 }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = exp { tau = 1.0; t_p = 0.5; v_th = 0.5 }; orientation = sideways }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = exp { tau = 1.0; t_p = 0.5; v_th = 0.5 }; orientation = 1 }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = rational { a = 1.0 }; orientation = both }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = guess; orientation = both }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = empirical { up = [[1.0]]; down = [] }; orientation = both }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = empirical { up = [[1.0, 2.0]]; down = [[x, 1.0]] }; orientation = both }"),
        ("spec analog_characterize", "task = characterize", "task = deviations { reference = empirical { up = 3; down = [] }; orientation = both }"),
        ("spec analog_characterize", "workers = 4;", "workers = -4;"),
        ("spec spf_theory", "delay = exp", "delay = cubic"),
        ("spec spf_theory", "tau = 1.0;", "tau = \"x\";"),
        ("spec spf_theory", "delay = exp {\n    tau = 1.0;\n    t_p = 0.5;\n    v_th = 0.5;\n  }", "delay = rational { a = 1.0; b = 2.0 }"),
        ("spec spf_theory", "eta_minus = 0.02;", "eta_minus = \"x\";"),
        ("spec spf_theory", "eta_plus = 0.02;", ""),
        ("spec spf_theory", "task = theory", "task = dance"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = laplace; input = zero; horizon = 1.0 }"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = uniform { seed = -1 }; input = zero; horizon = 1.0 }"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = uniform { seed = 18446744073709551616 }; input = zero; horizon = 1.0 }"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = gaussian { sigma = 1 }; input = zero; horizon = 1.0 }"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = constant { shift = x }; input = zero; horizon = 1.0 }"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = zero; input = zero }"),
        ("spec spf_theory", "task = theory", "task = simulate { noise = zero; input = zero; horizon = 1.0; extra = 2 }"),
        // results
        ("result channel", "initial = true", "initial = yes"),
        ("result channel", "initial = true;", ""),
        ("result channel", "initial = true;", "initial = true; initial = false;"),
        ("result channel", "times = [0.25,", "times = [\"a\","),
        ("result channel", "times = [0.25, 1.5,", "times = [1.5, 0.25,"),
        ("result channel", "times = [", "times = 3; t = ["),
        ("result channel", "output = sig", "output = sag"),
        ("result channel", "output = sig {", "output = 3; o = sig {"),
        ("result channel", "initial = true;", "initial = true; name = \"o\";"),
        ("result channel", "workload = channel", "workload = cooking"),
        ("result channel", "workload = channel", "workload = 1"),
        ("result channel", "workload = channel;", ""),
        ("result channel", "faithful/1 result", "faithful/1 outcome"),
        ("result", "", "faithful/1 [result]"),
        ("result digital", "completed = 2;", "completed = 2.0;"),
        ("result digital", "completed = 2;", "completed = 18446744073709551615;"),
        ("result digital", "retried = 2;", ""),
        ("result digital", "outcome {", "outcomes {"),
        ("result digital", "outcomes = [", "outcomes = 2; o = ["),
        ("result digital", "name = \"y\";", ""),
        ("result digital", "name = \"y\";", "name = 7;"),
        ("result digital", "signals = [\n", "signals = 1; s = [\n"),
        ("result digital", "vcd = \"", "vcd = 5; v = \""),
        ("result digital", "error = \"unknown", "error = []; e = \"unknown"),
        ("result digital", "label = \"s1\";\n      signals", "signals"),
        ("result digital", "scenarios = 3;", "scenarios = 3.5;"),
        ("result digital", "scenarios = 3;", "scenarios = 18446744073709551615;"),
        ("result digital", "min_pulse_width = 1.5;", "min_pulse_width = x;"),
        ("result digital", "stats = stats", "stats = stat"),
        ("result digital", "output_transitions = 4;", ""),
        ("result digital", "failure {\n      index = 1;", "failure {\n      index = x;"),
        ("result digital", "failure {", "fail {"),
        ("result digital", "cause = \"unknown", "cause = 1; c = \"unknown"),
        ("result digital", "quarantined {", "quarantine {"),
        ("result digital", "spec = \"faithful", "spec = 1; s = \"faithful"),
        ("result digital", "quarantine = [", "quarantine = 1; q = ["),
        ("result digital empty", "failures = [];", "failures = 7;"),
        ("result digital empty", "quarantine = [];", "quarantine = \"not a list\";"),
        ("result digital empty", "failures = [];", "failures = [1];"),
        ("result digital empty", "quarantine = [];", "quarantine = [quarantined { index = 1; label = \"a\" }];"),
        ("result digital empty", "failures = [];", ""),
        ("result digital without stats", "quarantine = [];", ""),
        ("result analog samples", "task = samples", "task = boil"),
        ("result analog samples", "task = samples;", ""),
        ("result analog samples", "edge = rising", "edge = sideways"),
        ("result analog samples", "edge = rising", "edge = 1"),
        ("result analog samples", "offset = -1.5", "offset = \"x\""),
        ("result analog samples", "delay = 10.25;", ""),
        ("result analog samples", "sample {", "point {"),
        ("result analog samples", "samples = [", "samples = 3; s = ["),
        ("result analog samples", "edge = rising;", "edge = rising; extra = 1;"),
        ("result analog characterization", "up = [", "u = ["),
        ("result analog characterization", "down = [];", "down = [1.0];"),
        ("result analog deviations", "deviation = -0.125", "deviation = true"),
        ("result analog deviations", "edge = falling", "edge = up"),
        ("result analog deviations", "deviations = [", "deviations = 1; d = ["),
        ("result spf theory", "tau = 0.6488332285053009", "tau = \"x\""),
        ("result spf theory", "gamma = 0.5426346618429234;", ""),
        ("result spf theory", "theory = theory", "theory = thoery"),
        ("result spf theory", "lock_bound = 1.2131471805599454;", "lock_bound = 1.0; extra = 1.0;"),
        ("result spf run", "events = 17", "events = 17.0"),
        ("result spf run", "events = 17", "events = 18446744073709551615"),
        ("result spf run", "or = sig {", "or = 3; o = sig {"),
        ("result spf run", "run = run", "run = walk"),
        ("result spf run", "feedback = sig {", "feedback = sig {\n      name = \"f\";"),
        ("result spf run", "times = [2.0]", "times = [2.0, 1.0]"),
        ("result spf run", "events = 17;", ""),
        // error documents
        ("error lint", "kind = lint", "kind = weird"),
        ("error lint", "kind = lint", "kind = 3"),
        ("error lint", "kind = lint;", ""),
        ("error lint", "message = \"rejected by lint\";", "message = 5;"),
        ("error lint", "diag {", "diagnostic {"),
        ("error lint", "severity = info", "severity = fatal"),
        ("error lint", "severity = info", "severity = 1"),
        ("error lint", "code = \"IVL050\";", "code = 50;"),
        ("error lint", "code = \"IVL050\";", ""),
        ("error lint", "code = \"IVL050\";", "code = \"IVL050\"; code = \"IVL051\";"),
        ("error lint", "line = 3;", "line = 4294967297;"),
        ("error lint", "column = 9;", "column = 4294967299;"),
        ("error lint", "line = 3;", "line = -3;"),
        ("error lint", "column = 9;", ""),
        ("error lint", "line = 3;", ""),
        ("error lint", "column = 9;", "column = 9; extra = 1;"),
        ("error lint", "diagnostics = [", "diagnostics = 3; d = ["),
        ("error lint", "diagnostics = [", "diagnostics = [1]; d = ["),
        ("error spec", "message = \"bad\\nspec\";", "message = \"bad\\nspec\"; diagnostics = [];"),
        ("error spec", "faithful/1 error {", "faithful/1 fault {"),
        ("error", "", "faithful/1 error"),
        ("error", "", "faithful/1 error {"),
        // checkpoints
        ("checkpoint", "version = 1;", "version = 99;"),
        ("checkpoint", "version = 1;", "version = one;"),
        ("checkpoint", "version = 1;", ""),
        ("checkpoint", "total = 5;", "total = 1;"),
        ("checkpoint", "total = 5;", "total = 5.0;"),
        ("checkpoint", "retried = 1;", "retried = -1;"),
        ("checkpoint", "spec = \"", "spec = 3; s = \""),
        ("checkpoint", "done = [", "done = 4; d = ["),
        ("checkpoint", "done {", "dome {"),
        ("checkpoint", "index = 3;", "index = 0;"),
        ("checkpoint", "index = 3;", "index = 18446744073709551615;"),
        ("checkpoint", "index = 3;", "index = three;"),
        ("checkpoint", "index = 3;", ""),
        ("checkpoint", "processed = 7;", "processed = \"7\";"),
        ("checkpoint", "label = \"s0\";", "label = s0;"),
        ("checkpoint", "label = \"s0\";", "label = 0;"),
        ("checkpoint", "label = \"s0\";", "label = \"s0\"; label = \"s1\";"),
        ("checkpoint", "signals = [\n", "signals = 1; s = [\n"),
        ("checkpoint", "name = \"y\";", ""),
        ("checkpoint", "times = [1.25]", "times = [-1.25]"),
        ("checkpoint", "scheduled = 9;", "scheduled = 9; extra = 0;"),
        ("checkpoint empty", "done = [];", "done = [1];"),
        ("checkpoint", "", "faithful/1 checkpoint { version = 1 }"),
    ];

    /// What each reader says about each of [`MALFORMED`]: `Ok` or the
    /// error's text.
    fn reader_verdicts() -> String {
        use std::fmt::Write as _;
        let docs = golden_documents();
        let mut out = String::new();
        for &(doc, from, to) in MALFORMED {
            let text = if from.is_empty() {
                to.to_owned()
            } else {
                let (_, base) = docs.iter().find(|(name, _)| name == doc).unwrap();
                assert!(base.contains(from), "{doc}: no {from:?}");
                base.replacen(from, to, 1)
            };
            let verdict = match doc.split(' ').next().unwrap() {
                "spec" => text
                    .parse::<crate::ExperimentSpec>()
                    .map(drop)
                    .map_err(|e| e.to_string()),
                "result" => parse_result(&text).map(drop).map_err(|e| e.to_string()),
                "error" => parse_error(&text).map(drop).map_err(|e| e.to_string()),
                "checkpoint" => crate::checkpoint::parse(&text)
                    .map(drop)
                    .map_err(|e| e.to_string()),
                other => panic!("no reader for {other:?}"),
            };
            let _ = writeln!(out, "== {doc}: {from:?} -> {to:?}");
            let _ = writeln!(out, "{}", verdict.err().as_deref().unwrap_or("Ok"));
        }
        out
    }

    #[test]
    fn reader_errors_match_the_golden_file() {
        assert_matches_golden("tests/reader_golden.txt", &reader_verdicts());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_result("faithful/1 result { workload = cooking }").is_err());
        assert!(parse_result("not a document").is_err());
        assert!(parse_error("faithful/1 error { kind = weird; message = \"x\" }").is_err());
    }
}
