//! Golden corpus for `faithful::lint`: every file under
//! `tests/lint_corpus/` triggers a specific diagnostic, every shipped
//! spec under `specs/` is clean, and the `faithful-lint` CLI agrees.

use std::path::Path;
use std::process::Command;

use faithful::core::factory::ChannelRegistry;
use faithful::{
    lint, lint_text, lint_text_for_service, DigitalSpec, Error, Experiment, ExperimentSpec,
    LintConfig, NetlistSpec, ScenarioSpec, Severity, SignalSpec, SpfSpec, SpfTask, TopologySpec,
};

fn registry() -> ChannelRegistry {
    ChannelRegistry::with_builtins()
}

fn corpus(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_corpus")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every corpus file, its expected diagnostic and severity — one row
/// per lint pass category.
const EXPECTED: &[(&str, &str, Severity)] = &[
    ("zero_delay_cycle.spec", "IVL001", Severity::Error),
    ("delayed_feedback.spec", "IVL002", Severity::Info),
    ("undriven_output.spec", "IVL004", Severity::Error),
    ("constraint_c_violation.spec", "IVL011", Severity::Error),
    ("bad_channel_params.spec", "IVL010", Severity::Error),
    ("dead_stimulus.spec", "IVL020", Severity::Warning),
    ("unknown_kind.spec", "IVL030", Severity::Error),
    ("unknown_port.spec", "IVL033", Severity::Error),
    ("empty_sweep_axis.spec", "IVL034", Severity::Error),
    ("analog_stage_out_of_range.spec", "IVL035", Severity::Error),
    ("duplicate_nodes.spec", "IVL031", Severity::Error),
    ("unknown_edge_ref.spec", "IVL032", Severity::Error),
    ("workers_zero.spec", "IVL037", Severity::Warning),
    ("duplicate_labels.spec", "IVL038", Severity::Warning),
    ("bad_truth_table.spec", "IVL039", Severity::Error),
    ("budget_too_small.spec", "IVL040", Severity::Warning),
    ("retry_deterministic.spec", "IVL041", Severity::Warning),
    ("service_workers_override.spec", "IVL050", Severity::Info),
    ("grid_zero.spec", "IVL060", Severity::Error),
    ("random_dag_unseeded.spec", "IVL061", Severity::Warning),
    ("watch_unknown_node.spec", "IVL062", Severity::Error),
];

#[test]
fn every_corpus_file_triggers_its_diagnostic() {
    let registry = registry();
    for (file, code, severity) in EXPECTED {
        // IVL050 only exists in experiment-service context.
        let lint_fn = if *code == "IVL050" {
            lint_text_for_service
        } else {
            lint_text
        };
        let report = lint_fn(&corpus(file), &registry)
            .unwrap_or_else(|e| panic!("{file} failed to parse: {e}"));
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == *code)
            .unwrap_or_else(|| panic!("{file}: no {code} in {report}"));
        assert_eq!(hit.severity, *severity, "{file}: {hit}");
        assert!(
            hit.span.is_some(),
            "{file}: {code} should carry a source span"
        );
    }
}

#[test]
fn corpus_covers_every_corpus_file() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus");
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            EXPECTED.iter().any(|(file, ..)| *file == name),
            "{name} is not registered in EXPECTED"
        );
    }
}

#[test]
fn shipped_specs_and_experiments_md_lint_clean() {
    let registry = registry();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(root.join("specs")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let report = lint_text(&text, &registry).unwrap();
        assert!(report.is_clean(), "{}: {report}", path.display());
    }
}

#[test]
fn diagnostic_spans_point_into_the_text() {
    let report = lint_text(&corpus("unknown_kind.spec"), &registry()).unwrap();
    let d = &report.diagnostics()[0];
    assert_eq!(d.code, "IVL030");
    let span = d.span.expect("parsed specs carry spans");
    // the `warp { ... }` node on line 3
    assert_eq!((span.line, span.column), (3, 13));
}

/// The rendered `line:col: severity[code]: message` report of `text`
/// (`-` where a diagnostic has no span).
fn render_report(report: &faithful::LintReport) -> String {
    let mut out = String::new();
    for d in report.diagnostics() {
        let at = d
            .span
            .map_or_else(|| "-".to_owned(), |s| format!("{}:{}", s.line, s.column));
        out.push_str(&format!(
            "{at}: {}[{}]: {}\n",
            d.severity, d.code, d.message
        ));
    }
    out
}

#[test]
fn lint_output_matches_the_golden_file() {
    let registry = registry();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["tests/lint_corpus", "specs"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            files.push(format!("{dir}/{name}"));
        }
    }
    files.sort();
    let mut actual = String::new();
    for file in &files {
        let text = std::fs::read_to_string(root.join(file)).unwrap();
        // the service context adds IVL050 to the plain pass set
        let report =
            lint_text_for_service(&text, &registry).unwrap_or_else(|e| panic!("{file}: {e}"));
        actual.push_str(&format!("== {file}\n{}", render_report(&report)));
    }
    let golden = std::fs::read_to_string(root.join("tests/lint_golden.txt")).unwrap();
    if actual == golden {
        return;
    }
    // the first line that differs, not the whole file
    let (mut expected, mut found) = (golden.split('\n'), actual.split('\n'));
    let show = |line: Option<&str>| line.map_or("end of file".to_owned(), |l| format!("{l:?}"));
    for number in 1.. {
        let (e, a) = (expected.next(), found.next());
        if e != a {
            panic!(
                "tests/lint_golden.txt differs at line {number}:\n  expected {}\n  actual   {}",
                show(e),
                show(a)
            );
        }
    }
}

#[test]
fn a_quoted_channel_parameter_keeps_its_span() {
    // the spans come from the parse, not from matching re-rendered
    // channel text, so `"exp"` (which renders as the word `exp`) points
    // at its channel like the unquoted spelling does
    for delay in ["exp", "\"exp\""] {
        let text = format!(
            "faithful/1 channel {{\n  channel = eta {{ delay = {delay}; tau = 1.0; t_p = 0.5; \
             v_th = 0.5; minus = 0.4; plus = 0.4 }};\n  input = zero;\n}}\n"
        );
        let report = lint_text(&text, &registry()).unwrap();
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "IVL011")
            .unwrap_or_else(|| panic!("delay = {delay}: no IVL011 in {report}"));
        let span = hit.span.unwrap_or_else(|| panic!("delay = {delay}: {hit}"));
        assert_eq!((span.line, span.column), (2, 13), "delay = {delay}");
    }
}

#[test]
fn parsed_experiments_lint_with_spans() {
    let experiment = Experiment::parse(&corpus("unknown_kind.spec")).unwrap();
    let at = |report: &faithful::LintReport| {
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, "IVL030");
        d.span.map(|s| (s.line, s.column))
    };
    assert_eq!(at(&experiment.lint_report()), Some((3, 13)));
    let Err(Error::Lint(report)) = experiment.run() else {
        panic!("expected Error::Lint");
    };
    assert_eq!(at(&report), Some((3, 13)));
}

#[test]
fn constraint_c_violation_is_rejected_by_run_before_any_event() {
    let err = Experiment::parse(&corpus("constraint_c_violation.spec"))
        .unwrap()
        .run()
        .unwrap_err();
    let Error::Lint(report) = err else {
        panic!("expected Error::Lint, got {err:?}");
    };
    assert!(report.has_errors());
    assert!(report.diagnostics().iter().any(|d| d.code == "IVL011"));
    // the message renders the report
    assert!(Error::Lint(report).to_string().contains("IVL011"));
}

#[test]
fn lint_off_reaches_the_runtime_layer() {
    let err = Experiment::parse(&corpus("constraint_c_violation.spec"))
        .unwrap()
        .with_lint(LintConfig::Off)
        .run()
        .unwrap_err();
    assert!(matches!(err, Error::Spf(_)), "{err:?}");
}

#[test]
fn warnings_do_not_deny() {
    // IVL037 is a warning: deny mode still runs the experiment
    let result = Experiment::parse(&corpus("workers_zero.spec"))
        .unwrap()
        .run()
        .unwrap();
    assert!(result.digital().is_some());
}

#[test]
fn unreachable_node_is_ivl005() {
    let netlist = NetlistSpec::new()
        .input("a")
        .gate("g1", faithful::GateKindSpec::Not, false)
        .gate("orphan_src", faithful::GateKindSpec::Not, false)
        .gate("orphan", faithful::GateKindSpec::Not, false)
        .output("y")
        .channel("a", "g1", 0, faithful::ChannelSpec::pure(1.0))
        .channel("g1", "y", 0, faithful::ChannelSpec::pure(1.0))
        .channel("orphan_src", "orphan", 0, faithful::ChannelSpec::pure(1.0))
        .channel("orphan", "orphan_src", 0, faithful::ChannelSpec::pure(1.0));
    let spec = ExperimentSpec::digital(DigitalSpec::new(TopologySpec::Netlist(netlist), 10.0));
    let report = lint(&spec, &registry());
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "IVL005" && d.severity == Severity::Warning),
        "{report}"
    );
}

#[test]
fn non_finite_horizon_is_ivl035() {
    let spec = ExperimentSpec::digital(
        DigitalSpec::new(
            TopologySpec::InverterChain {
                stages: 2,
                channel: faithful::ChannelSpec::pure(1.0),
            },
            f64::NAN,
        )
        .with_scenario(ScenarioSpec::new("s").with_input("a", SignalSpec::pulse(0.0, 2.0))),
    );
    let report = lint(&spec, &registry());
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "IVL035" && d.severity == Severity::Error),
        "{report}"
    );
}

#[test]
fn invalid_signal_is_ivl036() {
    let spec = ExperimentSpec::digital(
        DigitalSpec::new(
            TopologySpec::InverterChain {
                stages: 2,
                channel: faithful::ChannelSpec::pure(1.0),
            },
            10.0,
        )
        .with_scenario(ScenarioSpec::new("s").with_input(
            "a",
            SignalSpec::Times {
                initial: false,
                times: vec![3.0, 1.0],
            },
        )),
    );
    let report = lint(&spec, &registry());
    assert!(
        report.diagnostics().iter().any(|d| d.code == "IVL036"),
        "{report}"
    );
}

#[test]
fn spf_filtered_input_is_ivl021() {
    let spec = ExperimentSpec::spf(SpfSpec::exp(1.0, 0.5, 0.5, 0.02, 0.02).with_task(
        SpfTask::Simulate {
            noise: faithful::NoiseSpec::WorstCase,
            input: SignalSpec::pulse(0.0, 0.01),
            horizon: 100.0,
        },
    ));
    let report = lint(&spec, &registry());
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == "IVL021" && d.severity == Severity::Info),
        "{report}"
    );
}

// ---------------------------------------------------------------------
// Generated topologies: lint models them as `generate::Family` does
// ---------------------------------------------------------------------

/// The rendered diagnostics of `text`.
fn rendered(text: &str) -> Vec<String> {
    lint_text(text, &registry())
        .unwrap()
        .diagnostics()
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn a_zero_stage_chain_checks_its_one_channel() {
    // the generator wires `a → y` through one channel, so a channel the
    // factory rejects is IVL010 at every stage count, zero included
    for stages in [0, 1] {
        let text = format!(
            "faithful/1 digital {{\n  topology = chain {{ stages = {stages}; \
             channel = pure {{ }} }};\n  horizon = 10.0;\n  scenarios = [];\n}}\n"
        );
        assert_eq!(
            rendered(&text),
            [
                "error[IVL010]: channel \"pure\": parameters rejected: invalid channel \
              parameters: missing parameter \"delay\" (line 2, column 44)"
            ],
            "stages = {stages}"
        );
    }
}

#[test]
fn ivl020_on_a_generator_quotes_nodes_the_generator_has() {
    use faithful::circuit::generate::Family;
    let dead = corpus("dead_stimulus.spec");
    for (topology, family) in [
        (
            "grid { width = 4; height = 4;",
            Family::Grid {
                width: 4,
                height: 4,
            },
        ),
        (
            "random_dag { nodes = 9; seed = 3;",
            Family::RandomDag { nodes: 9 },
        ),
        ("fat_tree { depth = 2;", Family::FatTree { depth: 2 }),
    ] {
        let text = dead.replace("chain {\n    stages = 4;", topology);
        let report = lint_text(&text, &registry()).unwrap();
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "IVL020")
            .unwrap_or_else(|| panic!("{topology} no IVL020 in {report}"));
        let hop = hit.message.split("channel ").nth(1).unwrap();
        let names: Vec<&str> = hop.split('"').skip(1).step_by(2).collect();
        assert_eq!(names.len(), 2, "{hit}");
        for name in names {
            assert!(
                family.node_id(name).is_some(),
                "{topology} {name:?} is no node of {family:?}: {hit}"
            );
        }
    }
}

#[test]
fn ivl040_counts_every_leaf_a_fat_tree_wires_to_its_input() {
    // `a` drives all 16 leaves directly, so one pulse schedules 32
    // events before any gate fires
    let text = "faithful/1 digital {\n  topology = fat_tree { depth = 4; \
                channel = pure { delay = 1.0 } };\n  horizon = 20.0;\n  max_events = 20;\n  \
                scenarios = [ scenario { label = \"s\"; inputs = [ drive { port = \"a\"; \
                signal = pulse { at = 1.0; width = 5.0 } } ] } ];\n}\n";
    assert_eq!(
        rendered(text),
        [
            "warning[IVL040]: scenario \"s\" schedules at least 32 events from its input \
             stimuli alone, which already exceeds max_events = 20 (line 4, column 16)"
        ]
    );
    let result = Experiment::parse(text).unwrap().run().unwrap();
    let outcome = &result.digital().unwrap().outcomes[0];
    assert!(
        matches!(
            outcome.error,
            Some(faithful::circuit::SimError::MaxEventsExceeded { budget: 20, .. })
        ),
        "{:?}",
        outcome.error
    );
}

/// A chain of `stages` involution channels under four pulses: 0.85 and
/// 0.9 die in the second channel, 1.15 in the third, and 3.0 shrinks
/// until the twentieth cancels it.
fn shrinking_chain(stages: u32) -> String {
    let mut text = format!(
        "faithful/1 digital {{\n  topology = chain {{\n    stages = {stages};\n    \
         channel = involution {{ delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5 }};\n  }};\n  \
         horizon = 50.0;\n  scenarios = [\n"
    );
    for (label, width) in [("s1", 0.85), ("s2", 1.15), ("s3", 0.9), ("s4", 3.0)] {
        text.push_str(&format!(
            "    scenario {{ label = \"{label}\"; inputs = [ drive {{ port = \"a\"; \
             signal = pulse {{ at = 1.0; width = {width} }} }} ] }},\n"
        ));
    }
    text.push_str("  ];\n}\n");
    text
}

#[test]
fn a_pulse_that_dies_deep_in_a_chain_names_its_stage() {
    let dies = |label: &str, hop: &str, more: &str| {
        format!(
            "warning[IVL020]: scenario \"{label}\": stimulus provably cancels in the channel \
             {hop}{more} (line 4, column 15)"
        )
    };
    let s1 = dies("s1", "\"inv1\" -> \"inv2\"", " (and 1 more scenario(s))");
    assert_eq!(
        rendered(&shrinking_chain(3)),
        [s1.clone(), dies("s2", "\"inv2\" -> \"y\"", "")]
    );
    assert_eq!(
        rendered(&shrinking_chain(12)),
        [s1.clone(), dies("s2", "\"inv2\" -> \"inv3\"", "")]
    );
    assert_eq!(
        rendered(&shrinking_chain(100_000)),
        [
            s1,
            dies("s2", "\"inv2\" -> \"inv3\"", ""),
            dies("s4", "\"inv19\" -> \"inv20\"", ""),
        ]
    );
}

// ---------------------------------------------------------------------
// The CLI
// ---------------------------------------------------------------------

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faithful-lint"))
}

#[test]
fn cli_flags_the_corpus_and_passes_the_shipped_specs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = cli()
        .current_dir(root)
        .arg("tests/lint_corpus/unknown_kind.spec")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("tests/lint_corpus/unknown_kind.spec:3:13: error[IVL030]:"),
        "{stdout}"
    );

    let out = cli()
        .current_dir(root)
        .args([
            "specs/digital_sweep.spec",
            "specs/analog_characterize.spec",
            "specs/spf_theory.spec",
            "specs/channel_pulse.spec",
            "--markdown",
            "EXPERIMENTS.md",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty(), "clean specs print nothing");
}

#[test]
fn cli_markdown_spans_are_offset_to_the_enclosing_file() {
    let dir = std::env::temp_dir().join("faithful_lint_md_test");
    std::fs::create_dir_all(&dir).unwrap();
    let md = dir.join("doc.md");
    std::fs::write(
        &md,
        "# doc\n\nsome prose\n\n```text\nfaithful/1 channel {\n  channel = warp {};\n  input = zero;\n}\n```\n",
    )
    .unwrap();
    let out = cli().arg("--markdown").arg(&md).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // `warp {}` sits on file line 7 (line 2 of the fenced block)
    assert!(stdout.contains(":7:13: error[IVL030]:"), "{stdout}");
}

#[test]
fn cli_deny_warnings_escalates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let warn_only = "tests/lint_corpus/workers_zero.spec";
    let ok = cli().current_dir(root).arg(warn_only).output().unwrap();
    assert_eq!(ok.status.code(), Some(0));
    let denied = cli()
        .current_dir(root)
        .args(["--deny-warnings", warn_only])
        .output()
        .unwrap();
    assert_eq!(denied.status.code(), Some(1));
}

#[test]
fn ivl050_only_fires_in_service_context() {
    let registry = registry();
    let text = corpus("service_workers_override.spec");
    // the default path says nothing: workers is honored by Experiment::run
    let plain = lint_text(&text, &registry).unwrap();
    assert!(
        plain.diagnostics().iter().all(|d| d.code != "IVL050"),
        "{plain}"
    );
    assert!(plain.is_clean(), "{plain}");
    // the service path flags it as informational, never blocking
    let served = lint_text_for_service(&text, &registry).unwrap();
    let hit = served
        .diagnostics()
        .iter()
        .find(|d| d.code == "IVL050")
        .unwrap_or_else(|| panic!("no IVL050 in {served}"));
    assert_eq!(hit.severity, Severity::Info);
    assert!(hit.message.contains("shared pool"), "{}", hit.message);
    assert!(!served.has_errors());
}

#[test]
fn cli_service_flag_surfaces_ivl050() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let file = "tests/lint_corpus/service_workers_override.spec";
    let plain = cli().current_dir(root).arg(file).output().unwrap();
    assert_eq!(plain.status.code(), Some(0));
    assert!(!String::from_utf8(plain.stdout).unwrap().contains("IVL050"));
    let served = cli()
        .current_dir(root)
        .args(["--service", file])
        .output()
        .unwrap();
    // info-severity: printed, but still exit 0
    assert_eq!(served.status.code(), Some(0));
    let stdout = String::from_utf8(served.stdout).unwrap();
    assert!(stdout.contains("info[IVL050]"), "{stdout}");
}
