//! Generated topologies through the facade: watched node names resolve
//! through the generators' closed-form naming scheme in the linter just
//! as in a built circuit, and a topology too large to address is a
//! typed error from `Experiment::run`, not an allocation abort.

use faithful::core::factory::ChannelRegistry;
use faithful::{lint_text, Error, Experiment, LintConfig};

/// A one-scenario spec over `topology`, watching `names`.
fn spec(topology: &str, names: &[&str]) -> String {
    let watch: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
    format!(
        "faithful/1 digital {{\n  topology = {topology};\n  horizon = 10.0;\n  \
         scenarios = [ scenario {{ label = \"s\"; inputs = [ drive {{ port = \"a\"; \
         signal = pulse {{ at = 0.0; width = 2.0 }} }} ] }} ];\n  \
         outputs = outputs {{ signals = true; stats = true; vcd = false; watch = [{}] }};\n}}\n",
        watch.join(", ")
    )
}

/// The number of IVL062 (unknown watched node) diagnostics.
fn unknown_watches(text: &str) -> usize {
    lint_text(text, &ChannelRegistry::with_builtins())
        .unwrap()
        .diagnostics()
        .iter()
        .filter(|d| d.code == "IVL062")
        .count()
}

#[test]
fn lint_resolves_watched_names_through_the_naming_scheme() {
    let pure = "channel = pure { delay = 1.0 };";
    let cases = [
        (
            format!("chain {{ stages = 12; {pure} }}"),
            &["a", "y", "inv0", "inv11"][..],
            &["inv12", "inv01", "inv+1", "inv"][..],
        ),
        (
            format!("grid {{ width = 3; height = 2; {pure} }}"),
            &["g0_0", "g2_1"],
            &["g3_0", "g0_2", "g01_1", "g1_", "g1_1_1"],
        ),
        (
            format!("random_dag {{ nodes = 30; seed = 1; {pure} }}"),
            &["n0", "n29"],
            &["n30", "n01", "n+1", "n-0"],
        ),
        (
            format!("fat_tree {{ depth = 2; {pure} }}"),
            &["t0_3", "t1_1", "t2_0"],
            &["t0_4", "t2_1", "t3_0", "t00_0"],
        ),
    ];
    for (topology, known, unknown) in &cases {
        assert_eq!(unknown_watches(&spec(topology, known)), 0, "{topology}");
        for name in *unknown {
            assert_eq!(
                unknown_watches(&spec(topology, &[name])),
                1,
                "{topology}: {name}"
            );
        }
    }
}

#[test]
fn oversized_generated_topologies_are_typed_errors_without_lint() {
    let pure = "channel = pure { delay = 1.0 };";
    for topology in [
        format!("grid {{ width = 100000; height = 100000; {pure} }}"),
        format!("chain {{ stages = 4294967295; {pure} }}"),
        format!("random_dag {{ nodes = 4294967295; seed = 1; {pure} }}"),
        format!("fat_tree {{ depth = 25; {pure} }}"),
    ] {
        let result = Experiment::parse(&spec(&topology, &["y"]))
            .unwrap()
            .with_lint(LintConfig::Off)
            .run();
        assert!(
            matches!(result, Err(Error::Circuit(_))),
            "{topology}: {result:?}"
        );
    }
}
