//! The lint preflight does work linear in nodes + edges on an explicit
//! netlist, and work independent of size on a generated topology, which
//! it reads through the generator's `Family` instead of building it. A
//! chain's stages cost at most one hazard-walk step per distinct probe.
//! Each *distinct* channel spec has a fixed cost: it is verified once
//! and built once for probing, however many edges carry it and however
//! many pulse widths the scenarios probe it with. The probe budget
//! counts distinct (channel, width) probes, where equal specs written
//! out separately are one channel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use faithful::core::channel::SimChannel;
use faithful::core::factory::{ChannelFactory, ChannelParams, ChannelRegistry};
use faithful::{lint, lint_text, DigitalSpec, ExperimentSpec, ScenarioSpec, SignalSpec};
use faithful::{ChannelSpec, TopologySpec};

/// Shadows a built-in kind and counts how many channels it builds.
struct Counting {
    kind: &'static str,
    builds: Arc<AtomicUsize>,
    inner: ChannelRegistry,
}

impl ChannelFactory for Counting {
    fn kind(&self) -> &str {
        self.kind
    }

    fn build(&self, params: &ChannelParams) -> Result<Box<dyn SimChannel>, faithful::core::Error> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.inner.build(self.kind, params)
    }
}

fn chain_spec(stages: u32) -> String {
    format!(
        "faithful/1 digital {{\n  topology = chain {{\n    stages = {stages};\n    \
         channel = eta {{\n      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;\n      \
         minus = 0.02; plus = 0.02;\n      noise = uniform; seed = 7;\n    }};\n  }};\n  \
         horizon = 100.0;\n  scenarios = [\n    \
         scenario {{ label = \"narrow\"; seed = 2; inputs = [\n      \
         drive {{ port = \"a\"; signal = pulse {{ at = 1.0; width = 0.05 }} }}\n    ] }}\n  \
         ];\n}}\n"
    )
}

fn codes(text: &str) -> Vec<&'static str> {
    lint_text(text, &ChannelRegistry::with_builtins())
        .unwrap()
        .diagnostics()
        .iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn a_chain_builds_one_verify_and_one_probe_channel() {
    let builds = Arc::new(AtomicUsize::new(0));
    let mut registry = ChannelRegistry::with_builtins();
    registry.register(Box::new(Counting {
        kind: "pure",
        builds: Arc::clone(&builds),
        inner: ChannelRegistry::with_builtins(),
    }));
    // three widths: three distinct probes of the one channel
    let digital = DigitalSpec::new(
        TopologySpec::InverterChain {
            stages: 10_000,
            channel: ChannelSpec::pure(1.0),
        },
        100.0,
    )
    .with_scenarios([1.0, 2.0, 3.0].map(|width| {
        ScenarioSpec::new(format!("w{width}")).with_input("a", SignalSpec::pulse(1.0, width))
    }));
    let report = lint(&ExperimentSpec::digital(digital), &registry);
    assert!(!report.has_errors(), "{report}");
    let built = builds.load(Ordering::Relaxed);
    assert!(
        (1..=2).contains(&built),
        "one verification build and one probe build expected, got {built}"
    );
}

#[test]
fn a_100k_stage_chain_lints_like_an_8_stage_one() {
    // the stimulus dies in the first channel, so neither chain runs into
    // the probe budget; what is left is graph work over 100k stages
    let short = codes(&chain_spec(8));
    assert!(short.contains(&"IVL020"), "{short:?}");
    assert_eq!(codes(&chain_spec(100_000)), short);
}

/// A five-edge netlist whose three `pure` edges and two `inertial` edges
/// each carry their own, equal channel spec (one spelled `1.00`), driven
/// by 2100 scenarios of distinct, shrinking widths: the probes exhaust
/// `PROBE_BUDGET` partway through the narrow (cancelled) widths.
fn budget_spec() -> String {
    let mut s = String::from(
        "faithful/1 digital {\n  topology = netlist {\n    nodes = [\n      \
         input { name = \"a\" },\n      \
         gate { name = \"g1\"; kind = buf; init = false },\n      \
         gate { name = \"g2\"; kind = buf; init = false },\n      \
         gate { name = \"g3\"; kind = buf; init = false },\n      \
         gate { name = \"g4\"; kind = buf; init = false },\n      \
         output { name = \"y\" }\n    ];\n    edges = [\n      \
         edge { from = \"a\"; to = \"g1\"; pin = 0; channel = pure { delay = 1.0 } },\n      \
         edge { from = \"g1\"; to = \"g2\"; pin = 0; \
         channel = inertial { delay = 1.0; window = 1.0 } },\n      \
         edge { from = \"g2\"; to = \"g3\"; pin = 0; channel = pure { delay = 1.00 } },\n      \
         edge { from = \"g3\"; to = \"g4\"; pin = 0; \
         channel = inertial { delay = 1.0; window = 1.0 } },\n      \
         edge { from = \"g4\"; to = \"y\"; pin = 0; channel = pure { delay = 1.0 } }\n    \
         ];\n  };\n  horizon = 50.0;\n  scenarios = [\n",
    );
    for i in 0..2100u32 {
        let width = 2.349 - f64::from(i) * 0.001;
        s.push_str(&format!(
            "    scenario {{ label = \"s{i}\"; inputs = [ drive {{ port = \"a\"; \
             signal = pulse {{ at = 1.0; width = {width} }} }} ] }},\n"
        ));
    }
    s.push_str("  ];\n}\n");
    s
}

#[test]
fn probe_budget_counts_equal_specs_as_one_channel() {
    let report = lint_text(&budget_spec(), &ChannelRegistry::with_builtins()).unwrap();
    let rendered: Vec<String> = report
        .diagnostics()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        rendered,
        [
            "warning[IVL020]: scenario \"s1350\": stimulus provably cancels in the channel \
             \"g1\" -> \"g2\" (and 520 more scenario(s)) (line 13, column 7)",
            "info[IVL022]: pulse-width propagation truncated after 4096 channel probes",
        ]
    );
}
