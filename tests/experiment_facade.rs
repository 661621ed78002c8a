//! Golden equivalence tests: the `Experiment` facade must reproduce
//! the legacy per-crate entry points **bit-identically** — same
//! `Signal`s, same crossings, same samples — including seeded-noise
//! determinism across worker counts.

use faithful::analog::chain::InverterChain;
use faithful::analog::characterize::SweepConfig;
use faithful::analog::supply::VddSource;
use faithful::analog::SweepRunner;
use faithful::circuit::{CircuitBuilder, GateKind, Scenario, ScenarioRunner};
use faithful::core::channel::{Channel, EtaInvolutionChannel, InvolutionChannel};
use faithful::core::delay::ExpChannel;
use faithful::core::noise::{EtaBounds, UniformNoise, WorstCaseAdversary};
use faithful::spf::SpfCircuit;
use faithful::{
    AnalogSpec, AnalogTask, ChainSpec, ChannelSpec, DelaySpec, DigitalSpec, Experiment,
    ExperimentSpec, GateKindSpec, NetlistSpec, NoiseSpec, Orientation, OutputSelect, ReferenceSpec,
    ScenarioSpec, SignalSpec, SpfSpec, SpfTask, SweepSpec, TopologySpec,
};
use faithful::{Bit, Signal};

const TAU: f64 = 1.0;
const T_P: f64 = 0.5;
const V_TH: f64 = 0.5;
const ETA: f64 = 0.02;

/// The legacy hand-built noisy inverter chain of `examples/scenario_sweep`.
fn legacy_chain_circuit(stages: u32) -> faithful::circuit::Circuit {
    let delay = ExpChannel::new(TAU, T_P, V_TH).unwrap();
    let bounds = EtaBounds::new(ETA, ETA).unwrap();
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    for i in 0..stages {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.gate(&format!("inv{i}"), GateKind::Not, init);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(
                prev,
                g,
                0,
                EtaInvolutionChannel::new(delay.clone(), bounds, UniformNoise::new(0)),
            )
            .unwrap();
        }
        prev = g;
    }
    b.connect(
        prev,
        y,
        0,
        EtaInvolutionChannel::new(delay, bounds, UniformNoise::new(0)),
    )
    .unwrap();
    b.build().unwrap()
}

fn chain_channel_spec() -> ChannelSpec {
    ChannelSpec::eta_exp(TAU, T_P, V_TH, ETA, ETA, NoiseSpec::Uniform { seed: 0 })
}

fn digital_spec(stages: u32, scenarios: usize, workers: u32) -> DigitalSpec {
    let mut d = DigitalSpec::new(
        TopologySpec::InverterChain {
            stages,
            channel: chain_channel_spec(),
        },
        100.0,
    )
    .with_workers(workers);
    for seed in 0..scenarios as u64 {
        d = d.with_scenario(
            ScenarioSpec::new(format!("draw{seed}"))
                .with_seed(seed)
                .with_input("a", SignalSpec::pulse(1.0, 6.0)),
        );
    }
    d
}

#[test]
fn digital_facade_matches_legacy_runner_bit_identically() {
    let stages = 6;
    let scenarios: Vec<Scenario> = (0..16u64)
        .map(|seed| {
            Scenario::new(format!("draw{seed}"))
                .with_input("a", Signal::pulse(1.0, 6.0).unwrap())
                .with_seed(seed)
        })
        .collect();
    let legacy = ScenarioRunner::new(legacy_chain_circuit(stages), 100.0)
        .with_workers(2)
        .run(&scenarios);

    let result = Experiment::digital(digital_spec(stages, 16, 2))
        .run()
        .unwrap();
    let digital = result.digital().expect("digital workload");

    assert_eq!(digital.outcomes.len(), legacy.len());
    for (facade, reference) in digital.outcomes.iter().zip(legacy.outcomes()) {
        assert_eq!(facade.label, reference.label());
        assert!(facade.is_ok());
        let legacy_y = reference.result().as_ref().unwrap().signal("y").unwrap();
        assert_eq!(
            facade.signal("y").unwrap(),
            legacy_y,
            "facade output must be bit-identical for {}",
            facade.label
        );
    }
    assert_eq!(digital.stats.as_ref().unwrap(), legacy.stats());
}

#[test]
fn digital_facade_is_deterministic_across_worker_counts() {
    let reference = Experiment::digital(digital_spec(6, 12, 1)).run().unwrap();
    let reference = reference.digital().unwrap();
    for workers in [2, 4] {
        let run = Experiment::digital(digital_spec(6, 12, workers))
            .run()
            .unwrap();
        let run = run.digital().unwrap();
        for (a, b) in reference.outcomes.iter().zip(&run.outcomes) {
            assert_eq!(
                a.signal("y").unwrap(),
                b.signal("y").unwrap(),
                "workers={workers} label={}",
                a.label
            );
        }
        assert_eq!(reference.stats, run.stats, "workers={workers}");
    }
}

#[test]
fn digital_facade_runs_from_serialized_spec_text() {
    let spec = ExperimentSpec::digital(digital_spec(5, 6, 2));
    let text = spec.to_string();
    let from_text = Experiment::parse(&text).unwrap().run().unwrap();
    let direct = Experiment::digital(digital_spec(5, 6, 2)).run().unwrap();
    let (a, b) = (from_text.digital().unwrap(), direct.digital().unwrap());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.signal("y"), y.signal("y"));
    }
    assert_eq!(a.stats, b.stats);
}

#[test]
fn netlist_topology_matches_hand_built_circuit() {
    // y = not(a) through a pure delay, plus a direct wire-through w = a
    let netlist = NetlistSpec::new()
        .input("a")
        .gate("inv", GateKindSpec::Not, true)
        .output("y")
        .output("w")
        .wire("a", "inv", 0)
        .channel("inv", "y", 0, ChannelSpec::pure(1.0))
        .wire("a", "w", 0);
    let spec = DigitalSpec::new(TopologySpec::Netlist(netlist), 50.0)
        .with_scenario(ScenarioSpec::new("p").with_input("a", SignalSpec::pulse(0.0, 2.0)));
    let result = Experiment::digital(spec).run().unwrap();
    let outcome = &result.digital().unwrap().outcomes[0];

    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let inv = b.gate("inv", GateKind::Not, Bit::One);
    let y = b.output("y");
    let w = b.output("w");
    b.connect_direct(a, inv, 0).unwrap();
    b.connect(
        inv,
        y,
        0,
        faithful::core::channel::PureDelay::new(1.0).unwrap(),
    )
    .unwrap();
    b.connect_direct(a, w, 0).unwrap();
    let mut sim = faithful::circuit::Simulator::new(b.build().unwrap());
    sim.set_input("a", Signal::pulse(0.0, 2.0).unwrap())
        .unwrap();
    let legacy = sim.run(50.0).unwrap();

    assert_eq!(outcome.signal("y").unwrap(), legacy.signal("y").unwrap());
    assert_eq!(outcome.signal("w").unwrap(), legacy.signal("w").unwrap());
}

#[test]
fn digital_output_selection_controls_materialization() {
    let spec = digital_spec(4, 2, 1).with_outputs(OutputSelect {
        signals: false,
        stats: false,
        vcd: true,
        watch: Vec::new(),
    });
    let result = Experiment::digital(spec).run().unwrap();
    let digital = result.digital().unwrap();
    assert!(digital.stats.is_none());
    for o in &digital.outcomes {
        assert!(o.signals.is_empty());
        let vcd = o.vcd.as_ref().expect("vcd requested");
        assert!(vcd.contains("$var wire 1"), "{vcd}");
        assert!(vcd.contains("$timescale 1ps"), "{vcd}");
    }
}

#[test]
fn watching_an_internal_node_leaves_the_port_statistics_alone() {
    let run = |watch: &[&str]| {
        let spec = DigitalSpec::new(
            TopologySpec::Grid2d {
                width: 4,
                height: 4,
                channel: ChannelSpec::pure(1.0),
            },
            50.0,
        )
        .with_scenario(ScenarioSpec::new("s").with_input("a", SignalSpec::pulse(1.0, 6.0)))
        .with_outputs(OutputSelect {
            signals: true,
            stats: true,
            vcd: false,
            watch: watch.iter().map(|&n| n.to_owned()).collect(),
        });
        let result = Experiment::digital(spec).run().unwrap();
        let digital = result.digital().unwrap();
        (
            digital.stats.clone().unwrap(),
            digital.outcomes[0].signals.len(),
        )
    };
    let (port, _) = run(&["y"]);
    let (both, returned) = run(&["y", "g0_0"]);
    assert_eq!(returned, 2, "g0_0 is still returned");
    assert_eq!(port.output_transitions, 2, "{port:?}");
    assert_eq!(both, port);
}

#[test]
fn per_scenario_failures_surface_in_outcomes() {
    let spec = DigitalSpec::new(
        TopologySpec::InverterChain {
            stages: 2,
            channel: chain_channel_spec(),
        },
        50.0,
    )
    .with_scenario(ScenarioSpec::new("ok").with_input("a", SignalSpec::pulse(0.0, 4.0)))
    .with_scenario(ScenarioSpec::new("bad").with_input("nope", SignalSpec::pulse(0.0, 4.0)));
    // the lint pre-flight would reject the unknown port statically; this
    // test is about the runtime per-scenario failure path
    let result = Experiment::digital(spec)
        .with_lint(faithful::LintConfig::Off)
        .run()
        .unwrap();
    let digital = result.digital().unwrap();
    assert!(digital.outcomes[0].is_ok());
    assert!(!digital.outcomes[1].is_ok());
    assert!(matches!(
        digital.outcomes[1].error,
        Some(faithful::circuit::SimError::UnknownPort { .. })
    ));
    assert_eq!(digital.stats.as_ref().unwrap().failures, 1);
    assert_eq!(digital.outcome("ok").unwrap().label, "ok");
}

fn fast_sweep() -> SweepSpec {
    SweepSpec::default().with_widths((0..8).map(|i| 20.0 + 12.0 * f64::from(i)))
}

fn fast_config() -> SweepConfig {
    SweepConfig {
        widths: (0..8).map(|i| 20.0 + 12.0 * f64::from(i)).collect(),
        ..SweepConfig::default()
    }
}

#[test]
fn analog_characterize_matches_legacy_sweep_runner_bit_identically() {
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let (up_legacy, down_legacy) = SweepRunner::new()
        .with_workers(2)
        .characterize(&chain, &vdd, &fast_config())
        .unwrap();

    let result = Experiment::analog(
        AnalogSpec::new(7, AnalogTask::Characterize)
            .with_sweep(fast_sweep())
            .with_workers(2),
    )
    .run()
    .unwrap();
    let (up, down) = result.analog().unwrap().characterization().unwrap();
    assert_eq!(up, &up_legacy[..]);
    assert_eq!(down, &down_legacy[..]);
}

#[test]
fn analog_facade_is_deterministic_across_worker_counts() {
    let run = |workers: u32| {
        let result = Experiment::analog(
            AnalogSpec::new(7, AnalogTask::Samples { inverted: false })
                .with_sweep(fast_sweep())
                .with_workers(workers),
        )
        .run()
        .unwrap();
        let samples = result.analog().unwrap().samples().unwrap().to_vec();
        samples
    };
    let reference = run(1);
    for workers in [2, 4] {
        assert_eq!(reference, run(workers), "workers={workers}");
    }
}

#[test]
fn analog_self_empirical_deviations_match_legacy_pipeline() {
    // Legacy Figs. 8b procedure: characterize the nominal chain, build
    // the empirical reference, measure a width-scaled chain.
    let nominal = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = fast_config();
    let runner = SweepRunner::new().with_workers(2);
    let (up, down) = runner.characterize(&nominal, &vdd, &cfg).unwrap();
    let reference = faithful::analog::characterize::to_empirical(&up, &down).unwrap();
    let varied = nominal.scaled_width(1.1).unwrap();
    let mut legacy = Vec::new();
    for inverted in [false, true] {
        legacy.extend(
            runner
                .measure_deviations(&varied, &vdd, &cfg, &reference, inverted)
                .unwrap(),
        );
    }

    let result = Experiment::analog(
        AnalogSpec::new(
            7,
            AnalogTask::Deviations {
                reference: ReferenceSpec::SelfEmpirical,
                orientation: Orientation::Both,
            },
        )
        .with_chain(ChainSpec::umc90(7).with_width_scale(1.1))
        .with_sweep(fast_sweep())
        .with_workers(2),
    )
    .run()
    .unwrap();
    let deviations = result.analog().unwrap().deviations().unwrap();
    assert_eq!(deviations, &legacy[..]);
    // the wider chain is faster: the paper's one-sided negative cloud
    let mean = deviations.iter().map(|d| d.deviation).sum::<f64>() / deviations.len() as f64;
    assert!(mean < -0.1, "mean deviation {mean}");
}

#[test]
fn analog_embedded_empirical_reference_matches_self_empirical() {
    // One characterization, embedded as data, must predict exactly what
    // SelfEmpirical re-measures — and round-trip through text.
    let characterization =
        Experiment::analog(AnalogSpec::new(7, AnalogTask::Characterize).with_sweep(fast_sweep()))
            .run()
            .unwrap();
    let (up, down) = characterization
        .analog()
        .unwrap()
        .characterization()
        .unwrap();
    let spec = |reference: ReferenceSpec| {
        ExperimentSpec::analog(
            AnalogSpec::new(
                7,
                AnalogTask::Deviations {
                    reference,
                    orientation: Orientation::Both,
                },
            )
            .with_chain(ChainSpec::umc90(7).with_width_scale(1.1))
            .with_sweep(fast_sweep()),
        )
    };
    let embedded = spec(ReferenceSpec::empirical(up, down));
    let via_text = Experiment::parse(&embedded.to_string())
        .unwrap()
        .run()
        .unwrap();
    let direct = Experiment::new(spec(ReferenceSpec::SelfEmpirical))
        .run()
        .unwrap();
    assert_eq!(
        via_text.analog().unwrap().deviations().unwrap(),
        direct.analog().unwrap().deviations().unwrap(),
        "embedded reference (through text) must equal the re-measured one"
    );
}

#[test]
fn channel_facade_matches_direct_application() {
    let input = Signal::pulse_train([(0.0, 4.0), (7.0, 0.62)]).unwrap();
    let result = Experiment::channel(
        ChannelSpec::involution_exp(TAU, T_P, V_TH),
        SignalSpec::train([(0.0, 4.0), (7.0, 0.62)]),
    )
    .run()
    .unwrap();
    let mut direct = InvolutionChannel::new(ExpChannel::new(TAU, T_P, V_TH).unwrap());
    assert_eq!(result.channel().unwrap().output, direct.apply(&input));
}

#[test]
fn spf_facade_matches_direct_circuit() {
    let delay = ExpChannel::new(TAU, T_P, V_TH).unwrap();
    let bounds = EtaBounds::new(ETA, ETA).unwrap();
    let circuit = SpfCircuit::dimensioned(delay, bounds).unwrap();
    let theory = circuit.theory().unwrap();
    let input = Signal::pulse(0.0, theory.delta0_tilde + 0.05).unwrap();
    let legacy = circuit.simulate(WorstCaseAdversary, &input, 400.0).unwrap();

    let spec = SpfSpec::exp(TAU, T_P, V_TH, ETA, ETA).with_task(SpfTask::Simulate {
        noise: NoiseSpec::WorstCase,
        input: SignalSpec::pulse(0.0, theory.delta0_tilde + 0.05),
        horizon: 400.0,
    });
    let result = Experiment::spf(spec).run().unwrap();
    let spf = result.spf().unwrap();
    assert_eq!(spf.theory, theory);
    let run = spf.run.as_ref().expect("simulation requested");
    assert_eq!(run.or_signal, legacy.or_signal);
    assert_eq!(run.feedback_signal, legacy.feedback_signal);
    assert_eq!(run.output, legacy.output);
    assert_eq!(run.events, legacy.events);

    // delay specs dispatch to the rational family too
    let rational = Experiment::spf(SpfSpec {
        delay: DelaySpec::Rational {
            a: 2.0,
            b: 1.0,
            c: 1.0,
        },
        eta_minus: 0.01,
        eta_plus: 0.01,
        task: SpfTask::Theory,
    })
    .run()
    .unwrap();
    assert!(rational.spf().unwrap().theory.gamma < 1.0);
}

#[test]
fn facade_errors_unify_layer_errors() {
    // every case here is also caught statically by the lint pre-flight
    // (as Error::Lint); switch it off to exercise the layers themselves
    let off = faithful::LintConfig::Off;
    // unknown channel kind -> core error
    let err = Experiment::channel(ChannelSpec::new("warp"), SignalSpec::Zero)
        .with_lint(off)
        .run()
        .unwrap_err();
    assert!(matches!(err, faithful::Error::Core(_)));
    // dangling netlist edge -> spec error
    let netlist = NetlistSpec::new().input("a").wire("a", "ghost", 0);
    let err = Experiment::digital(DigitalSpec::new(TopologySpec::Netlist(netlist), 10.0))
        .with_lint(off)
        .run()
        .unwrap_err();
    assert!(matches!(err, faithful::Error::Spec(_)), "{err:?}");
    // unconnected output -> circuit error
    let netlist = NetlistSpec::new().input("a").output("y");
    let err = Experiment::digital(DigitalSpec::new(TopologySpec::Netlist(netlist), 10.0))
        .with_lint(off)
        .run()
        .unwrap_err();
    assert!(matches!(err, faithful::Error::Circuit(_)), "{err:?}");
    // constraint (C) violation -> spf error, with a source chain
    let err = Experiment::spf(SpfSpec::exp(TAU, T_P, V_TH, 0.4, 0.4))
        .with_lint(off)
        .run()
        .unwrap_err();
    assert!(matches!(err, faithful::Error::Spf(_)), "{err:?}");
    assert!(std::error::Error::source(&err).is_some());
    assert!(!err.to_string().is_empty());
}

#[test]
fn an_analog_stage_past_the_chain_is_a_typed_error() {
    let spec = AnalogSpec::new(3, AnalogTask::Characterize)
        .with_sweep(SweepSpec {
            stage: 9,
            ..fast_sweep()
        })
        .with_workers(2);
    // lint refuses it before anything runs ...
    let err = Experiment::analog(spec.clone()).run().unwrap_err();
    let faithful::Error::Lint(report) = err else {
        panic!("expected Error::Lint, got {err:?}");
    };
    assert!(
        report.diagnostics().iter().any(|d| d.code == "IVL035"),
        "{report}"
    );
    // ... and the sweep itself refuses it, instead of a worker indexing
    // past the chain and panicking
    let err = Experiment::analog(spec)
        .with_lint(faithful::LintConfig::Off)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            faithful::Error::Analog(faithful::analog::Error::InvalidSweep { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn sweep_and_checkpoint_errors_display_and_chain() {
    use std::error::Error as StdError;

    // abort policy -> Error::Sweep, with the failing scenario's index,
    // seed and cause preserved through the chain
    let spec = digital_spec(4, 6, 2).with_on_failure(faithful::FailurePolicySpec::Abort);
    let err = Experiment::digital(spec)
        .with_fault_plan(faithful::FaultPlan::new().with_fault(3, faithful::FaultKind::Panic))
        .run()
        .unwrap_err();
    let faithful::Error::Sweep(ref aborted) = err else {
        panic!("expected Error::Sweep, got {err:?}");
    };
    assert_eq!(aborted.failure.index, 3);
    assert_eq!(aborted.failure.seed, Some(3));
    let text = err.to_string();
    assert!(text.contains("sweep aborted"), "{text}");
    assert!(text.contains("scenario 3"), "{text}");
    assert!(text.contains("seed 3"), "{text}");
    // Error -> SweepAborted -> ScenarioFailure -> SimError
    let aborted = StdError::source(&err).expect("Sweep has a source");
    let failure = aborted.source().expect("SweepAborted has a source");
    assert!(failure.to_string().contains("seed 3"), "{failure}");
    let cause = failure.source().expect("ScenarioFailure has a source");
    assert!(cause.to_string().contains("panicked"), "{cause}");

    // unreadable sidecar -> Error::Checkpoint, carrying the path
    let missing =
        std::env::temp_dir().join(format!("faithful_no_such_{}.spec", std::process::id()));
    let err = Experiment::resume(&missing).unwrap_err();
    let faithful::Error::Checkpoint(ref ck) = err else {
        panic!("expected Error::Checkpoint, got {err:?}");
    };
    assert_eq!(ck.path(), Some(missing.display().to_string().as_str()));
    assert!(err.to_string().contains("checkpoint error"), "{err}");
    assert!(StdError::source(&err).is_some());
}
