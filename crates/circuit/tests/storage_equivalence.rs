//! Equivalence battery for the struct-of-arrays circuit core and the
//! selective recorder: a run that records only a watch set must return
//! bit-identical signals and event counts to a run that records
//! everything, across channel families (involution, inertial,
//! cancel-heavy pure-delay) and across 1/2/4/8-worker sweeps.
//!
//! These tests pin the tentpole invariant of the scale refactor: watch
//! sets and bounded recording change *what is kept*, never *what is
//! computed*.

use proptest::prelude::*;

use ivl_circuit::{Circuit, CircuitBuilder, GateKind, Scenario, ScenarioRunner, Simulator};
use ivl_core::channel::{InertialDelay, InvolutionChannel, PureDelay, SimChannel};
use ivl_core::delay::ExpChannel;
use ivl_core::{Bit, Signal};

#[derive(Debug, Clone, Copy)]
enum Family {
    /// Involution channels over an exponential delay pair — the
    /// paper's canonical model, cancellation-capable.
    Involution,
    /// Inertial delays with a rejection window — drops short pulses.
    Inertial,
    /// Pure delays driven by narrow pulse trains — the cancel-heavy
    /// regime lives in the stimulus, not the channel.
    Pure,
}

fn make_channel(family: Family) -> Box<dyn SimChannel> {
    match family {
        Family::Involution => {
            InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5).unwrap()).clone_box()
        }
        Family::Inertial => InertialDelay::new(1.0, 0.4).unwrap().clone_box(),
        Family::Pure => PureDelay::new(0.7).unwrap().clone_box(),
    }
}

/// An `stages`-deep chain with a mid-chain 2-gate fanout diamond, so
/// selective recording skips fanned-out edges too, not just chain links.
fn build_circuit(stages: u32, family: Family) -> Circuit {
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
            b.connect_boxed(prev, g, 0, make_channel(family)).unwrap();
        }
        prev = g;
    }
    // diamond: prev fans out into two NANDed branches
    let l = b.gate("dia_l", GateKind::Not, Bit::Zero);
    let r = b.gate("dia_r", GateKind::Not, Bit::Zero);
    let j = b.gate("dia_j", GateKind::Nand, Bit::One);
    b.connect_boxed(prev, l, 0, make_channel(family)).unwrap();
    b.connect_boxed(prev, r, 0, make_channel(family)).unwrap();
    b.connect_boxed(l, j, 0, make_channel(family)).unwrap();
    b.connect_boxed(r, j, 1, make_channel(family)).unwrap();
    b.connect_boxed(j, y, 0, make_channel(family)).unwrap();
    b.build().unwrap()
}

fn stimulus(pulses: &[(f64, f64)]) -> Signal {
    Signal::pulse_train(pulses.iter().copied()).unwrap()
}

fn pulse_train_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    // start offsets and widths chosen so consecutive pulses never
    // overlap: pulse k lives in [4k, 4k+3.5]
    proptest::collection::vec((0.0..0.5f64, 0.2..3.5f64), 1..6).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(k, (jitter, width))| (4.0 * k as f64 + jitter, width))
            .collect()
    })
}

fn family_strategy() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::Involution),
        Just(Family::Inertial),
        Just(Family::Pure),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A watched run returns exactly the signals (and event counts) of
    /// a record-everything run, for every channel family.
    #[test]
    fn selective_recording_is_bit_identical(
        stages in 1u32..10,
        family in family_strategy(),
        pulses in pulse_train_strategy(),
    ) {
        let input = stimulus(&pulses);
        let watch = ["y", "inv0", "dia_j"];

        let mut full = Simulator::new(build_circuit(stages, family));
        full.set_input("a", input.clone()).unwrap();
        let full_run = full.run(1e4).unwrap();

        let mut sel = Simulator::new(build_circuit(stages, family));
        sel.set_watch(watch).unwrap();
        sel.set_input("a", input).unwrap();
        let sel_run = sel.run(1e4).unwrap();

        prop_assert_eq!(full_run.processed_events(), sel_run.processed_events());
        prop_assert_eq!(full_run.scheduled_events(), sel_run.scheduled_events());
        for name in watch {
            prop_assert_eq!(
                full_run.signal(name).unwrap(),
                sel_run.signal(name).unwrap(),
                "signal {} diverged", name
            );
        }
    }

    /// Watched sweeps across 1/2/4/8 workers agree with the
    /// single-threaded record-everything sweep: same per-scenario
    /// output signals, same aggregate statistics.
    #[test]
    fn watched_sweeps_match_across_worker_counts(
        stages in 1u32..8,
        family in family_strategy(),
        widths in proptest::collection::vec(0.2..3.0f64, 1..5),
    ) {
        let scenarios: Vec<Scenario> = widths
            .iter()
            .enumerate()
            .map(|(k, w)| {
                Scenario::new(format!("s{k}"))
                    .with_input("a", Signal::pulse(k as f64, *w).unwrap())
            })
            .collect();

        let reference = ScenarioRunner::new(build_circuit(stages, family), 1e4)
            .with_workers(1)
            .run(&scenarios);
        let ref_signals: Vec<Signal> = reference
            .outcomes()
            .iter()
            .map(|o| o.result().as_ref().unwrap().signal("y").unwrap().clone())
            .collect();

        for workers in [1usize, 2, 4, 8] {
            let sweep = ScenarioRunner::new(build_circuit(stages, family), 1e4)
                .with_workers(workers)
                .with_watch(["inv0"])
                .unwrap()
                .run(&scenarios);
            prop_assert_eq!(sweep.stats().failures, 0);
            prop_assert_eq!(
                sweep.stats().processed_events,
                reference.stats().processed_events,
                "worker count {} diverged", workers
            );
            prop_assert_eq!(
                sweep.stats().output_transitions,
                reference.stats().output_transitions
            );
            prop_assert_eq!(sweep.stats().min_pulse_width, reference.stats().min_pulse_width);
            for (o, expected) in sweep.outcomes().iter().zip(&ref_signals) {
                let run = o.result().as_ref().unwrap();
                prop_assert_eq!(run.signal("y").unwrap(), expected);
                // the explicitly watched interior node is recorded too
                let _ = run.signal("inv0").unwrap();
            }
        }
    }
}

/// The generators produce identical simulations through the facade and
/// directly — anchored here with the grid family to also pin SoA CSR
/// adjacency on a fanout-heavy topology.
#[test]
fn grid_selective_matches_full() {
    let make = || ivl_circuit::generate::grid(6, 5, PureDelay::new(0.9).unwrap().clone_box());
    let input = Signal::pulse_train([(0.0, 2.0), (6.0, 1.0), (11.0, 3.0)]).unwrap();

    let mut full = Simulator::new(make().unwrap());
    full.set_input("a", input.clone()).unwrap();
    let full_run = full.run(1e4).unwrap();

    let mut sel = Simulator::new(make().unwrap());
    sel.set_watch(["y", "g3_2"]).unwrap();
    sel.set_input("a", input).unwrap();
    let sel_run = sel.run(1e4).unwrap();

    assert_eq!(full_run.processed_events(), sel_run.processed_events());
    assert_eq!(full_run.signal("y").unwrap(), sel_run.signal("y").unwrap());
    assert_eq!(
        full_run.signal("g3_2").unwrap(),
        sel_run.signal("g3_2").unwrap()
    );
    // unwatched nodes answer with a typed error, not a panic
    assert!(matches!(
        sel_run.signal("g0_0"),
        Err(ivl_circuit::SimError::NotWatched { .. })
    ));
}
