//! The event queue's correctness bar: simulation output is pinned by
//! golden `(processed, scheduled, waveform digest)` triples for fixed
//! instances of every workload class that stresses the queue
//! differently — involution pipelines (non-FIFO cancellation), wide
//! fanout, cancel-heavy inertial churn (stale keys and heap
//! compaction), feedback oscillation (far-future pushes) and seeded
//! adversarial noise, including a seeded scenario sequence on a random
//! DAG that touches only part of its netlist per run. The triples were
//! recorded with the reference binary heap and cross-checked against
//! the calendar wheel and the adaptive prober the compacting heap
//! replaced (the DAG sequence against the simulator that reset every
//! node, pin and channel eagerly per run), so a match means
//! bit-identical output. Plus the scenario runner's determinism bar:
//! identical `SweepResult`s across 1/2/4/7/8 workers and across
//! repeated `run()` calls on one runner.

use ivl_circuit::{
    generate, Circuit, CircuitBuilder, GateKind, Scenario, ScenarioRunner, SimResult, Simulator,
};
use ivl_core::channel::{
    EtaInvolutionChannel, InertialDelay, InvolutionChannel, PureDelay, SimChannel,
};
use ivl_core::delay::ExpChannel;
use ivl_core::noise::{EtaBounds, UniformNoise};
use ivl_core::{Bit, Signal};

// ======================================================================
// Circuit generators
// ======================================================================

fn involution_chain(stages: usize) -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
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
            b.connect(prev, g, 0, InvolutionChannel::new(d.clone()))
                .unwrap();
        }
        prev = g;
    }
    b.connect(prev, y, 0, InvolutionChannel::new(d)).unwrap();
    b.build().unwrap()
}

/// Inertial chain whose narrow input pulses are rejected in-channel:
/// heavy schedule-then-cancel churn, recycling pool slots and leaving
/// stale keys behind in the queue.
fn inertial_chain(stages: usize, window: f64) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let mut prev = a;
    for i in 0..stages {
        let g = b.gate(&format!("buf{i}"), GateKind::Buf, Bit::Zero);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, InertialDelay::new(0.5, window).unwrap())
                .unwrap();
        }
        prev = g;
    }
    let y = b.output("y");
    b.connect(prev, y, 0, InertialDelay::new(0.5, window).unwrap())
        .unwrap();
    b.build().unwrap()
}

/// One root fanning out to `width` inertial buffers with long, spread
/// transport delays: most pulses are rejected, so thousands of
/// cancelled events are resident at once and the heap compacts
/// repeatedly.
fn inertial_fanout(width: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let root = b.gate("root", GateKind::Buf, Bit::Zero);
    b.connect_direct(a, root, 0).unwrap();
    for w in 0..width {
        let g = b.gate(&format!("buf{w}"), GateKind::Buf, Bit::Zero);
        b.connect(
            root,
            g,
            0,
            InertialDelay::new(40.0 + w as f64 * 0.1, 7.0).unwrap(),
        )
        .unwrap();
        let y = b.output(&format!("y{w}"));
        b.connect(g, y, 0, PureDelay::new(0.5).unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// The Fig. 5-style feedback loop: a fed-back OR oscillates, pushing
/// events one loop-delay ahead until the horizon.
fn feedback_loop(loop_delay: f64) -> Circuit {
    let mut b = CircuitBuilder::new();
    let i = b.input("a");
    let or = b.gate("or", GateKind::Or, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(i, or, 0).unwrap();
    b.connect(or, or, 1, PureDelay::new(loop_delay).unwrap())
        .unwrap();
    b.connect(or, y, 0, PureDelay::new(0.5).unwrap()).unwrap();
    b.build().unwrap()
}

/// One driver fanning out to `branches` parallel buffers through
/// channels with widely spread delays.
fn fanout_star(branches: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let drv = b.gate("drv", GateKind::Buf, Bit::Zero);
    b.connect_direct(a, drv, 0).unwrap();
    for i in 0..branches {
        let g = b.gate(&format!("b{i}"), GateKind::Buf, Bit::Zero);
        b.connect(drv, g, 0, PureDelay::new(0.3 + 1.7 * i as f64).unwrap())
            .unwrap();
        let y = b.output(&format!("y{i}"));
        b.connect(g, y, 0, PureDelay::new(0.2).unwrap()).unwrap();
    }
    b.build().unwrap()
}

/// η-involution channel with a seeded uniform adversary: the η draws
/// are consumed in feed order, so any delivery-order divergence would
/// desynchronize the stream and show up in the waveform.
fn noisy_circuit() -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let bounds = EtaBounds::new(0.02, 0.02).unwrap();
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let buf = b.gate("buf", GateKind::Buf, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(a, buf, 0).unwrap();
    b.connect(
        buf,
        y,
        0,
        EtaInvolutionChannel::new(d, bounds, UniformNoise::new(0)),
    )
    .unwrap();
    b.build().unwrap()
}

/// A seeded 2000-gate `random_dag` behind η-involution channels with
/// uniform noise: a glitch train reaches only part of the netlist, so
/// a scenario sequence on one simulator exercises per-run state that
/// the previous scenario left behind.
fn noisy_dag() -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let bounds = EtaBounds::new(0.02, 0.02).unwrap();
    generate::random_dag(2000, 7, || -> Box<dyn SimChannel> {
        Box::new(EtaInvolutionChannel::new(
            d.clone(),
            bounds,
            UniformNoise::new(0),
        ))
    })
    .unwrap()
}

fn pulse_train(gaps: &[f64], widths: &[f64]) -> Signal {
    let mut t = 0.0;
    let mut pulses = Vec::new();
    for (gap, width) in gaps.iter().zip(widths) {
        t += gap;
        pulses.push((t, *width));
        t += width;
    }
    Signal::pulse_train(pulses).unwrap()
}

/// A deterministic irregular sequence in `[lo, hi)`: `n` values from a
/// fixed stride through a 97-step grid.
fn spread(n: usize, stride: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * ((i * stride + 5) % 97) as f64 / 97.0)
        .collect()
}

// ======================================================================
// Golden instances
// ======================================================================

/// One fixed simulation sequence: a circuit, the horizon, and the
/// runs made back to back on one simulator — each a stimulus on port
/// `a` and an optional noise seed.
struct Instance {
    name: &'static str,
    circuit: Circuit,
    runs: Vec<(Signal, Option<u64>)>,
    horizon: f64,
}

fn instances() -> Vec<Instance> {
    let inst = |name, circuit, input, horizon, seed| Instance {
        name,
        circuit,
        runs: vec![(input, seed)],
        horizon,
    };
    // 15 narrow pulses (rejected by the 7-wide window) per passing one
    let cancel_heavy = Signal::pulse_train((0..48).map(|i| {
        let t = f64::from(i) * 16.0;
        (t, if i % 16 == 15 { 9.0 } else { 6.0 })
    }))
    .unwrap();
    vec![
        inst(
            "involution_chain/1",
            involution_chain(1),
            pulse_train(&[0.3], &[0.05]),
            500.0,
            None,
        ),
        inst(
            "involution_chain/9",
            involution_chain(9),
            pulse_train(
                &[0.4, 2.5, 0.1, 5.0, 1.2, 0.2],
                &[0.3, 1.1, 0.05, 3.9, 0.6, 0.15],
            ),
            500.0,
            None,
        ),
        inst(
            "involution_chain/23",
            involution_chain(23),
            pulse_train(&spread(11, 37, 0.1, 6.0), &spread(11, 53, 0.05, 4.0)),
            500.0,
            None,
        ),
        inst(
            "fanout_star/2",
            fanout_star(2),
            pulse_train(&[0.5, 3.0], &[0.2, 5.0]),
            500.0,
            None,
        ),
        inst(
            "fanout_star/23",
            fanout_star(23),
            pulse_train(&spread(7, 41, 0.5, 8.0), &spread(7, 29, 0.2, 5.0)),
            500.0,
            None,
        ),
        inst(
            "cancel_heavy_inertial/chain1",
            inertial_chain(1, 0.6),
            pulse_train(&[0.5, 1.0, 2.0], &[0.1, 0.7, 0.59]),
            500.0,
            None,
        ),
        inst(
            "cancel_heavy_inertial/chain6",
            inertial_chain(6, 1.0),
            pulse_train(&[1.0, 2.0, 0.8, 3.0], &[0.3, 4.0, 0.2, 0.41]),
            400.0,
            None,
        ),
        inst(
            "cancel_heavy_inertial/chain11",
            inertial_chain(11, 1.7),
            pulse_train(&spread(19, 31, 0.5, 4.0), &spread(19, 43, 0.01, 0.7)),
            500.0,
            None,
        ),
        inst(
            "cancel_heavy_inertial/fanout256",
            inertial_fanout(256),
            cancel_heavy,
            1e9,
            None,
        ),
        inst(
            "feedback_loop/0.3",
            feedback_loop(0.3),
            Signal::pulse(0.0, 0.05).unwrap(),
            50.0,
            None,
        ),
        inst(
            "feedback_loop/0.7",
            feedback_loop(0.7),
            Signal::pulse(0.0, 3.0).unwrap(),
            500.0,
            None,
        ),
        inst(
            "feedback_loop/37",
            feedback_loop(37.0),
            Signal::pulse(0.0, 0.1).unwrap(),
            2000.0,
            None,
        ),
        inst(
            "feedback_loop/13.3",
            feedback_loop(13.3),
            Signal::pulse(0.0, 9.9).unwrap(),
            1500.0,
            None,
        ),
        inst(
            "eta_noise/0",
            noisy_circuit(),
            pulse_train(&spread(9, 23, 0.5, 5.0), &spread(9, 61, 0.5, 4.0)),
            500.0,
            Some(0),
        ),
        inst(
            "eta_noise/17",
            noisy_circuit(),
            pulse_train(&spread(6, 47, 0.5, 5.0), &spread(6, 19, 0.5, 4.0)),
            500.0,
            Some(17),
        ),
        inst(
            "eta_noise/999",
            noisy_circuit(),
            pulse_train(&spread(9, 71, 0.5, 5.0), &spread(9, 13, 0.5, 4.0)),
            500.0,
            Some(999),
        ),
        Instance {
            name: "random_dag_eta/3x",
            circuit: noisy_dag(),
            runs: vec![
                (
                    pulse_train(&spread(8, 37, 0.8, 1.6), &spread(8, 11, 0.2, 1.0)),
                    Some(101),
                ),
                (
                    pulse_train(&spread(3, 59, 0.8, 1.6), &spread(3, 23, 0.2, 1.0)),
                    Some(202),
                ),
                (
                    pulse_train(&spread(12, 17, 0.8, 1.6), &spread(12, 67, 0.2, 1.0)),
                    Some(303),
                ),
            ],
            horizon: 300.0,
        },
    ]
}

/// `(name, processed, scheduled, digest)` per instance, recorded with
/// the reference binary heap (and matched by the calendar wheel and
/// the adaptive prober at the time). Multi-run instances sum the
/// counts and chain the digest through their runs.
const GOLDEN: &[(&str, usize, usize, u64)] = &[
    ("involution_chain/1", 2, 3, 0x04cac47d04f3641c),
    ("involution_chain/9", 38, 43, 0xbf311cb26e9a0f68),
    ("involution_chain/23", 236, 246, 0x9312ecfd1366bf1f),
    ("fanout_star/2", 20, 20, 0x708b1a60dfaa07f3),
    ("fanout_star/23", 658, 658, 0x9758afd9cb727999),
    ("cancel_heavy_inertial/chain1", 10, 11, 0x02a123f4a2820dea),
    ("cancel_heavy_inertial/chain6", 20, 23, 0xbef414514fe44ded),
    (
        "cancel_heavy_inertial/chain11",
        148,
        162,
        0x31b1064d6c928c8b,
    ),
    (
        "cancel_heavy_inertial/fanout256",
        3168,
        14688,
        0xb0377b8e8afd51ed,
    ),
    ("feedback_loop/0.3", 665, 670, 0x15fcad22a5e4e561),
    ("feedback_loop/0.7", 4, 4, 0x0ed7dae64cc9546a),
    ("feedback_loop/37", 220, 222, 0x189d6c9129d62516),
    ("feedback_loop/13.3", 452, 454, 0xd2e5fc6af6413bf7),
    ("eta_noise/0", 32, 34, 0x9332ffa693426dde),
    ("eta_noise/17", 20, 22, 0xc3bcece883101f9a),
    ("eta_noise/999", 34, 35, 0x733e3975aa13ac70),
    ("random_dag_eta/3x", 562, 1660, 0x3dfca31c47209f17),
];

/// FNV-1a over every node's name, initial value and transitions (time
/// bits and value) in node order, continuing from the state `h`.
fn digest(mut h: u64, circuit: &Circuit, run: &SimResult) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    for name in circuit.node_names() {
        let signal = run.signal(name).unwrap();
        eat(&mut h, name.as_bytes());
        eat(&mut h, &[u8::from(signal.initial().is_one())]);
        for tr in signal.transitions() {
            eat(&mut h, &tr.time.to_bits().to_le_bytes());
            eat(&mut h, &[u8::from(tr.value.is_one())]);
        }
    }
    h
}

fn triple(inst: &Instance, sim: &mut Simulator) -> (usize, usize, u64) {
    let (mut processed, mut scheduled, mut h) = (0, 0, 0xcbf2_9ce4_8422_2325);
    for (input, seed) in &inst.runs {
        sim.set_input("a", input.clone()).unwrap();
        if let Some(seed) = seed {
            sim.reseed_noise(*seed);
        }
        let run = sim.run(inst.horizon).unwrap();
        processed += run.processed_events();
        scheduled += run.scheduled_events();
        h = digest(h, &inst.circuit, &run);
    }
    (processed, scheduled, h)
}

/// Every instance reproduces its golden triple — on a fresh simulator
/// and again on the same simulator's reused state.
#[test]
fn golden_triples_are_unchanged() {
    let instances = instances();
    assert_eq!(instances.len(), GOLDEN.len());
    for (inst, &(name, processed, scheduled, digest)) in instances.iter().zip(GOLDEN) {
        assert_eq!(inst.name, name);
        let mut sim = Simulator::new(inst.circuit.clone());
        for round in 0..2 {
            assert_eq!(
                triple(inst, &mut sim),
                (processed, scheduled, digest),
                "{name} round {round}: output diverges from the golden triple"
            );
        }
    }
}

// ======================================================================
// Sweep-level determinism
// ======================================================================

fn sweep_scenarios(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|k| {
            Scenario::new(format!("s{k}"))
                .with_input(
                    "a",
                    pulse_train(
                        &[0.5 + 0.1 * k as f64, 1.0, 2.0],
                        &[3.0, 0.2, 1.0 + 0.05 * k as f64],
                    ),
                )
                .with_seed(k as u64)
        })
        .collect()
}

fn assert_sweeps_identical(a: &ivl_circuit::SweepResult, b: &ivl_circuit::SweepResult, ctx: &str) {
    assert_eq!(a.stats(), b.stats(), "{ctx}: stats diverge");
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(x.label(), y.label(), "{ctx}");
        match (x.result(), y.result()) {
            (Ok(rx), Ok(ry)) => {
                assert_eq!(
                    rx.signal("y").unwrap(),
                    ry.signal("y").unwrap(),
                    "{ctx}: scenario {} diverges",
                    x.label()
                );
                assert_eq!(rx.processed_events(), ry.processed_events(), "{ctx}");
            }
            (Err(ex), Err(ey)) => assert_eq!(format!("{ex}"), format!("{ey}"), "{ctx}"),
            _ => panic!("{ctx}: ok/err mismatch on {}", x.label()),
        }
    }
}

/// Each `run()` fans out over scoped workers that reuse the warm
/// simulators the runner keeps between runs; repeated sweeps on one
/// runner must stay bit-identical, for every worker count.
#[test]
fn pool_is_deterministic_across_repeated_runs_and_worker_counts() {
    let scenarios = sweep_scenarios(13);
    let reference = ScenarioRunner::new(noisy_circuit(), 300.0)
        .with_workers(1)
        .run(&scenarios);
    for workers in [1, 2, 4, 7, 8] {
        let runner = ScenarioRunner::new(noisy_circuit(), 300.0).with_workers(workers);
        for round in 0..3 {
            let sweep = runner.run(&scenarios);
            assert_sweeps_identical(
                &reference,
                &sweep,
                &format!("workers={workers} round={round}"),
            );
        }
    }
}

/// Cancel-heavy inertial sweeps through the pool: stale keys, heap
/// compaction and slab recycling under parallel, repeated execution.
#[test]
fn pool_sweeps_cancel_heavy_identical_across_worker_counts() {
    let circuit = inertial_chain(6, 1.0);
    let scenarios: Vec<Scenario> = (0..10)
        .map(|k| {
            Scenario::new(format!("c{k}")).with_input(
                "a",
                pulse_train(
                    &[1.0, 2.0, 0.8, 3.0],
                    &[0.3, 4.0, 0.2, 0.4 + 0.01 * k as f64],
                ),
            )
        })
        .collect();
    let reference = ScenarioRunner::new(circuit.clone(), 400.0)
        .with_workers(1)
        .run(&scenarios);
    for workers in [2, 4] {
        let runner = ScenarioRunner::new(circuit.clone(), 400.0).with_workers(workers);
        for round in 0..2 {
            assert_sweeps_identical(
                &reference,
                &runner.run(&scenarios),
                &format!("cancel-heavy workers={workers} round={round}"),
            );
        }
    }
}
