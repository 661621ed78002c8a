//! Digital event-driven simulator cost: the event queue on the three
//! canonical workloads (1k-gate chain, fanout grid, cancel-heavy
//! inertial churn), a 64-scenario sweep on the scenario runner at
//! 1/2/4 workers, a `sweep_10k` tier (10 000
//! scenarios) sized to actually saturate cores at 1/2/4/8 workers —
//! the 64-scenario sweep finishes in tens of ms and measures spawn
//! overhead, not scaling — and a `service` tier pushing a batch of
//! distinct specs through an in-process `faithful-serve` daemon cold
//! (every spec computed) and hot (pure content-addressed cache replay),
//! recording specs/sec and client-observed p50/p99 latency for both,
//! and a `scale` tier — a 100k-gate involution chain (always, CI smoke
//! included) and a million-gate 2-D grid (behind `IVL_BENCH_FULL=1`) —
//! simulated with a single watched output and recorded with build/run
//! wall time plus peak RSS (`VmHWM`), so memory cost per gate is
//! tracked across PRs alongside speed; the resident set right after the
//! 1-worker `sweep_10k` (which runs on the calling thread) is recorded
//! next to it. The `dag20k_sweep_2w` row times
//! one whole facade sweep in the paper's regime — 32 short glitch
//! trains into a 20k-gate random DAG behind η-noise channels, watching
//! only `y`, on 2 workers — where each scenario touches a small part of
//! the netlist, so per-scenario costs that scale with the netlist show
//! up there first.
//!
//! Besides the criterion groups, the harness emits a machine-readable
//! `BENCH_digital.json` baseline at the workspace root (override the
//! directory with `BENCH_DIR`) so the perf trajectory of the digital
//! pipeline is tracked across PRs. The baseline records `host_cpus`
//! (`available_parallelism`) — parallel speedups are only meaningful
//! relative to the cores the recording host actually had. In `--test`
//! mode (CI smoke) every measurement runs exactly once. With
//! `IVL_BENCH_CHECK=1` the harness exits non-zero if (a) — on hosts
//! with ≥ 4 cores — the 4-worker `sweep_10k` fails to beat 1 worker,
//! (b) a scale workload's peak RSS per gate grows more than 10% past
//! the committed baseline, or (c) in the service tier, the hot batch
//! is under 10× the cold one's specs/sec or the lint preflight takes
//! more than 30% of lint + simulate on one cold spec.
//!
//! Before timing anything the harness *verifies* that the scenario
//! runner reproduces a serial single-simulator loop bit for bit on the
//! measured workload at every worker count — a speedup on wrong answers
//! is worthless.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use faithful::service::{run_batch, BatchOptions, ServeConfig, Server};
use faithful::{
    lint_text_for_service, ChannelSpec, DigitalSpec, Experiment, ExperimentSpec, FailurePolicySpec,
    LintConfig, NoiseSpec, OutputSelect, ScenarioSpec, SignalSpec, TopologySpec,
};
use ivl_circuit::{
    Circuit, CircuitBuilder, GateKind, Scenario, ScenarioRunner, SimResult, Simulator, SweepResult,
};
use ivl_core::channel::{InertialDelay, InvolutionChannel, PureDelay};
use ivl_core::delay::ExpChannel;
use ivl_core::{Bit, Signal};

// ======================================================================
// Workloads
// ======================================================================

fn pipeline_circuit(stages: usize) -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    for i in 0..stages {
        let g = b.gate(
            &format!("inv{i}"),
            GateKind::Not,
            if i % 2 == 0 { Bit::One } else { Bit::Zero },
        );
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

fn chain_input() -> Signal {
    Signal::pulse_train((0..20).map(|i| (f64::from(i) * 40.0, 20.0))).unwrap()
}

fn fanout_grid_circuit(width: usize, depth: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let root = b.gate("root", GateKind::Buf, Bit::Zero);
    b.connect_direct(a, root, 0).unwrap();
    for w in 0..width {
        let mut prev = root;
        for d in 0..depth {
            let g = b.gate(&format!("b{w}_{d}"), GateKind::Buf, Bit::Zero);
            b.connect(prev, g, 0, PureDelay::new(0.1 + w as f64 * 1e-3).unwrap())
                .unwrap();
            prev = g;
        }
        let y = b.output(&format!("y{w}"));
        b.connect(prev, y, 0, PureDelay::new(0.1).unwrap()).unwrap();
    }
    b.build().unwrap()
}

fn grid_input() -> Signal {
    Signal::pulse_train((0..10).map(|i| (f64::from(i) * 10.0, 5.0))).unwrap()
}

/// Cancel-heavy inertial workload with a *large resident event
/// population*: one root gate fans out to `width` parallel inertial
/// buffers whose transport delays put pending events far in the future.
/// Most input pulses are narrower than the rejection window, so most
/// scheduled events are cancelled before delivery — the queue's stale
/// keys and their compaction dominate run time.
fn cancel_heavy_circuit(width: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let root = b.gate("root", GateKind::Buf, Bit::Zero);
    b.connect_direct(a, root, 0).unwrap();
    for w in 0..width {
        let g = b.gate(&format!("buf{w}"), GateKind::Buf, Bit::Zero);
        // long transport delays (spread per edge, as process variation
        // would) keep tens of thousands of cancelled events resident as
        // stale keys until the queue compacts them away
        b.connect(
            root,
            g,
            0,
            InertialDelay::new(120.0 + w as f64 * 0.1, 7.0).unwrap(),
        )
        .unwrap();
        let y = b.output(&format!("y{w}"));
        b.connect(g, y, 0, PureDelay::new(0.5).unwrap()).unwrap();
    }
    b.build().unwrap()
}

fn cancel_heavy_input() -> Signal {
    // width 6 (rejected by the 7-wide window) for fifteen pulses out of
    // sixteen, width 9 (passes) for the sixteenth: ~15/16 of scheduled
    // events cancel, the rest flow through to the outputs
    Signal::pulse_train((0..64).map(|i| {
        let t = f64::from(i) * 16.0;
        if i % 16 == 15 {
            (t, 9.0)
        } else {
            (t, 6.0)
        }
    }))
    .unwrap()
}

/// A simulator warmed by one run, so what gets timed is the steady
/// state with pool, queue and recorders at their high-water marks.
fn warmed_sim(circuit: &Circuit, input: &Signal) -> Simulator {
    let mut sim = Simulator::new(circuit.clone());
    sim.set_input("a", input.clone()).unwrap();
    sim.run(1e9).unwrap();
    sim
}

/// The three canonical event-queue workloads.
fn queue_workloads() -> Vec<(&'static str, Circuit, Signal)> {
    vec![
        ("chain_1k", pipeline_circuit(1024), chain_input()),
        ("fanout_grid", fanout_grid_circuit(64, 16), grid_input()),
        (
            "cancel_heavy_inertial",
            cancel_heavy_circuit(4096),
            cancel_heavy_input(),
        ),
    ]
}

// ======================================================================
// Sweep workloads
// ======================================================================

/// The input signal scenario `k` assigns to port "a" — shared by the
/// runner's scenarios and the serial reference so both always simulate
/// identical workloads.
fn scenario_signal(k: u64) -> Signal {
    Signal::pulse_train((0..10).map(|i| (f64::from(i) * 40.0, 15.0 + k as f64 * 0.1))).unwrap()
}

fn sweep_scenarios(n: usize) -> Vec<Scenario> {
    (0..n as u64)
        .map(|k| {
            Scenario::new(format!("s{k}"))
                .with_input("a", scenario_signal(k))
                .with_seed(k)
        })
        .collect()
}

/// The `sweep_10k` tier: a short per-scenario workload (5 pulses
/// through a 64-stage pipeline) times 10 000 scenarios. Individually
/// cheap scenarios at high volume are exactly where per-worker netlist
/// clones and spawn overhead used to drown the parallel speedup.
fn sweep10k_signal(k: u64) -> Signal {
    Signal::pulse_train((0..5).map(|i| (f64::from(i) * 40.0, 15.0 + k as f64 * 1e-3))).unwrap()
}

fn sweep10k_scenarios(n: usize) -> Vec<Scenario> {
    (0..n as u64)
        .map(|k| {
            Scenario::new(format!("t{k}"))
                .with_input("a", sweep10k_signal(k))
                .with_seed(k)
        })
        .collect()
}

/// The serial reference: one simulator runs every scenario in order.
fn serial_reference(circuit: &Circuit, scenarios: &[Scenario], horizon: f64) -> Vec<SimResult> {
    let mut sim = Simulator::new(circuit.clone());
    scenarios
        .iter()
        .enumerate()
        .map(|(idx, sc)| {
            sim.reset_inputs();
            if let Some(seed) = sc.seed() {
                sim.reseed_noise(seed);
            }
            // scenarios here assign only port "a" (Scenario does not
            // expose its inputs; the shared constructor keeps both sides
            // equal)
            sim.set_input("a", scenario_signal(idx as u64)).unwrap();
            sim.run(horizon).unwrap()
        })
        .collect()
}

// ======================================================================
// Criterion groups
// ======================================================================

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for (name, circuit, input) in &queue_workloads() {
        let mut sim = warmed_sim(circuit, input);
        let scheduled = sim.run(1e9).unwrap().scheduled_events();
        group.throughput(Throughput::Elements(scheduled as u64));
        group.bench_function(*name, |b| {
            b.iter(|| sim.run(1e9).unwrap());
        });
    }
    group.finish();
}

fn bench_scenario_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_pool");
    group.sample_size(10);
    let circuit = pipeline_circuit(128);
    let scenarios = sweep_scenarios(64);
    group.throughput(Throughput::Elements(scenarios.len() as u64));
    for workers in [1usize, 2, 4] {
        let runner = ScenarioRunner::new(circuit.clone(), 1e9).with_workers(workers);
        let _ = runner.run(&scenarios); // warm the simulators
        group.bench_with_input(BenchmarkId::new("pool", workers), &workers, |b, _| {
            b.iter(|| {
                let sweep = runner.run(&scenarios);
                assert_eq!(sweep.stats().failures, 0);
                sweep
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_scenario_pool);

// ======================================================================
// BENCH_digital.json baseline
// ======================================================================

/// Median wall-clock seconds of `iters` runs of `f` (one run in
/// `--test` mode).
fn median_secs<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Best-of-`samples` per-run seconds of a warmed simulator. Each
/// sample is batched to span >= 10 ms (a sub-millisecond run is
/// dominated by timer granularity and preemption spikes), and
/// preemption only ever *adds* time, so the minimum is the least-noisy
/// per-run estimate.
fn best_run_secs(sim: &mut Simulator, samples: usize) -> f64 {
    let t0 = Instant::now();
    sim.run(1e9).unwrap();
    let single = t0.elapsed().as_secs_f64();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let reps = ((0.01 / single.max(1e-9)).ceil() as usize).clamp(1, 64);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..reps {
            sim.run(1e9).unwrap();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Bit-identity gate: the runner must agree with the serial reference
/// for every worker count before any number is recorded.
fn verify_runner_matches_serial(circuit: &Circuit, scenarios: &[Scenario]) {
    let reference = serial_reference(circuit, scenarios, 1e9);
    for workers in [1usize, 2, 4] {
        let sweep = ScenarioRunner::new(circuit.clone(), 1e9)
            .with_workers(workers)
            .run(scenarios);
        assert_eq!(sweep.len(), reference.len());
        for (reference_run, outcome) in reference.iter().zip(sweep.outcomes()) {
            let runner_run = outcome.result().as_ref().unwrap();
            assert_eq!(
                reference_run.signal("y").unwrap(),
                runner_run.signal("y").unwrap(),
                "runner (workers={workers}) diverges from the serial reference on {}",
                outcome.label()
            );
        }
    }
    println!("bit-identity verified: runner == serial simulator at 1/2/4 workers");
}

// ======================================================================
// The `service` tier: faithful-serve cold vs hot cache throughput
// ======================================================================

/// One spec of the service batch: a seeded (hence cacheable) sweep.
/// The document is deliberately *short* (12 pulses) but the simulation
/// *heavy* (a 128-stage chain), so a cold submission is dominated by
/// event processing while a hot replay pays only parse + hash + frame
/// I/O — the asymmetry the cache exists to exploit.
fn service_spec(k: u64) -> String {
    ExperimentSpec::digital(
        DigitalSpec::new(
            TopologySpec::InverterChain {
                stages: 128,
                channel: ChannelSpec::eta_exp(
                    1.0,
                    0.5,
                    0.5,
                    0.02,
                    0.02,
                    NoiseSpec::Uniform { seed: 0 },
                ),
            },
            2000.0,
        )
        .with_scenario(ScenarioSpec::new(format!("k{k}")).with_seed(k).with_input(
            "a",
            SignalSpec::train((0..12).map(|i| (f64::from(i) * 75.0, 15.0))),
        )),
    )
    .to_string()
}

/// The two stages a cold submission of `service_spec` pays before
/// rendering: the daemon's lint preflight and the run (workers forced
/// to 1, lint off, as the daemon does). Timed in-process and
/// interleaved — lint, run, lint, run, … — so host drift hits both
/// alike; returns the median `(lint_us, simulate_us)`.
fn preflight_cost(test_mode: bool) -> (f64, f64) {
    let text = service_spec(0);
    let registry = ivl_core::factory::ChannelRegistry::with_builtins();
    let mut spec: ExperimentSpec = text.parse().expect("service spec parses");
    if let faithful::WorkloadSpec::Digital(d) = &mut spec.workload {
        d.workers = Some(1);
    }
    let rounds = if test_mode { 21 } else { 101 };
    let (mut lint_us, mut sim_us) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let t = Instant::now();
        let report = lint_text_for_service(&text, &registry).expect("service spec parses");
        lint_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(!report.has_errors(), "{report}");
        let t = Instant::now();
        let result = Experiment::new(spec.clone())
            .with_lint(LintConfig::Off)
            .run()
            .expect("service spec runs");
        sim_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(result.digital().is_some());
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut lint_us), median(&mut sim_us))
}

/// Runs the experiment-service tier: an in-process `faithful-serve`
/// pool fed one batch of distinct specs over 4 pipelined connections,
/// cold (every spec computed) then hot (pure cache replay), plus the
/// in-process lint-vs-simulate split of one cold spec. Returns the
/// recorded `(metric, value)` pairs; under `IVL_BENCH_CHECK` asserts
/// the hot batch sustains >= 10x the cold specs/sec and the lint
/// preflight takes at most 30% of lint + simulate.
fn service_tier(test_mode: bool) -> Vec<(String, f64)> {
    let batch = if test_mode { 256 } else { 1000 };
    let specs: Vec<String> = (0..batch).map(service_spec).collect();
    let server = Server::bind(ServeConfig::default()).expect("bind service bench server");
    let addr = server.local_addr().expect("service bench addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let options = BatchOptions {
        connections: 4,
        pipeline: 32,
    };
    let cold = run_batch(&addr, &specs, &options).expect("cold service batch");
    assert!(cold.errors.is_empty(), "{:?}", cold.errors);
    assert_eq!(cold.ok, specs.len());
    assert_eq!(cold.cached, 0, "distinct cold specs cannot hit the cache");
    let hot = run_batch(&addr, &specs, &options).expect("hot service batch");
    assert_eq!(
        hot.cached,
        specs.len(),
        "the hot batch must be pure cache replay"
    );
    handle.shutdown();
    let summary = join.join().expect("service bench server");
    assert_eq!(summary.jobs, specs.len() as u64);

    let ratio = hot.specs_per_sec() / cold.specs_per_sec().max(1e-12);
    let (lint_us, simulate_us) = preflight_cost(test_mode);
    let lint_share = lint_us / (lint_us + simulate_us);
    println!(
        "service preflight: lint {lint_us:.0}us, simulate {simulate_us:.0}us, \
         lint share {lint_share:.2}"
    );
    println!(
        "service tier ({batch} specs): cold {:.0} specs/sec (p50 {:.2}ms, p99 {:.2}ms), \
         hot {:.0} specs/sec (p50 {:.2}ms, p99 {:.2}ms), {ratio:.1}x",
        cold.specs_per_sec(),
        cold.latency_ms(0.5).unwrap_or(0.0),
        cold.latency_ms(0.99).unwrap_or(0.0),
        hot.specs_per_sec(),
        hot.latency_ms(0.5).unwrap_or(0.0),
        hot.latency_ms(0.99).unwrap_or(0.0),
    );
    if std::env::var_os("IVL_BENCH_CHECK").is_some() {
        assert!(
            ratio >= 10.0,
            "regression gate: hot-cache service throughput only {ratio:.1}x cold \
             (hot {:.0} vs cold {:.0} specs/sec)",
            hot.specs_per_sec(),
            cold.specs_per_sec()
        );
        println!("IVL_BENCH_CHECK passed: service hot vs cold = {ratio:.1}x");
        assert!(
            lint_share <= 0.30,
            "regression gate: the lint preflight takes {lint_share:.2} of lint + simulate \
             on the service spec (lint {lint_us:.0}us, simulate {simulate_us:.0}us)"
        );
        println!("IVL_BENCH_CHECK passed: service lint share = {lint_share:.2}");
    }
    vec![
        ("cold_specs_per_sec".to_owned(), cold.specs_per_sec()),
        ("hot_specs_per_sec".to_owned(), hot.specs_per_sec()),
        ("hot_vs_cold".to_owned(), ratio),
        (
            "cold_p50_ms".to_owned(),
            cold.latency_ms(0.5).unwrap_or(0.0),
        ),
        (
            "cold_p99_ms".to_owned(),
            cold.latency_ms(0.99).unwrap_or(0.0),
        ),
        ("hot_p50_ms".to_owned(), hot.latency_ms(0.5).unwrap_or(0.0)),
        ("hot_p99_ms".to_owned(), hot.latency_ms(0.99).unwrap_or(0.0)),
        ("lint_us".to_owned(), lint_us),
        ("simulate_us".to_owned(), simulate_us),
        ("lint_share".to_owned(), lint_share),
    ]
}

// ======================================================================
// The `scale` tier: chain_100k / grid_1M with peak-RSS accounting
// ======================================================================

/// One `kB` field of `/proc/self/status`, in bytes. `None` off Linux
/// or if the field is missing.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The process peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Resets the kernel's peak-RSS watermark so each scale workload reads
/// its *own* high-water mark instead of whatever an earlier bench
/// peaked at. Best-effort: on kernels without `clear_refs` support the
/// recorded peak is a process-lifetime bound, which only over-reports.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One measured scale workload.
struct ScaleResult {
    name: &'static str,
    gates: u64,
    build_secs: f64,
    run_secs: f64,
    peak_rss_bytes: u64,
    processed_events: usize,
}

impl ScaleResult {
    #[allow(clippy::cast_precision_loss)]
    fn rss_per_gate(&self) -> f64 {
        self.peak_rss_bytes as f64 / self.gates as f64
    }
}

/// Builds, watches and runs one scale workload, recording wall time for
/// construction and simulation plus the peak RSS across both. Only the
/// output port is watched — the whole point of the tier is that working
/// memory tracks the watch set, not the netlist.
fn run_scale_workload(
    name: &'static str,
    gates: u64,
    input: &Signal,
    build: impl FnOnce() -> Circuit,
) -> ScaleResult {
    reset_peak_rss();
    let t0 = Instant::now();
    let circuit = build();
    let build_secs = t0.elapsed().as_secs_f64();
    let mut sim = Simulator::new(circuit);
    sim.set_watch(["y"]).unwrap();
    sim.set_input("a", input.clone()).unwrap();
    let t0 = Instant::now();
    let run = sim.run(1e9).unwrap();
    let run_secs = t0.elapsed().as_secs_f64();
    assert!(
        run.processed_events() as u64 >= gates,
        "{name}: the workload must exercise every gate at least once \
         ({} events over {gates} gates)",
        run.processed_events()
    );
    assert!(run.signal("y").is_ok(), "{name}: watched output missing");
    let result = ScaleResult {
        name,
        gates,
        build_secs,
        run_secs,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        processed_events: run.processed_events(),
    };
    println!(
        "scale tier {name}: {gates} gates, build {:.2}s, run {:.2}s, \
         {} events, peak RSS {:.1} MiB ({:.0} B/gate)",
        result.build_secs,
        result.run_secs,
        result.processed_events,
        result.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        result.rss_per_gate(),
    );
    result
}

/// The `scale` tier: a 100k-gate involution chain always (CI smoke
/// included — it is the per-PR peak-RSS sentinel), and a million-gate
/// 2-D grid behind `IVL_BENCH_FULL=1` (it costs several seconds and a
/// few hundred MB, which is full-run territory, not smoke).
fn scale_tier() -> Vec<ScaleResult> {
    let mut out = Vec::new();

    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let chain_input = Signal::pulse_train((0..5).map(|i| (f64::from(i) * 40.0, 20.0))).unwrap();
    out.push(run_scale_workload(
        "chain_100k",
        100_000,
        &chain_input,
        || {
            ivl_circuit::generate::inverter_chain(100_000, || {
                Box::new(InvolutionChannel::new(d.clone()))
            })
            .unwrap()
        },
    ));

    if std::env::var_os("IVL_BENCH_FULL").is_some() {
        let grid_input = Signal::pulse_train([(0.0, 500.0), (2000.0, 500.0)]).unwrap();
        out.push(run_scale_workload(
            "grid_1M",
            1_000_000,
            &grid_input,
            || {
                ivl_circuit::generate::grid(1000, 1000, || Box::new(PureDelay::new(0.9).unwrap()))
                    .unwrap()
            },
        ));
    } else {
        println!("scale tier: grid_1M skipped (set IVL_BENCH_FULL=1 to run it)");
    }
    out
}

/// Extracts `"rss_per_gate"` for one scale workload from a previously
/// committed `BENCH_digital.json`, without a JSON parser: finds the
/// workload's key and reads the first `rss_per_gate` number after it.
fn prior_rss_per_gate(baseline: &str, name: &str) -> Option<f64> {
    let start = baseline.find(&format!("\"{name}\""))?;
    let rest = &baseline[start..];
    let key = "\"rss_per_gate\":";
    let tail = rest[rest.find(key)? + key.len()..].trim_start();
    let end = tail.find([',', '\n', '}'])?;
    tail[..end].trim().parse().ok()
}

/// A spec-driven digital sweep through the `Experiment` facade — the
/// facade dispatches to the same `ScenarioRunner`, so it inherits the
/// event queue and the runner's workers for free; this entry pins that.
fn facade_sweep() -> DigitalSpec {
    DigitalSpec {
        topology: TopologySpec::InverterChain {
            stages: 128,
            channel: ChannelSpec::involution_exp(1.0, 0.5, 0.5),
        },
        scenarios: (0..32u64)
            .map(|k| ScenarioSpec {
                label: format!("f{k}"),
                seed: Some(k),
                inputs: vec![(
                    "a".to_owned(),
                    SignalSpec::pulse(0.0, 20.0 + k as f64 * 0.25),
                )],
            })
            .collect(),
        horizon: 1e9,
        workers: Some(4),
        max_events: None,
        on_failure: FailurePolicySpec::default(),
        outputs: OutputSelect {
            signals: false,
            stats: true,
            vcd: false,
            watch: Vec::new(),
        },
    }
}

/// The `dag20k_sweep_2w` row: a 20 000-gate `random_dag` behind
/// η-involution channels with seeded uniform noise, watching only `y`,
/// driven by 32 seeded trains of 16 glitches whose widths straddle the
/// channel's cancellation threshold, on 2 workers.
fn dag20k_sweep() -> DigitalSpec {
    let scenarios = (0..32u64)
        .map(|k| {
            let mut at = 1.0;
            let pulses: Vec<(f64, f64)> = (0..16u64)
                .map(|i| {
                    let width = 0.2 + 0.05 * ((i * 7 + k) % 16) as f64;
                    let pulse = (at, width);
                    at += width + 0.8 + 0.05 * ((i * 5 + k) % 16) as f64;
                    pulse
                })
                .collect();
            ScenarioSpec {
                label: format!("g{k}"),
                seed: Some(1000 + k),
                inputs: vec![("a".to_owned(), SignalSpec::train(pulses))],
            }
        })
        .collect();
    DigitalSpec {
        topology: TopologySpec::RandomDag {
            nodes: 20_000,
            seed: Some(1),
            channel: ChannelSpec::eta_exp(
                1.0,
                0.5,
                0.5,
                0.02,
                0.02,
                NoiseSpec::Uniform { seed: 7 },
            ),
        },
        scenarios,
        horizon: 250.0,
        workers: Some(2),
        max_events: None,
        on_failure: FailurePolicySpec::default(),
        outputs: OutputSelect {
            signals: true,
            stats: true,
            vcd: false,
            watch: vec!["y".to_owned()],
        },
    }
}

/// Emits the `BENCH_digital.json` perf baseline: the event queue on
/// the three workloads, the 64-scenario sweep at 1/2/4 workers, the
/// facade-driven sweeps, and the `sweep_10k` scaling tier.
#[allow(clippy::too_many_lines)]
fn emit_baseline(test_mode: bool) {
    let iters = if test_mode { 1 } else { 5 };
    let sweep_circuit = pipeline_circuit(128);
    let scenarios = sweep_scenarios(64);
    verify_runner_matches_serial(&sweep_circuit, &scenarios);
    // the scale tier runs before the sweep tiers: resetting the peak-RSS
    // watermark only lowers it to the current RSS, so heap the allocator
    // still caches from an earlier tier would count against the scale
    // workload (the 1-worker sweep_10k runs on this thread and leaves
    // ~270 MB of freed heap cached in its arena; the recorded
    // `rss_after_sweep_10k_1w_bytes` keeps that residue visible)
    let scale = scale_tier();

    let mut entries: Vec<(String, f64)> = Vec::new();
    for (name, circuit, input) in &queue_workloads() {
        let mut sim = warmed_sim(circuit, input);
        entries.push(((*name).to_owned(), best_run_secs(&mut sim, iters)));
    }

    // (entry, failed, retried) per sweep workload: clean benchmark runs
    // must report zero failures, and the recorded counts let a baseline
    // diff spot a sweep that silently started skipping scenarios
    let mut sweep_health: Vec<(String, usize, u64)> = Vec::new();
    for workers in [1usize, 2, 4] {
        let runner = ScenarioRunner::new(sweep_circuit.clone(), 1e9).with_workers(workers);
        let _ = runner.run(&scenarios); // warm the simulators
        let pool_t = median_secs(iters, || {
            let sweep: SweepResult = runner.run(&scenarios);
            assert_eq!(sweep.stats().failures, 0);
        });
        entries.push((format!("pool_sweep_{workers}w"), pool_t));
        let stats = runner.run(&scenarios).stats().clone();
        sweep_health.push((
            format!("pool_sweep_{workers}w"),
            stats.failures,
            stats.retried,
        ));
    }

    // sweep_10k: the scaling tier. 10k cheap scenarios at 1/2/4/8
    // workers — large enough that per-scenario setup cost or a
    // per-worker netlist clone would dominate the wall time, small
    // enough per scenario that the runner's chunked cursor matters.
    let sweep10k_circuit = pipeline_circuit(64);
    let sweep10k = sweep10k_scenarios(10_000);
    let sweep10k_iters = if test_mode { 1 } else { 3 };
    let mut sweep10k_times: Vec<(usize, f64)> = Vec::new();
    let mut rss_after_sweep_10k_1w = 0;
    for workers in [1usize, 2, 4, 8] {
        let runner = ScenarioRunner::new(sweep10k_circuit.clone(), 1e9).with_workers(workers);
        let _ = runner.run(&sweep10k[..64.min(sweep10k.len())]); // warm the simulators
        let t = median_secs(sweep10k_iters, || {
            let sweep: SweepResult = runner.run(&sweep10k);
            assert_eq!(sweep.stats().failures, 0);
        });
        entries.push((format!("sweep_10k_{workers}w"), t));
        sweep10k_times.push((workers, t));
        let stats = runner.run(&sweep10k).stats().clone();
        sweep_health.push((
            format!("sweep_10k_{workers}w"),
            stats.failures,
            stats.retried,
        ));
        if workers == 1 {
            // recorded, not gated: a 1-worker sweep runs on this thread,
            // and the heap glibc keeps cached in the main arena after
            // its results are freed shows up here as resident memory
            drop(runner);
            rss_after_sweep_10k_1w = proc_status_bytes("VmRSS:").unwrap_or(0);
            println!(
                "sweep_10k 1w: resident {:.1} MiB after the runner is dropped",
                rss_after_sweep_10k_1w as f64 / (1024.0 * 1024.0)
            );
        }
    }

    let spec = facade_sweep();
    let facade_t = median_secs(iters, || {
        let result = Experiment::digital(spec.clone()).run().unwrap();
        let stats = result.digital().unwrap().stats.as_ref().unwrap();
        assert_eq!(stats.failures, 0);
    });
    entries.push(("facade_sweep_4w".to_owned(), facade_t));
    let facade_result = Experiment::digital(spec.clone()).run().unwrap();
    let facade_digital = facade_result.digital().unwrap();
    // clean-run gate: the supervised facade path must report zero
    // failures and zero retries on a fault-free workload
    assert_eq!(
        facade_digital.failed, 0,
        "clean facade sweep reported failures"
    );
    assert_eq!(
        facade_digital.retried, 0,
        "clean facade sweep reported retries"
    );
    assert!(facade_digital.failures.is_empty());
    assert!(facade_digital.quarantine.is_empty());
    sweep_health.push((
        "facade_sweep_4w".to_owned(),
        facade_digital.failed,
        facade_digital.retried,
    ));

    // one whole op of the paper's regime: build, worker spawn and 32
    // scenarios that each touch a small part of a 20k-gate netlist
    let spec = dag20k_sweep();
    let dag_t = median_secs(iters, || {
        let result = Experiment::digital(spec.clone()).run().unwrap();
        assert_eq!(result.digital().unwrap().failed, 0);
    });
    entries.push(("dag20k_sweep_2w".to_owned(), dag_t));
    let dag_result = Experiment::digital(spec).run().unwrap();
    let dag_digital = dag_result.digital().unwrap();
    sweep_health.push((
        "dag20k_sweep_2w".to_owned(),
        dag_digital.failed,
        dag_digital.retried,
    ));
    for (name, failed, retried) in &sweep_health {
        assert_eq!(
            *failed, 0,
            "{name}: clean benchmark sweep reported failures"
        );
        assert_eq!(
            *retried, 0,
            "{name}: clean benchmark sweep reported retries"
        );
    }

    let service = service_tier(test_mode);

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"digital\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if test_mode { "test" } else { "full" }
    ));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"results\": {\n");
    for (i, (name, secs)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {secs:.9}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str("  \"sweep_10k_scaling\": {\n");
    let base_10k = sweep10k_times[0].1;
    for (i, (workers, t)) in sweep10k_times.iter().enumerate() {
        let comma = if i + 1 < sweep10k_times.len() {
            ","
        } else {
            ""
        };
        let s = base_10k / t.max(1e-12);
        json.push_str(&format!("    \"{workers}w\": {s:.2}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"rss_after_sweep_10k_1w_bytes\": {rss_after_sweep_10k_1w},\n"
    ));
    json.push_str("  \"service\": {\n");
    for (i, (name, v)) in service.iter().enumerate() {
        let comma = if i + 1 < service.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {v:.3}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str("  \"scale\": {\n");
    for (i, r) in scale.iter().enumerate() {
        let comma = if i + 1 < scale.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{ \"gates\": {}, \"build_secs\": {:.3}, \"run_secs\": {:.3}, \
             \"processed_events\": {}, \"peak_rss_bytes\": {}, \"rss_per_gate\": {:.1} }}{comma}\n",
            r.name,
            r.gates,
            r.build_secs,
            r.run_secs,
            r.processed_events,
            r.peak_rss_bytes,
            r.rss_per_gate(),
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"sweep_health\": {\n");
    for (i, (name, failed, retried)) in sweep_health.iter().enumerate() {
        let comma = if i + 1 < sweep_health.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"failed\": {failed}, \"retried\": {retried} }}{comma}\n"
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let dir = std::env::var_os("BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("workspace root exists")
                .to_path_buf()
        });
    let path = dir.join("BENCH_digital.json");
    // the committed baseline feeds the peak-RSS regression gate, so it
    // must be read before this run's numbers replace it
    let prior_baseline = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::write(&path, json).expect("can write bench baseline");
    println!("baseline written to {}", path.display());
    for (workers, t) in &sweep10k_times {
        println!("sweep_10k {workers}w: {t:.3}s ({:.2}x vs 1w)", base_10k / t);
    }

    if std::env::var_os("IVL_BENCH_CHECK").is_some() {
        // Peak-RSS-per-gate gate: memory cost per gate must not creep
        // more than 10% past the committed baseline. Wall time on a
        // shared runner is noisy; the high-water mark of a fixed
        // workload is not, so this tolerance is tight on purpose.
        for r in &scale {
            let Some(prior) = prior_rss_per_gate(&prior_baseline, r.name) else {
                println!(
                    "IVL_BENCH_CHECK: no committed rss_per_gate for {}, skipped",
                    r.name
                );
                continue;
            };
            let now = r.rss_per_gate();
            assert!(
                now <= prior * 1.10,
                "regression gate: {} peak RSS per gate grew {:.0} -> {:.0} bytes (>10%)",
                r.name,
                prior,
                now
            );
            println!(
                "IVL_BENCH_CHECK passed: {} rss_per_gate {:.0} vs baseline {:.0}",
                r.name, now, prior
            );
        }
        bench_check(&sweep10k_circuit, &sweep10k, host_cpus);
    }
}

/// The `IVL_BENCH_CHECK` runner-scaling smoke, run even in `--test`
/// mode: on hosts with ≥ 4 cores, the 4-worker `sweep_10k` must beat
/// 1 worker. Skipped below 4 cores: with nothing to run on in
/// parallel, a scaling assertion only measures the scheduler.
fn bench_check(sweep10k_circuit: &Circuit, sweep10k: &[Scenario], host_cpus: usize) {
    if host_cpus >= 4 {
        let time_at = |workers: usize| {
            let runner = ScenarioRunner::new(sweep10k_circuit.clone(), 1e9).with_workers(workers);
            let _ = runner.run(&sweep10k[..64.min(sweep10k.len())]); // warm
            let t0 = Instant::now();
            let sweep = runner.run(sweep10k);
            assert_eq!(sweep.stats().failures, 0);
            t0.elapsed().as_secs_f64()
        };
        let t1 = time_at(1);
        let t4 = time_at(4);
        assert!(
            t4 < t1,
            "scaling gate: sweep_10k at 4 workers ({t4:.3}s) does not beat 1 worker ({t1:.3}s)"
        );
        println!(
            "IVL_BENCH_CHECK passed: sweep_10k 4w beats 1w ({:.2}x)",
            t1 / t4
        );
    } else {
        println!("IVL_BENCH_CHECK: runner-scaling smoke skipped (host has {host_cpus} cpu)");
    }
}

fn main() {
    benches();
    // only rewrite the tracked baseline on full, unfiltered runs (or
    // CI's `--test` smoke); a name-filtered dev invocation should
    // neither pay for the baseline suite nor clobber its numbers. A
    // bare argument counts as a filter only when it does not directly
    // follow a `--option` (which may be consuming it as a value).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filtered = args.iter().enumerate().any(|(i, a)| {
        let follows_option = i > 0 && args[i - 1].starts_with("--");
        !a.is_empty() && !a.starts_with("--") && !follows_option
    });
    if !filtered {
        emit_baseline(args.iter().any(|a| a == "--test"));
    }
}
