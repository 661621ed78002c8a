//! Scenario supervision: panic containment, failure policies, retries,
//! watchdog timeouts, fault injection, and pool lifecycle.

use std::time::Duration;

use ivl_circuit::{
    CircuitBuilder, FailurePolicy, FaultKind, FaultPlan, GateKind, Scenario, ScenarioRunner,
    SimError,
};
use ivl_core::channel::{EtaInvolutionChannel, PureDelay};
use ivl_core::delay::ExpChannel;
use ivl_core::noise::{EtaBounds, UniformNoise};
use ivl_core::{Bit, Signal};

fn inverter_circuit() -> ivl_circuit::Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let inv = b.gate("inv", GateKind::Not, Bit::One);
    let y = b.output("y");
    b.connect_direct(a, inv, 0).unwrap();
    b.connect(inv, y, 0, PureDelay::new(1.0).unwrap()).unwrap();
    b.build().unwrap()
}

fn noisy_circuit() -> ivl_circuit::Circuit {
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

fn seeded_scenarios(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|k| {
            Scenario::new(format!("s{k}"))
                .with_input("a", Signal::pulse(0.0, 2.0 + (k % 7) as f64).unwrap())
                .with_seed(500 + k as u64)
        })
        .collect()
}

#[test]
fn injected_panic_becomes_a_typed_failure_and_the_pool_survives() {
    let runner = ScenarioRunner::new(noisy_circuit(), 200.0)
        .with_workers(2)
        .with_fault_plan(FaultPlan::new().with_fault(3, FaultKind::Panic));
    let scenarios = seeded_scenarios(8);
    let sweep = runner.run(&scenarios);

    assert_eq!(sweep.failures().len(), 1);
    let failure = &sweep.failures()[0];
    assert_eq!(failure.index, 3);
    assert_eq!(failure.label, "s3");
    assert_eq!(failure.seed, Some(503));
    match &failure.cause {
        SimError::ScenarioPanicked { message } => {
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected ScenarioPanicked, got {other:?}"),
    }

    // the pool is still alive: the very same runner sweeps again, and a
    // fault-free reference run matches every surviving scenario bitwise
    let again = runner.run(&scenarios);
    assert_eq!(again.failures().len(), 1);
    let reference = ScenarioRunner::new(noisy_circuit(), 200.0)
        .with_workers(1)
        .run(&scenarios);
    for (i, (a, b)) in reference
        .outcomes()
        .iter()
        .zip(sweep.outcomes())
        .enumerate()
    {
        if i == 3 {
            continue;
        }
        assert_eq!(
            a.result().as_ref().unwrap().signal("y").unwrap(),
            b.result().as_ref().unwrap().signal("y").unwrap(),
            "scenario {i}"
        );
    }
}

#[test]
fn retry_policy_recovers_flaky_scenarios_with_the_same_seed() {
    let runner = ScenarioRunner::new(noisy_circuit(), 200.0)
        .with_workers(2)
        .with_failure_policy(FailurePolicy::Retry(2))
        .with_fault_plan(FaultPlan::new().with_fault(1, FaultKind::Flaky { failures: 2 }));
    let scenarios = seeded_scenarios(4);
    let sweep = runner.run(&scenarios);

    // two flaky attempts, recovered on the third — same seed, so the
    // recovered result matches the fault-free reference bitwise
    assert!(sweep.failures().is_empty());
    assert_eq!(sweep.stats().retried, 2);
    let reference = ScenarioRunner::new(noisy_circuit(), 200.0)
        .with_workers(1)
        .run(&scenarios);
    assert_eq!(
        reference.outcomes()[1]
            .result()
            .as_ref()
            .unwrap()
            .signal("y")
            .unwrap(),
        sweep.outcomes()[1]
            .result()
            .as_ref()
            .unwrap()
            .signal("y")
            .unwrap(),
    );
}

#[test]
fn retry_policy_gives_up_on_deterministic_bugs() {
    let runner = ScenarioRunner::new(inverter_circuit(), 100.0)
        .with_workers(2)
        .with_failure_policy(FailurePolicy::Retry(3))
        .with_fault_plan(FaultPlan::new().with_fault(0, FaultKind::Panic));
    let sweep = runner.run(&seeded_scenarios(2));
    assert_eq!(sweep.failures().len(), 1);
    assert_eq!(sweep.failures()[0].retries, 3);
    assert_eq!(sweep.stats().retried, 3);
}

#[test]
fn abort_policy_surfaces_index_seed_and_cause() {
    let runner = ScenarioRunner::new(inverter_circuit(), 100.0)
        .with_workers(2)
        .with_failure_policy(FailurePolicy::Abort)
        .with_fault_plan(FaultPlan::new().with_fault(5, FaultKind::Panic));
    let scenarios = seeded_scenarios(16);
    let aborted = runner.try_run(&scenarios).unwrap_err();
    assert_eq!(aborted.failure.index, 5);
    assert_eq!(aborted.failure.label, "s5");
    assert_eq!(aborted.failure.seed, Some(505));
    assert!(matches!(
        aborted.failure.cause,
        SimError::ScenarioPanicked { .. }
    ));
    let text = aborted.to_string();
    assert!(text.contains("scenario 5"), "{text}");
    assert!(text.contains("seed 505"), "{text}");

    // run() reports the same identity through its panic message
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&scenarios)))
        .unwrap_err();
    let message = panic.downcast_ref::<String>().unwrap();
    assert!(message.contains("scenario 5"), "{message}");
    assert!(message.contains("seed 505"), "{message}");
}

#[test]
fn abort_is_clean_on_a_healthy_sweep() {
    let runner = ScenarioRunner::new(inverter_circuit(), 100.0)
        .with_workers(2)
        .with_failure_policy(FailurePolicy::Abort);
    let sweep = runner.try_run(&seeded_scenarios(6)).unwrap();
    assert_eq!(sweep.stats().failures, 0);
}

#[test]
fn exhaust_budget_fault_reports_max_events_per_scenario() {
    let runner = ScenarioRunner::new(inverter_circuit(), 100.0)
        .with_workers(2)
        .with_fault_plan(FaultPlan::new().with_fault(2, FaultKind::ExhaustBudget));
    let scenarios = seeded_scenarios(6);
    let sweep = runner.run(&scenarios);
    assert_eq!(sweep.failures().len(), 1);
    let failure = &sweep.failures()[0];
    assert_eq!(failure.index, 2);
    assert!(
        matches!(failure.cause, SimError::MaxEventsExceeded { budget: 1, .. }),
        "{:?}",
        failure.cause
    );
    // the clamped budget does not leak into later scenarios on the same
    // worker: everything else succeeded
    assert_eq!(sweep.stats().failures, 1);
}

#[test]
fn corrupt_channel_fault_is_a_deterministic_cancellation_mismatch() {
    let runner = ScenarioRunner::new(inverter_circuit(), 100.0)
        .with_workers(1)
        .with_fault_plan(FaultPlan::new().with_fault(0, FaultKind::CorruptChannel));
    let scenarios = seeded_scenarios(3);
    let sweep = runner.run(&scenarios);
    assert_eq!(sweep.failures().len(), 1);
    assert!(
        matches!(
            sweep.failures()[0].cause,
            SimError::CancellationMismatch { .. }
        ),
        "{:?}",
        sweep.failures()[0].cause
    );
    // the original channel was restored afterwards
    assert!(sweep.outcomes()[1].result().is_ok());
    assert!(sweep.outcomes()[2].result().is_ok());
}

#[test]
fn watchdog_cancels_stalled_scenarios() {
    let runner = ScenarioRunner::new(noisy_circuit(), 200.0)
        .with_workers(2)
        .with_scenario_timeout(Duration::from_millis(100))
        .with_fault_plan(FaultPlan::new().with_fault(1, FaultKind::Stall));
    let scenarios = seeded_scenarios(6);
    let start = std::time::Instant::now();
    let sweep = runner.run(&scenarios);
    // well under the 30 s defensive stall cap: the watchdog reclaimed it
    assert!(start.elapsed() < Duration::from_secs(10));
    assert_eq!(sweep.failures().len(), 1);
    let failure = &sweep.failures()[0];
    assert_eq!(failure.index, 1);
    assert!(
        matches!(failure.cause, SimError::Cancelled { .. }),
        "{:?}",
        failure.cause
    );
    // untimed scenarios on the same workers were not cancelled
    assert_eq!(sweep.stats().failures, 1);
}

#[test]
fn reconfiguration_joins_the_old_pool_instead_of_leaking_it() {
    let circuit = inverter_circuit();
    let runner = ScenarioRunner::new(circuit, 100.0).with_workers(3);
    assert_eq!(runner.circuit().topology_refs(), 1);

    // first run spawns the pool: one template clone shared by the
    // workers, and one simulator clone per worker, all Arc-sharing the
    // runner's topology
    let sweep = runner.run(&seeded_scenarios(4));
    assert_eq!(sweep.stats().failures, 0);
    assert_eq!(runner.circuit().topology_refs(), 1 + 1 + 3);

    // reconfiguring must join the old workers — every worker-held
    // topology reference is dropped, not leaked
    let runner = runner.with_max_events(1_000_000);
    assert_eq!(runner.circuit().topology_refs(), 1);
    let runner = runner.with_workers(3);
    assert_eq!(runner.circuit().topology_refs(), 1);

    // and the runner still works afterwards
    let sweep = runner.run(&seeded_scenarios(4));
    assert_eq!(sweep.stats().failures, 0);
    assert_eq!(runner.circuit().topology_refs(), 1 + 1 + 3);
    drop(runner);
}

#[test]
fn dropping_the_runner_joins_all_workers() {
    let circuit = inverter_circuit();
    let probe = circuit.clone();
    let runner = ScenarioRunner::new(circuit, 100.0).with_workers(4);
    let _ = runner.run(&seeded_scenarios(8));
    assert!(probe.topology_refs() > 2);
    drop(runner);
    // only the probe's reference remains: every worker thread exited
    assert_eq!(probe.topology_refs(), 1);
}

#[test]
fn survivors_are_bit_identical_across_worker_counts_under_faults() {
    let scenarios = seeded_scenarios(32);
    let plan = FaultPlan::new()
        .with_fault(4, FaultKind::Panic)
        .with_fault(11, FaultKind::ExhaustBudget);
    let reference = ScenarioRunner::new(noisy_circuit(), 200.0)
        .with_workers(1)
        .run(&scenarios);
    for workers in [1, 2, 4] {
        let sweep = ScenarioRunner::new(noisy_circuit(), 200.0)
            .with_workers(workers)
            .with_fault_plan(plan.clone())
            .run(&scenarios);
        let failed: Vec<usize> = sweep.failures().iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![4, 11], "workers={workers}");
        for (i, (a, b)) in reference
            .outcomes()
            .iter()
            .zip(sweep.outcomes())
            .enumerate()
        {
            if failed.contains(&i) {
                continue;
            }
            assert_eq!(
                a.result().as_ref().unwrap().signal("y").unwrap(),
                b.result().as_ref().unwrap().signal("y").unwrap(),
                "workers={workers} scenario {i}"
            );
        }
    }
}
