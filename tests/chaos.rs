//! Chaos acceptance suite for the fault-tolerant sweep machinery:
//! deterministic fault injection, scenario supervision, quarantine
//! replay, and checkpoint/resume bit-identity.
//!
//! CI runs this suite under an `IVL_FAULT_SEED` chaos matrix. The
//! library itself reads no environment variable: only
//! `env_seeded_fault_plan_is_survived` reads the seed, and it hands the
//! derived [`FaultPlan`] to the facade explicitly.

use std::time::Duration;

use faithful::circuit::SimError;
use faithful::{
    ChannelSpec, DigitalResult, DigitalSpec, Error, Experiment, ExperimentSpec, FailurePolicySpec,
    FaultKind, FaultPlan, NoiseSpec, ScenarioSpec, SignalSpec, TopologySpec, WorkloadSpec,
};
use proptest::prelude::*;

const N: usize = 1000;
const PANIC_AT: usize = 17;
const BUDGET_AT: usize = 503;
const STALL_AT: usize = 901;
const SEED_BASE: u64 = 9000;

fn chain_channel() -> ChannelSpec {
    ChannelSpec::eta_exp(1.0, 0.4, 0.5, 0.02, 0.02, NoiseSpec::Uniform { seed: 0 })
}

fn chaos_spec(scenarios: usize, workers: u32) -> DigitalSpec {
    let mut d = DigitalSpec::new(
        TopologySpec::InverterChain {
            stages: 4,
            channel: chain_channel(),
        },
        100.0,
    )
    .with_workers(workers)
    .with_on_failure(FailurePolicySpec::Skip);
    for k in 0..scenarios {
        d = d.with_scenario(
            ScenarioSpec::new(format!("s{k}"))
                .with_seed(SEED_BASE + k as u64)
                .with_input("a", SignalSpec::pulse(1.0, 4.0 + (k % 5) as f64)),
        );
    }
    d
}

fn three_faults() -> FaultPlan {
    FaultPlan::new()
        .with_fault(PANIC_AT, FaultKind::Panic)
        .with_fault(BUDGET_AT, FaultKind::ExhaustBudget)
        .with_fault(STALL_AT, FaultKind::Stall)
}

fn run_digital(experiment: Experiment) -> DigitalResult {
    experiment
        .run()
        .expect("sweep completes")
        .digital()
        .expect("digital workload")
        .clone()
}

#[test]
fn chaos_sweep_skips_exactly_the_injected_faults() {
    // fault-free reference, single worker
    let reference =
        run_digital(Experiment::digital(chaos_spec(N, 1)).with_fault_plan(FaultPlan::new()));
    assert_eq!(reference.failed, 0);
    assert_eq!(reference.completed, N);

    for workers in [1u32, 2, 4] {
        let run = run_digital(
            Experiment::digital(chaos_spec(N, workers))
                .with_fault_plan(three_faults())
                .with_scenario_timeout(Duration::from_millis(300)),
        );
        assert_eq!(run.completed, N - 3, "workers={workers}");
        assert_eq!(run.failed, 3, "workers={workers}");
        assert_eq!(run.retried, 0, "workers={workers}");

        let indices: Vec<usize> = run.failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![PANIC_AT, BUDGET_AT, STALL_AT]);
        for f in &run.failures {
            assert_eq!(
                f.seed,
                Some(SEED_BASE + f.index as u64),
                "workers={workers}"
            );
            assert_eq!(f.label, format!("s{}", f.index));
        }
        assert!(matches!(
            run.failures[0].cause,
            SimError::ScenarioPanicked { .. }
        ));
        assert!(matches!(
            run.failures[1].cause,
            SimError::MaxEventsExceeded { budget: 1, .. }
        ));
        assert!(matches!(run.failures[2].cause, SimError::Cancelled { .. }));

        // every survivor is bit-identical to the fault-free reference
        for (i, outcome) in run.outcomes.iter().enumerate() {
            if matches!(i, PANIC_AT | BUDGET_AT | STALL_AT) {
                assert!(!outcome.is_ok(), "workers={workers} index={i}");
                continue;
            }
            assert_eq!(
                outcome.signal("y"),
                reference.outcomes[i].signal("y"),
                "workers={workers} index={i}"
            );
        }
    }
}

#[test]
fn quarantine_specs_replay_standalone() {
    let run = run_digital(
        Experiment::digital(chaos_spec(N, 2))
            .with_fault_plan(three_faults())
            .with_scenario_timeout(Duration::from_millis(300)),
    );
    assert_eq!(run.quarantine.len(), 3);

    for q in &run.quarantine {
        let spec: ExperimentSpec = q.spec.parse().expect("quarantine spec parses");
        let WorkloadSpec::Digital(d) = spec.workload.clone() else {
            panic!("quarantine spec is not digital");
        };
        assert_eq!(d.workers, Some(1));
        assert_eq!(d.on_failure, FailurePolicySpec::Abort);
        assert_eq!(d.scenarios.len(), 1);
        assert_eq!(d.scenarios[0].label, q.label);
        assert_eq!(d.scenarios[0].seed, Some(SEED_BASE + q.index as u64));

        // replay each quarantined scenario in isolation, re-injecting
        // the same fault where the failure was injected (panic, stall);
        // budget exhaustion is inherent to the embedded max_events = 1
        let replay = Experiment::new(spec);
        let replay = match q.index {
            PANIC_AT => replay.with_fault_plan(FaultPlan::new().with_fault(0, FaultKind::Panic)),
            STALL_AT => replay
                .with_fault_plan(FaultPlan::new().with_fault(0, FaultKind::Stall))
                .with_scenario_timeout(Duration::from_millis(200)),
            _ => {
                assert_eq!(d.max_events, Some(1));
                replay.with_fault_plan(FaultPlan::new())
            }
        };
        let err = replay.run().expect_err("quarantined scenario reproduces");
        let Error::Sweep(aborted) = err else {
            panic!("expected Error::Sweep, got {err}");
        };
        assert_eq!(aborted.failure.index, 0);
        assert_eq!(aborted.failure.seed, Some(SEED_BASE + q.index as u64));
        let reproduced = match q.index {
            PANIC_AT => matches!(aborted.failure.cause, SimError::ScenarioPanicked { .. }),
            STALL_AT => matches!(aborted.failure.cause, SimError::Cancelled { .. }),
            _ => matches!(
                aborted.failure.cause,
                SimError::MaxEventsExceeded { budget: 1, .. }
            ),
        };
        assert!(reproduced, "index {}: {}", q.index, aborted.failure.cause);
    }
}

/// The CI chaos matrix runs this binary with `IVL_FAULT_SEED` set; the
/// test derives a seeded plan (panic + budget exhaustion + stall) from
/// it, and the sweep must still complete under `skip` with exactly the
/// derived failures. Without the variable this is a no-op.
#[test]
fn env_seeded_fault_plan_is_survived() {
    let Some(seed) = std::env::var("IVL_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return;
    };
    let scenarios = 100;
    let expected = FaultPlan::seeded(seed, scenarios);
    let run = run_digital(
        Experiment::digital(chaos_spec(scenarios, 2))
            .with_fault_plan(expected.clone())
            .with_scenario_timeout(Duration::from_millis(300)),
    );
    let mut want: Vec<usize> = expected.faults().iter().map(|(i, _)| *i).collect();
    want.sort_unstable();
    let got: Vec<usize> = run.failures.iter().map(|f| f.index).collect();
    assert_eq!(got, want, "IVL_FAULT_SEED={seed}");
    assert_eq!(run.completed, scenarios - want.len());
}

/// A checkpointed sweep that aborts reports the whole sweep's progress,
/// not only its last batch's: the same `completed` as the unbatched
/// sweep. The cause names the scenario the sweep failed at, not its
/// place in a batch. The report does not depend on worker timing
/// either: at 1, 2 and 4 workers, run after run, it names the same
/// failure with the same `completed = 4`, though scenario 5 may finish
/// before scenario 4 fails.
#[test]
fn a_checkpointed_abort_counts_every_completed_batch() {
    let path = std::env::temp_dir().join(format!(
        "faithful_ckpt_abort_progress_{}.spec",
        std::process::id()
    ));
    let mut texts = Vec::new();
    for workers in [1, 2, 4] {
        let spec = chaos_spec(6, workers).with_on_failure(FailurePolicySpec::Abort);
        for batched in [false, true] {
            for _ in 0..16 {
                let mut experiment = Experiment::digital(spec.clone())
                    .with_fault_plan(FaultPlan::new().with_fault(4, FaultKind::Panic));
                if batched {
                    std::fs::remove_file(&path).ok();
                    experiment = experiment.with_checkpoint(&path).with_checkpoint_every(2);
                }
                let aborted = match experiment.run() {
                    Err(Error::Sweep(aborted)) => aborted,
                    other => panic!("expected Error::Sweep, got {other:?}"),
                };
                let context = format!("workers={workers} batched={batched}: {aborted}");
                assert_eq!(aborted.failure.index, 4, "{context}");
                assert_eq!(aborted.completed, 4, "{context}");
                let cause = aborted.failure.cause.to_string();
                assert!(cause.contains("\"s4\""), "{cause}");
                texts.push(aborted.to_string());
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(texts.iter().all(|t| *t == texts[0]), "{texts:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill a checkpointed sweep mid-flight (injected panic under
    /// `on_failure = abort`), then resume from the sidecar: the resumed
    /// run must be bit-identical to an uninterrupted fault-free run.
    #[test]
    fn resume_after_midsweep_kill_is_bit_identical(
        n in 6usize..24,
        k_frac in 0.2f64..0.95,
        every in 1usize..6,
        salt in 0u64..1000,
    ) {
        let k = ((n as f64 * k_frac) as usize).min(n - 1);
        let spec = chaos_spec(n, 2).with_on_failure(FailurePolicySpec::Abort);
        let path = std::env::temp_dir().join(format!(
            "faithful_ckpt_{}_{n}_{k}_{every}_{salt}.spec",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();

        let reference = run_digital(
            Experiment::digital(spec.clone()).with_fault_plan(FaultPlan::new()),
        );

        let err = Experiment::digital(spec)
            .with_fault_plan(FaultPlan::new().with_fault(k, FaultKind::Panic))
            .with_checkpoint(&path)
            .with_checkpoint_every(every)
            .run()
            .expect_err("injected panic aborts the sweep");
        let Error::Sweep(aborted) = err else {
            panic!("expected Error::Sweep, got {err}");
        };
        prop_assert_eq!(aborted.failure.index, k);
        prop_assert_eq!(aborted.failure.seed, Some(SEED_BASE + k as u64));

        let resumed = Experiment::resume(&path)
            .expect("sidecar parses")
            .with_fault_plan(FaultPlan::new())
            .run()
            .expect("resumed run completes")
            .digital()
            .expect("digital workload")
            .clone();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(resumed.completed, reference.completed);
        prop_assert_eq!(resumed.failed, 0);
        prop_assert_eq!(resumed.outcomes.len(), reference.outcomes.len());
        for (a, b) in resumed.outcomes.iter().zip(reference.outcomes.iter()) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(&a.signals, &b.signals);
        }
        prop_assert_eq!(&resumed.stats, &reference.stats);
    }
}
