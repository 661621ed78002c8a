//! Parallel multi-scenario sweeps on **supervised, scoped workers**:
//! fan a batch of stimuli / noise seeds over worker threads, each
//! simulating its own clone of one circuit.
//!
//! The paper's Monte-Carlo experiments (adversary batteries, η-noise
//! sweeps) run the *same* circuit under thousands of slightly different
//! scenarios. A [`ScenarioRunner`] amortizes setup across the batch
//! *and across batches*: each [`run`](ScenarioRunner::run) fans its
//! scenarios over scoped threads with [`ivl_core::exec::fan_out`]
//! (one worker runs inline, on the calling thread), and every worker
//! borrows a warm [`Simulator`] from a stash the runner keeps between
//! runs. Simulators are cloned from the runner's own circuit, so every
//! copy `Arc`-shares the immutable netlist topology and copies only the
//! prototype-channel table (one channel for a generated netlist). The
//! per-worker state is the channels the worker has fed so far
//! (single-history + noise RNG, cloned from their prototypes on first
//! feed) and the simulator's per-run working memory, which stays warm
//! scenario after scenario and sweep after sweep. A scenario costs
//! O(activity), not O(netlist) (see [`Simulator`]'s run lifecycle), and
//! so does a new worker. A 10k-scenario sweep therefore performs zero
//! per-scenario allocation and holds, per worker, only the channels its
//! scenarios reach — all `Arc`-sharing a single topology no matter the
//! worker count.
//!
//! Work is distributed dynamically: workers pull fixed-size index
//! chunks from a shared atomic cursor, so a scenario that simulates 100×
//! longer than its neighbours no longer stalls a statically assigned
//! stripe (the old `i % workers` discipline).
//!
//! # Supervision
//!
//! Every scenario executes under a per-scenario supervisor:
//!
//! * a **panic** in the simulator or a channel is contained by
//!   [`catch_panic`], the worker's simulator is rebuilt from the
//!   runner's circuit, and the failure is recorded as a typed
//!   [`ScenarioFailure`] — the sweep goes on;
//! * a **wall-clock budget** ([`with_scenario_timeout`]) is enforced by
//!   a watchdog thread that cancels stragglers cooperatively (the
//!   simulator polls a cancel flag once per event batch);
//! * the **event budget** ([`with_max_events`]) is, as before, reported
//!   per scenario as [`SimError::MaxEventsExceeded`];
//! * the [`FailurePolicy`] decides what a failure does to the sweep:
//!   record and continue ([`FailurePolicy::Skip`], the default), retry
//!   with the same seed up to a bound ([`FailurePolicy::Retry`]), or
//!   stop and report the lowest-index failing scenario's identity
//!   ([`FailurePolicy::Abort`] via [`try_run`]) — the same one for any
//!   worker count or timing.
//!
//! A seeded [`FaultPlan`] can inject deterministic faults (panics,
//! budget exhaustion, stalls, corrupted channels) into chosen scenario
//! indices — the chaos-testing hook that proves the supervisor holds.
//!
//! Scenarios with a [`seed`](Scenario::with_seed) are bitwise
//! reproducible regardless of worker count, chunk scheduling, or how
//! many sweeps the runner has executed before: the seed pins every
//! channel's noise stream via [`Simulator::reseed_noise`]. Unseeded
//! scenarios on noisy circuits draw from whatever stream state their
//! worker's simulator has reached — which now also depends on dynamic
//! chunk assignment — so seed your scenarios when you need determinism.
//!
//! [`with_scenario_timeout`]: ScenarioRunner::with_scenario_timeout
//! [`with_max_events`]: ScenarioRunner::with_max_events
//! [`try_run`]: ScenarioRunner::try_run

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use ivl_core::channel::{FeedEffect, OnlineChannel};
use ivl_core::exec::{catch_panic, fan_out};
use ivl_core::{PulseStats, Signal, Transition};

use crate::error::SimError;
use crate::graph::Circuit;
use crate::sim::{split_mix64, SimResult, Simulator};

/// One entry of a sweep: a label, input assignments, and an optional
/// noise seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    label: String,
    inputs: Vec<(String, Signal)>,
    seed: Option<u64>,
}

impl Scenario {
    /// Creates an empty scenario (all inputs zero, no reseeding).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Scenario {
            label: label.into(),
            inputs: Vec::new(),
            seed: None,
        }
    }

    /// Assigns `signal` to the input port `port`. Ports not assigned in
    /// a scenario are driven with the zero signal — assignments never
    /// leak between scenarios.
    #[must_use]
    pub fn with_input(mut self, port: impl Into<String>, signal: Signal) -> Self {
        self.inputs.push((port.into(), signal));
        self
    }

    /// Pins every noise channel's RNG stream to `seed` for this scenario
    /// (mixed per edge), making the run reproducible independent of
    /// worker count.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The scenario's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The scenario's noise seed, if any.
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }
}

/// The outcome of one scenario within a sweep.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    label: String,
    result: Result<SimResult, SimError>,
}

impl ScenarioOutcome {
    /// The label of the scenario that produced this outcome.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The run result (a [`SimResult`] or the simulation error).
    pub fn result(&self) -> &Result<SimResult, SimError> {
        &self.result
    }
}

/// What a sweep does when a scenario fails (simulation error, contained
/// panic, or watchdog cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop at the lowest-index failure and report its identity (index,
    /// label, seed, cause) through
    /// [`try_run`](ScenarioRunner::try_run)'s error. No scenario above a
    /// failure starts, those already running above it are cancelled,
    /// and every scenario below it runs to the end — a lower failure
    /// found late replaces the reported one, so the report does not
    /// depend on worker count or timing.
    Abort,
    /// Record the failure in the scenario's outcome and keep sweeping
    /// (the default).
    #[default]
    Skip,
    /// Re-run a failing scenario up to this many extra times — with the
    /// *same* seed, so a real (deterministic) bug fails every attempt
    /// and is reported, while infrastructure flakes (a transient panic,
    /// a machine-load timeout) recover. Still-failing scenarios are
    /// then recorded as under [`FailurePolicy::Skip`].
    Retry(u32),
}

/// One scenario's failure, with everything needed to replay it: the
/// scenario's index in the sweep, its label and noise seed, the typed
/// cause, and how many retries were spent on it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFailure {
    /// Index of the scenario in the swept slice.
    pub index: usize,
    /// The scenario's label.
    pub label: String,
    /// The scenario's noise seed, if it had one.
    pub seed: Option<u64>,
    /// Why it failed: a simulation error, a contained worker panic
    /// ([`SimError::ScenarioPanicked`]), or a watchdog cancellation
    /// ([`SimError::Cancelled`]).
    pub cause: SimError,
    /// Retries spent before giving up (0 unless the policy is
    /// [`FailurePolicy::Retry`]).
    pub retries: u32,
}

impl fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {} ({:?}", self.index, self.label)?;
        match self.seed {
            Some(seed) => write!(f, ", seed {seed})")?,
            None => write!(f, ", unseeded)")?,
        }
        if self.retries > 0 {
            write!(f, " failed after {} retries: {}", self.retries, self.cause)
        } else {
            write!(f, " failed: {}", self.cause)
        }
    }
}

impl std::error::Error for ScenarioFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// A sweep stopped by [`FailurePolicy::Abort`]: the lowest-index
/// failure (index, label, seed, cause — nothing is lost) plus how many
/// scenarios below it completed successfully.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAborted {
    /// The lowest-index failure of the sweep.
    pub failure: ScenarioFailure,
    /// Scenarios below the failure that completed successfully: every
    /// one of them runs, so this is the failure's index within the
    /// sweep.
    pub completed: usize,
}

impl fmt::Display for SweepAborted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep aborted at {} ({} scenarios completed)",
            self.failure, self.completed
        )
    }
}

impl std::error::Error for SweepAborted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.failure)
    }
}

/// A deterministic fault to inject at one scenario index (chaos
/// testing; see [`FaultPlan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic on every attempt (a deterministic bug: retries cannot
    /// save it).
    Panic,
    /// Panic on the first `failures` attempts, then succeed — an
    /// infrastructure flake that [`FailurePolicy::Retry`] recovers.
    Flaky {
        /// Number of leading attempts that panic.
        failures: u32,
    },
    /// Clamp the scenario's event budget to 1 so it deterministically
    /// exhausts ([`SimError::MaxEventsExceeded`] with budget 1).
    ExhaustBudget,
    /// Block the worker until the sweep watchdog cancels it (requires
    /// [`ScenarioRunner::with_scenario_timeout`]; capped defensively at
    /// 30 s otherwise).
    Stall,
    /// Swap the first channel of the worker's simulator for one that
    /// reports an impossible pairwise cancellation, yielding a
    /// deterministic [`SimError::CancellationMismatch`]; the original
    /// channel is restored afterwards.
    CorruptChannel,
}

/// A deterministic fault-injection plan: which [`FaultKind`] fires at
/// which scenario index.
///
/// This is the test-only chaos hook behind
/// [`ScenarioRunner::with_fault_plan`]: it lets a test (or a CI chaos
/// job) prove that scenario supervision holds — injected panics,
/// budget blow-ups and stalls must degrade into typed
/// [`ScenarioFailure`]s while every surviving scenario stays bitwise
/// identical to a fault-free sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `index`. The first fault registered for an index
    /// wins.
    #[must_use]
    pub fn with_fault(mut self, index: usize, kind: FaultKind) -> Self {
        self.faults.push((index, kind));
        self
    }

    /// Derives a reproducible three-fault plan (one panic, one budget
    /// exhaustion, one stall) at distinct indices below `scenarios`,
    /// from `seed` — the CI chaos matrix feeds `IVL_FAULT_SEED` through
    /// here.
    #[must_use]
    pub fn seeded(seed: u64, scenarios: usize) -> Self {
        let mut plan = FaultPlan::new();
        if scenarios == 0 {
            return plan;
        }
        let mut used: Vec<usize> = Vec::new();
        let mut state = seed;
        for kind in [FaultKind::Panic, FaultKind::ExhaustBudget, FaultKind::Stall] {
            if used.len() == scenarios {
                break;
            }
            let index = loop {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let candidate = usize::try_from(split_mix64(state) % scenarios as u64)
                    .expect("index below scenario count");
                if !used.contains(&candidate) {
                    break candidate;
                }
            };
            used.push(index);
            plan = plan.with_fault(index, kind);
        }
        plan
    }

    /// The registered faults, in registration order.
    #[must_use]
    pub fn faults(&self) -> &[(usize, FaultKind)] {
        &self.faults
    }

    fn kind_at(&self, index: usize) -> Option<&FaultKind> {
        self.faults
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, k)| k)
    }
}

/// Aggregate pulse statistics over the *output ports* of every
/// successful scenario in a sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Number of scenarios swept.
    pub scenarios: usize,
    /// Scenarios that ended in a [`SimError`] (including contained
    /// panics and watchdog cancellations).
    pub failures: usize,
    /// Retries spent across the whole sweep (0 unless the policy is
    /// [`FailurePolicy::Retry`]).
    pub retried: u64,
    /// Total events delivered across all successful runs.
    pub processed_events: u64,
    /// Total events scheduled across all successful runs.
    pub scheduled_events: u64,
    /// Total transitions observed on output ports.
    pub output_transitions: u64,
    /// Narrowest output pulse (up-time) seen anywhere in the sweep.
    pub min_pulse_width: Option<f64>,
    /// Widest output pulse seen anywhere in the sweep.
    pub max_pulse_width: Option<f64>,
    /// Smallest pulse period seen on any output port.
    pub min_period: Option<f64>,
}

impl SweepStats {
    /// Folds one output-port signal into the aggregate (transition
    /// count, pulse-width extrema, minimum period). Exposed so a caller
    /// that keeps its own per-scenario records (the `faithful` facade
    /// batches a checkpointed sweep and merges resumed scenarios) can
    /// rebuild sweep statistics from their output-port signals in
    /// exactly the order the runner would have used — bit-identical
    /// merges depend on it.
    pub fn absorb_signal(&mut self, signal: &Signal) {
        self.output_transitions += signal.len() as u64;
        let stats = PulseStats::of(signal);
        for w in stats.up_times() {
            self.min_pulse_width = Some(self.min_pulse_width.map_or(w, |m| m.min(w)));
            self.max_pulse_width = Some(self.max_pulse_width.map_or(w, |m| m.max(w)));
        }
        if let Some(p) = stats.min_period() {
            self.min_period = Some(self.min_period.map_or(p, |m| m.min(p)));
        }
    }
}

/// The outcomes and aggregate statistics of one sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    outcomes: Vec<ScenarioOutcome>,
    stats: SweepStats,
    failures: Vec<ScenarioFailure>,
}

impl SweepResult {
    /// Per-scenario outcomes, in the order the scenarios were given.
    #[must_use]
    pub fn outcomes(&self) -> &[ScenarioOutcome] {
        &self.outcomes
    }

    /// Aggregate pulse statistics over all successful scenarios.
    #[must_use]
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// Every failed scenario, in index order, with label, seed, typed
    /// cause and retry count — the replayable failure report.
    #[must_use]
    pub fn failures(&self) -> &[ScenarioFailure] {
        &self.failures
    }

    /// Consumes the sweep into one record per scenario, in the order
    /// the scenarios were given: its label and run, or its entry of
    /// [`failures`](SweepResult::failures). Signals move out with the
    /// runs (see [`SimResult::take_signal`]), nothing is cloned.
    pub fn into_results(
        self,
    ) -> impl Iterator<Item = (String, Result<SimResult, ScenarioFailure>)> {
        let mut failures = self.failures.into_iter();
        self.outcomes.into_iter().map(move |outcome| {
            let result = outcome.result.map_err(|_| {
                failures
                    .next()
                    .expect("one failure record per failed scenario")
            });
            (outcome.label, result)
        })
    }

    /// Number of scenarios swept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the sweep contained no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

// ======================================================================
// Supervised scenarios on scoped workers
// ======================================================================

/// A worker's supervision handle, shared between the thread running
/// its scenarios, an aborting sweep, and the watchdog.
struct Supervisor {
    /// `Some((start, index))` while the worker is inside scenario
    /// `index`. Guarded by a mutex so neither the watchdog nor an
    /// aborting sweep cancels a scenario that started after the stamp
    /// it read.
    busy_since: Mutex<Option<(Instant, usize)>>,
    /// The cancel flag wired into the worker's simulator. Reset at the
    /// start of every scenario attempt (under the `busy_since` lock),
    /// set by the watchdog or an aborting sweep.
    cancel: Arc<AtomicBool>,
}

impl Supervisor {
    fn busy(&self) -> MutexGuard<'_, Option<(Instant, usize)>> {
        self.busy_since
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stamps the start of scenario `index`, cancelled from the outset
    /// if an aborting sweep already lowered `bound` to or below it.
    fn begin(&self, index: usize, bound: &AtomicUsize) {
        let mut busy = self.busy();
        self.cancel
            .store(index >= bound.load(Ordering::SeqCst), Ordering::SeqCst);
        *busy = Some((Instant::now(), index));
    }

    fn end(&self) {
        *self.busy() = None;
    }

    /// Cancels the running scenario if it started `deadline` ago or
    /// earlier. The stamp and the flag are touched under the same lock
    /// [`begin`](Supervisor::begin) takes, so a freshly started
    /// scenario is never cancelled by a stale observation.
    fn expire(&self, deadline: Duration) {
        let busy = self.busy();
        if busy.is_some_and(|(since, _)| since.elapsed() >= deadline) {
            self.cancel.store(true, Ordering::SeqCst);
        }
    }

    /// Cancels the running scenario if its index is above `index`: an
    /// aborting sweep drops its result anyway.
    fn cancel_above(&self, index: usize) {
        let busy = self.busy();
        if busy.is_some_and(|(_, running)| running > index) {
            self.cancel.store(true, Ordering::SeqCst);
        }
    }
}

/// A warm simulator kept across runs, with its supervision handle.
struct Worker {
    sim: Simulator,
    supervisor: Supervisor,
}

/// The per-scenario wall-clock enforcer: every tick (≤ 50 ms) it
/// cancels any worker whose scenario has run past `deadline`, until
/// the sweep raises `finished` (and unparks it).
fn run_watchdog(supervisors: &[&Supervisor], deadline: Duration, finished: &AtomicBool) {
    let tick = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while !finished.load(Ordering::SeqCst) {
        thread::park_timeout(tick);
        for s in supervisors {
            s.expire(deadline);
        }
    }
}

/// Defensive cap on [`FaultKind::Stall`] when no watchdog is armed.
const STALL_CAP: Duration = Duration::from_secs(30);

/// A deliberately broken channel: it claims a pairwise cancellation on
/// its very first input, which the simulator rejects as a hard
/// [`SimError::CancellationMismatch`] — the deterministic stand-in for
/// a corrupted channel parameter in a [`FaultPlan`].
#[derive(Debug, Clone)]
struct CorruptedChannel;

impl OnlineChannel for CorruptedChannel {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        FeedEffect::CancelledPair { cancelled: input }
    }

    fn reset(&mut self) {}
}

/// Fans scenarios across supervised worker threads, each simulating
/// its own clone of the circuit.
///
/// Every [`run`](ScenarioRunner::run) spawns scoped workers for its
/// own duration (none for a single worker, which runs on the calling
/// thread) and hands each one a warm [`Simulator`] from a stash the
/// runner keeps across runs, so event pools, recorders and queues stay
/// allocated sweep after sweep. Workers claim scenario-index chunks
/// from a shared atomic cursor, so load imbalance between scenarios is
/// absorbed dynamically. Scenarios run supervised: panic containment,
/// per-scenario timeouts, [`FailurePolicy`] handling and [`FaultPlan`]
/// injection.
///
/// ```
/// use ivl_circuit::{CircuitBuilder, GateKind, Scenario, ScenarioRunner, Simulator};
/// use ivl_core::channel::PureDelay;
/// use ivl_core::{Bit, Signal};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new();
/// let a = b.input("a");
/// let inv = b.gate("inv", GateKind::Not, Bit::One);
/// let y = b.output("y");
/// b.connect_direct(a, inv, 0)?;
/// b.connect(inv, y, 0, PureDelay::new(1.0)?)?;
///
/// let runner = ScenarioRunner::new(b.build()?, 100.0).with_workers(2);
/// let scenarios: Vec<Scenario> = (1..=8)
///     .map(|w| {
///         Scenario::new(format!("w{w}"))
///             .with_input("a", Signal::pulse(0.0, w as f64).unwrap())
///     })
///     .collect();
/// let sweep = runner.run(&scenarios);
/// assert_eq!(sweep.len(), 8);
/// assert_eq!(sweep.stats().failures, 0);
/// # Ok(())
/// # }
/// ```
pub struct ScenarioRunner {
    /// Behind a mutex because a `Circuit` is `Send` but not `Sync` (its
    /// channels need not be); workers lock it only to clone from it.
    circuit: Mutex<Circuit>,
    horizon: f64,
    max_events: usize,
    /// `None` until set: as many workers as the machine advertises,
    /// probed when a run starts.
    workers: Option<usize>,
    policy: FailurePolicy,
    timeout: Option<Duration>,
    fault: Option<FaultPlan>,
    watch: Option<Vec<String>>,
    /// Warm simulators kept across runs: as many as the largest run
    /// so far needed, at most `workers`.
    stash: Mutex<Vec<Worker>>,
}

impl ScenarioRunner {
    /// Creates a runner sweeping `circuit` to `horizon`, with as many
    /// workers as the machine advertises.
    #[must_use]
    pub fn new(circuit: Circuit, horizon: f64) -> Self {
        ScenarioRunner {
            circuit: Mutex::new(circuit),
            horizon,
            max_events: 10_000_000,
            workers: None,
            policy: FailurePolicy::default(),
            timeout: None,
            fault: None,
            watch: None,
            stash: Mutex::new(Vec::new()),
        }
    }

    /// Sets the number of worker threads (clamped to ≥ 1). Drops any
    /// warm simulators.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self.drop_stash();
        self
    }

    /// The configured worker count; unset, the machine's advertised
    /// parallelism (a probe that reads cgroup files, so it is made only
    /// when needed).
    fn workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// Caps scheduled events per scenario run (see
    /// [`Simulator::with_max_events`]). The budget is enforced — and
    /// reported — per scenario: exhausting it fails that scenario with
    /// [`SimError::MaxEventsExceeded`], it never aborts the sweep by
    /// itself. Drops any warm simulators.
    #[must_use]
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self.drop_stash();
        self
    }

    /// Restricts every worker's per-scenario recording to the named
    /// nodes (see [`Simulator::set_watch`]) — on large circuits this
    /// bounds sweep memory by the watch set instead of the netlist.
    /// The circuit's output ports are always added to the set, so
    /// [`SweepStats`] pulse statistics stay complete. Drops any warm
    /// simulators.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if a name does not exist in
    /// the circuit.
    pub fn with_watch<I, S>(mut self, names: I) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let circuit = self
            .circuit
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let mut list: Vec<String> = Vec::new();
        for name in names {
            let name = name.as_ref();
            if circuit.node(name).is_none() {
                return Err(SimError::UnknownNode { name: name.into() });
            }
            list.push(name.to_string());
        }
        for port in circuit.output_names() {
            list.push(port.to_string());
        }
        list.sort_unstable();
        list.dedup();
        self.watch = Some(list);
        self.drop_stash();
        Ok(self)
    }

    /// Sets the sweep's [`FailurePolicy`] (default
    /// [`FailurePolicy::Skip`]). Per-run configuration: warm simulators
    /// are kept.
    #[must_use]
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms a per-scenario wall-clock budget: a watchdog thread cancels
    /// any scenario still running `timeout` after it started, failing
    /// it with [`SimError::Cancelled`]. Cancellation is cooperative
    /// (polled once per event batch), so enforcement granularity is one
    /// batch plus one watchdog tick (≤ 50 ms). Per-run configuration:
    /// warm simulators are kept.
    #[must_use]
    pub fn with_scenario_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Installs a deterministic [`FaultPlan`] (chaos testing). Faults
    /// fire by scenario index on every sweep this runner executes until
    /// the plan is replaced. Per-run configuration: warm simulators are
    /// kept.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sweeps `scenarios`, returning outcomes in input order plus
    /// aggregate pulse statistics over the circuit's output ports.
    ///
    /// Workers pull scenario-index chunks from a shared cursor; each
    /// worker reuses one warm simulator (and its event pool) for all of
    /// its scenarios, and the runner keeps those simulators for its
    /// next `run`. Failures — simulation errors, contained worker
    /// panics, watchdog cancellations — are recorded per scenario under
    /// the default [`FailurePolicy::Skip`] (see
    /// [`SweepResult::failures`]); they do not abort the sweep and the
    /// runner stays usable.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`FailurePolicy::Abort`] and a scenario
    /// failed — the message carries the failing scenario's index, label,
    /// seed and cause. Use [`try_run`](ScenarioRunner::try_run) to
    /// handle the abort as a typed [`SweepAborted`] instead.
    #[must_use]
    pub fn run(&self, scenarios: &[Scenario]) -> SweepResult {
        match self.try_run(scenarios) {
            Ok(sweep) => sweep,
            Err(aborted) => panic!("{aborted}"),
        }
    }

    /// Like [`run`](ScenarioRunner::run), but an
    /// [`FailurePolicy::Abort`] stop is returned as a typed
    /// [`SweepAborted`] — carrying the failing scenario's index, label,
    /// seed and cause — instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SweepAborted`] when the policy is
    /// [`FailurePolicy::Abort`] and a scenario failed.
    pub fn try_run(&self, scenarios: &[Scenario]) -> Result<SweepResult, SweepAborted> {
        let n = scenarios.len();
        let mut stash = self.stash.lock().unwrap_or_else(|poisoned| {
            // a panic escaped scenario supervision mid-run (a runner
            // bug, not a scenario failure): start from fresh simulators
            self.stash.clear_poison();
            let mut stash = poisoned.into_inner();
            stash.clear();
            stash
        });
        let workers = self.workers().min(n);
        while stash.len() < workers {
            stash.push(self.new_worker());
        }
        let mut states: Vec<(&mut Simulator, &Supervisor)> = stash[..workers]
            .iter_mut()
            .map(|w| (&mut w.sim, &w.supervisor))
            .collect();
        let supervisors: Vec<&Supervisor> = states.iter().map(|(_, s)| *s).collect();

        // scenarios at or above `bound` do not start; an aborting
        // failure lowers it to just above itself, so only a lower
        // failure can still happen and replace it
        let bound = AtomicUsize::new(n);
        let retried = AtomicU64::new(0);
        let job = |(sim, supervisor): &mut (&mut Simulator, &Supervisor), idx: usize| {
            let scenario = &scenarios[idx];
            let (result, retries) =
                self.run_supervised(sim, supervisor, idx, scenario, &bound, &retried);
            if result.is_err() && self.policy == FailurePolicy::Abort {
                bound.fetch_min(idx + 1, Ordering::SeqCst);
                for s in &supervisors {
                    s.cancel_above(idx);
                }
            }
            (result, retries)
        };
        let finished = AtomicBool::new(false);
        let mut slots = thread::scope(|scope| {
            let watchdog = self.timeout.map(|deadline| {
                let (supervisors, finished) = (&supervisors, &finished);
                scope.spawn(move || run_watchdog(supervisors, deadline, finished))
            });
            let slots = catch_panic(|| fan_out(&mut states, n, &bound, job));
            finished.store(true, Ordering::SeqCst);
            if let Some(handle) = watchdog {
                handle.thread().unpark();
            }
            slots
        })
        .unwrap_or_else(|message| {
            panic!("scenario worker panicked outside scenario supervision: {message}")
        });
        drop(stash);

        if self.policy == FailurePolicy::Abort {
            // every scenario below the lowest failure ran and succeeded;
            // a failure above it (found earlier, or a cancellation the
            // abort caused) goes unreported
            if let Some(index) = slots.iter().position(|s| matches!(s, Some((Err(_), _)))) {
                let Some((Err(cause), retries)) = slots[index].take() else {
                    unreachable!("the slot holds a failure");
                };
                let scenario = &scenarios[index];
                let failure = ScenarioFailure {
                    index,
                    label: scenario.label.clone(),
                    seed: scenario.seed,
                    cause,
                    retries,
                };
                return Err(SweepAborted {
                    failure,
                    completed: index,
                });
            }
        }

        let mut failures: Vec<ScenarioFailure> = Vec::new();
        let mut outcomes: Vec<ScenarioOutcome> = Vec::with_capacity(n);
        for (idx, (slot, sc)) in slots.into_iter().zip(scenarios).enumerate() {
            let (result, retries) = slot.expect("every scenario runs unless the sweep aborts");
            if let Err(cause) = &result {
                failures.push(ScenarioFailure {
                    index: idx,
                    label: sc.label.clone(),
                    seed: sc.seed,
                    cause: cause.clone(),
                    retries,
                });
            }
            outcomes.push(ScenarioOutcome {
                label: sc.label.clone(),
                result,
            });
        }

        let circuit = self.circuit();
        let output_names: Vec<&str> = circuit.output_names();
        let mut stats = SweepStats {
            scenarios: n,
            retried: retried.into_inner(),
            ..SweepStats::default()
        };
        for outcome in &outcomes {
            match &outcome.result {
                Ok(run) => {
                    stats.processed_events += run.processed_events() as u64;
                    stats.scheduled_events += run.scheduled_events() as u64;
                    for name in &output_names {
                        if let Ok(signal) = run.signal(name) {
                            stats.absorb_signal(signal);
                        }
                    }
                }
                Err(_) => stats.failures += 1,
            }
        }

        Ok(SweepResult {
            outcomes,
            stats,
            failures,
        })
    }

    fn circuit(&self) -> MutexGuard<'_, Circuit> {
        self.circuit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drop_stash(&mut self) {
        self.stash
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn new_worker(&self) -> Worker {
        let supervisor = Supervisor {
            busy_since: Mutex::new(None),
            cancel: Arc::new(AtomicBool::new(false)),
        };
        Worker {
            sim: self.new_sim(&supervisor.cancel),
            supervisor,
        }
    }

    /// A simulator over a clone of the runner's circuit (topology
    /// `Arc`-shared, prototypes copied, no channel fed yet), wired to
    /// `cancel`.
    fn new_sim(&self, cancel: &Arc<AtomicBool>) -> Simulator {
        let circuit = self.circuit().clone();
        let mut sim = Simulator::new(circuit).with_max_events(self.max_events);
        if let Some(watch) = &self.watch {
            sim.set_watch(watch.iter())
                .expect("watch names were validated against the runner's circuit");
        }
        sim.set_cancel_flag(Some(Arc::clone(cancel)));
        sim
    }

    /// Runs one scenario under the failure policy: retry on failure (same
    /// seed) up to the policy's bound, counting retries in `retried`.
    fn run_supervised(
        &self,
        sim: &mut Simulator,
        supervisor: &Supervisor,
        idx: usize,
        scenario: &Scenario,
        bound: &AtomicUsize,
        retried: &AtomicU64,
    ) -> (Result<SimResult, SimError>, u32) {
        let fault = self.fault.as_ref().and_then(|p| p.kind_at(idx));
        let extra = match self.policy {
            FailurePolicy::Retry(n) => n,
            _ => 0,
        };
        let mut attempt: u32 = 0;
        loop {
            supervisor.begin(idx, bound);
            let outcome =
                catch_panic(|| self.run_with_fault(sim, supervisor, scenario, fault, attempt));
            supervisor.end();
            let result = outcome.unwrap_or_else(|message| {
                // the panic may have left the simulator (or its
                // channels) inconsistent — rebuild it
                *sim = self.new_sim(&supervisor.cancel);
                Err(SimError::ScenarioPanicked { message })
            });
            if result.is_ok() || attempt >= extra {
                return (result, attempt);
            }
            attempt += 1;
            retried.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn run_with_fault(
        &self,
        sim: &mut Simulator,
        supervisor: &Supervisor,
        scenario: &Scenario,
        fault: Option<&FaultKind>,
        attempt: u32,
    ) -> Result<SimResult, SimError> {
        let horizon = self.horizon;
        match fault {
            // named by label: the index is local to this run, which
            // may be one batch of a longer sweep
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic at scenario {:?}", scenario.label())
            }
            Some(FaultKind::Flaky { failures }) if attempt < *failures => panic!(
                "injected fault: flaky panic at scenario {:?} (attempt {attempt})",
                scenario.label()
            ),
            Some(FaultKind::Stall) => {
                // block until the watchdog reclaims this worker (or the
                // defensive cap expires); the cancelled flag then
                // surfaces as `SimError::Cancelled` from the run below
                let start = Instant::now();
                while !supervisor.cancel.load(Ordering::Relaxed) && start.elapsed() < STALL_CAP {
                    thread::sleep(Duration::from_millis(1));
                }
                run_scenario(sim, scenario, horizon)
            }
            Some(FaultKind::ExhaustBudget) => {
                let saved = sim.max_events();
                sim.set_max_events(1);
                let result = run_scenario(sim, scenario, horizon);
                sim.set_max_events(saved);
                result
            }
            Some(FaultKind::CorruptChannel) => {
                let Some(edge) = self.circuit().first_channel_edge() else {
                    return run_scenario(sim, scenario, horizon);
                };
                sim.replace_channel(edge, Box::new(CorruptedChannel));
                let result = run_scenario(sim, scenario, horizon);
                let original = self
                    .circuit()
                    .clone_channel(edge)
                    .expect("the runner's edge carries a channel");
                sim.replace_channel(edge, original);
                result
            }
            Some(FaultKind::Flaky { .. }) | None => run_scenario(sim, scenario, horizon),
        }
    }
}

impl fmt::Debug for ScenarioRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let warm = self.stash.try_lock().map_or(0, |stash| stash.len());
        f.debug_struct("ScenarioRunner")
            .field("circuit", &self.circuit)
            .field("horizon", &self.horizon)
            .field("max_events", &self.max_events)
            .field("workers", &self.workers())
            .field("policy", &self.policy)
            .field("timeout", &self.timeout)
            .field("warm_simulators", &warm)
            .finish()
    }
}

fn run_scenario(
    sim: &mut Simulator,
    scenario: &Scenario,
    horizon: f64,
) -> Result<SimResult, SimError> {
    sim.reset_inputs();
    if let Some(seed) = scenario.seed {
        sim.reseed_noise(seed);
    }
    for (port, signal) in &scenario.inputs {
        sim.set_input(port, signal.clone())?;
    }
    sim.run(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::graph::CircuitBuilder;
    use ivl_core::channel::{EtaInvolutionChannel, PureDelay};
    use ivl_core::delay::ExpChannel;
    use ivl_core::noise::{EtaBounds, UniformNoise};
    use ivl_core::Bit;

    fn inverter_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let inv = b.gate("inv", GateKind::Not, Bit::One);
        let y = b.output("y");
        b.connect_direct(a, inv, 0).unwrap();
        b.connect(inv, y, 0, PureDelay::new(1.0).unwrap()).unwrap();
        b.build().unwrap()
    }

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

    fn pulse_scenarios(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|k| {
                Scenario::new(format!("s{k}"))
                    .with_input("a", Signal::pulse(0.0, 2.0 + k as f64).unwrap())
                    .with_seed(k as u64)
            })
            .collect()
    }

    #[test]
    fn sweep_preserves_scenario_order_and_labels() {
        let runner = ScenarioRunner::new(inverter_circuit(), 100.0).with_workers(3);
        let scenarios = pulse_scenarios(7);
        let sweep = runner.run(&scenarios);
        assert_eq!(sweep.len(), 7);
        assert!(!sweep.is_empty());
        for (k, outcome) in sweep.outcomes().iter().enumerate() {
            assert_eq!(outcome.label(), format!("s{k}"));
            let run = outcome.result().as_ref().unwrap();
            // inverted pulse of width 2 + k, delayed by 1
            let y = run.signal("y").unwrap();
            assert_eq!(y.len(), 2);
            let down = y.transitions()[1].time - y.transitions()[0].time;
            assert!((down - (2.0 + k as f64)).abs() < 1e-9);
        }
        assert_eq!(sweep.stats().scenarios, 7);
        assert_eq!(sweep.stats().failures, 0);
        assert_eq!(sweep.stats().retried, 0);
        assert!(sweep.failures().is_empty());
        assert!(sweep.stats().processed_events > 0);
    }

    #[test]
    fn seeded_sweeps_are_deterministic_across_worker_counts() {
        let scenarios: Vec<Scenario> = (0..12)
            .map(|k| {
                Scenario::new(format!("n{k}"))
                    .with_input("a", Signal::pulse(0.0, 3.0).unwrap())
                    .with_seed(1000 + k as u64)
            })
            .collect();
        let reference = ScenarioRunner::new(noisy_circuit(), 200.0)
            .with_workers(1)
            .run(&scenarios);
        for workers in [2, 4, 7] {
            let sweep = ScenarioRunner::new(noisy_circuit(), 200.0)
                .with_workers(workers)
                .run(&scenarios);
            for (a, b) in reference.outcomes().iter().zip(sweep.outcomes()) {
                assert_eq!(
                    a.result().as_ref().unwrap().signal("y").unwrap(),
                    b.result().as_ref().unwrap().signal("y").unwrap(),
                    "workers={workers} label={}",
                    a.label()
                );
            }
            assert_eq!(reference.stats(), sweep.stats(), "workers={workers}");
        }
    }

    #[test]
    fn distinct_seeds_draw_distinct_noise() {
        let mk = |seed| {
            Scenario::new("x")
                .with_input("a", Signal::pulse(0.0, 3.0).unwrap())
                .with_seed(seed)
        };
        let runner = ScenarioRunner::new(noisy_circuit(), 200.0).with_workers(1);
        let sweep = runner.run(&[mk(1), mk(2)]);
        let a = sweep.outcomes()[0].result().as_ref().unwrap();
        let b = sweep.outcomes()[1].result().as_ref().unwrap();
        assert_ne!(a.signal("y").unwrap(), b.signal("y").unwrap());
    }

    #[test]
    fn inputs_do_not_leak_between_scenarios() {
        // one worker runs both scenarios on the same simulator; the
        // second scenario assigns nothing and must see the zero input
        let runner = ScenarioRunner::new(inverter_circuit(), 100.0).with_workers(1);
        let scenarios = vec![
            Scenario::new("driven").with_input("a", Signal::pulse(0.0, 2.0).unwrap()),
            Scenario::new("quiet"),
        ];
        let sweep = runner.run(&scenarios);
        let quiet = sweep.outcomes()[1].result().as_ref().unwrap();
        assert!(quiet.signal("a").unwrap().is_zero());
        // constant input ⇒ the inverter output never leaves its initial 1
        assert_eq!(quiet.signal("y").unwrap().len(), 0);
        assert_eq!(quiet.signal("y").unwrap().final_value(), Bit::One);
    }

    #[test]
    fn per_scenario_failures_do_not_abort_the_sweep() {
        let runner = ScenarioRunner::new(inverter_circuit(), 100.0).with_workers(2);
        let scenarios = vec![
            Scenario::new("ok").with_input("a", Signal::pulse(0.0, 1.0).unwrap()),
            Scenario::new("bad-port").with_input("nope", Signal::pulse(0.0, 1.0).unwrap()),
            Scenario::new("also-ok").with_input("a", Signal::pulse(0.0, 2.0).unwrap()),
        ];
        let sweep = runner.run(&scenarios);
        assert!(sweep.outcomes()[0].result().is_ok());
        assert!(matches!(
            sweep.outcomes()[1].result(),
            Err(SimError::UnknownPort { .. })
        ));
        assert!(sweep.outcomes()[2].result().is_ok());
        assert_eq!(sweep.stats().failures, 1);
        assert_eq!(sweep.failures().len(), 1);
        let failure = &sweep.failures()[0];
        assert_eq!(failure.index, 1);
        assert_eq!(failure.label, "bad-port");
        assert_eq!(failure.seed, None);
        assert_eq!(failure.retries, 0);
        assert!(matches!(failure.cause, SimError::UnknownPort { .. }));
    }

    #[test]
    fn empty_sweep() {
        let runner = ScenarioRunner::new(inverter_circuit(), 100.0);
        let sweep = runner.run(&[]);
        assert!(sweep.is_empty());
        assert_eq!(sweep.stats(), &SweepStats::default());
        assert!(sweep.failures().is_empty());
    }

    #[test]
    fn aggregate_pulse_stats_cover_outputs() {
        let runner = ScenarioRunner::new(inverter_circuit(), 100.0).with_workers(2);
        let sweep = runner.run(&pulse_scenarios(4));
        let stats = sweep.stats();
        // output is an inverted pulse: one down-pulse → no up-pulse on y
        // until it returns high; widths 2..5 appear as down-times, the
        // signal starts high so up-times exist after recovery? The
        // inverted pulse gives y: 1→0 at 1, 0→1 at 3+k: no complete
        // up-pulse, so pulse widths may be absent — but transitions count.
        assert_eq!(stats.output_transitions, 4 * 2);
        assert_eq!(stats.scheduled_events, stats.processed_events);
    }

    #[test]
    fn worker_clones_share_one_topology() {
        // the scaling fix: cloning a circuit for a worker must not copy
        // the netlist — both clones point at the same Arc'd topology
        let circuit = noisy_circuit();
        let clone = circuit.clone();
        assert!(clone.shares_topology_with(&circuit));
        // while a freshly *built* identical circuit does not
        assert!(!noisy_circuit().shares_topology_with(&circuit));
    }

    #[test]
    fn scenario_accessors() {
        let s = Scenario::new("lbl")
            .with_input("a", Signal::zero())
            .with_seed(9);
        assert_eq!(s.label(), "lbl");
        assert_eq!(s.seed(), Some(9));
        let d = format!("{s:?}");
        assert!(d.contains("lbl"));
    }

    #[test]
    fn fault_plan_accessors_and_seeding() {
        let plan = FaultPlan::new()
            .with_fault(3, FaultKind::Panic)
            .with_fault(5, FaultKind::Stall);
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.kind_at(3), Some(&FaultKind::Panic));
        assert_eq!(plan.kind_at(4), None);

        // seeded plans are reproducible and hit distinct indices
        let a = FaultPlan::seeded(42, 100);
        let b = FaultPlan::seeded(42, 100);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 3);
        let mut indices: Vec<usize> = a.faults().iter().map(|(i, _)| *i).collect();
        indices.dedup();
        assert_eq!(indices.len(), 3);
        assert!(indices.iter().all(|i| *i < 100));
        // tiny sweeps get as many faults as they have scenarios
        assert_eq!(FaultPlan::seeded(1, 2).faults().len(), 2);
        assert!(FaultPlan::seeded(1, 0).faults().is_empty());
    }

    #[test]
    fn failure_types_display_and_chain() {
        let failure = ScenarioFailure {
            index: 7,
            label: "s7".into(),
            seed: Some(7),
            cause: SimError::ScenarioPanicked {
                message: "boom".into(),
            },
            retries: 2,
        };
        let text = failure.to_string();
        assert!(text.contains("scenario 7"), "{text}");
        assert!(text.contains("seed 7"), "{text}");
        assert!(text.contains("2 retries"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert!(std::error::Error::source(&failure).is_some());

        let aborted = SweepAborted {
            failure,
            completed: 41,
        };
        let text = aborted.to_string();
        assert!(text.contains("41 scenarios completed"), "{text}");
        assert!(std::error::Error::source(&aborted).is_some());

        let unseeded = ScenarioFailure {
            index: 0,
            label: "u".into(),
            seed: None,
            cause: SimError::Cancelled { time: 1.0 },
            retries: 0,
        };
        assert!(unseeded.to_string().contains("unseeded"));
    }
}
