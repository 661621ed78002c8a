//! `sweep` and `characterize`: in-process `Experiment::run` of
//! generated spec text with `workers = nproc`, one op at a time (closed
//! loop; the parallelism is the runner's own).

use std::time::{Duration, Instant};

use faithful::analog::chain::InverterChain;
use faithful::analog::ode::{Rk45Options, Rk45Stats};
use faithful::analog::stimulus::Pulse;
use faithful::analog::supply::VddSource;
use faithful::core::factory::ChannelRegistry;
use faithful::service::{parse_result, render_result};
use faithful::{
    lint, Experiment, ExperimentResult, ExperimentSpec, IntegratorSpec, LintConfig, SupplySpec,
    WorkloadSpec,
};

use crate::gen;
use crate::host::{self, Probe};
use crate::report::{self, mean, ratio, Layers, Outcome, Slice, Timed, SETUPS, SLICES};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sweep,
    Characterize,
}

/// Pairs of runs, at 1 and at `nproc` workers, behind a
/// parallel-efficiency figure.
const EFFICIENCY_RUNS: usize = 7;

fn corpus(mode: Mode, seed: u64, workers: usize) -> Vec<String> {
    match mode {
        Mode::Sweep => gen::sweep_corpus(seed, workers),
        Mode::Characterize => vec![gen::characterize_spec(workers)],
    }
}

/// The op users run: parse the text, then `Experiment::run` with its
/// default lint preflight.
fn op(text: &str) -> Result<ExperimentResult, String> {
    Experiment::parse(text)
        .and_then(|e| e.run())
        .map_err(|e| e.to_string())
}

/// The op split at each layer's public entry point, under an `op` span.
/// It builds the circuit once more than the plain op (`graph.build`, so
/// `experiment.run` minus it is the simulation), and renders and decodes
/// the result, which the plain op leaves to the check afterwards.
fn traced_op(
    id: u64,
    text: &str,
    registry: &ChannelRegistry,
    tracer: &mut Tracer,
) -> Result<String, String> {
    tracer.span(id, "op", |t| {
        let spec: ExperimentSpec = t
            .span(id, "spec.parse", |_| text.parse::<ExperimentSpec>())
            .map_err(|e| e.to_string())?;
        let report = t.span(id, "lint.preflight", |_| lint(&spec, registry));
        if report.has_errors() {
            return Err(format!("lint rejected the spec:\n{report}"));
        }
        let experiment = Experiment::new(spec).with_lint(LintConfig::Off);
        if let WorkloadSpec::Digital(d) = &experiment.spec().workload {
            t.span(id, "graph.build", |_| {
                experiment.build_circuit(&d.topology).map(drop)
            })
            .map_err(|e| e.to_string())?;
        }
        let result = t
            .span(id, "experiment.run", |_| experiment.run())
            .map_err(|e| e.to_string())?;
        let rendered = t.span(id, "wire.render", |_| render_result(&result));
        t.span(id, "wire.parse_result", |_| parse_result(&rendered))
            .map_err(|e| e.to_string())?;
        Ok(rendered)
    })
}

/// One spec with its expected rendered result and event counts.
struct Item {
    text: String,
    expected: String,
    processed: u64,
    scheduled: u64,
}

/// The ODE work of the `characterize` op `text`, redone serially through
/// `InverterChain::simulate_crossings` job by job as `SweepRunner` runs
/// it: step counts summed over jobs, and the mean wall time of a job.
fn chain_jobs(text: &str) -> Result<(Rk45Stats, f64), String> {
    let spec = text.parse::<ExperimentSpec>().map_err(|e| e.to_string())?;
    let WorkloadSpec::Analog(a) = &spec.workload else {
        return Err("the characterize spec is not analog".to_owned());
    };
    let (&SupplySpec::Dc { volts }, IntegratorSpec::Rk45 { rtol, atol }) =
        (&a.supply, a.sweep.integrator)
    else {
        return Err("the characterize spec needs a dc supply and rk45".to_owned());
    };
    let chain = InverterChain::umc90_like(a.chain.stages as usize).map_err(|e| e.to_string())?;
    let vdd = VddSource::dc(volts);
    let opts = Rk45Options::with_tolerances(rtol, atol);
    let sweep = &a.sweep;
    let mut total = Rk45Stats::default();
    let mut seconds = 0.0;
    for inverted in [false, true] {
        for &width in &sweep.widths {
            let pulse = if inverted {
                Pulse::inverted(sweep.settle, width, sweep.slew, volts)
            } else {
                Pulse::new(sweep.settle, width, sweep.slew, volts)
            }
            .map_err(|e| e.to_string())?;
            let t_end = sweep.settle + width + sweep.tail;
            let started = Instant::now();
            let stats = chain
                .simulate_crossings(&pulse, &vdd, t_end, volts / 2.0, &opts)
                .map_err(|e| e.to_string())?
                .stats();
            seconds += started.elapsed().as_secs_f64();
            total.accepted += stats.accepted;
            total.rejected += stats.rejected;
            total.rhs_evals += stats.rhs_evals;
        }
    }
    Ok((total, seconds / (2 * sweep.widths.len()).max(1) as f64))
}

/// `t₁ ÷ (nproc · tₙ)` from the median wall times of the same op at 1
/// and at `nproc` workers, run alternately so host drift hits both alike.
fn parallel_efficiency(serial: &str, parallel: &str, cpus: usize) -> Result<f64, String> {
    let mut t1 = Vec::with_capacity(EFFICIENCY_RUNS);
    let mut tn = Vec::with_capacity(EFFICIENCY_RUNS);
    for _ in 0..EFFICIENCY_RUNS {
        for (text, times) in [(serial, &mut t1), (parallel, &mut tn)] {
            let started = Instant::now();
            op(text)?;
            times.push(started.elapsed().as_secs_f64());
        }
    }
    Ok(report::median(&t1) / (cpus as f64 * report::median(&tn)))
}

pub fn run(mode: Mode, seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let cpus = host::cpus();
    let registry = ChannelRegistry::with_builtins();
    let texts = corpus(mode, seed, cpus);
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // expected results, computed at workers = 1: every timed op runs at
    // nproc, so byte equality also shows the counts agree across worker
    // counts
    let mut items = Vec::with_capacity(texts.len());
    for (text, serial) in texts.iter().zip(corpus(mode, seed, 1)) {
        let result = op(&serial)?;
        let stats = result.digital().and_then(|d| d.stats.clone());
        items.push(Item {
            text: text.clone(),
            expected: render_result(&result),
            processed: stats.as_ref().map_or(0, |s| s.processed_events),
            scheduled: stats.as_ref().map_or(0, |s| s.scheduled_events),
        });
    }
    // characterize: the ODE step counts, which must repeat exactly after
    // the timed run
    let chain = match mode {
        Mode::Characterize => Some(chain_jobs(&texts[0])?),
        Mode::Sweep => None,
    };
    let events_per_op = |i: usize| match &chain {
        Some((stats, _)) => stats.accepted as u64,
        None => items[i].processed,
    };

    // set-up: generate the inputs and run the first (cold) op
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let probe = Probe::start();
        let again = corpus(mode, seed, cpus);
        let result = op(&again[0])?;
        setups.push(probe.stop());
        attempted += 1;
        if again != texts || render_result(&result) != items[0].expected {
            failed += 1;
        }
    }

    // a traced run alternates untraced and traced slices, so host drift
    // cancels out of trace.overhead
    let budget = Duration::from_secs(seconds) / SLICES as u32;
    let (plain_budget, traced_budget) = if tracer.enabled() {
        (budget / 2, budget / 2)
    } else {
        (budget, Duration::ZERO)
    };
    let mut latencies_ns = Vec::new();
    let mut slices = Vec::with_capacity(SLICES);
    let mut traced_ops = 0usize;
    host::reset_peak_rss();
    let whole = Probe::start();
    for _ in 0..SLICES {
        let probe = Probe::start();
        let started = Instant::now();
        let mut results = Vec::new();
        while started.elapsed() < plain_budget {
            let i = latencies_ns.len() % items.len();
            let at = Instant::now();
            results.push((i, op(&items[i].text)?));
            latencies_ns.push(u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let window = probe.stop();
        let mut events = 0;
        for (i, result) in &results {
            attempted += 1;
            if render_result(result) == items[*i].expected {
                events += events_per_op(*i);
            } else {
                failed += 1;
            }
        }
        slices.push(Slice {
            window,
            ops: results.len(),
            events,
        });
        let started = Instant::now();
        while started.elapsed() < traced_budget {
            let i = traced_ops % items.len();
            let rendered = traced_op(traced_ops as u64, &items[i].text, &registry, tracer)?;
            attempted += 1;
            if rendered != items[i].expected {
                failed += 1;
            }
            traced_ops += 1;
        }
    }
    let window = whole.stop();
    if let Some((stats, _)) = &chain {
        attempted += 1;
        let (again, _) = chain_jobs(&texts[0])?;
        if again != *stats {
            eprintln!("ODE step counts changed: {stats:?} before the timed run, {again:?} after");
            failed += 1;
        }
    }

    let mut layers = Layers::default();
    if tracer.enabled() {
        let serial = corpus(mode, seed, 1);
        let efficiency = parallel_efficiency(&serial[0], &texts[0], cpus)?;
        let spans = tracer.self_times_per_root("op");
        let get = |name: &str| spans.get(name).copied().unwrap_or(0.0);
        let op_ns = tracer.mean_root_ns("op");
        layers = Layers {
            parse_ns: get("spec.parse"),
            doc_bytes: mean(items.iter().map(|i| i.text.len() as f64)),
            lint_ns: get("lint.preflight"),
            render_ns: get("wire.render"),
            result_bytes: mean(items.iter().map(|i| i.expected.len() as f64)),
            parse_result_ns: get("wire.parse_result"),
            unattributed_ns: get("op"),
            coverage: if op_ns > 0.0 {
                1.0 - get("op") / op_ns
            } else {
                0.0
            },
            // the traced op also builds, renders and decodes once more
            // than the plain op; leave that out of the comparison
            overhead: (op_ns - get("graph.build") - get("wire.render") - get("wire.parse_result"))
                / mean(latencies_ns.iter().map(|&v| v as f64))
                - 1.0,
            ..Layers::default()
        };
        match &chain {
            None => {
                layers.build_ns = get("graph.build");
                layers.simulate_ns = (get("experiment.run") - layers.build_ns).max(0.0);
                layers.lint_share = ratio(layers.lint_ns, layers.lint_ns + layers.simulate_ns);
                layers.events_per_op = mean(items.iter().map(|i| i.processed as f64));
                layers.scheduled_per_op = mean(items.iter().map(|i| i.scheduled as f64));
                layers.runner_parallel_eff = efficiency;
            }
            Some((stats, job_s)) => {
                layers.lint_share = ratio(layers.lint_ns, layers.lint_ns + get("experiment.run"));
                layers.chain_ns = job_s * 1e9;
                layers.ode_accepted = stats.accepted as f64;
                layers.ode_rejected = stats.rejected as f64;
                layers.rhs_evals = stats.rhs_evals as f64;
                layers.analog_parallel_eff = efficiency;
            }
        }
    }

    Ok(Outcome {
        timed: Timed {
            setups,
            window,
            slices,
            latencies_ns,
            tail_pct: 90.0,
        },
        layers,
        attempted,
        failed,
    })
}
