//! Analog substrate cost: fixed-step RK4 vs adaptive RK45 chain
//! integration, characterization sweeps, and the parallel sweep runner.
//!
//! Besides the criterion groups, the harness emits a machine-readable
//! `BENCH_analog.json` baseline at the workspace root (override the
//! directory with `BENCH_DIR`) so the perf trajectory of the analog
//! pipeline is tracked across PRs. The parallel tier sweeps a 64-width
//! grid at 1/2/4/8 workers — the old default-sized sweep finished in
//! ~2.4 ms and measured thread-spawn overhead, which is how 4 workers
//! came out *slower* than 1 in earlier baselines. The recorded
//! `host_cpus` says how many cores the numbers were taken on. In
//! `--test` mode (CI smoke) every measurement runs exactly once.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use ivl_analog::chain::InverterChain;
use ivl_analog::characterize::{Integrator, SweepConfig};
use ivl_analog::ode::Rk45Options;
use ivl_analog::stimulus::Pulse;
use ivl_analog::supply::VddSource;
use ivl_analog::SweepRunner;

fn bench_chain_transient(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_transient");
    group.sample_size(20);
    let stim = Pulse::new(60.0, 80.0, 10.0, 1.0).unwrap();
    let vdd = VddSource::dc(1.0);
    for &stages in &[3usize, 7, 15] {
        let chain = InverterChain::umc90_like(stages).unwrap();
        let steps = (400.0 / 0.1) as u64 * stages as u64;
        group.throughput(Throughput::Elements(steps));
        group.bench_with_input(BenchmarkId::from_parameter(stages), &chain, |b, ch| {
            b.iter(|| ch.simulate(&stim, &vdd, 400.0, 0.1).unwrap());
        });
    }
    group.finish();
}

fn bench_integrators(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_simulate");
    group.sample_size(20);
    let stim = Pulse::new(60.0, 80.0, 10.0, 1.0).unwrap();
    let vdd = VddSource::dc(1.0);
    let chain = InverterChain::umc90_like(7).unwrap();
    let opts = Rk45Options::default();
    group.bench_function("rk4_7stage", |b| {
        b.iter(|| chain.simulate(&stim, &vdd, 400.0, 0.05).unwrap());
    });
    group.bench_function("rk45_dense_7stage", |b| {
        b.iter(|| {
            chain
                .simulate_adaptive(&stim, &vdd, 400.0, 0.05, &opts)
                .unwrap()
        });
    });
    group.bench_function("rk45_crossings_7stage", |b| {
        b.iter(|| {
            chain
                .simulate_crossings(&stim, &vdd, 400.0, 0.5, &opts)
                .unwrap()
        });
    });
    group.finish();
}

fn characterize_config(integrator: Integrator) -> SweepConfig {
    SweepConfig {
        widths: (0..8).map(|i| 20.0 + 12.0 * i as f64).collect(),
        integrator,
        ..SweepConfig::default()
    }
}

fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterization");
    group.sample_size(10);
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = SweepConfig {
        widths: vec![40.0, 70.0, 100.0],
        ..SweepConfig::default()
    };
    let serial = SweepRunner::new().with_workers(1);
    group.bench_function("three_point_sweep", |b| {
        b.iter(|| serial.sweep_samples(&chain, &vdd, &cfg, false).unwrap());
    });
    let full = characterize_config(Integrator::default());
    group.bench_function("characterize_7stage", |b| {
        b.iter(|| serial.characterize(&chain, &vdd, &full).unwrap());
    });
    group.finish();
}

/// The parallel tier's workload: a 64-width grid (~8× the default
/// characterization grid), big enough that integration work — not
/// thread spawn — dominates the wall time at every worker count.
fn parallel_sweep_config() -> SweepConfig {
    SweepConfig {
        widths: (0..64).map(|i| 16.0 + 2.0 * i as f64).collect(),
        ..SweepConfig::default()
    }
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_sweep");
    group.sample_size(10);
    let chain = InverterChain::umc90_like(7).unwrap();
    let vdd = VddSource::dc(1.0);
    let cfg = parallel_sweep_config();
    for &workers in &[1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(cfg.widths.len() as u64));
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            let runner = SweepRunner::new().with_workers(w);
            b.iter(|| runner.sweep_samples(&chain, &vdd, &cfg, false).unwrap());
        });
    }
    group.finish();
}

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

/// Emits the `BENCH_analog.json` perf baseline: the RK4-vs-RK45 hot
/// paths and the parallel sweep at 1/2/4/8 workers.
fn emit_baseline(test_mode: bool) {
    let iters = if test_mode { 1 } else { 5 };
    let stim = Pulse::new(60.0, 80.0, 10.0, 1.0).unwrap();
    let vdd = VddSource::dc(1.0);
    let chain = InverterChain::umc90_like(7).unwrap();
    let opts = Rk45Options::default();

    let mut entries: Vec<(String, f64)> = Vec::new();
    entries.push((
        "chain_simulate_rk4".into(),
        median_secs(iters, || {
            chain.simulate(&stim, &vdd, 400.0, 0.05).unwrap();
        }),
    ));
    entries.push((
        "chain_simulate_rk45".into(),
        median_secs(iters, || {
            chain
                .simulate_crossings(&stim, &vdd, 400.0, 0.5, &opts)
                .unwrap();
        }),
    ));
    let cfg_rk4 = characterize_config(Integrator::Rk4);
    let cfg_rk45 = characterize_config(Integrator::default());
    entries.push((
        "characterize_7stage_rk4".into(),
        median_secs(iters.min(3), || {
            SweepRunner::new()
                .with_workers(1)
                .characterize(&chain, &vdd, &cfg_rk4)
                .unwrap();
        }),
    ));
    entries.push((
        "characterize_7stage_rk45".into(),
        median_secs(iters, || {
            SweepRunner::new()
                .with_workers(1)
                .characterize(&chain, &vdd, &cfg_rk45)
                .unwrap();
        }),
    ));
    let cfg_parallel = parallel_sweep_config();
    let mut parallel_times: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let runner = SweepRunner::new().with_workers(workers);
        let t = median_secs(iters.min(3), || {
            runner
                .sweep_samples(&chain, &vdd, &cfg_parallel, false)
                .unwrap();
        });
        entries.push((format!("parallel_sweep_{workers}w"), t));
        parallel_times.push((workers, t));
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup_sim = entries[0].1 / entries[1].1.max(1e-12);
    let speedup_char = entries[2].1 / entries[3].1.max(1e-12);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"analog\",\n");
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
    json.push_str(&format!(
        "  \"speedup_rk45_vs_rk4_simulate\": {speedup_sim:.2},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_rk45_vs_rk4_characterize\": {speedup_char:.2},\n"
    ));
    json.push_str("  \"parallel_sweep_scaling\": {\n");
    let base_par = parallel_times[0].1;
    for (i, (workers, t)) in parallel_times.iter().enumerate() {
        let comma = if i + 1 < parallel_times.len() {
            ","
        } else {
            ""
        };
        let s = base_par / t.max(1e-12);
        json.push_str(&format!("    \"{workers}w\": {s:.2}{comma}\n"));
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
    let path = dir.join("BENCH_analog.json");
    std::fs::write(&path, json).expect("can write bench baseline");
    println!("baseline written to {}", path.display());
    println!("speedup rk45 vs rk4: simulate {speedup_sim:.1}x, characterize {speedup_char:.1}x");
    for (workers, t) in &parallel_times {
        println!(
            "parallel_sweep {workers}w: {t:.3}s ({:.2}x vs 1w)",
            base_par / t
        );
    }
}

criterion_group!(
    benches,
    bench_chain_transient,
    bench_integrators,
    bench_characterization,
    bench_parallel_sweep
);

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
