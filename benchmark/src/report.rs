//! Summaries of a timed window and the one-line JSON result.

use crate::host::{self, Window};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `pct` (0–100) of sorted nanosecond samples,
/// in milliseconds.
fn percentile_ms(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e6
}

/// How many equal slices the timed run is cut into. Rates are the
/// median over slices: host steal comes in bursts of a second or two, and
/// the median of many short slices moves little when a few of them are hit.
pub const SLICES: usize = 20;

/// Set-up repetitions per run; `setup_s` is the median of their CPU
/// time, `setup_wall_s` that of their wall time.
pub const SETUPS: usize = 11;

/// One slice of the timed run.
pub struct Slice {
    pub window: Window,
    pub ops: usize,
    /// Simulated events (ODE steps on `characterize`) the slice's ops
    /// delivered.
    pub events: u64,
}

/// One workload's timed run: what the end-to-end metrics are made of.
pub struct Timed {
    /// Each set-up repetition.
    pub setups: Vec<Window>,
    /// The whole timed run.
    pub window: Window,
    pub slices: Vec<Slice>,
    /// Latency of every completed op.
    pub latencies_ns: Vec<u64>,
    /// The percentile `tail_ms` reports.
    pub tail_pct: f64,
}

impl Timed {
    pub fn ops(&self) -> usize {
        self.latencies_ns.len()
    }

    fn slice_median(&self, per_slice: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(per_slice).collect::<Vec<_>>())
    }

    /// The end-to-end metrics: first those `BENCHMARK.json` bounds, which
    /// hold up under host steal, then the wall-clock ones, which are
    /// reported with every run but swing with the host's load (see
    /// README.md). `setup_s` is the CPU time of a set-up for that reason;
    /// its wall time is `setup_wall_s`.
    pub fn end_to_end(&self) -> (Vec<Metric>, Vec<Metric>) {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let beyond = (self.ops() as f64 * (1.0 - self.tail_pct / 100.0)).floor();
        eprintln!(
            "tail_ms is p{} of {} ops ({beyond} samples beyond it{})",
            self.tail_pct,
            self.ops(),
            if beyond < 10.0 { "; fewer than 10" } else { "" }
        );
        let bounded = vec![
            metric(
                "setup_s",
                median(&self.setups.iter().map(|w| w.cpu_s).collect::<Vec<_>>()),
                "s",
            ),
            metric(
                "cpu_ms_per_op",
                self.slice_median(|s| s.window.cpu_s * 1e3 / s.ops.max(1) as f64),
                "ms",
            ),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ];
        let wall_clock = vec![
            metric(
                "setup_wall_s",
                median(&self.setups.iter().map(|w| w.wall_s).collect::<Vec<_>>()),
                "s",
            ),
            metric(
                "ops_per_s",
                self.slice_median(|s| s.ops as f64 / s.window.wall_s),
                "1/s",
            ),
            metric("p50_ms", percentile_ms(&sorted, 50.0), "ms"),
            metric("tail_ms", percentile_ms(&sorted, self.tail_pct), "ms"),
            metric(
                "events_per_s",
                self.slice_median(|s| s.events as f64 / s.window.wall_s),
                "1/s",
            ),
        ];
        (bounded, wall_clock)
    }

    /// Host conditions of the timed run; printed with every run and part
    /// of the traced run's per-layer metrics. Switches are counted over
    /// the untraced slices only, whose ops `ops()` counts.
    pub fn host(&self) -> Vec<Metric> {
        let switches: u64 = self
            .slices
            .iter()
            .map(|s| s.window.involuntary_switches)
            .sum();
        vec![
            metric("host.cpus", host::cpus() as f64, "count"),
            metric("host.steal_frac", self.window.steal_frac, "ratio"),
            metric(
                "host.nvcsw_per_op",
                switches as f64 / self.ops().max(1) as f64,
                "count",
            ),
        ]
    }
}

/// Prints metrics readably on stderr, one per line.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Prints the metrics readably on stderr and the result as the last
/// line of stdout.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    eprintln!(
        "attempted {attempted}, failed {failed}, failed_frac {}",
        ratio(failed as f64, attempted as f64)
    );
    print_metrics(metrics);
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Per-op self times and counts of each layer on one workload's timed
/// path. A layer the workload's op does not pass through stays 0.
#[derive(Default)]
pub struct Layers {
    pub parse_ns: f64,
    pub hash_ns: f64,
    pub doc_bytes: f64,
    pub cache_get_ns: f64,
    pub cache_insert_ns: f64,
    pub hit_ratio: f64,
    pub lint_ns: f64,
    /// Lint ÷ (lint + the rest of `Experiment::run`, build excluded).
    pub lint_share: f64,
    pub build_ns: f64,
    pub simulate_ns: f64,
    pub events_per_op: f64,
    pub scheduled_per_op: f64,
    pub runner_parallel_eff: f64,
    pub render_ns: f64,
    pub result_bytes: f64,
    pub parse_result_ns: f64,
    pub transport_ns: f64,
    pub chain_ns: f64,
    pub ode_accepted: f64,
    pub ode_rejected: f64,
    pub rhs_evals: f64,
    pub analog_parallel_eff: f64,
    pub coverage: f64,
    pub unattributed_ns: f64,
    pub overhead: f64,
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("spec.parse_us", self.parse_ns / 1e3, "us"),
            metric("spec.canonical_hash_us", self.hash_ns / 1e3, "us"),
            metric("spec.doc_bytes", self.doc_bytes, "bytes"),
            metric("cache.get_us", self.cache_get_ns / 1e3, "us"),
            metric("cache.insert_us", self.cache_insert_ns / 1e3, "us"),
            metric("cache.hit_ratio", self.hit_ratio, "ratio"),
            metric("lint.preflight_us", self.lint_ns / 1e3, "us"),
            metric("lint.share", self.lint_share, "ratio"),
            metric("graph.build_ms", self.build_ns / 1e6, "ms"),
            metric("sim.simulate_ms", self.simulate_ns / 1e6, "ms"),
            metric(
                "sim.ns_per_event",
                ratio(self.simulate_ns, self.events_per_op),
                "ns",
            ),
            metric("sim.events_per_op", self.events_per_op, "count"),
            metric("sim.scheduled_per_op", self.scheduled_per_op, "count"),
            metric(
                "queue.cancel_ratio",
                if self.scheduled_per_op > 0.0 {
                    1.0 - self.events_per_op / self.scheduled_per_op
                } else {
                    0.0
                },
                "ratio",
            ),
            metric("runner.parallel_eff", self.runner_parallel_eff, "ratio"),
            metric("wire.render_us", self.render_ns / 1e3, "us"),
            metric("wire.result_bytes", self.result_bytes, "bytes"),
            metric("wire.parse_result_us", self.parse_result_ns / 1e3, "us"),
            metric("server.transport_us", self.transport_ns / 1e3, "us"),
            metric("analog.chain_ms", self.chain_ns / 1e6, "ms"),
            metric("analog.ode_accepted", self.ode_accepted, "count"),
            metric("analog.ode_rejected", self.ode_rejected, "count"),
            metric("analog.rhs_evals", self.rhs_evals, "count"),
            metric(
                "analog.step_acceptance",
                ratio(self.ode_accepted, self.ode_accepted + self.ode_rejected),
                "ratio",
            ),
            metric(
                "analog.sweep_parallel_eff",
                self.analog_parallel_eff,
                "ratio",
            ),
            metric("trace.coverage", self.coverage, "ratio"),
            metric("trace.unattributed_us", self.unattributed_ns / 1e3, "us"),
            metric("trace.overhead", self.overhead, "ratio"),
        ]
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub timed: Timed,
    pub layers: Layers,
    /// Ops and exact-count checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Mean of `values`, 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}
