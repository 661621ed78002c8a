//! Seeded generation of every input the benchmark feeds the program.
//!
//! The program only ever sees `faithful/1` spec text built here. Each
//! corpus is a full factorial over the properties that set an op's cost
//! (channel kind, chain length, scenario count, spec size), so two seeds
//! give the same cost mix; the seed picks the details inside each cell
//! (channel parameters, pulse trains, noise seeds, `serve_hot` chain
//! lengths) and the order the corpus is replayed in.

/// SplitMix64: the whole benchmark's only source of randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The channel families of the digital corpora.
#[derive(Clone, Copy)]
enum Kind {
    Involution,
    Eta,
    Inertial,
    Pure,
}

const KINDS: [Kind; 4] = [Kind::Involution, Kind::Eta, Kind::Inertial, Kind::Pure];

/// Channel text plus the shortest pulse it passes without shrinking it
/// towards cancellation (trains are drawn relative to it).
fn channel(rng: &mut SplitMix64, kind: Kind) -> (String, f64) {
    let tau = rng.range(0.9, 1.1);
    let t_p = rng.range(0.45, 0.55);
    match kind {
        Kind::Involution => (
            format!("involution {{ delay = exp; tau = {tau:.4}; t_p = {t_p:.4}; v_th = 0.5 }}"),
            1.5,
        ),
        Kind::Eta => (
            format!(
                "eta {{ delay = exp; tau = {tau:.4}; t_p = {t_p:.4}; v_th = 0.5; \
                 minus = {:.4}; plus = {:.4}; noise = uniform; seed = {} }}",
                rng.range(0.01, 0.02),
                rng.range(0.01, 0.02),
                rng.next() >> 32
            ),
            1.5,
        ),
        Kind::Inertial => {
            let window = rng.range(0.4, 0.6);
            (
                format!(
                    "inertial {{ delay = {:.4}; window = {window:.4} }}",
                    rng.range(0.9, 1.1)
                ),
                window + 0.5,
            )
        }
        Kind::Pure => (
            format!("pure {{ delay = {:.4} }}", rng.range(0.9, 1.1)),
            0.5,
        ),
    }
}

/// `pulses` pulses starting at 1.0, each `width_lo..width_hi` wide with
/// `gap_lo..gap_hi` of low time after it, as `[start, width]` text.
/// Returns the text and the end of the last pulse.
fn train(
    rng: &mut SplitMix64,
    pulses: usize,
    (width_lo, width_hi): (f64, f64),
    (gap_lo, gap_hi): (f64, f64),
) -> (String, f64) {
    let mut at = 1.0;
    let mut items = Vec::with_capacity(pulses);
    for _ in 0..pulses {
        let width = rng.range(width_lo, width_hi);
        items.push(format!("[{at:.4}, {width:.4}]"));
        at += width + rng.range(gap_lo, gap_hi);
    }
    (items.join(", "), at)
}

/// One digital chain spec with `scenarios` scenarios of `pulses`-pulse
/// trains, every pulse comfortably wider than the channel passes, so
/// the event count is fixed by the cell and not by cancellation luck.
fn chain_spec(
    rng: &mut SplitMix64,
    kind: Kind,
    stages: u32,
    scenarios: usize,
    pulses: usize,
) -> String {
    let (channel, min_width) = channel(rng, kind);
    let mut items = Vec::with_capacity(scenarios);
    let mut end: f64 = 0.0;
    for s in 0..scenarios {
        let (pulses, train_end) = train(
            rng,
            pulses,
            (2.0 * min_width + 1.0, 2.0 * min_width + 3.0),
            (2.0, 4.0),
        );
        end = end.max(train_end);
        items.push(format!(
            "    scenario {{ label = \"s{s}\"; seed = {}; inputs = [\n      \
             drive {{ port = \"a\"; signal = train {{ pulses = [{pulses}] }} }}\n    ] }}",
            rng.next() >> 16
        ));
    }
    let horizon = end + 2.0 * f64::from(stages) + 10.0;
    format!(
        "faithful/1 digital {{\n  topology = chain {{\n    stages = {stages};\n    \
         channel = {channel};\n  }};\n  horizon = {horizon:.1};\n  scenarios = [\n{}\n  ];\n  \
         outputs = outputs {{ signals = true; stats = true; vcd = false }};\n}}\n",
        items.join(",\n")
    )
}

/// Chain lengths of `serve_cold`: 8 log-spaced levels, 8 to 256.
pub const COLD_STAGE_LEVELS: usize = 8;
/// Scenario counts of `serve_cold`: 1 to 4.
pub const COLD_SCENARIOS: usize = 4;
/// Pulses per scenario train in `serve_cold`.
pub const COLD_PULSES: usize = 4;

/// `serve_cold`: 4 channel kinds × 8 chain lengths (8–256 stages,
/// log-spaced) × 1–4 scenarios = 128 distinct specs, in seeded order.
pub fn cold_corpus(seed: u64) -> Vec<String> {
    cold_specs(&mut SplitMix64::new(seed ^ 0xC01D))
}

/// Specs `serve_cold` submits during set-up to warm the daemon: a
/// second corpus of the same shape from another stream, disjoint from
/// the timed one, so warming never turns a timed miss into a hit.
pub fn cold_warmup(seed: u64) -> Vec<String> {
    cold_specs(&mut SplitMix64::new(seed ^ 0x3A4D))
}

/// Chain length of stratum `level`: 8 · 32^(level / 7), so 8 to 256.
/// Fixed rather than drawn, because the longest chains set `tail_ms` and
/// must be the same for every seed.
fn cold_stages(level: usize) -> u32 {
    let pos = level as f64 / (COLD_STAGE_LEVELS - 1) as f64;
    (8.0 * 32f64.powf(pos)).round() as u32
}

fn cold_specs(rng: &mut SplitMix64) -> Vec<String> {
    let mut corpus = Vec::new();
    for kind in KINDS {
        for level in 0..COLD_STAGE_LEVELS {
            for scenarios in 1..=COLD_SCENARIOS {
                corpus.push(chain_spec(
                    rng,
                    kind,
                    cold_stages(level),
                    scenarios,
                    COLD_PULSES,
                ));
            }
        }
    }
    rng.shuffle(&mut corpus);
    corpus
}

/// Scenario-count levels of `serve_hot` (spec size grows with them).
pub const HOT_SCENARIO_LEVELS: [usize; 16] =
    [2, 4, 5, 7, 9, 11, 12, 14, 16, 18, 19, 21, 23, 25, 26, 28];
/// Pulses-per-train levels of `serve_hot`.
pub const HOT_PULSE_LEVELS: [usize; 8] = [2, 4, 5, 6, 8, 9, 10, 12];

/// `serve_hot`: 16 scenario-count levels × 8 train lengths = 128
/// distinct cacheable specs on short (8–16 stage) chains, from ~0.6 KB
/// to ~10 KB of text (mean ~4 KB), in seeded order. The sizes lean large
/// so that parsing and hashing, not thread hand-offs, dominate an op.
pub fn hot_corpus(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x4077);
    let mut corpus = Vec::new();
    for (i, &scenarios) in HOT_SCENARIO_LEVELS.iter().enumerate() {
        for (j, &pulses) in HOT_PULSE_LEVELS.iter().enumerate() {
            let stages = 8 + rng.below(9) as u32;
            let kind = KINDS[(i + j) % KINDS.len()];
            corpus.push(chain_spec(&mut rng, kind, stages, scenarios, pulses));
        }
    }
    rng.shuffle(&mut corpus);
    corpus
}

/// Gates of the `sweep` netlist.
pub const SWEEP_GATES: u32 = 20_000;
/// The `random_dag` seed of the `sweep` netlist. The circuit under test
/// is fixed; the workload seed draws its stimuli and noise.
pub const SWEEP_DAG_SEED: u64 = 1;
/// Specs in the `sweep` corpus (one op runs one of them).
pub const SWEEP_SPECS: usize = 8;
/// Scenarios per `sweep` spec.
pub const SWEEP_SCENARIOS: usize = 32;
/// Pulses per `sweep` glitch train.
pub const SWEEP_PULSES: usize = 16;
/// Glitch widths are stratified over this range, across the channel's
/// cancellation threshold.
pub const SWEEP_WIDTHS: (f64, f64) = (0.2, 1.0);

/// `sweep`: [`SWEEP_SPECS`] specs over one `random_dag` of
/// [`SWEEP_GATES`] gates behind η-involution channels with seeded
/// uniform noise, watching only `y`, each driven by [`SWEEP_SCENARIOS`]
/// seeded glitch trains. `workers` only changes the `workers` line.
pub fn sweep_corpus(seed: u64, workers: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x5EE9);
    (0..SWEEP_SPECS)
        .map(|_| sweep_spec(&mut rng, workers))
        .collect()
}

fn sweep_spec(rng: &mut SplitMix64, workers: usize) -> String {
    let noise_seed = rng.next() >> 32;
    let (lo, hi) = SWEEP_WIDTHS;
    let mut items = Vec::with_capacity(SWEEP_SCENARIOS);
    let mut end: f64 = 0.0;
    for s in 0..SWEEP_SCENARIOS {
        // one width per stratum, shuffled: the share of pulses below the
        // threshold is the same for every seed
        let mut strata: Vec<usize> = (0..SWEEP_PULSES).collect();
        rng.shuffle(&mut strata);
        let mut at = 1.0;
        let mut pulses = Vec::with_capacity(SWEEP_PULSES);
        for k in strata {
            let width = lo + (hi - lo) * (k as f64 + rng.unit()) / SWEEP_PULSES as f64;
            pulses.push(format!("[{at:.4}, {width:.4}]"));
            at += width + rng.range(0.8, 1.6);
        }
        end = end.max(at);
        items.push(format!(
            "    scenario {{ label = \"g{s}\"; seed = {}; inputs = [\n      \
             drive {{ port = \"a\"; signal = train {{ pulses = [{}] }} }}\n    ] }}",
            rng.next() >> 16,
            pulses.join(", ")
        ));
    }
    format!(
        "faithful/1 digital {{\n  topology = random_dag {{\n    nodes = {SWEEP_GATES};\n    \
         seed = {SWEEP_DAG_SEED};\n    channel = eta {{ delay = exp; tau = 1.0; t_p = 0.5; \
         v_th = 0.5; minus = 0.02; plus = 0.02; noise = uniform; seed = {noise_seed} }};\n  }};\n  \
         horizon = {:.1};\n  workers = {workers};\n  scenarios = [\n{}\n  ];\n  \
         outputs = outputs {{ signals = true; stats = true; vcd = false; watch = [\"y\"] }};\n}}\n",
        end + 200.0,
        items.join(",\n")
    )
}

/// The shipped 7-stage RK45 characterization spec.
const CHARACTERIZE: &str = include_str!("../../specs/analog_characterize.spec");

/// `characterize`: [`CHARACTERIZE`] with its `workers` line set to
/// `workers`. It has no random part, so the seed does not change it.
pub fn characterize_spec(workers: usize) -> String {
    CHARACTERIZE
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("workers =") {
                format!("  workers = {workers};\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}
