//! Delay characterization and model-deviation measurement: the
//! experimental procedure of Section V (\[12\]'s method).
//!
//! A single inverter inside the chain is treated as a channel. For each
//! applied input pulse width, the digitized input and output signals of
//! that stage yield one `(T, δ)` sample: `T` is the
//! previous-output-to-input offset and `δ` the input-to-output delay at
//! the switching threshold. Sweeping the pulse width sweeps `T`
//! (Fig. 7). Comparing a reference [`DelayPair`]'s prediction with the
//! analog crossing gives the deviation `D(T)` (Figs. 8 and 9).

use ivl_core::delay::{DelayPair, EmpiricalPair, PiecewiseLinearPair};
use ivl_core::{Edge, Signal};

use crate::chain::InverterChain;
use crate::error::Error;
use crate::ode::Rk45Options;
use crate::stimulus::Pulse;
use crate::supply::VddSource;

/// One characterization point: offset `T` and measured delay `δ(T)` of
/// an output transition with the given edge direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySample {
    /// Previous-output-to-input offset `T` (ps).
    pub offset: f64,
    /// Input-to-output delay `δ` (ps).
    pub delay: f64,
    /// Direction of the *output* transition (`Rising` → `δ↑` sample).
    pub edge: Edge,
}

/// One deviation point: offset `T` and `D = t_actual − t_predicted` for
/// an output transition (Figs. 8/9; negative `D` means the analog
/// circuit switched earlier than the model predicted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationSample {
    /// Previous-output-to-input offset `T` (ps).
    pub offset: f64,
    /// Deviation `D` (ps).
    pub deviation: f64,
    /// Direction of the output transition.
    pub edge: Edge,
}

/// Which integrator drives the per-pulse chain simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Integrator {
    /// Fixed-step RK4 over dense [`Waveform`](crate::Waveform)s at the
    /// configured `dt` — the original (slow) reference pipeline.
    Rk4,
    /// Adaptive Dormand–Prince RK45 with crossings-only event
    /// detection: no dense waveform is ever built. The default.
    Rk45(Rk45Options),
}

impl Default for Integrator {
    fn default() -> Self {
        Integrator::Rk45(Rk45Options::default())
    }
}

impl std::fmt::Display for Integrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Integrator::Rk4 => write!(f, "rk4"),
            Integrator::Rk45(opts) => {
                write!(f, "rk45(rtol = {:e}, atol = {:e})", opts.rtol, opts.atol)
            }
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Pulse widths to apply (ps), each yielding one sample.
    pub widths: Vec<f64>,
    /// Quiet time before the first edge (ps).
    pub settle: f64,
    /// Simulation time after the last edge (ps).
    pub tail: f64,
    /// RK4 step (ps); only used when `integrator` is
    /// [`Integrator::Rk4`].
    pub dt: f64,
    /// Input slew (ps).
    pub slew: f64,
    /// Which inverter stage to measure, 0-based.
    pub stage: usize,
    /// The integrator driving each pulse simulation.
    pub integrator: Integrator,
}

impl Default for SweepConfig {
    /// 24 widths from 12 to 132 ps, 60 ps settle, 250 ps tail, 10 ps
    /// slew, measuring stage 3 of the chain (realistic interior slews,
    /// as in the paper's setup), integrated adaptively (RK45 at
    /// `rtol = 1e-6`, `atol = 1e-9`; the `dt = 0.05` step only applies
    /// after switching to [`Integrator::Rk4`]).
    fn default() -> Self {
        SweepConfig {
            widths: (0..24).map(|i| 12.0 + 5.2 * i as f64).collect(),
            settle: 60.0,
            tail: 250.0,
            dt: 0.05,
            slew: 10.0,
            stage: 3,
            integrator: Integrator::default(),
        }
    }
}

impl SweepConfig {
    /// Checks that this sweep can produce a meaningful result: a
    /// non-empty width axis of finite positive widths, finite timing
    /// knobs, and a positive integration step.
    ///
    /// Every sweep entry point calls this first, so a malformed
    /// configuration fails with a typed [`Error::InvalidSweep`] instead
    /// of panicking or silently measuring nothing.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSweep`] naming the offending field.
    pub fn validate(&self) -> Result<(), Error> {
        let invalid = |reason: String| Err(Error::InvalidSweep { reason });
        if self.widths.is_empty() {
            return invalid("the width axis is empty".to_owned());
        }
        if let Some(w) = self.widths.iter().find(|w| !(w.is_finite() && **w > 0.0)) {
            return invalid(format!(
                "width axis entries must be finite and > 0, got {w}"
            ));
        }
        for (value, name) in [
            (self.settle, "settle"),
            (self.tail, "tail"),
            (self.slew, "slew"),
        ] {
            if !value.is_finite() {
                return invalid(format!("{name} must be finite, got {value}"));
            }
        }
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return invalid(format!("dt must be finite and > 0, got {}", self.dt));
        }
        Ok(())
    }
}

/// Pairs up the transitions of a channel's digitized input and output
/// signals into `(T, δ)` samples.
///
/// The `n`-th output transition is attributed to the `n`-th input
/// transition; the first input transition has no previous output and is
/// skipped.
///
/// # Errors
///
/// Returns [`Error::DegenerateWaveform`] if the transition counts differ
/// (a pulse was swallowed analogly — reduce the sweep range).
pub fn pair_transitions(input: &Signal, output: &Signal) -> Result<Vec<DelaySample>, Error> {
    if input.len() != output.len() {
        return Err(Error::DegenerateWaveform {
            reason: "input and output transition counts differ",
        });
    }
    let mut out = Vec::new();
    for n in 1..input.len() {
        let t_in = input.transitions()[n].time;
        let prev_out = output.transitions()[n - 1].time;
        let t_out = output.transitions()[n].time;
        out.push(DelaySample {
            offset: t_in - prev_out,
            delay: t_out - t_in,
            edge: output.transitions()[n].value.edge(),
        });
    }
    Ok(out)
}

/// Runs one pulse through the chain and extracts the measured stage's
/// digitized input/output signals at the switching threshold
/// `V_DD/2` (nominal).
///
/// With [`Integrator::Rk45`] this never builds a dense waveform: the
/// crossings-only fast path digitizes straight from event detection on
/// the integrator's dense output.
pub(crate) fn run_one(
    chain: &InverterChain,
    vdd: &VddSource,
    config: &SweepConfig,
    width: f64,
    inverted: bool,
) -> Result<(Signal, Signal), Error> {
    let stim = if inverted {
        Pulse::inverted(config.settle, width, config.slew, vdd.nominal())?
    } else {
        Pulse::new(config.settle, width, config.slew, vdd.nominal())?
    };
    let t_end = config.settle + width + config.tail;
    let threshold = vdd.nominal() / 2.0;
    match &config.integrator {
        Integrator::Rk4 => {
            let run = chain.simulate(&stim, vdd, t_end, config.dt)?;
            let input = run.stage_input(config.stage).digitize(threshold)?;
            let output = run.node(config.stage).digitize(threshold)?;
            Ok((input, output))
        }
        Integrator::Rk45(opts) => {
            let run = chain.simulate_crossings(&stim, vdd, t_end, threshold, opts)?;
            Ok((
                run.stage_input(config.stage).clone(),
                run.node(config.stage).clone(),
            ))
        }
    }
}

/// Folds per-width run results into samples — the single definition of
/// the sweep's error semantics for
/// [`SweepRunner`](crate::SweepRunner): swallowed pulses
/// ([`Error::Core`] / [`Error::DegenerateWaveform`]) are skipped, other
/// errors propagate, an empty sweep is a [`Error::MissingCrossing`].
pub(crate) fn collect_samples(
    runs: Vec<Result<(Signal, Signal), Error>>,
    config: &SweepConfig,
) -> Result<Vec<DelaySample>, Error> {
    let mut all = Vec::new();
    for run in runs {
        match run {
            Ok((input, output)) => {
                if let Ok(samples) = pair_transitions(&input, &output) {
                    // keep only the T-dependent samples (n ≥ 1)
                    all.extend(samples);
                }
            }
            Err(Error::Core(_)) | Err(Error::DegenerateWaveform { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    if all.is_empty() {
        return Err(Error::MissingCrossing {
            what: "any usable sample in sweep",
            pulse_width: config.widths.first().copied().unwrap_or(0.0),
        });
    }
    Ok(all)
}

/// Splits samples by output edge into `(δ↑, δ↓)`, each sorted by
/// offset.
pub(crate) fn partition_by_edge(
    samples: impl IntoIterator<Item = DelaySample>,
) -> (Vec<DelaySample>, Vec<DelaySample>) {
    let mut up = Vec::new();
    let mut down = Vec::new();
    for s in samples {
        match s.edge {
            Edge::Rising => up.push(s),
            Edge::Falling => down.push(s),
        }
    }
    let by_offset = |a: &DelaySample, b: &DelaySample| a.offset.total_cmp(&b.offset);
    up.sort_by(by_offset);
    down.sort_by(by_offset);
    (up, down)
}

/// Turns measured samples into deviations against a reference model.
pub(crate) fn apply_reference<D: DelayPair + ?Sized>(
    samples: &[DelaySample],
    reference: &D,
) -> Vec<DeviationSample> {
    samples
        .iter()
        .map(|s| DeviationSample {
            offset: s.offset,
            deviation: s.delay - reference.delta(s.edge, s.offset),
            edge: s.edge,
        })
        .collect()
}

/// Sorts measured samples by offset and drops points violating strict
/// monotonicity or concavity (measurement noise).
fn clean_samples(samples: &[DelaySample]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<(f64, f64)> = samples.iter().map(|s| (s.offset, s.delay)).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut kept: Vec<(f64, f64)> = Vec::new();
    let mut prev_slope = f64::INFINITY;
    for (t, d) in sorted {
        match kept.last() {
            None => kept.push((t, d)),
            Some(&(pt, pd)) => {
                if t <= pt || d <= pd {
                    continue;
                }
                let slope = (d - pd) / (t - pt);
                if slope > prev_slope * 1.05 {
                    continue; // convexity outlier
                }
                prev_slope = slope;
                kept.push((t, d));
            }
        }
    }
    kept
}

/// Builds an involution-exact [`PiecewiseLinearPair`] from measured `δ↑`
/// samples (the derived `δ↓` is only meaningful near `T ∈ [−δ_min, 0]`,
/// which is the faithfulness-relevant region).
///
/// # Errors
///
/// Returns [`Error::Core`] if fewer than two usable points remain.
pub fn to_piecewise(up_samples: &[DelaySample]) -> Result<PiecewiseLinearPair, Error> {
    PiecewiseLinearPair::from_up_samples(&clean_samples(up_samples)).map_err(Error::Core)
}

/// Builds an [`EmpiricalPair`] from independently measured `δ↑` and `δ↓`
/// samples — the right reference for deviation experiments, which probe
/// both edges at positive offsets.
///
/// # Errors
///
/// Returns [`Error::Core`] if either sample set is unusable.
pub fn to_empirical(
    up_samples: &[DelaySample],
    down_samples: &[DelaySample],
) -> Result<EmpiricalPair, Error> {
    EmpiricalPair::from_samples(&clean_samples(up_samples), &clean_samples(down_samples))
        .map_err(Error::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepRunner;
    use ivl_core::Bit;

    fn chain() -> InverterChain {
        InverterChain::umc90_like(7).unwrap()
    }

    /// One worker: the sweep runs inline, in width order.
    fn runner() -> SweepRunner {
        SweepRunner::new().with_workers(1)
    }

    fn fast_config() -> SweepConfig {
        SweepConfig {
            widths: (0..8).map(|i| 20.0 + 12.0 * i as f64).collect(),
            dt: 0.1,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn pair_transitions_basic() {
        let input = Signal::pulse(10.0, 5.0).unwrap();
        let output = Signal::new(
            Bit::One,
            vec![
                ivl_core::Transition::new(12.0, Bit::Zero),
                ivl_core::Transition::new(17.5, Bit::One),
            ],
        )
        .unwrap();
        let samples = pair_transitions(&input, &output).unwrap();
        assert_eq!(samples.len(), 1);
        let s = samples[0];
        assert!((s.offset - 3.0).abs() < 1e-12); // 15 − 12
        assert!((s.delay - 2.5).abs() < 1e-12); // 17.5 − 15
        assert_eq!(s.edge, Edge::Rising);
    }

    #[test]
    fn pair_transitions_rejects_mismatch() {
        let input = Signal::pulse(10.0, 5.0).unwrap();
        let output = Signal::from_times(Bit::One, &[12.0]).unwrap();
        assert!(pair_transitions(&input, &output).is_err());
    }

    #[test]
    fn sweep_produces_increasing_offsets() {
        let samples = runner()
            .sweep_samples(&chain(), &VddSource::dc(1.0), &fast_config(), false)
            .unwrap();
        assert!(samples.len() >= 6, "got {}", samples.len());
        // wider pulses → larger T
        for w in samples.windows(2) {
            assert!(w[1].offset > w[0].offset, "{samples:?}");
        }
        // delays saturate: the spread between consecutive δ shrinks
        let d_first = samples[1].delay - samples[0].delay;
        let d_last = samples[samples.len() - 1].delay - samples[samples.len() - 2].delay;
        assert!(d_last < d_first, "saturation expected: {samples:?}");
    }

    #[test]
    fn characterize_yields_both_edges() {
        let (up, down) = runner()
            .characterize(&chain(), &VddSource::dc(1.0), &fast_config())
            .unwrap();
        assert!(!up.is_empty());
        assert!(!down.is_empty());
        assert!(up.iter().all(|s| s.edge == Edge::Rising));
        assert!(down.iter().all(|s| s.edge == Edge::Falling));
        // delays are positive at these comfortable offsets
        assert!(up.iter().all(|s| s.delay > 0.0));
        assert!(down.iter().all(|s| s.delay > 0.0));
    }

    #[test]
    fn to_piecewise_builds_a_causal_pair() {
        let (up, _) = runner()
            .characterize(&chain(), &VddSource::dc(1.0), &fast_config())
            .unwrap();
        let pair = to_piecewise(&up).unwrap();
        assert!(pair.delta_up(0.0) > 0.0);
        // the pair reproduces the measured samples it kept
        let (t_lo, t_hi) = pair.t_range();
        assert!(t_lo < t_hi);
    }

    #[test]
    fn nominal_self_deviation_is_small() {
        // characterizing the nominal chain and predicting the *same*
        // chain must give tiny deviations (sanity of the whole pipeline).
        // Stage 3 is odd, so the `inverted = true` stimulus produces the
        // rising output edge that matches the fitted δ↑ samples.
        let c = chain();
        let vdd = VddSource::dc(1.0);
        let cfg = fast_config();
        let (up, _) = runner().characterize(&c, &vdd, &cfg).unwrap();
        let pair = to_piecewise(&up).unwrap();
        let devs = runner()
            .measure_deviations(&c, &vdd, &cfg, &pair, true)
            .unwrap();
        for d in &devs {
            assert_eq!(d.edge, Edge::Rising);
            assert!(d.deviation.abs() < 0.5, "self-deviation {d:?} too large");
        }
    }

    #[test]
    fn width_variation_shifts_deviations_one_sided() {
        // +10 % width → analog faster → D < 0 (Fig. 8b); −10 % → D > 0
        let c = chain();
        let vdd = VddSource::dc(1.0);
        let cfg = fast_config();
        let (up, _) = runner().characterize(&c, &vdd, &cfg).unwrap();
        let pair = to_piecewise(&up).unwrap();
        let fast = c.scaled_width(1.1).unwrap();
        let slow = c.scaled_width(0.9).unwrap();
        let dev_fast = runner()
            .measure_deviations(&fast, &vdd, &cfg, &pair, true)
            .unwrap();
        let dev_slow = runner()
            .measure_deviations(&slow, &vdd, &cfg, &pair, true)
            .unwrap();
        let mean =
            |v: &[DeviationSample]| v.iter().map(|s| s.deviation).sum::<f64>() / v.len() as f64;
        assert!(mean(&dev_fast) < -0.1, "fast: {}", mean(&dev_fast));
        assert!(mean(&dev_slow) > 0.1, "slow: {}", mean(&dev_slow));
    }
}
