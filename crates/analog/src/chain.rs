//! The 7-stage inverter chain of the paper's validation ASIC (Fig. 6).
//!
//! A chain is integrated along one of two pipelines, one per kind of
//! output:
//!
//! * [`InverterChain::simulate`] (and
//!   [`simulate_with_ground`](InverterChain::simulate_with_ground) for a
//!   bouncing ground rail) runs fixed-step RK4 and returns dense
//!   [`Waveform`]s — the reference every faster path is checked against;
//! * [`InverterChain::simulate_crossings`] runs adaptive RK45 and returns
//!   only the digitized threshold crossings, which is all a
//!   characterization sweep needs.

use ivl_core::{Bit, Edge, Signal, SignalBuilder};

use crate::error::Error;
use crate::inverter::Inverter;
use crate::ode::{rk45, rk4_with, Rk45Options, Rk45Stats};
use crate::stimulus::Pulse;
use crate::supply::{GroundSource, VddSource};
use crate::waveform::Waveform;

/// An inverter chain: stage `i`'s output drives stage `i+1`'s input.
/// Every stage output additionally carries a sense-amplifier load (the
/// paper's amplifiers present an input load equivalent to three inverter
/// inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct InverterChain {
    stages: Vec<Inverter>,
}

/// The waveforms of one chain simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRun {
    input: Waveform,
    nodes: Vec<Waveform>,
}

impl ChainRun {
    /// The sampled input stimulus.
    #[must_use]
    pub fn input(&self) -> &Waveform {
        &self.input
    }

    /// Output waveform of stage `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &Waveform {
        &self.nodes[i]
    }

    /// Number of stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.nodes.len()
    }

    /// The input waveform of stage `i`: the stimulus for stage 0, the
    /// previous stage's output otherwise.
    #[must_use]
    pub fn stage_input(&self, i: usize) -> &Waveform {
        if i == 0 {
            &self.input
        } else {
            &self.nodes[i - 1]
        }
    }
}

/// The threshold-crossing events of one chain simulation, already
/// digitized: the crossings-only output of the adaptive fast path
/// ([`InverterChain::simulate_crossings`]). No dense waveforms are ever
/// materialized — every [`Signal`] is built directly from event
/// detection on the integrator's dense output (nodes) or from the
/// analytic trapezoid crossings (input).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCrossings {
    threshold: f64,
    input: Signal,
    nodes: Vec<Signal>,
    stats: Rk45Stats,
}

impl ChainCrossings {
    /// The digitization threshold the events were detected at.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The digitized input stimulus.
    #[must_use]
    pub fn input(&self) -> &Signal {
        &self.input
    }

    /// Digitized output of stage `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &Signal {
        &self.nodes[i]
    }

    /// Number of stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.nodes.len()
    }

    /// The digitized input of stage `i`: the stimulus for stage 0, the
    /// previous stage's output otherwise.
    #[must_use]
    pub fn stage_input(&self, i: usize) -> &Signal {
        if i == 0 {
            &self.input
        } else {
            &self.nodes[i - 1]
        }
    }

    /// Integrator step statistics of the underlying run.
    #[must_use]
    pub fn stats(&self) -> Rk45Stats {
        self.stats
    }
}

/// An empty stage vector with room for exactly `n` stages, reserved in
/// one allocation, so a chain too large for memory is a typed error
/// instead of an aborting allocation somewhere in a doubling growth.
fn reserve_stages(n: usize) -> Result<Vec<Inverter>, Error> {
    let mut stages = Vec::new();
    stages.try_reserve_exact(n).map_err(|_| Error::TooLarge {
        what: "inverter stages",
        requested: n,
    })?;
    Ok(stages)
}

impl InverterChain {
    /// Builds a chain from explicit stages.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `stages` is empty.
    pub fn new(stages: Vec<Inverter>) -> Result<Self, Error> {
        if stages.is_empty() {
            return Err(Error::InvalidParameter {
                name: "stages",
                value: 0.0,
                constraint: "need at least one stage",
            });
        }
        Ok(InverterChain { stages })
    }

    /// The UMC-90-like chain of Fig. 6: `n` identical inverters, each
    /// output loaded with the next gate, wire parasitics and the
    /// sense-amp tap (≈ 5 fF total; the last stage drives the output
    /// load).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `n == 0`, and
    /// [`Error::TooLarge`] if `n` stages do not fit in memory.
    pub fn umc90_like(n: usize) -> Result<Self, Error> {
        let mut stages = reserve_stages(n)?;
        stages.resize(n, Inverter::umc90_like(5.0)?);
        InverterChain::new(stages)
    }

    /// The stages.
    #[must_use]
    pub fn stages(&self) -> &[Inverter] {
        &self.stages
    }

    /// Returns a copy with every stage's transistor widths scaled by
    /// `factor` (chip-wide process variation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `factor ≤ 0`.
    pub fn scaled_width(&self, factor: f64) -> Result<Self, Error> {
        let mut stages = reserve_stages(self.stages.len())?;
        for s in &self.stages {
            stages.push(s.scaled_width(factor)?);
        }
        InverterChain::new(stages)
    }

    /// Simulates the chain with RK4 from `t = 0` to `t_end` at step `dt`
    /// under the given stimulus and supply.
    ///
    /// The initial state is the DC solution for the stimulus value at
    /// `t = 0` (alternating rails).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive `t_end`/`dt`.
    pub fn simulate(
        &self,
        stimulus: &Pulse,
        vdd: &VddSource,
        t_end: f64,
        dt: f64,
    ) -> Result<ChainRun, Error> {
        self.simulate_with_ground(stimulus, vdd, &GroundSource::ideal(), t_end, dt)
    }

    /// Like [`simulate`](InverterChain::simulate) but with a bouncing
    /// ground rail (the paper's "varying the ground level" remark: the
    /// edge sensitivity of Fig. 8a reverses).
    ///
    /// # Errors
    ///
    /// As [`simulate`](InverterChain::simulate).
    pub fn simulate_with_ground(
        &self,
        stimulus: &Pulse,
        vdd: &VddSource,
        gnd: &GroundSource,
        t_end: f64,
        dt: f64,
    ) -> Result<ChainRun, Error> {
        validate_grid(t_end, dt)?;
        let n = self.stages.len();
        let y0 = self.dc_initial_state(stimulus, vdd);
        let steps = (t_end / dt).ceil() as usize;
        // One flat row-major state buffer plus the input samples, both
        // filled by the recorder in a single pass: the stimulus is
        // evaluated exactly once per accepted step for recording (the
        // RHS memoizes its own per-stage-time evaluation separately).
        let mut flat = Vec::with_capacity((steps + 1) * n);
        let mut samples_in = Vec::with_capacity(steps + 1);
        rk4_with(
            0.0,
            &y0,
            dt,
            steps,
            self.rhs(stimulus, vdd, gnd),
            |_k, t, y| {
                samples_in.push(stimulus.value_at(t));
                flat.extend_from_slice(y);
            },
        );
        let input = Waveform::new(0.0, dt, samples_in)?;
        let nodes = (0..n)
            .map(|i| Waveform::from_strided(0.0, dt, &flat, i, n))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChainRun { input, nodes })
    }

    /// The crossings-only fast path: adaptively integrates the chain
    /// and detects `threshold` crossings of every node by root-finding
    /// on the dense interpolant, without ever materializing a sampled
    /// [`Waveform`]. The input signal's crossings are computed
    /// analytically from the trapezoid.
    ///
    /// This is what makes characterization sweeps interactive: a run
    /// that RK4 resolves with ~10⁴ fixed steps typically needs a few
    /// hundred adaptive steps, and the crossing times still agree to
    /// ≈ 1e-6 ps at the default tolerances.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive `t_end` or
    /// a non-finite `threshold`, [`Error::Integration`] if the step
    /// controller fails, and [`Error::Core`] if the detected crossings
    /// do not form a valid signal.
    pub fn simulate_crossings(
        &self,
        stimulus: &Pulse,
        vdd: &VddSource,
        t_end: f64,
        threshold: f64,
        opts: &Rk45Options,
    ) -> Result<ChainCrossings, Error> {
        if !(t_end.is_finite() && t_end > 0.0) {
            return Err(Error::InvalidParameter {
                name: "t_end",
                value: t_end,
                constraint: "must be finite and > 0",
            });
        }
        if !threshold.is_finite() {
            return Err(Error::InvalidParameter {
                name: "threshold",
                value: threshold,
                constraint: "must be finite",
            });
        }
        let y0 = self.dc_initial_state(stimulus, vdd);
        let mut builders: Vec<SignalBuilder> = y0
            .iter()
            .map(|&v| SignalBuilder::new(Bit::from(v >= threshold)))
            .collect();
        let gnd = GroundSource::ideal();
        let mut rhs = self.rhs(stimulus, vdd, &gnd);
        let mut y = y0;
        let mut stats = Rk45Stats::default();
        let mut push_err: Option<ivl_core::Error> = None;
        for (a, b) in segments(stimulus, t_end) {
            let (y_end, seg_stats) = rk45(a, b, &y, opts, &mut rhs, |step| {
                for (i, builder) in builders.iter_mut().enumerate() {
                    // harvest *all* alternating crossings inside the
                    // step: a marginal glitch can cross the threshold
                    // and return within one accepted step, and missing
                    // its second edge would invert the signal's parity
                    // for the rest of the run
                    let mut from = step.t0;
                    loop {
                        let rising = builder.current_value() == Bit::Zero;
                        let Some(t) = step.find_crossing_after(i, threshold, rising, from) else {
                            break;
                        };
                        if t <= from && from > step.t0 {
                            break; // no sub-resolution progress
                        }
                        if let Err(e) = builder.push_time(t) {
                            push_err.get_or_insert(e);
                            break;
                        }
                        from = t;
                    }
                }
            })?;
            y = y_end;
            stats.accepted += seg_stats.accepted;
            stats.rejected += seg_stats.rejected;
            stats.rhs_evals += seg_stats.rhs_evals;
        }
        if let Some(e) = push_err {
            return Err(Error::Core(e));
        }
        let mut input = SignalBuilder::new(Bit::from(stimulus.value_at(0.0) >= threshold));
        for (t, edge) in stimulus.crossings(threshold) {
            let flips = match edge {
                Edge::Rising => input.current_value() == Bit::Zero,
                Edge::Falling => input.current_value() == Bit::One,
            };
            if t > 0.0 && t <= t_end && flips {
                input.push_time(t).map_err(Error::Core)?;
            }
        }
        Ok(ChainCrossings {
            threshold,
            input: input.finish(),
            nodes: builders.into_iter().map(SignalBuilder::finish).collect(),
            stats,
        })
    }

    /// DC initial condition: alternating rails from the stimulus value
    /// at `t = 0`.
    fn dc_initial_state(&self, stimulus: &Pulse, vdd: &VddSource) -> Vec<f64> {
        let vdd0 = vdd.value_at(0.0);
        let mut y0 = vec![0.0; self.stages.len()];
        let mut v = stimulus.value_at(0.0);
        for y in y0.iter_mut() {
            v = if v > vdd0 / 2.0 { 0.0 } else { vdd0 };
            *y = v;
        }
        y0
    }

    /// The chain's right-hand side `dy/dt = f(t, y)`. The stimulus is
    /// memoized per evaluation time, so integrator stages sharing a
    /// stage time (RK4's two midpoint stages) evaluate it once.
    fn rhs<'a>(
        &'a self,
        stimulus: &'a Pulse,
        vdd: &'a VddSource,
        gnd: &'a GroundSource,
    ) -> impl FnMut(f64, &[f64], &mut [f64]) + 'a {
        let n = self.stages.len();
        let mut memo = (f64::NAN, 0.0);
        move |t, y: &[f64], dy: &mut [f64]| {
            if memo.0 != t {
                memo = (t, stimulus.value_at(t));
            }
            let v_stim = memo.1;
            let vdd_t = vdd.value_at(t);
            let vss_t = gnd.value_at(t);
            for i in 0..n {
                let v_in = if i == 0 { v_stim } else { y[i - 1] };
                dy[i] = self.stages[i].dv_out_rails(v_in, y[i], vdd_t, vss_t);
            }
        }
    }
}

/// Splits `[0, t_end]` at the stimulus corner times so adaptive
/// integration never steps across a slope discontinuity of the input.
fn segments(stimulus: &Pulse, t_end: f64) -> Vec<(f64, f64)> {
    let mut cuts = vec![0.0];
    for c in stimulus.corner_times() {
        if c > 0.0 && c < t_end && c > cuts[cuts.len() - 1] {
            cuts.push(c);
        }
    }
    cuts.push(t_end);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

fn validate_grid(t_end: f64, dt: f64) -> Result<(), Error> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(Error::InvalidParameter {
            name: "dt",
            value: dt,
            constraint: "must be finite and > 0",
        });
    }
    if !(t_end.is_finite() && t_end > dt) {
        return Err(Error::InvalidParameter {
            name: "t_end",
            value: t_end,
            constraint: "must be finite and > dt",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(width: f64) -> Pulse {
        Pulse::new(50.0, width, 10.0, 1.0).unwrap()
    }

    #[test]
    fn construction() {
        assert!(InverterChain::new(vec![]).is_err());
        let c = InverterChain::umc90_like(7).unwrap();
        assert_eq!(c.stages().len(), 7);
        assert!(InverterChain::umc90_like(0).is_err());
        // more stages than an address space holds: refused, not aborted
        assert_eq!(
            InverterChain::umc90_like(usize::MAX).unwrap_err(),
            Error::TooLarge {
                what: "inverter stages",
                requested: usize::MAX
            }
        );
    }

    #[test]
    fn dc_levels_alternate() {
        let c = InverterChain::umc90_like(7).unwrap();
        let run = c
            .simulate(&pulse(100.0), &VddSource::dc(1.0), 40.0, 0.1)
            .unwrap();
        // before the pulse (t < 45 ps) the nodes sit at alternating rails
        for i in 0..7 {
            let v = run.node(i).value_at(30.0);
            if i.is_multiple_of(2) {
                assert!(v > 0.95, "node {i} = {v}");
            } else {
                assert!(v < 0.05, "node {i} = {v}");
            }
        }
        assert_eq!(run.stage_count(), 7);
    }

    #[test]
    fn wide_pulse_propagates_through_all_stages() {
        let c = InverterChain::umc90_like(7).unwrap();
        let run = c
            .simulate(&pulse(150.0), &VddSource::dc(1.0), 500.0, 0.1)
            .unwrap();
        for i in 0..7 {
            let w = run.node(i);
            let expected_edges = if i.is_multiple_of(2) {
                // even stages (0-based) invert the input pulse: fall, rise
                (
                    w.falling_crossings(0.5).len(),
                    w.rising_crossings(0.5).len(),
                )
            } else {
                (
                    w.rising_crossings(0.5).len(),
                    w.falling_crossings(0.5).len(),
                )
            };
            assert_eq!(expected_edges, (1, 1), "stage {i}");
        }
    }

    #[test]
    fn per_stage_delay_is_plausible() {
        let c = InverterChain::umc90_like(7).unwrap();
        let run = c
            .simulate(&pulse(200.0), &VddSource::dc(1.0), 600.0, 0.1)
            .unwrap();
        // first edge at the input crosses 0.5 at t = 50; track its
        // arrival at the last stage
        let t_in = 50.0;
        let last = run.node(6);
        let t_out = if 7 % 2 == 0 {
            last.rising_crossings(0.5)[0]
        } else {
            last.falling_crossings(0.5)[0]
        };
        let per_stage = (t_out - t_in) / 7.0;
        assert!(
            (2.0..60.0).contains(&per_stage),
            "per-stage delay {per_stage} ps"
        );
    }

    #[test]
    fn short_pulse_attenuates_along_the_chain() {
        let c = InverterChain::umc90_like(7).unwrap();
        let width_at = |run: &ChainRun, i: usize| -> Option<f64> {
            let w = run.node(i);
            let (first, second) = if i.is_multiple_of(2) {
                (w.falling_crossings(0.5), w.rising_crossings(0.5))
            } else {
                (w.rising_crossings(0.5), w.falling_crossings(0.5))
            };
            match (first.first(), second.first()) {
                (Some(&a), Some(&b)) if b > a => Some(b - a),
                _ => None,
            }
        };
        // find a pulse short enough to attenuate but wide enough to
        // survive the first stage, then check it shrinks down the chain
        let mut checked = false;
        for w_in in [45.0, 35.0, 28.0, 22.0, 16.0] {
            let run = c
                .simulate(&pulse(w_in), &VddSource::dc(1.0), 500.0, 0.05)
                .unwrap();
            let Some(w0) = width_at(&run, 0) else {
                continue;
            };
            match width_at(&run, 6) {
                Some(w6) => {
                    if w6 < w0 - 0.05 {
                        checked = true;
                        break;
                    }
                }
                None => {
                    // fully swallowed along the chain: strongest attenuation
                    checked = true;
                    break;
                }
            }
        }
        assert!(checked, "no attenuating pulse width found");
    }

    #[test]
    fn width_scaling_changes_speed() {
        let nominal = InverterChain::umc90_like(3).unwrap();
        let fast = nominal.scaled_width(1.1).unwrap();
        let slow = nominal.scaled_width(0.9).unwrap();
        let delay = |c: &InverterChain| {
            let run = c
                .simulate(&pulse(100.0), &VddSource::dc(1.0), 400.0, 0.1)
                .unwrap();
            run.node(2).falling_crossings(0.5)[0]
        };
        let d_nom = delay(&nominal);
        assert!(delay(&fast) < d_nom);
        assert!(delay(&slow) > d_nom);
    }

    #[test]
    fn supply_sine_modulates_delay() {
        let c = InverterChain::umc90_like(3).unwrap();
        let d = |phase: f64| {
            let vdd = VddSource::with_sine(1.0, 0.05, 80.0, phase).unwrap();
            let run = c.simulate(&pulse(100.0), &vdd, 400.0, 0.1).unwrap();
            run.node(2).falling_crossings(0.5)[0]
        };
        let delays: Vec<f64> = (0..8).map(|k| d(k as f64 * 45.0)).collect();
        let min = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = delays.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.05, "phase must matter: {delays:?}");
    }

    #[test]
    fn ground_bounce_modulates_delay_like_supply_does() {
        let c = InverterChain::umc90_like(3).unwrap();
        let vdd = VddSource::dc(1.0);
        let d = |phase: f64| {
            let gnd = GroundSource::with_sine(0.05, 80.0, phase).unwrap();
            let run = c
                .simulate_with_ground(&pulse(100.0), &vdd, &gnd, 400.0, 0.1)
                .unwrap();
            run.node(2).falling_crossings(0.5)[0]
        };
        let delays: Vec<f64> = (0..8).map(|k| d(k as f64 * 45.0)).collect();
        let min = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = delays.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.05, "ground phase must matter: {delays:?}");
        // ideal ground reproduces plain simulate exactly
        let a = c
            .simulate_with_ground(&pulse(100.0), &vdd, &GroundSource::ideal(), 200.0, 0.1)
            .unwrap();
        let b = c.simulate(&pulse(100.0), &vdd, 200.0, 0.1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn crossings_fast_path_matches_digitized_rk4() {
        let c = InverterChain::umc90_like(7).unwrap();
        let vdd = VddSource::dc(1.0);
        let stim = pulse(80.0);
        let rk4_run = c.simulate(&stim, &vdd, 400.0, 0.05).unwrap();
        let x = c
            .simulate_crossings(&stim, &vdd, 400.0, 0.5, &Rk45Options::default())
            .unwrap();
        assert_eq!(x.threshold(), 0.5);
        assert_eq!(x.stage_count(), 7);
        assert!(x.stats().accepted > 0);
        for i in 0..7 {
            let dense = rk4_run.node(i).digitize(0.5).unwrap();
            let fast = x.node(i);
            assert_eq!(fast.initial(), dense.initial(), "node {i}");
            assert_eq!(fast.len(), dense.len(), "node {i}");
            for (a, b) in fast.transitions().iter().zip(dense.transitions()) {
                assert_eq!(a.value, b.value);
                // RK4 @ 0.05 + linear interpolation carries ~1e-3 ps of
                // its own crossing error; the paths must agree to that
                assert!((a.time - b.time).abs() < 5e-3, "node {i}: {a:?} vs {b:?}");
            }
        }
        // the analytic input crossings match the digitized trapezoid
        let dense_in = rk4_run.input().digitize(0.5).unwrap();
        assert_eq!(x.input().len(), dense_in.len());
        for (a, b) in x.input().transitions().iter().zip(dense_in.transitions()) {
            assert!((a.time - b.time).abs() < 1e-9, "{a:?} vs {b:?}");
        }
        // stage_input stitches input and nodes together
        assert_eq!(x.stage_input(0), x.input());
        assert_eq!(x.stage_input(1), x.node(0));
    }

    #[test]
    fn adaptive_needs_far_fewer_steps_than_rk4() {
        let c = InverterChain::umc90_like(7).unwrap();
        let x = c
            .simulate_crossings(
                &pulse(80.0),
                &VddSource::dc(1.0),
                400.0,
                0.5,
                &Rk45Options::default(),
            )
            .unwrap();
        let rk4_steps = (400.0 / 0.05) as usize;
        let adaptive = x.stats().accepted + x.stats().rejected;
        assert!(
            adaptive * 10 < rk4_steps,
            "adaptive used {adaptive} steps vs RK4's {rk4_steps}"
        );
    }

    #[test]
    fn crossings_validates() {
        let c = InverterChain::umc90_like(1).unwrap();
        let vdd = VddSource::dc(1.0);
        let opts = Rk45Options::default();
        assert!(c
            .simulate_crossings(&pulse(50.0), &vdd, -1.0, 0.5, &opts)
            .is_err());
        assert!(c
            .simulate_crossings(&pulse(50.0), &vdd, 100.0, f64::NAN, &opts)
            .is_err());
        // an impossible step budget surfaces as an integration error
        let starved = Rk45Options {
            max_steps: 1,
            ..Rk45Options::default()
        };
        assert!(matches!(
            c.simulate_crossings(&pulse(50.0), &vdd, 100.0, 0.5, &starved),
            Err(Error::Integration { .. })
        ));
    }

    #[test]
    fn stage_input_accessor() {
        let c = InverterChain::umc90_like(2).unwrap();
        let run = c
            .simulate(&pulse(50.0), &VddSource::dc(1.0), 200.0, 0.1)
            .unwrap();
        assert_eq!(run.stage_input(0), run.input());
        assert_eq!(run.stage_input(1), run.node(0));
    }

    #[test]
    fn simulate_validates() {
        let c = InverterChain::umc90_like(1).unwrap();
        assert!(c
            .simulate(&pulse(50.0), &VddSource::dc(1.0), 0.0, 0.1)
            .is_err());
        assert!(c
            .simulate(&pulse(50.0), &VddSource::dc(1.0), 100.0, 0.0)
            .is_err());
    }
}
