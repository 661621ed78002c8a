//! ODE integration for small systems: fixed-step RK4 and adaptive
//! Dormand–Prince RK45 with dense output and threshold-crossing events.
//!
//! The fixed-step integrator ([`rk4_with`]) streams accepted states into
//! a caller-provided recorder, so hot paths can fill flat row-major
//! buffers ([`rk4_flat`]) or keep a single component instead of
//! allocating a `Vec<f64>` per step.
//!
//! The adaptive integrator ([`rk45`]) is an embedded Dormand–Prince
//! 5(4) pair with a PI step-size controller. Every accepted step is
//! handed to the caller as a [`DenseStep`] carrying the cubic-Hermite
//! interpolant of the step, which supports cheap intra-step evaluation
//! ([`DenseStep::eval`]) and threshold-crossing root-finding
//! ([`DenseStep::find_crossing`]) — the basis of the crossings-only
//! fast path ([`InverterChain::simulate_crossings`]) used by the
//! characterization pipeline. Dense waveforms come from [`rk4_with`]
//! alone.
//!
//! [`InverterChain::simulate_crossings`]: crate::chain::InverterChain::simulate_crossings

use crate::error::Error;

/// Integrates `dy/dt = f(t, y)` from `t0` with fixed step `dt` for
/// `steps` steps using classic fourth-order Runge–Kutta, handing every
/// state (including the initial one) to `record(step_index, t, y)`.
///
/// `f` writes the derivative of `y` into its third argument. The
/// recorder owns layout: it may copy `y` into a flat buffer, extract a
/// single component, or drop it entirely.
///
/// ```
/// use ivl_analog::ode::rk4_with;
/// // dy/dt = -y, y(0) = 1 → y(t) = e^{-t}; record only the last state
/// let mut last = 0.0;
/// rk4_with(0.0, &[1.0], 0.01, 500, |_t, y, dy| dy[0] = -y[0], |_k, _t, y| last = y[0]);
/// assert!((last - (-5.0f64).exp()).abs() < 1e-9);
/// ```
pub fn rk4_with<F, R>(t0: f64, y0: &[f64], dt: f64, steps: usize, mut f: F, mut record: R)
where
    F: FnMut(f64, &[f64], &mut [f64]),
    R: FnMut(usize, f64, &[f64]),
{
    let n = y0.len();
    let mut y = y0.to_vec();
    record(0, t0, &y);
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    for step in 0..steps {
        let t = t0 + step as f64 * dt;
        f(t, &y, &mut k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * dt * k1[i];
        }
        f(t + 0.5 * dt, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * dt * k2[i];
        }
        f(t + 0.5 * dt, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + dt * k3[i];
        }
        f(t + dt, &tmp, &mut k4);
        for i in 0..n {
            y[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        record(step + 1, t0 + (step + 1) as f64 * dt, &y);
    }
}

/// Like [`rk4_with`], recording every state into one flat row-major
/// buffer of `(steps + 1) · n` values (row `k` holds the state after
/// `k` steps).
pub fn rk4_flat<F>(t0: f64, y0: &[f64], dt: f64, steps: usize, f: F) -> Vec<f64>
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    let mut out = Vec::with_capacity((steps + 1) * y0.len());
    rk4_with(t0, y0, dt, steps, f, |_k, _t, y| out.extend_from_slice(y));
    out
}

/// Tuning knobs of the adaptive [`rk45`] integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk45Options {
    /// Relative tolerance per component.
    pub rtol: f64,
    /// Absolute tolerance per component (same unit as the state — volts
    /// for the inverter chain).
    pub atol: f64,
    /// Initial step size; `None` picks one from the initial derivative.
    pub h_init: Option<f64>,
    /// Hard cap on the step size; `None` allows steps up to the span.
    pub h_max: Option<f64>,
    /// Budget of accepted + rejected steps before the integrator gives
    /// up with [`Error::Integration`].
    pub max_steps: usize,
}

impl Default for Rk45Options {
    /// `rtol = 1e-6`, `atol = 1e-9` — tight enough that dense-output
    /// crossing times match a fine-step RK4 reference to ≈ 1e-6 ps on
    /// the UMC-90-like chain, while still taking multi-ps steps on
    /// quiescent rails.
    fn default() -> Self {
        Rk45Options {
            rtol: 1e-6,
            atol: 1e-9,
            h_init: None,
            h_max: None,
            max_steps: 1_000_000,
        }
    }
}

impl Rk45Options {
    /// Options with the given tolerances and defaults elsewhere.
    #[must_use]
    pub fn with_tolerances(rtol: f64, atol: f64) -> Self {
        Rk45Options {
            rtol,
            atol,
            ..Rk45Options::default()
        }
    }
}

/// Step statistics of one [`rk45`] integration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rk45Stats {
    /// Accepted steps.
    pub accepted: usize,
    /// Rejected (re-tried) steps.
    pub rejected: usize,
    /// Right-hand-side evaluations.
    pub rhs_evals: usize,
}

/// One accepted step of [`rk45`] together with its cubic-Hermite
/// interpolant: states and derivatives at both step ends.
#[derive(Debug)]
pub struct DenseStep<'a> {
    /// Step start time.
    pub t0: f64,
    /// Step end time.
    pub t1: f64,
    /// State at `t0`.
    pub y0: &'a [f64],
    /// State at `t1`.
    pub y1: &'a [f64],
    /// Derivative at `t0`.
    pub f0: &'a [f64],
    /// Derivative at `t1`.
    pub f1: &'a [f64],
}

impl DenseStep<'_> {
    /// Cubic-Hermite value of component `i` at `t ∈ [t0, t1]`.
    #[must_use]
    pub fn eval(&self, i: usize, t: f64) -> f64 {
        let h = self.t1 - self.t0;
        let s = (t - self.t0) / h;
        let s2 = s * s;
        let s3 = s2 * s;
        (2.0 * s3 - 3.0 * s2 + 1.0) * self.y0[i]
            + (s3 - 2.0 * s2 + s) * h * self.f0[i]
            + (-2.0 * s3 + 3.0 * s2) * self.y1[i]
            + (s3 - s2) * h * self.f1[i]
    }

    /// Time at which component `i` crosses `threshold` in the given
    /// direction within this step, if it does.
    ///
    /// The endpoint test matches
    /// [`Waveform::rising_crossings`](crate::Waveform::rising_crossings)
    /// exactly (`a < thr && b ≥ thr` for rising), and the crossing time
    /// is refined by bisection on the Hermite interpolant of the
    /// bracketing quarter of the step — sub-step double crossings are
    /// caught by scanning the step in four segments.
    #[must_use]
    pub fn find_crossing(&self, i: usize, threshold: f64, rising: bool) -> Option<f64> {
        self.find_crossing_after(i, threshold, rising, self.t0)
    }

    /// Like [`find_crossing`](DenseStep::find_crossing), but only
    /// considers `t ∈ (t_from, t1]` — used to harvest *multiple*
    /// alternating crossings from a single step.
    #[must_use]
    pub fn find_crossing_after(
        &self,
        i: usize,
        threshold: f64,
        rising: bool,
        t_from: f64,
    ) -> Option<f64> {
        let start = t_from.max(self.t0);
        if start >= self.t1 {
            return None;
        }
        let mut t_lo = start;
        let mut v_lo = if start == self.t0 {
            self.y0[i]
        } else {
            self.eval(i, start)
        };
        for seg in 1..=4 {
            let t_hi = if seg == 4 {
                self.t1
            } else {
                start + (self.t1 - start) * seg as f64 / 4.0
            };
            let v_hi = if seg == 4 {
                self.y1[i]
            } else {
                self.eval(i, t_hi)
            };
            let crossed = if rising {
                v_lo < threshold && v_hi >= threshold
            } else {
                v_lo > threshold && v_hi <= threshold
            };
            if crossed {
                return Some(self.bisect(i, threshold, t_lo, t_hi));
            }
            t_lo = t_hi;
            v_lo = v_hi;
        }
        None
    }

    /// Bisection on the Hermite interpolant down to f64 resolution.
    fn bisect(&self, i: usize, threshold: f64, mut lo: f64, mut hi: f64) -> f64 {
        let g_lo = self.eval(i, lo) - threshold;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            let g_mid = self.eval(i, mid) - threshold;
            if (g_mid >= 0.0) == (g_lo >= 0.0) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

// Dormand–Prince 5(4) tableau.
const C2: f64 = 1.0 / 5.0;
const C3: f64 = 3.0 / 10.0;
const C4: f64 = 4.0 / 5.0;
const C5: f64 = 8.0 / 9.0;
const A21: f64 = 1.0 / 5.0;
const A31: f64 = 3.0 / 40.0;
const A32: f64 = 9.0 / 40.0;
const A41: f64 = 44.0 / 45.0;
const A42: f64 = -56.0 / 15.0;
const A43: f64 = 32.0 / 9.0;
const A51: f64 = 19372.0 / 6561.0;
const A52: f64 = -25360.0 / 2187.0;
const A53: f64 = 64448.0 / 6561.0;
const A54: f64 = -212.0 / 729.0;
const A61: f64 = 9017.0 / 3168.0;
const A62: f64 = -355.0 / 33.0;
const A63: f64 = 46732.0 / 5247.0;
const A64: f64 = 49.0 / 176.0;
const A65: f64 = -5103.0 / 18656.0;
// 5th-order solution weights (also the last stage row: FSAL).
const B1: f64 = 35.0 / 384.0;
const B3: f64 = 500.0 / 1113.0;
const B4: f64 = 125.0 / 192.0;
const B5: f64 = -2187.0 / 6784.0;
const B6: f64 = 11.0 / 84.0;
// Error weights: b(5th) − b(4th).
const E1: f64 = 71.0 / 57600.0;
const E3: f64 = -71.0 / 16695.0;
const E4: f64 = 71.0 / 1920.0;
const E5: f64 = -17253.0 / 339_200.0;
const E6: f64 = 22.0 / 525.0;
const E7: f64 = -1.0 / 40.0;

/// Integrates `dy/dt = f(t, y)` from `t0` to `t_end` with the embedded
/// Dormand–Prince RK45 pair under PI step-size control, invoking
/// `on_step` with a [`DenseStep`] for every accepted step (in order).
/// Returns the final state and step statistics.
///
/// The first same as last (FSAL) property is used: one right-hand-side
/// evaluation per accepted step is shared with the next step, and its
/// value doubles as the end-point derivative of the dense interpolant.
///
/// ```
/// use ivl_analog::ode::{rk45, Rk45Options};
/// // dy/dt = -y, y(0) = 1 → y(t) = e^{-t}
/// let (y, stats) = rk45(
///     0.0,
///     5.0,
///     &[1.0],
///     &Rk45Options::default(),
///     |_t, y, dy| dy[0] = -y[0],
///     |_step| {},
/// )
/// .unwrap();
/// assert!((y[0] - (-5.0f64).exp()).abs() < 1e-7);
/// assert!(stats.accepted > 0);
/// ```
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a degenerate time span or
/// non-positive tolerances, and [`Error::Integration`] if the step size
/// underflows or `max_steps` is exhausted.
pub fn rk45<F, H>(
    t0: f64,
    t_end: f64,
    y0: &[f64],
    opts: &Rk45Options,
    mut f: F,
    mut on_step: H,
) -> Result<(Vec<f64>, Rk45Stats), Error>
where
    F: FnMut(f64, &[f64], &mut [f64]),
    H: for<'a> FnMut(&DenseStep<'a>),
{
    if !(t_end.is_finite() && t0.is_finite() && t_end > t0) {
        return Err(Error::InvalidParameter {
            name: "t_end",
            value: t_end,
            constraint: "must be finite and > t0",
        });
    }
    if !(opts.rtol.is_finite() && opts.rtol > 0.0) {
        return Err(Error::InvalidParameter {
            name: "rtol",
            value: opts.rtol,
            constraint: "must be finite and > 0",
        });
    }
    if !(opts.atol.is_finite() && opts.atol > 0.0) {
        return Err(Error::InvalidParameter {
            name: "atol",
            value: opts.atol,
            constraint: "must be finite and > 0",
        });
    }
    let n = y0.len();
    if let Some(h) = opts.h_max {
        if !(h.is_finite() && h > 0.0) {
            return Err(Error::InvalidParameter {
                name: "h_max",
                value: h,
                constraint: "must be finite and > 0",
            });
        }
    }
    if let Some(h) = opts.h_init {
        if !(h.is_finite() && h > 0.0) {
            return Err(Error::InvalidParameter {
                name: "h_init",
                value: h,
                constraint: "must be finite and > 0",
            });
        }
    }
    let span = t_end - t0;
    let h_max = opts.h_max.unwrap_or(span).min(span);
    let mut stats = Rk45Stats::default();

    let mut y = y0.to_vec();
    let mut y_new = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut k5 = vec![0.0; n];
    let mut k6 = vec![0.0; n];
    let mut k7 = vec![0.0; n];

    let mut t = t0;
    f(t, &y, &mut k1);
    stats.rhs_evals += 1;

    // Initial step: balance state scale against derivative scale.
    let mut h = opts.h_init.unwrap_or_else(|| {
        let mut d0 = 0.0;
        let mut d1 = 0.0;
        for i in 0..n {
            let sc = opts.atol + opts.rtol * y[i].abs();
            d0 += (y[i] / sc).powi(2);
            d1 += (k1[i] / sc).powi(2);
        }
        let (d0, d1) = ((d0 / n as f64).sqrt(), (d1 / n as f64).sqrt());
        if d1 > 1e-12 && d0 > 1e-12 {
            0.01 * d0 / d1
        } else {
            1e-3 * span
        }
    });
    h = h.clamp(f64::MIN_POSITIVE, h_max);

    // PI controller state (Hairer's DOPRI5 settings).
    const SAFETY: f64 = 0.9;
    const BETA: f64 = 0.04;
    const EXPO: f64 = 0.2 - BETA * 0.75;
    let mut err_prev: f64 = 1e-4;

    while t < t_end {
        if stats.accepted + stats.rejected >= opts.max_steps {
            return Err(Error::Integration {
                what: "step budget exhausted",
                t,
            });
        }
        let h_floor = t.abs().max(1.0) * f64::EPSILON * 16.0;
        if h < h_floor {
            return Err(Error::Integration {
                what: "step size underflow",
                t,
            });
        }
        let last = t + h >= t_end;
        if last {
            h = t_end - t;
        }

        for i in 0..n {
            tmp[i] = y[i] + h * A21 * k1[i];
        }
        f(t + C2 * h, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + h * (A31 * k1[i] + A32 * k2[i]);
        }
        f(t + C3 * h, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + h * (A41 * k1[i] + A42 * k2[i] + A43 * k3[i]);
        }
        f(t + C4 * h, &tmp, &mut k4);
        for i in 0..n {
            tmp[i] = y[i] + h * (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]);
        }
        f(t + C5 * h, &tmp, &mut k5);
        for i in 0..n {
            tmp[i] =
                y[i] + h * (A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i] + A65 * k5[i]);
        }
        f(t + h, &tmp, &mut k6);
        for i in 0..n {
            y_new[i] = y[i] + h * (B1 * k1[i] + B3 * k3[i] + B4 * k4[i] + B5 * k5[i] + B6 * k6[i]);
        }
        f(t + h, &y_new, &mut k7);
        stats.rhs_evals += 6;

        let mut err = 0.0;
        for i in 0..n {
            let e =
                h * (E1 * k1[i] + E3 * k3[i] + E4 * k4[i] + E5 * k5[i] + E6 * k6[i] + E7 * k7[i]);
            let sc = opts.atol + opts.rtol * y[i].abs().max(y_new[i].abs());
            err += (e / sc).powi(2);
        }
        err = (err / n as f64).sqrt();

        if err <= 1.0 {
            let step = DenseStep {
                t0: t,
                t1: t + h,
                y0: &y,
                y1: &y_new,
                f0: &k1,
                f1: &k7,
            };
            on_step(&step);
            t += h;
            std::mem::swap(&mut y, &mut y_new);
            std::mem::swap(&mut k1, &mut k7); // FSAL
            stats.accepted += 1;
            let err_clamped = err.max(1e-10);
            let fac = SAFETY * err_clamped.powf(-EXPO) * err_prev.powf(BETA);
            h = (h * fac.clamp(0.2, 5.0)).min(h_max);
            err_prev = err_clamped;
        } else {
            stats.rejected += 1;
            h *= (SAFETY * err.powf(-0.2)).max(0.1);
        }
    }
    Ok((y, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_decay_fourth_order_accuracy() {
        // halving dt must shrink the error by ~16×
        let exact = (-2.0f64).exp();
        let err = |dt: f64| {
            let steps = (2.0 / dt).round() as usize;
            let trace = rk4_flat(0.0, &[1.0], dt, steps, |_t, y, dy| dy[0] = -y[0]);
            (trace.last().unwrap() - exact).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        let order = (e1 / e2).log2();
        assert!(order > 3.5, "observed order {order}");
    }

    #[test]
    fn harmonic_oscillator_conserves_energy() {
        // y'' = -y as a 2-state system
        let trace = rk4_flat(0.0, &[1.0, 0.0], 0.01, 2000, |_t, y, dy| {
            dy[0] = y[1];
            dy[1] = -y[0];
        });
        for state in trace.chunks_exact(2).step_by(100) {
            let energy = state[0] * state[0] + state[1] * state[1];
            assert!((energy - 1.0).abs() < 1e-6, "energy drift: {energy}");
        }
    }

    #[test]
    fn time_dependent_rhs() {
        // dy/dt = t → y = t²/2
        let trace = rk4_flat(0.0, &[0.0], 0.1, 100, |t, _y, dy| dy[0] = t);
        let y = *trace.last().unwrap();
        assert!((y - 50.0).abs() < 1e-9);
    }

    #[test]
    fn records_initial_state_and_length() {
        let trace = rk4_flat(0.0, &[3.0], 0.1, 10, |_t, _y, dy| dy[0] = 0.0);
        assert_eq!(trace, vec![3.0; 11]);
    }

    #[test]
    fn flat_recorder_matches_per_state_rows() {
        let f = |_t: f64, y: &[f64], dy: &mut [f64]| {
            dy[0] = y[1];
            dy[1] = -y[0];
        };
        let mut rows: Vec<Vec<f64>> = Vec::new();
        rk4_with(0.0, &[1.0, 0.0], 0.05, 40, f, |_k, _t, y| {
            rows.push(y.to_vec())
        });
        let flat = rk4_flat(0.0, &[1.0, 0.0], 0.05, 40, f);
        assert_eq!(flat.len(), 41 * 2);
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(&flat[2 * k..2 * k + 2], row.as_slice());
        }
    }

    #[test]
    fn recorder_sees_monotone_times_and_indices() {
        let mut seen = Vec::new();
        rk4_with(
            1.0,
            &[0.0],
            0.25,
            8,
            |_t, _y, dy| dy[0] = 1.0,
            |k, t, y| seen.push((k, t, y[0])),
        );
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (0, 1.0, 0.0));
        for w in seen.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
            assert!((w[1].1 - w[0].1 - 0.25).abs() < 1e-12);
        }
        assert!((seen[8].2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rk45_exponential_decay_accuracy_and_stats() {
        let opts = Rk45Options::default();
        let (y, stats) = rk45(0.0, 5.0, &[1.0], &opts, |_t, y, dy| dy[0] = -y[0], |_s| {}).unwrap();
        assert!((y[0] - (-5.0f64).exp()).abs() < 1e-7, "y = {}", y[0]);
        assert!(stats.accepted > 5);
        assert_eq!(stats.rhs_evals, 1 + 6 * (stats.accepted + stats.rejected));
    }

    #[test]
    fn rk45_takes_fewer_steps_at_looser_tolerance() {
        let run = |rtol: f64| {
            let opts = Rk45Options::with_tolerances(rtol, rtol * 1e-3);
            let (_, stats) = rk45(
                0.0,
                20.0,
                &[1.0, 0.0],
                &opts,
                |_t, y, dy| {
                    dy[0] = y[1];
                    dy[1] = -y[0];
                },
                |_s| {},
            )
            .unwrap();
            stats.accepted + stats.rejected
        };
        assert!(run(1e-3) < run(1e-9));
    }

    #[test]
    fn rk45_dense_output_is_continuous_and_accurate() {
        // compare the Hermite interpolant against the exact solution of
        // dy/dt = -y at many intra-step points
        let opts = Rk45Options::with_tolerances(1e-8, 1e-11);
        let mut worst: f64 = 0.0;
        let (_, _) = rk45(
            0.0,
            3.0,
            &[1.0],
            &opts,
            |_t, y, dy| dy[0] = -y[0],
            |step| {
                for j in 0..=10 {
                    let t = step.t0 + (step.t1 - step.t0) * j as f64 / 10.0;
                    worst = worst.max((step.eval(0, t) - (-t).exp()).abs());
                }
            },
        )
        .unwrap();
        assert!(worst < 1e-7, "dense-output error {worst}");
    }

    #[test]
    fn rk45_steps_tile_the_interval() {
        let mut t_prev = 0.0;
        let (_, _) = rk45(
            0.0,
            2.0,
            &[0.0],
            &Rk45Options::default(),
            |t, _y, dy| dy[0] = t,
            |step| {
                assert!((step.t0 - t_prev).abs() < 1e-12);
                assert!(step.t1 > step.t0);
                t_prev = step.t1;
            },
        )
        .unwrap();
        assert!((t_prev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_crossing_matches_exact_time() {
        // e^{-t} crosses 0.5 at ln 2
        let opts = Rk45Options::with_tolerances(1e-9, 1e-12);
        let mut t_cross = None;
        let (_, _) = rk45(
            0.0,
            2.0,
            &[1.0],
            &opts,
            |_t, y, dy| dy[0] = -y[0],
            |step| {
                if let Some(t) = step.find_crossing(0, 0.5, false) {
                    t_cross = Some(t);
                }
            },
        )
        .unwrap();
        let t_cross = t_cross.expect("must cross 0.5");
        assert!(
            (t_cross - std::f64::consts::LN_2).abs() < 1e-7,
            "crossing at {t_cross}"
        );
    }

    #[test]
    fn dense_crossing_catches_sub_step_pulse() {
        // a hand-built step whose Hermite cubic dips through the
        // threshold and back *inside* the step: endpoint comparison
        // alone would miss both edges, the quarter scan catches them.
        // y(s) = 1 - 4 s (1 - s) on s ∈ [0, 1]: crosses 0.5 downward at
        // s = (2 - √2)/4 and upward at s = (2 + √2)/4.
        let (y0, y1) = ([1.0], [1.0]);
        let (f0, f1) = ([-4.0], [4.0]);
        let step = DenseStep {
            t0: 0.0,
            t1: 1.0,
            y0: &y0,
            y1: &y1,
            f0: &f0,
            f1: &f1,
        };
        assert!((step.eval(0, 0.5) - 0.0).abs() < 1e-12);
        let down = step.find_crossing(0, 0.5, false).expect("falling edge");
        let up = step.find_crossing(0, 0.5, true).expect("rising edge");
        let s = std::f64::consts::SQRT_2 / 4.0;
        assert!((down - (0.5 - s)).abs() < 1e-9, "down at {down}");
        assert!((up - (0.5 + s)).abs() < 1e-9, "up at {up}");
        // a threshold the dip never reaches is not reported
        assert!(step.find_crossing(0, -0.5, false).is_none());
        assert!(step.find_crossing(0, -0.5, true).is_none());
    }

    #[test]
    fn rk45_validates_inputs() {
        let f = |_t: f64, _y: &[f64], dy: &mut [f64]| dy[0] = 0.0;
        assert!(rk45(0.0, 0.0, &[1.0], &Rk45Options::default(), f, |_s| {}).is_err());
        let bad_rtol = Rk45Options {
            rtol: 0.0,
            ..Rk45Options::default()
        };
        assert!(rk45(0.0, 1.0, &[1.0], &bad_rtol, f, |_s| {}).is_err());
        let bad_atol = Rk45Options {
            atol: -1.0,
            ..Rk45Options::default()
        };
        assert!(rk45(0.0, 1.0, &[1.0], &bad_atol, f, |_s| {}).is_err());
        let bad_h_max = Rk45Options {
            h_max: Some(-1.0),
            ..Rk45Options::default()
        };
        assert!(rk45(0.0, 1.0, &[1.0], &bad_h_max, f, |_s| {}).is_err());
        let bad_h_init = Rk45Options {
            h_init: Some(f64::NAN),
            ..Rk45Options::default()
        };
        assert!(rk45(0.0, 1.0, &[1.0], &bad_h_init, f, |_s| {}).is_err());
    }

    #[test]
    fn rk45_step_budget_is_enforced() {
        let opts = Rk45Options {
            max_steps: 3,
            ..Rk45Options::default()
        };
        let err = rk45(
            0.0,
            1000.0,
            &[1.0, 0.0],
            &opts,
            |_t, y, dy| {
                dy[0] = y[1];
                dy[1] = -y[0];
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Integration { .. }));
        assert!(!err.to_string().is_empty());
    }
}
