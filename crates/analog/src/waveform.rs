//! Uniformly sampled analog waveforms.

use ivl_core::{Bit, Signal, SignalBuilder};

use crate::error::Error;

/// A uniformly sampled voltage waveform starting at `t0` with step `dt`.
///
/// ```
/// use ivl_analog::Waveform;
/// let w = Waveform::from_fn(0.0, 0.5, 9, |t| t); // ramp 0..4 V
/// assert_eq!(w.value_at(2.25), 2.25);
/// let ups = w.rising_crossings(3.0);
/// assert_eq!(ups.len(), 1);
/// assert!((ups[0] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    t0: f64,
    dt: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dt ≤ 0` or fewer than two
    /// samples are given.
    pub fn new(t0: f64, dt: f64, samples: Vec<f64>) -> Result<Self, Error> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(Error::InvalidParameter {
                name: "dt",
                value: dt,
                constraint: "must be finite and > 0",
            });
        }
        if samples.len() < 2 {
            return Err(Error::DegenerateWaveform {
                reason: "need at least two samples",
            });
        }
        Ok(Waveform { t0, dt, samples })
    }

    /// Extracts one state component from a flat row-major state buffer
    /// (`rows` of `stride` values each, as produced by
    /// [`rk4_flat`](crate::ode::rk4_flat)): sample `k` is
    /// `flat[k * stride + offset]`.
    ///
    /// # Errors
    ///
    /// As [`Waveform::new`]; additionally requires `offset < stride`
    /// and a buffer length that is a multiple of `stride`.
    pub fn from_strided(
        t0: f64,
        dt: f64,
        flat: &[f64],
        offset: usize,
        stride: usize,
    ) -> Result<Self, Error> {
        if stride == 0 || offset >= stride || !flat.len().is_multiple_of(stride) {
            return Err(Error::DegenerateWaveform {
                reason: "flat buffer shape does not match stride/offset",
            });
        }
        Waveform::new(
            t0,
            dt,
            flat.iter().skip(offset).step_by(stride).copied().collect(),
        )
    }

    /// Samples `f` at `n` points spaced `dt` from `t0`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `dt ≤ 0`.
    #[must_use]
    pub fn from_fn<F: Fn(f64) -> f64>(t0: f64, dt: f64, n: usize, f: F) -> Self {
        assert!(n >= 2 && dt > 0.0);
        let samples = (0..n).map(|i| f(t0 + i as f64 * dt)).collect();
        Waveform { t0, dt, samples }
    }

    /// Start time.
    #[must_use]
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sample step.
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// End time (time of the last sample).
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.t0 + (self.samples.len() - 1) as f64 * self.dt
    }

    /// The raw samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Linear-interpolated value at `t` (clamped to the ends).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        let x = (t - self.t0) / self.dt;
        if x <= 0.0 {
            return self.samples[0];
        }
        let last = self.samples.len() - 1;
        if x >= last as f64 {
            return self.samples[last];
        }
        let i = x.floor() as usize;
        let frac = x - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }

    /// Times at which the waveform crosses `threshold` going up, by
    /// linear interpolation between samples.
    #[must_use]
    pub fn rising_crossings(&self, threshold: f64) -> Vec<f64> {
        self.crossings_impl(threshold, true)
    }

    /// Times at which the waveform crosses `threshold` going down.
    #[must_use]
    pub fn falling_crossings(&self, threshold: f64) -> Vec<f64> {
        self.crossings_impl(threshold, false)
    }

    fn crossings_impl(&self, threshold: f64, rising: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 1..self.samples.len() {
            let (a, b) = (self.samples[i - 1], self.samples[i]);
            let crossed = if rising {
                a < threshold && b >= threshold
            } else {
                a > threshold && b <= threshold
            };
            if crossed {
                let frac = (threshold - a) / (b - a);
                out.push(self.t0 + (i as f64 - 1.0 + frac) * self.dt);
            }
        }
        out
    }

    /// Digitizes the waveform into a binary [`Signal`] by thresholding
    /// at `threshold` (no hysteresis; the analog waveforms of a CMOS
    /// chain are monotone between switching events, so simple
    /// thresholding is clean).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Core`] if crossing times are degenerate (e.g.
    /// a waveform sitting exactly at the threshold).
    pub fn digitize(&self, threshold: f64) -> Result<Signal, Error> {
        let initial = Bit::from(self.samples[0] >= threshold);
        let mut builder = SignalBuilder::new(initial);
        let mut state = initial;
        for i in 1..self.samples.len() {
            let (a, b) = (self.samples[i - 1], self.samples[i]);
            let next = match state {
                Bit::Zero if a < threshold && b >= threshold => Bit::One,
                Bit::One if a > threshold && b <= threshold => Bit::Zero,
                _ => state,
            };
            if next != state {
                let frac = (threshold - a) / (b - a);
                builder
                    .push_time(self.t0 + (i as f64 - 1.0 + frac) * self.dt)
                    .map_err(Error::Core)?;
                state = next;
            }
        }
        Ok(builder.finish())
    }

    /// Applies `f` to every sample, returning a new waveform (e.g. a
    /// sense-amplifier gain).
    #[must_use]
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Self {
        Waveform {
            t0: self.t0,
            dt: self.dt,
            samples: self.samples.iter().map(|&v| f(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Waveform::new(0.0, 0.0, vec![0.0, 1.0]).is_err());
        assert!(Waveform::new(0.0, -0.1, vec![0.0, 1.0]).is_err());
        assert!(Waveform::new(0.0, 0.1, vec![0.0]).is_err());
        assert!(Waveform::new(0.0, 0.1, vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn interpolation_and_clamping() {
        let w = Waveform::new(10.0, 1.0, vec![0.0, 2.0, 4.0]).unwrap();
        assert_eq!(w.value_at(10.0), 0.0);
        assert_eq!(w.value_at(10.5), 1.0);
        assert_eq!(w.value_at(12.0), 4.0);
        assert_eq!(w.value_at(5.0), 0.0); // clamped left
        assert_eq!(w.value_at(20.0), 4.0); // clamped right
        assert_eq!(w.t0(), 10.0);
        assert_eq!(w.dt(), 1.0);
        assert_eq!(w.t_end(), 12.0);
        assert_eq!(w.samples().len(), 3);
    }

    #[test]
    fn crossing_detection_precise() {
        // sine wave crossing 0 at multiples of π
        let w = Waveform::from_fn(0.0, 0.01, 1001, |t| t.sin());
        let ups = w.rising_crossings(0.0);
        let downs = w.falling_crossings(0.0);
        assert_eq!(ups.len(), 1); // at 2π ≈ 6.28 within [0,10]
        assert!((ups[0] - std::f64::consts::TAU).abs() < 1e-3);
        assert_eq!(downs.len(), 2); // at π and 3π
        assert!((downs[0] - std::f64::consts::PI).abs() < 1e-3);
    }

    #[test]
    fn digitize_produces_valid_signal() {
        let w = Waveform::from_fn(0.0, 0.01, 2001, |t| (t * 1.5).sin());
        let s = w.digitize(0.5).unwrap();
        assert_eq!(s.initial(), Bit::Zero);
        assert!(s.len() >= 8);
        // transitions alternate & strictly increase by construction;
        // the first crossing is at sin(1.5t) = 0.5, i.e. t = (π/6)/1.5
        let first = s.transitions()[0].time;
        assert!((first - std::f64::consts::PI / 6.0 / 1.5).abs() < 1e-3);
    }

    #[test]
    fn digitize_initial_high() {
        let w = Waveform::from_fn(0.0, 0.1, 50, |t| 1.0 - t * 0.2);
        let s = w.digitize(0.5).unwrap();
        assert_eq!(s.initial(), Bit::One);
        assert_eq!(s.len(), 1);
        assert!((s.transitions()[0].time - 2.5).abs() < 1e-9);
    }

    #[test]
    fn map_applies_to_every_sample() {
        let w = Waveform::from_fn(0.0, 0.1, 100, |t| t);
        let scaled = w.map(|v| 0.15 * v);
        assert!((scaled.value_at(5.0) - 0.75).abs() < 1e-12);
        let shifted = w.map(|v| v + 1.0);
        assert_eq!(shifted.t0(), w.t0());
        assert_eq!(shifted.dt(), w.dt());
        for (a, b) in shifted.samples().iter().zip(w.samples()) {
            assert_eq!(*a, b + 1.0);
        }
    }

    #[test]
    fn from_strided_extracts_columns() {
        // two interleaved states: [a0 b0 a1 b1 a2 b2]
        let flat = [0.0, 10.0, 1.0, 11.0, 2.0, 12.0];
        let a = Waveform::from_strided(0.0, 0.5, &flat, 0, 2).unwrap();
        let b = Waveform::from_strided(0.0, 0.5, &flat, 1, 2).unwrap();
        assert_eq!(a.samples(), &[0.0, 1.0, 2.0]);
        assert_eq!(b.samples(), &[10.0, 11.0, 12.0]);
        assert!(Waveform::from_strided(0.0, 0.5, &flat, 2, 2).is_err());
        assert!(Waveform::from_strided(0.0, 0.5, &flat[..5], 0, 2).is_err());
        assert!(Waveform::from_strided(0.0, 0.5, &flat, 0, 0).is_err());
    }

    #[test]
    fn from_fn_grid() {
        let w = Waveform::from_fn(2.0, 0.5, 5, |t| t * t);
        assert_eq!(w.samples().len(), 5);
        assert_eq!(w.value_at(4.0), 16.0);
    }
}
