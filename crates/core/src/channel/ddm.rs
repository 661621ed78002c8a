//! The Degradation Delay Model (DDM) of Bellido-Díaz et al.

use crate::bit::Edge;
use crate::channel::{CancelRule, EngineCore, FeedEffect, OnlineChannel};
use crate::error::Error;
use crate::signal::Transition;

/// Per-edge parameters of the degradation delay model:
///
/// ```text
/// δ(T) = t_p0 · (1 − e^{−(T − T_0)/τ})
/// ```
///
/// where `T` is the previous-output-to-input offset, `t_p0` the nominal
/// (fully recovered) propagation delay, `T_0` the degradation onset and
/// `τ` the recovery time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdmEdgeParams {
    /// Nominal propagation delay `t_p0 > 0`.
    pub t_p0: f64,
    /// Degradation onset `T_0 ≥ 0`; for `T ≤ T_0` the pulse is suppressed.
    pub t_0: f64,
    /// Recovery time constant `τ > 0`.
    pub tau: f64,
}

impl DdmEdgeParams {
    /// Creates per-edge parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDelayParameter`] unless `t_p0 > 0`,
    /// `t_0 ≥ 0`, `tau > 0`.
    pub fn new(t_p0: f64, t_0: f64, tau: f64) -> Result<Self, Error> {
        if !(t_p0.is_finite() && t_p0 > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "t_p0",
                value: t_p0,
                constraint: "must be finite and > 0",
            });
        }
        if !(t_0.is_finite() && t_0 >= 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "t_0",
                value: t_0,
                constraint: "must be finite and >= 0",
            });
        }
        if !(tau.is_finite() && tau > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "tau",
                value: tau,
                constraint: "must be finite and > 0",
            });
        }
        Ok(DdmEdgeParams { t_p0, t_0, tau })
    }

    /// Evaluates the DDM delay at offset `t` (`+∞` maps to `t_p0`).
    #[must_use]
    pub fn delay(&self, t: f64) -> f64 {
        if t == f64::INFINITY {
            return self.t_p0;
        }
        self.t_p0 * (1.0 - (-(t - self.t_0) / self.tau).exp())
    }
}

/// The Degradation Delay Model channel: delays recover exponentially with
/// the previous-output-to-input offset, so closely spaced transitions see
/// shorter delays and short pulses are gradually attenuated.
///
/// DDM is a **bounded** single-history channel (`δ(T) ∈ (−∞, t_p0]` with
/// the bound attained in the limit) and therefore not faithful — it is
/// the paper's primary non-faithful comparator. Contrast its gradual
/// attenuation with the involution channel's: DDM's delay function is
/// not an involution, so its predicted glitch trains differ precisely in
/// the fast-glitch regime discussed in the paper's introduction.
///
/// ```
/// use ivl_core::channel::{Channel, DdmEdgeParams, DegradationDelay};
/// use ivl_core::Signal;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let p = DdmEdgeParams::new(1.0, 0.1, 0.8)?;
/// let mut ch = DegradationDelay::symmetric(p);
/// // a wide pulse passes with (almost) the nominal delay…
/// let out = ch.apply(&Signal::pulse(0.0, 10.0)?);
/// assert_eq!(out.len(), 2);
/// // …a very short one is suppressed
/// assert!(ch.apply(&Signal::pulse(0.0, 0.05)?).is_zero());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DegradationDelay {
    up: DdmEdgeParams,
    down: DdmEdgeParams,
    engine: EngineCore,
}

impl DegradationDelay {
    /// Creates a DDM channel with separate rising/falling parameters.
    #[must_use]
    pub fn new(up: DdmEdgeParams, down: DdmEdgeParams) -> Self {
        DegradationDelay {
            up,
            down,
            engine: EngineCore::new(CancelRule::NonFifo),
        }
    }

    /// Creates a DDM channel with identical rising/falling parameters.
    #[must_use]
    pub fn symmetric(params: DdmEdgeParams) -> Self {
        DegradationDelay::new(params, params)
    }

    /// Rising-edge parameters.
    #[must_use]
    pub fn up_params(&self) -> DdmEdgeParams {
        self.up
    }

    /// Falling-edge parameters.
    #[must_use]
    pub fn down_params(&self) -> DdmEdgeParams {
        self.down
    }
}

impl OnlineChannel for DegradationDelay {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        let t = self.engine.offset(input.time);
        let delay = match input.value.edge() {
            Edge::Rising => self.up.delay(t),
            Edge::Falling => self.down.delay(t),
        };
        self.engine.feed(input, delay)
    }

    fn reset(&mut self) {
        self.engine.reset();
    }

    fn discard_delivered(&mut self, before: f64) {
        self.engine.discard_delivered(before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::signal::Signal;

    fn params() -> DdmEdgeParams {
        DdmEdgeParams::new(1.0, 0.1, 0.8).unwrap()
    }

    #[test]
    fn constructor_validates() {
        assert!(DdmEdgeParams::new(0.0, 0.1, 0.8).is_err());
        assert!(DdmEdgeParams::new(1.0, -0.1, 0.8).is_err());
        assert!(DdmEdgeParams::new(1.0, 0.1, 0.0).is_err());
        assert!(DdmEdgeParams::new(f64::NAN, 0.1, 0.8).is_err());
    }

    #[test]
    fn delay_function_shape() {
        let p = params();
        assert_eq!(p.delay(f64::INFINITY), 1.0);
        assert!((p.delay(100.0) - 1.0).abs() < 1e-12); // recovered
        assert_eq!(p.delay(p.t_0), 0.0); // onset
        assert!(p.delay(0.0) < 0.0); // below onset: suppression regime
                                     // monotonically increasing
        assert!(p.delay(0.5) < p.delay(1.0));
        assert!(p.delay(1.0) < p.delay(5.0));
    }

    #[test]
    fn boundedness_the_unfaithfulness_witness() {
        // DDM delays never exceed t_p0 — a bounded single-history channel
        let p = params();
        for i in 0..1000 {
            let t = i as f64 * 0.1;
            assert!(p.delay(t) <= p.t_p0);
        }
    }

    #[test]
    fn wide_pulse_passes_with_nominal_delay() {
        let mut ch = DegradationDelay::symmetric(params());
        let out = ch.apply(&Signal::pulse(0.0, 10.0).unwrap());
        assert_eq!(out.len(), 2);
        let tr = out.transitions();
        assert!((tr[0].time - 1.0).abs() < 1e-9);
        // the falling edge sees T = 10 − 1 = 9 ≫ τ → almost nominal delay
        assert!((tr[1].time - 11.0).abs() < 1e-4);
    }

    #[test]
    fn pulse_attenuation_is_gradual() {
        // output width shrinks continuously with input width
        let mut ch = DegradationDelay::symmetric(params());
        let mut widths = Vec::new();
        for w in [2.0, 1.5, 1.2, 1.11] {
            let out = ch.apply(&Signal::pulse(0.0, w).unwrap());
            assert_eq!(out.len(), 2, "w={w}");
            let tr = out.transitions();
            widths.push(tr[1].time - tr[0].time);
        }
        for pair in widths.windows(2) {
            assert!(pair[1] < pair[0], "attenuation must increase: {widths:?}");
        }
        // and each output pulse is narrower than its input
        assert!(widths[3] < 1.11);
    }

    #[test]
    fn short_pulse_is_suppressed() {
        let mut ch = DegradationDelay::symmetric(params());
        assert!(ch.apply(&Signal::pulse(0.0, 0.05).unwrap()).is_zero());
    }

    #[test]
    fn asymmetric_edges() {
        let up = DdmEdgeParams::new(2.0, 0.1, 0.8).unwrap();
        let down = DdmEdgeParams::new(1.0, 0.1, 0.8).unwrap();
        let mut ch = DegradationDelay::new(up, down);
        assert_eq!(ch.up_params(), up);
        assert_eq!(ch.down_params(), down);
        let out = ch.apply(&Signal::pulse(0.0, 10.0).unwrap());
        let tr = out.transitions();
        assert!((tr[0].time - 2.0).abs() < 1e-9); // rising delay
        assert!((tr[1].time - 11.0).abs() < 1e-3); // falling delay (T = 8)
    }

    #[test]
    fn glitch_train_attenuates_progressively() {
        // a fast pulse train loses pulses as degradation accumulates
        let mut ch = DegradationDelay::symmetric(params());
        let input = Signal::pulse_train((0..5).map(|i| (i as f64 * 0.6, 0.3))).unwrap();
        let out = ch.apply(&input);
        assert!(
            out.len() < input.len(),
            "expected attenuation: {} -> {}",
            input.len(),
            out.len()
        );
    }
}
