//! Inertial delay channels (transport delay plus pulse rejection).

use crate::channel::{CancelRule, EngineCore, FeedEffect, OnlineChannel};
use crate::error::Error;
use crate::signal::Transition;

/// An inertial delay channel (Unger): transitions are delayed by `d`, and
/// output transition pairs closer than the rejection `window ∆` cancel —
/// input pulses shorter than `∆` do not appear at the output.
///
/// This is the classical glitch-suppressing delay model of digital
/// simulators; like all bounded single-history channels it is **not**
/// faithful (Függer et al., IEEE TC 2016): it solves bounded-time SPF in
/// the model although no physical circuit can.
///
/// ```
/// use ivl_core::channel::{Channel, InertialDelay};
/// use ivl_core::Signal;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let mut ch = InertialDelay::new(1.0, 0.5)?;
/// // a 0.2-wide pulse is swallowed whole …
/// assert!(ch.apply(&Signal::pulse(0.0, 0.2)?).is_zero());
/// // … while a 0.8-wide pulse passes unchanged
/// assert_eq!(ch.apply(&Signal::pulse(0.0, 0.8)?), Signal::pulse(1.0, 0.8)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InertialDelay {
    delay: f64,
    window: f64,
    engine: EngineCore,
}

impl InertialDelay {
    /// Creates an inertial delay with transport delay `delay > 0` and
    /// rejection window `window > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDelayParameter`] for non-finite or
    /// non-positive parameters.
    pub fn new(delay: f64, window: f64) -> Result<Self, Error> {
        if !(delay.is_finite() && delay > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "delay",
                value: delay,
                constraint: "must be finite and > 0",
            });
        }
        if !(window.is_finite() && window > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "window",
                value: window,
                constraint: "must be finite and > 0",
            });
        }
        Ok(InertialDelay {
            delay,
            window,
            engine: EngineCore::new(CancelRule::MinSeparation(window)),
        })
    }

    /// The transport delay.
    #[must_use]
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// The pulse-rejection window `∆`.
    #[must_use]
    pub fn window(&self) -> f64 {
        self.window
    }
}

impl OnlineChannel for InertialDelay {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        self.engine.feed(input, self.delay)
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

    #[test]
    fn constructor_validates() {
        assert!(InertialDelay::new(1.0, 0.5).is_ok());
        assert!(InertialDelay::new(0.0, 0.5).is_err());
        assert!(InertialDelay::new(1.0, 0.0).is_err());
        assert!(InertialDelay::new(1.0, -0.5).is_err());
        assert!(InertialDelay::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn filters_short_pulses_exactly_at_threshold() {
        let mut ch = InertialDelay::new(1.0, 0.5).unwrap();
        // pulse of width exactly ∆ survives (separation not < ∆)
        assert_eq!(ch.apply(&Signal::pulse(0.0, 0.5).unwrap()).len(), 2);
        // pulse just below ∆ is rejected
        assert!(ch.apply(&Signal::pulse(0.0, 0.4999).unwrap()).is_zero());
    }

    #[test]
    fn filters_only_short_pulses_in_a_train() {
        let mut ch = InertialDelay::new(1.0, 0.5).unwrap();
        let input = Signal::pulse_train([(0.0, 0.2), (2.0, 1.0), (5.0, 0.3)]).unwrap();
        let out = ch.apply(&input);
        assert_eq!(out.len(), 2, "only the wide pulse survives: {out}");
        assert!(out.approx_eq(&Signal::pulse(3.0, 1.0).unwrap(), 1e-12));
    }

    #[test]
    fn discrete_step_behaviour_is_sharp() {
        // the discontinuity that faithfulness forbids: output jumps from
        // nothing to a full-width pulse as ∆0 crosses the window
        let mut ch = InertialDelay::new(1.0, 0.5).unwrap();
        let eps = 1e-9;
        let below = ch.apply(&Signal::pulse(0.0, 0.5 - eps).unwrap());
        let above = ch.apply(&Signal::pulse(0.0, 0.5 + eps).unwrap());
        assert!(below.is_zero());
        assert!(above.min_interval().unwrap() >= 0.5);
    }

    #[test]
    fn accessors() {
        let ch = InertialDelay::new(2.0, 0.25).unwrap();
        assert_eq!(ch.delay(), 2.0);
        assert_eq!(ch.window(), 0.25);
    }

    #[test]
    fn short_gap_between_pulses_merges_them() {
        let mut ch = InertialDelay::new(1.0, 0.5).unwrap();
        // two wide pulses separated by a 0.2 gap: the gap is rejected
        let input = Signal::pulse_train([(0.0, 1.0), (1.2, 1.0)]).unwrap();
        let out = ch.apply(&input);
        assert_eq!(out.len(), 2);
        assert!(out.approx_eq(&Signal::pulse(1.0, 2.2).unwrap(), 1e-12));
    }
}
