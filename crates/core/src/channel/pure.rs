//! Pure (constant transport) delay channels.

use crate::channel::{CancelRule, EngineCore, FeedEffect, OnlineChannel};
use crate::error::Error;
use crate::signal::Transition;

/// A pure delay channel: every transition is delayed by a constant
/// `d > 0`. This is the classical transport delay of VHDL/Verilog
/// simulators; it is **not** a faithful model (Függer et al., IEEE TC
/// 2016).
///
/// ```
/// use ivl_core::channel::{Channel, PureDelay};
/// use ivl_core::Signal;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let mut ch = PureDelay::new(1.5)?;
/// let out = ch.apply(&Signal::pulse(0.0, 2.0)?);
/// assert_eq!(out, Signal::pulse(1.5, 2.0)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PureDelay {
    delay: f64,
    engine: EngineCore,
}

impl PureDelay {
    /// Creates a pure delay of `delay > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDelayParameter`] if `delay` is not finite
    /// and positive.
    pub fn new(delay: f64) -> Result<Self, Error> {
        if !(delay.is_finite() && delay > 0.0) {
            return Err(Error::InvalidDelayParameter {
                name: "delay",
                value: delay,
                constraint: "must be finite and > 0",
            });
        }
        Ok(PureDelay {
            delay,
            engine: EngineCore::new(CancelRule::NonFifo),
        })
    }

    /// The constant delay.
    #[must_use]
    pub fn delay(&self) -> f64 {
        self.delay
    }
}

impl OnlineChannel for PureDelay {
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
        assert!(PureDelay::new(1.0).is_ok());
        assert!(PureDelay::new(0.0).is_err());
        assert!(PureDelay::new(-1.0).is_err());
        assert!(PureDelay::new(f64::NAN).is_err());
        assert!(PureDelay::new(f64::INFINITY).is_err());
    }

    #[test]
    fn shifts_every_transition() {
        let mut ch = PureDelay::new(0.25).unwrap();
        let input = Signal::pulse_train([(0.0, 1.0), (2.0, 0.01)]).unwrap();
        let out = ch.apply(&input);
        assert!(out.approx_eq(&input.shifted(0.25), 1e-12));
    }

    #[test]
    fn passes_arbitrarily_short_pulses() {
        // the defining non-faithful behaviour: no attenuation at all
        let mut ch = PureDelay::new(1.0).unwrap();
        let out = ch.apply(&Signal::pulse(0.0, 1e-9).unwrap());
        assert_eq!(out.len(), 2);
        assert!((out.min_interval().unwrap() - 1e-9).abs() < 1e-15);
    }

    #[test]
    fn constant_signal_maps_to_itself() {
        let mut ch = PureDelay::new(1.0).unwrap();
        assert!(ch.apply(&Signal::zero()).is_zero());
    }

    #[test]
    fn accessor() {
        assert_eq!(PureDelay::new(2.0).unwrap().delay(), 2.0);
    }
}
