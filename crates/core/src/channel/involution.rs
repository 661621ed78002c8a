//! Deterministic involution channels (Függer et al., DATE'15).

use crate::channel::{CancelRule, EngineCore, FeedEffect, OnlineChannel};
use crate::delay::DelayPair;
use crate::signal::Transition;

/// An involution channel: the input-to-output delay of the `n`-th input
/// transition is `δ↑(T)`/`δ↓(T)` with `T = t_n − t_{n−1} − δ_{n−1}`, for
/// an involution [`DelayPair`]. The first faithful binary circuit model
/// (DATE'15); the η-involution channel of this paper generalizes it.
///
/// ```
/// use ivl_core::channel::{Channel, InvolutionChannel};
/// use ivl_core::delay::ExpChannel;
/// use ivl_core::Signal;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let mut ch = InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5)?);
/// // a long pulse propagates with the asymptotic delay δ∞
/// let out = ch.apply(&Signal::pulse(0.0, 10.0)?);
/// assert_eq!(out.len(), 2);
/// // a sufficiently short pulse cancels inside the channel
/// assert!(ch.apply(&Signal::pulse(0.0, 0.05)?).is_zero());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InvolutionChannel<D> {
    delay: D,
    engine: EngineCore,
}

impl<D: DelayPair> InvolutionChannel<D> {
    /// Creates an involution channel over the given delay pair.
    #[must_use]
    pub fn new(delay: D) -> Self {
        InvolutionChannel {
            delay,
            engine: EngineCore::new(CancelRule::NonFifo),
        }
    }

    /// The underlying delay pair.
    #[must_use]
    pub fn delay_pair(&self) -> &D {
        &self.delay
    }

    /// Consumes the channel, returning the delay pair.
    #[must_use]
    pub fn into_delay_pair(self) -> D {
        self.delay
    }
}

impl<D: DelayPair> OnlineChannel for InvolutionChannel<D> {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        let t = self.engine.offset(input.time);
        let delay = self.delay.delta(input.value.edge(), t);
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
    use crate::delay::{DelayPair, ExpChannel, RationalPair};
    use crate::signal::Signal;

    fn exp_channel() -> InvolutionChannel<ExpChannel> {
        InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5).unwrap())
    }

    #[test]
    fn first_transition_gets_asymptotic_delay() {
        let mut ch = exp_channel();
        let d_inf = ch.delay_pair().delta_up_inf();
        let out = ch.apply(&Signal::pulse(2.0, 100.0).unwrap());
        let tr = out.transitions();
        assert!((tr[0].time - (2.0 + d_inf)).abs() < 1e-12);
    }

    #[test]
    fn isolated_transitions_see_delta_inf() {
        // widely separated transitions all get ≈ δ∞
        let mut ch = exp_channel();
        let up_inf = ch.delay_pair().delta_up_inf();
        let down_inf = ch.delay_pair().delta_down_inf();
        let input = Signal::pulse_train([(0.0, 50.0), (100.0, 50.0)]).unwrap();
        let out = ch.apply(&input);
        let tr = out.transitions();
        assert_eq!(tr.len(), 4);
        assert!((tr[0].time - up_inf).abs() < 1e-9);
        assert!((tr[1].time - (50.0 + down_inf)).abs() < 1e-9);
        assert!((tr[2].time - (100.0 + up_inf)).abs() < 1e-9);
    }

    #[test]
    fn short_pulse_cancels_fig2_scenario() {
        // the second (short) pulse cancels inside the channel, as in
        // Fig. 2 of the paper
        let mut ch = exp_channel();
        let input = Signal::pulse_train([(0.0, 5.0), (10.0, 0.05)]).unwrap();
        let out = ch.apply(&input);
        assert_eq!(out.len(), 2, "short pulse must cancel: {out}");
    }

    #[test]
    fn pulse_attenuation_is_continuous_in_width() {
        let mut ch = exp_channel();
        // output width is continuous and monotone in input width
        let mut prev_width: Option<f64> = None;
        for i in 0..30 {
            let w = 0.9 + 0.05 * i as f64;
            let out = ch.apply(&Signal::pulse(0.0, w).unwrap());
            if out.len() == 2 {
                let tr = out.transitions();
                let width = tr[1].time - tr[0].time;
                assert!(width < w + 1e-9, "attenuation, not amplification");
                if let Some(p) = prev_width {
                    assert!(width >= p - 1e-9, "monotone in input width");
                }
                prev_width = Some(width);
            }
        }
        assert!(prev_width.is_some(), "some pulses must propagate");
    }

    #[test]
    fn critical_width_threshold_between_cancel_and_pass() {
        // Below δ↑∞ − δmin an isolated pulse cancels (Lemma 4 with η = 0);
        // above δ↑∞ it must pass (Lemma 3 with η = 0).
        let mut ch = exp_channel();
        let d = ch.delay_pair().clone();
        let low = d.delta_up_inf() - d.delta_min();
        let high = d.delta_up_inf();
        assert!(ch.apply(&Signal::pulse(0.0, low - 1e-6).unwrap()).is_zero());
        assert_eq!(ch.apply(&Signal::pulse(0.0, high + 1e-6).unwrap()).len(), 2);
    }

    #[test]
    fn works_with_rational_pair() {
        let mut ch = InvolutionChannel::new(RationalPair::new(2.0, 1.0, 2.0).unwrap());
        let out = ch.apply(&Signal::pulse(0.0, 20.0).unwrap());
        assert_eq!(out.len(), 2);
        assert!((out.transitions()[0].time - 2.0).abs() < 1e-9); // δ↑∞ = a = 2
    }

    #[test]
    fn into_delay_pair_roundtrip() {
        let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
        let ch = InvolutionChannel::new(d.clone());
        assert_eq!(ch.into_delay_pair(), d);
    }

    #[test]
    fn output_respects_signal_invariants_on_fast_trains() {
        let mut ch = exp_channel();
        // aggressive glitch train near the attenuation boundary
        let input = Signal::pulse_train((0..50).map(|i| (i as f64 * 1.8, 0.9))).unwrap();
        let out = ch.apply(&input);
        // Signal construction inside apply() validates invariants; also
        // check output count parity: final values must match since the
        // input returns to 0.
        assert_eq!(out.final_value(), input.final_value());
    }
}
