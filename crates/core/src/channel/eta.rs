//! η-involution channels: involution delays with per-transition
//! adversarial noise (the paper's contribution, Section III).

use crate::channel::{CancelRule, EngineCore, FeedEffect, OnlineChannel};
use crate::delay::DelayPair;
use crate::noise::{EtaBounds, NoiseContext, NoiseSource, ZeroNoise};
use crate::signal::Transition;

/// An η-involution channel: after the involution delay `δ↑/δ↓(T)` is
/// applied, each output transition is shifted by an adversarially chosen
/// `η_n ∈ [−η⁻, η⁺]`:
///
/// ```text
/// δ_n = δ_{↑/↓}(max{t_n − t_{n−1} − δ_{n−1}, −δ∞}) + η_n
/// ```
///
/// (The domain guard returns `−∞`, cancelling the transition, exactly as
/// in the paper; note the published formula's guard constant contains a
/// typo — the correct guard for `δ↑` is `−δ↓∞`, the lower end of `δ↑`'s
/// domain, which is what this implementation uses.)
///
/// The adversary is a [`NoiseSource`]; samples outside the bounds are
/// clamped (with a `debug_assert!`). With [`ZeroNoise`] the channel is
/// exactly an [`InvolutionChannel`](crate::channel::InvolutionChannel).
///
/// Faithfulness holds under constraint (C),
/// [`EtaBounds::satisfies_constraint_c`].
///
/// ```
/// use ivl_core::channel::{Channel, EtaInvolutionChannel};
/// use ivl_core::delay::ExpChannel;
/// use ivl_core::noise::{EtaBounds, UniformNoise};
/// use ivl_core::Signal;
/// # fn main() -> Result<(), ivl_core::Error> {
/// let delay = ExpChannel::new(1.0, 0.5, 0.5)?;
/// let bounds = EtaBounds::new(0.02, 0.03)?;
/// assert!(bounds.satisfies_constraint_c(&delay));
/// let mut ch = EtaInvolutionChannel::new(delay, bounds, UniformNoise::new(7));
/// let out = ch.apply(&Signal::pulse(0.0, 5.0)?);
/// assert_eq!(out.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EtaInvolutionChannel<D, N> {
    delay: D,
    bounds: EtaBounds,
    noise: N,
    engine: EngineCore,
}

impl<D: DelayPair> EtaInvolutionChannel<D, ZeroNoise> {
    /// An η-involution channel with zero noise (degenerates to the
    /// deterministic involution channel).
    #[must_use]
    pub fn noiseless(delay: D) -> Self {
        EtaInvolutionChannel::new(delay, EtaBounds::zero(), ZeroNoise)
    }
}

impl<D: DelayPair, N: NoiseSource> EtaInvolutionChannel<D, N> {
    /// Creates an η-involution channel.
    #[must_use]
    pub fn new(delay: D, bounds: EtaBounds, noise: N) -> Self {
        EtaInvolutionChannel {
            delay,
            bounds,
            noise,
            engine: EngineCore::new(CancelRule::NonFifo),
        }
    }

    /// The underlying delay pair.
    #[must_use]
    pub fn delay_pair(&self) -> &D {
        &self.delay
    }

    /// The admissible η interval.
    #[must_use]
    pub fn bounds(&self) -> EtaBounds {
        self.bounds
    }

    /// The noise source.
    #[must_use]
    pub fn noise(&self) -> &N {
        &self.noise
    }

    /// Mutable access to the noise source (e.g. to replay a different
    /// adversary).
    pub fn noise_mut(&mut self) -> &mut N {
        &mut self.noise
    }

    /// Resets the noise source's internal state (RNG streams restart from
    /// their seed). [`OnlineChannel::reset`] deliberately does *not* do
    /// this, so that repeated [`Channel::apply`](crate::channel::Channel)
    /// calls see fresh noise.
    pub fn reset_noise(&mut self) {
        self.noise.reset();
    }

    /// `true` if the bounds satisfy constraint (C) for this channel's
    /// delay pair, i.e. the faithfulness theorems apply.
    #[must_use]
    pub fn is_faithful_parameterization(&self) -> bool {
        self.bounds.satisfies_constraint_c(&self.delay)
    }
}

impl<D: DelayPair, N: NoiseSource> OnlineChannel for EtaInvolutionChannel<D, N> {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        let offset = self.engine.offset(input.time);
        let edge = input.value.edge();
        let base = self.delay.delta(edge, offset);
        let delay = if base == f64::NEG_INFINITY {
            // domain guard: η cannot rescue a cancelled transition
            f64::NEG_INFINITY
        } else {
            let ctx = NoiseContext {
                index: self.engine.count(),
                edge,
                input_time: input.time,
                offset,
                bounds: self.bounds,
            };
            let eta = self.noise.sample(&ctx);
            debug_assert!(
                self.bounds.contains(eta),
                "noise source produced η = {eta} outside {:?}",
                self.bounds
            );
            base + self.bounds.clamp(eta)
        };
        self.engine.feed(input, delay)
    }

    fn reset(&mut self) {
        self.engine.reset();
    }

    fn discard_delivered(&mut self, before: f64) {
        self.engine.discard_delivered(before);
    }

    fn reseed(&mut self, seed: u64) {
        self.noise.reseed(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, InvolutionChannel};
    use crate::delay::ExpChannel;
    use crate::noise::{
        ConstantShift, ExtendingAdversary, RecordedChoices, UniformNoise, WorstCaseAdversary,
    };
    use crate::signal::Signal;

    fn delay() -> ExpChannel {
        ExpChannel::new(1.0, 0.5, 0.5).unwrap()
    }

    #[test]
    fn zero_noise_equals_involution_channel() {
        let mut eta = EtaInvolutionChannel::noiseless(delay());
        let mut inv = InvolutionChannel::new(delay());
        for input in [
            Signal::pulse(0.0, 5.0).unwrap(),
            Signal::pulse(0.0, 0.05).unwrap(),
            Signal::pulse_train([(0.0, 2.0), (3.0, 0.8), (5.0, 0.1)]).unwrap(),
        ] {
            assert_eq!(eta.apply(&input), inv.apply(&input));
        }
    }

    #[test]
    fn constant_shift_moves_outputs() {
        let bounds = EtaBounds::new(0.0, 0.05).unwrap();
        let mut base = EtaInvolutionChannel::noiseless(delay());
        let mut shifted = EtaInvolutionChannel::new(delay(), bounds, ConstantShift(0.05));
        let input = Signal::pulse(0.0, 5.0).unwrap();
        let a = base.apply(&input);
        let b = shifted.apply(&input);
        let ta = a.transitions();
        let tb = b.transitions();
        // first output shifted by exactly η
        assert!((tb[0].time - ta[0].time - 0.05).abs() < 1e-12);
        // second output: shifted η *and* sees a different history (T
        // changes because the previous output moved)
        assert!(tb[1].time != ta[1].time);
    }

    #[test]
    fn clamping_of_out_of_bounds_noise() {
        // a rogue source returning values outside bounds is clamped
        let bounds = EtaBounds::new(0.01, 0.01).unwrap();
        let mut rogue = EtaInvolutionChannel::new(delay(), bounds, RecordedChoices::new(vec![9.0]));
        let mut max_ok =
            EtaInvolutionChannel::new(delay(), bounds, RecordedChoices::new(vec![0.01]));
        let input = Signal::pulse(0.0, 5.0).unwrap();
        // only run in release mode semantics: debug_assert would fire, so
        // guard the comparison behind cfg
        if cfg!(not(debug_assertions)) {
            let a = rogue.apply(&input);
            let b = max_ok.apply(&input);
            assert_eq!(a, b);
        } else {
            // in debug builds just check the in-bounds variant works
            let b = max_ok.apply(&input);
            assert_eq!(b.len(), 2);
        }
    }

    #[test]
    fn worst_case_adversary_shrinks_pulses() {
        let bounds = EtaBounds::new(0.05, 0.05).unwrap();
        assert!(bounds.satisfies_constraint_c(&delay()));
        let input = Signal::pulse(0.0, 3.0).unwrap();
        let mut nominal = EtaInvolutionChannel::noiseless(delay());
        let mut worst = EtaInvolutionChannel::new(delay(), bounds, WorstCaseAdversary);
        let mut extend = EtaInvolutionChannel::new(delay(), bounds, ExtendingAdversary);
        let w_nom = width(&nominal.apply(&input));
        let w_min = width(&worst.apply(&input));
        let w_max = width(&extend.apply(&input));
        assert!(w_min < w_nom, "{w_min} !< {w_nom}");
        assert!(w_nom < w_max, "{w_nom} !< {w_max}");
        // worst-case shrinks by about η⁺+η⁻ relative to extending
        assert!((w_max - w_min - 2.0 * bounds.width()).abs() < 0.05);
    }

    fn width(s: &Signal) -> f64 {
        let tr = s.transitions();
        assert_eq!(tr.len(), 2, "{s}");
        tr[1].time - tr[0].time
    }

    #[test]
    fn adversary_can_decancel_a_pulse() {
        // Find a pulse width where the nominal channel cancels but the
        // extending adversary (early rise, late fall) lets it through —
        // the "de-cancel" of Fig. 4.
        let d = delay();
        let bounds = EtaBounds::new(0.05, 0.05).unwrap();
        let mut nominal = EtaInvolutionChannel::noiseless(d.clone());
        let mut extend = EtaInvolutionChannel::new(d.clone(), bounds, ExtendingAdversary);
        let mut found = false;
        for i in 0..400 {
            let w = 0.4 + i as f64 * 0.001;
            let input = Signal::pulse(0.0, w).unwrap();
            let a = nominal.apply(&input);
            let b = extend.apply(&input);
            if a.is_zero() && !b.is_zero() {
                found = true;
                break;
            }
        }
        assert!(found, "no de-cancelled width found");
    }

    #[test]
    fn uniform_noise_outputs_stay_within_envelope() {
        // every noisy output transition lies within [nominal−…, nominal+…]
        // for the *first* transition (same history); later ones may drift
        // because the history itself shifts.
        let bounds = EtaBounds::new(0.02, 0.03).unwrap();
        let input = Signal::pulse(0.0, 5.0).unwrap();
        let mut nominal = EtaInvolutionChannel::noiseless(delay());
        let first_nominal = nominal.apply(&input).transitions()[0].time;
        for seed in 0..20 {
            let mut noisy = EtaInvolutionChannel::new(delay(), bounds, UniformNoise::new(seed));
            let out = noisy.apply(&input);
            let first = out.transitions()[0].time;
            assert!(
                first >= first_nominal - 0.02 - 1e-12 && first <= first_nominal + 0.03 + 1e-12,
                "seed {seed}: {first} vs {first_nominal}"
            );
        }
    }

    #[test]
    fn accessors_and_faithfulness_check() {
        let bounds = EtaBounds::new(0.01, 0.01).unwrap();
        let mut ch = EtaInvolutionChannel::new(delay(), bounds, UniformNoise::new(1));
        assert_eq!(ch.bounds(), bounds);
        assert_eq!(ch.delay_pair().t_p(), 0.5);
        assert!(ch.is_faithful_parameterization());
        ch.noise_mut();
        ch.reset_noise();
        let big = EtaBounds::new(1.0, 1.0).unwrap();
        let ch = EtaInvolutionChannel::new(delay(), big, ZeroNoise);
        assert!(!ch.is_faithful_parameterization());
    }

    #[test]
    fn reset_noise_reproduces_stream() {
        let bounds = EtaBounds::new(0.02, 0.02).unwrap();
        let input = Signal::pulse_train([(0.0, 2.0), (4.0, 2.0)]).unwrap();
        let mut ch = EtaInvolutionChannel::new(delay(), bounds, UniformNoise::new(5));
        let a = ch.apply(&input);
        let b = ch.apply(&input);
        assert_ne!(a, b, "fresh noise on second apply");
        ch.reset_noise();
        let c = ch.apply(&input);
        assert_eq!(a, c, "reset_noise restores the stream");
    }

    #[test]
    fn domain_guard_cancels_despite_noise() {
        // Construct a short glitch after a long stable input such that
        // T ≤ −δ↓∞ for the rising edge … that requires the previous
        // output to be far in the future, i.e. a pulse right after the
        // first transition's scheduled output. Use recorded choices to
        // keep determinism.
        let d = delay();
        let bounds = EtaBounds::new(0.05, 0.05).unwrap();
        let mut ch = EtaInvolutionChannel::new(d.clone(), bounds, RecordedChoices::new(vec![]));
        // first rising at 0 → output ≈ δ↑∞ ≈ 1.19; a falling input at
        // 0.01 has T ≈ 0.01 − 1.19 < −δ↑∞? δ↑∞ = 0.5 + ln2 ≈ 1.19; T ≈
        // −1.18 ≤ −δ↑∞ = −1.19? Not quite; make the pulse even shorter.
        let input = Signal::pulse(0.0, 0.001).unwrap();
        let out = ch.apply(&input);
        assert!(out.is_zero(), "ultra-short pulse must cancel: {out}");
    }
}
