//! Channels: single-history delay elements mapping signals to signals.
//!
//! All channels in this module follow the paper's *output transition
//! generation algorithm* (Section II): the input-to-output delay `δ_n` of
//! the `n`-th input transition depends on the previous-output-to-input
//! offset `T = t_n − t_{n−1} − δ_{n−1}`, and non-FIFO pending output
//! transitions cancel pairwise.
//!
//! Channels come in two flavours sharing one implementation:
//!
//! * **Batch** ([`Channel::apply`]) maps a complete input [`Signal`] to
//!   the output signal — the channel-function semantics of the paper.
//! * **Online** ([`OnlineChannel::feed`]) consumes input transitions one
//!   at a time and reports scheduling/cancellation effects — what an
//!   event-driven circuit simulator needs (see the `ivl-circuit` crate).
//!
//! Implementations:
//!
//! | Type | Model | Faithful? |
//! |------|-------|-----------|
//! | [`PureDelay`] | constant transport delay | no ([IEEE TC 2016]) |
//! | [`InertialDelay`] | transport delay + pulse rejection | no |
//! | [`DegradationDelay`] | DDM (Bellido-Díaz et al.), bounded single-history | no |
//! | [`InvolutionChannel`] | involution delays (DATE'15) | yes |
//! | [`EtaInvolutionChannel`] | involution + adversarial η (this paper) | yes, under constraint (C) |
//!
//! [IEEE TC 2016]: https://doi.org/10.1109/TC.2015.2435791

mod ddm;
mod engine;
mod eta;
mod inertial;
mod involution;
mod pure;

pub use ddm::{DdmEdgeParams, DegradationDelay};
pub use eta::EtaInvolutionChannel;
pub use inertial::InertialDelay;
pub use involution::InvolutionChannel;
pub use pure::PureDelay;

pub(crate) use engine::{CancelRule, EngineCore};

use crate::signal::{Signal, Transition};

/// Effect of feeding one input transition to an [`OnlineChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedEffect {
    /// A new pending output transition was scheduled.
    Scheduled(Transition),
    /// The most recent still-pending output transition was cancelled
    /// together with the would-be output of the fed transition (the
    /// paper's pairwise non-FIFO cancellation).
    CancelledPair {
        /// The previously pending transition that was cancelled.
        cancelled: Transition,
    },
    /// The fed transition produced no output and cancelled nothing
    /// (e.g. a domain-guard `−∞` delay with no pending partner).
    Dropped,
}

/// An incremental channel: feed input transitions in strictly increasing
/// time order and alternating values, observe scheduling effects.
///
/// Implementations keep the single-history state `(t_{n−1}, δ_{n−1})`
/// internally; [`OnlineChannel::reset`] restores the initial state.
pub trait OnlineChannel {
    /// Feeds the next input transition.
    ///
    /// The caller must feed transitions with strictly increasing times
    /// and alternating values (as they appear in a valid [`Signal`]).
    fn feed(&mut self, input: Transition) -> FeedEffect;

    /// Resets the single-history state (but not stateful noise sources;
    /// see [`EtaInvolutionChannel::reset_noise`]).
    ///
    /// Contract: `reset` never touches noise state and
    /// [`reseed`](OnlineChannel::reseed) never touches history, so the
    /// two commute. An event-driven simulator relies on this to call
    /// both lazily, on a channel's first feed in a run, in either order;
    /// a channel that is not fed in a run is not touched at all.
    fn reset(&mut self);

    /// Drops internal bookkeeping for output transitions scheduled at or
    /// before `before`. An event-driven simulator calls this as simulated
    /// time advances; batch evaluation never needs it.
    fn discard_delivered(&mut self, before: f64) {
        let _ = before;
    }

    /// Reseeds any internal noise/RNG streams from `seed` and restarts
    /// them. Deterministic channels ignore this (the default). Scenario
    /// sweeps use it to give every scenario an independent, reproducible
    /// adversary regardless of which worker thread runs it.
    ///
    /// Contract: `reseed` replaces the whole noise state (so of two
    /// reseeds without a feed between them only the last one matters),
    /// never touches the single-history state, and commutes with
    /// [`reset`](OnlineChannel::reset).
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }
}

impl<C: OnlineChannel + ?Sized> OnlineChannel for Box<C> {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        (**self).feed(input)
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn discard_delivered(&mut self, before: f64) {
        (**self).discard_delivered(before);
    }
    fn reseed(&mut self, seed: u64) {
        (**self).reseed(seed);
    }
}

/// An [`OnlineChannel`] that can live inside a [`Circuit`] and be fanned
/// out across simulator worker threads: cloneable (so circuits can be
/// duplicated per worker) and `Send` (so circuits can move between
/// threads).
///
/// Implemented automatically for every `OnlineChannel + Clone + Send +
/// 'static` type — all channels shipped by this crate qualify; custom
/// channels only need `#[derive(Clone)]`.
///
/// [`Circuit`]: https://docs.rs/ivl_circuit
pub trait SimChannel: OnlineChannel + Send {
    /// Clones the channel behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn SimChannel>;
}

impl<C: OnlineChannel + Clone + Send + 'static> SimChannel for C {
    fn clone_box(&self) -> Box<dyn SimChannel> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn SimChannel> {
    fn clone(&self) -> Self {
        (**self).clone_box()
    }
}

/// A channel function: maps input signals to output signals.
///
/// Takes `&mut self` because channels with noise sources draw from an
/// internal RNG stream; the single-history state is reset at the start of
/// each `apply`.
pub trait Channel {
    /// Applies the channel function to `input`.
    fn apply(&mut self, input: &Signal) -> Signal;
}

impl<C: OnlineChannel> Channel for C {
    fn apply(&mut self, input: &Signal) -> Signal {
        apply_online(self, input)
    }
}

/// Applies any [`OnlineChannel`] to a complete signal (resetting its
/// single-history state first).
pub fn apply_online<C: OnlineChannel + ?Sized>(ch: &mut C, input: &Signal) -> Signal {
    ch.reset();
    let mut out: Vec<Transition> = Vec::new();
    for tr in input {
        match ch.feed(*tr) {
            FeedEffect::Scheduled(t) => out.push(t),
            FeedEffect::CancelledPair { .. } => {
                out.pop();
            }
            FeedEffect::Dropped => {}
        }
    }
    Signal::new(input.initial(), out)
        .expect("single-history cancellation preserves signal invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit::Bit;
    use crate::delay::ExpChannel;

    #[test]
    fn boxed_online_channel_delegates() {
        let mut boxed: Box<dyn OnlineChannel> = Box::new(PureDelay::new(1.0).unwrap());
        let eff = boxed.feed(Transition::new(0.0, Bit::One));
        assert_eq!(eff, FeedEffect::Scheduled(Transition::new(1.0, Bit::One)));
        boxed.discard_delivered(0.5);
        boxed.reset();
        // after reset, history starts over
        let eff = boxed.feed(Transition::new(10.0, Bit::One));
        assert_eq!(eff, FeedEffect::Scheduled(Transition::new(11.0, Bit::One)));
    }

    #[test]
    fn channel_trait_object_via_generic() {
        fn run(ch: &mut dyn OnlineChannel, s: &Signal) -> Signal {
            apply_online(ch, s)
        }
        let mut ch = InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5).unwrap());
        let input = Signal::pulse(0.0, 3.0).unwrap();
        let out = run(&mut ch, &input);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn apply_is_repeatable_for_deterministic_channels() {
        let mut ch = InvolutionChannel::new(ExpChannel::new(1.0, 0.5, 0.5).unwrap());
        let input = Signal::pulse_train([(0.0, 2.0), (5.0, 0.3)]).unwrap();
        let a = ch.apply(&input);
        let b = ch.apply(&input);
        assert_eq!(a, b);
    }
}
