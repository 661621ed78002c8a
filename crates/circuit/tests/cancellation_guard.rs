//! Regression tests for the cancellation and order guards.
//!
//! The pre-slab simulator verified a channel's `CancelledPair` only with
//! a `debug_assert_eq!` on the cancelled time: in a **release** build a
//! mismatched cancellation silently invalidated the *newest* pending
//! event on the edge — whatever it was — and the run completed with a
//! corrupted waveform. These tests drive deliberately misbehaving
//! channels through the public API and demand a hard [`SimError`]; they
//! fail on the old simulator when compiled with `--release`. The same
//! holds for a channel that schedules an output earlier than one it
//! still has pending: the simulator refuses it instead of reordering
//! the edge's events.

use ivl_circuit::{CircuitBuilder, GateKind, SimError, Simulator};
use ivl_core::channel::{FeedEffect, OnlineChannel};
use ivl_core::{Bit, Signal, Transition};

/// A channel that schedules its first two outputs normally and then
/// "cancels" a transition that is *not* the pending one.
#[derive(Debug, Clone)]
struct RogueChannel {
    fed: usize,
    /// What the third feed claims to cancel.
    bogus_cancel: Transition,
}

impl RogueChannel {
    fn new(bogus_cancel: Transition) -> Self {
        RogueChannel {
            fed: 0,
            bogus_cancel,
        }
    }
}

impl OnlineChannel for RogueChannel {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        self.fed += 1;
        if self.fed <= 2 {
            FeedEffect::Scheduled(Transition::new(input.time + 2.0, input.value))
        } else {
            FeedEffect::CancelledPair {
                cancelled: self.bogus_cancel,
            }
        }
    }

    fn reset(&mut self) {
        self.fed = 0;
    }
}

/// Builds `a → buf → (rogue channel) → y` and feeds three transitions
/// (t = 0 rise, 1 fall, 2 rise), so the rogue cancel fires on the third.
fn run_with(rogue: RogueChannel) -> Result<(), SimError> {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let g = b.gate("buf", GateKind::Buf, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(a, g, 0).unwrap();
    b.connect(g, y, 0, rogue).unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    // rise at 0, fall at 1, rise at 2 — the rogue cancel is the last feed
    sim.set_input(
        "a",
        Signal::from_times(Bit::Zero, &[0.0, 1.0, 2.0]).unwrap(),
    )
    .unwrap();
    sim.run(100.0).map(|run| {
        // Reaching here means the mismatch was absorbed silently. The old
        // release-mode simulator did exactly that, leaving y latched high
        // (the fall at t = 3 was the event it wrongly invalidated).
        assert!(
            run.signal("y").unwrap().len() >= 2,
            "wrong pending event silently cancelled: y = {}",
            run.signal("y").unwrap()
        );
    })
}

#[test]
fn wrong_time_cancellation_is_a_hard_error() {
    // pending event on the edge is the fall at t = 3; the channel claims
    // to cancel the (already delivered) rise at t = 2
    let res = run_with(RogueChannel::new(Transition::new(2.0, Bit::One)));
    assert!(res.is_err(), "mismatched cancellation must not pass");
    assert!(matches!(
        res,
        Err(SimError::CancellationMismatch {
            pending: Some(_),
            ..
        })
    ));
}

#[test]
fn wrong_value_cancellation_is_a_hard_error() {
    // time matches the pending fall at t = 3 but the value does not —
    // the old debug_assert compared only times, so even debug builds
    // absorbed this one
    let res = run_with(RogueChannel::new(Transition::new(3.0, Bit::One)));
    assert!(res.is_err(), "value-mismatched cancellation must not pass");
    assert!(matches!(res, Err(SimError::CancellationMismatch { .. })));
}

#[test]
fn cancellation_with_nothing_pending_is_a_hard_error() {
    /// Cancels on the very first feed, with nothing scheduled.
    #[derive(Debug, Clone)]
    struct CancelFirst;
    impl OnlineChannel for CancelFirst {
        fn feed(&mut self, input: Transition) -> FeedEffect {
            FeedEffect::CancelledPair {
                cancelled: Transition::new(input.time + 1.0, input.value),
            }
        }
        fn reset(&mut self) {}
    }

    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let g = b.gate("buf", GateKind::Buf, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(a, g, 0).unwrap();
    b.connect(g, y, 0, CancelFirst).unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    sim.set_input("a", Signal::pulse(0.0, 1.0).unwrap())
        .unwrap();
    assert!(matches!(
        sim.run(100.0),
        Err(SimError::CancellationMismatch { pending: None, .. })
    ));
}

#[test]
fn well_behaved_cancellation_still_works() {
    // sanity: the guard must not reject legitimate pairwise cancellation
    use ivl_core::channel::InvolutionChannel;
    use ivl_core::delay::ExpChannel;

    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let g = b.gate("buf", GateKind::Buf, Bit::Zero);
    let y = b.output("y");
    b.connect_direct(a, g, 0).unwrap();
    b.connect(g, y, 0, InvolutionChannel::new(d)).unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    // a pulse short enough to cancel inside the channel
    sim.set_input("a", Signal::pulse(0.0, 0.05).unwrap())
        .unwrap();
    let run = sim.run(100.0).unwrap();
    assert!(run.signal("y").unwrap().is_zero());
    assert!(run.scheduled_events() > run.processed_events());
}

/// Schedules its first output at t = 5 and its second at t = 3, without
/// cancelling the first.
#[derive(Debug, Clone)]
struct OutOfOrder {
    fed: usize,
}

impl OnlineChannel for OutOfOrder {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        self.fed += 1;
        let at = if self.fed == 1 { 5.0 } else { 3.0 };
        FeedEffect::Scheduled(Transition::new(at, input.value))
    }

    fn reset(&mut self) {
        self.fed = 0;
    }
}

#[test]
fn output_before_a_pending_one_is_a_hard_error() {
    for watched in [false, true] {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let g = b.gate("buf", GateKind::Buf, Bit::Zero);
        let y = b.output("y");
        b.connect_direct(a, g, 0).unwrap();
        b.connect(g, y, 0, OutOfOrder { fed: 0 }).unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        if watched {
            sim.set_watch(["y"]).unwrap();
        }
        // the rise at 0 schedules t = 5; the fall at 1 schedules t = 3,
        // which lies in the future but before the pending rise
        sim.set_input("a", Signal::pulse(0.0, 1.0).unwrap())
            .unwrap();
        let res = sim.run(100.0);
        assert!(
            matches!(res, Err(SimError::CausalityViolation { time, .. }) if time == 1.0),
            "watched = {watched}: {res:?}"
        );
    }
}
