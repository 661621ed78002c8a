//! Lazy per-run reset: a run restores only the state it touches, and a
//! channel is reset (and, after `reseed_noise`, reseeded) on its first
//! feed in a run instead of eagerly at the start of every run.
//!
//! Two bars. A counting channel wrapper shows the work is proportional
//! to activity: an idle run calls `reset`/`reseed` on no channel at
//! all, and a scenario calls each exactly once per channel it feeds.
//! And a long sequence of dense, sparse, idle, input-flipping, failing
//! and retried scenarios on one reused simulator matches a fresh
//! simulator per scenario bit for bit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ivl_circuit::{generate, Circuit, SimError, SimResult, Simulator};
use ivl_core::channel::{EtaInvolutionChannel, FeedEffect, OnlineChannel, SimChannel};
use ivl_core::delay::ExpChannel;
use ivl_core::noise::{EtaBounds, UniformNoise};
use ivl_core::{Bit, Signal, Transition};

/// Per-channel call counts, keyed by the id of the channel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Calls {
    feeds: usize,
    resets: usize,
    reseeds: usize,
}

/// State shared by every channel of one circuit (and its clones).
#[derive(Default)]
struct Probe {
    calls: Mutex<HashMap<usize, Calls>>,
    /// The last channel id handed out.
    ids: AtomicUsize,
    /// Total feeds across all channels; when it reaches `trip_at`, the
    /// `cancel` flag is raised (0 = disarmed).
    feeds: AtomicUsize,
    trip_at: AtomicUsize,
    cancel: Arc<AtomicBool>,
}

impl Probe {
    fn take_calls(&self) -> HashMap<usize, Calls> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }

    fn count(&self, id: usize, f: impl FnOnce(&mut Calls)) {
        f(self.calls.lock().unwrap().entry(id).or_default());
    }
}

/// Wraps a channel and counts the calls the simulator makes on it.
/// Every clone draws a fresh id from the probe, so an id names one
/// materialized channel: a simulator clones an edge's prototype into
/// the edge's slot on its first feed.
struct Counting {
    id: usize,
    inner: Box<dyn SimChannel>,
    probe: Arc<Probe>,
}

impl Clone for Counting {
    fn clone(&self) -> Self {
        Counting {
            id: self.probe.ids.fetch_add(1, Ordering::Relaxed) + 1,
            inner: self.inner.clone(),
            probe: Arc::clone(&self.probe),
        }
    }
}

impl OnlineChannel for Counting {
    fn feed(&mut self, input: Transition) -> FeedEffect {
        self.probe.count(self.id, |c| c.feeds += 1);
        let total = self.probe.feeds.fetch_add(1, Ordering::Relaxed) + 1;
        if total == self.probe.trip_at.load(Ordering::Relaxed) {
            self.probe.cancel.store(true, Ordering::Relaxed);
        }
        self.inner.feed(input)
    }

    fn reset(&mut self) {
        self.probe.count(self.id, |c| c.resets += 1);
        self.inner.reset();
    }

    fn discard_delivered(&mut self, before: f64) {
        self.inner.discard_delivered(before);
    }

    fn reseed(&mut self, seed: u64) {
        self.probe.count(self.id, |c| c.reseeds += 1);
        self.inner.reseed(seed);
    }
}

/// A 2000-gate `random_dag` behind counting η-involution channels with
/// uniform noise.
fn counted_dag(probe: &Arc<Probe>) -> Circuit {
    let d = ExpChannel::new(1.0, 0.5, 0.5).unwrap();
    let bounds = EtaBounds::new(0.02, 0.02).unwrap();
    let prototype = Counting {
        id: 0,
        inner: Box::new(EtaInvolutionChannel::new(d, bounds, UniformNoise::new(0))),
        probe: Arc::clone(probe),
    };
    generate::random_dag(2000, 3, Box::new(prototype)).unwrap()
}

/// `n` glitches near the channel's cancellation threshold, starting
/// from `initial`.
fn train(initial: Bit, n: usize, offset: f64) -> Signal {
    let mut times = Vec::with_capacity(2 * n);
    let mut t = 1.0 + offset;
    for k in 0..n {
        times.push(t);
        t += 0.2 + 0.8 * ((k * 7 + 3) % 11) as f64 / 11.0;
        times.push(t);
        t += 0.8 + 0.8 * ((k * 5 + 1) % 13) as f64 / 13.0;
    }
    Signal::from_times(initial, &times).unwrap()
}

#[test]
fn idle_runs_touch_no_channel_and_scenarios_touch_each_fed_channel_once() {
    let probe = Arc::new(Probe::default());
    let mut sim = Simulator::new(counted_dag(&probe))
        .with_watch(["y"])
        .unwrap();

    // warmup: a scenario, then an idle run
    sim.set_input("a", train(Bit::Zero, 16, 0.0)).unwrap();
    sim.reseed_noise(1);
    sim.run(200.0).unwrap();
    sim.reset_inputs();
    sim.run(200.0).unwrap();
    probe.take_calls();

    // an idle run, reseeded or not, calls nothing on any channel
    for seed in [None, Some(2)] {
        sim.reset_inputs();
        if let Some(seed) = seed {
            sim.reseed_noise(seed);
        }
        let run = sim.run(200.0).unwrap();
        assert_eq!(run.scheduled_events(), 0);
        let calls = probe.take_calls();
        assert!(
            calls.is_empty(),
            "idle run (seed {seed:?}) touched {calls:?}"
        );
    }

    // a seeded scenario resets and reseeds exactly the channels it
    // feeds, each once
    for (seed, pulses) in [(3, 16), (4, 2), (5, 9)] {
        sim.set_input("a", train(Bit::Zero, pulses, 0.3)).unwrap();
        sim.reseed_noise(seed);
        sim.run(200.0).unwrap();
        let calls = probe.take_calls();
        let fed = calls.values().filter(|c| c.feeds > 0).count();
        assert!(fed > 0 && fed < 2900, "scenario {seed} fed {fed} channels");
        for (id, c) in &calls {
            assert!(c.feeds > 0, "channel {id} reset without a feed: {c:?}");
            assert_eq!((c.resets, c.reseeds), (1, 1), "channel {id}: {c:?}");
        }
    }
}

/// Everything a run returned — every recorded node and edge signal,
/// the event counts and the dropped-transition count — as text. Two
/// runs over clones of one circuit share the name index, so equal
/// results print identically (`f64` debug output round-trips).
fn fingerprint(run: &SimResult) -> String {
    format!("{run:?}")
}

/// How a step of the sequence fails part-way, if at all.
#[derive(Clone, Copy, Debug)]
enum Fault {
    None,
    /// The event budget runs out mid-run.
    Budget,
    /// The cancel flag is already up when the run starts: it stops at
    /// the t = 0 batch, with the inconsistent gates still marked dirty.
    CancelAtStart,
    /// The cancel flag goes up after this many more channel feeds.
    CancelAfterFeeds(usize),
}

fn sequence_matches_fresh_simulators(watch: Option<&[&str]>) {
    use Fault::{Budget, CancelAfterFeeds, CancelAtStart};
    const H: f64 = 200.0;

    let probe = Arc::new(Probe::default());
    let template = counted_dag(&probe);
    let configure = |mut sim: Simulator| {
        if let Some(names) = watch {
            sim.set_watch(names.iter().copied()).unwrap();
        }
        sim.set_cancel_flag(Some(Arc::clone(&probe.cancel)));
        sim
    };
    let mut reused = configure(Simulator::new(template.clone()));

    let low = |pulses, offset| train(Bit::Zero, pulses, offset);
    let idle_at_one = Signal::new(Bit::One, Vec::new()).unwrap();
    let ok = Fault::None;
    let steps: Vec<(&str, Signal, u64, f64, Fault)> = vec![
        ("dense", low(16, 0.0), 11, H, ok),
        ("sparse", low(1, 0.5), 12, H, ok),
        ("idle", Signal::zero(), 13, H, ok),
        // events still pending at the horizon stay behind in the pool
        // and the per-edge pending queues
        ("cut short", low(16, 0.2), 21, 9.0, ok),
        ("dense after cut", low(16, 0.2), 22, H, ok),
        ("flip to 1", train(Bit::One, 6, 0.2), 14, H, ok),
        ("idle at 1", idle_at_one.clone(), 15, H, ok),
        ("cancelled at 1", idle_at_one, 23, H, CancelAtStart),
        ("flip back to 0", low(12, 0.1), 16, H, ok),
        ("over budget", low(16, 0.4), 17, H, Budget),
        ("retry after budget", low(16, 0.4), 17, H, ok),
        ("cancelled", low(14, 0.6), 18, H, CancelAfterFeeds(40)),
        ("retry after cancel", low(14, 0.6), 18, H, ok),
        ("sparse again", low(2, 0.7), 19, H, ok),
        ("idle again", Signal::zero(), 20, H, ok),
    ];
    for (label, input, seed, horizon, fault) in steps {
        reused.reset_inputs();
        reused.reseed_noise(seed);
        reused.set_input("a", input.clone()).unwrap();
        probe.cancel.store(false, Ordering::Relaxed);
        let failure = match fault {
            Fault::None => None,
            Fault::Budget => {
                let saved = reused.max_events();
                reused.set_max_events(60);
                let err = reused.run(horizon).unwrap_err();
                reused.set_max_events(saved);
                Some(matches!(err, SimError::MaxEventsExceeded { .. }))
            }
            Fault::CancelAtStart => {
                probe.cancel.store(true, Ordering::Relaxed);
                let err = reused.run(horizon).unwrap_err();
                Some(matches!(err, SimError::Cancelled { time } if time == 0.0))
            }
            Fault::CancelAfterFeeds(n) => {
                let total = probe.feeds.load(Ordering::Relaxed);
                probe.trip_at.store(total + n, Ordering::Relaxed);
                let err = reused.run(horizon).unwrap_err();
                probe.trip_at.store(0, Ordering::Relaxed);
                Some(matches!(err, SimError::Cancelled { time } if time > 0.0))
            }
        };
        if let Some(expected_error) = failure {
            assert!(expected_error, "{label}: the run failed the wrong way");
            continue;
        }
        let got = reused.run(horizon).unwrap();

        let mut fresh = configure(Simulator::new(template.clone()));
        fresh.reseed_noise(seed);
        fresh.set_input("a", input).unwrap();
        let want = fresh.run(horizon).unwrap();
        assert!(
            fingerprint(&got) == fingerprint(&want),
            "{label} (watch {watch:?}): the reused simulator diverges from a fresh one"
        );
    }
}

#[test]
fn reused_simulator_matches_fresh_ones_under_full_recording() {
    sequence_matches_fresh_simulators(None);
}

#[test]
fn reused_simulator_matches_fresh_ones_under_a_watch_set() {
    sequence_matches_fresh_simulators(Some(&["y", "n0", "n1500"]));
}
