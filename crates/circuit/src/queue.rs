//! The pending-event queue of the event-driven simulator.
//!
//! The simulator orders pending output transitions by `(time, seq)` —
//! time first, schedule sequence as the tie-break, so causes precede
//! effects at equal times and runs are deterministic. Because `seq` is
//! unique, that order is total: the pop sequence is fixed by the keys
//! alone, whatever the heap's internal layout.
//!
//! [`EventQueue`] is a `BinaryHeap` with lazy deletion. Cancelling an
//! event (the channels' non-FIFO rule) leaves its key in the heap as a
//! *stale* key; pops skip stale keys by asking the event pool whether the
//! key's handle is still live. Under η-involution noise most events a
//! glitch train schedules are cancelled, so stale keys would otherwise
//! pile up. The queue therefore counts them exactly (+1 per cancel, −1
//! per stale key popped) and, once they outnumber the live keys,
//! compacts the heap with one `retain` pass. That costs amortised
//! `O(1)` per cancel and bounds the heap at twice the live events plus
//! one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sim::EventId;

/// A pending event: its delivery time, schedule sequence number (the
/// total-order tie-break) and pool handle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) id: EventId,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Minimum-first queue of pending events with lazy, compacting
/// cancellation. Every method that may meet a stale key takes a `live`
/// predicate over event handles (the pool's generation check).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Keys in `heap` whose event was cancelled.
    stale: usize,
}

impl EventQueue {
    /// Removes every key, keeping allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.stale = 0;
    }

    /// Number of keys held, stale ones included.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of live (not cancelled) events.
    pub(crate) fn live(&self) -> usize {
        self.heap.len() - self.stale
    }

    /// Inserts a live event. Times earlier than already-popped events
    /// are permitted and are delivered next.
    pub(crate) fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    /// Records that one pushed event was cancelled, so its key is now
    /// stale. When stale keys outnumber live ones, drops them all in one
    /// pass and returns `true`.
    pub(crate) fn cancel(&mut self, live: impl Fn(EventId) -> bool) -> bool {
        self.stale += 1;
        if self.stale <= self.live() {
            return false;
        }
        self.heap.retain(|Reverse(k)| live(k.id));
        self.stale = 0;
        true
    }

    /// Pops the minimum live event if its time is `≤ time` and returns
    /// what `take` makes of it. `take` releases a live event in the
    /// same pool access that checks it, returning `None` for a stale
    /// key, which is dropped on the way.
    pub(crate) fn pop_at_or_before<T>(
        &mut self,
        time: f64,
        mut take: impl FnMut(&EventKey) -> Option<T>,
    ) -> Option<T> {
        loop {
            let Reverse(key) = *self.heap.peek()?;
            if key.time > time {
                return None;
            }
            self.heap.pop();
            if let Some(taken) = take(&key) {
                return Some(taken);
            }
            self.stale -= 1;
        }
    }

    /// The minimum live event, without removing it; stale keys at the
    /// top are dropped.
    pub(crate) fn peek(&mut self, live: impl Fn(EventId) -> bool) -> Option<EventKey> {
        loop {
            let Reverse(key) = *self.heap.peek()?;
            if self.stale == 0 || live(key.id) {
                return Some(key);
            }
            self.heap.pop();
            self.stale -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;

    fn key(time: f64, seq: u64) -> EventKey {
        EventKey {
            time,
            seq,
            id: EventId::for_test(seq),
        }
    }

    /// A `take` for `pop_at_or_before`: the key's `(time, seq)` when
    /// `live` accepts its handle.
    fn taker(live: impl Fn(EventId) -> bool) -> impl FnMut(&EventKey) -> Option<(f64, u64)> {
        move |k| live(k.id).then_some((k.time, k.seq))
    }

    /// Drains `q` (every key live) into `(time, seq)` pairs.
    fn drain_all(q: &mut EventQueue) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop_at_or_before(f64::INFINITY, taker(|_| true))).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        for k in [
            key(5.0, 0),
            key(1.0, 1),
            key(5.0, 2),
            key(0.0, 3),
            key(100.0, 4),
            key(3.5, 5),
            key(3.5, 6),
        ] {
            q.push(k);
        }
        assert_eq!(
            drain_all(&mut q),
            vec![
                (0.0, 3),
                (1.0, 1),
                (3.5, 5),
                (3.5, 6),
                (5.0, 0),
                (5.0, 2),
                (100.0, 4),
            ]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::default();
        for k in [key(2.0, 0), key(4.0, 1), key(50.0, 2)] {
            q.push(k);
        }
        assert_eq!(q.pop_at_or_before(2.0, taker(|_| true)), Some((2.0, 0)));
        assert!(q.pop_at_or_before(2.0, taker(|_| true)).is_none());
        // same-time-as-last-popped push (direct gate fanout does this)
        for k in [key(2.0, 3), key(3.0, 4)] {
            q.push(k);
        }
        assert_eq!(
            drain_all(&mut q),
            vec![(2.0, 3), (3.0, 4), (4.0, 1), (50.0, 2)]
        );
    }

    #[test]
    fn peek_does_not_consume_live_keys() {
        let mut q = EventQueue::default();
        q.push(key(7.0, 0));
        q.push(key(3.0, 1));
        assert_eq!(q.peek(|_| true).unwrap().time, 3.0);
        assert_eq!(q.peek(|_| true).unwrap().time, 3.0);
        assert_eq!(q.pop_at_or_before(3.0, taker(|_| true)), Some((3.0, 1)));
        assert_eq!(q.peek(|_| true).unwrap().time, 7.0);
    }

    #[test]
    fn stale_keys_are_skipped_and_uncounted() {
        let mut q = EventQueue::default();
        for s in 0..4 {
            q.push(key(f64::from(s as u8), s));
        }
        let cancelled: HashSet<u64> = [0, 2].into();
        let live = |id: EventId| !cancelled.contains(&id.test_slot());
        assert!(!q.cancel(live));
        assert!(!q.cancel(live));
        assert_eq!((q.len(), q.live()), (4, 2));
        assert_eq!(q.peek(live).unwrap().seq, 1);
        assert_eq!((q.len(), q.live()), (3, 2), "peek dropped the stale top");
        assert_eq!(q.pop_at_or_before(9.0, taker(live)), Some((1.0, 1)));
        assert_eq!(q.pop_at_or_before(9.0, taker(live)), Some((3.0, 3)));
        assert!(q.pop_at_or_before(9.0, taker(live)).is_none());
        assert_eq!(q.len(), 0);
    }

    /// Every cancel keeps the heap within twice the live events plus
    /// one, even when everything pushed is cancelled.
    #[test]
    fn heap_stays_within_twice_live_plus_one() {
        let mut q = EventQueue::default();
        let mut cancelled = HashSet::new();
        let mut compactions = 0;
        for s in 0..2000u64 {
            q.push(key(1000.0 - (s % 700) as f64, s));
            // cancel four of every five events, oldest live first
            if s % 5 != 0 {
                let victim = (0..=s).find(|v| !cancelled.contains(v)).unwrap();
                cancelled.insert(victim);
                if q.cancel(|id| !cancelled.contains(&id.test_slot())) {
                    compactions += 1;
                    assert_eq!(q.len(), q.live());
                }
                assert!(
                    q.len() <= 2 * q.live() + 1,
                    "{} keys, {} live",
                    q.len(),
                    q.live()
                );
            }
        }
        assert!(compactions >= 10, "only {compactions} compactions");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(f64),
        /// Cancels the live event at this index (mod the live count).
        Cancel(usize),
        Pop,
        PopAtOrBefore(f64),
    }

    /// Pushes and cancels three times as often as either pop, with
    /// times on a coarse grid so equal-time (seq tie-break) pops are
    /// common: stale keys pile up and compaction triggers repeatedly.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0u32..1000).prop_map(|(kind, x)| {
            let t = f64::from(x % 40) * 0.5;
            match kind {
                0..=2 => Op::Push(t),
                3..=5 => Op::Cancel(x as usize),
                6 => Op::Pop,
                _ => Op::PopAtOrBefore(t),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push / cancel / pop / `pop_at_or_before` sequences
        /// against a sorted-`Vec` oracle of the live events.
        #[test]
        fn matches_sorted_vec_oracle(ops in proptest::collection::vec(op(), 1..400)) {
            let mut q = EventQueue::default();
            // live events, sorted descending by (time, seq): min at the back
            let mut oracle: Vec<(f64, u64)> = Vec::new();
            let mut cancelled = HashSet::new();
            let mut seq = 0u64;
            let mut compactions = 0;
            for op in ops {
                let live = |id: EventId| !cancelled.contains(&id.test_slot());
                match op {
                    Op::Push(t) => {
                        q.push(key(t, seq));
                        oracle.push((t, seq));
                        oracle.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
                        seq += 1;
                    }
                    Op::Cancel(i) => {
                        if oracle.is_empty() {
                            continue;
                        }
                        let (_, s) = oracle.remove(i % oracle.len());
                        cancelled.insert(s);
                        if q.cancel(|id| !cancelled.contains(&id.test_slot())) {
                            compactions += 1;
                            prop_assert_eq!(q.len(), oracle.len());
                        }
                        prop_assert!(q.len() <= 2 * q.live() + 1);
                    }
                    Op::Pop => {
                        let got = q.pop_at_or_before(f64::INFINITY, taker(live));
                        prop_assert_eq!(got, oracle.pop());
                    }
                    Op::PopAtOrBefore(t) => {
                        let got = q.pop_at_or_before(t, taker(live));
                        let want = match oracle.last() {
                            Some(&(time, _)) if time <= t => oracle.pop(),
                            _ => None,
                        };
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(q.live(), oracle.len());
                let top = q.peek(|id| !cancelled.contains(&id.test_slot()));
                prop_assert_eq!(top.map(|k| (k.time, k.seq)), oracle.last().copied());
            }
            // long sequences must cross the compaction threshold often
            prop_assert!(seq < 100 || compactions >= 10, "{} compactions", compactions);
        }
    }
}
