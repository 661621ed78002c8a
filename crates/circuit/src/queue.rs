//! The pending-event queue of the event-driven simulator.
//!
//! The simulator orders pending output transitions by `(time, seq)` —
//! time first, schedule sequence as the tie-break, so causes precede
//! effects at equal times and runs are deterministic. Because `seq` is
//! unique, that order is total: the pop sequence is fixed by the keys
//! alone, whatever the heap's internal layout.
//!
//! Each edge keeps its pending transitions as a list in `(time, seq)`
//! order, and [`EventQueue`] holds one key per non-empty list: the key
//! of its head. Since every list is sorted, the minimum over the heads
//! is the minimum over all pending events, so the queue pops the same
//! total order as a heap of every pending event would. A key names the
//! edge-table entry whose list it heads; it is *live* while its `seq`
//! is the `seq` of that list's current head. Delivering an event pops
//! its key and pushes the key of the list's next head in the same heap
//! operation.
//!
//! The heap deletes lazily. A cancel removes a list's tail; only when
//! that empties the list does the head's key go *stale*, and pops skip
//! stale keys by asking the simulator's `live` predicate. Under
//! η-involution noise most events a glitch train schedules are
//! cancelled, so stale keys would otherwise pile up. The queue
//! therefore counts them exactly (+1 per list a cancel empties, −1 per
//! stale key popped) and, once they outnumber the live keys, compacts
//! the heap with one `retain` pass. That costs amortised `O(1)` per
//! cancel and bounds the heap at twice the live keys plus one.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// The key of an edge list's head: its delivery time, schedule
/// sequence number (the total-order tie-break), the edge-table entry
/// whose list it heads, and that entry's edge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) entry: u32,
    pub(crate) edge: u32,
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

/// Minimum-first queue of edge-list heads with lazy, compacting
/// cancellation. Every method that may meet a stale key takes a `live`
/// predicate over keys (is the key's `seq` its list's current head?).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Keys in `heap` whose list a cancel emptied.
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

    /// Number of live keys: one per non-empty list.
    pub(crate) fn live(&self) -> usize {
        self.heap.len() - self.stale
    }

    /// Inserts the key of a list that just became non-empty. Times
    /// earlier than already-popped events are permitted and are
    /// delivered next.
    pub(crate) fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    /// Records that a cancel emptied one list, so its head's key is now
    /// stale. When stale keys outnumber live ones, drops them all in
    /// one pass and returns `true`.
    pub(crate) fn cancel(&mut self, live: impl Fn(&EventKey) -> bool) -> bool {
        self.stale += 1;
        if self.stale <= self.live() {
            return false;
        }
        self.heap.retain(|Reverse(k)| live(k));
        self.stale = 0;
        true
    }

    /// Pops the minimum live key if its time is `≤ time` and returns
    /// what `take` makes of it. `take` unlinks a live key's head in the
    /// same access that checks it and returns the delivered payload plus
    /// the key of the list's next head, which takes the popped key's
    /// place in one sift; it returns `None` for a stale key, which is
    /// dropped on the way.
    pub(crate) fn pop_at_or_before<T>(
        &mut self,
        time: f64,
        mut take: impl FnMut(&EventKey) -> Option<(T, Option<EventKey>)>,
    ) -> Option<T> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let key = top.0;
            if key.time > time {
                return None;
            }
            match take(&key) {
                Some((taken, Some(next))) => {
                    top.0 = next;
                    return Some(taken);
                }
                Some((taken, None)) => {
                    PeekMut::pop(top);
                    return Some(taken);
                }
                None => {
                    PeekMut::pop(top);
                    self.stale -= 1;
                }
            }
        }
    }

    /// The minimum live key, without removing it; stale keys at the top
    /// are dropped.
    pub(crate) fn peek(&mut self, live: impl Fn(&EventKey) -> bool) -> Option<EventKey> {
        loop {
            let Reverse(key) = *self.heap.peek()?;
            if self.stale == 0 || live(&key) {
                return Some(key);
            }
            self.heap.pop();
            self.stale -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;

    /// A key heading its own one-event list `seq`.
    fn key(time: f64, seq: u64) -> EventKey {
        EventKey {
            time,
            seq,
            entry: seq as u32,
            edge: 0,
        }
    }

    /// A `take` for keys that each head a one-event list: the key's
    /// `(time, seq)`, with no next head.
    #[allow(clippy::unnecessary_wraps)]
    fn take_single(k: &EventKey) -> Option<((f64, u64), Option<EventKey>)> {
        Some(((k.time, k.seq), None))
    }

    /// Drains `q` (every key live, no successors) into `(time, seq)`
    /// pairs.
    fn drain_all(q: &mut EventQueue) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop_at_or_before(f64::INFINITY, take_single)).collect()
    }

    /// A model of the simulator's per-edge pending lists: entry `i`
    /// holds its `(time, seq)` events in order, head at the front.
    #[derive(Debug, Default)]
    struct Lists(Vec<VecDeque<(f64, u64)>>);

    impl Lists {
        fn with_entries(n: usize) -> Self {
            Lists(vec![VecDeque::new(); n])
        }

        /// The liveness rule: `k` is live while its `seq` is its list's
        /// head.
        fn live(&self, k: &EventKey) -> bool {
            self.0[k.entry as usize]
                .front()
                .is_some_and(|&(_, s)| s == k.seq)
        }

        fn key(entry: usize, (time, seq): (f64, u64)) -> EventKey {
            EventKey {
                time,
                seq,
                entry: entry as u32,
                edge: 0,
            }
        }

        /// Appends to `entry`'s list (times never decrease along a
        /// list); returns the key to push when the list was empty.
        fn append(&mut self, entry: usize, time: f64, seq: u64) -> Option<EventKey> {
            let list = &mut self.0[entry];
            let time = list.back().map_or(time, |&(t, _)| time.max(t));
            list.push_back((time, seq));
            (list.len() == 1).then(|| Self::key(entry, (time, seq)))
        }

        /// Cancels `entry`'s tail; `Some(true)` when that emptied the
        /// list (its head's key is now stale).
        fn cancel_tail(&mut self, entry: usize) -> Option<(f64, u64, bool)> {
            let list = &mut self.0[entry];
            let (t, s) = list.pop_back()?;
            Some((t, s, list.is_empty()))
        }

        /// The `take` of the simulator: unlinks the head `k` names and
        /// hands back the next head's key.
        fn take(&mut self, k: &EventKey) -> Option<((f64, u64), Option<EventKey>)> {
            if !self.live(k) {
                return None;
            }
            let list = &mut self.0[k.entry as usize];
            let head = list.pop_front()?;
            let next = list.front().map(|&h| Self::key(k.entry as usize, h));
            Some((head, next))
        }

        fn non_empty(&self) -> usize {
            self.0.iter().filter(|l| !l.is_empty()).count()
        }
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
        assert_eq!(q.pop_at_or_before(2.0, take_single), Some((2.0, 0)));
        assert!(q.pop_at_or_before(2.0, take_single).is_none());
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
        assert_eq!(q.pop_at_or_before(3.0, take_single), Some((3.0, 1)));
        assert_eq!(q.peek(|_| true).unwrap().time, 7.0);
    }

    #[test]
    fn delivery_replaces_the_key_with_the_next_head() {
        // entry 0 holds three events, entry 1 one event between them:
        // pops interleave across lists in (time, seq) order, and the
        // queue never holds more than one key per list
        let mut lists = Lists::with_entries(2);
        let mut q = EventQueue::default();
        for (entry, time, seq) in [(0, 1.0, 0), (0, 3.0, 1), (1, 2.0, 2), (0, 3.0, 3)] {
            if let Some(k) = lists.append(entry, time, seq) {
                q.push(k);
            }
        }
        assert_eq!(q.len(), 2);
        let popped: Vec<_> =
            std::iter::from_fn(|| q.pop_at_or_before(f64::INFINITY, |k| lists.take(k))).collect();
        assert_eq!(popped, vec![(1.0, 0), (2.0, 2), (3.0, 1), (3.0, 3)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_keys_are_skipped_and_uncounted() {
        let mut lists = Lists::with_entries(4);
        let mut q = EventQueue::default();
        for s in 0..4u64 {
            q.push(lists.append(s as usize, s as f64, s).unwrap());
        }
        // a second event behind entry 1's head: cancelling it leaves the
        // head's key live
        assert!(lists.append(1, 5.0, 4).is_none());
        assert_eq!(lists.cancel_tail(1), Some((5.0, 4, false)));
        // cancelling the only events of entries 0 and 2 empties them
        for entry in [0, 2] {
            assert_eq!(lists.cancel_tail(entry).map(|c| c.2), Some(true));
            assert!(!q.cancel(|k| lists.live(k)));
        }
        assert_eq!((q.len(), q.live()), (4, 2));
        // refilling entry 0 pushes a new head key; the old one stays stale
        q.push(lists.append(0, 6.0, 5).unwrap());
        assert_eq!((q.len(), q.live()), (5, 3));
        assert_eq!(q.peek(|k| lists.live(k)).unwrap().seq, 1);
        assert_eq!((q.len(), q.live()), (4, 3), "peek dropped the stale top");
        let mut pop = |t| q.pop_at_or_before(t, |k| lists.take(k));
        assert_eq!(pop(9.0), Some((1.0, 1)));
        assert_eq!(pop(9.0), Some((3.0, 3)));
        assert_eq!(pop(9.0), Some((6.0, 5)));
        assert!(pop(9.0).is_none());
        assert_eq!(q.len(), 0);
    }

    /// Every cancel keeps the heap within twice the live keys plus one,
    /// even when everything pushed is cancelled.
    #[test]
    fn heap_stays_within_twice_live_plus_one() {
        const ENTRIES: usize = 16;
        let mut lists = Lists::with_entries(ENTRIES);
        let mut q = EventQueue::default();
        let mut compactions = 0;
        for s in 0..2000u64 {
            let entry = (s as usize * 7) % ENTRIES;
            if let Some(k) = lists.append(entry, 1000.0 - (s % 700) as f64, s) {
                q.push(k);
            }
            // cancel four of every five events, each at the tail of the
            // lowest non-empty entry
            if s % 5 != 0 {
                let victim = (0..ENTRIES).find(|&e| !lists.0[e].is_empty()).unwrap();
                let (_, _, emptied) = lists.cancel_tail(victim).unwrap();
                if emptied && q.cancel(|k| lists.live(k)) {
                    compactions += 1;
                    assert_eq!(q.len(), q.live());
                }
                assert_eq!(q.live(), lists.non_empty());
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

    /// Number of lists in the oracle test: few, so cancels empty lists
    /// (and stale keys pile up) often.
    const ORACLE_ENTRIES: usize = 4;

    #[derive(Debug, Clone)]
    enum Op {
        /// Appends to this entry's list, at this time or its tail's.
        Push(usize, f64),
        /// Cancels the tail of the non-empty list at this index (mod
        /// the non-empty count).
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
                0..=2 => Op::Push(x as usize % ORACLE_ENTRIES, t),
                3..=5 => Op::Cancel(x as usize),
                6 => Op::Pop,
                _ => Op::PopAtOrBefore(t),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push / cancel / pop / `pop_at_or_before` sequences over
        /// per-entry lists, against a sorted-`Vec` oracle of every
        /// pending event.
        #[test]
        fn matches_sorted_vec_oracle(ops in proptest::collection::vec(op(), 1..400)) {
            let mut q = EventQueue::default();
            let mut lists = Lists::with_entries(ORACLE_ENTRIES);
            // pending events, sorted descending by (time, seq): min at
            // the back
            let mut oracle: Vec<(f64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut compactions = 0;
            for op in ops {
                match op {
                    Op::Push(entry, t) => {
                        if let Some(k) = lists.append(entry, t, seq) {
                            q.push(k);
                        }
                        oracle.push(*lists.0[entry].back().unwrap());
                        oracle.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
                        seq += 1;
                    }
                    Op::Cancel(i) => {
                        let non_empty: Vec<usize> =
                            (0..ORACLE_ENTRIES).filter(|&e| !lists.0[e].is_empty()).collect();
                        if non_empty.is_empty() {
                            continue;
                        }
                        let (_, s, emptied) =
                            lists.cancel_tail(non_empty[i % non_empty.len()]).unwrap();
                        oracle.retain(|&(_, o)| o != s);
                        if emptied && q.cancel(|k| lists.live(k)) {
                            compactions += 1;
                            prop_assert_eq!(q.len(), lists.non_empty());
                        }
                        prop_assert!(q.len() <= 2 * q.live() + 1);
                    }
                    Op::Pop => {
                        let got = q.pop_at_or_before(f64::INFINITY, |k| lists.take(k));
                        prop_assert_eq!(got, oracle.pop());
                    }
                    Op::PopAtOrBefore(t) => {
                        let got = q.pop_at_or_before(t, |k| lists.take(k));
                        let want = match oracle.last() {
                            Some(&(time, _)) if time <= t => oracle.pop(),
                            _ => None,
                        };
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(q.live(), lists.non_empty());
                let top = q.peek(|k| lists.live(k));
                prop_assert_eq!(top.map(|k| (k.time, k.seq)), oracle.last().copied());
            }
            // long sequences must cross the compaction threshold often
            prop_assert!(seq < 100 || compactions >= 10, "{} compactions", compactions);
        }
    }
}
