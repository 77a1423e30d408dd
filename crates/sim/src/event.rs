//! Deterministic discrete-event queue.
//!
//! A binary min-heap keyed by [`SimTime`], with a monotonically increasing
//! sequence number breaking ties, so that events scheduled for the same
//! instant pop in FIFO order. This is what makes whole-system runs exactly
//! reproducible across machines and runs. The run loop keeps about one
//! event pending per running warp, plus the driver's, so the heap stays
//! small and its `O(log n)` sifts are cheap.
//!
//! A fault replay wakes every blocked warp at once, and almost every woken
//! warp steps once and blocks again. Those wakes arrive together through
//! [`EventQueue::schedule_run`]: they are sorted once into a *wake run*,
//! and [`EventQueue::pop`] merges the run's front with the heap's top, so
//! a replay costs one sort instead of a heap push and pop per warp. Which
//! of the two holds an entry never shows: pops follow `(at, seq)` alone.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event queue over an arbitrary payload type `E`.
///
/// ```
/// use uvm_sim::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime(10), "b");
/// q.schedule(SimTime(5), "a");
/// q.schedule(SimTime(10), "c"); // same instant as "b": FIFO order
/// assert_eq!(q.pop(), Some((SimTime(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events, earliest `(at, seq)` on top.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Pending events of the wake run, sorted latest first: the earliest
    /// is at the end, where popping it is cheapest.
    run: Vec<Entry<E>>,
    seq: u64,
    now: SimTime,
}

/// A pending event, ordered by `(at, seq)` alone: `seq` is unique within a
/// queue, so the payload never takes part in a comparison.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one integer: comparing it takes no branch, which
    /// keeps the heap's sifts as fast as the run loop needs.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.0) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events before it
    /// has to grow.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            run: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into the
    /// past is always a simulator bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = self.entry(at, payload);
        self.heap.push(Reverse(entry));
    }

    /// Schedule every `(at, payload)` of `events`, each taking the next
    /// sequence number in turn, exactly as one [`Self::schedule`] call per
    /// event would: the pop order is the same. The events join the wake
    /// run, which is sorted once here (together with what is left of an
    /// earlier run) instead of sifting each event through the heap.
    ///
    /// # Panics
    ///
    /// Panics, like [`Self::schedule`], if an event lies before the clock.
    pub fn schedule_run(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        for (at, payload) in events {
            let entry = self.entry(at, payload);
            self.run.push(entry);
        }
        self.run.sort_unstable_by_key(|e| Reverse(e.key()));
    }

    /// A pending entry for `payload` at `at`, taking the next sequence
    /// number.
    #[inline]
    fn entry(&mut self, at: SimTime, payload: E) -> Entry<E> {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {now}",
            at = at.as_nanos(),
            now = self.now.as_nanos()
        );
        let seq = self.seq;
        self.seq += 1;
        Entry { at, seq, payload }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_run = match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => r.key() < h.key(),
            (r, _) => r.is_some(),
        };
        let entry = if from_run {
            self.run.pop()?
        } else {
            self.heap.pop()?.0
        };
        debug_assert!(entry.at >= self.now, "event queue went back in time");
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Peek at the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|Reverse(e)| e.at);
        match (self.run.last().map(|e| e.at), heap) {
            (Some(r), Some(h)) => Some(r.min(h)),
            (r, h) => r.or(h),
        }
    }

    /// The next sequence number this queue would assign.
    ///
    /// Part of a queue's snapshot state: restoring it keeps FIFO tie-breaking
    /// of future events identical to an uninterrupted run.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Rebuild a queue from snapshot state: the clock, the next sequence
    /// number, and the pending entries as `(time, seq, payload)` triples.
    ///
    /// Each entry keeps its original sequence number so that ties between
    /// pre-snapshot and post-restore events resolve exactly as they would
    /// have in the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Describes the first entry that lies in the past of `now`, carries a
    /// sequence number the restored counter would hand out again, or
    /// repeats another entry's sequence number: each means the snapshot is
    /// corrupt, and two entries with one sequence number would pop in an
    /// unspecified order.
    pub fn restore(
        now: SimTime,
        seq: u64,
        entries: Vec<(SimTime, u64, E)>,
    ) -> Result<Self, String> {
        let mut seqs = Vec::with_capacity(entries.len());
        for &(at, entry_seq, _) in &entries {
            if at < now {
                return Err(format!(
                    "pending event {entry_seq} at {} ns lies before the queue's clock {} ns",
                    at.as_nanos(),
                    now.as_nanos()
                ));
            }
            if entry_seq >= seq {
                return Err(format!(
                    "pending event seq {entry_seq} is not below the queue's seq {seq}"
                ));
            }
            seqs.push(entry_seq);
        }
        seqs.sort_unstable();
        if let Some(w) = seqs.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("two pending events share seq {}", w[0]));
        }
        let heap = entries
            .into_iter()
            .map(|(at, seq, payload)| Reverse(Entry { at, seq, payload }))
            .collect();
        Ok(EventQueue {
            heap,
            run: Vec::new(),
            seq,
            now,
        })
    }
}

impl<E: Clone> EventQueue<E> {
    /// The pending events as `(time, seq, payload)` triples, sorted in firing
    /// order. This is the queue's serializable snapshot form; feed it back to
    /// [`EventQueue::restore`] together with [`EventQueue::now`] and
    /// [`EventQueue::seq`].
    pub fn snapshot_entries(&self) -> Vec<(SimTime, u64, E)> {
        let mut out: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .map(|Reverse(e)| e)
            .chain(&self.run)
            .map(|e| (e.at, e.seq, e.payload.clone()))
            .collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), ());
        q.schedule(SimTime(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        q.pop();
        assert_eq!(q.now(), SimTime(9));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn snapshot_restore_preserves_order_and_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 0);
        q.schedule(SimTime(20), 1);
        q.schedule(SimTime(20), 2); // tie with 1: FIFO by seq
        q.schedule(SimTime(30), 3);
        q.pop(); // clock at 10, three pending

        let mut r = EventQueue::restore(q.now(), q.seq(), q.snapshot_entries()).expect("restores");
        assert_eq!(r.now(), SimTime(10));
        assert_eq!(r.seq(), 4);
        // A post-restore event at the same instant as pre-snapshot ties must
        // still pop after them, exactly as in the uninterrupted run.
        r.schedule(SimTime(20), 4);
        q.schedule(SimTime(20), 4);
        let drain = |q: &mut EventQueue<i32>| -> Vec<i32> {
            std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
        };
        assert_eq!(drain(&mut r), vec![1, 2, 4, 3]);
        assert_eq!(drain(&mut q), vec![1, 2, 4, 3]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), ());
        q.schedule(SimTime(3), ());
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn long_horizon_deadlines_cross_every_level() {
        // Deadlines spanning the full u64 range, from one nanosecond to the
        // top bit, pop in order: the queue has no horizon.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            63,
            64,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 1,
            1 << 35,
            (1 << 59) | 12345,
            1 << 60,
            u64::MAX - 1,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last = None;
        let mut popped = Vec::new();
        while let Some((at, i)) = q.pop() {
            assert!(last.is_none_or(|l| l <= at), "pops out of order");
            assert_eq!(q.now(), at);
            last = Some(at);
            popped.push((at.0, i));
        }
        let want: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        assert_eq!(popped, want);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_fifo_within_instants() {
        // Schedule more events at the *current* instant while earlier ones
        // at that instant are still pending: they must pop after them.
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), 0);
        q.schedule(SimTime(50), 1);
        assert_eq!(q.pop(), Some((SimTime(50), 0)));
        q.schedule(SimTime(50), 2);
        q.schedule(SimTime(51), 3);
        assert_eq!(q.pop(), Some((SimTime(50), 1)));
        assert_eq!(q.pop(), Some((SimTime(50), 2)));
        assert_eq!(q.pop(), Some((SimTime(51), 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn len_counts_drain_bucket_and_slots() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(5), i);
        }
        q.schedule(SimTime(1 << 40), 99);
        assert_eq!(q.len(), 11);
        q.pop(); // one of the ten ties
        assert_eq!(q.len(), 10);
        // A snapshot between ties still sees every pending event.
        assert_eq!(q.snapshot_entries().len(), 10);
        let restored =
            EventQueue::restore(q.now(), q.seq(), q.snapshot_entries()).expect("restores");
        assert_eq!(restored.len(), 10);
    }

    #[test]
    fn a_wake_run_pops_as_one_schedule_per_event_would() {
        // The same events through `schedule` and through `schedule_run`,
        // with heap entries tying the run's instants on both sides and a
        // second run landing while the first is still pending.
        let run1 = [(SimTime(30), 'a'), (SimTime(10), 'b'), (SimTime(30), 'c'), (SimTime(20), 'd')];
        let run2 = [(SimTime(25), 'e'), (SimTime(10), 'f')];
        let mut q = EventQueue::new();
        let mut model = EventQueue::new();
        for (at, e) in [(SimTime(10), 'x'), (SimTime(30), 'y')] {
            q.schedule(at, e);
            model.schedule(at, e);
        }
        q.schedule_run(run1);
        run1.into_iter().for_each(|(at, e)| model.schedule(at, e));
        assert_eq!((q.len(), q.peek_time()), (6, Some(SimTime(10))));
        assert_eq!(q.pop(), model.pop());
        q.schedule(SimTime(20), 'z');
        model.schedule(SimTime(20), 'z');
        q.schedule_run(run2);
        run2.into_iter().for_each(|(at, e)| model.schedule(at, e));
        assert_eq!(q.seq(), model.seq());
        assert_eq!(q.snapshot_entries(), model.snapshot_entries());
        let drain = |q: &mut EventQueue<char>| -> Vec<(SimTime, char)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        let got = drain(&mut q);
        assert_eq!(got, drain(&mut model));
        let order: String = got.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, "bfdzeyac");
        assert!(q.is_empty() && q.peek_time().is_none());
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn a_wake_run_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule_run([(SimTime(12), ()), (SimTime(5), ())]);
    }

    #[test]
    fn restore_at_late_clock_accepts_only_future() {
        let clock = SimTime(1_000_000);
        let far = vec![(clock, 3, "now"), (SimTime(1 << 45), 5, "far")];
        let q = EventQueue::restore(clock, 7, far).expect("restores");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(clock));
        let past = vec![(clock, 3, "now"), (SimTime(999_999), 5, "past")];
        let err = EventQueue::restore(clock, 7, past).expect_err("an event before the clock");
        assert_eq!(err, "pending event 5 at 999999 ns lies before the queue's clock 1000000 ns");
    }

    #[test]
    fn restore_refuses_seqs_the_queue_would_reuse_or_repeat() {
        let (at, later) = (SimTime(10), SimTime(20));
        for (entries, want) in [
            (vec![(at, 3, ()), (at, 7, ())], "pending event seq 7 is not below the queue's seq 7"),
            (vec![(at, 3, ()), (later, 9, ())], "pending event seq 9 is not below the queue's seq 7"),
            (vec![(at, 3, ()), (later, 1, ()), (at, 3, ())], "two pending events share seq 3"),
        ] {
            let err = EventQueue::restore(SimTime(5), 7, entries).expect_err(want);
            assert_eq!(err, want);
        }
    }
}
