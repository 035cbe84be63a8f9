//! Deterministic time-ordered event queue.
//!
//! A thin wrapper over a binary heap that orders events by `(time, seq)`
//! where `seq` is a monotone push counter. Two events scheduled for the same
//! virtual instant therefore fire in the order they were scheduled,
//! independent of heap internals — the property that makes every experiment
//! in this repository reproducible.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-queue of `(time, payload)` with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Nanos, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// The firing time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event if it fires at or before `now`.
    pub fn pop_due(&mut self, now: Nanos) -> Option<(Nanos, E)> {
        if self.heap.peek().is_some_and(|e| e.time <= now) {
            let e = self.heap.pop().expect("peeked entry present");
            Some((e.time, e.payload))
        } else {
            None
        }
    }

    /// Pop the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// An [`EventQueue`] behind the shard-taking signatures `mccsbench`
/// (frozen under `mccsbench/`, its only caller) still uses: the shard
/// argument is ignored, so its `sim.eventq_ns_per_event` probe measures
/// the queue the world actually runs on.
pub struct ShardedEventQueue<E>(EventQueue<E>);

impl<E> ShardedEventQueue<E> {
    /// An empty queue (`n` is ignored).
    pub fn new(_n: usize) -> Self {
        ShardedEventQueue(EventQueue::new())
    }

    /// [`EventQueue::schedule`] (`shard` is ignored).
    pub fn schedule_on(&mut self, _shard: usize, at: Nanos, payload: E) {
        self.0.schedule(at, payload);
    }

    /// [`EventQueue::next_time`].
    pub fn next_time(&self) -> Option<Nanos> {
        self.0.next_time()
    }

    /// [`EventQueue::pop_due`].
    pub fn pop_due(&mut self, now: Nanos) -> Option<(Nanos, E)> {
        self.0.pop_due(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), "c");
        q.schedule(Nanos(10), "a");
        q.schedule(Nanos(20), "b");
        assert_eq!(q.pop(), Some((Nanos(10), "a")));
        assert_eq!(q.pop(), Some((Nanos(20), "b")));
        assert_eq!(q.pop(), Some((Nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), ());
        q.schedule(Nanos(20), ());
        assert_eq!(q.pop_due(Nanos(5)), None);
        assert_eq!(q.pop_due(Nanos(10)), Some((Nanos(10), ())));
        assert_eq!(q.pop_due(Nanos(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_peeks() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(Nanos(42), ());
        assert_eq!(q.next_time(), Some(Nanos(42)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }
}
