//! Latency-modeled SPSC queues.
//!
//! A [`LatencyQueue`] delivers items in FIFO order, each becoming visible
//! to the consumer `latency` after it was pushed — the virtual-time model
//! of a shared-memory ring buffer polled by an engine on another core.
//! Bounded capacity models back-pressure: a full queue rejects pushes and
//! the producer must retry on a later poll, exactly how the shim behaves
//! when the service falls behind.

use mccs_sim::Nanos;
use std::collections::VecDeque;

/// A FIFO queue whose items take time to become visible.
#[derive(Debug)]
pub struct LatencyQueue<T> {
    items: VecDeque<(Nanos, T)>,
    capacity: usize,
}

impl<T> LatencyQueue<T> {
    /// An empty queue holding at most `capacity` in-flight items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        LatencyQueue {
            items: VecDeque::new(),
            capacity,
        }
    }

    /// Push at time `now` with visibility delay `latency`. Returns the item
    /// back on a full queue (back-pressure).
    ///
    /// FIFO is preserved even with heterogeneous latencies: an item is
    /// never delivered before its predecessor (visibility times are clamped
    /// monotone).
    pub fn push(&mut self, now: Nanos, latency: Nanos, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        let mut visible_at = now + latency;
        if let Some(&(prev, _)) = self.items.back() {
            visible_at = visible_at.max(prev);
        }
        self.items.push_back((visible_at, item));
        Ok(())
    }

    /// Pop the head if it is visible at `now`.
    pub fn pop(&mut self, now: Nanos) -> Option<T> {
        if self.items.front().is_some_and(|&(t, _)| t <= now) {
            self.items.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Peek the head if visible.
    pub fn peek(&self, now: Nanos) -> Option<&T> {
        self.items
            .front()
            .and_then(|(t, item)| (*t <= now).then_some(item))
    }

    /// When the next item becomes visible (`None` when empty). Drives the
    /// simulation's wake-up scheduling.
    pub fn next_visible(&self) -> Option<Nanos> {
        self.items.front().map(|&(t, _)| t)
    }

    /// Items in flight (visible or not).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_invisible_until_latency_elapses() {
        let mut q = LatencyQueue::new(8);
        q.push(Nanos::ZERO, Nanos::from_micros(20), "a")
            .expect("room");
        assert_eq!(q.pop(Nanos::from_micros(19)), None);
        assert_eq!(q.peek(Nanos::from_micros(20)), Some(&"a"));
        assert_eq!(q.pop(Nanos::from_micros(20)), Some("a"));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_preserved_despite_latency_inversion() {
        let mut q = LatencyQueue::new(8);
        q.push(Nanos::ZERO, Nanos::from_micros(50), 1)
            .expect("room");
        // pushed later with a shorter latency — must still arrive second
        q.push(Nanos::from_micros(10), Nanos::from_micros(10), 2)
            .expect("room");
        assert_eq!(q.pop(Nanos::from_micros(49)), None);
        assert_eq!(q.pop(Nanos::from_micros(50)), Some(1));
        assert_eq!(q.pop(Nanos::from_micros(50)), Some(2));
    }

    #[test]
    fn backpressure_on_full_queue() {
        let mut q = LatencyQueue::new(2);
        q.push(Nanos::ZERO, Nanos::ZERO, 1).expect("room");
        q.push(Nanos::ZERO, Nanos::ZERO, 2).expect("room");
        assert_eq!(q.push(Nanos::ZERO, Nanos::ZERO, 3), Err(3));
        q.pop(Nanos::ZERO).expect("visible");
        q.push(Nanos::ZERO, Nanos::ZERO, 3).expect("room again");
    }

    #[test]
    fn next_visible_reports_head() {
        let mut q = LatencyQueue::new(4);
        assert_eq!(q.next_visible(), None);
        q.push(Nanos::from_micros(5), Nanos::from_micros(20), ())
            .expect("room");
        assert_eq!(q.next_visible(), Some(Nanos::from_micros(25)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        LatencyQueue::<()>::new(0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary push/pop schedules deliver every item exactly
            /// once, in push order, never before its visibility time.
            #[test]
            fn fifo_and_latency_always_hold(
                pushes in proptest::collection::vec((0u64..1000, 0u64..100), 1..50)
            ) {
                let mut q = LatencyQueue::new(64);
                let mut pushed = Vec::new();
                let mut t = Nanos::ZERO;
                for (i, &(gap, lat)) in pushes.iter().enumerate() {
                    t += Nanos::from_micros(gap);
                    q.push(t, Nanos::from_micros(lat), i).expect("large capacity");
                    pushed.push((t, Nanos::from_micros(lat)));
                }
                // drain at +10ms
                let end = t + Nanos::from_millis(10);
                let mut got = Vec::new();
                while let Some(x) = q.pop(end) {
                    got.push(x);
                }
                prop_assert_eq!(got, (0..pushes.len()).collect::<Vec<_>>());
            }
        }
    }
}
