//! Streams and events.
//!
//! A stream is an in-order queue of device operations, as in CUDA: an op
//! starts only when its predecessor finished. Events are the shareable
//! synchronization primitive: recording an event on stream A and waiting on
//! it from stream B orders B's subsequent ops after A's prior ops — across
//! process boundaries, which is exactly how the MCCS shim and service
//! synchronize (§4.1: streams cannot be shared between processes, events
//! can).
//!
//! Event semantics follow CUDA: a `wait` enqueued *before* any `record`
//! of the event completes immediately; otherwise it waits for the latest
//! `record` enqueued at the time the wait was issued.

use mccs_sim::{Bandwidth, Bytes, Nanos};
use mccs_topology::GpuId;
use std::collections::VecDeque;

/// Identifies a stream within a [`crate::DeviceFabric`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u32);

/// Identifies a shareable event within a [`crate::DeviceFabric`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u64);

/// An operation enqueued on a stream.
#[derive(Clone, Copy, Debug)]
pub enum StreamOp {
    /// A compute kernel with an explicit duration (profiled compute phases
    /// of the workload traces).
    Kernel {
        /// Execution time.
        duration: Nanos,
        /// Completion token reported when the op finishes (0 = silent).
        token: u64,
    },
    /// An intra-host channel transfer (shared-memory / NVLink-class).
    Transfer {
        /// Payload size.
        bytes: Bytes,
        /// Channel bandwidth.
        bandwidth: Bandwidth,
        /// Completion token reported when the op finishes (0 = silent).
        token: u64,
    },
    /// Record an event: completes instantly once reached, marking the event.
    RecordEvent(EventId),
    /// Block the stream until the event's captured generation is recorded.
    WaitEvent(EventId),
}

/// Internal form: waits capture the record generation they must see.
#[derive(Clone, Copy, Debug)]
pub(crate) enum QueuedOp {
    Timed {
        duration: Nanos,
        token: u64,
    },
    Record(EventId),
    WaitUntil {
        event: EventId,
        target_generation: u64,
    },
}

/// One event's bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EventState {
    /// Record ops enqueued so far (generation counter).
    pub enqueued: u64,
    /// Record ops executed so far.
    pub completed: u64,
    /// When the latest record executed.
    pub last_at: Option<Nanos>,
}

impl EventState {
    /// Whether a wait captured at `target` is satisfied.
    pub fn satisfied(&self, target: u64) -> bool {
        self.completed >= target
    }
}

/// One in-order operation queue bound to a GPU.
#[derive(Debug)]
pub(crate) struct Stream {
    pub gpu: GpuId,
    pub queue: VecDeque<QueuedOp>,
    /// The in-flight timed op, if any: (token, finish time).
    pub running: Option<(u64, Nanos)>,
}

impl Stream {
    pub fn new(gpu: GpuId) -> Self {
        Stream {
            gpu,
            queue: VecDeque::new(),
            running: None,
        }
    }

    /// Whether the stream has no queued or running work.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_generation_satisfaction() {
        let mut e = EventState::default();
        assert!(e.satisfied(0), "never-recorded events satisfy zero targets");
        assert!(!e.satisfied(1));
        e.enqueued = 1;
        assert!(!e.satisfied(1), "enqueued but not executed");
        e.completed = 1;
        assert!(e.satisfied(1));
        assert!(!e.satisfied(2));
    }

    #[test]
    fn stream_idleness() {
        let mut s = Stream::new(GpuId(0));
        assert!(s.is_idle());
        s.queue.push_back(QueuedOp::Record(EventId(0)));
        assert!(!s.is_idle());
        s.queue.pop_front();
        s.running = Some((0, Nanos::from_micros(1)));
        assert!(!s.is_idle());
    }
}
