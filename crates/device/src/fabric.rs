//! The device fabric: every GPU, stream and event in the cluster, advanced
//! together in virtual time.
//!
//! [`DeviceFabric`] is the single authority the engines talk to:
//! allocation (through [`crate::memory::MemoryTable`]), stream creation and
//! op submission, event queries, and time advancement. `advance_to`
//! completes timed ops in timestamp order and immediately re-dispatches
//! unblocked streams (an event record can unblock waits on other streams at
//! the same instant), so cross-stream dependency chains resolve without
//! time-stepping.

use crate::alloc::GpuAllocator;
use crate::config::{KERNEL_LAUNCH_OVERHEAD, MEMORY_CAPACITY};
use crate::memory::{DevicePtr, MemError, MemHandle, MemoryTable};
use crate::stream::{EventId, EventState, QueuedOp, Stream, StreamId, StreamOp};
use mccs_sim::{Bytes, Nanos, SlotSet};
use mccs_topology::GpuId;

/// Completion notices drained from [`DeviceFabric::advance_to`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceNotification {
    /// A timed op carrying a non-zero token finished.
    OpDone {
        /// The stream it ran on.
        stream: StreamId,
        /// The token supplied at enqueue.
        token: u64,
        /// Completion time.
        at: Nanos,
    },
    /// An event-record op executed.
    EventRecorded {
        /// The recorded event.
        event: EventId,
        /// Record time.
        at: Nanos,
    },
}

/// All simulated GPUs of the cluster.
pub struct DeviceFabric {
    allocators: Vec<GpuAllocator>,
    memory: MemoryTable,
    streams: Vec<Stream>,
    events: Vec<EventState>,
    clock: Nanos,
    pending: Vec<DeviceNotification>,
    /// Streams blocked at an event wait, indexed by event id and
    /// re-dispatched when the event is recorded (keeps dispatch
    /// O(affected streams), not O(all streams)).
    waiters: Vec<Vec<usize>>,
    /// Timed-op finish times, kept as a min-set for O(1)-ish next_time.
    running_finishes: std::collections::BTreeMap<(Nanos, usize), ()>,
    /// GPUs with a stream that recorded an event since the last drain by
    /// [`Self::pop_recorded_gpu`]: what a wait on an event depends on.
    recorded_gpus: SlotSet,
    /// Streams whose running op completed, or that a record unblocked,
    /// since the last drain by [`Self::pop_touched_stream`]: the only ways
    /// a stream drains without its owner enqueueing to it.
    touched_streams: SlotSet,
    /// Dispatch work list, kept so an enqueue allocates nothing.
    work: Vec<usize>,
}

impl DeviceFabric {
    /// A fabric of `gpu_count` GPUs of [`MEMORY_CAPACITY`] each.
    pub fn new(gpu_count: usize) -> Self {
        let allocators = (0..gpu_count)
            .map(|_| GpuAllocator::new(MEMORY_CAPACITY))
            .collect();
        DeviceFabric {
            allocators,
            memory: MemoryTable::new(),
            streams: Vec::new(),
            events: Vec::new(),
            clock: Nanos::ZERO,
            pending: Vec::new(),
            waiters: Vec::new(),
            running_finishes: std::collections::BTreeMap::new(),
            recorded_gpus: SlotSet::new(),
            touched_streams: SlotSet::new(),
            work: Vec::new(),
        }
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.allocators.len()
    }

    /// Time up to which all streams have been advanced.
    pub fn now(&self) -> Nanos {
        self.clock
    }

    // ---- memory -----------------------------------------------------------

    /// Allocate `size` bytes on `gpu`, returning an IPC-shareable handle
    /// (the frontend-engine path of §4.1).
    pub fn alloc(&mut self, gpu: GpuId, size: Bytes) -> Result<MemHandle, MemError> {
        let allocator = &mut self.allocators[gpu.index()];
        self.memory.alloc(gpu, allocator, size)
    }

    /// Free a handle's allocation.
    pub fn free(&mut self, handle: MemHandle) -> Result<(), MemError> {
        let gpu = self.memory.gpu_of(handle)?;
        let allocator = &mut self.allocators[gpu.index()];
        self.memory.free(handle, allocator)
    }

    /// Open a handle into a device pointer (shim side).
    pub fn open(&self, handle: MemHandle) -> Result<DevicePtr, MemError> {
        self.memory.open(handle)
    }

    /// Validate `(handle, offset, len)` and resolve the device pointer
    /// (service side, before every collective).
    pub fn validate(
        &self,
        handle: MemHandle,
        offset: u64,
        len: u64,
    ) -> Result<DevicePtr, MemError> {
        self.memory.validate(handle, offset, len)
    }

    /// Device memory in use on `gpu`.
    pub fn used_memory(&self, gpu: GpuId) -> Bytes {
        Bytes::new(self.allocators[gpu.index()].used())
    }

    // ---- streams & events ---------------------------------------------------

    /// Create a stream bound to `gpu`.
    pub fn create_stream(&mut self, gpu: GpuId) -> StreamId {
        assert!(gpu.index() < self.allocators.len(), "unknown GPU {gpu}");
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream::new(gpu));
        id
    }

    /// Create a shareable event.
    pub fn create_event(&mut self) -> EventId {
        let id = EventId(self.events.len() as u64);
        self.events.push(EventState::default());
        self.waiters.push(Vec::new());
        id
    }

    /// Enqueue an op. Zero-duration ops that are immediately runnable
    /// (records, satisfied waits) execute inline at the current clock.
    pub fn enqueue(&mut self, stream: StreamId, op: StreamOp) {
        let queued = match op {
            StreamOp::Kernel { duration, token } => QueuedOp::Timed { duration, token },
            StreamOp::Transfer {
                bytes,
                bandwidth,
                token,
            } => QueuedOp::Timed {
                duration: KERNEL_LAUNCH_OVERHEAD + bandwidth.transfer_time(bytes),
                token,
            },
            StreamOp::RecordEvent(ev) => {
                self.events[ev.0 as usize].enqueued += 1;
                QueuedOp::Record(ev)
            }
            StreamOp::WaitEvent(ev) => QueuedOp::WaitUntil {
                event: ev,
                target_generation: self.events[ev.0 as usize].enqueued,
            },
        };
        self.streams[stream.0 as usize].queue.push_back(queued);
        let mut work = std::mem::take(&mut self.work);
        work.push(stream.0 as usize);
        self.dispatch_streams(&mut work);
        self.work = work;
    }

    /// When (and whether) an event has been recorded.
    pub fn event_time(&self, event: EventId) -> Option<Nanos> {
        self.events[event.0 as usize].last_at
    }

    /// Whether a stream has drained completely.
    pub fn stream_idle(&self, stream: StreamId) -> bool {
        self.streams[stream.0 as usize].is_idle()
    }

    /// Take the lowest GPU on which an event was recorded (inline or
    /// after a completion) since it was last taken. Popping until `None`
    /// drains the set in ascending order; the caller turns each GPU into
    /// a wake signal.
    pub fn pop_recorded_gpu(&mut self) -> Option<u32> {
        self.recorded_gpus.pop_first().map(|gpu| gpu as u32)
    }

    /// Take the lowest stream whose op completed (silently or not), or
    /// that an event record unblocked, since it was last taken; drained
    /// like [`Self::pop_recorded_gpu`]. An enqueue does not count for the
    /// stream it targets: whoever enqueues already knows.
    pub fn pop_touched_stream(&mut self) -> Option<StreamId> {
        self.touched_streams.pop_first().map(|s| StreamId(s as u32))
    }

    // ---- time ---------------------------------------------------------------

    /// Earliest pending timed-op completion, if any.
    pub fn next_time(&self) -> Option<Nanos> {
        self.running_finishes.keys().next().map(|&(t, _)| t)
    }

    /// Advance to `target`, completing every timed op that finishes at or
    /// before it (in time order) and executing any ops those completions
    /// unblock. Returns notifications in occurrence order.
    pub fn advance_to(&mut self, target: Nanos) -> Vec<DeviceNotification> {
        assert!(target >= self.clock, "device time went backwards");
        loop {
            match self.next_time() {
                Some(t) if t <= target => {
                    self.clock = t;
                    // Complete every stream whose op finishes exactly at t.
                    let mut finished = std::mem::take(&mut self.work);
                    while let Some((&(ft, i), ())) =
                        self.running_finishes.iter().next().map(|(k, v)| (k, *v))
                    {
                        if ft > t {
                            break;
                        }
                        self.running_finishes.remove(&(ft, i));
                        let (token, _) =
                            self.streams[i].running.take().expect("indexed running op");
                        if token != 0 {
                            self.pending.push(DeviceNotification::OpDone {
                                stream: StreamId(i as u32),
                                token,
                                at: t,
                            });
                        }
                        self.touched_streams.insert(i);
                        finished.push(i);
                    }
                    self.dispatch_streams(&mut finished);
                    self.work = finished;
                }
                _ => break,
            }
        }
        self.clock = target;
        std::mem::take(&mut self.pending)
    }

    /// Run the given streams' head ops as far as possible at the current
    /// clock: start timed ops, execute records (which re-dispatch streams
    /// blocked on the recorded event). Work-list driven so cost is
    /// proportional to affected streams only.
    fn dispatch_streams(&mut self, work: &mut Vec<usize>) {
        while let Some(i) = work.pop() {
            while self.streams[i].running.is_none() {
                let Some(&head) = self.streams[i].queue.front() else {
                    break;
                };
                match head {
                    QueuedOp::Timed { duration, token } => {
                        self.streams[i].queue.pop_front();
                        let finish = self.clock + duration;
                        self.streams[i].running = Some((token, finish));
                        self.running_finishes.insert((finish, i), ());
                        break; // the stream is now busy
                    }
                    QueuedOp::Record(ev) => {
                        self.streams[i].queue.pop_front();
                        let e = &mut self.events[ev.0 as usize];
                        e.completed += 1;
                        e.last_at = Some(self.clock);
                        self.pending.push(DeviceNotification::EventRecorded {
                            event: ev,
                            at: self.clock,
                        });
                        self.recorded_gpus.insert(self.streams[i].gpu.index());
                        let unblocked = &mut self.waiters[ev.0 as usize];
                        for &s in unblocked.iter() {
                            self.touched_streams.insert(s);
                        }
                        work.append(unblocked);
                    }
                    QueuedOp::WaitUntil {
                        event,
                        target_generation,
                    } => {
                        if self.events[event.0 as usize].satisfied(target_generation) {
                            self.streams[i].queue.pop_front();
                        } else {
                            // blocked: wake us when the event is recorded
                            let ws = &mut self.waiters[event.0 as usize];
                            if !ws.contains(&i) {
                                ws.push(i);
                            }
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_sim::Bandwidth;

    fn fabric() -> DeviceFabric {
        DeviceFabric::new(2)
    }

    fn kernel(us: u64, token: u64) -> StreamOp {
        StreamOp::Kernel {
            duration: Nanos::from_micros(us),
            token,
        }
    }

    /// Drain both wake sets: `(GPUs that recorded, streams touched)`.
    fn woken(f: &mut DeviceFabric) -> (Vec<u32>, Vec<StreamId>) {
        let gpus = std::iter::from_fn(|| f.pop_recorded_gpu()).collect();
        (
            gpus,
            std::iter::from_fn(|| f.pop_touched_stream()).collect(),
        )
    }

    #[test]
    fn only_completions_unblocks_and_records_wake() {
        let mut f = fabric();
        let (a, b) = (f.create_stream(GpuId(0)), f.create_stream(GpuId(1)));
        let ev = f.create_event();
        // Starting a kernel and queueing a record behind it wake no one:
        // whoever enqueued knows.
        f.enqueue(a, kernel(10, 0));
        f.enqueue(a, StreamOp::RecordEvent(ev));
        f.enqueue(b, StreamOp::WaitEvent(ev));
        assert_eq!(woken(&mut f), (vec![], vec![]));
        // The kernel completes: its stream is touched, the record runs on
        // GPU 0 and unblocks the waiter on GPU 1.
        f.advance_to(Nanos::from_micros(10));
        assert_eq!(woken(&mut f), (vec![0], vec![a, b]));
        // An inline record on an idle stream wakes its GPU's event waiters.
        f.enqueue(b, StreamOp::RecordEvent(ev));
        assert_eq!(woken(&mut f), (vec![1], vec![]));
    }

    #[test]
    fn kernels_run_in_order_on_a_stream() {
        let mut f = fabric();
        let s = f.create_stream(GpuId(0));
        f.enqueue(s, kernel(10, 1));
        f.enqueue(s, kernel(5, 2));
        assert_eq!(f.next_time(), Some(Nanos::from_micros(10)));
        let notes = f.advance_to(Nanos::from_micros(20));
        assert_eq!(
            notes,
            vec![
                DeviceNotification::OpDone {
                    stream: s,
                    token: 1,
                    at: Nanos::from_micros(10)
                },
                DeviceNotification::OpDone {
                    stream: s,
                    token: 2,
                    at: Nanos::from_micros(15)
                },
            ]
        );
        assert!(f.stream_idle(s));
    }

    #[test]
    fn streams_run_concurrently() {
        let mut f = fabric();
        let s1 = f.create_stream(GpuId(0));
        let s2 = f.create_stream(GpuId(1));
        f.enqueue(s1, kernel(10, 1));
        f.enqueue(s2, kernel(10, 2));
        let notes = f.advance_to(Nanos::from_micros(10));
        assert_eq!(notes.len(), 2);
        // both finished at 10us — parallel, not serialized
        assert!(notes.iter().all(
            |n| matches!(n, DeviceNotification::OpDone { at, .. } if *at == Nanos::from_micros(10))
        ));
    }

    #[test]
    fn event_orders_across_streams() {
        let mut f = fabric();
        let producer = f.create_stream(GpuId(0));
        let consumer = f.create_stream(GpuId(1));
        let ev = f.create_event();
        // consumer waits first (wait enqueued BEFORE the record exists is
        // satisfied immediately per CUDA semantics — so use the ordering
        // record-then-wait that the shim actually performs).
        f.enqueue(producer, kernel(50, 0));
        f.enqueue(producer, StreamOp::RecordEvent(ev));
        f.enqueue(consumer, StreamOp::WaitEvent(ev));
        f.enqueue(consumer, kernel(10, 9));
        let notes = f.advance_to(Nanos::from_millis(1));
        // consumer's kernel starts only after producer's 50us kernel.
        assert!(notes.contains(&DeviceNotification::OpDone {
            stream: consumer,
            token: 9,
            at: Nanos::from_micros(60),
        }));
        assert_eq!(f.event_time(ev), Some(Nanos::from_micros(50)));
    }

    #[test]
    fn wait_on_unrecorded_event_is_noop() {
        let mut f = fabric();
        let s = f.create_stream(GpuId(0));
        let ev = f.create_event();
        f.enqueue(s, StreamOp::WaitEvent(ev));
        f.enqueue(s, kernel(5, 3));
        let notes = f.advance_to(Nanos::from_micros(5));
        assert_eq!(
            notes.len(),
            1,
            "wait on never-recorded event must not block"
        );
    }

    #[test]
    fn wait_captures_generation_at_enqueue() {
        let mut f = fabric();
        let a = f.create_stream(GpuId(0));
        let b = f.create_stream(GpuId(1));
        let ev = f.create_event();
        // Record enqueued on a busy stream; the wait enqueued AFTER that
        // record must see THAT record, not an earlier state.
        f.enqueue(a, kernel(100, 0));
        f.enqueue(a, StreamOp::RecordEvent(ev));
        f.enqueue(b, StreamOp::WaitEvent(ev));
        f.enqueue(b, kernel(1, 7));
        let notes = f.advance_to(Nanos::from_micros(50));
        assert!(notes.is_empty(), "b must still be blocked at 50us");
        let notes = f.advance_to(Nanos::from_micros(101));
        assert!(notes.iter().any(|n| matches!(
            n,
            DeviceNotification::OpDone { token: 7, at, .. } if *at == Nanos::from_micros(101)
        )));
    }

    #[test]
    fn transfer_duration_from_bandwidth() {
        let mut f = DeviceFabric::new(1);
        let s = f.create_stream(GpuId(0));
        let bandwidth = Bandwidth::gibytes_per_sec(1.0);
        f.enqueue(
            s,
            StreamOp::Transfer {
                bytes: Bytes::mib(1),
                bandwidth,
                token: 1,
            },
        );
        let notes = f.advance_to(Nanos::from_secs(1));
        let DeviceNotification::OpDone { at, .. } = notes[0] else {
            panic!("expected OpDone")
        };
        // 1 MiB at 1 GB/s is ~1.05 ms, after the launch overhead.
        assert_eq!(
            at,
            KERNEL_LAUNCH_OVERHEAD + bandwidth.transfer_time(Bytes::mib(1))
        );
        assert!((0.9..1.1).contains(&at.as_millis_f64()));
    }

    #[test]
    fn memory_roundtrip_through_fabric() {
        let mut f = fabric();
        let h = f.alloc(GpuId(1), Bytes::mib(4)).expect("fits");
        assert_eq!(f.used_memory(GpuId(1)), Bytes::mib(4));
        assert_eq!(f.used_memory(GpuId(0)), Bytes::ZERO);
        let p = f.open(h).expect("live");
        assert_eq!(p.gpu, GpuId(1));
        f.validate(h, 0, Bytes::mib(4).as_u64())
            .expect("whole range");
        assert!(f.validate(h, 1, Bytes::mib(4).as_u64()).is_err());
        f.free(h).expect("live");
        assert_eq!(f.used_memory(GpuId(1)), Bytes::ZERO);
    }

    #[test]
    fn silent_tokens_produce_no_notifications() {
        let mut f = fabric();
        let s = f.create_stream(GpuId(0));
        f.enqueue(s, kernel(10, 0));
        let notes = f.advance_to(Nanos::from_micros(10));
        assert!(notes.is_empty());
        assert!(f.stream_idle(s));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_time_reversal() {
        let mut f = fabric();
        f.advance_to(Nanos::from_secs(1));
        f.advance_to(Nanos::from_millis(1));
    }

    #[test]
    fn chained_events_three_streams() {
        let mut f = DeviceFabric::new(3);
        let s: Vec<_> = (0..3).map(|i| f.create_stream(GpuId(i as u32))).collect();
        let e01 = f.create_event();
        let e12 = f.create_event();
        f.enqueue(s[0], kernel(10, 0));
        f.enqueue(s[0], StreamOp::RecordEvent(e01));
        f.enqueue(s[1], StreamOp::WaitEvent(e01));
        f.enqueue(s[1], kernel(10, 0));
        f.enqueue(s[1], StreamOp::RecordEvent(e12));
        f.enqueue(s[2], StreamOp::WaitEvent(e12));
        f.enqueue(s[2], kernel(10, 5));
        let notes = f.advance_to(Nanos::from_millis(1));
        assert!(notes.contains(&DeviceNotification::OpDone {
            stream: s[2],
            token: 5,
            at: Nanos::from_micros(30),
        }));
    }
}
