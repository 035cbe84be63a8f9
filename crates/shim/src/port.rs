//! The tenant process's window onto its host.
//!
//! A tenant process can: talk to its command/completion queues, drive its
//! *own* CUDA streams and events, open memory handles the service issued,
//! and read the clock. It explicitly cannot: see the topology, other
//! tenants, or the service's internals — the isolation boundary the paper
//! builds MCCS around.

use mccs_device::{DevicePtr, EventId, MemHandle, StreamId};
use mccs_ipc::{ShimCommand, ShimCompletion};
use mccs_sim::{Nanos, Rng};

/// Host facilities available to one tenant rank process. Implemented by
/// the simulation harness in `mccs-core`.
pub trait ShimPort {
    /// Current virtual time.
    fn now(&self) -> Nanos;

    /// Push a command toward the service; `false` means the queue is full
    /// (retry on a later poll).
    fn try_push(&mut self, cmd: ShimCommand) -> bool;

    /// Pop the next visible completion, if any.
    fn try_pop(&mut self) -> Option<ShimCompletion>;

    /// Open an IPC memory handle into a device pointer
    /// (`cudaIpcOpenMemHandle`). `None` for unknown/freed handles.
    fn open_handle(&self, handle: MemHandle) -> Option<DevicePtr>;

    /// This rank's default compute stream.
    fn app_stream(&self) -> StreamId;

    /// Create an event this process may record/wait on and share.
    fn create_event(&mut self) -> EventId;

    /// Enqueue a compute kernel of `duration` on this rank's stream; the
    /// completion is observable via [`ShimPort::stream_idle`].
    fn enqueue_kernel(&mut self, stream: StreamId, duration: Nanos);

    /// Enqueue an event record on a stream.
    fn enqueue_record(&mut self, stream: StreamId, event: EventId);

    /// Enqueue an event wait on a stream.
    fn enqueue_wait(&mut self, stream: StreamId, event: EventId);

    /// Whether a stream has drained.
    fn stream_idle(&self, stream: StreamId) -> bool;

    /// When (and whether) an event was recorded.
    fn event_time(&self, event: EventId) -> Option<Nanos>;

    /// Tenant-local randomness (deterministic per rank).
    fn rng(&mut self) -> &mut Rng;

    /// Ask the host to re-poll this process at (or after) `at` — how a
    /// real process would arm a timer before sleeping.
    fn schedule_wake(&mut self, at: Nanos);
}

#[cfg(test)]
pub(crate) mod test_port {
    //! An in-memory `ShimPort` with a scriptable service side, used by the
    //! session/api/program unit tests without pulling in the full service.

    use super::*;
    use mccs_sim::Bytes;
    use std::collections::VecDeque;

    /// Loopback port: commands are answered by a tiny fake service.
    pub struct LoopbackPort {
        pub now: Nanos,
        pub sent: Vec<ShimCommand>,
        pub inbox: VecDeque<ShimCompletion>,
        pub full: bool,
        pub rng: Rng,
        pub auto_reply: bool,
        /// Instants passed to `schedule_wake`, in call order.
        pub wakes: Vec<Nanos>,
        /// When the app stream's last enqueued kernel ends.
        pub stream_busy_until: Nanos,
        next_handle: u64,
        next_event: u64,
        next_seq: u64,
    }

    impl LoopbackPort {
        pub fn new() -> Self {
            LoopbackPort {
                now: Nanos::ZERO,
                sent: Vec::new(),
                inbox: VecDeque::new(),
                full: false,
                rng: Rng::seed_from(7),
                auto_reply: true,
                next_handle: 100,
                next_event: 50,
                next_seq: 0,
                stream_busy_until: Nanos::ZERO,
                wakes: Vec::new(),
            }
        }

        fn reply(&mut self, cmd: &ShimCommand) {
            match *cmd {
                ShimCommand::MemAlloc { req, size, .. } => {
                    assert!(size > Bytes::ZERO);
                    let h = MemHandle(self.next_handle);
                    self.next_handle += 1;
                    self.inbox
                        .push_back(ShimCompletion::MemAlloc { req, handle: h });
                }
                ShimCommand::MemFree { req, .. } => {
                    self.inbox.push_back(ShimCompletion::MemFree { req });
                }
                ShimCommand::CommInit { req, comm, .. } => {
                    let ev = EventId(self.next_event);
                    self.next_event += 1;
                    self.inbox.push_back(ShimCompletion::CommInit {
                        req,
                        comm,
                        comm_event: ev,
                    });
                }
                ShimCommand::CommDestroy { req, .. } => {
                    self.inbox.push_back(ShimCompletion::CommDestroy { req });
                }
                ShimCommand::Collective { req, coll } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.inbox
                        .push_back(ShimCompletion::CollectiveLaunched { req, seq });
                    self.inbox.push_back(ShimCompletion::CollectiveDone {
                        comm: coll.comm,
                        seq,
                    });
                }
            }
        }
    }

    impl ShimPort for LoopbackPort {
        fn now(&self) -> Nanos {
            self.now
        }
        fn try_push(&mut self, cmd: ShimCommand) -> bool {
            if self.full {
                return false;
            }
            if self.auto_reply {
                self.reply(&cmd);
            }
            self.sent.push(cmd);
            true
        }
        fn try_pop(&mut self) -> Option<ShimCompletion> {
            self.inbox.pop_front()
        }
        fn open_handle(&self, handle: MemHandle) -> Option<DevicePtr> {
            Some(DevicePtr {
                gpu: mccs_topology::GpuId(0),
                addr: handle.0 * 4096,
            })
        }
        fn app_stream(&self) -> StreamId {
            StreamId(0)
        }
        fn create_event(&mut self) -> EventId {
            let ev = EventId(self.next_event);
            self.next_event += 1;
            ev
        }
        fn enqueue_kernel(&mut self, _stream: StreamId, duration: Nanos) {
            let start = self.now.max(self.stream_busy_until);
            self.stream_busy_until = start + duration;
        }
        fn enqueue_record(&mut self, _stream: StreamId, _event: EventId) {}
        fn enqueue_wait(&mut self, _stream: StreamId, _event: EventId) {}
        fn stream_idle(&self, _stream: StreamId) -> bool {
            self.now >= self.stream_busy_until
        }
        fn event_time(&self, _event: EventId) -> Option<Nanos> {
            Some(self.now)
        }
        fn rng(&mut self) -> &mut Rng {
            &mut self.rng
        }
        fn schedule_wake(&mut self, at: Nanos) {
            self.wakes.push(at);
        }
    }
}
