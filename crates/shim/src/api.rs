//! The NCCL-shaped tenant API.
//!
//! [`ShimApi`] is what application code holds while it runs: a borrow of
//! the rank's [`ShimSession`] and its [`ShimPort`]. Calls mirror NCCL —
//! `comm_init_rank`, `all_reduce`, `all_gather`, ... — but are
//! **non-blocking**: each returns a [`ReqId`] whose completion the program
//! polls. Synchronization with compute uses device events exactly as in
//! the paper's §4.1: `collective_with_dependency` records an event on the
//! app stream for the service to wait on, and `wait_collective_on_stream`
//! enqueues a wait on the communicator's service-side event.

use crate::port::ShimPort;
use crate::session::{ReqId, ShimSession};
use mccs_collectives::{CollectiveOp, ReduceKind};
use mccs_device::{EventId, MemHandle, StreamId};
use mccs_ipc::{CollectiveRequest, CommunicatorId, ErrorCode, ShimCommand};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;

/// Borrowed API surface handed to [`crate::AppProgram::poll`].
pub struct ShimApi<'a> {
    session: &'a mut ShimSession,
    port: &'a mut dyn ShimPort,
    gpu: GpuId,
}

impl<'a> ShimApi<'a> {
    /// Assemble the API from its parts (called by the harness).
    pub fn new(session: &'a mut ShimSession, port: &'a mut dyn ShimPort, gpu: GpuId) -> Self {
        ShimApi { session, port, gpu }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.port.now()
    }

    /// The GPU this rank runs on (assigned by the provider; the tenant
    /// knows its own GPU, not the cluster layout).
    pub fn gpu(&self) -> GpuId {
        self.gpu
    }

    /// Move queued commands/completions. Call once per poll.
    pub fn pump(&mut self) -> bool {
        let mut moved = self.drain_completions();
        let port = &mut *self.port;
        moved |= self.session.pump_with_backpressure(
            |cmd| {
                if port.try_push(cmd.clone()) {
                    Ok(())
                } else {
                    Err(cmd)
                }
            },
            || None,
        );
        // Completions may have landed in response to the pushes.
        moved |= self.drain_completions();
        moved
    }

    fn drain_completions(&mut self) -> bool {
        let mut moved = false;
        while let Some(c) = self.port.try_pop() {
            self.session.ingest(c);
            moved = true;
        }
        moved
    }

    // ---- memory ------------------------------------------------------------

    /// Request a device allocation on this rank's GPU (redirected to the
    /// service per §4.1).
    pub fn alloc(&mut self, size: Bytes) -> ReqId {
        let gpu = self.gpu;
        self.session
            .submit(ShimCommand::MemAlloc { req: 0, gpu, size })
    }

    /// Poll an allocation.
    pub fn alloc_result(&self, req: ReqId) -> Option<MemHandle> {
        self.session.alloc_result(req)
    }

    /// Request a free.
    pub fn free(&mut self, handle: MemHandle) -> ReqId {
        self.session.submit(ShimCommand::MemFree { req: 0, handle })
    }

    /// Poll a free.
    pub fn free_done(&self, req: ReqId) -> bool {
        self.session.free_done(req)
    }

    // ---- communicators -------------------------------------------------------

    /// Register this rank in a communicator (cf. `ncclCommInitRank`).
    /// `world` is the user-assigned GPU-per-rank list — exactly the
    /// information whose ordering NCCL would bake into its ring.
    pub fn comm_init_rank(
        &mut self,
        comm: CommunicatorId,
        world: Vec<GpuId>,
        rank: usize,
    ) -> ReqId {
        assert!(rank < world.len(), "rank outside world");
        assert_eq!(world[rank], self.gpu, "rank's GPU mismatch");
        self.session.submit(ShimCommand::CommInit {
            req: 0,
            comm,
            world,
            rank,
        })
    }

    /// Poll a communicator init: the communicator's service-side event.
    pub fn comm_result(&self, req: ReqId) -> Option<(CommunicatorId, EventId)> {
        self.session.comm_result(req)
    }

    /// Tear down this rank of a communicator.
    pub fn comm_destroy(&mut self, comm: CommunicatorId) -> ReqId {
        self.session
            .submit(ShimCommand::CommDestroy { req: 0, comm })
    }

    /// Poll a destroy.
    pub fn destroy_done(&self, req: ReqId) -> bool {
        self.session.destroy_done(req)
    }

    // ---- collectives -----------------------------------------------------------

    /// Issue an AllReduce (cf. `ncclAllReduce`).
    pub fn all_reduce(
        &mut self,
        comm: CommunicatorId,
        size: Bytes,
        send: (MemHandle, u64),
        recv: (MemHandle, u64),
    ) -> ReqId {
        self.collective(
            comm,
            CollectiveOp::AllReduce(ReduceKind::Sum),
            size,
            send,
            recv,
            None,
        )
    }

    /// Issue an AllGather (cf. `ncclAllGather`). `size` is the output
    /// buffer size (all ranks' chunks concatenated).
    pub fn all_gather(
        &mut self,
        comm: CommunicatorId,
        size: Bytes,
        send: (MemHandle, u64),
        recv: (MemHandle, u64),
    ) -> ReqId {
        self.collective(comm, CollectiveOp::AllGather, size, send, recv, None)
    }

    /// Issue any collective, optionally dependent on `depends_on` — an
    /// event this rank records on its compute stream so the service only
    /// reads the send buffer after the producing kernel finishes.
    pub fn collective(
        &mut self,
        comm: CommunicatorId,
        op: CollectiveOp,
        size: Bytes,
        send: (MemHandle, u64),
        recv: (MemHandle, u64),
        depends_on: Option<EventId>,
    ) -> ReqId {
        self.session.submit(ShimCommand::Collective {
            req: 0,
            coll: CollectiveRequest {
                comm,
                op,
                size,
                send,
                recv,
                depends_on,
            },
        })
    }

    /// Issue a collective that depends on all work previously enqueued on
    /// `stream`: records a fresh event on the stream and passes it along —
    /// the full §4.1 synchronization pattern in one call.
    #[allow(clippy::too_many_arguments)]
    pub fn collective_after_stream(
        &mut self,
        comm: CommunicatorId,
        op: CollectiveOp,
        size: Bytes,
        send: (MemHandle, u64),
        recv: (MemHandle, u64),
        stream: StreamId,
    ) -> ReqId {
        let ev = self.port.create_event();
        self.port.enqueue_record(stream, ev);
        self.collective(comm, op, size, send, recv, Some(ev))
    }

    /// Whether a collective request has fully completed.
    pub fn collective_done(&self, req: ReqId) -> bool {
        self.session.collective_done(req)
    }

    /// The failure verdict (code + cause) of a collective the service
    /// cleanly aborted after recovery was exhausted, if it did.
    pub fn collective_failed(&self, req: ReqId) -> Option<(ErrorCode, &str)> {
        self.session.collective_failed(req)
    }

    /// The service-assigned sequence number of a collective.
    pub fn launched_seq(&self, req: ReqId) -> Option<u64> {
        self.session.launched_seq(req)
    }

    /// Highest completed sequence number on a communicator.
    pub fn high_water(&self, comm: CommunicatorId) -> Option<u64> {
        self.session.high_water(comm)
    }

    /// The error message of a failed request, if any.
    pub fn error(&self, req: ReqId) -> Option<&str> {
        self.session.error(req)
    }

    /// The NCCL-style error code of a failed request, if any.
    pub fn error_code(&self, req: ReqId) -> Option<ErrorCode> {
        self.session.error_code(req)
    }

    /// Forget a request whose outcome has been read (see
    /// [`ShimSession::retire`]): a program that retires what it has read
    /// keeps its session bounded.
    pub fn retire(&mut self, req: ReqId) {
        self.session.retire(req);
    }

    // ---- device (tenant-private compute) -----------------------------------------

    /// This rank's default compute stream.
    pub fn app_stream(&self) -> StreamId {
        self.port.app_stream()
    }

    /// Enqueue a compute kernel on the app stream.
    pub fn compute(&mut self, duration: Nanos) {
        let stream = self.port.app_stream();
        self.port.enqueue_kernel(stream, duration);
    }

    /// Whether the app stream has drained.
    pub fn stream_idle(&self) -> bool {
        self.port.stream_idle(self.port.app_stream())
    }

    /// Make subsequent app-stream work wait for the communicator's last
    /// collective (enqueues a wait on the service-side communicator event).
    pub fn wait_collective_on_stream(&mut self, comm_event: EventId) {
        let stream = self.port.app_stream();
        self.port.enqueue_wait(stream, comm_event);
    }

    /// Open an IPC memory handle into a device pointer.
    pub fn open_handle(&self, handle: MemHandle) -> Option<mccs_device::DevicePtr> {
        self.port.open_handle(handle)
    }

    /// Tenant-local randomness.
    pub fn rng(&mut self) -> &mut mccs_sim::Rng {
        self.port.rng()
    }

    /// Arm a timer so the program is re-polled at `at` (used before
    /// returning blocked from a timed wait).
    pub fn schedule_wake(&mut self, at: Nanos) {
        self.port.schedule_wake(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::test_port::LoopbackPort;

    #[test]
    fn full_nccl_shaped_flow() {
        let mut session = ShimSession::new();
        let mut port = LoopbackPort::new();
        let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));

        let a = api.alloc(Bytes::mib(8));
        let b = api.alloc(Bytes::mib(8));
        api.pump();
        let send = api.alloc_result(a).expect("allocated");
        let recv = api.alloc_result(b).expect("allocated");

        let comm = CommunicatorId(5);
        let init = api.comm_init_rank(comm, vec![GpuId(0), GpuId(1)], 0);
        api.pump();
        let (_, _event) = api.comm_result(init).expect("initialized");

        let coll = api.all_reduce(comm, Bytes::mib(8), (send, 0), (recv, 0));
        api.pump();
        assert!(api.collective_done(coll));
        assert_eq!(api.high_water(comm), Some(0));
    }

    #[test]
    #[should_panic(expected = "rank's GPU mismatch")]
    fn comm_init_validates_own_gpu() {
        let mut session = ShimSession::new();
        let mut port = LoopbackPort::new();
        let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
        api.comm_init_rank(CommunicatorId(1), vec![GpuId(3), GpuId(4)], 0);
    }

    #[test]
    fn compute_then_collective_dependency() {
        let mut session = ShimSession::new();
        let mut port = LoopbackPort::new();
        let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
        api.compute(Nanos::from_micros(100));
        let stream = api.app_stream();
        let req = api.collective_after_stream(
            CommunicatorId(1),
            CollectiveOp::AllGather,
            Bytes::mib(1),
            (MemHandle(0), 0),
            (MemHandle(1), 0),
            stream,
        );
        api.pump();
        // loopback answers instantly; the real service would wait on the event
        assert!(api.collective_done(req));
        // the command carried the dependency event
        let sent = &port.sent;
        let ShimCommand::Collective { coll, .. } = sent.last().expect("sent") else {
            panic!("expected collective");
        };
        assert!(coll.depends_on.is_some());
    }
}
