//! Request bookkeeping for one tenant rank.
//!
//! [`ShimSession`] correlates commands with completions, retries pushes
//! under queue back-pressure, and maintains the completion tables the
//! [`crate::ShimApi`] surface reads: allocated handles, communicator
//! events, launched sequence numbers, finished collectives, and errors.

use mccs_device::{EventId, MemHandle};
use mccs_ipc::{CommunicatorId, ErrorCode, ShimCommand, ShimCompletion};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A correlation id for an in-flight request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

/// Result tables for one rank's outstanding and completed requests.
#[derive(Debug, Default)]
pub struct ShimSession {
    next_req: u64,
    /// Commands accepted by `submit` but not yet pushed (back-pressure).
    outbox: VecDeque<ShimCommand>,
    /// Completed allocations.
    allocs: BTreeMap<ReqId, MemHandle>,
    /// Completed frees.
    frees: BTreeSet<ReqId>,
    /// Completed communicator inits: the service-side communicator event.
    comms: BTreeMap<ReqId, (CommunicatorId, EventId)>,
    /// Completed communicator destroys.
    destroys: BTreeSet<ReqId>,
    /// Collective requests that have been sequenced by the service.
    launched: BTreeMap<ReqId, (CommunicatorId, u64)>,
    /// Collectives known complete.
    done: BTreeSet<(CommunicatorId, u64)>,
    /// Collectives the service cleanly failed after recovery was exhausted.
    failed: BTreeMap<(CommunicatorId, u64), (ErrorCode, String)>,
    /// Highest completed sequence per communicator.
    high_water: BTreeMap<CommunicatorId, u64>,
    /// Failed requests.
    errors: BTreeMap<ReqId, (ErrorCode, String)>,
    /// Collective request -> communicator (to resolve `done` before the
    /// launch ack arrives — impossible with FIFO queues, but kept robust).
    req_comm: BTreeMap<ReqId, CommunicatorId>,
}

impl ShimSession {
    /// A fresh session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a command for delivery; returns its correlation id.
    /// The `req` field of the command is overwritten with the fresh id.
    pub fn submit(&mut self, mut cmd: ShimCommand) -> ReqId {
        let req = ReqId(self.next_req);
        self.next_req += 1;
        set_req(&mut cmd, req.0);
        if let ShimCommand::Collective { coll, .. } = &cmd {
            self.req_comm.insert(req, coll.comm);
        }
        self.outbox.push_back(cmd);
        req
    }

    /// Whether back-pressure left commands queued but not yet pushed.
    /// (Wake plumbing: a blocked rank with unsent commands must re-poll
    /// when the service drains the command queue.)
    pub fn has_unsent(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Drain the outbox into `push` (a fallible push that returns the
    /// rejected command on back-pressure — the `LatencyQueue` contract) and
    /// ingest completions from `pop`. Returns `true` if anything moved.
    pub fn pump_with_backpressure(
        &mut self,
        mut push: impl FnMut(ShimCommand) -> Result<(), ShimCommand>,
        mut pop: impl FnMut() -> Option<ShimCompletion>,
    ) -> bool {
        let mut moved = false;
        while let Some(cmd) = self.outbox.pop_front() {
            match push(cmd) {
                Ok(()) => moved = true,
                Err(rejected) => {
                    self.outbox.push_front(rejected);
                    break;
                }
            }
        }
        moved |= self.ingest_all(&mut pop);
        moved
    }

    fn ingest_all(&mut self, pop: &mut impl FnMut() -> Option<ShimCompletion>) -> bool {
        let mut moved = false;
        while let Some(c) = pop() {
            self.ingest(c);
            moved = true;
        }
        moved
    }

    /// Record one completion.
    pub fn ingest(&mut self, completion: ShimCompletion) {
        match completion {
            ShimCompletion::MemAlloc { req, handle } => {
                self.allocs.insert(ReqId(req), handle);
            }
            ShimCompletion::MemFree { req } => {
                self.frees.insert(ReqId(req));
            }
            ShimCompletion::CommInit {
                req,
                comm,
                comm_event,
            } => {
                self.comms.insert(ReqId(req), (comm, comm_event));
            }
            ShimCompletion::CommDestroy { req } => {
                self.destroys.insert(ReqId(req));
            }
            ShimCompletion::CollectiveLaunched { req, seq } => {
                let comm = *self
                    .req_comm
                    .get(&ReqId(req))
                    .expect("launch ack for unknown collective request");
                self.launched.insert(ReqId(req), (comm, seq));
            }
            ShimCompletion::CollectiveDone { comm, seq } => {
                self.done.insert((comm, seq));
                let hw = self.high_water.entry(comm).or_insert(seq);
                *hw = (*hw).max(seq);
            }
            ShimCompletion::CollectiveFailed {
                comm,
                seq,
                code,
                message,
            } => {
                self.failed.insert((comm, seq), (code, message));
            }
            ShimCompletion::Error { req, code, message } => {
                self.errors.insert(ReqId(req), (code, message));
            }
        }
    }

    // ---- queries ----------------------------------------------------------

    /// The handle of a finished allocation request.
    pub fn alloc_result(&self, req: ReqId) -> Option<MemHandle> {
        self.allocs.get(&req).copied()
    }

    /// Whether a free finished.
    pub fn free_done(&self, req: ReqId) -> bool {
        self.frees.contains(&req)
    }

    /// The communicator event of a finished init.
    pub fn comm_result(&self, req: ReqId) -> Option<(CommunicatorId, EventId)> {
        self.comms.get(&req).copied()
    }

    /// Whether a destroy finished.
    pub fn destroy_done(&self, req: ReqId) -> bool {
        self.destroys.contains(&req)
    }

    /// The sequence number the service assigned to a collective request.
    pub fn launched_seq(&self, req: ReqId) -> Option<u64> {
        self.launched.get(&req).map(|&(_, s)| s)
    }

    /// Whether a collective request has fully completed.
    pub fn collective_done(&self, req: ReqId) -> bool {
        self.launched
            .get(&req)
            .is_some_and(|key| self.done.contains(key))
    }

    /// The failure verdict of a collective request the service cleanly
    /// aborted, if it did (NCCL-style error code plus cause).
    pub fn collective_failed(&self, req: ReqId) -> Option<(ErrorCode, &str)> {
        self.launched
            .get(&req)
            .and_then(|key| self.failed.get(key))
            .map(|(code, msg)| (*code, msg.as_str()))
    }

    /// Every collective the service failed on a communicator.
    pub fn failed_collectives(&self, comm: CommunicatorId) -> Vec<u64> {
        self.failed
            .keys()
            .filter(|(c, _)| *c == comm)
            .map(|&(_, seq)| seq)
            .collect()
    }

    /// Highest completed sequence on a communicator.
    pub fn high_water(&self, comm: CommunicatorId) -> Option<u64> {
        self.high_water.get(&comm).copied()
    }

    /// The error message of a failed request.
    pub fn error(&self, req: ReqId) -> Option<&str> {
        self.errors.get(&req).map(|(_, m)| m.as_str())
    }

    /// The NCCL-style error code of a failed request.
    pub fn error_code(&self, req: ReqId) -> Option<ErrorCode> {
        self.errors.get(&req).map(|&(code, _)| code)
    }
}

fn set_req(cmd: &mut ShimCommand, req: u64) {
    match cmd {
        ShimCommand::MemAlloc { req: r, .. }
        | ShimCommand::MemFree { req: r, .. }
        | ShimCommand::CommInit { req: r, .. }
        | ShimCommand::CommDestroy { req: r, .. }
        | ShimCommand::Collective { req: r, .. } => *r = req,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::test_port::LoopbackPort;
    use crate::port::ShimPort;
    use mccs_collectives::op::all_reduce_sum;
    use mccs_ipc::CollectiveRequest;
    use mccs_sim::Bytes;
    use mccs_topology::GpuId;

    fn pump(session: &mut ShimSession, port: &mut LoopbackPort) -> bool {
        let mut moved = false;
        while let Some(c) = port.try_pop() {
            session.ingest(c);
            moved = true;
        }
        moved |= session.pump_with_backpressure(
            |cmd| {
                if port.try_push(cmd.clone()) {
                    Ok(())
                } else {
                    Err(cmd)
                }
            },
            || None,
        );
        while let Some(c) = port.try_pop() {
            session.ingest(c);
            moved = true;
        }
        moved
    }

    #[test]
    fn alloc_roundtrip() {
        let mut s = ShimSession::new();
        let mut p = LoopbackPort::new();
        let req = s.submit(ShimCommand::MemAlloc {
            req: 0,
            gpu: GpuId(0),
            size: Bytes::mib(1),
        });
        assert!(s.alloc_result(req).is_none());
        pump(&mut s, &mut p);
        assert!(s.alloc_result(req).is_some());
    }

    #[test]
    fn collective_lifecycle() {
        let mut s = ShimSession::new();
        let mut p = LoopbackPort::new();
        let comm = CommunicatorId(1);
        let req = s.submit(ShimCommand::Collective {
            req: 0,
            coll: CollectiveRequest {
                comm,
                op: all_reduce_sum(),
                size: Bytes::mib(4),
                send: (MemHandle(0), 0),
                recv: (MemHandle(1), 0),
                depends_on: None,
            },
        });
        assert!(!s.collective_done(req));
        pump(&mut s, &mut p);
        assert_eq!(s.launched_seq(req), Some(0));
        assert!(s.collective_done(req));
        assert_eq!(s.high_water(comm), Some(0));
    }

    #[test]
    fn backpressure_retries_in_order() {
        let mut s = ShimSession::new();
        let mut p = LoopbackPort::new();
        p.full = true;
        let _r1 = s.submit(ShimCommand::MemAlloc {
            req: 0,
            gpu: GpuId(0),
            size: Bytes::kib(1),
        });
        let _r2 = s.submit(ShimCommand::MemAlloc {
            req: 0,
            gpu: GpuId(0),
            size: Bytes::kib(2),
        });
        pump(&mut s, &mut p);
        assert_eq!(s.outbox.len(), 2, "both held under backpressure");
        p.full = false;
        pump(&mut s, &mut p);
        assert!(!s.has_unsent());
        assert_eq!(p.sent.len(), 2);
        // FIFO preserved
        let sizes: Vec<Bytes> = p
            .sent
            .iter()
            .map(|c| match c {
                ShimCommand::MemAlloc { size, .. } => *size,
                _ => panic!("unexpected"),
            })
            .collect();
        assert_eq!(sizes, vec![Bytes::kib(1), Bytes::kib(2)]);
    }

    #[test]
    fn errors_surface() {
        let mut s = ShimSession::new();
        let req = s.submit(ShimCommand::MemFree {
            req: 0,
            handle: MemHandle(9),
        });
        s.ingest(ShimCompletion::Error {
            req: req.0,
            code: ErrorCode::InvalidArgument,
            message: "unknown memory handle".into(),
        });
        assert_eq!(s.error(req), Some("unknown memory handle"));
        assert_eq!(s.error_code(req), Some(ErrorCode::InvalidArgument));
        assert!(!s.free_done(req));
    }

    #[test]
    fn failed_collectives_surface() {
        let mut s = ShimSession::new();
        let mut p = LoopbackPort::new();
        p.auto_reply = false;
        let comm = CommunicatorId(3);
        let req = s.submit(ShimCommand::Collective {
            req: 0,
            coll: CollectiveRequest {
                comm,
                op: all_reduce_sum(),
                size: Bytes::mib(4),
                send: (MemHandle(0), 0),
                recv: (MemHandle(1), 0),
                depends_on: None,
            },
        });
        pump(&mut s, &mut p);
        s.ingest(ShimCompletion::CollectiveLaunched { req: req.0, seq: 4 });
        s.ingest(ShimCompletion::CollectiveFailed {
            comm,
            seq: 4,
            code: ErrorCode::SystemError,
            message: "retries exhausted".into(),
        });
        assert!(!s.collective_done(req));
        let (code, msg) = s.collective_failed(req).expect("failure recorded");
        assert_eq!(code, ErrorCode::SystemError);
        assert_eq!(msg, "retries exhausted");
        assert_eq!(s.failed_collectives(comm), vec![4]);
    }

    #[test]
    fn req_ids_are_unique_and_rewritten() {
        let mut s = ShimSession::new();
        let a = s.submit(ShimCommand::MemFree {
            req: 999,
            handle: MemHandle(0),
        });
        let b = s.submit(ShimCommand::MemFree {
            req: 999,
            handle: MemHandle(1),
        });
        assert_ne!(a, b);
        assert_eq!(a, ReqId(0));
        assert_eq!(b, ReqId(1));
    }
}
