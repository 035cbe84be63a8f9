//! Request bookkeeping for one tenant rank.
//!
//! [`ShimSession`] correlates commands with completions, retries pushes
//! under queue back-pressure, and keeps the outcome tables the
//! [`crate::ShimApi`] surface reads: allocated handles, communicator
//! events, launched sequence numbers, finished collectives, and errors.
//!
//! Requests are numbered by a counter and a communicator's collectives by
//! their sequence numbers, so both tables are [`IdWindow`]s over the live
//! band. An outcome stays until the program retires its request
//! ([`ShimSession::retire`]); a program that retires every request once it
//! has read the outcome keeps the session to its unread outcomes, however
//! many collectives it runs.

use mccs_device::{EventId, MemHandle};
use mccs_ipc::{CommunicatorId, ErrorCode, ShimCommand, ShimCompletion};
use mccs_sim::IdWindow;
use std::collections::VecDeque;

/// A correlation id for an in-flight request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

/// What is known of one request.
#[derive(Debug)]
enum Outcome {
    /// A collective on this communicator, not sequenced yet.
    Submitted(CommunicatorId),
    /// A finished allocation.
    Alloc(MemHandle),
    /// A finished free.
    Freed,
    /// A finished communicator init: the service-side communicator event.
    CommInit(CommunicatorId, EventId),
    /// A finished communicator destroy.
    Destroyed,
    /// A collective the service sequenced as `seq` on the communicator.
    Launched(CommunicatorId, u64),
    /// A refused request.
    Error(ErrorCode, String),
}

/// How a sequenced collective ended.
#[derive(Debug)]
enum Finish {
    Done,
    /// The service cleanly failed it after recovery was exhausted.
    Failed(ErrorCode, String),
}

/// One communicator's finished collectives, by sequence number.
#[derive(Debug)]
struct CommLog {
    comm: CommunicatorId,
    finished: IdWindow<Finish>,
    /// Highest completed sequence.
    high_water: Option<u64>,
}

/// Result tables for one rank's outstanding and completed requests.
#[derive(Debug, Default)]
pub struct ShimSession {
    next_req: u64,
    /// Commands accepted by `submit` but not yet pushed (back-pressure).
    outbox: VecDeque<ShimCommand>,
    /// Outcomes by request: a collective's from its submission, any
    /// other request's from its completion, until retired.
    requests: IdWindow<Outcome>,
    /// Finished collectives, one log per communicator used (a rank has
    /// a handful, so a scan beats a map).
    comms: Vec<CommLog>,
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
            self.requests.insert(req.0, Outcome::Submitted(coll.comm));
        }
        self.outbox.push_back(cmd);
        req
    }

    /// Forget a request whose outcome the program has read, together
    /// with a sequenced collective's finish. A later query of `req`
    /// answers as for a request still in flight.
    ///
    /// Retire only final outcomes: any request once answered, except a
    /// collective, which is final only once [`Self::collective_done`] or
    /// [`Self::collective_failed`] says so (or it was refused). A launch
    /// ack is not final: the finish that follows it would land in its
    /// communicator's window with nothing left to retire it, pinning the
    /// window's front, and a collective retired before its ack panics when
    /// the ack arrives. A debug build rejects both.
    pub fn retire(&mut self, req: ReqId) {
        let outcome = self.requests.remove(req.0);
        debug_assert!(
            !matches!(outcome, Some(Outcome::Submitted(_))),
            "retired collective {req:?} before its launch ack"
        );
        if let Some(Outcome::Launched(comm, seq)) = outcome {
            let log = self.comms.iter_mut().find(|l| l.comm == comm);
            let finish = log.and_then(|log| log.finished.remove(seq));
            debug_assert!(
                finish.is_some(),
                "retired collective {req:?} (seq {seq} on {comm:?}) before it finished"
            );
        }
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
        let (req, outcome) = match completion {
            ShimCompletion::MemAlloc { req, handle } => (req, Outcome::Alloc(handle)),
            ShimCompletion::MemFree { req } => (req, Outcome::Freed),
            ShimCompletion::CommInit {
                req,
                comm,
                comm_event,
            } => (req, Outcome::CommInit(comm, comm_event)),
            ShimCompletion::CommDestroy { req } => (req, Outcome::Destroyed),
            ShimCompletion::CollectiveLaunched { req, seq } => {
                let Some(Outcome::Submitted(comm)) = self.requests.get(req) else {
                    panic!("launch ack for unknown collective request");
                };
                (req, Outcome::Launched(*comm, seq))
            }
            ShimCompletion::CollectiveDone { comm, seq } => {
                let log = self.log(comm);
                log.finished.insert(seq, Finish::Done);
                log.high_water = log.high_water.max(Some(seq));
                return;
            }
            ShimCompletion::CollectiveFailed {
                comm,
                seq,
                code,
                message,
            } => {
                let failed = Finish::Failed(code, message);
                self.log(comm).finished.insert(seq, failed);
                return;
            }
            ShimCompletion::Error { req, code, message } => (req, Outcome::Error(code, message)),
        };
        self.requests.insert(req, outcome);
    }

    fn log(&mut self, comm: CommunicatorId) -> &mut CommLog {
        let pos = match self.comms.iter().position(|l| l.comm == comm) {
            Some(pos) => pos,
            None => {
                self.comms.push(CommLog {
                    comm,
                    finished: IdWindow::default(),
                    high_water: None,
                });
                self.comms.len() - 1
            }
        };
        &mut self.comms[pos]
    }

    /// How the collective of `req` ended, once sequenced and finished.
    fn finish(&self, req: ReqId) -> Option<&Finish> {
        let Some(&Outcome::Launched(comm, seq)) = self.requests.get(req.0) else {
            return None;
        };
        let log = self.comms.iter().find(|l| l.comm == comm)?;
        log.finished.get(seq)
    }

    // ---- queries ----------------------------------------------------------

    /// The handle of a finished allocation request.
    pub fn alloc_result(&self, req: ReqId) -> Option<MemHandle> {
        match self.requests.get(req.0)? {
            Outcome::Alloc(handle) => Some(*handle),
            _ => None,
        }
    }

    /// Whether a free finished.
    pub fn free_done(&self, req: ReqId) -> bool {
        matches!(self.requests.get(req.0), Some(Outcome::Freed))
    }

    /// The communicator event of a finished init.
    pub fn comm_result(&self, req: ReqId) -> Option<(CommunicatorId, EventId)> {
        match self.requests.get(req.0)? {
            Outcome::CommInit(comm, event) => Some((*comm, *event)),
            _ => None,
        }
    }

    /// Whether a destroy finished.
    pub fn destroy_done(&self, req: ReqId) -> bool {
        matches!(self.requests.get(req.0), Some(Outcome::Destroyed))
    }

    /// The sequence number the service assigned to a collective request.
    pub fn launched_seq(&self, req: ReqId) -> Option<u64> {
        match self.requests.get(req.0)? {
            Outcome::Launched(_, seq) => Some(*seq),
            _ => None,
        }
    }

    /// Whether a collective request has fully completed.
    pub fn collective_done(&self, req: ReqId) -> bool {
        matches!(self.finish(req), Some(Finish::Done))
    }

    /// The failure verdict of a collective request the service cleanly
    /// aborted, if it did (NCCL-style error code plus cause).
    pub fn collective_failed(&self, req: ReqId) -> Option<(ErrorCode, &str)> {
        match self.finish(req)? {
            Finish::Failed(code, message) => Some((*code, message.as_str())),
            Finish::Done => None,
        }
    }

    /// Highest completed sequence on a communicator.
    pub fn high_water(&self, comm: CommunicatorId) -> Option<u64> {
        self.comms.iter().find(|l| l.comm == comm)?.high_water
    }

    /// The error message of a failed request.
    pub fn error(&self, req: ReqId) -> Option<&str> {
        match self.requests.get(req.0)? {
            Outcome::Error(_, message) => Some(message.as_str()),
            _ => None,
        }
    }

    /// The NCCL-style error code of a failed request.
    pub fn error_code(&self, req: ReqId) -> Option<ErrorCode> {
        match self.requests.get(req.0)? {
            Outcome::Error(code, _) => Some(*code),
            _ => None,
        }
    }

    /// Slots the outcome tables span: what the session costs in memory
    /// (the boundedness tests' probe).
    #[cfg(test)]
    fn span(&self) -> usize {
        self.requests.span() + self.comms.iter().map(|l| l.finished.span()).sum::<usize>()
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
        assert_eq!(s.high_water(comm), None, "a failure completes nothing");
    }

    #[test]
    fn retiring_a_request_forgets_its_outcome_and_its_finish() {
        let mut s = ShimSession::new();
        let mut p = LoopbackPort::new();
        let comm = CommunicatorId(2);
        let alloc = s.submit(ShimCommand::MemAlloc {
            req: 0,
            gpu: GpuId(0),
            size: Bytes::mib(1),
        });
        let coll = s.submit(collective(comm));
        pump(&mut s, &mut p);
        assert!(s.alloc_result(alloc).is_some());
        assert!(s.collective_done(coll));
        s.retire(alloc);
        s.retire(coll);
        assert_eq!(s.alloc_result(alloc), None);
        assert!(!s.collective_done(coll));
        assert_eq!(s.launched_seq(coll), None);
        assert_eq!(s.high_water(comm), Some(0), "kept per communicator");
        assert_eq!(s.span(), 0, "nothing left");
    }

    /// A collective retired on its launch ack, before it finished: its
    /// finish would pin the communicator's window.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before it finished")]
    fn retiring_a_running_collective_is_refused() {
        let mut s = ShimSession::new();
        let req = s.submit(collective(CommunicatorId(2)));
        s.ingest(ShimCompletion::CollectiveLaunched { req: req.0, seq: 0 });
        assert_eq!(s.launched_seq(req), Some(0));
        s.retire(req);
    }

    /// A collective retired before its launch ack: the ack would find no
    /// request.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before its launch ack")]
    fn retiring_an_unsequenced_collective_is_refused() {
        let mut s = ShimSession::new();
        let req = s.submit(collective(CommunicatorId(2)));
        s.retire(req);
    }

    /// Ten thousand collectives through one session, each retired by the
    /// script once it completed: the tables hold the step in flight, not
    /// the history.
    #[test]
    fn a_retiring_script_keeps_its_session_bounded() {
        use crate::program::{AppProgram, AppStatus, ScriptStep, ScriptedProgram};
        use crate::ShimApi;
        let comm = CommunicatorId(1);
        let n = 10_000;
        let mut prog = ScriptedProgram::new(
            "bounded",
            vec![
                ScriptStep::Alloc {
                    size: Bytes::mib(1),
                    slot: 0,
                },
                ScriptStep::CommInit {
                    comm,
                    world: vec![GpuId(0)],
                    rank: 0,
                },
                ScriptStep::Collective {
                    comm,
                    op: all_reduce_sum(),
                    size: Bytes::mib(1),
                    send_slot: 0,
                    recv_slot: 0,
                },
                ScriptStep::Repeat {
                    from_step: 2,
                    times: n - 1,
                },
            ],
        );
        let (mut s, mut p) = (ShimSession::new(), LoopbackPort::new());
        let mut widest = 0;
        loop {
            let status = prog.poll(&mut ShimApi::new(&mut s, &mut p, GpuId(0)));
            widest = widest.max(s.span());
            if status == AppStatus::Finished {
                break;
            }
        }
        let colls = p
            .sent
            .iter()
            .filter(|c| matches!(c, ShimCommand::Collective { .. }));
        assert_eq!(colls.count(), n);
        assert_eq!(s.high_water(comm), Some(n as u64 - 1));
        assert!(widest <= 2, "the session spanned {widest} slots");
        assert_eq!(s.span(), 0);
    }

    fn collective(comm: CommunicatorId) -> ShimCommand {
        ShimCommand::Collective {
            req: 0,
            coll: CollectiveRequest {
                comm,
                op: all_reduce_sum(),
                size: Bytes::mib(4),
                send: (MemHandle(0), 0),
                recv: (MemHandle(1), 0),
                depends_on: None,
            },
        }
    }

    /// The session as keyed maps, retirement included.
    #[derive(Default)]
    struct Model {
        allocs: BTreeMap<u64, MemHandle>,
        frees: BTreeSet<u64>,
        inits: BTreeMap<u64, (CommunicatorId, EventId)>,
        destroys: BTreeSet<u64>,
        req_comm: BTreeMap<u64, CommunicatorId>,
        launched: BTreeMap<u64, (CommunicatorId, u64)>,
        /// `None` for done, the verdict for failed.
        finished: BTreeMap<(CommunicatorId, u64), Option<(ErrorCode, String)>>,
        high_water: BTreeMap<CommunicatorId, u64>,
        errors: BTreeMap<u64, (ErrorCode, String)>,
    }

    impl Model {
        fn ingest(&mut self, c: &ShimCompletion) {
            match c.clone() {
                ShimCompletion::MemAlloc { req, handle } => {
                    self.allocs.insert(req, handle);
                }
                ShimCompletion::MemFree { req } => {
                    self.frees.insert(req);
                }
                ShimCompletion::CommInit {
                    req,
                    comm,
                    comm_event,
                } => {
                    self.inits.insert(req, (comm, comm_event));
                }
                ShimCompletion::CommDestroy { req } => {
                    self.destroys.insert(req);
                }
                ShimCompletion::CollectiveLaunched { req, seq } => {
                    self.launched.insert(req, (self.req_comm[&req], seq));
                }
                ShimCompletion::CollectiveDone { comm, seq } => {
                    self.finished.insert((comm, seq), None);
                    let hw = self.high_water.entry(comm).or_insert(seq);
                    *hw = (*hw).max(seq);
                }
                ShimCompletion::CollectiveFailed {
                    comm,
                    seq,
                    code,
                    message,
                } => {
                    self.finished.insert((comm, seq), Some((code, message)));
                }
                ShimCompletion::Error { req, code, message } => {
                    self.launched.remove(&req);
                    self.errors.insert(req, (code, message));
                }
            }
        }

        fn retire(&mut self, req: u64) {
            self.allocs.remove(&req);
            self.frees.remove(&req);
            self.inits.remove(&req);
            self.destroys.remove(&req);
            self.req_comm.remove(&req);
            self.errors.remove(&req);
            if let Some(key) = self.launched.remove(&req) {
                self.finished.remove(&key);
            }
        }
    }

    proptest! {
        /// Random submissions answered out of order by a fake service
        /// (allocations, frees, inits, destroys; collectives launched and
        /// then done or failed, or refused), with random retirements of
        /// requests whose outcome is final (a collective once finished):
        /// every query agrees with the keyed-map model.
        #[test]
        fn session_matches_a_keyed_model(
            ops in proptest::collection::vec((0u8..4, 0u8..5, 0u8..3, 0u8..8), 1..160)
        ) {
            let (mut s, mut m) = (ShimSession::new(), Model::default());
            // Submitted, unanswered: (req, kind, comm); launched, unfinished
            // collectives: (comm, seq, req); final: req.
            let mut open: Vec<(u64, u8, CommunicatorId)> = Vec::new();
            let mut running: Vec<(CommunicatorId, u64, u64)> = Vec::new();
            let mut next_seq = [0u64; 3];
            let (mut submitted, mut settled) = (0u64, Vec::new());
            for (step, &(op, kind, c, pick)) in ops.iter().enumerate() {
                let comm = CommunicatorId(u64::from(c));
                let answer = |s: &mut ShimSession, m: &mut Model, done: ShimCompletion| {
                    m.ingest(&done);
                    s.ingest(done);
                };
                match op {
                    0 => {
                        let cmd = match kind {
                            0 => ShimCommand::MemAlloc { req: 0, gpu: GpuId(0), size: Bytes::kib(1) },
                            1 => ShimCommand::MemFree { req: 0, handle: MemHandle(1) },
                            2 => ShimCommand::CommInit { req: 0, comm, world: vec![GpuId(0)], rank: 0 },
                            3 => ShimCommand::CommDestroy { req: 0, comm },
                            _ => collective(comm),
                        };
                        let req = s.submit(cmd).0;
                        if kind == 4 {
                            m.req_comm.insert(req, comm);
                        }
                        open.push((req, kind, comm));
                        submitted += 1;
                    }
                    1 if !open.is_empty() => {
                        let (req, kind, comm) = open.remove(usize::from(pick) % open.len());
                        let done = match (kind, pick % 4) {
                            (_, 0) => ShimCompletion::Error {
                                req,
                                code: ErrorCode::InvalidArgument,
                                message: format!("refused {req}"),
                            },
                            (0, _) => ShimCompletion::MemAlloc { req, handle: MemHandle(req + 7) },
                            (1, _) => ShimCompletion::MemFree { req },
                            (2, _) => ShimCompletion::CommInit { req, comm, comm_event: EventId(req) },
                            (3, _) => ShimCompletion::CommDestroy { req },
                            _ => {
                                let slot = &mut next_seq[comm.0 as usize];
                                let seq = *slot;
                                *slot += 1;
                                running.push((comm, seq, req));
                                ShimCompletion::CollectiveLaunched { req, seq }
                            }
                        };
                        if !matches!(done, ShimCompletion::CollectiveLaunched { .. }) {
                            settled.push(req);
                        }
                        answer(&mut s, &mut m, done);
                    }
                    2 if !running.is_empty() => {
                        let (comm, seq, req) = running.remove(usize::from(pick) % running.len());
                        settled.push(req);
                        let done = if pick % 3 == 0 {
                            ShimCompletion::CollectiveFailed {
                                comm,
                                seq,
                                code: ErrorCode::SystemError,
                                message: format!("gave up on {seq}"),
                            }
                        } else {
                            ShimCompletion::CollectiveDone { comm, seq }
                        };
                        answer(&mut s, &mut m, done);
                    }
                    3 if !settled.is_empty() => {
                        let req = settled[(step * 7 + usize::from(pick)) % settled.len()];
                        s.retire(ReqId(req));
                        m.retire(req);
                    }
                    _ => {}
                }
                for req in 0..submitted {
                    let id = ReqId(req);
                    prop_assert_eq!(s.alloc_result(id), m.allocs.get(&req).copied());
                    prop_assert_eq!(s.free_done(id), m.frees.contains(&req));
                    prop_assert_eq!(s.comm_result(id), m.inits.get(&req).copied());
                    prop_assert_eq!(s.destroy_done(id), m.destroys.contains(&req));
                    let key = m.launched.get(&req);
                    prop_assert_eq!(s.launched_seq(id), key.map(|&(_, seq)| seq));
                    let fin = key.and_then(|k| m.finished.get(k));
                    prop_assert_eq!(s.collective_done(id), matches!(fin, Some(None)));
                    let failed = fin.and_then(|f| f.as_ref()).map(|(c, msg)| (*c, msg.as_str()));
                    prop_assert_eq!(s.collective_failed(id), failed);
                    let error = m.errors.get(&req);
                    prop_assert_eq!(s.error(id), error.map(|(_, msg)| msg.as_str()));
                    prop_assert_eq!(s.error_code(id), error.map(|&(code, _)| code));
                }
                for c in 0..3 {
                    let comm = CommunicatorId(c);
                    prop_assert_eq!(s.high_water(comm), m.high_water.get(&comm).copied());
                }
            }
        }
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
