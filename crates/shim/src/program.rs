//! Poll-style tenant programs.
//!
//! An [`AppProgram`] is one rank of a tenant application: the harness
//! polls it with a [`ShimApi`] until it reports [`AppStatus::Finished`].
//! Programs are state machines — each poll does bounded work and returns.
//!
//! [`ScriptedProgram`] interprets a declarative step list. It is the one
//! tenant program: a closed-loop `Scenario` tenant and a replayed
//! training trace (`mccs-workloads`) are both lowered to a script.

use crate::api::ShimApi;
use crate::session::ReqId;
use mccs_collectives::CollectiveOp;
use mccs_device::MemHandle;
use mccs_ipc::CommunicatorId;
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;

/// Result of one program poll.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppStatus {
    /// Did work, and a poll right now would answer `Blocked`: the
    /// program has advanced as far as it currently can. The app engine
    /// answers the wake pool `Poll::Drained` for it, so the rank is parked
    /// until one of its waits is signalled, not polled again; a debug
    /// build re-polls it once and panics unless that poll blocks (the
    /// `Drained` check in `mccs_sim`'s wake pool).
    Running,
    /// Waiting on a completion/event; poll after the world advances.
    Blocked,
    /// Done; the rank exits.
    Finished,
}

/// One rank of a tenant application.
pub trait AppProgram {
    /// Advance the program as far as currently possible. Return
    /// [`AppStatus::Running`] only once no step is runnable any more: a
    /// program that stops early with work left is parked with it.
    fn poll(&mut self, api: &mut ShimApi<'_>) -> AppStatus;

    /// Diagnostic label.
    fn name(&self) -> String {
        "app".to_owned()
    }
}

/// A declarative workload step.
#[derive(Clone, Debug)]
pub enum ScriptStep {
    /// Allocate `size`, storing the handle in `slot`.
    Alloc {
        /// Buffer size.
        size: Bytes,
        /// Destination slot index.
        slot: usize,
    },
    /// Initialize this rank of a communicator.
    CommInit {
        /// Cluster-wide id.
        comm: CommunicatorId,
        /// Rank -> GPU map.
        world: Vec<GpuId>,
        /// This rank.
        rank: usize,
    },
    /// Issue a collective between two previously allocated slots and wait
    /// for it to complete.
    Collective {
        /// Target communicator (must be initialized).
        comm: CommunicatorId,
        /// The operation.
        op: CollectiveOp,
        /// Buffer size.
        size: Bytes,
        /// Send slot.
        send_slot: usize,
        /// Receive slot.
        recv_slot: usize,
    },
    /// Tear down this rank of a communicator and wait for the service to
    /// acknowledge. The proxy refuses while collectives are in flight, so
    /// scripts place this after the communicator has drained.
    CommDestroy {
        /// Cluster-wide id (must be initialized by this rank).
        comm: CommunicatorId,
    },
    /// Enqueue a compute kernel on the app stream and wait for it.
    Compute(Nanos),
    /// Busy-wait (virtual) until the given absolute time.
    SleepUntil(Nanos),
    /// Busy-wait (virtual) for this long from the instant the step is
    /// reached: a training trace's idle phase.
    Sleep(Nanos),
    /// Repeat the steps from `from_step` (inclusive) this many additional
    /// times.
    Repeat {
        /// First step of the loop body.
        from_step: usize,
        /// Additional iterations (0 = no-op).
        times: usize,
    },
}

/// Interprets a [`ScriptStep`] list.
pub struct ScriptedProgram {
    name: String,
    steps: Vec<ScriptStep>,
    pc: usize,
    slots: Vec<Option<MemHandle>>,
    pending: Option<ReqId>,
    repeats_left: Option<usize>,
    /// The instant the current `SleepUntil` or `Sleep` armed its wake
    /// for: a blocked re-poll arms nothing more (idle polls are pure,
    /// timers included). Cleared when the step completes, so the next
    /// sleep arms its own instant.
    sleep_armed: Option<Nanos>,
}

impl ScriptedProgram {
    /// A program executing `steps` in order.
    pub fn new(name: impl Into<String>, steps: Vec<ScriptStep>) -> Self {
        let max_slot = steps
            .iter()
            .map(|s| match s {
                ScriptStep::Alloc { slot, .. } => *slot + 1,
                ScriptStep::Collective {
                    send_slot,
                    recv_slot,
                    ..
                } => (*send_slot).max(*recv_slot) + 1,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        ScriptedProgram {
            name: name.into(),
            steps,
            pc: 0,
            slots: vec![None; max_slot],
            pending: None,
            repeats_left: None,
            sleep_armed: None,
        }
    }

    fn slot(&self, idx: usize) -> MemHandle {
        self.slots[idx].expect("script used a slot before allocating it")
    }
}

impl AppProgram for ScriptedProgram {
    fn poll(&mut self, api: &mut ShimApi<'_>) -> AppStatus {
        api.pump();
        let mut progressed = false;
        loop {
            if self.pc >= self.steps.len() {
                return AppStatus::Finished;
            }
            // A refused request ends the program, as a tenant checking
            // NCCL's return code exits: the service's answer is a typed
            // error, and no later step can run without what this one
            // would have made (a buffer, a communicator).
            if self.pending.is_some_and(|req| api.error(req).is_some()) {
                self.pending = None;
                self.pc = self.steps.len();
                return AppStatus::Finished;
            }
            let step = self.steps[self.pc].clone();
            match step {
                ScriptStep::Alloc { size, slot } => match self.pending {
                    None => {
                        self.pending = Some(api.alloc(size));
                        api.pump();
                        progressed = true;
                    }
                    Some(req) => match api.alloc_result(req) {
                        Some(h) => {
                            self.slots[slot] = Some(h);
                            api.retire(req);
                            self.pending = None;
                            self.pc += 1;
                            progressed = true;
                            continue;
                        }
                        None => return AppStatus::Blocked,
                    },
                },
                ScriptStep::CommInit { comm, world, rank } => match self.pending {
                    None => {
                        self.pending = Some(api.comm_init_rank(comm, world, rank));
                        api.pump();
                        progressed = true;
                    }
                    Some(req) => match api.comm_result(req) {
                        Some(_) => {
                            api.retire(req);
                            self.pending = None;
                            self.pc += 1;
                            progressed = true;
                            continue;
                        }
                        None => return AppStatus::Blocked,
                    },
                },
                ScriptStep::Collective {
                    comm,
                    op,
                    size,
                    send_slot,
                    recv_slot,
                } => match self.pending {
                    None => {
                        let send = (self.slot(send_slot), 0);
                        let recv = (self.slot(recv_slot), 0);
                        self.pending = Some(api.collective(comm, op, size, send, recv, None));
                        api.pump();
                        progressed = true;
                    }
                    Some(req) => {
                        // A cleanly failed collective is terminal too: the
                        // buffers are undefined but the program moves on.
                        if api.collective_done(req) || api.collective_failed(req).is_some() {
                            api.retire(req);
                            self.pending = None;
                            self.pc += 1;
                            progressed = true;
                            continue;
                        }
                        return AppStatus::Blocked;
                    }
                },
                ScriptStep::CommDestroy { comm } => match self.pending {
                    None => {
                        self.pending = Some(api.comm_destroy(comm));
                        api.pump();
                        progressed = true;
                    }
                    Some(req) => {
                        if api.destroy_done(req) {
                            api.retire(req);
                            self.pending = None;
                            self.pc += 1;
                            progressed = true;
                            continue;
                        }
                        return AppStatus::Blocked;
                    }
                },
                ScriptStep::Compute(duration) => match self.pending {
                    None => {
                        api.compute(duration);
                        // mark "issued" with a sentinel: reuse pending None->Some
                        // by tracking via stream idleness instead.
                        self.pending = Some(ReqId(u64::MAX));
                        progressed = true;
                    }
                    Some(_) => {
                        if api.stream_idle() {
                            self.pending = None;
                            self.pc += 1;
                            progressed = true;
                            continue;
                        }
                        return AppStatus::Blocked;
                    }
                },
                ScriptStep::SleepUntil(t) => {
                    if api.now() >= t {
                        self.sleep_armed = None;
                        self.pc += 1;
                        progressed = true;
                        continue;
                    }
                    if self.sleep_armed != Some(t) {
                        api.schedule_wake(t);
                        self.sleep_armed = Some(t);
                        progressed = true;
                    }
                }
                ScriptStep::Sleep(d) => match self.sleep_armed {
                    None => {
                        let until = api.now() + d;
                        api.schedule_wake(until);
                        self.sleep_armed = Some(until);
                        progressed = true;
                    }
                    Some(until) if api.now() >= until => {
                        self.sleep_armed = None;
                        self.pc += 1;
                        progressed = true;
                        continue;
                    }
                    Some(_) => {}
                },
                ScriptStep::Repeat { from_step, times } => {
                    assert!(from_step < self.pc, "Repeat must jump backwards");
                    let left = self.repeats_left.get_or_insert(times);
                    if *left == 0 {
                        self.repeats_left = None;
                        self.pc += 1;
                    } else {
                        *left -= 1;
                        self.pc = from_step;
                    }
                    progressed = true;
                    continue;
                }
            }
            return if progressed {
                AppStatus::Running
            } else {
                AppStatus::Blocked
            };
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::test_port::LoopbackPort;
    use crate::session::ShimSession;
    use mccs_collectives::op::all_reduce_sum;

    fn run_to_completion(prog: &mut ScriptedProgram, port: &mut LoopbackPort) -> usize {
        let mut session = ShimSession::new();
        let mut polls = 0;
        loop {
            let mut api = ShimApi::new(&mut session, port, GpuId(0));
            match prog.poll(&mut api) {
                AppStatus::Finished => return polls,
                _ => {
                    polls += 1;
                    port.now += Nanos::from_micros(10);
                    assert!(polls < 10_000, "script did not terminate");
                }
            }
        }
    }

    #[test]
    fn script_runs_allreduce_loop() {
        let comm = CommunicatorId(1);
        let mut prog = ScriptedProgram::new(
            "test",
            vec![
                ScriptStep::Alloc {
                    size: Bytes::mib(8),
                    slot: 0,
                },
                ScriptStep::Alloc {
                    size: Bytes::mib(8),
                    slot: 1,
                },
                ScriptStep::CommInit {
                    comm,
                    world: vec![GpuId(0)],
                    rank: 0,
                },
                ScriptStep::Collective {
                    comm,
                    op: all_reduce_sum(),
                    size: Bytes::mib(8),
                    send_slot: 0,
                    recv_slot: 1,
                },
                ScriptStep::Repeat {
                    from_step: 3,
                    times: 4,
                },
            ],
        );
        let mut port = LoopbackPort::new();
        run_to_completion(&mut prog, &mut port);
        // 5 collectives total (1 + 4 repeats)
        let colls = port
            .sent
            .iter()
            .filter(|c| matches!(c, mccs_ipc::ShimCommand::Collective { .. }))
            .count();
        assert_eq!(colls, 5);
    }

    #[test]
    fn compute_blocks_until_stream_drains() {
        let mut prog = ScriptedProgram::new(
            "compute",
            vec![ScriptStep::Compute(Nanos::from_micros(100))],
        );
        let mut port = LoopbackPort::new();
        let mut session = ShimSession::new();
        {
            let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
            assert_eq!(prog.poll(&mut api), AppStatus::Running, "enqueued");
            assert_eq!(prog.poll(&mut api), AppStatus::Blocked);
        }
        port.now = Nanos::from_micros(100);
        {
            let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
            assert_eq!(prog.poll(&mut api), AppStatus::Finished);
        }
    }

    #[test]
    fn sleep_until_waits_for_clock() {
        let mut prog =
            ScriptedProgram::new("sleep", vec![ScriptStep::SleepUntil(Nanos::from_millis(5))]);
        let mut port = LoopbackPort::new();
        let mut session = ShimSession::new();
        {
            let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
            assert_eq!(prog.poll(&mut api), AppStatus::Running, "armed");
            assert_eq!(prog.poll(&mut api), AppStatus::Blocked);
        }
        port.now = Nanos::from_millis(5);
        {
            let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
            assert_eq!(prog.poll(&mut api), AppStatus::Finished);
        }
    }

    #[test]
    fn a_refused_step_ends_the_script() {
        let comm = CommunicatorId(1);
        let mut prog = ScriptedProgram::new(
            "refused",
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
            ],
        );
        let mut port = LoopbackPort::new();
        port.auto_reply = false;
        let mut session = ShimSession::new();
        {
            let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
            assert_eq!(prog.poll(&mut api), AppStatus::Running);
        }
        let req = match port.sent[..] {
            [mccs_ipc::ShimCommand::MemAlloc { req, .. }] => req,
            ref other => panic!("expected one alloc, sent {other:?}"),
        };
        port.inbox.push_back(mccs_ipc::ShimCompletion::Error {
            req,
            code: mccs_ipc::ErrorCode::InvalidArgument,
            message: "allocation failed: out of memory".to_owned(),
        });
        let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
        assert_eq!(prog.poll(&mut api), AppStatus::Finished);
        assert_eq!(prog.poll(&mut api), AppStatus::Finished);
        assert_eq!(port.sent.len(), 1, "nothing issued after the refusal");
    }

    /// What a poll can do to the port: commands sent, wakes armed and
    /// kernel time enqueued.
    fn effects(port: &LoopbackPort) -> (usize, usize, Nanos) {
        (port.sent.len(), port.wakes.len(), port.stream_busy_until)
    }

    /// Run `steps` with a replying service until `setup` commands were
    /// sent, then silence the service: the next poll reaches the last
    /// step, performs its one effect and reports `Running`; the poll
    /// after it finds nothing new and reports `Blocked` with no effect.
    fn last_step_progresses_then_idles(steps: Vec<ScriptStep>, setup: usize) {
        let mut prog = ScriptedProgram::new("step", steps);
        let mut port = LoopbackPort::new();
        let mut session = ShimSession::new();
        while port.sent.len() < setup {
            let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
            assert_eq!(prog.poll(&mut api), AppStatus::Running, "setup issues");
        }
        port.auto_reply = false;
        let mut poll =
            |port: &mut LoopbackPort| prog.poll(&mut ShimApi::new(&mut session, port, GpuId(0)));
        assert_eq!(poll(&mut port), AppStatus::Running, "the step's effect");
        let before = effects(&port);
        assert_ne!(before, (setup, 0, Nanos::ZERO), "the step did something");
        assert_eq!(poll(&mut port), AppStatus::Blocked);
        assert_eq!(effects(&port), before, "an idle poll is pure");
    }

    fn alloc(slot: usize) -> ScriptStep {
        ScriptStep::Alloc {
            size: Bytes::mib(1),
            slot,
        }
    }

    fn comm_init() -> ScriptStep {
        ScriptStep::CommInit {
            comm: CommunicatorId(1),
            world: vec![GpuId(0)],
            rank: 0,
        }
    }

    #[test]
    fn issuing_an_alloc_is_progress() {
        last_step_progresses_then_idles(vec![alloc(0)], 0);
    }

    #[test]
    fn issuing_a_comm_init_is_progress() {
        last_step_progresses_then_idles(vec![comm_init()], 0);
    }

    #[test]
    fn issuing_a_collective_is_progress() {
        let coll = ScriptStep::Collective {
            comm: CommunicatorId(1),
            op: all_reduce_sum(),
            size: Bytes::mib(1),
            send_slot: 0,
            recv_slot: 1,
        };
        last_step_progresses_then_idles(vec![alloc(0), alloc(1), comm_init(), coll], 3);
    }

    #[test]
    fn issuing_a_comm_destroy_is_progress() {
        let destroy = ScriptStep::CommDestroy {
            comm: CommunicatorId(1),
        };
        last_step_progresses_then_idles(vec![comm_init(), destroy], 1);
    }

    #[test]
    fn enqueuing_compute_is_progress() {
        last_step_progresses_then_idles(vec![ScriptStep::Compute(Nanos::from_micros(100))], 0);
    }

    #[test]
    fn arming_a_sleep_until_is_progress() {
        last_step_progresses_then_idles(vec![ScriptStep::SleepUntil(Nanos::from_millis(5))], 0);
    }

    #[test]
    fn arming_a_sleep_is_progress() {
        last_step_progresses_then_idles(vec![ScriptStep::Sleep(Nanos::from_millis(2))], 0);
    }

    #[test]
    #[should_panic(expected = "slot before allocating")]
    fn using_unallocated_slot_panics() {
        let mut prog = ScriptedProgram::new(
            "bad",
            vec![ScriptStep::Collective {
                comm: CommunicatorId(0),
                op: all_reduce_sum(),
                size: Bytes::mib(1),
                send_slot: 0,
                recv_slot: 1,
            }],
        );
        let mut port = LoopbackPort::new();
        let mut session = ShimSession::new();
        let mut api = ShimApi::new(&mut session, &mut port, GpuId(0));
        prog.poll(&mut api);
    }
}
