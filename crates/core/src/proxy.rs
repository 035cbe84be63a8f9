//! The proxy engine — one per GPU.
//!
//! Proxies own communicator state, sequence tenant collectives, derive
//! edge schedules from the provider's [`CollectiveConfig`], drive
//! intra-host channel transfers, hand inter-host edges to transports, and
//! run the paper's Figure 4 **dynamic reconfiguration protocol**, whose
//! per-rank machine is [`crate::reconfig`]: this engine feeds it messages
//! and carries out its actions.

use crate::config::CollectiveConfig;
use crate::error::ServiceError;
use crate::health::FailureEvent;
use crate::messages::{EdgeSend, ProxyMsg, TransportMsg};
use crate::progress::ProgressId;
use crate::reconfig::{Action, Gossip, Reconfig};
use crate::world::{resources, World};
use mccs_collectives::{CollectiveOp, CollectiveSchedule, EdgeTask, ScheduleKey};
use mccs_device::{EventId, StreamId, StreamOp};
use mccs_ipc::{AppId, CollectiveRequest, CommunicatorId, ErrorCode, ShimCompletion};
use mccs_sim::{Bytes, Engine, Nanos, Poll, ResourceId};
use mccs_topology::GpuId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Time to tear down and re-establish a rank's peer connections when a
/// reconfiguration is applied.
const RECONNECT_DELAY: Nanos = Nanos::from_micros(500);

/// How long a launched collective may sit incomplete before its rank
/// reports it stalled to the recovery engine (and again after each
/// report). Armed only under a fault plan. The recovery engine also
/// waits this long before re-issuing a corrective drain.
pub(crate) const LIVENESS_TIMEOUT: Nanos = Nanos::from_millis(20);

/// How long a rank sits in the reconfiguration barrier before re-sending
/// its gossip (suspected control-message loss). Armed only under a fault
/// plan.
const GOSSIP_RETRY: Nanos = Nanos::from_micros(300);

/// A sequenced, not-yet-launched collective.
#[derive(Clone, Debug)]
pub struct PendingCollective {
    /// Tenant request id.
    pub req: u64,
    /// Assigned sequence number.
    pub seq: u64,
    /// The invocation.
    pub coll: CollectiveRequest,
    /// Its record in [`World::trace`](crate::world::World::trace).
    pub trace: usize,
}

/// The collective currently executing on a communicator rank, from its
/// admission (out of the queue) on.
#[derive(Clone, Debug)]
pub struct Inflight {
    /// The collective.
    pub pending: PendingCollective,
    /// The collective's entry in
    /// [`World::progress`](crate::world::World::progress), set once its
    /// transfers are launched (its app-stream dependency cleared).
    pub progress: Option<ProgressId>,
    /// When transfers were launched (liveness timer base).
    pub launched_at: Option<Nanos>,
    /// Stall reports already escalated to the recovery engine.
    pub stall_reports: u32,
    /// The liveness deadline a timer is pending for (armed once, not per
    /// idle poll; a plan installed mid-collective arms it on first sight).
    pub liveness_armed: Option<Nanos>,
}

impl Inflight {
    /// When the launched collective next counts as stalled: one
    /// [`LIVENESS_TIMEOUT`] past launch per report already made, plus one.
    fn liveness_deadline(&self) -> Option<Nanos> {
        let grace = LIVENESS_TIMEOUT.mul_f64(f64::from(self.stall_reports + 1));
        self.launched_at.map(|at| at + grace)
    }
}

/// One communicator rank's service-side state (lives in
/// [`World::comms`](crate::world::World::comms) so the management API can
/// see it).
#[derive(Debug)]
pub struct CommRank {
    /// Owning application.
    pub app: AppId,
    /// The rank's shim endpoint.
    pub endpoint: usize,
    /// Communicator id.
    pub comm: CommunicatorId,
    /// Rank -> GPU map.
    pub world_gpus: Vec<GpuId>,
    /// This rank.
    pub rank: usize,
    /// This rank's GPU.
    pub gpu: GpuId,
    /// Event recorded after each collective completes.
    pub comm_event: EventId,
    /// Service-internal streams, one per channel (grown on demand).
    pub streams: Vec<StreamId>,
    /// The provider's current strategy.
    pub config: CollectiveConfig,
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Sequenced, unlaunched collectives.
    pub queue: VecDeque<PendingCollective>,
    /// The executing collective.
    pub inflight: Option<Inflight>,
    /// The rank's side of the reconfiguration protocol.
    pub reconfig: Reconfig<CollectiveConfig>,
    /// Launches are gated until this time (connection re-establishment).
    pub resume_at: Nanos,
    /// The launch plan: the local edge tasks of the `(op, size)` this
    /// rank launched last, under its current rings (see `planned_tasks`).
    pub(crate) plan: Option<(CollectiveOp, Bytes, LocalTasks)>,
}

/// One rank's `(channel, task)` list of a schedule.
type LocalTasks = Arc<[(usize, EdgeTask)]>;

impl CommRank {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.world_gpus.len()
    }

    /// The GPU of the next rank around the control ring.
    fn next_rank_gpu(&self) -> GpuId {
        self.world_gpus[(self.rank + 1) % self.size()]
    }
}

/// Send/recv byte footprints implied by an op of reference size `size`
/// over `n` ranks, as seen from `rank` (NCCL buffer semantics) — what the
/// service validates tenant buffer ranges against. Rooted ops are
/// asymmetric: `Broadcast` reads the send buffer only at the root (every
/// rank receives), and `Reduce` writes the recv buffer only at the root
/// (every rank sends).
fn buffer_demands(op: CollectiveOp, size: Bytes, n: usize, rank: usize) -> (Bytes, Bytes) {
    let n = n.max(1) as u64;
    match op {
        CollectiveOp::AllReduce(_) => (size, size),
        CollectiveOp::AllGather => (size / n, size),
        CollectiveOp::ReduceScatter(_) => (size, size / n),
        CollectiveOp::Broadcast { root } => {
            if rank == root {
                (size, size)
            } else {
                (Bytes::ZERO, size)
            }
        }
        CollectiveOp::Reduce { root, .. } => {
            if rank == root {
                (size, size)
            } else {
                (size, Bytes::ZERO)
            }
        }
    }
}

/// The per-GPU proxy engine.
pub struct ProxyEngine {
    gpu: GpuId,
    /// What the protocol machine asked for, reused across steps.
    actions: Vec<Action<CollectiveConfig>>,
}

impl ProxyEngine {
    /// The proxy for `gpu`.
    pub fn new(gpu: GpuId) -> Self {
        ProxyEngine {
            gpu,
            actions: Vec::new(),
        }
    }

    /// What this proxy's own timers signal: its inbox, always watched.
    fn doorbell(&self) -> ResourceId {
        resources::proxy_inbox(self.gpu.index() as u32)
    }

    fn handle_msg(&mut self, w: &mut World, msg: ProxyMsg) {
        match msg {
            ProxyMsg::RegisterRank {
                app,
                endpoint,
                comm,
                world,
                rank,
                comm_event,
            } => {
                // The frontend refuses a second init of a registered
                // rank, but two inits sent within one hop both pass it:
                // the first registration stands and the second is dropped.
                if w.comms.contains(&(comm, self.gpu)) {
                    return;
                }
                let config = CollectiveConfig::default_for(&w.topo, &world);
                let reconfig = Reconfig::new(rank, world.len(), config.epoch, GOSSIP_RETRY);
                w.comms.insert(CommRank {
                    app,
                    endpoint,
                    comm,
                    world_gpus: world,
                    rank,
                    gpu: self.gpu,
                    comm_event,
                    streams: Vec::new(),
                    config,
                    next_seq: 0,
                    queue: VecDeque::new(),
                    inflight: None,
                    reconfig,
                    resume_at: Nanos::ZERO,
                    plan: None,
                });
            }
            ProxyMsg::Collective {
                endpoint,
                req,
                coll,
            } => self.handle_collective(w, endpoint, req, coll),
            ProxyMsg::CommDestroy {
                endpoint,
                req,
                comm,
            } => {
                let key = (comm, self.gpu);
                let busy = w
                    .comms
                    .get(&key)
                    .is_some_and(|r| r.inflight.is_some() || !r.queue.is_empty());
                if busy {
                    w.send_completion(
                        endpoint,
                        ServiceError::invalid_usage(format!(
                            "{comm} still has collectives in flight"
                        ))
                        .completion(req),
                    );
                } else if w.comms.remove(&key).is_some() {
                    // The schedule cache needs no cleanup: entries are
                    // keyed by ring shape, not communicator, and other
                    // communicators with the same shape may still use them.
                    w.send_completion(endpoint, ShimCompletion::CommDestroy { req });
                } else {
                    w.send_completion(
                        endpoint,
                        ServiceError::invalid_usage(format!("unknown communicator {comm}"))
                            .completion(req),
                    );
                }
            }
            ProxyMsg::Reconfigure {
                comm,
                incarnation,
                config,
            } => {
                let fed = self.feed(w, comm, |rank, w, lossy, out| {
                    let valid = config.validate(&w.topo, &rank.world_gpus).is_ok();
                    rank.reconfig
                        .on_req(lossy, w.clock, incarnation, config, valid, out)
                });
                // A corrective Req can race a teardown: counted, no panic.
                if !fed {
                    reject_reconfig(w, comm);
                }
            }
            // Late gossip for a rank this GPU tore down is dropped.
            ProxyMsg::BarrierGossip {
                comm,
                epoch,
                config,
                entries,
                hops_left: hops,
            } => {
                let g = Gossip {
                    epoch,
                    config,
                    entries,
                    hops,
                };
                self.feed(w, comm, |rank, w, lossy, out| {
                    rank.reconfig.on_gossip(lossy, w.clock, g, out)
                });
            }
        }
    }

    /// Feed one protocol input (given `lossy`) to this GPU's rank of
    /// `comm` and carry out its actions; false if there is no such rank.
    fn feed<F>(&mut self, w: &mut World, comm: CommunicatorId, input: F) -> bool
    where
        F: FnOnce(&mut CommRank, &World, bool, &mut Vec<Action<CollectiveConfig>>),
    {
        let Some(slot) = w.comms.slot_of(&(comm, self.gpu)) else {
            return false;
        };
        let mut rank = w.comms.lend(slot);
        input(&mut rank, w, w.fault_plan.is_some(), &mut self.actions);
        self.carry_out(w, &mut rank);
        w.comms.restore(slot, rank);
        true
    }

    /// Carry out what `rank`'s protocol machine asked for, in order.
    fn carry_out(&mut self, w: &mut World, rank: &mut CommRank) {
        let doorbell = self.doorbell();
        for action in self.actions.drain(..) {
            match action {
                Action::Send(g) => w.send_control(
                    rank.next_rank_gpu(),
                    ProxyMsg::BarrierGossip {
                        comm: rank.comm,
                        epoch: g.epoch,
                        config: g.config,
                        entries: g.entries,
                        hops_left: g.hops,
                    },
                ),
                Action::Arm(at) => w.signal_at(at, doorbell),
                Action::Switch(config, _) => {
                    if config.channel_rings != rank.config.channel_rings {
                        rank.plan = None;
                    }
                    rank.config = config;
                    // Under a plan, the last report retires the drain.
                    if w.fault_plan.is_some() {
                        w.health.record(FailureEvent::ReconfigApplied {
                            comm: rank.comm,
                            gpu: self.gpu,
                            epoch: rank.config.epoch,
                            at: w.clock,
                        });
                    }
                    rank.resume_at = w.clock + RECONNECT_DELAY;
                    w.signal_at(rank.resume_at, doorbell);
                }
                Action::Reject => reject_reconfig(w, rank.comm),
                // Digest-excluded: a crash leaves no observable mark.
                Action::Fenced => w.controller.stats.stale_fenced += 1,
                Action::ResendCounted => w.health.counters.gossip_resends += 1,
            }
        }
    }

    fn handle_collective(
        &mut self,
        w: &mut World,
        endpoint: usize,
        req: u64,
        coll: CollectiveRequest,
    ) {
        let key = (coll.comm, self.gpu);
        let Some(rank) = w.comms.get_mut(&key) else {
            w.send_completion(
                endpoint,
                ServiceError::invalid_usage(format!(
                    "collective on unknown communicator {}",
                    coll.comm
                ))
                .completion(req),
            );
            return;
        };
        let n = rank.size();
        // A root no rank holds leaves a rooted op without its source or
        // sink (NCCL: ncclInvalidArgument).
        if let CollectiveOp::Broadcast { root } | CollectiveOp::Reduce { root, .. } = coll.op {
            if root >= n {
                w.send_completion(
                    endpoint,
                    ServiceError::invalid_argument(format!(
                        "root {root} out of range for {n} ranks"
                    ))
                    .completion(req),
                );
                return;
            }
        }
        // Validate tenant buffer ranges (the §4.1 service-side check).
        let (send_bytes, recv_bytes) = buffer_demands(coll.op, coll.size, n, rank.rank);
        let send_ok = w
            .devices
            .validate(coll.send.0, coll.send.1, send_bytes.as_u64());
        let recv_ok = w
            .devices
            .validate(coll.recv.0, coll.recv.1, recv_bytes.as_u64());
        if let Err(e) = send_ok.and(recv_ok) {
            w.send_completion(
                endpoint,
                ServiceError::invalid_argument(format!("buffer validation failed: {e}"))
                    .completion(req),
            );
            return;
        }
        let seq = rank.next_seq;
        rank.next_seq += 1;
        let (app, rank_idx, op, size) = (rank.app, rank.rank, coll.op, coll.size);
        let trace = w
            .trace
            .issued(app, coll.comm, rank_idx, seq, op, size, w.clock);
        rank.queue.push_back(PendingCollective {
            req,
            seq,
            coll,
            trace,
        });
        w.send_completion(endpoint, ShimCompletion::CollectiveLaunched { req, seq });
    }

    /// Advance the communicator rank in `slot` of this GPU's walk list.
    ///
    /// The rank is lent out of [`World::comms`] for the step, so the
    /// helpers below can take it and the world mutably at once.
    fn step_comm(&mut self, w: &mut World, slot: u32) -> Step {
        let mut rank = w.comms.lend(slot);
        let comm = rank.comm;
        let mut progressed = false;

        // 1. Finalize a completed (or cleanly failed) launched collective.
        let launched = (rank.inflight.as_ref())
            .and_then(|i| Some((i.pending.seq, i.pending.trace, i.progress?)));
        if let Some((seq, trace, id)) = launched {
            let prog = w.progress.get(id);
            if let Some(done_at) = prog.completed_at {
                // Record the communicator event so tenant streams
                // waiting on it unblock.
                let stream = ensure_stream(&mut rank, 0, w);
                w.device_enqueue(stream, StreamOp::RecordEvent(rank.comm_event));
                w.trace.completed(trace, done_at);
                w.send_completion(rank.endpoint, ShimCompletion::CollectiveDone { comm, seq });
                rank.inflight = None;
                progressed = true;
            } else if prog.failed {
                fail_to_tenant(&mut rank, w, comm, seq, trace);
                rank.inflight = None;
                progressed = true;
            } else if let (true, Some(inf)) = (w.fault_plan.is_some(), rank.inflight.as_mut()) {
                // Liveness: escalate a silent stall to the recovery
                // engine. Only armed under a fault plan — with none,
                // no timers exist on this path at all.
                if let Some(deadline) = inf.liveness_deadline() {
                    if w.clock >= deadline {
                        inf.stall_reports += 1;
                        w.health.record(FailureEvent::CollectiveStalled {
                            comm,
                            seq,
                            at: w.clock,
                        });
                        let next = w.clock + LIVENESS_TIMEOUT;
                        w.signal_at(next, self.doorbell());
                        inf.liveness_armed = Some(next);
                        progressed = true;
                    } else if inf.liveness_armed != Some(deadline) {
                        w.signal_at(deadline, self.doorbell());
                        inf.liveness_armed = Some(deadline);
                    }
                }
            }
        }

        // 2. Launch an admitted collective whose dependency cleared —
        // unless another rank's transport already gave up on it, in which
        // case fail it locally too.
        if let Some(inf) = rank.inflight.as_ref().filter(|i| i.progress.is_none()) {
            let (seq, trace, dependency) = (
                inf.pending.seq,
                inf.pending.trace,
                inf.pending.coll.depends_on,
            );
            if w.collective_failed(comm, seq) {
                fail_to_tenant(&mut rank, w, comm, seq, trace);
                rank.inflight = None;
                progressed = true;
            } else if dependency.is_none_or(|ev| w.devices.event_time(ev).is_some()) {
                if let Some(mut inf) = rank.inflight.take() {
                    inf.progress = Some(launch_tasks(&mut rank, w, &inf.pending));
                    inf.launched_at = Some(w.clock);
                    // Under a plan the launch arms its liveness deadline
                    // itself, the instant stage 1 would arm next step.
                    if let (true, Some(deadline)) =
                        (w.fault_plan.is_some(), inf.liveness_deadline())
                    {
                        w.signal_at(deadline, self.doorbell());
                        inf.liveness_armed = Some(deadline);
                    }
                    rank.inflight = Some(inf);
                }
                progressed = true;
            }
        }

        // 3. Admit the next queued collective the protocol lets launch.
        // Admission commits it to the current configuration (a switch
        // waits for the rank to go idle), so it is what the rank
        // contributes to a barrier.
        if rank.inflight.is_none() && w.clock >= rank.resume_at {
            if let Some(pending) = rank.queue.pop_front_if(|p| rank.reconfig.may_launch(p.seq)) {
                rank.reconfig.launched(pending.seq);
                rank.inflight = Some(Inflight {
                    pending,
                    progress: None,
                    launched_at: None,
                    stall_reports: 0,
                    liveness_armed: None,
                });
                progressed = true;
            }
        }

        // 4. The protocol's step. A switch moves `resume_at` ahead, so
        // admitting first (step 3) changes nothing.
        let (lossy, idle) = (w.fault_plan.is_some(), rank.inflight.is_none());
        progressed |= rank.reconfig.poll(lossy, w.clock, idle, &mut self.actions);
        self.carry_out(w, &mut rank);

        // Settled: no stage above would act if stepped again now. Outside
        // a reconfiguration, a rank with nothing queued or admitted waits
        // for its inbox, and one whose collective is launched waits for
        // its progress entry (and, under a plan, for its armed liveness
        // timer). An admitted, unlaunched collective is not settled:
        // stage 2 launches it on the next step.
        let settled = rank.reconfig.is_settled()
            && match &rank.inflight {
                None => rank.queue.is_empty(),
                Some(inf) => {
                    let pending = inf.progress.is_some_and(|id| {
                        let p = w.progress.get(id);
                        p.completed_at.is_none() && !p.failed
                    });
                    let watched = !lossy
                        || inf
                            .liveness_deadline()
                            .is_some_and(|d| d > w.clock && inf.liveness_armed == Some(d));
                    pending && watched
                }
            };
        w.comms.restore(slot, rank);
        Step {
            progressed,
            settled,
        }
    }
}

/// What one step of a communicator rank did.
struct Step {
    /// Whether any stage acted.
    progressed: bool,
    /// Whether a step right after this one would act in no stage.
    settled: bool,
}

/// Drop a reconfiguration request: counted and recorded, never a panic.
fn reject_reconfig(w: &mut World, comm: CommunicatorId) {
    w.health.counters.reconfig_rejects += 1;
    w.health
        .record(FailureEvent::ReconfigRejected { comm, at: w.clock });
}

/// Report a cleanly failed collective to the tenant (recovery exhausted).
fn fail_to_tenant(
    rank: &mut CommRank,
    w: &mut World,
    comm: CommunicatorId,
    seq: u64,
    trace: usize,
) {
    // Record the communicator event so tenant streams waiting on the
    // collective unblock instead of hanging on a result that never comes.
    let stream = ensure_stream(rank, 0, w);
    w.device_enqueue(stream, StreamOp::RecordEvent(rank.comm_event));
    w.trace.failed(trace, w.clock);
    w.health.counters.collectives_failed += 1;
    w.send_completion(
        rank.endpoint,
        ShimCompletion::CollectiveFailed {
            comm,
            seq,
            code: ErrorCode::SystemError,
            message: "recovery exhausted: transport gave up on the collective's flows".into(),
        },
    );
}

/// Get (creating on demand) the per-channel service stream.
fn ensure_stream(rank: &mut CommRank, channel: usize, w: &mut World) -> StreamId {
    while rank.streams.len() <= channel {
        let s = w.devices.create_stream(rank.gpu);
        rank.streams.push(s);
    }
    rank.streams[channel]
}

/// The rank's local edge tasks for `(op, size)`: from its launch plan, or
/// on a miss projected out of the schedule, which then becomes the plan.
/// A steady launch thus builds no [`ScheduleKey`], hashes nothing and
/// projects nothing. The plan holds one shape, as every tenant that runs
/// one `(op, size)` needs; a rank that alternates shapes pays a world-cache
/// lookup per launch, no more than without a plan. A switch to different
/// rings drops it.
///
/// Schedule derivation is a pure function of (topology, op, size, channel
/// rings), so the derived schedule is cached **world-wide** in
/// [`World::schedule_cache`] under a [`ScheduleKey`] — every rank of a
/// communicator, and every *other* communicator whose rings canonicalize
/// to the same shape, shares one `Arc`, each rank projecting its own edge
/// tasks out of it. Because the rings are part of the key there is no
/// epoch bookkeeping: a reconfigured rank's new rings form a new key.
fn planned_tasks(rank: &mut CommRank, w: &mut World, p: &PendingCollective) -> LocalTasks {
    let (op, size) = (p.coll.op, p.coll.size);
    if let Some((_, _, tasks)) = (rank.plan.as_ref()).filter(|&&(o, s, _)| (o, s) == (op, size)) {
        return Arc::clone(tasks);
    }
    let rings = &rank.config.channel_rings;
    let topo = Arc::clone(&w.topo);
    let key = ScheduleKey::for_ring(&topo, op, size, rings);
    let tasks: Arc<[_]> = w
        .schedule_cache
        .get_or_derive(key, || CollectiveSchedule::ring(&topo, op, size, rings))
        .tasks_from_gpu(rank.gpu)
        .into();
    rank.plan = Some((op, size, Arc::clone(&tasks)));
    tasks
}

/// Launch this rank's local edge tasks of `p`.
fn launch_tasks(rank: &mut CommRank, w: &mut World, p: &PendingCollective) -> ProgressId {
    let epoch = rank.config.epoch;
    let local = planned_tasks(rank, w, p);
    let launch = w.register_launch(p.coll.comm, p.seq, epoch, rank.size(), local.len());
    w.trace.launched(p.trace, rank.config.epoch, w.clock);
    for (&(channel, task), token) in local.iter().zip(launch.tokens) {
        match task {
            EdgeTask::IntraHost { bytes, .. } => {
                let stream = ensure_stream(rank, channel, w);
                w.enqueue_transfer(stream, bytes, token);
            }
            EdgeTask::InterHost {
                src_nic,
                dst_nic,
                bytes,
                ..
            } => {
                let route = rank
                    .config
                    .route_choice(p.coll.comm, channel, src_nic, dst_nic);
                w.send_to_transport(
                    src_nic,
                    TransportMsg::Send(EdgeSend {
                        app: rank.app,
                        comm: p.coll.comm,
                        seq: p.seq,
                        token,
                        dst_nic,
                        bytes,
                        route,
                    }),
                );
            }
        }
    }
    launch.progress
}

impl Engine<World> for ProxyEngine {
    fn progress(&mut self, w: &mut World) -> Poll {
        // A crashed host freezes its proxies (plan-gated; no check at all
        // on the fault-free path).
        if w.fault_plan.is_some() && w.health.is_host_down(w.topo.host_of_gpu(self.gpu)) {
            return Poll::Idle;
        }
        let mut progressed = false;
        // Drain visible inbox messages.
        loop {
            let now = w.clock;
            let Some(msg) = w.proxy_inbox[self.gpu.index()].pop(now) else {
                break;
            };
            self.handle_msg(w, msg);
            progressed = true;
        }
        // Advance every communicator with a rank on this GPU (the per-GPU
        // list spares the cluster-wide scan). Walked by index, no copy:
        // a step only lends and restores its own rank, and ranks register
        // or leave only through the inbox drained above, so the list is
        // the same after each step.
        let mut i = 0;
        let mut settled = true;
        while let Some(&(_, slot)) = w.comms.on_gpu(self.gpu).get(i) {
            let step = self.step_comm(w, slot);
            progressed |= step.progressed;
            settled &= step.settled;
            i += 1;
        }
        // Drained: a poll now finds no visible message (a step may have
        // sent one to this GPU, not visible before its latency) and no
        // rank to step.
        let drained = settled && w.proxy_inbox[self.gpu.index()].peek(w.clock).is_none();
        match (progressed, drained) {
            (false, _) => Poll::Idle,
            (true, true) => Poll::Drained,
            (true, false) => Poll::Progressed,
        }
    }

    fn wake_when(&self, w: &World, on: &mut Vec<ResourceId>) {
        let plan = w.fault_plan.is_some();
        // Frozen on a crashed host: only a health event (HostUp) can
        // change anything this engine would do.
        if plan && w.health.is_host_down(w.topo.host_of_gpu(self.gpu)) {
            on.push(resources::health_channel());
            return;
        }
        // Visible messages and this proxy's own timers.
        on.push(self.doorbell());
        if !plan {
            // Installing a plan arms the liveness/gossip timers.
            on.push(resources::fault_plan_installed());
        }
        let comms = w.comms.on_gpu(self.gpu);
        // Token completions, failures, and aborts per communicator.
        on.extend(comms.iter().map(|&(comm, _)| resources::progress(comm)));
        // An admitted collective waits for its dependency event, which
        // the tenant records on a stream of this GPU. Nothing else here
        // waits on the device: transfers report through their tokens.
        let waits_on_device = comms.iter().any(|&(_, slot)| {
            w.comms.at(slot).inflight.as_ref().is_some_and(|inf| {
                inf.progress.is_none()
                    && (inf.pending.coll.depends_on)
                        .is_some_and(|ev| w.devices.event_time(ev).is_none())
            })
        });
        if waits_on_device {
            on.push(resources::event_recorded(self.gpu.index() as u32));
        }
    }

    fn name(&self) -> String {
        format!("proxy({})", self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouteMap;
    use crate::scenario::{Scenario, Tenant, TenantMode};
    use crate::Cluster;
    use mccs_collectives::{op::all_reduce_sum, ReduceKind, RingOrder};
    use mccs_topology::presets;

    #[test]
    fn a_switch_to_new_rings_replans_and_one_to_the_same_rings_does_not() {
        let comm = CommunicatorId(5);
        let (op, size) = (all_reduce_sum(), Bytes::mib(4));
        let tenant = Tenant {
            name: "planned".to_owned(),
            gpus: vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)],
            op,
            size,
            iters: 60,
            start: Nanos::ZERO,
            compute: Nanos::ZERO,
            mode: TenantMode::Service(comm),
        };
        let mut cluster = Scenario {
            topo: Arc::new(presets::testbed()),
            config: Default::default(),
            tenants: vec![tenant],
            faults: None,
        }
        .build();
        let plan = |c: &Cluster| {
            let rank = c.world.comms.get(&(comm, GpuId(0))).expect("registered");
            (
                rank.config.epoch,
                rank.plan.as_ref().map(|(_, _, tasks)| Arc::clone(tasks)),
            )
        };
        let reconfigure = |c: &mut Cluster, rings: Vec<RingOrder>| {
            let epoch = plan(c).0;
            c.mgmt().reconfigure(comm, rings, RouteMap::ecmp());
            while plan(c).0 == epoch {
                c.step().expect("the tenant is still running");
            }
            // Run past the switch's reconnect gate into the next launch.
            let resume = c
                .world
                .comms
                .get(&(comm, GpuId(0)))
                .expect("kept")
                .resume_at;
            c.run_until(resume + Nanos::from_millis(5));
        };
        cluster.run_until(Nanos::from_millis(5));
        let (_, first) = plan(&cluster);
        let first = first.expect("a launch planned its tasks");
        let (hits, misses) = cluster.world.schedule_cache.stats();
        assert_eq!(
            (hits, misses),
            (3, 1),
            "one lookup per rank, the rest from the plan"
        );

        let rings = cluster.mgmt().communicator(comm).expect("known").rings;
        reconfigure(&mut cluster, rings.clone());
        let (_, same) = plan(&cluster);
        assert!(
            same.is_some_and(|tasks| Arc::ptr_eq(&tasks, &first)),
            "unchanged rings keep their plan"
        );
        assert_eq!(cluster.world.schedule_cache.stats(), (3, 1), "no lookup");

        let reversed: Vec<RingOrder> = rings.iter().map(RingOrder::reversed).collect();
        reconfigure(&mut cluster, reversed);
        let (_, fresh) = plan(&cluster);
        let fresh = fresh.expect("replanned at the next launch");
        assert!(!Arc::ptr_eq(&fresh, &first), "new rings, new plan");
        assert_ne!(*fresh, *first, "the reversed ring sends the other way");
        assert_eq!(cluster.world.schedule_cache.stats().1, 2, "one new shape");
        cluster.run_until_quiescent(Nanos::from_secs(30));
    }

    #[test]
    fn buffer_demands_follow_nccl_root_semantics() {
        let s = Bytes::mib(8);
        let n = 4;
        // Symmetric ops are rank-independent.
        for rank in 0..n {
            assert_eq!(
                buffer_demands(CollectiveOp::AllReduce(ReduceKind::Sum), s, n, rank),
                (s, s)
            );
            assert_eq!(
                buffer_demands(CollectiveOp::AllGather, s, n, rank),
                (s / n as u64, s)
            );
            assert_eq!(
                buffer_demands(CollectiveOp::ReduceScatter(ReduceKind::Sum), s, n, rank),
                (s, s / n as u64)
            );
        }
        // Broadcast: send buffer significant only at the root.
        let bcast = CollectiveOp::Broadcast { root: 2 };
        assert_eq!(buffer_demands(bcast, s, n, 2), (s, s));
        assert_eq!(buffer_demands(bcast, s, n, 0), (Bytes::ZERO, s));
        // Reduce: recv buffer significant only at the root.
        let reduce = CollectiveOp::Reduce {
            root: 1,
            kind: ReduceKind::Sum,
        };
        assert_eq!(buffer_demands(reduce, s, n, 1), (s, s));
        assert_eq!(buffer_demands(reduce, s, n, 3), (s, Bytes::ZERO));
    }
}
