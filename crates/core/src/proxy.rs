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
use crate::messages::{ProxyMsg, TransportMsg};
use crate::reconfig::{Action, Gossip, Reconfig};
use crate::world::{resources, World};
use mccs_collectives::{CollectiveOp, CollectiveSchedule, EdgeTask, ScheduleKey};
use mccs_device::{EventId, StreamId, StreamOp};
use mccs_ipc::{AppId, CollectiveRequest, CommunicatorId, ErrorCode, ShimCompletion};
use mccs_sim::{Bytes, Engine, Nanos, Poll, ResourceId};
use mccs_topology::GpuId;
use std::collections::VecDeque;
use std::sync::Arc;

/// A sequenced, not-yet-launched collective.
#[derive(Clone, Debug)]
pub struct PendingCollective {
    /// Tenant request id.
    pub req: u64,
    /// Assigned sequence number.
    pub seq: u64,
    /// The invocation.
    pub coll: CollectiveRequest,
}

/// The collective currently executing on a communicator rank, from its
/// admission (out of the queue) on.
#[derive(Clone, Debug)]
pub struct Inflight {
    /// The collective.
    pub pending: PendingCollective,
    /// Whether transfers have been launched (its app-stream dependency
    /// cleared).
    pub launched: bool,
    /// When transfers were launched (liveness timer base).
    pub launched_at: Option<Nanos>,
    /// Stall reports already escalated to the recovery engine.
    pub stall_reports: u32,
    /// The liveness deadline a timer is pending for (armed once, not per
    /// idle poll; a plan installed mid-collective arms it on first sight).
    pub liveness_armed: Option<Nanos>,
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
}

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
                let reconfig = Reconfig::new(rank, world.len(), config.epoch, w.svc.gossip_retry);
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
                    rank.resume_at = w.clock + w.svc.reconnect_delay;
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
        rank.queue.push_back(PendingCollective { req, seq, coll });
        w.trace
            .issued(app, coll.comm, rank_idx, seq, op, size, w.clock);
        w.send_completion(endpoint, ShimCompletion::CollectiveLaunched { req, seq });
    }

    /// Advance the communicator rank in `slot` of this GPU's walk list.
    /// Returns whether progress was made.
    ///
    /// The rank is lent out of [`World::comms`] for the step, so the
    /// helpers below can take it and the world mutably at once.
    fn step_comm(&mut self, w: &mut World, slot: u32) -> bool {
        let mut rank = w.comms.lend(slot);
        let comm = rank.comm;
        let mut progressed = false;

        // 1. Finalize a completed (or cleanly failed) launched collective.
        let launched = rank.inflight.as_ref().filter(|i| i.launched);
        if let Some(seq) = launched.map(|i| i.pending.seq) {
            if let Some(done_at) = w.collective_completed_at(comm, seq) {
                // Record the communicator event so tenant streams
                // waiting on it unblock.
                let stream = ensure_stream(&mut rank, 0, w);
                w.device_enqueue(stream, StreamOp::RecordEvent(rank.comm_event));
                w.trace.completed(comm, rank.rank, seq, done_at);
                w.send_completion(rank.endpoint, ShimCompletion::CollectiveDone { comm, seq });
                rank.inflight = None;
                progressed = true;
            } else if w.collective_failed(comm, seq) {
                fail_to_tenant(&mut rank, w, comm, seq);
                rank.inflight = None;
                progressed = true;
            } else if let (true, Some(inf)) = (w.fault_plan.is_some(), rank.inflight.as_mut()) {
                // Liveness: escalate a silent stall to the recovery
                // engine. Only armed under a fault plan — with none,
                // no timers exist on this path at all.
                if let Some(at) = inf.launched_at {
                    let grace = w
                        .svc
                        .liveness_timeout
                        .mul_f64(f64::from(inf.stall_reports + 1));
                    let deadline = at + grace;
                    if w.clock >= deadline {
                        inf.stall_reports += 1;
                        w.health.record(FailureEvent::CollectiveStalled {
                            comm,
                            seq,
                            at: w.clock,
                        });
                        let next = w.clock + w.svc.liveness_timeout;
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
        if let Some(inf) = rank.inflight.as_ref().filter(|i| !i.launched) {
            let (seq, dependency) = (inf.pending.seq, inf.pending.coll.depends_on);
            if w.collective_failed(comm, seq) {
                fail_to_tenant(&mut rank, w, comm, seq);
                rank.inflight = None;
                progressed = true;
            } else if dependency.is_none_or(|ev| w.devices.event_time(ev).is_some()) {
                if let Some(mut inf) = rank.inflight.take() {
                    launch_tasks(&mut rank, w, &inf.pending);
                    inf.launched = true;
                    inf.launched_at = Some(w.clock);
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
                    launched: false,
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
        w.comms.restore(slot, rank);
        progressed
    }
}

/// Drop a reconfiguration request: counted and recorded, never a panic.
fn reject_reconfig(w: &mut World, comm: CommunicatorId) {
    w.health.counters.reconfig_rejects += 1;
    w.health
        .record(FailureEvent::ReconfigRejected { comm, at: w.clock });
}

/// Report a cleanly failed collective to the tenant (recovery exhausted).
fn fail_to_tenant(rank: &mut CommRank, w: &mut World, comm: CommunicatorId, seq: u64) {
    // Record the communicator event so tenant streams waiting on the
    // collective unblock instead of hanging on a result that never comes.
    let stream = ensure_stream(rank, 0, w);
    w.device_enqueue(stream, StreamOp::RecordEvent(rank.comm_event));
    w.trace.failed(comm, rank.rank, seq, w.clock);
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

/// Compute the schedule and launch this rank's local edge tasks.
///
/// Schedule derivation is a pure function of (topology, op, size, channel
/// rings), so the derived schedule is cached **world-wide** in
/// [`World::schedule_cache`] under a [`ScheduleKey`] — every rank of a
/// communicator, and every *other* communicator whose rings canonicalize
/// to the same shape, shares one `Arc`, each rank projecting its own edge
/// tasks out of it. Because the rings are part of the key there is no
/// epoch bookkeeping: a reconfigured rank's new rings form a new key,
/// while a rank still draining under the old epoch keys by its old rings
/// and keeps hitting the old entry.
fn launch_tasks(rank: &mut CommRank, w: &mut World, p: &PendingCollective) {
    let epoch = rank.config.epoch;
    let topo = Arc::clone(&w.topo);
    let key = ScheduleKey::for_ring(&topo, p.coll.op, p.coll.size, &rank.config.channel_rings);
    let local = w
        .schedule_cache
        .get_or_derive(key, || {
            CollectiveSchedule::ring(&topo, p.coll.op, p.coll.size, &rank.config.channel_rings)
        })
        .tasks_from_gpu(rank.gpu);
    let tokens = w.register_launch(p.coll.comm, p.seq, epoch, rank.size(), local.len());
    w.trace
        .launched(p.coll.comm, rank.rank, p.seq, rank.config.epoch, w.clock);
    for ((channel, task), token) in local.into_iter().zip(tokens) {
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
                    TransportMsg::Send {
                        app: rank.app,
                        comm: p.coll.comm,
                        seq: p.seq,
                        token,
                        src_nic,
                        dst_nic,
                        bytes,
                        route,
                    },
                );
            }
        }
    }
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
        while let Some(&(_, slot)) = w.comms.on_gpu(self.gpu).get(i) {
            progressed |= self.step_comm(w, slot);
            i += 1;
        }
        if progressed {
            Poll::Progressed
        } else {
            Poll::Idle
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
        if !comms.is_empty() {
            // Dependency events and comm-event records complete on device
            // streams, which carry no per-comm attribution.
            on.push(resources::device_activity(self.gpu.index() as u32));
        }
    }

    fn name(&self) -> String {
        format!("proxy({})", self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_collectives::ReduceKind;

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
