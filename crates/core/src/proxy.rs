//! The proxy engine — one per GPU.
//!
//! Proxies own communicator state, sequence tenant collectives, derive
//! edge schedules from the provider's [`CollectiveConfig`], drive
//! intra-host channel transfers, hand inter-host edges to transports, and
//! run the paper's Figure 4 **dynamic reconfiguration protocol**:
//!
//! 1. a reconfiguration request (`Req`) reaches each rank's proxy at a
//!    different time;
//! 2. upon receipt, a proxy stops launching, queues subsequent
//!    collectives, and contributes its *last launched* sequence number to
//!    a control-ring AllGather (`AG`);
//! 3. once a proxy has gathered all ranks' contributions it computes the
//!    maximum and **drains**: launches exactly the queued collectives with
//!    `seq <= max` under the *old* configuration;
//! 4. when those complete, it tears down and re-establishes connections
//!    (modeled as [`ServiceConfig::reconnect_delay`](crate::config::ServiceConfig))
//!    and resumes under the new configuration.
//!
//! The safety property (checked by tests and asserted in traces): every
//! collective executes under the same configuration epoch on every rank,
//! and an absent reconfiguration adds zero overhead to the data path.

use crate::config::CollectiveConfig;
use crate::error::ServiceError;
use crate::health::FailureEvent;
use crate::messages::{ProxyMsg, TransportMsg};
use crate::world::{resources, World};
use mccs_collectives::{CollectiveOp, CollectiveSchedule, EdgeTask, ScheduleKey};
use mccs_device::{EventId, StreamId, StreamOp};
use mccs_ipc::{AppId, CollectiveRequest, CommunicatorId, ErrorCode, ShimCompletion};
use mccs_sim::{Bytes, Engine, Nanos, Poll, ResourceId};
use mccs_topology::GpuId;
use std::collections::{BTreeMap, VecDeque};
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

/// The collective currently executing on a communicator rank.
#[derive(Clone, Debug)]
pub struct Inflight {
    /// Sequence number.
    pub seq: u64,
    /// App-stream dependency to wait for before moving data.
    pub dependency: Option<EventId>,
    /// Whether transfers have been launched.
    pub launched: bool,
    /// When transfers were launched (liveness timer base).
    pub launched_at: Option<Nanos>,
    /// Stall reports already escalated to the recovery engine.
    pub stall_reports: u32,
    /// The liveness deadline a timer is pending for (armed once, not per
    /// idle poll; a plan installed mid-collective arms it on first sight).
    pub liveness_armed: Option<Nanos>,
}

/// Reconfiguration protocol state (Figure 4).
#[derive(Clone, Debug)]
pub enum ReconfigState {
    /// No reconfiguration in flight — the fast path.
    Normal,
    /// `Req` received; gathering last-launched sequence numbers.
    Barrier {
        /// The configuration to apply.
        new_config: CollectiveConfig,
        /// rank -> last launched (`None` = never launched).
        entries: BTreeMap<usize, Option<u64>>,
    },
    /// Barrier complete; draining collectives `<= max_seq` under the old
    /// configuration.
    Draining {
        /// The configuration to apply.
        new_config: CollectiveConfig,
        /// Barrier maximum; `None` when no rank had launched anything.
        max_seq: Option<u64>,
    },
}

/// A barrier-gossip message parked until this rank enters the barrier:
/// `(epoch, pending config, entries, hops_left)`.
pub type PendingGossip = (u64, CollectiveConfig, BTreeMap<usize, Option<u64>>, usize);

/// One communicator rank's service-side state (lives in
/// [`World::comms`](crate::world::World) so the management API can see it).
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
    /// Last launched sequence number.
    pub last_launched: Option<u64>,
    /// Sequenced, unlaunched collectives.
    pub queue: VecDeque<PendingCollective>,
    /// The executing collective.
    pub inflight: Option<Inflight>,
    /// Reconfiguration protocol state.
    pub reconfig: ReconfigState,
    /// Launches are gated until this time (connection re-establishment).
    pub resume_at: Nanos,
    /// Barrier gossip that arrived before this rank's own `Req`:
    /// `(epoch, pending config, entries, hops_left)`.
    pub pending_gossip: Vec<PendingGossip>,
    /// When this rank last sent its barrier gossip (`Some` only while in
    /// the barrier). Drives the plan-gated gossip re-send timer.
    pub barrier_since: Option<Nanos>,
    /// The gossip re-send deadline a timer is pending for (armed once, not
    /// per idle poll; a plan installed mid-barrier arms it on first sight).
    pub gossip_armed: Option<Nanos>,
    /// The complete entry set of the last barrier this rank finished:
    /// `(epoch, entries)`. Lets a rank that has already applied a
    /// reconfiguration answer a peer still stuck gathering it — a peer
    /// whose final gossip hop was lost would otherwise resend an
    /// incomplete view forever past ranks that merely forward it.
    pub last_barrier: Option<(u64, BTreeMap<usize, Option<u64>>)>,
    /// Highest controller incarnation this rank has heard a
    /// reconfiguration from. Requests from older incarnations — a dead
    /// controller's commands still in flight when it crashed — are
    /// fenced (dropped without entering the barrier).
    pub controller_incarnation: u64,
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
}

impl ProxyEngine {
    /// The proxy for `gpu`.
    pub fn new(gpu: GpuId) -> Self {
        ProxyEngine { gpu }
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
                let config = CollectiveConfig::default_for(&w.topo, &world);
                let prior = w.comm_insert(
                    (comm, self.gpu),
                    CommRank {
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
                        last_launched: None,
                        queue: VecDeque::new(),
                        inflight: None,
                        reconfig: ReconfigState::Normal,
                        resume_at: Nanos::ZERO,
                        pending_gossip: Vec::new(),
                        barrier_since: None,
                        gossip_armed: None,
                        last_barrier: None,
                        controller_incarnation: 0,
                    },
                );
                assert!(
                    prior.is_none(),
                    "duplicate communicator registration for {comm} on {}",
                    self.gpu
                );
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
                } else if w.comm_remove(key).is_some() {
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
            } => self.handle_reconfigure(w, comm, incarnation, config),
            ProxyMsg::BarrierGossip {
                comm,
                epoch,
                config,
                entries,
                hops_left,
            } => self.handle_gossip(w, comm, epoch, config, entries, hops_left),
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
        let Some(rank) = w.comms.get(&key) else {
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
        // Validate tenant buffer ranges (the §4.1 service-side check).
        let (send_bytes, recv_bytes) = buffer_demands(coll.op, coll.size, rank.size(), rank.rank);
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
        let rank = w.comms.get_mut(&key).expect("checked above");
        let seq = rank.next_seq;
        rank.next_seq += 1;
        let (app, rank_idx, op, size) = (rank.app, rank.rank, coll.op, coll.size);
        rank.queue.push_back(PendingCollective { req, seq, coll });
        w.trace
            .issued(app, coll.comm, rank_idx, seq, op, size, w.clock);
        w.send_completion(endpoint, ShimCompletion::CollectiveLaunched { req, seq });
    }

    fn handle_reconfigure(
        &mut self,
        w: &mut World,
        comm: CommunicatorId,
        incarnation: u64,
        config: CollectiveConfig,
    ) {
        let key = (comm, self.gpu);
        let Some(rank) = w.comms.get(&key) else {
            // A corrective Req can race a teardown; count it rather than
            // bring the service down.
            return reject_reconfig(w, comm);
        };
        if incarnation < rank.controller_incarnation {
            // A dead controller incarnation's command arriving late —
            // fence it. Tallied only in the digest-excluded controller
            // stats: fencing exists so a crash leaves no observable mark.
            w.controller.stats.stale_fenced += 1;
            return;
        }
        if incarnation > rank.controller_incarnation {
            // First word from a newer incarnation: raise the fence even
            // if this particular request ends up rejected below.
            w.comms
                .get_mut(&key)
                .expect("rank just looked up")
                .controller_incarnation = incarnation;
        }
        let rank = w.comms.get(&key).expect("rank just looked up");
        match &rank.reconfig {
            ReconfigState::Normal if config.epoch == rank.config.epoch + 1 => {
                // A pin no route answers to would panic the first flow
                // started under it. Every rank sees the same pins, so all
                // of them refuse the epoch together.
                if config.routes.validate(&w.topo).is_err() {
                    return reject_reconfig(w, comm);
                }
            }
            ReconfigState::Barrier { new_config, .. }
            | ReconfigState::Draining { new_config, .. }
                if new_config.epoch == config.epoch =>
            {
                // Duplicate of a barrier we already entered (e.g. our
                // implicit request from gossip beat the explicit one).
                return;
            }
            _ => {
                // Overlapping or epoch-skipping reconfiguration — reject.
                // With a fault plan installed these can legitimately race
                // (the recovery engine and the controller both correcting);
                // without one the controller is misbehaving, but either way
                // the safe response is to drop the request and count it.
                return reject_reconfig(w, comm);
            }
        }
        self.begin_barrier(w, comm, config, BTreeMap::new());
    }

    /// Enter the reconfiguration barrier for `config` (from an explicit
    /// `Req` or implicitly from another rank's gossip when ours was lost),
    /// seeding the AllGather view with `seed` entries gathered elsewhere.
    fn begin_barrier(
        &mut self,
        w: &mut World,
        comm: CommunicatorId,
        config: CollectiveConfig,
        seed: BTreeMap<usize, Option<u64>>,
    ) {
        let key = (comm, self.gpu);
        let mut rank = w.comm_remove(key).expect("caller verified");
        let epoch = config.epoch;
        let mut entries = seed;
        entries.insert(rank.rank, rank.last_launched);
        // Merge gossip that arrived before our own request. Epochs can
        // legitimately skew: a neighbour's `Req` may land (and its gossip
        // reach us) before ours does, so matching-epoch gossip folds into
        // our barrier view, while gossip for a *later* epoch is held for
        // the reconfiguration that will consume it. Stale gossip cannot be
        // held here: `Normal` state only holds entries newer than the
        // applied epoch, so anything older indicates protocol corruption.
        let pending = std::mem::take(&mut rank.pending_gossip);
        let n = rank.size();
        for (e, cfg, gossip, hops) in pending {
            match e.cmp(&epoch) {
                std::cmp::Ordering::Equal => {
                    for (r, v) in &gossip {
                        entries.insert(*r, *v);
                    }
                }
                std::cmp::Ordering::Greater => rank.pending_gossip.push((e, cfg, gossip, hops)),
                std::cmp::Ordering::Less => panic!(
                    "stale barrier gossip for epoch {e} held across reconfiguration \
                     to epoch {epoch} on {comm} rank {}",
                    rank.rank
                ),
            }
        }
        rank.reconfig = ReconfigState::Barrier {
            new_config: config.clone(),
            entries: entries.clone(),
        };
        rank.barrier_since = Some(w.clock);
        if w.fault_plan.is_some() {
            // Arm the gossip re-send timer (control messages can be lost).
            let deadline = w.clock + w.svc.gossip_retry;
            w.signal_at(deadline, self.doorbell());
            rank.gossip_armed = Some(deadline);
        }
        // Contribute to the AllGather: send own view to the next rank.
        // The merged view subsumes any held gossip, and it circulates the
        // whole ring (`n - 1` hops), so held messages need no separate
        // re-forwarding.
        let next_gpu = rank.next_rank_gpu();
        w.comm_insert(key, rank);
        if n > 1 {
            w.send_control(
                next_gpu,
                ProxyMsg::BarrierGossip {
                    comm,
                    epoch,
                    config,
                    entries,
                    hops_left: n - 1,
                },
            );
        }
        self.maybe_finish_barrier(w, comm);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_gossip(
        &mut self,
        w: &mut World,
        comm: CommunicatorId,
        epoch: u64,
        config: CollectiveConfig,
        gossip: BTreeMap<usize, Option<u64>>,
        hops_left: usize,
    ) {
        let key = (comm, self.gpu);
        if !w.comms.contains_key(&key) {
            // Late gossip for a communicator this GPU already tore down.
            return;
        }
        // Implicit request: with a fault plan installed our own `Req` may
        // have been lost. Gossip for exactly the next epoch carries the
        // pending config, so enter the barrier from it instead of holding
        // the message forever (which would deadlock the ring).
        let implicit = {
            let rank = &w.comms[&key];
            w.fault_plan.is_some()
                && matches!(rank.reconfig, ReconfigState::Normal)
                && epoch == rank.config.epoch + 1
        };
        if implicit {
            self.begin_barrier(w, comm, config, gossip);
            return;
        }
        // Liveness under control loss: a rank that already finished this
        // epoch's barrier holds the complete view, while a peer whose
        // final gossip hop was dropped circulates an incomplete one that
        // ranks past the barrier only forward, never fill in. Answer with
        // the recorded complete view, sent the whole way around the ring
        // so it reaches the stuck rank wherever it sits. A complete view
        // never triggers this (`len == size`), so the answer terminates.
        let answer = {
            let rank = &w.comms[&key];
            if w.fault_plan.is_some() && gossip.len() < rank.size() {
                match &rank.last_barrier {
                    Some((e, full)) if *e == epoch => {
                        Some((rank.next_rank_gpu(), full.clone(), rank.size() - 1))
                    }
                    _ => None,
                }
            } else {
                None
            }
        };
        if let Some((next_gpu, entries, hops_left)) = answer {
            w.send_control(
                next_gpu,
                ProxyMsg::BarrierGossip {
                    comm,
                    epoch,
                    config,
                    entries,
                    hops_left,
                },
            );
            return;
        }
        let rank = w.comms.get_mut(&key).expect("checked above");
        let next_gpu = rank.next_rank_gpu();
        match &mut rank.reconfig {
            ReconfigState::Normal => {
                if epoch > rank.config.epoch {
                    // Our own Req has not arrived yet; hold the gossip for
                    // the reconfiguration that will consume it.
                    rank.pending_gossip.push((epoch, config, gossip, hops_left));
                } else if hops_left > 1 {
                    // Late circulation of a barrier we already completed
                    // and applied. We must not merge or hold it, but a
                    // slower rank downstream may still be gathering, so
                    // keep the ring chain alive.
                    w.send_control(
                        next_gpu,
                        ProxyMsg::BarrierGossip {
                            comm,
                            epoch,
                            config,
                            entries: gossip,
                            hops_left: hops_left - 1,
                        },
                    );
                }
            }
            ReconfigState::Barrier {
                entries,
                new_config,
            } => {
                if epoch == new_config.epoch {
                    for (r, v) in &gossip {
                        entries.insert(*r, *v);
                    }
                    if hops_left > 1 {
                        // Forward the *merged* view rather than the message
                        // as received: it is a superset, so one message can
                        // satisfy several downstream barriers at once.
                        let merged = entries.clone();
                        w.send_control(
                            next_gpu,
                            ProxyMsg::BarrierGossip {
                                comm,
                                epoch,
                                config,
                                entries: merged,
                                hops_left: hops_left - 1,
                            },
                        );
                    }
                    self.maybe_finish_barrier(w, comm);
                } else if epoch > new_config.epoch {
                    // Gossip from a reconfiguration we have not seen yet;
                    // hold it rather than corrupt the current barrier.
                    rank.pending_gossip.push((epoch, config, gossip, hops_left));
                } else if hops_left > 1 {
                    // Stale epoch: a slower rank may still need it — keep
                    // it circulating without merging.
                    w.send_control(
                        next_gpu,
                        ProxyMsg::BarrierGossip {
                            comm,
                            epoch,
                            config,
                            entries: gossip,
                            hops_left: hops_left - 1,
                        },
                    );
                }
            }
            ReconfigState::Draining { .. } => {
                // Our barrier is complete, but ranks downstream on the
                // control ring may still be gathering: dropping the message
                // here would break the forwarding chain and deadlock them.
                if hops_left > 1 {
                    w.send_control(
                        next_gpu,
                        ProxyMsg::BarrierGossip {
                            comm,
                            epoch,
                            config,
                            entries: gossip,
                            hops_left: hops_left - 1,
                        },
                    );
                }
            }
        }
    }

    fn maybe_finish_barrier(&mut self, w: &mut World, comm: CommunicatorId) {
        let key = (comm, self.gpu);
        let rank = w.comms.get_mut(&key).expect("caller verified");
        let ReconfigState::Barrier {
            new_config,
            entries,
        } = &rank.reconfig
        else {
            return;
        };
        if entries.len() < rank.size() {
            return;
        }
        let max_seq = entries.values().filter_map(|v| *v).max();
        rank.last_barrier = Some((new_config.epoch, entries.clone()));
        rank.reconfig = ReconfigState::Draining {
            new_config: new_config.clone(),
            max_seq,
        };
        rank.barrier_since = None;
    }

    /// Advance one communicator rank's execution state machine. Returns
    /// whether progress was made.
    fn step_comm(&mut self, w: &mut World, comm: CommunicatorId) -> bool {
        let key = (comm, self.gpu);
        let Some(mut rank) = w.comm_remove(key) else {
            return false;
        };
        let mut progressed = false;

        // 1. Finalize a completed (or cleanly failed) in-flight collective.
        if let Some(inf) = &rank.inflight {
            if inf.launched {
                if let Some(done_at) = w.collective_completed_at(comm, inf.seq) {
                    let seq = inf.seq;
                    // Record the communicator event so tenant streams
                    // waiting on it unblock.
                    let stream = ensure_stream(&mut rank, 0, w);
                    w.device_enqueue(stream, StreamOp::RecordEvent(rank.comm_event));
                    w.trace.completed(comm, rank.rank, seq, done_at);
                    w.send_completion(rank.endpoint, ShimCompletion::CollectiveDone { comm, seq });
                    rank.inflight = None;
                    progressed = true;
                } else if w.collective_failed(comm, inf.seq) {
                    let seq = inf.seq;
                    fail_to_tenant(&mut rank, w, comm, seq);
                    rank.inflight = None;
                    progressed = true;
                } else if w.fault_plan.is_some() {
                    // Liveness: escalate a silent stall to the recovery
                    // engine. Only armed under a fault plan — with none,
                    // no timers exist on this path at all.
                    let inf = rank.inflight.as_mut().expect("checked above");
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
                                seq: inf.seq,
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
        }

        // 2. Launch a dependency-cleared in-flight collective — unless
        // another rank's transport already gave up on it, in which case
        // fail it locally too (keeping `last_launched` moving so a drain
        // waiting on this sequence still terminates).
        if let Some(inf) = &rank.inflight {
            if !inf.launched {
                let seq = inf.seq;
                if w.collective_failed(comm, seq) {
                    rank.queue
                        .pop_front()
                        .filter(|p| p.seq == seq)
                        .expect("inflight collective kept at queue head until launch");
                    fail_to_tenant(&mut rank, w, comm, seq);
                    rank.last_launched = Some(rank.last_launched.map_or(seq, |l| l.max(seq)));
                    rank.inflight = None;
                    progressed = true;
                } else {
                    let ready = inf
                        .dependency
                        .is_none_or(|ev| w.devices.event_time(ev).is_some());
                    if ready {
                        let coll = rank
                            .queue
                            .front()
                            .filter(|p| p.seq == seq)
                            .cloned()
                            .expect("inflight collective kept at queue head until launch");
                        rank.queue.pop_front();
                        launch_tasks(&mut rank, w, &coll);
                        let inf = rank.inflight.as_mut().expect("checked");
                        inf.launched = true;
                        inf.launched_at = Some(w.clock);
                        rank.last_launched = Some(seq);
                        progressed = true;
                    }
                }
            }
        }

        // 3. Apply a drained reconfiguration. Draining completes when
        // nothing is in flight and either no rank had launched anything
        // (`max_seq` is `None`) or we have launched up through the barrier
        // maximum. Our own contribution is part of the barrier max, so
        // `last_launched` can only be `None` when `max_seq` permits it.
        if let ReconfigState::Draining {
            new_config,
            max_seq,
        } = &rank.reconfig
        {
            let caught_up = max_seq.is_none_or(|m| rank.last_launched.is_some_and(|l| l >= m));
            let drained = rank.inflight.is_none() && caught_up;
            if drained {
                rank.config = new_config.clone();
                rank.reconfig = ReconfigState::Normal;
                // Report drain completion to the controller (plan-gated,
                // like the rest of the liveness machinery): the last
                // rank's report lets it retire the drain obligation.
                if w.fault_plan.is_some() {
                    w.health.record(FailureEvent::ReconfigApplied {
                        comm,
                        gpu: self.gpu,
                        epoch: rank.config.epoch,
                        at: w.clock,
                    });
                }
                // Tear down / re-establish peer connections. (The shared
                // schedule cache needs no flush here: entries are keyed by
                // ring shape, so the new config keys new entries and the
                // old shape's entries simply age out.)
                rank.resume_at = w.clock + w.svc.reconnect_delay;
                w.signal_at(rank.resume_at, self.doorbell());
                progressed = true;
            }
        }

        // 3b. Barrier liveness (plan-gated): if the ring AllGather has
        // stalled — a gossip hop was dropped — re-send our merged view.
        // Merging is idempotent, so re-sends are always safe.
        if w.fault_plan.is_some() {
            if let (
                ReconfigState::Barrier {
                    new_config,
                    entries,
                },
                Some(since),
            ) = (&rank.reconfig, rank.barrier_since)
            {
                let deadline = since + w.svc.gossip_retry;
                if w.clock >= deadline && rank.size() > 1 {
                    let gossip = ProxyMsg::BarrierGossip {
                        comm,
                        epoch: new_config.epoch,
                        config: new_config.clone(),
                        entries: entries.clone(),
                        hops_left: rank.size() - 1,
                    };
                    let next_gpu = rank.next_rank_gpu();
                    rank.barrier_since = Some(w.clock);
                    w.health.counters.gossip_resends += 1;
                    w.send_control(next_gpu, gossip);
                    let next = w.clock + w.svc.gossip_retry;
                    w.signal_at(next, self.doorbell());
                    rank.gossip_armed = Some(next);
                    progressed = true;
                } else if rank.gossip_armed != Some(deadline) {
                    w.signal_at(deadline, self.doorbell());
                    rank.gossip_armed = Some(deadline);
                }
            }
        }

        // 4. Admit the next queued collective.
        if rank.inflight.is_none() && w.clock >= rank.resume_at {
            let admissible = match &rank.reconfig {
                ReconfigState::Normal => true,
                ReconfigState::Barrier { .. } => false,
                ReconfigState::Draining { max_seq, .. } => {
                    rank.queue.front().is_some_and(|p| Some(p.seq) <= *max_seq)
                }
            };
            if admissible {
                if let Some(p) = rank.queue.front() {
                    rank.inflight = Some(Inflight {
                        seq: p.seq,
                        dependency: p.coll.depends_on,
                        launched: false,
                        launched_at: None,
                        stall_reports: 0,
                        liveness_armed: None,
                    });
                    progressed = true;
                }
            }
        }

        w.comm_insert(key, rank);

        // 5. Implicit request from held gossip (plan-gated): once back in
        // `Normal`, gossip held for exactly the next epoch means the
        // explicit `Req` for it was lost — enter its barrier now.
        if w.fault_plan.is_some() {
            let held = {
                let rank = &w.comms[&key];
                if matches!(rank.reconfig, ReconfigState::Normal) {
                    let next = rank.config.epoch + 1;
                    rank.pending_gossip.iter().position(|(e, ..)| *e == next)
                } else {
                    None
                }
            };
            if let Some(idx) = held {
                let (_, config, gossip, _) = {
                    let rank = w.comms.get_mut(&key).expect("just inserted");
                    rank.pending_gossip.remove(idx)
                };
                self.begin_barrier(w, comm, config, gossip);
                progressed = true;
            }
        }
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
                let bandwidth = w.devices.config().intra_host_bandwidth;
                w.device_enqueue(
                    stream,
                    StreamOp::Transfer {
                        bytes,
                        bandwidth,
                        token,
                    },
                );
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
        // index spares the cluster-wide scan). Walked by index, no copy:
        // `step_comm` (and the `begin_barrier` it may call) removes and
        // re-inserts only its own key, so the list is the same after each
        // step.
        let mut i = 0;
        while let Some(&comm) = w.comms_on_gpu(self.gpu).get(i) {
            progressed |= self.step_comm(w, comm);
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
        let comms = w.comms_on_gpu(self.gpu);
        // Token completions, failures, and aborts per communicator.
        on.extend(comms.iter().map(|&comm| resources::progress(comm)));
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
