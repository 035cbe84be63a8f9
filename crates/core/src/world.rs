//! The shared simulation world.
//!
//! All engine-visible state lives here: the clock, the simulated network
//! and devices, every IPC queue and engine inbox, the communicator
//! registry, collective progress, and traces. Engines receive
//! `&mut World` when polled and communicate exclusively through it.

use crate::comms::CommTable;
use crate::config::{CollectiveConfig, ServiceConfig};
use crate::flat::FlatMap;
use crate::health::HealthRegistry;
use crate::messages::{ProxyMsg, TransportMsg};
use crate::progress::{CollectiveProgress, ProgressId, ProgressTable};
use crate::tracing::TraceCollector;
use mccs_collectives::{CollectiveSchedule, RingOrder, ScheduleKey};
use mccs_device::{
    DeviceFabric, DeviceNotification, DevicePtr, EventId, MemHandle, StreamId, INTRA_HOST_BANDWIDTH,
};
use mccs_ipc::{AppId, CommunicatorId, IpcConfig, LatencyQueue, ShimCommand, ShimCompletion};
use mccs_netsim::{ControlFault, FaultEvent, FaultPlan, FlowCompletion, FlowId, Network};
use mccs_shim::ShimPort;
use mccs_sim::{Bytes, EventQueue, IdWindow, Nanos, ResourceId, Rng, WakeSource};
use mccs_topology::{GpuId, LinkId, NicId, Topology};
#[allow(clippy::disallowed_types)] // the schedule cache: lookup only, never iterated
use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// The world's wake-resource keying: every queue, channel, and event
/// stream an engine can block on maps to a [`ResourceId`] here. Engines
/// declare these in `wake_when`; the world raises the matching signal when
/// what is waited for is there (a queue's when a pushed message turns
/// visible, not at push time), and the
/// [`RuntimePool`](mccs_sim::RuntimePool) readies exactly the parked
/// engines that watch them.
pub mod resources {
    use mccs_device::StreamId;
    use mccs_ipc::CommunicatorId;
    use mccs_sim::ResourceId;

    /// Shim -> service command queue of one endpoint has a message visible.
    pub const fn endpoint_cmd(endpoint: u32) -> ResourceId {
        ResourceId::new(1, endpoint)
    }

    /// Service -> shim completion queue of one endpoint has a message
    /// visible, or a timer the rank's program armed came due.
    pub const fn endpoint_comp(endpoint: u32) -> ResourceId {
        ResourceId::new(2, endpoint)
    }

    /// A GPU's proxy inbox has a message visible, or one of the proxy's
    /// own timers (reconnect gate, gossip re-send, liveness) came due.
    pub const fn proxy_inbox(gpu: u32) -> ResourceId {
        ResourceId::new(3, gpu)
    }

    /// A NIC's transport inbox has a message visible, or one of the
    /// transport's own timers (retry backoff, stall sweep, window
    /// boundary) came due.
    pub const fn transport_inbox(nic: u32) -> ResourceId {
        ResourceId::new(4, nic)
    }

    /// A NIC's transport received flow completions or failure notices.
    pub const fn transport_flow(nic: u32) -> ResourceId {
        ResourceId::new(5, nic)
    }

    /// A stream of one GPU recorded an event
    /// ([`mccs_device::DeviceFabric::pop_recorded_gpu`]). A proxy waits on
    /// it while a collective's dependency event is unrecorded: the tenant
    /// may record it on any stream of the GPU.
    pub const fn event_recorded(gpu: u32) -> ResourceId {
        ResourceId::new(6, gpu)
    }

    /// One stream's running op completed (silently or not), or an event
    /// record unblocked it ([`mccs_device::DeviceFabric::pop_touched_stream`]):
    /// a tenant rank waits on its own stream, so the service's streams on
    /// its GPU do not wake it, nor does its own enqueue.
    pub const fn stream_activity(stream: StreamId) -> ResourceId {
        ResourceId::new(13, stream.0)
    }

    /// Cluster-wide progress of one communicator's collectives changed
    /// (launch registered, task token completed or failed, abort). The
    /// 64-bit communicator id is truncated; collisions only cause
    /// harmless extra wakes.
    pub const fn progress(comm: CommunicatorId) -> ResourceId {
        ResourceId::new(7, comm.0 as u32)
    }

    /// A failure event was published on the health channel.
    pub const fn health_channel() -> ResourceId {
        ResourceId::new(8, 0)
    }

    /// A fault plan was installed (fault-gated engines leave their
    /// plan-free parking).
    pub const fn fault_plan_installed() -> ResourceId {
        ResourceId::new(9, 0)
    }

    /// The service drained messages from an endpoint's command queue —
    /// space freed for a back-pressured rank to resume pushing.
    pub const fn endpoint_cmd_space(endpoint: u32) -> ResourceId {
        ResourceId::new(10, endpoint)
    }

    /// The controller crashed or restarted (the recovery engine parks on
    /// this while the controller is down).
    pub const fn controller_status() -> ResourceId {
        ResourceId::new(11, 0)
    }

    /// A library-mode job's doorbell, indexed by its app id: one of its
    /// flows completed, or a timer it armed came due.
    pub(crate) const fn library_job(app: u32) -> ResourceId {
        ResourceId::new(12, app)
    }
}

/// Who gets a flow's completion event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FlowOwner {
    /// The transport engine of this NIC index (MCCS data path).
    Transport(usize),
    /// The library-mode job ([`crate::library`]) of this app id.
    Library(u32),
}

/// One tenant rank's IPC attachment point.
pub struct Endpoint {
    /// Owning application.
    pub app: AppId,
    /// Rank within the application.
    pub rank: usize,
    /// The GPU this rank was assigned.
    pub gpu: GpuId,
    /// The rank's default compute stream.
    pub app_stream: StreamId,
    /// Shim -> service commands.
    pub cmd: LatencyQueue<ShimCommand>,
    /// Service -> shim completions.
    pub comp: LatencyQueue<ShimCompletion>,
    /// Tenant-local randomness.
    pub rng: Rng,
}

/// A rank's registered launch: the collective's progress entry and the
/// task tokens handed out for its local tasks, one per task in order.
#[derive(Clone, Debug)]
pub struct Launch {
    /// The collective's entry in [`World::progress`].
    pub progress: ProgressId,
    /// Fresh, contiguous task tokens.
    pub tokens: Range<u64>,
}

/// The world-level schedule cache: derived [`CollectiveSchedule`]s keyed
/// by [`ScheduleKey`] (canonicalized ring shape + op + size + channel
/// count), shared across **communicators** — any two communicators whose
/// launches resolve to the same key get the same `Arc`, each rank
/// extracting its own work via `tasks_from_gpu`. Because the rings
/// themselves are part of the key, epoch and reconfiguration correctness
/// is structural: a reconfigured communicator's new rings form a new key,
/// while a rank still draining under the old epoch derives the old key
/// from its old rings and keeps hitting the old entry.
#[derive(Debug, Default)]
pub struct WorldScheduleCache {
    #[allow(clippy::disallowed_types)] // lookup only, never iterated (dropped wholesale)
    by_key: HashMap<ScheduleKey, Arc<CollectiveSchedule>>,
    hits: u64,
    misses: u64,
}

/// Cached schedules beyond this are assumed to be shapes retired by
/// reconfigurations or one-off sizes; the cache is dropped wholesale and
/// rebuilt on demand.
const SCHEDULE_CACHE_LIMIT: usize = 256;

/// One-way latency of a control-plane message (a reconfiguration request
/// or barrier gossip over the per-communicator TCP control ring), before
/// [`ServiceConfig::control_jitter_frac`].
const CONTROL_RING_LATENCY: Nanos = Nanos::from_micros(30);

impl WorldScheduleCache {
    /// The schedule under `key`, deriving and caching it on a miss.
    pub fn get_or_derive(
        &mut self,
        key: ScheduleKey,
        derive: impl FnOnce() -> CollectiveSchedule,
    ) -> Arc<CollectiveSchedule> {
        if let Some(s) = self.by_key.get(&key) {
            self.hits += 1;
            return Arc::clone(s);
        }
        self.misses += 1;
        if self.by_key.len() >= SCHEDULE_CACHE_LIMIT {
            self.by_key.clear();
        }
        let s = Arc::new(derive());
        self.by_key.insert(key, Arc::clone(&s));
        s
    }

    /// (hits, misses) since construction — benchmark/test probe.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct schedules currently cached.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the cache holds no schedules.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// A corrective reconfiguration the controller has issued but whose
/// completion (every rank back in `Normal` at the target epoch) it has
/// not yet observed. Carried in checkpoints so a restarted controller can
/// re-drive the drain.
#[derive(Clone, Debug)]
pub struct DrainObligation {
    /// The exact configuration that was sent (target epoch inside) — a
    /// re-drive resends *this*, never a replanned variant, so ranks that
    /// already applied it see a duplicate epoch and drop it.
    pub config: CollectiveConfig,
    /// When it was (re-)issued, for the liveness rate limit.
    pub issued_at: Nanos,
    /// Whether this drain rolls the communicator back toward its healthy
    /// baseline (a fail-back) rather than away from a failure. Completion
    /// of a restorative drain triggers the fail-back retirement check.
    pub restorative: bool,
}

/// The controller's durable working state: everything the recovery
/// engine must not forget across a crash. Checkpointed periodically;
/// restart restores the last checkpoint and reconciles the gap.
#[derive(Clone, Debug, Default)]
pub struct ControllerState {
    /// In-flight Fig-4 drain obligations per communicator, walked in id
    /// order by the retirement sweep and by a restart's re-drive.
    pub issued: BTreeMap<CommunicatorId, DrainObligation>,
    /// Communicators currently steered off their healthy-fabric plan.
    pub detoured: BTreeSet<CommunicatorId>,
    /// Pre-detour channel rings per communicator — the fail-back
    /// baselines a repair edge restores.
    pub baselines: BTreeMap<CommunicatorId, Vec<RingOrder>>,
    /// Health-channel cursor at checkpoint time; the restarted engine
    /// resumes (or resyncs) from here.
    pub channel_seq: u64,
}

/// Controller availability counters. Deliberately outside
/// [`crate::health::HealthCounters`]: a crash + restart that reconciles
/// to a no-op must leave the observable digest identical to the
/// crash-free run, so none of this is hashed (the `scheduler_stats`
/// precedent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Controller crashes applied.
    pub crashes: u64,
    /// Controller restarts applied.
    pub restarts: u64,
    /// Cumulative nanoseconds the controller has been down.
    pub downtime_ns: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Post-restart reconciliation passes run.
    pub reconciliations: u64,
    /// Reconfiguration commands ranks fenced as coming from a dead
    /// controller incarnation.
    pub stale_fenced: u64,
}

/// The crashable controller process, as the world sees it: liveness, the
/// incarnation fence, live working state, and the last checkpoint.
#[derive(Debug, Default)]
pub struct Controller {
    /// Whether the controller is currently down (recovery engine and
    /// health monitor frozen).
    pub down: bool,
    /// When the current outage began; `Some` exactly while `down`.
    pub crashed_at: Option<Nanos>,
    /// Bumped on every restart. Every reconfiguration command carries the
    /// issuing incarnation so ranks can fence commands a dead incarnation
    /// left in flight.
    pub incarnation: u64,
    /// Set by a restart; consumed by the recovery engine's first
    /// post-restart poll, which runs the reconciliation pass.
    pub pending_restart: bool,
    /// Live working state (the recovery engine reads and writes this;
    /// world-resident so management and tests can inspect it).
    pub live: ControllerState,
    /// The last checkpoint; a restart restores `live` from it (or from
    /// empty state if none was ever taken).
    pub checkpoint: Option<ControllerState>,
    /// When the last checkpoint was taken.
    pub last_checkpoint_at: Option<Nanos>,
    /// Availability counters (digest-excluded).
    pub stats: ControllerStats,
}

/// Everything the engines share.
pub struct World {
    /// The provider's private topology.
    pub topo: Arc<Topology>,
    /// Virtual time.
    pub clock: Nanos,
    /// World-level randomness (latency jitter).
    pub rng: Rng,
    /// The flow-level network.
    pub net: Network,
    /// The simulated GPUs.
    pub devices: DeviceFabric,
    /// IPC latency model.
    pub ipc: IpcConfig,
    /// Service tuning knobs.
    pub svc: ServiceConfig,
    /// The one timer structure: resources to signal at their instants.
    pub events: EventQueue<ResourceId>,
    /// Tenant rank endpoints.
    pub endpoints: Vec<Endpoint>,
    /// Per-GPU proxy inboxes.
    pub proxy_inbox: Vec<LatencyQueue<ProxyMsg>>,
    /// Per-NIC transport inboxes.
    pub transport_inbox: Vec<LatencyQueue<TransportMsg>>,
    /// Per-NIC completed-flow events awaiting transport processing.
    pub transport_flow_events: Vec<Vec<FlowCompletion>>,
    /// Per-NIC killed-flow notifications (fault-injected aborts); the
    /// transport retries these immediately.
    pub transport_flow_failures: Vec<Vec<FlowId>>,
    /// Who owns each in-flight network flow, by flow id. Ids are handed
    /// out sequentially by the network and every flow retires, so the
    /// window spans the live flows only.
    pub(crate) flow_owner_nic: IdWindow<FlowOwner>,
    /// Completed flows owned by library-mode jobs, indexed by app id.
    pub(crate) library_flow_events: Vec<Vec<FlowCompletion>>,
    /// Communicator state, keyed `(comm, gpu)` — owned by proxy engines,
    /// world-resident so the management API can inspect it.
    pub comms: CommTable,
    /// Cluster-wide collective progress, by handle and by `(comm, seq)`.
    pub progress: ProgressTable,
    /// World-level schedule cache, shared across communicators and ranks.
    pub schedule_cache: WorldScheduleCache,
    /// Live task token -> its collective's progress entry. Tokens are
    /// handed out in contiguous runs from `next_token`.
    tokens: IdWindow<ProgressId>,
    next_token: u64,
    /// The installed fault schedule. `None` (production runs) keeps every
    /// fault code path inert: no timers, no events, no trace changes.
    pub fault_plan: Option<FaultPlan>,
    /// Past-dated plan events clamped to "now" by mid-run installs
    /// (install-semantics observability; see [`Self::install_fault_plan`]).
    pub clamped_fault_events: u64,
    /// While set, control-plane sends are buffered instead of delivered
    /// (the chaos driver's `hold_control`). Only ever true with a fault
    /// plan installed, so fault-free runs pay a single branch.
    control_held: bool,
    /// Buffered control messages with their already-drawn latencies, in
    /// send order.
    held_control: Vec<(GpuId, Nanos, ProxyMsg)>,
    /// Link/host status, failure events and recovery counters.
    pub health: HealthRegistry,
    /// The crashable controller process: liveness, incarnation fence,
    /// live recovery state, and the last checkpoint.
    pub controller: Controller,
    /// Cluster-wide control-message send ordinal (orders `ControlFault`
    /// directives; the counter itself costs nothing).
    control_seq: u64,
    /// Collective traces (management plane).
    pub trace: TraceCollector,
    /// Tenant-perceived collective latencies (issue at the shim to
    /// completion at the shim), keyed by what the tenant observes.
    pub tenant_log: TenantLog,
    /// Application names, indexed by `AppId`.
    pub app_names: Vec<String>,
    /// Wake-resource signals raised since the scheduler last drained them
    /// (edge events; duplicates are fine).
    signals: Vec<ResourceId>,
}

/// Tenant-side latency bookkeeping, fed by the endpoint ports: a real
/// benchmark (nccl-tests style) measures at the application, which sees
/// the full IPC round trip on top of the service's internal latency.
#[derive(Default, Debug)]
pub struct TenantLog {
    /// Collectives in flight at the tenant, indexed by endpoint.
    endpoints: Vec<EndpointLog>,
    /// Finished records — completed *and* cleanly failed collectives.
    records: Vec<TenantRecord>,
}

/// One endpoint's collectives between the shim's push and the final
/// completion, keyed by the monotone numbers the endpoint sees.
#[derive(Default, Debug)]
struct EndpointLog {
    /// req -> communicator and push time of the collective command.
    pending_issue: IdWindow<(CommunicatorId, Nanos)>,
    /// comm -> seq -> issue time (after the launch ack named the seq).
    issued: FlatMap<CommunicatorId, IdWindow<Nanos>>,
}

/// One finished collective as the tenant saw it: issue at the shim to
/// the final completion message — `CollectiveDone`, or `CollectiveFailed`
/// for work the service gave up on. Failed work still consumed tenant
/// time; JCT accounting that dropped it would silently flatter failures.
#[derive(Clone, Copy, Debug)]
pub struct TenantRecord {
    /// Owning application.
    pub app: AppId,
    /// Endpoint (rank attachment) index.
    pub endpoint: usize,
    /// The communicator.
    pub comm: CommunicatorId,
    /// Collective sequence number.
    pub seq: u64,
    /// When the tenant pushed the collective command.
    pub issued: Nanos,
    /// When the final completion (done or failed) arrived.
    pub finished: Nanos,
    /// Whether the collective failed instead of completing.
    pub failed: bool,
}

impl TenantLog {
    fn endpoint(&mut self, endpoint: usize) -> &mut EndpointLog {
        if endpoint >= self.endpoints.len() {
            self.endpoints
                .resize_with(endpoint + 1, EndpointLog::default);
        }
        &mut self.endpoints[endpoint]
    }

    fn on_push(&mut self, endpoint: usize, cmd: &ShimCommand, now: Nanos) {
        if let ShimCommand::Collective { req, coll } = cmd {
            self.endpoint(endpoint)
                .pending_issue
                .insert(*req, (coll.comm, now));
        }
    }

    fn on_pop(&mut self, endpoint: usize, app: AppId, comp: &ShimCompletion, now: Nanos) {
        match comp {
            ShimCompletion::CollectiveLaunched { req, seq } => {
                let log = self.endpoint(endpoint);
                if let Some((comm, t)) = log.pending_issue.remove(*req) {
                    log.issued
                        .get_or_insert(comm, IdWindow::default())
                        .insert(*seq, t);
                }
            }
            ShimCompletion::CollectiveDone { comm, seq } => {
                self.finish(endpoint, app, *comm, *seq, now, false);
            }
            ShimCompletion::CollectiveFailed { comm, seq, .. } => {
                self.finish(endpoint, app, *comm, *seq, now, true);
            }
            // A refused collective is never acknowledged: it leaves the
            // log, or it would count as unfinished and pin the window.
            ShimCompletion::Error { req, .. } => {
                self.endpoint(endpoint).pending_issue.remove(*req);
            }
            _ => {}
        }
    }

    fn finish(
        &mut self,
        endpoint: usize,
        app: AppId,
        comm: CommunicatorId,
        seq: u64,
        now: Nanos,
        failed: bool,
    ) {
        let issued = self
            .endpoints
            .get_mut(endpoint)
            .and_then(|log| log.issued.get_mut(&comm))
            .and_then(|seqs| seqs.remove(seq));
        if let Some(t) = issued {
            self.records.push(TenantRecord {
                app,
                endpoint,
                comm,
                seq,
                issued: t,
                finished: now,
                failed,
            });
        }
    }

    /// Tenant-perceived `(seq, issued, done)` records of one endpoint's
    /// **completed** collectives, in issue order — the success-only JCT
    /// view. Use [`Self::outcomes_of_endpoint`] when failed work must be
    /// counted too.
    pub fn latencies_of_endpoint(&self, endpoint: usize) -> Vec<(u64, Nanos, Nanos)> {
        let mut v: Vec<(u64, Nanos, Nanos)> = self
            .records
            .iter()
            .filter(|r| r.endpoint == endpoint && !r.failed)
            .map(|r| (r.seq, r.issued, r.finished))
            .collect();
        v.sort_by_key(|&(_, t, _)| t);
        v
    }

    /// Every finished collective of one endpoint — completed and failed —
    /// in issue order.
    pub fn outcomes_of_endpoint(&self, endpoint: usize) -> Vec<TenantRecord> {
        let mut v: Vec<TenantRecord> = self
            .records
            .iter()
            .filter(|r| r.endpoint == endpoint)
            .copied()
            .collect();
        v.sort_by_key(|r| r.issued);
        v
    }

    /// Every finished record, in completion order (the chaos explorer's
    /// oracle input).
    pub fn records(&self) -> &[TenantRecord] {
        &self.records
    }

    /// Collectives issued at the shim but not yet finished. Must be zero
    /// at clean quiescence — a nonzero value there means a completion was
    /// lost, which the explorer reports as an oracle violation.
    pub fn unfinished(&self) -> usize {
        self.endpoints
            .iter()
            .map(|log| {
                log.pending_issue.len() + log.issued.values().map(IdWindow::len).sum::<usize>()
            })
            .sum()
    }
}

impl World {
    /// A fresh world over `topo`.
    pub fn new(topo: Arc<Topology>, ipc: IpcConfig, svc: ServiceConfig, seed: u64) -> Self {
        let gpu_count = topo.gpus().len();
        let nic_count = topo.nics().len();
        let cap = ipc.queue_capacity;
        let health = HealthRegistry::with_channel_capacity(svc.health_channel_capacity);
        World {
            net: Network::new(Arc::clone(&topo)),
            devices: DeviceFabric::new(gpu_count),
            topo,
            clock: Nanos::ZERO,
            rng: Rng::seed_from(seed),
            ipc,
            svc,
            events: EventQueue::new(),
            endpoints: Vec::new(),
            proxy_inbox: (0..gpu_count).map(|_| LatencyQueue::new(cap)).collect(),
            transport_inbox: (0..nic_count).map(|_| LatencyQueue::new(cap)).collect(),
            transport_flow_events: vec![Vec::new(); nic_count],
            transport_flow_failures: vec![Vec::new(); nic_count],
            flow_owner_nic: IdWindow::default(),
            library_flow_events: Vec::new(),
            comms: CommTable::new(gpu_count),
            progress: ProgressTable::default(),
            schedule_cache: WorldScheduleCache::default(),
            tokens: IdWindow::default(),
            next_token: 1,
            fault_plan: None,
            clamped_fault_events: 0,
            control_held: false,
            held_control: Vec::new(),
            health,
            controller: Controller::default(),
            control_seq: 0,
            trace: TraceCollector::new(),
            tenant_log: TenantLog::default(),
            app_names: Vec::new(),
            signals: Vec::new(),
        }
    }

    /// Raise a wake-resource signal (edge event; consumed by the pool on
    /// its next drain). Harmless under the naive scheduler, which drains
    /// and discards.
    pub fn signal(&mut self, r: ResourceId) {
        self.signals.push(r);
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock
    }

    // ---- time -----------------------------------------------------------

    /// The earliest future instant at which anything can happen.
    ///
    /// Only the event schedule and the self-timing substrates (network,
    /// devices, fault plan) are consulted: every queue push pairs with a
    /// [`signal_at`](Self::signal_at) its visibility time, so a queue head
    /// that is not yet visible is always covered by a pending event. The debug
    /// assertion checks that invariant against the exhaustive scan on
    /// every call in debug builds.
    pub fn next_time(&self) -> Option<Nanos> {
        let mut best: Option<Nanos> = None;
        let mut consider = |t: Option<Nanos>| {
            if let Some(t) = t {
                if t > self.clock {
                    best = Some(best.map_or(t, |b| b.min(t)));
                }
            }
        };
        // The queue only exposes its head; a head at or before the clock
        // (scheduled during a poll at the current instant) must surface
        // as "immediately" rather than mask later entries behind it —
        // the advance drains it and re-exposes whatever follows.
        consider(
            self.events
                .next_time()
                .map(|t| t.max(self.clock + Nanos(1))),
        );
        consider(self.net.next_completion_time());
        consider(self.devices.next_time());
        if let Some(plan) = &self.fault_plan {
            consider(plan.next_time());
        }
        debug_assert_eq!(
            best,
            self.next_time_exhaustive(),
            "a queue became visible with no covering scheduled wake"
        );
        best
    }

    /// The original exhaustive next-time scan over every queue head —
    /// kept as the debug-mode oracle for [`Self::next_time`].
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn next_time_exhaustive(&self) -> Option<Nanos> {
        let mut best: Option<Nanos> = None;
        let mut consider = |t: Option<Nanos>| {
            if let Some(t) = t {
                if t > self.clock {
                    best = Some(best.map_or(t, |b| b.min(t)));
                }
            }
        };
        consider(
            self.events
                .next_time()
                .map(|t| t.max(self.clock + Nanos(1))),
        );
        consider(self.net.next_completion_time());
        consider(self.devices.next_time());
        if let Some(plan) = &self.fault_plan {
            consider(plan.next_time());
        }
        for ep in &self.endpoints {
            consider(ep.cmd.next_visible());
            consider(ep.comp.next_visible());
        }
        for q in &self.proxy_inbox {
            consider(q.next_visible());
        }
        for q in &self.transport_inbox {
            consider(q.next_visible());
        }
        best
    }

    /// Advance every substrate to `t`, routing network completions to
    /// their transports and device completions into collective progress.
    /// Scripted faults due on the way fire at their exact instants.
    pub fn advance_to(&mut self, t: Nanos) {
        assert!(t >= self.clock, "world time went backwards");
        while let Some(ft) = self.fault_plan.as_ref().and_then(|p| p.next_time()) {
            if ft > t {
                break;
            }
            // A plan installed "late" may script events in the past; they
            // fire now rather than rewinding the substrates.
            self.advance_substrates(ft.max(self.clock));
            let due = self
                .fault_plan
                .as_mut()
                .expect("plan checked above")
                .pop_due(ft);
            for ev in due {
                self.apply_fault(ev);
            }
        }
        self.advance_substrates(t);
    }

    fn advance_substrates(&mut self, t: Nanos) {
        for c in self.net.advance_to(t) {
            match self
                .flow_owner_nic
                .remove(c.id.0)
                .expect("completed flow has no registered owner")
            {
                FlowOwner::Transport(nic) => {
                    self.signals.push(resources::transport_flow(nic as u32));
                    self.transport_flow_events[nic].push(c);
                }
                FlowOwner::Library(app) => {
                    self.signals.push(resources::library_job(app));
                    let app = app as usize;
                    if app >= self.library_flow_events.len() {
                        self.library_flow_events.resize_with(app + 1, Vec::new);
                    }
                    self.library_flow_events[app].push(c)
                }
            }
        }
        for n in self.devices.advance_to(t) {
            if let DeviceNotification::OpDone { token, at, .. } = n {
                self.complete_token(token, at);
            }
        }
        // Device completions can be silent (token-0 kernels, inline
        // records): the fabric's touched sets cover those too.
        self.signal_device_activity();
        while let Some((_, r)) = self.events.pop_due(t) {
            self.signals.push(r);
        }
        self.clock = t;
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        let now = self.clock;
        match ev {
            FaultEvent::LinkDown(link) => {
                self.net.set_link_up(now, link, false);
                self.health.link_down(link, now);
            }
            FaultEvent::LinkUp(link) => {
                self.net.set_link_up(now, link, true);
                self.health.link_up(link, now);
            }
            FaultEvent::LinkDegrade { link, milli } => {
                self.apply_degrade(link, milli);
            }
            FaultEvent::CorrelatedDegrade { links, milli } => {
                for &link in links.iter() {
                    self.apply_degrade(link, milli);
                }
            }
            FaultEvent::AbortFlowsOn(link) => {
                let victims = self.net.kill_flows_on_link(now, link);
                self.route_failed_flows(victims);
            }
            FaultEvent::CrashHost(host) => {
                self.health.host_down(host, now);
                let nics = self.topo.host(host).nics.clone();
                for nic in nics {
                    let victims = self.net.kill_flows_touching_nic(now, nic);
                    self.route_failed_flows(victims);
                }
            }
            FaultEvent::RestartHost(host) => {
                self.health.host_up(host, now);
            }
            // Controller liveness deliberately bypasses the health
            // registry: crash/restart must stay invisible to the
            // observable digest so a run whose restart reconciles to a
            // no-op hashes identically to the crash-free run.
            FaultEvent::CrashController => {
                if !self.controller.down {
                    self.controller.down = true;
                    self.controller.crashed_at = Some(now);
                    self.controller.stats.crashes += 1;
                    self.signals.push(resources::controller_status());
                }
            }
            FaultEvent::RestartController => {
                if self.controller.down {
                    let since = self
                        .controller
                        .crashed_at
                        .take()
                        .expect("down controller records its crash instant");
                    self.controller.stats.downtime_ns += now.0 - since.0;
                    self.controller.stats.restarts += 1;
                    self.controller.down = false;
                    self.controller.incarnation += 1;
                    // The in-memory working state died with the process;
                    // rebuild from the last checkpoint (empty if none).
                    self.controller.live = self.controller.checkpoint.clone().unwrap_or_default();
                    self.controller.pending_restart = true;
                    self.signals.push(resources::controller_status());
                }
            }
        }
    }

    fn apply_degrade(&mut self, link: LinkId, milli: u32) {
        let now = self.clock;
        let milli = milli.min(1000);
        self.net
            .set_link_degrade(now, link, f64::from(milli) / 1000.0);
        self.health.link_degraded(link, milli, now);
    }

    /// Hand fault-killed flows to their owning transports for retry.
    /// (Library-mode flows are outside the fault model and are
    /// dropped silently — their owner never started under a service SLA.)
    fn route_failed_flows(&mut self, victims: Vec<(FlowId, u64)>) {
        for (id, _) in victims {
            match self
                .flow_owner_nic
                .remove(id.0)
                .expect("killed flow has no registered owner")
            {
                FlowOwner::Transport(nic) => {
                    self.signals.push(resources::transport_flow(nic as u32));
                    self.transport_flow_failures[nic].push(id);
                }
                FlowOwner::Library(_) => {}
            }
        }
    }

    /// Install (or replace) the scripted fault plan, waking the engines
    /// parked on its absence.
    ///
    /// Mid-run installs have defined semantics: events scripted strictly
    /// before the current clock are clamped to "now" (counted in
    /// [`clamped_fault_events`](Self::clamped_fault_events)) instead of
    /// bursting as a fictitious history, and anything due at the current
    /// instant fires immediately — before the next engine poll — exactly
    /// where a plan installed at time zero would have fired it.
    pub fn install_fault_plan(&mut self, mut plan: FaultPlan) {
        self.clamped_fault_events += plan.clamp_before(self.clock) as u64;
        self.fault_plan = Some(plan);
        self.signal(resources::fault_plan_installed());
        let due_now = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.next_time())
            .is_some_and(|t| t <= self.clock);
        if due_now {
            // `next_time()` only reports strictly-future instants, so an
            // event at exactly `clock` would otherwise never surface.
            self.advance_to(self.clock);
        }
    }

    /// Inject one fault at the current virtual instant, live — the chaos
    /// driver's primitive. The event is appended to the installed plan
    /// (installing an empty one on demand) and fired through the same
    /// `pop_due`/`apply_fault` path as a pre-scripted event at this
    /// instant, so a driver-issued sequence is byte-identical to the
    /// equivalent script.
    pub fn inject_fault(&mut self, ev: FaultEvent) {
        let now = self.clock;
        self.fault_plan
            .get_or_insert_with(FaultPlan::new)
            .push_at(now, ev);
        self.signal(resources::fault_plan_installed());
        self.advance_to(now);
    }

    /// Buffer all subsequent control-plane sends until
    /// [`release_control`](Self::release_control) — the chaos driver's
    /// primitive for stretching a reconfiguration handshake across other
    /// faults. Arms the fault machinery (installs an empty plan) if
    /// nothing is installed yet.
    pub fn hold_control(&mut self) {
        if self.fault_plan.is_none() {
            self.install_fault_plan(FaultPlan::new());
        }
        self.control_held = true;
    }

    /// Deliver every held control message, preserving send order. Each
    /// message keeps the latency drawn at send time, so a hold-until-`t`
    /// is observably identical to scripting `delay_control` by
    /// `t - send_time` on each ordinal.
    pub fn release_control(&mut self) {
        self.control_held = false;
        for (gpu, lat, msg) in std::mem::take(&mut self.held_control) {
            self.push_to_proxy(gpu, lat, msg);
        }
    }

    /// Whether control-plane sends are currently being held.
    pub fn is_control_held(&self) -> bool {
        self.control_held
    }

    /// Control messages currently held.
    pub fn held_control_len(&self) -> usize {
        self.held_control.len()
    }

    /// Enqueue a device-stream op and raise device-activity signals so
    /// engines blocked on stream/event state re-poll. An inline-executed
    /// record can unblock waiters on other GPUs' streams, so every stream
    /// it unblocked and the GPU it was recorded on are signalled.
    pub fn device_enqueue(&mut self, stream: StreamId, op: mccs_device::StreamOp) {
        self.devices.enqueue(stream, op);
        self.signal_device_activity();
    }

    /// Turn the streams the fabric touched and the GPUs it recorded an
    /// event on into wake signals, each resource once.
    fn signal_device_activity(&mut self) {
        while let Some(stream) = self.devices.pop_touched_stream() {
            self.signals.push(resources::stream_activity(stream));
        }
        while let Some(gpu) = self.devices.pop_recorded_gpu() {
            self.signals.push(resources::event_recorded(gpu));
        }
    }

    /// Queue an intra-host ring edge of either launcher (proxy, library
    /// job): `bytes` at the intra-host bandwidth, completing `token`.
    pub(crate) fn enqueue_transfer(&mut self, stream: StreamId, bytes: Bytes, token: u64) {
        let transfer = mccs_device::StreamOp::Transfer {
            bytes,
            bandwidth: INTRA_HOST_BANDWIDTH,
            token,
        };
        self.device_enqueue(stream, transfer);
    }

    /// Signal `resource` when the clock reaches `at` — the one way to wait
    /// on time: a message's visibility instant signals the receiving
    /// queue, an engine's timer signals its own doorbell. An `at` already
    /// reached signals at once. Either way the event is queued, so the
    /// clock stops for it ([`Self::next_time`]): the naive scheduler
    /// ignores signals and only ever sees time through those stops.
    pub fn signal_at(&mut self, at: Nanos, resource: ResourceId) {
        if at <= self.clock {
            self.signals.push(resource);
        }
        self.events.schedule(at, resource);
    }

    // ---- collective progress ------------------------------------------------

    /// Register a rank's launch: bumps the launched count, adds its local
    /// task count, and hands out a contiguous run of fresh tokens for
    /// those tasks.
    pub fn register_launch(
        &mut self,
        comm: CommunicatorId,
        seq: u64,
        epoch: u64,
        expected_ranks: usize,
        local_tasks: usize,
    ) -> Launch {
        let now = self.clock;
        let id = self
            .progress
            .find_or_insert(comm, seq, || CollectiveProgress {
                comm,
                seq,
                expected_ranks,
                launched_ranks: 0,
                outstanding_tasks: 0,
                epoch,
                first_launch_at: now,
                completed_at: None,
                failed: false,
            });
        let prog = self.progress.get_mut(id);
        assert_eq!(
            prog.expected_ranks, expected_ranks,
            "ranks disagree on communicator size"
        );
        assert_eq!(
            prog.epoch, epoch,
            "ranks disagree on the execution epoch of {comm} seq {seq}"
        );
        prog.launched_ranks += 1;
        assert!(
            prog.launched_ranks <= prog.expected_ranks,
            "more launches than ranks for {comm} seq {seq}"
        );
        prog.outstanding_tasks += local_tasks;
        prog.maybe_complete(now);
        // Launches and task completions are only observable through the
        // completed/failed predicates, so signal on those transitions
        // alone — a per-task signal would wake every rank of the
        // communicator once per task for nothing.
        if prog.completed_at.is_some() {
            self.signals.push(resources::progress(comm));
        }
        let tokens = self.next_token..self.next_token + local_tasks as u64;
        self.next_token = tokens.end;
        for t in tokens.clone() {
            self.tokens.insert(t, id);
        }
        Launch {
            progress: id,
            tokens,
        }
    }

    /// Consume a live task token, returning its collective's entry.
    fn take_token(&mut self, token: u64, what: &str) -> &mut CollectiveProgress {
        let id = self
            .tokens
            .remove(token)
            .unwrap_or_else(|| panic!("{what} for unknown token {token}"));
        let prog = self.progress.get_mut(id);
        assert!(prog.outstanding_tasks > 0, "token underflow");
        prog.outstanding_tasks -= 1;
        prog
    }

    /// Mark one task token finished at `at`.
    pub fn complete_token(&mut self, token: u64, at: Nanos) {
        let prog = self.take_token(token, "completion");
        prog.maybe_complete(at);
        if prog.completed_at.is_some() {
            let comm = prog.comm;
            self.signals.push(resources::progress(comm));
        }
    }

    /// Mark the collective owning `token` as failed and consume the token
    /// (a transport exhausted its retries on the task's flow). Returns the
    /// collective so the caller can log it.
    pub fn fail_token(&mut self, token: u64) -> (CommunicatorId, u64) {
        let prog = self.take_token(token, "failure");
        prog.failed = true;
        let (comm, seq) = (prog.comm, prog.seq);
        self.signals.push(resources::progress(comm));
        (comm, seq)
    }

    /// Force-fail a collective cluster-wide (recovery exhausted): it will
    /// never complete; every rank cleanly fails it to its tenant.
    pub fn abort_collective(&mut self, comm: CommunicatorId, seq: u64) {
        if let Some(id) = self.progress.find(comm, seq) {
            self.progress.get_mut(id).failed = true;
            self.signals.push(resources::progress(comm));
        }
    }

    /// Whether a collective has been marked failed.
    pub fn collective_failed(&self, comm: CommunicatorId, seq: u64) -> bool {
        self.progress.lookup(comm, seq).is_some_and(|p| p.failed)
    }

    // ---- messaging helpers -------------------------------------------------

    /// Queue `msg` for `gpu`'s proxy, visible — and signalled — `lat` from
    /// now.
    fn push_to_proxy(&mut self, gpu: GpuId, lat: Nanos, msg: ProxyMsg) {
        let now = self.clock;
        self.proxy_inbox[gpu.index()]
            .push(now, lat, msg)
            .unwrap_or_else(|_| panic!("proxy inbox overflow on {gpu}"));
        self.signal_at(now + lat, resources::proxy_inbox(gpu.index() as u32));
    }

    /// Push to a GPU's proxy inbox with one internal engine hop of latency.
    pub fn send_to_proxy(&mut self, gpu: GpuId, msg: ProxyMsg) {
        let lat = self.ipc.sample_hop_latency(&mut self.rng);
        self.push_to_proxy(gpu, lat, msg);
    }

    /// Push to a NIC's transport inbox with one internal engine hop.
    pub fn send_to_transport(&mut self, nic: NicId, msg: TransportMsg) {
        let lat = self.ipc.sample_hop_latency(&mut self.rng);
        let now = self.clock;
        self.transport_inbox[nic.index()]
            .push(now, lat, msg)
            .unwrap_or_else(|_| panic!("transport inbox overflow on {nic}"));
        self.signal_at(now + lat, resources::transport_inbox(nic.index() as u32));
    }

    /// Push a completion back to a tenant endpoint.
    pub fn send_completion(&mut self, endpoint: usize, completion: ShimCompletion) {
        let lat = self.ipc.sample_completion_latency(&mut self.rng);
        let now = self.clock;
        self.endpoints[endpoint]
            .comp
            .push(now, lat, completion)
            .unwrap_or_else(|_| panic!("completion queue overflow on endpoint {endpoint}"));
        self.signal_at(now + lat, resources::endpoint_comp(endpoint as u32));
    }

    /// Deliver a control-plane message to a proxy with control-channel
    /// latency and jitter (reconfiguration requests, barrier gossip).
    pub fn send_control(&mut self, gpu: GpuId, msg: ProxyMsg) {
        let base = CONTROL_RING_LATENCY;
        // The jitter draw happens before any fault directive is consulted
        // so the RNG stream is identical with and without a plan.
        let jit = 1.0 + self.rng.f64() * self.svc.control_jitter_frac;
        let mut lat = base.mul_f64(jit);
        let ordinal = self.control_seq;
        self.control_seq += 1;
        if let Some(plan) = self.fault_plan.as_mut() {
            match plan.control_fault(ordinal) {
                Some(ControlFault::Drop) => return,
                Some(ControlFault::Delay(by)) => lat += by,
                None => {}
            }
        }
        if self.control_held {
            // Park the message with its drawn latency; `release_control`
            // replays it from the release instant.
            self.held_control.push((gpu, lat, msg));
            return;
        }
        self.push_to_proxy(gpu, lat, msg);
    }

    /// The send ordinal the *next* control message will get — what a
    /// [`FaultPlan`] keys its drop/delay directives on. Read it right
    /// before triggering a reconfiguration to target its Req messages.
    pub fn control_ordinal(&self) -> u64 {
        self.control_seq
    }
}

impl WakeSource for World {
    fn drain_signals(&mut self, into: &mut Vec<ResourceId>) {
        if self.health.take_signal() {
            self.signals.push(resources::health_channel());
        }
        into.append(&mut self.signals);
    }
}

/// A borrow of the world scoped to one endpoint, implementing the tenant's
/// [`ShimPort`]. Constructed per poll by the app engine.
pub struct EndpointPort<'a> {
    /// The world.
    pub world: &'a mut World,
    /// Index into `world.endpoints`.
    pub idx: usize,
}

impl ShimPort for EndpointPort<'_> {
    fn now(&self) -> Nanos {
        self.world.clock
    }

    fn try_push(&mut self, cmd: ShimCommand) -> bool {
        let now = self.world.clock;
        let cfg = self.world.ipc.clone();
        self.world.tenant_log.on_push(self.idx, &cmd, now);
        let ep = &mut self.world.endpoints[self.idx];
        let lat = cfg.sample_command_latency(&mut ep.rng);
        match ep.cmd.push(now, lat, cmd) {
            Ok(()) => {
                self.world
                    .signal_at(now + lat, resources::endpoint_cmd(self.idx as u32));
                true
            }
            Err(_) => false,
        }
    }

    fn try_pop(&mut self) -> Option<ShimCompletion> {
        let now = self.world.clock;
        let app = self.world.endpoints[self.idx].app;
        let comp = self.world.endpoints[self.idx].comp.pop(now);
        if let Some(c) = &comp {
            self.world.tenant_log.on_pop(self.idx, app, c, now);
        }
        comp
    }

    fn open_handle(&self, handle: MemHandle) -> Option<DevicePtr> {
        self.world.devices.open(handle).ok()
    }

    fn app_stream(&self) -> StreamId {
        self.world.endpoints[self.idx].app_stream
    }

    fn create_event(&mut self) -> EventId {
        self.world.devices.create_event()
    }

    fn enqueue_kernel(&mut self, stream: StreamId, duration: Nanos) {
        self.world
            .device_enqueue(stream, mccs_device::StreamOp::Kernel { duration, token: 0 });
    }

    fn enqueue_record(&mut self, stream: StreamId, event: EventId) {
        self.world
            .device_enqueue(stream, mccs_device::StreamOp::RecordEvent(event));
    }

    fn enqueue_wait(&mut self, stream: StreamId, event: EventId) {
        self.world
            .device_enqueue(stream, mccs_device::StreamOp::WaitEvent(event));
    }

    fn stream_idle(&self, stream: StreamId) -> bool {
        self.world.devices.stream_idle(stream)
    }

    fn event_time(&self, event: EventId) -> Option<Nanos> {
        self.world.devices.event_time(event)
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.world.endpoints[self.idx].rng
    }

    fn schedule_wake(&mut self, at: Nanos) {
        self.world
            .signal_at(at, resources::endpoint_comp(self.idx as u32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_topology::presets;

    fn world() -> World {
        World::new(
            Arc::new(presets::testbed()),
            IpcConfig::default(),
            ServiceConfig::default(),
            1,
        )
    }

    #[test]
    fn construction_sizes_queues_by_topology() {
        let w = world();
        assert_eq!(w.proxy_inbox.len(), 8);
        assert_eq!(w.transport_inbox.len(), 8);
        assert_eq!(w.devices.gpu_count(), 8);
    }

    fn completed_at(w: &World, comm: CommunicatorId, seq: u64) -> Option<Nanos> {
        w.progress.lookup(comm, seq).and_then(|p| p.completed_at)
    }

    #[test]
    fn progress_lifecycle() {
        let mut w = world();
        let comm = CommunicatorId(1);
        let l0 = w.register_launch(comm, 0, 0, 2, 2);
        assert_eq!(l0.tokens, 1..3, "tokens count from 1");
        assert!(completed_at(&w, comm, 0).is_none());
        let l1 = w.register_launch(comm, 0, 0, 2, 1);
        assert_eq!(l1.progress, l0.progress, "one entry per collective");
        assert_eq!(
            l1.tokens,
            l0.tokens.end..l0.tokens.end + 1,
            "contiguous tokens"
        );
        w.complete_token(l0.tokens.start, Nanos::from_micros(10));
        w.complete_token(l0.tokens.start + 1, Nanos::from_micros(20));
        assert!(completed_at(&w, comm, 0).is_none());
        w.complete_token(l1.tokens.start, Nanos::from_micros(30));
        assert_eq!(completed_at(&w, comm, 0), Some(Nanos::from_micros(30)));
        assert_eq!(
            w.progress.get(l0.progress).completed_at,
            Some(Nanos::from_micros(30))
        );
    }

    #[test]
    fn zero_task_collective_completes_on_last_launch() {
        let mut w = world();
        let comm = CommunicatorId(2);
        w.register_launch(comm, 0, 0, 2, 0);
        assert!(completed_at(&w, comm, 0).is_none());
        w.register_launch(comm, 0, 0, 2, 0);
        assert_eq!(completed_at(&w, comm, 0), Some(Nanos::ZERO));
    }

    #[test]
    fn failed_collective_never_completes() {
        let mut w = world();
        let comm = CommunicatorId(3);
        let t0 = w.register_launch(comm, 0, 0, 1, 2).tokens;
        assert_eq!(w.fail_token(t0.start), (comm, 0));
        w.complete_token(t0.start + 1, Nanos::from_micros(5));
        assert!(w.collective_failed(comm, 0));
        assert_eq!(completed_at(&w, comm, 0), None);
    }

    #[test]
    #[should_panic(expected = "disagree on the execution epoch")]
    fn epoch_disagreement_rejected() {
        let mut w = world();
        let comm = CommunicatorId(4);
        w.register_launch(comm, 0, 0, 2, 0);
        w.register_launch(comm, 0, 1, 2, 0);
    }

    #[test]
    #[should_panic(expected = "completion for unknown token")]
    fn unknown_token_rejected() {
        let mut w = world();
        w.complete_token(999, Nanos::ZERO);
    }

    #[test]
    fn a_refused_collective_is_not_left_unfinished() {
        use mccs_collectives::op::all_reduce_sum;
        use mccs_ipc::{CollectiveRequest, ErrorCode};
        let mut log = TenantLog::default();
        let push = |log: &mut TenantLog, req| {
            let coll = CollectiveRequest {
                comm: CommunicatorId(1),
                op: all_reduce_sum(),
                size: Bytes::mib(1),
                send: (MemHandle(0), 0),
                recv: (MemHandle(0), 0),
                depends_on: None,
            };
            log.on_push(2, &ShimCommand::Collective { req, coll }, Nanos::ZERO);
        };
        push(&mut log, 4);
        push(&mut log, 5);
        assert_eq!(log.unfinished(), 2);
        let refused = ShimCompletion::Error {
            req: 4,
            code: ErrorCode::InvalidArgument,
            message: "buffer validation failed".to_owned(),
        };
        log.on_pop(2, AppId(0), &refused, Nanos(5));
        let acked = ShimCompletion::CollectiveLaunched { req: 5, seq: 0 };
        log.on_pop(2, AppId(0), &acked, Nanos(6));
        let done = ShimCompletion::CollectiveDone {
            comm: CommunicatorId(1),
            seq: 0,
        };
        log.on_pop(2, AppId(0), &done, Nanos(9));
        assert_eq!(log.unfinished(), 0);
        assert_eq!(
            log.latencies_of_endpoint(2),
            vec![(0, Nanos::ZERO, Nanos(9))]
        );
    }

    #[test]
    #[should_panic(expected = "completion for unknown token")]
    fn a_token_completes_once() {
        let mut w = world();
        let t = w.register_launch(CommunicatorId(5), 0, 0, 1, 2).tokens;
        w.complete_token(t.start, Nanos::ZERO);
        w.complete_token(t.start, Nanos::ZERO);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The keyed maps the progress and token tables replaced:
        /// `(comm, seq) -> (launched, outstanding, completed_at, failed)`
        /// and `token -> (comm, seq)`.
        type Model = (
            BTreeMap<(u64, u64), (usize, usize, Option<Nanos>, bool)>,
            BTreeMap<u64, (u64, u64)>,
        );

        fn assert_matches(w: &World, (progress, tokens): &Model) {
            for comm in 0..3 {
                for seq in 0..4 {
                    let got = w.progress.lookup(CommunicatorId(comm), seq).map(|p| {
                        assert_eq!((p.comm, p.seq), (CommunicatorId(comm), seq));
                        (
                            p.launched_ranks,
                            p.outstanding_tasks,
                            p.completed_at,
                            p.failed,
                        )
                    });
                    assert_eq!(got, progress.get(&(comm, seq)).copied());
                }
            }
            assert_eq!(w.tokens.len(), tokens.len());
            for (&t, &(comm, seq)) in tokens {
                let p = w.progress.get(*w.tokens.get(t).expect("live token"));
                assert_eq!((p.comm, p.seq), (CommunicatorId(comm), seq));
            }
        }

        proptest! {
            /// Random launches (two ranks per collective), token
            /// completions and failures, and aborts keep the tables equal
            /// to the keyed maps, token for token.
            #[test]
            fn tables_match_a_keyed_map(
                ops in proptest::collection::vec((0u8..4, 0u64..3, 0u64..4, 0usize..4), 1..120)
            ) {
                let mut w = world();
                let mut model: Model = Default::default();
                for (step, &(op, comm, seq, k)) in ops.iter().enumerate() {
                    let at = Nanos::from_micros(step as u64);
                    w.clock = at;
                    let live: Vec<u64> = model.1.keys().copied().collect();
                    match op {
                        0 => {
                            let entry = model.0.entry((comm, seq)).or_insert((0, 0, None, false));
                            if entry.0 == 2 {
                                continue;
                            }
                            let launch = w.register_launch(CommunicatorId(comm), seq, 0, 2, k);
                            entry.0 += 1;
                            entry.1 += k;
                            if entry.0 == 2 && entry.1 == 0 && !entry.3 && entry.2.is_none() {
                                entry.2 = Some(at);
                            }
                            for t in launch.tokens {
                                model.1.insert(t, (comm, seq));
                            }
                        }
                        1 | 2 if !live.is_empty() => {
                            let t = live[k % live.len()];
                            let key = model.1.remove(&t).expect("live");
                            let entry = model.0.get_mut(&key).expect("launched");
                            entry.1 -= 1;
                            if op == 1 {
                                w.complete_token(t, at);
                                if entry.0 == 2 && entry.1 == 0 && !entry.3 && entry.2.is_none() {
                                    entry.2 = Some(at);
                                }
                            } else {
                                prop_assert_eq!(w.fail_token(t), (CommunicatorId(key.0), key.1));
                                entry.3 = true;
                            }
                        }
                        3 => {
                            w.abort_collective(CommunicatorId(comm), seq);
                            if let Some(entry) = model.0.get_mut(&(comm, seq)) {
                                entry.3 = true;
                            }
                        }
                        _ => {}
                    }
                    assert_matches(&w, &model);
                }
            }
        }
    }

    fn drain(w: &mut World) -> Vec<ResourceId> {
        let mut out = Vec::new();
        w.drain_signals(&mut out);
        out
    }

    #[test]
    fn signal_at_raises_its_resource_when_the_clock_gets_there() {
        let mut w = world();
        let r = resources::library_job(3);
        let at = Nanos::from_micros(10);
        w.signal_at(at, r);
        assert_eq!(w.next_time(), Some(at));
        w.advance_to(Nanos::from_micros(9));
        assert_eq!(drain(&mut w), vec![], "not before its instant");
        w.advance_to(at);
        assert_eq!(drain(&mut w), vec![r], "exactly at its instant");
        assert_eq!(w.next_time(), None);
        // Already due: raised at once, and the clock still gets its stop.
        w.signal_at(at, r);
        assert_eq!(drain(&mut w), vec![r]);
        assert_eq!(w.next_time(), Some(at + Nanos(1)));
    }

    #[test]
    fn a_message_is_one_event_and_polls_its_receiver_at_visibility() {
        use crate::proxy::ProxyEngine;
        use mccs_sim::RuntimePool;
        let mut w = world();
        let mut pool: RuntimePool<World> = RuntimePool::new();
        pool.set_naive(false);
        pool.spawn(Box::new(ProxyEngine::new(GpuId(0))));
        pool.poll(&mut w);
        assert_eq!(w.next_time(), None);
        let parked = pool.poll_count();
        let config = CollectiveConfig::default_for(&w.topo, &[GpuId(0), GpuId(2)]);
        let comm = CommunicatorId(9);
        w.send_to_proxy(
            GpuId(0),
            ProxyMsg::Reconfigure {
                comm,
                incarnation: 0,
                config,
            },
        );
        // Nothing is visible at push time, so nobody is polled for it.
        pool.poll(&mut w);
        assert_eq!(pool.poll_count(), parked);
        let t = w.next_time().expect("queued message");
        assert!(t > Nanos::ZERO);
        assert_eq!(w.next_time_exhaustive(), Some(t));
        w.advance_to(t);
        pool.poll(&mut w);
        assert_eq!(w.health.counters.reconfig_rejects, 1, "taken and handled");
        // The poll that takes the message answers Drained and parks: no
        // idle poll follows it.
        assert_eq!(pool.poll_count() - parked, 1);
        assert_eq!(pool.wasted_poll_count(), 1, "only the first, empty poll");
    }

    #[test]
    fn control_jitter_varies_delivery() {
        let mut w = world();
        let mut times = Vec::new();
        for g in 0..4u32 {
            w.send_control(
                GpuId(g),
                ProxyMsg::CommDestroy {
                    endpoint: 0,
                    req: 0,
                    comm: CommunicatorId(0),
                },
            );
            times.push(w.proxy_inbox[g as usize].next_visible().expect("sent"));
        }
        // with 50% jitter, four sends almost surely differ
        let distinct: std::collections::BTreeSet<_> = times.iter().collect();
        assert!(distinct.len() > 1, "no jitter across control sends");
    }
}
