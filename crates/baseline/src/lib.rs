//! # mccs-baseline — the NCCL-like library baseline
//!
//! The comparator the paper evaluates MCCS against: a collective
//! communication **library linked into the application**. It captures
//! exactly the three deficiencies §2.2 attributes to tenant-side libraries
//! in a multi-tenant cloud:
//!
//! 1. **No topology awareness** — the inter-host ring follows the
//!    user-assigned rank order ([`RingChoice::RankOrder`]); only the
//!    intra-host segment is optimized (host-contiguous), as NCCL does.
//! 2. **Strategy frozen at init** — ring orders and connection hashes are
//!    resolved when the job starts and never change.
//! 3. **Network-agnostic optimization** — multiple connections (channels)
//!    are opened for parallelism, but their paths are whatever ECMP
//!    hashing yields; collisions go unnoticed.
//!
//! Variants used throughout the evaluation:
//! * **NCCL** — `RingChoice::RankOrder`, ECMP.
//! * **NCCL(OR)** — `RingChoice::Explicit(optimal rings)` (the provider's
//!   locality-aware order applied by hand), ECMP: isolates MCCS's system
//!   overhead from its algorithmic gains.
//! * **Random ring** — `RingChoice::RandomHosts` (the §6.5 baseline).
//! * **OR+FFA at scale** — explicit rings plus a [`RouteMap`]: what the
//!   paper's own flow-level simulator does for Figure 11.
//!
//! Because the library runs *inside* the tenant, there is no IPC latency —
//! only a kernel-launch overhead per collective. The job executes as one
//! library-mode engine in the shared [`World`], driving network flows and
//! intra-host transfers directly.

use mccs_collectives::{CollectiveOp, CollectiveSchedule, EdgeTask, RingOrder};
use mccs_core::cluster::Cluster;
use mccs_core::config::{CollectiveConfig, RouteMap};
use mccs_core::world::{resources, FlowOwner, World};
use mccs_device::{StreamId, StreamOp};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::FlowSpec;
use mccs_sim::{Bytes, Engine, Nanos, Poll, ResourceId, Rng};
use mccs_topology::GpuId;
use std::collections::HashMap;

/// How the library picks its ring order at init.
#[derive(Clone, Debug)]
pub enum RingChoice {
    /// NCCL default: host-grouped user rank order.
    RankOrder,
    /// Externally supplied rings (NCCL(OR), or per-channel variants).
    Explicit(Vec<RingOrder>),
    /// Uniformly random host order, GPUs host-contiguous.
    RandomHosts,
    /// Uniformly random GPU order — an arbitrary user rank assignment
    /// with no intra-host grouping at all: the §6.5 "random ring
    /// selection" baseline.
    RandomGpus,
}

/// One phase of the job's iteration body.
#[derive(Clone, Debug)]
pub enum Phase {
    /// Exposed compute for this long (no communication).
    Compute(Nanos),
    /// A collective over the whole job.
    Collective {
        /// The operation.
        op: CollectiveOp,
        /// Buffer size (NCCL-tests semantics).
        size: Bytes,
    },
}

/// Library configuration fixed at init.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Parallel rings (NCCL defaults to at least 2).
    pub channels: usize,
    /// Ring selection.
    pub ring: RingChoice,
    /// Explicit route pins (empty = ECMP). Only the at-scale simulation
    /// studies use this; a real tenant library cannot pin routes.
    pub routes: RouteMap,
    /// Kernel-launch overhead per collective.
    pub launch_overhead: Nanos,
    /// Salt mixed into the connection hashes: distinct trials of the same
    /// job draw fresh ECMP outcomes, like re-established connections with
    /// new source ports would.
    pub hash_salt: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            channels: 2,
            ring: RingChoice::RankOrder,
            routes: RouteMap::ecmp(),
            launch_overhead: Nanos::from_micros(10),
            hash_salt: 0,
        }
    }
}

enum JobState {
    Idle,
    Computing { until: Nanos },
    LaunchingAt { at: Nanos, issued: Nanos },
    Collecting { seq: u64 },
    Done,
}

/// A whole library-mode job (all ranks execute the same SPMD program, so
/// the library is simulated as one engine — the same centralization the
/// paper's flow-level simulator uses).
pub struct BaselineJob {
    app: AppId,
    comm: CommunicatorId,
    owner: u32,
    /// Rings and route pins, fixed at init. A library job is never
    /// reconfigured, so `epoch` only feeds the connection hashes and
    /// carries the trial salt ([`BaselineConfig::hash_salt`]).
    config: CollectiveConfig,
    launch_overhead: Nanos,
    phases: Vec<Phase>,
    iterations: usize,
    pc: usize,
    iter: usize,
    next_seq: u64,
    state: JobState,
    streams: HashMap<(GpuId, usize), StreamId>,
    started_at: Option<Nanos>,
    start_at: Nanos,
}

/// Communicator ids at or above this bit are reserved for library-mode
/// jobs and never collide with shim-issued communicators.
pub const BASELINE_COMM_BASE: u64 = 1 << 62;

impl BaselineJob {
    /// Build and register a baseline job on `cluster`. The job starts
    /// executing at `start_at` (virtual time) and runs `iterations` copies
    /// of `phases`. Returns the app id used for traces.
    ///
    /// # Panics
    /// Panics on an input the job could not run as given: no GPUs,
    /// iterations or channels, an explicit ring that is not a permutation
    /// of `gpus`, or a route pin the fabric has no route for.
    pub fn spawn(
        cluster: &mut Cluster,
        name: &str,
        cfg: BaselineConfig,
        gpus: Vec<GpuId>,
        phases: Vec<Phase>,
        iterations: usize,
        start_at: Nanos,
    ) -> AppId {
        assert!(!gpus.is_empty(), "job needs GPUs");
        assert!(iterations > 0, "job needs at least one iteration");
        assert!(cfg.channels > 0, "job needs at least one channel");
        if let RingChoice::Explicit(rings) = &cfg.ring {
            assert!(!rings.is_empty(), "explicit ring set empty");
            let mut members = gpus.clone();
            members.sort_unstable();
            for (i, ring) in rings.iter().enumerate() {
                let mut order = ring.gpus().to_vec();
                order.sort_unstable();
                assert!(
                    order == members,
                    "explicit ring {i} is not a permutation of the job's GPUs"
                );
            }
        }
        if let Err(e) = cfg.routes.validate(&cluster.world.topo) {
            panic!("invalid route pins: {e}");
        }
        let app = cluster.register_app_name(name);
        let comm = CommunicatorId(BASELINE_COMM_BASE + u64::from(app.0));
        let owner = cluster.world.alloc_external_owner();
        if start_at > cluster.world.clock {
            cluster
                .world
                .signal_at(start_at, resources::external(owner));
        }
        let topo = &cluster.world.topo;
        let channel_rings: Vec<RingOrder> = match &cfg.ring {
            RingChoice::RankOrder => {
                vec![RingOrder::nccl_default(topo, &gpus); cfg.channels]
            }
            RingChoice::Explicit(rings) => (0..cfg.channels)
                .map(|c| rings[c % rings.len()].clone())
                .collect(),
            RingChoice::RandomHosts => {
                let mut rng = cluster.world.rng.fork();
                vec![random_host_ring(topo, &gpus, &mut rng); cfg.channels]
            }
            RingChoice::RandomGpus => {
                let mut rng = cluster.world.rng.fork();
                let mut order = gpus.clone();
                rng.shuffle(&mut order);
                vec![RingOrder::new(order); cfg.channels]
            }
        };
        // Connection hashes are derived through the same deterministic
        // function the service uses, seeded by the communicator id —
        // fixed at init, exactly like NCCL's connections.
        let config = CollectiveConfig {
            epoch: cfg.hash_salt,
            channel_rings,
            routes: cfg.routes,
        };
        let job = BaselineJob {
            app,
            comm,
            owner,
            config,
            launch_overhead: cfg.launch_overhead,
            phases,
            iterations,
            pc: 0,
            iter: 0,
            next_seq: 0,
            state: JobState::Idle,
            streams: HashMap::new(),
            started_at: None,
            start_at,
        };
        cluster.spawn_engine(Box::new(job));
        app
    }

    fn stream_for(&mut self, w: &mut World, gpu: GpuId, channel: usize) -> StreamId {
        *self
            .streams
            .entry((gpu, channel))
            .or_insert_with(|| w.devices.create_stream(gpu))
    }

    fn launch_collective(
        &mut self,
        w: &mut World,
        op: CollectiveOp,
        size: Bytes,
        issued: Nanos,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let schedule = CollectiveSchedule::ring(&w.topo, op, size, &self.config.channel_rings);
        let mut tasks = Vec::new();
        for ch in &schedule.channels {
            for task in &ch.tasks {
                tasks.push((ch.channel, *task));
            }
        }
        let tokens = w.register_launch(self.comm, seq, 0, 1, tasks.len());
        w.trace
            .issued(self.app, self.comm, 0, seq, op, size, issued);
        w.trace.launched(self.comm, 0, seq, 0, w.clock);
        for ((channel, task), token) in tasks.into_iter().zip(tokens) {
            match task {
                EdgeTask::IntraHost { from, bytes, .. } => {
                    let bandwidth = w.devices.config().intra_host_bandwidth;
                    let stream = self.stream_for(w, from, channel);
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
                    let routing = self
                        .config
                        .route_choice(self.comm, channel, src_nic, dst_nic);
                    let now = w.clock;
                    let id = w.net.start_flow(
                        now,
                        FlowSpec {
                            src: src_nic,
                            dst: dst_nic,
                            bytes: Some(bytes),
                            routing,
                            rate_cap: None,
                            tag: token,
                            guaranteed: false,
                            tenant: self.app.0,
                        },
                    );
                    w.flow_owner_nic.insert(id, FlowOwner::External(self.owner));
                }
            }
        }
        seq
    }
}

/// A uniformly random host-level ring (GPUs stay host-contiguous — even a
/// topology-oblivious library keeps the intra-host segment together).
fn random_host_ring(topo: &mccs_topology::Topology, gpus: &[GpuId], rng: &mut Rng) -> RingOrder {
    use std::collections::BTreeMap;
    let mut by_host: BTreeMap<mccs_topology::HostId, Vec<GpuId>> = BTreeMap::new();
    for &g in gpus {
        by_host.entry(topo.host_of_gpu(g)).or_default().push(g);
    }
    let mut hosts: Vec<_> = by_host.keys().copied().collect();
    rng.shuffle(&mut hosts);
    let order: Vec<GpuId> = hosts
        .into_iter()
        .flat_map(|h| by_host[&h].clone())
        .collect();
    RingOrder::new(order)
}

impl Engine<World> for BaselineJob {
    fn progress(&mut self, w: &mut World) -> Poll {
        // Route our flow completions into the shared progress registry.
        let events = w.take_external_events(self.owner);
        let mut progressed = !events.is_empty();
        for c in events {
            w.complete_token(c.tag, c.finished_at);
        }
        loop {
            match self.state {
                JobState::Idle => {
                    if w.clock < self.start_at {
                        break;
                    }
                    self.started_at.get_or_insert(w.clock);
                    if self.iter >= self.iterations {
                        self.state = JobState::Done;
                        continue;
                    }
                    let Some(phase) = self.phases.get(self.pc).cloned() else {
                        self.pc = 0;
                        self.iter += 1;
                        continue;
                    };
                    match phase {
                        Phase::Compute(d) => {
                            let until = w.clock + d;
                            w.signal_at(until, resources::external(self.owner));
                            self.state = JobState::Computing { until };
                        }
                        Phase::Collective { .. } => {
                            let at = w.clock + self.launch_overhead;
                            w.signal_at(at, resources::external(self.owner));
                            self.state = JobState::LaunchingAt {
                                at,
                                issued: w.clock,
                            };
                        }
                    }
                    progressed = true;
                }
                JobState::Computing { until } => {
                    if w.clock < until {
                        break;
                    }
                    self.pc += 1;
                    self.state = JobState::Idle;
                    progressed = true;
                }
                JobState::LaunchingAt { at, issued } => {
                    if w.clock < at {
                        break;
                    }
                    let Phase::Collective { op, size } = self.phases[self.pc] else {
                        unreachable!("launching a non-collective phase")
                    };
                    let seq = self.launch_collective(w, op, size, issued);
                    self.state = JobState::Collecting { seq };
                    progressed = true;
                }
                JobState::Collecting { seq } => {
                    let Some(done_at) = w.collective_completed_at(self.comm, seq) else {
                        break;
                    };
                    w.trace.completed(self.comm, 0, seq, done_at);
                    self.pc += 1;
                    self.state = JobState::Idle;
                    progressed = true;
                }
                JobState::Done => {
                    return Poll::Finished;
                }
            }
        }
        if progressed {
            Poll::Progressed
        } else {
            Poll::Idle
        }
    }

    fn wake_when(&self, _: &World, on: &mut Vec<ResourceId>) {
        // Own timers and inter-host flow completions; intra-host tasks
        // complete on device streams, seen as collective progress.
        on.push(resources::external(self.owner));
        on.push(resources::progress(self.comm));
    }

    fn name(&self) -> String {
        format!("baseline-job({})", self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_collectives::op::all_reduce_sum;
    use mccs_core::ClusterConfig;
    use mccs_topology::{presets, RouteId};
    use std::sync::Arc;

    fn cluster() -> Cluster {
        Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(7))
    }

    fn allreduce_phases(size: Bytes) -> Vec<Phase> {
        vec![Phase::Collective {
            op: all_reduce_sum(),
            size,
        }]
    }

    #[test]
    fn nccl_like_job_runs_and_records() {
        let mut c = cluster();
        let gpus = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let app = BaselineJob::spawn(
            &mut c,
            "nccl",
            BaselineConfig::default(),
            gpus,
            allreduce_phases(Bytes::mib(64)),
            3,
            Nanos::ZERO,
        );
        c.run_until_quiescent(Nanos::from_secs(10));
        let tl = c.mgmt().timeline(app);
        assert_eq!(tl.len(), 3);
        for r in &tl {
            assert!(r.latency().expect("complete") > Nanos::ZERO);
        }
    }

    #[test]
    fn baseline_is_faster_than_service_for_tiny_messages() {
        // The library has no IPC latency: for small collectives it must
        // beat the service — the Figure 6 small-message regime.
        let gpus = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let size = Bytes::kib(128);

        let mut lib = cluster();
        let app = BaselineJob::spawn(
            &mut lib,
            "nccl",
            BaselineConfig::default(),
            gpus.clone(),
            allreduce_phases(size),
            1,
            Nanos::ZERO,
        );
        lib.run_until_quiescent(Nanos::from_secs(5));
        let lib_lat = lib.mgmt().timeline(app)[0].latency().expect("complete");

        // vs the full MCCS path measured in core's integration tests:
        // small collectives pay ~50-80us of IPC; the library pays only the
        // launch overhead.
        assert!(
            lib_lat < Nanos::from_millis(1),
            "library small-message latency {lib_lat}"
        );
    }

    #[test]
    fn rank_order_vs_optimal_ring_shapes() {
        // Interleaved "VM order" (racks {H0,H1} {H2,H3}, user order
        // H0,H2,H1,H3) makes every ring edge cross racks; the optimal ring
        // crosses twice. With 2x oversubscription the bad ring is slower.
        let size = Bytes::mib(256);
        let vm_order = vec![GpuId(0), GpuId(4), GpuId(2), GpuId(6)];

        let run = |ring: RingChoice| -> Nanos {
            let mut c = cluster();
            let app = BaselineJob::spawn(
                &mut c,
                "job",
                BaselineConfig {
                    ring,
                    ..Default::default()
                },
                vm_order.clone(),
                allreduce_phases(size),
                2,
                Nanos::ZERO,
            );
            c.run_until_quiescent(Nanos::from_secs(60));
            c.mgmt().timeline(app)[1].latency().expect("complete")
        };

        let nccl = run(RingChoice::RankOrder);
        let topo = presets::testbed();
        let optimal = RingOrder::new(vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)]);
        assert!(optimal.is_host_contiguous(&topo));
        let or = run(RingChoice::Explicit(vec![optimal]));
        assert!(
            nccl > or,
            "rank-order ring ({nccl}) should be slower than optimal ({or})"
        );
    }

    #[test]
    fn compute_phases_delay_collectives() {
        let mut c = cluster();
        let gpus = vec![GpuId(0), GpuId(2)];
        let app = BaselineJob::spawn(
            &mut c,
            "train",
            BaselineConfig::default(),
            gpus,
            vec![
                Phase::Compute(Nanos::from_millis(10)),
                Phase::Collective {
                    op: all_reduce_sum(),
                    size: Bytes::mib(16),
                },
            ],
            2,
            Nanos::ZERO,
        );
        c.run_until_quiescent(Nanos::from_secs(10));
        let tl = c.mgmt().timeline(app);
        assert_eq!(tl.len(), 2);
        assert!(tl[0].issued_at >= Nanos::from_millis(10));
        assert!(tl[1].issued_at >= tl[0].completed_at.expect("complete") + Nanos::from_millis(10));
    }

    #[test]
    fn start_time_is_respected() {
        let mut c = cluster();
        let app = BaselineJob::spawn(
            &mut c,
            "late",
            BaselineConfig::default(),
            vec![GpuId(0), GpuId(2)],
            allreduce_phases(Bytes::mib(1)),
            1,
            Nanos::from_millis(50),
        );
        // An idle poll has no observable effect: the start timer is armed
        // once, not by every poll before the start (the oracle polls every
        // engine on every call).
        c.set_naive_scheduler(true);
        c.poll_once();
        let pending = c.world.events.len();
        c.poll_once();
        assert_eq!(c.world.events.len(), pending);
        c.run_until_quiescent(Nanos::from_secs(10));
        let tl = c.mgmt().timeline(app);
        assert!(tl[0].issued_at >= Nanos::from_millis(50));
    }

    /// Three staggered jobs — two GPUs on each of two hosts (intra- and
    /// inter-host tasks), one host (intra-host only), one GPU per host
    /// (inter-host only) — stepped to quiescence under one scheduler.
    /// Returns the observable digest with `(clock, useful polls)` folded
    /// in after every step, and the wasted polls.
    fn run_staggered(naive: bool) -> ((u64, u64), u64) {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let topo = Arc::new(presets::testbed());
        let mut c = Cluster::new(topo, ClusterConfig::library_mode(7));
        c.set_naive_scheduler(naive);
        for (gpus, mib, start_ms) in [
            (vec![0, 1, 2, 3], 8, 0),
            (vec![4, 5], 4, 2),
            (vec![0, 2, 4, 6], 16, 5),
        ] {
            let gpus = gpus.into_iter().map(GpuId).collect();
            let mut phases = allreduce_phases(Bytes::mib(mib));
            phases.insert(0, Phase::Compute(Nanos::from_micros(300)));
            let start_at = Nanos::from_millis(start_ms);
            BaselineJob::spawn(
                &mut c,
                "job",
                BaselineConfig::default(),
                gpus,
                phases,
                3,
                start_at,
            );
        }
        let mut steps = DefaultHasher::new();
        loop {
            let next = c.step();
            let stats = c.scheduler_stats();
            (c.now(), stats.polls - stats.wasted_polls).hash(&mut steps);
            match next {
                Some(t) => assert!(t <= Nanos::from_secs(10), "still active at {t}"),
                None => break,
            }
        }
        assert_eq!(c.live_engines(), 0, "a job is stranded");
        (
            (c.observable_digest(), steps.finish()),
            c.scheduler_stats().wasted_polls,
        )
    }

    #[test]
    fn schedulers_agree_step_by_step_on_library_jobs() {
        // A job waits on its own doorbell (timers, inter-host flow
        // completions) and on its collective's progress (intra-host tasks
        // complete on device streams); a wake lost on either moves useful
        // work to a later instant, or strands the job.
        let (wake, wake_wasted) = run_staggered(false);
        let (naive, naive_wasted) = run_staggered(true);
        assert_eq!(wake, naive, "(digest, per-step fold), wake vs naive");
        assert!(
            wake_wasted * 2 < naive_wasted,
            "wake {wake_wasted}, naive {naive_wasted}"
        );
    }

    #[test]
    fn a_route_pin_moves_its_connection_onto_the_pinned_route() {
        // One GPU on each rack of the two-spine testbed: the g0 -> g4
        // connection has two routes, one per spine. The routes carrying it
        // are those whose every link is loaded while the collective runs
        // (links are directed, so the g4 -> g0 connection loads none of
        // them).
        let (g0, g4) = (GpuId(0), GpuId(4));
        let carrying = |routes: RouteMap| -> Vec<RouteId> {
            let mut c = cluster();
            let topo = Arc::clone(&c.world.topo);
            let set = topo.route_set(topo.nic_of_gpu(g0), topo.nic_of_gpu(g4));
            let app = BaselineJob::spawn(
                &mut c,
                "pinned",
                BaselineConfig {
                    channels: 1,
                    routes,
                    ..Default::default()
                },
                vec![g0, g4],
                allreduce_phases(Bytes::mib(64)),
                1,
                Nanos::ZERO,
            );
            c.run_until(Nanos::from_millis(1));
            let loaded = set
                .ids()
                .filter(|&id| {
                    set.links(id)
                        .all(|l| c.world.net.link_load(l).as_bps() > 0.0)
                })
                .collect();
            c.run_until_quiescent(Nanos::from_secs(10));
            assert_eq!(c.mgmt().timeline(app).len(), 1, "collective completed");
            loaded
        };
        let ecmp = carrying(RouteMap::ecmp());
        assert_eq!(ecmp.len(), 1, "one route carries an unpinned connection");
        let other = RouteId(1 - ecmp[0].0);
        let topo = presets::testbed();
        let mut routes = RouteMap::ecmp();
        routes.pin(0, topo.nic_of_gpu(g0), topo.nic_of_gpu(g4), other);
        assert_eq!(carrying(routes), vec![other]);
    }

    #[test]
    #[should_panic(expected = "explicit ring 0 is not a permutation of the job's GPUs")]
    fn an_explicit_ring_over_other_gpus_is_refused_at_spawn() {
        let mut c = cluster();
        BaselineJob::spawn(
            &mut c,
            "job",
            BaselineConfig {
                ring: RingChoice::Explicit(vec![RingOrder::new(vec![GpuId(0), GpuId(2)])]),
                ..Default::default()
            },
            vec![GpuId(0), GpuId(4)],
            allreduce_phases(Bytes::mib(1)),
            1,
            Nanos::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "route pin for channel 0")]
    fn an_unroutable_route_pin_is_refused_at_spawn() {
        let mut c = cluster();
        let topo = presets::testbed();
        let mut routes = RouteMap::ecmp();
        // The testbed has two spines, hence two routes between racks.
        routes.pin(
            0,
            topo.nic_of_gpu(GpuId(0)),
            topo.nic_of_gpu(GpuId(4)),
            RouteId(2),
        );
        BaselineJob::spawn(
            &mut c,
            "job",
            BaselineConfig {
                routes,
                ..Default::default()
            },
            vec![GpuId(0), GpuId(4)],
            allreduce_phases(Bytes::mib(1)),
            1,
            Nanos::ZERO,
        );
    }

    #[test]
    fn random_ring_is_deterministic_per_seed() {
        let topo = presets::testbed();
        let gpus: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut r1 = Rng::seed_from(9);
        let mut r2 = Rng::seed_from(9);
        let a = random_host_ring(&topo, &gpus, &mut r1);
        let b = random_host_ring(&topo, &gpus, &mut r2);
        assert_eq!(a, b);
        assert!(a.is_host_contiguous(&topo));
    }
}
