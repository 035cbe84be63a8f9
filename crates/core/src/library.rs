//! Library mode: the NCCL-like collective library a tenant links in.
//!
//! The comparator the paper evaluates MCCS against, and the second mode a
//! [`Tenant`] can run in. It has exactly the three deficiencies §2.2
//! attributes to tenant-side libraries in a multi-tenant cloud:
//!
//! 1. **No topology awareness** — the inter-host ring follows the
//!    user-assigned rank order ([`RingChoice::RankOrder`]); only the
//!    intra-host segment is optimized (host-contiguous), as NCCL does.
//! 2. **Strategy frozen at init** — ring orders and connection hashes are
//!    resolved when the job is attached and never change.
//! 3. **Network-agnostic optimization** — multiple connections (channels)
//!    are opened for parallelism, but their paths are whatever ECMP
//!    hashing yields; collisions go unnoticed.
//!
//! NCCL is `RingChoice::RankOrder`; NCCL(OR) is `Explicit(optimal rings)`,
//! which isolates MCCS's system overhead from its algorithmic gains; the
//! §6.5 random ring is `RandomHosts`; OR+FFA at scale adds a [`RouteMap`].
//! Running inside the tenant, the library pays no IPC, only
//! [`LAUNCH_OVERHEAD`] per collective. A job is one engine in the shared
//! [`World`] (all ranks run the same SPMD program — the centralization the
//! paper's flow-level simulator uses), driving flows and intra-host
//! transfers directly.

use crate::cluster::Cluster;
use crate::config::{CollectiveConfig, RouteMap};
use crate::error::ServiceError;
use crate::flat::FlatMap;
use crate::progress::ProgressId;
use crate::scenario::Tenant;
use crate::world::{resources, FlowOwner, World};
use mccs_collectives::{CollectiveOp, CollectiveSchedule, EdgeTask, RingOrder};
use mccs_device::StreamId;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::FlowSpec;
use mccs_sim::{Bytes, Engine, Nanos, Poll, ResourceId, Rng};
use mccs_topology::{GpuId, HostId, Topology};
use std::collections::BTreeMap;

/// Kernel-launch overhead per collective: all the overhead a library job
/// pays, where a service tenant pays the IPC round trip.
pub const LAUNCH_OVERHEAD: Nanos = Nanos::from_micros(10);

/// A library job's private communicator is `LIBRARY_COMM_BASE + app`,
/// clear of shim-issued ids; it seeds the job's connection hashes.
const LIBRARY_COMM_BASE: u64 = 1 << 62;

/// How the library picks its ring order at init.
#[derive(Clone, Debug)]
pub enum RingChoice {
    /// NCCL default: host-grouped user rank order.
    RankOrder,
    /// Externally supplied rings (NCCL(OR), or per-channel variants),
    /// cycled over the channels.
    Explicit(Vec<RingOrder>),
    /// Uniformly random host order, GPUs host-contiguous, drawn from the
    /// world RNG when the job is attached.
    RandomHosts,
}

/// Library configuration fixed at init.
#[derive(Clone, Debug)]
pub struct LibraryConfig {
    /// Parallel rings (NCCL defaults to at least 2).
    pub channels: usize,
    /// Ring selection.
    pub ring: RingChoice,
    /// Explicit route pins (empty = ECMP). Only the at-scale simulation
    /// studies use this; a real tenant library cannot pin routes.
    pub routes: RouteMap,
    /// Salt mixed into the connection hashes: distinct trials of the same
    /// job draw fresh ECMP outcomes, like re-established connections with
    /// new source ports would.
    pub hash_salt: u64,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            channels: 2,
            ring: RingChoice::RankOrder,
            routes: RouteMap::ecmp(),
            hash_salt: 0,
        }
    }
}

/// Attach `t`, which has GPUs and iterations, as a library job. Refuses
/// before attaching anything a configuration `CollectiveConfig::validate`
/// rejects: no channel, a ring not over `t.gpus`, an unroutable pin.
pub(crate) fn attach(
    cluster: &mut Cluster,
    t: &Tenant,
    lib: &LibraryConfig,
) -> Result<AppId, ServiceError> {
    let topo = &cluster.world.topo;
    let channel_rings = match &lib.ring {
        RingChoice::RankOrder => vec![RingOrder::nccl_default(topo, &t.gpus); lib.channels],
        RingChoice::Explicit(rings) => rings.iter().cycle().take(lib.channels).cloned().collect(),
        // Drawn from a copy of the world RNG, so that a refused job leaves
        // it untouched; the world's own fork below yields the same stream.
        RingChoice::RandomHosts => {
            let mut rng = cluster.world.rng.clone().fork();
            vec![random_host_ring(topo, &t.gpus, &mut rng); lib.channels]
        }
    };
    let config = CollectiveConfig {
        epoch: lib.hash_salt,
        channel_rings,
        routes: lib.routes.clone(),
    };
    config.validate(topo, &t.gpus)?;

    let app = cluster.register_app_name(&t.name);
    if t.start > cluster.world.clock {
        cluster
            .world
            .signal_at(t.start, resources::library_job(app.0));
    }
    if let RingChoice::RandomHosts = lib.ring {
        cluster.world.rng.fork();
    }
    cluster.spawn_tenant(Box::new(LibraryJob {
        app,
        comm: CommunicatorId(LIBRARY_COMM_BASE + u64::from(app.0)),
        config,
        op: t.op,
        size: t.size,
        compute: t.compute,
        start: t.start,
        iters: t.iters,
        next_seq: 0,
        state: JobState::Idle,
        streams: FlatMap::new(),
    }));
    Ok(app)
}

/// A uniformly random host-level ring (GPUs stay host-contiguous — even a
/// topology-oblivious library keeps the intra-host segment together).
fn random_host_ring(topo: &Topology, gpus: &[GpuId], rng: &mut Rng) -> RingOrder {
    let mut by_host: BTreeMap<HostId, Vec<GpuId>> = BTreeMap::new();
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

/// `Idle` is before the start instant and between two iterations.
enum JobState {
    Idle,
    Computing {
        until: Nanos,
    },
    LaunchingAt {
        at: Nanos,
    },
    /// Waiting on the collective's progress entry; `trace` is its record.
    Collecting {
        progress: ProgressId,
        trace: usize,
    },
}

/// A whole library-mode job: from its start, `iters` times compute (if
/// any), launch after [`LAUNCH_OVERHEAD`], and wait for the collective.
struct LibraryJob {
    /// Also the owner of its flows and the index of its doorbell.
    app: AppId,
    comm: CommunicatorId,
    /// Rings and route pins, fixed at init. A library job is never
    /// reconfigured, so `epoch` only feeds the connection hashes and
    /// carries the trial salt ([`LibraryConfig::hash_salt`]).
    config: CollectiveConfig,
    op: CollectiveOp,
    size: Bytes,
    compute: Nanos,
    start: Nanos,
    iters: usize,
    /// Collectives launched so far; the next one's sequence number.
    next_seq: u64,
    state: JobState,
    /// Per `(GPU, channel)` stream of intra-host transfers, made on first use.
    streams: FlatMap<(GpuId, usize), StreamId>,
}

impl LibraryJob {
    /// Issue the next collective now; it launches after the overhead.
    fn arm_launch(&mut self, w: &mut World) {
        let at = w.clock + LAUNCH_OVERHEAD;
        w.signal_at(at, resources::library_job(self.app.0));
        self.state = JobState::LaunchingAt { at };
    }

    /// Launch the next collective; returns the state that waits for it.
    fn launch(&mut self, w: &mut World, issued: Nanos) -> JobState {
        let (op, size) = (self.op, self.size);
        let seq = self.next_seq;
        self.next_seq += 1;
        let schedule = CollectiveSchedule::ring(&w.topo, op, size, &self.config.channel_rings);
        let launch = w.register_launch(self.comm, seq, 0, 1, schedule.task_count());
        let trace = w
            .trace
            .issued(self.app, self.comm, 0, seq, op, size, issued);
        w.trace.launched(trace, 0, w.clock);
        for ((channel, task), token) in schedule.tasks().zip(launch.tokens) {
            match task {
                EdgeTask::IntraHost { from, bytes, .. } => {
                    let stream = match self.streams.get(&(from, channel)) {
                        Some(&stream) => stream,
                        None => {
                            let stream = w.devices.create_stream(from);
                            self.streams.insert((from, channel), stream);
                            stream
                        }
                    };
                    w.enqueue_transfer(stream, bytes, token);
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
                    let id = w.net.start_flow(
                        w.clock,
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
                    w.flow_owner_nic
                        .insert(id.0, FlowOwner::Library(self.app.0));
                }
            }
        }
        JobState::Collecting {
            progress: launch.progress,
            trace,
        }
    }
}

impl Engine<World> for LibraryJob {
    fn progress(&mut self, w: &mut World) -> Poll {
        // Route our flow completions into the shared progress registry.
        let events = (w.library_flow_events)
            .get_mut(self.app.0 as usize)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut progressed = !events.is_empty();
        for c in events {
            w.complete_token(c.tag, c.finished_at);
        }
        loop {
            match self.state {
                JobState::Idle => {
                    if w.clock < self.start {
                        break;
                    }
                    if self.next_seq == self.iters as u64 {
                        return Poll::Finished;
                    }
                    if self.compute > Nanos::ZERO {
                        let until = w.clock + self.compute;
                        w.signal_at(until, resources::library_job(self.app.0));
                        self.state = JobState::Computing { until };
                    } else {
                        self.arm_launch(w);
                    }
                }
                JobState::Computing { until } => {
                    if w.clock < until {
                        break;
                    }
                    self.arm_launch(w);
                }
                JobState::LaunchingAt { at } => {
                    if w.clock < at {
                        break;
                    }
                    self.state = self.launch(w, at - LAUNCH_OVERHEAD);
                }
                JobState::Collecting { progress, trace } => {
                    let Some(done_at) = w.progress.get(progress).completed_at else {
                        break;
                    };
                    w.trace.completed(trace, done_at);
                    self.state = JobState::Idle;
                }
            }
            progressed = true;
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
        on.push(resources::library_job(self.app.0));
        on.push(resources::progress(self.comm));
    }

    fn name(&self) -> String {
        format!("library-job({})", self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::scenario::{Scenario, TenantMode};
    use mccs_collectives::op::all_reduce_sum;
    use mccs_topology::{presets, RouteId};
    use std::sync::Arc;

    /// An AllReduce job of `iters` collectives over `gpus`.
    fn job(gpus: &[u32], size: Bytes, iters: usize, lib: LibraryConfig) -> Tenant {
        Tenant {
            name: "job".to_owned(),
            gpus: gpus.iter().copied().map(GpuId).collect(),
            op: all_reduce_sum(),
            size,
            iters,
            start: Nanos::ZERO,
            compute: Nanos::ZERO,
            mode: TenantMode::Library(lib),
        }
    }

    /// `tenants` on the testbed (2 racks x 2 hosts x 2 GPUs, two spines)
    /// at seed 7, service engines included.
    fn testbed(tenants: Vec<Tenant>) -> Scenario {
        Scenario {
            topo: Arc::new(presets::testbed()),
            config: ClusterConfig::with_seed(7),
            tenants,
            faults: None,
        }
    }

    #[test]
    fn nccl_like_job_runs_and_records() {
        let lib = LibraryConfig::default();
        let t = job(&[0, 2, 4, 6], Bytes::mib(64), 3, lib);
        let record = testbed(vec![t]).run(Nanos::from_secs(10));
        let trace = &record.traces[0];
        assert_eq!(trace.len(), 3);
        for r in trace {
            assert!(r.latency().expect("complete") > Nanos::ZERO);
        }
    }

    #[test]
    fn rank_order_vs_optimal_ring_shapes() {
        // Interleaved "VM order" (racks {H0,H1} {H2,H3}, user order
        // H0,H2,H1,H3) makes every ring edge cross racks; the optimal ring
        // crosses twice. With 2x oversubscription the bad ring is slower.
        let run = |ring: RingChoice| -> Nanos {
            let lib = LibraryConfig {
                ring,
                ..Default::default()
            };
            let t = job(&[0, 4, 2, 6], Bytes::mib(256), 2, lib);
            let record = testbed(vec![t]).run(Nanos::from_secs(60));
            record.traces[0][1].latency().expect("complete")
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
    fn compute_delays_collectives_in_both_modes() {
        // The same tenant, as a library job and as a service tenant:
        // every collective is issued a compute gap after the previous one
        // completed (the first, a gap after the start).
        let compute = Nanos::from_millis(10);
        let lib = Tenant {
            compute,
            ..job(&[0, 2], Bytes::mib(16), 2, LibraryConfig::default())
        };
        let svc = Tenant {
            mode: TenantMode::Service(CommunicatorId(1)),
            ..lib.clone()
        };

        let mut c = testbed(vec![lib]).build();
        c.run_until_quiescent(Nanos::from_secs(10));
        let lib_issues: Vec<_> = c
            .mgmt()
            .timeline(AppId(0))
            .iter()
            .map(|r| (r.issued_at, r.completed_at.expect("complete")))
            .collect();
        let mut c = testbed(vec![svc]).build();
        c.run_until_quiescent(Nanos::from_secs(10));
        let svc_issues: Vec<_> = c
            .mgmt()
            .tenant_latencies(AppId(0))
            .into_iter()
            .map(|(_, issued, done)| (issued, done))
            .collect();

        for issues in [lib_issues, svc_issues] {
            assert_eq!(issues.len(), 2);
            assert!(issues[0].0 >= compute);
            assert!(issues[1].0 >= issues[0].1 + compute);
        }
    }

    #[test]
    fn start_time_is_respected() {
        let start = Nanos::from_millis(50);
        let late = Tenant {
            start,
            ..job(&[0, 2], Bytes::mib(1), 1, LibraryConfig::default())
        };
        let mut c = testbed(vec![late]).build();
        // An idle poll has no observable effect: the start timer is armed
        // once, not by every poll before the start (the oracle polls every
        // engine on every call).
        c.set_naive_scheduler(true);
        c.poll_once();
        let pending = c.world.events.len();
        c.poll_once();
        assert_eq!(c.world.events.len(), pending);
        c.run_until_quiescent(Nanos::from_secs(10));
        assert!(c.mgmt().timeline(AppId(0))[0].issued_at >= start);
    }

    /// Three staggered jobs — two GPUs on each of two hosts (intra- and
    /// inter-host tasks), one host (intra-host only), one GPU per host
    /// (inter-host only) — stepped to quiescence under one scheduler.
    /// Returns the observable digest with `(clock, useful polls)` folded
    /// in after every step, and the wasted polls.
    fn run_staggered(naive: bool) -> ((u64, u64), u64) {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let tenants = [
            (&[0, 1, 2, 3][..], 8, 0),
            (&[4, 5], 4, 2),
            (&[0, 2, 4, 6], 16, 5),
        ]
        .into_iter()
        .map(|(gpus, mib, start_ms)| Tenant {
            start: Nanos::from_millis(start_ms),
            compute: Nanos::from_micros(300),
            ..job(gpus, Bytes::mib(mib), 3, LibraryConfig::default())
        })
        .collect();
        let mut c = Scenario {
            config: ClusterConfig::library_mode(7),
            ..testbed(tenants)
        }
        .build();
        c.set_naive_scheduler(naive);
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
        let topo = presets::testbed();
        let (src, dst) = (topo.nic_of_gpu(GpuId(0)), topo.nic_of_gpu(GpuId(4)));
        let carrying = |routes: RouteMap| -> Vec<RouteId> {
            let lib = LibraryConfig {
                channels: 1,
                routes,
                ..Default::default()
            };
            let mut c = testbed(vec![job(&[0, 4], Bytes::mib(64), 1, lib)]).build();
            let set = c.world.topo.route_set(src, dst).clone();
            c.run_until(Nanos::from_millis(1));
            let loaded = set
                .ids()
                .filter(|&id| {
                    set.links(id)
                        .all(|l| c.world.net.link_load(l).as_bps() > 0.0)
                })
                .collect();
            c.run_until_quiescent(Nanos::from_secs(10));
            assert_eq!(c.mgmt().timeline(AppId(0)).len(), 1, "collective completed");
            loaded
        };
        let ecmp = carrying(RouteMap::ecmp());
        assert_eq!(ecmp.len(), 1, "one route carries an unpinned connection");
        let other = RouteId(1 - ecmp[0].0);
        let mut routes = RouteMap::ecmp();
        routes.pin(0, src, dst, other);
        assert_eq!(carrying(routes), vec![other]);
    }

    /// The error attaching `lib` over GPUs 0 and 4 from 1 ms returns,
    /// after checking that the world did not change.
    fn refusal(lib: LibraryConfig) -> ServiceError {
        let mut c = testbed(Vec::new()).build();
        let rng = format!("{:?}", c.world.rng);
        let t = Tenant {
            start: Nanos::from_millis(1),
            ..job(&[0, 4], Bytes::mib(1), 1, lib)
        };
        let e = c.add_tenant(&t).expect_err("refused");
        assert!(c.world.app_names.is_empty(), "nothing attached");
        assert_eq!(c.world.events.len(), 0, "no timer armed");
        assert_eq!(
            format!("{:?}", c.world.rng),
            rng,
            "no draw from the world RNG"
        );
        e
    }

    #[test]
    fn an_explicit_ring_over_other_gpus_is_refused_at_attach() {
        let e = refusal(LibraryConfig {
            ring: RingChoice::Explicit(vec![RingOrder::new(vec![GpuId(0), GpuId(2)])]),
            ..Default::default()
        });
        assert_eq!(e.code, mccs_ipc::ErrorCode::InvalidArgument);
        assert!(
            e.message
                .contains("ring 0 is not a permutation of the communicator's GPUs"),
            "{e}"
        );
    }

    #[test]
    fn an_unroutable_route_pin_or_no_channel_is_refused_at_attach() {
        let topo = presets::testbed();
        let mut routes = RouteMap::ecmp();
        // The testbed has two spines, hence two routes between racks.
        routes.pin(
            0,
            topo.nic_of_gpu(GpuId(0)),
            topo.nic_of_gpu(GpuId(4)),
            RouteId(2),
        );
        for ring in [RingChoice::RankOrder, RingChoice::RandomHosts] {
            let e = refusal(LibraryConfig {
                ring: ring.clone(),
                routes: routes.clone(),
                ..Default::default()
            });
            assert!(e.message.contains("route pin for channel 0"), "{e}");
            let e = refusal(LibraryConfig {
                ring,
                channels: 0,
                ..Default::default()
            });
            assert!(e.message.contains("at least one ring"), "{e}");
        }
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
