//! The cluster harness: builds a world, spawns service engines, attaches
//! tenant applications, and drives everything in virtual time.

use crate::app::AppEngine;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::frontend::FrontendEngine;
use crate::mgmt::Management;
use crate::proxy::ProxyEngine;
use crate::recovery::RecoveryEngine;
use crate::scenario::{Tenant, TenantMode};
use crate::transport::TransportEngine;
use crate::world::{Endpoint, World};
use mccs_ipc::{AppId, IpcConfig, LatencyQueue};
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_shim::AppProgram;
use mccs_sim::{Engine, EngineId, Nanos, RuntimePool};
use mccs_topology::{GpuId, Topology};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Knobs for a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// IPC latency model.
    pub ipc: IpcConfig,
    /// Service tuning.
    pub service: ServiceConfig,
    /// Master seed (placement, jitter — everything derives from this).
    pub seed: u64,
    /// Spawn the per-GPU proxy and per-NIC transport engines. Disable for
    /// pure library-mode simulations (the §6.5 at-scale study) where no
    /// tenant uses the service — at 768 GPUs the idle service engines
    /// dominate poll time otherwise.
    pub service_engines: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ipc: IpcConfig::default(),
            service: ServiceConfig::default(),
            seed: MCCS_DEFAULT_SEED,
            service_engines: true,
        }
    }
}

/// "MCCS" in ASCII — the default master seed.
const MCCS_DEFAULT_SEED: u64 = 0x4d43_4353;

/// The cluster failed to quiesce by the deadline, or quiesced with
/// tenants still waiting — the structured form of the hang detector,
/// returned by [`Cluster::try_run_until_quiescent`] so explorers can treat
/// a hang as a verdict instead of a panic.
#[derive(Clone, Debug)]
pub struct ClusterHang {
    /// The next scheduled event past the deadline; `None` when nothing
    /// was left to happen while tenants were still live.
    pub next_event: Option<Nanos>,
    /// Names of the engines still live at the deadline, or of the tenant
    /// engines (app ranks, library jobs) left waiting in a quiet world.
    pub live_engines: Vec<String>,
}

/// A full simulated deployment: topology + service + tenants.
pub struct Cluster {
    /// The shared world (public for experiment harnesses and tests).
    pub world: World,
    pool: RuntimePool<World>,
    /// The tenant engines: app ranks and library jobs. A quiet world
    /// with one of them live has a tenant blocked for good.
    tenants: Vec<EngineId>,
}

impl Cluster {
    /// Build a cluster over `topo`: one proxy engine per GPU, one
    /// transport engine per NIC, no tenants yet.
    pub fn new(topo: Arc<Topology>, cfg: ClusterConfig) -> Self {
        let world = World::new(Arc::clone(&topo), cfg.ipc, cfg.service, cfg.seed);
        let mut pool: RuntimePool<World> = RuntimePool::new();
        if cfg.service_engines {
            for gpu in topo.gpus() {
                pool.spawn(Box::new(ProxyEngine::new(gpu.id)));
            }
            for nic in topo.nics() {
                pool.spawn(Box::new(TransportEngine::new(nic.id)));
            }
            // The failure monitor. Polls Idle instantly unless a fault
            // plan is installed, so fault-free runs pay nothing for it.
            pool.spawn(Box::new(RecoveryEngine::new()));
        }
        Cluster {
            world,
            pool,
            tenants: Vec::new(),
        }
    }

    /// Spawn a tenant engine (an app rank or a library job).
    pub(crate) fn spawn_tenant(&mut self, engine: Box<dyn Engine<World>>) {
        let id = self.pool.spawn(engine);
        self.tenants.push(id);
    }

    /// Attach a tenant application: one `(GPU, program)` pair per rank.
    /// Creates the rank endpoints, one frontend engine per occupied host,
    /// and one app engine per rank. Returns the application id.
    pub fn add_app(&mut self, name: &str, ranks: Vec<(GpuId, Box<dyn AppProgram>)>) -> AppId {
        assert!(!ranks.is_empty(), "application needs at least one rank");
        let app = self.register_app_name(name);
        let cap = self.world.ipc.queue_capacity;
        let mut per_host: BTreeMap<mccs_topology::HostId, Vec<usize>> = BTreeMap::new();
        for (rank, (gpu, program)) in ranks.into_iter().enumerate() {
            let endpoint = self.world.endpoints.len();
            let app_stream = self.world.devices.create_stream(gpu);
            let rng = self.world.rng.fork();
            self.world.endpoints.push(Endpoint {
                app,
                rank,
                gpu,
                app_stream,
                cmd: LatencyQueue::new(cap),
                comp: LatencyQueue::new(cap),
                rng,
            });
            per_host
                .entry(self.world.topo.host_of_gpu(gpu))
                .or_default()
                .push(endpoint);
            self.spawn_tenant(Box::new(AppEngine::new(endpoint, program)));
        }
        for (host, endpoints) in per_host {
            self.pool
                .spawn(Box::new(FrontendEngine::new(app, host, endpoints)));
        }
        app
    }

    /// Attach `tenant` in its mode — the service: one shim program per
    /// rank through [`add_app`](Self::add_app); the library: one engine
    /// ([`crate::library`]). Refuses, before attaching anything, a tenant
    /// without GPUs, iterations or body, and a library job whose body or
    /// config it cannot run.
    pub fn add_tenant(&mut self, tenant: &Tenant) -> Result<AppId, ServiceError> {
        let refuse =
            |cause| ServiceError::invalid_argument(format!("tenant '{}' {cause}", tenant.name));
        if tenant.gpus.is_empty() {
            return Err(refuse("needs at least one GPU"));
        }
        if tenant.iters == 0 {
            return Err(refuse("must run at least one iteration (iters = 0)"));
        }
        if tenant.body.is_empty() {
            return Err(refuse("has an empty body"));
        }
        match &tenant.mode {
            TenantMode::Service(comm) => {
                let ranks = (0..tenant.gpus.len())
                    .map(|rank| {
                        let program = tenant.program(*comm, rank);
                        (tenant.gpus[rank], Box::new(program) as Box<dyn AppProgram>)
                    })
                    .collect();
                Ok(self.add_app(&tenant.name, ranks))
            }
            TenantMode::Library(lib) => crate::library::attach(self, tenant, lib),
        }
    }

    /// Register an application name and get its id.
    pub(crate) fn register_app_name(&mut self, name: &str) -> AppId {
        self.world.app_names.push(name.to_owned());
        AppId(self.world.app_names.len() as u32 - 1)
    }

    /// Install a deterministic fault schedule. All fault machinery —
    /// transport retry timers, proxy liveness checks, gossip re-sends,
    /// the recovery engine — activates only once a plan is installed;
    /// without one, runs are byte-identical to a build without fault
    /// support.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.world.install_fault_plan(plan);
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.world.clock
    }

    /// The management/controller surface.
    pub fn mgmt(&mut self) -> Management<'_> {
        Management::new(&mut self.world)
    }

    /// A digest of everything externally observable about this run: the
    /// trace records, the failure-event log, and the health counters.
    /// Two runs of the same scenario (same seed, same plan) must produce
    /// identical digests — the determinism gate CI enforces by running
    /// scenarios twice in separate processes and diffing the output.
    ///
    /// Each part is hashed as its `Debug` text, as `format!("{:?}",
    /// part).hash(..)` would, but streamed into the hasher: the trace's
    /// text runs to tens of MiB on a large world.
    pub fn observable_digest(&self) -> u64 {
        use std::hash::DefaultHasher;
        let w = &self.world;
        let mut h = DefaultHasher::new();
        let trace = fmt::from_fn(|f| f.debug_list().entries(w.trace.iter()).finish());
        hash_debug(&mut h, &trace);
        hash_debug(&mut h, &w.health.events());
        hash_debug(&mut h, &w.health.counters);
        h.finish()
    }

    /// Run until virtual time `t` (or until the system quiesces earlier).
    pub fn run_until(&mut self, t: Nanos) {
        loop {
            self.pool.poll(&mut self.world);
            match self.world.next_time() {
                Some(next) if next <= t => self.world.advance_to(next),
                _ => break,
            }
        }
        if self.world.clock < t {
            self.world.advance_to(t);
            self.pool.poll(&mut self.world);
        }
        self.sync_scheduler_stats();
    }

    /// One scheduler round at the current instant (no time advance).
    pub fn poll_once(&mut self) {
        self.pool.poll(&mut self.world);
        self.sync_scheduler_stats();
    }

    /// One event step: poll every engine at the current instant, then
    /// advance the clock to the next scheduled event (firing any fault
    /// scripted there). Returns the new clock, or `None` when nothing is
    /// scheduled — the system has quiesced. The instant *between* two
    /// `step` calls is the chaos driver's and explorer's decision point:
    /// the world has arrived at a time but no engine has run there yet.
    pub fn step(&mut self) -> Option<Nanos> {
        self.pool.poll(&mut self.world);
        let next = self.world.next_time();
        if let Some(t) = next {
            self.world.advance_to(t);
        }
        self.sync_scheduler_stats();
        next
    }

    /// Run until the *brink* of `t`: every event strictly before `t` is
    /// processed, the clock lands exactly on `t`, but no engine has been
    /// polled at `t` yet. A fault injected now is observed by the first
    /// poll at `t` — exactly what a pre-scripted plan entry at `t`
    /// produces, which is what makes driver/script digests byte-equal.
    pub fn run_until_brink(&mut self, t: Nanos) {
        assert!(
            t >= self.world.clock,
            "cannot run to the brink of the past: {t} < {}",
            self.world.clock
        );
        loop {
            self.pool.poll(&mut self.world);
            match self.world.next_time() {
                Some(next) if next < t => self.world.advance_to(next),
                _ => break,
            }
        }
        if self.world.clock < t {
            self.world.advance_to(t);
        }
        self.sync_scheduler_stats();
    }

    /// Inject a fault at the current virtual instant through the plan
    /// machinery (appending to the installed plan, or installing a fresh
    /// one). The fault is applied immediately; engines observe it on the
    /// next poll at this instant.
    pub fn inject_fault(&mut self, ev: FaultEvent) {
        self.world.inject_fault(ev);
    }

    /// Run until nothing can ever happen again (all programs finished or
    /// blocked forever). Returns the final virtual time.
    ///
    /// # Panics
    /// Panics if the system is still active at `deadline` — the universal
    /// hang detector for tests.
    pub fn run_until_quiescent(&mut self, deadline: Nanos) -> Nanos {
        match self.try_run_until_quiescent(deadline) {
            Ok(t) => t,
            Err(hang) => panic!(
                "cluster hung (deadline {deadline}): next event at {:?}; \
                 live engines: {:?}",
                hang.next_event, hang.live_engines
            ),
        }
    }

    /// [`run_until_quiescent`](Self::run_until_quiescent) that reports a
    /// hang as data instead of panicking — the explorer's hang detector.
    /// Quiet is not done: when nothing is left to happen but a tenant
    /// engine is still live, that tenant waits forever, and the hang
    /// names each such engine.
    pub fn try_run_until_quiescent(&mut self, deadline: Nanos) -> Result<Nanos, ClusterHang> {
        loop {
            self.pool.poll(&mut self.world);
            match self.world.next_time() {
                Some(next) => {
                    if next > deadline {
                        self.sync_scheduler_stats();
                        return Err(ClusterHang {
                            next_event: Some(next),
                            live_engines: self.live_engine_names(),
                        });
                    }
                    self.world.advance_to(next);
                }
                None => {
                    self.sync_scheduler_stats();
                    let waiting = self.live_tenant_names();
                    if waiting.is_empty() {
                        return Ok(self.world.clock);
                    }
                    return Err(ClusterHang {
                        next_event: None,
                        live_engines: waiting,
                    });
                }
            }
        }
    }

    /// Mirror the pool's efficiency counters into the world-resident
    /// [`SchedulerStats`](crate::health::SchedulerStats) the management
    /// API reads. Called after every run loop.
    fn sync_scheduler_stats(&mut self) {
        let s = &mut self.world.health.scheduler;
        s.polls = self.pool.poll_count();
        s.wasted_polls = self.pool.wasted_poll_count();
        s.wakes = self.pool.wake_count();
    }

    /// Check the engine contract on every poll from now on, for good
    /// ([`RuntimePool::check_contract`]): a panic names an engine whose
    /// idle poll changed the world or whose wake the pool missed. The run
    /// and its counters are those of an unchecked cluster.
    pub fn check_engine_contract(&mut self) {
        self.pool.check_contract();
    }

    /// Always 1: the scheduler is single-threaded. `mccsbench` (frozen
    /// under `mccsbench/`) is the only caller.
    pub fn sim_workers(&self) -> usize {
        1
    }

    /// Always 1: one event queue. `mccsbench` (frozen under `mccsbench/`)
    /// is the only caller.
    pub fn sim_shards(&self) -> usize {
        1
    }

    /// Scheduler efficiency counters (polls, wasted polls, wakes),
    /// synced from the pool after the last run loop.
    pub fn scheduler_stats(&self) -> crate::health::SchedulerStats {
        self.world.health.scheduler
    }

    /// Live (unfinished) engine count — tenants, frontends, proxies,
    /// transports.
    pub fn live_engines(&self) -> usize {
        self.pool.live()
    }

    /// Names of live engines (deadlock diagnostics).
    pub fn live_engine_names(&self) -> Vec<String> {
        self.pool.live_names().into_iter().map(|(_, n)| n).collect()
    }

    /// Names of the live tenant engines (app ranks, library jobs): in a
    /// quiet world, the tenants blocked for good.
    pub(crate) fn live_tenant_names(&self) -> Vec<String> {
        let names = self.tenants.iter().map(|&id| self.pool.live_name(id));
        names.flatten().collect()
    }
}

impl ClusterConfig {
    /// The default seed.
    pub const DEFAULT_SEED: u64 = MCCS_DEFAULT_SEED;

    /// A config with everything default except the seed.
    pub fn with_seed(seed: u64) -> Self {
        ClusterConfig {
            seed,
            ..Default::default()
        }
    }

    /// Library-mode config: no service engines (at-scale studies where
    /// tenants bring their own collective library).
    pub fn library_mode(seed: u64) -> Self {
        ClusterConfig {
            seed,
            service_engines: false,
            ..Default::default()
        }
    }
}

/// Feed `v`'s `Debug` text to `h` exactly as hashing the formatted
/// `String` would, without building it.
fn hash_debug(h: &mut impl Hasher, v: &dyn fmt::Debug) {
    struct Feed<'a, H>(&'a mut H);
    impl<H: Hasher> fmt::Write for Feed<'_, H> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    fmt::write(&mut Feed(h), format_args!("{v:?}")).expect("a Debug impl failed");
    // `str::hash` ends the text with this byte, which no UTF-8 text holds.
    h.write_u8(0xff);
}
