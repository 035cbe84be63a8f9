//! The management API — the provider/controller surface of §4.3.
//!
//! Exposes exactly what the paper says a centralized controller consumes:
//! "the set of active communicators, including the set of GPUs (and
//! hosts) that make up the ranks ... and the current configuration of
//! collective strategy and network resources", plus collective tracing —
//! and accepts policy outputs: new ring configurations (OR), flow-route
//! maps (FFA/PFA) and traffic windows (TS).

use crate::config::{CollectiveConfig, RouteMap};
use crate::health::{HealthCounters, HealthDelivery, HealthSubscription};
use crate::messages::{ProxyMsg, TransportMsg};
use crate::qos::TrafficWindows;
use crate::tracing::TraceRecord;
use crate::world::World;
use mccs_collectives::RingOrder;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::Nanos;
use mccs_topology::GpuId;
use std::collections::BTreeMap;

/// One communicator as the controller sees it.
#[derive(Clone, Debug)]
pub struct CommInfo {
    /// The communicator.
    pub comm: CommunicatorId,
    /// Owning application.
    pub app: AppId,
    /// Rank -> GPU map.
    pub world: Vec<GpuId>,
    /// Ranks registered so far (all of them once init completes).
    pub registered_ranks: usize,
    /// Current configuration epoch.
    pub epoch: u64,
    /// Channel count.
    pub channels: usize,
    /// Current ring per channel.
    pub rings: Vec<RingOrder>,
}

/// A borrow of the world with controller privileges.
pub struct Management<'a> {
    world: &'a mut World,
}

impl<'a> Management<'a> {
    /// Wrap the world.
    pub fn new(world: &'a mut World) -> Self {
        Management { world }
    }

    /// All active communicators (one entry per communicator, aggregated
    /// over its per-GPU rank states).
    pub fn communicators(&self) -> Vec<CommInfo> {
        let mut by_comm: BTreeMap<CommunicatorId, CommInfo> = BTreeMap::new();
        for ((comm, _gpu), rank) in self.world.comms.iter() {
            let entry = by_comm.entry(*comm).or_insert_with(|| CommInfo {
                comm: *comm,
                app: rank.app,
                world: rank.world_gpus.clone(),
                registered_ranks: 0,
                epoch: rank.config.epoch,
                channels: rank.config.channels(),
                rings: rank.config.channel_rings.clone(),
            });
            entry.registered_ranks += 1;
        }
        by_comm.into_values().collect()
    }

    /// One communicator's info.
    pub fn communicator(&self, comm: CommunicatorId) -> Option<CommInfo> {
        self.communicators().into_iter().find(|c| c.comm == comm)
    }

    /// Issue a runtime reconfiguration: new channel rings and flow routes.
    /// The epoch is advanced automatically; delivery to each rank's proxy
    /// carries independent control-plane jitter (the Figure 4 hazard the
    /// barrier protocol exists for).
    ///
    /// # Panics
    /// Panics if the communicator is unknown or not fully registered.
    pub fn reconfigure(&mut self, comm: CommunicatorId, rings: Vec<RingOrder>, routes: RouteMap) {
        let info = self
            .communicator(comm)
            .unwrap_or_else(|| panic!("reconfigure of unknown {comm}"));
        assert_eq!(
            info.registered_ranks,
            info.world.len(),
            "{comm} not fully registered"
        );
        assert!(!rings.is_empty(), "need at least one channel ring");
        let config = CollectiveConfig {
            epoch: info.epoch + 1,
            channel_rings: rings,
            routes,
        };
        let incarnation = self.world.controller.incarnation;
        for &gpu in &info.world {
            self.world.send_control(
                gpu,
                ProxyMsg::Reconfigure {
                    comm,
                    incarnation,
                    config: config.clone(),
                },
            );
        }
    }

    /// Install (or clear, with `None`) a traffic-window schedule for an
    /// application on every transport engine — the TS enforcement hook.
    ///
    /// Schedules originate outside the service (tenant or controller
    /// policy), so a malformed one is rejected as `InvalidArgument`; the
    /// transports never see it and nothing is partially installed.
    pub fn set_traffic_windows(
        &mut self,
        app: AppId,
        windows: Option<TrafficWindows>,
    ) -> Result<(), crate::error::ServiceError> {
        if let Some(w) = &windows {
            w.validate()?;
        }
        let nics: Vec<_> = self.world.topo.nics().iter().map(|n| n.id).collect();
        for nic in nics {
            self.world.send_to_transport(
                nic,
                TransportMsg::SetWindows {
                    app,
                    windows: windows.clone(),
                },
            );
        }
        Ok(())
    }

    /// All trace records of an application (the §4.3 tracing API).
    pub fn trace(&self, app: AppId) -> Vec<TraceRecord> {
        self.world.trace.for_app(app).into_iter().cloned().collect()
    }

    /// An application's rank-0 completed-collective timeline.
    pub fn timeline(&self, app: AppId) -> Vec<TraceRecord> {
        self.world
            .trace
            .timeline(app)
            .into_iter()
            .cloned()
            .collect()
    }

    /// The idle gaps of an application's collective timeline — what the
    /// TS policy schedules other tenants into.
    pub fn idle_gaps(&self, app: AppId) -> Vec<(Nanos, Nanos)> {
        self.world.trace.idle_gaps(app)
    }

    /// Tenant-perceived collective latencies of an app's rank-0 endpoint:
    /// `(seq, issued_at_shim, done_at_shim)`. This is what an nccl-tests
    /// style benchmark measures — including the full IPC round trip, which
    /// the service-internal trace excludes.
    pub fn tenant_latencies(&self, app: AppId) -> Vec<(u64, Nanos, Nanos)> {
        let Some(endpoint) = self
            .world
            .endpoints
            .iter()
            .position(|e| e.app == app && e.rank == 0)
        else {
            return Vec::new();
        };
        self.world.tenant_log.latencies_of_endpoint(endpoint)
    }

    /// Tenant-perceived collective outcomes of an app's rank-0 endpoint,
    /// including collectives the service cleanly failed back to the
    /// tenant (`failed == true`, with the issue-to-failure duration the
    /// tenant actually waited). JCT reports consume this to count
    /// failures explicitly instead of silently dropping them.
    pub fn tenant_outcomes(&self, app: AppId) -> Vec<crate::world::TenantRecord> {
        let Some(endpoint) = self
            .world
            .endpoints
            .iter()
            .position(|e| e.app == app && e.rank == 0)
        else {
            return Vec::new();
        };
        self.world.tenant_log.outcomes_of_endpoint(endpoint)
    }

    /// Instantaneous utilization of every link carrying traffic, sorted
    /// most-loaded first — the "link utilization" half of the cluster
    /// state the paper's controller consumes (§3: the provider hides
    /// "the cloud's network topology, link utilization, etc." behind the
    /// service; this is the provider-side view of it).
    pub fn link_utilization(&self) -> Vec<(mccs_topology::LinkId, f64)> {
        let mut v: Vec<(mccs_topology::LinkId, f64)> = self
            .world
            .topo
            .links()
            .iter()
            .map(|l| (l.id, self.world.net.link_utilization(l.id)))
            .filter(|&(_, u)| u > 0.0)
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// The most utilized link right now, if any traffic is flowing.
    pub fn hottest_link(&self) -> Option<(mccs_topology::LinkId, f64)> {
        self.link_utilization().into_iter().next()
    }

    /// The provider's health view: links currently down.
    pub fn links_down(&self) -> Vec<mccs_topology::LinkId> {
        self.world.health.links_down().collect()
    }

    /// The provider's health view: hosts currently down.
    pub fn hosts_down(&self) -> Vec<mccs_topology::HostId> {
        self.world.health.hosts_down().collect()
    }

    /// The provider's health view: links running below line rate, with
    /// remaining capacity as a fraction (brownouts, as opposed to the
    /// `links_down` blackout set).
    pub fn links_degraded(&self) -> Vec<(mccs_topology::LinkId, f64)> {
        self.world
            .health
            .links_degraded()
            .map(|(l, m)| (l, f64::from(m) / 1000.0))
            .collect()
    }

    /// Retry/recovery counters accumulated since boot.
    pub fn health_counters(&self) -> HealthCounters {
        self.world.health.counters
    }

    /// Engine-scheduler efficiency counters (total polls, wasted polls,
    /// wakes delivered) for the run so far. Deliberately outside
    /// [`HealthCounters`]: scheduling efficiency is an implementation
    /// property, not observable behavior, so it stays out of the
    /// determinism digest the oracle-equivalence gate compares.
    pub fn scheduler_stats(&self) -> crate::health::SchedulerStats {
        self.world.health.scheduler
    }

    /// Controller availability counters: crashes, restarts, cumulative
    /// downtime, checkpoints taken, reconciliation passes run, and stale
    /// commands ranks fenced. Like [`scheduler_stats`](Self::scheduler_stats)
    /// these are deliberately outside [`HealthCounters`] and the
    /// determinism digest — a crash whose restart reconciles to a no-op
    /// must hash identically to the crash-free run.
    pub fn controller_stats(&self) -> crate::world::ControllerStats {
        self.world.controller.stats
    }

    /// Whether the controller is currently down (crashed and not yet
    /// restarted).
    pub fn controller_down(&self) -> bool {
        self.world.controller.down
    }

    /// The controller's current incarnation number (bumped on every
    /// restart; reconfiguration commands carry it for fencing).
    pub fn controller_incarnation(&self) -> u64 {
        self.world.controller.incarnation
    }

    /// Subscribe to the bounded health push channel from its current
    /// tail: subsequent [`poll_health`](Management::poll_health) calls
    /// deliver only events recorded after this point.
    pub fn subscribe_health(&self) -> HealthSubscription {
        self.world.health.subscribe()
    }

    /// Drain everything the push channel holds for `sub`: in-order
    /// seq-numbered events, or a snapshot resync if the subscriber fell
    /// behind the ring.
    pub fn poll_health(&self, sub: &mut HealthSubscription) -> HealthDelivery {
        self.world.health.poll(sub)
    }

    /// Direct read access to the world (experiment harnesses).
    pub fn world(&self) -> &World {
        self.world
    }
}
