//! Interactive chaos driving — faults issued *from the test body*.
//!
//! A [`ChaosDriver`] wraps a [`Cluster`] and interleaves stepping with
//! live fault control: run to an instant, look at the world, decide to
//! partition a rack or crash a host *now*, keep running. Every fault
//! goes through the same [`FaultPlan`](mccs_netsim::FaultPlan) machinery a pre-scripted run
//! uses — the driver appends events to the installed plan at the current
//! virtual clock and fires them before any engine polls at that instant.
//!
//! # Equivalence with pre-scripted plans
//!
//! The driver's stepping primitives all stop at the **brink** of an
//! instant: every event strictly before `t` has been processed, the
//! clock sits exactly on `t`, and no engine has polled at `t` yet
//! ([`Cluster::run_until_brink`]). Injecting a fault there and resuming
//! reproduces, call for call, what a scripted plan entry at `t`
//! produces: substrates advance to `t`, the fault applies, and the next
//! poll at `t` observes it. RNG streams are untouched by injection
//! (control-jitter draws happen per message send, never per fault), so a
//! driver issuing the same events at the same instants yields a trace
//! digest **byte-identical** to the equivalent pre-scripted plan — a
//! property CI enforces.
//!
//! # Quickstart
//!
//! ```ignore
//! let mut cluster = scenario.build(); // any `Scenario`
//! let mut driver = ChaosDriver::new(&mut cluster);
//! driver.run_until(Nanos::from_millis(10)); // brink of 10ms
//! driver.link_down(hot_spine);              // fires at 10ms
//! driver.run_for(Nanos::from_millis(5));
//! driver.repair_all();                      // bring the fabric back
//! let end = driver.run_to_quiescence(Nanos::from_secs(20)).unwrap();
//! ```

use crate::cluster::{Cluster, ClusterHang};
use crate::health::{FailureEvent, HealthDelivery, HealthSubscription};
use mccs_netsim::FaultEvent;
use mccs_sim::Nanos;
use mccs_topology::{graph, HostId, LinkId, RackId, SwitchId};
use std::collections::VecDeque;
use std::sync::Arc;

/// A test-body handle over a [`Cluster`] that interleaves stepping with
/// live fault control. See the module docs for the equivalence argument.
pub struct ChaosDriver<'c> {
    cluster: &'c mut Cluster,
    /// Private health-channel cursor for [`run_until_event`]
    /// (independent of the recovery engine's and any monitor's).
    sub: HealthSubscription,
    /// Events delivered but not yet matched by a predicate.
    pending: VecDeque<FailureEvent>,
}

impl<'c> ChaosDriver<'c> {
    /// Wrap `cluster`. Installs an empty [`FaultPlan`](mccs_netsim::FaultPlan) if none is
    /// present so the fault machinery (liveness timers, retry timers,
    /// the recovery engine) is active from the start — exactly as it
    /// would be under a pre-scripted plan installed before the run.
    pub fn new(cluster: &'c mut Cluster) -> Self {
        if cluster.world.fault_plan.is_none() {
            cluster.install_fault_plan(mccs_netsim::FaultPlan::new());
        }
        ChaosDriver {
            cluster,
            sub: HealthSubscription::from_start(),
            pending: VecDeque::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.cluster.world.clock
    }

    /// Next scheduled instant (engines may schedule more once polled).
    pub fn next_time(&self) -> Option<Nanos> {
        self.cluster.world.next_time()
    }

    /// The wrapped cluster (world inspection between steps).
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// The wrapped cluster, mutably (attach apps, management calls).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        self.cluster
    }

    /// Digest of everything observable so far
    /// ([`Cluster::observable_digest`]).
    pub fn digest(&self) -> u64 {
        self.cluster.observable_digest()
    }

    // ---- stepping ------------------------------------------------------

    /// One event step ([`Cluster::step`]): poll at the current instant,
    /// advance to the next scheduled one. Returns the new clock, or
    /// `None` at quiescence. Each return is a decision point: faults
    /// injected now fire before any engine polls at this instant.
    pub fn step(&mut self) -> Option<Nanos> {
        self.cluster.step()
    }

    /// Run to the brink of absolute time `t` (see
    /// [`Cluster::run_until_brink`]).
    pub fn run_until(&mut self, t: Nanos) {
        self.cluster.run_until_brink(t);
    }

    /// Run to the brink of `now + d`.
    pub fn run_for(&mut self, d: Nanos) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Run until a health event matching `pred` is recorded, or the
    /// clock would pass `deadline`. Returns the matching event, with the
    /// world stopped at the instant it was delivered (a decision point).
    /// Events scanned and not matched are consumed; events after the
    /// match stay buffered for the next call.
    pub fn run_until_event(
        &mut self,
        deadline: Nanos,
        mut pred: impl FnMut(&FailureEvent) -> bool,
    ) -> Option<FailureEvent> {
        loop {
            if let Some(ev) = self.scan(&mut pred) {
                return Some(ev);
            }
            self.cluster.poll_once();
            if let Some(ev) = self.scan(&mut pred) {
                return Some(ev);
            }
            let w = &mut self.cluster.world;
            match w.next_time() {
                Some(t) if t <= deadline => w.advance_to(t),
                _ if w.clock < deadline => w.advance_to(deadline),
                _ => return None,
            }
        }
    }

    /// Run until nothing can ever happen again; a hang past `deadline`
    /// is returned as data ([`Cluster::try_run_until_quiescent`]).
    pub fn run_to_quiescence(&mut self, deadline: Nanos) -> Result<Nanos, ClusterHang> {
        self.cluster.try_run_until_quiescent(deadline)
    }

    fn scan(&mut self, pred: &mut impl FnMut(&FailureEvent) -> bool) -> Option<FailureEvent> {
        match self.cluster.world.health.poll(&mut self.sub) {
            HealthDelivery::Events(evs) => {
                self.pending.extend(evs.into_iter().map(|(_, e)| e));
            }
            // Channel overflow: continuity is lost; predicates resume
            // from the current edge of the stream.
            HealthDelivery::Resync(_) => {}
        }
        while let Some(ev) = self.pending.pop_front() {
            if pred(&ev) {
                return Some(ev);
            }
        }
        None
    }

    // ---- live fault control --------------------------------------------

    /// Inject any [`FaultEvent`] at the current instant.
    pub fn inject(&mut self, ev: FaultEvent) {
        self.cluster.inject_fault(ev);
    }

    /// Take a link down now.
    pub fn link_down(&mut self, link: LinkId) {
        self.inject(FaultEvent::LinkDown(link));
    }

    /// Bring a link back to full capacity now.
    pub fn link_up(&mut self, link: LinkId) {
        self.inject(FaultEvent::LinkUp(link));
    }

    /// Degrade a link to `milli`/1000 of line rate now (1000 = repair).
    pub fn degrade(&mut self, link: LinkId, milli: u32) {
        self.inject(FaultEvent::LinkDegrade { link, milli });
    }

    /// Degrade a group of links together (correlated brownout).
    pub fn degrade_group(&mut self, links: &[LinkId], milli: u32) {
        self.inject(FaultEvent::CorrelatedDegrade {
            links: Arc::from(links),
            milli,
        });
    }

    /// Crash a host now.
    pub fn crash_host(&mut self, host: HostId) {
        self.inject(FaultEvent::CrashHost(host));
    }

    /// Warm-restart a crashed host now.
    pub fn restart_host(&mut self, host: HostId) {
        self.inject(FaultEvent::RestartHost(host));
    }

    /// Crash the controller now: the recovery engine and health monitor
    /// freeze, and health events accumulate in the bounded channel until
    /// a restart. Idempotent while already down.
    pub fn crash_controller(&mut self) {
        self.inject(FaultEvent::CrashController);
    }

    /// Restart a crashed controller: working state is rebuilt from the
    /// last checkpoint and the recovery engine runs its reconciliation
    /// pass. Idempotent while already up.
    pub fn restart_controller(&mut self) {
        self.inject(FaultEvent::RestartController);
    }

    /// Whether the controller is currently down.
    pub fn is_controller_down(&self) -> bool {
        self.cluster.world.controller.down
    }

    /// Cut `rack` off from the rest of the fabric: every switch-to-switch
    /// link touching the rack's leaf goes down. Returns the links cut
    /// (already-down links are skipped), so the test can repair them.
    pub fn partition_rack(&mut self, rack: RackId) -> Vec<LinkId> {
        let cut: Vec<LinkId> = self
            .uplinks_of_rack(rack)
            .into_iter()
            .filter(|&l| self.cluster.world.net.link_up(l))
            .collect();
        for &l in &cut {
            self.link_down(l);
        }
        cut
    }

    /// Undo a partition: bring every down switch-to-switch link touching
    /// the rack's leaf back up. Returns the links repaired.
    pub fn repair_rack(&mut self, rack: RackId) -> Vec<LinkId> {
        let fixed: Vec<LinkId> = self
            .uplinks_of_rack(rack)
            .into_iter()
            .filter(|&l| !self.cluster.world.net.link_up(l))
            .collect();
        for &l in &fixed {
            self.link_up(l);
        }
        fixed
    }

    /// Repair everything: bring every down link up, restart every
    /// crashed host, clear every brownout, restart a crashed controller,
    /// and release held control traffic. The world returns to a healthy
    /// fabric (detour pins remain until the recovery engine fails them
    /// back).
    pub fn repair_all(&mut self) {
        let w = &self.cluster.world;
        let down: Vec<LinkId> = w
            .topo
            .links()
            .iter()
            .map(|l| l.id)
            .filter(|&l| !w.net.link_up(l))
            .collect();
        let degraded: Vec<LinkId> = w
            .topo
            .links()
            .iter()
            .map(|l| l.id)
            .filter(|&l| w.net.link_up(l) && w.net.link_weight(l) < 1.0)
            .collect();
        let crashed: Vec<HostId> = w.health.hosts_down().collect();
        for l in down {
            self.link_up(l);
        }
        for l in degraded {
            self.degrade(l, 1000);
        }
        for h in crashed {
            self.restart_host(h);
        }
        if self.cluster.world.controller.down {
            self.restart_controller();
        }
        if self.cluster.world.is_control_held() {
            self.release_control();
        }
    }

    /// Hold all control-ring traffic: messages sent from now on are
    /// parked (with their already-drawn latency) instead of delivered.
    pub fn hold_control(&mut self) {
        self.cluster.world.hold_control();
    }

    /// Release held control traffic: parked messages are re-sent from
    /// the current instant with their original latency draws —
    /// observably identical to a scripted `delay_control` of the hold
    /// duration on each affected ordinal.
    pub fn release_control(&mut self) {
        self.cluster.world.release_control();
    }

    /// Whether control traffic is currently held.
    pub fn is_control_held(&self) -> bool {
        self.cluster.world.is_control_held()
    }

    /// Control messages currently parked by a hold.
    pub fn held_control(&self) -> usize {
        self.cluster.world.held_control_len()
    }

    // ---- topology helpers ----------------------------------------------

    /// The leaf switch serving `rack`.
    fn leaf_of_rack(&self, rack: RackId) -> SwitchId {
        self.cluster
            .world
            .topo
            .switches()
            .iter()
            .find(|s| s.rack == Some(rack))
            .map(|s| s.id)
            .unwrap_or_else(|| panic!("no leaf switch serves {rack:?}"))
    }

    /// All switch-to-switch links touching `rack`'s leaf (both
    /// directions), in topology order.
    fn uplinks_of_rack(&self, rack: RackId) -> Vec<LinkId> {
        let leaf = self.leaf_of_rack(rack);
        self.cluster
            .world
            .topo
            .links()
            .iter()
            .filter(|l| {
                let touches = l.from == graph::Endpoint::Switch(leaf)
                    || l.to == graph::Endpoint::Switch(leaf);
                let switch_to_switch = matches!(l.from, graph::Endpoint::Switch(_))
                    && matches!(l.to, graph::Endpoint::Switch(_));
                touches && switch_to_switch
            })
            .map(|l| l.id)
            .collect()
    }
}
