//! Provider-side configuration: per-communicator collective strategy and
//! service tuning knobs.

use crate::error::ServiceError;
use mccs_collectives::RingOrder;
use mccs_ipc::CommunicatorId;
use mccs_netsim::RouteChoice;
use mccs_sim::Nanos;
use mccs_topology::{GpuId, NicId, RouteId, Topology};
use std::collections::BTreeMap;

/// Explicit flow-to-route pins: `(channel, src NIC, dst NIC) -> route id`.
/// Pairs without an entry fall back to ECMP with a deterministic
/// connection hash — exactly the paper's split between MCCS (pinned via
/// the UDP-source-port trick) and MCCS(-FA) (plain ECMP).
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct RouteMap {
    map: BTreeMap<(usize, NicId, NicId), RouteId>,
}

impl RouteMap {
    /// Everything-ECMP.
    pub fn ecmp() -> Self {
        Self::default()
    }

    /// Pin one connection.
    pub fn pin(&mut self, channel: usize, src: NicId, dst: NicId, route: RouteId) {
        self.map.insert((channel, src, dst), route);
    }

    /// Look up a pin.
    pub fn get(&self, channel: usize, src: NicId, dst: NicId) -> Option<RouteId> {
        self.map.get(&(channel, src, dst)).copied()
    }

    /// Number of pinned connections.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no connections are pinned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over all pins.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, NicId, NicId), &RouteId)> {
        self.map.iter()
    }

    /// Check every pin against the fabric: its NIC pair must have a route
    /// set and the pinned id must be one of it. Pins arrive from outside
    /// the service (controller, mgmt caller, recovery policy), so a bad
    /// one is an `InvalidArgument` here rather than a panic at the next
    /// flow start.
    pub fn validate(&self, topo: &Topology) -> Result<(), ServiceError> {
        let nics = topo.nics().len();
        for (&(channel, src, dst), &id) in &self.map {
            if src.index() >= nics || dst.index() >= nics {
                return Err(ServiceError::invalid_argument(format!(
                    "route pin for channel {channel} names an unknown NIC ({src}->{dst})"
                )));
            }
            topo.try_route_set(src, dst)
                .and_then(|set| set.try_links(id).map(drop))
                .map_err(|e| {
                    ServiceError::invalid_argument(format!("route pin for channel {channel}: {e}"))
                })?;
        }
        Ok(())
    }
}

/// The provider's collective strategy for one communicator: ring order per
/// channel plus flow routes. Every rank derives identical schedules from
/// an identical config — the property the reconfiguration barrier protects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Configuration epoch; bumped by every reconfiguration.
    pub epoch: u64,
    /// One ring per channel; data is split across channels.
    pub channel_rings: Vec<RingOrder>,
    /// Flow route pins (empty = ECMP everywhere).
    pub routes: RouteMap,
}

impl crate::reconfig::Epoched for CollectiveConfig {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl CollectiveConfig {
    /// The default strategy the service applies with no controller input:
    /// NCCL's own construction (host-grouped, user rank order) with one
    /// channel per communicator GPU on the most-loaded host (engaging every
    /// NIC the tenant was assigned), and ECMP routing.
    pub fn default_for(topo: &Topology, world: &[GpuId]) -> Self {
        let ring = RingOrder::nccl_default(topo, world);
        let channels = max_gpus_per_host(topo, world).max(1);
        CollectiveConfig {
            epoch: 0,
            channel_rings: vec![ring; channels],
            routes: RouteMap::ecmp(),
        }
    }

    /// Check the config against the communicator it would run on: at
    /// least one ring, every ring a permutation of `world`, and every
    /// route pin routable ([`RouteMap::validate`]). Configs arrive from
    /// outside the service (controller, mgmt caller, library job), so a
    /// bad one is an `InvalidArgument` here rather than a panic at the
    /// next launch.
    pub fn validate(&self, topo: &Topology, world: &[GpuId]) -> Result<(), ServiceError> {
        if self.channel_rings.is_empty() {
            return Err(ServiceError::invalid_argument(
                "a configuration needs at least one ring",
            ));
        }
        let mut members = world.to_vec();
        members.sort_unstable();
        for (i, ring) in self.channel_rings.iter().enumerate() {
            // A ring repeats no GPU, so one as long as `world` whose every
            // GPU is a member is a permutation of it.
            let permutes = ring.len() == members.len()
                && ring.gpus().iter().all(|g| members.binary_search(g).is_ok());
            if !permutes {
                return Err(ServiceError::invalid_argument(format!(
                    "ring {i} is not a permutation of the communicator's GPUs"
                )));
            }
        }
        self.routes.validate(topo)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channel_rings.len()
    }

    /// The deterministic ECMP hash for an unpinned connection. Stable per
    /// (communicator, epoch, channel, NIC pair) — connections are
    /// established once per configuration, as in NCCL, so every collective
    /// reuses the same path until a reconfiguration re-establishes them.
    pub fn ecmp_hash(&self, comm: CommunicatorId, channel: usize, src: NicId, dst: NicId) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for v in [
            comm.0,
            self.epoch,
            channel as u64,
            u64::from(src.0),
            u64::from(dst.0),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// How the connection `(channel, src, dst)` of `comm` is routed: its
    /// pin if it has one, otherwise ECMP under [`ecmp_hash`](Self::ecmp_hash).
    pub fn route_choice(
        &self,
        comm: CommunicatorId,
        channel: usize,
        src: NicId,
        dst: NicId,
    ) -> RouteChoice {
        match self.routes.get(channel, src, dst) {
            Some(id) => RouteChoice::Pinned(id),
            None => RouteChoice::Ecmp {
                hash: self.ecmp_hash(comm, channel, src, dst),
            },
        }
    }
}

fn max_gpus_per_host(topo: &Topology, world: &[GpuId]) -> usize {
    let mut counts: BTreeMap<_, usize> = BTreeMap::new();
    for &g in world {
        *counts.entry(topo.host_of_gpu(g)).or_default() += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

/// Service-wide settings. The service's fixed latencies and budgets are
/// constants next to the code that reads them: the control ring's
/// latency in [`crate::world`], the reconnect delay, liveness timeout and
/// gossip re-send in [`crate::proxy`], the flow timeout and retry budget
/// in [`crate::transport`] and the recovery attempt cap in
/// [`crate::recovery`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Jitter fraction on control messages (reconfiguration requests reach
    /// different hosts at different times — the Figure 4 hazard).
    pub control_jitter_frac: f64,
    /// How transports and the recovery engine treat partially-degraded
    /// routes (brownouts), as opposed to the binary up/down handling.
    pub degradation: DegradationPolicy,
    /// Minimum interval between controller state checkpoints. Checkpoints
    /// are taken opportunistically when the recovery engine runs (its
    /// state only changes when it runs, so nothing is lost by not waking
    /// for them) and only while a fault plan is installed — a plan-free
    /// world does no checkpoint work at all. A smaller interval means a
    /// fresher checkpoint at crash time and less reconciliation on
    /// restart.
    pub controller_checkpoint_interval: Nanos,
    /// Capacity of the bounded health push channel; subscribers that fall
    /// further behind than this resync from a snapshot.
    pub health_channel_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            control_jitter_frac: 0.5,
            degradation: DegradationPolicy::default(),
            controller_checkpoint_interval: Nanos::from_millis(5),
            health_channel_capacity: crate::health::DEFAULT_HEALTH_CHANNEL_CAPACITY,
        }
    }
}

/// How routing treats links running below line rate.
///
/// A route's weight is the bottleneck [`link_weight`] along it: 1.0
/// healthy, 0.0 down, the remaining capacity fraction in between. The
/// policy maps that weight to a selection weight: hard-down routes are
/// never selected, routes below `route_around_below` are routed around
/// like down ones (unless nothing better exists), and the rest are
/// chosen with probability proportional to their weight, so a
/// half-capacity link keeps carrying half its healthy share instead of
/// dumping everything onto its siblings. `route_around_below = 1.0`
/// degenerates to today's binary route-around of anything degraded.
///
/// [`link_weight`]: mccs_netsim::Network::link_weight
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradationPolicy {
    /// Routes whose bottleneck weight falls below this fraction are
    /// treated as unusable and routed around (0.0 = use any link with
    /// capacity left; 1.0 = route around every degraded link).
    pub route_around_below: f64,
    /// An in-flight flow is only rebalanced when some usable route beats
    /// its current route's weight by more than this margin — small
    /// fluctuations don't thrash pinned flows.
    pub rebalance_hysteresis: f64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            route_around_below: 0.25,
            rebalance_hysteresis: 0.1,
        }
    }
}

impl DegradationPolicy {
    /// The binary pre-degradation behavior: route around anything running
    /// below line rate, keep a degraded route only when nothing healthy
    /// is left.
    pub fn route_around() -> Self {
        DegradationPolicy {
            route_around_below: 1.0,
            rebalance_hysteresis: 0.0,
        }
    }

    /// Selection weight of a route with bottleneck weight `w`: zero for
    /// hard-down or below-threshold routes, `w` otherwise.
    pub fn usable_weight(&self, w: f64) -> f64 {
        if w <= 0.0 || w < self.route_around_below {
            0.0
        } else {
            w
        }
    }

    /// Deterministic weighted route selection. `weights` are bottleneck
    /// route weights by [`RouteId`] index; `key` seeds the pick (callers
    /// pass a stable per-flow value so repeated selections agree). Routes
    /// the policy deems unusable are skipped; if no route is usable the
    /// best route with any capacity left is returned (degraded beats
    /// down); `None` only when every route is hard-down.
    pub fn select(&self, weights: &[f64], key: u64) -> Option<usize> {
        let total: f64 = weights.iter().map(|&w| self.usable_weight(w)).sum();
        if total <= 0.0 {
            // Everything is routed around: fall back to the least-bad
            // route that still moves bytes.
            return weights
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights are finite"))
                .map(|(i, _)| i);
        }
        // splitmix64 finalizer: a uniform point on the cumulative line.
        let mut h = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let point = (h >> 11) as f64 / (1u64 << 53) as f64 * total;
        let mut acc = 0.0;
        let mut last = None;
        for (i, &w) in weights.iter().enumerate() {
            let uw = self.usable_weight(w);
            if uw <= 0.0 {
                continue;
            }
            acc += uw;
            last = Some(i);
            if point < acc {
                return Some(i);
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_topology::presets;

    #[test]
    fn default_config_engages_all_tenant_nics() {
        let topo = presets::testbed();
        // 8-GPU tenant: 2 GPUs/host -> 2 channels.
        let world: Vec<GpuId> = (0..8).map(GpuId).collect();
        let cfg = CollectiveConfig::default_for(&topo, &world);
        assert_eq!(cfg.channels(), 2);
        // 4-GPU tenant (one per host) -> 1 channel.
        let world4 = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let cfg4 = CollectiveConfig::default_for(&topo, &world4);
        assert_eq!(cfg4.channels(), 1);
    }

    #[test]
    fn ecmp_hash_stable_within_epoch_changes_across() {
        let topo = presets::testbed();
        let world: Vec<GpuId> = (0..4).map(GpuId).collect();
        let mut cfg = CollectiveConfig::default_for(&topo, &world);
        let c = CommunicatorId(3);
        let h1 = cfg.ecmp_hash(c, 0, NicId(0), NicId(4));
        let h2 = cfg.ecmp_hash(c, 0, NicId(0), NicId(4));
        assert_eq!(h1, h2);
        let other_channel = cfg.ecmp_hash(c, 1, NicId(0), NicId(4));
        assert_ne!(h1, other_channel);
        cfg.epoch += 1;
        assert_ne!(h1, cfg.ecmp_hash(c, 0, NicId(0), NicId(4)));
    }

    #[test]
    fn route_map_pins() {
        let mut r = RouteMap::ecmp();
        assert!(r.is_empty());
        r.pin(0, NicId(1), NicId(5), RouteId(1));
        assert_eq!(r.get(0, NicId(1), NicId(5)), Some(RouteId(1)));
        assert_eq!(r.get(1, NicId(1), NicId(5)), None);
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn route_choice_is_the_pin_else_ecmp() {
        let topo = presets::testbed();
        let world: Vec<GpuId> = (0..8).map(GpuId).collect();
        let mut cfg = CollectiveConfig::default_for(&topo, &world);
        cfg.routes.pin(0, NicId(1), NicId(5), RouteId(1));
        let c = CommunicatorId(3);
        assert_eq!(
            cfg.route_choice(c, 0, NicId(1), NicId(5)),
            RouteChoice::Pinned(RouteId(1))
        );
        // The same NIC pair on another channel is not pinned.
        assert_eq!(
            cfg.route_choice(c, 1, NicId(1), NicId(5)),
            RouteChoice::Ecmp {
                hash: cfg.ecmp_hash(c, 1, NicId(1), NicId(5))
            }
        );
        assert_eq!(
            cfg.route_choice(c, 0, NicId(0), NicId(4)),
            RouteChoice::Ecmp {
                hash: cfg.ecmp_hash(c, 0, NicId(0), NicId(4))
            }
        );
    }
}
