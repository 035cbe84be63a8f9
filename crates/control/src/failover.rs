//! Controller-side failure recovery: FFA-informed corrective configs.
//!
//! The service's built-in [`DetourPolicy`](mccs_core::DetourPolicy) pins
//! each broken connection to the *first* healthy route it finds — correct,
//! but oblivious to load: after a spine failure every detoured flow piles
//! onto the same surviving path. [`FailoverPolicy`] is the controller-
//! grade alternative: it re-runs the best-fit placement of
//! [`flow_policy`](crate::flow_policy) restricted to healthy routes, so
//! the surviving fabric is shared evenly between the communicator's
//! channels. Like the detour policy it drops a channel's ring only when
//! one of its connections has no healthy route at all, degrading
//! bandwidth instead of deadlocking, and returns `None` only when the
//! communicator is fully partitioned.

use mccs_collectives::{op::all_reduce_sum, CollectiveSchedule, EdgeTask, RingOrder};
use mccs_core::config::{CollectiveConfig, RouteMap};
use mccs_core::recovery::RecoveryPolicy;
use mccs_core::World;
use mccs_ipc::CommunicatorId;
use mccs_sim::Bytes;
use mccs_topology::{GpuId, NicId, RouteId};
use std::collections::HashMap;

/// Best-fit failover placement over the healthy fabric.
#[derive(Debug, Default, Clone, Copy)]
pub struct FailoverPolicy;

impl FailoverPolicy {
    /// Best-fit one connection onto its surviving equal-cost paths: the
    /// one minimizing post-placement maximum link utilization, measured
    /// against each link's *effective* (degrade-adjusted) capacity so a
    /// half-rate spine attracts half the placements; ties (e.g. when the
    /// shared NIC uplink dominates every candidate's max) broken by total
    /// path utilization, then lowest route id (determinism). Routes the
    /// degradation policy deems unusable are considered only when no
    /// usable route survives; `None` when every path is dead.
    fn place(w: &World, load: &mut HashMap<usize, f64>, src: NicId, dst: NicId) -> Option<RouteId> {
        let policy = w.svc.degradation;
        let demand = w.topo.nic(src).bandwidth.as_bps();
        let paths = w.topo.route_set(src, dst);
        let mut best: Option<(f64, f64, RouteId)> = None;
        for pass in 0..2 {
            for id in paths.ids() {
                let weight = w.net.route_weight(src, dst, id);
                let eligible = if pass == 0 {
                    policy.usable_weight(weight) > 0.0
                } else {
                    weight > 0.0
                };
                if !eligible {
                    continue;
                }
                let (mut worst, mut total) = (0.0_f64, 0.0_f64);
                for l in paths.links(id) {
                    let cap = w.net.link_effective_capacity(l).as_bps();
                    let u = (load.get(&l.index()).copied().unwrap_or(0.0) + demand) / cap;
                    worst = worst.max(u);
                    total += u;
                }
                if best.is_none_or(|(bw, bt, _)| worst < bw || (worst == bw && total < bt)) {
                    best = Some((worst, total, id));
                }
            }
            if best.is_some() {
                break;
            }
        }
        let (_, _, id) = best?;
        for l in paths.links(id) {
            *load.entry(l.index()).or_default() += demand;
        }
        Some(id)
    }
}

impl RecoveryPolicy for FailoverPolicy {
    fn plan(
        &self,
        w: &World,
        _comm: CommunicatorId,
        current: &CollectiveConfig,
        _world_gpus: &[GpuId],
    ) -> Option<(Vec<RingOrder>, RouteMap)> {
        let mut rings = current.channel_rings.clone();
        'rebuild: loop {
            if rings.is_empty() {
                return None;
            }
            // Inter-host NIC pairs depend only on the rings and the
            // topology, never on op or size: any probe schedule works.
            let sched = CollectiveSchedule::ring(&w.topo, all_reduce_sum(), Bytes::mib(1), &rings);
            let mut routes = RouteMap::ecmp();
            let mut load: HashMap<usize, f64> = HashMap::new();
            for ch in &sched.channels {
                for task in &ch.tasks {
                    let EdgeTask::InterHost {
                        src_nic, dst_nic, ..
                    } = *task
                    else {
                        continue;
                    };
                    match Self::place(w, &mut load, src_nic, dst_nic) {
                        Some(r) => routes.pin(ch.channel, src_nic, dst_nic, r),
                        None => {
                            // This pair is partitioned: the channel cannot
                            // run. Drop its ring and rebuild (the channel-
                            // to-NIC mapping of the survivors shifts).
                            rings.remove(ch.channel);
                            continue 'rebuild;
                        }
                    }
                }
            }
            return Some((rings, routes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_core::{Cluster, ClusterConfig};
    use mccs_sim::Nanos;
    use mccs_topology::graph::Endpoint;
    use mccs_topology::{presets, LinkId};
    use std::sync::Arc;

    fn cluster() -> Cluster {
        Cluster::new(Arc::new(presets::testbed()), ClusterConfig::default())
    }

    fn two_channel_config(topo: &mccs_topology::Topology) -> CollectiveConfig {
        let ring = RingOrder::new(vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)]);
        let _ = topo;
        CollectiveConfig {
            epoch: 0,
            channel_rings: vec![ring.clone(), ring],
            routes: RouteMap::ecmp(),
        }
    }

    fn spine_links(topo: &mccs_topology::Topology) -> Vec<LinkId> {
        topo.links()
            .iter()
            .filter(|l| {
                matches!(l.from, Endpoint::Switch(_)) && matches!(l.to, Endpoint::Switch(_))
            })
            .map(|l| l.id)
            .collect()
    }

    #[test]
    fn failover_spreads_channels_over_spines() {
        let c = cluster();
        let w = &c.world;
        let current = two_channel_config(&w.topo);
        let world_gpus: Vec<GpuId> = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let (rings, routes) = FailoverPolicy
            .plan(w, CommunicatorId(0), &current, &world_gpus)
            .expect("healthy fabric must yield a plan");
        assert_eq!(rings.len(), 2);
        // Per cross-rack direction, the two channels must land on
        // different spines (what first-healthy DetourPolicy cannot do).
        let mut per_direction: HashMap<bool, Vec<RouteId>> = HashMap::new();
        for (&(_, src, dst), &r) in routes.iter() {
            let (hs, hd) = (w.topo.nic(src).host, w.topo.nic(dst).host);
            if !w.topo.same_rack(hs, hd) {
                per_direction.entry(src.0 < 4).or_default().push(r);
            }
        }
        for (_, ids) in per_direction {
            assert_eq!(ids.len(), 2, "two channels cross each rack boundary");
            assert_ne!(ids[0], ids[1], "failover collided two channels");
        }
    }

    #[test]
    fn failover_avoids_dead_spine() {
        let mut c = cluster();
        let spine = spine_links(&c.world.topo)[0];
        c.world.net.set_link_up(Nanos::ZERO, spine, false);
        let w = &c.world;
        let current = two_channel_config(&w.topo);
        let world_gpus: Vec<GpuId> = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let (_, routes) = FailoverPolicy
            .plan(w, CommunicatorId(0), &current, &world_gpus)
            .expect("an alternate spine remains");
        for (&(_, src, dst), &r) in routes.iter() {
            assert!(w.net.route_healthy(src, dst, r));
            assert!(
                !w.topo.pinned_route(src, dst, r).links.contains(&spine),
                "failover pinned a route over the dead spine"
            );
        }
    }

    #[test]
    fn failover_gives_up_when_partitioned() {
        let mut c = cluster();
        let spines = spine_links(&c.world.topo);
        for l in spines {
            c.world.net.set_link_up(Nanos::ZERO, l, false);
        }
        let w = &c.world;
        let current = two_channel_config(&w.topo);
        let world_gpus: Vec<GpuId> = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        assert!(
            FailoverPolicy
                .plan(w, CommunicatorId(0), &current, &world_gpus)
                .is_none(),
            "a fully partitioned communicator has no corrective config"
        );
    }

    #[test]
    fn failover_is_deterministic() {
        let c = cluster();
        let w = &c.world;
        let current = two_channel_config(&w.topo);
        let world_gpus: Vec<GpuId> = vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let a = FailoverPolicy.plan(w, CommunicatorId(0), &current, &world_gpus);
        let b = FailoverPolicy.plan(w, CommunicatorId(0), &current, &world_gpus);
        assert_eq!(
            a.map(|(r, m)| (r.len(), format!("{m:?}"))),
            b.map(|(r, m)| (r.len(), format!("{m:?}")))
        );
    }
}
