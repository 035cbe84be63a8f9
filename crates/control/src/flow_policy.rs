//! Flow-to-route assignment policies (FFA, PFA).
//!
//! Once ring configurations fix the communication pattern, "the set of
//! flows can be determined" (§4.3): every inter-host ring edge of every
//! channel is a long-lived connection. These policies choose each
//! connection's equal-cost path explicitly instead of leaving it to ECMP:
//!
//! * [`ffa`] — best-fit fair assignment: greedy minimal-excess-demand
//!   placement (the Hedera heuristic the paper cites), iterating
//!   round-robin between jobs so no tenant systematically gets the
//!   leftovers.
//! * [`pfa`] — priority assignment: selected route ids are reserved for
//!   the prioritized tenants; lower-priority flows are fitted onto the
//!   remaining routes first, priority flows pick from all of them.

use mccs_collectives::{connections, RingOrder};
use mccs_core::config::RouteMap;
use mccs_topology::{NicId, RouteId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// One job's connection set, as derived from its ring configuration.
#[derive(Clone, Debug)]
pub struct JobFlows {
    /// Priority class, 0 = highest (only [`pfa`] reads this).
    pub priority: u32,
    /// Connections: `(channel, src NIC, dst NIC)`.
    pub flows: Vec<(usize, NicId, NicId)>,
}

impl JobFlows {
    /// Derive a job's connections from its channel rings.
    pub fn from_rings(topo: &Topology, rings: &[RingOrder], priority: u32) -> Self {
        let flows = connections(topo, rings).collect();
        JobFlows { priority, flows }
    }
}

/// Greedy best-fit placement of one flow: the allowed path minimizing the
/// post-placement maximum link utilization, ties broken by lowest route id
/// (determinism).
fn best_fit(
    topo: &Topology,
    load: &mut Vec<f64>,
    src: NicId,
    dst: NicId,
    allowed: impl Fn(RouteId) -> bool,
) -> RouteId {
    best_fit_with_demand(
        topo,
        load,
        src,
        dst,
        topo.nic(src).bandwidth.as_bps(),
        allowed,
    )
}

/// As [`best_fit`] but with an explicit demand estimate (bps). `load` is
/// the demand placed so far per link index (none past its end).
fn best_fit_with_demand(
    topo: &Topology,
    load: &mut Vec<f64>,
    src: NicId,
    dst: NicId,
    demand: f64,
    allowed: impl Fn(RouteId) -> bool,
) -> RouteId {
    let paths = topo.route_set(src, dst);
    let mut best: Option<(f64, RouteId)> = None;
    for id in paths.ids().filter(|&id| allowed(id)) {
        let score = paths
            .links(id)
            .map(|l| {
                let cap = topo.link(l).bandwidth.as_bps();
                (load.get(l.index()).copied().unwrap_or(0.0) + demand) / cap
            })
            .fold(0.0_f64, f64::max);
        if best.is_none_or(|(s, _)| score < s) {
            best = Some((score, id));
        }
    }
    // Every path reserved away: fall back to the full set (the paper's
    // PFA degrades to FFA rather than starving a tenant).
    let id = best.map_or(RouteId(0), |(_, id)| id);
    for l in paths.links(id) {
        if l.index() >= load.len() {
            load.resize(l.index() + 1, 0.0);
        }
        load[l.index()] += demand;
    }
    id
}

fn assign(
    topo: &Topology,
    jobs: &[JobFlows],
    allowed_for: impl Fn(&JobFlows, RouteId) -> bool,
    order: &[usize],
) -> Vec<RouteMap> {
    let mut maps = vec![RouteMap::ecmp(); jobs.len()];
    let mut load = Vec::new();
    let mut cursors = vec![0usize; jobs.len()];
    // Round-robin between jobs (in the given job order) for fairness.
    loop {
        let mut any = false;
        for &j in order {
            let job = &jobs[j];
            let c = cursors[j];
            if c >= job.flows.len() {
                continue;
            }
            cursors[j] += 1;
            any = true;
            let (channel, src, dst) = job.flows[c];
            let id = best_fit(topo, &mut load, src, dst, |r| allowed_for(job, r));
            maps[j].pin(channel, src, dst, id);
        }
        if !any {
            return maps;
        }
    }
}

/// Best-fit fair flow assignment (§4.3 Example #2): one route map per job,
/// all routes available to everyone, flows placed round-robin across jobs.
pub fn ffa(topo: &Topology, jobs: &[JobFlows]) -> Vec<RouteMap> {
    let order: Vec<usize> = (0..jobs.len()).collect();
    assign(topo, jobs, |_, _| true, &order)
}

/// Priority flow assignment (§4.3 Example #3): `reserved` route ids are
/// dedicated to priority-0 jobs — the paper's example "dedicate one of the
/// two routes between rack A and B to the prioritized application".
/// Priority-0 flows live on the reserved routes (isolated from everyone
/// else's congestion); lower-priority flows best-fit over the remainder.
/// Either side falls back to the full route set when its partition is
/// empty, so nobody starves.
pub fn pfa(topo: &Topology, jobs: &[JobFlows], reserved: &BTreeSet<RouteId>) -> Vec<RouteMap> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| jobs[j].priority);
    assign(
        topo,
        jobs,
        |job, r| {
            if job.priority == 0 {
                reserved.is_empty() || reserved.contains(&r)
            } else {
                !reserved.contains(&r)
            }
        },
        &order,
    )
}

/// Online FFA for dynamic arrivals (§6.5: "the rescheduling occurs only
/// when a job joins or exits"): link loads persist across placements and
/// each new job best-fits against the current load. Departures are not
/// modelled: a job's load stays placed.
#[derive(Default, Debug)]
pub struct IncrementalFfa {
    /// Placed demand (bps) per link index.
    load: Vec<f64>,
}

impl IncrementalFfa {
    /// No load.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place one arriving job's connections; returns its route map. A
    /// flow's demand estimate is the NIC rate divided by how many of the
    /// job's own flows share that source NIC (channels over one NIC split
    /// its line rate).
    pub fn place_job(&mut self, topo: &Topology, flows: &[(usize, NicId, NicId)]) -> RouteMap {
        let mut per_nic: BTreeMap<NicId, usize> = BTreeMap::new();
        for &(_, src, _) in flows {
            *per_nic.entry(src).or_default() += 1;
        }
        let mut map = RouteMap::ecmp();
        for &(channel, src, dst) in flows {
            let demand = topo.nic(src).bandwidth.as_bps() / per_nic[&src] as f64;
            let id = best_fit_with_demand(topo, &mut self.load, src, dst, demand, |_| true);
            map.pin(channel, src, dst, id);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_topology::{presets, GpuId};

    fn testbed_rings(gpus: &[GpuId]) -> Vec<RingOrder> {
        vec![RingOrder::new(gpus.to_vec())]
    }

    #[test]
    fn job_flows_extracts_inter_host_connections() {
        let topo = presets::testbed();
        let rings = testbed_rings(&[GpuId(0), GpuId(2), GpuId(4), GpuId(6)]);
        let jf = JobFlows::from_rings(&topo, &rings, 0);
        assert_eq!(jf.flows.len(), 4, "4 inter-host edges in a 4-host ring");
    }

    #[test]
    fn ffa_spreads_two_jobs_over_two_spines() {
        // The paper's own example: two applications each with one
        // cross-rack connection per direction; FFA gives each route a flow
        // from each application direction-wise without collision.
        let topo = presets::testbed();
        let a = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(0), GpuId(4)]), 0);
        let b = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(2), GpuId(6)]), 0);
        let maps = ffa(&topo, &[a.clone(), b.clone()]);
        // collect the spine (route id) used per direction per job
        let mut per_direction: BTreeMap<bool, Vec<RouteId>> = BTreeMap::new();
        for (job, map) in [(&a, &maps[0]), (&b, &maps[1])] {
            for &(ch, s, d) in &job.flows {
                let id = map.get(ch, s, d).expect("pinned");
                // direction: rack0 -> rack1 iff src nic index < 4
                per_direction.entry(s.0 < 4).or_default().push(id);
                let _ = d;
            }
        }
        for (_, ids) in per_direction {
            assert_eq!(ids.len(), 2);
            assert_ne!(
                ids[0], ids[1],
                "two flows in one direction must not collide"
            );
        }
    }

    #[test]
    fn ffa_is_deterministic() {
        let topo = presets::testbed();
        let a = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(0), GpuId(4)]), 0);
        let b = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(2), GpuId(6)]), 0);
        let m1 = ffa(&topo, &[a.clone(), b.clone()]);
        let m2 = ffa(&topo, &[a, b]);
        assert_eq!(m1, m2);
    }

    #[test]
    fn pfa_reserves_routes_for_priority() {
        let topo = presets::testbed();
        let hi = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(0), GpuId(4)]), 0);
        let mut lo = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(2), GpuId(6)]), 1);
        lo.priority = 1;
        let reserved: BTreeSet<RouteId> = [RouteId(0)].into();
        let maps = pfa(&topo, &[hi.clone(), lo.clone()], &reserved);
        // Low-priority flows never use the reserved route 0.
        for &(ch, s, d) in &lo.flows {
            let id = maps[1].get(ch, s, d).expect("pinned");
            assert_ne!(id, RouteId(0), "low-priority flow on a reserved route");
        }
        // High-priority flows got the reserved (empty) route.
        for &(ch, s, d) in &hi.flows {
            let id = maps[0].get(ch, s, d).expect("pinned");
            assert_eq!(id, RouteId(0), "priority flow should take the free route");
        }
    }

    #[test]
    fn pfa_falls_back_when_everything_reserved() {
        let topo = presets::testbed();
        let mut lo = JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(0), GpuId(4)]), 1);
        lo.priority = 1;
        let reserved: BTreeSet<RouteId> = [RouteId(0), RouteId(1)].into();
        let maps = pfa(&topo, &[lo.clone()], &reserved);
        // all routes reserved: the job still gets *some* route
        for &(ch, s, d) in &lo.flows {
            assert!(maps[0].get(ch, s, d).is_some());
        }
    }

    #[test]
    fn incremental_ffa_balances_two_jobs() {
        let topo = presets::testbed();
        let mut inc = IncrementalFfa::new();
        let a: Vec<(usize, NicId, NicId)> =
            JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(0), GpuId(4)]), 0).flows;
        let b: Vec<(usize, NicId, NicId)> =
            JobFlows::from_rings(&topo, &testbed_rings(&[GpuId(2), GpuId(6)]), 0).flows;
        let ma = inc.place_job(&topo, &a);
        let mb = inc.place_job(&topo, &b);
        // per direction, the two jobs landed on different spines
        for &(ch_a, sa, da) in &a {
            for &(ch_b, sb, db) in &b {
                let same_dir = (sa.0 < 4) == (sb.0 < 4);
                if same_dir {
                    assert_ne!(
                        ma.get(ch_a, sa, da),
                        mb.get(ch_b, sb, db),
                        "incremental FFA collided two same-direction flows"
                    );
                }
            }
        }
    }

    #[test]
    fn ffa_balances_eight_gpu_two_channel_job() {
        // 8-GPU job, 2 channels: per direction, the two channels' cross-
        // rack flows must land on different spines.
        let topo = presets::testbed();
        let ring = RingOrder::new((0..8).map(GpuId).collect());
        let jf = JobFlows::from_rings(&topo, &[ring.clone(), ring], 0);
        let maps = ffa(&topo, std::slice::from_ref(&jf));
        let mut per_direction: BTreeMap<bool, BTreeSet<RouteId>> = BTreeMap::new();
        for &(ch, s, d) in &jf.flows {
            // cross-rack flows only (H1<->H2 boundary and wrap-around)
            let cross = topo.nic(s).host != topo.nic(d).host
                && !topo.same_rack(topo.nic(s).host, topo.nic(d).host);
            if cross {
                let id = maps[0].get(ch, s, d).expect("pinned");
                per_direction.entry(s.0 < 4).or_default().insert(id);
            }
        }
        for (_, ids) in per_direction {
            assert_eq!(ids.len(), 2, "both spines engaged per direction");
        }
    }
}
