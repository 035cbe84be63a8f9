//! Job and placement generation for the at-scale study (§6.5).
//!
//! "We run 50 jobs ... job sizes are either 16 or 32 GPUs with equal
//! probability ... jobs arrival follows a Poisson distribution with the
//! lambda set to 200 ms. Random placement means the simulator allocates
//! GPUs to a job randomly; compact placement assigns GPUs that belong to
//! the same rack whenever possible."

use mccs_sim::{Nanos, Rng};
use mccs_topology::{GpuId, HostId, RackId, Topology};

/// Placement strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Uniformly random free GPUs.
    Random,
    /// Rack-by-rack: prefer racks with the most free GPUs, packing each
    /// before spilling to the next.
    Compact,
}

/// A generated job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job index.
    pub id: usize,
    /// Arrival time.
    pub arrival: Nanos,
    /// GPUs requested.
    pub size: usize,
}

/// Generate `count` jobs with Poisson arrivals of mean `mean_gap` and
/// sizes drawn uniformly from `sizes`.
pub fn poisson_jobs(count: usize, mean_gap: Nanos, sizes: &[usize], rng: &mut Rng) -> Vec<JobSpec> {
    assert!(!sizes.is_empty());
    let mut t = Nanos::ZERO;
    (0..count)
        .map(|id| {
            t += Nanos::from_secs_f64(rng.exponential(mean_gap.as_secs_f64()));
            JobSpec {
                id,
                arrival: t,
                size: *rng.choose(sizes),
            }
        })
        .collect()
}

/// Tracks which GPUs are free and places jobs.
#[derive(Debug)]
pub struct PlacementMap {
    /// Whether each GPU is free, by GPU index.
    free: Vec<bool>,
    /// Owning host of each GPU (`release` has no topology at hand).
    host_of: Vec<HostId>,
    /// Free GPUs per host: a host is free when this equals its GPU count.
    host_free: Vec<usize>,
    /// GPU count of the smallest host, which sizes a job's host demand so
    /// the chosen hosts always hold enough GPUs.
    gpus_per_host: usize,
}

impl PlacementMap {
    /// All GPUs free.
    pub fn new(topo: &Topology) -> Self {
        let host_free: Vec<usize> = topo.hosts().iter().map(|h| h.gpus.len()).collect();
        PlacementMap {
            free: vec![true; topo.gpu_count()],
            host_of: topo.gpus().iter().map(|g| g.host).collect(),
            gpus_per_host: host_free.iter().copied().min().expect("empty cluster"),
            host_free,
        }
    }

    /// Total GPU count.
    pub fn total(&self) -> usize {
        self.free.len()
    }

    /// Mark a free GPU busy.
    fn take(&mut self, gpu: GpuId) {
        assert!(self.free[gpu.index()], "{gpu} taken twice");
        self.free[gpu.index()] = false;
        self.host_free[self.host_of[gpu.index()].index()] -= 1;
    }

    /// Try to place a job of `size` GPUs; on success the GPUs are marked
    /// busy and returned in allocation order.
    ///
    /// Placement is **host-granular** (as in the NetHint-style setup the
    /// paper adopts, where jobs occupy whole 8-GPU hosts): the job takes
    /// `ceil(size / gpus_per_host)` fully-free hosts — randomly chosen or
    /// rack-compacted — and uses `size` GPUs from them.
    pub fn place(
        &mut self,
        topo: &Topology,
        size: usize,
        strategy: Placement,
        rng: &mut Rng,
    ) -> Option<Vec<GpuId>> {
        if size == 0 {
            return Some(Vec::new());
        }
        let hosts_needed = size.div_ceil(self.gpus_per_host);
        // Hosts whose every GPU is free, in host-id order.
        let mut free_hosts: Vec<_> = topo
            .hosts()
            .iter()
            .filter(|h| self.host_free[h.id.index()] == h.gpus.len())
            .map(|h| h.id)
            .collect();
        if free_hosts.len() < hosts_needed {
            return None;
        }
        let chosen_hosts: Vec<_> = match strategy {
            Placement::Random => rng
                .sample_indices(free_hosts.len(), hosts_needed)
                .into_iter()
                .map(|i| free_hosts[i])
                .collect(),
            Placement::Compact => {
                // racks sorted by free-host count descending, then id;
                // fill rack by rack.
                let mut per_rack: Vec<(RackId, Vec<_>)> = (0..topo.rack_count())
                    .map(|r| {
                        let rack = RackId(r as u32);
                        let hosts: Vec<_> = free_hosts
                            .iter()
                            .copied()
                            .filter(|&h| topo.rack_of(h) == rack)
                            .collect();
                        (rack, hosts)
                    })
                    .collect();
                per_rack.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
                free_hosts = per_rack.into_iter().flat_map(|(_, h)| h).collect();
                free_hosts.truncate(hosts_needed);
                free_hosts
            }
        };
        let chosen: Vec<GpuId> = chosen_hosts
            .iter()
            .flat_map(|&h| topo.host(h).gpus.clone())
            .take(size)
            .collect();
        debug_assert_eq!(chosen.len(), size);
        for &g in &chosen {
            self.take(g);
        }
        Some(chosen)
    }

    /// Return a finished job's GPUs to the pool.
    pub fn release(&mut self, gpus: &[GpuId]) {
        for &g in gpus {
            assert!(!self.free[g.index()], "double release of {g}");
            self.free[g.index()] = true;
            self.host_free[self.host_of[g.index()].index()] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_topology::presets::{self, SpineLeafConfig};
    use std::collections::BTreeSet;

    fn big_topo() -> Topology {
        presets::spine_leaf(&SpineLeafConfig::paper_large_scale())
    }

    /// The GPUs the map holds free.
    fn free_gpus(map: &PlacementMap) -> BTreeSet<GpuId> {
        (0..map.total() as u32)
            .map(GpuId)
            .filter(|g| map.free[g.index()])
            .collect()
    }

    #[test]
    fn poisson_arrivals_are_increasing_with_right_mean() {
        let mut rng = Rng::seed_from(1);
        let jobs = poisson_jobs(500, Nanos::from_millis(200), &[16, 32], &mut rng);
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let mean_gap = jobs.last().expect("jobs").arrival.as_secs_f64() / 500.0;
        assert!((0.17..0.23).contains(&mean_gap), "mean gap {mean_gap}");
        // both sizes occur
        assert!(jobs.iter().any(|j| j.size == 16));
        assert!(jobs.iter().any(|j| j.size == 32));
    }

    #[test]
    fn compact_placement_prefers_one_rack() {
        let topo = big_topo();
        let mut map = PlacementMap::new(&topo);
        let mut rng = Rng::seed_from(2);
        // 32 GPUs fit exactly into one rack (4 hosts x 8 GPUs)
        let gpus = map
            .place(&topo, 32, Placement::Compact, &mut rng)
            .expect("space");
        let racks: BTreeSet<RackId> = gpus
            .iter()
            .map(|&g| topo.rack_of(topo.host_of_gpu(g)))
            .collect();
        assert_eq!(racks.len(), 1, "32-GPU job should fit one rack");
    }

    #[test]
    fn compact_spills_to_second_rack_when_fragmented() {
        let topo = big_topo();
        let mut map = PlacementMap::new(&topo);
        let mut rng = Rng::seed_from(3);
        // occupy 16 GPUs in every rack so no rack can hold 32 alone
        for r in 0..topo.rack_count() {
            let rack_gpus: Vec<GpuId> = topo
                .gpus()
                .iter()
                .filter(|g| topo.rack_of(g.host) == RackId(r as u32))
                .map(|g| g.id)
                .take(16)
                .collect();
            for g in rack_gpus {
                map.take(g);
            }
        }
        let _ = &mut rng;
        let gpus = map
            .place(&topo, 32, Placement::Compact, &mut rng)
            .expect("space");
        let racks: BTreeSet<RackId> = gpus
            .iter()
            .map(|&g| topo.rack_of(topo.host_of_gpu(g)))
            .collect();
        assert_eq!(racks.len(), 2, "fragmented cluster needs two racks");
    }

    #[test]
    fn random_placement_spans_racks_usually() {
        let topo = big_topo();
        let mut map = PlacementMap::new(&topo);
        let mut rng = Rng::seed_from(4);
        let gpus = map
            .place(&topo, 32, Placement::Random, &mut rng)
            .expect("space");
        let racks: BTreeSet<RackId> = gpus
            .iter()
            .map(|&g| topo.rack_of(topo.host_of_gpu(g)))
            .collect();
        assert!(racks.len() > 2, "random 32 of 768 should span many racks");
    }

    #[test]
    fn occupancy_accounting() {
        let topo = big_topo();
        let mut map = PlacementMap::new(&topo);
        let mut rng = Rng::seed_from(5);
        assert_eq!(map.total(), 768);
        let a = map
            .place(&topo, 16, Placement::Random, &mut rng)
            .expect("fits");
        assert_eq!(free_gpus(&map).len(), 768 - 16);
        map.release(&a);
        assert_eq!(free_gpus(&map).len(), 768);
    }

    #[test]
    fn placement_fails_when_full() {
        let topo = presets::testbed();
        let mut map = PlacementMap::new(&topo);
        let mut rng = Rng::seed_from(6);
        assert!(map.place(&topo, 9, Placement::Random, &mut rng).is_none());
        let _ = map
            .place(&topo, 8, Placement::Random, &mut rng)
            .expect("all");
        assert!(map.place(&topo, 1, Placement::Compact, &mut rng).is_none());
    }

    /// `place` as it was before the per-host free counters: the free-host
    /// list rebuilt by probing a `BTreeSet` of free GPUs for every GPU of
    /// every host, hosts sized by the first host's NIC count.
    fn reference_place(
        free: &mut BTreeSet<GpuId>,
        topo: &Topology,
        size: usize,
        strategy: Placement,
        rng: &mut Rng,
    ) -> Option<Vec<GpuId>> {
        let gph = topo.hosts()[0].nics.len();
        let hosts_needed = size.div_ceil(gph);
        let mut free_hosts: Vec<_> = topo
            .hosts()
            .iter()
            .filter(|h| h.gpus.iter().all(|g| free.contains(g)))
            .map(|h| h.id)
            .collect();
        if free_hosts.len() < hosts_needed {
            return None;
        }
        let chosen_hosts: Vec<_> = match strategy {
            Placement::Random => rng
                .sample_indices(free_hosts.len(), hosts_needed)
                .into_iter()
                .map(|i| free_hosts[i])
                .collect(),
            Placement::Compact => {
                let mut per_rack: Vec<(RackId, Vec<_>)> = (0..topo.rack_count())
                    .map(|r| {
                        let rack = RackId(r as u32);
                        let hosts: Vec<_> = free_hosts
                            .iter()
                            .copied()
                            .filter(|&h| topo.rack_of(h) == rack)
                            .collect();
                        (rack, hosts)
                    })
                    .collect();
                per_rack.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
                free_hosts = per_rack.into_iter().flat_map(|(_, h)| h).collect();
                free_hosts.truncate(hosts_needed);
                free_hosts
            }
        };
        let chosen: Vec<GpuId> = chosen_hosts
            .iter()
            .flat_map(|&h| topo.host(h).gpus.clone())
            .take(size)
            .collect();
        for g in &chosen {
            free.remove(g);
        }
        Some(chosen)
    }

    #[test]
    fn placements_match_the_gpu_set_reference() {
        // 96 hosts, jobs of 3..=40 GPUs (partial hosts included), ~60 %
        // places: the fabric fills up, refuses, and drains again.
        let topo = big_topo();
        for strategy in [Placement::Random, Placement::Compact] {
            let mut map = PlacementMap::new(&topo);
            let mut free: BTreeSet<GpuId> = topo.gpus().iter().map(|g| g.id).collect();
            let (mut rng, mut ref_rng) = (Rng::seed_from(7), Rng::seed_from(7));
            let mut steps = Rng::seed_from(8);
            let mut running: Vec<Vec<GpuId>> = Vec::new();
            let mut refused = 0;
            for _ in 0..500 {
                if running.is_empty() || steps.index(10) < 6 {
                    let size = 3 + steps.index(38);
                    let got = map.place(&topo, size, strategy, &mut rng);
                    let want = reference_place(&mut free, &topo, size, strategy, &mut ref_rng);
                    assert_eq!(got, want, "{strategy:?} size {size}");
                    match got {
                        Some(gpus) => running.push(gpus),
                        None => refused += 1,
                    }
                } else {
                    let gpus = running.swap_remove(steps.index(running.len()));
                    map.release(&gpus);
                    free.extend(gpus);
                }
                assert_eq!(free_gpus(&map), free);
            }
            assert!(refused > 0, "{strategy:?} never filled the fabric");
        }
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_detected() {
        let topo = presets::testbed();
        let mut map = PlacementMap::new(&topo);
        map.release(&[GpuId(0)]);
    }
}
