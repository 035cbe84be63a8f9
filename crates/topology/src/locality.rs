//! Locality structure over GPU sets.
//!
//! The locality-aware ring policy (paper §4.3, Example #1) groups a
//! communicator's participant hosts "by their locality (e.g., under the
//! same rack, under the same pod) and then connects them in a sequential
//! order". [`LocalityMap`] computes that grouping for an arbitrary GPU set;
//! [`Locality`] is the distance lattice between two GPUs.

use crate::graph::Topology;
use crate::ids::{GpuId, HostId, PodId, RackId};
use std::collections::BTreeMap;

/// How close two GPUs are, from tightest to loosest coupling.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Locality {
    /// Same host: traffic stays on intra-host channels.
    SameHost,
    /// Same rack: traffic turns around at the leaf switch.
    SameRack,
    /// Same pod, different racks: traffic crosses the spine layer.
    SamePod,
    /// Different pods.
    CrossPod,
}

impl Topology {
    /// Locality class of a GPU pair.
    pub fn locality(&self, a: GpuId, b: GpuId) -> Locality {
        let ha = self.host_of_gpu(a);
        let hb = self.host_of_gpu(b);
        if ha == hb {
            Locality::SameHost
        } else if self.rack_of(ha) == self.rack_of(hb) {
            Locality::SameRack
        } else if self.pod_of_host(ha) == self.pod_of_host(hb) {
            Locality::SamePod
        } else {
            Locality::CrossPod
        }
    }
}

/// A GPU set organized pod -> rack -> host -> GPUs, each level in
/// deterministic (id) order. This is the input shape the greedy
/// locality-aware ring constructor walks.
#[derive(Clone, Debug)]
pub struct LocalityMap {
    /// pod -> rack -> host -> gpus, all sorted by id.
    pods: BTreeMap<PodId, BTreeMap<RackId, BTreeMap<HostId, Vec<GpuId>>>>,
    total: usize,
}

impl LocalityMap {
    /// Group `gpus` by their position in `topo`.
    pub fn build(topo: &Topology, gpus: &[GpuId]) -> Self {
        let mut pods: BTreeMap<PodId, BTreeMap<RackId, BTreeMap<HostId, Vec<GpuId>>>> =
            BTreeMap::new();
        for &g in gpus {
            let host = topo.host_of_gpu(g);
            let rack = topo.rack_of(host);
            let pod = topo.pod_of(rack);
            pods.entry(pod)
                .or_default()
                .entry(rack)
                .or_default()
                .entry(host)
                .or_default()
                .push(g);
        }
        for racks in pods.values_mut() {
            for hosts in racks.values_mut() {
                for gs in hosts.values_mut() {
                    gs.sort_unstable();
                }
            }
        }
        LocalityMap {
            pods,
            total: gpus.len(),
        }
    }

    /// Total GPU count.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct racks.
    pub fn rack_count(&self) -> usize {
        self.pods.values().map(BTreeMap::len).sum()
    }

    /// GPUs flattened in locality order: pods, then racks within the pod,
    /// then hosts within the rack, then GPUs within the host. Chaining this
    /// order into a ring visits every host exactly once and every rack
    /// contiguously — the greedy optimal ring of §4.3.
    pub fn locality_order(&self) -> Vec<GpuId> {
        self.pods
            .values()
            .flat_map(BTreeMap::values)
            .flat_map(BTreeMap::values)
            .flatten()
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn locality_lattice() {
        let t = presets::testbed();
        // testbed: H0,H1 rack0; H2,H3 rack1; GPUs 0,1 on H0 etc.
        assert_eq!(t.locality(GpuId(0), GpuId(1)), Locality::SameHost);
        assert_eq!(t.locality(GpuId(0), GpuId(2)), Locality::SameRack);
        assert_eq!(t.locality(GpuId(0), GpuId(4)), Locality::SamePod);
        assert!(Locality::SameHost < Locality::SameRack);
        assert!(Locality::SamePod < Locality::CrossPod);
    }

    #[test]
    fn map_groups_by_rack_and_host() {
        let t = presets::testbed();
        // GPUs from H0 (rack0), H2 and H3 (rack1), deliberately shuffled.
        let gpus = vec![GpuId(7), GpuId(0), GpuId(4), GpuId(1), GpuId(6)];
        let m = LocalityMap::build(&t, &gpus);
        assert_eq!(m.len(), 5);
        assert_eq!(m.rack_count(), 2);
        let order = m.locality_order();
        // H0's GPUs (0,1) contiguous, then H2 (4), then H3 (6,7).
        assert_eq!(
            order,
            vec![GpuId(0), GpuId(1), GpuId(4), GpuId(6), GpuId(7)]
        );
    }

    #[test]
    fn locality_order_is_rack_contiguous() {
        let t = presets::testbed();
        let gpus: Vec<GpuId> = (0..8).rev().map(GpuId).collect();
        let m = LocalityMap::build(&t, &gpus);
        let mut hosts: Vec<HostId> = m
            .locality_order()
            .into_iter()
            .map(|g| t.host_of_gpu(g))
            .collect();
        hosts.dedup();
        assert_eq!(hosts, vec![HostId(0), HostId(1), HostId(2), HostId(3)]);
        // rack boundaries: exactly one transition 0..1 at index 1->2
        let racks: Vec<_> = hosts.iter().map(|&h| t.rack_of(h)).collect();
        let transitions = racks.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1);
    }

    #[test]
    fn empty_map() {
        let t = presets::testbed();
        let m = LocalityMap::build(&t, &[]);
        assert!(m.is_empty());
        assert_eq!(m.locality_order(), Vec::<GpuId>::new());
    }
}
