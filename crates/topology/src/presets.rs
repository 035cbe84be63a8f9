//! The paper's concrete topologies.
//!
//! * [`testbed`] — the 4-host evaluation testbed of Figure 5a: two emulated
//!   racks, two spines, 50 Gbps inter-switch links, two 50 Gbps virtual NICs
//!   per host (one per GPU), 2× oversubscription.
//! * [`spine_leaf`] — the parameterized Clos used for the §6.5 simulations
//!   (16 spines × 24 leaves × 4 hosts × 8 GPUs = 768 GPUs, 200 Gbps links).
//! * [`switch_ring`] — the 4-switch ring of Figure 7's reconfiguration demo.
//! * [`single_switch`] — a flat network for unit tests.

use crate::builder::TopologyBuilder;
use crate::graph::{SwitchRole, Topology};
use crate::ids::PodId;
use mccs_sim::Bandwidth;

/// Parameters for a two-tier spine-leaf (Clos) fabric.
#[derive(Clone, Debug)]
pub struct SpineLeafConfig {
    /// Number of spine switches; every leaf connects to every spine.
    pub spines: usize,
    /// Number of leaf (top-of-rack) switches; one rack per leaf.
    pub leaves: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// GPUs per host; each GPU gets its own NIC of `nic_bandwidth`.
    pub gpus_per_host: usize,
    /// Per-NIC line rate.
    pub nic_bandwidth: Bandwidth,
    /// Per leaf-spine link rate.
    pub leaf_spine_bandwidth: Bandwidth,
}

impl SpineLeafConfig {
    /// The §6.5 large-scale cluster: 16 spines, 24 leaves, 4 hosts/leaf,
    /// 8 GPUs + 8 NICs per host, all links 200 Gbps (oversubscription 2:
    /// 4×8×200G up from hosts vs 16×200G to spines per leaf).
    pub fn paper_large_scale() -> Self {
        SpineLeafConfig {
            spines: 16,
            leaves: 24,
            hosts_per_leaf: 4,
            gpus_per_host: 8,
            nic_bandwidth: Bandwidth::gbps(200.0),
            leaf_spine_bandwidth: Bandwidth::gbps(200.0),
        }
    }

    /// Oversubscription ratio: host uplink capacity per leaf over
    /// leaf-to-spine capacity.
    pub fn oversubscription(&self) -> f64 {
        let up =
            self.hosts_per_leaf as f64 * self.gpus_per_host as f64 * self.nic_bandwidth.as_bps();
        let down = self.spines as f64 * self.leaf_spine_bandwidth.as_bps();
        up / down
    }
}

/// Build a two-tier spine-leaf fabric (single pod). Spine `i` is
/// `SwitchId(i)` and the leaf of rack `j` is `SwitchId(spines + j)`.
pub fn spine_leaf(cfg: &SpineLeafConfig) -> Topology {
    assert!(cfg.spines > 0 && cfg.leaves > 0, "degenerate fabric");
    let mut b = TopologyBuilder::new();
    let pod = PodId(0);
    let spines: Vec<_> = (0..cfg.spines)
        .map(|_| b.add_switch(SwitchRole::Spine, None))
        .collect();
    for _ in 0..cfg.leaves {
        let rack = b.add_rack(pod);
        let leaf = b.add_switch(SwitchRole::Leaf, Some(rack));
        for &spine in &spines {
            b.connect_switches(leaf, spine, cfg.leaf_spine_bandwidth);
        }
        for _ in 0..cfg.hosts_per_leaf {
            b.add_host(rack, leaf, cfg.gpus_per_host, cfg.nic_bandwidth);
        }
    }
    b.build()
}

/// The paper's testbed (Fig. 5a): 4 hosts, 2 GPUs each, one 50 Gbps virtual
/// NIC per GPU; 2 racks of 2 hosts; 2 leaves × 2 spines with 50 Gbps
/// inter-switch links (oversubscription 2).
///
/// Host numbering is physical: H0, H1 in rack 0; H2, H3 in rack 1.
/// (Tenant-visible "VM order" interleaving racks — which makes NCCL's
/// rank-order ring cross racks — is applied by the experiment harness, not
/// baked into the topology.)
pub fn testbed() -> Topology {
    spine_leaf(&SpineLeafConfig {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 2,
        gpus_per_host: 2,
        nic_bandwidth: Bandwidth::gbps(50.0),
        leaf_spine_bandwidth: Bandwidth::gbps(50.0),
    })
}

/// The Figure 7 scenario: `n` switches connected in a ring, one host per
/// switch. Collective rings over the hosts can run "clockwise" (following
/// increasing switch index) or "counterclockwise"; a background flow on one
/// clockwise inter-switch link only degrades clockwise collectives.
pub fn switch_ring(
    n: usize,
    gpus_per_host: usize,
    nic_bandwidth: Bandwidth,
    inter_switch_bandwidth: Bandwidth,
) -> Topology {
    assert!(n >= 3, "ring needs at least 3 switches");
    let mut b = TopologyBuilder::new();
    let racks: Vec<_> = (0..n).map(|_| b.add_rack(PodId(0))).collect();
    let switches: Vec<_> = (0..n)
        .map(|i| b.add_switch(SwitchRole::Generic, Some(racks[i])))
        .collect();
    for i in 0..n {
        b.connect_switches(switches[i], switches[(i + 1) % n], inter_switch_bandwidth);
    }
    for i in 0..n {
        b.add_host(racks[i], switches[i], gpus_per_host, nic_bandwidth);
    }
    b.build()
}

/// A flat single-switch network: `hosts` hosts of `gpus_per_host` GPUs.
pub fn single_switch(hosts: usize, gpus_per_host: usize, nic_bandwidth: Bandwidth) -> Topology {
    let mut b = TopologyBuilder::new();
    let rack = b.add_rack(PodId(0));
    let sw = b.add_switch(SwitchRole::Leaf, Some(rack));
    for _ in 0..hosts {
        b.add_host(rack, sw, gpus_per_host, nic_bandwidth);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NicId;

    #[test]
    fn testbed_shape() {
        let t = testbed();
        assert_eq!(t.hosts().len(), 4);
        assert_eq!(t.gpus().len(), 8);
        assert_eq!(t.nics().len(), 8);
        assert_eq!(t.rack_count(), 2);
        assert_eq!(t.switches().len(), 4); // 2 leaves + 2 spines
        assert!(t.validate().is_ok());
    }

    #[test]
    fn testbed_cross_rack_diversity_is_two() {
        let t = testbed();
        // host0 nic0 -> host2 nic0 crosses racks: one path per spine.
        let h0nic = t.host(crate::ids::HostId(0)).nics[0];
        let h2nic = t.host(crate::ids::HostId(2)).nics[0];
        assert_eq!(t.path_diversity(h0nic, h2nic), 2);
        // same-rack pairs ride the shared leaf: single path.
        let h1nic = t.host(crate::ids::HostId(1)).nics[0];
        assert_eq!(t.path_diversity(h0nic, h1nic), 1);
    }

    #[test]
    fn testbed_oversubscription_is_two() {
        let cfg = SpineLeafConfig {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 2,
            gpus_per_host: 2,
            nic_bandwidth: Bandwidth::gbps(50.0),
            leaf_spine_bandwidth: Bandwidth::gbps(50.0),
        };
        assert!((cfg.oversubscription() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_large_scale_shape() {
        let cfg = SpineLeafConfig::paper_large_scale();
        assert!((cfg.oversubscription() - 2.0).abs() < 1e-12);
        let t = spine_leaf(&cfg);
        assert_eq!(t.gpus().len(), 768);
        assert_eq!(t.hosts().len(), 96);
        assert_eq!(t.rack_count(), 24);
        assert_eq!(t.switches().len(), 40);
        // cross-rack diversity = number of spines
        let a = t.host(crate::ids::HostId(0)).nics[0];
        let b = t.host(crate::ids::HostId(4)).nics[0];
        assert_eq!(t.path_diversity(a, b), 16);
    }

    #[test]
    fn switch_ring_shape() {
        let t = switch_ring(4, 2, Bandwidth::gbps(50.0), Bandwidth::gbps(100.0));
        assert_eq!(t.hosts().len(), 4);
        assert_eq!(t.switches().len(), 4);
        // adjacent hosts: unique 1-switch-hop path
        assert_eq!(t.path_diversity(NicId(0), NicId(2)), 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn single_switch_shape() {
        let t = single_switch(3, 4, Bandwidth::gbps(100.0));
        assert_eq!(t.gpus().len(), 12);
        assert_eq!(t.rack_count(), 1);
        assert_eq!(t.path_diversity(NicId(0), NicId(4)), 1);
    }
}
