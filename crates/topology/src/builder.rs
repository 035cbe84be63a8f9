//! Imperative topology construction.
//!
//! [`TopologyBuilder`] assigns dense ids in creation order, wires NIC
//! up/downlinks automatically and validates the finished graph. The presets
//! in [`crate::presets`] are thin layers over this builder; tests and
//! downstream users can construct arbitrary fabrics with it.

use crate::graph::{Endpoint, Gpu, Host, Link, Nic, Switch, SwitchRole, Topology};
use crate::ids::{GpuId, HostId, LinkId, NicId, PodId, RackId, SwitchId};
use mccs_sim::Bandwidth;

/// Builder for [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    hosts: Vec<Host>,
    gpus: Vec<Gpu>,
    nics: Vec<Nic>,
    switches: Vec<Switch>,
    links: Vec<Link>,
    rack_pods: Vec<PodId>,
    rack_hosts: Vec<Vec<HostId>>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a rack inside a pod; racks must be declared before hosts
    /// reference them. Returns the new rack id.
    pub fn add_rack(&mut self, pod: PodId) -> RackId {
        let id = RackId(self.rack_hosts.len() as u32);
        self.rack_pods.push(pod);
        self.rack_hosts.push(Vec::new());
        id
    }

    /// Add a switch.
    pub fn add_switch(&mut self, role: SwitchRole, rack: Option<RackId>) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(Switch { id, role, rack });
        id
    }

    /// Add a host with `gpu_count` GPUs, each affined to its own NIC of
    /// `nic_bandwidth`, with all NICs attached to `switch`. This mirrors
    /// the paper's testbed (one 50 Gbps virtual NIC per GPU) and its
    /// large-scale cluster (8 GPUs + 8 NICs per host).
    pub fn add_host(
        &mut self,
        rack: RackId,
        switch: SwitchId,
        gpu_count: usize,
        nic_bandwidth: Bandwidth,
    ) -> HostId {
        assert!(rack.index() < self.rack_hosts.len(), "undeclared rack");
        assert!(switch.index() < self.switches.len(), "undeclared switch");
        assert!(gpu_count > 0, "host needs at least one GPU");
        let host_id = HostId(self.hosts.len() as u32);
        let mut gpu_ids = Vec::with_capacity(gpu_count);
        let mut nic_ids = Vec::with_capacity(gpu_count);
        for local in 0..gpu_count {
            let nic_id = NicId(self.nics.len() as u32);
            let uplink = self.push_link(
                Endpoint::Nic(nic_id),
                Endpoint::Switch(switch),
                nic_bandwidth,
            );
            let downlink = self.push_link(
                Endpoint::Switch(switch),
                Endpoint::Nic(nic_id),
                nic_bandwidth,
            );
            self.nics.push(Nic {
                id: nic_id,
                host: host_id,
                local_index: local,
                switch,
                uplink,
                downlink,
                bandwidth: nic_bandwidth,
            });
            let gpu_id = GpuId(self.gpus.len() as u32);
            self.gpus.push(Gpu {
                id: gpu_id,
                host: host_id,
                local_index: local,
                nic: nic_id,
            });
            gpu_ids.push(gpu_id);
            nic_ids.push(nic_id);
        }
        self.hosts.push(Host {
            id: host_id,
            rack,
            gpus: gpu_ids,
            nics: nic_ids,
        });
        self.rack_hosts[rack.index()].push(host_id);
        host_id
    }

    /// Connect two switches with a bidirectional pair of links of the given
    /// rate. Returns `(a_to_b, b_to_a)` link ids.
    pub fn connect_switches(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        bandwidth: Bandwidth,
    ) -> (LinkId, LinkId) {
        assert_ne!(a, b, "self-loop link");
        let ab = self.push_link(Endpoint::Switch(a), Endpoint::Switch(b), bandwidth);
        let ba = self.push_link(Endpoint::Switch(b), Endpoint::Switch(a), bandwidth);
        (ab, ba)
    }

    /// Add a unidirectional switch-to-switch link (used by tests exercising
    /// asymmetric fabrics).
    pub fn connect_switches_oneway(
        &mut self,
        from: SwitchId,
        to: SwitchId,
        bandwidth: Bandwidth,
    ) -> LinkId {
        assert_ne!(from, to, "self-loop link");
        self.push_link(Endpoint::Switch(from), Endpoint::Switch(to), bandwidth)
    }

    fn push_link(&mut self, from: Endpoint, to: Endpoint, bandwidth: Bandwidth) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            from,
            to,
            bandwidth,
        });
        id
    }

    /// Finish: compute adjacency, validate, and freeze the topology.
    ///
    /// # Panics
    /// Panics when the structural invariants of [`Topology::validate`] do
    /// not hold — a builder bug, not a user error.
    pub fn build(self) -> Topology {
        let mut switch_out = vec![Vec::new(); self.switches.len()];
        let mut switch_in = vec![Vec::new(); self.switches.len()];
        for link in &self.links {
            if let Endpoint::Switch(sw) = link.from {
                switch_out[sw.index()].push(link.id);
                if let Endpoint::Switch(peer) = link.to {
                    switch_in[peer.index()].push(link.id);
                }
            }
        }
        let topo = Topology {
            hosts: self.hosts,
            gpus: self.gpus,
            nics: self.nics,
            switches: self.switches,
            links: self.links,
            rack_pods: self.rack_pods,
            rack_hosts: self.rack_hosts,
            switch_out,
            switch_in,
            route_memo: Default::default(),
        };
        if let Err(e) = topo.validate() {
            panic!("TopologyBuilder produced an invalid topology: {e}");
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_host_topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let pod = PodId(0);
        let rack = b.add_rack(pod);
        let leaf = b.add_switch(SwitchRole::Leaf, Some(rack));
        b.add_host(rack, leaf, 2, Bandwidth::gbps(50.0));
        b.add_host(rack, leaf, 2, Bandwidth::gbps(50.0));
        b.build()
    }

    #[test]
    fn builds_and_validates() {
        let t = two_host_topo();
        assert_eq!(t.hosts().len(), 2);
        assert_eq!(t.gpus().len(), 4);
        assert_eq!(t.nics().len(), 4);
        // 4 NICs * 2 links each
        assert_eq!(t.links().len(), 8);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn gpu_nic_affinity() {
        let t = two_host_topo();
        for gpu in t.gpus() {
            let nic = t.nic(gpu.nic);
            assert_eq!(nic.host, gpu.host);
            assert_eq!(nic.local_index, gpu.local_index);
        }
    }

    #[test]
    fn rack_membership() {
        let t = two_host_topo();
        assert_eq!(t.hosts_in_rack(RackId(0)).len(), 2);
        assert!(t.same_rack(HostId(0), HostId(1)));
        assert!(t.same_host(GpuId(0), GpuId(1)));
        assert!(!t.same_host(GpuId(1), GpuId(2)));
    }

    #[test]
    fn switch_links_bidirectional() {
        let mut b = TopologyBuilder::new();
        let pod = PodId(0);
        let r = b.add_rack(pod);
        let s1 = b.add_switch(SwitchRole::Leaf, Some(r));
        let s2 = b.add_switch(SwitchRole::Spine, None);
        let (ab, ba) = b.connect_switches(s1, s2, Bandwidth::gbps(100.0));
        b.add_host(r, s1, 1, Bandwidth::gbps(100.0));
        let t = b.build();
        assert_eq!(t.link(ab).from, Endpoint::Switch(s1));
        assert_eq!(t.link(ba).to, Endpoint::Switch(s1));
        assert_eq!(t.switch_out_links(s1).len(), 2); // to spine + host downlink
    }

    #[test]
    #[should_panic(expected = "undeclared rack")]
    fn rejects_unknown_rack() {
        let mut b = TopologyBuilder::new();
        let s = b.add_switch(SwitchRole::Leaf, None);
        b.add_host(RackId(0), s, 1, Bandwidth::gbps(10.0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new();
        let s = b.add_switch(SwitchRole::Generic, None);
        b.connect_switches(s, s, Bandwidth::gbps(1.0));
    }
}
