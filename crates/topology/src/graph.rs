//! The cluster graph.
//!
//! A [`Topology`] is an immutable directed graph whose endpoints are NICs
//! and switches. Hosts, GPUs, racks and pods are bookkeeping layered on
//! top: a host holds GPUs and NICs; GPU `i` of a host is affined to NIC `i`
//! (the paper's testbed dedicates one 50 Gbps virtual NIC per GPU); a rack
//! groups hosts; a pod groups racks.
//!
//! Intra-host transfers (GPU-to-GPU over shared memory / NVLink-class
//! channels) do not traverse this graph — they are modeled by
//! `mccs-device`. The graph starts at the NIC.

use crate::ids::{GpuId, HostId, LinkId, NicId, PodId, RackId, SwitchId};
use mccs_sim::Bandwidth;

/// Where a link endpoint attaches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A host NIC.
    Nic(NicId),
    /// A switch port.
    Switch(SwitchId),
}

/// A directed, capacity-labelled link.
#[derive(Clone, Debug)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting endpoint.
    pub from: Endpoint,
    /// Receiving endpoint.
    pub to: Endpoint,
    /// Line rate.
    pub bandwidth: Bandwidth,
}

/// The role of a switch in the fabric (informational; routing is generic).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchRole {
    /// Top-of-rack / leaf switch serving one rack.
    Leaf,
    /// Spine / aggregation switch.
    Spine,
    /// Anything else (e.g. the ring switches of Figure 7).
    Generic,
}

/// A switch.
#[derive(Clone, Debug)]
pub struct Switch {
    /// This switch's id.
    pub id: SwitchId,
    /// Its role in the fabric.
    pub role: SwitchRole,
    /// The rack it serves, for leaf switches.
    pub rack: Option<RackId>,
}

/// A GPU.
#[derive(Clone, Debug)]
pub struct Gpu {
    /// This GPU's global id.
    pub id: GpuId,
    /// Owning host.
    pub host: HostId,
    /// Index within the host (0-based).
    pub local_index: usize,
    /// The NIC this GPU's inter-host traffic uses.
    pub nic: NicId,
}

/// A NIC (physical or SR-IOV virtual function).
#[derive(Clone, Debug)]
pub struct Nic {
    /// This NIC's global id.
    pub id: NicId,
    /// Owning host.
    pub host: HostId,
    /// Index within the host (0-based).
    pub local_index: usize,
    /// The switch it attaches to.
    pub switch: SwitchId,
    /// Uplink (NIC -> switch) link.
    pub uplink: LinkId,
    /// Downlink (switch -> NIC) link.
    pub downlink: LinkId,
    /// Line rate.
    pub bandwidth: Bandwidth,
}

/// A host (server).
#[derive(Clone, Debug)]
pub struct Host {
    /// This host's id.
    pub id: HostId,
    /// The rack it sits in.
    pub rack: RackId,
    /// Its GPUs, in local-index order.
    pub gpus: Vec<GpuId>,
    /// Its NICs, in local-index order.
    pub nics: Vec<NicId>,
}

/// The immutable cluster graph. Build with [`crate::TopologyBuilder`] or a
/// preset from [`crate::presets`].
#[derive(Debug)]
pub struct Topology {
    pub(crate) hosts: Vec<Host>,
    pub(crate) gpus: Vec<Gpu>,
    pub(crate) nics: Vec<Nic>,
    pub(crate) switches: Vec<Switch>,
    pub(crate) links: Vec<Link>,
    /// rack -> pod mapping.
    pub(crate) rack_pods: Vec<PodId>,
    /// rack -> hosts.
    pub(crate) rack_hosts: Vec<Vec<HostId>>,
    /// Outgoing switch-to-switch / switch-to-nic adjacency:
    /// for each switch, the links leaving it.
    pub(crate) switch_out: Vec<Vec<LinkId>>,
    /// Incoming switch-to-switch adjacency: for each switch, the links
    /// arriving from another switch, in id order (NIC uplinks are not
    /// listed — no switch path enters through one).
    pub(crate) switch_in: Vec<Vec<LinkId>>,
    /// Memoized switch-level path segments (see `routing`).
    pub(crate) route_memo: crate::routing::RouteMemo,
}

impl Topology {
    // ---- entity accessors ------------------------------------------------

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// All GPUs.
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// All NICs.
    pub fn nics(&self) -> &[Nic] {
        &self.nics
    }

    /// All switches.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// Look up a GPU.
    pub fn gpu(&self, id: GpuId) -> &Gpu {
        &self.gpus[id.index()]
    }

    /// Look up a NIC.
    pub fn nic(&self, id: NicId) -> &Nic {
        &self.nics[id.index()]
    }

    /// Look up a switch.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.index()]
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    // ---- locality --------------------------------------------------------

    /// The rack a host sits in.
    pub fn rack_of(&self, host: HostId) -> RackId {
        self.host(host).rack
    }

    /// The pod a rack sits in.
    pub fn pod_of(&self, rack: RackId) -> PodId {
        self.rack_pods[rack.index()]
    }

    /// The pod a host sits in.
    pub fn pod_of_host(&self, host: HostId) -> PodId {
        self.pod_of(self.rack_of(host))
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.rack_hosts.len()
    }

    /// Hosts in a rack, in id order.
    pub fn hosts_in_rack(&self, rack: RackId) -> &[HostId] {
        &self.rack_hosts[rack.index()]
    }

    /// The host a GPU belongs to.
    pub fn host_of_gpu(&self, gpu: GpuId) -> HostId {
        self.gpu(gpu).host
    }

    /// The NIC affined to a GPU.
    pub fn nic_of_gpu(&self, gpu: GpuId) -> NicId {
        self.gpu(gpu).nic
    }

    /// Whether two GPUs share a host (their traffic never enters the fabric).
    pub fn same_host(&self, a: GpuId, b: GpuId) -> bool {
        self.gpu(a).host == self.gpu(b).host
    }

    /// Whether two hosts share a rack.
    pub fn same_rack(&self, a: HostId, b: HostId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    // ---- graph structure ---------------------------------------------------

    /// Links leaving a switch.
    pub fn switch_out_links(&self, sw: SwitchId) -> &[LinkId] {
        &self.switch_out[sw.index()]
    }

    /// Links arriving at a switch from another switch.
    pub fn switch_in_links(&self, sw: SwitchId) -> &[LinkId] {
        &self.switch_in[sw.index()]
    }

    /// Every link into or out of `sw`, in ascending id order: one
    /// switch's failure or brownout domain.
    pub fn switch_links(&self, sw: SwitchId) -> Vec<LinkId> {
        let at = Endpoint::Switch(sw);
        self.links
            .iter()
            .filter(|l| l.from == at || l.to == at)
            .map(|l| l.id)
            .collect()
    }

    /// Total GPU count.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Structural sanity checks; run by the builder and available to tests.
    ///
    /// Verifies: id/index density, NIC up/downlink endpoints, GPU-NIC
    /// affinity pointing at the same host, rack membership consistency,
    /// switch adjacency covering exactly the switch-sourced links, and the
    /// in-link index covering exactly the switch-to-switch links.
    pub fn validate(&self) -> Result<(), String> {
        for (i, h) in self.hosts.iter().enumerate() {
            if h.id.index() != i {
                return Err(format!("host id {} at index {i}", h.id));
            }
            if !self.rack_hosts[h.rack.index()].contains(&h.id) {
                return Err(format!("{} missing from its rack list", h.id));
            }
        }
        for (i, g) in self.gpus.iter().enumerate() {
            if g.id.index() != i {
                return Err(format!("gpu id {} at index {i}", g.id));
            }
            if self.nic(g.nic).host != g.host {
                return Err(format!("{} affined to NIC on another host", g.id));
            }
        }
        for (i, n) in self.nics.iter().enumerate() {
            if n.id.index() != i {
                return Err(format!("nic id {} at index {i}", n.id));
            }
            let up = self.link(n.uplink);
            if up.from != Endpoint::Nic(n.id) || up.to != Endpoint::Switch(n.switch) {
                return Err(format!("{} uplink endpoints wrong", n.id));
            }
            let down = self.link(n.downlink);
            if down.from != Endpoint::Switch(n.switch) || down.to != Endpoint::Nic(n.id) {
                return Err(format!("{} downlink endpoints wrong", n.id));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.id.index() != i {
                return Err(format!("link id {} at index {i}", l.id));
            }
            if l.bandwidth.as_bps() <= 0.0 {
                return Err(format!("{} has zero bandwidth", l.id));
            }
        }
        for (i, out) in self.switch_out.iter().enumerate() {
            for &l in out {
                if self.link(l).from != Endpoint::Switch(SwitchId(i as u32)) {
                    return Err(format!("adjacency of sw{i} lists foreign {l}"));
                }
            }
        }
        let switch_sourced = self
            .links
            .iter()
            .filter(|l| matches!(l.from, Endpoint::Switch(_)))
            .count();
        let adj_total: usize = self.switch_out.iter().map(Vec::len).sum();
        if switch_sourced != adj_total {
            return Err("switch adjacency incomplete".into());
        }
        for (i, inc) in self.switch_in.iter().enumerate() {
            for &l in inc {
                let link = self.link(l);
                if link.to != Endpoint::Switch(SwitchId(i as u32))
                    || !matches!(link.from, Endpoint::Switch(_))
                {
                    return Err(format!("in-link index of sw{i} lists foreign {l}"));
                }
            }
        }
        let switch_to_switch = self
            .links
            .iter()
            .filter(|l| matches!((l.from, l.to), (Endpoint::Switch(_), Endpoint::Switch(_))))
            .count();
        let in_total: usize = self.switch_in.iter().map(Vec::len).sum();
        if switch_to_switch != in_total {
            return Err("switch in-link index incomplete".into());
        }
        Ok(())
    }
}
