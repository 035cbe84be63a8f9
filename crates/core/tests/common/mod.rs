//! Worlds shared by the core integration suites. Each suite compiles this
//! module on its own and uses a subset of it.
#![allow(dead_code)]

use mccs_collectives::op::all_reduce_sum;
use mccs_core::{ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs_ipc::CommunicatorId;
use mccs_sim::{Bytes, Nanos};
use mccs_topology::graph::Endpoint;
use mccs_topology::{presets, GpuId, LinkId, SwitchId};
use std::sync::Arc;

/// The four-host tenant: one GPU per testbed host.
pub const COMM: CommunicatorId = CommunicatorId(1);
pub const GPUS: [GpuId; 4] = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
/// A second four-host tenant on the other GPU of every host.
pub const COMM_B: CommunicatorId = CommunicatorId(2);
pub const GPUS_B: [GpuId; 4] = [GpuId(1), GpuId(3), GpuId(5), GpuId(7)];

/// The testbed's first spine (`spine_leaf` numbers its spines first).
/// Its links, `topo.switch_links(SPINE0)`, are one correlated outage or
/// brownout domain, as when a spine linecard overheats.
pub const SPINE0: SwitchId = SwitchId(0);

/// The testbed at `seed` with `tenants` and no fault plan.
pub fn testbed(seed: u64, tenants: Vec<Tenant>) -> Scenario {
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(seed),
        tenants,
        faults: None,
    }
}

/// `iters` AllReduces of `size` over `gpus`, from the first instant.
pub fn allreduce(
    name: &str,
    comm: CommunicatorId,
    gpus: &[GpuId],
    size: Bytes,
    iters: usize,
) -> Tenant {
    Tenant {
        name: name.to_owned(),
        mode: TenantMode::Service(comm),
        gpus: gpus.to_vec(),
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size,
        }],
        iters,
        start: Nanos::ZERO,
    }
}

/// The fault suites' world: one four-host AllReduce tenant on `COMM`.
pub fn four_host(name: &str, seed: u64, size: Bytes, iters: usize) -> Scenario {
    testbed(seed, vec![allreduce(name, COMM, &GPUS, size, iters)])
}

/// Two interleaved four-host AllReduce tenants, "ta" on `GPUS` and "tb"
/// on `GPUS_B`.
pub fn two_tenants(size: Bytes, iters: usize) -> Vec<Tenant> {
    vec![
        allreduce("ta", COMM, &GPUS, size, iters),
        allreduce("tb", COMM_B, &GPUS_B, size, iters),
    ]
}

/// Every switch-to-switch link of the fabric.
pub fn spine_links(s: &Scenario) -> Vec<LinkId> {
    s.topo
        .links()
        .iter()
        .filter(|l| matches!(l.from, Endpoint::Switch(_)) && matches!(l.to, Endpoint::Switch(_)))
        .map(|l| l.id)
        .collect()
}

/// The switch-to-switch link carrying the most traffic at `probe_at` in
/// a fault-free run of `s` — by determinism, the same link a faulted run
/// of `s` crosses there.
pub fn hottest_spine_at(s: &Scenario, probe_at: Nanos) -> LinkId {
    let mut probe = s.build();
    probe.run_until(probe_at);
    let spines = spine_links(s);
    probe
        .mgmt()
        .link_utilization()
        .into_iter()
        .find(|(l, _)| spines.contains(l))
        .map(|(l, _)| l)
        .expect("cross-rack traffic crosses a spine at the probe instant")
}
