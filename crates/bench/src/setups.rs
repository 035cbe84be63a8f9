//! Testbed placements.
//!
//! The testbed (`mccs_topology::presets::testbed`) has hosts H0, H1 in
//! rack 0 and H2, H3 in rack 1; host `h` owns GPUs `2h` and `2h+1`.
//!
//! Tenants receive GPUs in **VM order** — the cloud's instance
//! enumeration, which interleaves racks (H0, H2, H1, H3): exactly the
//! situation of §2.2 where "randomly assigned ranks ... lead the ring to
//! cross racks back and forth". A rank-order (NCCL) ring over VM order
//! crosses racks on every hop; the provider's locality-aware ring crosses
//! twice.

use mccs_collectives::op::all_reduce_sum;
use mccs_core::{ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs_ipc::CommunicatorId;
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{presets, GpuId, SwitchId};
use std::sync::Arc;

/// The testbed's first spine (`spine_leaf` numbers its spines first).
/// Its links, `topo.switch_links(SPINE0)`, are the fault battery's
/// outage and brownout domain.
pub const SPINE0: SwitchId = SwitchId(0);

/// The fault battery's world: two four-host AllReduce tenants on the
/// testbed at `seed`, "ta" (communicator 1) on the first GPU of every
/// host and "tb" (communicator 2) on the second.
pub fn two_tenant_testbed(seed: u64, size: Bytes, iters: usize) -> Scenario {
    let tenant = |name: &str, comm: u64, slot: u32| Tenant {
        name: name.to_owned(),
        mode: TenantMode::Service(CommunicatorId(comm)),
        gpus: (0..4).map(|host| GpuId(2 * host + slot)).collect(),
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size,
        }],
        iters,
        start: Nanos::ZERO,
    };
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(seed),
        tenants: vec![tenant("ta", 1, 0), tenant("tb", 2, 1)],
        faults: None,
    }
}

/// VM-order GPU list for a 4-GPU tenant (one GPU per host):
/// H0.g0, H2.g0, H1.g0, H3.g0.
pub fn vm_order_4gpu() -> Vec<GpuId> {
    vec![GpuId(0), GpuId(4), GpuId(2), GpuId(6)]
}

/// VM-order GPU list for an 8-GPU tenant (both GPUs of every host):
/// H0, H2, H1, H3.
pub fn vm_order_8gpu() -> Vec<GpuId> {
    vec![
        GpuId(0),
        GpuId(1),
        GpuId(4),
        GpuId(5),
        GpuId(2),
        GpuId(3),
        GpuId(6),
        GpuId(7),
    ]
}

/// One tenant's name and GPU assignment (in its VM order).
#[derive(Clone, Debug)]
pub struct AppPlacement {
    /// Display name ("A", "B", "C").
    pub name: &'static str,
    /// GPUs in the tenant's rank order.
    pub gpus: Vec<GpuId>,
}

/// The four multi-application setups of Figure 5b (reconstructed; see
/// DESIGN.md §4). Host/GPU map: H0{0,1} H1{2,3} | H2{4,5} H3{6,7}.
///
/// * **S1** — two 4-GPU tenants, each on two cross-rack hosts with both
///   GPUs (2 NICs/host each).
/// * **S2** — three tenants: A and B with 1 GPU on each of two cross-rack
///   hosts; C with 1 GPU on every host.
/// * **S3** — A with both GPUs of H0 and H2 (2 NICs/host); B and C with
///   1 GPU on each of H1 and H3 (1 NIC/host) — the asymmetric setup whose
///   fair share is 2:1:1, reused for the QoS study (§6.4).
/// * **S4** — two tenants, each with one GPU on every host.
pub fn multi_app_setup(setup: usize) -> Vec<AppPlacement> {
    let g = GpuId;
    match setup {
        1 => vec![
            AppPlacement {
                name: "A",
                gpus: vec![g(0), g(1), g(4), g(5)], // H0 + H2
            },
            AppPlacement {
                name: "B",
                gpus: vec![g(2), g(3), g(6), g(7)], // H1 + H3
            },
        ],
        2 => vec![
            AppPlacement {
                name: "A",
                gpus: vec![g(0), g(4)], // H0 + H2
            },
            AppPlacement {
                name: "B",
                gpus: vec![g(2), g(6)], // H1 + H3
            },
            AppPlacement {
                name: "C",
                gpus: vec![g(1), g(5), g(3), g(7)], // all hosts, VM order
            },
        ],
        3 => vec![
            AppPlacement {
                name: "A",
                gpus: vec![g(0), g(1), g(4), g(5)], // H0 + H2, 2 NICs/host
            },
            AppPlacement {
                name: "B",
                gpus: vec![g(2), g(6)], // H1 + H3, 1 NIC/host
            },
            AppPlacement {
                name: "C",
                gpus: vec![g(3), g(7)], // H1 + H3, 1 NIC/host
            },
        ],
        4 => vec![
            AppPlacement {
                name: "A",
                gpus: vec![g(0), g(4), g(2), g(6)], // every host, VM order
            },
            AppPlacement {
                name: "B",
                gpus: vec![g(1), g(5), g(3), g(7)], // every host, VM order
            },
        ],
        other => panic!("no setup {other}; Figure 5b defines 1-4"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_topology::presets;
    use std::collections::BTreeSet;

    #[test]
    fn setups_partition_the_testbed() {
        for s in 1..=4 {
            let apps = multi_app_setup(s);
            let all: Vec<GpuId> = apps.iter().flat_map(|a| a.gpus.clone()).collect();
            let set: BTreeSet<GpuId> = all.iter().copied().collect();
            assert_eq!(set.len(), 8, "setup {s} must use all 8 GPUs once");
        }
    }

    #[test]
    fn vm_orders_interleave_racks() {
        let topo = presets::testbed();
        let hosts: Vec<_> = vm_order_4gpu()
            .iter()
            .map(|&gp| topo.rack_of(topo.host_of_gpu(gp)))
            .collect();
        // alternating racks
        assert!(hosts.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn setup3_has_asymmetric_nic_counts() {
        let topo = presets::testbed();
        let apps = multi_app_setup(3);
        let nics_per_host = |gpus: &[GpuId]| -> usize {
            use std::collections::BTreeMap;
            let mut m: BTreeMap<_, usize> = BTreeMap::new();
            for &gp in gpus {
                *m.entry(topo.host_of_gpu(gp)).or_default() += 1;
            }
            *m.values().max().expect("nonempty")
        };
        assert_eq!(nics_per_host(&apps[0].gpus), 2);
        assert_eq!(nics_per_host(&apps[1].gpus), 1);
        assert_eq!(nics_per_host(&apps[2].gpus), 1);
    }

    #[test]
    #[should_panic(expected = "no setup")]
    fn unknown_setup_rejected() {
        multi_app_setup(9);
    }
}
