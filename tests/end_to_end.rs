//! Cross-crate integration tests through the `mccs` facade: tenant
//! programs, the service, the controller policies and the simulated
//! substrates working together.

use mccs::collectives::op::all_reduce_sum;
use mccs::collectives::{algo_bandwidth, CollectiveOp};
use mccs::control::{optimize_cluster, PolicySpec};
use mccs::ipc::{AppId, CommunicatorId};
use mccs::service::{
    Cluster, ClusterConfig, LibraryConfig, RingChoice, Scenario, Tenant, TenantMode, Work,
};
use mccs::sim::{Bytes, Nanos};
use mccs::topology::{presets, GpuId};
use std::sync::Arc;

/// The testbed at seed 99 with `tenants` attached.
fn testbed(tenants: Vec<Tenant>) -> Cluster {
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(99),
        tenants,
        faults: None,
    }
    .build()
}

/// The controller's locality-aware reconfiguration rescues a tenant whose
/// VM order interleaves racks — end-to-end through the facade.
#[test]
fn controller_rescues_bad_vm_order() {
    // 8-GPU tenant in rack-interleaved VM order: the rank-order ring
    // crosses racks on every host hop (4 flows per direction over 2
    // paths — oversubscribed however ECMP hashes them), while the
    // locality ring needs one hop per direction.
    let vm_order = vec![
        GpuId(0),
        GpuId(1),
        GpuId(4),
        GpuId(5),
        GpuId(2),
        GpuId(3),
        GpuId(6),
        GpuId(7),
    ];
    let size = Bytes::mib(128);

    let run = |optimize: bool| -> f64 {
        let tenant = Tenant {
            name: "t".to_owned(),
            mode: TenantMode::Service(CommunicatorId(5)),
            gpus: vm_order.clone(),
            body: vec![Work::Collective {
                op: all_reduce_sum(),
                size,
            }],
            iters: 3,
            start: Nanos::from_millis(10),
        };
        let mut cluster = testbed(vec![tenant]);
        let app = AppId(0);
        cluster.run_until(Nanos::from_millis(2));
        if optimize {
            optimize_cluster(&mut cluster, &PolicySpec::mccs());
        }
        cluster.run_until_quiescent(Nanos::from_secs(60));
        let lats = cluster.mgmt().tenant_latencies(app);
        let mean = lats
            .iter()
            .map(|&(_, i, d)| (d - i).as_secs_f64())
            .sum::<f64>()
            / lats.len() as f64;
        algo_bandwidth(size, Nanos::from_secs_f64(mean)).as_gbytes_per_sec()
    };

    let unmanaged = run(false);
    let managed = run(true);
    assert!(
        managed > unmanaged * 1.2,
        "controller should rescue the interleaved ring: {unmanaged:.2} -> {managed:.2} GB/s"
    );
}

/// Service-mode and library-mode tenants coexist in one world and share
/// bandwidth: a service tenant and a library job on disjoint GPUs both
/// complete, and the shared links are split between them.
#[test]
fn service_and_library_tenants_coexist() {
    let svc = Tenant {
        name: "svc".to_owned(),
        gpus: vec![GpuId(0), GpuId(4)],
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size: Bytes::mib(64),
        }],
        iters: 3,
        start: Nanos::from_millis(5),
        mode: TenantMode::Service(CommunicatorId(1)),
    };
    let lib = Tenant {
        name: "lib".to_owned(),
        gpus: vec![GpuId(2), GpuId(6)],
        mode: TenantMode::Library(LibraryConfig {
            channels: 1,
            ring: RingChoice::RankOrder,
            ..Default::default()
        }),
        ..svc.clone()
    };
    let mut cluster = testbed(vec![svc, lib]);
    cluster.run_until_quiescent(Nanos::from_secs(60));
    assert_eq!(cluster.mgmt().tenant_latencies(AppId(0)).len(), 3);
    assert_eq!(cluster.mgmt().timeline(AppId(1)).len(), 3);
}

/// Memory management through the full stack: alloc via the shim, service
/// owns the handle, free returns the device memory.
#[test]
fn memory_roundtrip_through_the_service() {
    let tenant = Tenant {
        name: "mem".to_owned(),
        mode: TenantMode::Service(CommunicatorId(1)),
        gpus: vec![GpuId(0), GpuId(1)],
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size: Bytes::mib(8),
        }],
        iters: 1,
        start: Nanos::ZERO,
    };
    let mut cluster = testbed(vec![tenant]);
    cluster.run_until_quiescent(Nanos::from_secs(10));
    // Two ranks x two 8 MiB buffers remain allocated service-side.
    assert_eq!(cluster.world.devices.used_memory(GpuId(0)), Bytes::mib(16));
    assert_eq!(cluster.world.devices.used_memory(GpuId(1)), Bytes::mib(16));
}

/// Different ops through the same stack: AllGather, ReduceScatter and
/// Broadcast all complete with latencies ordered by their per-edge byte
/// loads.
#[test]
fn op_zoo_latency_ordering() {
    use mccs::collectives::ReduceKind;
    let size = Bytes::mib(128);
    let mut lat = Vec::new();
    for (i, op) in [
        CollectiveOp::AllReduce(ReduceKind::Sum),
        CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter(ReduceKind::Sum),
    ]
    .into_iter()
    .enumerate()
    {
        let tenant = Tenant {
            name: "ops".to_owned(),
            mode: TenantMode::Service(CommunicatorId(10 + i as u64)),
            gpus: vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)],
            body: vec![Work::Collective { op, size }],
            iters: 1,
            start: Nanos::from_millis(5),
        };
        let mut cluster = testbed(vec![tenant]);
        let app = AppId(0);
        cluster.run_until_quiescent(Nanos::from_secs(60));
        let l = cluster.mgmt().tenant_latencies(app);
        lat.push((d_minus_i(&l[0]), op));
    }
    assert!(
        lat[0].0 > lat[1].0,
        "AllReduce (2(n-1)/n) must outlast AllGather ((n-1)/n): {lat:?}"
    );
    let ratio = lat[1].0.as_secs_f64() / lat[2].0.as_secs_f64();
    assert!(
        (0.9..1.1).contains(&ratio),
        "AllGather and ReduceScatter move the same bytes: {lat:?}"
    );
}

fn d_minus_i(rec: &(u64, Nanos, Nanos)) -> Nanos {
    rec.2 - rec.1
}

/// Whole-stack determinism: two identical cluster runs produce identical
/// tenant-visible timings.
#[test]
fn facade_runs_are_deterministic() {
    let run = || {
        let tenant = Tenant {
            name: "det".to_owned(),
            mode: TenantMode::Service(CommunicatorId(2)),
            gpus: vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)],
            body: vec![Work::Collective {
                op: all_reduce_sum(),
                size: Bytes::mib(32),
            }],
            iters: 4,
            start: Nanos::from_millis(5),
        };
        let mut cluster = testbed(vec![tenant]);
        let app = AppId(0);
        cluster.run_until(Nanos::from_millis(2));
        optimize_cluster(&mut cluster, &PolicySpec::mccs());
        cluster.run_until_quiescent(Nanos::from_secs(60));
        cluster.mgmt().tenant_latencies(app)
    };
    assert_eq!(run(), run());
}
