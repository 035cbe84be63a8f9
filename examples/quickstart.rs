//! Quickstart: run an AllReduce through the MCCS service on the paper's
//! 4-host testbed and print its algorithm bandwidth.
//!
//! The tenant side is NCCL-shaped: allocate buffers (redirected to the
//! service), init a communicator, issue collectives. Everything below the
//! API — ring construction, routing, transport — belongs to the provider.
//!
//! Run: `cargo run --release --example quickstart`

use mccs::collectives::op::all_reduce_sum;
use mccs::collectives::{algo_bandwidth, bus_bandwidth};
use mccs::ipc::{AppId, CommunicatorId};
use mccs::service::{ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs::sim::{Bytes, Nanos};
use mccs::topology::{presets, GpuId};
use std::sync::Arc;

fn main() {
    // The tenant's side: four ranks, one per host, each running the same
    // NCCL-shaped program — allocate two buffers, init the communicator,
    // then issue `iters` AllReduces back to back.
    let size = Bytes::mib(64);
    let tenant = Tenant {
        name: "quickstart".to_owned(),
        mode: TenantMode::Service(CommunicatorId(1)),
        gpus: vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)],
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size,
        }],
        iters: 5,
        start: Nanos::ZERO,
    };
    let ranks = tenant.gpus.len();

    // The provider's side: the physical testbed (2 racks x 2 hosts x
    // 2 GPUs, 50 Gbps NICs, 2x oversubscription) and the service.
    let scenario = Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::default(),
        tenants: vec![tenant],
        faults: None,
    };
    let mut cluster = scenario.build();
    let app = AppId(0);

    // Run to completion in virtual time.
    let end = cluster.run_until_quiescent(Nanos::from_secs(30));
    println!("simulation finished at t={end}");

    // The management plane saw every collective.
    println!("\nper-collective results (64 MiB AllReduce over 4 ranks):");
    for rec in cluster.mgmt().timeline(app) {
        let lat = rec.latency().expect("completed");
        println!(
            "  seq {}  latency {:>9}  algbw {:.2} GB/s  busbw {:.2} GB/s",
            rec.seq,
            format!("{lat}"),
            algo_bandwidth(size, lat).as_gbytes_per_sec(),
            bus_bandwidth(rec.op, ranks, size, lat).as_gbytes_per_sec(),
        );
    }
    println!(
        "\nline-rate bound: 4.17 GB/s algorithm bandwidth \
         (50 Gbps NIC / the 2(n-1)/n AllReduce factor)"
    );
}
