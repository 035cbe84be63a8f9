//! Dynamic reconfiguration: change a running tenant's ring at runtime —
//! the paper's Figure 4 protocol in action.
//!
//! An 8-GPU AllReduce job runs a clockwise ring over four switches wired
//! in a ring. A 75 Gbps background flow appears on one clockwise link;
//! the provider transparently reverses the ring (sequence-numbered
//! barrier over the control ring, drain, reconnect) and bandwidth
//! recovers. The tenant never stops issuing collectives.
//!
//! Run: `cargo run --release --example dynamic_reconfiguration`

use mccs::collectives::op::all_reduce_sum;
use mccs::collectives::{algo_bandwidth, RingOrder};
use mccs::ipc::{AppId, CommunicatorId};
use mccs::netsim::FlowSpec;
use mccs::service::config::RouteMap;
use mccs::service::{Cluster, ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs::sim::{Bandwidth, Bytes, Nanos};
use mccs::topology::{GpuId, NicId, PodId, SwitchRole, TopologyBuilder};
use std::sync::Arc;

/// Four switches in a ring; per switch one training host (2 GPUs, 2x50G
/// NICs) and one traffic host (100G NIC) for the background flow.
fn ring_with_traffic_hosts() -> mccs::topology::Topology {
    let mut b = TopologyBuilder::new();
    let racks: Vec<_> = (0..4).map(|_| b.add_rack(PodId(0))).collect();
    let switches: Vec<_> = (0..4)
        .map(|i| b.add_switch(SwitchRole::Generic, Some(racks[i])))
        .collect();
    for i in 0..4 {
        b.connect_switches(switches[i], switches[(i + 1) % 4], Bandwidth::gbps(100.0));
    }
    for i in 0..4 {
        b.add_host(racks[i], switches[i], 2, Bandwidth::gbps(50.0)); // training
    }
    for i in 0..4 {
        b.add_host(racks[i], switches[i], 1, Bandwidth::gbps(100.0)); // traffic
    }
    b.build()
}

fn main() {
    let comm = CommunicatorId(1);
    let size = Bytes::mib(64);
    let ar8 = Tenant {
        name: "ar8".to_owned(),
        mode: TenantMode::Service(comm),
        gpus: (0..8).map(GpuId).collect(),
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size,
        }],
        iters: 300,
        start: Nanos::ZERO,
    };
    let mut cluster = Scenario {
        topo: Arc::new(ring_with_traffic_hosts()),
        config: ClusterConfig::default(),
        tenants: vec![ar8],
        faults: None,
    }
    .build();
    let app = AppId(0);

    let report = |cluster: &mut Cluster, label: &str, from: Nanos, to: Nanos| {
        let samples: Vec<f64> = cluster
            .mgmt()
            .timeline(app)
            .iter()
            .filter(|r| {
                let t = r.completed_at.expect("complete");
                t >= from && t < to
            })
            .map(|r| algo_bandwidth(size, r.latency().expect("complete")).as_gbytes_per_sec())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        println!("{label}: {mean:.2} GB/s over {} collectives", samples.len());
    };

    // Phase 1: free run.
    cluster.run_until(Nanos::from_millis(700));
    report(
        &mut cluster,
        "free run           ",
        Nanos::from_millis(100),
        Nanos::from_millis(700),
    );

    // Phase 2: a 75G background flow lands on the clockwise sw0->sw1 link
    // (between the traffic hosts at switches 0 and 1: NICs 8 and 9).
    let now = cluster.now();
    let _bg = cluster.world.net.start_flow(
        now,
        FlowSpec::background(NicId(8), NicId(9), Bandwidth::gbps(75.0), 0),
    );
    cluster.run_until(Nanos::from_millis(1_400));
    report(
        &mut cluster,
        "background flow    ",
        Nanos::from_millis(800),
        Nanos::from_millis(1_400),
    );

    // Phase 3: the provider reverses the ring without touching the tenant.
    let info = cluster.mgmt().communicator(comm).expect("registered");
    let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster.mgmt().reconfigure(comm, reversed, RouteMap::ecmp());
    let epoch_before = info.epoch;
    cluster.run_until(Nanos::from_millis(2_100));
    report(
        &mut cluster,
        "after reversal     ",
        Nanos::from_millis(1_500),
        Nanos::from_millis(2_100),
    );

    let info = cluster.mgmt().communicator(comm).expect("registered");
    println!(
        "\nepoch {} -> {}; every collective executed under a single epoch on all ranks",
        epoch_before, info.epoch
    );
    // Show the safety property explicitly.
    let records = cluster.mgmt().trace(app);
    let mut by_seq: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for r in &records {
        if r.completed_at.is_some() {
            by_seq.entry(r.seq).or_default().push(r.epoch);
        }
    }
    let mixed = by_seq
        .values()
        .filter(|epochs| epochs.windows(2).any(|w| w[0] != w[1]))
        .count();
    println!("collectives with mixed-epoch execution: {mixed} (must be 0)");
    assert_eq!(mixed, 0);
}
