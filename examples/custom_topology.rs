//! Build a custom fabric with [`TopologyBuilder`] and let the controller
//! reason about it: a three-rack, three-spine cluster with asymmetric
//! rack sizes, a tenant scattered across it, and the locality-aware ring
//! + fair flow assignment pipeline applied end to end.
//!
//! Run: `cargo run --release --example custom_topology`

use mccs::collectives::crossrack;
use mccs::collectives::op::all_reduce_sum;
use mccs::control::flow_policy::JobFlows;
use mccs::control::{ffa, optimal_rings, ChannelPolicy};
use mccs::service::{ClusterConfig, LibraryConfig, RingChoice, Scenario, Tenant, TenantMode, Work};
use mccs::sim::{Bandwidth, Bytes, Nanos};
use mccs::topology::{GpuId, PodId, SwitchRole, TopologyBuilder};
use std::sync::Arc;

fn main() {
    // ---- build the fabric --------------------------------------------------
    let mut b = TopologyBuilder::new();
    let pod = PodId(0);
    let spines: Vec<_> = (0..3)
        .map(|_| b.add_switch(SwitchRole::Spine, None))
        .collect();
    // Racks of different sizes: 3, 2 and 1 hosts.
    let mut all_hosts = Vec::new();
    for hosts in [3usize, 2, 1] {
        let rack = b.add_rack(pod);
        let leaf = b.add_switch(SwitchRole::Leaf, Some(rack));
        for &spine in &spines {
            b.connect_switches(leaf, spine, Bandwidth::gbps(100.0));
        }
        for _ in 0..hosts {
            all_hosts.push(b.add_host(rack, leaf, 4, Bandwidth::gbps(100.0)));
        }
    }
    let topo = Arc::new(b.build());
    println!(
        "fabric: {} hosts, {} GPUs, {} switches, {} links, {} racks",
        topo.hosts().len(),
        topo.gpus().len(),
        topo.switches().len(),
        topo.links().len(),
        topo.rack_count()
    );

    // ---- a tenant scattered across racks -----------------------------------
    // One GPU from each host, in a deliberately rack-interleaved order.
    let tenant: Vec<GpuId> = all_hosts.iter().map(|&h| topo.host(h).gpus[0]).collect();
    let scattered: Vec<GpuId> = {
        let mut v = tenant.clone();
        v.swap(1, 4); // interleave racks
        v.swap(2, 5);
        v
    };

    // What the provider computes.
    let rings = optimal_rings(&topo, &scattered, ChannelPolicy::MatchPathDiversity);
    let host_ring = rings[0].host_sequence(&topo);
    println!(
        "\nlocality ring: {} channels, host order {:?}",
        rings.len(),
        host_ring
    );
    println!(
        "cross-rack edges: optimal {}, this ring {}, a rack-interleaved ring would pay {:.1}x",
        crossrack::optimal_cross_rack_edges(&topo, &host_ring),
        crossrack::cross_rack_edges(&topo, &host_ring),
        crossrack::worst_case_ratio(&topo, &host_ring),
    );

    let flows = JobFlows::from_rings(&topo, &rings, 0);
    let routes = ffa(&topo, std::slice::from_ref(&flows)).remove(0);
    println!(
        "FFA pinned {} of {} connections explicitly",
        routes.len(),
        flows.flows.len()
    );

    // ---- run it -------------------------------------------------------------
    let job = Tenant {
        name: "custom".to_owned(),
        gpus: scattered,
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size: Bytes::mib(64),
        }],
        iters: 4,
        start: Nanos::ZERO,
        mode: TenantMode::Library(LibraryConfig {
            channels: rings.len(),
            ring: RingChoice::Explicit(rings),
            routes,
            ..Default::default()
        }),
    };
    let record = Scenario {
        topo,
        config: ClusterConfig::library_mode(1),
        tenants: vec![job],
        faults: None,
    }
    .run(Nanos::from_secs(30));
    println!("\ncollective latencies on the custom fabric:");
    for rec in &record.traces[0] {
        println!("  seq {}: {}", rec.seq, rec.latency().expect("complete"));
    }
}
