//! Figure 7 — runtime ring reconfiguration around a background flow.
//!
//! Four switches in a ring, one training host (2 GPUs, 2×50G NICs) and
//! one traffic host (100G NIC) per switch; inter-switch links 100G. An
//! 8-GPU AllReduce job runs a clockwise ring. At t=7.5s a 75 Gbps
//! background flow starts on the clockwise sw0→sw1 link, collapsing the
//! job's bandwidth; at t=12s the controller reverses the ring, and the
//! job recovers without interruption.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig7_reconfig`

use mccs_bench::report::{json_rows, print_csv, write_bench_json};
use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{algo_bandwidth, RingOrder};
use mccs_core::config::RouteMap;
use mccs_core::{ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::FlowSpec;
use mccs_sim::{Bandwidth, Bytes, Nanos, TimeSeries};
use mccs_topology::{GpuId, PodId, SwitchRole, TopologyBuilder};
use std::sync::Arc;

/// Ring-of-4-switches with a training host and a traffic host per switch.
fn ring_topology() -> mccs_topology::Topology {
    let mut b = TopologyBuilder::new();
    let racks: Vec<_> = (0..4).map(|_| b.add_rack(PodId(0))).collect();
    let switches: Vec<_> = (0..4)
        .map(|i| b.add_switch(SwitchRole::Generic, Some(racks[i])))
        .collect();
    for i in 0..4 {
        b.connect_switches(switches[i], switches[(i + 1) % 4], Bandwidth::gbps(100.0));
    }
    // Training hosts first: hosts 0-3, GPUs 0-7, NICs 0-7.
    for i in 0..4 {
        b.add_host(racks[i], switches[i], 2, Bandwidth::gbps(50.0));
    }
    // Traffic hosts: hosts 4-7, GPUs/NICs 8-11.
    for i in 0..4 {
        b.add_host(racks[i], switches[i], 1, Bandwidth::gbps(100.0));
    }
    b.build()
}

const SIZE: Bytes = Bytes::mib(64);
const END: Nanos = Nanos::from_millis(20_000);
const BG_START: Nanos = Nanos::from_millis(7_500);
const RECONFIG: Nanos = Nanos::from_millis(12_000);

fn main() {
    println!("== Figure 7: adapting to background flows at runtime ==\n");
    // The 8-GPU job over the four training hosts, clockwise world order.
    let comm = CommunicatorId(1);
    let ar8 = Tenant {
        name: "ar8".to_owned(),
        mode: TenantMode::Service(comm),
        gpus: (0..8).map(GpuId).collect(),
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size: SIZE,
        }],
        iters: 4000, // more than fits in 20s; we cut the run at END
        start: Nanos::ZERO,
    };
    let mut cluster = Scenario {
        topo: Arc::new(ring_topology()),
        config: ClusterConfig::with_seed(7),
        tenants: vec![ar8],
        faults: None,
    }
    .build();
    let app = AppId(0);

    // Phase 1: free run.
    cluster.run_until(BG_START);
    // Phase 2: 75G background flow on the clockwise sw0 -> sw1 link
    // (traffic host at switch 0 -> traffic host at switch 1: NICs 8 -> 9).
    let now = cluster.world.clock;
    let bg = cluster.world.net.start_flow(
        now,
        FlowSpec::background(
            mccs_topology::NicId(8),
            mccs_topology::NicId(9),
            Bandwidth::gbps(75.0),
            0,
        ),
    );
    println!(
        "t={:.1}s  background flow of 75 Gbps starts",
        now.as_secs_f64()
    );
    cluster.run_until(RECONFIG);
    // Phase 3: the controller reverses the ring.
    let info = cluster.mgmt().communicator(comm).expect("registered");
    let reversed: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster.mgmt().reconfigure(comm, reversed, RouteMap::ecmp());
    println!(
        "t={:.1}s  reconfiguration issued: ring reversed (epoch {} -> {})",
        cluster.world.clock.as_secs_f64(),
        info.epoch,
        info.epoch + 1
    );
    cluster.run_until(END);
    cluster.world.net.cancel_flow(cluster.world.clock, bg);

    // Per-collective algorithm bandwidth over time.
    let mut series = TimeSeries::new("algbw");
    for rec in cluster.mgmt().timeline(app) {
        let done = rec.completed_at.expect("complete");
        if done > END {
            break;
        }
        let bw = algo_bandwidth(SIZE, rec.latency().expect("complete"));
        series.push(done, bw.as_gbytes_per_sec());
    }
    let rows: Vec<Vec<String>> = series
        .windowed_means(Nanos::from_millis(500))
        .into_iter()
        .map(|(t, v)| vec![format!("{:.2}", t.as_secs_f64()), format!("{v:.2}")])
        .collect();
    print_csv("fig7", &["elapsed_s", "algbw_gbs"], &rows);

    // Summary of the three phases.
    let phase = |from: Nanos, to: Nanos| series.mean_in(from, to).unwrap_or(0.0);
    let before = phase(Nanos::from_millis(2_000), BG_START);
    let during = phase(BG_START + Nanos::from_millis(500), RECONFIG);
    let after = phase(RECONFIG + Nanos::from_millis(500), END);
    println!("\nphase means (GB/s): before={before:.2}  during-bg={during:.2}  after-reconfig={after:.2}");
    write_bench_json(
        "fig7_reconfig",
        &format!(
            "\"phase_means_gbps\":{{\"before\":{before:.4},\"during_bg\":{during:.4},\
             \"after_reconfig\":{after:.4}}},\"series\":{}",
            json_rows(&["elapsed_s", "algbw_gbs"], &rows)
        ),
    );
    println!(
        "paper shape: ~5.9 -> ~1.7 -> ~5.9 GB/s (drop when the background\n\
         flow lands on the clockwise path, immediate recovery after the\n\
         transparent ring reversal)."
    );
    assert!(
        during < before * 0.45,
        "background flow should crush bandwidth"
    );
    assert!(
        after > before * 0.9,
        "reconfiguration should restore bandwidth"
    );
}
