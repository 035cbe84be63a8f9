//! Multi-tenant QoS walkthrough: three tenants share the testbed while
//! the provider walks through its policy arsenal — fair flow assignment,
//! priority flow assignment, and traffic scheduling — without touching a
//! single tenant.
//!
//! This condenses the paper's §6.4 study: tenant A trains VGG-19 with
//! twice the NICs of B and C, who fine-tune GPT-2.7B.
//!
//! Run: `cargo run --release --example multi_tenant_qos`

use mccs::control::{
    apply_traffic_schedule, optimize_cluster, ChannelPolicy, FlowAssignment, PolicySpec,
};
use mccs::ipc::{AppId, CommunicatorId};
use mccs::service::{ClusterConfig, Scenario};
use mccs::sim::Nanos;
use mccs::topology::{presets, GpuId, RouteId};
use mccs::workloads::{gpt27b_tensor_parallel, vgg19_data_parallel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn main() {
    // Setup 3 of the paper's Figure 5b: A holds both GPUs of H0 and H2
    // (2 NICs/host); B and C hold one GPU each on H1 and H3.
    let mut cluster = Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::default(),
        tenants: vec![
            vgg19_data_parallel(6).tenant(
                "A-vgg",
                CommunicatorId(1),
                &[GpuId(0), GpuId(1), GpuId(4), GpuId(5)],
                Nanos::from_millis(20),
            ),
            gpt27b_tensor_parallel(3).tenant(
                "B-gpt",
                CommunicatorId(2),
                &[GpuId(2), GpuId(6)],
                Nanos::from_millis(25),
            ),
            gpt27b_tensor_parallel(3).tenant(
                "C-gpt",
                CommunicatorId(3),
                &[GpuId(3), GpuId(7)],
                Nanos::from_millis(31),
            ),
        ],
        faults: None,
    }
    .build();
    let (a, b, c) = (AppId(0), AppId(1), AppId(2));

    // Let everyone register, then apply the baseline policy: locality
    // rings + fair flow assignment.
    cluster.run_until(Nanos::from_millis(2));
    let reconfigured = optimize_cluster(&mut cluster, &PolicySpec::mccs());
    println!("FFA applied to {} communicators", reconfigured.len());

    // Inspect what the controller sees (and the tenants never do).
    for info in cluster.mgmt().communicators() {
        println!(
            "  {}: {} ranks on GPUs {:?}, {} channel(s), epoch {}",
            info.comm,
            info.world.len(),
            info.world,
            info.channels,
            info.epoch
        );
    }

    // Mid-run, the administrator prioritizes A: dedicate inter-rack
    // route 0 to it (PFA). Tenants keep running, unaware.
    cluster.run_until(Nanos::from_millis(400));
    optimize_cluster(
        &mut cluster,
        &PolicySpec {
            optimal_rings: true,
            channels: ChannelPolicy::MatchNics,
            assignment: FlowAssignment::Pfa {
                priorities: BTreeMap::from([(a, 0u32)]),
                reserved: BTreeSet::from([RouteId(0)]),
            },
        },
    );
    println!("\nt=0.4s: PFA applied — route 0 is now A's alone");

    // Later, prioritize B over C: profile B's idle cycles from the
    // management trace and gate C into them (TS).
    cluster.run_until(Nanos::from_millis(900));
    if apply_traffic_schedule(&mut cluster, b, &[c]) {
        println!("t=0.9s: TS applied — C now sends only in B's idle windows");
    }

    cluster.run_until_quiescent(Nanos::from_secs(120));

    println!("\njob completion times:");
    for (app, name) in [
        (a, "A (VGG, priority 0)"),
        (b, "B (GPT, TS-boosted)"),
        (c, "C (GPT, gated)"),
    ] {
        let tl = cluster.mgmt().timeline(app);
        let done = tl.last().expect("finished").completed_at.expect("done");
        println!(
            "  {name:<22} {:>8.3}s  ({} collectives)",
            done.as_secs_f64(),
            tl.len()
        );
    }
    println!("\nidle gaps the TS policy found in B's trace (first 3):");
    for (start, len) in cluster.mgmt().idle_gaps(b).into_iter().take(3) {
        println!("  at {:.3}s for {len}", start.as_secs_f64());
    }
}
