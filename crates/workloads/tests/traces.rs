//! Replayed training traces in whole worlds: a trace tenant gets past a
//! collective the service cleanly failed, and trace worlds — lowered
//! scripts with idle phases and many collectives per iteration — keep the
//! engine contract ([`Cluster::check_engine_contract`]) and run the same
//! checked as unchecked.

use mccs_collectives::op::all_reduce_sum;
use mccs_control::{apply_traffic_schedule, optimize_cluster, PolicySpec};
use mccs_core::health::SchedulerStats;
use mccs_core::{Cluster, ClusterConfig};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::graph::Endpoint;
use mccs_topology::{presets, GpuId, LinkId, Topology};
use mccs_workloads::generator::spawn_traffic_app;
use mccs_workloads::{gpt27b_tensor_parallel, vgg19_data_parallel, IterationTrace, TracePhase};
use std::sync::Arc;

/// One GPU on each testbed host: ranks 0–1 in the first rack, 2–3 in
/// the second.
const GPUS: [GpuId; 4] = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];

/// Every phase kind, two collectives per iteration.
fn mixed_trace() -> IterationTrace {
    IterationTrace::new(
        "mixed",
        vec![
            TracePhase::Memcpy(Nanos::from_micros(500)),
            TracePhase::Compute(Nanos::from_millis(2)),
            TracePhase::Collective {
                op: all_reduce_sum(),
                size: Bytes::mib(8),
            },
            TracePhase::Idle(Nanos::from_millis(3)),
            TracePhase::Collective {
                op: all_reduce_sum(),
                size: Bytes::mib(2),
            },
        ],
        6,
    )
}

/// Both directions of every switch-to-switch link of `gpu`'s rack leaf.
fn rack_uplinks(topo: &Topology, gpu: GpuId) -> Vec<LinkId> {
    let rack = topo.rack_of(topo.host_of_gpu(gpu));
    let leaf = topo
        .switches()
        .iter()
        .find(|s| s.rack == Some(rack))
        .expect("every rack has a leaf")
        .id;
    topo.links()
        .iter()
        .filter(|l| {
            let switches =
                matches!(l.from, Endpoint::Switch(_)) && matches!(l.to, Endpoint::Switch(_));
            switches && (l.from == Endpoint::Switch(leaf) || l.to == Endpoint::Switch(leaf))
        })
        .map(|l| l.id)
        .collect()
}

/// `mixed_trace` on `GPUS` from 1 ms, with the second rack cut off for
/// good at 12 ms: no repair, so every collective from then on fails.
/// `checked` checks the engine contract.
fn cut_world(checked: bool) -> (Cluster, IterationTrace, AppId) {
    let topo = Arc::new(presets::testbed());
    let trace = mixed_trace();
    let mut plan = FaultPlan::new();
    for l in rack_uplinks(&topo, GPUS[3]) {
        plan = plan.at(Nanos::from_millis(12), FaultEvent::LinkDown(l));
    }
    let mut cluster = Cluster::new(topo, ClusterConfig::with_seed(17));
    if checked {
        cluster.check_engine_contract();
    }
    let app = spawn_traffic_app(
        &mut cluster,
        "cut",
        CommunicatorId(1),
        &GPUS,
        &trace,
        Nanos::from_millis(1),
    );
    cluster.install_fault_plan(plan);
    (cluster, trace, app)
}

#[test]
fn a_cleanly_failed_collective_does_not_hang_a_trace_tenant() {
    let (mut cluster, trace, app) = cut_world(true);
    cluster
        .try_run_until_quiescent(Nanos::from_secs(60))
        .expect("a trace tenant moves past a failed collective");
    // No event is left once every rank waits on a collective that already
    // failed, so a stuck tenant shows as live ranks in a quiet world.
    let stuck: Vec<String> = cluster
        .live_engine_names()
        .into_iter()
        .filter(|name| name.starts_with("app-rank"))
        .collect();
    assert!(stuck.is_empty(), "tenant ranks never finished: {stuck:?}");
    let done = cluster.mgmt().timeline(app).len();
    let failed = cluster
        .mgmt()
        .tenant_outcomes(app)
        .iter()
        .filter(|r| r.failed)
        .count();
    assert!(failed > 0, "the cut fails collectives ({done} completed)");
    assert_eq!(
        done + failed,
        trace.collectives_per_iteration() * trace.iterations,
        "every collective completes or fails cleanly"
    );
}

/// The `multi_tenant_qos` world: VGG-19 on four GPUs, two GPT-2.7B
/// tenants on two each, FFA at 2 ms and B over C by TS at 900 ms.
fn qos_world(checked: bool) -> Cluster {
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), ClusterConfig::default());
    if checked {
        cluster.check_engine_contract();
    }
    let tenants = [
        ("A-vgg", vec![0, 1, 4, 5], vgg19_data_parallel(6), 20),
        ("B-gpt", vec![2, 6], gpt27b_tensor_parallel(3), 25),
        ("C-gpt", vec![3, 7], gpt27b_tensor_parallel(3), 31),
    ];
    let apps: Vec<AppId> = tenants
        .iter()
        .zip(1..)
        .map(|((name, gpus, trace, start), comm)| {
            let gpus: Vec<GpuId> = gpus.iter().map(|&g| GpuId(g)).collect();
            let start = Nanos::from_millis(*start);
            spawn_traffic_app(
                &mut cluster,
                name,
                CommunicatorId(comm),
                &gpus,
                trace,
                start,
            )
        })
        .collect();
    cluster.run_until(Nanos::from_millis(2));
    optimize_cluster(&mut cluster, &PolicySpec::mccs());
    cluster.run_until(Nanos::from_millis(900));
    assert!(apply_traffic_schedule(&mut cluster, apps[1], &[apps[2]]));
    cluster
}

/// Run `cluster` to quiescence: the observable digest and the scheduler
/// counters.
fn finish(mut cluster: Cluster) -> (u64, SchedulerStats) {
    cluster
        .try_run_until_quiescent(Nanos::from_secs(120))
        .expect("quiesces");
    (cluster.observable_digest(), cluster.scheduler_stats())
}

#[test]
fn trace_worlds_keep_the_engine_contract() {
    let cut = |checked| finish(cut_world(checked).0);
    assert_eq!(cut(true), cut(false), "cut world");
    let qos = |checked| finish(qos_world(checked));
    assert_eq!(qos(true), qos(false), "multi_tenant_qos world");
}
