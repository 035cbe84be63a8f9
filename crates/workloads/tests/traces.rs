//! Replayed training traces in whole worlds: a trace is a tenant
//! ([`IterationTrace::tenant`]) in a [`Scenario`] — the paper's traffic
//! generator. A trace tenant replays every phase, exposes its idle gaps,
//! gets past a collective the service cleanly failed, and trace worlds —
//! idle phases and many collectives per iteration — keep the engine
//! contract ([`Cluster::check_engine_contract`]), run the same checked as
//! unchecked, and reproduce their pinned digests.

use mccs_collectives::op::all_reduce_sum;
use mccs_control::{apply_traffic_schedule, optimize_cluster, PolicySpec};
use mccs_core::health::SchedulerStats;
use mccs_core::world::resources::endpoint_comp;
use mccs_core::{Cluster, ClusterConfig, Scenario, Tenant};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::graph::Endpoint;
use mccs_topology::{presets, GpuId, LinkId, Topology};
use mccs_workloads::{
    gpt27b_tensor_parallel, resnet50_data_parallel, vgg19_data_parallel, IterationTrace, TracePhase,
};
use std::sync::Arc;

/// One GPU on each testbed host: ranks 0–1 in the first rack, 2–3 in
/// the second.
const GPUS: [GpuId; 4] = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];

/// `tenants` on the testbed at `seed`.
fn testbed(seed: u64, tenants: Vec<Tenant>) -> Scenario {
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(seed),
        tenants,
        faults: None,
    }
}

#[test]
fn a_trace_tenant_replays_every_collective_with_its_compute_gaps() {
    let trace = resnet50_data_parallel(2);
    let resnet = trace.tenant("resnet", CommunicatorId(1), &GPUS, Nanos::ZERO);
    let mut cluster = testbed(11, vec![resnet]).build();
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let tl = cluster.mgmt().timeline(AppId(0));
    // 4 allreduces per iteration x 2 iterations
    assert_eq!(tl.len(), 8);
    // compute gaps exist: consecutive issues are separated by >= 20ms
    for pair in tl.windows(2) {
        let gap = pair[1].issued_at - pair[0].completed_at.expect("done");
        assert!(
            gap >= Nanos::from_millis(19),
            "expected compute gap, got {gap}"
        );
    }
}

#[test]
fn blocked_polls_arm_no_more_timers() {
    // The checked pool polls every parked engine at the end of every
    // call, so the late tenant sees a blocked poll per call beside the
    // busy one: waiting for its start (`SleepUntil`) and inside an idle
    // phase (`Sleep`), each rank keeps exactly one timer pending for its
    // endpoint.
    let start = Nanos::from_millis(1);
    // Run to `until` in 100 calls or more; then the late ranks' timers.
    let late_timers = |until: Nanos| {
        let busy = resnet50_data_parallel(1);
        let late = IterationTrace::new("late", vec![TracePhase::Idle(start * 4)], 1);
        let mut cluster = testbed(
            11,
            vec![
                busy.tenant(
                    "busy",
                    CommunicatorId(1),
                    &[GpuId(0), GpuId(2)],
                    Nanos::ZERO,
                ),
                late.tenant("late", CommunicatorId(2), &[GpuId(1), GpuId(3)], start),
            ],
        )
        .build();
        cluster.check_engine_contract();
        for i in 1..=100 {
            cluster.run_until(until * i / 100);
        }
        let mut timers = Vec::new();
        while let Some((at, r)) = cluster.world.events.pop() {
            if r == endpoint_comp(2) || r == endpoint_comp(3) {
                timers.push(at);
            }
        }
        timers
    };
    assert_eq!(
        late_timers(start / 2),
        vec![start; 2],
        "waiting for the start"
    );
    let timers = late_timers(start * 3);
    assert_eq!(timers, vec![start * 5; 2], "inside the idle phase");
}

#[test]
fn trace_gaps_are_discoverable_by_ts() {
    let trace = resnet50_data_parallel(4);
    let traced = trace.tenant(
        "traced",
        CommunicatorId(1),
        &[GpuId(0), GpuId(2)],
        Nanos::ZERO,
    );
    let mut cluster = testbed(12, vec![traced]).build();
    cluster.run_until_quiescent(Nanos::from_secs(120));
    let gaps = cluster.mgmt().idle_gaps(AppId(0));
    assert!(
        !gaps.is_empty(),
        "periodic trace must expose idle gaps for TS"
    );
}

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
    let trace = mixed_trace();
    let cut = trace.tenant("cut", CommunicatorId(1), &GPUS, Nanos::from_millis(1));
    let mut s = testbed(17, vec![cut]);
    let mut plan = FaultPlan::new();
    for l in rack_uplinks(&s.topo, GPUS[3]) {
        plan = plan.at(Nanos::from_millis(12), FaultEvent::LinkDown(l));
    }
    s.faults = Some(plan);
    let mut cluster = s.build();
    if checked {
        cluster.check_engine_contract();
    }
    (cluster, trace, AppId(0))
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
    let tenants = [
        ("A-vgg", vec![0, 1, 4, 5], vgg19_data_parallel(6), 20),
        ("B-gpt", vec![2, 6], gpt27b_tensor_parallel(3), 25),
        ("C-gpt", vec![3, 7], gpt27b_tensor_parallel(3), 31),
    ]
    .iter()
    .zip(1..)
    .map(|((name, gpus, trace, start), comm)| {
        let gpus: Vec<GpuId> = gpus.iter().map(|&g| GpuId(g)).collect();
        let start = Nanos::from_millis(*start);
        trace.tenant(name, CommunicatorId(comm), &gpus, start)
    })
    .collect();
    let mut cluster = Scenario {
        config: ClusterConfig::default(),
        ..testbed(0, tenants)
    }
    .build();
    if checked {
        cluster.check_engine_contract();
    }
    cluster.run_until(Nanos::from_millis(2));
    optimize_cluster(&mut cluster, &PolicySpec::mccs());
    cluster.run_until(Nanos::from_millis(900));
    assert!(apply_traffic_schedule(&mut cluster, AppId(1), &[AppId(2)]));
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
    // Pinned digests: a change that moves a trace world shows here.
    let cut = |checked| finish(cut_world(checked).0);
    assert_eq!(cut(true), cut(false), "cut world");
    assert_eq!(cut(true).0, 0x7dd2_d35f_50a7_575d, "cut world digest");
    let qos = |checked| finish(qos_world(checked));
    assert_eq!(qos(true), qos(false), "multi_tenant_qos world");
    assert_eq!(
        qos(true).0,
        0xb94d_caf9_f5a7_8f3c,
        "multi_tenant_qos digest"
    );
}
