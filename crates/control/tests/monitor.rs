//! Controller-side health monitoring over the push channel.
//!
//! The service never runs its own recovery engine here (no fault plan is
//! installed, so the plan-gated machinery is inert): every corrective
//! action observed below was driven by the controller's [`HealthMonitor`]
//! reacting to pushed `FailureEvent`s — no polling of `links_down()` or
//! `failure_events()` anywhere in the reaction path.

use mccs_collectives::op::all_reduce_sum;
use mccs_control::HealthMonitor;
use mccs_core::{Cluster, ClusterConfig, FailureEvent, Scenario, Tenant, TenantMode};
use mccs_ipc::CommunicatorId;
use mccs_sim::{Bytes, Nanos};
use mccs_topology::graph::Endpoint;
use mccs_topology::{presets, GpuId, LinkId};
use std::sync::Arc;

const COMM: CommunicatorId = CommunicatorId(1);
const GPUS: [GpuId; 4] = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];

/// One four-host AllReduce tenant on the testbed.
fn mon(seed: u64, size: Bytes, iters: usize) -> Scenario {
    let tenant = Tenant {
        name: "mon".to_owned(),
        mode: TenantMode::Service(COMM),
        gpus: GPUS.to_vec(),
        op: all_reduce_sum(),
        size,
        iters,
        start: Nanos::ZERO,
        compute: Nanos::ZERO,
    };
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(seed),
        tenants: vec![tenant],
        faults: None,
    }
}

/// Every switch-to-switch (spine<->leaf) link of the testbed fabric.
fn fabric_links(cluster: &Cluster) -> Vec<LinkId> {
    cluster
        .world
        .topo
        .links()
        .iter()
        .filter(|l| matches!(l.from, Endpoint::Switch(_)) && matches!(l.to, Endpoint::Switch(_)))
        .map(|l| l.id)
        .collect()
}

/// Degrade one link the way the fault machinery would: effective capacity
/// in the network simulator plus a pushed health event.
fn degrade(cluster: &mut Cluster, link: LinkId, milli: u32) {
    let now = cluster.world.clock;
    cluster
        .world
        .net
        .set_link_degrade(now, link, f64::from(milli) / 1000.0);
    cluster.world.health.link_degraded(link, milli, now);
}

/// The controller receives degrade and host events through the bounded
/// push channel — in order, gapless, exactly once — and reconfigures a
/// communicator only when the degradation policy rejects its routes.
#[test]
fn monitor_reacts_to_pushed_events_without_polling() {
    let mut cluster = mon(71, Bytes::mib(8), 6).build();
    // Let registration and the first collectives get going.
    cluster.run_until(Nanos::from_millis(3));
    let mut mon = HealthMonitor::subscribe(&mut cluster);
    let fabric = fabric_links(&cluster);
    assert_eq!(fabric.len(), 8, "testbed: 2 spines x 2 leaves, both ways");

    // A mild brownout (60% capacity left) plus a host blip: all three
    // events must arrive, but 0.6 is above the route-around threshold,
    // so no corrective reconfiguration fires.
    degrade(&mut cluster, fabric[0], 600);
    let host = cluster.world.topo.host_of_gpu(GpuId(6));
    let now = cluster.world.clock;
    cluster.world.health.host_down(host, now);
    cluster.world.health.host_up(host, now);
    let rep = mon.poll(&mut cluster);
    assert!(!rep.resynced, "three events cannot overflow the channel");
    assert_eq!(rep.events.len(), 3);
    let first = rep.events[0].0;
    for (i, (seq, _)) in rep.events.iter().enumerate() {
        assert_eq!(*seq, first + i as u64, "delivery must be gapless");
    }
    assert!(matches!(
        rep.events[0].1,
        FailureEvent::LinkDegraded { milli: 600, .. }
    ));
    assert!(matches!(rep.events[1].1, FailureEvent::HostDown { .. }));
    assert!(matches!(rep.events[2].1, FailureEvent::HostUp { .. }));
    assert!(
        rep.reconfigured.is_empty(),
        "0.6 capacity is usable; reconfigured {:?}",
        rep.reconfigured
    );

    // A severe fabric-wide brownout (10% left on every spine<->leaf
    // link) drops the communicator's bottleneck below the route-around
    // threshold: this poll must issue a corrective reconfiguration.
    for &l in &fabric {
        degrade(&mut cluster, l, 100);
    }
    let rep = mon.poll(&mut cluster);
    assert_eq!(rep.events.len(), fabric.len());
    assert_eq!(rep.reconfigured, vec![COMM]);
    assert_eq!(mon.consumed(), 3 + fabric.len() as u64);

    // The controller's reconfiguration must drive the Figure 4 barrier
    // to completion: a new epoch, every collective still completing —
    // with the service-side recovery engine never having acted.
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let info = cluster.mgmt().communicator(COMM).expect("comm persists");
    assert!(info.epoch >= 1, "controller recovery must bump the epoch");
    for r in cluster.world.trace.records() {
        assert!(
            r.completed_at.is_some() && r.failed_at.is_none(),
            "collective lost under controller-driven recovery: {r:?}"
        );
    }
    let counters = cluster.mgmt().health_counters();
    assert_eq!(
        counters.recoveries, 0,
        "the service recovery engine must stay inert; the controller acted"
    );
    assert_eq!(counters.collectives_failed, 0);
    assert_eq!(counters.links_degraded as usize, fabric.len());
    let degraded = cluster.mgmt().links_degraded();
    assert_eq!(degraded.len(), fabric.len());
    assert!(degraded.iter().all(|&(_, f)| (f - 0.1).abs() < 1e-9));
}

/// While the controller process is down the monitor is frozen: polls
/// return an empty report without moving the channel cursor, so a long
/// outage rolls the bounded ring past it. The first post-restart poll
/// cannot replay the gapped stream — it resyncs from a snapshot and
/// reacts to the coalesced fabric state in one pass.
///
/// The crash is applied to the world directly rather than through the
/// fault plan: installing a plan would un-gate the service-side recovery
/// engine, and this suite is about the controller acting alone.
#[test]
fn monitor_freezes_while_down_and_resyncs_on_restart() {
    let mut s = mon(29, Bytes::mib(8), 6);
    s.config.service.health_channel_capacity = 8;
    let mut cluster = s.build();
    cluster.run_until(Nanos::from_millis(3));
    let mut mon = HealthMonitor::subscribe(&mut cluster);
    let fabric = fabric_links(&cluster);

    // The controller dies with the cursor at the channel tail.
    {
        let now = cluster.world.clock;
        let c = &mut cluster.world.controller;
        c.down = true;
        c.crashed_at = Some(now);
        c.stats.crashes += 1;
    }

    // A severe fabric-wide brownout lands during the outage: one event
    // per spine<->leaf link plus a second report on the first — nine
    // pushes into a ring of eight, evicting the oldest past the frozen
    // cursor.
    for &l in &fabric {
        degrade(&mut cluster, l, 100);
    }
    degrade(&mut cluster, fabric[0], 90);
    assert_eq!(fabric.len() + 1, 9);
    cluster.run_until(Nanos::from_millis(6));

    // Polls while down observe nothing and do not advance the cursor.
    for _ in 0..3 {
        let rep = mon.poll(&mut cluster);
        assert!(rep.events.is_empty(), "monitor must freeze while down");
        assert!(!rep.resynced && rep.lost == 0);
        assert!(rep.reconfigured.is_empty());
    }
    assert_eq!(mon.consumed(), 0);

    // Restart. The first live poll resyncs and reconfigures the starved
    // communicator off the browned-out routes.
    {
        let now = cluster.world.clock;
        let c = &mut cluster.world.controller;
        let since = c.crashed_at.take().expect("crash instant recorded");
        c.stats.downtime_ns += now.0 - since.0;
        c.stats.restarts += 1;
        c.down = false;
        c.incarnation += 1;
    }
    let rep = mon.poll(&mut cluster);
    assert!(rep.resynced, "nine events in a ring of eight must resync");
    assert!(rep.lost >= 1, "the eviction must be reported, not hidden");
    assert!(rep.events.is_empty(), "a resync carries no event stream");
    assert_eq!(rep.reconfigured, vec![COMM]);
    assert_eq!(mon.consumed(), 0, "resyncs deliver state, not events");

    let stats = cluster.mgmt().controller_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1);
    assert!(stats.downtime_ns > 0, "the outage spanned virtual time");

    // The coalesced post-restart reaction still drives the Figure 4
    // barrier to completion, with the service engine never having acted.
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let info = cluster.mgmt().communicator(COMM).expect("comm persists");
    assert!(info.epoch >= 1, "post-restart recovery must bump the epoch");
    for r in cluster.world.trace.records() {
        assert!(
            r.completed_at.is_some() && r.failed_at.is_none(),
            "collective lost across the controller outage: {r:?}"
        );
    }
    let counters = cluster.mgmt().health_counters();
    assert_eq!(counters.recoveries, 0, "service engine must stay inert");
    assert_eq!(counters.collectives_failed, 0);
}
