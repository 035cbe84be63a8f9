//! Interactive chaos driving and seeded interleaving exploration.
//!
//! The central property under test is the driver/script equivalence
//! gate: a `ChaosDriver` issuing fault events at the same virtual
//! instants as a pre-scripted `FaultPlan` must produce a byte-identical
//! observable digest. On top of that: `Explorer` episodes must be
//! seed-deterministic and replayable from their decision traces, and the
//! recovery-loop bugfixes (repair fail-back, self-wake filtering,
//! mid-run install clamping) each get a regression.

mod common;

use common::{four_host, hottest_spine_at, spine_links, COMM, GPUS, SPINE0};
use mccs_core::{ChaosDriver, Cluster, DetourPolicy, Explorer, ExplorerConfig, FailureEvent};
use mccs_ipc::AppId;
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{GpuId, LinkId, RouteId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The fault suite's acceptance scenario, pre-scripted: hottest spine
/// dies at 10ms, run to quiescence.
fn scripted_link_failure(seed: u64) -> Cluster {
    let fault_at = Nanos::from_millis(10);
    let mut s = four_host("chaos", seed, Bytes::mib(32), 4);
    let spine = hottest_spine_at(&s, fault_at);
    s.faults = Some(FaultPlan::new().at(fault_at, FaultEvent::LinkDown(spine)));
    let mut cluster = s.build();
    cluster.run_until_quiescent(Nanos::from_secs(20));
    cluster
}

// ---------------------------------------------------------------------------
// Tentpole: driver/script equivalence
// ---------------------------------------------------------------------------

/// The equivalence gate on the acceptance scenario: the same link, down
/// at the same instant, issued live from the test body instead of from a
/// pre-authored script — byte-identical digest.
#[test]
fn driver_matches_scripted_plan_digest() {
    let seed = 21;
    let fault_at = Nanos::from_millis(10);
    let s = four_host("chaos", seed, Bytes::mib(32), 4);
    let spine = hottest_spine_at(&s, fault_at);

    let scripted = scripted_link_failure(seed);

    let mut cluster = s.build();
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(fault_at);
    driver.link_down(spine);
    driver
        .run_to_quiescence(Nanos::from_secs(20))
        .expect("driver run must quiesce like the scripted one");

    assert_eq!(
        scripted.observable_digest(),
        cluster.observable_digest(),
        "live injection diverged from the equivalent pre-scripted plan"
    );
}

/// One randomized fault event: (microseconds, raw selector, kind) — the
/// same shape the fault suite's random-plan property uses.
type RawEvent = (u64, usize, u8);

fn event_of(cluster: &Cluster, raw: &RawEvent) -> (Nanos, FaultEvent) {
    let nlinks = cluster.world.topo.links().len();
    let &(us, raw_sel, kind) = raw;
    let at = Nanos::from_micros(us);
    let link = LinkId((raw_sel % nlinks) as u32);
    let ev = match kind % 5 {
        0 => FaultEvent::LinkDown(link),
        1 => FaultEvent::LinkUp(link),
        2 => FaultEvent::LinkDegrade {
            link,
            milli: 100 + ((raw_sel as u32 * 7) % 900),
        },
        3 => FaultEvent::AbortFlowsOn(link),
        _ => {
            let partner = LinkId(((raw_sel / 3 + 1) % nlinks) as u32);
            FaultEvent::CorrelatedDegrade {
                links: Arc::from(&[link, partner][..]),
                milli: 100 + ((raw_sel as u32 * 7) % 900),
            }
        }
    };
    (at, ev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any random timeline of fault events produces the same digest
    /// whether pre-scripted into a plan or issued live by a driver
    /// stepping to each instant.
    #[test]
    fn driver_and_script_are_digest_equivalent(
        seed in 1_u64..500,
        events in proptest::collection::vec(
            (2_000_u64..25_000, 0_usize..1_000, 0_u8..5), 0..5),
    ) {
        // Scripted arm.
        let mut scripted = four_host("chaos", seed, Bytes::mib(8), 3).build();
        let mut plan = FaultPlan::new();
        for raw in &events {
            let (at, ev) = event_of(&scripted, raw);
            plan = plan.at(at, ev);
        }
        scripted.install_fault_plan(plan);
        scripted.run_until_quiescent(Nanos::from_secs(30));

        // Driver arm: same events, same instants, issued live. Stable
        // sort by time keeps same-instant events in authoring order,
        // matching the plan's insertion order.
        let mut cluster = four_host("chaos", seed, Bytes::mib(8), 3).build();
        let mut timeline: Vec<(Nanos, FaultEvent)> =
            events.iter().map(|r| event_of(&cluster, r)).collect();
        timeline.sort_by_key(|&(t, _)| t);
        let mut driver = ChaosDriver::new(&mut cluster);
        for (at, ev) in timeline {
            driver.run_until(at);
            driver.inject(ev);
        }
        driver
            .run_to_quiescence(Nanos::from_secs(30))
            .expect("driver arm must quiesce");

        prop_assert_eq!(
            scripted.observable_digest(),
            cluster.observable_digest(),
            "driver-issued sequence diverged from the pre-scripted plan"
        );
    }
}

/// Holding the control ring and releasing it later is observably
/// identical to a scripted `delay_control` of the hold duration on every
/// affected message.
#[test]
fn hold_release_equals_scripted_delay() {
    let seed = 81;
    let hold_at = Nanos::from_millis(5);
    let release_at = Nanos::from_millis(7);
    let run = |held: bool| -> (u64, u64) {
        let mut cluster = four_host("chaos", seed, Bytes::mib(8), 3).build();
        let mut driver = ChaosDriver::new(&mut cluster);
        driver.run_until(hold_at);
        let first_req = driver.cluster().world.control_ordinal();
        if held {
            driver.hold_control();
        } else {
            // The reconfigure below sends one Req per rank; delay each
            // by the hold span.
            let mut plan = FaultPlan::new();
            for i in 0..GPUS.len() as u64 {
                plan = plan.delay_control(first_req + i, release_at - hold_at);
            }
            driver.cluster_mut().install_fault_plan(plan);
        }
        let rings = driver
            .cluster_mut()
            .mgmt()
            .communicator(COMM)
            .expect("registered")
            .rings
            .clone();
        driver
            .cluster_mut()
            .mgmt()
            .reconfigure(COMM, rings, mccs_core::RouteMap::ecmp());
        if held {
            assert_eq!(driver.held_control(), GPUS.len(), "Reqs must be parked");
        }
        driver.run_until(release_at);
        if held {
            driver.release_control();
        }
        driver
            .run_to_quiescence(Nanos::from_secs(20))
            .expect("must quiesce");
        let epoch = cluster
            .mgmt()
            .communicator(COMM)
            .expect("comm persists")
            .epoch;
        (cluster.observable_digest(), epoch)
    };
    let (held_digest, held_epoch) = run(true);
    let (delayed_digest, delayed_epoch) = run(false);
    assert_eq!(held_epoch, 1, "reconfiguration must converge after release");
    assert_eq!(held_epoch, delayed_epoch);
    assert_eq!(
        held_digest, delayed_digest,
        "hold/release diverged from the equivalent scripted delay"
    );
}

// ---------------------------------------------------------------------------
// Tentpole: seeded interleaving exploration
// ---------------------------------------------------------------------------

fn explorer_config() -> ExplorerConfig {
    ExplorerConfig {
        seed: 0xC0FFEE,
        episodes: 4,
        inject_prob: 0.02,
        max_actions: 3,
        horizon: Nanos::from_millis(60),
        deadline: Nanos::from_secs(60),
    }
}

/// Episodes are seed-deterministic, pass both oracles, and at least one
/// finds a non-trivial interleaving; replaying any recorded decision
/// trace reproduces its digest byte-for-byte.
#[test]
fn explorer_episodes_are_deterministic_and_replayable() {
    let world = four_host("chaos", 7, Bytes::mib(8), 3);
    let mut explorer = Explorer::new(explorer_config(), || world.build());
    let reports = explorer.run();
    assert!(
        reports.iter().any(|r| !r.trace.is_empty()),
        "exploration never injected a fault — decision points starved"
    );
    for r in &reports {
        assert!(
            r.verdict.is_ok(),
            "episode seed {:#x} violated an oracle: {:?} (trace {:?})",
            r.seed,
            r.verdict,
            r.trace
        );
        // Seed determinism: re-running the episode reproduces it.
        let again = explorer.run_episode(r.seed);
        assert_eq!(again.trace, r.trace, "seed {:#x} trace", r.seed);
        assert_eq!(again.digest, r.digest, "seed {:#x} digest", r.seed);
        // Replay from the decision trace alone (no RNG) — twice, to
        // prove the replay itself is byte-stable.
        let replay1 = explorer.replay(r.seed, &r.trace);
        let replay2 = explorer.replay(r.seed, &r.trace);
        assert_eq!(
            replay1.digest, r.digest,
            "replay of seed {:#x} diverged from its recording",
            r.seed
        );
        assert_eq!(replay1.digest, replay2.digest);
        assert_eq!(replay1.verdict, r.verdict);
    }
}

// ---------------------------------------------------------------------------
// Interactive scenario: partition mid-drain
// ---------------------------------------------------------------------------

/// Steer the cluster into the middle of a Figure-4 drain, then cut a
/// rack off — an interleaving a pre-authored script can only hit by
/// luck. After repair, every collective must resolve the same way on
/// every rank.
#[test]
fn partition_mid_drain_resolves_cleanly() {
    let mut cluster = four_host("chaos", 91, Bytes::mib(32), 4).build();
    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(Nanos::from_millis(5));
    let rings = driver
        .cluster_mut()
        .mgmt()
        .communicator(COMM)
        .expect("registered")
        .rings
        .clone();
    driver
        .cluster_mut()
        .mgmt()
        .reconfigure(COMM, rings, mccs_core::RouteMap::ecmp());
    // Step until some rank is draining under the new epoch.
    let mut draining = false;
    while let Some(t) = driver.step() {
        if driver
            .cluster()
            .world
            .comms
            .values()
            .any(|r| r.reconfig.is_draining())
        {
            draining = true;
            break;
        }
        assert!(
            t < Nanos::from_millis(100),
            "reconfiguration never reached the drain phase"
        );
    }
    assert!(draining, "cluster quiesced before draining");

    // Cut the rack of the last two ranks off mid-drain.
    let host = driver.cluster().world.topo.host_of_gpu(GpuId(6));
    let rack = driver.cluster().world.topo.rack_of(host);
    let cut = driver.partition_rack(rack);
    assert!(!cut.is_empty(), "partition cut no links");
    driver.run_for(Nanos::from_millis(20));
    let fixed = driver.repair_rack(rack);
    assert_eq!(fixed.len(), cut.len(), "repair must restore the partition");
    driver
        .run_to_quiescence(Nanos::from_secs(60))
        .expect("partition + repair must still quiesce");

    // Completed-xor-failed across ranks, and nothing left in flight.
    assert_eq!(cluster.world.tenant_log.unfinished(), 0);
    let mut groups: BTreeMap<u64, Vec<bool>> = BTreeMap::new();
    for r in cluster.world.tenant_log.records() {
        groups.entry(r.seq).or_default().push(r.failed);
    }
    assert_eq!(groups.len(), 4, "every collective leaves a record");
    for (seq, flags) in &groups {
        assert_eq!(flags.len(), GPUS.len(), "seq {seq} missing ranks");
        assert!(
            flags.iter().all(|&f| f == flags[0]),
            "seq {seq} split-brained: {flags:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Satellite 1: repair fail-back
// ---------------------------------------------------------------------------

/// After the failed spine is repaired, the recovery engine must issue a
/// restorative reconfiguration: the post-repair pins return to the
/// healthy-fabric choice instead of staying on the detour forever.
#[test]
fn repair_fails_back_to_healthy_routes() {
    let mut cluster = four_host("chaos", 95, Bytes::mib(32), 4).build();
    let domain = cluster.world.topo.switch_links(SPINE0);
    let mut plan = FaultPlan::new();
    for &l in &domain {
        plan = plan.at(Nanos::from_millis(10), FaultEvent::LinkDown(l));
    }
    for &l in &domain {
        plan = plan.at(Nanos::from_millis(120), FaultEvent::LinkUp(l));
    }
    cluster.install_fault_plan(plan);
    cluster.run_until_quiescent(Nanos::from_secs(30));

    let counters = cluster.mgmt().health_counters();
    assert!(
        counters.recoveries > 0,
        "spine-0 outage must force a detour"
    );
    assert!(
        counters.failbacks > 0,
        "repair must trigger a restorative reconfiguration: {counters:?}"
    );
    assert!(
        cluster
            .world
            .health
            .events()
            .iter()
            .any(|e| matches!(e, FailureEvent::FailbackIssued { comm, .. } if *comm == COMM)),
        "no FailbackIssued event recorded"
    );

    // The final pins must be the healthy-fabric choice: exactly what the
    // detour policy proposes on the repaired world.
    let rank = cluster
        .world
        .comms
        .values()
        .find(|r| r.comm == COMM)
        .expect("comm persists");
    let (rings, routes) =
        DetourPolicy::plan(&cluster.world, &rank.config).expect("healthy fabric must yield a plan");
    assert_eq!(rank.config.channel_rings, rings);
    assert_eq!(
        rank.config.routes, routes,
        "post-repair pins are not the healthy-fabric choice"
    );
    // And every pinned route is fully healthy — lowest-id full-weight
    // route per pair, the pre-failure convention.
    for (&(_, src, dst), &r) in rank.config.routes.iter() {
        assert!(cluster.world.net.route_healthy(src, dst, r));
        assert_eq!(
            r,
            RouteId(0),
            "healthy testbed fabric pins the first route on ties"
        );
    }
    assert_eq!(cluster.mgmt().health_counters().collectives_failed, 0);
}

// ---------------------------------------------------------------------------
// Satellite 2: no self-wake on informational events
// ---------------------------------------------------------------------------

/// Publishing an informational event (like the recovery engine's own
/// `RecoveryIssued`) must not re-ready any subscriber: zero additional
/// polls, zero additional wasted polls. An actionable event still wakes.
#[test]
fn informational_events_do_not_wake_subscribers() {
    let s = four_host("chaos", 71, Bytes::mib(8), 2);
    let mut cluster = s.build();
    cluster.install_fault_plan(FaultPlan::new());
    cluster.run_until_quiescent(Nanos::from_secs(20));
    if cluster.naive_scheduler() {
        // The naive oracle polls everything every round by design; the
        // wake-edge property only exists on the wake-driven scheduler.
        return;
    }
    let spine = spine_links(&s)[0];
    let before = cluster.scheduler_stats();
    let now = cluster.now();
    cluster.world.health.record(FailureEvent::RecoveryIssued {
        comm: COMM,
        epoch: 99,
        at: now,
    });
    cluster.run_until(now + Nanos::from_millis(1));
    let mid = cluster.scheduler_stats();
    assert_eq!(
        mid.polls, before.polls,
        "informational event woke a subscriber"
    );
    assert_eq!(
        mid.wasted_polls, before.wasted_polls,
        "informational event caused a wasted poll"
    );

    // Control: an actionable topology event still raises the wake edge.
    let now = cluster.now();
    cluster.world.health.record(FailureEvent::LinkDegraded {
        link: spine,
        milli: 900,
        at: now,
    });
    cluster.run_until(now + Nanos::from_millis(1));
    assert!(
        cluster.scheduler_stats().polls > mid.polls,
        "actionable event failed to wake subscribers"
    );
}

// ---------------------------------------------------------------------------
// Satellite 3: mid-run install semantics
// ---------------------------------------------------------------------------

/// A plan installed mid-run with past-dated events fires them once, at
/// the install instant, and counts the clamp — no fictitious history
/// burst, no silent drop.
#[test]
fn mid_run_install_clamps_past_events_to_now() {
    let s = four_host("chaos", 73, Bytes::mib(8), 3);
    let mut cluster = s.build();
    let install_at = Nanos::from_millis(5);
    cluster.run_until(install_at);
    let spine = spine_links(&s)[0];
    // Scripted for 1ms — already in the past at install time.
    cluster.install_fault_plan(FaultPlan::new().at(
        Nanos::from_millis(1),
        FaultEvent::LinkDegrade {
            link: spine,
            milli: 500,
        },
    ));
    assert_eq!(cluster.world.clamped_fault_events, 1);
    // The event fired immediately at the install instant, not at 1ms.
    assert!(
        cluster.world.health.events().iter().any(|e| matches!(
            e,
            FailureEvent::LinkDegraded { link, milli: 500, at }
                if *link == spine && *at == install_at
        )),
        "clamped event did not fire at the install instant: {:?}",
        cluster.world.health.events()
    );
    assert!(cluster
        .world
        .fault_plan
        .as_ref()
        .expect("plan installed")
        .is_empty());
    cluster.run_until_quiescent(Nanos::from_secs(30));
    assert_eq!(cluster.mgmt().timeline(AppId(0)).len(), 3);
}
