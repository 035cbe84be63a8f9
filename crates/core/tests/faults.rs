//! Fault-injection tests: deterministic failure schedules against the
//! full service stack, plus the zero-overhead regression that fault-free
//! runs are byte-identical to a build without fault support.

mod common;

use common::{four_host, hottest_spine_at, spine_links, testbed, two_tenants, COMM, GPUS, SPINE0};
use mccs_core::{Cluster, DegradationPolicy, FailureEvent, HealthDelivery};
use mccs_ipc::AppId;
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{GpuId, LinkId};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Zero-overhead regression
// ---------------------------------------------------------------------------

/// Without a fault plan, no fault machinery runs: the health registry
/// stays untouched and two identical runs produce identical digests.
#[test]
fn fault_free_runs_are_quiet_and_deterministic() {
    let mut a = four_host("faulty", 11, Bytes::mib(16), 3).build();
    a.run_until_quiescent(Nanos::from_secs(5));
    assert!(
        a.world.health.is_quiet(),
        "fault-free run touched the health registry: {:?}",
        a.world.health.counters
    );
    let mut b = four_host("faulty", 11, Bytes::mib(16), 3).build();
    b.run_until_quiescent(Nanos::from_secs(5));
    assert_eq!(a.observable_digest(), b.observable_digest());
}

/// Installing an *empty* plan arms the detection machinery (liveness
/// timers, stall sweeps) but must not change a single observable byte of
/// a healthy run — the "no plan installed ⇒ byte-identical traces"
/// guarantee, tested from the stronger side.
#[test]
fn empty_plan_does_not_perturb_a_healthy_run() {
    let mut bare = four_host("faulty", 12, Bytes::mib(16), 3).build();
    bare.run_until_quiescent(Nanos::from_secs(5));

    let mut armed = four_host("faulty", 12, Bytes::mib(16), 3).build();
    armed.install_fault_plan(FaultPlan::new());
    armed.run_until_quiescent(Nanos::from_secs(5));

    assert!(armed.world.health.is_quiet(), "healthy run recorded events");
    assert_eq!(
        bare.observable_digest(),
        armed.observable_digest(),
        "an inert fault plan changed an observable outcome"
    );
}

// ---------------------------------------------------------------------------
// Scripted failures
// ---------------------------------------------------------------------------

/// The hottest spine dies at 10ms; returns the quiesced run and the link.
fn link_failure_run(seed: u64) -> (Cluster, LinkId) {
    let fault_at = Nanos::from_millis(10);
    let mut s = four_host("faulty", seed, Bytes::mib(32), 4);
    let spine = hottest_spine_at(&s, fault_at);
    s.faults = Some(FaultPlan::new().at(fault_at, FaultEvent::LinkDown(spine)));
    let mut cluster = s.build();
    cluster.run_until_quiescent(Nanos::from_secs(20));
    (cluster, spine)
}

/// The acceptance scenario: one spine dies mid-AllReduce. Flows re-pin to
/// the surviving spine, the recovery engine re-enters the Figure 4 barrier
/// with a corrective config, and every queued collective still completes.
#[test]
fn single_link_failure_recovers_and_completes_everything() {
    let (mut cluster, spine) = link_failure_run(21);
    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), 4, "every collective must complete");
    for r in &cluster.world.trace.records().to_vec() {
        assert!(r.failed_at.is_none(), "cleanly-failed collective: {r:?}");
    }
    let c = cluster.mgmt().communicator(COMM).expect("comm persists");
    assert!(
        c.epoch >= 1,
        "failure must have driven a reconfiguration (epoch {})",
        c.epoch
    );
    let counters = cluster.mgmt().health_counters();
    assert!(counters.flow_retries > 0, "no transport retry recorded");
    assert!(counters.recoveries > 0, "no corrective config issued");
    assert_eq!(counters.collectives_failed, 0);
    assert_eq!(cluster.mgmt().links_down(), vec![spine]);
}

/// Same seed, same plan — same digest, run to run.
#[test]
fn link_failure_recovery_is_deterministic() {
    let (a, _) = link_failure_run(22);
    let (b, _) = link_failure_run(22);
    assert_eq!(a.observable_digest(), b.observable_digest());
}

/// The digest streams each part's `Debug` text into the hasher; it must
/// equal hashing the formatted strings, as it was first computed, on a
/// world whose trace and failure log are both non-trivial.
#[test]
fn the_streamed_digest_equals_the_formatted_one() {
    use std::hash::{DefaultHasher, Hash, Hasher};
    // Every spine link dies for good: the rack-crossing ring has no
    // route left, so recovery runs out and the collectives fail.
    let mut s = four_host("faulty", 41, Bytes::mib(16), 3);
    let mut plan = FaultPlan::new();
    for link in spine_links(&s) {
        plan = plan.at(Nanos::from_millis(6), FaultEvent::LinkDown(link));
    }
    s.faults = Some(plan);
    let mut cluster = s.build();
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let w = &cluster.world;
    let records = w.trace.records();
    assert!(records.iter().any(|r| r.failed_at.is_some()), "{records:?}");
    assert!(!w.health.events().is_empty());
    let mut h = DefaultHasher::new();
    format!("{records:?}").hash(&mut h);
    format!("{:?}", w.health.events()).hash(&mut h);
    format!("{:?}", w.health.counters).hash(&mut h);
    assert_eq!(cluster.observable_digest(), h.finish());
}

/// A lost corrective Req must not wedge the barrier: the rank that never
/// got it learns the new config from its neighbors' gossip (implicit Req)
/// and the reconfiguration still converges.
#[test]
fn dropped_reconfigure_req_converges_via_gossip() {
    let mut cluster = four_host("faulty", 31, Bytes::mib(32), 3).build();
    cluster.run_until(Nanos::from_millis(5));
    // The next 4 control messages are the reconfigure's Reqs; lose one.
    let first_req = cluster.world.control_ordinal();
    cluster.install_fault_plan(FaultPlan::new().drop_control(first_req + 2));
    let info = cluster.mgmt().communicator(COMM).expect("registered");
    let rings = info.rings.clone();
    cluster
        .mgmt()
        .reconfigure(COMM, rings, mccs_core::RouteMap::ecmp());
    cluster.run_until_quiescent(Nanos::from_secs(20));
    let c = cluster.mgmt().communicator(COMM).expect("comm persists");
    assert_eq!(c.epoch, 1, "barrier did not converge after a lost Req");
    assert_eq!(cluster.mgmt().timeline(AppId(0)).len(), 3);
    assert_eq!(cluster.mgmt().health_counters().collectives_failed, 0);
}

/// Crash one participant host mid-run and warm-restart it: the frozen
/// proxies resume with state intact and every collective still completes.
#[test]
fn host_crash_and_restart_completes_all_collectives() {
    let mut cluster = four_host("faulty", 41, Bytes::mib(16), 3).build();
    let host = cluster.world.topo.host_of_gpu(GpuId(6));
    cluster.install_fault_plan(
        FaultPlan::new()
            .at(Nanos::from_millis(6), FaultEvent::CrashHost(host))
            .at(Nanos::from_millis(9), FaultEvent::RestartHost(host)),
    );
    cluster.run_until_quiescent(Nanos::from_secs(20));
    assert!(cluster.mgmt().hosts_down().is_empty());
    assert_eq!(cluster.mgmt().timeline(AppId(0)).len(), 3);
    assert_eq!(cluster.mgmt().health_counters().collectives_failed, 0);
    // The kill-flows-on-crash path must have forced at least one retry.
    assert!(cluster.mgmt().health_counters().flow_retries > 0);
}

// ---------------------------------------------------------------------------
// Brownouts: degradation-aware routing vs binary route-around
// ---------------------------------------------------------------------------

/// Two interleaved four-host tenants; spine 0 browns out to 50% early in
/// the run. Returns the makespan (last completion across both tenants).
fn brownout_run(policy: DegradationPolicy) -> (Nanos, Cluster) {
    // Sized so even the route-around pileup finishes each collective well
    // under the liveness timeout: the comparison measures routing quality,
    // not stall-recovery churn.
    let iters = 4;
    let mut s = testbed(61, two_tenants(Bytes::mib(8), iters));
    s.config.service.degradation = policy;
    let domain = s.topo.switch_links(SPINE0);
    s.faults = Some(FaultPlan::new().degrade_group(Nanos::from_millis(4), &domain, 500));
    let mut cluster = s.build();
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let mut makespan = Nanos::ZERO;
    for app in [AppId(0), AppId(1)] {
        let tl = cluster.mgmt().timeline(app);
        assert_eq!(
            tl.len(),
            iters,
            "brownout lost collectives (policy {policy:?}, counters {:?}, events {:?})",
            cluster.mgmt().health_counters(),
            cluster.world.health.events(),
        );
        makespan = makespan.max(tl.last().expect("ran").completed_at.expect("complete"));
    }
    assert_eq!(cluster.mgmt().health_counters().collectives_failed, 0);
    (makespan, cluster)
}

/// The acceptance scenario for partial degradation: with one spine at
/// half rate, weighted selection keeps carrying a proportional share over
/// the brownout instead of piling both tenants onto the survivor (where
/// cross-tenant sharing costs extra), so the weighted makespan beats
/// binary route-around measurably.
#[test]
fn brownout_weighted_beats_route_around() {
    let (weighted, mut wc) = brownout_run(DegradationPolicy::default());
    let (binary, _) = brownout_run(DegradationPolicy::route_around());
    assert!(
        wc.mgmt().health_counters().flow_rebalances > 0,
        "weighted policy never rebalanced a flow"
    );
    assert!(
        weighted.as_secs_f64() < binary.as_secs_f64() * 0.95,
        "weighted routing should beat route-around under a 50% brownout: \
         weighted {weighted}, route-around {binary}"
    );
}

// ---------------------------------------------------------------------------
// The health push channel (service side)
// ---------------------------------------------------------------------------

/// Degrades and host events reach a subscriber through the bounded push
/// channel, in order and consecutively seq-numbered — and the degraded-
/// link gauge tracks what is still below line rate at quiescence.
#[test]
fn push_channel_delivers_degrade_and_host_events_in_order() {
    let mut cluster = four_host("faulty", 51, Bytes::mib(16), 3).build();
    let mut sub = cluster.mgmt().subscribe_health();
    let spine = cluster.world.topo.switch_links(SPINE0)[0];
    let host = cluster.world.topo.host_of_gpu(GpuId(6));
    cluster.install_fault_plan(
        FaultPlan::new()
            .at(
                Nanos::from_millis(2),
                FaultEvent::LinkDegrade {
                    link: spine,
                    milli: 500,
                },
            )
            .at(Nanos::from_millis(6), FaultEvent::CrashHost(host))
            .at(Nanos::from_millis(9), FaultEvent::RestartHost(host)),
    );
    cluster.run_until_quiescent(Nanos::from_secs(30));

    let HealthDelivery::Events(events) = cluster.mgmt().poll_health(&mut sub) else {
        panic!("a short run must not overflow the channel");
    };
    assert!(!events.is_empty());
    for (i, &(seq, _)) in events.iter().enumerate() {
        assert_eq!(seq, events[0].0 + i as u64, "seq numbers must be gapless");
    }
    assert!(
        events.iter().any(|&(_, e)| matches!(
            e,
            FailureEvent::LinkDegraded { link, milli: 500, .. } if link == spine
        )),
        "degrade never pushed: {events:?}"
    );
    assert!(events
        .iter()
        .any(|&(_, e)| matches!(e, FailureEvent::HostDown { host: h, .. } if h == host)));
    assert!(events
        .iter()
        .any(|&(_, e)| matches!(e, FailureEvent::HostUp { host: h, .. } if h == host)));

    // Fully drained: the next poll is empty, not a resync.
    let HealthDelivery::Events(rest) = cluster.mgmt().poll_health(&mut sub) else {
        panic!("resync after a full drain");
    };
    assert!(rest.is_empty());

    // The gauge reflects the one still-degraded link.
    assert_eq!(cluster.mgmt().links_degraded(), vec![(spine, 0.5)]);
    assert_eq!(cluster.mgmt().health_counters().links_degraded, 1);
}

// ---------------------------------------------------------------------------
// Property: weighted route selection
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted selection never lands on a hard-down route, under any
    /// threshold; `None` only when every route is dead.
    #[test]
    fn weighted_selection_never_picks_a_dead_route(
        weights in proptest::collection::vec(
            prop_oneof![Just(0.0_f64), 0.0_f64..1.0], 1..6),
        key in any::<u64>(),
        threshold in 0.0_f64..1.0,
    ) {
        let policy = DegradationPolicy {
            route_around_below: threshold,
            rebalance_hysteresis: 0.1,
        };
        match policy.select(&weights, key) {
            Some(i) => prop_assert!(
                weights[i] > 0.0,
                "picked dead route {} of {:?}", i, weights
            ),
            None => prop_assert!(weights.iter().all(|&w| w <= 0.0)),
        }
    }

    /// `route_around_below = 1.0` degenerates to the binary behavior:
    /// while any full-rate route exists only full-rate routes are picked,
    /// and with none left the least-degraded survivor is.
    #[test]
    fn threshold_one_degenerates_to_route_around(
        weights in proptest::collection::vec(
            prop_oneof![Just(0.0_f64), Just(1.0_f64), 0.1_f64..0.95], 1..6),
        key in any::<u64>(),
    ) {
        let policy = DegradationPolicy::route_around();
        match policy.select(&weights, key) {
            None => prop_assert!(weights.iter().all(|&w| w <= 0.0)),
            Some(i) if weights.iter().any(|&w| w >= 1.0) => {
                prop_assert_eq!(weights[i], 1.0);
            }
            Some(i) => {
                let best = weights.iter().copied().fold(0.0_f64, f64::max);
                prop_assert_eq!(weights[i], best);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: random fault plans
// ---------------------------------------------------------------------------

/// One randomized fault event: (microseconds, raw selector, kind).
type RawEvent = (u64, usize, u8);

fn build_plan(cluster: &Cluster, events: &[RawEvent], drops: &[u64]) -> FaultPlan {
    let nlinks = cluster.world.topo.links().len();
    let mut plan = FaultPlan::new();
    for &(us, raw, kind) in events {
        let at = Nanos::from_micros(us);
        let link = LinkId((raw % nlinks) as u32);
        plan = match kind % 5 {
            0 => plan.at(at, FaultEvent::LinkDown(link)),
            1 => plan.at(at, FaultEvent::LinkUp(link)),
            2 => plan.at(
                at,
                FaultEvent::LinkDegrade {
                    link,
                    milli: 100 + ((raw as u32 * 7) % 900),
                },
            ),
            3 => plan.at(at, FaultEvent::AbortFlowsOn(link)),
            // Correlated brownout: two links sag in the same instant,
            // exercising coalesced multi-failure recovery.
            _ => {
                let partner = LinkId(((raw / 3 + 1) % nlinks) as u32);
                plan.degrade_group(at, &[link, partner], 100 + ((raw as u32 * 7) % 900))
            }
        };
    }
    for &d in drops {
        plan = plan.drop_control(d);
    }
    plan
}

fn run_random(seed: u64, events: &[RawEvent], drops: &[u64]) -> Cluster {
    let mut cluster = four_host("faulty", seed, Bytes::mib(8), 3).build();
    let plan = build_plan(&cluster, events, drops);
    cluster.install_fault_plan(plan);
    cluster.run_until_quiescent(Nanos::from_secs(30));
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The recovery oracle: under any schedule of link faults and control-
    /// message loss, every launched collective either completes on all
    /// ranks under one agreed epoch, or is cleanly failed to the tenant on
    /// all ranks — and the whole run is deterministic per seed (identical
    /// digests on a replay). `run_until_quiescent` doubles as the deadlock
    /// detector.
    #[test]
    fn random_fault_plans_resolve_every_collective(
        seed in 1_u64..1_000,
        events in proptest::collection::vec((2_000_u64..25_000, 0_usize..1_000, 0_u8..5), 0..6),
        drops in proptest::collection::vec(0_u64..50, 0..3),
    ) {
        let cluster = run_random(seed, &events, &drops);
        // Group every rank's verdict per collective.
        let mut verdicts: BTreeMap<u64, Vec<(usize, Option<u64>, bool)>> = BTreeMap::new();
        for r in cluster.world.trace.records() {
            prop_assert_eq!(r.comm, COMM);
            let completed = r.completed_at.is_some();
            let failed = r.failed_at.is_some();
            prop_assert!(
                completed ^ failed,
                "rank {} seq {} neither completed nor cleanly failed (or both): {:?}",
                r.rank, r.seq, r
            );
            verdicts.entry(r.seq).or_default().push((
                r.rank,
                completed.then_some(r.epoch),
                completed,
            ));
        }
        prop_assert_eq!(verdicts.len(), 3, "every collective leaves a trace");
        for (seq, ranks) in &verdicts {
            prop_assert_eq!(ranks.len(), GPUS.len(), "seq {} missing ranks", seq);
            let all_same_outcome = ranks.iter().all(|&(_, _, c)| c == ranks[0].2);
            prop_assert!(all_same_outcome, "seq {} split-brained: {:?}", seq, ranks);
            if ranks[0].2 {
                let epoch = ranks[0].1;
                prop_assert!(
                    ranks.iter().all(|&(_, e, _)| e == epoch),
                    "seq {} completed under disagreeing epochs: {:?}",
                    seq, ranks
                );
            }
        }
        // Determinism: the same seed and plan replays byte-identically.
        let replay = run_random(seed, &events, &drops);
        prop_assert_eq!(cluster.observable_digest(), replay.observable_digest());
    }
}
