//! The engine contract, checked in place: every world here runs under
//! [`Cluster::check_engine_contract`], whose pool panics, naming the
//! engine, when a poll answering `Idle` changed the world, or when an
//! engine left parked at the end of a scheduler call would have worked
//! (a missed wake). Each world also runs unchecked, and the two runs must
//! agree on [`Cluster::observable_digest`] — the full per-rank trace, the
//! failure-event log and the health counters — and, folded in after every
//! step, on the clock and the poll, wasted-poll and wake counts: the
//! checks change nothing and count none of their polls. Debug builds add
//! the pool's re-poll of every `Drained` answer.

mod common;

use common::{allreduce, testbed, two_tenants, COMM, GPUS, SPINE0};
use mccs_collectives::op::all_reduce_sum;
use mccs_core::health::SchedulerStats;
use mccs_core::{DegradationPolicy, Scenario, TrafficWindows, Work};
use mccs_ipc::AppId;
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{GpuId, SwitchId};
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};

/// The two interleaved tenants at `seed` under `policy`. Idle phases
/// (`start > 0`) park a sleeping tenant's engines, which the checked pool
/// then polls at the end of every call.
fn world(seed: u64, policy: DegradationPolicy, size: Bytes, iters: usize) -> Scenario {
    let mut s = testbed(seed, two_tenants(size, iters));
    s.config.service.degradation = policy;
    s
}

/// Run one scenario to quiescence, `checked` or not, and return the
/// observable digest with the per-step `(clock, polls, wasted, wakes)`
/// fold, plus the final scheduler counters.
fn run_one(checked: bool, s: &Scenario) -> ((u64, u64), SchedulerStats) {
    let mut cluster = s.build();
    if checked {
        cluster.check_engine_contract();
    }
    let mut steps = DefaultHasher::new();
    loop {
        let next = cluster.step();
        let stats = cluster.scheduler_stats();
        let counts = (stats.polls, stats.wasted_polls, stats.wakes);
        (cluster.world.clock, counts).hash(&mut steps);
        match next {
            Some(t) => assert!(t <= Nanos::from_secs(120), "still active at {t}"),
            None => break,
        }
    }
    (
        (cluster.observable_digest(), steps.finish()),
        cluster.scheduler_stats(),
    )
}

/// Run a scenario checked, and assert the unchecked run agrees with it
/// step by step.
fn assert_contract_holds(what: &str, s: &Scenario) {
    let checked = run_one(true, s);
    let plain = run_one(false, s);
    assert_eq!(
        checked, plain,
        "{what}: the checks changed the run (seed {})",
        s.config.seed
    );
}

#[test]
fn healthy_workload_digests_match() {
    for seed in [7, 21, 1234] {
        let s = world(seed, DegradationPolicy::default(), Bytes::mib(16), 4);
        assert_contract_holds("healthy", &s);
    }
}

#[test]
fn idle_heavy_workload_digests_match() {
    // One tenant sleeps most of the run with its engines parked: the
    // checked pool polls them at the end of every call.
    let mut s = world(42, DegradationPolicy::default(), Bytes::mib(8), 3);
    s.tenants[1].start = Nanos::from_millis(40);
    assert_contract_holds("idle_heavy", &s);
}

#[test]
fn fault_battery_digests_match() {
    // Mirrors the fault_digest determinism battery, scenario for scenario.
    let mut s = world(21, DegradationPolicy::default(), Bytes::mib(16), 4);
    s.faults = Some(FaultPlan::new().at(
        Nanos::from_millis(6),
        FaultEvent::LinkDown(s.topo.switch_links(SPINE0)[0]),
    ));
    assert_contract_holds("spine_down", &s);
    for (what, policy) in [
        ("brownout_weighted", DegradationPolicy::default()),
        ("brownout_route_around", DegradationPolicy::route_around()),
    ] {
        let mut s = world(61, policy, Bytes::mib(8), 4);
        s.faults = Some(FaultPlan::new().degrade_group(
            Nanos::from_millis(4),
            &s.topo.switch_links(SPINE0),
            500,
        ));
        assert_contract_holds(what, &s);
    }
    let mut s = world(51, DegradationPolicy::default(), Bytes::mib(16), 4);
    let host = s.topo.host_of_gpu(GpuId(6));
    s.faults = Some(
        FaultPlan::new()
            .at(Nanos::from_millis(5), FaultEvent::CrashHost(host))
            .at(Nanos::from_millis(9), FaultEvent::RestartHost(host))
            .drop_control(19)
            .drop_control(37),
    );
    assert_contract_holds("host_blip_lossy_control", &s);
}

#[test]
fn doubled_run_digest_is_stable() {
    // Two runs in the same process: every `HashMap` in the stack gets a
    // fresh `RandomState` seed on construction, so any digest-visible
    // dependence on hash-iteration order diverges between the two runs.
    // (Cross-process determinism is checked by CI's fault_digest job; this
    // is the in-process analogue that needs no harness support.)
    let mut s = world(21, DegradationPolicy::default(), Bytes::mib(16), 4);
    let host = s.topo.host_of_gpu(GpuId(6));
    s.faults = Some(
        FaultPlan::new()
            .degrade_group(Nanos::from_millis(4), &s.topo.switch_links(SPINE0), 500)
            .at(Nanos::from_millis(6), FaultEvent::CrashHost(host))
            .at(Nanos::from_millis(9), FaultEvent::RestartHost(host))
            .drop_control(19),
    );
    let first = run_one(false, &s);
    let second = run_one(false, &s);
    assert_eq!(
        first.0, second.0,
        "doubled run diverged: something digest-visible iterates a HashMap"
    );
}

#[test]
fn an_idle_heavy_run_wastes_few_polls() {
    // Not a digest property, but the reason the pool parks engines: two
    // tenants that sleep for most of the run cost polls only when woken.
    let mut s = world(5, DegradationPolicy::default(), Bytes::mib(8), 3);
    s.tenants[0].start = Nanos::from_millis(30);
    s.tenants[1].start = Nanos::from_millis(60);
    let (_, stats) = run_one(false, &s);
    // At most one wasted poll per four useful ones.
    let useful = stats.polls - stats.wasted_polls;
    assert!(
        stats.wasted_polls * 4 <= useful,
        "{} wasted polls for {useful} useful ones",
        stats.wasted_polls
    );
}

#[test]
fn idle_polls_leave_the_event_queue_alone() {
    // An idle poll has no observable effect, a pending timer included.
    // The checked pool polls every parked engine at the end of every
    // call, so re-polling at one instant must not grow the event queue —
    // here with proxies holding a launched collective under an installed
    // plan (liveness timer armed).
    let mut s = world(7, DegradationPolicy::default(), Bytes::mib(64), 1);
    s.faults = Some(FaultPlan::new());
    let mut cluster = s.build();
    cluster.check_engine_contract();
    cluster.run_until(Nanos::from_millis(3));
    let launched =
        |r: &mccs_core::proxy::CommRank| r.inflight.as_ref().is_some_and(|i| i.progress.is_some());
    assert!(cluster.world.comms.values().any(launched), "mid-collective");
    let pending = cluster.world.events.len();
    for _ in 0..3 {
        cluster.poll_once();
    }
    assert_eq!(cluster.world.events.len(), pending);
}

#[test]
fn two_window_schedules_on_one_nic_arm_one_wake() {
    // Two tenants share every GPU and NIC, each gated by its own traffic
    // windows, so every transport holds two schedules whose boundaries
    // differ. An idle poll re-arms the earliest boundary only when it
    // moved: re-polling at one instant must not grow the event queue.
    let ms = Nanos::from_millis;
    let mut s = testbed(7, two_tenants(Bytes::mib(64), 4));
    s.tenants[1].gpus = GPUS.to_vec();
    let mut cluster = s.build();
    cluster.check_engine_contract();
    for (app, offset) in [(AppId(0), ms(0)), (AppId(1), Nanos::from_micros(300))] {
        let windows = TrafficWindows::single(ms(1), offset, Nanos::from_micros(500))
            .expect("a valid schedule");
        cluster
            .mgmt()
            .set_traffic_windows(app, Some(windows))
            .expect("accepted");
    }
    cluster.run_until(ms(3));
    assert!(
        cluster.world.comms.values().any(|r| r.inflight.is_some()),
        "mid-collective"
    );
    let pending = cluster.world.events.len();
    for _ in 0..3 {
        cluster.poll_once();
    }
    assert_eq!(cluster.world.events.len(), pending);
}

#[test]
fn a_sleeping_program_arms_its_wake_once() {
    // The checked pool polls the parked sleeper at the end of every call
    // while the busy tenant works beside it; its `SleepUntil` arms one
    // timer for its endpoint on the first blocked poll and none on the
    // rest.
    let mut s = world(7, DegradationPolicy::default(), Bytes::mib(64), 4);
    s.tenants.truncate(1);
    let mut cluster = s.build();
    let wake_at = Nanos::from_millis(5);
    let sleeper = ScriptedProgram::new("sleeper", vec![ScriptStep::SleepUntil(wake_at)]);
    cluster.add_app(
        "sleeper",
        vec![(GpuId(1), Box::new(sleeper) as Box<dyn AppProgram>)],
    );
    cluster.check_engine_contract();
    // Each run ends with at least one scheduler call, and so one sweep.
    for i in 1..=300 {
        cluster.run_until(Nanos::from_micros(10 * i));
    }
    // The busy tenant's four ranks hold endpoints 0..4.
    let endpoint = mccs_core::world::resources::endpoint_comp(4);
    let mut timers = Vec::new();
    while let Some((at, r)) = cluster.world.events.pop() {
        if r == endpoint {
            timers.push(at);
        }
    }
    assert_eq!(timers, vec![wake_at]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random two-tenant workloads — sizes, iteration counts, idle phases
    /// and an optional link failure all randomized — keep the contract,
    /// and run the same checked as unchecked.
    #[test]
    fn random_workloads_digest_equal(
        seed in 0u64..1_000_000,
        ta in (1u64..24, 1usize..5),
        tb in (1u64..24, 1usize..5),
        sleep_ms in proptest::option::of(1u64..80),
        fault_ms in proptest::option::of(2u64..40),
    ) {
        let (mib_a, iters_a) = ta;
        let (mib_b, iters_b) = tb;
        let mut s = world(seed, DegradationPolicy::default(), Bytes::mib(mib_a), iters_a);
        s.tenants[1].body = vec![Work::Collective { op: all_reduce_sum(), size: Bytes::mib(mib_b) }];
        s.tenants[1].iters = iters_b;
        s.tenants[1].start = sleep_ms.map_or(Nanos::ZERO, Nanos::from_millis);
        s.faults = fault_ms.map(|ms| {
            FaultPlan::new().at(Nanos::from_millis(ms), FaultEvent::LinkDown(s.topo.switch_links(SPINE0)[0]))
        });
        prop_assert_eq!(run_one(true, &s), run_one(false, &s), "seed {}", seed);
    }
}

#[test]
fn retries_with_nowhere_to_go_keep_the_contract() {
    // Both spines down for good: every route between the two racks is
    // dead, so each retry of a stalled cross-rack flow finds no route,
    // burns an attempt and re-arms its timer (or, with the budget spent,
    // fails the collective) in a poll that does nothing else.
    let mut s = testbed(
        3,
        vec![allreduce(
            "cut",
            COMM,
            &[GpuId(0), GpuId(4)],
            Bytes::mib(64),
            1,
        )],
    );
    let spines = [SPINE0, SwitchId(1)].map(|sw| s.topo.switch_links(sw));
    let plan = spines.iter().flatten().fold(FaultPlan::new(), |plan, &l| {
        plan.at(Nanos::from_millis(1), FaultEvent::LinkDown(l))
    });
    s.faults = Some(plan);
    let mut cluster = s.build();
    cluster.check_engine_contract();
    cluster.run_until_quiescent(Nanos::from_secs(10));
    let counters = cluster.world.health.counters;
    assert_eq!(counters.flow_retries, 0, "no retry found a route");
    assert!(counters.flow_failures > 0, "{counters:?}");
}
