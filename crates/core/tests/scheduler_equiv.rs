//! Scheduler-equivalence gate: the wake-driven ready-set scheduler must be
//! observably indistinguishable from the naive poll-everyone-until-
//! quiescent oracle ([`Cluster::set_naive_scheduler`]). Every scenario
//! runs twice — once per scheduler — and compares
//! [`Cluster::observable_digest`] byte-for-byte: the full per-rank trace,
//! the failure-event log, and the health counters — and, folded in after
//! every step, the clock and the useful polls so far: a wake that arrives
//! late moves useful work to a later instant and is caught there, even
//! when the final digest would have come out the same. Wasted polls stay
//! outside the comparison (they differ by design — that difference is the
//! whole point of the wake scheduler).
//!
//! CI additionally re-runs the entire core fault battery under
//! `MCCS_SIM_NAIVE_POOL=1` in the oracle-equivalence job, so the naive
//! path keeps exercising every assertion the wake path does.

mod common;

use common::{testbed, two_tenants, GPUS, SPINE0};
use mccs_core::{DegradationPolicy, Scenario, TrafficWindows};
use mccs_ipc::AppId;
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};

/// The two interleaved tenants at `seed` under `policy`. Idle phases
/// (`start > 0`) are where the two schedulers diverge most: the oracle
/// keeps polling a sleeping tenant, the wake scheduler parks it.
fn world(seed: u64, policy: DegradationPolicy, size: Bytes, iters: usize) -> Scenario {
    let mut s = testbed(seed, two_tenants(size, iters));
    s.config.service.degradation = policy;
    s
}

/// Run one scenario under one scheduler to quiescence and return the
/// observable digest with the per-step `(clock, useful polls)` fold, plus
/// the wasted-poll count (for efficiency sanity).
fn run_one(naive: bool, s: &Scenario) -> ((u64, u64), u64) {
    let mut cluster = s.build();
    cluster.set_naive_scheduler(naive);
    let mut steps = DefaultHasher::new();
    loop {
        let next = cluster.step();
        let stats = cluster.scheduler_stats();
        (cluster.world.clock, stats.polls - stats.wasted_polls).hash(&mut steps);
        match next {
            Some(t) => assert!(t <= Nanos::from_secs(120), "still active at {t}"),
            None => break,
        }
    }
    (
        (cluster.observable_digest(), steps.finish()),
        cluster.scheduler_stats().wasted_polls,
    )
}

/// Assert wake and naive schedulers agree on a scenario, step by step.
fn assert_equivalent(what: &str, s: &Scenario) {
    let (wake, _) = run_one(false, s);
    let (naive, _) = run_one(true, s);
    assert_eq!(
        wake, naive,
        "{what}: wake scheduler diverged from naive oracle (seed {})",
        s.config.seed
    );
}

#[test]
fn healthy_workload_digests_match() {
    for seed in [7, 21, 1234] {
        let s = world(seed, DegradationPolicy::default(), Bytes::mib(16), 4);
        assert_equivalent("healthy", &s);
    }
}

#[test]
fn idle_heavy_workload_digests_match() {
    // One tenant sleeps most of the run: the wake scheduler parks its
    // engines while the oracle keeps polling. Digest must not notice.
    let mut s = world(42, DegradationPolicy::default(), Bytes::mib(8), 3);
    s.tenants[1].start = Nanos::from_millis(40);
    assert_equivalent("idle_heavy", &s);
}

#[test]
fn fault_battery_digests_match() {
    // Mirrors the fault_digest determinism battery, scenario for scenario.
    let mut s = world(21, DegradationPolicy::default(), Bytes::mib(16), 4);
    s.faults = Some(FaultPlan::new().at(
        Nanos::from_millis(6),
        FaultEvent::LinkDown(s.topo.switch_links(SPINE0)[0]),
    ));
    assert_equivalent("spine_down", &s);
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
        assert_equivalent(what, &s);
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
    assert_equivalent("host_blip_lossy_control", &s);
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
fn wake_scheduler_wastes_fewer_polls() {
    // Not a digest property, but the reason the scheduler exists: on an
    // idle-heavy run the oracle burns polls on parked engines.
    let mut s = world(5, DegradationPolicy::default(), Bytes::mib(8), 3);
    s.tenants[0].start = Nanos::from_millis(30);
    s.tenants[1].start = Nanos::from_millis(60);
    let (_, wake_wasted) = run_one(false, &s);
    let (_, naive_wasted) = run_one(true, &s);
    assert!(
        wake_wasted * 2 < naive_wasted,
        "wake scheduler should waste well under half the oracle's polls \
         (wake {wake_wasted} vs naive {naive_wasted})"
    );
}

#[test]
fn idle_polls_leave_the_event_queue_alone() {
    // An idle poll has no observable effect, a pending timer included.
    // The oracle polls every engine on every call, so re-polling at one
    // instant must not grow the event queue — here with proxies holding a
    // launched collective under an installed plan (liveness timer armed).
    let mut s = world(7, DegradationPolicy::default(), Bytes::mib(64), 1);
    s.faults = Some(FaultPlan::new());
    let mut cluster = s.build();
    cluster.set_naive_scheduler(true);
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
    cluster.set_naive_scheduler(true);
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
    // The oracle polls the sleeper on every pass while the busy tenant
    // works beside it; its `SleepUntil` arms one timer for its endpoint on
    // the first blocked poll and none on the rest.
    let mut s = world(7, DegradationPolicy::default(), Bytes::mib(64), 4);
    s.tenants.truncate(1);
    let mut cluster = s.build();
    let wake_at = Nanos::from_millis(5);
    let sleeper = ScriptedProgram::new("sleeper", vec![ScriptStep::SleepUntil(wake_at)]);
    cluster.add_app(
        "sleeper",
        vec![(GpuId(1), Box::new(sleeper) as Box<dyn AppProgram>)],
    );
    cluster.set_naive_scheduler(true);
    cluster.run_until(Nanos::from_millis(3));
    assert!(
        cluster.scheduler_stats().wasted_polls > 100,
        "the sleeper was re-polled"
    );
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
    /// and an optional link failure all randomized — always produce the
    /// same observable digest under both schedulers.
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
        s.tenants[1].size = Bytes::mib(mib_b);
        s.tenants[1].iters = iters_b;
        s.tenants[1].start = sleep_ms.map_or(Nanos::ZERO, Nanos::from_millis);
        s.faults = fault_ms.map(|ms| {
            FaultPlan::new().at(Nanos::from_millis(ms), FaultEvent::LinkDown(s.topo.switch_links(SPINE0)[0]))
        });
        let (wake, _) = run_one(false, &s);
        let (naive, _) = run_one(true, &s);
        prop_assert_eq!(wake, naive, "random workload diverged (seed {})", seed);
    }
}
