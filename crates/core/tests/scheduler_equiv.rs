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

use mccs_collectives::op::all_reduce_sum;
use mccs_core::{Cluster, ClusterConfig, DegradationPolicy};
use mccs_ipc::CommunicatorId;
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::graph::Endpoint;
use mccs_topology::{presets, GpuId, LinkId, SwitchRole};
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// One rank of an iterated all-reduce job, optionally with an idle phase
/// before the loop (idle ranks are where the two schedulers diverge most:
/// the oracle keeps polling them, the wake scheduler parks them).
fn rank_program(
    name: &str,
    comm: CommunicatorId,
    rank: usize,
    world: &[GpuId],
    size: Bytes,
    iters: usize,
    sleep_until: Option<Nanos>,
) -> ScriptedProgram {
    let mut steps = vec![
        ScriptStep::Alloc { size, slot: 0 },
        ScriptStep::Alloc { size, slot: 1 },
        ScriptStep::CommInit {
            comm,
            world: world.to_vec(),
            rank,
        },
    ];
    if let Some(t) = sleep_until {
        steps.push(ScriptStep::SleepUntil(t));
    }
    let loop_head = steps.len();
    steps.push(ScriptStep::Collective {
        comm,
        op: all_reduce_sum(),
        size,
        send_slot: 0,
        recv_slot: 1,
    });
    if iters > 1 {
        steps.push(ScriptStep::Repeat {
            from_step: loop_head,
            times: iters - 1,
        });
    }
    ScriptedProgram::new(format!("{name}/r{rank}"), steps)
}

struct Tenant {
    name: &'static str,
    comm: CommunicatorId,
    gpus: Vec<GpuId>,
    size: Bytes,
    iters: usize,
    sleep_until: Option<Nanos>,
}

fn build_cluster(seed: u64, policy: DegradationPolicy, tenants: &[Tenant]) -> Cluster {
    let mut cfg = ClusterConfig::with_seed(seed);
    cfg.service.degradation = policy;
    let mut cluster = Cluster::new(Arc::new(presets::testbed()), cfg);
    for t in tenants {
        let ranks = t
            .gpus
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let prog = rank_program(
                    t.name,
                    t.comm,
                    rank,
                    &t.gpus,
                    t.size,
                    t.iters,
                    t.sleep_until,
                );
                (gpu, Box::new(prog) as Box<dyn AppProgram>)
            })
            .collect();
        cluster.add_app(t.name, ranks);
    }
    cluster
}

fn two_tenants(size: Bytes, iters: usize) -> Vec<Tenant> {
    vec![
        Tenant {
            name: "ta",
            comm: CommunicatorId(1),
            gpus: vec![GpuId(0), GpuId(2), GpuId(4), GpuId(6)],
            size,
            iters,
            sleep_until: None,
        },
        Tenant {
            name: "tb",
            comm: CommunicatorId(2),
            gpus: vec![GpuId(1), GpuId(3), GpuId(5), GpuId(7)],
            size,
            iters,
            sleep_until: None,
        },
    ]
}

/// Every link touching the first spine switch.
fn spine0_links(cluster: &Cluster) -> Vec<LinkId> {
    let topo = &cluster.world.topo;
    let spine = topo
        .switches()
        .iter()
        .find(|s| s.role == SwitchRole::Spine)
        .expect("testbed has spines")
        .id;
    topo.links()
        .iter()
        .filter(|l| {
            matches!(l.from, Endpoint::Switch(s) if s == spine)
                || matches!(l.to, Endpoint::Switch(s) if s == spine)
        })
        .map(|l| l.id)
        .collect()
}

/// Run one configuration under one scheduler to quiescence and return the
/// observable digest with the per-step `(clock, useful polls)` fold, plus
/// the wasted-poll count (for efficiency sanity).
fn run_one(
    naive: bool,
    seed: u64,
    policy: DegradationPolicy,
    tenants: &[Tenant],
    plan: Option<&dyn Fn(&Cluster) -> FaultPlan>,
) -> ((u64, u64), u64) {
    let mut cluster = build_cluster(seed, policy, tenants);
    cluster.set_naive_scheduler(naive);
    if let Some(make) = plan {
        let plan = make(&cluster);
        cluster.install_fault_plan(plan);
    }
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
fn assert_equivalent(
    what: &str,
    seed: u64,
    policy: DegradationPolicy,
    tenants: &[Tenant],
    plan: Option<&dyn Fn(&Cluster) -> FaultPlan>,
) {
    let (wake, _) = run_one(false, seed, policy, tenants, plan);
    let (naive, _) = run_one(true, seed, policy, tenants, plan);
    assert_eq!(
        wake, naive,
        "{what}: wake scheduler diverged from naive oracle (seed {seed})"
    );
}

#[test]
fn healthy_workload_digests_match() {
    for seed in [7, 21, 1234] {
        assert_equivalent(
            "healthy",
            seed,
            DegradationPolicy::default(),
            &two_tenants(Bytes::mib(16), 4),
            None,
        );
    }
}

#[test]
fn idle_heavy_workload_digests_match() {
    // One tenant sleeps most of the run: the wake scheduler parks its
    // engines while the oracle keeps polling. Digest must not notice.
    let mut tenants = two_tenants(Bytes::mib(8), 3);
    tenants[1].sleep_until = Some(Nanos::from_millis(40));
    assert_equivalent(
        "idle_heavy",
        42,
        DegradationPolicy::default(),
        &tenants,
        None,
    );
}

#[test]
fn fault_battery_digests_match() {
    // Mirrors the fault_digest determinism battery, scenario for scenario.
    assert_equivalent(
        "spine_down",
        21,
        DegradationPolicy::default(),
        &two_tenants(Bytes::mib(16), 4),
        Some(&|c: &Cluster| {
            FaultPlan::new().at(
                Nanos::from_millis(6),
                FaultEvent::LinkDown(spine0_links(c)[0]),
            )
        }),
    );
    assert_equivalent(
        "brownout_weighted",
        61,
        DegradationPolicy::default(),
        &two_tenants(Bytes::mib(8), 4),
        Some(&|c: &Cluster| {
            FaultPlan::new().degrade_group(Nanos::from_millis(4), &spine0_links(c), 500)
        }),
    );
    assert_equivalent(
        "brownout_route_around",
        61,
        DegradationPolicy::route_around(),
        &two_tenants(Bytes::mib(8), 4),
        Some(&|c: &Cluster| {
            FaultPlan::new().degrade_group(Nanos::from_millis(4), &spine0_links(c), 500)
        }),
    );
    assert_equivalent(
        "host_blip_lossy_control",
        51,
        DegradationPolicy::default(),
        &two_tenants(Bytes::mib(16), 4),
        Some(&|c: &Cluster| {
            let host = c.world.topo.host_of_gpu(GpuId(6));
            FaultPlan::new()
                .at(Nanos::from_millis(5), FaultEvent::CrashHost(host))
                .at(Nanos::from_millis(9), FaultEvent::RestartHost(host))
                .drop_control(19)
                .drop_control(37)
        }),
    );
}

#[test]
fn doubled_run_digest_is_stable() {
    // Two runs in the same process: every `HashMap` in the stack gets a
    // fresh `RandomState` seed on construction, so any digest-visible
    // dependence on hash-iteration order diverges between the two runs.
    // (Cross-process determinism is checked by CI's fault_digest job; this
    // is the in-process analogue that needs no harness support.)
    let tenants = two_tenants(Bytes::mib(16), 4);
    let plan = |c: &Cluster| {
        let host = c.world.topo.host_of_gpu(GpuId(6));
        FaultPlan::new()
            .degrade_group(Nanos::from_millis(4), &spine0_links(c), 500)
            .at(Nanos::from_millis(6), FaultEvent::CrashHost(host))
            .at(Nanos::from_millis(9), FaultEvent::RestartHost(host))
            .drop_control(19)
    };
    let first = run_one(
        false,
        21,
        DegradationPolicy::default(),
        &tenants,
        Some(&plan),
    );
    let second = run_one(
        false,
        21,
        DegradationPolicy::default(),
        &tenants,
        Some(&plan),
    );
    assert_eq!(
        first.0, second.0,
        "doubled run diverged: something digest-visible iterates a HashMap"
    );
}

#[test]
fn wake_scheduler_wastes_fewer_polls() {
    // Not a digest property, but the reason the scheduler exists: on an
    // idle-heavy run the oracle burns polls on parked engines.
    let mut tenants = two_tenants(Bytes::mib(8), 3);
    tenants[0].sleep_until = Some(Nanos::from_millis(30));
    tenants[1].sleep_until = Some(Nanos::from_millis(60));
    let (_, wake_wasted) = run_one(false, 5, DegradationPolicy::default(), &tenants, None);
    let (_, naive_wasted) = run_one(true, 5, DegradationPolicy::default(), &tenants, None);
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
    let tenants = two_tenants(Bytes::mib(64), 1);
    let mut cluster = build_cluster(7, DegradationPolicy::default(), &tenants);
    cluster.set_naive_scheduler(true);
    cluster.install_fault_plan(FaultPlan::new());
    cluster.run_until(Nanos::from_millis(3));
    let launched = |r: &mccs_core::proxy::CommRank| r.inflight.as_ref().is_some_and(|i| i.launched);
    assert!(cluster.world.comms.values().any(launched), "mid-collective");
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
    let mut tenants = two_tenants(Bytes::mib(64), 4);
    tenants.truncate(1);
    let mut cluster = build_cluster(7, DegradationPolicy::default(), &tenants);
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
        let mut tenants = two_tenants(Bytes::mib(mib_a), iters_a);
        tenants[1].size = Bytes::mib(mib_b);
        tenants[1].iters = iters_b;
        tenants[1].sleep_until = sleep_ms.map(Nanos::from_millis);
        let plan = fault_ms.map(|ms| {
            move |c: &Cluster| {
                FaultPlan::new().at(Nanos::from_millis(ms), FaultEvent::LinkDown(spine0_links(c)[0]))
            }
        });
        let plan_ref: Option<&dyn Fn(&Cluster) -> FaultPlan> =
            plan.as_ref().map(|p| p as &dyn Fn(&Cluster) -> FaultPlan);
        let (wake, _) = run_one(false, seed, DegradationPolicy::default(), &tenants, plan_ref);
        let (naive, _) = run_one(true, seed, DegradationPolicy::default(), &tenants, plan_ref);
        prop_assert_eq!(wake, naive, "random workload diverged (seed {})", seed);
    }
}
