//! Determinism gate: run a fixed battery of fault scenarios and print one
//! `scenario=<name> digest=<016x>` line per run. CI executes this binary
//! twice in separate processes (cold and warm) and diffs the output
//! byte-for-byte: any hash-map iteration order, address-dependent hashing,
//! or wall-clock leakage in the fault path shows up as a digest mismatch.
//!
//! The digest is `Cluster::observable_digest`: the full per-rank trace
//! (issue/launch/complete/fail instants and epochs), the failure-event
//! log, and the health counters. Every scenario runs under
//! `Cluster::check_engine_contract`, which panics on an engine whose idle
//! poll changed the world or whose wake was missed and changes nothing
//! else, so the digests are those of an unchecked run.
//!
//! Run: `cargo run --release -p mccs-bench --bin fault_digest`

use mccs_bench::setups::{two_tenant_testbed, SPINE0};
use mccs_core::{DegradationPolicy, Scenario};
use mccs_netsim::{FaultEvent, FaultPlan};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;

/// The battery's world under `policy`.
fn world(seed: u64, size: Bytes, policy: DegradationPolicy) -> Scenario {
    let mut s = two_tenant_testbed(seed, size, 4);
    s.config.service.degradation = policy;
    s
}

fn run(name: &str, mut s: Scenario, plan: FaultPlan) {
    s.faults = Some(plan);
    let mut cluster = s.build();
    cluster.check_engine_contract();
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let digest = cluster.observable_digest();
    println!("scenario={name} digest={digest:016x}");
}

fn main() {
    // 1. Hard spine failure: coalesced recovery plus transport retries.
    let s = world(21, Bytes::mib(16), DegradationPolicy::default());
    let spine = s.topo.switch_links(SPINE0);
    run(
        "spine_down",
        s,
        FaultPlan::new().at(Nanos::from_millis(6), FaultEvent::LinkDown(spine[0])),
    );

    // 2. Correlated 50% brownout under the weighted policy (share-driven
    // rebalancing exercises the degradation-aware route selection).
    let s = world(61, Bytes::mib(8), DegradationPolicy::default());
    let domain = s.topo.switch_links(SPINE0);
    run(
        "brownout_weighted",
        s,
        FaultPlan::new().degrade_group(Nanos::from_millis(4), &domain, 500),
    );

    // 3. Same brownout under binary route-around (recovery-driven drain).
    let s = world(61, Bytes::mib(8), DegradationPolicy::route_around());
    let domain = s.topo.switch_links(SPINE0);
    run(
        "brownout_route_around",
        s,
        FaultPlan::new().degrade_group(Nanos::from_millis(4), &domain, 500),
    );

    // 4. Host crash and restart mid-run plus control-message loss:
    // the gossip resend and barrier-answer paths.
    let s = world(51, Bytes::mib(16), DegradationPolicy::default());
    let host = s.topo.host_of_gpu(GpuId(6));
    run(
        "host_blip_lossy_control",
        s,
        FaultPlan::new()
            .at(Nanos::from_millis(5), FaultEvent::CrashHost(host))
            .at(Nanos::from_millis(9), FaultEvent::RestartHost(host))
            .drop_control(19)
            .drop_control(37),
    );

    // 5. Controller crash mid-drain with checkpointed restart: the
    // spine-0 outage forces a corrective drain at 10ms, the controller
    // dies 200us later with the Figure 4 barrier still propagating,
    // restarts at 40ms from its checkpoint (reconciling the drain whose
    // completion the dead incarnation never observed), and the 120ms
    // repair fails the pins back to the healthy baseline.
    let s = world(95, Bytes::mib(16), DegradationPolicy::default());
    let domain = s.topo.switch_links(SPINE0);
    let mut plan = FaultPlan::new();
    for &l in &domain {
        plan = plan.at(Nanos::from_millis(10), FaultEvent::LinkDown(l));
    }
    for &l in &domain {
        plan = plan.at(Nanos::from_millis(120), FaultEvent::LinkUp(l));
    }
    run(
        "controller_crash_mid_drain",
        s,
        plan.at(Nanos::from_micros(10_200), FaultEvent::CrashController)
            .at(Nanos::from_millis(40), FaultEvent::RestartController),
    );
}
