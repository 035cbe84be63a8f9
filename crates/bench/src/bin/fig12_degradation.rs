//! Figure 12 (extension) — degradation-aware routing under brownouts.
//!
//! Two interleaved four-host tenants AllReduce over the testbed while
//! spine 0 browns out to a swept fraction of line rate at t=4ms. Each
//! brownout level runs under both degradation policies:
//!
//! * **weighted** — the default [`DegradationPolicy`]: flows rebalance
//!   toward the route with the best estimated max-min share, so a
//!   half-rate spine keeps carrying a proportional load;
//! * **route-around** — the binary policy: any degraded route is
//!   abandoned, piling both tenants onto the survivor where cross-tenant
//!   sharing costs extra.
//!
//! All reported times are **virtual** (deterministic, seed-stable): the
//! record is diffable across runs and machines by design.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig12_degradation`

use mccs_bench::report::{json_rows, print_csv, print_table, write_bench_json};
use mccs_bench::setups::{two_tenant_testbed, SPINE0};
use mccs_core::DegradationPolicy;
use mccs_ipc::AppId;
use mccs_netsim::FaultPlan;
use mccs_sim::{Bytes, Nanos};

const SIZE: Bytes = Bytes::mib(8);
const ITERS: usize = 4;
const SEED: u64 = 61;
const BROWNOUT_AT: Nanos = Nanos::from_millis(4);
/// Remaining capacity fractions swept (per mille): healthy down to 25%.
const LEVELS: [u32; 4] = [1000, 750, 500, 250];

/// One cell of the sweep: makespan and failure-machinery counters for the
/// two-tenant brownout at `milli` remaining capacity under `policy`.
fn run_cell(policy: DegradationPolicy, milli: u32) -> (Nanos, u64, u64) {
    let mut s = two_tenant_testbed(SEED, SIZE, ITERS);
    s.config.service.degradation = policy;
    let domain = s.topo.switch_links(SPINE0);
    s.faults = Some(FaultPlan::new().degrade_group(BROWNOUT_AT, &domain, milli));
    let mut cluster = s.build();
    cluster.run_until_quiescent(Nanos::from_secs(60));
    let mut makespan = Nanos::ZERO;
    for app in [AppId(0), AppId(1)] {
        let tl = cluster.mgmt().timeline(app);
        assert_eq!(tl.len(), ITERS, "brownout sweep lost collectives");
        makespan = makespan.max(tl.last().expect("ran").completed_at.expect("complete"));
    }
    let counters = cluster.mgmt().health_counters();
    assert_eq!(counters.collectives_failed, 0);
    (makespan, counters.flow_rebalances, counters.recoveries)
}

fn main() {
    println!("== Figure 12 (extension): brownout sweep, weighted vs route-around ==\n");
    let policies = [
        ("weighted", DegradationPolicy::default()),
        ("route_around", DegradationPolicy::route_around()),
    ];
    let headers = [
        "capacity_milli",
        "policy",
        "makespan_ms",
        "rebalances",
        "recoveries",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for milli in LEVELS {
        for (name, policy) in policies {
            let (makespan, rebalances, recoveries) = run_cell(policy, milli);
            rows.push(vec![
                milli.to_string(),
                name.to_string(),
                format!("{:.3}", makespan.as_secs_f64() * 1e3),
                rebalances.to_string(),
                recoveries.to_string(),
            ]);
        }
    }
    print_table(&headers, &rows);
    print_csv("fig12_degradation", &headers, &rows);
    write_bench_json(
        "fig12_degradation",
        &format!("\"rows\":{}", json_rows(&headers, &rows)),
    );
}
