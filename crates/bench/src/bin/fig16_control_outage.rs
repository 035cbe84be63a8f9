//! Figure 16 (extension) — controller-outage recovery latency.
//!
//! A four-rank AllReduce tenant loses the whole spine-0 outage domain at
//! the same instant the controller process crashes: the corrective drain
//! can only be issued by the *restarted* controller, after it rebuilds
//! working state from its last checkpoint and reconciles against the
//! health channel. The sweep crosses outage duration with checkpoint
//! cadence and reports the post-restart recovery latency (restart to
//! every rank back in `Normal` under the detour epoch) — the robustness
//! claim is that both axes leave it flat: snapshot resync makes long
//! outages no worse than short ones, and conservative reconciliation
//! makes lazy checkpoints no worse than eager ones.
//!
//! All reported times are **virtual** (deterministic, seed-stable).
//!
//! Run: `cargo run --release -p mccs-bench --bin fig16_control_outage`

use mccs_bench::report::{json_rows, print_csv, print_table, write_bench_json};
use mccs_bench::setups::{two_tenant_testbed, SPINE0};
use mccs_core::{ChaosDriver, Cluster};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;

const SIZE: Bytes = Bytes::mib(8);
const ITERS: usize = 6;
const SEED: u64 = 95;
const COMM: CommunicatorId = CommunicatorId(1);
const GPUS: [GpuId; 4] = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
const FAIL_AT: Nanos = Nanos::from_millis(10);
/// Controller outage durations swept (milliseconds down).
const OUTAGES_MS: [u64; 3] = [5, 20, 80];
/// Checkpoint cadences swept (milliseconds between snapshots).
const CKPTS_MS: [u64; 3] = [1, 5, 50];

/// Whether every rank of the tenant is back in `Normal` at or past the
/// first detour epoch — the end of the post-restart corrective drain.
fn drained(cluster: &Cluster) -> bool {
    let ranks: Vec<_> = cluster
        .world
        .comms
        .values()
        .filter(|r| r.comm == COMM)
        .collect();
    ranks.len() == GPUS.len()
        && ranks
            .iter()
            .all(|r| r.reconfig.is_settled() && r.config.epoch >= 1)
}

/// One cell: crash the controller and down the spine-0 domain at 10ms,
/// restart after `outage`, and measure how long the restarted controller
/// takes to steer the tenant back onto working routes.
fn run_cell(outage: Nanos, ckpt: Nanos) -> Vec<String> {
    // The battery's first tenant alone: `COMM` over `GPUS`.
    let mut s = two_tenant_testbed(SEED, SIZE, ITERS);
    s.tenants.truncate(1);
    s.config.service.controller_checkpoint_interval = ckpt;
    let domain = s.topo.switch_links(SPINE0);
    let mut cluster = s.build();

    let mut driver = ChaosDriver::new(&mut cluster);
    driver.run_until(FAIL_AT);
    // The crash lands first: the engine never sees the link-down burst
    // live — only its restarted incarnation does, via the channel.
    driver.crash_controller();
    for &l in &domain {
        driver.link_down(l);
    }
    let restart_at = FAIL_AT + outage;
    driver.run_until(restart_at);
    driver.restart_controller();
    let recovered_at = loop {
        if drained(driver.cluster()) {
            break driver.now();
        }
        driver
            .step()
            .expect("post-restart recovery must converge before quiescence");
    };
    driver.repair_all();
    driver
        .run_to_quiescence(Nanos::from_secs(60))
        .expect("outage cell must quiesce");

    let tl = cluster.mgmt().timeline(AppId(0));
    assert_eq!(tl.len(), ITERS, "outage sweep lost collectives");
    let makespan = tl.last().expect("ran").completed_at.expect("complete");
    let counters = cluster.mgmt().health_counters();
    assert_eq!(counters.collectives_failed, 0);
    let stats = cluster.mgmt().controller_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.reconciliations, 1);
    assert_eq!(stats.downtime_ns, outage.0);

    let recover = Nanos(recovered_at.0 - restart_at.0);
    vec![
        format!("{:.0}", outage.as_millis_f64()),
        format!("{:.0}", ckpt.as_millis_f64()),
        format!("{:.3}", recover.as_secs_f64() * 1e3),
        format!("{:.3}", makespan.as_secs_f64() * 1e3),
        stats.checkpoints.to_string(),
        counters.recoveries.to_string(),
        counters.failbacks.to_string(),
    ]
}

fn main() {
    println!("== Figure 16 (extension): recovery latency vs controller outage ==\n");
    let headers = [
        "outage_ms",
        "ckpt_ms",
        "recover_ms",
        "makespan_ms",
        "checkpoints",
        "recoveries",
        "failbacks",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for outage_ms in OUTAGES_MS {
        for ckpt_ms in CKPTS_MS {
            rows.push(run_cell(
                Nanos::from_millis(outage_ms),
                Nanos::from_millis(ckpt_ms),
            ));
        }
    }
    print_table(&headers, &rows);
    print_csv("fig16_control_outage", &headers, &rows);
    write_bench_json(
        "fig16_control_outage",
        &format!("\"rows\":{}", json_rows(&headers, &rows)),
    );
}
