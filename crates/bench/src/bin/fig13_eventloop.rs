//! Figure 13 (extension) — event-loop cost of the wake-driven scheduler.
//!
//! A 128-GPU spine-leaf cluster hosts 16 staggered tenants: each sleeps
//! until its slot, runs a short AllReduce burst, and goes quiet. At any
//! instant ~1–2 tenants are active and the other ~240 engines are parked,
//! which is exactly the regime the ready-set scheduler exists for: its
//! cost per sim step is O(ready work), not O(world size).
//!
//! The record counts polls, wasted polls (polls that answered `Idle`) and
//! wakes, and the figure asserts a ceiling on **wasted polls per useful
//! poll** — event-loop overhead per unit of retired work. The counters
//! are deterministic (pinned seed, virtual time) and gated by
//! `bench_check`; the wall-clock field is informational only.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig13_eventloop`

use mccs_bench::report::{print_table, write_bench_json};
use mccs_collectives::op::all_reduce_sum;
use mccs_core::{ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Bandwidth, Bytes, Nanos};
use mccs_topology::presets::{spine_leaf, SpineLeafConfig};
use mccs_topology::GpuId;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 13;
const SIZE: Bytes = Bytes::mib(4);
const ITERS: usize = 2;
const TENANTS: usize = 16;
/// Gap between tenant activity slots — the idle heaviness knob.
const SLOT: Nanos = Nanos::from_millis(4);

/// Acceptance ceiling (the reason this figure exists): wasted polls per
/// useful poll.
const MAX_WASTED_PER_USEFUL: f64 = 0.35;

/// 4 spines x 4 leaves x 4 hosts x 8 GPUs = 128 GPUs, oversubscription 8.
fn topology() -> SpineLeafConfig {
    SpineLeafConfig {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 4,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(100.0),
    }
}

/// Tenant `t` owns GPU slot `t % 8` of eight alternating hosts, so every
/// ring crosses hosts (and racks) and exercises proxy + transport + net.
fn tenant_gpus(t: usize) -> Vec<GpuId> {
    (0..8).map(|k| GpuId((k * 16 + t) as u32)).collect()
}

struct RunStats {
    polls: u64,
    wasted: u64,
    wakes: u64,
    wall_s: f64,
}

impl RunStats {
    fn useful(&self) -> u64 {
        self.polls - self.wasted
    }

    /// Wasted polls per useful poll — event-loop overhead per unit of
    /// retired work.
    fn wasted_ratio(&self) -> f64 {
        self.wasted as f64 / self.useful() as f64
    }
}

fn run() -> RunStats {
    let tenants = (0..TENANTS)
        .map(|t| Tenant {
            name: format!("el-t{t}"),
            mode: TenantMode::Service(CommunicatorId(1 + t as u64)),
            gpus: tenant_gpus(t),
            body: vec![Work::Collective {
                op: all_reduce_sum(),
                size: SIZE,
            }],
            iters: ITERS,
            // Staggered slots: while tenant t works, the other 15 idle.
            start: SLOT * (t as u64 + 1),
        })
        .collect();
    let mut cluster = Scenario {
        topo: Arc::new(spine_leaf(&topology())),
        config: ClusterConfig::with_seed(SEED),
        tenants,
        faults: None,
    }
    .build();
    let t0 = Instant::now();
    cluster.run_until_quiescent(Nanos::from_secs(120));
    let wall_s = t0.elapsed().as_secs_f64();
    for t in 0..TENANTS {
        let tl = cluster.mgmt().timeline(AppId(t as u32));
        assert_eq!(tl.len(), ITERS, "tenant {t} lost collectives");
    }
    let s = cluster.scheduler_stats();
    RunStats {
        polls: s.polls,
        wasted: s.wasted_polls,
        wakes: s.wakes,
        wall_s,
    }
}

fn main() {
    let world = topology();
    assert_eq!(
        world.leaves * world.hosts_per_leaf * world.gpus_per_host,
        128
    );
    println!("== Figure 13 (extension): event-loop cost of the wake-driven scheduler ==");
    println!(
        "cluster: 128 GPUs, {TENANTS} tenants in staggered {} ms slots ({ITERS}x {} AllReduce)\n",
        SLOT.as_secs_f64() * 1e3,
        SIZE,
    );

    let wake = run();
    let headers = [
        "useful_polls",
        "polls",
        "wasted_polls",
        "wasted_per_useful",
        "wakes",
        "wall_clock_s",
    ];
    let row = vec![
        wake.useful().to_string(),
        wake.polls.to_string(),
        wake.wasted.to_string(),
        format!("{:.4}", wake.wasted_ratio()),
        wake.wakes.to_string(),
        format!("{:.3}", wake.wall_s),
    ];
    print_table(&headers, &[row]);

    // The acceptance ceiling is part of the record: regenerating this
    // figure on a regression fails CI before bench_check even diffs.
    assert!(
        wake.wasted_ratio() <= MAX_WASTED_PER_USEFUL,
        "{:.3} wasted polls per useful poll, above the {MAX_WASTED_PER_USEFUL} ceiling",
        wake.wasted_ratio()
    );

    write_bench_json(
        "fig13_eventloop",
        &format!(
            "\"gpus\":128,\"tenants\":{TENANTS},\"iters\":{ITERS},\"useful_polls\":{},\
             \"wake\":{{\"polls\":{},\"wasted_polls\":{},\"wasted_per_useful\":{:.6},\"wakes\":{},\"wall_clock_s\":{:.4}}}",
            wake.useful(),
            wake.polls,
            wake.wasted,
            wake.wasted_ratio(),
            wake.wakes,
            wake.wall_s,
        ),
    );
}
