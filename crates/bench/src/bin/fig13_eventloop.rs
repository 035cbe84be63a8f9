//! Figure 13 (extension) — event-loop cost of the wake-driven scheduler.
//!
//! A 128-GPU spine-leaf cluster hosts 16 staggered tenants: each sleeps
//! until its slot, runs a short AllReduce burst, and goes quiet. At any
//! instant ~1–2 tenants are active and the other ~240 engines are parked,
//! which is exactly the regime the ready-set scheduler exists for: the
//! naive oracle polls every engine on every pass regardless, so its cost
//! per sim step is O(world size) while the wake scheduler's is O(ready
//! work).
//!
//! The same workload runs under both schedulers. Observable digests must
//! match (scheduling is not allowed to change behavior); the poll
//! counters then quantify the win:
//!
//! * **step-throughput gain** — naive polls / wake polls to retire the
//!   identical virtual run (each poll is one engine step, so fewer polls
//!   for the same work = proportionally higher step throughput);
//! * **wasted-poll-ratio reduction** — wasted polls *per useful poll*
//!   (both schedulers retire exactly the same useful polls, an invariant
//!   this figure asserts). Normalizing by work keeps the ratio honest:
//!   wasted-over-total saturates at 1.0 on an idle-heavy world, hiding
//!   any improvement behind the naive oracle's 0.999.
//!
//! Both are deterministic (pinned seed, virtual time) and gated by
//! `bench_check`; wall-clock fields are informational only.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig13_eventloop`

use mccs_bench::report::{print_table, write_bench_json};
use mccs_collectives::op::all_reduce_sum;
use mccs_core::{Cluster, ClusterConfig};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
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

/// Acceptance floors (the reason this figure exists).
const MIN_STEP_GAIN: f64 = 5.0;
const MIN_WASTED_REDUCTION: f64 = 10.0;

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

fn rank_program(t: usize, rank: usize, world: &[GpuId]) -> ScriptedProgram {
    let comm = CommunicatorId(1 + t as u64);
    ScriptedProgram::new(
        format!("el-t{t}/r{rank}"),
        vec![
            ScriptStep::Alloc {
                size: SIZE,
                slot: 0,
            },
            ScriptStep::Alloc {
                size: SIZE,
                slot: 1,
            },
            ScriptStep::CommInit {
                comm,
                world: world.to_vec(),
                rank,
            },
            // Staggered slots: while tenant t works, the other 15 idle.
            ScriptStep::SleepUntil(SLOT * (t as u64 + 1)),
            ScriptStep::Collective {
                comm,
                op: all_reduce_sum(),
                size: SIZE,
                send_slot: 0,
                recv_slot: 1,
            },
            ScriptStep::Repeat {
                from_step: 4,
                times: ITERS - 1,
            },
        ],
    )
}

struct RunStats {
    digest: u64,
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

fn run(naive: bool) -> RunStats {
    let mut cluster = Cluster::new(
        Arc::new(spine_leaf(&topology())),
        ClusterConfig::with_seed(SEED),
    );
    cluster.set_naive_scheduler(naive);
    for t in 0..TENANTS {
        let gpus = tenant_gpus(t);
        let ranks = gpus
            .iter()
            .enumerate()
            .map(|(rank, &gpu)| {
                let prog = rank_program(t, rank, &gpus);
                (gpu, Box::new(prog) as Box<dyn AppProgram>)
            })
            .collect();
        cluster.add_app(&format!("el-t{t}"), ranks);
    }
    let t0 = Instant::now();
    cluster.run_until_quiescent(Nanos::from_secs(120));
    let wall_s = t0.elapsed().as_secs_f64();
    for t in 0..TENANTS {
        let tl = cluster.mgmt().timeline(AppId(t as u32));
        assert_eq!(tl.len(), ITERS, "tenant {t} lost collectives");
    }
    let s = cluster.scheduler_stats();
    RunStats {
        digest: cluster.observable_digest(),
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
    println!("== Figure 13 (extension): wake-driven scheduler vs naive poll-all oracle ==");
    println!(
        "cluster: 128 GPUs, {TENANTS} tenants in staggered {} ms slots ({ITERS}x {} AllReduce)\n",
        SLOT.as_secs_f64() * 1e3,
        SIZE,
    );

    let wake = run(false);
    let naive = run(true);
    assert_eq!(
        wake.digest, naive.digest,
        "schedulers must be observably equivalent"
    );
    assert_eq!(
        wake.useful(),
        naive.useful(),
        "identical runs must retire identical useful polls"
    );

    let step_gain = naive.polls as f64 / wake.polls as f64;
    let wasted_reduction = naive.wasted_ratio() / wake.wasted_ratio();

    let headers = [
        "scheduler",
        "polls",
        "wasted_polls",
        "wasted_per_useful",
        "wakes",
        "wall_clock_s",
    ];
    let rows: Vec<Vec<String>> = [("wake", &wake), ("naive", &naive)]
        .iter()
        .map(|(name, s)| {
            vec![
                name.to_string(),
                s.polls.to_string(),
                s.wasted.to_string(),
                format!("{:.4}", s.wasted_ratio()),
                s.wakes.to_string(),
                format!("{:.3}", s.wall_s),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    println!("\nstep-throughput gain (naive polls / wake polls):      {step_gain:.1}x");
    println!("wasted-poll-ratio reduction (wasted per useful poll): {wasted_reduction:.1}x");
    println!(
        "wall-clock: wake {:.3}s vs naive {:.3}s ({:.1}x, machine-dependent)",
        wake.wall_s,
        naive.wall_s,
        naive.wall_s / wake.wall_s
    );

    // The acceptance floors are part of the record: regenerating this
    // figure on a regression fails CI before bench_check even diffs.
    assert!(
        step_gain >= MIN_STEP_GAIN,
        "step-throughput gain {step_gain:.2}x below the {MIN_STEP_GAIN}x floor"
    );
    assert!(
        wasted_reduction >= MIN_WASTED_REDUCTION,
        "wasted-poll-ratio reduction {wasted_reduction:.2}x below the {MIN_WASTED_REDUCTION}x floor"
    );

    write_bench_json(
        "fig13_eventloop",
        &format!(
            "\"gpus\":128,\"tenants\":{TENANTS},\"iters\":{ITERS},\"useful_polls\":{},\
             \"wake\":{{\"polls\":{},\"wasted_polls\":{},\"wasted_per_useful\":{:.6},\"wakes\":{},\"wall_clock_s\":{:.4}}},\
             \"naive\":{{\"polls\":{},\"wasted_polls\":{},\"wasted_per_useful\":{:.6},\"wakes\":{},\"wall_clock_s\":{:.4}}},\
             \"step_throughput_gain\":{step_gain:.4},\"wasted_poll_ratio_reduction\":{wasted_reduction:.4},\
             \"wall_clock_speedup\":{:.4}",
            wake.useful(),
            wake.polls,
            wake.wasted,
            wake.wasted_ratio(),
            wake.wakes,
            wake.wall_s,
            naive.polls,
            naive.wasted,
            naive.wasted_ratio(),
            naive.wakes,
            naive.wall_s,
            naive.wall_s / wake.wall_s,
        ),
    );
}
