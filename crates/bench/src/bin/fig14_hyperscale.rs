//! Figure 14 (extension) — hyperscale soak: a ≥10k-GPU fat-tree under
//! arrival-process tenant churn.
//!
//! The at-scale study (Figure 11) runs the paper's 768-GPU cluster; this
//! figure is the order-of-magnitude stress of the arena-indexed hot state
//! and the per-component max-min re-solve. A 10,240-GPU spine-leaf fabric
//! (16 spines × 40 leaves × 32 hosts × 8 GPUs) hosts a Poisson arrival
//! process of 16/32-GPU tenants (from `mccs-workloads`, §6.5 parameters
//! scaled down in duration); every arrival and departure is a churn event
//! that re-solves only the sharing components it touches.
//!
//! Three properties are asserted, not just reported:
//!
//! * **no lost collective** — every job's timeline holds all its
//!   iterations;
//! * **poll ceiling** — total engine polls at most twice the useful
//!   ones (a job is polled when something it waits on happened, plus the
//!   trailing idle poll that parks it): machine-independent, and it
//!   catches a job that is polled every step of a 10k-GPU world;
//! * **peak-memory ceiling** — peak live heap, measured by a counting
//!   global allocator. Dense arenas size with the *live* flow window and
//!   the link count, not with total flows ever started.
//!
//! The simulated record (polls, virtual seconds, peak heap) is pinned
//! across commits by `bench_check`.
//!
//! Run: `cargo run --release -p mccs-bench --bin fig14_hyperscale`

use mccs_bench::report::{print_table, write_bench_json};
use mccs_bench::scale::{plan_jobs, scenario, ScaleConfig, ScaleVariant};
use mccs_ipc::AppId;
use mccs_sim::{Bandwidth, Bytes, Nanos};
use mccs_topology::presets::{spine_leaf, SpineLeafConfig};
use mccs_workloads::Placement;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pass-through allocator tracking live and peak heap bytes. Layout sizes
/// are exact and platform-independent, so the peak is as deterministic as
/// the simulation itself and can be regression-gated by `bench_check`.
struct PeakAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_live(live: usize) {
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System`; only maintains relaxed counters.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_live(LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                note_live(LIVE_BYTES.fetch_add(grow, Ordering::Relaxed) + grow);
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Reset the peak to the current live level (so the run's peak excludes
/// world construction's transient high-water mark).
fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

const SEED: u64 = 14;
const JOBS: usize = 96;
const ITERS: usize = 4;
const COLLECTIVE: Bytes = Bytes::mib(8);
const CHANNELS: usize = 2;

/// Poll ceiling, as a multiple of the useful polls: every burst of useful
/// polls ends in one idle poll (poll-until-idle), so 2 is the worst case
/// of a precise wake list; wall-clock is reported, not gated.
const MAX_POLLS_PER_USEFUL: u64 = 2;
/// Peak live heap ceiling. The 10k-GPU world (topology, queues, arenas)
/// plus the live flow window fits comfortably; blowing this means some
/// table started scaling with total-flows-ever or with GPUs², which is
/// exactly what the dense arenas forbid.
const MAX_PEAK_HEAP_MIB: f64 = 256.0;

/// 16 spines × 40 leaves × 32 hosts × 8 GPUs = 10,240 GPUs.
fn topology() -> SpineLeafConfig {
    SpineLeafConfig {
        spines: 16,
        leaves: 40,
        hosts_per_leaf: 32,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(200.0),
    }
}

/// §6.5-style churn, scaled in duration so the soak stays a quick gate:
/// 16/32-GPU jobs, Poisson arrivals, short iterations.
fn workload() -> ScaleConfig {
    ScaleConfig {
        jobs: JOBS,
        mean_gap: Nanos::from_millis(10),
        sizes: vec![16, 32],
        iterations: ITERS,
        collective: COLLECTIVE,
        compute: Nanos::from_millis(2),
        channels: CHANNELS,
        baseline_channels: CHANNELS,
        placement: Placement::Random,
        seed: SEED,
    }
}

struct RunStats {
    polls: u64,
    useful_polls: u64,
    wall_s: f64,
    peak_heap_mib: f64,
    virtual_s: f64,
}

fn run() -> RunStats {
    let topo = Arc::new(spine_leaf(&topology()));
    let cfg = workload();
    let planned = plan_jobs(&topo, &cfg);
    assert_eq!(planned.len(), JOBS, "every job must place");
    let mut cluster = scenario(Arc::clone(&topo), &planned, ScaleVariant::RandomRing, &cfg).build();
    reset_peak();
    let t0 = Instant::now();
    cluster.run_until_quiescent(Nanos::from_secs(3600));
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_heap_mib = PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0);
    for (i, job) in planned.iter().enumerate() {
        let tl = cluster.mgmt().timeline(AppId(i as u32));
        assert_eq!(tl.len(), ITERS, "job {} lost collectives", job.id);
    }
    let sched = cluster.scheduler_stats();
    RunStats {
        polls: sched.polls,
        useful_polls: sched.polls - sched.wasted_polls,
        wall_s,
        peak_heap_mib,
        virtual_s: cluster.now().as_secs_f64(),
    }
}

fn main() {
    let world = topology();
    let gpus = world.leaves * world.hosts_per_leaf * world.gpus_per_host;
    assert!(gpus >= 10_000, "hyperscale means ≥10k GPUs, got {gpus}");
    println!("== Figure 14 (extension): hyperscale soak, {gpus} GPUs under tenant churn ==");
    println!(
        "cluster: {} spines x {} leaves x {} hosts x {} GPUs; {JOBS} Poisson jobs, \
         {ITERS}x {COLLECTIVE} AllReduce each\n",
        world.spines, world.leaves, world.hosts_per_leaf, world.gpus_per_host,
    );

    let stats = run();
    print_table(
        &["polls", "virtual_s", "peak_heap_mib", "wall_clock_s"],
        &[vec![
            stats.polls.to_string(),
            format!("{:.3}", stats.virtual_s),
            format!("{:.1}", stats.peak_heap_mib),
            format!("{:.3}", stats.wall_s),
        ]],
    );
    println!(
        "\npolls: {} for {} useful (ceiling {MAX_POLLS_PER_USEFUL}x)",
        stats.polls, stats.useful_polls
    );
    println!(
        "peak live heap:  {:.1} MiB (ceiling {MAX_PEAK_HEAP_MIB})",
        stats.peak_heap_mib
    );

    // The gates are part of the record: regenerating this figure on a
    // regression fails CI before bench_check even diffs.
    assert!(
        stats.polls <= MAX_POLLS_PER_USEFUL * stats.useful_polls,
        "{} polls for {} useful ones: over the {MAX_POLLS_PER_USEFUL}x ceiling",
        stats.polls,
        stats.useful_polls
    );
    assert!(
        stats.peak_heap_mib <= MAX_PEAK_HEAP_MIB,
        "peak heap {:.1} MiB over the {MAX_PEAK_HEAP_MIB} MiB ceiling",
        stats.peak_heap_mib
    );

    write_bench_json(
        "fig14_hyperscale",
        &format!(
            "\"gpus\":{gpus},\"jobs\":{JOBS},\"iters\":{ITERS},\
             \"polls\":{},\"virtual_s\":{:.6},\"peak_heap_mib\":{:.2},\
             \"wall_clock_s\":{:.4}",
            stats.polls, stats.virtual_s, stats.peak_heap_mib, stats.wall_s,
        ),
    );
}
