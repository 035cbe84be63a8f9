//! What a collective's history costs: the service keeps a trace row per
//! rank and a tenant-log row per endpoint for every collective of the
//! run, so those rows are most of the heap that grows with the run's
//! length. A row pair is 48 + 32 = 80 bytes; a world that runs twice the
//! collectives may grow by at most 2 × 80 bytes per added
//! rank-collective, which leaves room for the per-collective progress
//! entry (`ProgressTable`, shared by the ranks). The collective counts
//! are powers of two, so every history `Vec` doubles exactly once
//! between the two worlds and measures its rows without growth slack.
//!
//! The counting allocator sees every thread of this test binary, so the
//! file holds one test.

use mccs::collectives::op::all_reduce_sum;
use mccs::ipc::CommunicatorId;
use mccs::service::{ClusterConfig, Scenario, Tenant, TenantMode, Work};
use mccs::sim::{Bytes, Nanos};
use mccs::topology::{presets, GpuId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RANKS: usize = 4;

/// Heap bytes a quiesced testbed world holds after one four-rank tenant
/// ran `iters` AllReduces through the service.
fn held_after(iters: usize) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let mut cluster = Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(5),
        tenants: vec![Tenant {
            name: "history".to_owned(),
            mode: TenantMode::Service(CommunicatorId(1)),
            gpus: (0..RANKS as u32).map(|g| GpuId(2 * g)).collect(),
            body: vec![Work::Collective {
                op: all_reduce_sum(),
                size: Bytes::kib(64),
            }],
            iters,
            start: Nanos::ZERO,
        }],
        faults: None,
    }
    .build();
    cluster.run_until_quiescent(Nanos::from_secs(60));
    assert_eq!(cluster.world.trace.len(), iters * RANKS, "one row per rank");
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(cluster);
    held
}

#[test]
fn a_rank_collective_costs_at_most_twice_its_two_history_rows() {
    let n = 256;
    let (short, long) = (held_after(n), held_after(2 * n));
    let added = n * RANKS;
    let per_rank_collective = long.saturating_sub(short) as f64 / added as f64;
    println!("{added} more rank-collectives: {per_rank_collective:.1} B each");
    assert!(
        per_rank_collective <= 2.0 * 80.0,
        "{added} more rank-collectives held {} more bytes: {per_rank_collective:.1} B each",
        long.saturating_sub(short)
    );
    assert!(
        per_rank_collective >= 80.0,
        "the rows are held: {per_rank_collective:.1} B each"
    );
}
