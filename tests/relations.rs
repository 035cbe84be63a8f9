//! Metamorphic relations over whole worlds: two runs that differ by a
//! transform the service must not notice produce the same per-tenant
//! traces, through shim, frontend, proxy, transport and netsim.
//!
//! * **R1, tenant independence.** A tenant added *last*, on GPUs and
//!   links disjoint from tenant 0's, leaves tenant 0's trace
//!   bit-identical. Precondition: IPC jitter 0. Every IPC hop draws its
//!   latency from the one world RNG in poll order, so at the default
//!   jitter the newcomer's messages shift tenant 0's samples; that
//!   coupling is a known deviation (EXPERIMENTS.md), not something this
//!   relation hides. Adding the newcomer last keeps tenant 0's `AppId`
//!   and its endpoints' RNG forks unchanged.
//! * **R2, relabelling.** Moving a tenant to another placement of the
//!   same shape — a translation that keeps rank order, host sharing and
//!   rack crossings — leaves every trace identical, at jitter 0 and at the
//!   default jitter alike.
//!
//! * **R3, capacity scaling.** Scaling every link capacity by `c` scales
//!   the network-bound part of each collective's latency by `1/c` and
//!   leaves the rest (IPC hops, launch overheads) alone, so with `L_c`
//!   the latency at scale `c`, `L_1 − L_2 = 2·(L_2 − L_4)`: the fixed
//!   terms cancel without being named. Preconditions: one GPU per host,
//!   so every ring edge is a network flow and no intra-host copy (which
//!   does not scale with the fabric) joins the sum; IPC jitter 0. Holds
//!   for the service and the library alike.
//! * **R5, the service's surcharge.** The same tenant run by the service
//!   and by the NCCL-like library given the service's default rings
//!   (NCCL(OR)-style) differs, per collective, by the IPC path alone:
//!   command + engine hop + completion − the library's launch overhead,
//!   plus one more engine hop (proxy → transport) when every task is
//!   inter-host. With intra- and inter-host tasks the surcharge lies
//!   between the two, because the service starts its intra-host tasks one
//!   hop before the inter-host ones and the transport hop can hide behind
//!   them. Preconditions: IPC jitter 0, and one route per NIC pair (one
//!   rack, or one spine), so the two modes' connection hashes cannot pick
//!   different paths.
//!
//! R1 and R2 have a live break: a transform that does change what the
//! service sees (sharing tenant 0's GPUs, packing two ranks onto one
//! host) must change the trace, so the relation is known to detect it.
//! R5 is an identity in the IPC constants: one more engine hop, or no
//! launch overhead, moves it by exactly 10 µs. R3 fails for a per-flow
//! rate cap that binds at some scales and not at others; a fixed delay
//! per flow is one more fixed term, which R3 rightly lets pass.
//!
//! Run: `cargo test --test relations`

use mccs::collectives::op::all_reduce_sum;
use mccs::collectives::{CollectiveOp, ReduceKind};
use mccs::ipc::{AppId, CommunicatorId, COMPLETION_LATENCY, ENGINE_HOP_LATENCY};
use mccs::service::{
    ClusterConfig, CollectiveConfig, LibraryConfig, RingChoice, Scenario, Tenant, TenantMode, Work,
};
use mccs::sim::{Bandwidth, Bytes, Nanos};
use mccs::topology::presets::{self, SpineLeafConfig};
use mccs::topology::GpuId;
use std::sync::Arc;

const DEADLINE: Nanos = Nanos::from_secs(30);

fn gpus(ids: &[u32]) -> Vec<GpuId> {
    ids.iter().copied().map(GpuId).collect()
}

/// Three 16 MiB AllReduces over `gpus` on communicator `comm`.
fn tenant(name: &str, comm: u64, gpus: Vec<GpuId>) -> Tenant {
    Tenant {
        name: name.to_owned(),
        mode: TenantMode::Service(CommunicatorId(comm)),
        gpus,
        body: vec![Work::Collective {
            op: all_reduce_sum(),
            size: Bytes::mib(16),
        }],
        iters: 3,
        start: Nanos::ZERO,
    }
}

/// Tenant "a" alone on the testbed (2 racks x 2 hosts x 2 GPUs; host
/// `h` owns GPUs `2h` and `2h + 1`).
fn testbed(a: &[u32]) -> Scenario {
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(5),
        tenants: vec![tenant("a", 1, gpus(a))],
        faults: None,
    }
}

/// Tenant "a" alone on 128 GPUs: 4 spines x 4 leaves x 4 hosts x 8 GPUs
/// at 200G, so GPU `32 r + 8 h + s` is slot `s` of host `h` in rack `r`.
fn fabric128(a: &[u32]) -> Scenario {
    let topo = presets::spine_leaf(&SpineLeafConfig {
        spines: 4,
        leaves: 4,
        hosts_per_leaf: 4,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(200.0),
        leaf_spine_bandwidth: Bandwidth::gbps(200.0),
    });
    Scenario {
        topo: Arc::new(topo),
        config: ClusterConfig::with_seed(5),
        tenants: vec![tenant("a", 1, gpus(a))],
        faults: None,
    }
}

/// Slot `slot` of every host in rack `rack` of the 128-GPU fabric.
fn rack_slot(rack: u32, slot: u32) -> Vec<u32> {
    (0..4).map(|host| 32 * rack + 8 * host + slot).collect()
}

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

/// IPC latencies at their base values: no hop draws from the world RNG.
fn without_jitter(mut s: Scenario) -> Scenario {
    s.config.ipc.jitter_frac = 0.0;
    s
}

/// Append tenant "b" on `b`, starting at `start`.
fn add_last(mut s: Scenario, b: &[u32], start: Nanos) -> Scenario {
    s.tenants.push(Tenant {
        start,
        ..tenant("b", 2, gpus(b))
    });
    s
}

/// Move tenant 0's rank `r` to `to[r]`.
fn relabel(mut s: Scenario, to: &[u32]) -> Scenario {
    assert_eq!(to.len(), s.tenants[0].gpus.len(), "relabelling keeps ranks");
    s.tenants[0].gpus = gpus(to);
    s
}

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

/// Run `s`, checking every collective of every tenant completed.
fn traces(s: &Scenario) -> Vec<Vec<mccs::service::TraceRecord>> {
    let record = s.run(DEADLINE);
    for (t, trace) in s.tenants.iter().zip(&record.traces) {
        assert_eq!(
            trace.len(),
            t.gpus.len() * t.iters,
            "{} lost records",
            t.name
        );
        assert!(trace.iter().all(|r| r.completed_at.is_some()));
    }
    record.traces
}

/// R1: whether tenant "b" on `b` from `start`, added last, leaves tenant
/// 0's trace bit-identical.
fn independent(s: &Scenario, b: &[u32], start: Nanos) -> bool {
    traces(s)[0] == traces(&add_last(s.clone(), b, start))[0]
}

/// R2: whether moving tenant 0 to `to` leaves every trace identical.
fn relabelling_invariant(s: &Scenario, to: &[u32]) -> bool {
    traces(s) == traces(&relabel(s.clone(), to))
}

#[test]
fn r1_a_disjoint_tenant_added_last_leaves_the_first_untouched() {
    let s = without_jitter(testbed(&[0, 2]));
    // The other rack, from the start and mid-run.
    assert!(independent(&s, &[4, 6], Nanos::ZERO));
    assert!(independent(&s, &[4, 6], Nanos::from_micros(333)));
    // The same hosts and leaf, the other NIC of each host.
    assert!(independent(&s, &[1, 3], Nanos::ZERO));

    let s = without_jitter(fabric128(&rack_slot(0, 0)));
    assert!(independent(&s, &rack_slot(1, 0), Nanos::ZERO));
}

#[test]
fn r1_breaks_when_the_newcomer_shares_the_first_tenants_gpus() {
    let s = without_jitter(testbed(&[0, 2]));
    assert!(!independent(&s, &[0, 2], Nanos::ZERO));
    let s = without_jitter(fabric128(&rack_slot(0, 0)));
    assert!(!independent(&s, &rack_slot(0, 0), Nanos::ZERO));
}

#[test]
fn r2_translating_a_placement_leaves_the_traces_identical() {
    for jitter in [false, true] {
        let world = |s: Scenario| if jitter { s } else { without_jitter(s) };
        // Within a rack, to the other rack and to the other NICs.
        let s = world(testbed(&[0, 2]));
        assert!(relabelling_invariant(&s, &[4, 6]), "jitter {jitter}");
        assert!(relabelling_invariant(&s, &[1, 3]), "jitter {jitter}");
        // Across the racks.
        let s = world(testbed(&[0, 4]));
        assert!(relabelling_invariant(&s, &[2, 6]), "jitter {jitter}");
        assert!(relabelling_invariant(&s, &[1, 5]), "jitter {jitter}");
        let s = world(fabric128(&rack_slot(0, 0)));
        assert!(
            relabelling_invariant(&s, &rack_slot(1, 3)),
            "jitter {jitter}"
        );
    }
}

#[test]
fn r2_reversing_rank_order_keeps_the_sorted_trace_at_jitter_zero() {
    let s = without_jitter(testbed(&[0, 2]));
    assert!(relabelling_invariant(&s, &[2, 0]));
}

#[test]
fn r2_breaks_when_the_ranks_move_onto_one_host() {
    let s = without_jitter(testbed(&[0, 2]));
    assert!(!relabelling_invariant(&s, &[0, 1]));
}

// ---------------------------------------------------------------------------
// R3: capacity scaling
// ---------------------------------------------------------------------------

/// Two spines over two racks of two hosts with one GPU each, every
/// capacity `scale` times 50G NICs and 100G leaf-spine links.
fn one_gpu_per_host(scale: f64) -> Scenario {
    let topo = presets::spine_leaf(&SpineLeafConfig {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 2,
        gpus_per_host: 1,
        nic_bandwidth: Bandwidth::gbps(50.0 * scale),
        leaf_spine_bandwidth: Bandwidth::gbps(100.0 * scale),
    });
    Scenario {
        topo: Arc::new(topo),
        ..testbed(&[0, 1, 2, 3])
    }
}

/// Tenant 0's latency per collective: at the tenant for the service, on
/// its timeline for the library.
fn latencies(s: &Scenario) -> Vec<Nanos> {
    let mut cluster = s.build();
    cluster.run_until_quiescent(DEADLINE);
    let latencies: Vec<Nanos> = match s.tenants[0].mode {
        TenantMode::Service(_) => cluster
            .mgmt()
            .tenant_latencies(AppId(0))
            .into_iter()
            .map(|(_, issued, done)| done - issued)
            .collect(),
        TenantMode::Library(_) => cluster
            .mgmt()
            .timeline(AppId(0))
            .iter()
            .map(|r| r.latency().expect("complete"))
            .collect(),
    };
    assert_eq!(latencies.len(), s.tenants[0].iters, "lost collectives");
    latencies
}

/// How far `L_1 − L_2` may sit from `2·(L_2 − L_4)`, in ns. A latency
/// ends at a flow completion rounded to a whole nanosecond, and
/// `L_1 − 3·L_2 + 2·L_4` weighs the three latencies 1 + 3 + 2.
const R3_ROUNDING: i64 = 6;

/// For every op, at 512 KiB and 64 MiB, in `mode`: the largest
/// `|L_1 − L_2 − 2·(L_2 − L_4)|` over the collectives, in ns.
fn r3_residual(mode: impl Fn(Scenario) -> Scenario) -> i64 {
    let ops = [
        all_reduce_sum(),
        CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter(ReduceKind::Sum),
        CollectiveOp::Broadcast { root: 1 },
        CollectiveOp::Reduce {
            root: 1,
            kind: ReduceKind::Sum,
        },
    ];
    let mut worst = 0;
    for op in ops {
        for size in [Bytes::kib(512), Bytes::mib(64)] {
            let [l1, l2, l4] = [1.0, 2.0, 4.0].map(|scale| {
                let mut s = without_jitter(one_gpu_per_host(scale));
                s.tenants[0].body = vec![Work::Collective { op, size }];
                latencies(&mode(s))
            });
            for i in 0..l1.len() {
                let ns = |t: Nanos| t.as_nanos() as i64;
                let (d12, d24) = (ns(l1[i]) - ns(l2[i]), ns(l2[i]) - ns(l4[i]));
                assert!(d24 > 0, "{op:?} of {size}: no network-bound part");
                worst = worst.max((d12 - 2 * d24).abs());
            }
        }
    }
    worst
}

#[test]
fn r3_scaling_every_capacity_scales_the_network_bound_part() {
    let service = r3_residual(|s| s);
    let library = r3_residual(as_library);
    assert!(service <= R3_ROUNDING, "service: residual {service} ns");
    assert!(library <= R3_ROUNDING, "library: residual {library} ns");
}

// ---------------------------------------------------------------------------
// R5: the service's surcharge over the library
// ---------------------------------------------------------------------------

/// `s`'s tenant 0 as a library job with the service's default rings and
/// as many channels — NCCL(OR) given what the service would run.
fn as_library(mut s: Scenario) -> Scenario {
    let t = &mut s.tenants[0];
    let rings = CollectiveConfig::default_for(&s.topo, &t.gpus).channel_rings;
    t.mode = TenantMode::Library(LibraryConfig {
        channels: rings.len(),
        ring: RingChoice::Explicit(rings),
        ..Default::default()
    });
    s
}

/// Per collective of tenant 0, its service latency measured at the
/// tenant minus its library latency.
fn surcharges(s: &Scenario) -> Vec<Nanos> {
    let mut svc = s.build();
    svc.run_until_quiescent(DEADLINE);
    let mut lib = as_library(s.clone()).build();
    lib.run_until_quiescent(DEADLINE);
    let svc = svc.mgmt().tenant_latencies(AppId(0));
    let lib = lib.mgmt().timeline(AppId(0));
    assert_eq!(svc.len(), s.tenants[0].iters, "service lost collectives");
    assert_eq!(lib.len(), svc.len(), "library lost collectives");
    svc.iter()
        .zip(&lib)
        .map(|(&(_, issued, done), r)| (done - issued) - r.latency().expect("complete"))
        .collect()
}

/// The five ops at 8 KB, 512 KB and 64 MiB, three of each, from tenant
/// 0 of `s` at jitter 0; `check(Δ)` must hold for every collective.
fn r5(s: Scenario, check: impl Fn(Nanos) -> bool) {
    let ops = [
        all_reduce_sum(),
        CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter(ReduceKind::Sum),
        CollectiveOp::Broadcast { root: 1 },
        CollectiveOp::Reduce {
            root: 1,
            kind: ReduceKind::Sum,
        },
    ];
    let s = without_jitter(s);
    for op in ops {
        for size in [Bytes::kib(8), Bytes::kib(512), Bytes::mib(64)] {
            let mut s = s.clone();
            s.tenants[0].body = vec![Work::Collective { op, size }];
            for delta in surcharges(&s) {
                assert!(check(delta), "{op:?} of {size}: surcharge {delta}");
            }
        }
    }
}

/// One spine over two racks of two hosts with two GPUs each.
fn one_spine(a: &[u32]) -> Scenario {
    let topo = presets::spine_leaf(&SpineLeafConfig {
        spines: 1,
        leaves: 2,
        hosts_per_leaf: 2,
        gpus_per_host: 2,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(200.0),
    });
    Scenario {
        topo: Arc::new(topo),
        ..testbed(a)
    }
}

/// The library's kernel-launch overhead, restated rather than read from
/// `mccs_core::library` so that R5 checks the engine pays it.
const LAUNCH: Nanos = Nanos::from_micros(10);

/// The IPC path a service collective adds — a command, an engine hop and
/// a completion — less the launch overhead the library pays instead, and
/// the transport hop the service adds to an inter-host task.
fn surcharge_and_hop(s: &Scenario) -> (Nanos, Nanos) {
    let command = s.config.ipc.command_latency;
    let base = command + ENGINE_HOP_LATENCY + COMPLETION_LATENCY - LAUNCH;
    (base, ENGINE_HOP_LATENCY)
}

#[test]
fn r5_on_one_host_the_surcharge_is_the_ipc_path_less_the_launch() {
    // 20 + 10 + 20 - 10 = 40 us at the default IPC latencies.
    let s = testbed(&[0, 1]);
    let (base, _) = surcharge_and_hop(&s);
    r5(s, |delta| delta == base);
}

#[test]
fn r5_with_one_gpu_per_host_the_transport_hop_adds_to_it() {
    // 40 + 10 = 50 us.
    for s in [testbed(&[0, 2]), one_spine(&[0, 2, 4, 6])] {
        let (base, hop) = surcharge_and_hop(&s);
        r5(s, |delta| delta == base + hop);
    }
}

#[test]
fn r5_with_intra_and_inter_host_tasks_the_transport_hop_may_hide() {
    for s in [testbed(&[0, 1, 2, 3]), one_spine(&[0, 1, 2, 3, 4, 5, 6, 7])] {
        let (base, hop) = surcharge_and_hop(&s);
        r5(s, |delta| (base..=base + hop).contains(&delta));
    }
}
