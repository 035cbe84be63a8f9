//! Criterion microbenchmarks of the core data structures and algorithms:
//! the max-min rate allocator, ring construction, the FFA solver, the
//! event queue, and an end-to-end testbed collective — the hot paths of
//! every experiment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{CollectiveSchedule, RingOrder, ScheduleKey};
use mccs_control::flow_policy::{ffa, JobFlows};
use mccs_control::{optimal_rings, ChannelPolicy};
use mccs_core::world::WorldScheduleCache;
use mccs_netsim::maxmin::{
    allocate, allocate_with_priority, allocate_with_priority_into, FlowDemand, SolverScratch,
};
use mccs_netsim::{FlowSpec, Network};
use mccs_sim::{Bandwidth, Bytes, EventQueue, Nanos, Rng};
use mccs_topology::graph::Endpoint;
use mccs_topology::presets::{self, SpineLeafConfig};
use mccs_topology::GpuId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A pass-through allocator that counts heap allocations, so the churn
/// benchmarks can report allocations-per-solve alongside time-per-solve.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; only bumps a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    f();
    ALLOC_COUNT.load(Ordering::Relaxed) - before
}

fn bench_maxmin(c: &mut Criterion) {
    // 200 flows over 64 links, random 4-link paths.
    let mut rng = Rng::seed_from(1);
    let caps: Vec<Bandwidth> = (0..64).map(|_| Bandwidth::gbps(100.0)).collect();
    let flows: Vec<FlowDemand> = (0..200)
        .map(|_| {
            let links = (0..4).map(|_| rng.index(64)).collect();
            FlowDemand::fair(links, None)
        })
        .collect();
    c.bench_function("maxmin/200flows-64links", |b| {
        b.iter(|| allocate(std::hint::black_box(&flows), std::hint::black_box(&caps)))
    });

    // The solver the network runs (`allocate_with_priority_into`, scratch
    // reused) at both ends of the sizes it sees: one 8-rank tenant's ring
    // alone on the fabric, and the problem `mccsbench`'s `svc_concurrent`
    // solves on every flow start and finish — 1,024 GPUs, every NIC
    // sending one flow to the next rack, all coupled through the 8:1
    // oversubscribed spine (leaf-spine links carry the cross-tenant
    // penalty, so ECMP collisions spread the shares over many levels).
    let cfg = SpineLeafConfig {
        spines: 8,
        leaves: 16,
        hosts_per_leaf: 8,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(100.0),
    };
    let topo = presets::spine_leaf(&cfg);
    let nics = topo.nics().len() as u32;
    let per_rack = (cfg.hosts_per_leaf * cfg.gpus_per_host) as u32;
    let spine_flow = |src: u32| {
        let (src, dst) = (
            mccs_topology::NicId(src),
            mccs_topology::NicId((src + per_rack) % nics),
        );
        let route = topo.ecmp_route(src, dst, u64::from(src.0).wrapping_mul(0x9E37_79B9));
        FlowDemand::fair(route.links.iter().map(|l| l.index()).collect(), None)
    };
    let spine_caps: Vec<Bandwidth> = topo
        .links()
        .iter()
        .map(|l| match (&l.from, &l.to) {
            (Endpoint::Switch(_), Endpoint::Switch(_)) => l.bandwidth * 0.7,
            _ => l.bandwidth,
        })
        .collect();
    let cases = [
        (
            "maxmin/tenant-8flows",
            (0..8).map(|r| spine_flow(r * per_rack)).collect(),
        ),
        (
            "maxmin/spine-1024flows",
            (0..nics).map(spine_flow).collect::<Vec<_>>(),
        ),
    ];
    let mut scratch = SolverScratch::default();
    let mut rates = Vec::new();
    for (name, flows) in &cases {
        c.bench_function(name, |b| {
            b.iter(|| {
                allocate_with_priority_into(
                    std::hint::black_box(flows),
                    &spine_caps,
                    &mut scratch,
                    &mut rates,
                );
                std::hint::black_box(&rates);
            })
        });
        c.bench_function(&format!("{name}/oracle"), |b| {
            b.iter(|| allocate_with_priority(std::hint::black_box(flows), &spine_caps))
        });
        let median = |name: &str| {
            c.results()
                .iter()
                .find(|r| r.name == name)
                .expect("benched above")
                .median_ns
        };
        println!(
            "{name} indexed fill vs rescanning oracle: {:.1}x",
            median(&format!("{name}/oracle")) / median(name)
        );
    }
}

fn bench_ring_builder(c: &mut Criterion) {
    let topo = presets::spine_leaf(&SpineLeafConfig::paper_large_scale());
    let gpus: Vec<GpuId> = (0..256).map(|i| GpuId(i * 3)).collect();
    c.bench_function("ring/optimal-256gpus", |b| {
        b.iter(|| optimal_rings(&topo, std::hint::black_box(&gpus), ChannelPolicy::Fixed(4)))
    });
}

fn bench_schedule(c: &mut Criterion) {
    let topo = presets::testbed();
    let ring = RingOrder::new((0..8).map(GpuId).collect());
    let rings = [ring.clone(), ring];
    c.bench_function("schedule/8gpu-2ch", |b| {
        b.iter(|| {
            CollectiveSchedule::ring(
                &topo,
                all_reduce_sum(),
                Bytes::mib(128),
                std::hint::black_box(&rings),
            )
        })
    });
}

fn bench_ffa_solver(c: &mut Criterion) {
    // The §6.5 rescheduling cost the paper quotes (<1 ms for a 32-GPU
    // job): solve FFA for 8 concurrent 32-GPU jobs at once.
    let topo = presets::spine_leaf(&SpineLeafConfig::paper_large_scale());
    let jobs: Vec<JobFlows> = (0..8)
        .map(|j| {
            let gpus: Vec<GpuId> = (0..32).map(|i| GpuId(j * 32 + i)).collect();
            let rings = optimal_rings(&topo, &gpus, ChannelPolicy::Fixed(4));
            JobFlows::from_rings(&topo, &rings, 0)
        })
        .collect();
    c.bench_function("ffa/8jobs-32gpus", |b| {
        b.iter(|| ffa(&topo, std::hint::black_box(&jobs)))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("eventqueue/push-pop-10k", |b| {
        b.iter_batched(
            || {
                let mut rng = Rng::seed_from(3);
                (0..10_000u64)
                    .map(|i| (Nanos::from_nanos(rng.below(1 << 30)), i))
                    .collect::<Vec<_>>()
            },
            |items| {
                let mut q = EventQueue::new();
                for (t, v) in items {
                    q.schedule(t, v);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_netsim_collective(c: &mut Criterion) {
    // Full flow-level simulation of one 8-flow collective on the testbed.
    let topo = Arc::new(presets::testbed());
    c.bench_function("netsim/8flow-collective", |b| {
        b.iter(|| {
            let mut net = Network::new(Arc::clone(&topo));
            for i in 0..4u32 {
                net.start_flow(
                    Nanos::ZERO,
                    FlowSpec::ecmp(
                        mccs_topology::NicId(i),
                        mccs_topology::NicId(i + 4),
                        Bytes::mib(32),
                        u64::from(i),
                    ),
                );
                net.start_flow(
                    Nanos::ZERO,
                    FlowSpec::ecmp(
                        mccs_topology::NicId(i + 4),
                        mccs_topology::NicId(i),
                        Bytes::mib(32),
                        u64::from(i) + 8,
                    ),
                );
            }
            let done = net.advance_to(Nanos::from_secs(10));
            assert_eq!(done.len(), 8);
        })
    });
}

fn bench_flow_churn(c: &mut Criterion) {
    // Membership churn on the 768-GPU cluster: one flow admitted and one
    // cancelled against a standing population of N concurrent flows.
    // The population models the paper's steady state — many jobs' ring
    // flows under compact placement, so each flow is rack-local and the
    // flow×link graph decomposes into rack-sized connected components,
    // of which a membership event re-solves only the one it touches.
    let cfg = SpineLeafConfig::paper_large_scale();
    let topo = Arc::new(presets::spine_leaf(&cfg));
    let racks = cfg.leaves as u64;
    let nics_per_rack = (cfg.hosts_per_leaf * cfg.gpus_per_host) as u32;
    let random_spec = |rng: &mut Rng| {
        let base = rng.below(racks) as u32 * nics_per_rack;
        let src = base + rng.below(u64::from(nics_per_rack)) as u32;
        let mut dst = base + rng.below(u64::from(nics_per_rack)) as u32;
        if dst == src {
            dst = base + (dst - base + 1) % nics_per_rack;
        }
        // Unbounded fair flows: the population never drains mid-sample.
        FlowSpec {
            src: mccs_topology::NicId(src),
            dst: mccs_topology::NicId(dst),
            bytes: None,
            routing: mccs_netsim::RouteChoice::Ecmp {
                hash: rng.next_u64(),
            },
            rate_cap: None,
            tag: 0,
            guaranteed: false,
            tenant: (rng.below(8)) as u32,
        }
    };
    for &n in &[10usize, 100, 1000] {
        let mut rng = Rng::seed_from(0xC0FFEE ^ n as u64);
        let mut net = Network::new(Arc::clone(&topo));
        for _ in 0..n {
            net.start_flow(Nanos::ZERO, random_spec(&mut rng));
        }
        c.bench_function(&format!("churn/{n}flows"), |b| {
            b.iter(|| {
                let id = net.start_flow(Nanos::ZERO, random_spec(&mut rng));
                net.cancel_flow(Nanos::ZERO, id);
            })
        });
    }
}

fn bench_churn_steady_state(c: &mut Criterion) {
    // The steady-state re-solve: one flow joins and leaves a standing
    // population (iterating collectives, TS pause/resume cycles). The
    // re-solve gathers the touched component, builds its problem and
    // water-fills it in reused buffers, so what is left to allocate per
    // cycle is the flow itself (its route, its index entries).
    let cfg = SpineLeafConfig::paper_large_scale();
    let topo = Arc::new(presets::spine_leaf(&cfg));
    let racks = cfg.leaves as u64;
    let nics_per_rack = (cfg.hosts_per_leaf * cfg.gpus_per_host) as u32;
    let population_spec = |rng: &mut Rng| {
        let base = rng.below(racks) as u32 * nics_per_rack;
        let src = base + rng.below(u64::from(nics_per_rack)) as u32;
        let mut dst = base + rng.below(u64::from(nics_per_rack)) as u32;
        if dst == src {
            dst = base + (dst - base + 1) % nics_per_rack;
        }
        FlowSpec {
            src: mccs_topology::NicId(src),
            dst: mccs_topology::NicId(dst),
            bytes: None,
            routing: mccs_netsim::RouteChoice::Ecmp {
                hash: rng.next_u64(),
            },
            rate_cap: None,
            tag: 0,
            guaranteed: false,
            tenant: (rng.below(8)) as u32,
        }
    };
    // The recurring flow: pinned route so every cycle solves the same
    // two problems.
    let recurring = FlowSpec {
        src: mccs_topology::NicId(0),
        dst: mccs_topology::NicId(1),
        bytes: None,
        routing: mccs_netsim::RouteChoice::Pinned(mccs_topology::RouteId(0)),
        rate_cap: None,
        tag: 0,
        guaranteed: false,
        tenant: 0,
    };
    let n = 1000usize;
    let mut rng = Rng::seed_from(0xBEEF ^ n as u64);
    let mut net = Network::new(Arc::clone(&topo));
    for _ in 0..n {
        net.start_flow(Nanos::ZERO, population_spec(&mut rng));
    }
    // Grow the reused buffers to both problem sizes (with and
    // without the recurring flow).
    for _ in 0..2 {
        let id = net.start_flow(Nanos::ZERO, recurring);
        net.cancel_flow(Nanos::ZERO, id);
    }
    c.bench_function(&format!("churn-hot/{n}flows"), |b| {
        b.iter(|| {
            let id = net.start_flow(Nanos::ZERO, recurring);
            net.cancel_flow(Nanos::ZERO, id);
        })
    });
    let cycles = 100u64;
    let count = allocations(|| {
        for _ in 0..cycles {
            let id = net.start_flow(Nanos::ZERO, recurring);
            net.cancel_flow(Nanos::ZERO, id);
        }
    });
    println!(
        "churn-hot/{n}flows: {:.1} allocations/cycle",
        count as f64 / cycles as f64
    );
}

fn bench_schedule_cache(c: &mut Criterion) {
    // The world-level schedule cache vs deriving the schedule per launch:
    // a steady-state collective launch is one key build + one map hit.
    // Benched at a production-ish scale (64-GPU ring, 4 channels on the
    // large spine-leaf cluster) where derivation is no longer trivial.
    let topo = presets::spine_leaf(&SpineLeafConfig::paper_large_scale());
    let gpus: Vec<GpuId> = (0..64).map(|i| GpuId(i * 3)).collect();
    let rings = optimal_rings(&topo, &gpus, ChannelPolicy::Fixed(4));
    let op = all_reduce_sum();
    let size = Bytes::mib(128);
    c.bench_function("schedule-derive/64gpu-4ch", |b| {
        b.iter(|| CollectiveSchedule::ring(&topo, op, size, std::hint::black_box(&rings)))
    });
    let mut cache = WorldScheduleCache::default();
    // Populate the single entry.
    let key = ScheduleKey::for_ring(&topo, op, size, &rings);
    cache.get_or_derive(key, || CollectiveSchedule::ring(&topo, op, size, &rings));
    c.bench_function("schedule-cache/hit-64gpu-4ch", |b| {
        b.iter(|| {
            let key = ScheduleKey::for_ring(&topo, op, size, std::hint::black_box(&rings));
            cache.get_or_derive(key, || CollectiveSchedule::ring(&topo, op, size, &rings))
        })
    });
    let median = |name: &str| {
        c.results()
            .iter()
            .find(|r| r.name == name)
            .expect("benched")
            .median_ns
    };
    println!(
        "schedule cache hit vs derive: {:.1}x",
        median("schedule-derive/64gpu-4ch") / median("schedule-cache/hit-64gpu-4ch")
    );
}

fn bench_completion_index(c: &mut Criterion) {
    // Draining a large bounded-flow population: the indexed completion
    // heap finds the next finisher in O(log F) amortized.
    let topo = Arc::new(presets::spine_leaf(&SpineLeafConfig::paper_large_scale()));
    let n = 1000usize;
    let build = || {
        let mut rng = Rng::seed_from(0xD1A1 ^ n as u64);
        let mut net = Network::new(Arc::clone(&topo));
        for i in 0..n {
            // Rack-local bounded flows with staggered sizes so the drain
            // produces ~n distinct completion instants.
            let base = rng.below(24) as u32 * 32;
            let src = base + rng.below(32) as u32;
            let mut dst = base + rng.below(32) as u32;
            if dst == src {
                dst = base + (dst - base + 1) % 32;
            }
            net.start_flow(
                Nanos::ZERO,
                FlowSpec::ecmp(
                    mccs_topology::NicId(src),
                    mccs_topology::NicId(dst),
                    Bytes::mib(1 + (i as u64 % 64)),
                    rng.next_u64(),
                ),
            );
        }
        net
    };
    c.bench_function(&format!("completions/{n}flows-drain"), |b| {
        b.iter_batched(
            build,
            |mut net| {
                let done = net.advance_to(Nanos::from_secs(600));
                assert_eq!(done.len(), n);
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_scheduler_event_loop(c: &mut Criterion) {
    // The fig13 regime in miniature: one active tenant, one parked, on
    // the testbed. The naive scheduler polls every engine on every pass;
    // the wake scheduler touches only ready engines.
    use mccs_core::{Cluster, ClusterConfig};
    use mccs_ipc::CommunicatorId;
    use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
    let run = |naive: bool| {
        let mut cluster = Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(9));
        cluster.set_naive_scheduler(naive);
        let tenants = [
            (
                "hot",
                CommunicatorId(1),
                [GpuId(0), GpuId(2), GpuId(4), GpuId(6)],
                None,
            ),
            (
                "cold",
                CommunicatorId(2),
                [GpuId(1), GpuId(3), GpuId(5), GpuId(7)],
                Some(Nanos::from_millis(40)),
            ),
        ];
        for (name, comm, gpus, sleep) in tenants {
            let ranks = gpus
                .iter()
                .enumerate()
                .map(|(rank, &gpu)| {
                    let size = Bytes::mib(4);
                    let mut steps = vec![
                        ScriptStep::Alloc { size, slot: 0 },
                        ScriptStep::Alloc { size, slot: 1 },
                        ScriptStep::CommInit {
                            comm,
                            world: gpus.to_vec(),
                            rank,
                        },
                    ];
                    if let Some(t) = sleep {
                        steps.push(ScriptStep::SleepUntil(t));
                    }
                    steps.push(ScriptStep::Collective {
                        comm,
                        op: all_reduce_sum(),
                        size,
                        send_slot: 0,
                        recv_slot: 1,
                    });
                    let prog = ScriptedProgram::new(format!("{name}/r{rank}"), steps);
                    (gpu, Box::new(prog) as Box<dyn AppProgram>)
                })
                .collect();
            cluster.add_app(name, ranks);
        }
        cluster.run_until_quiescent(Nanos::from_secs(10));
    };
    for &(label, naive) in &[("wake", false), ("naive", true)] {
        c.bench_function(&format!("scheduler/idle-heavy-testbed/{label}"), |b| {
            b.iter(|| run(naive))
        });
    }
    let median = |label: &str| {
        c.results()
            .iter()
            .find(|r| r.name == format!("scheduler/idle-heavy-testbed/{label}"))
            .expect("benched above")
            .median_ns
    };
    println!(
        "scheduler/idle-heavy-testbed wake speedup: {:.1}x",
        median("naive") / median("wake")
    );
}

fn bench_shared_waiter(c: &mut Criterion) {
    // N engines stay parked on one resource while one more cycles signal →
    // wake → park on that resource plus its own. A wake touches only the
    // signalled list, so its cost must not grow with N. With 1,023 the
    // 1,024 live entries fill the shared list to its capacity: compacting
    // it before a push would then free one entry per pass, unless the list
    // grows.
    use mccs_sim::{Engine, Poll, ResourceId, RuntimePool, WakeSource};
    #[derive(Default)]
    struct Signals(Vec<ResourceId>);
    impl WakeSource for Signals {
        fn drain_signals(&mut self, into: &mut Vec<ResourceId>) {
            into.append(&mut self.0);
        }
    }
    struct Parked(&'static [ResourceId]);
    impl Engine<Signals> for Parked {
        fn progress(&mut self, _: &mut Signals) -> Poll {
            Poll::Idle
        }
        fn wake_when(&self, _: &Signals, on: &mut Vec<ResourceId>) {
            on.extend_from_slice(self.0);
        }
    }
    const SHARED: ResourceId = ResourceId::new(1, 0);
    const OWN: ResourceId = ResourceId::new(2, 0);
    let sizes = [100usize, 1_023, 10_000];
    for n in sizes {
        let mut pool: RuntimePool<Signals> = RuntimePool::new();
        pool.set_naive(false);
        for _ in 0..n {
            pool.spawn(Box::new(Parked(&[SHARED])));
        }
        pool.spawn(Box::new(Parked(&[SHARED, OWN])));
        let mut cx = Signals::default();
        pool.poll(&mut cx);
        c.bench_function(&format!("scheduler/shared-waiter/{n}"), |b| {
            b.iter(|| {
                cx.0.push(OWN);
                pool.poll(&mut cx);
            })
        });
        assert_eq!(pool.poll_count(), pool.wake_count() + n as u64 + 1);
    }
    let ns_per_wake = |n: usize| {
        c.results()
            .iter()
            .find(|r| r.name == format!("scheduler/shared-waiter/{n}"))
            .expect("benched above")
            .median_ns
    };
    for n in sizes {
        println!(
            "scheduler/shared-waiter/{n}: {:.1} ns per wake",
            ns_per_wake(n)
        );
    }
    for n in &sizes[1..] {
        let ratio = ns_per_wake(*n) / ns_per_wake(sizes[0]);
        assert!(
            ratio <= 3.0,
            "a wake beside {n} parked engines costs {ratio:.1}x one beside {}",
            sizes[0]
        );
    }
}

criterion_group!(
    benches,
    bench_maxmin,
    bench_ring_builder,
    bench_schedule,
    bench_ffa_solver,
    bench_event_queue,
    bench_netsim_collective,
    bench_flow_churn,
    bench_churn_steady_state,
    bench_schedule_cache,
    bench_completion_index,
    bench_scheduler_event_loop,
    bench_shared_waiter
);
criterion_main!(benches);
