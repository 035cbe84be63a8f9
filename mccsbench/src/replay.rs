//! Layer replays: each layer alone, called directly, on inputs derived
//! from the same workload spec — the tenants' rings, buffer sizes and
//! concurrency. From outside the program `core.poll_s` cannot be split
//! into scheduler, engine bodies and in-poll network solves; these
//! replays bound the share each layer could account for.

use crate::alloc;
use crate::spec::{Spec, Workload};
use crate::stats;
use mccs_collectives::op::all_reduce_sum;
use mccs_collectives::{CollectiveSchedule, EdgeTask, RingOrder, ScheduleKey};
use mccs_control::flow_policy::IncrementalFfa;
use mccs_control::{ffa, optimal_rings, ChannelPolicy, JobFlows};
use mccs_core::world::WorldScheduleCache;
use mccs_core::CollectiveConfig;
use mccs_ipc::{IpcConfig, LatencyQueue};
use mccs_netsim::maxmin::{allocate_with_priority_into, FlowDemand, SolverScratch};
use mccs_netsim::{FlowSpec, Network};
use mccs_sim::{Bandwidth, Bytes, Nanos, Rng, ShardedEventQueue};
use mccs_topology::{GpuId, NicId, RouteId, Topology};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One tenant or job as the layers see it.
struct Shape {
    gpus: Vec<GpuId>,
    rings: Vec<RingOrder>,
    size: Bytes,
}

fn shapes(topo: &Topology, spec: &Spec) -> Vec<Shape> {
    match spec {
        Spec::Service { tenants, .. } => tenants
            .iter()
            .map(|t| Shape {
                gpus: t.gpus.clone(),
                rings: CollectiveConfig::default_for(topo, &t.gpus).channel_rings,
                size: t.size,
            })
            .collect(),
        Spec::Library { jobs, channels, .. } => jobs
            .iter()
            .map(|j| Shape {
                gpus: j.gpus.clone(),
                rings: vec![RingOrder::nccl_default(topo, &j.gpus); *channels],
                size: j.size,
            })
            .collect(),
    }
}

/// Which tenants are on the network together: one at a time when slots
/// are staggered, eight arrivals at a time under churn, everyone
/// otherwise.
fn rounds(w: Workload, apps: usize) -> Vec<Vec<usize>> {
    let all: Vec<usize> = (0..apps).collect();
    match w {
        Workload::SvcStaggered => all.chunks(1).map(<[usize]>::to_vec).collect(),
        Workload::LibChurn10k => all.chunks(8).map(<[usize]>::to_vec).collect(),
        Workload::SvcConcurrent | Workload::SvcCtrlChurn => vec![all.clone(), all],
    }
}

/// The network flows of one collective of `shape`.
fn flows_of(topo: &Topology, app: usize, shape: &Shape) -> Vec<FlowSpec> {
    let schedule = CollectiveSchedule::ring(topo, all_reduce_sum(), shape.size, &shape.rings);
    schedule
        .channels
        .iter()
        .flat_map(|ch| {
            ch.tasks.iter().filter_map(move |t| match *t {
                EdgeTask::InterHost {
                    src_nic,
                    dst_nic,
                    bytes,
                    ..
                } => Some(
                    FlowSpec::ecmp(src_nic, dst_nic, bytes, (app * 64 + ch.channel) as u64)
                        .with_tenant(app as u32),
                ),
                EdgeTask::IntraHost { .. } => None,
            })
        })
        .collect()
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Run every replay; returns `(metric name, value)` pairs.
pub fn run(
    w: Workload,
    topo: &Arc<Topology>,
    spec: &Spec,
    shards: usize,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let shapes = shapes(topo, spec);
    let flows: Vec<Vec<FlowSpec>> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| flows_of(topo, i, s))
        .collect();
    let rounds = rounds(w, shapes.len());
    let mut out = Vec::new();
    netsim(topo, &flows, &rounds, &mut out);
    maxmin(topo, &flows, &rounds, &mut out);
    collectives(topo, &shapes, &mut out);
    control(topo, &shapes, &mut out);
    event_queue(shards, seed, &mut out);
    routes(topo, &flows, &mut out);
    ipc_queue(&mut out);
    out
}

/// `Network::{start_flow, next_completion_time, advance_to}` over each
/// round's concurrent flow set, run to drain.
fn netsim(
    topo: &Arc<Topology>,
    flows: &[Vec<FlowSpec>],
    rounds: &[Vec<usize>],
    out: &mut Vec<(&'static str, f64)>,
) {
    let mut net = Network::new(Arc::clone(topo));
    let mut now = Nanos::ZERO;
    let mut start_us = Vec::new();
    let mut advance_us = Vec::new();
    let (calls0, _) = alloc::totals();
    let t_all = Instant::now();
    for round in rounds {
        for spec in round.iter().flat_map(|&app| &flows[app]) {
            let t0 = Instant::now();
            black_box(net.start_flow(now, *spec));
            start_us.push(us(t0));
        }
        loop {
            let t0 = Instant::now();
            let Some(t) = net.next_completion_time() else {
                break;
            };
            black_box(net.advance_to(t));
            advance_us.push(us(t0));
            now = t;
        }
    }
    let elapsed = t_all.elapsed().as_secs_f64();
    let (calls1, _) = alloc::totals();
    let n = start_us.len().max(1) as f64;
    let start = stats::sorted(&start_us);
    let advance = stats::sorted(&advance_us);
    out.push(("netsim.replay_start_us_p50", stats::percentile(&start, 500)));
    out.push(("netsim.replay_start_us_p99", stats::percentile(&start, 990)));
    out.push((
        "netsim.replay_advance_us_p50",
        stats::percentile(&advance, 500),
    ));
    out.push(("netsim.replay_flows_per_s", n / elapsed));
    out.push((
        "netsim.replay_allocs_per_flow",
        (calls1 - calls0) as f64 / n,
    ));
}

/// `allocate_with_priority_into` on the largest round's flow set.
fn maxmin(
    topo: &Topology,
    flows: &[Vec<FlowSpec>],
    rounds: &[Vec<usize>],
    out: &mut Vec<(&'static str, f64)>,
) {
    let peak = rounds
        .iter()
        .max_by_key(|r| r.iter().map(|&a| flows[a].len()).sum::<usize>())
        .expect("at least one round");
    let demands: Vec<FlowDemand> = peak
        .iter()
        .flat_map(|&app| &flows[app])
        .map(|f| {
            let hash = match f.routing {
                mccs_netsim::RouteChoice::Ecmp { hash } => hash,
                mccs_netsim::RouteChoice::Pinned(_) => 0,
            };
            let route = topo.ecmp_route(f.src, f.dst, hash);
            FlowDemand::fair(route.links.iter().map(|l| l.index()).collect(), None)
        })
        .collect();
    let capacities: Vec<Bandwidth> = topo.links().iter().map(|l| l.bandwidth).collect();
    let mut scratch = SolverScratch::default();
    let mut rates = Vec::new();
    let solves: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            allocate_with_priority_into(black_box(&demands), &capacities, &mut scratch, &mut rates);
            black_box(&rates);
            us(t0)
        })
        .collect();
    out.push(("netsim.maxmin_solve_us", stats::median(&solves)));
}

/// Schedule derivation and the world schedule cache's hit path.
fn collectives(topo: &Topology, shapes: &[Shape], out: &mut Vec<(&'static str, f64)>) {
    let op = all_reduce_sum();
    let mut derive_us = Vec::new();
    let mut tasks = 0usize;
    for s in shapes {
        let t0 = Instant::now();
        let schedule = black_box(CollectiveSchedule::ring(topo, op, s.size, &s.rings));
        derive_us.push(us(t0));
        tasks += schedule.task_count();
    }
    out.push(("collectives.derive_us_p50", stats::median(&derive_us)));
    out.push((
        "collectives.tasks_per_schedule",
        tasks as f64 / shapes.len() as f64,
    ));

    // The cache drops everything at 256 entries; stay below that so the
    // timed lookups all hit, as they do in a steady run.
    let cached = &shapes[..shapes.len().min(200)];
    let mut cache = WorldScheduleCache::default();
    for s in cached {
        let key = ScheduleKey::for_ring(topo, op, s.size, &s.rings);
        cache.get_or_derive(key, || CollectiveSchedule::ring(topo, op, s.size, &s.rings));
    }
    let reps = 20_000usize.div_ceil(cached.len());
    let t0 = Instant::now();
    for _ in 0..reps {
        for s in cached {
            // As the proxy does on every launch: build the key, look up.
            let key = ScheduleKey::for_ring(topo, op, s.size, &s.rings);
            black_box(cache.get_or_derive(key, || unreachable!("every key is cached")));
        }
    }
    out.push((
        "core.sched_cache_hit_ns",
        t0.elapsed().as_secs_f64() * 1e9 / (reps * cached.len()) as f64,
    ));
}

/// The controller's policies: OR per tenant, FFA over all tenants, and
/// incremental FFA placement per tenant.
fn control(topo: &Topology, shapes: &[Shape], out: &mut Vec<(&'static str, f64)>) {
    let mut rings_us = Vec::new();
    let mut jobs = Vec::new();
    for s in shapes {
        let t0 = Instant::now();
        let rings = black_box(optimal_rings(topo, &s.gpus, ChannelPolicy::MatchNics));
        rings_us.push(us(t0));
        jobs.push(JobFlows::from_rings(topo, &rings, 0));
    }
    out.push(("control.optimal_rings_us_p50", stats::median(&rings_us)));

    let t0 = Instant::now();
    black_box(ffa(topo, &jobs));
    out.push(("control.ffa_s", t0.elapsed().as_secs_f64()));

    let mut incremental = IncrementalFfa::new();
    let place_us: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let t0 = Instant::now();
            black_box(incremental.place_job(topo, &j.flows));
            us(t0)
        })
        .collect();
    out.push(("control.ffa_place_us_p50", stats::median(&place_us)));
}

/// `ShardedEventQueue` at the world's shard count: a standing population
/// of a thousand timers, each pop scheduling a successor.
fn event_queue(shards: usize, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    const EVENTS: usize = 200_000;
    let mut rng = Rng::seed_from(seed);
    let mut q: ShardedEventQueue<u32> = ShardedEventQueue::new(shards);
    for i in 0..1000 {
        q.schedule_on(rng.index(shards), Nanos(rng.below(1_000_000)), i);
    }
    let t0 = Instant::now();
    for i in 0..EVENTS {
        let now = q.next_time().expect("population never drains");
        let (_, payload) = q.pop_due(now).expect("head is due at its own time");
        black_box(payload);
        q.schedule_on(
            rng.index(shards),
            now + Nanos(1 + rng.below(1_000_000)),
            i as u32,
        );
    }
    out.push((
        "sim.eventq_ns_per_event",
        t0.elapsed().as_secs_f64() * 1e9 / EVENTS as f64,
    ));
}

/// `ecmp_route` and `pinned_route` over the workload's ring edges.
fn routes(topo: &Topology, flows: &[Vec<FlowSpec>], out: &mut Vec<(&'static str, f64)>) {
    let pairs: Vec<(NicId, NicId)> = flows
        .iter()
        .flatten()
        .map(|f| (f.src, f.dst))
        .take(4096)
        .collect();
    if pairs.is_empty() {
        out.push(("topology.route_ns", 0.0));
        return;
    }
    let reps = 40_000usize.div_ceil(pairs.len());
    let t0 = Instant::now();
    for rep in 0..reps {
        for &(src, dst) in &pairs {
            black_box(topo.ecmp_route(src, dst, rep as u64));
            black_box(topo.pinned_route(src, dst, RouteId(0)));
        }
    }
    out.push((
        "topology.route_ns",
        t0.elapsed().as_secs_f64() * 1e9 / (2 * reps * pairs.len()) as f64,
    ));
}

/// `LatencyQueue` push and pop, eight messages in flight.
fn ipc_queue(out: &mut Vec<(&'static str, f64)>) {
    const MESSAGES: u64 = 1_000_000;
    let cfg = IpcConfig::default();
    let mut q: LatencyQueue<u64> = LatencyQueue::new(cfg.queue_capacity);
    let mut now = Nanos::ZERO;
    let t0 = Instant::now();
    for batch in 0..MESSAGES / 8 {
        for i in 0..8 {
            q.push(now, cfg.command_latency, batch * 8 + i)
                .expect("eight in flight is below capacity");
        }
        now += cfg.command_latency;
        while let Some(m) = q.pop(now) {
            black_box(m);
        }
    }
    out.push((
        "ipc.queue_ns_per_msg",
        t0.elapsed().as_secs_f64() * 1e9 / MESSAGES as f64,
    ));
}
