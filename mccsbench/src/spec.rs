//! Workload specifications, generated from `(workload, seed)` alone.
//!
//! The simulator only ever sees what this module produces: tenant
//! placements, start times, buffer sizes, job arrivals and the fault
//! script. The seed moves *which* GPUs, links and instants are used; the
//! amount of work (tenants, collectives per size class, jobs, faults) is
//! fixed per workload, so runs on different seeds are comparable. On
//! `svc_concurrent` and `lib_churn_10k` it moves the instants only: see
//! [`FIXED_LAYOUT`].

use mccs_netsim::FaultEvent;
use mccs_sim::{Bandwidth, Bytes, Nanos, Rng};
use mccs_topology::graph::Endpoint;
use mccs_topology::presets::SpineLeafConfig;
use mccs_topology::{GpuId, LinkId, Topology};
use mccs_workloads::{Placement, PlacementMap};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SvcStaggered,
    SvcConcurrent,
    LibChurn10k,
    SvcCtrlChurn,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::SvcStaggered,
    Workload::SvcConcurrent,
    Workload::LibChurn10k,
    Workload::SvcCtrlChurn,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcStaggered => "svc_staggered",
            Workload::SvcConcurrent => "svc_concurrent",
            Workload::LibChurn10k => "lib_churn_10k",
            Workload::SvcCtrlChurn => "svc_ctrl_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Ranks per service-mode tenant; every rank sits on a different host.
pub const RANKS: usize = 8;

/// The buffer sizes of `svc_staggered`'s three tenant classes; the
/// smallest and largest also bound `lib_churn_10k`'s size ladder.
///
/// Only `svc_staggered` mixes sizes per tenant. Where tenants contend,
/// a latency percentile of a few size classes is decided by the luck of
/// the handful of tenants in the top class, and moved by 15-30 % from
/// seed to seed; the benchmark's bounds (at most 25 %) are applied
/// across seeds, so the contended workloads give every tenant one size.
pub const SIZE_CLASSES: [Bytes; 3] = [Bytes::kib(64), Bytes::mib(4), Bytes::mib(64)];

/// `svc_concurrent`: every tenant, so all 1,024 flows stay live and
/// coupled for the whole run.
const CONCURRENT_SIZE: Bytes = Bytes::mib(4);

/// Seed of the one placement `svc_concurrent` and `lib_churn_10k` use on
/// every `--seed`. A connection hashes onto its path once (communicator,
/// NIC pair, salt), so who sits where decides which flows collide for a
/// whole run, and the latency tail is the unluckiest tenant or job of
/// that draw. With seeded placement, `svc_concurrent`'s p99 over 30
/// seeds took one value per worst uplink load — 11.7, 12.5, 13.4 … 16.7
/// ms — and ten-seed spreads of p99 and makespan reached 21 %;
/// `lib_churn_10k`'s p99 followed its two or three largest jobs and
/// reached 22 %. The benchmark's driver compares runs on different
/// seeds under a bound of 25 % at most. With the draw fixed the same
/// spreads are under 1 % and 3-6 %.
const FIXED_LAYOUT: u64 = 0x1a40;

/// `svc_ctrl_churn` stays far below 64 MiB: once a fault plan is
/// installed a proxy reports any collective in flight for over 20 ms as
/// stalled, and on this oversubscribed fabric a 64 MiB AllReduce takes
/// longer than that with nothing wrong. Those false alarms end in failed
/// collectives (a later issue); the benchmark needs a workload on which
/// none fails.
const CHURN_SIZE: Bytes = Bytes::mib(1);

/// One service-mode tenant: eight ranks running `iters` iterations of
/// `compute` then an AllReduce of `size`, starting at `start`.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Rank → GPU, one GPU per host.
    pub gpus: Vec<GpuId>,
    pub size: Bytes,
    pub iters: usize,
    pub start: Nanos,
    /// Compute kernel before each collective; zero for back-to-back
    /// collectives.
    pub compute: Nanos,
}

/// The controller and fault script of `svc_ctrl_churn`.
#[derive(Clone, Debug)]
pub struct CtrlSpec {
    /// Period of `optimize_cluster(PolicySpec::mccs())`, in virtual time.
    pub optimize_every: Nanos,
    /// Time-sorted fault script (link flaps, brown-outs, one controller
    /// crash/restart).
    pub faults: Vec<(Nanos, FaultEvent)>,
}

/// One library-mode job of `lib_churn_10k`.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub id: usize,
    pub start: Nanos,
    pub gpus: Vec<GpuId>,
    pub size: Bytes,
    /// Salt of the job's ECMP hashes.
    pub hash_salt: u64,
}

#[derive(Clone, Debug)]
pub enum Spec {
    Service {
        tenants: Vec<TenantSpec>,
        ctrl: Option<CtrlSpec>,
    },
    Library {
        jobs: Vec<JobSpec>,
        iterations: usize,
        compute: Nanos,
        channels: usize,
    },
}

impl Spec {
    /// Collectives the workload attempts, per tenant or job.
    pub fn attempted_per_app(&self) -> Vec<usize> {
        match self {
            Spec::Service { tenants, .. } => tenants.iter().map(|t| t.iters).collect(),
            Spec::Library {
                jobs, iterations, ..
            } => vec![*iterations; jobs.len()],
        }
    }

    /// Ranks of each tenant or job (the `n` of its bus bandwidth).
    pub fn ranks_per_app(&self) -> Vec<usize> {
        match self {
            Spec::Service { tenants, .. } => tenants.iter().map(|t| t.gpus.len()).collect(),
            Spec::Library { jobs, .. } => jobs.iter().map(|j| j.gpus.len()).collect(),
        }
    }
}

/// The fabric a workload runs on. `quick` selects toy sizes for tests.
pub fn fabric(w: Workload, quick: bool) -> SpineLeafConfig {
    let (spines, leaves, hosts_per_leaf, uplink) = match (w, quick) {
        // Toy fabrics of 256 and 64 GPUs.
        (Workload::LibChurn10k, true) => (2, 4, 8, 200.0),
        (_, true) => (2, 4, 2, 100.0),
        // fig14's 10,240-GPU fabric.
        (Workload::LibChurn10k, false) => (16, 40, 32, 200.0),
        // fig13's 128-GPU fabric, oversubscription 8.
        (Workload::SvcCtrlChurn, false) => (4, 4, 4, 100.0),
        // 1,024 GPUs, oversubscription 8.
        (_, false) => (8, 16, 8, 100.0),
    };
    SpineLeafConfig {
        spines,
        leaves,
        hosts_per_leaf,
        gpus_per_host: 8,
        nic_bandwidth: Bandwidth::gbps(100.0),
        leaf_spine_bandwidth: Bandwidth::gbps(uplink),
    }
}

/// Generate the inputs of one run.
pub fn generate(w: Workload, seed: u64, quick: bool, topo: &Topology) -> Spec {
    let mut rng = Rng::seed_from(seed ^ 0x6d63_6373_6265_6e63);
    let tenant_count = topo.gpu_count() / RANKS;
    match w {
        Workload::SvcStaggered => {
            let iters = if quick { 3 } else { 90 };
            let sizes = size_thirds(tenant_count, &mut rng);
            let mut tenants = place_tenants(topo, sizes, iters, Nanos::ZERO, &mut rng);
            stagger(&mut tenants, &mut rng);
            Spec::Service {
                tenants,
                ctrl: None,
            }
        }
        Workload::SvcConcurrent => {
            // 1,536 latency samples: fifteen beyond p99.
            let iters = if quick { 3 } else { 12 };
            let sizes = vec![CONCURRENT_SIZE; tenant_count];
            let mut layout = Rng::seed_from(FIXED_LAYOUT);
            let mut tenants = place_tenants(topo, sizes, iters, Nanos::ZERO, &mut layout);
            jitter_starts(&mut tenants, &mut rng);
            Spec::Service {
                tenants,
                ctrl: None,
            }
        }
        Workload::SvcCtrlChurn => {
            let (iters, horizon) = if quick {
                (12, Nanos::from_millis(60))
            } else {
                (360, Nanos::from_millis(900))
            };
            // A training-style iteration: with 2 ms of compute between
            // collectives the run spans ~50 controller periods and the
            // whole fault script instead of a handful.
            let compute = Nanos::from_millis(2);
            let sizes = vec![CHURN_SIZE; tenant_count];
            let mut tenants = place_tenants(topo, sizes, iters, compute, &mut rng);
            jitter_starts(&mut tenants, &mut rng);
            Spec::Service {
                tenants,
                ctrl: Some(CtrlSpec {
                    optimize_every: Nanos::from_millis(20),
                    faults: fault_script(topo, horizon, &mut rng),
                }),
            }
        }
        Workload::LibChurn10k => Spec::Library {
            jobs: plan_jobs(topo, if quick { 6 } else { 220 }, &mut rng),
            iterations: if quick { 3 } else { 8 },
            compute: Nanos::from_millis(2),
            channels: 2,
        },
    }
}

/// `count` library-mode jobs arriving as a Poisson process with a 2 ms
/// mean gap, on random whole hosts. Half want 16 GPUs and half 32; buffer
/// sizes are a geometric ladder from 64 KiB to 64 MiB, one rung per job.
/// The seed decides when each job arrives; which job gets which rung and
/// GPU count, where it lands and its hash salt are [`FIXED_LAYOUT`]'s
/// draw. The ladder, and not three size classes,
/// because a latency percentile of a three-plateau mixture sits on the
/// edge between two plateaus and flips with the seed. Gaps are
/// exponential but rescaled so the last arrival is at `count` x 2 ms on
/// every seed, and jobs keep their hosts to the end — the fabric holds
/// them all at once, so the churn is in the network, not in a placement
/// queue.
fn plan_jobs(topo: &Topology, count: usize, rng: &mut Rng) -> Vec<JobSpec> {
    let gaps: Vec<f64> = (0..count).map(|_| rng.exponential(1.0)).collect();
    let rng = &mut Rng::seed_from(FIXED_LAYOUT);
    let mut wanted: Vec<usize> = (0..count).map(|i| [16, 32][i % 2]).collect();
    rng.shuffle(&mut wanted);
    let (smallest, largest) = (SIZE_CLASSES[0].as_f64(), SIZE_CLASSES[2].as_f64());
    let mut sizes: Vec<Bytes> = (0..count)
        .map(|i| {
            let rung = (i as f64 + 0.5) / count as f64;
            let bytes = smallest * (largest / smallest).powf(rung);
            // Whole KiB, so every rank count divides the buffer evenly.
            Bytes::kib((bytes / 1024.0).round() as u64)
        })
        .collect();
    rng.shuffle(&mut sizes);
    let horizon = Nanos::from_millis(2) * count as u64;
    let scale = horizon.as_secs_f64() / gaps.iter().sum::<f64>();
    let mut map = PlacementMap::new(topo);
    let mut at = 0.0;
    (0..count)
        .map(|id| {
            at += gaps[id] * scale;
            JobSpec {
                id,
                start: Nanos::from_secs_f64(at),
                gpus: map
                    .place(topo, wanted[id], Placement::Random, rng)
                    .expect("the fabric has room for every job at once"),
                size: sizes[id],
                hash_salt: rng.next_u64(),
            }
        })
        .collect()
}

/// Partition every GPU of the fabric into tenants of [`RANKS`] GPUs, one
/// per host, the hosts of a tenant spread over as many racks as the
/// fabric allows; tenant `i` gets `sizes[i]`. `rng` picks which GPU of
/// each host a tenant gets, the tenant numbering and each tenant's rank
/// order. Everyone starts at time zero until a caller says otherwise.
fn place_tenants(
    topo: &Topology,
    sizes: Vec<Bytes>,
    iters: usize,
    compute: Nanos,
    rng: &mut Rng,
) -> Vec<TenantSpec> {
    let hosts = topo.hosts();
    assert!(
        hosts.len().is_multiple_of(RANKS),
        "host count must be a multiple of the tenant size"
    );
    // Host group g = hosts g, g+stride, g+2*stride, ...: hosts are
    // numbered rack by rack, so a stride walks across racks.
    let stride = hosts.len() / RANKS;
    let mut placements = Vec::new();
    for g in 0..stride {
        let group: Vec<Vec<GpuId>> = (0..RANKS)
            .map(|k| {
                let mut gpus = hosts[g + k * stride].gpus.clone();
                rng.shuffle(&mut gpus);
                gpus
            })
            .collect();
        for j in 0..group[0].len() {
            let mut gpus: Vec<GpuId> = group.iter().map(|h| h[j]).collect();
            rng.shuffle(&mut gpus);
            placements.push(gpus);
        }
    }
    rng.shuffle(&mut placements);
    assert_eq!(placements.len(), sizes.len(), "one size per tenant");
    placements
        .into_iter()
        .zip(sizes)
        .map(|(gpus, size)| TenantSpec {
            gpus,
            size,
            iters,
            start: Nanos::ZERO,
            compute,
        })
        .collect()
}

/// One of [`SIZE_CLASSES`] per tenant — equal thirds, which tenant gets
/// which decided by the seed.
fn size_thirds(tenants: usize, rng: &mut Rng) -> Vec<Bytes> {
    let mut sizes: Vec<Bytes> = (0..tenants).map(|i| SIZE_CLASSES[i % 3]).collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// Non-overlapping activity slots in tenant order (already shuffled):
/// each tenant sleeps until the previous one's burst should be over.
fn stagger(tenants: &mut [TenantSpec], rng: &mut Rng) {
    // Communicator set-up of all tenants happens at t = 0; leave it room.
    let mut at = Nanos::from_millis(2);
    for t in tenants {
        t.start = at + Nanos(rng.below(50_000));
        // A ring AllReduce moves 2(n-1)/n of the buffer over each 100G
        // edge; the constant covers launch, IPC and per-hop latency.
        let wire = Bandwidth::gbps(100.0).transfer_time(t.size.mul_f64(1.75));
        let per_collective = wire + Nanos::from_micros(400);
        at = t.start + per_collective * t.iters as u64;
    }
}

/// Everyone starts at once, up to 200 µs apart.
fn jitter_starts(tenants: &mut [TenantSpec], rng: &mut Rng) {
    for t in tenants {
        t.start = Nanos::from_millis(2) + Nanos(rng.below(200_000));
    }
}

/// Every 5 ms until `horizon`: alternately a 0.5 ms flap and a 5 ms, 40 %
/// brown-out of one leaf–spine link, plus one controller crash a third of
/// the way in.
fn fault_script(topo: &Topology, horizon: Nanos, rng: &mut Rng) -> Vec<(Nanos, FaultEvent)> {
    let spine_links: Vec<LinkId> = topo
        .links()
        .iter()
        .filter(|l| matches!((l.from, l.to), (Endpoint::Switch(_), Endpoint::Switch(_))))
        .map(|l| l.id)
        .collect();
    assert!(!spine_links.is_empty(), "fabric has no leaf-spine links");
    let mut script = Vec::new();
    let period = Nanos::from_millis(5);
    let mut at = period;
    // Flaps and brown-outs alternate, so every seed scripts the same
    // number of each; the seed picks the link and the instant.
    let mut flap = true;
    while at < horizon {
        let link = *rng.choose(&spine_links);
        let t = at + Nanos(rng.below(2_000_000));
        if flap {
            script.push((t, FaultEvent::LinkDown(link)));
            script.push((t + Nanos::from_micros(500), FaultEvent::LinkUp(link)));
        } else {
            script.push((t, FaultEvent::LinkDegrade { link, milli: 600 }));
            script.push((
                t + Nanos::from_millis(5),
                FaultEvent::LinkDegrade { link, milli: 1000 },
            ));
        }
        flap = !flap;
        at += period;
    }
    let crash_at = Nanos(horizon.0 / 3) + Nanos(rng.below(1_000_000));
    script.push((crash_at, FaultEvent::CrashController));
    script.push((
        crash_at + Nanos::from_millis(15),
        FaultEvent::RestartController,
    ));
    script.sort_by_key(|(t, _)| *t);
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_topology::presets::spine_leaf;
    use std::collections::BTreeSet;

    fn spec_text(w: Workload, seed: u64) -> String {
        let topo = spine_leaf(&fabric(w, true));
        format!("{:?}", generate(w, seed, true, &topo))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            assert_eq!(spec_text(w, 7), spec_text(w, 7), "{}", w.name());
            assert_ne!(spec_text(w, 7), spec_text(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn fault_script_repeats_for_a_seed_and_moves_with_it() {
        let topo = spine_leaf(&fabric(Workload::SvcCtrlChurn, true));
        let script = |seed| {
            let Spec::Service { ctrl: Some(c), .. } =
                generate(Workload::SvcCtrlChurn, seed, true, &topo)
            else {
                panic!("svc_ctrl_churn has a controller script");
            };
            c.faults
        };
        assert_eq!(script(3), script(3));
        assert_ne!(script(3), script(4));
        let s = script(3);
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0), "time-sorted");
        assert!(s.iter().any(|(_, e)| *e == FaultEvent::CrashController));
        assert!(s.iter().any(|(_, e)| *e == FaultEvent::RestartController));
    }

    #[test]
    fn tenants_partition_the_fabric_one_gpu_per_host() {
        for quick in [true, false] {
            let topo = spine_leaf(&fabric(Workload::SvcConcurrent, quick));
            let mut rng = Rng::seed_from(1);
            let sizes = vec![Bytes::mib(1); topo.gpu_count() / RANKS];
            let tenants = place_tenants(&topo, sizes, 1, Nanos::ZERO, &mut rng);
            assert_eq!(tenants.len() * RANKS, topo.gpu_count());
            let mut seen = BTreeSet::new();
            for t in &tenants {
                let hosts: BTreeSet<_> = t.gpus.iter().map(|&g| topo.host_of_gpu(g)).collect();
                assert_eq!(hosts.len(), RANKS, "one GPU per host");
                let racks: BTreeSet<_> = hosts.iter().map(|&h| topo.rack_of(h)).collect();
                assert!(racks.len() >= topo.rack_count().min(RANKS) / 2);
                seen.extend(t.gpus.iter().copied());
            }
            assert_eq!(seen.len(), topo.gpu_count(), "every GPU used once");
        }
    }

    #[test]
    fn size_classes_come_in_equal_thirds() {
        let topo = spine_leaf(&fabric(Workload::SvcStaggered, false));
        let Spec::Service { tenants, .. } = generate(Workload::SvcStaggered, 5, false, &topo)
        else {
            panic!("service workload");
        };
        assert_eq!(tenants.len(), 128);
        for class in SIZE_CLASSES {
            let n = tenants.iter().filter(|t| t.size == class).count();
            assert!((42..=43).contains(&n), "{class}: {n}");
        }
        // Slots do not overlap by construction.
        let mut starts: Vec<Nanos> = tenants.iter().map(|t| t.start).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), tenants.len());
    }
}
