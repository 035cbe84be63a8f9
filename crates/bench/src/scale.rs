//! The §6.5 at-scale study driver (Figure 11).
//!
//! Like the paper, this experiment runs on the flow-level simulator
//! directly (library-mode jobs, no per-host service engines): 50
//! ResNet-50-class jobs of 16 or 32 GPUs arrive as a Poisson process over
//! the 768-GPU spine-leaf cluster and are placed randomly or compactly.
//! Per variant the jobs use random rings, locality-optimal rings (OR), or
//! OR plus fair flow assignment (OR+FFA).
//!
//! Placements are computed once per seed in a capacity-only planning pass
//! (with nominal job durations) so every variant sees identical
//! placements and arrival order — the comparison the paper's per-job
//! speedup CDF requires.

use mccs_collectives::op::all_reduce_sum;
use mccs_control::flow_policy::{IncrementalFfa, JobFlows};
use mccs_control::{optimal_rings, ChannelPolicy};
use mccs_core::config::RouteMap;
use mccs_core::{ClusterConfig, LibraryConfig, RingChoice, Scenario, Tenant, TenantMode, Work};
use mccs_ipc::AppId;
use mccs_sim::{Bytes, Nanos, Rng};
use mccs_topology::{GpuId, Topology};
use mccs_workloads::{jobs::poisson_jobs, Placement, PlacementMap};
use std::sync::Arc;

/// The three compared strategies of Figure 11.
///
/// The baseline is what an uncoordinated tenant library does: a random
/// (host-contiguous) ring order and NCCL's default two channels — so it
/// engages only two NICs per host. OR is the provider strategy: locality
/// rings with "the number of rings equal to the number of network
/// multi-path choices" (capped at the NIC count), engaging every NIC;
/// OR+FFA additionally pins each ring's flows to distinct paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleVariant {
    /// Random host-order ring, two channels, ECMP.
    RandomRing,
    /// Locality-optimal rings, one per NIC, ECMP.
    OptimalRing,
    /// Locality-optimal rings + fair flow assignment.
    OptimalRingFfa,
}

impl ScaleVariant {
    /// Figure legend label.
    pub fn label(&self) -> &'static str {
        match self {
            ScaleVariant::RandomRing => "Random ring",
            ScaleVariant::OptimalRing => "OR",
            ScaleVariant::OptimalRingFfa => "OR+FFA",
        }
    }
}

/// Experiment knobs (defaults = the paper's §6.5 parameters, except the
/// per-iteration structure documented in DESIGN.md).
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// Mean Poisson inter-arrival gap.
    pub mean_gap: Nanos,
    /// Job sizes, drawn uniformly.
    pub sizes: Vec<usize>,
    /// Training iterations per job.
    pub iterations: usize,
    /// Gradient bytes per iteration (ResNet-50: 100 MB).
    pub collective: Bytes,
    /// Compute per iteration.
    pub compute: Nanos,
    /// Rings per job under OR/OR+FFA (the multi-path fan-out).
    pub channels: usize,
    /// Rings per job under the random baseline (NCCL's default).
    pub baseline_channels: usize,
    /// Placement strategy.
    pub placement: Placement,
    /// Experiment seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// The paper's parameters.
    pub fn paper(placement: Placement, seed: u64) -> Self {
        ScaleConfig {
            jobs: 50,
            mean_gap: Nanos::from_millis(200),
            sizes: vec![16, 32],
            iterations: 10,
            collective: Bytes::new(100_000_000),
            compute: Nanos::from_millis(100),
            channels: 8,
            baseline_channels: 2,
            placement,
            seed,
        }
    }
}

/// A planned job: placement fixed before any variant runs.
#[derive(Clone, Debug)]
pub struct PlannedJob {
    /// Job index.
    pub id: usize,
    /// When the job starts (arrival, or later if it queued for capacity).
    pub start: Nanos,
    /// Its GPUs.
    pub gpus: Vec<GpuId>,
}

/// Capacity-only planning pass: place every job with nominal durations so
/// all variants share placements.
pub fn plan_jobs(topo: &Topology, cfg: &ScaleConfig) -> Vec<PlannedJob> {
    let mut rng = Rng::seed_from(cfg.seed ^ 0x9A7);
    let specs = poisson_jobs(cfg.jobs, cfg.mean_gap, &cfg.sizes, &mut rng);
    // Nominal duration: compute + a conservative comm estimate per iter.
    let nominal_iter = cfg.compute + Nanos::from_millis(150);
    let nominal_duration = nominal_iter * cfg.iterations as u64;

    let mut map = PlacementMap::new(topo);
    let mut planned = Vec::new();
    // (free_time, gpus) of running jobs
    let mut running: Vec<(Nanos, Vec<GpuId>)> = Vec::new();
    let mut queue: std::collections::VecDeque<(usize, Nanos, usize)> = Default::default();

    let try_place = |map: &mut PlacementMap,
                     running: &mut Vec<(Nanos, Vec<GpuId>)>,
                     rng: &mut Rng,
                     id: usize,
                     at: Nanos,
                     size: usize|
     -> Option<PlannedJob> {
        let gpus = map.place(topo, size, cfg.placement, rng)?;
        running.push((at + nominal_duration, gpus.clone()));
        Some(PlannedJob {
            id,
            start: at,
            gpus,
        })
    };

    for spec in specs {
        // Free everything that nominally finished by this arrival, then
        // try queued jobs (FIFO), then the new arrival.
        let mut due: Vec<usize> = (0..running.len())
            .filter(|&i| running[i].0 <= spec.arrival)
            .collect();
        let mut free_times: Vec<Nanos> = due.iter().map(|&i| running[i].0).collect();
        free_times.sort_unstable();
        // remove in descending INDEX order so swap_remove stays in bounds
        due.sort_unstable();
        for i in due.into_iter().rev() {
            let (_, gpus) = running.swap_remove(i);
            map.release(&gpus);
        }
        free_times.push(spec.arrival);
        while let Some(&(qid, _, qsize)) = queue.front() {
            let at = *free_times.last().expect("non-empty");
            match try_place(&mut map, &mut running, &mut rng, qid, at, qsize) {
                Some(p) => {
                    planned.push(p);
                    queue.pop_front();
                }
                None => break,
            }
        }
        if queue.is_empty() {
            match try_place(
                &mut map,
                &mut running,
                &mut rng,
                spec.id,
                spec.arrival,
                spec.size,
            ) {
                Some(p) => planned.push(p),
                None => queue.push_back((spec.id, spec.arrival, spec.size)),
            }
        } else {
            queue.push_back((spec.id, spec.arrival, spec.size));
        }
    }
    // Drain the queue against nominal departures.
    while let Some((qid, _, qsize)) = queue.pop_front() {
        loop {
            // earliest departure
            let Some((idx, &(t, _))) = running.iter().enumerate().min_by_key(|(_, (t, _))| *t)
            else {
                panic!("job of {qsize} GPUs can never fit");
            };
            let (_, gpus) = running.swap_remove(idx);
            map.release(&gpus);
            if let Some(p) = try_place(&mut map, &mut running, &mut rng, qid, t, qsize) {
                planned.push(p);
                break;
            }
        }
    }
    planned.sort_by_key(|p| (p.start, p.id));
    planned
}

/// One job's outcome.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job index.
    pub id: usize,
    /// GPU count.
    pub gpus: usize,
    /// Mean AllReduce completion time over the job's iterations.
    pub mean_allreduce: Nanos,
}

/// One variant's world over a pre-planned job set: job `planned[i]` is
/// the library tenant `job{id}`, `AppId(i)`, with `cfg.iterations` of
/// compute then an AllReduce, its hash salted with `cfg.seed ^ id`.
pub fn scenario(
    topo: Arc<Topology>,
    planned: &[PlannedJob],
    variant: ScaleVariant,
    cfg: &ScaleConfig,
) -> Scenario {
    let mut ffa = IncrementalFfa::new();
    let tenants = planned
        .iter()
        .map(|job| {
            let rings = || optimal_rings(&topo, &job.gpus, ChannelPolicy::Fixed(cfg.channels));
            let (ring, routes, channels) = match variant {
                ScaleVariant::RandomRing => (
                    RingChoice::RandomHosts,
                    RouteMap::ecmp(),
                    cfg.baseline_channels,
                ),
                ScaleVariant::OptimalRing => (
                    RingChoice::Explicit(rings()),
                    RouteMap::ecmp(),
                    cfg.channels,
                ),
                ScaleVariant::OptimalRingFfa => {
                    let rings = rings();
                    let flows = JobFlows::from_rings(&topo, &rings, 0).flows;
                    let routes = ffa.place_job(&topo, &flows);
                    (RingChoice::Explicit(rings), routes, cfg.channels)
                }
            };
            Tenant {
                name: format!("job{}", job.id),
                gpus: job.gpus.clone(),
                body: vec![
                    Work::Compute(cfg.compute),
                    Work::Collective {
                        op: all_reduce_sum(),
                        size: cfg.collective,
                    },
                ],
                iters: cfg.iterations,
                start: job.start,
                mode: TenantMode::Library(LibraryConfig {
                    channels,
                    ring,
                    routes,
                    hash_salt: cfg.seed ^ job.id as u64,
                }),
            }
        })
        .collect();
    Scenario {
        topo,
        config: ClusterConfig::library_mode(cfg.seed),
        tenants,
        faults: None,
    }
}

/// Run one variant over a pre-planned job set.
pub fn run_scale(
    topo: Arc<Topology>,
    planned: &[PlannedJob],
    variant: ScaleVariant,
    cfg: &ScaleConfig,
) -> Vec<JobResult> {
    let mut cluster = scenario(topo, planned, variant, cfg).build();
    cluster.run_until_quiescent(Nanos::from_secs(3600));
    planned
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let tl = cluster.mgmt().timeline(AppId(i as u32));
            assert_eq!(tl.len(), cfg.iterations, "job {} incomplete", job.id);
            let mean = tl
                .iter()
                .map(|r| r.latency().expect("complete").as_secs_f64())
                .sum::<f64>()
                / tl.len() as f64;
            JobResult {
                id: job.id,
                gpus: job.gpus.len(),
                mean_allreduce: Nanos::from_secs_f64(mean),
            }
        })
        .collect()
}

/// Per-job speedups of `variant_results` relative to `baseline_results`
/// (matched by job id).
pub fn speedups(baseline: &[JobResult], variant: &[JobResult]) -> Vec<f64> {
    let mut base: std::collections::BTreeMap<usize, f64> = baseline
        .iter()
        .map(|r| (r.id, r.mean_allreduce.as_secs_f64()))
        .collect();
    variant
        .iter()
        .map(|r| {
            let b = base.remove(&r.id).expect("matched job ids");
            b / r.mean_allreduce.as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_sim::Bandwidth;
    use mccs_topology::presets::{self, SpineLeafConfig};

    /// A small 64-GPU cluster so tests run fast: 2 spines, 8 leaves,
    /// 2 hosts/leaf, 4 GPUs/host, oversubscription 2.
    fn small_topo() -> Arc<Topology> {
        Arc::new(presets::spine_leaf(&SpineLeafConfig {
            spines: 2,
            leaves: 8,
            hosts_per_leaf: 2,
            gpus_per_host: 4,
            nic_bandwidth: Bandwidth::gbps(100.0),
            leaf_spine_bandwidth: Bandwidth::gbps(200.0),
        }))
    }

    fn small_cfg(placement: Placement) -> ScaleConfig {
        ScaleConfig {
            jobs: 10,
            mean_gap: Nanos::from_millis(40),
            sizes: vec![8, 16],
            iterations: 3,
            collective: Bytes::new(250_000_000),
            compute: Nanos::from_millis(10),
            channels: 4,
            baseline_channels: 2,
            placement,
            seed: 5,
        }
    }

    #[test]
    fn planning_is_deterministic_and_capacity_safe() {
        let topo = small_topo();
        let cfg = small_cfg(Placement::Random);
        let a = plan_jobs(&topo, &cfg);
        let b = plan_jobs(&topo, &cfg);
        assert_eq!(a.len(), cfg.jobs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.gpus, y.gpus);
        }
    }

    #[test]
    fn or_beats_random_ring_on_average() {
        let topo = small_topo();
        let cfg = small_cfg(Placement::Random);
        let plan = plan_jobs(&topo, &cfg);
        let random = run_scale(Arc::clone(&topo), &plan, ScaleVariant::RandomRing, &cfg);
        let or = run_scale(Arc::clone(&topo), &plan, ScaleVariant::OptimalRing, &cfg);
        let sp = speedups(&random, &or);
        let mean = sp.iter().sum::<f64>() / sp.len() as f64;
        assert!(
            mean > 1.1,
            "OR should speed up random rings on random placement, got {mean:.2}x ({sp:?})"
        );
    }

    #[test]
    fn ffa_does_not_regress_or() {
        let topo = small_topo();
        let cfg = small_cfg(Placement::Random);
        let plan = plan_jobs(&topo, &cfg);
        let or = run_scale(Arc::clone(&topo), &plan, ScaleVariant::OptimalRing, &cfg);
        let ffa = run_scale(Arc::clone(&topo), &plan, ScaleVariant::OptimalRingFfa, &cfg);
        let sp = speedups(&or, &ffa);
        let mean = sp.iter().sum::<f64>() / sp.len() as f64;
        assert!(
            mean > 0.95,
            "FFA should not regress OR on average, got {mean:.2}x"
        );
    }

    #[test]
    fn compact_placement_shrinks_ffa_marginal_gain() {
        // The paper's Figure 11b observation: under compact placement
        // "FFA does not add much to OR because the job almost never spans
        // more than two racks" — the OR->OR+FFA margin shrinks relative to
        // random placement.
        let topo = small_topo();
        let ffa_margin = |placement| {
            let cfg = small_cfg(placement);
            let plan = plan_jobs(&topo, &cfg);
            let or = run_scale(Arc::clone(&topo), &plan, ScaleVariant::OptimalRing, &cfg);
            let orffa = run_scale(Arc::clone(&topo), &plan, ScaleVariant::OptimalRingFfa, &cfg);
            let sp = speedups(&or, &orffa);
            sp.iter().sum::<f64>() / sp.len() as f64
        };
        let random_margin = ffa_margin(Placement::Random);
        let compact_margin = ffa_margin(Placement::Compact);
        assert!(
            compact_margin <= random_margin + 0.05,
            "FFA margin should shrink under compact placement:              compact {compact_margin:.3} vs random {random_margin:.3}"
        );
    }
}
