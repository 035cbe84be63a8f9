//! Build a workload's world, drive it to quiescence and read the
//! outcome — through public functions of the simulator crates only.
//!
//! The driver loop is `Cluster::step` re-assembled from its public
//! halves (`poll_once`, `World::next_time`, `World::advance_to`) so a
//! [`Recorder`] can bracket each call; traced and untraced runs execute
//! the same loop.

use crate::spec::{self, CtrlSpec, Spec, Workload};
use crate::stats;
use crate::trace::{Recorder, SpanName};
use mccs_baseline::{BaselineConfig, BaselineJob, Phase, RingChoice};
use mccs_collectives::bandwidth::bus_bandwidth;
use mccs_collectives::op::all_reduce_sum;
use mccs_control::{optimize_cluster, PolicySpec};
use mccs_core::config::RouteMap;
use mccs_core::{Cluster, ClusterConfig};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::FaultPlan;
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::Nanos;
use mccs_topology::presets::spine_leaf;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// A run that has not quiesced by this much virtual time is reported as
/// hung: every unfinished collective counts as failed.
const VIRTUAL_DEADLINE: Nanos = Nanos::from_secs(3600);

/// A built world, ready for its first poll.
pub struct Scenario {
    pub cluster: Cluster,
    /// Tenant or job `i` of the spec is the cluster's `AppId(i)`.
    pub spec: Spec,
}

/// Build topology, inputs, cluster and tenants for `(w, seed)`. Returns
/// the scenario and the host seconds it took (`setup_s`).
pub fn set_up<R: Recorder>(w: Workload, seed: u64, quick: bool, rec: &mut R) -> (Scenario, f64) {
    let t0 = Instant::now();
    rec.enter(SpanName::Setup);

    rec.enter(SpanName::TopologyBuild);
    let topo = Arc::new(spine_leaf(&spec::fabric(w, quick)));
    rec.exit();

    rec.enter(SpanName::Plan);
    let spec = spec::generate(w, seed, quick, &topo);
    rec.exit();

    rec.enter(SpanName::ClusterNew);
    let cfg = match spec {
        Spec::Service { .. } => ClusterConfig::with_seed(seed),
        Spec::Library { .. } => ClusterConfig::library_mode(seed),
    };
    let mut cluster = Cluster::new(topo, cfg);
    rec.exit();

    rec.enter(SpanName::AddApps);
    let apps: Vec<AppId> = match &spec {
        Spec::Service { tenants, ctrl } => {
            if let Some(CtrlSpec { faults, .. }) = ctrl {
                let plan = faults
                    .iter()
                    .fold(FaultPlan::new(), |p, (at, ev)| p.at(*at, ev.clone()));
                cluster.install_fault_plan(plan);
            }
            tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let ranks = (0..t.gpus.len())
                        .map(|rank| {
                            let prog = tenant_rank_program(i, rank, t);
                            (t.gpus[rank], Box::new(prog) as Box<dyn AppProgram>)
                        })
                        .collect();
                    cluster.add_app(&format!("tenant{i}"), ranks)
                })
                .collect()
        }
        Spec::Library {
            jobs,
            iterations,
            compute,
            channels,
        } => jobs
            .iter()
            .map(|job| {
                let phases = vec![
                    Phase::Compute(*compute),
                    Phase::Collective {
                        op: all_reduce_sum(),
                        size: job.size,
                    },
                ];
                BaselineJob::spawn(
                    &mut cluster,
                    &format!("job{}", job.id),
                    BaselineConfig {
                        channels: *channels,
                        ring: RingChoice::RandomHosts,
                        routes: RouteMap::ecmp(),
                        hash_salt: job.hash_salt,
                        ..Default::default()
                    },
                    job.gpus.clone(),
                    phases,
                    *iterations,
                    job.start,
                )
            })
            .collect(),
    };
    rec.exit();
    assert!(
        apps.iter().enumerate().all(|(i, a)| a.0 as usize == i),
        "apps are numbered in spec order"
    );

    rec.exit();
    let setup_s = t0.elapsed().as_secs_f64();
    (Scenario { cluster, spec }, setup_s)
}

/// One rank of a service-mode tenant: allocate, join the communicator,
/// sleep until the tenant's start, then a closed loop of AllReduces —
/// each issued when the previous one completes.
fn tenant_rank_program(tenant: usize, rank: usize, t: &spec::TenantSpec) -> ScriptedProgram {
    let comm = CommunicatorId(1 + tenant as u64);
    let mut steps = vec![
        ScriptStep::Alloc {
            size: t.size,
            slot: 0,
        },
        ScriptStep::Alloc {
            size: t.size,
            slot: 1,
        },
        ScriptStep::CommInit {
            comm,
            world: t.gpus.clone(),
            rank,
        },
        ScriptStep::SleepUntil(t.start),
    ];
    let loop_start = steps.len();
    if t.compute > Nanos::ZERO {
        steps.push(ScriptStep::Compute(t.compute));
    }
    steps.push(ScriptStep::Collective {
        comm,
        op: all_reduce_sum(),
        size: t.size,
        send_slot: 0,
        recv_slot: 1,
    });
    steps.push(ScriptStep::Repeat {
        from_step: loop_start,
        times: t.iters - 1,
    });
    ScriptedProgram::new(format!("tenant{tenant}/r{rank}"), steps)
}

/// What the driver loop itself counted.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DriveCounts {
    pub steps: u64,
    pub optimize_calls: u64,
    pub reconfigs: u64,
    /// The virtual deadline passed before quiescence.
    pub hung: bool,
}

/// Drive the scenario to quiescence.
pub fn drive<R: Recorder>(sc: &mut Scenario, rec: &mut R) -> DriveCounts {
    let cluster = &mut sc.cluster;
    let every = match &sc.spec {
        Spec::Service { ctrl: Some(c), .. } => Some(c.optimize_every),
        _ => None,
    };
    let policy = PolicySpec::mccs();
    let mut next_optimize = every;
    let mut counts = DriveCounts::default();
    rec.enter(SpanName::Run);
    loop {
        counts.steps += 1;
        rec.begin_step(|| cluster.world.net.flow_count());

        rec.enter(SpanName::Poll);
        cluster.poll_once();

        rec.switch(SpanName::NextTime);
        let next = cluster.world.next_time();

        let Some(next) = next else {
            rec.exit();
            break;
        };
        // The controller's period is not a world event: when it falls
        // before the next event, stop there and let the controller act.
        let optimize_at = next_optimize.filter(|&at| at <= next);
        let target = optimize_at.unwrap_or(next);
        if target > VIRTUAL_DEADLINE {
            counts.hung = true;
            rec.exit();
            break;
        }

        rec.switch(SpanName::Advance);
        cluster.world.advance_to(target);

        if let Some(at) = optimize_at {
            rec.switch(SpanName::Optimize);
            // A crashed controller issues nothing until it restarts.
            if !cluster.mgmt().controller_down() {
                counts.optimize_calls += 1;
                counts.reconfigs += optimize_cluster(cluster, &policy).len() as u64;
            }
            next_optimize = Some(at + every.expect("optimize_at implies a period"));
        }
        rec.exit();
    }
    rec.exit();
    counts
}

/// Counters read from the program after a run; they repeat exactly for a
/// `(workload, seed)`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counts {
    pub drive: DriveCounts,
    pub polls: u64,
    pub wasted_polls: u64,
    pub wakes: u64,
    pub remap_hits: u64,
    pub remap_misses: u64,
    pub remap_fast_hits: u64,
    pub sched_cache_hits: u64,
    pub sched_cache_misses: u64,
    pub flow_retries: u64,
    pub flow_repins: u64,
    pub recoveries: u64,
    pub failbacks: u64,
    pub reconfig_rejects: u64,
    pub checkpoints: u64,
}

/// Everything observable about a finished run, in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub digest: u64,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub sim_makespan_s: f64,
    pub sim_coll_p50_ms: f64,
    pub sim_coll_p99_ms: f64,
    /// Whether p99 has at least ten samples beyond it.
    pub p99_supported: bool,
    pub sim_busbw_gbps: f64,
    pub counts: Counts,
}

/// Read the outcome and check it: every tenant's collectives are all
/// accounted for, and the failure count agrees with the service's own
/// health counter. Returns the violations found (none = correct).
pub fn outcome(sc: &Scenario, drive: DriveCounts) -> (Outcome, Vec<String>) {
    let mut problems = Vec::new();
    let world = &sc.cluster.world;
    let attempted_per_app = sc.spec.attempted_per_app();
    let ranks_per_app = sc.spec.ranks_per_app();

    // A collective failed if the service failed it on any rank.
    let records = world.trace.records();
    let mut failed_rank_records = 0u64;
    let mut failed_keys: HashSet<(CommunicatorId, u64)> = HashSet::new();
    for r in records.iter().filter(|r| r.failed_at.is_some()) {
        failed_rank_records += 1;
        failed_keys.insert((r.comm, r.seq));
    }

    let mut completed_per_app = vec![0u64; attempted_per_app.len()];
    let mut failed_per_app = vec![0u64; attempted_per_app.len()];
    let mut latencies_ms = Vec::new();
    let mut busbw_sum = 0.0;
    let mut last_end = Nanos::ZERO;
    for r in records.iter().filter(|r| r.rank == 0) {
        let i = r.app.0 as usize;
        if failed_keys.contains(&(r.comm, r.seq)) {
            failed_per_app[i] += 1;
            last_end = last_end.max(r.failed_at.or(r.completed_at).unwrap_or(Nanos::ZERO));
        } else if let Some(latency) = r.latency() {
            completed_per_app[i] += 1;
            latencies_ms.push(latency.as_millis_f64());
            busbw_sum += bus_bandwidth(r.op, ranks_per_app[i], r.size, latency).as_gbps();
            last_end = last_end.max(r.completed_at.expect("latency implies completion"));
        }
    }

    let attempted: u64 = attempted_per_app.iter().map(|&n| n as u64).sum();
    let completed: u64 = completed_per_app.iter().sum();
    let mut failed: u64 = failed_per_app.iter().sum();
    for (i, &want) in attempted_per_app.iter().enumerate() {
        let got = completed_per_app[i] + failed_per_app[i];
        if got > want as u64 || (!drive.hung && got != want as u64) {
            problems.push(format!(
                "app {i}: {got} of {want} collectives accounted for ({} completed, {} failed)",
                completed_per_app[i], failed_per_app[i]
            ));
        }
    }
    if drive.hung {
        // Whatever had not finished by the virtual deadline has failed.
        failed = attempted - completed;
    }
    let health = world.health.counters;
    if health.collectives_failed != failed_rank_records {
        problems.push(format!(
            "health counter says {} failed rank-collectives, the trace says {failed_rank_records}",
            health.collectives_failed
        ));
    }
    if completed == 0 {
        problems.push("no collective completed".to_owned());
        latencies_ms.push(0.0);
    }

    let sorted = stats::sorted(&latencies_ms);
    let sched = sc.cluster.scheduler_stats();
    let (remap_hits, remap_misses) = world.net.remap_cache_stats();
    let (sched_cache_hits, sched_cache_misses) = world.schedule_cache.stats();
    let out = Outcome {
        digest: sc.cluster.observable_digest(),
        attempted,
        completed,
        failed,
        sim_makespan_s: last_end.as_secs_f64(),
        sim_coll_p50_ms: stats::percentile(&sorted, 500),
        sim_coll_p99_ms: stats::percentile(&sorted, 990),
        p99_supported: stats::ten_beyond(sorted.len(), 990),
        sim_busbw_gbps: busbw_sum / completed.max(1) as f64,
        counts: Counts {
            drive,
            polls: sched.polls,
            wasted_polls: sched.wasted_polls,
            wakes: sched.wakes,
            remap_hits,
            remap_misses,
            remap_fast_hits: world.net.remap_fast_hits(),
            sched_cache_hits,
            sched_cache_misses,
            flow_retries: health.flow_retries,
            flow_repins: health.flow_repins,
            recoveries: health.recoveries,
            failbacks: health.failbacks,
            reconfig_rejects: health.reconfig_rejects,
            checkpoints: world.controller.stats.checkpoints,
        },
    };
    (out, problems)
}
