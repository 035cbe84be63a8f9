//! Scenarios as data: the one description of a closed-loop collective
//! world and the one way to build and run it.
//!
//! A [`Scenario`] is a topology, a cluster config, a list of [`Tenant`]s
//! and an optional fault plan. Every tenant repeats one iteration, its
//! [`Work`] body — UCC's "init once and invoke multiple times" — on the
//! executor its [`TenantMode`] names: the MCCS service or the NCCL-like
//! library ([`crate::library`]). A loop benchmark's body is
//! `[Compute?, Collective]`; a replayed training trace (`mccs-workloads`)
//! lowers its iteration into a body too. Worlds that also need management
//! calls mid-run call [`Scenario::build`] and carry on.

use crate::cluster::{Cluster, ClusterConfig};
use crate::library::LibraryConfig;
use crate::tracing::TraceRecord;
use mccs_collectives::CollectiveOp;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::FaultPlan;
use mccs_shim::{ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{GpuId, Topology};
use std::sync::Arc;

/// One step of a tenant's iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Work {
    /// Exposed GPU work on the tenant's stream for this long (compute, or
    /// a CPU <-> GPU copy).
    Compute(Nanos),
    /// No GPU work for this long (an input stall, a synchronization wait).
    Sleep(Nanos),
    /// One collective over the whole tenant.
    Collective {
        /// The operation.
        op: CollectiveOp,
        /// Buffer size.
        size: Bytes,
    },
}

/// One tenant: rank `r` runs on `gpus[r]`, and from `start` the tenant
/// runs `iters` iterations of `body`.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Application name (service programs are named `"{name}/r{rank}"`).
    pub name: String,
    /// Rank -> GPU map (at least one GPU).
    pub gpus: Vec<GpuId>,
    /// One iteration, in order (at least one step). A library job runs
    /// `[Compute?, Collective]` only.
    pub body: Vec<Work>,
    /// Iterations (at least one).
    pub iters: usize,
    /// Virtual instant the first iteration waits for.
    pub start: Nanos,
    /// Which executor runs the collectives.
    pub mode: TenantMode,
}

/// How a tenant's collectives run.
#[derive(Clone, Debug)]
pub enum TenantMode {
    /// Through the MCCS service, on this communicator: a shim program per
    /// rank, measured at the tenant by `Management::tenant_latencies`.
    Service(CommunicatorId),
    /// In a library linked into the tenant, with its private communicator
    /// and a strategy fixed at init ([`crate::library`]).
    Library(LibraryConfig),
}

impl Tenant {
    /// The size of both buffers: the largest collective of the body, or
    /// 4 KiB if it has none.
    fn buffer_size(&self) -> Bytes {
        self.body
            .iter()
            .filter_map(|w| match w {
                Work::Collective { size, .. } => Some(*size),
                _ => None,
            })
            .max()
            .unwrap_or(Bytes::kib(4))
    }

    /// Rank `rank`'s service script over `comm`, the one closed-loop
    /// tenant program: `Alloc` slots 0 and 1 of the buffer size,
    /// `CommInit` of `comm`, `SleepUntil(start)` if `start > 0`, then the
    /// body, with a `Repeat` of it if `iters > 1`. A collective goes from
    /// slot 0 to slot 1.
    pub(crate) fn program(&self, comm: CommunicatorId, rank: usize) -> ScriptedProgram {
        let size = self.buffer_size();
        let mut steps = vec![
            ScriptStep::Alloc { size, slot: 0 },
            ScriptStep::Alloc { size, slot: 1 },
            ScriptStep::CommInit {
                comm,
                world: self.gpus.clone(),
                rank,
            },
        ];
        if self.start > Nanos::ZERO {
            steps.push(ScriptStep::SleepUntil(self.start));
        }
        let head = steps.len();
        steps.extend(self.body.iter().map(|w| match *w {
            Work::Compute(d) => ScriptStep::Compute(d),
            Work::Sleep(d) => ScriptStep::Sleep(d),
            Work::Collective { op, size } => ScriptStep::Collective {
                comm,
                op,
                size,
                send_slot: 0,
                recv_slot: 1,
            },
        }));
        if self.iters > 1 {
            steps.push(ScriptStep::Repeat {
                from_step: head,
                times: self.iters - 1,
            });
        }
        ScriptedProgram::new(format!("{}/r{rank}", self.name), steps)
    }
}

/// A closed-loop collective world.
#[derive(Clone)]
pub struct Scenario {
    /// The fabric.
    pub topo: Arc<Topology>,
    /// Cost models, service tuning and the master seed.
    pub config: ClusterConfig,
    /// Tenants, attached in order: tenant `i` is `AppId(i)`.
    pub tenants: Vec<Tenant>,
    /// A fault schedule installed before the first poll.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// The cluster: `Cluster::new`, then [`Cluster::add_tenant`] once per
    /// tenant in order, then the fault plan. The order fixes the `AppId`s
    /// and the order tenants draw from the world RNG (service endpoints
    /// fork it, a `RandomHosts` library job draws its ring), so two
    /// scenarios that differ only in a tenant appended last build the same
    /// first tenants.
    ///
    /// # Panics
    /// If a tenant is refused; the message names it and the cause.
    pub fn build(&self) -> Cluster {
        let mut cluster = Cluster::new(Arc::clone(&self.topo), self.config.clone());
        for t in &self.tenants {
            if let Err(e) = cluster.add_tenant(t) {
                panic!("tenant '{}' refused: {e}", t.name);
            }
        }
        if let Some(plan) = &self.faults {
            cluster.install_fault_plan(plan.clone());
        }
        cluster
    }

    /// Build and run to quiescence.
    ///
    /// # Panics
    /// If the world is still active at `deadline`.
    pub fn run(&self, deadline: Nanos) -> Record {
        let mut cluster = self.build();
        let end = cluster.run_until_quiescent(deadline);
        Record::of(&cluster, end)
    }
}

/// What a run observably did.
#[derive(Clone, Debug)]
pub struct Record {
    /// The instant the world quiesced.
    pub end: Nanos,
    /// Per application (`AppId` order), its trace sorted by `(seq, rank)`.
    pub traces: Vec<Vec<TraceRecord>>,
    /// [`Cluster::observable_digest`].
    pub digest: u64,
}

impl Record {
    /// The record of `cluster`, which quiesced at `end`.
    pub fn of(cluster: &Cluster, end: Nanos) -> Record {
        let traces = (0..cluster.world.app_names.len())
            .map(|app| {
                let mut trace = cluster.world.trace.for_app(AppId(app as u32));
                trace.sort_by_key(|r| (r.seq, r.rank));
                trace
            })
            .collect();
        Record {
            end,
            traces,
            digest: cluster.observable_digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_collectives::op::all_reduce_sum;
    use mccs_topology::presets;

    fn tenant(gpus: Vec<GpuId>, iters: usize) -> Tenant {
        Tenant {
            name: "idle".to_owned(),
            gpus,
            body: vec![Work::Collective {
                op: all_reduce_sum(),
                size: Bytes::mib(1),
            }],
            iters,
            start: Nanos::ZERO,
            mode: TenantMode::Service(CommunicatorId(1)),
        }
    }

    #[test]
    fn a_tenant_without_iterations_gpus_or_body_is_refused() {
        let mut cluster = Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(1));
        let rng = format!("{:?}", cluster.world.rng);
        let empty = Tenant {
            body: Vec::new(),
            ..tenant(vec![GpuId(0)], 1)
        };
        for (t, cause) in [
            (tenant(vec![GpuId(0)], 0), "must run at least one iteration"),
            (tenant(Vec::new(), 1), "needs at least one GPU"),
            (empty, "has an empty body"),
        ] {
            for mode in [
                t.mode.clone(),
                TenantMode::Library(LibraryConfig::default()),
            ] {
                let t = Tenant { mode, ..t.clone() };
                let e = cluster.add_tenant(&t).expect_err("refused");
                assert_eq!(e.code, mccs_ipc::ErrorCode::InvalidArgument);
                assert!(e.message.contains("tenant 'idle'"), "{e}");
                assert!(e.message.contains(cause), "{e}");
            }
        }
        assert!(cluster.world.app_names.is_empty(), "nothing attached");
        assert_eq!(format!("{:?}", cluster.world.rng), rng, "no RNG draw");
    }

    #[test]
    fn a_refused_allocation_ends_its_tenant_and_spares_the_other() {
        // The testbed's GPUs hold 24 GiB, so the frontend refuses the
        // first buffer of "huge" with a typed error: its ranks stop there,
        // and "fine", on the other GPUs, runs every collective.
        let mut huge = tenant(vec![GpuId(1), GpuId(3)], 2);
        huge.name = "huge".to_owned();
        huge.body = vec![Work::Collective {
            op: all_reduce_sum(),
            size: Bytes::gib(32),
        }];
        huge.mode = TenantMode::Service(CommunicatorId(2));
        let fine = tenant(vec![GpuId(0), GpuId(2)], 3);
        let mut cluster = Scenario {
            topo: Arc::new(presets::testbed()),
            config: ClusterConfig::with_seed(3),
            tenants: vec![fine, huge],
            faults: None,
        }
        .build();
        cluster
            .try_run_until_quiescent(Nanos::from_secs(10))
            .expect("a refused tenant must not hang the world");
        let fine = cluster.mgmt().tenant_outcomes(AppId(0));
        assert_eq!(fine.len(), 3, "every collective of the other tenant");
        assert!(fine.iter().all(|r| !r.failed), "{fine:?}");
        let huge = cluster.mgmt().tenant_outcomes(AppId(1));
        assert!(huge.is_empty(), "nothing issued after the refusal");
    }
}
