//! Scenarios as data: the one description of a closed-loop collective
//! world and the one way to build and run it.
//!
//! A [`Scenario`] is a topology, a cluster config, a list of [`Tenant`]s
//! and an optional fault plan. Every tenant runs the same NCCL-tests
//! style script — UCC's "init once and invoke multiple times": allocate a
//! send and a receive buffer, join the communicator, optionally sleep
//! until `start`, then issue `iters` back-to-back collectives. Worlds that
//! also need a bespoke program, a library-mode job or management calls
//! mid-run call [`Scenario::build`] and carry on with the [`Cluster`].

use crate::cluster::{Cluster, ClusterConfig};
use crate::tracing::TraceRecord;
use mccs_collectives::CollectiveOp;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_netsim::FaultPlan;
use mccs_shim::{AppProgram, ScriptStep, ScriptedProgram};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{GpuId, Topology};
use std::sync::Arc;

/// One tenant: rank `r` runs on `gpus[r]`, and every rank issues `iters`
/// `op`s of `size` bytes over `comm`, the first at `start` or as soon as
/// the communicator is up.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Application name (programs are named `"{name}/r{rank}"`).
    pub name: String,
    /// The tenant's communicator.
    pub comm: CommunicatorId,
    /// Rank -> GPU map.
    pub gpus: Vec<GpuId>,
    /// The collective every iteration issues.
    pub op: CollectiveOp,
    /// Buffer size.
    pub size: Bytes,
    /// Collectives per rank (at least one).
    pub iters: usize,
    /// Virtual instant the first collective waits for.
    pub start: Nanos,
}

impl Tenant {
    /// Rank `rank`'s script: `Alloc` slots 0 and 1, `CommInit`,
    /// `SleepUntil(start)` if `start > 0`, the collective from slot 0 to
    /// slot 1, and a `Repeat` of it if `iters > 1`.
    ///
    /// # Panics
    /// If `iters == 0`: a tenant runs at least one collective.
    pub fn program(&self, rank: usize) -> ScriptedProgram {
        assert!(
            self.iters > 0,
            "tenant '{}' must run at least one collective (iters = 0)",
            self.name
        );
        let size = self.size;
        let mut steps = vec![
            ScriptStep::Alloc { size, slot: 0 },
            ScriptStep::Alloc { size, slot: 1 },
            ScriptStep::CommInit {
                comm: self.comm,
                world: self.gpus.clone(),
                rank,
            },
        ];
        if self.start > Nanos::ZERO {
            steps.push(ScriptStep::SleepUntil(self.start));
        }
        let head = steps.len();
        steps.push(ScriptStep::Collective {
            comm: self.comm,
            op: self.op,
            size,
            send_slot: 0,
            recv_slot: 1,
        });
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
    /// The cluster: `Cluster::new`, then `add_app` once per tenant in
    /// order, then the fault plan. The order fixes the `AppId`s and the
    /// order endpoints fork the world RNG, so two scenarios that differ
    /// only in a tenant appended last build the same first tenants.
    pub fn build(&self) -> Cluster {
        let mut cluster = Cluster::new(Arc::clone(&self.topo), self.config.clone());
        for t in &self.tenants {
            let ranks = t
                .gpus
                .iter()
                .enumerate()
                .map(|(rank, &gpu)| (gpu, Box::new(t.program(rank)) as Box<dyn AppProgram>))
                .collect();
            cluster.add_app(&t.name, ranks);
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
                let mut trace: Vec<TraceRecord> = cluster
                    .world
                    .trace
                    .for_app(AppId(app as u32))
                    .into_iter()
                    .cloned()
                    .collect();
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

    #[test]
    #[should_panic(expected = "tenant 'idle' must run at least one collective")]
    fn a_tenant_without_iterations_is_refused() {
        let idle = Tenant {
            name: "idle".to_owned(),
            comm: CommunicatorId(1),
            gpus: vec![GpuId(0)],
            op: all_reduce_sum(),
            size: Bytes::mib(1),
            iters: 0,
            start: Nanos::ZERO,
        };
        idle.program(0);
    }
}
