//! # mccs-baseline — frozen adapter over `mccs_core::library`
//!
//! The spelling of a library job that the frozen `mccsbench/src/run.rs`
//! still names, mapped onto `Cluster::add_tenant` of a `TenantMode::Library`
//! tenant, so the benchmark measures the engine the repository ships.
//! Ledger (i)'s shim: the next `[benchmark]` PR deletes it.

use mccs_core::cluster::Cluster;
use mccs_core::config::RouteMap;
use mccs_core::library::{LibraryConfig, LAUNCH_OVERHEAD};
use mccs_core::{Tenant, TenantMode};
use mccs_ipc::AppId;
use mccs_sim::Nanos;
use mccs_topology::GpuId;

pub use mccs_core::library::RingChoice;
/// One phase of a job's iteration: a [`Tenant`]'s body step.
pub use mccs_core::Work as Phase;

/// `mccs_core::LibraryConfig` plus `launch_overhead`, which must be
/// [`LAUNCH_OVERHEAD`].
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// `LibraryConfig::channels`.
    pub channels: usize,
    /// `LibraryConfig::ring`.
    pub ring: RingChoice,
    /// `LibraryConfig::routes`.
    pub routes: RouteMap,
    /// Kernel-launch overhead per collective.
    pub launch_overhead: Nanos,
    /// `LibraryConfig::hash_salt`.
    pub hash_salt: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        let lib = LibraryConfig::default();
        BaselineConfig {
            channels: lib.channels,
            ring: lib.ring,
            routes: lib.routes,
            launch_overhead: LAUNCH_OVERHEAD,
            hash_salt: lib.hash_salt,
        }
    }
}

/// A library-mode job, spelled the old way.
pub struct BaselineJob;

impl BaselineJob {
    /// `Cluster::add_tenant` of the library tenant these arguments
    /// describe, whose body is `phases`.
    ///
    /// # Panics
    /// On another launch overhead, or a tenant `add_tenant` refuses.
    pub fn spawn(
        cluster: &mut Cluster,
        name: &str,
        cfg: BaselineConfig,
        gpus: Vec<GpuId>,
        phases: Vec<Phase>,
        iterations: usize,
        start_at: Nanos,
    ) -> AppId {
        assert_eq!(cfg.launch_overhead, LAUNCH_OVERHEAD, "a constant");
        let tenant = Tenant {
            name: name.to_owned(),
            gpus,
            body: phases,
            iters: iterations,
            start: start_at,
            mode: TenantMode::Library(LibraryConfig {
                channels: cfg.channels,
                ring: cfg.ring,
                routes: cfg.routes,
                hash_salt: cfg.hash_salt,
            }),
        };
        cluster
            .add_tenant(&tenant)
            .unwrap_or_else(|e| panic!("invalid job configuration: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_collectives::op::all_reduce_sum;
    use mccs_core::{ClusterConfig, Record, Scenario};
    use mccs_sim::Bytes;
    use mccs_topology::presets;
    use std::sync::Arc;

    /// Two staggered jobs with compute, one per ring choice that draws
    /// nothing and one that draws its ring from the world RNG.
    fn jobs() -> Vec<(BaselineConfig, Vec<GpuId>, Nanos)> {
        let gpus = |ids: [u32; 4]| ids.map(GpuId).to_vec();
        vec![
            (BaselineConfig::default(), gpus([0, 4, 2, 6]), Nanos::ZERO),
            (
                BaselineConfig {
                    channels: 3,
                    ring: RingChoice::RandomHosts,
                    hash_salt: 5,
                    ..Default::default()
                },
                gpus([1, 3, 5, 7]),
                Nanos::from_millis(2),
            ),
        ]
    }

    const COMPUTE: Nanos = Nanos::from_micros(700);
    const SIZE: Bytes = Bytes::mib(8);
    const ITERS: usize = 3;

    fn phases() -> Vec<Phase> {
        vec![
            Phase::Compute(COMPUTE),
            Phase::Collective {
                op: all_reduce_sum(),
                size: SIZE,
            },
        ]
    }

    #[test]
    fn the_adapter_builds_the_same_world_as_the_equal_tenants() {
        let topo = Arc::new(presets::testbed());
        let config = ClusterConfig::library_mode(3);
        let deadline = Nanos::from_secs(10);

        let mut cluster = Cluster::new(Arc::clone(&topo), config.clone());
        for (i, (cfg, gpus, start)) in jobs().into_iter().enumerate() {
            let name = format!("job{i}");
            BaselineJob::spawn(&mut cluster, &name, cfg, gpus, phases(), ITERS, start);
        }
        let end = cluster.run_until_quiescent(deadline);
        let adapter = Record::of(&cluster, end);

        let tenants = jobs()
            .into_iter()
            .enumerate()
            .map(|(i, (cfg, gpus, start))| Tenant {
                name: format!("job{i}"),
                gpus,
                body: phases(),
                iters: ITERS,
                start,
                mode: TenantMode::Library(LibraryConfig {
                    channels: cfg.channels,
                    ring: cfg.ring,
                    routes: cfg.routes,
                    hash_salt: cfg.hash_salt,
                }),
            })
            .collect();
        let scenario = Scenario {
            topo,
            config,
            tenants,
            faults: None,
        };
        let direct = scenario.run(deadline);

        assert_eq!(adapter.traces, direct.traces);
        assert_eq!(adapter.digest, direct.digest);
        assert_eq!(adapter.end, direct.end);
        assert!(adapter.traces.iter().all(|t| t.len() == ITERS));
    }

    #[test]
    #[should_panic(expected = "whose body is [Compute?, Collective]")]
    fn a_phase_list_of_another_shape_is_refused() {
        let mut cluster =
            Cluster::new(Arc::new(presets::testbed()), ClusterConfig::library_mode(3));
        let (cfg, gpus, start) = jobs().remove(0);
        let phases = vec![Phase::Compute(COMPUTE), Phase::Compute(COMPUTE)];
        BaselineJob::spawn(&mut cluster, "job", cfg, gpus, phases, ITERS, start);
    }
}
