//! The four evaluated systems behind one interface.
//!
//! * **NCCL** — tenant-linked library, rank-order ring, ECMP, no service
//!   overhead ([`mccs_core::library`]).
//! * **NCCL(OR)** — the same library hand-fed the provider's optimal ring
//!   (isolates MCCS's system overhead from its algorithmic gain, §6.1).
//! * **MCCS(-FA)** — the full MCCS service with locality-aware rings but
//!   ECMP routing (§6.2's ablation).
//! * **MCCS** — locality-aware rings + fair flow assignment.

use crate::setups::AppPlacement;
use mccs_collectives::CollectiveOp;
use mccs_control::{optimal_rings, optimize_cluster, ChannelPolicy, PolicySpec};
use mccs_core::{ClusterConfig, LibraryConfig, RingChoice, Scenario, Tenant, TenantMode, Work};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::{presets, GpuId};
use std::sync::Arc;

/// The system under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemVariant {
    /// Tenant library, rank-order ring, ECMP.
    Nccl,
    /// Tenant library with the optimal ring supplied out of band.
    NcclOr,
    /// MCCS service, optimal rings, ECMP (no flow assignment).
    MccsNoFa,
    /// Full MCCS: optimal rings + FFA.
    Mccs,
}

impl SystemVariant {
    /// All four, in the paper's plotting order.
    pub const ALL: [SystemVariant; 4] = [
        SystemVariant::Nccl,
        SystemVariant::NcclOr,
        SystemVariant::MccsNoFa,
        SystemVariant::Mccs,
    ];

    /// Display label as used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemVariant::Nccl => "NCCL",
            SystemVariant::NcclOr => "NCCL(OR)",
            SystemVariant::MccsNoFa => "MCCS(-FA)",
            SystemVariant::Mccs => "MCCS",
        }
    }

    /// The controller policy of a service variant; `None` for the
    /// library variants.
    fn policy(&self) -> Option<PolicySpec> {
        match self {
            SystemVariant::MccsNoFa => Some(PolicySpec::mccs_no_fa()),
            SystemVariant::Mccs => Some(PolicySpec::mccs()),
            SystemVariant::Nccl | SystemVariant::NcclOr => None,
        }
    }
}

/// One tenant's workload for a run.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Placement (name + VM-order GPUs).
    pub placement: AppPlacement,
    /// Collective operation.
    pub op: CollectiveOp,
    /// Buffer size.
    pub size: Bytes,
    /// Back-to-back collectives to run.
    pub iters: usize,
}

/// When tenant collectives begin (leaves room for registration and the
/// controller's initial reconfiguration).
const WORKLOAD_START: Nanos = Nanos::from_millis(10);

/// Run one or more tenants on the testbed under `variant`; returns, per
/// app, the per-collective latencies. `trial` seeds placement-independent
/// randomness (IPC jitter) and — via communicator ids / hash salts — the
/// ECMP draws, like re-established connections across real trials.
pub fn run_apps(variant: SystemVariant, apps: &[AppSpec], trial: u64) -> Vec<Vec<Nanos>> {
    let topo = Arc::new(presets::testbed());
    let policy = variant.policy();
    let tenants: Vec<Tenant> = apps
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // The communicator id (service) or hash salt (library).
            let id = 1 + 97 * trial + i as u64;
            let gpus = &spec.placement.gpus;
            let mode = if policy.is_some() {
                TenantMode::Service(CommunicatorId(id))
            } else {
                let rings = optimal_rings(&topo, gpus, ChannelPolicy::MatchNics);
                TenantMode::Library(LibraryConfig {
                    // NCCL opens at least two connections per peer; match
                    // the tenant's NIC count like the service default does.
                    channels: rings.len().max(1),
                    ring: match variant {
                        SystemVariant::NcclOr => RingChoice::Explicit(rings),
                        _ => RingChoice::RankOrder,
                    },
                    hash_salt: id,
                    ..Default::default()
                })
            };
            Tenant {
                name: spec.placement.name.to_owned(),
                gpus: gpus.clone(),
                body: vec![Work::Collective {
                    op: spec.op,
                    size: spec.size,
                }],
                iters: spec.iters,
                start: WORKLOAD_START,
                mode,
            }
        })
        .collect();
    let seed = 0x6E5 + trial;
    let mut cluster = Scenario {
        topo,
        config: match policy {
            Some(_) => ClusterConfig::with_seed(seed),
            None => ClusterConfig::library_mode(seed),
        },
        tenants,
        faults: None,
    }
    .build();
    if let Some(policy) = &policy {
        // Registration completes well within a millisecond; then the
        // controller applies its policy before the workload starts.
        cluster.run_until(Nanos::from_millis(2));
        optimize_cluster(&mut cluster, policy);
    }

    cluster.run_until_quiescent(Nanos::from_secs(600));
    (0..apps.len() as u32)
        .map(|app| {
            let app = AppId(app);
            if policy.is_some() {
                // Measure at the tenant (nccl-tests style): includes the
                // shim <-> service round trip the paper's §6.2 overhead
                // numbers are about.
                cluster
                    .mgmt()
                    .tenant_latencies(app)
                    .iter()
                    .map(|&(_, issued, done)| done - issued)
                    .collect()
            } else {
                let tl = cluster.mgmt().timeline(app);
                tl.iter()
                    .map(|r| r.latency().expect("completed collective"))
                    .collect()
            }
        })
        .collect()
}

/// Single-application convenience wrapper.
pub fn run_single_app(
    variant: SystemVariant,
    op: CollectiveOp,
    size: Bytes,
    gpus_vm_order: Vec<GpuId>,
    iters: usize,
    trial: u64,
) -> Vec<Nanos> {
    let apps = [AppSpec {
        placement: AppPlacement {
            name: "A",
            gpus: gpus_vm_order,
        },
        op,
        size,
        iters,
    }];
    run_apps(variant, &apps, trial).remove(0)
}

/// Multi-application convenience wrapper.
pub fn run_multi_app(
    variant: SystemVariant,
    placements: &[AppPlacement],
    op: CollectiveOp,
    size: Bytes,
    iters: usize,
    trial: u64,
) -> Vec<Vec<Nanos>> {
    let apps: Vec<AppSpec> = placements
        .iter()
        .map(|p| AppSpec {
            placement: p.clone(),
            op,
            size,
            iters,
        })
        .collect();
    run_apps(variant, &apps, trial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups::{multi_app_setup, vm_order_4gpu, vm_order_8gpu};
    use mccs_collectives::op::all_reduce_sum;
    use mccs_sim::stats::Summary;

    fn mean_algbw(size: Bytes, lats: &[Nanos]) -> f64 {
        let s = Summary::new(
            lats.iter()
                .map(|&l| mccs_collectives::algo_bandwidth(size, l).as_gbytes_per_sec()),
        );
        s.mean()
    }

    #[test]
    fn figure6_shape_4gpu_large_message() {
        // At 512 MB the paper's ordering is NCCL < {NCCL(OR), MCCS(-FA),
        // MCCS}, with MCCS within a hair of line rate.
        let size = Bytes::mib(512);
        let mut bw = Vec::new();
        for v in SystemVariant::ALL {
            let lats = run_single_app(v, all_reduce_sum(), size, vm_order_4gpu(), 2, 0);
            bw.push(mean_algbw(size, &lats));
        }
        let [nccl, nccl_or, mccs_nofa, mccs] = bw[..] else {
            unreachable!()
        };
        assert!(
            nccl < nccl_or,
            "NCCL {nccl} should trail NCCL(OR) {nccl_or}"
        );
        assert!(mccs > 3.9, "MCCS near the 4.17 GB/s line rate, got {mccs}");
        assert!(
            (mccs_nofa - nccl_or).abs() / nccl_or < 0.1,
            "OR ablations should be close at 512MB: {mccs_nofa} vs {nccl_or}"
        );
    }

    #[test]
    fn figure6_shape_small_message_penalty() {
        // Below 8 MB the service's IPC latency makes MCCS slower than the
        // library (§6.2: 63% lower at 512 KB AllGather).
        let size = Bytes::kib(512);
        let lib = run_single_app(
            SystemVariant::NcclOr,
            all_reduce_sum(),
            size,
            vm_order_4gpu(),
            3,
            0,
        );
        let svc = run_single_app(
            SystemVariant::MccsNoFa,
            all_reduce_sum(),
            size,
            vm_order_4gpu(),
            3,
            0,
        );
        let lib_bw = mean_algbw(size, &lib);
        let svc_bw = mean_algbw(size, &svc);
        assert!(
            svc_bw < lib_bw * 0.8,
            "small messages must show the IPC penalty: svc {svc_bw} vs lib {lib_bw}"
        );
    }

    #[test]
    fn figure8_shape_setup3_fairness() {
        // Setup 3 under full MCCS: bus bandwidth ratio A:B:C near 2:1:1.
        // Iteration counts are balanced so all three tenants stay active
        // for roughly the same span (A's collectives are shorter), and the
        // first/last samples are trimmed to remove ramp/tail effects.
        let size = Bytes::mib(128);
        let placements = multi_app_setup(3);
        let specs: Vec<AppSpec> = placements
            .iter()
            .enumerate()
            .map(|(i, p)| AppSpec {
                placement: p.clone(),
                op: all_reduce_sum(),
                size,
                iters: if i == 0 { 8 } else { 6 },
            })
            .collect();
        let lats = run_apps(SystemVariant::Mccs, &specs, 0);
        let bus: Vec<f64> = specs
            .iter()
            .zip(&lats)
            .map(|(spec, l)| {
                let n = spec.placement.gpus.len();
                let trimmed = &l[1..l.len() - 1];
                let s = Summary::new(trimmed.iter().map(|&lat| {
                    mccs_collectives::bus_bandwidth(all_reduce_sum(), n, size, lat)
                        .as_gbytes_per_sec()
                }));
                s.mean()
            })
            .collect();
        let ratio_ab = bus[0] / bus[1];
        let ratio_bc = bus[1] / bus[2];
        assert!(
            (1.6..2.6).contains(&ratio_ab),
            "A:B should be ~2:1, got {ratio_ab:.2} ({bus:?})"
        );
        assert!(
            (0.75..1.35).contains(&ratio_bc),
            "B:C should be ~1:1, got {ratio_bc:.2} ({bus:?})"
        );
    }

    #[test]
    fn eight_gpu_mccs_beats_nccl_big() {
        // The headline: up to ~2.4x on the 8-GPU setup at 512MB.
        let size = Bytes::mib(512);
        let nccl = run_single_app(
            SystemVariant::Nccl,
            all_reduce_sum(),
            size,
            vm_order_8gpu(),
            2,
            0,
        );
        let mccs = run_single_app(
            SystemVariant::Mccs,
            all_reduce_sum(),
            size,
            vm_order_8gpu(),
            2,
            0,
        );
        let speedup = mean_algbw(size, &mccs) / mean_algbw(size, &nccl);
        assert!(
            speedup > 1.5,
            "MCCS should clearly beat NCCL on 8 GPUs, got {speedup:.2}x"
        );
    }
}
