//! The QoS/training-workload experiments (§6.4, Figures 9 and 10).
//!
//! Setup 3 of Figure 5b: tenant A trains VGG-19 (data parallel, 4 GPUs,
//! 2 NICs/host), tenants B and C fine-tune GPT-2.7B (tensor parallel,
//! 2 GPUs each, 1 NIC/host). Every rank replays a calibrated trace as a
//! shim script (`spawn_traffic_app`); the controller applies one of four
//! strategies:
//!
//! * **ECMP** — optimal rings, hashed routing (MCCS(-FFA));
//! * **FFA** — fair flow assignment;
//! * **PFA** — one inter-rack route reserved for A;
//! * **PFA+TS** — additionally, C is gated into B's idle windows.

use crate::setups::multi_app_setup;
use mccs_control::{
    apply_traffic_schedule, optimize_cluster, ChannelPolicy, FlowAssignment, PolicySpec,
};
use mccs_core::{Cluster, ClusterConfig};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::Nanos;
use mccs_topology::{presets, RouteId};
use mccs_workloads::generator::spawn_traffic_app;
use mccs_workloads::{gpt27b_tensor_parallel, vgg19_data_parallel, IterationTrace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The four strategies of Figure 9.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QosStrategy {
    /// Optimal rings, ECMP routing.
    Ecmp,
    /// Fair flow assignment.
    Ffa,
    /// Priority flow assignment (A prioritized, one route reserved).
    Pfa,
    /// PFA plus traffic scheduling (B prioritized over C).
    PfaTs,
}

impl QosStrategy {
    /// All four, in the paper's plotting order.
    pub const ALL: [QosStrategy; 4] = [
        QosStrategy::Ecmp,
        QosStrategy::Ffa,
        QosStrategy::Pfa,
        QosStrategy::PfaTs,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            QosStrategy::Ecmp => "ECMP",
            QosStrategy::Ffa => "FFA",
            QosStrategy::Pfa => "PFA",
            QosStrategy::PfaTs => "PFA+TS",
        }
    }
}

/// Workload iteration counts (kept modest so ten trials stay fast).
pub const VGG_ITERS: usize = 6;
/// GPT fine-tuning iterations for tenants B and C.
pub const GPT_ITERS: usize = 3;

/// When tenant workloads start issuing collectives.
pub const START: Nanos = Nanos::from_millis(20);

fn traces() -> [IterationTrace; 3] {
    [
        vgg19_data_parallel(VGG_ITERS),
        gpt27b_tensor_parallel(GPT_ITERS),
        gpt27b_tensor_parallel(GPT_ITERS),
    ]
}

fn policy_for(strategy: QosStrategy, apps: &[AppId]) -> PolicySpec {
    let assignment = match strategy {
        QosStrategy::Ecmp => FlowAssignment::Ecmp,
        QosStrategy::Ffa => FlowAssignment::Ffa,
        QosStrategy::Pfa | QosStrategy::PfaTs => FlowAssignment::Pfa {
            priorities: BTreeMap::from([(apps[0], 0u32)]),
            reserved: BTreeSet::from([RouteId(0)]),
        },
    };
    PolicySpec {
        optimal_rings: true,
        channels: ChannelPolicy::MatchNics,
        assignment,
    }
}

/// One tenant's outcome of a QoS run.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Job completion time, measured from [`START`] to the app's last
    /// collective completion.
    pub jct: Nanos,
    /// Collectives the service cleanly failed back to this tenant
    /// (zero on these fault-free runs; reported explicitly so a fault
    /// would show up in the figures instead of silently shrinking the
    /// sample).
    pub failed: usize,
}

/// One full run: returns per-app outcomes.
pub fn run_qos(strategy: QosStrategy, trial: u64) -> Vec<AppRun> {
    let topo = Arc::new(presets::testbed());
    let mut cluster = Cluster::new(Arc::clone(&topo), ClusterConfig::with_seed(0xF19 + trial));
    let placements = multi_app_setup(3);
    let traces = traces();
    let mut apps = Vec::new();
    for (i, (p, trace)) in placements.iter().zip(&traces).enumerate() {
        let comm = CommunicatorId(100 + 31 * trial + i as u64);
        // Stagger B and C so their bursts decorrelate, as independent
        // fine-tuning jobs would.
        let start = START + Nanos::from_micros(7_300 * i as u64);
        apps.push(spawn_traffic_app(
            &mut cluster,
            p.name,
            comm,
            &p.gpus,
            trace,
            start,
        ));
    }
    // Registration, then the strategy.
    cluster.run_until(Nanos::from_millis(2));
    optimize_cluster(&mut cluster, &policy_for(strategy, &apps));

    if strategy == QosStrategy::PfaTs {
        // Warm up long enough to profile B's iteration pattern, then gate
        // C into B's idle windows (the offline-profiling step of §5).
        cluster.run_until(START + Nanos::from_millis(700));
        let ok = apply_traffic_schedule(&mut cluster, apps[1], &[apps[2]]);
        assert!(ok, "TS needs a discoverable period in B's trace");
    }

    cluster.run_until_quiescent(Nanos::from_secs(600));
    apps.iter()
        .zip(&traces)
        .map(|(&app, trace)| {
            let tl = cluster.mgmt().timeline(app);
            let failed = cluster
                .mgmt()
                .tenant_outcomes(app)
                .iter()
                .filter(|r| r.failed)
                .count();
            assert_eq!(
                tl.len() + failed,
                trace.collectives_per_iteration() * trace.iterations,
                "collectives lost without a completion or a clean failure"
            );
            let jct = tl.last().expect("ran").completed_at.expect("done") - START;
            AppRun { jct, failed }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_shape_pfa_speeds_up_a() {
        // The headline QoS claims: PFA speeds A up vs FFA; ECMP is the
        // slowest for A; TS speeds B up relative to plain PFA.
        let ecmp = run_qos(QosStrategy::Ecmp, 0);
        let ffa = run_qos(QosStrategy::Ffa, 0);
        let pfa = run_qos(QosStrategy::Pfa, 0);
        let pfa_ts = run_qos(QosStrategy::PfaTs, 0);

        for run in [&ecmp, &ffa, &pfa, &pfa_ts] {
            assert!(
                run.iter().all(|r| r.failed == 0),
                "fault-free QoS runs must not fail collectives"
            );
        }
        let a = |r: &Vec<AppRun>| r[0].jct.as_secs_f64();
        let b = |r: &Vec<AppRun>| r[1].jct.as_secs_f64();
        let c = |r: &Vec<AppRun>| r[2].jct.as_secs_f64();

        assert!(
            a(&pfa) < a(&ffa) * 1.02,
            "PFA should not slow A down vs FFA: {} vs {}",
            a(&pfa),
            a(&ffa)
        );
        assert!(
            a(&ffa) < a(&ecmp) * 1.05,
            "FFA should not slow A down vs ECMP: {} vs {}",
            a(&ffa),
            a(&ecmp)
        );
        assert!(
            b(&pfa_ts) < b(&pfa) * 1.02,
            "TS should help B: {} vs {}",
            b(&pfa_ts),
            b(&pfa)
        );
        assert!(
            c(&pfa_ts) >= c(&pfa) * 0.98,
            "C pays for B's priority: {} vs {}",
            c(&pfa_ts),
            c(&pfa)
        );
    }
}
