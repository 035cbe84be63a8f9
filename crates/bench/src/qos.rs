//! The QoS/training-workload experiments (§6.4, Figures 9 and 10).
//!
//! Setup 3 of Figure 5b: tenant A trains VGG-19 (data parallel, 4 GPUs,
//! 2 NICs/host), tenants B and C fine-tune GPT-2.7B (tensor parallel,
//! 2 GPUs each, 1 NIC/host). Each tenant replays a calibrated trace
//! ([`IterationTrace::tenant`]) in one [`Scenario`]; the controller
//! applies one of four strategies:
//!
//! * **ECMP** — optimal rings, hashed routing (MCCS(-FFA));
//! * **FFA** — fair flow assignment;
//! * **PFA** — one inter-rack route reserved for A;
//! * **PFA+TS** — additionally, C is gated into B's idle windows.
//!
//! [`run_alone`] runs each tenant of a trial by itself, the
//! counterfactual that prices what sharing cost it.

use crate::setups::multi_app_setup;
use mccs_control::{
    apply_traffic_schedule, optimize_cluster, ChannelPolicy, FlowAssignment, PolicySpec,
};
use mccs_core::{Cluster, ClusterConfig, Scenario, Tenant, Work};
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::Nanos;
use mccs_topology::{presets, RouteId};
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

/// The world of trial `trial`: tenant `i` of setup 3 replays its trace
/// over communicator `100 + 31 trial + i` on the testbed at seed
/// `0xF19 + trial`.
pub fn scenario(trial: u64) -> Scenario {
    let tenants = multi_app_setup(3)
        .iter()
        .zip(traces())
        .enumerate()
        .map(|(i, (p, trace))| {
            let comm = CommunicatorId(100 + 31 * trial + i as u64);
            // Stagger B and C so their bursts decorrelate, as independent
            // fine-tuning jobs would.
            let start = START + Nanos::from_micros(7_300 * i as u64);
            trace.tenant(p.name, comm, &p.gpus, start)
        })
        .collect();
    Scenario {
        topo: Arc::new(presets::testbed()),
        config: ClusterConfig::with_seed(0xF19 + trial),
        tenants,
        faults: None,
    }
}

/// One full run: returns per-app outcomes.
pub fn run_qos(strategy: QosStrategy, trial: u64) -> Vec<AppRun> {
    let s = scenario(trial);
    let mut cluster = s.build();
    let apps: Vec<AppId> = (0..s.tenants.len() as u32).map(AppId).collect();
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
        .zip(&s.tenants)
        .map(|(&app, t)| outcome(&mut cluster, app, t))
        .collect()
}

/// Each tenant of trial `trial` alone: the same tenant (communicator,
/// trace, start) at the same seed, under FFA ([`PolicySpec::mccs`]) from
/// 2 ms. With the shared run's outcome this gives the slowdown sharing
/// cost it; the alone run draws its own IPC jitter stream (EXPERIMENTS.md,
/// deviation 4).
pub fn run_alone(trial: u64) -> Vec<AppRun> {
    let shared = scenario(trial);
    shared
        .tenants
        .iter()
        .map(|t| {
            let alone = Scenario {
                tenants: vec![t.clone()],
                ..shared.clone()
            };
            let mut cluster = alone.build();
            cluster.run_until(Nanos::from_millis(2));
            optimize_cluster(&mut cluster, &PolicySpec::mccs());
            cluster.run_until_quiescent(Nanos::from_secs(600));
            outcome(&mut cluster, AppId(0), t)
        })
        .collect()
}

/// The outcome of `app`, which runs `t`, in a quiescent `cluster`.
fn outcome(cluster: &mut Cluster, app: AppId, t: &Tenant) -> AppRun {
    let tl = cluster.mgmt().timeline(app);
    let failed = cluster
        .mgmt()
        .tenant_outcomes(app)
        .iter()
        .filter(|r| r.failed)
        .count();
    let collectives = t
        .body
        .iter()
        .filter(|w| matches!(w, Work::Collective { .. }))
        .count();
    assert_eq!(
        tl.len() + failed,
        collectives * t.iters,
        "collectives lost without a completion or a clean failure"
    );
    let jct = tl.last().expect("ran").completed_at.expect("done") - START;
    AppRun { jct, failed }
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
        let alone = run_alone(0);

        for run in [&ecmp, &ffa, &pfa, &pfa_ts, &alone] {
            assert!(
                run.iter().all(|r| r.failed == 0),
                "fault-free QoS runs must not fail collectives"
            );
        }
        // Sharing costs every tenant time: none runs more than 2 % faster
        // beside the others than alone.
        for run in [&ecmp, &ffa, &pfa, &pfa_ts] {
            for (i, (shared, alone)) in run.iter().zip(&alone).enumerate() {
                assert!(
                    shared.jct.as_secs_f64() >= alone.jct.as_secs_f64() * 0.98,
                    "tenant {i} shared {} vs alone {}",
                    shared.jct,
                    alone.jct
                );
            }
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
