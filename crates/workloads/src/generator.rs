//! The traffic generator.
//!
//! The paper evaluates training workloads with "a traffic generator with
//! profile traces ... implemented with Rust using the MCCS library"
//! (§6.1): a tenant program and nothing more. Here it is one
//! [`ScriptedProgram`](mccs_shim::ScriptedProgram) per rank, lowered from
//! an [`IterationTrace`] by [`IterationTrace::program`].

use crate::trace::IterationTrace;
use mccs_ipc::CommunicatorId;
use mccs_shim::AppProgram;
use mccs_sim::Nanos;
use mccs_topology::GpuId;

/// Spawn a trace-replaying tenant on every GPU of `gpus` (one rank each).
pub fn spawn_traffic_app(
    cluster: &mut mccs_core::Cluster,
    name: &str,
    comm: CommunicatorId,
    gpus: &[GpuId],
    trace: &IterationTrace,
    start_at: Nanos,
) -> mccs_ipc::AppId {
    let ranks = (0..gpus.len())
        .map(|rank| {
            let program = trace.program(name, comm, gpus, rank, start_at);
            (gpus[rank], Box::new(program) as Box<dyn AppProgram>)
        })
        .collect();
    cluster.add_app(name, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::trace::TracePhase;
    use mccs_core::{Cluster, ClusterConfig};
    use mccs_ipc::AppId;
    use mccs_topology::presets;
    use std::sync::Arc;

    #[test]
    fn generator_replays_a_trace_end_to_end() {
        let mut cluster = Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(11));
        let trace = models::resnet50_data_parallel(2);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let app = spawn_traffic_app(
            &mut cluster,
            "resnet",
            CommunicatorId(1),
            &gpus,
            &trace,
            Nanos::ZERO,
        );
        cluster.run_until_quiescent(Nanos::from_secs(60));
        let tl = cluster.mgmt().timeline(app);
        // 4 allreduces per iteration x 2 iterations
        assert_eq!(tl.len(), 8);
        // compute gaps exist: consecutive issues are separated by >= 20ms
        for pair in tl.windows(2) {
            let gap = pair[1].issued_at - pair[0].completed_at.expect("done");
            assert!(
                gap >= Nanos::from_millis(19),
                "expected compute gap, got {gap}"
            );
        }
    }

    #[test]
    fn blocked_polls_arm_no_more_timers() {
        // The checked pool polls every parked engine at the end of every
        // call, so the late tenant sees a blocked poll per call beside the
        // busy one: waiting for its start (`SleepUntil`) and inside an
        // idle phase (`Sleep`), each rank keeps exactly one timer pending
        // for its endpoint.
        use mccs_core::world::resources::endpoint_comp;
        let start = Nanos::from_millis(1);
        // Run to `until` in 100 calls or more; then the late ranks' timers.
        let late_timers = |until: Nanos| {
            let mut cluster =
                Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(11));
            cluster.check_engine_contract();
            let busy = models::resnet50_data_parallel(1);
            let late = IterationTrace::new("late", vec![TracePhase::Idle(start * 4)], 1);
            for (name, comm, gpus, trace, at) in [
                ("busy", 1, [GpuId(0), GpuId(2)], &busy, Nanos::ZERO),
                ("late", 2, [GpuId(1), GpuId(3)], &late, start),
            ] {
                spawn_traffic_app(&mut cluster, name, CommunicatorId(comm), &gpus, trace, at);
            }
            for i in 1..=100 {
                cluster.run_until(until * i / 100);
            }
            let mut timers = Vec::new();
            while let Some((at, r)) = cluster.world.events.pop() {
                if r == endpoint_comp(2) || r == endpoint_comp(3) {
                    timers.push(at);
                }
            }
            timers
        };
        assert_eq!(
            late_timers(start / 2),
            vec![start; 2],
            "waiting for the start"
        );
        let timers = late_timers(start * 3);
        assert_eq!(timers, vec![start * 5; 2], "inside the idle phase");
    }

    #[test]
    fn trace_gaps_are_discoverable_by_ts() {
        let mut cluster = Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(12));
        let trace = models::resnet50_data_parallel(4);
        let gpus = [GpuId(0), GpuId(2)];
        let app = spawn_traffic_app(
            &mut cluster,
            "traced",
            CommunicatorId(1),
            &gpus,
            &trace,
            Nanos::ZERO,
        );
        cluster.run_until_quiescent(Nanos::from_secs(120));
        let gaps = cluster.mgmt().idle_gaps(app);
        assert!(
            !gaps.is_empty(),
            "periodic trace must expose idle gaps for TS"
        );
        let _ = AppId(0);
    }
}
