//! The traffic generator.
//!
//! The paper evaluates training workloads with "a traffic generator with
//! profile traces ... implemented with Rust using the MCCS library"
//! (§6.1). [`TrafficGenerator`] is that program: one rank replaying an
//! [`IterationTrace`] through the shim — allocate buffers, init the
//! communicator, then loop compute / collective / memcpy / idle phases.

use crate::trace::{IterationTrace, TracePhase};
use mccs_device::MemHandle;
use mccs_ipc::CommunicatorId;
use mccs_shim::{AppProgram, AppStatus, ReqId, ShimApi};
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;

enum GenState {
    AllocSend(Option<ReqId>),
    AllocRecv(Option<ReqId>),
    Init(Option<ReqId>),
    WaitStart,
    Phase {
        idx: usize,
        pending: Option<ReqId>,
        phase_deadline: Option<Nanos>,
    },
    Done,
}

/// One rank of a trace-replaying tenant.
pub struct TrafficGenerator {
    name: String,
    comm: CommunicatorId,
    world: Vec<GpuId>,
    rank: usize,
    trace: IterationTrace,
    start_at: Nanos,
    state: GenState,
    send: Option<MemHandle>,
    recv: Option<MemHandle>,
    iter: usize,
    /// Completed iterations (for throughput accounting in experiments).
    pub iterations_done: usize,
    /// Iteration completion times.
    pub iteration_ends: Vec<Nanos>,
}

impl TrafficGenerator {
    /// Build a generator for `rank` of `world`, starting at `start_at`.
    pub fn new(
        name: impl Into<String>,
        comm: CommunicatorId,
        world: Vec<GpuId>,
        rank: usize,
        trace: IterationTrace,
        start_at: Nanos,
    ) -> Self {
        assert!(rank < world.len());
        TrafficGenerator {
            name: name.into(),
            comm,
            world,
            rank,
            trace,
            start_at,
            state: GenState::AllocSend(None),
            send: None,
            recv: None,
            iter: 0,
            iterations_done: 0,
            iteration_ends: Vec::new(),
        }
    }

    /// The largest collective buffer the trace needs.
    fn buffer_size(&self) -> Bytes {
        self.trace
            .phases
            .iter()
            .filter_map(|p| match p {
                TracePhase::Collective { size, .. } => Some(*size),
                _ => None,
            })
            .max()
            .unwrap_or(Bytes::kib(4))
    }
}

impl AppProgram for TrafficGenerator {
    fn poll(&mut self, api: &mut ShimApi<'_>) -> AppStatus {
        api.pump();
        let buffer_size = self.buffer_size();
        loop {
            match &mut self.state {
                GenState::AllocSend(req) => match req {
                    None => {
                        *req = Some(api.alloc(buffer_size));
                        api.pump();
                    }
                    Some(r) => match api.alloc_result(*r) {
                        Some(h) => {
                            self.send = Some(h);
                            self.state = GenState::AllocRecv(None);
                        }
                        None => return AppStatus::Blocked,
                    },
                },
                GenState::AllocRecv(req) => match req {
                    None => {
                        *req = Some(api.alloc(buffer_size));
                        api.pump();
                    }
                    Some(r) => match api.alloc_result(*r) {
                        Some(h) => {
                            self.recv = Some(h);
                            self.state = GenState::Init(None);
                        }
                        None => return AppStatus::Blocked,
                    },
                },
                GenState::Init(req) => match req {
                    None => {
                        *req = Some(api.comm_init_rank(self.comm, self.world.clone(), self.rank));
                        api.pump();
                    }
                    Some(r) => match api.comm_result(*r) {
                        Some(_) => {
                            if api.now() < self.start_at {
                                api.schedule_wake(self.start_at);
                            }
                            self.state = GenState::WaitStart;
                        }
                        None => return AppStatus::Blocked,
                    },
                },
                GenState::WaitStart => {
                    if api.now() < self.start_at {
                        // Armed on entering the wait.
                        return AppStatus::Blocked;
                    }
                    self.state = GenState::Phase {
                        idx: 0,
                        pending: None,
                        phase_deadline: None,
                    };
                }
                GenState::Phase {
                    idx,
                    pending,
                    phase_deadline,
                } => {
                    if *idx >= self.trace.phases.len() {
                        self.iter += 1;
                        self.iterations_done = self.iter;
                        self.iteration_ends.push(api.now());
                        if self.iter >= self.trace.iterations {
                            self.state = GenState::Done;
                            continue;
                        }
                        self.state = GenState::Phase {
                            idx: 0,
                            pending: None,
                            phase_deadline: None,
                        };
                        continue;
                    }
                    match self.trace.phases[*idx] {
                        TracePhase::Compute(d) | TracePhase::Memcpy(d) => {
                            // Modeled on the app stream: enqueue once, wait
                            // for the stream to drain.
                            match phase_deadline {
                                None => {
                                    api.compute(d);
                                    *phase_deadline = Some(api.now()); // marker
                                }
                                Some(_) => {
                                    if api.stream_idle() {
                                        *idx += 1;
                                        *phase_deadline = None;
                                    } else {
                                        return AppStatus::Blocked;
                                    }
                                }
                            }
                        }
                        TracePhase::Idle(d) => match phase_deadline {
                            None => {
                                let until = api.now() + d;
                                *phase_deadline = Some(until);
                                api.schedule_wake(until);
                                return AppStatus::Blocked;
                            }
                            Some(until) => {
                                if api.now() < *until {
                                    // Armed when the deadline was set.
                                    return AppStatus::Blocked;
                                }
                                *idx += 1;
                                *phase_deadline = None;
                            }
                        },
                        TracePhase::Collective { op, size } => match pending {
                            None => {
                                let send = (self.send.expect("allocated"), 0);
                                let recv = (self.recv.expect("allocated"), 0);
                                *pending =
                                    Some(api.collective(self.comm, op, size, send, recv, None));
                                api.pump();
                            }
                            Some(r) => {
                                if let Some(msg) = api.error(*r) {
                                    panic!("generator '{}' collective failed: {msg}", self.name);
                                }
                                if api.collective_done(*r) {
                                    *pending = None;
                                    *idx += 1;
                                } else {
                                    return AppStatus::Blocked;
                                }
                            }
                        },
                    }
                }
                GenState::Done => return AppStatus::Finished,
            }
        }
    }

    fn name(&self) -> String {
        format!("{}-r{}", self.name, self.rank)
    }
}

/// Spawn a trace-replaying tenant on every GPU of `gpus` (one rank each).
pub fn spawn_traffic_app(
    cluster: &mut mccs_core::Cluster,
    name: &str,
    comm: CommunicatorId,
    gpus: &[GpuId],
    trace: &IterationTrace,
    start_at: Nanos,
) -> mccs_ipc::AppId {
    let ranks = gpus
        .iter()
        .enumerate()
        .map(|(rank, &gpu)| {
            let gen =
                TrafficGenerator::new(name, comm, gpus.to_vec(), rank, trace.clone(), start_at);
            (gpu, Box::new(gen) as Box<dyn AppProgram>)
        })
        .collect();
    cluster.add_app(name, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
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
        // The oracle polls every engine on every pass, so the late tenant
        // sees many blocked polls beside the busy one: waiting for its
        // start and inside an idle phase, each rank keeps exactly one
        // timer pending for its endpoint.
        use mccs_core::world::resources::endpoint_comp;
        let start = Nanos::from_millis(1);
        // Run to `until`; then (idle polls so far, the late ranks' timers).
        let late_timers = |until: Nanos| {
            let mut cluster =
                Cluster::new(Arc::new(presets::testbed()), ClusterConfig::with_seed(11));
            cluster.set_naive_scheduler(true);
            let busy = models::resnet50_data_parallel(1);
            let late = IterationTrace::new("late", vec![TracePhase::Idle(start * 4)], 1);
            for (name, comm, gpus, trace, at) in [
                ("busy", 1, [GpuId(0), GpuId(2)], &busy, Nanos::ZERO),
                ("late", 2, [GpuId(1), GpuId(3)], &late, start),
            ] {
                spawn_traffic_app(&mut cluster, name, CommunicatorId(comm), &gpus, trace, at);
            }
            cluster.run_until(until);
            let mut timers = Vec::new();
            while let Some((at, r)) = cluster.world.events.pop() {
                if r == endpoint_comp(2) || r == endpoint_comp(3) {
                    timers.push(at);
                }
            }
            (cluster.scheduler_stats().wasted_polls, timers)
        };
        let (blocked, timers) = late_timers(start / 2);
        assert!(blocked > 20, "{blocked} blocked polls");
        assert_eq!(timers, vec![start; 2], "waiting for the start");
        let (blocked, timers) = late_timers(start * 3);
        assert!(blocked > 20, "{blocked} blocked polls");
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
