//! Iteration traces and the training-time breakdown analyzer.

use mccs_collectives::CollectiveOp;
use mccs_core::{Tenant, TenantMode, Work};
use mccs_ipc::CommunicatorId;
use mccs_sim::{Bytes, Nanos};
use mccs_topology::GpuId;

/// One phase of a training iteration, as seen by the communication layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TracePhase {
    /// Exposed (non-overlapped) GPU compute.
    Compute(Nanos),
    /// A collective operation.
    Collective {
        /// The operation.
        op: CollectiveOp,
        /// Buffer size.
        size: Bytes,
    },
    /// CPU <-> GPU memory copy (input pipeline, optimizer offload).
    Memcpy(Nanos),
    /// GPU idle (input stalls, synchronization waits).
    Idle(Nanos),
}

/// A repeating iteration profile.
#[derive(Clone, Debug)]
pub struct IterationTrace {
    /// Workload label ("vgg19-dp", ...).
    pub name: String,
    /// One iteration's phases, in order.
    pub phases: Vec<TracePhase>,
    /// Number of iterations to run.
    pub iterations: usize,
}

impl IterationTrace {
    /// Build a trace.
    pub fn new(name: impl Into<String>, phases: Vec<TracePhase>, iterations: usize) -> Self {
        assert!(!phases.is_empty(), "empty iteration");
        assert!(iterations > 0, "zero iterations");
        IterationTrace {
            name: name.into(),
            phases,
            iterations,
        }
    }

    /// Total bytes moved by collectives per iteration.
    pub fn collective_bytes_per_iteration(&self) -> Bytes {
        self.phases
            .iter()
            .filter_map(|p| match p {
                TracePhase::Collective { size, .. } => Some(*size),
                _ => None,
            })
            .sum()
    }

    /// Number of collectives per iteration.
    pub fn collectives_per_iteration(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, TracePhase::Collective { .. }))
            .count()
    }

    /// The service tenant `name` replaying this trace over `comm`, one
    /// rank per GPU of `gpus`, from `start`: compute and memcpy phases
    /// become [`Work::Compute`] on the tenant's stream, idle phases
    /// [`Work::Sleep`].
    pub fn tenant(&self, name: &str, comm: CommunicatorId, gpus: &[GpuId], start: Nanos) -> Tenant {
        let body = self
            .phases
            .iter()
            .map(|phase| match *phase {
                TracePhase::Compute(d) | TracePhase::Memcpy(d) => Work::Compute(d),
                TracePhase::Idle(d) => Work::Sleep(d),
                TracePhase::Collective { op, size } => Work::Collective { op, size },
            })
            .collect();
        Tenant {
            name: name.to_owned(),
            gpus: gpus.to_vec(),
            body,
            iters: self.iterations,
            start,
            mode: TenantMode::Service(comm),
        }
    }
}

/// Training-time breakdown (the Figure 2 quantity): fractions of total
/// iteration time spent per category.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Breakdown {
    /// GPU idle fraction.
    pub idle: f64,
    /// CPU<->GPU copy fraction.
    pub memcpy: f64,
    /// Exposed compute fraction.
    pub compute: f64,
    /// Exposed communication fraction.
    pub comm: f64,
}

impl Breakdown {
    /// Compute the breakdown of a trace, pricing each collective at
    /// `comm_time(size)` — e.g. a measured bandwidth, or a closed-form
    /// model.
    pub fn of(trace: &IterationTrace, mut comm_time: impl FnMut(Bytes) -> Nanos) -> Breakdown {
        let mut idle = 0.0;
        let mut memcpy = 0.0;
        let mut compute = 0.0;
        let mut comm = 0.0;
        for p in &trace.phases {
            match *p {
                TracePhase::Compute(d) => compute += d.as_secs_f64(),
                TracePhase::Memcpy(d) => memcpy += d.as_secs_f64(),
                TracePhase::Idle(d) => idle += d.as_secs_f64(),
                TracePhase::Collective { size, .. } => comm += comm_time(size).as_secs_f64(),
            }
        }
        let total = idle + memcpy + compute + comm;
        assert!(total > 0.0, "zero-length iteration");
        Breakdown {
            idle: idle / total,
            memcpy: memcpy / total,
            compute: compute / total,
            comm: comm / total,
        }
    }

    /// The fractions sum to 1 (within float tolerance).
    pub fn is_normalized(&self) -> bool {
        (self.idle + self.memcpy + self.compute + self.comm - 1.0).abs() < 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccs_collectives::op::all_reduce_sum;
    use mccs_sim::Bandwidth;

    fn trace() -> IterationTrace {
        IterationTrace::new(
            "t",
            vec![
                TracePhase::Compute(Nanos::from_millis(30)),
                TracePhase::Collective {
                    op: all_reduce_sum(),
                    size: Bytes::mib(25),
                },
                TracePhase::Memcpy(Nanos::from_millis(5)),
                TracePhase::Idle(Nanos::from_millis(5)),
                TracePhase::Collective {
                    op: all_reduce_sum(),
                    size: Bytes::mib(25),
                },
            ],
            10,
        )
    }

    #[test]
    fn aggregates() {
        let t = trace();
        assert_eq!(t.collective_bytes_per_iteration(), Bytes::mib(50));
        assert_eq!(t.collectives_per_iteration(), 2);
    }

    #[test]
    fn breakdown_normalizes() {
        let t = trace();
        // price collectives at 5 GB/s algorithm bandwidth
        let b = Breakdown::of(&t, |s| Bandwidth::gibytes_per_sec(5.0).transfer_time(s));
        assert!(b.is_normalized());
        // 2 x 25MiB at 5GB/s ~ 10.5ms comm vs 40ms fixed
        assert!(b.comm > 0.15 && b.comm < 0.30, "comm {}", b.comm);
        assert!(b.compute > 0.5);
    }

    #[test]
    #[should_panic(expected = "empty iteration")]
    fn rejects_empty() {
        IterationTrace::new("e", vec![], 1);
    }
}
