//! Device performance model parameters.

use mccs_sim::{Bandwidth, Bytes, Nanos};

/// Cost-model knobs for the simulated GPUs.
///
/// Defaults approximate the paper's testbed (RTX 3090-class GPUs without
/// NVLink: intra-host GPU-to-GPU traffic rides host shared memory through
/// PCIe 4.0, far faster than the 50 Gbps NICs, so the network stays the
/// collective bottleneck exactly as on the real testbed).
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Device memory per GPU.
    pub memory_capacity: Bytes,
    /// Intra-host GPU-to-GPU channel bandwidth (host shared memory /
    /// PCIe-class; NVLink-class fabrics would set this much higher).
    pub intra_host_bandwidth: Bandwidth,
    /// Fixed overhead to launch any kernel (enqueue-to-start).
    pub kernel_launch_overhead: Nanos,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            // 24 GB (RTX 3090).
            memory_capacity: Bytes::gib(24),
            // ~20 GB/s effective shared-memory channel.
            intra_host_bandwidth: Bandwidth::gibytes_per_sec(20.0),
            // ~5 us launch overhead.
            kernel_launch_overhead: Nanos::from_micros(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = DeviceConfig::default();
        assert_eq!(c.memory_capacity, Bytes::gib(24));
        assert!(c.intra_host_bandwidth.as_gbps() > 100.0);
    }
}
