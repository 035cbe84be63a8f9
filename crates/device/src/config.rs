//! Device performance model constants.
//!
//! They approximate the paper's testbed (RTX 3090-class GPUs without
//! NVLink: intra-host GPU-to-GPU traffic rides host shared memory through
//! PCIe 4.0, far faster than the 50 Gbps NICs, so the network stays the
//! collective bottleneck exactly as on the real testbed).

use mccs_sim::{Bandwidth, Bytes, Nanos};

/// Device memory per GPU: 24 GiB, an RTX 3090.
pub const MEMORY_CAPACITY: Bytes = Bytes::gib(24);

/// Intra-host GPU-to-GPU channel bandwidth: a ~20 GB/s host
/// shared-memory / PCIe-class channel (an NVLink-class fabric would be
/// much faster).
pub const INTRA_HOST_BANDWIDTH: Bandwidth = Bandwidth(20.0 * 1e9 * 8.0);

/// Fixed enqueue-to-start overhead of every channel transfer: ~5 µs, a
/// kernel launch.
pub const KERNEL_LAUNCH_OVERHEAD: Nanos = Nanos::from_micros(5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_host_channel_outruns_the_nics() {
        assert_eq!(INTRA_HOST_BANDWIDTH, Bandwidth::gibytes_per_sec(20.0));
        assert!(INTRA_HOST_BANDWIDTH.as_gbps() > 100.0);
    }
}
