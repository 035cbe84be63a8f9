//! Algorithm and bus bandwidth (NCCL-tests definitions, paper ref \[25\]).
//!
//! * **Algorithm bandwidth** (`algbw`) — buffer size divided by execution
//!   time; what Figure 6 plots.
//! * **Bus bandwidth** (`busbw`) — `algbw` scaled by an op-dependent factor
//!   so that a ring running at hardware line rate reports the line rate
//!   regardless of participant count; what Figure 8 plots ("it reflects
//!   the hardware peak bandwidth for inter-GPU communication").

use crate::op::CollectiveOp;
use mccs_sim::{Bandwidth, Bytes, Nanos};

/// `algbw = size / time`.
pub fn algo_bandwidth(size: Bytes, time: Nanos) -> Bandwidth {
    let secs = time.as_secs_f64();
    if secs <= 0.0 {
        return Bandwidth::ZERO;
    }
    Bandwidth::bytes_per_sec(size.as_f64() / secs)
}

/// The `busbw / algbw` factor for `op` over `n` ranks.
///
/// AllReduce: `2(n−1)/n`; AllGather/ReduceScatter: `(n−1)/n`;
/// Broadcast/Reduce: `1`.
pub fn bus_factor(op: CollectiveOp, n: usize) -> f64 {
    assert!(n >= 1, "empty communicator");
    let n_f = n as f64;
    match op {
        CollectiveOp::AllReduce(_) => 2.0 * (n_f - 1.0) / n_f,
        CollectiveOp::AllGather | CollectiveOp::ReduceScatter(_) => (n_f - 1.0) / n_f,
        CollectiveOp::Broadcast { .. } | CollectiveOp::Reduce { .. } => 1.0,
    }
}

/// `busbw = algbw * bus_factor`.
pub fn bus_bandwidth(op: CollectiveOp, n: usize, size: Bytes, time: Nanos) -> Bandwidth {
    algo_bandwidth(size, time) * bus_factor(op, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::all_reduce_sum;

    #[test]
    fn algbw_is_size_over_time() {
        let bw = algo_bandwidth(Bytes::new(1_000_000_000), Nanos::from_secs(1));
        assert!((bw.as_gbytes_per_sec() - 1.0).abs() < 1e-12);
        assert_eq!(algo_bandwidth(Bytes::mib(1), Nanos::ZERO), Bandwidth::ZERO);
    }

    #[test]
    fn bus_factors() {
        assert!((bus_factor(all_reduce_sum(), 4) - 1.5).abs() < 1e-12);
        assert!((bus_factor(CollectiveOp::AllGather, 4) - 0.75).abs() < 1e-12);
        assert!((bus_factor(CollectiveOp::Broadcast { root: 0 }, 4) - 1.0).abs() < 1e-12);
        assert!((bus_factor(all_reduce_sum(), 2) - 1.0).abs() < 1e-12);
    }

    /// A ring whose bottleneck edge carries `2(n-1)/n*S` at link rate `B`
    /// must report `busbw == B` — the invariant that makes bus bandwidth
    /// comparable across communicator sizes.
    #[test]
    fn ring_at_line_rate_reports_line_rate() {
        for n in [2usize, 4, 8, 32] {
            let link = Bandwidth::gbps(50.0);
            let size = Bytes::mib(128);
            let edge = all_reduce_sum().ring_edge_bytes(size, n);
            let time = link.transfer_time(edge);
            let bus = bus_bandwidth(all_reduce_sum(), n, size, time);
            let err = (bus.as_gbps() - 50.0).abs();
            assert!(err < 0.1, "n={n}: busbw {}", bus.as_gbps());
        }
    }
}
