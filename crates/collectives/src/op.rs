//! Collective operation semantics.

use mccs_sim::Bytes;
use std::fmt;

/// Element data types (sizes matter for count-to-bytes conversion at the
/// API boundary; the simulator itself moves bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// 8-bit integer.
    Int8,
    /// 16-bit float (half).
    Float16,
    /// bfloat16.
    BFloat16,
    /// 32-bit float.
    Float32,
    /// 64-bit float.
    Float64,
    /// 32-bit integer.
    Int32,
    /// 64-bit integer.
    Int64,
}

impl DataType {
    /// Bytes per element.
    pub const fn size(self) -> u64 {
        match self {
            DataType::Int8 => 1,
            DataType::Float16 | DataType::BFloat16 => 2,
            DataType::Float32 | DataType::Int32 => 4,
            DataType::Float64 | DataType::Int64 => 8,
        }
    }
}

/// Reduction operators for reducing collectives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReduceKind {
    /// Elementwise sum (the deep-learning gradient case).
    #[default]
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Arithmetic mean.
    Avg,
}

/// A collective operation kind.
///
/// `root` ranks are indices within the communicator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectiveOp {
    /// Every rank ends with the elementwise reduction of all ranks' data.
    AllReduce(ReduceKind),
    /// Every rank ends with the concatenation of all ranks' chunks.
    AllGather,
    /// Every rank ends with one reduced chunk of the full buffer.
    ReduceScatter(ReduceKind),
    /// `root`'s buffer is copied to every rank.
    Broadcast {
        /// Source rank.
        root: usize,
    },
    /// The reduction of all ranks' data lands on `root` only.
    Reduce {
        /// Destination rank.
        root: usize,
        /// Reduction operator.
        kind: ReduceKind,
    },
}

impl CollectiveOp {
    /// Bytes each ring edge must carry for a ring execution over `n` ranks
    /// with reference buffer size `size` (NCCL-tests "size" semantics:
    /// the output buffer for AllReduce/AllGather/Broadcast, the input
    /// buffer for ReduceScatter/Reduce).
    ///
    /// * AllReduce — reduce-scatter phase + allgather phase: `2(n−1)/n·S`.
    /// * AllGather / ReduceScatter — one phase: `(n−1)/n·S`.
    /// * Broadcast / Reduce — pipelined chain: every edge carries `S`
    ///   (except that a ring-shaped chain has one unused edge; we model the
    ///   full ring for uniformity, a ≤`1/n` overestimate).
    pub fn ring_edge_bytes(self, size: Bytes, n: usize) -> Bytes {
        assert!(n >= 1, "empty communicator");
        if n == 1 {
            return Bytes::ZERO;
        }
        let s = size.as_f64();
        let n_f = n as f64;
        let per_edge = match self {
            CollectiveOp::AllReduce(_) => 2.0 * (n_f - 1.0) / n_f * s,
            CollectiveOp::AllGather | CollectiveOp::ReduceScatter(_) => (n_f - 1.0) / n_f * s,
            CollectiveOp::Broadcast { .. } | CollectiveOp::Reduce { .. } => s,
        };
        Bytes::new(per_edge.round() as u64)
    }

    /// Short name as printed in reports ("allreduce", ...).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveOp::AllReduce(_) => "allreduce",
            CollectiveOp::AllGather => "allgather",
            CollectiveOp::ReduceScatter(_) => "reducescatter",
            CollectiveOp::Broadcast { .. } => "broadcast",
            CollectiveOp::Reduce { .. } => "reduce",
        }
    }
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Convenience constructor for the most common op.
pub fn all_reduce_sum() -> CollectiveOp {
    CollectiveOp::AllReduce(ReduceKind::Sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_sizes() {
        assert_eq!(DataType::Float32.size(), 4);
        assert_eq!(DataType::Float16.size(), 2);
    }

    #[test]
    fn ring_edge_bytes_formulas() {
        let s = Bytes::mib(8);
        // n=4 AllReduce: 2*3/4*S = 1.5*S
        assert_eq!(
            all_reduce_sum().ring_edge_bytes(s, 4),
            Bytes::new(s.as_u64() * 3 / 2)
        );
        // n=4 AllGather: 3/4*S
        assert_eq!(
            CollectiveOp::AllGather.ring_edge_bytes(s, 4),
            Bytes::new(s.as_u64() * 3 / 4)
        );
        // Broadcast carries S on each edge
        assert_eq!(CollectiveOp::Broadcast { root: 0 }.ring_edge_bytes(s, 4), s);
    }

    #[test]
    fn single_rank_is_free() {
        assert_eq!(
            all_reduce_sum().ring_edge_bytes(Bytes::mib(1), 1),
            Bytes::ZERO
        );
    }

    #[test]
    fn edge_bytes_grow_toward_asymptote() {
        let s = Bytes::mib(64);
        let b2 = all_reduce_sum().ring_edge_bytes(s, 2);
        let b8 = all_reduce_sum().ring_edge_bytes(s, 8);
        let b64 = all_reduce_sum().ring_edge_bytes(s, 64);
        assert!(b2 < b8 && b8 < b64);
        assert!(b64.as_u64() < 2 * s.as_u64(), "bounded by 2S");
    }

    #[test]
    fn names() {
        assert_eq!(format!("{}", CollectiveOp::AllGather), "allgather");
        assert_eq!(all_reduce_sum().name(), "allreduce");
    }
}
