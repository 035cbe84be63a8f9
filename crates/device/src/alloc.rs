//! Per-GPU device memory allocator.
//!
//! First-fit free-list allocator over a virtual address range. The MCCS
//! service owns tenant GPU buffers (the shim redirects `cudaMalloc` to the
//! service), so allocation correctness — no overlap, full reclamation,
//! alignment — is a service-side invariant; the property tests at the
//! bottom pin it down.

use mccs_sim::Bytes;
use std::collections::BTreeMap;
use std::fmt;

/// Allocation failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// No contiguous free range large enough.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Total bytes free (possibly fragmented).
        free: u64,
    },
    /// Zero-sized allocation.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "out of device memory: requested {requested}B, {free}B free"
                )
            }
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Allocation alignment: 256 B, matching CUDA's device-pointer guarantee.
pub const ALIGNMENT: u64 = 256;

/// A first-fit free-list allocator for one GPU's memory.
#[derive(Debug)]
pub struct GpuAllocator {
    capacity: u64,
    /// Free ranges: start address -> length. Non-adjacent (always merged).
    free: BTreeMap<u64, u64>,
    /// Live allocations: start address -> length.
    live: BTreeMap<u64, u64>,
}

impl GpuAllocator {
    /// An empty allocator over `capacity` bytes of device memory.
    pub fn new(capacity: Bytes) -> Self {
        let capacity = capacity.as_u64();
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        GpuAllocator {
            capacity,
            free,
            live: BTreeMap::new(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used(&self) -> u64 {
        self.capacity - self.free_total()
    }

    /// Bytes currently free (possibly fragmented).
    fn free_total(&self) -> u64 {
        self.free.values().sum()
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocate `size` bytes; returns the device address. Sizes are rounded
    /// up to [`ALIGNMENT`].
    pub fn alloc(&mut self, size: Bytes) -> Result<u64, AllocError> {
        let size = size.as_u64();
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let size = size.div_ceil(ALIGNMENT) * ALIGNMENT;
        // First fit in address order (BTreeMap iterates ascending).
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&addr, &len)| (addr, len));
        let Some((addr, len)) = slot else {
            return Err(AllocError::OutOfMemory {
                requested: size,
                free: self.free_total(),
            });
        };
        self.free.remove(&addr);
        if len > size {
            self.free.insert(addr + size, len - size);
        }
        self.live.insert(addr, size);
        Ok(addr)
    }

    /// Free the allocation starting at `addr`.
    ///
    /// # Panics
    /// Panics on double free / unknown address — a service-side bug, never
    /// tenant-reachable (the shim only forwards handles the service issued).
    pub fn free(&mut self, addr: u64) {
        let size = self
            .live
            .remove(&addr)
            .unwrap_or_else(|| panic!("free of unallocated address {addr:#x}"));
        // Merge with the predecessor and/or successor free range.
        let mut start = addr;
        let mut len = size;
        if let Some((&prev_start, &prev_len)) = self.free.range(..addr).next_back() {
            if prev_start + prev_len == addr {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some(&next_len) = self.free.get(&(addr + size)) {
            self.free.remove(&(addr + size));
            len += next_len;
        }
        self.free.insert(start, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(cap_mib: u64) -> GpuAllocator {
        GpuAllocator::new(Bytes::mib(cap_mib))
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = alloc(16);
        let p = a.alloc(Bytes::kib(4)).expect("fits");
        assert_eq!(p % ALIGNMENT, 0);
        assert_eq!(a.used(), 4096);
        a.free(p);
        assert_eq!(a.used(), 0);
        assert_eq!(a.free_total(), Bytes::mib(16).as_u64());
    }

    #[test]
    fn sizes_round_up_to_alignment() {
        let mut a = alloc(1);
        a.alloc(Bytes::new(1)).expect("fits");
        assert_eq!(a.used(), ALIGNMENT);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut a = alloc(1);
        let err = a.alloc(Bytes::mib(2)).expect_err("too big");
        assert_eq!(
            err,
            AllocError::OutOfMemory {
                requested: Bytes::mib(2).as_u64(),
                free: Bytes::mib(1).as_u64()
            }
        );
    }

    #[test]
    fn zero_size_rejected() {
        let mut a = alloc(1);
        assert_eq!(a.alloc(Bytes::ZERO), Err(AllocError::ZeroSize));
    }

    #[test]
    fn adjacent_frees_merge() {
        let mut a = alloc(1);
        let p1 = a.alloc(Bytes::kib(256)).expect("fits");
        let p2 = a.alloc(Bytes::kib(256)).expect("fits");
        let p3 = a.alloc(Bytes::kib(256)).expect("fits");
        a.free(p1);
        a.free(p3);
        a.free(p2); // merges with both sides
        assert_eq!(a.free_total(), Bytes::mib(1).as_u64());
        // and the whole capacity is again allocatable in one piece
        a.alloc(Bytes::mib(1)).expect("merged back to one range");
    }

    #[test]
    fn fragmentation_can_fail_despite_enough_total() {
        let mut a = alloc(1);
        let p1 = a.alloc(Bytes::kib(512)).expect("fits");
        let _p2 = a.alloc(Bytes::kib(256)).expect("fits");
        a.free(p1);
        // 768K total free, but the largest hole is 512K + trailing 256K,
        // which are separated by p2.
        assert_eq!(a.free_total(), Bytes::kib(768).as_u64());
        assert!(a.alloc(Bytes::kib(768)).is_err());
        a.alloc(Bytes::kib(512)).expect("first hole fits");
    }

    #[test]
    #[should_panic(expected = "free of unallocated")]
    fn double_free_panics() {
        let mut a = alloc(1);
        let p = a.alloc(Bytes::kib(4)).expect("fits");
        a.free(p);
        a.free(p);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Alloc(u64),
            FreeNth(usize),
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (1u64..512 * 1024).prop_map(Op::Alloc),
                    (0usize..64).prop_map(Op::FreeNth),
                ],
                1..200,
            )
        }

        proptest! {
            /// Under any alloc/free interleaving: allocations never
            /// overlap, accounting balances, and freeing everything
            /// restores one maximal free range.
            #[test]
            fn allocator_invariants(ops in ops()) {
                let mut a = GpuAllocator::new(Bytes::mib(8));
                let mut live: Vec<(u64, u64)> = Vec::new();
                for op in ops {
                    match op {
                        Op::Alloc(sz) => {
                            if let Ok(addr) = a.alloc(Bytes::new(sz)) {
                                let rounded = sz.div_ceil(ALIGNMENT) * ALIGNMENT;
                                // no overlap with any live allocation
                                for &(la, ls) in &live {
                                    prop_assert!(addr + rounded <= la || la + ls <= addr,
                                        "overlap: [{addr},{rounded}] vs [{la},{ls}]");
                                }
                                prop_assert_eq!(addr % ALIGNMENT, 0);
                                live.push((addr, rounded));
                            }
                        }
                        Op::FreeNth(i) => {
                            if !live.is_empty() {
                                let (addr, _) = live.swap_remove(i % live.len());
                                a.free(addr);
                            }
                        }
                    }
                    let live_sum: u64 = live.iter().map(|&(_, s)| s).sum();
                    prop_assert_eq!(a.used(), live_sum);
                    prop_assert_eq!(a.live_count(), live.len());
                }
                for (addr, _) in live.drain(..) {
                    a.free(addr);
                }
                prop_assert_eq!(a.used(), 0);
                // fully merged: one free range covering everything
                prop_assert!(a.alloc(Bytes::mib(8)).is_ok());
            }
        }
    }
}
