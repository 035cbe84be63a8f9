//! Fabric-wide device memory: pointers, IPC handles, validation.
//!
//! The MCCS memory-management protocol (§4.1):
//! 1. the shim forwards an allocation request to the service;
//! 2. the service's frontend engine allocates on the target GPU and obtains
//!    an **inter-process memory handle**;
//! 3. the shim *opens* the handle to get the device pointer it hands back
//!    to the application;
//! 4. for collectives the shim passes `(handle, offset)` and the service
//!    validates the range against its allocation table before touching it.
//!
//! [`MemoryTable`] is the service-side registry implementing 2 and 4;
//! opening (3) simply reveals the pointer, mirroring `cudaIpcOpenMemHandle`.

use crate::alloc::{AllocError, GpuAllocator};
use mccs_sim::Bytes;
use mccs_topology::GpuId;
#[allow(clippy::disallowed_types)] // the handle table's map
use std::collections::HashMap;

/// An inter-process shareable handle to one device allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemHandle(pub u64);

/// A raw device pointer: GPU plus device address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DevicePtr {
    /// The GPU the memory lives on.
    pub gpu: GpuId,
    /// Device address.
    pub addr: u64,
}

#[derive(Clone, Copy, Debug)]
struct Registration {
    gpu: GpuId,
    addr: u64,
    size: u64,
}

/// Service-side registry of allocations across all GPUs of a host.
#[derive(Debug, Default)]
pub struct MemoryTable {
    #[allow(clippy::disallowed_types)] // lookup only, never iterated
    handles: HashMap<MemHandle, Registration>,
    next_handle: u64,
}

/// Errors from handle-based memory operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The handle was never issued or has been freed.
    UnknownHandle(MemHandle),
    /// `(offset, len)` does not fit inside the handle's allocation.
    RangeOutOfBounds {
        /// The offending handle.
        handle: MemHandle,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Allocation size.
        size: u64,
    },
    /// The underlying allocator refused.
    Alloc(AllocError),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::UnknownHandle(h) => write!(f, "unknown memory handle {h:?}"),
            MemError::RangeOutOfBounds {
                handle,
                offset,
                len,
                size,
            } => write!(
                f,
                "range [{offset}, {offset}+{len}) outside allocation {handle:?} of {size}B"
            ),
            MemError::Alloc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MemError {}

impl MemoryTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `size` bytes on `gpu` (whose allocator the caller owns) and
    /// register an IPC handle for the result.
    pub fn alloc(
        &mut self,
        gpu: GpuId,
        allocator: &mut GpuAllocator,
        size: Bytes,
    ) -> Result<MemHandle, MemError> {
        let addr = allocator.alloc(size).map_err(MemError::Alloc)?;
        let handle = MemHandle(self.next_handle);
        self.next_handle += 1;
        self.handles.insert(
            handle,
            Registration {
                gpu,
                addr,
                size: size.as_u64().div_ceil(crate::alloc::ALIGNMENT) * crate::alloc::ALIGNMENT,
            },
        );
        Ok(handle)
    }

    /// Open a handle: reveal the device pointer (`cudaIpcOpenMemHandle`).
    pub fn open(&self, handle: MemHandle) -> Result<DevicePtr, MemError> {
        let reg = self
            .handles
            .get(&handle)
            .ok_or(MemError::UnknownHandle(handle))?;
        Ok(DevicePtr {
            gpu: reg.gpu,
            addr: reg.addr,
        })
    }

    /// Free a handle's allocation.
    pub fn free(
        &mut self,
        handle: MemHandle,
        allocator: &mut GpuAllocator,
    ) -> Result<(), MemError> {
        let reg = self
            .handles
            .remove(&handle)
            .ok_or(MemError::UnknownHandle(handle))?;
        allocator.free(reg.addr);
        Ok(())
    }

    /// The GPU a handle's memory lives on.
    pub fn gpu_of(&self, handle: MemHandle) -> Result<GpuId, MemError> {
        Ok(self
            .handles
            .get(&handle)
            .ok_or(MemError::UnknownHandle(handle))?
            .gpu)
    }

    /// Validate that `[offset, offset+len)` lies inside the handle's
    /// allocation and return the absolute device pointer — the §4.1 check
    /// the service performs before every collective.
    pub fn validate(
        &self,
        handle: MemHandle,
        offset: u64,
        len: u64,
    ) -> Result<DevicePtr, MemError> {
        let reg = self
            .handles
            .get(&handle)
            .ok_or(MemError::UnknownHandle(handle))?;
        let fits = offset.checked_add(len).is_some_and(|end| end <= reg.size);
        if !fits {
            return Err(MemError::RangeOutOfBounds {
                handle,
                offset,
                len,
                size: reg.size,
            });
        }
        Ok(DevicePtr {
            gpu: reg.gpu,
            addr: reg.addr + offset,
        })
    }

    /// Number of live handles.
    pub fn live_count(&self) -> usize {
        self.handles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemoryTable, GpuAllocator) {
        (MemoryTable::new(), GpuAllocator::new(Bytes::mib(64)))
    }

    #[test]
    fn alloc_open_free_protocol() {
        let (mut table, mut gpu_alloc) = setup();
        let h = table
            .alloc(GpuId(3), &mut gpu_alloc, Bytes::mib(1))
            .expect("fits");
        let ptr = table.open(h).expect("live");
        assert_eq!(ptr.gpu, GpuId(3));
        assert_eq!(table.gpu_of(h), Ok(GpuId(3)));
        assert_eq!(table.live_count(), 1);
        table.free(h, &mut gpu_alloc).expect("live");
        assert_eq!(table.open(h), Err(MemError::UnknownHandle(h)));
        assert_eq!(gpu_alloc.used(), 0);
    }

    #[test]
    fn validation_accepts_interior_ranges() {
        let (mut table, mut gpu_alloc) = setup();
        let h = table
            .alloc(GpuId(0), &mut gpu_alloc, Bytes::kib(64))
            .expect("fits");
        let base = table.open(h).expect("live").addr;
        let p = table.validate(h, 1024, 4096).expect("interior");
        assert_eq!(p.addr, base + 1024);
        table.validate(h, 0, 65536).expect("whole buffer");
    }

    #[test]
    fn validation_rejects_escapes() {
        let (mut table, mut gpu_alloc) = setup();
        let h = table
            .alloc(GpuId(0), &mut gpu_alloc, Bytes::kib(64))
            .expect("fits");
        assert!(matches!(
            table.validate(h, 0, 65537),
            Err(MemError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            table.validate(h, 65536, 1),
            Err(MemError::RangeOutOfBounds { .. })
        ));
        // overflow attempt
        assert!(matches!(
            table.validate(h, u64::MAX, 2),
            Err(MemError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn double_free_is_an_error_not_a_panic() {
        let (mut table, mut gpu_alloc) = setup();
        let h = table
            .alloc(GpuId(0), &mut gpu_alloc, Bytes::kib(4))
            .expect("fits");
        table.free(h, &mut gpu_alloc).expect("first");
        assert_eq!(
            table.free(h, &mut gpu_alloc),
            Err(MemError::UnknownHandle(h))
        );
    }

    #[test]
    fn oom_surfaces_as_mem_error() {
        let (mut table, mut gpu_alloc) = setup();
        let e = table
            .alloc(GpuId(0), &mut gpu_alloc, Bytes::gib(1))
            .expect_err("too big");
        assert!(matches!(e, MemError::Alloc(AllocError::OutOfMemory { .. })));
        assert!(format!("{e}").contains("out of device memory"));
    }

    #[test]
    fn handles_are_unique_across_frees() {
        let (mut table, mut gpu_alloc) = setup();
        let h1 = table
            .alloc(GpuId(0), &mut gpu_alloc, Bytes::kib(4))
            .expect("fits");
        table.free(h1, &mut gpu_alloc).expect("live");
        let h2 = table
            .alloc(GpuId(0), &mut gpu_alloc, Bytes::kib(4))
            .expect("fits");
        assert_ne!(h1, h2, "handles must never be recycled");
    }
}
