//! # mccs-device — simulated GPU substrate
//!
//! Replaces CUDA for this reproduction (the repro gate: the paper's testbed
//! needs RTX 3090s). The *interfaces* mirror the CUDA primitives MCCS builds
//! on in §4.1 so the service logic is unchanged:
//!
//! * **Device memory + IPC handles** — the MCCS service allocates tenant
//!   buffers itself and shares them back through inter-process memory
//!   handles; it validates that every collective's buffer lies within a
//!   live allocation. [`alloc`] implements a per-GPU free-list allocator;
//!   [`memory`] implements fabric-wide handles, opening, and range
//!   validation.
//! * **Streams** — in-order operation queues per GPU ([`stream`]): compute
//!   kernels (duration-modeled), intra-host channel transfers
//!   (bytes/bandwidth-modeled), event records and event waits.
//! * **Events** — shareable synchronization points. Cross-process stream
//!   ordering (app stream ⇄ service stream) goes through events exactly as
//!   described in the paper, because streams cannot be shared between
//!   processes but events can.
//!
//! [`fabric::DeviceFabric`] owns every GPU and advances them in virtual
//! time, emitting completion notifications the engines poll.

pub mod alloc;
pub mod config;
pub mod fabric;
pub mod memory;
pub mod stream;

pub use alloc::{AllocError, GpuAllocator};
pub use config::{INTRA_HOST_BANDWIDTH, KERNEL_LAUNCH_OVERHEAD, MEMORY_CAPACITY};
pub use fabric::{DeviceFabric, DeviceNotification};
pub use memory::{DevicePtr, MemHandle};
pub use stream::{EventId, StreamId, StreamOp};
