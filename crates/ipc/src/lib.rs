//! # mccs-ipc — shim ⇄ service communication
//!
//! The paper's applications are compiled against a thin shim that talks to
//! the MCCS service over **shared-memory command queues** (§3). This crate
//! models that boundary: a latency-accurate SPSC queue ([`queue`]) and the
//! command/completion protocol ([`protocol`]) the shim and the service's
//! frontend engines speak.
//!
//! The queue latency is the physical quantity behind the paper's measured
//! "overall latency of 50–80 µs" on the datapath for small messages
//! (§6.2) — commands hop shim → frontend → proxy (→ transport), and each
//! hop costs a queue traversal. [`config::IpcConfig`] holds those knobs.

pub mod config;
pub mod protocol;
pub mod queue;

pub use config::{IpcConfig, COMPLETION_LATENCY, ENGINE_HOP_LATENCY};
pub use protocol::{
    AppId, CollectiveRequest, CommunicatorId, ErrorCode, ShimCommand, ShimCompletion,
};
pub use queue::LatencyQueue;
