//! # MCCS — Managed Collective Communication as a Service
//!
//! Facade crate re-exporting the full MCCS reproduction (SIGCOMM 2024).
//! See `README.md` for a tour and `DESIGN.md` for the architecture.

pub use mccs_collectives as collectives;
pub use mccs_control as control;
pub use mccs_core as service;
pub use mccs_device as device;
pub use mccs_ipc as ipc;
pub use mccs_netsim as netsim;
pub use mccs_shim as shim;
pub use mccs_sim as sim;
pub use mccs_topology as topology;
pub use mccs_workloads as workloads;
