//! # mccs-control — the centralized controller and its policies
//!
//! The provider-side brain of §4.3 ("Enabling Manageability"): consumes
//! the MCCS management API (communicator inventory, traces) and produces
//! the four example policies the paper evaluates:
//!
//! * **OR** ([`ring_policy`]) — locality-aware ring configuration:
//!   group participant hosts by rack/pod, chain them sequentially,
//!   minimizing cross-rack ring edges (§4.3 Example #1).
//! * **FFA** ([`flow_policy::ffa`]) — best-fit fair flow assignment:
//!   Hedera-style greedy placement of every collective connection onto the
//!   equal-cost path with minimal excess demand, round-robin across jobs
//!   for fairness (§4.3 Example #2).
//! * **PFA** ([`flow_policy::pfa`]) — priority flow assignment: routes
//!   reserved for high-priority tenants; low-priority flows fit on the
//!   remainder (§4.3 Example #3).
//! * **TS** ([`ts`]) — time-window traffic scheduling: infer the
//!   prioritized app's idle cycles from its collective trace and gate
//!   other tenants into them (§4.3 Example #4, CASSINI-inspired).
//!
//! [`controller`] composes these into one-call cluster optimization.
//! Failures are the service's own business: its recovery engine
//! (`mccs_core::RecoveryEngine`) detours around them, so this crate has
//! no reaction path of its own.

pub mod controller;
pub mod flow_policy;
pub mod ring_policy;
pub mod ts;

pub use controller::{apply_traffic_schedule, optimize_cluster, FlowAssignment, PolicySpec};
pub use flow_policy::{ffa, pfa, JobFlows};
pub use ring_policy::{optimal_rings, ChannelPolicy};
pub use ts::infer_windows;
