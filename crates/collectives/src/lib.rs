//! # mccs-collectives — collective algorithms and schedules
//!
//! The algorithm layer shared by the MCCS service and its NCCL-like
//! library mode (both in `mccs-core`): operation semantics, ring
//! construction, per-edge transfer schedules with multi-channel splitting,
//! bandwidth accounting (NCCL-tests definitions), and the cross-rack
//! traffic analysis behind the paper's Figure 3.
//!
//! ## Byte accounting
//!
//! All sizes follow the NCCL-tests convention the paper plots (its Figure 6
//! x-axis "Data Size" is the output buffer): a ring over `n` ranks moves
//! `2(n−1)/n · S` bytes per ring edge for AllReduce and `(n−1)/n · S` for
//! AllGather. Bus bandwidth is algorithm bandwidth times the same factor.
//!
//! ## Module map
//! * [`op`] — operation kinds, data types, reduction operators.
//! * [`ring`] — ring orders: raw, NCCL-default (host-grouped in user rank
//!   order), and validation.
//! * [`schedule`] — the one ring lowering: per-edge transfer schedules
//!   with channel splitting and NIC assignment, and the inter-host
//!   connections route policies read.
//! * [`bandwidth`] — algorithm/bus bandwidth conversions.
//! * [`crossrack`] — cross-rack flow counting and ratios (Figure 3).

pub mod bandwidth;
pub mod crossrack;
pub mod op;
pub mod ring;
pub mod schedule;

pub use bandwidth::{algo_bandwidth, bus_bandwidth, bus_factor};
pub use op::{CollectiveOp, DataType, ReduceKind};
pub use ring::RingOrder;
pub use schedule::{connections, ChannelSchedule, CollectiveSchedule, EdgeTask, ScheduleKey};
