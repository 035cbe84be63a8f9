//! # mccs-topology — datacenter cluster model
//!
//! The physical-network substrate the MCCS service reasons about and the
//! flow-level simulator (`mccs-netsim`) runs on: hosts with GPUs and NICs,
//! racks and pods, leaf/spine switches, directed capacity-labelled links,
//! and multi-path routing with ECMP semantics.
//!
//! The cloud provider's *private* view — the whole point of the paper is
//! that tenants never see this structure; only the provider-side components
//! (`mccs-core`, `mccs-control`) take a [`Topology`] argument.
//!
//! ## Module map
//! * [`ids`] — typed identifiers for every entity.
//! * [`graph`] — the [`Topology`] graph: hosts, GPUs, NICs, switches, links.
//! * [`builder`] — imperative construction API.
//! * [`routing`] — path enumeration, equal-cost path sets, ECMP selection.
//! * [`presets`] — the paper's concrete topologies: the 4-host testbed
//!   (Fig. 5a), the 768-GPU spine-leaf cluster (§6.5), the 4-switch ring
//!   (Fig. 7), and a flat single-switch network.
//! * [`locality`] — rack/pod grouping and locality distance used by the
//!   locality-aware ring policy.

pub mod builder;
pub mod graph;
pub mod ids;
pub mod locality;
pub mod presets;
pub mod routing;

pub use builder::TopologyBuilder;
pub use graph::{Gpu, Host, Link, Nic, Switch, SwitchRole, Topology};
pub use ids::{GpuId, HostId, LinkId, NicId, PodId, RackId, SwitchId};
pub use locality::{Locality, LocalityMap};
pub use routing::{Route, RouteError, RouteId, RouteSet};
