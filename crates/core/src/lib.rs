//! # mccs-core — the MCCS service
//!
//! The paper's primary contribution: collective communication as a
//! provider-controlled host service. Tenant applications talk NCCL-shaped
//! APIs to a shim (`mccs-shim`); this crate is everything on the other
//! side of the command queue:
//!
//! * **frontend engines** ([`frontend`]) — one per application per host;
//!   own tenant GPU-buffer allocation (IPC handles, validation) and route
//!   commands to proxies;
//! * **proxy engines** ([`proxy`]) — one per GPU; own communicator state,
//!   sequence collectives, compute ring schedules from the provider's
//!   configuration, drive intra-host channel transfers, and run the
//!   **dynamic reconfiguration protocol** of Figure 4 (control-ring
//!   AllGather barrier over last-launched sequence numbers), whose
//!   per-rank state machine is [`reconfig`];
//! * **transport engines** ([`transport`]) — one per NIC; turn inter-host
//!   edge tasks into network flows with explicit route pins (FFA/PFA) and
//!   enforce time-window traffic schedules (TS);
//! * **scenarios** ([`scenario`]) — a world as data: topology, config,
//!   tenants running the NCCL-tests loop and a fault plan;
//! * **library mode** ([`library`]) — the NCCL-like library a tenant links
//!   in instead, the comparator the paper evaluates MCCS against: one
//!   [`TenantMode`] of the same tenant description;
//! * **management API** ([`mgmt`]) — the provider/controller surface:
//!   communicator inventory, runtime reconfiguration, traffic windows,
//!   and collective tracing.
//!
//! Everything runs in virtual time inside a [`cluster::Cluster`]: a
//! discrete-event world ([`world::World`]) advancing the network
//! (`mccs-netsim`), the GPUs (`mccs-device`), the IPC queues (`mccs-ipc`)
//! and the engine pool together.
//!
//! ## Modeling notes (vs. the real system)
//!
//! * Collective completion is tracked by a shared progress registry
//!   ([`progress::CollectiveProgress`]) rather than per-rank kernel plumbing —
//!   the flow-level approximation the paper's own §6.5 simulator makes.
//! * "Connections" are per-flow; reconfiguration teardown/re-setup cost is
//!   modeled as a configurable pause ([`config::ServiceConfig`]).

pub mod app;
pub mod chaos;
pub mod cluster;
pub mod comms;
pub mod config;
pub mod error;
pub mod explore;
pub mod flat;
pub mod frontend;
pub mod health;
pub mod library;
pub mod messages;
pub mod mgmt;
pub mod progress;
pub mod proxy;
pub mod qos;
pub mod reconfig;
pub mod recovery;
pub mod scenario;
pub mod tracing;
pub mod transport;
pub mod world;

pub use chaos::ChaosDriver;
pub use cluster::{Cluster, ClusterConfig, ClusterHang};
pub use config::{CollectiveConfig, DegradationPolicy, RouteMap, ServiceConfig};
pub use error::ServiceError;
pub use explore::{
    episode_seed, ChaosAction, Decision, EpisodeReport, Explorer, ExplorerConfig, Verdict,
};
pub use health::{
    FailureEvent, HealthCounters, HealthDelivery, HealthRegistry, HealthSnapshot,
    HealthSubscription,
};
pub use library::{LibraryConfig, RingChoice};
pub use mgmt::CommInfo;
pub use qos::TrafficWindows;
pub use recovery::{DetourPolicy, RecoveryEngine};
pub use scenario::{closed_loop, Record, Scenario, Tenant, TenantMode};
pub use tracing::{TraceCollector, TraceRecord};
pub use world::{Controller, ControllerState, ControllerStats, DrainObligation, World};
