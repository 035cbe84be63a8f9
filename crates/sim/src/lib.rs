//! # mccs-sim — discrete-event simulation kernel
//!
//! The foundation for every simulated substrate in the MCCS reproduction:
//! a virtual clock, a deterministic event queue, a deterministic RNG, and a
//! poll-based [`Engine`] abstraction in the spirit of the paper's
//! implementation section ("our engines are designed similar to asynchronous
//! futures in Rust; a pool of runtimes is used to execute the engines").
//!
//! All time is virtual and measured in integer nanoseconds ([`Nanos`]).
//! Determinism is a hard requirement: given the same seed, every experiment
//! in this repository reproduces bit-identical results. The event queue
//! breaks timestamp ties with a monotone sequence number, and the RNG is a
//! self-contained xoshiro256++ implementation so results do not depend on
//! external crate versions.
//!
//! ## Module map
//!
//! * [`time`] — the [`Nanos`] virtual-time type and duration helpers.
//! * [`units`] — bytes and bandwidth with exact transfer-time arithmetic.
//! * [`event`] — the deterministic time-ordered [`EventQueue`].
//! * [`rng`] — seedable xoshiro256++ [`Rng`] plus the distributions used by
//!   the workload generators (uniform, exponential, shuffles).
//! * [`engine`] — the [`Engine`] trait, [`Poll`] status and [`RuntimePool`]
//!   cooperative scheduler (wake-driven by default, with the naive
//!   round-robin poller kept as a differential-testing oracle).
//! * [`slotset`] — [`SlotSet`], the bitset of dense indices the pool's
//!   ready and round sets and the device fabric's touched sets use.
//! * [`idwindow`] — [`IdWindow`], a map over counter-issued ids (flow
//!   ids, task tokens, request and sequence numbers) kept as a window of
//!   slots over the live band.
//! * [`waker`] — [`ResourceId`]s and the [`WakeSource`] contract contexts
//!   implement so parked engines can be woken by exactly the signals they
//!   wait on (timed waits included — the pool itself has no clock).
//! * [`timeline`] — time-series recording for the timeline figures (7, 10).
//! * [`stats`] — means, percentiles and confidence intervals for reporting.

pub mod engine;
pub mod event;
pub mod idwindow;
pub mod rng;
pub mod slotset;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod units;
pub mod waker;

pub use engine::{Engine, EngineId, Poll, RuntimePool};
pub use event::{EventQueue, ShardedEventQueue};
pub use idwindow::IdWindow;
pub use rng::Rng;
pub use slotset::SlotSet;
pub use stats::Summary;
pub use time::Nanos;
pub use timeline::TimeSeries;
pub use units::{Bandwidth, Bytes};
pub use waker::{ResourceId, WakeSource};
