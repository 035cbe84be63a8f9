//! # mccs-workloads — training workloads, traces and job generators
//!
//! Everything the evaluation runs on top of the system:
//!
//! * [`trace`] — iteration traces: the `(compute, collective, memcpy,
//!   idle)` phase sequences a training job repeats, plus the breakdown
//!   analyzer behind Figure 2. The paper's traffic generator
//!   ("implemented with Rust using the MCCS library", §6.1) is a trace
//!   lowered to a [`mccs_core::Tenant`] ([`IterationTrace::tenant`]), one
//!   rank per GPU, in a [`mccs_core::Scenario`].
//! * [`models`] — calibrated profiles substituting for the paper's
//!   PyTorch/DeepSpeed/Megatron traces (repro gate: no GPUs here):
//!   VGG-19 data-parallel, GPT-2.7B tensor-parallel, ResNet-50
//!   data-parallel. Parameter counts and bucket sizes are documented at
//!   each constructor; only the *structure* (collective sizes and compute
//!   gaps) matters for the network experiments.
//! * [`jobs`] — the §6.5 job generator: Poisson arrivals, 16/32-GPU jobs,
//!   random vs. compact placement over a live occupancy map.

pub mod jobs;
pub mod models;
pub mod trace;

pub use jobs::{JobSpec, Placement, PlacementMap};
pub use models::{gpt27b_tensor_parallel, resnet50_data_parallel, vgg19_data_parallel};
pub use trace::{Breakdown, IterationTrace, TracePhase};
