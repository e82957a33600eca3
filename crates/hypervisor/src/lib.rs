//! Distributed-VM machinery shared by FragVisor and its baselines.
//!
//! This crate assembles the substrates (`comm`, `dsm`, `virtio`, `guest`,
//! `cluster`, `sim-core`) into a running distributed virtual machine:
//!
//! * [`profile::HypervisorProfile`] — the cost/feature model separating
//!   FragVisor from GiantVM (kernel- vs user-space DSM, helper threads,
//!   multiqueue/DSM-bypass availability, guest optimizations, mobility).
//! * [`program::Program`] — the interface guest workloads implement: a
//!   stream of [`program::Op`]s (compute bursts, page touches, kernel
//!   operations, I/O, barriers) executed by a vCPU.
//! * [`vm::VmBuilder`]/[`vm::VmWorld`] — the simulator: vCPUs placed on
//!   pCPUs of cluster nodes, guest memory behind the DSM, delegated VirtIO
//!   devices, an optional external client, plus vCPU migration and
//!   distributed checkpoint/restart.
//! * [`failure::FailureConfig`] — the heartbeat failure detector and its
//!   recovery policy, driving live recovery from scripted node crashes
//!   ([`sim_core::fault::FaultPlan`]) via DSM quarantine + checkpoint
//!   restore, or proactive drains when the failure is predicted.
//!
//! A VM whose vCPUs all sit on one node degenerates to a classic
//! single-machine VM (the *overcommit* baseline); a VM with one vCPU per
//! node and mobility enabled is FragVisor's Aggregate VM; the same without
//! mobility and with the user-space cost profile is GiantVM.

#![warn(missing_docs)]

pub mod boot;
pub mod checkpoint;
pub mod elastic;
pub mod failure;
pub mod fleet;
pub mod memory;
pub mod profile;
pub mod program;
#[cfg(test)]
mod reliability;
pub mod stats;
pub mod vm;

pub use elastic::{
    MemoryConfig, MemoryPressure, PressureThresholds, ReclaimCounters, ReclaimPolicy,
};
pub use failure::FailureConfig;
pub use fleet::{FleetConfig, FleetReport, FleetSim, TenantSpec, TenantStats};
pub use memory::VmMemory;
pub use profile::HypervisorProfile;
pub use program::{GuestMsg, Op, ProgCtx, Program};
pub use stats::VmStats;
pub use virtio::VcpuId;
pub use vm::{
    ClientConfig, ClientModel, ClientSend, Event, Placement, VmBuilder, VmError, VmSim, VmWorld,
};
