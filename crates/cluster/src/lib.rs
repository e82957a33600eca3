//! Physical cluster model: machines, resource inventories, allocations.
//!
//! The paper's testbed is a rack of identical servers (Xeon E5-2620 v4,
//! 32 GiB RAM, one ConnectX-4 NIC, one SATA SSD) behind an InfiniBand
//! switch. This crate tracks *who owns what*: how many pCPUs and how much
//! RAM of each machine is allocated to which VM slice, what devices each
//! machine hosts, and how fragmented the free capacity is — the quantity
//! the Aggregate VM exists to harvest.
//!
//! It deliberately knows nothing about hypervisors or scheduling policy;
//! the `scheduler` crate implements BFF/FragBFF on top of these primitives.

#![warn(missing_docs)]

pub mod fragmentation;
mod free_index;
pub mod machine;

pub use fragmentation::FragmentationReport;
pub use machine::{Cluster, DeviceKind, Machine, MachineSpec, ResourceRequest};

sim_core::define_id!(
    /// Identifier of a VM known to the cluster allocator.
    VmId,
    "vm"
);

sim_core::define_id!(
    /// Identifier of one slice of a (possibly aggregate) VM.
    SliceId,
    "slice"
);
