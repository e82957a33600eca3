//! Communication-layer model: the inter-hypervisor message-passing fabric.
//!
//! FragVisor's hypervisor instances talk over a kernel-space message-passing
//! layer inherited from Popcorn Linux, running on 56 Gbps InfiniBand in the
//! paper's testbed; GiantVM uses user-space TCP. This crate models that
//! fabric as a set of directed links with:
//!
//! * a fixed one-way *base latency* (propagation + NIC + software stack),
//! * a *bandwidth* term serializing each message onto the wire, with
//!   QoS-classed queueing per directed link: strict priority for
//!   latency-critical classes, weighted-fair sharing across bulk classes,
//!   FIFO within each class (see [`fabric`]),
//! * per-message *CPU overhead* at sender and receiver, which the caller
//!   can charge to the appropriate pCPU (this is how GiantVM's user/kernel
//!   crossings and helper threads show up).
//!
//! The crate is a pure cost model: [`Fabric::send`] answers "when does this
//! [`Message`] arrive", and the hypervisor layer turns that into an engine
//! event. Nothing here knows about pages, interrupts or virtqueues.

#![warn(missing_docs)]

pub mod fabric;
pub mod profile;
pub mod staging;

pub use fabric::{Delivery, Fabric, FabricError, Message, MsgClass, Scheduling, Urgency};
pub use profile::{ClassWeights, LinkProfile, StackProfile};
pub use staging::{merge_windows, min_lookahead, IngressLine, StagedMsg};

sim_core::define_id!(
    /// Identifier of a physical machine in the cluster fabric.
    NodeId,
    "node"
);
