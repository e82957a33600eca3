//! Aggregate VM: umbrella crate re-exporting the whole workspace.
//!
//! See [`fragvisor`] for the core API, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the measured reproduction of every
//! figure in the paper's evaluation.
//!
//! The types a downstream experiment actually touches — fabric messages,
//! QoS knobs, device builders, the tracer — are re-exported flat so callers
//! can write `aggregate_vm::Message` instead of reaching through three
//! crate layers.

pub use cluster;
pub use comm;
pub use dsm;
pub use fragvisor;
pub use giantvm;
pub use guest;
pub use hypervisor;
pub use scheduler;
pub use sim_core;
pub use virtio;
pub use workloads;

pub use comm::{
    ClassWeights, Fabric, FabricError, LinkProfile, Message, MsgClass, NodeId, Scheduling,
    StackProfile, Urgency,
};
pub use hypervisor::{MemoryConfig, MemoryPressure, PressureThresholds, ReclaimPolicy};
pub use sim_core::audit::{audit, Violation};
pub use sim_core::time::SimTime;
pub use sim_core::trace::Tracer;
pub use sim_core::units::ByteSize;
pub use virtio::{DeviceConfig, IoPathMode};
