//! Stepping a VM from outside the simulator.
//!
//! [`step`] drives a [`VmSim`] one [`Engine::step`](sim_core::Engine::step)
//! at a time until its programs finish (or its client drains), exactly as
//! `VmSim::run` / `VmSim::run_client` do. With a [`VmProfile`] attached,
//! every step is wrapped in a `Timed` world that spans the
//! `VmWorld::handle` call, so the profile splits host time into engine
//! self time (queue pop/push around the handler) and handler time per
//! event family.

use std::time::Instant;

use hypervisor::vm::{Event, VmSim, VmWorld};
use sim_core::engine::{Ctx, World};
use sim_core::time::SimTime;

/// Handler families, in report order.
pub const FAMILIES: [&str; 6] = ["step", "cpu", "msg", "io", "mobility", "failure"];

/// The family an event belongs to (an index into [`FAMILIES`]).
///
/// `cpu` holds pCPU completions and charges; the vCPU programs they
/// resume run DSM accesses and fabric sends synchronously, so those
/// layers' host time lands here.
fn family(ev: &Event) -> usize {
    match ev {
        Event::Start | Event::VcpuStep(_) | Event::WakeVcpu(_) | Event::GuestTick { .. } => 0,
        Event::CpuDone { .. } | Event::ChargeCpu { .. } => 1,
        Event::IpiDeliver { .. } | Event::LocalDeliver { .. } | Event::FleetDeliver { .. } => 2,
        Event::DevProcess { .. }
        | Event::IoComplete { .. }
        | Event::ClientRxArrive { .. }
        | Event::NetRxDeliver { .. }
        | Event::ClientDeliver { .. } => 3,
        Event::MigrationDone { .. } => 4,
        // Crashes, heartbeats, recovery and partitions — and any variant
        // added later.
        _ => 5,
    }
}

/// Host-time profile of stepped VMs (summed over every VM stepped with it).
#[derive(Debug, Clone, Default)]
pub struct VmProfile {
    /// Events delivered.
    pub events: u64,
    /// Nanoseconds inside `Engine::step`, handler included.
    pub step_ns: u64,
    /// Nanoseconds inside `VmWorld::handle`.
    pub handler_ns: u64,
    /// Largest pending-event count seen after a handler returned.
    pub queue_peak: usize,
    /// Events per family.
    pub family_count: [u64; 6],
    /// Handler nanoseconds per family.
    pub family_ns: [u64; 6],
}

/// A `World` that times each `VmWorld::handle` call into a profile.
struct Timed<'a> {
    world: &'a mut VmWorld,
    profile: &'a mut VmProfile,
}

impl World for Timed<'_> {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<'_, Event>, ev: Event) {
        let fam = family(&ev);
        let t = Instant::now();
        self.world.handle(ctx, ev);
        let ns = t.elapsed().as_nanos() as u64;
        let p = &mut *self.profile;
        p.handler_ns += ns;
        p.family_count[fam] += 1;
        p.family_ns[fam] += ns;
        p.queue_peak = p.queue_peak.max(ctx.pending());
    }
}

/// When a stepped VM is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// Every program finished (`VmSim::run`); the result is the last
    /// vCPU's finish time.
    Finished,
    /// The external client completed its load (`VmSim::run_client`); the
    /// result is the engine clock.
    ClientDone,
}

/// Steps `sim` to completion, timing every step into `profile` when one
/// is given. Returns the same virtual time `VmSim::run` (or `run_client`)
/// would, or an error if the queue drains first.
pub fn step(
    sim: &mut VmSim,
    until: Until,
    profile: Option<&mut VmProfile>,
) -> Result<SimTime, String> {
    let done = |sim: &VmSim| match until {
        Until::Finished => sim.world.finished(),
        Until::ClientDone => sim.world.client_done(),
    };
    match profile {
        None => {
            while !done(sim) {
                if !sim.engine.step(&mut sim.world) {
                    return Err("event queue drained before the VM finished".into());
                }
            }
        }
        Some(profile) => {
            while !done(sim) {
                let t = Instant::now();
                let stepped = sim.engine.step(&mut Timed {
                    world: &mut sim.world,
                    profile: &mut *profile,
                });
                profile.step_ns += t.elapsed().as_nanos() as u64;
                if !stepped {
                    return Err("event queue drained before the VM finished".into());
                }
                profile.events += 1;
            }
        }
    }
    Ok(match until {
        Until::Finished => sim
            .world
            .stats
            .vcpu_finish
            .iter()
            .flatten()
            .copied()
            .fold(SimTime::ZERO, SimTime::max),
        Until::ClientDone => sim.engine.now(),
    })
}
