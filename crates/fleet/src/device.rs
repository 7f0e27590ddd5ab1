//! One fleet member: a complete simulated device and its installed
//! runtime, packaged as a single self-contained [`Send`] value.

use artemis_runtime::ArtemisRuntime;
use intermittent_sim::device::Device;
use intermittent_sim::simulator::RunLimit;

/// A fully built fleet device: the simulated hardware (FRAM image,
/// journal, capacitor, harvester, persistent clock) plus the installed
/// ARTEMIS runtime and monitor engine. Nothing in here is shared or
/// ambient — the value owns its whole world, which is what lets the
/// fleet shard devices across OS threads by move.
pub struct FleetDevice {
    /// The simulated hardware.
    pub dev: Device,
    /// The installed runtime (monitors deployed, reset done).
    pub rt: ArtemisRuntime,
    /// Budget for the run.
    pub limit: RunLimit,
}

/// What one device contributes to the fleet aggregate. Integer-only by
/// design: every field folds into [`FleetStats`](crate::FleetStats)
/// with commutative arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceSample {
    /// `true` if the run completed within its limit.
    pub completed: bool,
    /// Monitor events delivered (the persistent sequence counter).
    pub events: u64,
    /// Power-failure reboots.
    pub reboots: u64,
    /// Energy drawn from the capacitor, in microjoules.
    pub consumed_micro_joules: u64,
    /// Simulated time the run covered, in microseconds.
    pub sim_micros: u64,
    /// Violations per monitor index of the installed suite, from the
    /// runtime's own counter ([`ArtemisRuntime::violations`]) — exact
    /// whatever the device trace keeps.
    pub violations: Vec<u64>,
}

impl FleetDevice {
    /// Drives the device to completion (or its limit) and reduces it to
    /// its aggregate contribution. Consumes the device: after this the
    /// FRAM image and trace are dropped, so a worker's live footprint
    /// is one device, not one chunk.
    pub fn run(mut self) -> DeviceSample {
        let started = self.dev.now();
        let outcome = self.rt.run_once(&mut self.dev, self.limit);
        DeviceSample {
            completed: outcome.is_completed(),
            events: self.rt.events_delivered(&self.dev),
            reboots: self.dev.reboots(),
            consumed_micro_joules: self.dev.stats().consumed.as_nano_joules() / 1_000,
            sim_micros: self.dev.now().duration_since(started).as_micros(),
            violations: self.rt.violations().to_vec(),
        }
    }
}
