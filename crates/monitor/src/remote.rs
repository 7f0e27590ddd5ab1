//! The external-monitor deployment alternative (paper §7,
//! "Implementation Alternatives"): monitors run on a *separate,
//! continuously-powered* device; the intermittent node ships every
//! observable event over its radio and receives the verdict back.
//!
//! The paper predicts the trade-off: "Wireless communication is way
//! more energy-hungry compared to computation, which can result in
//! significant overheads" — in exchange for deploying and updating
//! monitors without touching the node. This module makes that trade-off
//! measurable: the node pays radio time/energy per event (and keeps
//! *no* monitor state in its FRAM), while the remote side — modelled
//! host-side, since it is continuously powered — executes the same
//! state machines through the reference interpreter.
//!
//! Reliability model: event delivery is at-least-once (the node
//! retransmits after a power failure); the remote deduplicates by the
//! caller's sequence number, exactly like the local engine, so monitor
//! semantics are identical and only the cost profile changes.

use std::cell::RefCell;

use artemis_core::app::{AppGraph, PathId};
use artemis_core::event::MonitorEvent;
use artemis_ir::fsm::MonitorSuite;
use intermittent_sim::device::{CostCategory, Device, Interrupt};

use crate::interp::Interpreter;
use crate::state::EncodedEvent;
use crate::{validate_suite, InstallError, MonitorVerdict, Monitoring};

/// Bytes on the wire for one event message (kind, task, timestamp,
/// depData, path, sequence number).
const EVENT_MSG_BYTES: usize = 32;
/// Bytes on the wire for a verdict response.
const VERDICT_MSG_BYTES: usize = 16;
/// Bytes for a control message (reset / path restart).
const CONTROL_MSG_BYTES: usize = 8;

/// Monitors deployed on an external, continuously-powered device.
pub struct RemoteMonitorEngine {
    /// The remote device's monitors (free for the node: the remote
    /// device is mains-powered).
    remote: RefCell<Interpreter>,
}

impl RemoteMonitorEngine {
    /// Validates the suite exactly as the local engine's install does
    /// and "deploys" it to the external device.
    ///
    /// Nothing is allocated in the node's FRAM — that is the point of
    /// this deployment (and visible in Table-2-style reports).
    pub fn install(
        _dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
    ) -> Result<Self, InstallError> {
        validate_suite(&suite, app)?;
        Ok(RemoteMonitorEngine {
            remote: RefCell::new(Interpreter::new(suite, app)),
        })
    }
}

impl Monitoring for RemoteMonitorEngine {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        // A control message over the radio.
        dev.billed(CostCategory::Monitor, |dev| dev.transmit(CONTROL_MSG_BYTES))?;
        self.remote.borrow_mut().reset();
        Ok(())
    }

    fn monitor_finalize(&self, _dev: &mut Device) -> Result<bool, Interrupt> {
        // Nothing to finalise on the node: monitor state lives remotely.
        Ok(false)
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let encoded = EncodedEvent::from_event(event, dev.energy_level().as_nano_joules());
        // Pay for the radio round-trip FIRST: if the transmit browns
        // out, the event was not delivered and the re-attempt
        // retransmits under the same sequence number (dedup makes this
        // exactly-once in effect).
        dev.billed(CostCategory::Monitor, |dev| {
            dev.transmit(EVENT_MSG_BYTES)?;
            dev.receive(VERDICT_MSG_BYTES)
        })?;
        Ok(self.remote.borrow_mut().deliver(seq, &encoded))
    }

    fn last_verdicts(&self, _dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(self.remote.borrow().last_verdicts())
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        dev.billed(CostCategory::Monitor, |dev| dev.transmit(CONTROL_MSG_BYTES))?;
        self.remote.borrow_mut().restart_path(path);
        Ok(())
    }

    fn machine_count(&self) -> usize {
        self.remote.borrow().machine_count()
    }

    fn machine_names(&self) -> Vec<String> {
        self.remote.borrow().machine_names()
    }
}

/// A placeholder allowing runtimes with no monitoring at all (ablation
/// baseline: the bare intermittent runtime).
pub struct NoMonitoring;

impl Monitoring for NoMonitoring {
    fn reset_monitor(&self, _dev: &mut Device) -> Result<(), Interrupt> {
        Ok(())
    }

    fn monitor_finalize(&self, _dev: &mut Device) -> Result<bool, Interrupt> {
        Ok(false)
    }

    fn call_monitor(
        &self,
        _dev: &mut Device,
        _seq: u64,
        _event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(Vec::new())
    }

    fn last_verdicts(&self, _dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        Ok(Vec::new())
    }

    fn on_path_restart(&self, _dev: &mut Device, _path: PathId) -> Result<(), Interrupt> {
        Ok(())
    }

    fn machine_count(&self) -> usize {
        0
    }
}

/// Re-exported for reports: one event's wire cost in bytes.
pub fn event_wire_bytes() -> usize {
    EVENT_MSG_BYTES + VERDICT_MSG_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::action::Action;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::time::SimInstant;
    use intermittent_sim::device::DeviceBuilder;

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("accel");
        let s = b.task("send");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn t(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
    }

    #[test]
    fn remote_verdicts_match_local_semantics() {
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 2 onFail: skipPath; }", &app).unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let remote = RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap();
        remote.reset_monitor(&mut dev).unwrap();
        let accel = app.task_by_name("accel").unwrap();

        assert!(remote
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap()
            .is_empty());
        assert!(remote
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap()
            .is_empty());
        let v = remote
            .call_monitor(&mut dev, 3, &MonitorEvent::start(accel, t(2)))
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].action, Action::SkipPath(PathId(0)));
    }

    /// The remote install runs the local install's source checks: a
    /// path-directed action with no governing path anywhere is refused
    /// instead of installing with a wrong path target.
    #[test]
    fn remote_install_rejects_what_local_install_rejects() {
        let app = app();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        for action in ["skipPath", "restartPath", "completePath"] {
            let suite = artemis_ir::parse::parse_suite(&format!(
                "machine p task accel persistent {{ state S initial; \
                 on startTask(accel) from S to S {{ }} fail {action}; }}"
            ))
            .unwrap();
            assert!(matches!(
                crate::MonitorEngine::install(&mut dev, suite.clone(), &app),
                Err(InstallError::MissingPath { .. })
            ));
            assert!(
                matches!(
                    RemoteMonitorEngine::install(&mut dev, suite, &app),
                    Err(InstallError::MissingPath { .. })
                ),
                "a pathless {action} installed remotely"
            );
        }
    }

    #[test]
    fn remote_dedups_by_sequence_number() {
        let app = app();
        let suite = artemis_ir::compile(
            "send { collect: 2 dpTask: accel onFail: restartPath; }",
            &app,
        )
        .unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let remote = RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap();
        let accel = app.task_by_name("accel").unwrap();
        let send = app.task_by_name("send").unwrap();

        // Retransmissions of the same end event count once.
        for _ in 0..3 {
            remote
                .call_monitor(&mut dev, 9, &MonitorEvent::end(accel, t(5)))
                .unwrap();
        }
        remote
            .call_monitor(&mut dev, 10, &MonitorEvent::end(accel, t(6)))
            .unwrap();
        let v = remote
            .call_monitor(&mut dev, 11, &MonitorEvent::start(send, t(7)))
            .unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn remote_uses_radio_energy_not_fram() {
        use intermittent_sim::fram::MemOwner;

        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let before_fram = dev.fram().used_by(MemOwner::Monitor);
        let remote = RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap();
        assert_eq!(
            dev.fram().used_by(MemOwner::Monitor),
            before_fram,
            "external monitoring must not consume node FRAM"
        );

        let accel = app.task_by_name("accel").unwrap();
        let before = dev.stats().energy(CostCategory::Monitor);
        remote
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        let spent = dev.stats().energy(CostCategory::Monitor) - before;
        // The radio round-trip dwarfs any local monitor step (paper §7).
        assert!(
            spent.as_micro_joules() > 100,
            "expected radio-scale energy, got {spent}"
        );
    }

    #[test]
    fn no_monitoring_is_free() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let none = NoMonitoring;
        let before = dev.stats().consumed;
        none.reset_monitor(&mut dev).unwrap();
        none.call_monitor(
            &mut dev,
            1,
            &MonitorEvent::start(artemis_core::app::TaskId(0), t(0)),
        )
        .unwrap();
        assert_eq!(dev.stats().consumed, before);
        assert_eq!(none.machine_count(), 0);
    }
}
