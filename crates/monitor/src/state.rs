//! The delivered form of a monitor event.

use artemis_core::event::{EventKind, MonitorEvent};
use artemis_ir::expr::EventCtx;

/// A monitor event as every engine steps it (paper Figure 8's
/// `MonitorEvent_t`): kind, task index, timestamp, optional monitored
/// value, the capacitor reading sampled at delivery, and the executing
/// path.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EncodedEvent {
    /// 0 = start, 1 = end.
    pub kind: u8,
    /// Task id (dense index into the application graph).
    pub task: u32,
    /// Timestamp in microseconds.
    pub timestamp_us: u64,
    /// 1 if `dep_bits` carries a value.
    pub has_dep: u8,
    /// `f64::to_bits` of the monitored value.
    pub dep_bits: u64,
    /// Capacitor level in nanojoules at delivery time.
    pub energy_nj: u64,
    /// One-based number of the executing path; 0 = no path context.
    pub path_number: u32,
}

impl EncodedEvent {
    /// Encodes a core event plus the current energy reading.
    pub fn from_event(e: &MonitorEvent, energy_nj: u64) -> Self {
        EncodedEvent {
            kind: match e.kind {
                EventKind::StartTask => 0,
                EventKind::EndTask => 1,
            },
            task: e.task.0,
            timestamp_us: e.timestamp.as_micros(),
            has_dep: u8::from(e.dep_data.is_some()),
            dep_bits: e.dep_data.unwrap_or(0.0).to_bits(),
            energy_nj,
            path_number: e.path.map_or(0, |p| p.number()),
        }
    }

    /// The monitored value, if present.
    pub fn dep_data(&self) -> Option<f64> {
        (self.has_dep != 0).then(|| f64::from_bits(self.dep_bits))
    }

    /// The event kind.
    pub fn kind(&self) -> EventKind {
        if self.kind == 0 {
            EventKind::StartTask
        } else {
            EventKind::EndTask
        }
    }

    /// The evaluation context guards and bodies read.
    pub fn ctx(&self) -> EventCtx {
        EventCtx {
            time_us: self.timestamp_us,
            dep_data: self.dep_data(),
            energy_nj: self.energy_nj,
        }
    }

    /// The `Path:` qualifier filter (paper §3.2): `true` iff a machine
    /// governed by path `machine_path` must not see this event, because
    /// the event comes from another path. A property on a merged task
    /// is checked only against events from its governing path; events
    /// without path context reach every machine.
    pub fn path_excludes(&self, machine_path: Option<u32>) -> bool {
        matches!(machine_path, Some(p) if self.path_number != 0 && self.path_number != p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::{PathId, TaskId};
    use artemis_core::time::SimInstant;

    #[test]
    fn encoded_event_round_trips() {
        let e = MonitorEvent::end_with_data(TaskId(7), SimInstant::from_micros(123_456), 36.5);
        let enc = EncodedEvent::from_event(&e, 999);
        assert_eq!(enc.dep_data(), Some(36.5));
        assert_eq!(enc.kind(), EventKind::EndTask);
        assert_eq!(enc.task, 7);
        assert_eq!(enc.ctx().time_us, 123_456);
        assert_eq!(enc.energy_nj, 999);
        assert_eq!(enc.path_number, 0);
        assert!(!enc.path_excludes(Some(1)));

        let s = MonitorEvent::start(TaskId(2), SimInstant::from_micros(5)).on_path(PathId(256));
        let enc = EncodedEvent::from_event(&s, 0);
        assert_eq!(enc.dep_data(), None);
        assert_eq!(enc.kind(), EventKind::StartTask);
        // Path numbers past 255 keep their path context.
        assert_eq!(enc.path_number, 257);
        assert!(enc.path_excludes(Some(1)));
        assert!(!enc.path_excludes(Some(257)));
        assert!(!enc.path_excludes(None));
    }
}
