//! Nonvolatile encodings of monitor values and events.

use artemis_core::event::{EventKind, MonitorEvent};
use artemis_ir::expr::{EventCtx, Value};
use intermittent_sim::fram::NvData;

/// A [`Value`] with a fixed 9-byte FRAM encoding: 1 tag byte + 8
/// payload bytes, little-endian.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NvValue(pub Value);

impl NvData for NvValue {
    const SIZE: usize = 9;

    fn store(&self, dst: &mut [u8]) {
        let (tag, payload): (u8, u64) = match self.0 {
            Value::Int(v) => (0, v as u64),
            Value::Bool(v) => (1, u64::from(v)),
            Value::Time(v) => (2, v),
            Value::Float(v) => (3, v.to_bits()),
        };
        dst[0] = tag;
        dst[1..9].copy_from_slice(&payload.to_le_bytes());
    }

    fn load(src: &[u8]) -> Self {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&src[1..9]);
        let payload = u64::from_le_bytes(buf);
        NvValue(match src[0] {
            0 => Value::Int(payload as i64),
            1 => Value::Bool(payload != 0),
            2 => Value::Time(payload),
            _ => Value::Float(f64::from_bits(payload)),
        })
    }
}

/// The persistent event variable (paper Figure 8's `MonitorEvent_t`):
/// kind, task index, timestamp, optional monitored value, and the
/// capacitor reading sampled at delivery.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
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
    pub path_number: u8,
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
            path_number: e
                .path
                .map(|p| u8::try_from(p.number()).unwrap_or(0))
                .unwrap_or(0),
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
}

impl NvData for EncodedEvent {
    const SIZE: usize = 1 + 4 + 8 + 1 + 8 + 8 + 1;

    fn store(&self, dst: &mut [u8]) {
        dst[0] = self.kind;
        dst[1..5].copy_from_slice(&self.task.to_le_bytes());
        dst[5..13].copy_from_slice(&self.timestamp_us.to_le_bytes());
        dst[13] = self.has_dep;
        dst[14..22].copy_from_slice(&self.dep_bits.to_le_bytes());
        dst[22..30].copy_from_slice(&self.energy_nj.to_le_bytes());
        dst[30] = self.path_number;
    }

    fn load(src: &[u8]) -> Self {
        let u32_at = |i: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&src[i..i + 4]);
            u32::from_le_bytes(b)
        };
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&src[i..i + 8]);
            u64::from_le_bytes(b)
        };
        EncodedEvent {
            kind: src[0],
            task: u32_at(1),
            timestamp_us: u64_at(5),
            has_dep: src[13],
            dep_bits: u64_at(14),
            energy_nj: u64_at(22),
            path_number: src[30],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::TaskId;
    use artemis_core::time::SimInstant;

    fn round_trip<T: NvData + PartialEq + core::fmt::Debug + Copy>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.store(&mut buf);
        assert_eq!(T::load(&buf), v);
    }

    #[test]
    fn nv_value_round_trips_all_variants() {
        round_trip(NvValue(Value::Int(-42)));
        round_trip(NvValue(Value::Int(i64::MAX)));
        round_trip(NvValue(Value::Bool(true)));
        round_trip(NvValue(Value::Bool(false)));
        round_trip(NvValue(Value::Time(u64::MAX)));
        round_trip(NvValue(Value::Float(36.6)));
        round_trip(NvValue(Value::Float(-0.0)));
    }

    #[test]
    fn encoded_event_round_trips() {
        let e = MonitorEvent::end_with_data(TaskId(7), SimInstant::from_micros(123_456), 36.5);
        let enc = EncodedEvent::from_event(&e, 999);
        round_trip(enc);
        assert_eq!(enc.dep_data(), Some(36.5));
        assert_eq!(enc.kind, 1);
        assert_eq!(enc.task, 7);
        assert_eq!(enc.energy_nj, 999);

        let s = MonitorEvent::start(TaskId(2), SimInstant::from_micros(5));
        let enc = EncodedEvent::from_event(&s, 0);
        assert_eq!(enc.dep_data(), None);
        assert_eq!(enc.kind, 0);
    }
}
