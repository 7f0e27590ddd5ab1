//! `Probed<M>`: a `Monitoring` deployment that forwards every call to
//! an inner engine, timing it as a span of its monitor entry point and
//! counting what crosses the boundary. The runtime is generic over
//! `M: Monitoring`, so wrapping needs no change to the program.
//!
//! With a [`CallLog`] attached it also records the monitor event stream
//! the engine accepted, for the differential replay in
//! [`crate::replay`].

use std::cell::RefCell;

use artemis_core::action::Action;
use artemis_core::app::{PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_ir::expr::Value;
use artemis_monitor::{MonitorVerdict, Monitoring};
use intermittent_sim::device::Device;

use crate::probe::{span, Layer};

/// What crossed the monitor boundary, summed over calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Boundary {
    /// `call_monitor` + `deliver_batch` calls.
    pub deliver_calls: u64,
    /// `monitor_finalize` calls (one per boot).
    pub finalize_calls: u64,
    /// `on_path_restart` calls that returned.
    pub restarts: u64,
    /// Verdicts handed back to the runtime.
    pub verdicts: u64,
    /// FRAM bytes read + written inside monitor calls.
    pub fram_bytes: u64,
    /// FRAM operations inside monitor calls.
    pub fram_ops: u64,
    /// Modelled time that passed inside monitor calls, µs.
    pub model_us: u64,
    /// Modelled energy drawn inside monitor calls, pJ.
    pub model_pj: u64,
}

impl Boundary {
    /// Adds another device's counts.
    pub fn add(&mut self, o: &Boundary) {
        self.deliver_calls += o.deliver_calls;
        self.finalize_calls += o.finalize_calls;
        self.restarts += o.restarts;
        self.verdicts += o.verdicts;
        self.fram_bytes += o.fram_bytes;
        self.fram_ops += o.fram_ops;
        self.model_us += o.model_us;
        self.model_pj += o.model_pj;
    }
}

/// Every machine's persistent `(state, vars)`, as `MonitorEngine::snapshot`
/// returns them.
pub type Snapshot = Vec<(u32, Vec<Value>)>;

/// One accepted monitor input, in delivery order.
#[derive(Clone, Debug)]
pub enum Entry {
    /// An event the engine armed, with the verdicts it returned (`None`
    /// when a power failure cut the call short and the runtime moved on
    /// under a fresh sequence number).
    Event {
        seq: u64,
        event: MonitorEvent,
        verdicts: Option<Vec<(usize, Action)>>,
    },
    /// A path restart the engine applied.
    Restart(PathId),
}

/// The recorded call stream of one device.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Accepted inputs.
    pub entries: Vec<Entry>,
    /// An input whose acceptance is decided at the next completed boot:
    /// the entry index, and for a restart the machine state before it.
    pending: Option<(usize, Option<Snapshot>)>,
    /// `deliver_batch` was used; its stream is not replayable here.
    pub batched: bool,
}

/// The probing wrapper.
pub struct Probed<M> {
    inner: M,
    boundary: RefCell<Boundary>,
    log: Option<RefCell<CallLog>>,
}

impl<M> Probed<M> {
    /// Wraps `inner`; `record` attaches a call log.
    pub fn new(inner: M, record: bool) -> Self {
        Probed {
            inner,
            boundary: RefCell::new(Boundary::default()),
            log: record.then(|| RefCell::new(CallLog::default())),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Boundary counts so far.
    pub fn boundary(&self) -> Boundary {
        *self.boundary.borrow()
    }

    /// Takes the call log, if one was attached.
    pub fn take_log(&self) -> Option<CallLog> {
        self.log
            .as_ref()
            .map(|l| std::mem::take(&mut *l.borrow_mut()))
    }

    /// Runs one monitor call as a span of `layer`, adding its FRAM
    /// traffic and modelled cost to the boundary counts. The caller
    /// holds a [`Layer::Probe`] span, which the counter reads fall in.
    fn probe<R>(&self, layer: Layer, dev: &mut Device, f: impl FnOnce(&mut Device) -> R) -> R {
        let fram = |d: &Device| {
            let f = d.fram();
            (
                f.read_bytes() + f.write_bytes(),
                f.read_ops() + f.write_ops(),
            )
        };
        let (bytes0, ops0) = fram(dev);
        let (t0, e0) = (dev.stats().total_time(), dev.stats().consumed);
        let out = span(layer, || f(dev));
        let (bytes1, ops1) = fram(dev);
        let mut b = self.boundary.borrow_mut();
        b.fram_bytes += bytes1 - bytes0;
        b.fram_ops += ops1 - ops0;
        b.model_us += (dev.stats().total_time() - t0).as_micros();
        b.model_pj += (dev.stats().consumed - e0).as_pico_joules();
        out
    }
}

/// The engine's last armed sequence number, read without cost from its
/// persistent `monitor.seq` cell.
fn armed_seq(dev: &Device) -> u64 {
    let cell = dev
        .fram()
        .allocations()
        .iter()
        .find(|a| a.label == "monitor.seq")
        .expect("the monitor engine allocates monitor.seq");
    let mut b = [0u8; 8];
    b.copy_from_slice(dev.peek_raw(cell.addr, 8));
    u64::from_le_bytes(b)
}

impl Probed<artemis_monitor::MonitorEngine> {
    fn log_event(
        &self,
        seq: u64,
        event: &MonitorEvent,
        r: &Result<Vec<MonitorVerdict>, intermittent_sim::Interrupt>,
    ) {
        let Some(log) = &self.log else { return };
        let mut log = log.borrow_mut();
        let same = matches!(log.entries.last(), Some(Entry::Event { seq: s, .. }) if *s == seq);
        if !same {
            log.entries.push(Entry::Event {
                seq,
                event: *event,
                verdicts: None,
            });
        }
        let idx = log.entries.len() - 1;
        match r {
            Ok(vs) => {
                if let Entry::Event { verdicts, .. } = &mut log.entries[idx] {
                    verdicts.get_or_insert_with(|| {
                        vs.iter().map(|v| (v.machine_index, v.action)).collect()
                    });
                }
                if log.pending.as_ref().is_some_and(|(i, _)| *i == idx) {
                    log.pending = None;
                }
            }
            Err(_) if !same => log.pending = Some((idx, None)),
            Err(_) => {}
        }
    }

    /// After a completed `monitor_finalize` the engine's persistent
    /// state is settled: an interrupted event counts as accepted iff it
    /// was armed, an interrupted restart iff it changed machine state.
    fn settle(&self, dev: &Device) {
        let Some(log) = &self.log else { return };
        let mut log = log.borrow_mut();
        let Some((idx, before)) = log.pending.take() else {
            return;
        };
        let accepted = match before {
            Some(before) => self.inner.snapshot(dev) != before,
            None => matches!(log.entries[idx], Entry::Event { seq, .. } if armed_seq(dev) >= seq),
        };
        if !accepted {
            log.entries.remove(idx);
        }
    }
}

// Each entry point runs as a `Probe` span, so the wrapper's own work
// is priced apart from the engine's and from the runtime that calls it.
impl Monitoring for Probed<artemis_monitor::MonitorEngine> {
    // Called once, by the runtime's install: timed, but left out of
    // the boundary counts, which cover application runs only.
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), intermittent_sim::Interrupt> {
        span(Layer::MonOther, || self.inner.reset_monitor(dev))
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, intermittent_sim::Interrupt> {
        span(Layer::Probe, || {
            let r = self.probe(Layer::MonFinalize, dev, |d| self.inner.monitor_finalize(d));
            self.boundary.borrow_mut().finalize_calls += 1;
            if r.is_ok() {
                self.settle(dev);
            }
            r
        })
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, intermittent_sim::Interrupt> {
        span(Layer::Probe, || {
            let r = self.probe(Layer::MonDeliver, dev, |d| {
                self.inner.call_monitor(d, seq, event)
            });
            {
                let mut b = self.boundary.borrow_mut();
                b.deliver_calls += 1;
                if let Ok(vs) = &r {
                    b.verdicts += vs.len() as u64;
                }
            }
            self.log_event(seq, event, &r);
            r
        })
    }

    fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, intermittent_sim::Interrupt> {
        span(Layer::Probe, || {
            let r = self.probe(Layer::MonDeliver, dev, |d| {
                self.inner.deliver_batch(d, first_seq, events)
            });
            {
                let mut b = self.boundary.borrow_mut();
                b.deliver_calls += 1;
                if let Ok(vs) = &r {
                    b.verdicts += vs.iter().map(|v| v.len() as u64).sum::<u64>();
                }
            }
            if let Some(log) = &self.log {
                log.borrow_mut().batched = true;
            }
            r
        })
    }

    fn batch_capacity(&self) -> usize {
        self.inner.batch_capacity()
    }

    fn end_event_is_silent(&self, task: TaskId) -> bool {
        self.inner.end_event_is_silent(task)
    }

    fn last_verdicts(
        &self,
        dev: &mut Device,
    ) -> Result<Vec<MonitorVerdict>, intermittent_sim::Interrupt> {
        span(Layer::Probe, || {
            self.probe(Layer::MonOther, dev, |d| self.inner.last_verdicts(d))
        })
    }

    fn on_path_restart(
        &self,
        dev: &mut Device,
        path: PathId,
    ) -> Result<(), intermittent_sim::Interrupt> {
        span(Layer::Probe, || {
            let before = self.log.as_ref().map(|_| self.inner.snapshot(dev));
            let r = self.probe(Layer::MonRestart, dev, |d| {
                self.inner.on_path_restart(d, path)
            });
            if r.is_ok() {
                self.boundary.borrow_mut().restarts += 1;
            }
            if let Some(log) = &self.log {
                let mut log = log.borrow_mut();
                log.entries.push(Entry::Restart(path));
                if r.is_err() {
                    let idx = log.entries.len() - 1;
                    log.pending = Some((idx, before));
                }
            }
            r
        })
    }

    fn machine_count(&self) -> usize {
        self.inner.machine_count()
    }

    fn machine_names(&self) -> Vec<String> {
        self.inner.machine_names()
    }
}
