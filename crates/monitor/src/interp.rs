//! The reference semantics: a volatile interpreter over every installed
//! machine.
//!
//! It holds one [`MachineState`] per machine, the last delivered
//! sequence number and that delivery's verdicts, and steps every machine
//! the event's `Path:` qualifier does not rule out through
//! [`artemis_ir::exec::step`], in suite order. It keeps nothing in FRAM
//! and bills nothing, so whatever device it runs beside it is a
//! *continuous* run of the events it is given — the run the
//! Surbatovich et al. criterion holds an intermittent production run
//! to. The reference [`MonitorEngine`](crate::MonitorEngine) runs it on
//! the node; the [`RemoteMonitorEngine`](crate::RemoteMonitorEngine)
//! runs it on its mains-powered monitor device.
//!
//! It follows the production engine's observable rules exactly:
//! sequence number 0 counts as delivered after a reset, re-delivering
//! the last number returns its recorded verdicts without stepping, the
//! path filter reads the encoded event, and verdict actions resolve
//! through the production engine's verdict-cell encoding.

use artemis_core::app::{AppGraph, PathId};
use artemis_ir::exec::{step, IrEvent, MachineState};
use artemis_ir::expr::Value;
use artemis_ir::fsm::MonitorSuite;
use artemis_ir::StateMachine;

use crate::state::EncodedEvent;
use crate::{decode_action, encode_action, MonitorVerdict};

/// The volatile interpreter (see the module docs).
pub(crate) struct Interpreter {
    /// Task names by dense task id, for trigger matching.
    task_names: Vec<String>,
    machines: Vec<(StateMachine, MachineState)>,
    /// The last delivered sequence number (0 after a reset).
    seq: u64,
    /// The verdicts of delivery `seq`.
    verdicts: Vec<MonitorVerdict>,
}

impl Interpreter {
    /// Every machine of `suite` in its initial state, with `app`'s task
    /// names for trigger matching.
    pub(crate) fn new(suite: MonitorSuite, app: &AppGraph) -> Self {
        Interpreter {
            task_names: app.tasks().iter().map(|t| t.name.clone()).collect(),
            machines: suite
                .into_iter()
                .map(|m| {
                    let state = MachineState::initial(&m);
                    (m, state)
                })
                .collect(),
            seq: 0,
            verdicts: Vec::new(),
        }
    }

    /// Hard reset: every machine to its initial state, no verdicts and
    /// sequence number 0.
    pub(crate) fn reset(&mut self) {
        for (m, state) in &mut self.machines {
            state.reset(m);
        }
        self.seq = 0;
        self.verdicts.clear();
    }

    /// Delivers `event` under `seq`. A new sequence number steps every
    /// machine the event's path does not rule out; the last one only
    /// returns its recorded verdicts.
    pub(crate) fn deliver(&mut self, seq: u64, event: &EncodedEvent) -> Vec<MonitorVerdict> {
        if seq == self.seq {
            return self.verdicts.clone();
        }
        self.seq = seq;
        self.verdicts.clear();
        let ir_event = IrEvent {
            kind: event.kind(),
            task: self
                .task_names
                .get(event.task as usize)
                .map_or("", String::as_str),
            ctx: event.ctx(),
        };
        for (i, (m, state)) in self.machines.iter_mut().enumerate() {
            if event.path_excludes(m.path) {
                continue;
            }
            // Evaluation errors cannot occur on validated machines; they
            // are treated as accept-silently, keeping any partial
            // mutation, as on the production engine.
            let Some(fail) = step(m, state, &ir_event).unwrap_or(None) else {
                continue;
            };
            if let Some(action) = decode_action(encode_action(fail.action, fail.path.or(m.path))) {
                self.verdicts.push(MonitorVerdict {
                    machine_index: i,
                    machine: m.name.clone(),
                    action,
                });
            }
        }
        self.verdicts.clone()
    }

    /// The verdicts of the last delivery.
    pub(crate) fn last_verdicts(&self) -> Vec<MonitorVerdict> {
        self.verdicts.clone()
    }

    /// Re-initialises the machines bound to a restart of `path`.
    pub(crate) fn restart_path(&mut self, path: PathId) {
        for (m, state) in &mut self.machines {
            if m.reset_on_path_restart && m.path == Some(path.number()) {
                state.reset(m);
            }
        }
    }

    /// Every machine's `(state, vars)`.
    pub(crate) fn snapshot(&self) -> Vec<(u32, Vec<Value>)> {
        self.machines
            .iter()
            .map(|(_, s)| (s.state, s.vars.clone()))
            .collect()
    }

    /// Number of machines.
    pub(crate) fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Machine names, in suite order.
    pub(crate) fn machine_names(&self) -> Vec<String> {
        self.machines.iter().map(|(m, _)| m.name.clone()).collect()
    }
}
