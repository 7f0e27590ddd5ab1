//! The differential output check: an intermittent run must give the
//! same verdicts as a continuous run of the same events. A recorded
//! device's accepted monitor inputs (one per sequence number, original
//! timestamps) are replayed into the reference engine — the tree-walking
//! interpreter with full-scan dispatch — on a continuously powered
//! device; every verdict the device saw and its final monitor state
//! must match.

use artemis_monitor::{ExecMode, InstallOptions, MonitorEngine, RoutingMode};
use intermittent_sim::device::DeviceBuilder;

use crate::passes::Recorded;
use crate::probed::Entry;
use crate::workload::Workload;

/// Replays `rec` and describes the first divergence, if any.
pub fn check(w: &Workload, rec: &Recorded) -> Result<(), String> {
    let fail = |what: String| format!("device {}: {what}", rec.index);
    if rec.log.batched {
        return Err(fail("batched delivery cannot be replayed".into()));
    }
    let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
    let opts = InstallOptions {
        mode: ExecMode::Interpreter,
        routing: RoutingMode::FullScan,
        ..InstallOptions::default()
    };
    let engine = MonitorEngine::install_with(&mut dev, w.suite.clone(), &w.app, opts)
        .map_err(|e| fail(format!("reference install: {e}")))?;
    engine
        .reset_monitor(&mut dev)
        .map_err(|e| fail(format!("reference reset: {e}")))?;
    for entry in &rec.log.entries {
        match entry {
            Entry::Event {
                seq,
                event,
                verdicts,
            } => {
                let got = engine
                    .call_monitor(&mut dev, *seq, event)
                    .map_err(|e| fail(format!("reference event {seq}: {e}")))?;
                let got: Vec<_> = got.iter().map(|v| (v.machine_index, v.action)).collect();
                if let Some(want) = verdicts {
                    if &got != want {
                        return Err(fail(format!(
                            "event {seq}: device verdicts {want:?}, reference {got:?}"
                        )));
                    }
                }
            }
            Entry::Restart(path) => engine
                .on_path_restart(&mut dev, *path)
                .map_err(|e| fail(format!("reference restart: {e}")))?,
        }
    }
    let want = engine.snapshot(&dev);
    if want != rec.snapshot {
        return Err(fail(format!(
            "final monitor state differs: device {:?}, reference {want:?}",
            rec.snapshot
        )));
    }
    Ok(())
}
