//! The persistent engine must implement exactly the reference
//! semantics: for any event stream, the verdicts of
//! [`MonitorEngine`] (FRAM-backed, journaled, resumable) equal those of
//! the pure in-memory interpreter in `artemis_ir::exec` — with and
//! without power failures injected between deliveries.
//!
//! Every differential, crash-window and redelivery property below runs
//! the production engine (compiled, routed, sparse diff commits,
//! shadow cache) against the reference engine (tree-walking
//! interpreter over per-variable cells, full-scan dispatch): an
//! intermittent production run must equal a continuous reference run
//! of the same events.

use artemis_core::app::{AppGraph, AppGraphBuilder, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::property::OnFail;
use artemis_core::time::{SimDuration, SimInstant};
use artemis_ir::exec::{ir_event, step, MachineState};
use artemis_ir::expr::Value;
use artemis_ir::{CompiledSuite, MonitorSuite, OptLevel};
use artemis_monitor::{
    BatchMode, CacheStats, InstallOptions, MonitorEngine, MonitorVerdict, RoutingMode,
};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{Device, DeviceBuilder};
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::{RunLimit, Simulator};
use proptest::prelude::*;
use std::sync::Arc;

const SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; }\n\
    b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
        collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn app() -> AppGraph {
    let mut builder = AppGraphBuilder::new();
    let a = builder.task("a");
    let b = builder.task("b");
    builder.path(&[a, b]);
    builder.build().unwrap()
}

/// CI also runs the suite once with `ARTEMIS_OPT_LEVEL=none`, forcing
/// every production engine below onto the unoptimized bytecode — so
/// each property doubles as a bytecode-optimizer oracle too.
fn env_opt_level() -> OptLevel {
    OptLevel::from_env()
}

/// The production engine, at the bytecode optimization level taken
/// from the environment.
fn production() -> InstallOptions {
    InstallOptions {
        opt: env_opt_level(),
        ..InstallOptions::default()
    }
}

/// The production engine with group-commit batches of `chunk` events.
fn batched(chunk: usize) -> InstallOptions {
    InstallOptions {
        batch: BatchMode::Enabled { max_events: chunk },
        ..production()
    }
}

#[derive(Clone, Copy, Debug)]
struct Ev {
    start: bool,
    task_a: bool,
    gap_ms: u64,
}

fn ev_strategy() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        (any::<bool>(), any::<bool>(), 0u64..20_000).prop_map(|(start, task_a, gap_ms)| Ev {
            start,
            task_a,
            gap_ms,
        }),
        1..60,
    )
}

/// Reference verdicts from the pure interpreter.
fn oracle(app: &AppGraph, events: &[Ev]) -> Vec<Vec<(usize, OnFail)>> {
    let suite = artemis_ir::compile(SPEC, app).unwrap();
    let mut states: Vec<MachineState> =
        suite.machines().iter().map(MachineState::initial).collect();
    let mut t = 0u64;
    let mut out = Vec::new();
    for e in events {
        t += e.gap_ms * 1_000;
        let task = if e.task_a { TaskId(0) } else { TaskId(1) };
        let event = if e.start {
            MonitorEvent::start(task, SimInstant::from_micros(t))
        } else {
            MonitorEvent::end(task, SimInstant::from_micros(t))
        };
        let name = app.task_name(task);
        let mut verdicts = Vec::new();
        for (i, (machine, state)) in suite.machines().iter().zip(states.iter_mut()).enumerate() {
            let ir = ir_event(&event, name, u64::MAX);
            if let Some(fail) = step(machine, state, &ir).unwrap() {
                verdicts.push((i, fail.action));
            }
        }
        out.push(verdicts);
    }
    out
}

/// Engine verdicts on the given device (which may inject failures).
fn engine_run(app: &AppGraph, events: &[Ev], dev: &mut Device) -> Vec<Vec<(usize, OnFail)>> {
    let suite = artemis_ir::compile(SPEC, app).unwrap();
    let engine = MonitorEngine::install_with(dev, suite, app, production()).unwrap();
    // Drive through the simulator so power failures reboot and resume.
    let done = dev
        .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
        .unwrap();
    let sim = Simulator::new(RunLimit::reboots(100_000));

    let mut results: Vec<Vec<(usize, OnFail)>> = Vec::new();
    let outcome = sim.run(dev, &mut |dev: &mut Device| {
        engine.monitor_finalize(dev)?;
        loop {
            let idx = dev.nv_read(&done)? as usize;
            if idx >= events.len() {
                return Ok(());
            }
            let e = events[idx];
            // Times derive from the index, not the device clock, so
            // both runs see identical timestamps.
            let t: u64 = events[..=idx].iter().map(|e| e.gap_ms * 1_000).sum();
            let task = if e.task_a { TaskId(0) } else { TaskId(1) };
            let event = if e.start {
                MonitorEvent::start(task, SimInstant::from_micros(t))
            } else {
                MonitorEvent::end(task, SimInstant::from_micros(t))
            };
            let seq = idx as u64 + 1;
            let verdicts = engine.call_monitor(dev, seq, &event)?;
            // Record (volatile is fine: re-recording after a failure
            // overwrites the same index deterministically).
            let entry: Vec<(usize, OnFail)> = verdicts
                .iter()
                .map(|v| {
                    let action = match v.action {
                        artemis_core::Action::RestartTask => OnFail::RestartTask,
                        artemis_core::Action::SkipTask => OnFail::SkipTask,
                        artemis_core::Action::RestartPath(_) => OnFail::RestartPath,
                        artemis_core::Action::SkipPath(_) => OnFail::SkipPath,
                        artemis_core::Action::CompletePath(_) => OnFail::CompletePath,
                    };
                    (v.machine_index, action)
                })
                .collect();
            if results.len() <= idx {
                results.resize(idx + 1, Vec::new());
            }
            results[idx] = entry;
            dev.nv_write(&done, (idx + 1) as u32)?;
        }
    });
    assert!(outcome.is_completed(), "stream never finished");
    results
}

/// Lowers the oracle's EmitFail actions to the same space.
fn normalise(oracle: Vec<Vec<(usize, OnFail)>>) -> Vec<Vec<(usize, OnFail)>> {
    oracle
}

// ---------------------------------------------------------------------------
// Differential tests: production engine vs reference engine.
//
// The two engines differ in everything but semantics — storage layout
// (packed blocks vs cells), dispatch (armed worklists vs full scan),
// trigger test (dispatch table vs observed set), evaluation (bytecode
// vs tree walk), commits (sparse diffs vs per-cell entries), reads
// (shadow cache vs FRAM) — so for any spec, any event stream and any
// power-failure schedule they must produce identical verdicts AND
// identical FRAM-visible machine state.
// ---------------------------------------------------------------------------

/// App with a producer task `a` (declaring the variable `temp` so
/// `dpData` properties resolve) and a consumer `b` on one path.
fn rich_app() -> AppGraph {
    let mut builder = AppGraphBuilder::new();
    let a = builder.task_with_var("a", "temp");
    let b = builder.task("b");
    builder.path(&[a, b]);
    builder.build().unwrap()
}

fn action() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("restartTask"),
        Just("skipTask"),
        Just("restartPath"),
        Just("skipPath"),
        Just("completePath"),
    ]
}

/// Random but well-formed specifications exercising every property
/// kind the language has (maxTries, period, dpData range, collect,
/// MITD + maxAttempt, maxDuration).
fn spec_strategy() -> impl Strategy<Value = String> {
    (
        proptest::option::of((1u32..4, action())),  // maxTries on a
        proptest::option::of((1u32..20, action())), // period on a
        proptest::option::of((30u32..40, 0u32..5, action())), // dpData range on a
        proptest::option::of((1u32..4, action())),  // collect on b
        proptest::option::of((1u32..15, 1u32..3, action())), // MITD + maxAttempt on b
        proptest::option::of((1u32..8, action())),  // maxDuration on b
    )
        .prop_map(|(mt, per, dp, col, mitd, md)| {
            let mut a_block = String::new();
            let mut b_block = String::new();
            if let Some((n, act)) = mt {
                a_block += &format!("maxTries: {n} onFail: {act}; ");
            }
            if let Some((s, act)) = per {
                a_block += &format!("period: {s}s onFail: {act}; ");
            }
            if let Some((lo, w, act)) = dp {
                a_block += &format!("dpData: temp Range: [{lo}, {}] onFail: {act}; ", lo + w);
            }
            if let Some((n, act)) = col {
                b_block += &format!("collect: {n} dpTask: a onFail: {act}; ");
            }
            if let Some((s, tries, act)) = mitd {
                b_block += &format!(
                    "MITD: {s}s dpTask: a onFail: restartPath maxAttempt: {tries} onFail: {act}; "
                );
            }
            if let Some((s, act)) = md {
                b_block += &format!("maxDuration: {s}s onFail: {act}; ");
            }
            if a_block.is_empty() {
                a_block = "maxTries: 3 onFail: skipPath; ".to_string();
            }
            let mut spec = format!("a {{ {a_block}}}");
            if !b_block.is_empty() {
                spec += &format!("\nb {{ {b_block}}}");
            }
            spec
        })
}

/// Events for the rich app: `a` end events may carry a `temp` sample.
fn rich_ev_strategy() -> impl Strategy<Value = Vec<(Ev, Option<u32>)>> {
    proptest::collection::vec(
        (
            (any::<bool>(), any::<bool>(), 0u64..20_000).prop_map(|(start, task_a, gap_ms)| Ev {
                start,
                task_a,
                gap_ms,
            }),
            proptest::option::of(25u32..45),
        ),
        1..40,
    )
}

/// Events shaped like the runtime's task-boundary bursts: whole runs
/// of correlated `EndTask` → next `StartTask` pairs (tiny in-burst
/// gaps), separated by larger inter-burst gaps — the traffic the
/// group-commit batch path is built for.
fn burst_ev_strategy() -> impl Strategy<Value = Vec<(Ev, Option<u32>)>> {
    let pair = (
        any::<bool>(),                   // ending task
        any::<bool>(),                   // starting task
        0u64..20_000,                    // gap before the burst
        proptest::option::of(25u32..45), // dpData sample on a's end
    )
        .prop_map(|(end_a, start_a, gap_ms, dep)| {
            vec![
                (
                    Ev {
                        start: false,
                        task_a: end_a,
                        gap_ms,
                    },
                    dep,
                ),
                (
                    Ev {
                        start: true,
                        task_a: start_a,
                        gap_ms: 0,
                    },
                    None,
                ),
            ]
        });
    proptest::collection::runs(pair, 1..14)
}

fn rich_event(e: &Ev, dep: Option<u32>, t: u64) -> MonitorEvent {
    let task = if e.task_a { TaskId(0) } else { TaskId(1) };
    let at = SimInstant::from_micros(t);
    match (e.start, dep) {
        (true, _) => MonitorEvent::start(task, at),
        (false, Some(v)) if e.task_a => MonitorEvent::end_with_data(task, at, f64::from(v)),
        (false, _) => MonitorEvent::end(task, at),
    }
}

/// Per-event verdicts plus the final FRAM-visible machine state
/// (state word, variable values) of one engine run.
type RunOutcome = (Vec<Vec<MonitorVerdict>>, Vec<(u32, Vec<Value>)>);

/// Runs one spec/event stream through an engine installed with
/// `opts` and returns (per-event verdicts, final FRAM-visible machine
/// state).
fn engine_run_opts(
    app: &AppGraph,
    spec: &str,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    opts: InstallOptions,
) -> RunOutcome {
    let suite = artemis_ir::compile(spec, app).unwrap();
    engine_run_suite(app, suite, events, dev, opts)
}

/// [`engine_run_opts`] over an already-built suite (e.g. IR text).
fn engine_run_suite(
    app: &AppGraph,
    suite: MonitorSuite,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    opts: InstallOptions,
) -> RunOutcome {
    engine_run_stats(app, suite, events, dev, opts).0
}

/// [`engine_run_suite`], also returning the engine's shadow-cache
/// counters at the end of the run.
fn engine_run_stats(
    app: &AppGraph,
    suite: MonitorSuite,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    opts: InstallOptions,
) -> (RunOutcome, CacheStats) {
    let engine = MonitorEngine::install_with(dev, suite, app, opts).unwrap();
    let done = dev
        .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
        .unwrap();
    let sim = Simulator::new(RunLimit::reboots(100_000));

    let mut results: Vec<Vec<MonitorVerdict>> = Vec::new();
    let outcome = sim.run(dev, &mut |dev: &mut Device| {
        engine.monitor_finalize(dev)?;
        loop {
            let idx = dev.nv_read(&done)? as usize;
            if idx >= events.len() {
                return Ok(());
            }
            let (e, dep) = events[idx];
            let t: u64 = events[..=idx].iter().map(|(e, _)| e.gap_ms * 1_000).sum();
            let verdicts = engine.call_monitor(dev, idx as u64 + 1, &rich_event(&e, dep, t))?;
            if results.len() <= idx {
                results.resize(idx + 1, Vec::new());
            }
            results[idx] = verdicts;
            dev.nv_write(&done, (idx + 1) as u32)?;
        }
    });
    assert!(outcome.is_completed(), "stream never finished");
    let snapshot = engine.snapshot(dev);
    ((results, snapshot), engine.cache_stats())
}

/// Like [`engine_run_opts`], but delivers the stream through the
/// group-commit batch path in chunks of `chunk` events. The persistent
/// cursor advances a whole chunk at a time, so a power failure inside
/// a batch redelivers the same chunk — exercising arming replay,
/// mid-batch resume via the done bitmap, and verdict readback.
fn engine_run_batch(
    app: &AppGraph,
    spec: &str,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    chunk: usize,
) -> RunOutcome {
    let suite = artemis_ir::compile(spec, app).unwrap();
    engine_run_batch_suite(app, suite, events, dev, chunk).0
}

/// [`engine_run_batch`] over an already-built suite, also returning
/// the engine's shadow-cache counters at the end of the run.
fn engine_run_batch_suite(
    app: &AppGraph,
    suite: MonitorSuite,
    events: &[(Ev, Option<u32>)],
    dev: &mut Device,
    chunk: usize,
) -> (RunOutcome, CacheStats) {
    let engine = MonitorEngine::install_with(dev, suite, app, batched(chunk)).unwrap();
    let done = dev
        .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
        .unwrap();
    let sim = Simulator::new(RunLimit::reboots(100_000));

    let mut results: Vec<Vec<MonitorVerdict>> = Vec::new();
    let outcome = sim.run(dev, &mut |dev: &mut Device| {
        engine.monitor_finalize(dev)?;
        loop {
            let idx = dev.nv_read(&done)? as usize;
            if idx >= events.len() {
                return Ok(());
            }
            let n = chunk.min(events.len() - idx);
            let mut batch = Vec::with_capacity(n);
            for (j, (e, dep)) in events[idx..idx + n].iter().enumerate() {
                let t: u64 = events[..=idx + j]
                    .iter()
                    .map(|(e, _)| e.gap_ms * 1_000)
                    .sum();
                batch.push(rich_event(e, *dep, t));
            }
            let verdicts = engine.deliver_batch(dev, idx as u64 + 1, &batch)?;
            if results.len() < idx + n {
                results.resize(idx + n, Vec::new());
            }
            results[idx..idx + n].clone_from_slice(&verdicts);
            dev.nv_write(&done, (idx + n) as u32)?;
        }
    });
    assert!(outcome.is_completed(), "stream never finished");
    let snapshot = engine.snapshot(dev);
    ((results, snapshot), engine.cache_stats())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Continuous power: engine ≡ interpreter, verdict for verdict.
    #[test]
    fn engine_equals_interpreter_on_continuous_power(events in ev_strategy()) {
        let app = app();
        let expected = normalise(oracle(&app, &events));
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let got = engine_run(&app, &events, &mut dev);
        prop_assert_eq!(got, expected);
    }

    /// Intermittent power: power failures between (and inside) event
    /// deliveries must not change a single verdict.
    #[test]
    fn engine_equals_interpreter_under_power_failures(
        events in ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = app();
        let expected = normalise(oracle(&app, &events));
        let mut dev = DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
            .harvester(Harvester::FixedDelay(SimDuration::from_millis(100)))
            .build();
        let got = engine_run(&app, &events, &mut dev);
        prop_assert_eq!(got, expected, "budget {} nJ", budget_nj);
    }

    /// Random specs, continuous power: the production engine and the
    /// reference engine agree on every verdict (machine, action, path
    /// target) and on the final persistent machine state.
    #[test]
    fn compiled_equals_interpreter_on_random_specs(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
    ) {
        let app = rich_app();
        let mut dev_c = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_i = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vc, sc) = engine_run_opts(&app, &spec, &events, &mut dev_c, production());
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut dev_i, InstallOptions::reference());
        prop_assert_eq!(vc, vi, "verdict divergence on spec: {}", spec);
        prop_assert_eq!(sc, si, "state divergence on spec: {}", spec);
    }

    /// Random specs under random power-failure schedules: the
    /// production engine on an intermittent device must match the
    /// reference engine on continuous power — resumability and
    /// semantics at once.
    #[test]
    fn compiled_equals_interpreter_under_random_power_failures(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let mut dev_c = intermittent_device(budget_nj);
        let mut dev_i = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vc, sc) = engine_run_opts(&app, &spec, &events, &mut dev_c, production());
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut dev_i, InstallOptions::reference());
        prop_assert_eq!(vc, vi, "verdict divergence, budget {} nJ, spec: {}", budget_nj, spec);
        prop_assert_eq!(sc, si, "state divergence, budget {} nJ, spec: {}", budget_nj, spec);
    }

    /// Optimized bytecode (`OptLevel::Full`) vs the unoptimized oracle
    /// (`OptLevel::None`) vs the reference engine, on random specs and
    /// continuous power: every verdict and the final decoded machine
    /// state must agree three ways.
    #[test]
    fn optimized_equals_unoptimized_and_interpreter_on_random_specs(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
    ) {
        let app = rich_app();
        let mut dev_o = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_u = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_i = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vo, so) = engine_run_opts(
            &app, &spec, &events, &mut dev_o,
            InstallOptions { opt: OptLevel::Full, ..production() });
        let (vu, su) = engine_run_opts(
            &app, &spec, &events, &mut dev_u,
            InstallOptions { opt: OptLevel::None, ..production() });
        let (vi, si) = engine_run_opts(
            &app, &spec, &events, &mut dev_i, InstallOptions::reference());
        prop_assert_eq!(&vo, &vu, "Full/None verdict divergence on spec: {}", spec);
        prop_assert_eq!(&so, &su, "Full/None state divergence on spec: {}", spec);
        prop_assert_eq!(vo, vi, "Full/reference verdict divergence on spec: {}", spec);
        prop_assert_eq!(so, si, "Full/reference state divergence on spec: {}", spec);
    }

    /// Optimized bytecode on an intermittent device vs the reference
    /// engine on continuous power, with the unoptimized production
    /// engine as the third side: fused superinstructions must replay
    /// across random power-failure schedules without changing a verdict
    /// or a variable — the optimizer cannot move a crash window in an
    /// observable way.
    #[test]
    fn optimized_equals_unoptimized_under_random_power_failures(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let mut dev_o = intermittent_device(budget_nj);
        let mut dev_u = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_i = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vo, so) = engine_run_opts(
            &app, &spec, &events, &mut dev_o,
            InstallOptions { opt: OptLevel::Full, ..production() });
        let (vu, su) = engine_run_opts(
            &app, &spec, &events, &mut dev_u,
            InstallOptions { opt: OptLevel::None, ..production() });
        let (vi, si) = engine_run_opts(
            &app, &spec, &events, &mut dev_i, InstallOptions::reference());
        prop_assert_eq!(&vo, &vu, "verdict divergence, budget {} nJ, spec: {}", budget_nj, spec);
        prop_assert_eq!(&so, &su, "state divergence, budget {} nJ, spec: {}", budget_nj, spec);
        prop_assert_eq!(vo, vi, "reference verdict divergence, budget {} nJ, spec: {}", budget_nj, spec);
        prop_assert_eq!(so, si, "reference state divergence, budget {} nJ, spec: {}", budget_nj, spec);
    }

    /// Routed dispatch (armed worklists + completion bitmap) vs the
    /// reference engine's full scan, on burst-shaped streams delivered
    /// event by event: identical verdicts and FRAM-visible machine
    /// state on every random spec.
    #[test]
    fn routed_equals_full_scan_on_random_specs(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
    ) {
        let app = rich_app();
        let mut dev_r = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_f = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vr, sr) = engine_run_opts(&app, &spec, &events, &mut dev_r, production());
        let (vf, sf) = engine_run_opts(&app, &spec, &events, &mut dev_f, InstallOptions::reference());
        prop_assert_eq!(vr, vf, "verdict divergence on spec: {}", spec);
        prop_assert_eq!(sr, sf, "state divergence on spec: {}", spec);
    }

    /// Group-commit batch delivery vs the per-event production path vs
    /// the reference engine, on burst-shaped streams: all three must
    /// agree on every verdict and on the final FRAM-visible machine
    /// state, for every batch size.
    #[test]
    fn batched_equals_per_event_and_interpreter_on_burst_streams(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
        chunk in 1usize..5,
    ) {
        let app = rich_app();
        let mut dev_b = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_e = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let mut dev_i = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vb, sb) = engine_run_batch(&app, &spec, &events, &mut dev_b, chunk);
        let (ve, se) = engine_run_opts(&app, &spec, &events, &mut dev_e, production());
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut dev_i, InstallOptions::reference());
        prop_assert_eq!(&vb, &ve, "batch(chunk {}) vs per-event verdicts, spec: {}", chunk, spec);
        prop_assert_eq!(&sb, &se, "batch(chunk {}) vs per-event state, spec: {}", chunk, spec);
        prop_assert_eq!(&vb, &vi, "batch(chunk {}) vs reference verdicts, spec: {}", chunk, spec);
        prop_assert_eq!(&sb, &si, "batch(chunk {}) vs reference state, spec: {}", chunk, spec);
    }

    /// Batch delivery on an intermittent device vs the reference
    /// engine's per-event delivery on continuous power: reboots land
    /// inside the batch window — after arming, between per-machine
    /// commits, during readback — and must never change a verdict or a
    /// variable.
    #[test]
    fn batched_equals_per_event_under_random_power_failures(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
        chunk in 2usize..5,
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let mut dev_b = intermittent_device(budget_nj);
        let mut dev_e = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vb, sb) = engine_run_batch(&app, &spec, &events, &mut dev_b, chunk);
        let (ve, se) = engine_run_opts(&app, &spec, &events, &mut dev_e, InstallOptions::reference());
        prop_assert_eq!(vb, ve, "verdicts, chunk {}, budget {} nJ, spec: {}", chunk, budget_nj, spec);
        prop_assert_eq!(sb, se, "state, chunk {}, budget {} nJ, spec: {}", chunk, budget_nj, spec);
    }

    /// Routed dispatch on an intermittent device vs the reference
    /// engine's full scan on continuous power, on burst-shaped streams:
    /// the armed worklist must resume exactly across random
    /// power-failure schedules, verdict for verdict.
    #[test]
    fn routed_equals_full_scan_under_random_power_failures(
        spec in spec_strategy(),
        events in burst_ev_strategy(),
        budget_nj in 4_000u64..40_000,
    ) {
        let app = rich_app();
        let mut dev_r = intermittent_device(budget_nj);
        let mut dev_f = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vr, sr) = engine_run_opts(&app, &spec, &events, &mut dev_r, production());
        let (vf, sf) = engine_run_opts(&app, &spec, &events, &mut dev_f, InstallOptions::reference());
        prop_assert_eq!(vr, vf, "verdict divergence, budget {} nJ, spec: {}", budget_nj, spec);
        prop_assert_eq!(sr, sf, "state divergence, budget {} nJ, spec: {}", budget_nj, spec);
    }

    /// The shadow cache must be observationally invisible: cached
    /// production delivery on a device with a small capacitor — reboots
    /// wipe the shadows every few deliveries, so most deliveries run
    /// cold or half-warm — vs the uncached reference engine on
    /// continuous power: identical verdicts and FRAM-visible state on
    /// every random spec, stream, and power-failure schedule.
    #[test]
    fn cached_equals_uncached_and_interpreter_under_power_failures(
        spec in spec_strategy(),
        events in rich_ev_strategy(),
        budget_nj in 1_500u64..6_000,
    ) {
        let app = rich_app();
        let mut dev_c = intermittent_device(budget_nj);
        let mut dev_i = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let (vc, sc) = engine_run_opts(&app, &spec, &events, &mut dev_c, production());
        let (vi, si) = engine_run_opts(&app, &spec, &events, &mut dev_i, InstallOptions::reference());
        prop_assert_eq!(&vc, &vi, "cached vs reference verdicts, budget {} nJ, spec: {}", budget_nj, spec);
        prop_assert_eq!(&sc, &si, "cached vs reference state, budget {} nJ, spec: {}", budget_nj, spec);
    }
}

// ---------------------------------------------------------------------------
// Arming-commit crash windows (deterministic).
//
// The routed event path has three crash windows the worklist design
// must survive: a power failure after the arming commit but before the
// first step, a failure mid-worklist (some completion bits set), and a
// redelivery of a seq whose worklist already completed. A fine-grained
// capacitor-budget sweep lands the brown-out in every window of the
// multi-machine stream below.
// ---------------------------------------------------------------------------

/// Spec with four machines on `a` and two on `b`: every `a` event arms
/// a worklist long enough for mid-worklist failures to exist.
const CRASH_SPEC: &str = "\
    a { maxTries: 3 onFail: skipPath; \
        period: 4s onFail: restartTask; \
        dpData: temp Range: [30, 34] onFail: skipTask; }\n\
    b { collect: 2 dpTask: a onFail: restartPath; \
        maxDuration: 5s onFail: skipTask; }";

fn crash_events() -> Vec<(Ev, Option<u32>)> {
    let mk = |start, task_a, gap_ms, dep| {
        (
            Ev {
                start,
                task_a,
                gap_ms,
            },
            dep,
        )
    };
    vec![
        mk(true, true, 0, None),
        mk(false, true, 500, Some(31)),
        mk(true, false, 200, None),
        mk(false, false, 100, None),
        mk(true, true, 9_000, None),
        mk(false, true, 400, Some(44)), // out of range -> verdict
        mk(true, true, 100, None),      // period violation
        mk(false, true, 300, Some(33)),
        mk(true, false, 100, None),
        mk(false, false, 8_000, None), // maxDuration violation
    ]
}

/// The reference engine's verdicts and final state for the crash
/// stream, on continuous power.
fn crash_reference(app: &AppGraph, events: &[(Ev, Option<u32>)]) -> RunOutcome {
    let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
    engine_run_opts(
        app,
        CRASH_SPEC,
        events,
        &mut dev,
        InstallOptions::reference(),
    )
}

/// Budget sweep: every 25 nJ from "barely arms" to "several steps per
/// activation", so the injected failure lands between arming and the
/// first step, mid-worklist, and inside step commits across the sweep.
#[test]
fn arming_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vf, sf) = crash_reference(&app, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev_r = intermittent_device(budget_nj);
        let (vr, sr) = engine_run_opts(&app, CRASH_SPEC, &events, &mut dev_r, production());
        assert_eq!(vr, vf, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sr, sf, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_r.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the crash windows ({total_reboots} reboots)"
    );
}

/// The optimizer's deterministic crash-window sweep: fused
/// superinstructions collapse several step-commit windows into one, so
/// the fine-grained budget sweep must land brown-outs inside (and
/// between) the *fused* windows of the optimized production engine —
/// and, at the other optimization level, inside the unfused ones — and
/// still recover to exactly the reference engine's verdicts and state.
#[test]
fn optimizer_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vu, su) = crash_reference(&app, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        // Sweep the level the environment does not select, so the
        // two sweeps cover both.
        let opt = match env_opt_level() {
            OptLevel::Full => OptLevel::None,
            OptLevel::None => OptLevel::Full,
        };
        let mut dev_o = intermittent_device(budget_nj);
        let (vo, so) = engine_run_opts(
            &app,
            CRASH_SPEC,
            &events,
            &mut dev_o,
            InstallOptions {
                opt,
                ..production()
            },
        );
        assert_eq!(vo, vu, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(so, su, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_o.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the crash windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Sparse-delta commit crash windows (deterministic).
//
// The delta path journals only the written slots of a block. Its crash
// windows differ from the whole-block path's: a failure can land after
// the sparse record is staged but before the flag flips, between two
// sub-write applications, or during replay. A machine with two
// counters incremented by the same transition makes torn application
// observable: if a crash ever left one counter applied and the other
// not, the `a == b` invariant breaks at the next recovery point.
// ---------------------------------------------------------------------------

/// Ten variables, two written per event: 2/10 is far below the ¾
/// degrade threshold, so every commit takes the sparse-delta format.
const TWIN_IR: &str = "\
    machine twin task a persistent { \
        var a: int = 0; var b: int = 0; \
        var p0: int = 0; var p1: int = 0; var p2: int = 0; var p3: int = 0; \
        var p4: int = 0; var p5: int = 0; var p6: int = 0; var p7: int = 0; \
        state S initial; \
        on startTask(a) from S to S { a := (a + 1); b := (b + 1); }; }";

/// Budget sweep landing brown-outs in every window of the sparse
/// commit: after every recovery point the two correlated counters must
/// be equal (old image or new image, never a mix), and the final state
/// must match the reference engine on continuous power.
#[test]
fn sparse_delta_commit_crash_windows_never_tear() {
    let app = rich_app();

    // Guard the premise: the compiled access set must put this machine
    // on the sparse path, not the degraded whole-block path.
    let suite = artemis_ir::parse::parse_suite(TWIN_IR).unwrap();
    let compiled = artemis_ir::CompiledSuite::compile(&suite, &app).unwrap();
    let key = artemis_ir::suite_bounds(&compiled)
        .per_key
        .into_iter()
        .find(|c| c.task == Some(0))
        .unwrap();
    assert_eq!(
        key.delta_machines, 1,
        "twin machine must take the delta path"
    );
    assert_eq!(key.degraded_machines, 0);
    twin_crash_sweep(TWIN_IR);
}

/// Events the twin crash sweeps deliver.
const TWIN_EVENTS: u64 = 30;

/// `startTask(a)` events 1 ms apart, under sequence numbers `1..=n`.
fn twin_event(seq: u64) -> MonitorEvent {
    MonitorEvent::start(TaskId(0), SimInstant::from_micros(seq * 1_000))
}

/// Sweeps brown-outs across every commit window of a twin-counter
/// machine (IR text whose first two slots are incremented together):
/// the counters must be equal at every recovery point and after every
/// delivery, and the final image must equal the reference engine's on
/// continuous power.
fn twin_crash_sweep(ir: &str) {
    let app = rich_app();
    let reference = {
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let suite = artemis_ir::parse::parse_suite(ir).unwrap();
        let engine =
            MonitorEngine::install_with(&mut dev, suite, &app, InstallOptions::reference())
                .unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        for seq in 1..=TWIN_EVENTS {
            engine
                .call_monitor(&mut dev, seq, &twin_event(seq))
                .unwrap();
        }
        engine.snapshot(&dev)
    };

    let twins = |snap: &[(u32, Vec<Value>)]| (snap[0].1[0], snap[0].1[1]);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev = intermittent_device(budget_nj);
        let suite = artemis_ir::parse::parse_suite(ir).unwrap();
        let engine = MonitorEngine::install_with(&mut dev, suite, &app, production()).unwrap();
        let done = dev
            .nv_alloc::<u32>(0, intermittent_sim::MemOwner::App, "done")
            .unwrap();
        let sim = Simulator::new(RunLimit::reboots(100_000));
        let outcome = sim.run(&mut dev, &mut |dev: &mut Device| {
            engine.monitor_finalize(dev)?;
            // Every reboot is a recovery point: a torn or misdiffed
            // commit would surface here as a half-applied increment.
            let (a, b) = twins(&engine.snapshot(dev));
            assert_eq!(a, b, "torn commit at budget {budget_nj} nJ");
            loop {
                let idx = dev.nv_read(&done)? as usize;
                if idx as u64 >= TWIN_EVENTS {
                    return Ok(());
                }
                let seq = idx as u64 + 1;
                engine.call_monitor(dev, seq, &twin_event(seq))?;
                let (a, b) = twins(&engine.snapshot(dev));
                assert_eq!(a, b, "torn commit at budget {budget_nj} nJ");
                dev.nv_write(&done, (idx + 1) as u32)?;
            }
        });
        assert!(outcome.is_completed(), "stream never finished");
        assert_eq!(
            engine.snapshot(&dev),
            reference,
            "final image diverged at budget {budget_nj} nJ"
        );
        total_reboots += dev.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the commit windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Dirty-diff commit crash windows (deterministic).
//
// The diff-commit transaction journals minimal `[addr][len][data]` runs
// computed against the shadow cache's old image. Its crash windows are
// a superset of the sparse path's: a reboot can land after the diff
// record is staged but before the flag flips, between two run
// applications during replay, or after a wipe that cold-refills the
// shadows mid-stream (a stale old image would make the next diff
// silently wrong). The machine below flips its state on every event
// and keeps its twin counters 8+ bytes apart, so every commit carries
// two separate runs — the state byte merged with `a`'s low byte, and
// `b`'s low byte — and a torn or misdiffed application shows as
// `a != b` at the next recovery point.
// ---------------------------------------------------------------------------

/// Twin counters with untouched padding between them and a state flip
/// on every event: two diff runs per commit.
const SPLIT_TWIN_IR: &str = "\
    machine twin task a persistent { \
        var a: int = 0; var b: int = 0; \
        var p0: int = 0; var p1: int = 0; var p2: int = 0; var p3: int = 0; \
        var p4: int = 0; var p5: int = 0; var p6: int = 0; var p7: int = 0; \
        state S initial; state T; \
        on startTask(a) from S to T { a := (a + 1); b := (b + 1); }; \
        on startTask(a) from T to S { a := (a + 1); b := (b + 1); }; }";

/// Budget sweep landing brown-outs in every window of the diff-commit
/// transaction (>100 reboots): the correlated counters must be equal at
/// every recovery point, and the final image must match the reference
/// engine on continuous power.
#[test]
fn diff_commit_crash_windows_never_tear() {
    twin_crash_sweep(SPLIT_TWIN_IR);
}

// ---------------------------------------------------------------------------
// Batch crash windows (deterministic).
//
// The group-commit path adds crash windows of its own: after the batch
// arming commit but before any machine steps, between two per-machine
// batch commits (some done bits set), and during verdict readback. The
// same fine-grained budget sweep as the arming tests lands brown-outs
// in each of them; the chunked cursor in `engine_run_batch` then
// redelivers the interrupted batch, exercising the bitmap resume.
// ---------------------------------------------------------------------------

/// Budget sweep over the whole batch protocol on the multi-machine
/// crash stream: verdicts and FRAM state must match the reference
/// engine at every budget. The floor sits just above the batch
/// engine's install cost (the batch regions make installation a little
/// dearer than the per-event engine's 700 nJ).
#[test]
fn batch_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vf, sf) = crash_reference(&app, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (900..3_200).step_by(25) {
        let mut dev_b = intermittent_device(budget_nj);
        let (vb, sb) = engine_run_batch(&app, CRASH_SPEC, &events, &mut dev_b, 4);
        assert_eq!(vb, vf, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sb, sf, "state divergence at budget {budget_nj} nJ");
        total_reboots += dev_b.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the batch crash windows ({total_reboots} reboots)"
    );
}

// ---------------------------------------------------------------------------
// Shadow-cache crash windows (deterministic).
//
// The cache is strictly write-through, so its only failure mode is
// stale RAM surviving a reboot or a wipe landing between two of the
// FRAM writes that make up a delivery (arming commit, sparse machine
// commits, batch finalize). The same fine-grained budget sweeps as
// above land a brown-out at every one of those writes; each run must
// match the reference engine byte for byte, and its cache counters
// must show that every reboot wiped the shadows exactly once and that
// the run really refilled them from FRAM.
// ---------------------------------------------------------------------------

/// Checks one swept run's cache accounting: one invalidation per
/// reboot, and cold refills whenever a reboot happened.
fn assert_cache_wiped_per_reboot(stats: CacheStats, reboots: u64, budget_nj: u64) {
    assert_eq!(
        stats.invalidations, reboots,
        "every reboot must wipe the shadows exactly once (budget {budget_nj} nJ)"
    );
    if reboots > 0 {
        assert!(stats.misses > 0, "no cold refill at budget {budget_nj} nJ");
    }
}

/// Per-event delivery under the arming/commit crash sweep: every budget
/// reboots mid-delivery, wiping warm shadows at every possible
/// FRAM-write boundary, and must still match the reference engine's
/// verdicts and FRAM-visible state.
#[test]
fn cached_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vu, su) = crash_reference(&app, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (700..3_000).step_by(25) {
        let mut dev_c = intermittent_device(budget_nj);
        let suite = artemis_ir::compile(CRASH_SPEC, &app).unwrap();
        let ((vc, sc), stats) = engine_run_stats(&app, suite, &events, &mut dev_c, production());
        assert_eq!(vc, vu, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sc, su, "state divergence at budget {budget_nj} nJ");
        assert_cache_wiped_per_reboot(stats, dev_c.reboots(), budget_nj);
        total_reboots += dev_c.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the cached crash windows ({total_reboots} reboots)"
    );
}

/// Batch delivery under the batch crash sweep: brown-outs land inside
/// the batch arming commit, between per-machine batch commits, and
/// during the finalize/readback window — all with warm shadows that the
/// reboot must invalidate.
#[test]
fn cached_batch_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = crash_events();
    let (vu, su) = crash_reference(&app, &events);

    let mut total_reboots = 0u64;
    for budget_nj in (900..3_200).step_by(25) {
        let mut dev_c = intermittent_device(budget_nj);
        let suite = artemis_ir::compile(CRASH_SPEC, &app).unwrap();
        let ((vc, sc), stats) = engine_run_batch_suite(&app, suite, &events, &mut dev_c, 4);
        assert_eq!(vc, vu, "verdict divergence at budget {budget_nj} nJ");
        assert_eq!(sc, su, "state divergence at budget {budget_nj} nJ");
        assert_cache_wiped_per_reboot(stats, dev_c.reboots(), budget_nj);
        total_reboots += dev_c.reboots();
    }
    assert!(
        total_reboots > 100,
        "sweep too gentle to hit the cached batch crash windows ({total_reboots} reboots)"
    );
}

/// A fully committed batch redelivered after multiple reboots must be
/// a pure no-op: the reference engine's verdicts for that batch come
/// back, and the FRAM-visible machine state stays the reference
/// engine's — no machine re-stepped.
#[test]
fn redelivered_completed_batch_is_a_noop() {
    let app = rich_app();
    let events = crash_events();
    let (ref_verdicts, ref_state) = crash_reference(&app, &events);
    let suite = artemis_ir::compile(CRASH_SPEC, &app).unwrap();
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let engine = MonitorEngine::install_with(&mut dev, suite, &app, batched(4)).unwrap();
    engine.reset_monitor(&mut dev).unwrap();

    // Deliver the stream in batches of 4, keeping the last batch.
    let timed: Vec<MonitorEvent> = {
        let mut t = 0u64;
        events
            .iter()
            .map(|(e, dep)| {
                t += e.gap_ms * 1_000;
                rich_event(e, *dep, t)
            })
            .collect()
    };
    let mut seq = 1u64;
    let mut verdicts = Vec::new();
    let mut idx = 0usize;
    while idx < timed.len() {
        let n = 4.min(timed.len() - idx);
        seq = idx as u64 + 1;
        verdicts = engine
            .deliver_batch(&mut dev, seq, &timed[idx..idx + n])
            .unwrap();
        idx += n;
    }
    let batch = &timed[(seq - 1) as usize..];
    let snap = engine.snapshot(&dev);
    assert_eq!(verdicts, ref_verdicts[(seq - 1) as usize..]);
    assert_eq!(snap, ref_state);

    // Replay the committed batch across several reboots: the sequence
    // check must short-circuit everything but the verdict readback.
    for round in 0..3 {
        dev.power_cycle();
        assert!(
            !engine.monitor_finalize(&mut dev).unwrap(),
            "nothing may be pending on round {round}"
        );
        let again = engine.deliver_batch(&mut dev, seq, batch).unwrap();
        assert_eq!(again, verdicts, "verdicts changed on round {round}");
        assert_eq!(
            engine.snapshot(&dev),
            snap,
            "state changed on round {round}"
        );
    }
}

/// Redelivering a seq whose armed worklist already ran to completion
/// must return the recorded verdicts without re-stepping any machine —
/// on live redelivery and after a reboot — and those verdicts and the
/// machine state are the reference engine's for the same stream.
#[test]
fn redelivered_completed_seq_only_replays_verdicts() {
    let app = rich_app();
    let a = TaskId(0);
    let ev = |us| MonitorEvent::start(a, SimInstant::from_micros(us));
    let install = |dev: &mut Device, opts| {
        let suite = artemis_ir::compile(CRASH_SPEC, &app).unwrap();
        let engine = MonitorEngine::install_with(dev, suite, &app, opts).unwrap();
        engine.reset_monitor(dev).unwrap();
        engine
    };
    let mut dev = DeviceBuilder::msp430fr5994().build();
    let engine = install(&mut dev, production());
    assert_eq!(engine.routing_mode(), RoutingMode::Routed);
    let mut dev_ref = DeviceBuilder::msp430fr5994().build();
    let reference = install(&mut dev_ref, InstallOptions::reference());

    // Rapid-fire starts until a property fires (maxTries: 3 fires by
    // the fourth attempt at the latest).
    let mut seq = 0u64;
    let first = loop {
        seq += 1;
        assert!(seq <= 8, "no property fired after {seq} starts");
        let v = engine
            .call_monitor(&mut dev, seq, &ev(seq * 1_000))
            .unwrap();
        let want = reference
            .call_monitor(&mut dev_ref, seq, &ev(seq * 1_000))
            .unwrap();
        assert_eq!(v, want, "seq {seq} diverged from the reference engine");
        if !v.is_empty() {
            break v;
        }
    };
    let snap = engine.snapshot(&dev);
    assert_eq!(snap, reference.snapshot(&dev_ref));

    // Live redelivery: same verdicts, no FRAM-visible state change.
    let again = engine
        .call_monitor(&mut dev, seq, &ev(seq * 1_000))
        .unwrap();
    assert_eq!(again, first);
    assert_eq!(engine.snapshot(&dev), snap);

    // Redelivery after a reboot: finalize sees nothing pending, and the
    // seq check still short-circuits the worklist.
    dev.power_cycle();
    assert!(!engine.monitor_finalize(&mut dev).unwrap());
    let after_reboot = engine
        .call_monitor(&mut dev, seq, &ev(seq * 1_000))
        .unwrap();
    assert_eq!(after_reboot, first);
    assert_eq!(engine.snapshot(&dev), snap);
}

// ---------------------------------------------------------------------------
// Wide suites: routing past one bitmap word.
//
// The routed completion bitmap holds one bit per installed machine, so
// a suite of any size keeps worklists, sparse deltas, the shadow cache
// and diff commits. The suites below put more than 64 machines on one
// worklist (and on one merged batch worklist) and hold production
// delivery to the reference engine, under random power failures and
// under crashes placed on the entries around the first word boundary
// and at the end of the bitmap's last byte.
// ---------------------------------------------------------------------------

/// Machines of a generated wide suite guaranteed to be interested in
/// `startTask(a)`: one more than a 64-bit word holds.
const WIDE_FLOOR: usize = 65;

/// One wide-suite machine in IR text. Shapes: 0 counts every start
/// (`startTask(*)`), 1 flips between two states on every event
/// (`anyEvent`), 2 counts `endTask(b)`, 3 counts `startTask(a)`. Each
/// fires `skipTask` or `restartTask` on every `limit + 1`-th match and
/// bumps the step counter `k` on every step, so a committed step always
/// shows in the machine's FRAM image. Padded machines write 2 of 6
/// slots (sparse delta commits); unpadded ones write both of their 2
/// slots (whole-block commits).
fn wide_machine(i: usize, shape: u8, limit: i64, skip: bool, pad: bool) -> String {
    let action = if skip { "skipTask" } else { "restartTask" };
    let pad = if pad {
        "var p0: int = 0; var p1: int = 0; var p2: int = 0; var p3: int = 0; "
    } else {
        ""
    };
    let vars = format!("var n: int = 0; var k: int = 0; {pad}");
    let fire = format!("{{ n := 0; k := (k + 1); }} fail {action};");
    let count = "{ n := (n + 1); k := (k + 1); };";
    let body = match shape {
        1 => format!(
            "state A initial; state B; \
             on anyEvent from A to B {count} \
             on anyEvent from B to A if (n >= {limit}) {fire} \
             on anyEvent from B to A {{ k := (k + 1); }};"
        ),
        _ => {
            let trigger = match shape {
                0 => "startTask(*)",
                2 => "endTask(b)",
                _ => "startTask(a)",
            };
            format!(
                "state S initial; \
                 on {trigger} from S to S if (n >= {limit}) {fire} \
                 on {trigger} from S to S {count}"
            )
        }
    };
    let task = if shape == 2 { "b" } else { "a" };
    format!("machine w{i} task {task} persistent {{ {vars}{body} }}\n")
}

/// Random wide suites of 65–199 machines. `endTask(b)`-only machines
/// (shape 2) may take at most `n − 65` odd positions, so at least 65
/// machines always share the `startTask(a)` worklist.
fn wide_suite_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (0u8..4, 0i64..4, any::<bool>(), any::<bool>()),
        WIDE_FLOOR..200,
    )
    .prop_map(|machines| {
        let n = machines.len();
        machines
            .iter()
            .enumerate()
            .map(|(i, &(shape, limit, skip, pad))| {
                let end_ok = i % 2 == 1 && i < 2 * (n - WIDE_FLOOR);
                let shape = if shape == 2 && !end_ok { 0 } else { shape };
                wide_machine(i, shape, limit, skip, pad)
            })
            .collect()
    })
}

/// Parses a wide suite and checks the premise the wide tests rest on:
/// one worklist longer than a bitmap word.
fn wide_suite(app: &AppGraph, ir: &str) -> MonitorSuite {
    let suite = artemis_ir::parse::parse_suite(ir).unwrap();
    let compiled = artemis_ir::CompiledSuite::compile(&suite, app).unwrap();
    let start_a = compiled
        .routing()
        .interested(artemis_core::event::EventKind::StartTask, 0)
        .len();
    assert!(
        start_a >= WIDE_FLOOR,
        "only {start_a} machines on the startTask(a) worklist"
    );
    suite
}

/// The reference the wide tests compare against: the reference engine
/// on continuous power.
fn wide_oracle(app: &AppGraph, suite: MonitorSuite, events: &[(Ev, Option<u32>)]) -> RunOutcome {
    let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
    engine_run_suite(app, suite, events, &mut dev, InstallOptions::reference())
}

/// A device that browns out after `budget_nj` and recharges in 100 ms.
fn intermittent_device(budget_nj: u64) -> Device {
    DeviceBuilder::msp430fr5994()
        .trace_disabled()
        .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
        .harvester(Harvester::FixedDelay(SimDuration::from_millis(100)))
        .build()
}

// The capacitor budgets cover a wide install (~170 nJ per machine)
// while an event that arms every machine (~150 nJ per machine) still
// browns out mid-worklist.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Production delivery of a wide suite on an intermittent device vs
    /// the reference engine on continuous power:
    /// identical verdicts and FRAM-visible machine state, with the
    /// worklist walk resuming across every bitmap byte and word.
    #[test]
    fn wide_routed_equals_interpreter_full_scan_under_random_power_failures(
        ir in wide_suite_strategy(),
        events in rich_ev_strategy(),
        budget_nj in 40_000u64..120_000,
    ) {
        let app = rich_app();
        let (vo, so) = wide_oracle(&app, wide_suite(&app, &ir), &events);
        let mut dev = intermittent_device(budget_nj);
        let (vr, sr) = engine_run_suite(&app, wide_suite(&app, &ir), &events, &mut dev, production());
        prop_assert_eq!(vr, vo, "verdict divergence, budget {} nJ", budget_nj);
        prop_assert_eq!(sr, so, "state divergence, budget {} nJ", budget_nj);
    }

    /// Group-commit batches over a wide suite — merged worklists of more
    /// than 64 entries — on an intermittent device vs the reference
    /// engine on continuous power.
    #[test]
    fn wide_batched_equals_interpreter_full_scan_under_random_power_failures(
        ir in wide_suite_strategy(),
        events in burst_ev_strategy(),
        chunk in 2usize..5,
        budget_nj in 40_000u64..120_000,
    ) {
        let app = rich_app();
        let (vo, so) = wide_oracle(&app, wide_suite(&app, &ir), &events);
        let mut dev = intermittent_device(budget_nj);
        let ((vb, sb), _) = engine_run_batch_suite(
            &app, wide_suite(&app, &ir), &events, &mut dev, chunk);
        prop_assert_eq!(vb, vo, "verdicts, chunk {}, budget {} nJ", chunk, budget_nj);
        prop_assert_eq!(sb, so, "state, chunk {}, budget {} nJ", chunk, budget_nj);
    }
}

/// Machines of the crash-sweep suite: nine full bitmap bytes, so the
/// last entry ends the bitmap's last byte.
const WIDE_CRASH_MACHINES: usize = 72;

/// Worklist entries the sweep crashes on: the last entry of the first
/// word, the first two of the second, and the last entry overall.
const WIDE_CRASH_ENTRIES: [usize; 4] = [63, 64, 65, WIDE_CRASH_MACHINES - 1];

/// The crash-sweep suite, compiled once and shared by every run of the
/// sweep (each run installs it on a fresh device).
struct WideCrashSuite {
    suite: MonitorSuite,
    compiled: Arc<CompiledSuite>,
}

/// Every machine on `startTask(*)`, alternating sparse-delta and
/// whole-block commits, with staggered firing periods so the crashed
/// event carries verdicts from both sides of each crash point.
fn wide_crash_suite(app: &AppGraph) -> WideCrashSuite {
    let ir: String = (0..WIDE_CRASH_MACHINES)
        .map(|i| wide_machine(i, 0, (i % 4) as i64, i % 3 == 0, i % 2 == 0))
        .collect();
    let suite = artemis_ir::parse::parse_suite(&ir).unwrap();
    let compiled = CompiledSuite::compile_with(&suite, app, env_opt_level()).unwrap();
    WideCrashSuite {
        suite,
        compiled: Arc::new(compiled),
    }
}

/// Start events alternating between the two tasks, 1 ms apart.
fn wide_crash_events() -> Vec<MonitorEvent> {
    (1..=6u64)
        .map(|s| MonitorEvent::start(TaskId((s % 2) as u32), SimInstant::from_micros(s * 1_000)))
        .collect()
}

/// How one crash-sweep run delivers the event stream: per event, or in
/// group-commit batches. `crash` indexes the delivery the drained
/// capacitor browns out in.
struct WidePlan {
    deliveries: &'static [std::ops::Range<usize>],
    crash: usize,
    opts: InstallOptions,
}

impl WidePlan {
    fn per_event() -> Self {
        WidePlan {
            deliveries: &[0..1, 1..2, 2..3, 3..4, 4..5, 5..6],
            crash: 3,
            opts: production(),
        }
    }

    fn batched() -> Self {
        WidePlan {
            deliveries: &[0..3, 3..5, 5..6],
            crash: 1,
            opts: batched(3),
        }
    }
}

/// Per-event verdicts of one crash-sweep run.
type WideVerdicts = Vec<Vec<MonitorVerdict>>;

/// Delivers `events[range]` under sequence numbers starting at
/// `range.start + 1`.
fn wide_deliver(
    engine: &MonitorEngine,
    dev: &mut Device,
    events: &[MonitorEvent],
    range: std::ops::Range<usize>,
) -> Result<WideVerdicts, intermittent_sim::Interrupt> {
    engine.deliver_batch(dev, range.start as u64 + 1, &events[range])
}

/// Outcome of one crash-sweep run: the completed worklist entries at
/// the first power failure (`None` if the crash delivery finished),
/// the per-event verdicts, and the final FRAM-visible machine state.
type WideCrash = (Option<usize>, WideVerdicts, Vec<(u32, Vec<Value>)>);

/// One crash-sweep run: the deliveries before `plan.crash` run on a
/// large capacitor, which is then drained to `left` compute cycles'
/// worth of charge (`None`: no drain) so the crash delivery browns out
/// part-way; the run then recovers by reboot, finalize and redelivery
/// and finishes the stream. Also returns the charge an uninterrupted
/// crash delivery used, in compute cycles (0 after a crash).
fn wide_crash_run(wide: &WideCrashSuite, plan: &WidePlan, left: Option<u64>) -> (WideCrash, u64) {
    let app = rich_app();
    let events = wide_crash_events();
    let mut dev = intermittent_device(2_000_000);
    let per_cycle = dev.cost_model().compute(1).energy.as_pico_joules();
    let engine = MonitorEngine::install_precompiled_shared(
        &mut dev,
        wide.suite.clone(),
        Arc::clone(&wide.compiled),
        &app,
        plan.opts,
    )
    .unwrap();
    assert_eq!(engine.routing_mode(), RoutingMode::Routed);
    engine.reset_monitor(&mut dev).unwrap();

    let mut verdicts = Vec::new();
    for range in &plan.deliveries[..plan.crash] {
        verdicts.extend(wide_deliver(&engine, &mut dev, &events, range.clone()).unwrap());
    }
    let before = engine.snapshot(&dev);
    let charge = dev.energy_level().as_pico_joules() / per_cycle;
    if let Some(left) = left {
        dev.compute(charge.saturating_sub(left)).unwrap();
    }
    let crash = plan.deliveries[plan.crash].clone();
    let (completed, used) = match wide_deliver(&engine, &mut dev, &events, crash.clone()) {
        Ok(v) => {
            verdicts.extend(v);
            (
                None,
                charge - dev.energy_level().as_pico_joules() / per_cycle,
            )
        }
        Err(intermittent_sim::Interrupt::PowerFailure) => {
            // Every step bumps its machine's `k`, and entries complete
            // in order: the moved machines are the completed prefix.
            let after = engine.snapshot(&dev);
            let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
            assert!(
                after.iter().zip(&before).skip(moved).all(|(a, b)| a == b),
                "completed entries are not a prefix of the worklist"
            );
            dev.power_cycle();
            engine.monitor_finalize(&mut dev).unwrap();
            verdicts.extend(wide_deliver(&engine, &mut dev, &events, crash).unwrap());
            (Some(moved), 0)
        }
        Err(other) => panic!("unexpected interrupt {other:?}"),
    };
    for range in &plan.deliveries[plan.crash + 1..] {
        verdicts.extend(wide_deliver(&engine, &mut dev, &events, range.clone()).unwrap());
    }
    ((completed, verdicts, engine.snapshot(&dev)), used)
}

/// Least charge (in `lo..hi` compute cycles) whose first power failure
/// leaves at least `entries` worklist entries complete. Completed
/// entries never shrink as the charge grows, so a binary search finds
/// it.
fn wide_crash_boundary(
    wide: &WideCrashSuite,
    plan: &WidePlan,
    entries: usize,
    mut lo: u64,
    mut hi: u64,
) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let ((completed, ..), _) = wide_crash_run(wide, plan, Some(mid));
        if completed.is_none_or(|c| c >= entries) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Deterministic crash windows on a 72-machine worklist: for each of
/// entries 63, 64, 65 and 71 the sweep finds the charge window in which
/// the first power failure lands while that entry is pending, and
/// crashes at five points across it (the load, the step, and the
/// writes of its commit). Every run must recover to exactly the
/// reference engine's verdicts and FRAM-visible state — per-event and
/// batched.
#[test]
fn wide_worklist_crash_windows_preserve_verdicts_and_state() {
    let app = rich_app();
    let events = wide_crash_events();
    let wide = wide_crash_suite(&app);
    let (oracle_verdicts, oracle_state) = {
        let mut dev = DeviceBuilder::msp430fr5994().trace_disabled().build();
        let engine = MonitorEngine::install_with(
            &mut dev,
            wide.suite.clone(),
            &app,
            InstallOptions::reference(),
        )
        .unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        let v = wide_deliver(&engine, &mut dev, &events, 0..events.len()).unwrap();
        (v, engine.snapshot(&dev))
    };

    for plan in [WidePlan::per_event(), WidePlan::batched()] {
        let ctx = format!("{:?}", plan.opts.batch);
        let ((none, verdicts, state), used) = wide_crash_run(&wide, &plan, None);
        assert_eq!(none, None, "undrained run must not crash ({ctx})");
        assert_eq!(verdicts, oracle_verdicts, "undrained verdicts ({ctx})");
        assert_eq!(state, oracle_state, "undrained state ({ctx})");

        for entry in WIDE_CRASH_ENTRIES {
            let start = wide_crash_boundary(&wide, &plan, entry, 0, used + 1);
            let end = wide_crash_boundary(&wide, &plan, entry + 1, start, used + 1);
            assert!(start < end, "no crash window for entry {entry} ({ctx})");
            for q in 0..=4u64 {
                let left = start + (end - 1 - start) * q / 4;
                let ((completed, verdicts, state), _) = wide_crash_run(&wide, &plan, Some(left));
                let at = format!("entry {entry}, {left} cycles left ({ctx})");
                assert_eq!(completed, Some(entry), "crash missed its window at {at}");
                assert_eq!(verdicts, oracle_verdicts, "verdict divergence at {at}");
                assert_eq!(state, oracle_state, "state divergence at {at}");
            }
        }
    }
}
