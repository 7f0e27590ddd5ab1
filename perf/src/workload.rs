//! The three workloads: their seeded inputs, the set-up that compiles
//! their monitor suite, and the per-device pipeline (build → install →
//! run → reduce) every pass of the benchmark drives.

use std::sync::Arc;
use std::time::Instant;

use artemis_bench::health;
use artemis_core::app::{AppGraph, AppGraphBuilder};
use artemis_core::time::{SimDuration, SimInstant};
use artemis_core::trace::TraceEvent;
use artemis_fleet::{DeviceSample, FleetStats};
use artemis_ir::{CompiledSuite, MonitorSuite, OptLevel};
use artemis_monitor::{InstallOptions, MonitorEngine, Monitoring};
use artemis_runtime::{ArtemisRuntime, ArtemisRuntimeBuilder};
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::{CostCategory, Device, DeviceBuilder, Interrupt};
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::{NonTermination, RunLimit, SimOutcome};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::probe::{span, Layer};

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wearable devices with the fleet's 40/40/20 power mix, through
    /// `run_fleet` on two workers.
    FleetMix,
    /// The same app on charging-only harvesters with small capacitors.
    Brownout,
    /// A few long-lived continuously powered devices with a wide,
    /// seed-generated suite, many rounds each.
    WideSuite,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::FleetMix, Kind::Brownout, Kind::WideSuite];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetMix => "fleet-mix",
            Kind::Brownout => "brownout",
            Kind::WideSuite => "wide-suite",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Worker threads the workload's timed passes use.
    pub fn workers(self) -> usize {
        match self {
            Kind::FleetMix => 2,
            Kind::Brownout | Kind::WideSuite => 1,
        }
    }
}

/// Usable capacitor budget of the wearable testbed (`health`'s 800 µJ).
const HEALTH_BUDGET_UJ: u64 = 800;
/// Brownout capacitor budgets, drawn per device.
const BROWNOUT_BUDGET_UJ: std::ops::RangeInclusive<u64> = 350..=600;
/// Trace ring size per device (as in `health::fleet_factory`).
const TRACE_CAP: usize = 256;
/// Wide-suite shape.
const WIDE_PATHS: usize = 6;
const WIDE_TASKS_PER_PATH: usize = 4;

/// One device's seeded inputs.
#[derive(Clone, Debug)]
pub struct DeviceInput {
    /// Energy environment.
    pub harvester: Harvester,
    /// Usable capacitor budget, µJ.
    pub budget_uj: u64,
}

/// Set-up phase durations, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub parse: f64,
    pub resolve: f64,
    pub lower: f64,
    pub codegen: f64,
    pub bounds: f64,
    pub total: f64,
}

/// A workload, set up and ready to run devices.
pub struct Workload {
    pub kind: Kind,
    pub app: AppGraph,
    pub suite: MonitorSuite,
    pub compiled: Arc<CompiledSuite>,
    /// Task bodies `(bursts, cycles)` of a generated app; `None` runs
    /// the wearable app's bodies.
    bodies: Option<Vec<(u32, u64)>>,
    /// The device population every pass runs.
    pub devices: Vec<DeviceInput>,
    /// Application runs per device (`run_once` + `rearm` rounds).
    pub rounds: u32,
    pub limit: RunLimit,
}

/// Population sizes: devices and rounds per device.
fn sizes(kind: Kind, tiny: bool) -> (usize, u32) {
    match (kind, tiny) {
        (Kind::FleetMix, false) => (4096, 1),
        (Kind::Brownout, false) => (256, 1),
        (Kind::WideSuite, false) => (4, 40),
        (Kind::FleetMix, true) => (48, 1),
        (Kind::Brownout, true) => (8, 1),
        (Kind::WideSuite, true) => (2, 3),
    }
}

/// Runs the set-up: generates the inputs from `seed`, then parses,
/// resolves, lowers, compiles, verifies and bounds the suite, and
/// shares it for the devices.
pub fn setup(kind: Kind, seed: u64, tiny: bool) -> Result<(Workload, SetupTimes), String> {
    let started = Instant::now();
    let mut t = SetupTimes::default();
    let (app, spec, bodies) = match kind {
        Kind::FleetMix | Kind::Brownout => {
            (health::health_app(), health::HEALTH_SPEC.to_string(), None)
        }
        Kind::WideSuite => {
            let (app, spec, bodies) = wide_app(seed);
            (app, spec, Some(bodies))
        }
    };
    let (n, rounds) = sizes(kind, tiny);
    let devices = (0..n as u64)
        .map(|i| device_input(kind, rand::seed_stream(seed, i)))
        .collect();

    let t0 = Instant::now();
    let ast = artemis_spec::parse(&spec).map_err(|d| format!("parse: {d}"))?;
    t.parse = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let set = artemis_spec::resolve(&ast, &app).map_err(|d| format!("resolve: {d}"))?;
    t.resolve = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let suite = artemis_ir::lower_set(&set, &app).map_err(|e| format!("lower: {e}"))?;
    t.lower = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let compiled = CompiledSuite::compile_with(&suite, &app, OptLevel::Full)
        .map_err(|e| format!("compile: {e}"))?;
    let diags = artemis_ir::analysis::analyze_suite(&suite, &compiled, None);
    if let Some(d) = diags.iter().find(|d| d.is_error()) {
        return Err(format!("verify: {d}"));
    }
    t.codegen = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let bounds = artemis_ir::suite_bounds(&compiled);
    std::hint::black_box(&bounds);
    t.bounds = t0.elapsed().as_secs_f64();
    let compiled = Arc::new(compiled);
    t.total = started.elapsed().as_secs_f64();

    let limit = match kind {
        Kind::FleetMix | Kind::Brownout => RunLimit::sim_time(SimDuration::from_hours(2)),
        Kind::WideSuite => RunLimit::sim_time(SimDuration::from_hours(1)),
    };
    Ok((
        Workload {
            kind,
            app,
            suite,
            compiled,
            bodies,
            devices,
            rounds,
            limit,
        },
        t,
    ))
}

/// Draws one device's inputs from its stream seed.
fn device_input(kind: Kind, stream: u64) -> DeviceInput {
    let mut rng = StdRng::seed_from_u64(stream);
    match kind {
        // `health::fleet_factory`'s mix: 40 % wall-powered, 40 %
        // RF-charged with 1–3 nominal minutes, 20 % stochastic outages
        // of 1 s – 4 min.
        Kind::FleetMix => DeviceInput {
            harvester: match rng.random_range(0..10u32) {
                0..=3 => Harvester::Continuous,
                4..=7 => Harvester::FixedDelay(health::nominal_minutes(rng.random_range(1..=3u64))),
                _ => Harvester::stochastic(
                    SimDuration::from_secs(1),
                    SimDuration::from_mins(4),
                    rng.next_u64(),
                ),
            },
            budget_uj: HEALTH_BUDGET_UJ,
        },
        Kind::Brownout => DeviceInput {
            harvester: Harvester::FixedDelay(health::nominal_minutes(1)),
            budget_uj: rng.random_range(BROWNOUT_BUDGET_UJ),
        },
        Kind::WideSuite => DeviceInput {
            harvester: Harvester::Continuous,
            budget_uj: HEALTH_BUDGET_UJ,
        },
    }
}

/// Generates the wide-suite app: `WIDE_PATHS` paths of
/// `WIDE_TASKS_PER_PATH` tasks with random compute bodies, and a spec
/// with two properties on each path's first task and three on every
/// other task — more machines than the routed dispatch supports. The
/// shape (property kinds per task, `collect: 2` on each path's last
/// task) is fixed, so every seed delivers the same events per round;
/// the seed draws the bounds and the body costs.
pub fn wide_app(seed: u64) -> (AppGraph, String, Vec<(u32, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5769_6465_5375_6974);
    let mut b = AppGraphBuilder::new();
    let mut bodies = Vec::new();
    let mut spec = String::new();
    for p in 0..WIDE_PATHS {
        let names: Vec<String> = (0..WIDE_TASKS_PER_PATH)
            .map(|k| format!("p{p}t{k}"))
            .collect();
        let ids: Vec<_> = names.iter().map(|n| b.task(n)).collect();
        b.path(&ids);
        let first = &names[0];
        for (k, name) in names.iter().enumerate() {
            bodies.push((2, rng.random_range(2_000..=6_000u64)));
            let tries = format!(
                "maxTries: {} onFail: skipPath;",
                rng.random_range(3..=20u32)
            );
            let duration = format!(
                "maxDuration: {}ms onFail: skipTask;",
                rng.random_range(1..=30u64)
            );
            let mitd = format!(
                "MITD: {}min dpTask: {first} onFail: restartPath maxAttempt: {} onFail: skipPath;",
                rng.random_range(2..=30u64),
                rng.random_range(2..=4u32)
            );
            let collect = format!("collect: 2 dpTask: {first} onFail: restartPath;");
            let props = match k {
                0 => vec![tries, duration],
                _ if k + 1 < names.len() => vec![tries, duration, mitd],
                _ => vec![duration, mitd, collect],
            };
            spec.push_str(&format!("{name} {{ {} }}\n", props.join(" ")));
        }
    }
    (b.build().expect("generated graph is valid"), spec, bodies)
}

/// Modelled-plane totals of application runs (install excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Application runs attempted.
    pub runs: u64,
    /// Runs that completed.
    pub completed: u64,
    /// Runs that stopped on a fault (failed operations).
    pub faults: u64,
    /// Monitor events delivered.
    pub events: u64,
    /// Power-failure reboots.
    pub reboots: u64,
    /// Billed time per `CostCategory::ALL` entry, µs.
    pub time_us: [u64; 3],
    /// Billed energy per `CostCategory::ALL` entry, pJ.
    pub energy_pj: [u64; 3],
    /// Total billed time, µs.
    pub total_us: u64,
    /// Total energy drawn, pJ.
    pub consumed_pj: u64,
    /// On + off (charging) time, µs.
    pub wall_us: u64,
    /// FRAM bytes read + written.
    pub fram_bytes: u64,
}

impl Model {
    /// Adds another device's totals.
    pub fn add(&mut self, o: &Model) {
        self.runs += o.runs;
        self.completed += o.completed;
        self.faults += o.faults;
        self.events += o.events;
        self.reboots += o.reboots;
        for c in 0..3 {
            self.time_us[c] += o.time_us[c];
            self.energy_pj[c] += o.energy_pj[c];
        }
        self.total_us += o.total_us;
        self.consumed_pj += o.consumed_pj;
        self.wall_us += o.wall_us;
        self.fram_bytes += o.fram_bytes;
    }
}

/// The device-side state a modelled measurement starts from.
struct Mark {
    at: SimInstant,
    reboots: u64,
    events: u64,
    time_us: [u64; 3],
    energy_pj: [u64; 3],
    total_us: u64,
    consumed_pj: u64,
    fram_bytes: u64,
}

fn mark(dev: &Device, events: u64) -> Mark {
    let s = dev.stats();
    let f = dev.fram();
    Mark {
        at: dev.now(),
        reboots: dev.reboots(),
        events,
        time_us: CostCategory::ALL.map(|c| s.time(c).as_micros()),
        energy_pj: CostCategory::ALL.map(|c| s.energy(c).as_pico_joules()),
        total_us: s.total_time().as_micros(),
        consumed_pj: s.consumed.as_pico_joules(),
        fram_bytes: f.read_bytes() + f.write_bytes(),
    }
}

impl Workload {
    /// Builds device `i` of the population.
    pub fn build(&self, i: usize) -> Device {
        let input = &self.devices[i];
        span(Layer::SimBuild, || {
            DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_micro_joules(
                    input.budget_uj,
                )))
                .harvester(input.harvester.clone())
                .trace_bounded(TRACE_CAP)
                .build()
        })
    }

    /// Installs the monitor engine (wrapped by `wrap`) and the runtime.
    pub fn install<M: Monitoring>(
        &self,
        dev: &mut Device,
        wrap: impl FnOnce(MonitorEngine) -> M,
    ) -> ArtemisRuntime<M> {
        let engine = span(Layer::MonInstall, || {
            MonitorEngine::install_precompiled_shared(
                dev,
                self.suite.clone(),
                Arc::clone(&self.compiled),
                &self.app,
                InstallOptions::default(),
            )
        })
        .expect("the workload's suite installs");
        span(Layer::RtInstall, || {
            self.runtime_builder().install_with(dev, wrap(engine))
        })
        .expect("the runtime installs")
    }

    fn runtime_builder(&self) -> ArtemisRuntimeBuilder {
        let Some(bodies) = &self.bodies else {
            return health::artemis_builder(self.app.clone());
        };
        let mut rb = ArtemisRuntimeBuilder::new(self.app.clone());
        rb.channel("out");
        for (decl, &(bursts, cycles)) in self.app.tasks().iter().zip(bodies) {
            let out = decl.name.len() as f64;
            rb.body(&decl.name, move |ctx| {
                for _ in 0..bursts {
                    ctx.compute(cycles)?;
                }
                ctx.push("out", out)?;
                Ok::<(), Interrupt>(())
            });
        }
        rb
    }

    /// Runs the device's application rounds, folds its fleet sample
    /// into `stats`, and returns its modelled totals.
    pub fn drive<M: Monitoring>(
        &self,
        dev: &mut Device,
        rt: &mut ArtemisRuntime<M>,
        stats: &mut FleetStats,
    ) -> Model {
        let start = mark(dev, rt.events_delivered(dev));
        let mut m = Model::default();
        for round in 0..self.rounds {
            m.runs += 1;
            let outcome = span(Layer::RtRun, || rt.run_once(dev, self.limit));
            match outcome {
                SimOutcome::Completed(_) => m.completed += 1,
                SimOutcome::NonTermination(NonTermination::Fault(_)) => {
                    m.faults += 1;
                    break;
                }
                SimOutcome::NonTermination(_) => break,
            }
            if round + 1 < self.rounds && span(Layer::RtRun, || rt.rearm(dev)).is_err() {
                m.faults += 1;
                break;
            }
        }
        let end = mark(dev, rt.events_delivered(dev));
        m.events = end.events - start.events;
        m.reboots = end.reboots - start.reboots;
        for c in 0..3 {
            m.time_us[c] = end.time_us[c] - start.time_us[c];
            m.energy_pj[c] = end.energy_pj[c] - start.energy_pj[c];
        }
        m.total_us = end.total_us - start.total_us;
        m.consumed_pj = end.consumed_pj - start.consumed_pj;
        m.wall_us = end.at.duration_since(start.at).as_micros();
        m.fram_bytes = end.fram_bytes - start.fram_bytes;
        span(Layer::FleetReduce, || {
            stats.record(&DeviceSample {
                completed: m.completed == m.runs,
                events: rt.events_delivered(dev),
                reboots: dev.reboots(),
                consumed_micro_joules: dev.stats().consumed.as_nano_joules() / 1_000,
                sim_micros: m.wall_us,
                violations: violations(dev, rt.engine().machine_count()),
            })
        });
        m
    }
}

/// Violations per monitor index, scraped from the device trace exactly
/// as `FleetDevice::run` does.
fn violations(dev: &Device, machines: usize) -> Vec<u64> {
    let mut out = vec![0u64; machines];
    for r in dev.trace().records() {
        if let TraceEvent::Violation { monitor, .. } = &r.event {
            if let Some(n) = out.get_mut(*monitor as usize) {
                *n += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_suite_outgrows_routed_dispatch_for_every_seed() {
        for seed in 0..16 {
            let (w, _) = setup(Kind::WideSuite, seed, true).expect("wide suite sets up");
            assert!(w.suite.len() > artemis_monitor::MAX_ROUTED_MACHINES);
            let mut dev = w.build(0);
            let rt = w.install(&mut dev, |e| e);
            assert_eq!(
                rt.engine().routing_mode(),
                artemis_monitor::RoutingMode::FullScan
            );
        }
    }
}
