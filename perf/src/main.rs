//! The ARTEMIS benchmark: one command per workload that sets up the
//! monitor suite, runs a seeded device population, checks the outputs,
//! and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload fleet-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced pass (see `README.md`). The last line
//! of standard output is the result object; the line before it holds
//! the run's metadata.

mod alloc;
mod calibrate;
mod passes;
mod probe;
mod probed;
mod replay;
mod workload;

use std::time::Instant;

use intermittent_sim::device::CostCategory;

use passes::{Batch, Flavor};
use probe::{Layer, MONITOR, PROGRAM};
use workload::{Kind, SetupTimes, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest timed batches a window holds.
const MIN_BATCHES: usize = 3;
/// Seed reserved for confirming a claimed gain after the change is
/// written; never use it while tuning.
const HELD_OUT_SEED: u64 = 907_111;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: perf --workload <fleet-mix|brownout|wide-suite> --seed <n> \
                 --seconds <s> --trace <0|1> [--tiny]";
    Ok(Args {
        kind: kind.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
        tiny,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perf: {e}");
        std::process::exit(2);
    }
}

/// Output-check bookkeeping: runs attempted and failed, with reasons.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Check {
    fn fail(&mut self, runs: u64, why: String) {
        self.failed += runs;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// Counts a pass's runs and its faults.
    fn pass(&mut self, what: &str, b: &Batch) {
        self.attempted += b.model.runs;
        if b.model.faults > 0 {
            self.fail(
                b.model.faults,
                format!("{what}: {} runs faulted", b.model.faults),
            );
        }
    }

    /// A pass must reproduce the reference pass's simulation exactly.
    fn same(&mut self, what: &str, b: &Batch, reference: &Batch, model: bool) {
        let runs = b.stats.devices;
        if b.stats != reference.stats {
            self.fail(
                runs,
                format!("{what}: FleetStats differ from the reference pass"),
            );
        } else if model && b.model != reference.model {
            self.fail(
                runs,
                format!("{what}: modelled totals differ from the reference pass"),
            );
        }
    }
}

fn run() -> Result<(), String> {
    let a = parse_args()?;
    let (w, first) = workload::setup(a.kind, a.seed, a.tiny)?;
    // Further set-ups and the calibration loop run between the timed
    // batches, so that their medians sample the same stretch of machine
    // time as the batches.
    let mut setups = vec![first];
    let mut calibration = Vec::new();
    let mut again = || -> Result<(), String> {
        setups.push(workload::setup(a.kind, a.seed, a.tiny)?.1);
        calibration.push(calibrate::sample());
        Ok(())
    };
    let workers = a.kind.workers();
    let mut check = Check::default();

    // Reference pass, outside any timed window: modelled totals, the
    // expected FleetStats, and call logs of a seeded device sample
    // replayed against the reference interpreter.
    let sample = replay_sample(a.seed, w.devices.len(), a.kind);
    let reference = passes::devices(&w, Flavor::Probed { record: &sample }, 1);
    check.pass("reference", &reference);
    for rec in &reference.recorded {
        if let Err(e) = replay::check(&w, rec) {
            check.fail(1, format!("replay: {e}"));
        }
    }

    let window = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let (mut rates, mut imbalances) = (Vec::new(), Vec::new());
    let batches = timed(window, &mut again, || {
        let b = match a.kind {
            Kind::FleetMix => passes::fleet(&w, a.seed),
            Kind::Brownout | Kind::WideSuite => passes::devices(&w, Flavor::Plain, workers),
        };
        check.attempted += reference.model.runs;
        check.same("untraced pass", &b, &reference, a.kind != Kind::FleetMix);
        rates.push(rate(&b));
        if !b.shards.is_empty() {
            let max = b.shards.iter().map(|s| s.events).max().unwrap_or(0) as f64;
            imbalances.push(max / (b.stats.events as f64 / b.shards.len() as f64) - 1.0);
        }
    })?;
    let metrics = if a.trace {
        // Traced and untraced passes of the same device loop alternate
        // in pairs, and each pair's rate ratio gives the tracing
        // overhead, so host drift, which is slower than a pair, cancels.
        // The order flips every pair.
        let mut traced = Traced::default();
        let mut traced_first = false;
        timed(window, &mut again, || {
            let mut pair = [0.0; 2];
            for on in [traced_first, !traced_first] {
                probe::set_enabled(on);
                let flavor = if on {
                    Flavor::Probed { record: &[] }
                } else {
                    Flavor::Plain
                };
                let b = passes::devices(&w, flavor, workers);
                probe::set_enabled(false);
                let what = if on {
                    "traced pass"
                } else {
                    "paired untraced pass"
                };
                check.pass(what, &b);
                check.same(what, &b, &reference, true);
                if on {
                    if b.boundary != reference.boundary {
                        check.fail(
                            b.stats.devices,
                            "traced pass: monitor boundary counts differ".into(),
                        );
                    }
                    traced.add(&b);
                }
                pair[usize::from(on)] = rate(&b);
            }
            traced_first = !traced_first;
            traced.untraced_rates.push(pair[0]);
            traced.overheads.push(1.0 - pair[1] / pair[0]);
        })?;
        if traced.allocs.iter().any(|c| *c != traced.allocs[0]) {
            check.fail(
                0,
                format!(
                    "allocation counts differ between traced passes: {:?}",
                    traced.allocs
                ),
            );
        }
        per_layer(
            &w,
            &setups,
            &reference,
            &traced,
            median(imbalances),
            median(calibration.clone()),
        )
    } else {
        end_to_end(&setups, &reference, median(rates.clone()), &calibration)?
    };
    eprintln!(
        "perf: untraced batch rates {}; calibration loop µs {}",
        spread(rates),
        spread(calibration)
    );

    let correct = check.failed == 0 && check.reasons.is_empty();
    for r in &check.reasons {
        eprintln!("perf: check failed: {r}");
    }
    println!("{}", meta(&a, &w, workers, batches));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    );
    Ok(())
}

/// Runs `batch` back to back, each after one `between` call, until
/// `seconds` have passed (and at least [`MIN_BATCHES`] ran); returns
/// the number of batches.
fn timed(
    seconds: f64,
    between: &mut impl FnMut() -> Result<(), String>,
    mut batch: impl FnMut(),
) -> Result<usize, String> {
    let started = Instant::now();
    let mut n = 0;
    while n < MIN_BATCHES || started.elapsed().as_secs_f64() < seconds {
        between()?;
        batch();
        n += 1;
    }
    Ok(n)
}

/// What the per-layer metrics need from the traced batches.
#[derive(Default)]
struct Traced {
    host: probe::Totals,
    device_ns: Vec<f64>,
    busy_ns: u64,
    events: u64,
    rates: Vec<f64>,
    /// Rates of the untraced pass of each pair.
    untraced_rates: Vec<f64>,
    /// 1 − traced ÷ untraced rate, per pair.
    overheads: Vec<f64>,
    /// Allocations in the monitor and runtime layers, per batch.
    allocs: Vec<(u64, u64)>,
}

impl Traced {
    fn add(&mut self, b: &Batch) {
        self.host.add(&b.host);
        self.device_ns
            .extend(b.device_ns.iter().map(|&ns| ns as f64));
        self.busy_ns += b.busy_ns;
        self.events += b.stats.events;
        self.rates.push(rate(b));
        self.allocs.push((
            b.host.allocs_in(&MONITOR),
            b.host.allocs_in(&[Layer::RtRun]),
        ));
    }
}

/// Monitor events per host second of one pass.
fn rate(b: &Batch) -> f64 {
    b.stats.events as f64 / (b.wall_ns as f64 / 1e9)
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Batch-rate distribution, for the log.
fn spread(mut v: Vec<f64>) -> String {
    let n = v.len();
    let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&p| format!("{:.0}", quantile(&mut v, p)))
        .collect();
    format!("n={n} min/q1/median/q3/max = {}", q.join("/"))
}

/// Linear-interpolated quantile.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Devices whose call stream the reference pass records and replays.
fn replay_sample(seed: u64, devices: usize, kind: Kind) -> Vec<usize> {
    let want = match kind {
        Kind::WideSuite => 1,
        Kind::FleetMix | Kind::Brownout => 4,
    };
    let mut out: Vec<usize> = (0..want as u64)
        .map(|k| (rand::seed_stream(seed ^ 0x7265_706C_6179, k) % devices as u64) as usize)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics. The host times are scaled to the reference
/// speed of [`calibrate`]: `speed` > 1 when this run's host was slower.
fn end_to_end(
    setups: &[SetupTimes],
    r: &Batch,
    eps: f64,
    calibration: &[f64],
) -> Result<Vec<Metric>, String> {
    let speed = median(calibration.to_vec()) / calibrate::REFERENCE_US;
    let m = &r.model;
    let runs = m.runs.max(1) as f64;
    let cat = |c: CostCategory| m.time_us[c as usize] as f64;
    Ok(vec![
        ("events_per_s", eps * speed, "1/s"),
        (
            "setup_s",
            median(setups.iter().map(|t| t.total).collect()) / speed,
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        (
            "sim_overhead_ms_per_run",
            (cat(CostCategory::Runtime) + cat(CostCategory::Monitor)) / runs / 1e3,
            "ms",
        ),
        (
            "sim_energy_uj_per_run",
            m.consumed_pj as f64 / runs / 1e6,
            "uJ",
        ),
        (
            "sim_completion_s_per_run",
            m.wall_us as f64 / runs / 1e6,
            "s",
        ),
        ("completion_ratio", m.completed as f64 / runs, "ratio"),
    ])
}

fn per_layer(
    w: &Workload,
    setups: &[SetupTimes],
    r: &Batch,
    t: &Traced,
    imbalance: f64,
    calibration_us: f64,
) -> Vec<Metric> {
    let setup_us = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect()) * 1e6;
    let host = &t.host;
    let mut device_ns = t.device_ns.clone();
    let (busy, events) = (t.busy_ns, t.events);
    let ev = events.max(1) as f64;
    let per_call = |l: Layer| host.ns(&[l]) as f64 / host.count(l).max(1) as f64;
    let m = &r.model;
    let (rev, runs) = (m.events.max(1) as f64, m.runs.max(1) as f64);
    let cat_us = |c: CostCategory| m.time_us[c as usize] as f64 / rev;
    let cat_nj = |c: CostCategory| m.energy_pj[c as usize] as f64 / 1e3 / rev;
    let bd = &r.boundary;
    let lookups = (r.cache.hits + r.cache.misses).max(1) as f64;
    let share = |ns: u64| ns as f64 / busy.max(1) as f64;
    let total_us = m.total_us.max(1) as f64;
    let time_residual = (m.time_us.iter().sum::<u64>().abs_diff(m.total_us)
        + bd.model_us
            .abs_diff(m.time_us[CostCategory::Monitor as usize])) as f64
        / total_us;
    let energy_residual = (m.energy_pj.iter().sum::<u64>().abs_diff(m.consumed_pj)
        + bd.model_pj
            .abs_diff(m.energy_pj[CostCategory::Monitor as usize]))
        as f64
        / m.consumed_pj.max(1) as f64;
    vec![
        ("spec.parse_us", setup_us(|t| t.parse), "us"),
        ("spec.resolve_us", setup_us(|t| t.resolve), "us"),
        ("ir.lower_us", setup_us(|t| t.lower), "us"),
        ("ir.codegen_us", setup_us(|t| t.codegen), "us"),
        ("ir.bounds_us", setup_us(|t| t.bounds), "us"),
        ("ir.machines", w.suite.len() as f64, "count"),
        (
            "ir.bytecode_ops",
            w.compiled
                .machines()
                .iter()
                .map(|m| m.op_count())
                .sum::<usize>() as f64,
            "count",
        ),
        ("sim.device_build_us", per_call(Layer::SimBuild) / 1e3, "us"),
        (
            "monitor.install_us",
            per_call(Layer::MonInstall) / 1e3,
            "us",
        ),
        ("runtime.install_us", per_call(Layer::RtInstall) / 1e3, "us"),
        (
            "monitor.call_ns_per_event",
            host.ns(&[Layer::MonDeliver]) as f64 / ev,
            "ns",
        ),
        (
            "monitor.instructions_per_event",
            r.exec.instructions as f64 / rev,
            "count",
        ),
        (
            "monitor.machine_steps_per_event",
            r.exec.machine_steps as f64 / rev,
            "count",
        ),
        (
            "monitor.allocs_per_event",
            host.allocs_in(&MONITOR) as f64 / ev,
            "count",
        ),
        (
            "monitor.finalize_ns_per_boot",
            per_call(Layer::MonFinalize),
            "ns",
        ),
        (
            "monitor.restart_ns_per_call",
            per_call(Layer::MonRestart),
            "ns",
        ),
        (
            "monitor.calls_per_event",
            (bd.deliver_calls + bd.finalize_calls + bd.restarts) as f64 / rev,
            "ratio",
        ),
        (
            "monitor.cache_hit_ratio",
            r.cache.hits as f64 / lookups,
            "ratio",
        ),
        (
            "monitor.cache_invalidations_per_boot",
            r.cache.invalidations as f64 / bd.finalize_calls.max(1) as f64,
            "ratio",
        ),
        (
            "sim.monitor_us_per_event",
            cat_us(CostCategory::Monitor),
            "us",
        ),
        (
            "sim.runtime_us_per_event",
            cat_us(CostCategory::Runtime),
            "us",
        ),
        ("sim.app_us_per_event", cat_us(CostCategory::App), "us"),
        (
            "sim.monitor_nj_per_event",
            cat_nj(CostCategory::Monitor),
            "nJ",
        ),
        (
            "sim.runtime_nj_per_event",
            cat_nj(CostCategory::Runtime),
            "nJ",
        ),
        ("sim.app_nj_per_event", cat_nj(CostCategory::App), "nJ"),
        (
            "monitor.fram_bytes_per_event",
            bd.fram_bytes as f64 / rev,
            "B",
        ),
        (
            "monitor.fram_ops_per_event",
            bd.fram_ops as f64 / rev,
            "count",
        ),
        ("sim.fram_bytes_per_event", m.fram_bytes as f64 / rev, "B"),
        ("sim.reboots_per_run", m.reboots as f64 / runs, "count"),
        (
            "runtime.violations_per_run",
            bd.verdicts as f64 / runs,
            "count",
        ),
        (
            "runtime.path_restarts_per_run",
            bd.restarts as f64 / runs,
            "count",
        ),
        (
            "runtime.self_ns_per_event",
            host.ns(&[Layer::RtRun]) as f64 / ev,
            "ns",
        ),
        (
            "runtime.allocs_per_event",
            host.allocs_in(&[Layer::RtRun]) as f64 / ev,
            "count",
        ),
        (
            "fleet.reduce_us_per_device",
            per_call(Layer::FleetReduce) / 1e3,
            "us",
        ),
        ("fleet.shard_event_imbalance", imbalance, "ratio"),
        (
            "fleet.device_us_p50",
            quantile(&mut device_ns, 0.5) / 1e3,
            "us",
        ),
        (
            "fleet.device_us_p99",
            quantile(&mut device_ns, 0.99) / 1e3,
            "us",
        ),
        ("host.calibration_us", calibration_us, "us"),
        (
            "trace.untraced_events_per_s",
            median(t.untraced_rates.clone()),
            "1/s",
        ),
        ("trace.traced_events_per_s", median(t.rates.clone()), "1/s"),
        ("trace.overhead_ratio", median(t.overheads.clone()), "ratio"),
        (
            "reconcile.host_residual_ratio",
            1.0 - share(host.ns(&PROGRAM)),
            "ratio",
        ),
        (
            "reconcile.probe_ratio",
            share(host.ns(&[Layer::Probe])),
            "ratio",
        ),
        (
            "reconcile.harness_ratio",
            share(host.ns(&[Layer::Harness])),
            "ratio",
        ),
        (
            "reconcile.model_time_residual_ratio",
            time_residual,
            "ratio",
        ),
        (
            "reconcile.model_energy_residual_ratio",
            energy_residual,
            "ratio",
        ),
    ]
}

/// The run's metadata line.
fn meta(a: &Args, w: &Workload, workers: usize, batches: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"nproc\": {nproc}, \"workers\": {workers}, \"commit\": \"{commit}\", \
         \"devices\": {}, \"rounds_per_device\": {}, \"timed_batches\": {batches}, \
         \"trace\": {}, \"modelled_plane\": \"CostModel µs/nJ/FRAM bytes, unvalidated against \
         hardware; the paper's Fig. 15 (overhead slightly above 1x) and Fig. 16 (~3x energy) are \
         the only reference, reported by the experiments binary\"}}}}",
        a.kind.name(),
        a.seed,
        w.devices.len(),
        w.rounds,
        a.trace
    )
}
