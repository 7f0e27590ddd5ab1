//! One pass over a workload's device population ("batch"), in the
//! flavours the benchmark needs: the fleet layer's own `run_shards`,
//! and the benchmark's device loop with the plain engine or with the
//! probing wrapper.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use artemis_fleet::{run_shards, FleetConfig, FleetDevice, FleetStats};
use artemis_monitor::{CacheStats, ExecStats, MonitorEngine};

use crate::probe::{self, span, Layer, Totals};
use crate::probed::{Boundary, CallLog, Probed, Snapshot};
use crate::workload::{Model, Workload};

/// Device indices a worker claims per cursor advance (as `FleetConfig`).
const CHUNK: usize = 64;

/// Which engine the device loop installs.
#[derive(Clone, Copy)]
pub enum Flavor<'a> {
    /// The engine as the program ships it.
    Plain,
    /// The engine inside [`Probed`]; devices listed in `record` keep a
    /// call log for replay.
    Probed { record: &'a [usize] },
}

/// A recorded device: its call log and final monitor state.
pub struct Recorded {
    pub index: usize,
    pub log: CallLog,
    pub snapshot: Snapshot,
}

/// Everything one pass over the population produced.
#[derive(Default)]
pub struct Batch {
    pub stats: FleetStats,
    pub model: Model,
    pub boundary: Boundary,
    pub exec: ExecStats,
    pub cache: CacheStats,
    /// Span totals over all workers.
    pub host: Totals,
    /// Host time of each device (build to reduce), ns.
    pub device_ns: Vec<u64>,
    /// Summed worker wall time, ns.
    pub busy_ns: u64,
    /// Wall time of the pass, ns.
    pub wall_ns: u64,
    /// Per-shard fleet stats (the fleet layer's `run_shards` only).
    pub shards: Vec<FleetStats>,
    pub recorded: Vec<Recorded>,
}

impl Batch {
    fn absorb(&mut self, o: Batch) {
        self.stats.merge(&o.stats);
        self.model.add(&o.model);
        self.boundary.add(&o.boundary);
        self.exec.instructions += o.exec.instructions;
        self.exec.machine_steps += o.exec.machine_steps;
        self.cache.hits += o.cache.hits;
        self.cache.misses += o.cache.misses;
        self.cache.invalidations += o.cache.invalidations;
        self.host.add(&o.host);
        self.device_ns.extend(o.device_ns);
        self.busy_ns += o.busy_ns;
        self.recorded.extend(o.recorded);
    }

    fn engine_counters(&mut self, engine: &MonitorEngine) {
        let (e, c) = (engine.exec_stats(), engine.cache_stats());
        self.exec.instructions += e.instructions;
        self.exec.machine_steps += e.machine_steps;
        self.cache.hits += c.hits;
        self.cache.misses += c.misses;
        self.cache.invalidations += c.invalidations;
    }
}

/// Runs the population through the fleet layer: `run_shards` on the
/// workload's workers, each device built and installed by the factory
/// and run and reduced by `FleetDevice::run`.
pub fn fleet(w: &Workload, seed: u64) -> Batch {
    let cfg = FleetConfig::new(w.devices.len() as u64, w.kind.workers(), seed);
    let started = Instant::now();
    let shards = run_shards(&cfg, &|index, _stream| {
        let mut dev = w.build(index as usize);
        let rt = w.install(&mut dev, |e| e);
        FleetDevice {
            dev,
            rt,
            limit: w.limit,
        }
    });
    let mut b = Batch {
        wall_ns: started.elapsed().as_nanos() as u64,
        ..Batch::default()
    };
    for s in &shards {
        b.stats.merge(s);
    }
    b.shards = shards;
    b
}

/// Runs the population through the benchmark's device loop on
/// `workers` threads sharing one index cursor. One worker runs on the
/// calling thread: a thread spawned per batch would start wherever the
/// scheduler puts it and time its placement along with the work.
pub fn devices(w: &Workload, flavor: Flavor<'_>, workers: usize) -> Batch {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let parts: Vec<Batch> = if workers <= 1 {
        vec![worker(w, flavor, &cursor)]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| worker(w, flavor, &cursor)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect()
        })
    };
    let mut total = Batch::default();
    for p in parts {
        total.absorb(p);
    }
    total.wall_ns = started.elapsed().as_nanos() as u64;
    total.recorded.sort_by_key(|r| r.index);
    total
}

/// Claims chunks of device indices from `cursor` until none are left.
fn worker(w: &Workload, flavor: Flavor<'_>, cursor: &AtomicUsize) -> Batch {
    let n = w.devices.len();
    let t0 = Instant::now();
    let mut b = Batch {
        device_ns: Vec::with_capacity(n),
        ..Batch::default()
    };
    loop {
        let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + CHUNK).min(n) {
            let t = Instant::now();
            span(Layer::Harness, || device(w, i, flavor, &mut b));
            b.device_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    b.host = probe::take();
    b.busy_ns = t0.elapsed().as_nanos() as u64;
    b
}

/// Builds, installs, runs and reduces device `i`.
fn device(w: &Workload, i: usize, flavor: Flavor<'_>, b: &mut Batch) {
    let mut dev = w.build(i);
    match flavor {
        Flavor::Plain => {
            let mut rt = w.install(&mut dev, |e| e);
            let m = w.drive(&mut dev, &mut rt, &mut b.stats);
            b.model.add(&m);
            b.engine_counters(rt.engine());
        }
        Flavor::Probed { record } => {
            let rec = record.contains(&i);
            let mut rt = w.install(&mut dev, |e| Probed::new(e, rec));
            let m = w.drive(&mut dev, &mut rt, &mut b.stats);
            b.model.add(&m);
            b.boundary.add(&rt.engine().boundary());
            b.engine_counters(rt.engine().inner());
            if let Some(log) = rt.engine().take_log() {
                b.recorded.push(Recorded {
                    index: i,
                    log,
                    snapshot: rt.engine().inner().snapshot(&dev),
                });
            }
        }
    }
}
