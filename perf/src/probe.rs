//! Host-side spans at the layer boundaries, recorded from outside the
//! program.
//!
//! A span times one call into a layer's public API. Spans nest (the
//! runtime calls the monitor), so each span subtracts the time of the
//! spans it encloses: the per-layer totals are *self* times and sum to
//! the time spent inside spans. Counters live in per-thread cells, so
//! worker threads never contend; [`take`] drains the calling thread's
//! cells.
//!
//! Tracing is off unless [`set_enabled`] turned it on: a disabled span
//! costs one relaxed atomic load and opens no span. The allocation
//! counter in [`crate::alloc`] attributes each heap allocation to the
//! innermost open span's layer, or to no layer outside any span.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A layer boundary. The monitor layer is split by entry point so that
/// delivery, recovery and path restarts are priced separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `DeviceBuilder` configuration and `build`.
    SimBuild,
    /// `MonitorEngine::install_precompiled_shared`.
    MonInstall,
    /// `Monitoring::{call_monitor, deliver_batch}`.
    MonDeliver,
    /// `Monitoring::monitor_finalize` (once per boot).
    MonFinalize,
    /// `Monitoring::on_path_restart`.
    MonRestart,
    /// Every other `Monitoring` entry point (`reset_monitor`, queries).
    MonOther,
    /// `ArtemisRuntimeBuilder::install_with`.
    RtInstall,
    /// `ArtemisRuntime::{run_once, rearm}`.
    RtRun,
    /// Per-device reduce: trace scrape + `FleetStats::record`.
    FleetReduce,
    /// `Probed`'s own bookkeeping around each monitor call: FRAM and
    /// cost counters, boundary counts and the call log.
    Probe,
    /// The benchmark's own per-device glue around the calls above.
    Harness,
}

/// Number of [`Layer`] variants.
const LAYERS: usize = Layer::Harness as usize + 1;
/// Allocation slot for code outside any span.
const OUTSIDE: usize = LAYERS;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span timing on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

const MAX_DEPTH: usize = 16;

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(OUTSIDE) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static CHILD_NS: [Cell<u64>; MAX_DEPTH] = const { [const { Cell::new(0) }; MAX_DEPTH] };
    static SELF_NS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static CALLS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static ALLOCS: [Cell<u64>; LAYERS + 1] = const { [const { Cell::new(0) }; LAYERS + 1] };
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let l = layer as usize;
    let depth = DEPTH.get();
    assert!(depth < MAX_DEPTH, "span nesting deeper than {MAX_DEPTH}");
    CHILD_NS.with(|c| c[depth].set(0));
    DEPTH.set(depth + 1);
    let outer = CURRENT.replace(l);
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    CURRENT.set(outer);
    DEPTH.set(depth);
    let child = CHILD_NS.with(|c| c[depth].get());
    SELF_NS.with(|s| s[l].set(s[l].get() + ns.saturating_sub(child)));
    CALLS.with(|c| c[l].set(c[l].get() + 1));
    if depth > 0 {
        CHILD_NS.with(|c| c[depth - 1].set(c[depth - 1].get() + ns));
    }
    out
}

/// Counts one heap allocation against the innermost active span.
/// Called from the global allocator: touches only const-initialised
/// thread-local cells, which never allocate and have no destructor.
#[inline]
pub fn count_alloc() {
    let _ = CURRENT.try_with(|cur| {
        let _ = ALLOCS.try_with(|a| a[cur.get()].set(a[cur.get()].get() + 1));
    });
}

/// One thread's span totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Self time per layer, ns.
    pub self_ns: [u64; LAYERS],
    /// Spans closed per layer.
    pub calls: [u64; LAYERS],
    /// Heap allocations per layer, plus one slot for outside any span.
    pub allocs: [u64; LAYERS + 1],
}

impl Totals {
    /// Adds another thread's totals.
    pub fn add(&mut self, o: &Totals) {
        for l in 0..LAYERS {
            self.self_ns[l] += o.self_ns[l];
            self.calls[l] += o.calls[l];
        }
        for l in 0..=LAYERS {
            self.allocs[l] += o.allocs[l];
        }
    }

    /// Self time of `layers`, ns.
    pub fn ns(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.self_ns[l as usize]).sum()
    }

    /// Span count of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Allocations made inside `layers`.
    pub fn allocs_in(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.allocs[l as usize]).sum()
    }
}

/// Drains the calling thread's totals.
pub fn take() -> Totals {
    let mut t = Totals::default();
    SELF_NS.with(|s| {
        for (d, c) in t.self_ns.iter_mut().zip(s) {
            *d = c.replace(0);
        }
    });
    CALLS.with(|s| {
        for (d, c) in t.calls.iter_mut().zip(s) {
            *d = c.replace(0);
        }
    });
    ALLOCS.with(|s| {
        for (d, c) in t.allocs.iter_mut().zip(s) {
            *d = c.replace(0);
        }
    });
    t
}

/// The program's layers: every span but the benchmark's own
/// [`Layer::Probe`] and [`Layer::Harness`].
pub const PROGRAM: [Layer; 9] = [
    Layer::SimBuild,
    Layer::MonInstall,
    Layer::MonDeliver,
    Layer::MonFinalize,
    Layer::MonRestart,
    Layer::MonOther,
    Layer::RtInstall,
    Layer::RtRun,
    Layer::FleetReduce,
];

/// The monitor layer's entry points.
pub const MONITOR: [Layer; 4] = [
    Layer::MonDeliver,
    Layer::MonFinalize,
    Layer::MonRestart,
    Layer::MonOther,
];
