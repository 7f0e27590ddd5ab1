//! The ARTEMIS monitor engine: power-failure-resilient execution of
//! generated FSM monitors.
//!
//! The engine is the runtime realisation of the paper's
//! application-specific monitors (§3.3–§4.2). It keeps every machine's
//! `(state, variables)` in FRAM, processes each observable event as
//! one crash-atomic journal record, and exposes the paper's three
//! entry points:
//!
//! - [`MonitorEngine::reset_monitor`] — the initial hard reset
//!   (Figure 8, `resetMonitor`);
//! - [`MonitorEngine::monitor_finalize`] — called on every reboot to
//!   complete an event's record torn by a power failure (Figure 8,
//!   `monitorFinalize`);
//! - [`MonitorEngine::call_monitor`] — deliver one event and collect
//!   verdicts (Figure 9/10, `callMonitor`).
//!
//! # Exactly-once event processing
//!
//! Every delivery carries a caller-chosen sequence number. On the
//! production engine a delivery under a new sequence number is **one
//! crash-atomic journal record**: every interested machine is stepped
//! in volatile memory, and a single sparse commit then writes the
//! sequence number, the verdict cells and count, and every machine's
//! changed bytes together. A power failure before the record's commit
//! flag leaves no trace — the event re-runs from scratch when it is
//! delivered again; a failure after the flag is repaired by journal
//! replay in [`MonitorEngine::monitor_finalize`]. Re-delivering a
//! sequence number whose record committed returns the recorded verdicts
//! instead of double-stepping the machines. Each delivery is therefore
//! all-or-nothing, which makes "intermittent run ≡ some continuous run"
//! (Surbatovich et al.) hold per delivery by construction.
//!
//! The ARTEMIS runtime exploits both directions: `StartTask`
//! re-attempts get fresh numbers (attempt counting is the point of
//! `maxTries`), while `EndTask` events reuse the number fixed in the
//! task-commit transaction so a power failure can never double-count a
//! sample (cf. the paper's timestamp-consistency discussion, §4.1.3).
//!
//! # Two engines: production and reference
//!
//! [`MonitorEngine`] installs as exactly one of two engines, chosen by
//! [`InstallOptions`]:
//!
//! - the **production engine** ([`ExecMode::Compiled`] +
//!   [`RoutingMode::Routed`], the default) runs suites compiled to
//!   slot-indexed bytecode
//!   ([`artemis_ir::compile`](mod@artemis_ir::compile)) with each
//!   machine's `(state, vars)` in one contiguous FRAM block, laid out
//!   by the verifier-derived packed [`MachineLayout`]. It is the only
//!   delivery path deployments use, and it is the closest analogue of
//!   the paper's generated C monitors;
//! - the **reference engine** ([`ExecMode::Interpreter`] +
//!   [`RoutingMode::FullScan`]) is a volatile interpreter: one
//!   in-memory `(state, vars)` per machine, and the tree-walking
//!   [`artemis_ir::exec::step`] over every machine the event's `Path:`
//!   does not rule out. It allocates no FRAM, keeps no journal and
//!   bills nothing, so it is a continuous run whatever device it is
//!   given. It is the executable semantics the production engine is
//!   checked against: differential tests pin an intermittent
//!   production run to identical verdicts and machine state as the
//!   reference run of the same events, for any spec, event stream and
//!   power-failure schedule — the "intermittent run ≡ continuous run"
//!   criterion of Surbatovich et al. The external monitor of §7
//!   ([`RemoteMonitorEngine`]) runs the same interpreter.
//!
//! Any other combination is rejected with
//! [`InstallError::UnsupportedEngine`] before any FRAM is allocated.
//!
//! # Event routing
//!
//! Triggers are static, so at install time the compiler emits a global
//! [`RoutingIndex`](artemis_ir::compile::RoutingIndex): for every
//! `(event kind, task id)` key, the exact machines with a transition
//! that can match. A delivery looks its key up, drops machines whose
//! `Path:` qualifier the event's path rules out, and steps only the
//! remaining **worklist** — a volatile scratch list, never persisted:
//! a delivery that fails before its record commits is re-run whole, so
//! there is nothing to resume. Dismissed machines are never read,
//! stepped, or written. Every suite the 16-bit machine index can
//! address ([`MAX_ROUTED_MACHINES`]) routes; the reference engine's
//! full scan is an oracle, never a fallback.
//!
//! # Sparse delta commits
//!
//! The compiler derives a static [`AccessSet`](artemis_ir::AccessSet)
//! per `(event kind, task)` key: every variable slot the routed
//! transitions' guards and bodies can read or write. The engine
//! exploits it twice per step: the machine block is decoded only up to
//! the covering slot span, and only that span is re-encoded and diffed.
//! The delivery's one record is a **sparse delta record**: a
//! [`TxWriter`] committed as the journal's one record format — one
//! staged FRAM write, the flag, the scattered applies and the flag
//! clear, with no journal re-reads. The whole-suite reset and
//! path-restart re-initialisation commit through the same record.
//!
//! Machine sub-writes are **dirty diffs**: each new image is diffed
//! against the shadow cache's authoritative old image and journalled as
//! minimal `[addr][len][data]` runs, adjacent runs merged when the gap
//! is within the sub-write header. A machine's runs never exceed the
//! slot-granular sub-writes (state word + every write-set slot) that
//! the static bounds price.
//!
//! # Volatile shadow cache (write-only steady state)
//!
//! The production engine keeps a volatile **shadow** of every FRAM
//! location the hot path reads: the decoded machine images, the
//! sequence number and the verdict log. A delivery steps machines
//! against their shadows in place — the shadows are the volatile
//! scratch the record is diffed from — so a steady-state delivery
//! performs **zero** FRAM reads on every key, and nonvolatile memory is
//! touched only by the one crash-atomic record. Until that record
//! commits the shadows run ahead of FRAM; any entry point that returns
//! an error (a power failure mid-delivery) wipes the whole cache, so an
//! uncommitted image never outlives its delivery.
//!
//! Coherence contract: the cache records the
//! [`Sram`](intermittent_sim::Sram) reboot epoch it was filled under;
//! every entry point re-syncs against `dev.sram().generation()` and a
//! mismatch (i.e. a power failure happened) invalidates the whole cache
//! in O(1) by bumping a generation tag that every shadow entry must
//! match. Refills happen *after* `dev.recover` has replayed any torn
//! journal record — replay-then-invalidate is safe because replay is
//! idempotent against FRAM and completes before the first cold read.
//! The first delivery after a reboot therefore pays cold-miss reads:
//! the sequence number and one whole-block fill per stepped machine,
//! priced by `EventCost::cold_extra_reads` and
//! `EventCost::cold_extra_read_bytes` in `artemis_ir`; every later
//! delivery in the same epoch is write-only. Hit/miss/invalidation
//! counters are exposed through [`MonitorEngine::cache_stats`].

mod interp;
pub mod remote;
pub mod state;

use core::cell::RefCell;
use std::sync::Arc;

use artemis_core::action::Action;
use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_core::property::OnFail;
use artemis_ir::compile::{CompileIssue, CompiledEvent, CompiledMachine, CompiledSuite};
use artemis_ir::expr::Value;
use artemis_ir::fsm::{EmitFail, MonitorSuite};
use artemis_ir::layout::MachineLayout;
use artemis_ir::validate::{validate_strict, Issue};
use intermittent_sim::device::{CostCategory, Device, Interrupt, MemOwner};
use intermittent_sim::fram::NvCell;
use intermittent_sim::journal::{Journal, TxWriter, SUB_WRITE_HEADER};

use interp::Interpreter;
use state::EncodedEvent;

pub use remote::{NoMonitoring, RemoteMonitorEngine};

/// The interface between the intermittent runtime and *some* monitoring
/// deployment — the paper's "generic interfaces" between runtime and
/// monitor module (Table 3, last row). Implementations: the local
/// power-failure-resilient [`MonitorEngine`], the external
/// [`RemoteMonitorEngine`] of §7, and [`NoMonitoring`] for ablations.
pub trait Monitoring {
    /// Initial hard reset (Figure 8, `resetMonitor`).
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt>;

    /// Per-boot completion of interrupted work (`monitorFinalize`).
    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt>;

    /// Event delivery under a caller-chosen sequence number;
    /// re-delivery of a processed number must not double-step.
    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt>;

    /// Delivers events under consecutive sequence numbers
    /// (`first_seq`, `first_seq + 1`, …) through
    /// [`Monitoring::call_monitor`], one verdict list per event.
    ///
    /// No deployment overrides it and the runtime never calls it: it
    /// stays only because the benchmark harness under `perf/` forwards
    /// it, and the next change to that benchmark removes it together
    /// with [`Monitoring::batch_capacity`] and
    /// [`Monitoring::end_event_is_silent`].
    fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        let mut out = Vec::with_capacity(events.len());
        for (i, event) in events.iter().enumerate() {
            out.push(self.call_monitor(dev, first_seq + i as u64, event)?);
        }
        Ok(out)
    }

    /// Always 1. Kept only for the benchmark harness under `perf/`
    /// (see [`Monitoring::deliver_batch`]).
    fn batch_capacity(&self) -> usize {
        1
    }

    /// Always `false`. Kept only for the benchmark harness under
    /// `perf/` (see [`Monitoring::deliver_batch`]).
    fn end_event_is_silent(&self, _task: TaskId) -> bool {
        false
    }

    /// Verdicts of the most recently processed event.
    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt>;

    /// Re-initialisation of monitors bound to a restarted path.
    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt>;

    /// Number of deployed machines.
    fn machine_count(&self) -> usize;

    /// Names of the deployed machines, in suite order — the name table
    /// trace renderers resolve violation indices against. Deployments
    /// without named machines return an empty table.
    fn machine_names(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Modelled cost of the compiled path's dispatch-table lookup — a
/// kind/task index instead of a name-comparing scan.
const COMPILED_DISPATCH_CYCLES: u64 = 10;
/// Modelled cost of the routed path's per-event routing-index lookup
/// and worklist staging, charged once per fresh delivery.
const ROUTING_LOOKUP_CYCLES: u64 = 12;

/// Most machines any engine supports: machine indices are 16-bit
/// throughout — the routing index and worklists store `u16` indices.
/// Every install, production or reference, of a larger suite is
/// rejected with [`InstallError::TooManyMachines`] rather than
/// wrapping an index.
pub const MAX_ROUTED_MACHINES: usize = u16::MAX as usize;

/// How the engine resolves which machines an event must step.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoutingMode {
    /// Install-time routing index + a volatile per-event worklist: only
    /// the machines interested in the `(kind, task)` key are stepped —
    /// the production engine's dispatch, O(interested machines) per
    /// event.
    #[default]
    Routed,
    /// The reference dispatch semantics: every installed machine the
    /// event's path does not rule out is stepped, in suite order. Only
    /// the reference engine uses it.
    FullScan,
}

/// Which execution core the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Slot-indexed bytecode over one contiguous FRAM block per machine
    /// — the production engine's core.
    #[default]
    Compiled,
    /// The tree-walking reference interpreter over volatile machine
    /// state — the reference engine's core.
    Interpreter,
}

/// Shadow-cache effectiveness counters
/// ([`MonitorEngine::cache_stats`]). `hits` counts shadow lookups that
/// avoided FRAM traffic, `misses` counts cold FRAM reads that
/// (re)filled a shadow entry, `invalidations` counts whole-cache wipes
/// triggered by a reboot-epoch change.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Shadow lookups served from RAM.
    pub hits: u64,
    /// Cold FRAM reads that filled a shadow entry.
    pub misses: u64,
    /// Whole-cache wipes caused by a reboot-epoch bump.
    pub invalidations: u64,
}

/// Dynamic bytecode execution counters
/// ([`MonitorEngine::exec_stats`]): what the compiled core *actually*
/// ran, as opposed to the static per-key ceilings the engine bills
/// through [`CompiledMachine::step_cost`]. Volatile (an event whose
/// record a power failure cut short re-runs and re-counts its
/// instructions — the honest dynamic figure on an intermittent
/// device).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Bytecode instructions dispatched across all machine steps.
    pub instructions: u64,
    /// `CompiledMachine::step` invocations (one per machine per
    /// delivered event that dispatches to it).
    pub machine_steps: u64,
}

/// Everything [`MonitorEngine::install_with`] can be told. The default
/// is the production engine; `mode: Interpreter, routing: FullScan`
/// selects the reference engine. No other `mode` × `routing` pair
/// installs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InstallOptions {
    /// Execution core (compiled bytecode by default).
    pub mode: ExecMode,
    /// Event dispatch strategy (routed worklists by default).
    pub routing: RoutingMode,
    /// Journal capacity override in record bytes. `None` derives the
    /// capacity from the static resource bounds: the larger of the
    /// whole-suite reset record and the worst key's whole-event record
    /// (see [`artemis_ir::suite_bounds`]). Install checks the suite
    /// against whatever capacity ends up in force, so an undersized
    /// override rejects the install with [`InstallError::Analysis`]
    /// instead of faulting with `JournalOverflow` mid-run.
    pub journal_capacity: Option<usize>,
    /// Device energy profile for the install-time feasibility gate.
    /// `Some(profile)` runs `artemis_ir::analysis::energy` over every
    /// task: a task whose statically under-approximated attempt energy
    /// exceeds the profile's budget rejects the install with
    /// [`InstallError::Analysis`] *before* any FRAM is allocated (the
    /// device would otherwise brown-out/replay that task forever);
    /// attempts within the profile's margin surface as
    /// `InstallWarning` trace events. `None` (the default) skips the
    /// pass. Obtain the device's own profile via
    /// `Device::energy_profile()`.
    pub energy: Option<intermittent_sim::EnergyProfile>,
}

impl InstallOptions {
    /// The reference engine: tree-walking interpreter, full-scan
    /// dispatch.
    pub fn reference() -> Self {
        InstallOptions {
            mode: ExecMode::Interpreter,
            routing: RoutingMode::FullScan,
            ..InstallOptions::default()
        }
    }
}

/// Why the engine could not be installed.
#[derive(Debug)]
pub enum InstallError {
    /// A machine failed static validation.
    Invalid(Issue),
    /// A machine observes a task that is not in the application graph.
    UnknownTask {
        /// Machine name.
        machine: String,
        /// The unresolvable task name.
        task: String,
    },
    /// A path-directed failure action has no governing path.
    MissingPath {
        /// Machine name.
        machine: String,
    },
    /// The suite failed ahead-of-time compilation to bytecode.
    Compile(CompileIssue),
    /// Install-time static analysis found an error: the bytecode
    /// verifier, the resource-bound pass, the cross-monitor conflict
    /// pass, or the energy feasibility pass rejected the suite. No
    /// FRAM was touched.
    Analysis(artemis_spec::Diagnostic),
    /// The suite has more machines than the 16-bit machine index can
    /// address ([`MAX_ROUTED_MACHINES`]).
    TooManyMachines {
        /// Machines in the suite.
        machines: usize,
        /// The machine-index capacity.
        max: usize,
    },
    /// The options name neither the production engine (compiled +
    /// routed) nor the reference engine (interpreter + full scan). No
    /// FRAM was touched.
    UnsupportedEngine {
        /// Requested execution core.
        mode: ExecMode,
        /// Requested dispatch.
        routing: RoutingMode,
    },
    /// Device-level failure (FRAM exhaustion) during installation.
    Device(Interrupt),
}

impl core::fmt::Display for InstallError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InstallError::Invalid(i) => write!(f, "{i}"),
            InstallError::UnknownTask { machine, task } => {
                write!(f, "machine `{machine}` observes unknown task `{task}`")
            }
            InstallError::MissingPath { machine } => write!(
                f,
                "machine `{machine}` emits a path-directed action but has no governing path"
            ),
            InstallError::Compile(i) => write!(f, "monitor compilation failed: {i}"),
            InstallError::Analysis(d) => write!(f, "static analysis rejected the suite: {d}"),
            InstallError::TooManyMachines { machines, max } => write!(
                f,
                "{machines} machines exceed the machine-index capacity of {max}"
            ),
            InstallError::UnsupportedEngine { mode, routing } => write!(
                f,
                "{mode:?} execution with {routing:?} dispatch is neither the production \
                 engine (Compiled + Routed) nor the reference engine (Interpreter + FullScan)"
            ),
            InstallError::Device(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// One monitor's verdict for a delivered event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MonitorVerdict {
    /// Index of the machine in the suite.
    pub machine_index: usize,
    /// Name of the machine.
    pub machine: String,
    /// The resolved corrective action.
    pub action: Action,
}

/// One machine block: the state field followed by the variable slots,
/// in the machine's packed [`MachineLayout`] — a single FRAM op to load
/// and a single journal sub-write to commit.
struct Block {
    addr: usize,
    layout: MachineLayout,
    /// Image of the initial state, staged whole on resets.
    initial_image: Vec<u8>,
}

/// Rejects, before anything is compiled or allocated, every install
/// that is neither the production nor the reference engine, and every
/// suite the 16-bit machine index cannot address.
fn check_install(machines: usize, opts: &InstallOptions) -> Result<(), InstallError> {
    let production = opts.mode == ExecMode::Compiled && opts.routing == RoutingMode::Routed;
    let reference = opts.mode == ExecMode::Interpreter && opts.routing == RoutingMode::FullScan;
    if !production && !reference {
        return Err(InstallError::UnsupportedEngine {
            mode: opts.mode,
            routing: opts.routing,
        });
    }
    if machines > MAX_ROUTED_MACHINES {
        return Err(InstallError::TooManyMachines {
            machines,
            max: MAX_ROUTED_MACHINES,
        });
    }
    Ok(())
}

/// The source-level install checks every deployment runs (the local
/// engines and [`RemoteMonitorEngine`] alike): each machine passes
/// strict validation, observes only tasks of `app`, and has a governing
/// path for every path-directed action.
pub(crate) fn validate_suite(suite: &MonitorSuite, app: &AppGraph) -> Result<(), InstallError> {
    for m in suite.machines() {
        validate_strict(m).map_err(InstallError::Invalid)?;
        for task in m.observed_tasks() {
            if app.task_by_name(task).is_none() {
                return Err(InstallError::UnknownTask {
                    machine: m.name.clone(),
                    task: task.to_string(),
                });
            }
        }
        let pathless = |t: &artemis_ir::fsm::Transition| {
            t.emit.as_ref().is_some_and(|e| {
                e.path.is_none()
                    && matches!(
                        e.action,
                        OnFail::RestartPath | OnFail::SkipPath | OnFail::CompletePath
                    )
            })
        };
        if m.path.is_none() && m.transitions.iter().any(pathless) {
            return Err(InstallError::MissingPath {
                machine: m.name.clone(),
            });
        }
    }
    Ok(())
}

/// Sub-write header bytes of one journal record run — the diff-commit
/// merge threshold: two changed runs separated by an unchanged gap of
/// at most this many bytes are cheaper merged (the gap's idempotent
/// re-write costs `gap` bytes, a separate run costs another header).
const DIFF_MERGE_GAP: usize = SUB_WRITE_HEADER;

/// Byte-granular dirty diff: calls `emit(start, end)` for each changed
/// run of `new` vs `old` (half-open, in order), adjacent runs merged
/// when the unchanged gap between them is within [`DIFF_MERGE_GAP`].
/// Merged gap bytes re-write their old value — idempotent, so replaying
/// the journal record after a power failure is safe. By the merge rule
/// a machine's runs never exceed its slot-granular sub-writes in bytes
/// *or* count: every changed byte lies in the state field or a written
/// slot (≤ 8 mutable bytes each, so at most one run apiece before
/// merging), and each merge saves `header − gap ≥ 0` bytes.
fn diff_runs(old: &[u8], new: &[u8], mut emit: impl FnMut(usize, usize)) {
    debug_assert_eq!(old.len(), new.len());
    let mut run: Option<(usize, usize)> = None;
    for (i, (o, n)) in old.iter().zip(new).enumerate() {
        if o == n {
            continue;
        }
        run = match run {
            Some((start, end)) if i - end <= DIFF_MERGE_GAP => Some((start, i + 1)),
            Some((start, end)) => {
                emit(start, end);
                Some((i, i + 1))
            }
            None => Some((i, i + 1)),
        };
    }
    if let Some((start, end)) = run {
        emit(start, end);
    }
}

struct LoadedMachine {
    machine: artemis_ir::StateMachine,
    block: Block,
}

/// Reused per-event buffers: once installed, the production engine's
/// hot path allocates nothing.
struct Scratch {
    /// Bytecode register file.
    regs: Vec<Value>,
    /// Decoded variable snapshot.
    vars: Vec<Value>,
    /// Block image as loaded.
    block: Vec<u8>,
    /// Block image after the step.
    block_new: Vec<u8>,
    /// Verdict staging for read-back.
    verdicts: Vec<MonitorVerdict>,
    /// The delivery's interested worklist.
    worklist: Vec<u16>,
    /// The verdict cells a delivery emits, in order.
    staged: Vec<VerdictCell>,
    /// The delivery's one journal record.
    record: TxWriter,
}

/// An encoded verdict cell: `(machine index, (action tag, path))` —
/// the exact value one `verdict_cells` slot stores.
type VerdictCell = (u32, (u8, u32));

/// One machine's decoded shadow image. Live iff `gen` equals the
/// cache's current generation; `gen == 0` never matches (generations
/// start at 1), so a fresh entry is invalid without an extra flag.
#[derive(Clone)]
struct MachineShadow {
    gen: u64,
    state: u32,
    vars: Vec<Value>,
}

/// The volatile shadow of every FRAM location the hot path reads (see
/// the module docs, "Volatile shadow cache"). Between deliveries the
/// shadow contents equal the corresponding FRAM bytes within one reboot
/// epoch; during a delivery the stepped machines' shadows run ahead
/// until the record commits, and a failed delivery wipes the cache.
/// The [`MachineLayout`] encoding is canonical (`encode(decode(x)) == x`
/// for every engine-written image), which is what lets the machine
/// shadows store *decoded* `(state, vars)` and regenerate
/// byte-identical block images for change detection.
struct ShadowCache {
    /// [`Sram`](intermittent_sim::Sram) reboot generation the cache was
    /// last synced to.
    epoch: u64,
    /// Cache generation; a [`MachineShadow`] or verdict entry is live
    /// iff its tag equals this. Bumping it is the O(1) whole-cache
    /// invalidation.
    gen: u64,
    /// `true` once journal recovery has run (or a commit left the
    /// journal idle) in this epoch — lets steady-state deliveries skip
    /// the recovery flag read.
    journal_clean: bool,
    seq: Option<u64>,
    verdict_count: Option<u32>,
    /// Generation-tagged verdict cells, indexed like `verdict_cells`.
    verdicts: Vec<(u64, VerdictCell)>,
    machines: Vec<MachineShadow>,
    stats: CacheStats,
}

impl ShadowCache {
    fn new(epoch: u64, machines: usize, verdict_slots: usize) -> Self {
        ShadowCache {
            epoch,
            gen: 1,
            journal_clean: false,
            seq: None,
            verdict_count: None,
            verdicts: vec![(0, (0, (0, 0))); verdict_slots],
            machines: vec![
                MachineShadow {
                    gen: 0,
                    state: 0,
                    vars: Vec::new(),
                };
                machines
            ],
            stats: CacheStats::default(),
        }
    }

    /// Drops every entry in O(1): scalars go to `None`, tagged entries
    /// (machines, verdict cells) die by generation bump. Does not bump
    /// the invalidation counter — callers account the wipe (epoch
    /// syncs do; the defensive wipe after an interrupted entry point
    /// stays silent because the next epoch sync counts that reboot).
    fn wipe(&mut self) {
        self.gen += 1;
        self.journal_clean = false;
        self.seq = None;
        self.verdict_count = None;
    }
}

/// The engine. Create with [`MonitorEngine::install`] (the production
/// engine) or [`MonitorEngine::install_with`].
pub struct MonitorEngine {
    core: Core,
}

/// The engine [`InstallOptions`] selected.
enum Core {
    Production(Box<Production>),
    /// The volatile reference interpreter: no FRAM, no journal, no
    /// billing.
    Reference(RefCell<Interpreter>),
}

/// The production engine: bytecode, one FRAM block per machine, the
/// journal its deliveries commit through, and the volatile shadow of
/// its FRAM reads.
struct Production {
    /// Bytecode, dispatch tables, the routing index, and the task-name
    /// table interned once at install.
    compiled: Arc<CompiledSuite>,
    machines: Vec<LoadedMachine>,
    journal: Journal,
    seq_cell: NvCell<u64>,
    verdict_count: NvCell<u32>,
    verdict_cells: Vec<NvCell<VerdictCell>>,
    /// The volatile shadow of the hot path's FRAM reads.
    cache: RefCell<ShadowCache>,
    /// Dynamic executed-instruction counters (volatile, like the cache
    /// stats — see [`ExecStats`]).
    exec: RefCell<ExecStats>,
    scratch: RefCell<Scratch>,
}

impl MonitorEngine {
    /// Validates the suite against `app`, compiles it to bytecode, and
    /// allocates all persistent monitor state in FRAM (billed to the
    /// monitor component) — the production engine.
    pub fn install(
        dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
    ) -> Result<Self, InstallError> {
        Self::install_with(dev, suite, app, InstallOptions::default())
    }

    /// [`MonitorEngine::install`] with full [`InstallOptions`]: engine
    /// and size check, source validation, ahead-of-time compilation,
    /// the static analysis gate, then FRAM allocation.
    pub fn install_with(
        dev: &mut Device,
        suite: MonitorSuite,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        // Checked again at install proper; rejecting here skips
        // compiling a suite that can never install.
        check_install(suite.len(), &opts)?;
        validate_suite(&suite, app)?;
        // AOT compilation: slot indices, task-id dispatch tables and
        // bytecode. Suites that pass the checks above always compile;
        // the error arm guards hand-written machines.
        let compiled = CompiledSuite::compile(&suite, app).map_err(InstallError::Compile)?;
        Self::install_precompiled(dev, suite, compiled, app, opts)
    }

    /// Installs an already-compiled suite, skipping the source-level
    /// checks of [`MonitorEngine::install_with`] — the entry point for
    /// hand-assembled, mutated or unoptimized bytecode (built through
    /// [`artemis_ir::RawMachine`] or
    /// [`CompiledSuite::compile_with`]). The static analysis gate is
    /// *not* skippable: "verifier accepts ⇒ engine safe" holds precisely
    /// because every program the engine executes has passed it. `suite`
    /// must be the source the machines were compiled from (it supplies
    /// names, types and FRAM layout); a machine-count mismatch is
    /// itself an analysis error.
    pub fn install_precompiled(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: CompiledSuite,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        Self::install_precompiled_shared(dev, suite, Arc::new(compiled), app, opts)
    }

    /// [`MonitorEngine::install_precompiled`] over a *shared* compiled
    /// suite: many engines (one per simulated device) can hold the same
    /// immutable bytecode through an [`Arc`] instead of each carrying a
    /// private copy — the fleet harness compiles once per worker sweep,
    /// not once per device. All mutable monitor state (FRAM blocks,
    /// journal, caches, scratch) stays per-engine.
    ///
    /// The reference engine passes the same gate, so both engines
    /// accept exactly the same suites, and then touches neither FRAM
    /// nor the device's cost accounts.
    pub fn install_precompiled_shared(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: Arc<CompiledSuite>,
        app: &AppGraph,
        opts: InstallOptions,
    ) -> Result<Self, InstallError> {
        check_install(suite.len(), &opts)?;

        // Default journal capacity = the static worst-case record: the
        // larger of the whole-suite reset record and the worst key's
        // whole-event record (see `suite_bounds`).
        let bounds = artemis_ir::suite_bounds(&compiled);
        let floor = bounds.worst_commit_bytes;
        let capacity = opts.journal_capacity.unwrap_or(floor);
        // The analyzer checks the reset and per-key commits; an
        // override must also cover the rest of the worst-case figure
        // the derived capacity is sized by.
        if floor > capacity {
            return Err(InstallError::Analysis(artemis_spec::Diagnostic::error(
                "bounds",
                "journal",
                format!(
                    "worst-case commit of {floor} journal bytes exceeds the capacity of {capacity}"
                ),
            )));
        }

        // Static analysis gate — before anything touches FRAM. The
        // first (most severe) error rejects the install; warnings
        // surface on the trace.
        let mut diags = artemis_ir::analysis::analyze_suite(&suite, &compiled, Some(capacity));
        if let Some(profile) = opts.energy {
            diags.extend(artemis_ir::analysis::check_energy(
                &compiled, &bounds, app, &profile,
            ));
            artemis_spec::sort_diagnostics(&mut diags);
        }
        if !diags.is_empty() && diags[0].is_error() {
            return Err(InstallError::Analysis(diags.swap_remove(0)));
        }
        for d in diags {
            dev.trace_push(artemis_core::trace::TraceEvent::InstallWarning {
                message: d.to_string(),
            });
        }

        let core = if opts.mode == ExecMode::Interpreter {
            Core::Reference(RefCell::new(Interpreter::new(suite, app)))
        } else {
            let prev = dev.category();
            dev.set_category(CostCategory::Monitor);
            let production = Production::allocate(dev, suite, compiled, capacity);
            dev.set_category(prev);
            Core::Production(Box::new(production.map_err(InstallError::Device)?))
        };
        Ok(MonitorEngine { core })
    }

    /// The execution core the engine runs: [`ExecMode::Compiled`] for
    /// the production engine, [`ExecMode::Interpreter`] for the
    /// reference engine.
    pub fn mode(&self) -> ExecMode {
        match self.core {
            Core::Production(_) => ExecMode::Compiled,
            Core::Reference(_) => ExecMode::Interpreter,
        }
    }

    /// The dispatch the engine runs: [`RoutingMode::Routed`] for the
    /// production engine, [`RoutingMode::FullScan`] for the reference
    /// engine.
    pub fn routing_mode(&self) -> RoutingMode {
        match self.core {
            Core::Production(_) => RoutingMode::Routed,
            Core::Reference(_) => RoutingMode::FullScan,
        }
    }

    /// Shadow-cache effectiveness counters; all-zero on the reference
    /// engine, which keeps no cache. The engine-level mirror of
    /// `ArtemisRuntime::events_delivered`.
    pub fn cache_stats(&self) -> CacheStats {
        match &self.core {
            Core::Production(p) => p.cache.borrow().stats,
            Core::Reference(_) => CacheStats::default(),
        }
    }

    /// Dynamic bytecode execution counters (all-zero on the reference
    /// engine, which runs no bytecode). The measured side of the static
    /// [`CompiledMachine::step_cost`] ceilings: for every delivered
    /// event, `instructions` grows by at most the key's
    /// `step_cost(kind, task).instructions`.
    pub fn exec_stats(&self) -> ExecStats {
        match &self.core {
            Core::Production(p) => *p.exec.borrow(),
            Core::Reference(_) => ExecStats::default(),
        }
    }

    /// Pushes the current [`CacheStats`] onto the device trace ring
    /// buffer (`TraceEvent::CacheStats`) for debugging.
    pub fn trace_cache_stats(&self, dev: &mut Device) {
        let s = self.cache_stats();
        dev.trace_push(artemis_core::trace::TraceEvent::CacheStats {
            hits: s.hits,
            misses: s.misses,
            invalidations: s.invalidations,
        });
    }

    /// Costless read of every machine's `(state, vars)` — the
    /// production engine's FRAM-visible monitor state, the reference
    /// engine's interpreter state. For differential tests and
    /// debugging; does not bill the device.
    pub fn snapshot(&self, dev: &Device) -> Vec<(u32, Vec<Value>)> {
        match &self.core {
            Core::Production(p) => p.snapshot(dev),
            Core::Reference(r) => r.borrow().snapshot(),
        }
    }

    /// Number of installed machines.
    pub fn machine_count(&self) -> usize {
        match &self.core {
            Core::Production(p) => p.machines.len(),
            Core::Reference(r) => r.borrow().machine_count(),
        }
    }

    /// Machine names, in suite order.
    pub fn machine_names(&self) -> Vec<String> {
        match &self.core {
            Core::Production(p) => p.machines.iter().map(|m| m.machine.name.clone()).collect(),
            Core::Reference(r) => r.borrow().machine_names(),
        }
    }

    /// Hard reset: re-initialises every machine and clears the verdict
    /// log and sequence number (Figure 8 `resetMonitor`; run once at
    /// first boot).
    pub fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        match &self.core {
            Core::Production(p) => p.reset_monitor(dev),
            Core::Reference(r) => {
                r.borrow_mut().reset();
                Ok(())
            }
        }
    }

    /// Completes work a power failure interrupted, if any (Figure 8
    /// `monitorFinalize`; run on every reboot before task processing).
    /// On the production engine that is journal recovery alone: it
    /// returns `true` iff a torn record was replayed. An event whose
    /// record never reached its commit flag left nothing behind and
    /// re-runs whole when it is delivered again. The reference engine
    /// has nothing to finalise.
    pub fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        match &self.core {
            Core::Production(p) => p.monitor_finalize(dev),
            Core::Reference(_) => Ok(false),
        }
    }

    /// Delivers one event under a sequence number and returns the
    /// verdicts of every machine that reported a violation.
    ///
    /// Re-delivering the sequence number the engine processed last does
    /// not re-step machines; it returns the recorded verdicts.
    pub fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        match &self.core {
            Core::Production(p) => p.call_monitor(dev, seq, event),
            Core::Reference(r) => {
                let encoded = EncodedEvent::from_event(event, dev.energy_level().as_nano_joules());
                Ok(r.borrow_mut().deliver(seq, &encoded))
            }
        }
    }

    /// Reads back the verdicts of the most recently processed event.
    pub fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        match &self.core {
            Core::Production(p) => p.last_verdicts(dev),
            Core::Reference(r) => Ok(r.borrow().last_verdicts()),
        }
    }

    /// Re-initialises the machines affected by a restart of `path`
    /// (paper §3.3: monitors linked to tasks of a restarted path).
    pub fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        match &self.core {
            Core::Production(p) => p.on_path_restart(dev, path),
            Core::Reference(r) => {
                r.borrow_mut().restart_path(path);
                Ok(())
            }
        }
    }

    /// Resolves a task's id to the name index used in encoded events.
    pub fn encode_task(task: TaskId) -> u32 {
        task.0
    }
}

impl Production {
    /// Allocates the production engine's persistent state in FRAM: the
    /// journal, the sequence number, the verdict log and one block per
    /// machine, pre-imaged with its initial snapshot.
    fn allocate(
        dev: &mut Device,
        suite: MonitorSuite,
        compiled: Arc<CompiledSuite>,
        capacity: usize,
    ) -> Result<Self, Interrupt> {
        let owner = MemOwner::Monitor;
        let journal = dev.make_journal(capacity, owner)?;
        let seq_cell = dev.nv_alloc(0u64, owner, "monitor.seq")?;
        let verdict_count = dev.nv_alloc(0u32, owner, "monitor.verdicts.count")?;

        // One verdict cell per machine: an event steps each machine at
        // most once.
        let mut verdict_cells = Vec::with_capacity(suite.len());
        for i in 0..suite.len() {
            verdict_cells.push(dev.nv_alloc(
                (0u32, (0u8, 0u32)),
                owner,
                &format!("monitor.verdicts[{i}]"),
            )?);
        }

        let mut machines = Vec::with_capacity(suite.len());
        for (cmach, m) in compiled.machines().iter().zip(suite) {
            // The geometry and the snapshot come from the compiled
            // machine — install_precompiled callers may hand-assemble
            // machines, and the block must agree with the bytecode that
            // steps it.
            let layout = cmach.layout().clone();
            let mut initial_image = Vec::with_capacity(layout.block_len);
            layout.encode(cmach.initial_state(), cmach.var_inits(), &mut initial_image);
            let addr =
                dev.nv_alloc_raw(initial_image.len(), owner, &format!("{}.block", m.name))?;
            dev.nv_write_raw(addr, &initial_image)?;
            machines.push(LoadedMachine {
                machine: m,
                block: Block {
                    addr,
                    layout,
                    initial_image,
                },
            });
        }

        let max_vars = machines
            .iter()
            .map(|lm| lm.machine.vars.len())
            .max()
            .unwrap_or(0);
        let max_block = machines
            .iter()
            .map(|lm| lm.block.layout.block_len)
            .max()
            .unwrap_or(0);
        let scratch = RefCell::new(Scratch {
            regs: vec![Value::Int(0); compiled.max_regs()],
            vars: Vec::with_capacity(max_vars),
            block: Vec::with_capacity(max_block),
            block_new: Vec::with_capacity(max_block),
            verdicts: Vec::new(),
            worklist: Vec::with_capacity(machines.len()),
            staged: Vec::new(),
            record: TxWriter::new(),
        });

        // The epoch starts at the device's *current* reboot generation
        // so a freshly installed engine doesn't count a spurious
        // invalidation.
        let cache = RefCell::new(ShadowCache::new(
            dev.sram().generation(),
            machines.len(),
            verdict_cells.len(),
        ));
        Ok(Production {
            compiled,
            machines,
            journal,
            seq_cell,
            verdict_count,
            verdict_cells,
            cache,
            exec: RefCell::new(ExecStats::default()),
            scratch,
        })
    }

    /// Re-syncs the shadow cache with the device's reboot epoch —
    /// called on entry to every public path that touches FRAM. An
    /// epoch mismatch means at least one power failure happened since
    /// the cache was filled: SRAM was lost, and a torn commit may be
    /// pending, so the whole cache is invalidated in O(1) and the next
    /// recovery/read refills it (after journal replay — see the module
    /// docs for why replay-then-invalidate is safe).
    fn cache_sync(&self, dev: &Device) {
        let mut c = self.cache.borrow_mut();
        let epoch = dev.sram().generation();
        if c.epoch != epoch {
            c.epoch = epoch;
            c.wipe();
            c.stats.invalidations += 1;
        }
    }

    /// Runs `f` as one billed monitor entry point. If it returns `Err`
    /// (a power failure mid-delivery) anything staged since the last
    /// commit is suspect, so the whole cache is wiped — silently on the
    /// counters: the epoch sync after the reboot accounts the
    /// invalidation.
    fn entry<T>(
        &self,
        dev: &mut Device,
        f: impl FnOnce(&mut Device) -> Result<T, Interrupt>,
    ) -> Result<T, Interrupt> {
        let r = dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            f(dev)
        });
        if r.is_err() {
            self.cache.borrow_mut().wipe();
        }
        r
    }

    /// Journal recovery with the known-clean fast path: once recovery
    /// (or a completed commit) has left the journal idle in this
    /// epoch, the flag re-read is skipped entirely. Returns `true` iff
    /// a torn record was replayed.
    fn recover_cached(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        if self.cache.borrow().journal_clean {
            self.cache.borrow_mut().stats.hits += 1;
            return Ok(false);
        }
        let replayed = dev.recover(&self.journal)?;
        let mut c = self.cache.borrow_mut();
        c.journal_clean = true;
        c.stats.misses += 1;
        Ok(replayed)
    }

    /// Generic shadow-aware scalar read: serve from the shadow when
    /// present, else read FRAM and fill the shadow.
    fn cache_read<T: Clone>(
        &self,
        dev: &mut Device,
        get: impl Fn(&ShadowCache) -> Option<T>,
        put: impl Fn(&mut ShadowCache, &T),
        read: impl FnOnce(&mut Device) -> Result<T, Interrupt>,
    ) -> Result<T, Interrupt> {
        let hit = get(&self.cache.borrow());
        if let Some(v) = hit {
            self.cache.borrow_mut().stats.hits += 1;
            return Ok(v);
        }
        let v = read(dev)?;
        let mut c = self.cache.borrow_mut();
        put(&mut c, &v);
        c.stats.misses += 1;
        Ok(v)
    }

    /// Fills `scratch.block` with the first `span` bytes of machine
    /// `i`'s block image — from the shadow when warm, else one
    /// whole-block FRAM read that also refills the shadow, so the
    /// *next* touch is free. The cold fill reads the whole block, not
    /// just the span: the static bounds price the difference as
    /// `EventCost::cold_extra_read_bytes`.
    fn load_block_cached(
        &self,
        dev: &mut Device,
        i: usize,
        span: usize,
        scratch: &mut Scratch,
    ) -> Result<(), Interrupt> {
        let block = &self.machines[i].block;
        let hit = {
            let c = self.cache.borrow();
            let ms = &c.machines[i];
            if ms.gen == c.gen {
                block.layout.encode(ms.state, &ms.vars, &mut scratch.block);
                scratch.block.truncate(span);
                true
            } else {
                false
            }
        };
        if hit {
            self.cache.borrow_mut().stats.hits += 1;
            return Ok(());
        }
        {
            let bytes = dev.nv_read_raw(block.addr, block.layout.block_len)?;
            scratch.block.clear();
            scratch.block.extend_from_slice(bytes);
        }
        let mut c = self.cache.borrow_mut();
        let ShadowCache { gen, machines, .. } = &mut *c;
        let ms = &mut machines[i];
        block
            .layout
            .decode(&scratch.block, &mut ms.state, &mut ms.vars);
        ms.gen = *gen;
        c.stats.misses += 1;
        scratch.block.truncate(span);
        Ok(())
    }

    /// Folds a step's new state and written slots into machine `i`'s
    /// shadow, which the step has just loaded (so it is warm). The
    /// shadow then runs ahead of FRAM until the delivery's record
    /// commits; a delivery that fails first wipes the cache.
    fn shadow_machine_update(&self, i: usize, state: u32, vars: &[Value], writes: &[u16]) {
        let c = &mut *self.cache.borrow_mut();
        let ms = &mut c.machines[i];
        if ms.gen == c.gen {
            ms.state = state;
            for &slot in writes {
                ms.vars[slot as usize] = vars[slot as usize];
            }
        }
    }

    /// Re-images every machine `reset` selects to its initial snapshot
    /// in the shadows, after a commit that wrote those images to FRAM.
    fn shadow_reset(&self, reset: impl Fn(&LoadedMachine) -> bool) {
        let c = &mut *self.cache.borrow_mut();
        c.journal_clean = true;
        for (ms, lm) in c.machines.iter_mut().zip(&self.machines) {
            if reset(lm) {
                let b = &lm.block;
                b.layout
                    .decode(&b.initial_image, &mut ms.state, &mut ms.vars);
                ms.gen = c.gen;
            }
        }
    }

    /// Shadow-aware read of the verdict-log length.
    fn read_verdict_count_cached(&self, dev: &mut Device) -> Result<u32, Interrupt> {
        self.cache_read(
            dev,
            |c| c.verdict_count,
            |c, v| c.verdict_count = Some(*v),
            |d| d.nv_read(&self.verdict_count),
        )
    }

    /// Shadow-aware read of one verdict cell.
    fn read_verdict_cell_cached(
        &self,
        dev: &mut Device,
        slot: usize,
    ) -> Result<VerdictCell, Interrupt> {
        self.cache_read(
            dev,
            |c| (c.verdicts[slot].0 == c.gen).then_some(c.verdicts[slot].1),
            |c, v| {
                let gen = c.gen;
                c.verdicts[slot] = (gen, *v);
            },
            |d| d.nv_read(&self.verdict_cells[slot]),
        )
    }

    /// Every machine's `(state, vars)`, decoded from its FRAM block
    /// without billing.
    fn snapshot(&self, dev: &Device) -> Vec<(u32, Vec<Value>)> {
        self.machines
            .iter()
            .map(|lm| {
                let b = &lm.block;
                let mut vars = Vec::new();
                let mut state = 0u32;
                b.layout.decode(
                    dev.peek_raw(b.addr, b.layout.block_len),
                    &mut state,
                    &mut vars,
                );
                (state, vars)
            })
            .collect()
    }

    /// See [`MonitorEngine::reset_monitor`].
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.entry(dev, |dev| {
            let mut tx = TxWriter::new();
            for lm in &self.machines {
                tx.append_raw(lm.block.addr, &lm.block.initial_image);
            }
            tx.write(&self.verdict_count, 0u32);
            tx.write(&self.seq_cell, 0u64);
            dev.commit(&self.journal, &tx)?;
            // The reset commit just (re)wrote every location the cache
            // mirrors — fill all the shadows, so even the first event
            // after a reset runs write-only.
            self.shadow_reset(|_| true);
            let mut c = self.cache.borrow_mut();
            c.seq = Some(0);
            c.verdict_count = Some(0);
            Ok(())
        })
    }

    /// See [`MonitorEngine::monitor_finalize`].
    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        self.entry(dev, |dev| self.recover_cached(dev))
    }

    /// See [`MonitorEngine::call_monitor`].
    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.entry(dev, |dev| {
            self.recover_cached(dev)?;
            let last_seq = self.cache_read(
                dev,
                |c| c.seq,
                |c, v| c.seq = Some(*v),
                |d| d.nv_read(&self.seq_cell),
            )?;
            if last_seq == seq {
                return self.read_verdicts(dev);
            }
            let encoded = EncodedEvent::from_event(event, dev.energy_level().as_nano_joules());
            self.deliver(dev, seq, &encoded)
        })
    }

    /// See [`MonitorEngine::last_verdicts`].
    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        dev.billed(CostCategory::Monitor, |dev| {
            self.cache_sync(dev);
            self.read_verdicts(dev)
        })
    }

    /// See [`MonitorEngine::on_path_restart`].
    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        let restarted = |lm: &LoadedMachine| {
            lm.machine.reset_on_path_restart && lm.machine.path == Some(path.number())
        };
        self.entry(dev, |dev| {
            let mut tx = TxWriter::new();
            for lm in self.machines.iter().filter(|lm| restarted(lm)) {
                tx.append_raw(lm.block.addr, &lm.block.initial_image);
            }
            dev.commit(&self.journal, &tx)?;
            // The commit rewrote the affected machines' images to
            // their initial snapshots — mirror that in their shadows.
            self.shadow_reset(restarted);
            Ok(())
        })
    }

    /// Computes the event's interested worklist (routing-index lookup +
    /// the dynamic `Path:` filter, both deterministic functions of the
    /// event) into `worklist`.
    fn compute_worklist(&self, encoded: &EncodedEvent, worklist: &mut Vec<u16>) {
        worklist.clear();
        worklist.extend(
            self.compiled
                .routing()
                .interested(encoded.kind(), encoded.task)
                .iter()
                .filter(|&&mi| !encoded.path_excludes(self.machines[mi as usize].machine.path)),
        );
    }

    /// Production delivery under a fresh sequence number: steps every
    /// worklisted machine against its shadow image, then commits the
    /// whole event as **one** sparse record — every machine's dirty-diff
    /// runs, the verdict cells, the verdict count and the sequence
    /// number. Nothing reaches FRAM before that record's flag, so a
    /// power failure anywhere in the delivery either leaves no trace
    /// (the event re-runs whole on redelivery) or is repaired by
    /// replay.
    fn deliver(
        &self,
        dev: &mut Device,
        seq: u64,
        encoded: &EncodedEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        dev.compute(ROUTING_LOOKUP_CYCLES)?;
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.record.clear();
        scratch.staged.clear();
        self.compute_worklist(encoded, &mut scratch.worklist);
        for j in 0..scratch.worklist.len() {
            let mi = scratch.worklist[j];
            self.step_compiled(dev, mi, encoded, scratch)?;
        }

        for (slot, &cell) in scratch.staged.iter().enumerate() {
            scratch.record.write(&self.verdict_cells[slot], cell);
        }
        let count = scratch.staged.len() as u32;
        scratch.record.write(&self.verdict_count, count);
        scratch.record.write(&self.seq_cell, seq);
        dev.commit(&self.journal, &scratch.record)?;
        {
            let c = &mut *self.cache.borrow_mut();
            c.journal_clean = true;
            c.seq = Some(seq);
            c.verdict_count = Some(count);
            for (slot, &cell) in scratch.staged.iter().enumerate() {
                c.verdicts[slot] = (c.gen, cell);
            }
        }

        // The common case (no verdicts) allocates nothing.
        Ok(scratch
            .staged
            .iter()
            .filter_map(|&(i, action)| {
                Some(MonitorVerdict {
                    machine_index: i as usize,
                    machine: self.machines[i as usize].machine.name.clone(),
                    action: decode_action(action)?,
                })
            })
            .collect())
    }

    /// Production step of machine `i` inside a delivery:
    /// dispatch-table trigger test, the key's covering slot span from
    /// the shadow (one whole-block FRAM read when cold), then the
    /// changed bytes appended to the delivery's record and the verdict,
    /// if any, to its staged list.
    ///
    /// Soundness: the access set over-approximates every slot the
    /// dispatched bytecode can read or write, so slots outside the
    /// loaded span are never observed (they are placeholder-filled to
    /// keep slot indexing in bounds) and slots outside the write set
    /// cannot change. The re-encoded span is diffed byte-for-byte
    /// against the authoritative old image (canonical encoding makes
    /// the comparison exact), and only the changed runs are staged.
    fn step_compiled(
        &self,
        dev: &mut Device,
        i: u16,
        encoded: &EncodedEvent,
        scratch: &mut Scratch,
    ) -> Result<(), Interrupt> {
        let i = usize::from(i);
        let cm = &self.compiled.machines()[i];
        let kind = encoded.kind();

        // O(1) trigger test off the dispatch table: a dismissed machine
        // has no transition that could match, so the reference step
        // would be an implicit self-transition.
        if cm.dispatch_len(kind, encoded.task) == 0 {
            return dev.compute(COMPILED_DISPATCH_CYCLES);
        }
        // Bill the key's static compute ceiling (cycle-priced worst
        // path through the dispatched transitions). Static and
        // state-independent, so the charge never leaks machine state —
        // and the bounds/energy passes can price the exact same table.
        dev.compute(COMPILED_DISPATCH_CYCLES + cm.step_cost(kind, encoded.task).cycles)?;

        let access = cm.access(kind, encoded.task);
        let lm = &self.machines[i];
        let block = &lm.block;
        let covered = access.max_touched_slot().map_or(0, |s| s as usize + 1);
        let span = block.layout.span(access.max_touched_slot());

        self.load_block_cached(dev, i, span, scratch)?;
        let mut state = 0u32;
        block
            .layout
            .decode_prefix(&scratch.block, covered, &mut state, &mut scratch.vars);
        scratch.vars.resize(cm.var_count(), Value::Int(0));

        let emit = self.run_bytecode(cm, &mut state, encoded, scratch);

        block
            .layout
            .encode_prefix(state, &scratch.vars, covered, &mut scratch.block_new);
        let Scratch {
            block: old,
            block_new: new,
            record,
            ..
        } = scratch;
        diff_runs(old, new, |s, e| {
            record.append_raw(block.addr + s, &new[s..e])
        });
        if let Some(fail) = emit {
            let action = encode_action(fail.action, fail.path.or(lm.machine.path));
            scratch.staged.push((i as u32, action));
        }
        self.shadow_machine_update(i, state, &scratch.vars, &access.writes);
        Ok(())
    }

    /// Steps machine `cm` over `encoded` through the bytecode core,
    /// counting executed instructions. Evaluation errors cannot occur
    /// on validated machines; they are treated as accept-silently to
    /// keep the monitor total (the C monitor has no error channel
    /// either). Partial variable mutations are kept, as on the
    /// reference engine.
    fn run_bytecode<'c>(
        &self,
        cm: &'c CompiledMachine,
        state: &mut u32,
        encoded: &EncodedEvent,
        scratch: &mut Scratch,
    ) -> Option<&'c EmitFail> {
        let event = CompiledEvent {
            kind: encoded.kind(),
            task: encoded.task,
            ctx: encoded.ctx(),
        };
        let mut executed = 0u64;
        let emit = cm
            .step_counting(
                state,
                &mut scratch.vars,
                &event,
                &mut scratch.regs,
                &mut executed,
            )
            .unwrap_or(None);
        let mut exec = self.exec.borrow_mut();
        exec.instructions += executed;
        exec.machine_steps += 1;
        emit
    }

    fn read_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let count = self.read_verdict_count_cached(dev)?;
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.verdicts.clear();
        for slot in 0..count {
            let (machine_index, encoded) = self.read_verdict_cell_cached(dev, slot as usize)?;
            let machine_index = machine_index as usize;
            if let Some(action) = decode_action(encoded) {
                scratch.verdicts.push(MonitorVerdict {
                    machine_index,
                    machine: self.machines[machine_index].machine.name.clone(),
                    action,
                });
            }
        }
        // The common case (no verdicts) allocates nothing: staging
        // reuses the scratch buffer and the empty result has no heap.
        if scratch.verdicts.is_empty() {
            Ok(Vec::new())
        } else {
            Ok(scratch.verdicts.clone())
        }
    }
}

impl Monitoring for MonitorEngine {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        MonitorEngine::reset_monitor(self, dev)
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        MonitorEngine::monitor_finalize(self, dev)
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        MonitorEngine::call_monitor(self, dev, seq, event)
    }

    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        MonitorEngine::last_verdicts(self, dev)
    }

    fn machine_names(&self) -> Vec<String> {
        MonitorEngine::machine_names(self)
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        MonitorEngine::on_path_restart(self, dev, path)
    }

    fn machine_count(&self) -> usize {
        MonitorEngine::machine_count(self)
    }
}

/// Encodes an action as `(tag, one-based path or 0)`.
fn encode_action(action: OnFail, path: Option<u32>) -> (u8, u32) {
    let tag = match action {
        OnFail::RestartTask => 0,
        OnFail::SkipTask => 1,
        OnFail::RestartPath => 2,
        OnFail::SkipPath => 3,
        OnFail::CompletePath => 4,
    };
    (tag, path.unwrap_or(0))
}

fn decode_action(encoded: (u8, u32)) -> Option<Action> {
    let (tag, path_num) = encoded;
    let path = || PathId(path_num.saturating_sub(1));
    Some(match tag {
        0 => Action::RestartTask,
        1 => Action::SkipTask,
        2 => Action::RestartPath(path()),
        3 => Action::SkipPath(path()),
        4 => Action::CompletePath(path()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::event::EventKind;
    use artemis_core::time::SimDuration;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;
    use intermittent_sim::simulator::{RunLimit, Simulator};

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("accel");
        let s = b.task("send");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    fn engine(dev: &mut Device, spec: &str) -> (MonitorEngine, AppGraph) {
        let app = app();
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let engine = MonitorEngine::install(dev, suite, &app).unwrap();
        engine.reset_monitor(dev).unwrap();
        (engine, app)
    }

    fn t(us: u64) -> artemis_core::time::SimInstant {
        artemis_core::time::SimInstant::from_micros(us)
    }

    #[test]
    fn max_tries_verdict_flows_through_engine() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 2 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();

        let mut seq = 0u64;
        let mut deliver = |dev: &mut Device, ev: MonitorEvent| {
            seq += 1;
            engine.call_monitor(dev, seq, &ev).unwrap()
        };
        assert!(deliver(&mut dev, MonitorEvent::start(accel, t(0))).is_empty());
        assert!(deliver(&mut dev, MonitorEvent::start(accel, t(1))).is_empty());
        let verdicts = deliver(&mut dev, MonitorEvent::start(accel, t(2)));
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].action, Action::SkipPath(PathId(0)));
        assert!(verdicts[0].machine.starts_with("accel_maxTries"));
    }

    #[test]
    fn same_seq_redelivery_does_not_double_step() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(
            &mut dev,
            "send { collect: 2 dpTask: accel onFail: restartPath; }",
        );
        let accel = app.task_by_name("accel").unwrap();
        let send = app.task_by_name("send").unwrap();

        // Deliver the same EndTask three times under one seq: it must
        // count as ONE completion.
        let end = MonitorEvent::end(accel, t(10));
        for _ in 0..3 {
            engine.call_monitor(&mut dev, 7, &end).unwrap();
        }
        // One more completion under a fresh seq.
        engine
            .call_monitor(&mut dev, 8, &MonitorEvent::end(accel, t(20)))
            .unwrap();
        // Two completions total: the consumer start must pass.
        let verdicts = engine
            .call_monitor(&mut dev, 9, &MonitorEvent::start(send, t(30)))
            .unwrap();
        assert!(
            verdicts.is_empty(),
            "redelivery double-counted: {verdicts:?}"
        );
    }

    #[test]
    fn verdicts_survive_redelivery_queries() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 1 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        let v1 = engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap();
        assert_eq!(v1.len(), 1);
        // Same seq again: identical verdicts, no extra stepping.
        let v2 = engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap();
        assert_eq!(v1, v2);
        assert_eq!(engine.last_verdicts(&mut dev).unwrap(), v1);
    }

    #[test]
    fn path_restart_resets_only_flagged_machines() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(
            &mut dev,
            "accel { maxTries: 2 onFail: skipPath; }\n\
             send { collect: 2 dpTask: accel onFail: restartPath; }",
        );
        let accel = app.task_by_name("accel").unwrap();

        // Burn one maxTries attempt and one collect completion.
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        engine
            .call_monitor(&mut dev, 2, &MonitorEvent::end(accel, t(1)))
            .unwrap();

        engine.on_path_restart(&mut dev, PathId(0)).unwrap();

        // maxTries (resettable) got a fresh budget: two more starts pass.
        assert!(engine
            .call_monitor(&mut dev, 3, &MonitorEvent::start(accel, t(2)))
            .unwrap()
            .is_empty());
        assert!(engine
            .call_monitor(&mut dev, 4, &MonitorEvent::start(accel, t(3)))
            .unwrap()
            .is_empty());

        // collect (persistent) kept its count: one more end reaches 2.
        engine
            .call_monitor(&mut dev, 5, &MonitorEvent::end(accel, t(4)))
            .unwrap();
        let send = app.task_by_name("send").unwrap();
        assert!(engine
            .call_monitor(&mut dev, 6, &MonitorEvent::start(send, t(5)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn engine_survives_power_failures_mid_event() {
        // Tiny budget: event processing will be interrupted repeatedly;
        // monitorFinalize must complete it without double-counting.
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(700)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let (engine, app) = engine(
            &mut dev,
            "send { collect: 5 dpTask: accel onFail: restartPath; }\n\
             accel { maxTries: 100 onFail: skipPath; }",
        );
        let accel = app.task_by_name("accel").unwrap();
        let send = app.task_by_name("send").unwrap();

        // Deliver exactly 5 accel completions (seq 1..=5) across power
        // failures, then a send start (seq 6): must pass.
        let sim = Simulator::new(RunLimit::reboots(10_000));
        let delivered = dev.nv_alloc::<u64>(0, MemOwner::App, "delivered").unwrap();
        let outcome = sim.run(&mut dev, &mut |dev: &mut Device| {
            engine.monitor_finalize(dev)?;
            loop {
                let n = dev.nv_read(&delivered)?;
                if n >= 5 {
                    break;
                }
                let seq = n + 1;
                engine.call_monitor(dev, seq, &MonitorEvent::end(accel, t(seq * 10)))?;
                dev.nv_write(&delivered, n + 1)?;
            }
            engine.call_monitor(dev, 6, &MonitorEvent::start(send, t(100)))
        });
        let verdicts = outcome.completed().expect("run must complete");
        assert!(
            verdicts.is_empty(),
            "power failures corrupted the collect count: {verdicts:?}"
        );
        assert!(dev.reboots() > 0, "test needs actual power failures");
    }

    #[test]
    fn install_rejects_unknown_tasks_and_missing_paths() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();

        // A hand-written machine observing a ghost task.
        let suite = artemis_ir::parse::parse_suite(
            "machine g task ghost persistent { state S initial; \
             on startTask(ghost) from S to S { }; }",
        )
        .unwrap();
        assert!(matches!(
            MonitorEngine::install(&mut dev, suite, &app),
            Err(InstallError::UnknownTask { .. })
        ));

        // A path-directed action with no path anywhere.
        let suite = artemis_ir::parse::parse_suite(
            "machine p task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipPath; }",
        )
        .unwrap();
        assert!(matches!(
            MonitorEngine::install(&mut dev, suite, &app),
            Err(InstallError::MissingPath { .. })
        ));

        // An invalid machine (unknown guard variable).
        let suite = artemis_ir::parse::parse_suite(
            "machine v task accel persistent { state S initial; \
             on anyEvent from S to S if ghost > 0 { }; }",
        )
        .unwrap();
        assert!(matches!(
            MonitorEngine::install(&mut dev, suite, &app),
            Err(InstallError::Invalid(_))
        ));
    }

    #[test]
    fn install_rejects_out_of_bounds_bytecode_untouched_fram() {
        use artemis_ir::compile::Op;
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        let mut compiled = CompiledSuite::compile(&suite, &app).unwrap();

        // Corrupt one variable access to point far past the slot table.
        let mut raw = compiled.machines()[0].to_raw();
        let mutated = raw.code.iter_mut().find_map(|op| match op {
            Op::LoadVar { slot, .. } | Op::StoreVar { slot, .. } => {
                *slot = 999;
                Some(())
            }
            _ => None,
        });
        assert!(mutated.is_some(), "maxTries bytecode must touch a variable");
        compiled.set_machine(0, raw);

        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install_precompiled(
            &mut dev,
            suite,
            compiled,
            &app,
            InstallOptions::default(),
        )
        .err()
        .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "verifier");
            }
            other => panic!("expected an analysis rejection, got {other}"),
        }
        assert_eq!(
            dev.fram().used_by(MemOwner::Monitor),
            before,
            "a rejected install must not touch FRAM"
        );
    }

    #[test]
    fn install_rejects_over_budget_journal_capacity() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 5 onFail: skipPath; }", &app).unwrap();
        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install_with(
            &mut dev,
            suite,
            &app,
            InstallOptions {
                journal_capacity: Some(16),
                ..InstallOptions::default()
            },
        )
        .err()
        .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "bounds");
            }
            other => panic!("expected a bounds rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), before);
    }

    #[test]
    fn install_rejects_conflicting_unguarded_actions() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        // Both machines provably fire on the first start(accel) and
        // hand the runtime opposite task-scoped actions.
        let suite = artemis_ir::parse::parse_suite(
            "machine x task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail skipTask; }\n\
             machine y task accel persistent { state S initial; \
             on startTask(accel) from S to S { } fail restartTask; }",
        )
        .unwrap();
        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install(&mut dev, suite, &app)
            .err()
            .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "conflicts");
                assert!(d.message.contains("arbitration"), "{}", d.message);
            }
            other => panic!("expected a conflict rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), before);
    }

    /// Suite sizes the bounds exactness pins run at: the historical
    /// 8-machine dispatch shape and a wide suite past the 64-machine
    /// mark, whose whole-event record carries 72 machines' runs.
    const PIN_SIZES: [usize; 2] = [8, 72];

    /// FRAM traffic of a run: (read ops, write ops, read bytes, write
    /// bytes).
    type FramTally = (usize, usize, usize, usize);

    /// Installs `suite` on the production engine, resets it, delivers
    /// `events` `start(t0)` events, and returns the FRAM traffic of the
    /// deliveries.
    fn tally_start_events(suite: &MonitorSuite, app: &AppGraph, events: u64) -> FramTally {
        let t0 = app.task_by_name("t0").unwrap();
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite.clone(), app).unwrap();
        assert_eq!(engine.routing_mode(), RoutingMode::Routed);
        engine.reset_monitor(&mut dev).unwrap();
        let f = dev.fram();
        let before = (f.read_ops(), f.write_ops(), f.read_bytes(), f.write_bytes());
        for seq in 1..=events {
            engine
                .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                .unwrap();
        }
        let f = dev.fram();
        (
            (f.read_ops() - before.0) as usize,
            (f.write_ops() - before.1) as usize,
            (f.read_bytes() - before.2) as usize,
            (f.write_bytes() - before.3) as usize,
        )
    }

    /// The `start(t0)` key of a suite's static bounds.
    fn start_t0_key(compiled: &CompiledSuite) -> artemis_ir::analysis::bounds::EventCost {
        artemis_ir::suite_bounds(compiled)
            .per_key
            .into_iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(0))
            .unwrap()
    }

    /// Asserts that `events` warm deliveries cost exactly the static
    /// warm-cache model of `key`: no reads at all, and exactly the
    /// modelled writes and write bytes.
    fn assert_warm_model_exact(
        suite: &MonitorSuite,
        app: &AppGraph,
        key: &artemis_ir::analysis::bounds::EventCost,
        events: u64,
        ctx: &str,
    ) {
        let n = events as usize;
        let (reads, writes, read_bytes, write_bytes) = tally_start_events(suite, app, events);
        assert_eq!((reads, read_bytes), (0, 0), "warm reads ({ctx})");
        assert_eq!(writes, key.writes * n, "write model drifted ({ctx})");
        assert_eq!(
            write_bytes,
            key.write_bytes * n,
            "write-byte model drifted ({ctx})"
        );
    }

    /// Pins the static FRAM cost model of `artemis_ir::analysis::bounds`
    /// to the engine it describes, on a suite where the engine's
    /// dirty-diff runs coincide with the slot-granular sub-writes the
    /// model prices: every machine flips its state and a `Bool` slot 8
    /// bytes past the state byte on every event, so each machine adds
    /// exactly two one-byte runs (no merge) to the event's one record.
    /// The record's `2 + 2·machines` sub-writes plus 3 must equal the
    /// engine's billed writes exactly, at 8 machines and past 64.
    #[test]
    fn bounds_model_matches_engine_delta() {
        const EVENTS: u64 = 20;
        for machines in PIN_SIZES {
            let (suite, app) = flip_suite(machines, 4);
            let compiled = CompiledSuite::compile(&suite, &app).unwrap();
            let key = start_t0_key(&compiled);
            assert_eq!(key.machines, machines);
            // Flag + seq, one span read per machine, readback count.
            assert_eq!(key.reads, 2 + machines + 1);
            // One record: seq, verdict count, and state + |W| = 2
            // sub-writes per machine, plus stage, flag and clear.
            assert_eq!(key.writes, 2 + machines * 2 + 3);
            // Warm deliveries are WRITE-ONLY (the headline cache bound),
            // and a reboot's refill is flag + seq + one whole-block fill
            // per armed machine.
            assert_eq!(key.cold_extra_reads, 2 + machines);
            assert_warm_model_exact(&suite, &app, &key, EVENTS, &format!("{machines} machines"));
        }
    }

    /// Off the flip workload the dirty-diff runs undercut the
    /// slot-granular model, which stays a bound: on the sparse
    /// increment workload the state word never changes and only the
    /// counter's low byte does, so each machine adds 1 sub-write to the
    /// record instead of the modelled 2 (state + slot).
    #[test]
    fn diff_commits_undercut_the_model() {
        const MACHINES: usize = 8;
        const EVENTS: u64 = 20;

        let (suite, app) = dispatch_suite(MACHINES, 1);
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let key = start_t0_key(&compiled);
        let (reads, writes, _, write_bytes) = tally_start_events(&suite, &app, EVENTS);

        // Warm deliveries stay write-only, each machine adds one
        // sub-write (one FRAM write) instead of two, and both figures
        // stay under the slot-granular static model.
        assert_eq!(reads, 0, "diff path must stay write-only when warm");
        assert_eq!(key.writes, 2 + MACHINES * 2 + 3);
        assert_eq!(writes, (2 + MACHINES + 3) * EVENTS as usize);
        assert!(writes < key.writes * EVENTS as usize);
        assert!(
            write_bytes <= key.write_bytes * EVENTS as usize,
            "diff write bytes {write_bytes} must stay under the model {}",
            key.write_bytes * EVENTS as usize
        );
    }

    /// A two-task app (`t0`, `t1` on one path) for hand-built suites.
    fn t0_app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let t0 = b.task("t0");
        let t1 = b.task("t1");
        b.path(&[t0, t1]);
        b.build().unwrap()
    }

    /// Builds the dispatch-workload suite the bounds exactness tests
    /// use: `machines` identical machines over 12 int vars, each
    /// incrementing the first `writes` slots on `startTask(t0)`.
    fn dispatch_suite(machines: usize, writes: usize) -> (MonitorSuite, AppGraph) {
        use artemis_ir::expr::{BinOp, Expr, Value, VarType};
        use artemis_ir::fsm::{StateMachine, Stmt, TaskPat, Transition, Trigger};

        const VARS: usize = 12;
        let mut suite = MonitorSuite::new();
        for m in 0..machines {
            let mut sm = StateMachine::new(&format!("m{m}"), "t0");
            for v in 0..VARS {
                sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
            }
            sm.add_state("S");
            sm.transitions.push(Transition {
                from: 0,
                to: 0,
                trigger: Trigger::Start(TaskPat::named("t0")),
                guard: None,
                body: (0..writes)
                    .map(|v| {
                        Stmt::Assign(
                            format!("v{v}"),
                            Expr::bin(BinOp::Add, Expr::var(&format!("v{v}")), Expr::int(1)),
                        )
                    })
                    .collect(),
                emit: None,
            });
            suite.push(sm);
        }
        (suite, t0_app())
    }

    /// Builds the flip workload: `machines` machines alternating between
    /// states `A` and `B` on every `startTask(t0)`, setting the `Bool`
    /// slot `b` to `true` on the way to `B` and `false` on the way back.
    /// An untouched `Float` slot sits between the state byte and `b`
    /// (so the two changed bytes are 8 apart and never merge into one
    /// diff run), and `floats` more untouched `Float` slots follow.
    fn flip_suite(machines: usize, floats: usize) -> (MonitorSuite, AppGraph) {
        use artemis_ir::expr::{Expr, Value, VarType};
        use artemis_ir::fsm::{StateMachine, Stmt, TaskPat, Transition, Trigger};

        let mut suite = MonitorSuite::new();
        for m in 0..machines {
            let mut sm = StateMachine::new(&format!("m{m}"), "t0");
            sm.add_var("f", VarType::Float, Value::Float(0.0));
            sm.add_var("b", VarType::Bool, Value::Bool(false));
            for v in 0..floats {
                sm.add_var(&format!("g{v}"), VarType::Float, Value::Float(0.0));
            }
            sm.add_state("A");
            sm.add_state("B");
            for (from, to, value) in [(0, 1, true), (1, 0, false)] {
                sm.transitions.push(Transition {
                    from,
                    to,
                    trigger: Trigger::Start(TaskPat::named("t0")),
                    guard: None,
                    body: vec![Stmt::Assign("b".into(), Expr::Lit(Value::Bool(value)))],
                    emit: None,
                });
            }
            suite.push(sm);
        }
        (suite, t0_app())
    }

    /// The dynamic executed-instruction counters must agree with the
    /// static per-key instruction ceilings: equal on an unguarded
    /// workload (the only path *is* the worst path), and bounded by
    /// them wherever guards can exit early. This is the measured side
    /// of the ceiling the engine bills compute through.
    #[test]
    fn exec_counters_match_static_instruction_ceiling() {
        const EVENTS: u64 = 20;
        const MACHINES: usize = 4;
        let (suite, app) = dispatch_suite(MACHINES, 3);
        let t0 = app.task_by_name("t0").unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let per_event: u64 = compiled
            .machines()
            .iter()
            .map(|m| m.step_cost(EventKind::StartTask, 0).instructions)
            .sum();
        assert!(per_event > 0, "dispatching key must have a nonzero ceiling");

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        assert_eq!(engine.exec_stats(), ExecStats::default());
        for seq in 1..=EVENTS {
            engine
                .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                .unwrap();
        }
        let stats = engine.exec_stats();
        assert_eq!(stats.machine_steps, EVENTS * MACHINES as u64);
        // Single unguarded transition per machine: executed == ceiling.
        assert_eq!(stats.instructions, EVENTS * per_event);

        // The reference engine runs no bytecode: counters stay zero.
        let mut dev_i = DeviceBuilder::msp430fr5994().build();
        let engine_i =
            MonitorEngine::install_with(&mut dev_i, suite, &app, InstallOptions::reference())
                .unwrap();
        engine_i.reset_monitor(&mut dev_i).unwrap();
        engine_i
            .call_monitor(&mut dev_i, 1, &MonitorEvent::start(t0, t(1)))
            .unwrap();
        assert_eq!(engine_i.exec_stats(), ExecStats::default());
    }

    /// The energy twin of [`bounds_model_matches_engine_delta`]:
    /// per-event predicted warm delivery energy (ops, bytes and cycles
    /// priced through the device's cost model) must equal the
    /// simulator's measured monitor-category draw exactly on the flip
    /// workload (diff = slot-granular), and dominate it on the dense
    /// workload, whose dirty diffs undercut the slot-granular model;
    /// the warm-or-cold ceiling must dominate both. This is what lets
    /// the install-time feasibility analysis trust its per-attempt
    /// numbers.
    #[test]
    fn energy_model_matches_engine() {
        use artemis_ir::analysis::{event_energy, event_energy_cached};

        const EVENTS: u64 = 20;

        for (exact, (suite, app)) in [(false, dispatch_suite(8, 12)), (true, flip_suite(8, 4))] {
            let t0 = app.task_by_name("t0").unwrap();
            let compiled = CompiledSuite::compile(&suite, &app).unwrap();
            let key = start_t0_key(&compiled);

            let mut dev = DeviceBuilder::msp430fr5994().build();
            let model = *dev.cost_model();
            let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
            engine.reset_monitor(&mut dev).unwrap();

            let spent0 = dev.stats().energy(CostCategory::Monitor);
            for seq in 1..=EVENTS {
                engine
                    .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                    .unwrap();
            }
            let spent = dev.stats().energy(CostCategory::Monitor) - spent0;
            let warm = event_energy_cached(&key, &model).saturating_mul(EVENTS);
            if exact {
                assert_eq!(spent, warm, "energy model drifted");
            } else {
                assert!(spent < warm, "dense diffs must undercut the model");
            }
            assert!(spent <= event_energy(&key, &model).saturating_mul(EVENTS));
        }
    }

    /// A delivery is one atomic attempt, so the energy gate's floor
    /// prices all of its certain work: on path-free machines whose
    /// steps change nothing, a warm delivery draws exactly the delivery
    /// floor (routing lookup, every machine's step, the seq +
    /// verdict-count record), and an install whose capacitor cannot
    /// buffer a task's floor is rejected instead of browning out on
    /// every attempt.
    #[test]
    fn delivery_floor_prices_the_certain_work_of_a_delivery() {
        use artemis_ir::analysis::{delivery_floor_energy, task_feasibility};
        use intermittent_sim::EnergyProfile;

        const EVENTS: u64 = 20;
        let (suite, app) = dispatch_suite(64, 0);
        let t0 = app.task_by_name("t0").unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let key = start_t0_key(&compiled);
        assert_eq!(key.floor_cycles, key.cycles, "every machine is path-free");

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        let spent0 = dev.stats().energy(CostCategory::Monitor);
        for seq in 1..=EVENTS {
            engine
                .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                .unwrap();
        }
        let spent = dev.stats().energy(CostCategory::Monitor) - spent0;
        let floor = delivery_floor_energy(&key, dev.cost_model());
        assert_eq!(spent, floor.saturating_mul(EVENTS));

        let bounds = artemis_ir::suite_bounds(&compiled);
        let t0_floor = task_feasibility(&compiled, &bounds, &app, &dev.energy_profile())[0].floor;
        assert!(t0_floor > floor, "t0's floor covers both of its events");
        let starved =
            EnergyProfile::with_budget(Energy::from_pico_joules(t0_floor.as_pico_joules() - 1));
        let mut dev = DeviceBuilder::msp430fr5994().build();
        match MonitorEngine::install_with(
            &mut dev,
            suite,
            &app,
            InstallOptions {
                energy: Some(starved),
                ..InstallOptions::default()
            },
        ) {
            Err(InstallError::Analysis(d)) => assert_eq!(d.pass, "energy"),
            Err(other) => panic!("expected an energy rejection, got {other}"),
            Ok(_) => panic!("a capacitor below the delivery floor must be rejected"),
        }
    }

    /// Every delivery after a reboot — fresh, re-run after a crash
    /// before its record's flag, or replayed by `monitor_finalize` after
    /// a crash inside the record and then redelivered — stays under the
    /// feasibility ceiling `event_energy`, even when the cold refill
    /// reads whole blocks far larger than the spans the key touches
    /// (40 and 120 untouched `Float` slots per machine).
    #[test]
    fn cold_deliveries_stay_under_the_energy_ceiling() {
        use artemis_ir::analysis::event_energy;

        let big = || {
            DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_micro_joules(2_000)))
                .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
                .build()
        };
        for floats in [40, 120] {
            let (suite, app) = flip_suite(8, floats);
            let t0 = app.task_by_name("t0").unwrap();
            let compiled = CompiledSuite::compile(&suite, &app).unwrap();
            let key = start_t0_key(&compiled);
            let ceiling = |dev: &Device| event_energy(&key, dev.cost_model());
            let install = |dev: &mut Device| {
                let engine = MonitorEngine::install(dev, suite.clone(), &app).unwrap();
                engine.reset_monitor(dev).unwrap();
                engine
                    .call_monitor(dev, 1, &MonitorEvent::start(t0, t(1)))
                    .unwrap();
                engine
            };

            // Fresh deliveries, each the first after a reboot.
            let mut dev = big();
            let engine = install(&mut dev);
            for seq in 2..=4 {
                dev.power_cycle();
                let spent0 = dev.stats().energy(CostCategory::Monitor);
                let bytes0 = dev.fram().read_bytes();
                engine.monitor_finalize(&mut dev).unwrap();
                engine
                    .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                    .unwrap();
                let spent = dev.stats().energy(CostCategory::Monitor) - spent0;
                let bytes = (dev.fram().read_bytes() - bytes0) as usize;
                assert!(
                    spent <= ceiling(&dev),
                    "fresh cold delivery drew {spent}, ceiling {} ({floats} floats)",
                    ceiling(&dev)
                );
                assert!(bytes <= key.read_bytes + key.cold_extra_read_bytes);
            }

            // Interrupted deliveries: a power failure at every FRAM
            // write of the second delivery's record (stage, flag, each
            // apply, clear), then reboot, finalize and redelivery.
            let writes = {
                let mut dev = big();
                let engine = install(&mut dev);
                let w0 = dev.fram().write_ops();
                engine
                    .call_monitor(&mut dev, 2, &MonitorEvent::start(t0, t(2)))
                    .unwrap();
                dev.fram().write_ops() - w0
            };
            let mut resumed = 0;
            for n in 1..=writes {
                let mut dev = big();
                let engine = install(&mut dev);
                dev.fail_at_fram_write(Some(n));
                match engine.call_monitor(&mut dev, 2, &MonitorEvent::start(t0, t(2))) {
                    Err(Interrupt::PowerFailure) => {}
                    other => panic!("write {n}/{writes} did not fail: {other:?}"),
                }
                dev.power_cycle();
                let spent0 = dev.stats().energy(CostCategory::Monitor);
                // Replay iff the crash came after the record's flag
                // (write 2).
                assert_eq!(engine.monitor_finalize(&mut dev).unwrap(), n > 2);
                resumed += usize::from(n > 2);
                engine
                    .call_monitor(&mut dev, 2, &MonitorEvent::start(t0, t(2)))
                    .unwrap();
                let spent = dev.stats().energy(CostCategory::Monitor) - spent0;
                assert!(
                    spent <= ceiling(&dev),
                    "interrupted delivery drew {spent}, ceiling {} ({floats} floats, write {n})",
                    ceiling(&dev)
                );
            }
            assert!(resumed > 0, "no crash point landed after the record's flag");
        }
    }

    /// A statically infeasible task rejects the install with a typed
    /// `energy` diagnostic BEFORE any FRAM is allocated; a merely
    /// marginal profile installs fine and surfaces the warning on the
    /// trace.
    #[test]
    fn install_gates_on_energy_feasibility() {
        use intermittent_sim::{Energy, EnergyProfile};

        let (suite, app) = dispatch_suite(2, 1);
        let mut dev = DeviceBuilder::msp430fr5994().build();

        // A 100 nJ capacitor cannot even buffer the two deliveries'
        // smallest records.
        let starved = EnergyProfile::with_budget(Energy::from_nano_joules(100));
        let before = dev.fram().used_by(MemOwner::Monitor);
        let err = MonitorEngine::install_with(
            &mut dev,
            suite.clone(),
            &app,
            InstallOptions {
                energy: Some(starved),
                ..InstallOptions::default()
            },
        )
        .err()
        .expect("install must be rejected");
        match err {
            InstallError::Analysis(d) => {
                assert!(d.is_error());
                assert_eq!(d.pass, "energy");
                assert!(d.message.contains("atomic attempt"), "{}", d.message);
            }
            other => panic!("expected an energy rejection, got {other}"),
        }
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), before);

        // The device's own (generous) profile: installs, no warnings.
        let profile = dev.energy_profile();
        let mut dev2 = DeviceBuilder::msp430fr5994().build();
        MonitorEngine::install_with(
            &mut dev2,
            suite.clone(),
            &app,
            InstallOptions {
                energy: Some(profile),
                ..InstallOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            dev2.trace()
                .count(|e| matches!(e, artemis_core::trace::TraceEvent::InstallWarning { .. })),
            0
        );

        // A budget between floor and margin threshold: installs with an
        // InstallWarning trace event.
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let b = artemis_ir::suite_bounds(&compiled);
        let fs = artemis_ir::analysis::task_feasibility(&compiled, &b, &app, &profile);
        let worst_ceiling = fs.iter().map(|f| f.ceiling).max().unwrap();
        let marginal = EnergyProfile::with_budget(Energy::from_pico_joules(
            worst_ceiling.as_pico_joules() + 1,
        ));
        let mut dev3 = DeviceBuilder::msp430fr5994().build();
        MonitorEngine::install_with(
            &mut dev3,
            suite,
            &app,
            InstallOptions {
                energy: Some(marginal),
                ..InstallOptions::default()
            },
        )
        .unwrap();
        assert!(
            dev3.trace()
                .count(|e| matches!(e, artemis_core::trace::TraceEvent::InstallWarning { .. }))
                > 0
        );
    }

    /// The shadow cache lives only on the production engine: off the
    /// routed compiled path — on the reference engine — there is no
    /// cache, and its counters stay zero across deliveries and
    /// reboots, while the production engine's count every lookup.
    #[test]
    fn cache_degrades_off_the_routed_compiled_path() {
        let spec = "accel { maxTries: 3 onFail: skipPath; }";
        let app = app();
        let accel = app.task_by_name("accel").unwrap();
        let stats = |opts| {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite = artemis_ir::compile(spec, &app).unwrap();
            let engine = MonitorEngine::install_with(&mut dev, suite, &app, opts).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            for seq in 1..=3 {
                dev.power_cycle();
                engine.monitor_finalize(&mut dev).unwrap();
                engine
                    .call_monitor(&mut dev, seq, &MonitorEvent::start(accel, t(seq)))
                    .unwrap();
            }
            engine.cache_stats()
        };
        assert_eq!(stats(InstallOptions::reference()), CacheStats::default());
        let production = stats(InstallOptions::default());
        assert_eq!(production.invalidations, 3);
        assert!(production.hits > 0 && production.misses > 0);
    }

    /// Only the production and reference engines install: a mixed
    /// `mode` × `routing` pair is rejected with a typed error before any
    /// FRAM is allocated.
    #[test]
    fn mixed_engine_pairs_are_rejected() {
        let app = app();
        let suite = artemis_ir::compile("accel { maxTries: 3 onFail: skipPath; }", &app).unwrap();
        for opts in [
            InstallOptions {
                routing: RoutingMode::FullScan,
                ..InstallOptions::default()
            },
            InstallOptions {
                mode: ExecMode::Interpreter,
                ..InstallOptions::default()
            },
        ] {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let used = dev.fram().used_by(MemOwner::Monitor);
            match MonitorEngine::install_with(&mut dev, suite.clone(), &app, opts) {
                Err(InstallError::UnsupportedEngine { mode, routing }) => {
                    assert_eq!((mode, routing), (opts.mode, opts.routing))
                }
                Err(other) => panic!("expected UnsupportedEngine, got {other}"),
                Ok(_) => panic!("{opts:?} must not install"),
            }
            assert_eq!(dev.fram().used_by(MemOwner::Monitor), used);
        }
    }

    /// Steady-state deliveries are all hits, a power cycle invalidates
    /// the whole cache exactly once, and the counters surface through
    /// the trace ring buffer.
    #[test]
    fn cache_stats_count_hits_misses_and_invalidations() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 10 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();

        // reset_monitor pre-fills every shadow, so warm deliveries are
        // pure hits: no misses, and strictly growing hit counts.
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.invalidations, 0);
        assert!(warm.hits > 0);
        engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(1)))
            .unwrap();
        assert!(engine.cache_stats().hits > warm.hits);
        assert_eq!(engine.cache_stats().misses, 0);

        // A reboot bumps the SRAM generation: the first delivery after
        // it wipes the cache (one invalidation) and refills it with
        // cold misses.
        dev.power_cycle();
        engine.monitor_finalize(&mut dev).unwrap();
        engine
            .call_monitor(&mut dev, 3, &MonitorEvent::start(accel, t(2)))
            .unwrap();
        let cold = engine.cache_stats();
        assert_eq!(cold.invalidations, 1);
        assert!(cold.misses > 0);

        // And the counters render through the trace ring buffer.
        engine.trace_cache_stats(&mut dev);
        let pushed = dev.trace().count(|e| {
            matches!(
                e,
                artemis_core::trace::TraceEvent::CacheStats {
                    invalidations: 1,
                    ..
                }
            )
        });
        assert_eq!(pushed, 1);
        assert!(dev.trace().render().contains("invalidations"));
    }

    /// Reboot storm: every clean reboot re-pays exactly the cold-miss
    /// refill the static bound prices as `cold_extra_reads` — the
    /// finalize's journal-flag probe, then the delivery's seq read and
    /// one whole-block fill per armed machine — and nothing accumulates
    /// across reboots, at 8 machines and past 64.
    #[test]
    fn reboot_storm_cold_misses_stay_within_static_bound() {
        const REBOOTS: u64 = 50;
        for machines in PIN_SIZES {
            let (suite, app) = dispatch_suite(machines, 1);
            let t0 = app.task_by_name("t0").unwrap();
            let compiled = CompiledSuite::compile(&suite, &app).unwrap();
            let key = start_t0_key(&compiled);

            let mut dev = DeviceBuilder::msp430fr5994().build();
            let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            // Warm delivery so each reboot below starts from a hot cache.
            engine
                .call_monitor(&mut dev, 1, &MonitorEvent::start(t0, t(0)))
                .unwrap();

            assert_eq!(key.cold_extra_reads, 2 + machines);
            for r in 0..REBOOTS {
                dev.power_cycle();
                let reads0 = dev.fram().read_ops();
                engine.monitor_finalize(&mut dev).unwrap();
                engine
                    .call_monitor(&mut dev, 2 + r, &MonitorEvent::start(t0, t(1 + r)))
                    .unwrap();
                let reads = (dev.fram().read_ops() - reads0) as usize;
                assert_eq!(
                    reads, key.cold_extra_reads,
                    "cold refill drifted on reboot {r} ({machines} machines): \
                     flag (1) + seq (1) + one block fill per machine"
                );
            }
            assert_eq!(engine.cache_stats().invalidations, REBOOTS);
        }
    }

    /// The derived journal capacity is exactly the static worst-case
    /// record: the default installs and runs, while overriding it one
    /// byte smaller is rejected up front by the bounds pass — on a spec
    /// suite and on a routed suite past 64 machines, whose whole-event
    /// record (72 machines' sub-writes) outgrows the reset record.
    #[test]
    fn derived_journal_capacity_is_tight() {
        let app = app();
        let spec = "accel { maxTries: 5 onFail: skipPath; }";
        let cases = [
            (artemis_ir::compile(spec, &app).unwrap(), app.clone()),
            dispatch_suite(72, 12),
        ];
        for (suite, app) in cases {
            let compiled = CompiledSuite::compile(&suite, &app).unwrap();
            let bounds = artemis_ir::suite_bounds(&compiled);
            let worst = bounds.worst_commit_bytes;
            if suite.len() == 72 {
                // Every machine writes all twelve slots, so the event
                // record, not the reset, sizes the journal.
                assert_eq!(worst, start_t0_key(&compiled).commit_bytes);
                assert!(worst > bounds.reset_commit_bytes);
            }
            let first = app
                .task_by_name(suite.machines()[0].observed_tasks()[0])
                .unwrap();

            let mut dev = DeviceBuilder::msp430fr5994().build();
            let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
            assert_eq!(engine.routing_mode(), RoutingMode::Routed);
            engine.reset_monitor(&mut dev).unwrap();
            engine
                .call_monitor(&mut dev, 1, &MonitorEvent::start(first, t(0)))
                .unwrap();

            let mut dev = DeviceBuilder::msp430fr5994().build();
            let err = MonitorEngine::install_with(
                &mut dev,
                suite,
                &app,
                InstallOptions {
                    journal_capacity: Some(worst - 1),
                    ..InstallOptions::default()
                },
            )
            .err()
            .expect("a capacity below the static bound must be rejected");
            match err {
                InstallError::Analysis(d) => {
                    assert!(d.is_error());
                    assert_eq!(d.pass, "bounds");
                }
                other => panic!("expected a bounds rejection, got {other}"),
            }
        }
    }

    /// The reference engine is a continuous run whatever device it is
    /// given: installing and driving it — reset, fresh deliveries, a
    /// redelivery, a path restart, finalize and readback — allocates no
    /// monitor FRAM, moves no FRAM byte and leaves the device's cost
    /// accounts untouched.
    #[test]
    fn reference_engine_touches_no_fram_and_bills_nothing() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let app = app();
        let accel = app.task_by_name("accel").unwrap();
        let suite = artemis_ir::compile(
            "accel { maxTries: 1 onFail: skipPath; }\n\
             send { collect: 2 dpTask: accel onFail: restartPath; }",
            &app,
        )
        .unwrap();
        let used = dev.fram().used_by(MemOwner::Monitor);
        let f = dev.fram();
        let traffic = (f.read_ops(), f.write_ops(), f.read_bytes(), f.write_bytes());
        let stats = *dev.stats();

        let engine =
            MonitorEngine::install_with(&mut dev, suite, &app, InstallOptions::reference())
                .unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        for seq in 1..=2 {
            engine
                .call_monitor(&mut dev, seq, &MonitorEvent::start(accel, t(seq)))
                .unwrap();
        }
        let verdicts = engine
            .call_monitor(&mut dev, 2, &MonitorEvent::start(accel, t(2)))
            .unwrap();
        assert_eq!(verdicts.len(), 1, "the second start trips maxTries: 1");
        assert_eq!(engine.last_verdicts(&mut dev).unwrap(), verdicts);
        engine.on_path_restart(&mut dev, PathId(0)).unwrap();
        assert!(!engine.monitor_finalize(&mut dev).unwrap());

        assert_eq!(dev.fram().used_by(MemOwner::Monitor), used);
        let f = dev.fram();
        assert_eq!(
            (f.read_ops(), f.write_ops(), f.read_bytes(), f.write_bytes()),
            traffic
        );
        assert_eq!(*dev.stats(), stats);
    }

    /// Path numbers past 255 keep their path context: on an app whose
    /// 257 paths all run `send`, a `Path: 1` machine must not step on
    /// an event from path 257 — on the production engine, the reference
    /// engine and the remote engine alike — and does step on one from
    /// path 1.
    #[test]
    fn path_qualifier_holds_past_path_255() {
        let mut b = AppGraphBuilder::new();
        let send = b.task("send");
        for _ in 0..257 {
            b.path(&[send]);
        }
        let app = b.build().unwrap();
        let ir = "machine m task send path 1 persistent { state S initial; \
                  on startTask(send) from S to S { } fail skipTask; }";
        let ev = |path| MonitorEvent::start(send, t(1)).on_path(PathId(path));
        for engine in ["production", "reference", "remote"] {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let suite = artemis_ir::parse::parse_suite(ir).unwrap();
            let monitor: Box<dyn Monitoring> = match engine {
                "production" => Box::new(MonitorEngine::install(&mut dev, suite, &app).unwrap()),
                "reference" => Box::new(
                    MonitorEngine::install_with(&mut dev, suite, &app, InstallOptions::reference())
                        .unwrap(),
                ),
                _ => Box::new(RemoteMonitorEngine::install(&mut dev, suite, &app).unwrap()),
            };
            monitor.reset_monitor(&mut dev).unwrap();
            assert!(
                monitor
                    .call_monitor(&mut dev, 1, &ev(256))
                    .unwrap()
                    .is_empty(),
                "{engine}: an event from path 257 stepped a `Path: 1` machine"
            );
            assert_eq!(monitor.call_monitor(&mut dev, 2, &ev(0)).unwrap().len(), 1);
        }
    }

    #[test]
    fn monitor_costs_are_billed_to_monitor_category() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, app) = engine(&mut dev, "accel { maxTries: 5 onFail: skipPath; }");
        let accel = app.task_by_name("accel").unwrap();
        let before = dev.stats().time(CostCategory::Monitor);
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        assert!(dev.stats().time(CostCategory::Monitor) > before);
        assert_eq!(dev.stats().time(CostCategory::App), SimDuration::ZERO);
    }

    #[test]
    fn memory_is_attributed_to_the_monitor_component() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let before = dev.fram().used_by(MemOwner::Monitor);
        let _ = engine(&mut dev, "accel { maxTries: 5 onFail: skipPath; }");
        let after = dev.fram().used_by(MemOwner::Monitor);
        assert!(after > before, "monitor state must live in monitor FRAM");
    }

    /// The production engine (compiled, routed) is the default; the
    /// reference engine (interpreter, full scan) is selectable.
    #[test]
    fn routed_is_the_default_and_full_scan_is_selectable() {
        let app = app();
        let spec = "accel { maxTries: 5 onFail: skipPath; }";

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let suite = artemis_ir::compile(spec, &app).unwrap();
        let routed = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        assert_eq!(routed.routing_mode(), RoutingMode::Routed);
        assert_eq!(routed.mode(), ExecMode::Compiled);

        let suite = artemis_ir::compile(spec, &app).unwrap();
        let scan = MonitorEngine::install_with(&mut dev, suite, &app, InstallOptions::reference())
            .unwrap();
        assert_eq!(scan.routing_mode(), RoutingMode::FullScan);
        assert_eq!(scan.mode(), ExecMode::Interpreter);
    }

    /// Suites past 64 machines install routed — with the shadow
    /// cache, sparse deltas and diff commits in force — and deliver
    /// correctly: there is no full-scan degrade at 64 machines.
    #[test]
    fn wide_suites_install_routed_with_every_fast_path() {
        for machines in [65, 128, 300] {
            let (suite, app) = dispatch_suite(machines, 1);
            let t0 = app.task_by_name("t0").unwrap();
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
            assert_eq!(engine.routing_mode(), RoutingMode::Routed);
            engine.reset_monitor(&mut dev).unwrap();

            // Every machine steps exactly once per event, and a warm
            // delivery stays write-only: steps load from the shadow
            // cache and their sparse commits never re-read the journal.
            for seq in 1..=3u64 {
                let reads0 = dev.fram().read_ops();
                engine
                    .call_monitor(&mut dev, seq, &MonitorEvent::start(t0, t(seq)))
                    .unwrap();
                assert_eq!(dev.fram().read_ops(), reads0, "{machines} machines");
                assert!(!engine.monitor_finalize(&mut dev).unwrap());
            }
            for (state, vars) in engine.snapshot(&dev) {
                assert_eq!(state, 0);
                assert_eq!(vars[0], Value::Int(3), "{machines} machines");
            }
            assert_eq!(engine.exec_stats().machine_steps, 3 * machines as u64);
        }
    }

    /// A suite beyond the 16-bit machine index is refused with a typed
    /// error before anything is compiled or allocated — on the
    /// production engine and on the reference engine alike, so no
    /// install can wrap a machine index.
    #[test]
    fn oversized_routed_suite_is_rejected() {
        let app = app();
        let mut suite = MonitorSuite::new();
        for i in 0..=MAX_ROUTED_MACHINES {
            let mut sm = artemis_ir::StateMachine::new(&format!("m{i}"), "accel");
            sm.add_state("S");
            suite.push(sm);
        }
        for opts in [InstallOptions::default(), InstallOptions::reference()] {
            let mut dev = DeviceBuilder::msp430fr5994().build();
            let used = dev.fram().used_by(MemOwner::Monitor);
            match MonitorEngine::install_with(&mut dev, suite.clone(), &app, opts) {
                Err(InstallError::TooManyMachines { machines, max }) => {
                    assert_eq!(machines, MAX_ROUTED_MACHINES + 1);
                    assert_eq!(max, MAX_ROUTED_MACHINES);
                }
                Err(other) => panic!("expected TooManyMachines, got {other}"),
                Ok(_) => panic!("an oversized suite must not install ({opts:?})"),
            }
            assert_eq!(dev.fram().used_by(MemOwner::Monitor), used);
        }
        // Past the last `u16` index the compiler refuses to build the
        // routing index at all.
        let mut sm = artemis_ir::StateMachine::new("overflow", "accel");
        sm.add_state("S");
        suite.push(sm);
        assert!(matches!(
            CompiledSuite::compile(&suite, &app),
            Err(CompileIssue::TooLarge)
        ));
    }

    #[test]
    fn routed_path_skips_uninterested_machines() {
        // One machine watches `accel`, fifteen watch `send`. The first
        // start event on `accel` after a reboot (cold shadow cache)
        // must read no bystander block: its reads are exactly the key's
        // static cold refill — journal flag, seq and the one interested
        // machine's block.
        let app = app();
        let accel = app.task_by_name("accel").unwrap();
        let mut src = String::from(
            "machine hot task accel persistent { state S initial; \
             on startTask(accel) from S to S { }; }\n",
        );
        for i in 0..15 {
            src.push_str(&format!(
                "machine cold{i} task send persistent {{ state S initial; \
                 on startTask(send) from S to S {{ }}; }}\n"
            ));
        }
        let suite = artemis_ir::parse::parse_suite(&src).unwrap();
        let compiled = CompiledSuite::compile(&suite, &app).unwrap();
        let key = artemis_ir::suite_bounds(&compiled)
            .per_key
            .into_iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(accel.0))
            .unwrap();
        assert_eq!(key.machines, 1);

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let engine = MonitorEngine::install(&mut dev, suite, &app).unwrap();
        engine.reset_monitor(&mut dev).unwrap();
        dev.power_cycle();
        let before = dev.fram().read_ops();
        engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(accel, t(0)))
            .unwrap();
        assert_eq!(
            (dev.fram().read_ops() - before) as usize,
            key.cold_extra_reads,
            "flag (1) + seq (1) + the hot machine's block (1)"
        );
    }

    #[test]
    fn event_with_no_interested_machines_completes_cleanly() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        // maxDuration observes start+end of accel only; a send event
        // routes to an empty worklist.
        let (engine, app) = engine(&mut dev, "accel { maxDuration: 1s onFail: skipTask; }");
        let send = app.task_by_name("send").unwrap();
        assert!(engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(send, t(0)))
            .unwrap()
            .is_empty());
        // Nothing pending afterwards, and redelivery is a no-op.
        assert!(!engine.monitor_finalize(&mut dev).unwrap());
        assert!(engine
            .call_monitor(&mut dev, 1, &MonitorEvent::start(send, t(0)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn machine_names_come_back_in_suite_order() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let (engine, _) = engine(
            &mut dev,
            "accel { maxTries: 2 onFail: skipPath; }\n\
             send { collect: 2 dpTask: accel onFail: restartPath; }",
        );
        let names = Monitoring::machine_names(&engine);
        assert_eq!(names.len(), 2);
        assert!(names[0].starts_with("accel_maxTries"));
        assert!(names[1].starts_with("send_collect"));
    }
}

#[cfg(test)]
mod finalize_tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use artemis_core::time::{SimDuration, SimInstant};
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;

    /// `monitorFinalize` must report work exactly when a power failure
    /// tore an event's record after its commit flag, and nothing
    /// otherwise (paper Figure 8 line 16): a crash at every FRAM write
    /// of the record — stage, flag, each apply, clear — in turn.
    #[test]
    fn finalize_reports_interrupted_events() {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        b.path(&[a]);
        let app = b.build().unwrap();
        // Several machines so the record spans several applies.
        let spec = "a { maxTries: 100 onFail: skipPath; \
                    maxDuration: 1s onFail: skipTask; \
                    period: 1min onFail: restartTask; }";
        let suite = artemis_ir::compile(spec, &app).unwrap();

        let install = || {
            let mut dev = DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_micro_joules(500)))
                .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
                .build();
            let engine = MonitorEngine::install(&mut dev, suite.clone(), &app).unwrap();
            engine.reset_monitor(&mut dev).unwrap();
            (dev, engine)
        };
        let ev = MonitorEvent::start(a, SimInstant::from_micros(1));

        // Nothing pending on a fresh engine.
        let (mut dev, engine) = install();
        assert!(!engine.monitor_finalize(&mut dev).unwrap());
        let w0 = dev.fram().write_ops();
        engine.call_monitor(&mut dev, 1, &ev).unwrap();
        let writes = dev.fram().write_ops() - w0;
        assert!(writes > 4, "the record must span several applies");

        for n in 1..=writes {
            let (mut dev, engine) = install();
            dev.fail_at_fram_write(Some(n));
            assert_eq!(
                engine.call_monitor(&mut dev, 1, &ev),
                Err(Interrupt::PowerFailure)
            );
            dev.power_cycle();
            // Write 1 stages the record and write 2 sets its flag: only
            // a crash after the flag leaves a record to replay.
            let resumed = engine.monitor_finalize(&mut dev).unwrap();
            assert_eq!(resumed, n > 2, "crash at write {n} of {writes}");
            // The replayed event's verdicts are available without
            // re-stepping, and a second finalize is a no-op.
            let _ = engine.last_verdicts(&mut dev).unwrap();
            assert!(!engine.monitor_finalize(&mut dev).unwrap());
            engine.call_monitor(&mut dev, 1, &ev).unwrap();
        }
    }
}
