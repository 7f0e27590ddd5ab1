//! Pass 2: static worst-case FRAM resource bounds.
//!
//! Walks the routing index and dispatch tables to bound, per event key
//! `(kind, task)`, what one delivered event can cost the monitor
//! engine's production path (compiled, routed): FRAM read/write
//! operations and the largest single journal commit in bytes. The
//! bounds are compared against the journal capacity at install time —
//! a suite whose worst-case commit cannot fit is rejected *before* it
//! allocates, instead of faulting with `JournalOverflow` mid-run — and
//! against measured dispatch-benchmark numbers in `artemis-bench`
//! (static must dominate measured).
//!
//! # Cost model
//!
//! The constants below mirror `artemis-monitor`'s engine and
//! `intermittent-sim`'s journal byte-for-byte; they are pinned by tests
//! in those crates (`bounds_model_matches_engine_delta` in the monitor
//! crate, the dominance assertion in the dispatch benchmark). The sim
//! bills one FRAM op per `read_raw`/`write_raw` call. Every production
//! commit is a **sparse** record: a commit of `k` sub-writes costs `0`
//! reads and `k+3` writes (stage the whole record in one write, set the
//! flag, apply each sub-write from RAM, clear the flag).
//!
//! Per delivered event, using each key's static
//! [`AccessSet`](crate::compile::AccessSet):
//!
//! - **arming**: recovery-flag read + sequence read, then one 5-sub-
//!   write sparse commit (event, seq, verdict count, worklist, done
//!   bitmap) — 2 reads, 8 writes, `87 + 2·n` record bytes for `n`
//!   armed machines;
//! - **worklist setup**: count + bitmap + items + event reads — 4 reads
//!   (2 when the worklist is empty, as the items and event are never
//!   read);
//! - **per armed machine**, worst case (effectful step): covering-span
//!   read + sparse commit of state + every write-set slot + done bit —
//!   1 read, `|W| + 5` writes (the engine's dirty-diff record never
//!   exceeds this slot-granular one); if any dispatched transition
//!   emits: + verdict-count read + the verdict cell and count
//!   sub-writes;
//! - **verdict readback**: count read + one read per possible emitter.
//!
//! [`SuiteBounds::worst_commit_bytes`] also covers the whole-suite
//! reset commit and the full-scan commit format, which the production
//! engine never stages: a documented over-approximation that keeps the
//! derived journal capacity — and with it the FRAM footprint — fixed.
//!
//! The static bound dominates the dynamic cost because arming-time
//! `Path:` filtering only ever *shrinks* the worklist below the routing
//! index's interest list, effectless steps complete with a single
//! plain write instead of a commit, and a step's dynamic write set is
//! a subset of the static one.
//!
//! # Cache-aware bounds
//!
//! The engine's volatile shadow cache serves every *input* read of a
//! steady-state delivery — recovery flag, sequence, armed worklist,
//! event, machine spans, verdict log — from RAM, and a sparse commit
//! never re-reads the journal. So a warm delivery makes no FRAM read
//! at all: the warm read bound is exactly `0` on every key, and a warm
//! delivery costs [`EventCost::writes`] ops.
//!
//! The first delivery after a reboot refills the shadow: the recovery
//! flag, the sequence number, and one **whole-block** fill per armed
//! machine ([`EventCost::cold_extra_reads`]). The fill reads the whole
//! block where the uncached pattern reads only the covering span, and
//! a delivery resumed through `monitorFinalize` may first have to
//! replay a sparse commit the power failure tore, re-reading its
//! journal record (count word, then header and payload per sub-write).
//! So a post-reboot delivery — fresh or resumed — makes at most
//! [`EventCost::reads`] + [`EventCost::replay_reads`] read ops and
//! moves at most [`EventCost::read_bytes`] +
//! [`EventCost::cold_extra_read_bytes`] read bytes. Write bounds are
//! identical warm and cold: the cache is write-through and never
//! changes what the engine commits, and a replay applies what the torn
//! commit would have applied.

use artemis_core::event::EventKind;
use artemis_spec::Diagnostic;

use crate::compile::{CompiledMachine, CompiledSuite};

/// Journal entry header bytes (`addr: u32` + `len: u16`).
const ENTRY_HEADER: usize = 6;
/// Encoded size of the pending-event cell (`EncodedEvent`).
const ENCODED_EVENT_BYTES: usize = 31;
/// Sequence cell (`u64`).
const U64_BYTES: usize = 8;
/// Verdict count (`u32`).
const U32_BYTES: usize = 4;
/// One verdict cell: `(u32, (u8, u32))`.
const VERDICT_BYTES: usize = 9;
/// Recovery flag (`bool`).
const FLAG_BYTES: usize = 1;

/// Engine cycle charges, mirroring `artemis-monitor`'s constants of the
/// same names (pinned against the engine by the monitor crate's
/// `energy_model_matches_engine` test).
pub const ROUTING_LOOKUP_CYCLES: u64 = 12;
/// Cycles per armed machine entered on the compiled dispatch path.
pub const COMPILED_DISPATCH_CYCLES: u64 = 10;
/// Cycles per dispatched transition evaluated.
pub const STEP_PER_TRANSITION_CYCLES: u64 = 12;

/// FRAM writes of a sparse journal commit with `k` sub-writes (stage,
/// flag, `k` applies, clear); sparse commits perform no reads.
const fn sparse_commit_writes(k: usize) -> usize {
    k + 3
}

/// FRAM reads of replaying a torn sparse record of `k` sub-writes on
/// reboot: the count word, then each sub-write's header and payload.
const fn replay_reads(k: usize) -> usize {
    1 + 2 * k
}

/// Component-wise maximum of two (read ops, bytes) pairs.
fn max_pair(a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
    (a.0.max(b.0), a.1.max(b.1))
}

/// Journal payload bytes of one entry carrying `data` bytes. Sub-write
/// slots of a sparse record have the same header, plus the record's
/// leading `count: u16` accounted separately ([`sparse_record_bytes`]).
const fn entry_bytes(data: usize) -> usize {
    ENTRY_HEADER + data
}

/// Journal payload bytes of a sparse record whose sub-write entries
/// total `entries_bytes` (headers included).
const fn sparse_record_bytes(entries_bytes: usize) -> usize {
    2 + entries_bytes
}

/// Journal bytes of a `u16` list entry with `n` items.
const fn u16_list_entry_bytes(n: usize) -> usize {
    entry_bytes(2 + 2 * n)
}

/// Bytes of the engine's completion bitmap for `machines` installed
/// machines: one bit per machine, rounded up to whole bytes.
pub fn done_bytes(machines: usize) -> usize {
    machines.div_ceil(8).max(1)
}

/// Encoded bytes of one variable slot.
fn slot_bytes(m: &CompiledMachine, slot: u16) -> usize {
    m.layout().slots[slot as usize].enc.width()
}

/// Worst-case cost of delivering one event under a given key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventCost {
    /// Event kind of the key.
    pub kind: EventKind,
    /// Dense task id, or `None` for the out-of-graph wildcard key.
    pub task: Option<u32>,
    /// Machines the routing index arms for this key.
    pub machines: usize,
    /// Of those, machines with at least one dispatched emitting
    /// transition (they pay the verdict-logging surcharge).
    pub emitters: usize,
    /// Worst-case FRAM read operations.
    pub reads: usize,
    /// Worst-case FRAM write operations.
    pub writes: usize,
    /// FRAM reads the first delivery after a reboot pays to refill the
    /// shadow (a warm delivery reads nothing): the recovery flag, the
    /// sequence number, and one whole-block fill per armed machine
    /// (the fill is one op, same as the uncached span read).
    pub cold_extra_reads: usize,
    /// FRAM reads of replaying the largest sparse record this key can
    /// leave torn (count word + header and payload per sub-write): a
    /// post-reboot delivery — fresh, or resumed through
    /// `monitorFinalize` — makes at most `reads + replay_reads` read
    /// ops.
    pub replay_reads: usize,
    /// Extra FRAM bytes a post-reboot delivery can read beyond
    /// [`EventCost::read_bytes`]: each armed machine's refill
    /// reads its whole block where the uncached pattern reads only the
    /// covering span, and a torn sparse record is re-read for replay.
    /// A post-reboot delivery — fresh, or resumed through
    /// `monitorFinalize` — reads at most `read_bytes +
    /// cold_extra_read_bytes` bytes.
    pub cold_extra_read_bytes: usize,
    /// Largest single journal commit, in payload bytes.
    pub commit_bytes: usize,
    /// Worst-case FRAM bytes read by the uncached read pattern (every
    /// input read from FRAM once, machine blocks read up to their
    /// covering span); per-byte traffic is priced on top of the per-op
    /// base by the sim's cost model.
    pub read_bytes: usize,
    /// Worst-case FRAM bytes written (identical warm and cold: the
    /// shadow is write-through).
    pub write_bytes: usize,
    /// Worst-case engine CPU cycles charged for the delivery (routing
    /// lookup + per-machine dispatch + per-transition stepping).
    pub cycles: u64,
    /// FRAM write ops of the arming commit alone — a floor *every*
    /// delivered event pays before any machine steps, warm or cold
    /// (the cache is write-through and never absorbs writes).
    pub arming_writes: usize,
    /// FRAM bytes the arming commit alone writes.
    pub arming_write_bytes: usize,
}

impl EventCost {
    /// Total FRAM operations (reads + writes).
    pub fn ops(&self) -> usize {
        self.reads + self.writes
    }
}

/// Static per-event and install-time resource bounds for a suite.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SuiteBounds {
    /// Every `(kind, task)` key of the application graph plus the two
    /// wildcard keys.
    pub per_key: Vec<EventCost>,
    /// Largest single journal commit any event can stage, in bytes.
    pub worst_commit_bytes: usize,
    /// Bytes of the whole-suite reset commit (`resetMonitor` re-images
    /// every machine block in one transaction).
    pub reset_commit_bytes: usize,
}

impl SuiteBounds {
    /// The most expensive event key by total FRAM ops, if any machines
    /// are installed.
    pub fn worst_event(&self) -> Option<&EventCost> {
        self.per_key.iter().max_by_key(|c| c.ops())
    }
}

/// Computes the static resource bounds of a compiled suite by walking
/// its routing index and dispatch tables, with machine images in their
/// packed layouts.
pub fn suite_bounds(compiled: &CompiledSuite) -> SuiteBounds {
    let machines = compiled.machines();
    let task_count = compiled.task_count();
    let done_b = done_bytes(machines.len());

    let mut per_key = Vec::with_capacity(2 * (task_count + 1));
    for kind in [EventKind::StartTask, EventKind::EndTask] {
        for key_task in 0..=task_count {
            // `task_count` stands in for any out-of-graph id: the
            // routing index resolves it to the wildcard set.
            let (task, probe) = if key_task == task_count {
                (None, u32::MAX)
            } else {
                (Some(key_task as u32), key_task as u32)
            };
            let armed = compiled.routing().interested(kind, probe);

            // Arming: recovery flag + seq reads, then one 5-sub-write
            // sparse commit.
            let mut reads = 2;
            let mut read_bytes = FLAG_BYTES + U64_BYTES;
            let mut writes = sparse_commit_writes(5);
            let arming_entry_bytes = entry_bytes(ENCODED_EVENT_BYTES)
                + entry_bytes(U64_BYTES)
                + entry_bytes(U32_BYTES)
                + u16_list_entry_bytes(armed.len())
                + entry_bytes(done_b);
            // A sparse commit writes the staged record, the flag, each
            // sub-write's payload, and the flag clear.
            let arming_data_bytes =
                ENCODED_EVENT_BYTES + U64_BYTES + U32_BYTES + (2 + 2 * armed.len()) + done_b;
            let arming_write_bytes =
                sparse_record_bytes(arming_entry_bytes) + arming_data_bytes + 2 * FLAG_BYTES;
            let mut write_bytes = arming_write_bytes;
            let mut commit = sparse_record_bytes(arming_entry_bytes);
            // The largest sparse record a reboot can leave to replay, in
            // read ops and in record bytes.
            let mut replay = (replay_reads(5), commit);
            reads += if armed.is_empty() { 2 } else { 4 };
            read_bytes += if armed.is_empty() {
                2 + done_b
            } else {
                2 + done_b + 2 * armed.len() + ENCODED_EVENT_BYTES
            };
            let mut cycles = ROUTING_LOOKUP_CYCLES;

            let mut emitters = 0;
            let mut cold_extra_read_bytes = 0;
            for &mi in armed {
                let m = &machines[mi as usize];
                let emits = m
                    .transition_list(kind, probe)
                    .iter()
                    .any(|&ti| m.transitions[ti as usize].emit.is_some());
                let access = m.access(kind, probe);
                // The engine bills the key's static step ceiling (the
                // cycle-priced worst path through its dispatched
                // transitions) — identical table, so the bound is exact.
                cycles += COMPILED_DISPATCH_CYCLES + m.step_cost(kind, probe).cycles;
                let block_b = m.layout().block_len;
                if emits {
                    emitters += 1;
                }

                // Covering-span read, verdict-count read if emitting.
                reads += 1 + usize::from(emits);
                let span_b = m.layout().span(access.max_touched_slot());
                read_bytes += span_b + if emits { U32_BYTES } else { 0 };
                // A cold refill reads the whole block, not the span.
                cold_extra_read_bytes += block_b - span_b;
                // Sub-writes: state word + every write-set slot + done
                // bit (+ verdict cell and count). The engine's dirty-diff
                // record only ever commits fewer runs and fewer bytes:
                // changed bytes live inside the state word and write-set
                // slots, at most one run forms per field, and the
                // gap-merge rule only fires when the 6-byte header it
                // saves covers the gap bytes it adds — so this
                // slot-granular bound dominates, and is exact when every
                // write-set field changes and no runs merge.
                let state_b = m.layout().state_bytes;
                let slots_b: usize = access.writes.iter().map(|&s| slot_bytes(m, s)).sum();
                let mut k = 1 + access.writes.len() + 1;
                let mut delta_entry_bytes = entry_bytes(state_b)
                    + access
                        .writes
                        .iter()
                        .map(|&s| entry_bytes(slot_bytes(m, s)))
                        .sum::<usize>()
                    + entry_bytes(done_b);
                let mut delta_data = state_b + slots_b + done_b;
                if emits {
                    k += 2;
                    delta_entry_bytes += entry_bytes(VERDICT_BYTES) + entry_bytes(U32_BYTES);
                    delta_data += VERDICT_BYTES + U32_BYTES;
                }
                writes += sparse_commit_writes(k);
                write_bytes += sparse_record_bytes(delta_entry_bytes) + delta_data + 2 * FLAG_BYTES;
                replay = max_pair(
                    replay,
                    (replay_reads(k), sparse_record_bytes(delta_entry_bytes)),
                );
                commit = commit.max(sparse_record_bytes(delta_entry_bytes));
            }

            // Verdict readback: count + one cell per possible emitter.
            reads += 1 + emitters;
            read_bytes += U32_BYTES + VERDICT_BYTES * emitters;

            per_key.push(EventCost {
                kind,
                task,
                machines: armed.len(),
                emitters,
                reads,
                writes,
                // Recovery flag + seq + one whole-block fill per armed
                // machine.
                cold_extra_reads: 2 + armed.len(),
                replay_reads: replay.0,
                cold_extra_read_bytes: cold_extra_read_bytes + replay.1,
                commit_bytes: commit,
                read_bytes,
                write_bytes,
                cycles,
                arming_writes: sparse_commit_writes(5),
                arming_write_bytes,
            });
        }
    }

    let reset_commit_bytes = machines
        .iter()
        .map(|m| entry_bytes(m.layout().block_len))
        .sum::<usize>()
        + entry_bytes(U32_BYTES) // verdict count
        + entry_bytes(U64_BYTES) // seq
        + u16_list_entry_bytes(0) // empty worklist
        + entry_bytes(done_b); // done bitmap

    // The full-scan commit format — arming by staging a step routine's
    // `pc` + `len` cells instead of the worklist + done bitmap, each
    // step completing through a 4-byte `pc` rather than a done bit,
    // over packed blocks — joins the capacity max as a documented
    // over-approximation: the production engine never stages it, but
    // it keeps the derived capacity (and so the FRAM footprint)
    // unchanged.
    let scan_arming_bytes = entry_bytes(ENCODED_EVENT_BYTES)
        + entry_bytes(U64_BYTES)
        + entry_bytes(U32_BYTES)
        + 2 * entry_bytes(U32_BYTES);
    let scan_step_bytes = machines
        .iter()
        .map(|m| {
            let mut b = entry_bytes(m.layout().block_len) + entry_bytes(U32_BYTES);
            if m.transitions.iter().any(|t| t.emit.is_some()) {
                b += entry_bytes(VERDICT_BYTES) + entry_bytes(U32_BYTES);
            }
            b
        })
        .max()
        .unwrap_or(0);

    let worst_commit_bytes = per_key
        .iter()
        .map(|c| c.commit_bytes)
        .max()
        .unwrap_or(0)
        .max(reset_commit_bytes)
        .max(scan_arming_bytes)
        .max(scan_step_bytes);

    SuiteBounds {
        per_key,
        worst_commit_bytes,
        reset_commit_bytes,
    }
}

/// Cross-checks the suite's static bounds against a journal capacity.
/// With `journal_capacity: None` the check degenerates to computing the
/// bounds (no findings).
pub fn check_bounds(compiled: &CompiledSuite, journal_capacity: Option<usize>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Some(capacity) = journal_capacity else {
        return diags;
    };
    let b = suite_bounds(compiled);
    if b.reset_commit_bytes > capacity {
        diags.push(Diagnostic::error(
            "bounds",
            "suite",
            format!(
                "whole-suite reset commits {} journal bytes, but the journal holds {capacity}",
                b.reset_commit_bytes
            ),
        ));
    }
    for c in &b.per_key {
        if c.commit_bytes > capacity {
            let task = match c.task {
                Some(t) => compiled.task_name(t).to_string(),
                None => "<out-of-graph>".to_string(),
            };
            diags.push(Diagnostic::error(
                "bounds",
                format!("event {:?}({task})", c.kind),
                format!(
                    "worst-case commit of {} journal bytes exceeds the capacity of {capacity}",
                    c.commit_bytes
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::{AppGraph, AppGraphBuilder};

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let s = b.task("b");
        b.path(&[a, s]);
        b.build().unwrap()
    }

    #[test]
    fn bounds_scale_with_interest_and_emits() {
        let app = app();
        let suite = crate::compile(
            "a { maxTries: 2 onFail: skipPath; }\n\
             b { maxTries: 2 onFail: skipTask; }",
            &app,
        )
        .unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        let b = suite_bounds(&cs);

        // 2 tasks + wildcard, both kinds.
        assert_eq!(b.per_key.len(), 6);
        let key = |kind, task| {
            b.per_key
                .iter()
                .find(|c| c.kind == kind && c.task == task)
                .unwrap()
        };
        // maxTries machines observe starts of their task and can emit;
        // the step writes the attempt counter, its only slot.
        let start_a = key(EventKind::StartTask, Some(0));
        assert_eq!(start_a.machines, 1);
        assert_eq!(start_a.emitters, 1);
        let m = &cs.machines()[0];
        let access = m.access(EventKind::StartTask, 0);
        assert_eq!(access.writes, vec![0]);
        // An armed emitting machine costs more than an un-armed key.
        let wild = key(EventKind::StartTask, None);
        assert_eq!(wild.machines, 0);
        assert!(start_a.ops() > wild.ops());
        // Sparse arming (2) + worklist (4) + span load and verdict
        // count (2) + readback (1 + 1).
        assert_eq!(start_a.reads, 2 + 4 + 2 + 1 + 1);
        // Sparse arming (8) + sparse step of state, counter, verdict
        // cell, verdict count and done bit (5 + 3).
        assert_eq!(start_a.writes, 8 + 8);
        assert_eq!(start_a.arming_writes, sparse_commit_writes(5));
        // Cold refill = flag + seq + 1 block.
        assert_eq!(start_a.cold_extra_reads, 2 + 1);
        // Byte pins for the emitting key (1-byte done bitmap for 2
        // machines).
        let state = m.layout().state_bytes;
        let slot = slot_bytes(m, 0);
        let span = m.layout().span(Some(0));
        let done = done_bytes(2);
        assert_eq!(
            start_a.read_bytes,
            // arming flag+seq, worklist setup, span load, verdict
            // count, readback count + one cell.
            (FLAG_BYTES + U64_BYTES)
                + (2 + done + 2 + ENCODED_EVENT_BYTES)
                + span
                + U32_BYTES
                + (U32_BYTES + VERDICT_BYTES)
        );
        let step_record = sparse_record_bytes(
            entry_bytes(state)
                + entry_bytes(slot)
                + entry_bytes(VERDICT_BYTES)
                + entry_bytes(U32_BYTES)
                + entry_bytes(done),
        );
        let step_data = state + slot + VERDICT_BYTES + U32_BYTES + done;
        assert_eq!(
            start_a.write_bytes,
            start_a.arming_write_bytes + step_record + step_data + 2 * FLAG_BYTES
        );
        assert_eq!(start_a.replay_reads, replay_reads(5));
        // One armed machine billing its key's static step ceiling.
        // The maxTries lowering dispatches 3 transitions on its task's
        // start key; optimized (fused guards), the cycle-priced worst
        // path plus the 3 scan tests pins at 20 — tighter than the old
        // 12-cycles-per-transition flat rate.
        let sc = cs.machines()[0].step_cost(EventKind::StartTask, 0);
        assert_eq!(sc.cycles, 20);
        assert!(sc.cycles < 3 * STEP_PER_TRANSITION_CYCLES);
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + sc.cycles
        );
        // An un-armed key still pays the routing lookup and arming
        // commit, nothing else.
        assert_eq!(wild.cycles, ROUTING_LOOKUP_CYCLES);
        assert_eq!(wild.write_bytes, wild.arming_write_bytes);
        assert!(b.worst_commit_bytes >= b.reset_commit_bytes);
        assert!(b.worst_event().unwrap().ops() >= start_a.ops());
    }

    /// A machine with twelve `Int` slots whose `startTask(a)` body runs
    /// `v0 := body`; every other slot stays at its initial 0.
    fn sparse_suite(body: crate::expr::Expr) -> CompiledSuite {
        use crate::expr::{Value, VarType};
        use crate::fsm::{MonitorSuite, StateMachine, Stmt, TaskPat, Transition, Trigger};

        let mut sm = StateMachine::new("sparse", "a");
        for v in 0..12 {
            sm.add_var(&format!("v{v}"), VarType::Int, Value::Int(0));
        }
        sm.add_state("S");
        sm.transitions.push(Transition {
            from: 0,
            to: 0,
            trigger: Trigger::Start(TaskPat::named("a")),
            guard: None,
            body: vec![Stmt::Assign("v0".into(), body)],
            emit: None,
        });
        let mut suite = MonitorSuite::new();
        suite.push(sm);
        CompiledSuite::compile(&suite, &app()).unwrap()
    }

    /// Pins the delta-key arithmetic on a hand-built sparse machine:
    /// 12 slots, the routed body increments only slot 0.
    #[test]
    fn delta_keys_are_bounded_by_their_write_set() {
        use crate::expr::{BinOp, Expr};

        let cs = sparse_suite(Expr::bin(BinOp::Add, Expr::var("v0"), Expr::int(1)));
        let b = suite_bounds(&cs);

        let start_a = b
            .per_key
            .iter()
            .find(|c| c.kind == EventKind::StartTask && c.task == Some(0))
            .unwrap();
        // Arming flag+seq (2) + worklist (4) + span load (1) +
        // readback (1).
        assert_eq!(start_a.reads, 2 + 4 + 1 + 1);
        // Sparse arming (8) + sparse step of state+slot+done (6).
        assert_eq!(start_a.writes, 8 + 6);
        // v0's unguarded increment widens it to a full 8-byte slot, but
        // the state (1 state), the done bitmap (1 machine) and the
        // eleven untouched counters all pack to 1 byte: the span covers
        // the state and v0 only.
        let m = &cs.machines()[0];
        assert_eq!(m.layout().state_bytes, 1);
        assert_eq!(m.layout().span(Some(0)), 1 + 8);
        assert_eq!(m.layout().block_len, 1 + 8 + 11);
        assert_eq!(
            start_a.read_bytes,
            (FLAG_BYTES + U64_BYTES) + (2 + 1 + 2 + ENCODED_EVENT_BYTES) + (1 + 8) + U32_BYTES
        );
        // The sparse step stages a 3-entry record, then applies 10
        // payload bytes.
        let delta_entries = entry_bytes(1) + entry_bytes(8) + entry_bytes(1);
        let delta_data = 1 + 8 + 1;
        assert_eq!(
            start_a.write_bytes,
            start_a.arming_write_bytes + sparse_record_bytes(delta_entries) + delta_data + 2
        );
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + STEP_PER_TRANSITION_CYCLES
        );
        // The cold refill is flag + seq + one whole-block fill — the
        // eleven bytes past the span are the refill's extra read bytes.
        assert_eq!(start_a.cold_extra_reads, 2 + 1);
        // A reboot can also leave the sparse arming record (5
        // sub-writes) torn, to be re-read for replay.
        let arming_record = sparse_record_bytes(
            entry_bytes(ENCODED_EVENT_BYTES)
                + entry_bytes(U64_BYTES)
                + entry_bytes(U32_BYTES)
                + u16_list_entry_bytes(1)
                + entry_bytes(1),
        );
        assert_eq!(start_a.replay_reads, replay_reads(5));
        assert_eq!(start_a.cold_extra_read_bytes, 11 + arming_record);
        // The key's largest commit is the arming record; the suite's
        // capacity still covers the whole-block reset image.
        assert_eq!(start_a.commit_bytes, arming_record);
        assert!(b.worst_commit_bytes >= entry_bytes(1 + 8 + 11) + entry_bytes(1));
    }

    /// Packing changes bytes, never ops: two machines with the same
    /// bytecode shape, one storing a constant the interval analysis
    /// packs into 1 byte (`v0 := 5`) and one needing all 8
    /// (`v0 := 5000000000`), make identical FRAM ops and cycles on
    /// every key, and the narrow one moves strictly fewer bytes.
    #[test]
    fn packed_bounds_shrink_bytes_and_preserve_ops() {
        use crate::expr::Expr;

        let narrow_cs = sparse_suite(Expr::int(5));
        let wide_cs = sparse_suite(Expr::int(5_000_000_000));
        assert_eq!(narrow_cs.machines()[0].layout().span(Some(0)), 1 + 1);
        assert_eq!(wide_cs.machines()[0].layout().span(Some(0)), 1 + 8);
        let narrow = suite_bounds(&narrow_cs);
        let wide = suite_bounds(&wide_cs);

        let mut armed = 0;
        for (n, w) in narrow.per_key.iter().zip(&wide.per_key) {
            assert_eq!((n.kind, n.task), (w.kind, w.task));
            assert_eq!(n.reads, w.reads);
            assert_eq!(n.writes, w.writes);
            assert_eq!(n.cold_extra_reads, w.cold_extra_reads);
            assert_eq!(n.cycles, w.cycles);
            assert!(n.read_bytes <= w.read_bytes);
            assert!(n.write_bytes <= w.write_bytes);
            assert!(n.commit_bytes <= w.commit_bytes);
            if n.machines > 0 {
                armed += 1;
                assert!(n.read_bytes < w.read_bytes);
                assert!(n.write_bytes < w.write_bytes);
            }
        }
        assert!(armed > 0, "no key arms the machine");
        assert!(narrow.worst_commit_bytes <= wide.worst_commit_bytes);
        assert!(narrow.reset_commit_bytes < wide.reset_commit_bytes);
    }

    #[test]
    fn capacity_gate_rejects_tiny_journals() {
        let app = app();
        let suite = crate::compile("a { maxTries: 2 onFail: skipPath; }", &app).unwrap();
        let cs = CompiledSuite::compile(&suite, &app).unwrap();
        assert!(check_bounds(&cs, None).is_empty());
        assert!(check_bounds(&cs, Some(1 << 20)).is_empty());
        let diags = check_bounds(&cs, Some(16));
        assert!(
            diags.iter().any(|d| d.is_error() && d.pass == "bounds"),
            "{diags:?}"
        );
    }
}
