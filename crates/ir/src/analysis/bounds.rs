//! Pass 2: static worst-case FRAM resource bounds.
//!
//! Walks the routing index and dispatch tables to bound, per event key
//! `(kind, task)`, what one delivered event can cost the monitor
//! engine's production path (compiled, routed): FRAM read/write
//! operations and the size of the event's journal record in bytes. The
//! bounds are compared against the journal capacity at install time —
//! a suite whose worst-case record cannot fit is rejected *before* it
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
//! bills one FRAM op per `read_raw`/`write_raw` call. A production
//! delivery under a fresh sequence number commits **one sparse
//! record**: a record of `k` sub-writes costs `0` reads and `k+3`
//! writes (stage the whole record in one write, set the flag, apply
//! each sub-write from RAM, clear the flag).
//!
//! Per delivered event, using each key's static
//! [`AccessSet`](crate::compile::AccessSet):
//!
//! - **reads** (the uncached pattern): recovery flag + sequence number,
//!   then one covering-span read per armed machine; and the verdict
//!   readback (count + one cell per possible emitter) a redelivery of a
//!   committed sequence number pays instead;
//! - **the record**, worst case: the sequence number and the verdict
//!   count, per armed machine its state word + every write-set slot
//!   (the engine's dirty-diff runs never exceed these slot-granular
//!   sub-writes), and one verdict cell per possible emitter — `k + 3`
//!   writes for those `k` sub-writes.
//!
//! [`SuiteBounds::worst_commit_bytes`] is the larger of the whole-suite
//! reset record and the worst key's whole-event record: the derived
//! journal capacity.
//!
//! The static bound dominates the dynamic cost because delivery-time
//! `Path:` filtering only ever *shrinks* the worklist below the routing
//! index's interest list, a step's dynamic diff runs are at most its
//! static sub-writes, and at most the emitters that fire log a verdict.
//!
//! # Cache-aware bounds
//!
//! The engine's volatile shadow cache serves every *input* read of a
//! steady-state delivery — recovery flag, sequence number, machine
//! spans, verdict log — from RAM, and a sparse commit never re-reads
//! the journal. So a warm delivery makes no FRAM read at all: the warm
//! read bound is exactly `0` on every key, and a warm delivery costs
//! [`EventCost::writes`] ops.
//!
//! The first delivery after a reboot refills the shadow: the recovery
//! flag, the sequence number, and one **whole-block** fill per armed
//! machine ([`EventCost::cold_extra_reads`]). The fill reads the whole
//! block where the uncached pattern reads only the covering span, and
//! the reboot's `monitorFinalize` may first have to replay the record
//! the power failure tore, re-reading it from the journal (count word,
//! then header and payload per sub-write). So a post-reboot delivery —
//! fresh, or the redelivery after a replay — makes at most
//! [`EventCost::reads`] + [`EventCost::replay_reads`] read ops and
//! moves at most [`EventCost::read_bytes`] +
//! [`EventCost::cold_extra_read_bytes`] read bytes. Write bounds are
//! identical warm and cold: the cache never changes what the engine
//! commits, and a replay applies what the torn record would have
//! applied.

use artemis_core::event::EventKind;
use artemis_spec::Diagnostic;
use intermittent_sim::journal::{
    commit_write_bytes, commit_writes, record_bytes, replay_reads, MAX_SUB_WRITES,
};

use crate::compile::{CompiledMachine, CompiledSuite};

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

/// Writes, write bytes and record bytes of one journal record
/// committing `k` sub-writes of `data` payload bytes in total.
const fn record_cost(k: usize, data: usize) -> (usize, usize, usize) {
    (
        commit_writes(k),
        commit_write_bytes(k, data),
        record_bytes(k, data),
    )
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
    /// transition (each may log a verdict cell).
    pub emitters: usize,
    /// Worst-case FRAM read operations of the uncached read pattern.
    pub reads: usize,
    /// Worst-case FRAM write operations: the event's one record.
    pub writes: usize,
    /// FRAM reads the first delivery after a reboot pays to refill the
    /// shadow (a warm delivery reads nothing): the recovery flag, the
    /// sequence number, and one whole-block fill per armed machine
    /// (the fill is one op, same as the uncached span read).
    pub cold_extra_reads: usize,
    /// FRAM reads of replaying this key's worst-case record after a
    /// power failure tore it (count word + header and payload per
    /// sub-write): a post-reboot delivery makes at most `reads +
    /// replay_reads` read ops.
    pub replay_reads: usize,
    /// Extra FRAM bytes a post-reboot delivery can read beyond
    /// [`EventCost::read_bytes`]: each armed machine's refill reads its
    /// whole block where the uncached pattern reads only the covering
    /// span, and a torn record is re-read for replay. A post-reboot
    /// delivery reads at most `read_bytes + cold_extra_read_bytes`
    /// bytes.
    pub cold_extra_read_bytes: usize,
    /// Journal bytes of the key's worst-case whole-event record.
    pub commit_bytes: usize,
    /// Worst-case FRAM bytes read by the uncached read pattern (every
    /// input read from FRAM once, machine blocks read up to their
    /// covering span); per-byte traffic is priced on top of the per-op
    /// base by the sim's cost model.
    pub read_bytes: usize,
    /// Worst-case FRAM bytes written (identical warm and cold).
    pub write_bytes: usize,
    /// Worst-case engine CPU cycles charged for the delivery (routing
    /// lookup + per-machine dispatch + per-transition stepping).
    pub cycles: u64,
    /// FRAM write ops of the smallest record a fresh delivery commits —
    /// the sequence number and the verdict count, which every record
    /// carries. A floor every delivery pays, warm or cold.
    pub floor_writes: usize,
    /// FRAM bytes that smallest record writes.
    pub floor_write_bytes: usize,
    /// Cycles every fresh delivery is billed: the routing lookup plus
    /// the step ceiling of each armed machine without a `Path:`
    /// qualifier (only those are certain to be on the worklist).
    pub floor_cycles: u64,
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
    /// Largest single journal record any event or the reset can stage,
    /// in bytes — the derived journal capacity.
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
    // Every record carries the sequence number and the verdict count.
    let (floor_writes, floor_write_bytes, _) = record_cost(2, U64_BYTES + U32_BYTES);

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

            // Recovery flag + sequence number.
            let mut reads = 2;
            let mut read_bytes = FLAG_BYTES + U64_BYTES;
            let mut cycles = ROUTING_LOOKUP_CYCLES;
            // The record's sub-writes and payload bytes, seeded with
            // the sequence number and the verdict count.
            let mut k = 2;
            let mut data = U64_BYTES + U32_BYTES;

            let mut floor_cycles = ROUTING_LOOKUP_CYCLES;
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
                let step_cycles = COMPILED_DISPATCH_CYCLES + m.step_cost(kind, probe).cycles;
                cycles += step_cycles;
                if compiled.machine_path(mi as usize).is_none() {
                    floor_cycles += step_cycles;
                }

                // Covering-span read; a cold refill reads the whole
                // block instead.
                reads += 1;
                let span_b = m.layout().span(access.max_touched_slot());
                read_bytes += span_b;
                cold_extra_read_bytes += m.layout().block_len - span_b;

                // Sub-writes: state word + every write-set slot (+ the
                // verdict cell). The engine's dirty-diff runs only ever
                // commit fewer runs and fewer bytes: changed bytes live
                // inside the state word and write-set slots, at most
                // one run forms per field, and the gap-merge rule only
                // fires when the 6-byte header it saves covers the gap
                // bytes it adds — so this slot-granular bound
                // dominates, and is exact when every write-set field
                // changes and no runs merge.
                k += 1 + access.writes.len();
                data += m.layout().state_bytes
                    + access
                        .writes
                        .iter()
                        .map(|&s| slot_bytes(m, s))
                        .sum::<usize>();
                if emits {
                    emitters += 1;
                    k += 1;
                    data += VERDICT_BYTES;
                }
            }

            // Verdict readback of a redelivery: count + one cell per
            // possible emitter.
            reads += 1 + emitters;
            read_bytes += U32_BYTES + VERDICT_BYTES * emitters;

            let (writes, write_bytes, commit_bytes) = record_cost(k, data);
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
                replay_reads: replay_reads(k),
                cold_extra_read_bytes: cold_extra_read_bytes + commit_bytes,
                commit_bytes,
                read_bytes,
                write_bytes,
                cycles,
                floor_writes,
                floor_write_bytes,
                floor_cycles,
            });
        }
    }

    // Every machine block, then the verdict count and the seq.
    let reset_commit_bytes = record_bytes(
        machines.len() + 2,
        machines.iter().map(|m| m.layout().block_len).sum::<usize>() + U32_BYTES + U64_BYTES,
    );

    let worst_commit_bytes = per_key
        .iter()
        .map(|c| c.commit_bytes)
        .max()
        .unwrap_or(0)
        .max(reset_commit_bytes);

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
        let task = match c.task {
            Some(t) => compiled.task_name(t).to_string(),
            None => "<out-of-graph>".to_string(),
        };
        let subject = format!("event {:?}({task})", c.kind);
        // `writes` is the record's sub-writes plus its fixed overhead.
        let sub_writes = c.writes - commit_writes(0);
        if sub_writes > MAX_SUB_WRITES {
            diags.push(Diagnostic::error(
                "bounds",
                subject.clone(),
                format!(
                    "a record of {sub_writes} sub-writes exceeds the {MAX_SUB_WRITES} \
                     one journal record holds"
                ),
            ));
        }
        if c.commit_bytes > capacity {
            diags.push(Diagnostic::error(
                "bounds",
                subject,
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
        // Flag + seq (2) + span load (1) + readback count and cell (2).
        assert_eq!(start_a.reads, 2 + 1 + 1 + 1);
        // One record: seq, verdict count, state, counter and verdict
        // cell (5 sub-writes + 3).
        assert_eq!(start_a.writes, 5 + 3);
        assert_eq!(start_a.floor_writes, commit_writes(2));
        // Cold refill = flag + seq + 1 block.
        assert_eq!(start_a.cold_extra_reads, 2 + 1);
        let state = m.layout().state_bytes;
        let slot = slot_bytes(m, 0);
        let span = m.layout().span(Some(0));
        assert_eq!(
            start_a.read_bytes,
            // flag + seq, span load, readback count + one cell.
            (FLAG_BYTES + U64_BYTES) + span + (U32_BYTES + VERDICT_BYTES)
        );
        let data = U64_BYTES + U32_BYTES + state + slot + VERDICT_BYTES;
        let record = record_bytes(5, data);
        assert_eq!(start_a.commit_bytes, record);
        assert_eq!(start_a.write_bytes, record + data + 2 * FLAG_BYTES);
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
        // An un-armed key still pays the routing lookup and the
        // smallest record (seq + verdict count), nothing else.
        assert_eq!(wild.cycles, ROUTING_LOOKUP_CYCLES);
        assert_eq!(wild.floor_cycles, ROUTING_LOOKUP_CYCLES);
        assert_eq!(wild.writes, wild.floor_writes);
        // Sema gives each property its task's only path, so a delivery
        // from another path may skip the machine: its step is not
        // certain work.
        assert_eq!(cs.machine_path(0), Some(1));
        assert_eq!(start_a.floor_cycles, ROUTING_LOOKUP_CYCLES);
        assert_eq!(wild.write_bytes, wild.floor_write_bytes);
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
        // Flag + seq (2) + span load (1) + readback count (1).
        assert_eq!(start_a.reads, 2 + 1 + 1);
        // One record: seq, verdict count, state and slot (4 + 3).
        assert_eq!(start_a.writes, 4 + 3);
        // v0's unguarded increment widens it to a full 8-byte slot, but
        // the state (1 state) and the eleven untouched counters all
        // pack to 1 byte: the span covers the state and v0 only.
        let m = &cs.machines()[0];
        assert_eq!(m.layout().state_bytes, 1);
        assert_eq!(m.layout().span(Some(0)), 1 + 8);
        assert_eq!(m.layout().block_len, 1 + 8 + 11);
        assert_eq!(
            start_a.read_bytes,
            (FLAG_BYTES + U64_BYTES) + (1 + 8) + U32_BYTES
        );
        // The record stages 4 entries, then applies 21 payload bytes.
        let data = U64_BYTES + U32_BYTES + 1 + 8;
        let record = record_bytes(4, data);
        assert_eq!(start_a.commit_bytes, record);
        assert_eq!(start_a.write_bytes, record + data + 2);
        assert_eq!(
            start_a.cycles,
            ROUTING_LOOKUP_CYCLES + COMPILED_DISPATCH_CYCLES + STEP_PER_TRANSITION_CYCLES
        );
        // A machine without a `Path:` qualifier steps on every event of
        // its keys, so its step is part of the delivery floor.
        assert_eq!(cs.machine_path(0), None);
        assert_eq!(start_a.floor_cycles, start_a.cycles);
        // The cold refill is flag + seq + one whole-block fill — the
        // eleven bytes past the span are the refill's extra read bytes,
        // on top of re-reading a torn record for replay.
        assert_eq!(start_a.cold_extra_reads, 2 + 1);
        assert_eq!(start_a.replay_reads, replay_reads(4));
        assert_eq!(start_a.cold_extra_read_bytes, 11 + record);
        // The suite's capacity also covers the whole-block reset image.
        assert_eq!(
            b.reset_commit_bytes,
            record_bytes(3, (1 + 8 + 11) + U32_BYTES + U64_BYTES)
        );
        assert_eq!(
            b.worst_commit_bytes,
            record.max(b.reset_commit_bytes),
            "the capacity is the larger of the reset and the worst event record"
        );
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
