//! Bytecode optimizer pipeline.
//!
//! Runs between codegen ([`crate::compile`]) and the install-time
//! verifier ([`crate::analysis::verify_machine`]) — deliberately in
//! that order: the verifier checks exactly the instruction stream the
//! engine will execute, so no optimizer bug can smuggle an unverified
//! program past the gate. Every pass is *verifier-monotone*: it only
//! rewrites code into shapes the verifier types at least as precisely
//! (a folded `Const` where a `Bin` stood, a fused branch whose result
//! register is provably `Bool` on every surviving path), which is what
//! the "optimizer output always verifies" fuzzer population pins.
//!
//! Passes, applied per guard/body range to fixpoint:
//!
//! 1. **Jump threading** — branches that land on an unconditional
//!    `Jump` retarget to its destination (forward-only, so the
//!    verifier's strictly-forward jump rule is preserved).
//! 2. **Constant folding** — `Const`-fed `Bin`/`Not` results become
//!    pool literals; folding is skipped when `apply` would error, so
//!    the error surface is unchanged. The ISA has no register-move, so
//!    classic copy propagation degenerates to this literal propagation.
//! 3. **Dead code elimination** — unreachable instructions,
//!    never-erroring pure loads whose destination is dead, provably
//!    redundant `AssertBool`s (source written by a bool-producing
//!    instruction on the same straight line), self-fall-through
//!    `Jump { target: pc + 1 }`, and straight-line dead stores whose
//!    coercion provably cannot error.
//! 4. **Fusion** — the superinstructions [`Op::CmpBranch`]
//!    (compare + conditional jump), [`Op::LoadCmpBranch`] (slot load +
//!    literal compare + jump — the dominant `var cmp lit` guard shape;
//!    unconditional guard tails fuse with a fall-through target), and
//!    [`Op::ConstStore`] (literal store). Only comparison operators
//!    are fused, and a branch-polarity flag replaces operator negation
//!    so float comparisons stay NaN-exact.
//! 5. **Register compaction** — surviving registers renumber densely.
//!    Register 0 (the guard-result contract with the engine) is the
//!    smallest index, so it always maps to itself.
//!
//! The optimized ranges are reassembled through
//! [`CompiledMachine::from_raw`], which recomputes the access sets,
//! packed layout, and static step costs from the new code — derived
//! data can never go stale.

use core::ops::Range;

use crate::compile::{CompiledMachine, Op, RawMachine};
use crate::expr::{apply, BinOp, Value, VarType};

/// How hard [`CompiledMachine::compile`] works on the bytecode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OptLevel {
    /// Straight-from-lowering bytecode. Kept as the differential
    /// oracle for the optimizer, exactly as `ExecMode::Interpreter` is
    /// for the compiler.
    None,
    /// The full pipeline documented in [`crate::opt`].
    #[default]
    Full,
}

impl OptLevel {
    /// Reads the `ARTEMIS_OPT_LEVEL` environment knob (`none` /
    /// `full`, case-insensitive; anything else — including unset —
    /// resolves to the default). Used by the equivalence suite and the
    /// bench drivers so CI can force the unoptimized oracle.
    pub fn from_env() -> OptLevel {
        match std::env::var("ARTEMIS_OPT_LEVEL") {
            Ok(v) if v.eq_ignore_ascii_case("none") => OptLevel::None,
            _ => OptLevel::default(),
        }
    }
}

/// Optimizes every guard/body range of a compiled machine and
/// reassembles it via [`CompiledMachine::from_raw`] (recomputing
/// access sets, layout, and step costs). Semantics-preserving for any
/// machine the verifier accepts; a machine with backward or
/// out-of-range jump targets is returned unchanged.
pub fn optimize_machine(m: &CompiledMachine) -> CompiledMachine {
    let raw = m.to_raw();
    let var_tys: Vec<VarType> = raw.var_inits.iter().map(|v| v.ty()).collect();
    let mut lits = raw.lits.clone();

    // Extract every range up front; bail out wholesale on shapes the
    // verifier would reject (the ranges keep absolute targets there,
    // so they cannot be relocated).
    let mut pieces: Vec<(Option<Vec<Op>>, Vec<Op>)> = Vec::with_capacity(raw.transitions.len());
    for t in &raw.transitions {
        let guard = match &t.guard {
            None => None,
            Some(g) => match extract(&raw.code, g) {
                Some(ops) => Some(ops),
                None => return m.clone(),
            },
        };
        let Some(body) = extract(&raw.code, &t.body) else {
            return m.clone();
        };
        pieces.push((guard, body));
    }

    let mut code: Vec<Op> = Vec::with_capacity(raw.code.len());
    let mut transitions = raw.transitions.clone();
    for (t, (guard, body)) in transitions.iter_mut().zip(pieces) {
        t.guard =
            guard.map(|ops| append_range(&mut code, optimize_ops(ops, &mut lits, &var_tys, true)));
        t.body = append_range(&mut code, optimize_ops(body, &mut lits, &var_tys, false));
    }

    let max_regs = code
        .iter()
        .map(|op| {
            let (reads, writes) = reg_uses(op);
            reads
                .iter()
                .chain(writes.iter())
                .map(|&r| r as usize + 1)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0);

    CompiledMachine::from_raw(RawMachine {
        code,
        lits,
        transitions,
        dispatch: raw.dispatch,
        wildcard: raw.wildcard,
        max_regs,
        initial_state: raw.initial_state,
        var_count: raw.var_count,
        var_inits: raw.var_inits,
    })
}

/// Appends a locally-targeted range to the machine's code stream,
/// rebasing targets to absolute indices.
fn append_range(code: &mut Vec<Op>, mut ops: Vec<Op>) -> Range<u32> {
    let start = code.len() as u32;
    for op in &mut ops {
        if let Some(t) = target_mut(op) {
            *t += start;
        }
    }
    code.extend(ops);
    start..code.len() as u32
}

/// Runs the pass pipeline on one range (local targets, exit = `len`).
fn optimize_ops(
    mut ops: Vec<Op>,
    lits: &mut Vec<Value>,
    var_tys: &[VarType],
    is_guard: bool,
) -> Vec<Op> {
    for _ in 0..8 {
        let mut changed = thread_jumps(&mut ops);
        changed |= fold_constants(&mut ops, lits);
        changed |= dce(&mut ops, lits, var_tys, is_guard);
        changed |= fuse(&mut ops, lits, is_guard);
        if !changed {
            break;
        }
    }
    compact_registers(&mut ops);
    ops
}

/// Clones a range out of the code stream with targets rebased to local
/// indices (exit = range length). Returns `None` when any target is
/// backward or outside the range — shapes the verifier rejects.
fn extract(code: &[Op], range: &Range<u32>) -> Option<Vec<Op>> {
    let start = range.start as usize;
    let end = range.end as usize;
    if start > end || end > code.len() {
        return None;
    }
    let mut ops = code[start..end].to_vec();
    for (i, op) in ops.iter_mut().enumerate() {
        if let Some(t) = target_mut(op) {
            let abs = *t as usize;
            if abs <= start + i || abs > end {
                return None;
            }
            *t = (abs - start) as u32;
        }
    }
    Some(ops)
}

/// The branch target of an instruction, if it has one.
fn target_of(op: &Op) -> Option<u32> {
    match op {
        Op::Jump { target }
        | Op::JumpIfFalse { target, .. }
        | Op::JumpIfTrue { target, .. }
        | Op::CmpBranch { target, .. }
        | Op::LoadCmpBranch { target, .. } => Some(*target),
        _ => None,
    }
}

/// Mutable access to an instruction's branch target.
fn target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jump { target }
        | Op::JumpIfFalse { target, .. }
        | Op::JumpIfTrue { target, .. }
        | Op::CmpBranch { target, .. }
        | Op::LoadCmpBranch { target, .. } => Some(target),
        _ => None,
    }
}

/// `(reads, writes)` register operands of an instruction.
fn reg_uses(op: &Op) -> (Vec<u16>, Vec<u16>) {
    match op {
        Op::Const { dst, .. }
        | Op::LoadVar { dst, .. }
        | Op::LoadEventTime { dst }
        | Op::LoadDepData { dst }
        | Op::LoadEnergy { dst }
        | Op::LoadCmpBranch { dst, .. } => (vec![], vec![*dst]),
        Op::Bin { dst, a, b, .. } | Op::CmpBranch { dst, a, b, .. } => (vec![*a, *b], vec![*dst]),
        Op::Not { dst, src } => (vec![*src], vec![*dst]),
        Op::AssertBool { src }
        | Op::JumpIfFalse { src, .. }
        | Op::JumpIfTrue { src, .. }
        | Op::StoreVar { src, .. } => (vec![*src], vec![]),
        Op::Jump { .. } | Op::ConstStore { .. } => (vec![], vec![]),
    }
}

/// One past the highest register index any instruction touches
/// (minimum 1, so analysis vectors are never empty).
fn max_reg_count(ops: &[Op]) -> usize {
    ops.iter()
        .map(|op| {
            let (r, w) = reg_uses(op);
            r.iter()
                .chain(w.iter())
                .map(|&x| x as usize + 1)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Local successor indices of instruction `i` (exit = `len`).
fn successors(ops: &[Op], i: usize) -> (usize, Option<usize>) {
    match &ops[i] {
        Op::Jump { target } => (*target as usize, None),
        op => match target_of(op) {
            Some(t) => (i + 1, Some(t as usize)),
            None => (i + 1, None),
        },
    }
}

/// Indices that are branch targets (labels). The exit pseudo-index is
/// not included.
fn label_set(ops: &[Op]) -> Vec<bool> {
    let mut labels = vec![false; ops.len()];
    for op in ops {
        if let Some(t) = target_of(op) {
            if let Some(l) = labels.get_mut(t as usize) {
                *l = true;
            }
        }
    }
    labels
}

/// Pass 1: retarget branches that land on an unconditional `Jump` to
/// its final destination. Targets only ever move forward.
fn thread_jumps(ops: &mut [Op]) -> bool {
    let mut changed = false;
    for i in 0..ops.len() {
        let Some(t0) = target_of(&ops[i]) else {
            continue;
        };
        let mut t = t0;
        while let Some(Op::Jump { target }) = ops.get(t as usize) {
            t = *target;
        }
        if t != t0 {
            *target_mut(&mut ops[i]).expect("has target") = t;
            changed = true;
        }
    }
    changed
}

/// Interns a value into the literal pool (deduplicating by equality).
/// Returns `None` if the pool is full.
fn intern(lits: &mut Vec<Value>, v: Value) -> Option<u16> {
    let idx = match lits.iter().position(|l| *l == v) {
        Some(i) => i,
        None => {
            if lits.len() >= u16::MAX as usize {
                return None;
            }
            lits.push(v);
            lits.len() - 1
        }
    };
    Some(idx as u16)
}

/// Pass 2: straight-line constant folding. Registers holding known
/// pool literals fold `Bin`/`Not` into `Const` — but only when `apply`
/// succeeds, so an erroring operation is never optimized away.
/// Knowledge resets at labels (join points).
fn fold_constants(ops: &mut [Op], lits: &mut Vec<Value>) -> bool {
    let labels = label_set(ops);
    let mut known: Vec<Option<Value>> = Vec::new();
    let set = |known: &mut Vec<Option<Value>>, r: u16, v: Option<Value>| {
        let r = r as usize;
        if known.len() <= r {
            known.resize(r + 1, None);
        }
        known[r] = v;
    };
    let get = |known: &[Option<Value>], r: u16| known.get(r as usize).copied().flatten();
    let mut changed = false;
    for i in 0..ops.len() {
        if labels[i] {
            known.clear();
        }
        match ops[i] {
            Op::Const { dst, lit } => set(&mut known, dst, lits.get(lit as usize).copied()),
            Op::Bin { op, dst, a, b } => {
                let folded = match (get(&known, a), get(&known, b)) {
                    (Some(va), Some(vb)) => apply(op, va, vb).ok(),
                    _ => None,
                };
                match folded.and_then(|v| intern(lits, v).map(|l| (v, l))) {
                    Some((v, lit)) => {
                        ops[i] = Op::Const { dst, lit };
                        set(&mut known, dst, Some(v));
                        changed = true;
                    }
                    None => set(&mut known, dst, None),
                }
            }
            Op::Not { dst, src } => match get(&known, src) {
                Some(Value::Bool(b)) => {
                    if let Some(lit) = intern(lits, Value::Bool(!b)) {
                        ops[i] = Op::Const { dst, lit };
                        set(&mut known, dst, Some(Value::Bool(!b)));
                        changed = true;
                    } else {
                        set(&mut known, dst, None);
                    }
                }
                _ => set(&mut known, dst, None),
            },
            Op::LoadVar { dst, .. }
            | Op::LoadEventTime { dst }
            | Op::LoadDepData { dst }
            | Op::LoadEnergy { dst }
            | Op::CmpBranch { dst, .. }
            | Op::LoadCmpBranch { dst, .. } => set(&mut known, dst, None),
            Op::AssertBool { .. }
            | Op::JumpIfFalse { .. }
            | Op::JumpIfTrue { .. }
            | Op::Jump { .. }
            | Op::StoreVar { .. }
            | Op::ConstStore { .. } => {}
        }
    }
    changed
}

/// Instructions reachable from the range entry.
fn reachable(ops: &[Op]) -> Vec<bool> {
    let mut reach = vec![false; ops.len()];
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        if i >= ops.len() || reach[i] {
            continue;
        }
        reach[i] = true;
        let (s0, s1) = successors(ops, i);
        stack.push(s0);
        if let Some(s1) = s1 {
            stack.push(s1);
        }
    }
    reach
}

/// Backward liveness: `live_after[i][r]` = register `r` may be read
/// after instruction `i` completes. Exact in one reverse pass because
/// every edge is forward. Guards keep register 0 live at exit (the
/// engine reads the verdict there).
fn liveness(ops: &[Op], is_guard: bool) -> Vec<Vec<bool>> {
    let nregs = max_reg_count(ops);
    let mut exit = vec![false; nregs];
    if is_guard {
        exit[0] = true;
    }
    let mut live_in: Vec<Vec<bool>> = vec![vec![false; nregs]; ops.len() + 1];
    live_in[ops.len()] = exit;
    let mut live_after = vec![vec![false; nregs]; ops.len()];
    for i in (0..ops.len()).rev() {
        let (s0, s1) = successors(ops, i);
        let mut out = live_in[s0.min(ops.len())].clone();
        if let Some(s1) = s1 {
            for (o, l) in out.iter_mut().zip(&live_in[s1.min(ops.len())]) {
                *o |= *l;
            }
        }
        live_after[i] = out.clone();
        let (reads, writes) = reg_uses(&ops[i]);
        for w in writes {
            out[w as usize] = false;
        }
        for r in reads {
            out[r as usize] = true;
        }
        live_in[i] = out;
    }
    live_after
}

/// Forward type provenance: `Some(ty)` when a register provably holds
/// that type at the instruction's entry. With `trust_var_types`,
/// `LoadVar` yields the slot's declared type (sound at runtime, used
/// for dead-store coercion proofs); without it, only instruction
/// provenance counts (matching what the verifier itself derives, used
/// for `AssertBool` removal so the rewrite stays verifier-monotone).
/// Knowledge resets at labels.
fn type_provenance(
    ops: &[Op],
    lits: &[Value],
    var_tys: &[VarType],
    trust_var_types: bool,
) -> Vec<Vec<Option<VarType>>> {
    let labels = label_set(ops);
    let nregs = max_reg_count(ops);
    let mut tys: Vec<Option<VarType>> = vec![None; nregs];
    let mut at_entry = vec![Vec::new(); ops.len()];
    for i in 0..ops.len() {
        if labels[i] {
            tys.iter_mut().for_each(|t| *t = None);
        }
        at_entry[i] = tys.clone();
        let mut set = |r: u16, t: Option<VarType>| {
            if let Some(slot) = tys.get_mut(r as usize) {
                *slot = t;
            }
        };
        match &ops[i] {
            Op::Const { dst, lit } => set(*dst, lits.get(*lit as usize).map(|v| v.ty())),
            Op::LoadVar { dst, slot } => set(
                *dst,
                var_tys
                    .get(*slot as usize)
                    .copied()
                    .filter(|_| trust_var_types),
            ),
            Op::LoadEventTime { dst } => set(*dst, Some(VarType::Time)),
            Op::LoadDepData { dst } => set(*dst, Some(VarType::Float)),
            Op::LoadEnergy { dst } => set(*dst, Some(VarType::Int)),
            Op::Bin { op, dst, .. } => {
                // On the surviving path a comparison (or short-circuit
                // operator) produced a bool; arithmetic is typed only
                // by the verifier's own rule, so stay conservative.
                let t = match op {
                    BinOp::Add | BinOp::Sub => None,
                    _ => Some(VarType::Bool),
                };
                set(*dst, t);
            }
            Op::Not { dst, .. } => set(*dst, Some(VarType::Bool)),
            // Past these, the source/result register survived an
            // `as_bool`, so it is `Bool` on every continuing path.
            Op::AssertBool { src } => set(*src, Some(VarType::Bool)),
            Op::JumpIfFalse { src, .. } | Op::JumpIfTrue { src, .. } => {
                set(*src, Some(VarType::Bool))
            }
            Op::CmpBranch { dst, .. } | Op::LoadCmpBranch { dst, .. } => {
                set(*dst, Some(VarType::Bool))
            }
            Op::Jump { .. } | Op::StoreVar { .. } | Op::ConstStore { .. } => {}
        }
    }
    at_entry
}

/// `true` when coercing a value of type `from` into a slot of type
/// `to` can never raise `TypeMismatch` (see `crate::exec::coerce`).
fn coerce_never_errors(from: VarType, to: VarType) -> bool {
    from == to
        || matches!(
            (from, to),
            (VarType::Int, VarType::Time)
                | (VarType::Time, VarType::Int)
                | (VarType::Int, VarType::Float)
        )
}

/// Pass 3: dead code elimination. See the module docs for the exact
/// removal classes; every one preserves both runtime semantics (for
/// verified machines) and verifier acceptance.
fn dce(ops: &mut Vec<Op>, lits: &[Value], var_tys: &[VarType], is_guard: bool) -> bool {
    let reach = reachable(ops);
    let live = liveness(ops, is_guard);
    let by_op = type_provenance(ops, lits, var_tys, false);
    let with_vars = type_provenance(ops, lits, var_tys, true);
    let labels = label_set(ops);

    let mut keep = vec![true; ops.len()];
    let mut changed = false;
    for i in 0..ops.len() {
        let dead = |r: u16| !live[i].get(r as usize).copied().unwrap_or(false);
        let remove = if !reach[i] {
            true
        } else {
            match &ops[i] {
                Op::Const { dst, .. }
                | Op::LoadVar { dst, .. }
                | Op::LoadEventTime { dst }
                | Op::LoadEnergy { dst } => dead(*dst),
                Op::AssertBool { src } => {
                    by_op[i].get(*src as usize).copied().flatten() == Some(VarType::Bool)
                }
                Op::Jump { target } => *target as usize == i + 1,
                Op::StoreVar { slot, src } => store_is_dead(
                    ops,
                    &labels,
                    var_tys,
                    i,
                    *slot,
                    with_vars[i].get(*src as usize).copied().flatten(),
                ),
                Op::ConstStore { slot, lit } => store_is_dead(
                    ops,
                    &labels,
                    var_tys,
                    i,
                    *slot,
                    lits.get(*lit as usize).map(|v| v.ty()),
                ),
                _ => false,
            }
        };
        if remove {
            keep[i] = false;
            changed = true;
        }
    }
    if changed {
        compact_ops(ops, &keep);
    }
    changed
}

/// A store at `i` is dead when a same-slot store strictly later on the
/// same straight line overwrites it before any read of the slot, and
/// its own coercion provably cannot error (so removing it removes no
/// error surface).
fn store_is_dead(
    ops: &[Op],
    labels: &[bool],
    var_tys: &[VarType],
    i: usize,
    slot: u16,
    ty: Option<VarType>,
) -> bool {
    let Some(ty) = ty else {
        return false;
    };
    let Some(slot_ty) = var_tys.get(slot as usize) else {
        return false;
    };
    if !coerce_never_errors(ty, *slot_ty) {
        return false;
    }
    for (j, op) in ops.iter().enumerate().skip(i + 1) {
        if labels[j] || target_of(op).is_some() {
            return false;
        }
        match op {
            Op::LoadVar { slot: s, .. } | Op::LoadCmpBranch { slot: s, .. } if *s == slot => {
                return false;
            }
            Op::StoreVar { slot: s, .. } | Op::ConstStore { slot: s, .. } if *s == slot => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Removes un-kept instructions, remapping every target to the first
/// kept instruction at or after it (removed instructions are provably
/// effect-free, so falling through them is equivalent).
fn compact_ops(ops: &mut Vec<Op>, keep: &[bool]) {
    let mut map = Vec::with_capacity(ops.len() + 1);
    let mut n = 0u32;
    for &k in keep {
        map.push(n);
        if k {
            n += 1;
        }
    }
    map.push(n);
    let mut out = Vec::with_capacity(n as usize);
    for (i, op) in ops.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let mut op = *op;
        if let Some(t) = target_mut(&mut op) {
            *t = map[*t as usize];
        }
        out.push(op);
    }
    *ops = out;
}

/// `true` for the operators fusion may embed in a branch.
fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

/// Pass 4: superinstruction fusion. Windows never span labels, and a
/// window's temporary registers must be dead after it (true for all
/// compiler-emitted shapes, checked explicitly for safety).
fn fuse(ops: &mut Vec<Op>, _lits: &[Value], is_guard: bool) -> bool {
    let labels = label_set(ops);
    let live = liveness(ops, is_guard);
    let len = ops.len();
    let no_label = |mut r: Range<usize>| r.all(|j| !labels[j]);
    // Temp register `r` may vanish if the fused op overwrites it
    // (r == dst) or nothing reads it after the window's last op.
    let temp_ok = |last: usize, r: u16, dst: u16| {
        r == dst || !live[last].get(r as usize).copied().unwrap_or(false)
    };

    let mut out: Vec<Op> = Vec::with_capacity(len);
    let mut map = vec![0u32; len + 1];
    let mut changed = false;
    let mut i = 0;
    while i < len {
        let fused: Option<(Op, usize)> = match ops[i..] {
            // LoadVar ; Const ; Bin cmp [; JumpIf*] → LoadCmpBranch.
            [Op::LoadVar { dst: r1, slot }, Op::Const { dst: r2, lit }, Op::Bin { op, dst, a, b }, ..]
                if is_cmp(op) && a == r1 && b == r2 && r1 != r2 && no_label(i + 1..i + 3) =>
            {
                match ops.get(i + 3) {
                    Some(&Op::JumpIfFalse { src, target })
                        if src == dst
                            && !labels[i + 3]
                            && temp_ok(i + 3, r1, dst)
                            && temp_ok(i + 3, r2, dst) =>
                    {
                        Some((
                            Op::LoadCmpBranch {
                                op,
                                dst,
                                slot,
                                lit,
                                target,
                                when: false,
                            },
                            4,
                        ))
                    }
                    Some(&Op::JumpIfTrue { src, target })
                        if src == dst
                            && !labels[i + 3]
                            && temp_ok(i + 3, r1, dst)
                            && temp_ok(i + 3, r2, dst) =>
                    {
                        Some((
                            Op::LoadCmpBranch {
                                op,
                                dst,
                                slot,
                                lit,
                                target,
                                when: true,
                            },
                            4,
                        ))
                    }
                    _ if temp_ok(i + 2, r1, dst) && temp_ok(i + 2, r2, dst) => Some((
                        // No consumer branch: fall through either way.
                        Op::LoadCmpBranch {
                            op,
                            dst,
                            slot,
                            lit,
                            target: (i + 3) as u32,
                            when: false,
                        },
                        3,
                    )),
                    _ => None,
                }
            }
            // Bin cmp ; JumpIf* → CmpBranch.
            [Op::Bin { op, dst, a, b }, Op::JumpIfFalse { src, target }, ..]
                if is_cmp(op) && src == dst && !labels[i + 1] =>
            {
                Some((
                    Op::CmpBranch {
                        op,
                        dst,
                        a,
                        b,
                        target,
                        when: false,
                    },
                    2,
                ))
            }
            [Op::Bin { op, dst, a, b }, Op::JumpIfTrue { src, target }, ..]
                if is_cmp(op) && src == dst && !labels[i + 1] =>
            {
                Some((
                    Op::CmpBranch {
                        op,
                        dst,
                        a,
                        b,
                        target,
                        when: true,
                    },
                    2,
                ))
            }
            // Const ; StoreVar → ConstStore (temp register dies).
            [Op::Const { dst, lit }, Op::StoreVar { slot, src }, ..]
                if src == dst
                    && !labels[i + 1]
                    && !live[i + 1].get(dst as usize).copied().unwrap_or(false) =>
            {
                Some((Op::ConstStore { slot, lit }, 2))
            }
            _ => None,
        };
        match fused {
            Some((op, width)) => {
                for entry in map.iter_mut().skip(i).take(width) {
                    *entry = out.len() as u32;
                }
                out.push(op);
                i += width;
                changed = true;
            }
            None => {
                map[i] = out.len() as u32;
                out.push(ops[i]);
                i += 1;
            }
        }
    }
    map[len] = out.len() as u32;
    if changed {
        for op in &mut out {
            if let Some(t) = target_mut(op) {
                *t = map[*t as usize];
            }
        }
        *ops = out;
    }
    changed
}

/// Pass 5: renumber surviving registers densely. Rank order preserves
/// relative indices, so register 0 — when used at all, as every guard
/// does for its result — stays register 0.
fn compact_registers(ops: &mut [Op]) {
    let mut used: Vec<u16> = ops
        .iter()
        .flat_map(|op| {
            let (r, w) = reg_uses(op);
            r.into_iter().chain(w)
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    if used.iter().enumerate().all(|(i, &r)| i as u16 == r) {
        return;
    }
    let rank = |r: u16| used.binary_search(&r).expect("collected") as u16;
    for op in ops.iter_mut() {
        match op {
            Op::Const { dst, .. }
            | Op::LoadVar { dst, .. }
            | Op::LoadEventTime { dst }
            | Op::LoadDepData { dst }
            | Op::LoadEnergy { dst }
            | Op::LoadCmpBranch { dst, .. } => *dst = rank(*dst),
            Op::Bin { dst, a, b, .. } | Op::CmpBranch { dst, a, b, .. } => {
                *dst = rank(*dst);
                *a = rank(*a);
                *b = rank(*b);
            }
            Op::Not { dst, src } => {
                *dst = rank(*dst);
                *src = rank(*src);
            }
            Op::AssertBool { src }
            | Op::JumpIfFalse { src, .. }
            | Op::JumpIfTrue { src, .. }
            | Op::StoreVar { src, .. } => *src = rank(*src),
            Op::Jump { .. } | Op::ConstStore { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledEvent, CompiledSuite, Op};
    use crate::expr::EventCtx;
    use artemis_core::app::{AppGraph, AppGraphBuilder};
    use artemis_core::event::EventKind;

    /// Spec exercising every property compiler — the same coverage
    /// shape the verifier fuzzer mutates.
    const SPEC: &str = "\
        a { maxTries: 3 onFail: skipPath; }\n\
        b { MITD: 10s dpTask: a onFail: restartPath maxAttempt: 2 onFail: skipPath; \
            collect: 2 dpTask: a onFail: restartPath; \
            maxDuration: 5s onFail: skipTask; }";

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let a = b.task("a");
        let t = b.task("b");
        b.path(&[a, t]);
        b.build().unwrap()
    }

    fn suites() -> (crate::MonitorSuite, CompiledSuite, CompiledSuite) {
        let app = app();
        let suite = crate::compile(SPEC, &app).unwrap();
        let none = CompiledSuite::compile_with(&suite, &app, OptLevel::None).unwrap();
        let full = CompiledSuite::compile_with(&suite, &app, OptLevel::Full).unwrap();
        (suite, none, full)
    }

    /// Full strictly shrinks the guard-heavy spec's bytecode.
    #[test]
    fn full_shrinks_bytecode() {
        let (_, none, full) = suites();
        let before: usize = none.machines().iter().map(|m| m.op_count()).sum();
        let after: usize = full.machines().iter().map(|m| m.op_count()).sum();
        assert!(
            after < before,
            "optimizer did not shrink the suite: {after} >= {before}"
        );
    }

    /// The optimized suite actually uses the fused superinstructions
    /// (guard tails → `LoadCmpBranch`, literal writes → `ConstStore`),
    /// and the unoptimized oracle contains none of them.
    #[test]
    fn full_emits_superinstructions_none_does_not() {
        let (_, none, full) = suites();
        let count = |s: &CompiledSuite, pred: fn(&Op) -> bool| -> usize {
            s.machines()
                .iter()
                .flat_map(|m| m.to_raw().code)
                .filter(&pred)
                .count()
        };
        let fused = |op: &Op| {
            matches!(
                op,
                Op::CmpBranch { .. } | Op::LoadCmpBranch { .. } | Op::ConstStore { .. }
            )
        };
        assert_eq!(
            count(&none, fused),
            0,
            "oracle must stay superinstruction-free"
        );
        assert!(
            count(&full, |op| matches!(op, Op::LoadCmpBranch { .. })) > 0,
            "no guard tail fused to LoadCmpBranch"
        );
        assert!(
            count(&full, |op| matches!(op, Op::ConstStore { .. })) > 0,
            "no literal write fused to ConstStore"
        );
    }

    /// No shipped bytecode — at either level — contains a jump to its
    /// own fall-through (`Jump { target == pc + 1 }`), the dead-op
    /// shape the `if` codegen used to emit for empty else branches.
    #[test]
    fn no_self_fall_through_jumps_at_any_level() {
        let (_, none, full) = suites();
        for (level, suite) in [("none", &none), ("full", &full)] {
            for m in suite.machines() {
                let code = m.to_raw().code;
                for (pc, op) in code.iter().enumerate() {
                    if let Op::Jump { target } = op {
                        assert_ne!(
                            *target as usize,
                            pc + 1,
                            "self-fall-through jump at pc {pc} (opt level {level})"
                        );
                    }
                }
            }
        }
    }

    /// Differential oracle: `OptLevel::Full` and `OptLevel::None` agree
    /// event for event — verdicts, state, and variable values — across
    /// an event grid covering guards, time arithmetic, and depData.
    #[test]
    fn full_matches_none_on_event_grid() {
        let (suite, none, full) = suites();
        for ((src, n), f) in suite
            .machines()
            .iter()
            .zip(none.machines())
            .zip(full.machines())
        {
            let mut nstate = (n.initial_state(), src.initial_vars());
            let mut fstate = (f.initial_state(), src.initial_vars());
            let mut nregs = vec![Value::Int(0); n.max_regs().max(1)];
            let mut fregs = vec![Value::Int(0); f.max_regs().max(1)];
            let mut seq = 0u64;
            for kind in [EventKind::StartTask, EventKind::EndTask] {
                for task in [0u32, 1, u32::MAX] {
                    for burst in 0..4 {
                        seq += 1;
                        let ctx = EventCtx {
                            // Mix sub-threshold and past-deadline gaps.
                            time_us: seq * if burst < 2 { 1_000 } else { 7_000_000 },
                            dep_data: seq.is_multiple_of(3).then_some(seq as f64),
                            energy_nj: 42_000,
                        };
                        let ev = CompiledEvent { kind, task, ctx };
                        let nr = n
                            .step(&mut nstate.0, &mut nstate.1, &ev, &mut nregs)
                            .map(|e| e.cloned());
                        let fr = f
                            .step(&mut fstate.0, &mut fstate.1, &ev, &mut fregs)
                            .map(|e| e.cloned());
                        assert_eq!(nr, fr, "{}: verdict diverged at seq {seq}", src.name);
                        assert_eq!(nstate.0, fstate.0, "{}: state diverged", src.name);
                        assert_eq!(nstate.1, fstate.1, "{}: vars diverged", src.name);
                    }
                }
            }
        }
    }

    /// Optimization only ever tightens the static compute ceiling:
    /// `Full` step costs are `<=` `None`'s on every key, strictly `<`
    /// on at least one guard-bearing key, and both count at least one
    /// instruction wherever a transition dispatches.
    #[test]
    fn step_cost_tightens_with_optimization() {
        let (_, none, full) = suites();
        let mut strictly_tighter = false;
        for (n, f) in none.machines().iter().zip(full.machines()) {
            for kind in [EventKind::StartTask, EventKind::EndTask] {
                for task in [0u32, 1, u32::MAX] {
                    let (nc, fc) = (n.step_cost(kind, task), f.step_cost(kind, task));
                    assert!(
                        fc.cycles <= nc.cycles && fc.instructions <= nc.instructions,
                        "optimization raised a ceiling for {kind:?}/{task}: {fc:?} > {nc:?}"
                    );
                    strictly_tighter |= fc.cycles < nc.cycles;
                    if n.dispatch_len(kind, task) > 0 {
                        assert!(nc.instructions > 0, "dispatching key with zero ceiling");
                    }
                }
            }
        }
        assert!(strictly_tighter, "no key tightened at all");
    }
}
