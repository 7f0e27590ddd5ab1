//! A redo journal for crash-atomic FRAM commits.
//!
//! Task-based intermittent runtimes require *all-or-nothing* task
//! effects: either every output of a task reaches nonvolatile memory or
//! none does, no matter where a power failure lands (paper §3.1, "Tasks
//! are atomic units with all-or-nothing semantics"). The classic
//! implementation — used here — is a redo journal in FRAM:
//!
//! 1. staged writes are copied into the journal region;
//! 2. the entry count is written;
//! 3. a single-byte *commit flag* is set (the linearisation point — a
//!    one-byte FRAM write is atomic on the real part);
//! 4. entries are applied to their home locations;
//! 5. the flag is cleared.
//!
//! A failure before step 3 discards the transaction; a failure after it
//! is repaired on reboot by [`Journal::recover`], which re-applies the
//! (idempotent) redo entries. Fault-injection tests in this module drive
//! a commit through a power failure at **every** possible byte boundary
//! and assert atomicity each time.
//!
//! Two record formats share the region, discriminated by the flag byte:
//!
//! - **Entry-list** ([`TxWriter`] via [`Journal::commit`], flag = 1):
//!   the classic format above. Each entry is staged with its own header
//!   write, and the apply phase re-reads every entry from the journal —
//!   `2e+1` FRAM reads and `3e+3` writes for `e` entries.
//! - **Sparse delta** ([`SparseTx`] via [`Journal::commit_sparse`],
//!   flag = 2): the whole length-prefixed record is staged in a single
//!   FRAM write, and after the flag is set the sub-writes are applied
//!   straight from RAM — `k+3` writes and **zero** reads for `k`
//!   sub-writes. Only reboot recovery re-reads the record from FRAM.
//!   This is the commit path for statically-derived write sets, where
//!   an event touches a handful of scattered slots.

use crate::device::{Fault, Interrupt};
use crate::fram::{Fram, MemOwner, NvCell, NvData, OutOfFram};

/// Direction of one journal FRAM access, passed to the `spend`
/// callbacks so the device bills read and write prices — and their
/// per-access base costs — to the right side of the cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalOp {
    /// The bytes are read from FRAM.
    Read,
    /// The bytes are written to FRAM.
    Write,
}

/// Byte cost of a journal entry header: `addr: u32` + `len: u16`.
const ENTRY_HEADER: usize = 6;
/// Byte offset of the commit flag within the journal region.
const FLAG_OFF: usize = 0;
/// Byte offset of the entry count (`u16`).
const COUNT_OFF: usize = 1;
/// First entry byte.
const ENTRIES_OFF: usize = 3;
/// Flag value: no transaction pending.
const FLAG_IDLE: u8 = 0;
/// Flag value: a committed entry-list transaction is pending.
const FLAG_ENTRIES: u8 = 1;
/// Flag value: a committed sparse-delta record is pending.
const FLAG_SPARSE: u8 = 2;
/// Most sub-writes one sparse record's `u16` count word can hold.
pub const MAX_SUB_WRITES: usize = u16::MAX as usize;

/// A volatile write-set staged by a task before commit.
///
/// Writes to the same cell are merged in place, so re-assigning an
/// output inside one task costs a single journal entry. Reads go
/// through [`TxWriter::read`], which observes staged values
/// (read-your-writes).
#[derive(Default, Debug)]
pub struct TxWriter {
    entries: Vec<(usize, Vec<u8>)>,
}

impl TxWriter {
    /// Creates an empty write-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a typed write.
    pub fn write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        let mut buf = vec![0u8; T::SIZE];
        value.store(&mut buf);
        self.write_raw(cell.addr(), buf);
    }

    /// Stages a raw write.
    pub fn write_raw(&mut self, addr: usize, data: Vec<u8>) {
        for (a, d) in self.entries.iter_mut() {
            if *a == addr && d.len() == data.len() {
                *d = data;
                return;
            }
        }
        self.entries.push((addr, data));
    }

    /// Reads a cell, observing staged writes first.
    pub fn read<T: NvData>(&self, fram: &mut Fram, cell: &NvCell<T>) -> T {
        for (a, d) in &self.entries {
            if *a == cell.addr() && d.len() == T::SIZE {
                return T::load(d);
            }
        }
        fram.read(cell)
    }

    /// Number of staged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total journal bytes this write-set will occupy.
    pub fn journal_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, d)| ENTRY_HEADER + d.len())
            .sum()
    }

    /// Discards all staged writes.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A volatile write-set destined for a single-record sparse commit.
///
/// Unlike [`TxWriter`], the staged sub-writes are serialised into one
/// length-prefixed record (`count: u16`, then `addr: u32`, `len: u16`,
/// `data` per sub-write) that [`Journal::commit_sparse`] stages with a
/// single FRAM write and applies straight from RAM. [`SparseTx::push`]
/// merges sub-writes to the same address in place, mirroring
/// [`TxWriter::write_raw`]; [`SparseTx::append_raw`] skips that scan
/// for callers that stage disjoint ranges. Payloads
/// live in one flat buffer, so a write-set reused through
/// [`SparseTx::clear`] stages without allocating.
#[derive(Default, Debug)]
pub struct SparseTx {
    /// `(addr, offset into data, len)` per sub-write, in staging order.
    writes: Vec<(usize, usize, usize)>,
    data: Vec<u8>,
}

impl SparseTx {
    /// Creates an empty sparse write-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a typed sub-write, replacing an earlier one of the same
    /// address and size.
    pub fn push<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        let addr = cell.addr();
        let staged = self
            .writes
            .iter()
            .find(|&&(a, _, len)| a == addr && len == T::SIZE);
        let off = match staged {
            Some(&(_, off, _)) => off,
            None => {
                let off = self.data.len();
                self.writes.push((addr, off, T::SIZE));
                self.data.resize(off + T::SIZE, 0);
                off
            }
        };
        value.store(&mut self.data[off..off + T::SIZE]);
    }

    /// Stages a raw sub-write without looking for an earlier one to
    /// merge with: the caller guarantees `addr..addr + data.len()`
    /// overlaps no other staged sub-write.
    pub fn append_raw(&mut self, addr: usize, data: &[u8]) {
        self.writes.push((addr, self.data.len(), data.len()));
        self.data.extend_from_slice(data);
    }

    /// Number of staged sub-writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Returns `true` if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Journal bytes the serialised record occupies: the count word
    /// plus a header and payload per sub-write.
    pub fn record_bytes(&self) -> usize {
        2 + ENTRY_HEADER * self.writes.len() + self.data.len()
    }

    /// The staged sub-writes as `(addr, data)`, in staging order.
    fn sub_writes(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.writes
            .iter()
            .map(|&(addr, off, len)| (addr, &self.data[off..off + len]))
    }

    /// Serialises the record image staged into the journal region.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.record_bytes());
        buf.extend_from_slice(&(self.writes.len() as u16).to_le_bytes());
        for (addr, data) in self.sub_writes() {
            buf.extend_from_slice(&(addr as u32).to_le_bytes());
            buf.extend_from_slice(&(data.len() as u16).to_le_bytes());
            buf.extend_from_slice(data);
        }
        buf
    }

    /// Discards all staged sub-writes, keeping the buffers.
    pub fn clear(&mut self) {
        self.writes.clear();
        self.data.clear();
    }
}

/// The journal region handle.
///
/// # Examples
///
/// ```
/// use intermittent_sim::fram::{Fram, MemOwner};
/// use intermittent_sim::journal::{Journal, TxWriter};
///
/// let mut fram = Fram::new(1024);
/// let journal = Journal::new(&mut fram, 128, MemOwner::Runtime).unwrap();
/// let cell = fram.alloc::<u32>(0, MemOwner::App, "x").unwrap();
///
/// let mut tx = TxWriter::new();
/// tx.write(&cell, 99);
/// journal.commit(&mut fram, &tx, &mut |_, _| Ok(())).unwrap();
/// assert_eq!(fram.read(&cell), 99);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Journal {
    base: usize,
    capacity: usize,
}

impl Journal {
    /// Reserves a journal region of `capacity` payload bytes.
    pub fn new(fram: &mut Fram, capacity: usize, owner: MemOwner) -> Result<Journal, OutOfFram> {
        let base = fram.alloc_raw(ENTRIES_OFF + capacity, owner, "commit journal")?;
        // The freshly zeroed flag byte means "idle".
        Ok(Journal { base, capacity })
    }

    /// The journal's payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Commits a write-set atomically.
    ///
    /// `spend` is charged once per FRAM access with its byte count and
    /// direction ([`JournalOp`]) and may fail with
    /// [`Interrupt::PowerFailure`], aborting the commit at that point;
    /// the journal protocol guarantees the abort is clean.
    pub fn commit(
        &self,
        fram: &mut Fram,
        tx: &TxWriter,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        let needed = tx.journal_bytes();
        if needed > self.capacity {
            return Err(Interrupt::Fault(Fault::JournalOverflow {
                needed,
                capacity: self.capacity,
            }));
        }

        // Phase 1: copy entries into the journal region.
        let mut off = self.base + ENTRIES_OFF;
        for (addr, data) in &tx.entries {
            spend(ENTRY_HEADER + data.len(), JournalOp::Write)?;
            let mut header = [0u8; ENTRY_HEADER];
            header[..4].copy_from_slice(&(*addr as u32).to_le_bytes());
            header[4..].copy_from_slice(&(data.len() as u16).to_le_bytes());
            fram.write_raw(off, &header);
            fram.write_raw(off + ENTRY_HEADER, data);
            off += ENTRY_HEADER + data.len();
        }
        spend(2, JournalOp::Write)?;
        fram.write_raw(
            self.base + COUNT_OFF,
            &(tx.entries.len() as u16).to_le_bytes(),
        );

        // Phase 2: the linearisation point — one atomic byte.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_ENTRIES]);

        // Phase 3: apply; a failure here is repaired by `recover`.
        self.apply(fram, spend)
    }

    /// Commits a sparse write-set atomically as one journal record.
    ///
    /// The record is staged with a single FRAM write, linearised by the
    /// flag byte, and the sub-writes are then applied from RAM — no
    /// journal re-reads on the happy path. A failure before the flag
    /// write discards the record; after it, [`Journal::recover`]
    /// replays the record from FRAM (redo, idempotent).
    pub fn commit_sparse(
        &self,
        fram: &mut Fram,
        tx: &SparseTx,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        // The record's count word holds at most `u16::MAX` sub-writes.
        let needed = tx.record_bytes();
        if needed > self.capacity || tx.len() > MAX_SUB_WRITES {
            return Err(Interrupt::Fault(Fault::JournalOverflow {
                needed,
                capacity: self.capacity,
            }));
        }

        // Phase 1: stage the whole record in one write.
        spend(needed, JournalOp::Write)?;
        fram.write_raw(self.base + ENTRIES_OFF, &tx.encode());

        // Phase 2: the linearisation point — one atomic byte.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_SPARSE]);

        // Phase 3: apply straight from RAM; a failure here is repaired
        // by `recover`, which replays the FRAM copy.
        for (addr, data) in tx.sub_writes() {
            spend(data.len(), JournalOp::Write)?;
            fram.write_raw(addr, data);
        }

        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// A deliberately broken [`Journal::commit_sparse`]: the sub-writes
    /// are applied *before* the record is staged and the flag set, so a
    /// power failure between two applies leaves a torn, unrecoverable
    /// update. Exists only so crash-point explorers can show they catch
    /// an ordering bug (see `Device::set_misordered_sparse_commits`).
    #[cfg(feature = "crash-injection")]
    pub fn commit_sparse_misordered(
        &self,
        fram: &mut Fram,
        tx: &SparseTx,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        for (addr, data) in tx.sub_writes() {
            spend(data.len(), JournalOp::Write)?;
            fram.write_raw(addr, data);
        }
        spend(tx.record_bytes(), JournalOp::Write)?;
        fram.write_raw(self.base + ENTRIES_OFF, &tx.encode());
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_SPARSE]);
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// Completes an interrupted commit, if one is pending.
    ///
    /// Returns `Ok(true)` when a pending transaction was re-applied.
    /// Called by the runtime on every boot before any other FRAM use.
    pub fn recover(
        &self,
        fram: &mut Fram,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<bool, Interrupt> {
        spend(1, JournalOp::Read)?;
        let flag = fram.read_raw(self.base + FLAG_OFF, 1)[0];
        match flag {
            FLAG_IDLE => Ok(false),
            FLAG_SPARSE => {
                self.replay_sparse(fram, spend)?;
                Ok(true)
            }
            _ => {
                self.apply(fram, spend)?;
                Ok(true)
            }
        }
    }

    /// Returns `true` if a committed-but-unapplied transaction is
    /// pending (for tests).
    pub fn is_pending(&self, fram: &Fram) -> bool {
        fram.peek_raw(self.base + FLAG_OFF, 1)[0] != FLAG_IDLE
    }

    fn apply(
        &self,
        fram: &mut Fram,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        spend(2, JournalOp::Read)?;
        let count_bytes = fram.read_raw(self.base + COUNT_OFF, 2);
        let count = u16::from_le_bytes([count_bytes[0], count_bytes[1]]) as usize;

        let mut off = self.base + ENTRIES_OFF;
        for _ in 0..count {
            spend(ENTRY_HEADER, JournalOp::Read)?;
            let header = fram.read_raw(off, ENTRY_HEADER).to_vec();
            let addr = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let len = u16::from_le_bytes([header[4], header[5]]) as usize;
            spend(len, JournalOp::Read)?;
            let data = fram.read_raw(off + ENTRY_HEADER, len).to_vec();
            spend(len, JournalOp::Write)?;
            fram.write_raw(addr, &data);
            off += ENTRY_HEADER + len;
        }

        // Clear the flag: the transaction is fully applied.
        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// Replays a committed sparse record from its FRAM copy (reboot
    /// path only — the happy path applies from RAM).
    fn replay_sparse(
        &self,
        fram: &mut Fram,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        spend(2, JournalOp::Read)?;
        let count_bytes = fram.read_raw(self.base + ENTRIES_OFF, 2);
        let count = u16::from_le_bytes([count_bytes[0], count_bytes[1]]) as usize;

        let mut off = self.base + ENTRIES_OFF + 2;
        for _ in 0..count {
            spend(ENTRY_HEADER, JournalOp::Read)?;
            let header = fram.read_raw(off, ENTRY_HEADER).to_vec();
            let addr = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let len = u16::from_le_bytes([header[4], header[5]]) as usize;
            spend(len, JournalOp::Read)?;
            let data = fram.read_raw(off + ENTRY_HEADER, len).to_vec();
            spend(len, JournalOp::Write)?;
            fram.write_raw(addr, &data);
            off += ENTRY_HEADER + len;
        }

        spend(1, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Fram, Journal, NvCell<u64>, NvCell<u32>) {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 256, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(1, MemOwner::App, "a").unwrap();
        let b = fram.alloc::<u32>(2, MemOwner::App, "b").unwrap();
        (fram, journal, a, b)
    }

    fn no_fail(_: usize, _: JournalOp) -> Result<(), Interrupt> {
        Ok(())
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let (mut fram, journal, _, _) = setup();
        let written = fram.bytes_written();
        journal
            .commit(&mut fram, &TxWriter::new(), &mut no_fail)
            .unwrap();
        assert_eq!(fram.bytes_written(), written);
    }

    #[test]
    fn commit_applies_all_writes() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 10);
        tx.write(&b, 20);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.read(&a), 10);
        assert_eq!(fram.read(&b), 20);
        assert!(!journal.is_pending(&fram));
    }

    #[test]
    fn tx_merges_rewrites_of_same_cell() {
        let (mut fram, journal, a, _) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 1);
        tx.write(&a, 2);
        tx.write(&a, 3);
        assert_eq!(tx.len(), 1);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.read(&a), 3);
    }

    #[test]
    fn tx_read_your_writes() {
        let (mut fram, _, a, _) = setup();
        let mut tx = TxWriter::new();
        assert_eq!(tx.read(&mut fram, &a), 1, "unstaged read sees FRAM");
        tx.write(&a, 42);
        assert_eq!(tx.read(&mut fram, &a), 42, "staged read sees tx");
        assert_eq!(fram.peek(&a), 1, "FRAM unchanged before commit");
    }

    #[test]
    fn overflowing_tx_is_rejected_cleanly() {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 8, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
        let mut tx = TxWriter::new();
        tx.write(&a, 7);
        let err = journal.commit(&mut fram, &tx, &mut no_fail).unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Fault(Fault::JournalOverflow { .. })
        ));
        assert_eq!(fram.peek(&a), 0, "target untouched");
    }

    /// The core atomicity property: inject a power failure after every
    /// possible number of charged bytes; after recovery the FRAM state
    /// must be either fully pre-transaction or fully post-transaction.
    #[test]
    fn commit_is_atomic_under_exhaustive_failure_injection() {
        // First measure the total byte budget of a successful commit.
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 0xAAAA_AAAA_AAAA_AAAA);
        tx.write(&b, 0xBBBB_BBBB);
        let mut total = 0usize;
        journal
            .commit(&mut fram, &tx, &mut |n, _| {
                total += n;
                Ok(())
            })
            .unwrap();
        assert!(total > 0);

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            let mut tx = TxWriter::new();
            tx.write(&a, 0xAAAA_AAAA_AAAA_AAAA);
            tx.write(&b, 0xBBBB_BBBB);

            let mut spent = 0usize;
            let result = journal.commit(&mut fram, &tx, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
            assert!(matches!(result, Err(Interrupt::PowerFailure)));

            // Reboot: recovery must complete or discard the transaction.
            journal.recover(&mut fram, &mut no_fail).unwrap();
            let va = fram.peek(&a);
            let vb = fram.peek(&b);
            let old = (va, vb) == (1, 2);
            let new = (va, vb) == (0xAAAA_AAAA_AAAA_AAAA, 0xBBBB_BBBB);
            assert!(
                old || new,
                "fail_at={fail_at}: torn state a={va:#x} b={vb:#x}"
            );
            assert!(!journal.is_pending(&fram));
        }
    }

    /// Recovery itself may be interrupted; repeated recovery attempts
    /// must still converge to the committed state (redo idempotence).
    #[test]
    fn recover_is_idempotent_under_repeated_failures() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 77);
        tx.write(&b, 88);

        // Stop the commit exactly after the flag write: staging bytes +
        // count (2) + flag (1) are allowed through, the apply phase is
        // not.
        let flag_budget = tx.journal_bytes() + 2 + 1;
        let mut spent = 0usize;
        let r = journal.commit(&mut fram, &tx, &mut |n, _| {
            if spent + n > flag_budget {
                Err(Interrupt::PowerFailure)
            } else {
                spent += n;
                Ok(())
            }
        });
        assert!(matches!(r, Err(Interrupt::PowerFailure)));
        assert!(journal.is_pending(&fram));

        // Interrupt recovery at progressively later byte boundaries; the
        // final successful pass must land the full transaction.
        let mut fail_at = 0usize;
        loop {
            let mut spent = 0usize;
            let r = journal.recover(&mut fram, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
            match r {
                Ok(applied) => {
                    assert!(applied);
                    break;
                }
                Err(_) => fail_at += 1,
            }
            assert!(fail_at < 10_000, "recovery never converged");
        }
        assert_eq!(fram.peek(&a), 77);
        assert_eq!(fram.peek(&b), 88);
        assert!(!journal.is_pending(&fram));

        // A second recovery finds nothing to do.
        assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
    }

    #[test]
    fn sparse_commit_applies_scattered_writes_without_reads() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 10u64);
        tx.push(&b, 20u32);
        let reads = fram.read_ops();
        journal.commit_sparse(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.read(&a), 10);
        assert_eq!(fram.read(&b), 20);
        assert!(!journal.is_pending(&fram));
        // k sub-writes cost k+3 raw writes and zero reads.
        assert_eq!(fram.read_ops(), reads + 2, "only the two readbacks");
    }

    #[test]
    fn sparse_tx_merges_rewrites_of_same_cell() {
        let (mut fram, journal, a, _) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 1u64);
        tx.push(&a, 9u64);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx.record_bytes(), 2 + ENTRY_HEADER + 8);
        journal.commit_sparse(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.peek(&a), 9);
    }

    #[test]
    fn oversized_sparse_tx_is_rejected_cleanly() {
        let mut fram = Fram::new(4096);
        let journal = Journal::new(&mut fram, 8, MemOwner::Runtime).unwrap();
        let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
        let mut tx = SparseTx::new();
        tx.push(&a, 7u64);
        let err = journal
            .commit_sparse(&mut fram, &tx, &mut no_fail)
            .unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Fault(Fault::JournalOverflow { .. })
        ));
        assert_eq!(fram.peek(&a), 0, "target untouched");
    }

    #[test]
    fn sparse_tx_past_the_count_word_is_rejected_cleanly() {
        let mut fram = Fram::new(1 << 20);
        let journal = Journal::new(&mut fram, 1 << 19, MemOwner::Runtime).unwrap();
        let base = fram
            .alloc_raw(MAX_SUB_WRITES + 1, MemOwner::App, "bytes")
            .unwrap();
        let mut tx = SparseTx::new();
        for i in 0..=MAX_SUB_WRITES {
            tx.append_raw(base + i, &[1]);
        }
        assert!(tx.record_bytes() <= journal.capacity());
        let err = journal
            .commit_sparse(&mut fram, &tx, &mut no_fail)
            .unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Fault(Fault::JournalOverflow { .. })
        ));
        assert_eq!(fram.peek_raw(base, 1), &[0], "target untouched");
        assert!(!journal.is_pending(&fram));
    }

    /// Same exhaustive fault-injection sweep as the entry-list commit:
    /// a power failure at every byte boundary must leave FRAM fully
    /// pre- or fully post-transaction after recovery — a torn sparse
    /// record (failure before the flag) must be discarded wholesale.
    #[test]
    fn sparse_commit_is_atomic_under_exhaustive_failure_injection() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 0xAAAA_AAAA_AAAA_AAAA_u64);
        tx.push(&b, 0xBBBB_BBBB_u32);
        let mut total = 0usize;
        journal
            .commit_sparse(&mut fram, &tx, &mut |n, _| {
                total += n;
                Ok(())
            })
            .unwrap();
        assert!(total > 0);

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            let mut tx = SparseTx::new();
            tx.push(&a, 0xAAAA_AAAA_AAAA_AAAA_u64);
            tx.push(&b, 0xBBBB_BBBB_u32);

            let mut spent = 0usize;
            let result = journal.commit_sparse(&mut fram, &tx, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
            assert!(matches!(result, Err(Interrupt::PowerFailure)));

            journal.recover(&mut fram, &mut no_fail).unwrap();
            let va = fram.peek(&a);
            let vb = fram.peek(&b);
            let old = (va, vb) == (1, 2);
            let new = (va, vb) == (0xAAAA_AAAA_AAAA_AAAA, 0xBBBB_BBBB);
            assert!(
                old || new,
                "fail_at={fail_at}: torn state a={va:#x} b={vb:#x}"
            );
            assert!(!journal.is_pending(&fram));
        }
    }

    /// Replay of a committed sparse record is redo-idempotent: recovery
    /// itself may be interrupted arbitrarily often and must converge.
    #[test]
    fn sparse_recover_is_idempotent_under_repeated_failures() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = SparseTx::new();
        tx.push(&a, 77u64);
        tx.push(&b, 88u32);

        // Allow staging + flag through, stop before any apply write.
        let flag_budget = tx.record_bytes() + 1;
        let mut spent = 0usize;
        let r = journal.commit_sparse(&mut fram, &tx, &mut |n, _| {
            if spent + n > flag_budget {
                Err(Interrupt::PowerFailure)
            } else {
                spent += n;
                Ok(())
            }
        });
        assert!(matches!(r, Err(Interrupt::PowerFailure)));
        assert!(journal.is_pending(&fram));
        assert_eq!(fram.peek(&a), 1, "no sub-write applied yet");

        let mut fail_at = 0usize;
        loop {
            let mut spent = 0usize;
            let r = journal.recover(&mut fram, &mut |n, _| {
                if spent + n > fail_at {
                    Err(Interrupt::PowerFailure)
                } else {
                    spent += n;
                    Ok(())
                }
            });
            match r {
                Ok(applied) => {
                    assert!(applied);
                    break;
                }
                Err(_) => fail_at += 1,
            }
            assert!(fail_at < 10_000, "recovery never converged");
        }
        assert_eq!(fram.peek(&a), 77);
        assert_eq!(fram.peek(&b), 88);
        assert!(!journal.is_pending(&fram));
        assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
    }

    /// A torn record prefix with the flag still idle must be invisible:
    /// recovery is a no-op and the targets keep their old image.
    #[test]
    fn torn_sparse_record_prefix_recovers_to_old_image() {
        let image = {
            let (_, _, a, b) = setup();
            let mut tx = SparseTx::new();
            tx.push(&a, 0xDEAD_BEEF_u64);
            tx.push(&b, 0xCAFE_u32);
            tx.encode()
        };

        // Simulate a crash mid-stage at every record prefix length: the
        // flag byte was never written, so whatever landed in the region
        // is dead data.
        for torn in 0..=image.len() {
            let (mut fram, journal, a, b) = setup();
            fram.write_raw(journal.base + ENTRIES_OFF, &image[..torn]);
            assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
            assert!(!journal.is_pending(&fram));
            assert_eq!(fram.peek(&a), 1, "torn={torn}: old image lost");
            assert_eq!(fram.peek(&b), 2, "torn={torn}: old image lost");
        }
    }
}
