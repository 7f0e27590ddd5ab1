//! A redo journal for crash-atomic FRAM commits.
//!
//! Task-based intermittent runtimes require *all-or-nothing* task
//! effects: either every output of a task reaches nonvolatile memory or
//! none does, no matter where a power failure lands (paper §3.1, "Tasks
//! are atomic units with all-or-nothing semantics"). The implementation
//! here is a redo journal in FRAM with **one record format**. A
//! [`TxWriter`] stages `k` sub-writes in RAM; [`Journal::commit`] then
//!
//! 1. stages the whole length-prefixed record (`count: u16`, then
//!    `addr: u32`, `len: u16` and the payload per sub-write) into the
//!    journal region with a single FRAM write;
//! 2. sets a single-byte *commit flag* (the linearisation point — a
//!    one-byte FRAM write is atomic on the real part);
//! 3. applies the sub-writes to their home locations straight from RAM;
//! 4. clears the flag.
//!
//! That is [`commit_writes`]`(k) = k + 3` FRAM writes and no reads. A
//! failure before step 2 discards the record; a failure after it is
//! repaired on reboot by [`Journal::recover`], which replays the
//! (idempotent) record from its FRAM copy in [`replay_reads`]`(k)`
//! reads. Fault-injection tests in this module drive a commit through a
//! power failure at **every** possible byte boundary and assert
//! atomicity each time.
//!
//! The `const fn`s below are the format's whole cost arithmetic; the
//! static bounds analysis and the monitor engine price records through
//! them, so a format change is an edit to this file alone.

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

/// Header bytes of one sub-write in a record: `addr: u32` + `len: u16`.
pub const SUB_WRITE_HEADER: usize = 6;
/// Bytes of the record's leading sub-write count (`u16`).
const COUNT_BYTES: usize = 2;
/// Bytes of the commit flag.
const FLAG_BYTES: usize = 1;
/// Most sub-writes one record's `u16` count word can hold.
pub const MAX_SUB_WRITES: usize = u16::MAX as usize;
/// Byte offset of the commit flag within the journal region.
const FLAG_OFF: usize = 0;
/// Byte offset of the record within the journal region.
const RECORD_OFF: usize = FLAG_OFF + FLAG_BYTES;
/// Flag value: no record pending.
const FLAG_IDLE: u8 = 0;
/// Flag value: a committed record is pending.
const FLAG_COMMITTED: u8 = 1;

/// Journal bytes of a record of `k` sub-writes carrying `data` payload
/// bytes in total: the count word plus a header and payload per
/// sub-write.
pub const fn record_bytes(k: usize, data: usize) -> usize {
    COUNT_BYTES + SUB_WRITE_HEADER * k + data
}

/// FRAM writes of committing a record of `k` sub-writes: the staged
/// record, the flag set, `k` applies and the flag clear.
pub const fn commit_writes(k: usize) -> usize {
    k + 3
}

/// FRAM bytes written by committing a record of `k` sub-writes
/// carrying `data` payload bytes: the staged record, the payloads once
/// more as they are applied, and the flag set and clear.
pub const fn commit_write_bytes(k: usize, data: usize) -> usize {
    record_bytes(k, data) + data + 2 * FLAG_BYTES
}

/// FRAM reads of replaying a pending record of `k` sub-writes on
/// reboot: the count word, then each sub-write's header and payload
/// (the flag probe that finds it pending is billed separately).
pub const fn replay_reads(k: usize) -> usize {
    1 + 2 * k
}

/// A volatile write-set staged by a task before commit.
///
/// Typed writes to the same cell are merged in place, so re-assigning
/// an output inside one task costs a single sub-write; reads go through
/// [`TxWriter::read`], which observes staged values (read-your-writes).
/// [`TxWriter::append_raw`] skips the merge scan for callers that stage
/// disjoint ranges. Payloads live in one flat buffer, so a write-set
/// reused through [`TxWriter::clear`] stages without allocating.
#[derive(Default, Debug)]
pub struct TxWriter {
    /// `(addr, offset into data, len)` per sub-write, in staging order.
    writes: Vec<(usize, usize, usize)>,
    data: Vec<u8>,
}

impl TxWriter {
    /// Creates an empty write-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The staged payload of `cell`, if a write of its size is staged.
    fn staged<T: NvData>(&self, cell: &NvCell<T>) -> Option<usize> {
        self.writes
            .iter()
            .find(|&&(a, _, len)| a == cell.addr() && len == T::SIZE)
            .map(|&(_, off, _)| off)
    }

    /// Stages a typed write, replacing an earlier one of the same cell.
    pub fn write<T: NvData>(&mut self, cell: &NvCell<T>, value: T) {
        let off = self.staged(cell).unwrap_or_else(|| {
            let off = self.data.len();
            self.writes.push((cell.addr(), off, T::SIZE));
            self.data.resize(off + T::SIZE, 0);
            off
        });
        value.store(&mut self.data[off..off + T::SIZE]);
    }

    /// Stages a raw write without looking for an earlier one to merge
    /// with: the caller guarantees `addr..addr + data.len()` overlaps no
    /// other staged sub-write.
    pub fn append_raw(&mut self, addr: usize, data: &[u8]) {
        self.writes.push((addr, self.data.len(), data.len()));
        self.data.extend_from_slice(data);
    }

    /// Reads a cell, observing staged writes first.
    pub fn read<T: NvData>(&self, fram: &mut Fram, cell: &NvCell<T>) -> T {
        match self.staged(cell) {
            Some(off) => T::load(&self.data[off..off + T::SIZE]),
            None => fram.read(cell),
        }
    }

    /// Number of staged sub-writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Returns `true` if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Journal bytes the serialised record occupies
    /// ([`record_bytes`]).
    pub fn record_bytes(&self) -> usize {
        record_bytes(self.writes.len(), self.data.len())
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

    /// Discards all staged writes, keeping the buffers.
    pub fn clear(&mut self) {
        self.writes.clear();
        self.data.clear();
    }
}

/// The journal region handle: the commit flag followed by room for one
/// record of up to [`Journal::capacity`] bytes.
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
    /// Reserves a journal region holding one record of up to
    /// `capacity` bytes ([`record_bytes`], count word included).
    pub fn new(fram: &mut Fram, capacity: usize, owner: MemOwner) -> Result<Journal, OutOfFram> {
        let base = fram.alloc_raw(RECORD_OFF + capacity, owner, "commit journal")?;
        // The freshly zeroed flag byte means "idle".
        Ok(Journal { base, capacity })
    }

    /// The largest record the journal holds, in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rejects a record the region or its count word cannot hold.
    fn check_fits(&self, tx: &TxWriter) -> Result<(), Interrupt> {
        let needed = tx.record_bytes();
        if needed > self.capacity || tx.len() > MAX_SUB_WRITES {
            return Err(Interrupt::Fault(Fault::JournalOverflow {
                needed,
                capacity: self.capacity,
            }));
        }
        Ok(())
    }

    /// Commits a write-set atomically as one journal record.
    ///
    /// The record is staged with a single FRAM write, linearised by the
    /// flag byte, and the sub-writes are then applied from RAM — no
    /// journal re-reads on the happy path. `spend` is charged once per
    /// FRAM access with its byte count and direction ([`JournalOp`])
    /// and may fail with [`Interrupt::PowerFailure`], aborting the
    /// commit at that point: before the flag write the record is
    /// discarded, after it [`Journal::recover`] replays it.
    pub fn commit(
        &self,
        fram: &mut Fram,
        tx: &TxWriter,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        self.check_fits(tx)?;

        // Phase 1: stage the whole record in one write.
        spend(tx.record_bytes(), JournalOp::Write)?;
        fram.write_raw(self.base + RECORD_OFF, &tx.encode());

        // Phase 2: the linearisation point — one atomic byte.
        spend(FLAG_BYTES, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_COMMITTED]);

        // Phase 3: apply straight from RAM; a failure here is repaired
        // by `recover`, which replays the FRAM copy.
        for (addr, data) in tx.sub_writes() {
            spend(data.len(), JournalOp::Write)?;
            fram.write_raw(addr, data);
        }

        spend(FLAG_BYTES, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// A deliberately broken [`Journal::commit`]: the sub-writes are
    /// applied *before* the record is staged and the flag set, so a
    /// power failure between two applies leaves a torn, unrecoverable
    /// update. Exists only so crash-point explorers can show they catch
    /// an ordering bug (see `Device::set_misordered_commits`).
    #[cfg(feature = "crash-injection")]
    pub fn commit_misordered(
        &self,
        fram: &mut Fram,
        tx: &TxWriter,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<(), Interrupt> {
        if tx.is_empty() {
            return Ok(());
        }
        self.check_fits(tx)?;
        for (addr, data) in tx.sub_writes() {
            spend(data.len(), JournalOp::Write)?;
            fram.write_raw(addr, data);
        }
        spend(tx.record_bytes(), JournalOp::Write)?;
        fram.write_raw(self.base + RECORD_OFF, &tx.encode());
        spend(FLAG_BYTES, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_COMMITTED]);
        spend(FLAG_BYTES, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(())
    }

    /// Completes an interrupted commit, if one is pending, by replaying
    /// its record from the FRAM copy (redo, idempotent).
    ///
    /// Returns `Ok(true)` when a pending record was replayed. Called by
    /// the runtime on every boot before any other FRAM use.
    pub fn recover(
        &self,
        fram: &mut Fram,
        spend: &mut dyn FnMut(usize, JournalOp) -> Result<(), Interrupt>,
    ) -> Result<bool, Interrupt> {
        spend(FLAG_BYTES, JournalOp::Read)?;
        if fram.read_raw(self.base + FLAG_OFF, FLAG_BYTES)[0] == FLAG_IDLE {
            return Ok(false);
        }

        let mut off = self.base + RECORD_OFF;
        spend(COUNT_BYTES, JournalOp::Read)?;
        let count = fram.read_raw(off, COUNT_BYTES);
        let count = u16::from_le_bytes([count[0], count[1]]) as usize;
        off += COUNT_BYTES;
        for _ in 0..count {
            spend(SUB_WRITE_HEADER, JournalOp::Read)?;
            let h = fram.read_raw(off, SUB_WRITE_HEADER);
            let addr = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
            let len = u16::from_le_bytes([h[4], h[5]]) as usize;
            off += SUB_WRITE_HEADER;
            spend(len, JournalOp::Read)?;
            let data = fram.read_raw(off, len).to_vec();
            spend(len, JournalOp::Write)?;
            fram.write_raw(addr, &data);
            off += len;
        }

        spend(FLAG_BYTES, JournalOp::Write)?;
        fram.write_raw(self.base + FLAG_OFF, &[FLAG_IDLE]);
        Ok(true)
    }

    /// Returns `true` if a committed-but-unapplied record is pending
    /// (for tests).
    pub fn is_pending(&self, fram: &Fram) -> bool {
        fram.peek_raw(self.base + FLAG_OFF, FLAG_BYTES)[0] != FLAG_IDLE
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

    /// A `spend` callback that lets `budget` bytes through, then fails.
    fn fail_after(budget: usize) -> impl FnMut(usize, JournalOp) -> Result<(), Interrupt> {
        let mut spent = 0usize;
        move |n, _| {
            if spent + n > budget {
                Err(Interrupt::PowerFailure)
            } else {
                spent += n;
                Ok(())
            }
        }
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

    #[test]
    fn sparse_commit_applies_scattered_writes_without_reads() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 10u64);
        tx.write(&b, 20u32);
        let (reads, writes) = (fram.read_ops(), fram.write_ops());
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        // k sub-writes cost k+3 raw writes and zero reads.
        assert_eq!(fram.write_ops(), writes + commit_writes(2) as u64);
        assert_eq!(fram.read(&a), 10);
        assert_eq!(fram.read(&b), 20);
        assert!(!journal.is_pending(&fram));
        assert_eq!(fram.read_ops(), reads + 2, "only the two readbacks");
    }

    /// Merging keeps the record at one sub-write: its size is the
    /// format's arithmetic for one 8-byte payload.
    #[test]
    fn sparse_tx_merges_rewrites_of_same_cell() {
        let (mut fram, journal, a, _) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 1u64);
        tx.write(&a, 9u64);
        assert_eq!(tx.record_bytes(), record_bytes(1, 8));
        assert_eq!(tx.record_bytes(), 2 + SUB_WRITE_HEADER + 8);
        journal.commit(&mut fram, &tx, &mut no_fail).unwrap();
        assert_eq!(fram.peek(&a), 9);
    }

    /// Capacity counts the whole record, count word included: a record
    /// of exactly the capacity commits, one byte more is rejected.
    #[test]
    fn oversized_sparse_tx_is_rejected_cleanly() {
        let exact = record_bytes(1, 8);
        for (capacity, fits) in [(exact, true), (exact - 1, false)] {
            let mut fram = Fram::new(4096);
            let journal = Journal::new(&mut fram, capacity, MemOwner::Runtime).unwrap();
            let a = fram.alloc::<u64>(0, MemOwner::App, "a").unwrap();
            let mut tx = TxWriter::new();
            tx.write(&a, 7u64);
            let r = journal.commit(&mut fram, &tx, &mut no_fail);
            if fits {
                r.unwrap();
                assert_eq!(fram.peek(&a), 7);
            } else {
                assert!(matches!(
                    r.unwrap_err(),
                    Interrupt::Fault(Fault::JournalOverflow { .. })
                ));
                assert_eq!(fram.peek(&a), 0, "target untouched");
            }
        }
    }

    #[test]
    fn sparse_tx_past_the_count_word_is_rejected_cleanly() {
        let mut fram = Fram::new(1 << 20);
        let journal = Journal::new(&mut fram, 1 << 19, MemOwner::Runtime).unwrap();
        let base = fram
            .alloc_raw(MAX_SUB_WRITES + 1, MemOwner::App, "bytes")
            .unwrap();
        let mut tx = TxWriter::new();
        for i in 0..=MAX_SUB_WRITES {
            tx.append_raw(base + i, &[1]);
        }
        assert!(tx.record_bytes() <= journal.capacity());
        let err = journal.commit(&mut fram, &tx, &mut no_fail).unwrap_err();
        assert!(matches!(
            err,
            Interrupt::Fault(Fault::JournalOverflow { .. })
        ));
        assert_eq!(fram.peek_raw(base, 1), &[0], "target untouched");
        assert!(!journal.is_pending(&fram));
    }

    /// The core atomicity property: inject a power failure after every
    /// possible number of charged bytes; after recovery the FRAM state
    /// must be either fully pre-transaction or fully post-transaction —
    /// a torn record (failure before the flag) is discarded wholesale.
    #[test]
    fn sparse_commit_is_atomic_under_exhaustive_failure_injection() {
        let stage = |a: &NvCell<u64>, b: &NvCell<u32>| {
            let mut tx = TxWriter::new();
            tx.write(a, 0xAAAA_AAAA_AAAA_AAAA_u64);
            tx.write(b, 0xBBBB_BBBB_u32);
            tx
        };
        let (mut fram, journal, a, b) = setup();
        let mut total = 0usize;
        journal
            .commit(&mut fram, &stage(&a, &b), &mut |n, _| {
                total += n;
                Ok(())
            })
            .unwrap();
        assert_eq!(total, commit_write_bytes(2, 12));

        for fail_at in 0..total {
            let (mut fram, journal, a, b) = setup();
            let result = journal.commit(&mut fram, &stage(&a, &b), &mut fail_after(fail_at));
            assert!(matches!(result, Err(Interrupt::PowerFailure)));

            // Reboot: recovery must complete or discard the record.
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

    /// Replay of a committed record is redo-idempotent: recovery itself
    /// may be interrupted arbitrarily often and must converge.
    #[test]
    fn sparse_recover_is_idempotent_under_repeated_failures() {
        let (mut fram, journal, a, b) = setup();
        let mut tx = TxWriter::new();
        tx.write(&a, 77u64);
        tx.write(&b, 88u32);

        // Allow staging + flag through, stop before any apply write.
        let flag_budget = tx.record_bytes() + 1;
        let r = journal.commit(&mut fram, &tx, &mut fail_after(flag_budget));
        assert!(matches!(r, Err(Interrupt::PowerFailure)));
        assert!(journal.is_pending(&fram));
        assert_eq!(fram.peek(&a), 1, "no sub-write applied yet");

        // Interrupt recovery at progressively later byte boundaries; the
        // final successful pass must land the full record.
        let mut fail_at = 0usize;
        loop {
            match journal.recover(&mut fram, &mut fail_after(fail_at)) {
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

    /// A torn record prefix with the flag still idle must be invisible:
    /// recovery is a no-op and the targets keep their old image.
    #[test]
    fn torn_sparse_record_prefix_recovers_to_old_image() {
        let image = {
            let (_, _, a, b) = setup();
            let mut tx = TxWriter::new();
            tx.write(&a, 0xDEAD_BEEF_u64);
            tx.write(&b, 0xCAFE_u32);
            tx.encode()
        };

        // Simulate a crash mid-stage at every record prefix length: the
        // flag byte was never written, so whatever landed in the region
        // is dead data.
        for torn in 0..=image.len() {
            let (mut fram, journal, a, b) = setup();
            fram.write_raw(journal.base + RECORD_OFF, &image[..torn]);
            assert!(!journal.recover(&mut fram, &mut no_fail).unwrap());
            assert!(!journal.is_pending(&fram));
            assert_eq!(fram.peek(&a), 1, "torn={torn}: old image lost");
            assert_eq!(fram.peek(&b), 2, "torn={torn}: old image lost");
        }
    }
}
