//! The best-effort HTM conflict/capacity engine.
//!
//! [`HtmMachine`] tracks, per logical CPU, whether a hardware transaction is
//! in flight and its read/write line sets. The sets live in one line
//! directory (`line → (readers, writers)` CPU masks), so asking who holds a
//! line is one probe however many transactions are in flight; each CPU
//! keeps only the list of lines it added, which is what ending its
//! transaction walks. The DES driver feeds the machine every transactional
//! access in global time order; the machine answers with the consequences:
//!
//! * **conflicts** — eager, invalidation-based, requester-wins. A
//!   transactional (or non-transactional) *write* to line `L` kills every
//!   other in-flight transaction holding `L` in its read or write set; a
//!   *read* of `L` kills every other in-flight transaction with `L` in its
//!   write set. This mirrors the MESI-based behaviour of TSX, where the
//!   transaction that receives the invalidation (or sharing downgrade)
//!   aborts.
//! * **capacity** — the write set is bounded by a sets×ways L1 model, the
//!   read set by a flat budget; both shrink when an SMT sibling is also in
//!   a transaction (see [`HtmConfig`]). The overflowing access aborts the
//!   *accessor*; a sibling *starting* a transaction can retroactively
//!   squeeze a running one over its (new, smaller) budget, which is exactly
//!   the pathology Seer's core locks address.
//!
//! The machine clears the slots of every transaction it reports as aborted,
//! so the caller only performs policy bookkeeping for them. It never tells
//! a scheduler *who* caused an abort — that information is returned to the
//! driver for ground-truth metrics only, mirroring the real TSX information
//! gap.

use seer_sim::{ThreadId, Topology};

use crate::config::HtmConfig;
use crate::line::{LineAddr, LineDirectory};

/// Kind of a memory access within (or outside) a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Why the machine aborted a transaction over its own footprint. Data
/// conflicts are reported separately, as the victims of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Overflowed the write-set (L1) geometry.
    WriteCapacity,
    /// Overflowed the read-set budget.
    ReadCapacity,
}

/// Tracking state of one logical CPU's transaction. Whether a transaction
/// is in flight at all is recorded only in [`HtmMachine`]'s `active` mask;
/// which lines it holds, in the machine's directory.
#[derive(Debug, Clone)]
struct TxSlot {
    /// The read set's lines, in insertion order: exactly the lines whose
    /// directory reader mask has this CPU's bit.
    reads: Vec<LineAddr>,
    /// The write set's lines, likewise for the writer mask.
    writes: Vec<LineAddr>,
    /// Occupancy of each write-set cache set.
    set_occupancy: Vec<u8>,
    /// Cache sets touched by the current transaction (for O(touched) clear).
    touched_sets: Vec<u32>,
    /// Maximum single-set occupancy reached so far (monotone within one
    /// transaction) — used for retroactive squeeze checks.
    max_occupancy: u8,
}

impl TxSlot {
    fn new(write_sets: usize) -> Self {
        Self {
            reads: Vec::with_capacity(64),
            writes: Vec::with_capacity(16),
            set_occupancy: vec![0; write_sets],
            touched_sets: Vec::with_capacity(64),
            max_occupancy: 0,
        }
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        for &s in &self.touched_sets {
            self.set_occupancy[s as usize] = 0;
        }
        self.touched_sets.clear();
        self.max_occupancy = 0;
    }
}

/// The simulated best-effort HTM. See the module docs for semantics.
///
/// ```
/// use seer_htm::{AccessKind, HtmConfig, HtmMachine};
/// use seer_sim::Topology;
///
/// let mut m = HtmMachine::new(Topology::haswell_e3(), HtmConfig::default());
/// let (mut squeezed, mut victims) = (Vec::new(), Vec::new());
/// m.begin_into(0, &mut squeezed);
/// m.begin_into(1, &mut squeezed);
/// m.access_into(0, 42, AccessKind::Read, &mut victims);
/// // Thread 1 writes the line thread 0 read: requester wins, 0 aborts.
/// let self_abort = m.access_into(1, 42, AccessKind::Write, &mut victims);
/// assert_eq!((self_abort, victims), (None, vec![0]));
/// assert!(!m.in_tx(0));
/// m.commit(1);
/// ```
#[derive(Debug, Clone)]
pub struct HtmMachine {
    topo: Topology,
    cfg: HtmConfig,
    slots: Vec<TxSlot>,
    /// Every line an in-flight transaction holds, with the CPUs holding
    /// it. Only [`HtmMachine::access_into`] adds bits and only
    /// [`HtmMachine::end_tx`] drops them, so the masks never name a CPU
    /// outside `active`.
    dir: LineDirectory,
    /// Bit `t` set iff logical CPU `t` has a transaction in flight. The
    /// only record of that fact: every slot clear goes through
    /// [`HtmMachine::end_tx`], which drops the bit with it.
    active: u64,
    /// `core_mask[t]` has the bit of every logical CPU on `t`'s physical
    /// core, `t` included. Built once from [`Topology::siblings`].
    core_mask: Vec<u64>,
    /// `core_of[t]` is the physical core of logical CPU `t`.
    core_of: Vec<usize>,
    /// `resident[c]` is the number of in-flight transactions on physical
    /// core `c`, the popcount of `active & core_mask[t]` for every `t` on
    /// `c`. It is counted rather than recomputed because every access
    /// needs it, and the baseline x86-64 target has no popcount
    /// instruction. `begin_into` and `end_tx`, the only places a bit of
    /// `active` changes, keep it.
    resident: Vec<usize>,
    /// `budgets[co]` is the `(ways, read_lines)` budget of a transaction
    /// sharing its core with `co` in-flight transactions (itself
    /// included), for `co` in `0..=smt_ways`. Filled once in `new`.
    budgets: Vec<(usize, usize)>,
}

impl HtmMachine {
    /// A machine over `topo` logical CPUs with buffer geometry `cfg`.
    ///
    /// # Panics
    /// If `topo` has more than 64 logical CPUs (the in-flight set is one
    /// `u64` bitmask).
    pub fn new(topo: Topology, cfg: HtmConfig) -> Self {
        let cpus = topo.logical_cpus();
        assert!(
            cpus <= 64,
            "HtmMachine supports at most 64 logical CPUs, topology has {cpus}"
        );
        let slots = (0..cpus).map(|_| TxSlot::new(cfg.write_sets)).collect();
        let core_mask = (0..cpus)
            .map(|t| topo.siblings(t).fold(0, |mask, s| mask | 1 << s))
            .collect();
        let core_of = (0..cpus).map(|t| topo.core_of(t)).collect();
        let budgets = (0..=topo.smt_ways())
            .map(|co| (cfg.effective_ways(co), cfg.effective_read_lines(co)))
            .collect();
        Self {
            topo,
            cfg,
            slots,
            dir: LineDirectory::new(),
            active: 0,
            core_mask,
            core_of,
            resident: vec![0; topo.physical_cores()],
            budgets,
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The buffer geometry in use.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// The bit of logical CPU `thread` in the `active` mask.
    ///
    /// # Panics
    /// If `thread` is not a logical CPU of the topology.
    fn bit(&self, thread: ThreadId) -> u64 {
        assert!(
            thread < self.slots.len(),
            "logical cpu {thread} out of range"
        );
        1 << thread
    }

    /// Ends `thread`'s transaction: drops its `active` bit and its bits
    /// in the directory, line by line, and clears its slot.
    fn end_tx(&mut self, thread: ThreadId) {
        let me = self.bit(thread);
        debug_assert!(
            self.active & me != 0,
            "cpu {thread} has no transaction to end"
        );
        self.active &= !me;
        self.resident[self.core_of[thread]] -= 1;
        let slot = &mut self.slots[thread];
        for &line in &slot.reads {
            self.dir.release(line, me, AccessKind::Read);
        }
        for &line in &slot.writes {
            self.dir.release(line, me, AccessKind::Write);
        }
        slot.clear();
    }

    /// True when `thread` has a transaction in flight (`xtest`).
    pub fn in_tx(&self, thread: ThreadId) -> bool {
        self.active & self.bit(thread) != 0
    }

    /// Number of in-flight transactions on the physical core of `thread`,
    /// including `thread`'s own if active.
    pub fn co_resident_txs(&self, thread: ThreadId) -> usize {
        self.resident[self.core_of[thread]]
    }

    /// Starts a transaction on `thread`.
    ///
    /// Writes into `squeezed` (cleared first) the SMT siblings whose
    /// running transactions were squeezed over their shrunken capacity
    /// budgets and therefore aborted (their slots are cleared; each pair
    /// carries the cause, [`AbortCause::WriteCapacity`] or
    /// [`AbortCause::ReadCapacity`]). Per-event callers (the DES driver)
    /// reuse one scratch vector.
    ///
    /// # Panics
    /// If `thread` already has a transaction in flight.
    pub fn begin_into(&mut self, thread: ThreadId, squeezed: &mut Vec<(ThreadId, AbortCause)>) {
        assert!(
            !self.in_tx(thread),
            "thread {thread} nested xbegin (flat nesting not modelled)"
        );
        squeezed.clear();
        let me = self.bit(thread);
        self.active |= me;
        self.resident[self.core_of[thread]] += 1;
        if self.cfg.smt_capacity_sharing {
            let (ways, reads) = self.budgets[self.co_resident_txs(thread)];
            for s in cpus_in(self.active & self.core_mask[thread] & !me) {
                if usize::from(self.slots[s].max_occupancy) > ways {
                    self.end_tx(s);
                    squeezed.push((s, AbortCause::WriteCapacity));
                } else if self.slots[s].reads.len() > reads {
                    self.end_tx(s);
                    squeezed.push((s, AbortCause::ReadCapacity));
                }
            }
        }
    }

    /// Feeds a transactional access by `thread` to `line`.
    ///
    /// Writes into `victims` (cleared first) the other transactions this
    /// access killed (data conflicts; their slots are cleared) and returns
    /// the accessor's own abort cause if it aborted (its slot is cleared
    /// too).
    ///
    /// # Panics
    /// If `thread` has no transaction in flight.
    pub fn access_into(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) -> Option<AbortCause> {
        assert!(
            self.in_tx(thread),
            "thread {thread} transactional access outside a transaction"
        );
        victims.clear();
        let me = self.bit(thread);

        // 1. Conflict pass (requester-wins, as in TSX): this access
        //    invalidates (write) or downgrades (read) the line in every
        //    other in-flight transaction. The line is probed once up
        //    front, so an access that kills no one (the common case)
        //    costs one probe in total.
        let mut probe = self.dir.probe(line);
        let holders = self.dir.holders(probe, kind) & self.active & !me;
        if holders != 0 {
            self.kill(holders, victims);
            // Kills delete and shift entries: probe again.
            probe = self.dir.probe(line);
        }

        // 2. Capacity pass: extend our own tracked sets. The budgets are
        //    looked up after the conflict pass, so the co-resident count
        //    excludes siblings it just killed, exactly as in `begin`.
        let (ways_budget, read_budget) = self.budgets[self.co_resident_txs(thread)];
        if !self.dir.add(probe, me, kind) {
            return None;
        }
        let slot = &mut self.slots[thread];
        let overflow = match kind {
            AccessKind::Write => {
                slot.writes.push(line);
                let set_idx = (line % self.cfg.write_sets as u64) as usize;
                if slot.set_occupancy[set_idx] == 0 {
                    slot.touched_sets.push(set_idx as u32);
                }
                slot.set_occupancy[set_idx] += 1;
                slot.max_occupancy = slot.max_occupancy.max(slot.set_occupancy[set_idx]);
                (usize::from(slot.set_occupancy[set_idx]) > ways_budget)
                    .then_some(AbortCause::WriteCapacity)
            }
            AccessKind::Read => {
                slot.reads.push(line);
                (slot.reads.len() > read_budget).then_some(AbortCause::ReadCapacity)
            }
        };
        if overflow.is_some() {
            self.end_tx(thread);
        }
        overflow
    }

    /// Feeds a *non-transactional* access (fall-back path, lock words).
    /// Writes the transactions it kills into `victims` (cleared first);
    /// their slots are cleared.
    pub fn non_tx_access_into(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) {
        victims.clear();
        let holders = self.dir.holders(self.dir.probe(line), kind);
        self.kill(holders & self.active & !self.bit(thread), victims);
    }

    /// Commits the transaction on `thread` (`xend`), clearing its tracking.
    ///
    /// # Panics
    /// If no transaction is in flight — like executing `xend` outside a
    /// transaction.
    pub fn commit(&mut self, thread: ThreadId) {
        assert!(
            self.in_tx(thread),
            "thread {thread} xend outside a transaction"
        );
        self.end_tx(thread);
    }

    /// Force-aborts the transaction on `thread` (asynchronous event or
    /// explicit `xabort`). No-op if none is in flight.
    pub fn abort(&mut self, thread: ThreadId) {
        if self.in_tx(thread) {
            self.end_tx(thread);
        }
    }

    /// Aborts every in-flight transaction and writes them into `killed`
    /// (cleared first), in ascending order — used when the single-global
    /// fall-back lock is acquired, which every hardware transaction
    /// subscribes to (reads) at begin.
    pub fn kill_all_into(&mut self, killed: &mut Vec<ThreadId>) {
        killed.clear();
        for t in cpus_in(self.active) {
            self.end_tx(t);
            killed.push(t);
        }
    }

    /// Current read-set size of `thread`'s transaction.
    pub fn read_set_len(&self, thread: ThreadId) -> usize {
        self.slots[thread].reads.len()
    }

    /// Current write-set size of `thread`'s transaction.
    pub fn write_set_len(&self, thread: ThreadId) -> usize {
        self.slots[thread].writes.len()
    }

    /// Ends the transaction of every CPU in `holders`, lowest first, and
    /// records each in `victims`. The mask is read once, before any kill:
    /// a kill only drops the killed CPU's own bits, so the other holders
    /// stay holders.
    fn kill(&mut self, holders: u64, victims: &mut Vec<ThreadId>) {
        for t in cpus_in(holders) {
            self.end_tx(t);
            victims.push(t);
        }
    }
}

/// The CPUs whose bits are set in `mask`, lowest first: the same CPUs, in
/// the same order, as filtering `0..64` by membership.
fn cpus_in(mut mask: u64) -> impl Iterator<Item = ThreadId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let t = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            t
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> HtmMachine {
        HtmMachine::new(Topology::haswell_e3(), HtmConfig::default())
    }

    /// What one transactional access did.
    #[derive(Debug, Default, PartialEq)]
    struct Access {
        self_abort: Option<AbortCause>,
        victims: Vec<ThreadId>,
    }

    fn begin(m: &mut HtmMachine, thread: ThreadId) -> Vec<(ThreadId, AbortCause)> {
        let mut squeezed = Vec::new();
        m.begin_into(thread, &mut squeezed);
        squeezed
    }

    fn access(m: &mut HtmMachine, thread: ThreadId, line: LineAddr, kind: AccessKind) -> Access {
        let mut victims = Vec::new();
        let self_abort = m.access_into(thread, line, kind, &mut victims);
        Access {
            self_abort,
            victims,
        }
    }

    fn non_tx_access(
        m: &mut HtmMachine,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
    ) -> Vec<ThreadId> {
        let mut victims = Vec::new();
        m.non_tx_access_into(thread, line, kind, &mut victims);
        victims
    }

    fn kill_all(m: &mut HtmMachine) -> Vec<ThreadId> {
        let mut killed = Vec::new();
        m.kill_all_into(&mut killed);
        killed
    }

    #[test]
    fn write_kills_concurrent_reader() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 1);
        assert_eq!(access(&mut m, 0, 100, AccessKind::Read), Access::default());
        let r = access(&mut m, 1, 100, AccessKind::Write);
        assert_eq!(r.victims, vec![0]);
        assert!(r.self_abort.is_none());
        assert!(!m.in_tx(0), "victim slot cleared");
        assert!(m.in_tx(1), "requester wins");
    }

    #[test]
    fn write_kills_concurrent_writer() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 1);
        access(&mut m, 0, 7, AccessKind::Write);
        let r = access(&mut m, 1, 7, AccessKind::Write);
        assert_eq!(r.victims, vec![0]);
    }

    #[test]
    fn read_kills_concurrent_writer_but_not_reader() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 1);
        begin(&mut m, 2);
        access(&mut m, 0, 9, AccessKind::Write);
        access(&mut m, 1, 9, AccessKind::Read); // killed 0? no: read of 9 kills writer 0
        assert!(!m.in_tx(0));
        // Thread 2 reads the same line: 1 only *read* it, so no kill.
        let r = access(&mut m, 2, 9, AccessKind::Read);
        assert!(r.victims.is_empty());
        assert!(m.in_tx(1));
    }

    #[test]
    fn read_read_sharing_is_fine() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 1);
        access(&mut m, 0, 5, AccessKind::Read);
        let r = access(&mut m, 1, 5, AccessKind::Read);
        assert!(r.victims.is_empty());
        assert!(m.in_tx(0) && m.in_tx(1));
    }

    #[test]
    fn non_tx_write_kills_readers_and_writers() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 1);
        access(&mut m, 0, 11, AccessKind::Read);
        access(&mut m, 1, 11, AccessKind::Write);
        assert!(!m.in_tx(0)); // killed by 1's write
        begin(&mut m, 2);
        access(&mut m, 2, 11, AccessKind::Read);
        assert!(!m.in_tx(1)); // 2's read downgraded writer 1
        let victims = non_tx_access(&mut m, 3, 11, AccessKind::Write);
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn commit_clears_sets() {
        let mut m = machine();
        begin(&mut m, 0);
        access(&mut m, 0, 1, AccessKind::Write);
        access(&mut m, 0, 2, AccessKind::Read);
        assert_eq!(m.write_set_len(0), 1);
        assert_eq!(m.read_set_len(0), 1);
        m.commit(0);
        assert!(!m.in_tx(0));
        // A new transaction does not see stale lines.
        begin(&mut m, 1);
        let r = access(&mut m, 1, 1, AccessKind::Write);
        assert!(r.victims.is_empty());
    }

    #[test]
    fn write_capacity_aborts_accessor() {
        let cfg = HtmConfig {
            write_sets: 4,
            write_ways: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        begin(&mut m, 0);
        // Lines 0, 4, 8 all map to set 0 with 4 sets; ways = 2, so the third
        // distinct line in the set overflows.
        assert!(access(&mut m, 0, 0, AccessKind::Write).self_abort.is_none());
        assert!(access(&mut m, 0, 4, AccessKind::Write).self_abort.is_none());
        let r = access(&mut m, 0, 8, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
        assert!(!m.in_tx(0));
    }

    #[test]
    fn read_capacity_aborts_accessor() {
        let cfg = HtmConfig {
            read_lines: 3,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        begin(&mut m, 0);
        for l in 0..3u64 {
            assert!(access(&mut m, 0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = access(&mut m, 0, 3, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
    }

    #[test]
    fn duplicate_accesses_do_not_consume_capacity() {
        let cfg = HtmConfig {
            read_lines: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        begin(&mut m, 0);
        for _ in 0..100 {
            assert!(access(&mut m, 0, 42, AccessKind::Read).self_abort.is_none());
        }
        assert_eq!(m.read_set_len(0), 1);
    }

    #[test]
    fn smt_sibling_begin_squeezes_running_tx() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            ..HtmConfig::default()
        };
        // 1 physical core, 2 hyper-threads: threads 0 and 1 are siblings.
        let mut m = HtmMachine::new(Topology::new(1, 2), cfg);
        begin(&mut m, 0);
        // Occupy 6 of 8 ways: fine while alone.
        for l in 0..6u64 {
            assert!(access(&mut m, 0, l, AccessKind::Write).self_abort.is_none());
        }
        // Sibling starts a transaction: effective ways drop to 4 and the
        // running transaction (occupancy 6) is squeezed out.
        let squeezed = begin(&mut m, 1);
        assert_eq!(squeezed, vec![(0, AbortCause::WriteCapacity)]);
        assert!(!m.in_tx(0));
        assert!(m.in_tx(1));
    }

    #[test]
    fn no_squeeze_on_distinct_cores() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        begin(&mut m, 0);
        for l in 0..6u64 {
            access(&mut m, 0, l, AccessKind::Write);
        }
        let squeezed = begin(&mut m, 1);
        assert!(squeezed.is_empty());
        assert!(m.in_tx(0));
    }

    #[test]
    fn capacity_sharing_halves_effective_ways_for_accessor() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 4,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(1, 2), cfg);
        begin(&mut m, 0);
        begin(&mut m, 1);
        // With a co-resident tx, effective ways = 2.
        assert!(access(&mut m, 0, 0, AccessKind::Write).self_abort.is_none());
        assert!(access(&mut m, 0, 1, AccessKind::Write).self_abort.is_none());
        let r = access(&mut m, 0, 2, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
    }

    #[test]
    fn kill_all_clears_every_tx() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 3);
        begin(&mut m, 5);
        let mut killed = kill_all(&mut m);
        killed.sort_unstable();
        assert_eq!(killed, vec![0, 3, 5]);
        assert!(!m.in_tx(0) && !m.in_tx(3) && !m.in_tx(5));
        assert!(kill_all(&mut m).is_empty());
    }

    #[test]
    fn abort_is_idempotent() {
        let mut m = machine();
        begin(&mut m, 2);
        m.abort(2);
        m.abort(2);
        assert!(!m.in_tx(2));
    }

    #[test]
    #[should_panic(expected = "nested xbegin")]
    fn nested_begin_panics() {
        let mut m = machine();
        begin(&mut m, 0);
        begin(&mut m, 0);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn commit_without_tx_panics() {
        let mut m = machine();
        m.commit(0);
    }

    #[test]
    fn directory_empties_once_every_transaction_ends() {
        let mut m = machine();
        for t in 0..4 {
            begin(&mut m, t);
        }
        access(&mut m, 0, 100, AccessKind::Read);
        access(&mut m, 1, 100, AccessKind::Write); // conflict on a held line
        access(&mut m, 2, 200, AccessKind::Write);
        let capacity = m.cfg.read_lines as LineAddr;
        for line in 1_000..1_000 + 2 * capacity {
            if access(&mut m, 3, line, AccessKind::Read)
                .self_abort
                .is_some()
            {
                break;
            }
        }
        assert!(!m.in_tx(3), "read capacity overflowed");
        if m.in_tx(2) {
            m.commit(2);
        }
        kill_all(&mut m);
        assert_eq!(m.dir.len(), 0);
    }

    #[test]
    fn set_occupancy_resets_across_txs() {
        let cfg = HtmConfig {
            write_sets: 2,
            write_ways: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        for _ in 0..10 {
            begin(&mut m, 0);
            assert!(access(&mut m, 0, 0, AccessKind::Write).self_abort.is_none());
            assert!(access(&mut m, 0, 2, AccessKind::Write).self_abort.is_none());
            m.commit(0);
        }
    }
}
