//! The best-effort HTM conflict/capacity engine.
//!
//! [`HtmMachine`] tracks, per logical CPU, whether a hardware transaction is
//! in flight and its read/write line sets. The DES driver feeds it every
//! transactional access in global time order; the machine answers with the
//! consequences:
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

use crate::config::{ConflictResolution, HtmConfig};
use crate::line::{LineAddr, LineSet};

/// Kind of a memory access within (or outside) a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Why the machine aborted a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Lost a data conflict to another thread's access.
    Conflict,
    /// Overflowed the write-set (L1) geometry.
    WriteCapacity,
    /// Overflowed the read-set budget.
    ReadCapacity,
}

/// Result of feeding one transactional access to the machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// Set when the *accessor itself* aborted (capacity overflow). Its slot
    /// has already been cleared.
    pub self_abort: Option<AbortCause>,
    /// Other transactions killed by this access (data conflicts). Their
    /// slots have already been cleared.
    pub victims: Vec<ThreadId>,
}

/// Tracking state of one logical CPU's transaction. Whether a transaction
/// is in flight at all is recorded only in [`HtmMachine`]'s `active` mask.
#[derive(Debug, Clone)]
struct TxSlot {
    read_set: LineSet,
    write_set: LineSet,
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
            read_set: LineSet::with_capacity(256),
            write_set: LineSet::with_capacity(64),
            set_occupancy: vec![0; write_sets],
            touched_sets: Vec::with_capacity(64),
            max_occupancy: 0,
        }
    }

    fn clear(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
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
/// m.begin(0);
/// m.begin(1);
/// m.access(0, 42, AccessKind::Read);
/// // Thread 1 writes the line thread 0 read: requester wins, 0 aborts.
/// let outcome = m.access(1, 42, AccessKind::Write);
/// assert_eq!(outcome.victims, vec![0]);
/// assert!(!m.in_tx(0));
/// m.commit(1);
/// ```
#[derive(Debug, Clone)]
pub struct HtmMachine {
    topo: Topology,
    cfg: HtmConfig,
    slots: Vec<TxSlot>,
    /// Bit `t` set iff logical CPU `t` has a transaction in flight. The
    /// only record of that fact: every slot clear goes through
    /// [`HtmMachine::end_tx`], which drops the bit with it.
    active: u64,
    /// `core_mask[t]` has the bit of every logical CPU on `t`'s physical
    /// core, `t` included. Built once from [`Topology::siblings`].
    core_mask: Vec<u64>,
    /// `budgets[co]` is the `(ways, read_lines)` budget of a transaction
    /// sharing its core with `co` in-flight transactions (itself
    /// included), for `co` in `0..=smt_ways`, after the override clamp.
    /// Refilled whenever the override changes.
    budgets: Vec<(usize, usize)>,
    /// Scenario capacity-pressure override: `(ways, read_lines)` clamps
    /// applied on top of the configured geometry (`None` on each axis =
    /// the configured budget). Set by [`HtmMachine::set_capacity_override`].
    capacity_override: (Option<usize>, Option<usize>),
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
        let mut machine = Self {
            topo,
            cfg,
            slots,
            active: 0,
            core_mask,
            budgets: Vec::new(),
            capacity_override: (None, None),
        };
        machine.fill_budgets();
        machine
    }

    /// Installs (or, with two `None`s, lifts) a capacity-pressure
    /// override: the effective write-set ways and read-set line budget
    /// are clamped to at most `ways` / `read_lines` until the next call.
    /// Already-oversized in-flight transactions are not retroactively
    /// aborted — like real hardware, the shrunken budget bites at their
    /// next access.
    pub fn set_capacity_override(&mut self, ways: Option<usize>, read_lines: Option<usize>) {
        self.capacity_override = (ways, read_lines);
        self.fill_budgets();
    }

    /// The capacity-pressure override currently in force.
    pub fn capacity_override(&self) -> (Option<usize>, Option<usize>) {
        self.capacity_override
    }

    /// Recomputes `budgets` from the geometry and the override clamp.
    fn fill_budgets(&mut self) {
        let (ways_cap, reads_cap) = self.capacity_override;
        let cfg = self.cfg;
        self.budgets.clear();
        self.budgets.extend((0..=self.topo.smt_ways()).map(|co| {
            (
                cfg.effective_ways(co).min(ways_cap.unwrap_or(usize::MAX)),
                cfg.effective_read_lines(co)
                    .min(reads_cap.unwrap_or(usize::MAX)),
            )
        }));
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

    /// Ends `thread`'s transaction: drops its `active` bit and clears its
    /// tracked sets.
    fn end_tx(&mut self, thread: ThreadId) {
        self.active &= !self.bit(thread);
        self.slots[thread].clear();
    }

    /// True when `thread` has a transaction in flight (`xtest`).
    pub fn in_tx(&self, thread: ThreadId) -> bool {
        self.active & self.bit(thread) != 0
    }

    /// Number of in-flight transactions on the physical core of `thread`,
    /// including `thread`'s own if active.
    pub fn co_resident_txs(&self, thread: ThreadId) -> usize {
        (self.active & self.core_mask[thread]).count_ones() as usize
    }

    /// Starts a transaction on `thread`.
    ///
    /// Returns SMT siblings whose running transactions were squeezed over
    /// their shrunken capacity budgets and therefore aborted (their slots
    /// are cleared; report them as [`AbortCause::WriteCapacity`] /
    /// [`AbortCause::ReadCapacity`] — the returned pairs carry the cause).
    ///
    /// Allocating convenience wrapper around [`HtmMachine::begin_into`];
    /// per-event callers (the DES driver) pass a reusable scratch vector
    /// to the latter instead.
    ///
    /// # Panics
    /// If `thread` already has a transaction in flight.
    pub fn begin(&mut self, thread: ThreadId) -> Vec<(ThreadId, AbortCause)> {
        let mut squeezed = Vec::new();
        self.begin_into(thread, &mut squeezed);
        squeezed
    }

    /// [`HtmMachine::begin`] writing the squeezed siblings into `squeezed`
    /// (cleared first) instead of allocating a fresh vector.
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
        if self.cfg.smt_capacity_sharing {
            let (ways, reads) = self.budgets[self.co_resident_txs(thread)];
            for s in cpus_in(self.active & self.core_mask[thread] & !me) {
                if usize::from(self.slots[s].max_occupancy) > ways {
                    self.end_tx(s);
                    squeezed.push((s, AbortCause::WriteCapacity));
                } else if self.slots[s].read_set.len() > reads {
                    self.end_tx(s);
                    squeezed.push((s, AbortCause::ReadCapacity));
                }
            }
        }
    }

    /// Feeds a transactional access by `thread` to `line`.
    ///
    /// Allocating convenience wrapper around [`HtmMachine::access_into`].
    ///
    /// # Panics
    /// If `thread` has no transaction in flight.
    pub fn access(&mut self, thread: ThreadId, line: LineAddr, kind: AccessKind) -> AccessResult {
        let mut victims = Vec::new();
        let self_abort = self.access_into(thread, line, kind, &mut victims);
        AccessResult { self_abort, victims }
    }

    /// [`HtmMachine::access`] writing conflict victims into `victims`
    /// (cleared first) instead of allocating; returns the accessor's own
    /// abort cause, if it aborted.
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

        // 1. Conflict pass. Under requester-wins (TSX), this access
        //    invalidates (write) or downgrades (read) the line in every
        //    other in-flight transaction; under requester-aborts, hitting
        //    a line another transaction owns kills *this* transaction.
        match self.cfg.conflict_resolution {
            ConflictResolution::RequesterWins => {
                self.kill_conflicting(thread, line, kind, victims);
            }
            ConflictResolution::RequesterAborts => {
                if self.someone_else_owns(thread, line, kind) {
                    self.end_tx(thread);
                    return Some(AbortCause::Conflict);
                }
            }
        }

        // 2. Capacity pass: extend our own tracked sets. The budgets are
        //    looked up after the conflict pass, so the co-resident count
        //    excludes siblings it just killed, exactly as in `begin`.
        let (ways_budget, read_budget) = self.budgets[self.co_resident_txs(thread)];
        let slot = &mut self.slots[thread];
        let overflow = match kind {
            AccessKind::Write => {
                if !slot.write_set.insert(line) {
                    return None;
                }
                let set_idx = (line % self.cfg.write_sets as u64) as usize;
                if slot.set_occupancy[set_idx] == 0 {
                    slot.touched_sets.push(set_idx as u32);
                }
                slot.set_occupancy[set_idx] += 1;
                slot.max_occupancy = slot.max_occupancy.max(slot.set_occupancy[set_idx]);
                (usize::from(slot.set_occupancy[set_idx]) > ways_budget)
                    .then_some(AbortCause::WriteCapacity)
            }
            AccessKind::Read => (slot.read_set.insert(line) && slot.read_set.len() > read_budget)
                .then_some(AbortCause::ReadCapacity),
        };
        if overflow.is_some() {
            self.end_tx(thread);
        }
        overflow
    }

    /// Feeds a *non-transactional* access (fall-back path, lock words).
    /// Returns the transactions it kills; their slots are cleared.
    ///
    /// Allocating convenience wrapper around
    /// [`HtmMachine::non_tx_access_into`].
    pub fn non_tx_access(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
    ) -> Vec<ThreadId> {
        let mut victims = Vec::new();
        self.non_tx_access_into(thread, line, kind, &mut victims);
        victims
    }

    /// [`HtmMachine::non_tx_access`] writing the killed transactions into
    /// `victims` (cleared first) instead of allocating.
    pub fn non_tx_access_into(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) {
        victims.clear();
        self.kill_conflicting(thread, line, kind, victims);
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

    /// Aborts every in-flight transaction and returns them — used when the
    /// single-global fall-back lock is acquired, which every hardware
    /// transaction subscribes to (reads) at begin.
    ///
    /// Allocating convenience wrapper around [`HtmMachine::kill_all_into`].
    pub fn kill_all(&mut self) -> Vec<ThreadId> {
        let mut killed = Vec::new();
        self.kill_all_into(&mut killed);
        killed
    }

    /// [`HtmMachine::kill_all`] writing the killed transactions into
    /// `killed` (cleared first) instead of allocating, in ascending order.
    pub fn kill_all_into(&mut self, killed: &mut Vec<ThreadId>) {
        killed.clear();
        for t in cpus_in(self.active) {
            self.end_tx(t);
            killed.push(t);
        }
    }

    /// Current read-set size of `thread`'s transaction.
    pub fn read_set_len(&self, thread: ThreadId) -> usize {
        self.slots[thread].read_set.len()
    }

    /// Current write-set size of `thread`'s transaction.
    pub fn write_set_len(&self, thread: ThreadId) -> usize {
        self.slots[thread].write_set.len()
    }

    /// True when `slot` holds `line` in a way that conflicts with an
    /// access of `kind`.
    fn conflicts(slot: &TxSlot, line: LineAddr, kind: AccessKind) -> bool {
        slot.write_set.contains(line) || (kind == AccessKind::Write && slot.read_set.contains(line))
    }

    /// True when any other in-flight transaction holds `line` in a way
    /// that conflicts with an access of `kind`.
    fn someone_else_owns(&self, thread: ThreadId, line: LineAddr, kind: AccessKind) -> bool {
        cpus_in(self.active & !self.bit(thread))
            .any(|t| Self::conflicts(&self.slots[t], line, kind))
    }

    fn kill_conflicting(
        &mut self,
        thread: ThreadId,
        line: LineAddr,
        kind: AccessKind,
        victims: &mut Vec<ThreadId>,
    ) {
        // The mask is read once, before any kill. A kill only clears the
        // CPU being visited, so this matches re-reading it at every step.
        for t in cpus_in(self.active & !self.bit(thread)) {
            if Self::conflicts(&self.slots[t], line, kind) {
                self.end_tx(t);
                victims.push(t);
            }
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
    use crate::config::ConflictResolution;

    fn machine() -> HtmMachine {
        HtmMachine::new(Topology::haswell_e3(), HtmConfig::default())
    }

    #[test]
    fn write_kills_concurrent_reader() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        assert_eq!(m.access(0, 100, AccessKind::Read), AccessResult::default());
        let r = m.access(1, 100, AccessKind::Write);
        assert_eq!(r.victims, vec![0]);
        assert!(r.self_abort.is_none());
        assert!(!m.in_tx(0), "victim slot cleared");
        assert!(m.in_tx(1), "requester wins");
    }

    #[test]
    fn write_kills_concurrent_writer() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.access(0, 7, AccessKind::Write);
        let r = m.access(1, 7, AccessKind::Write);
        assert_eq!(r.victims, vec![0]);
    }

    #[test]
    fn read_kills_concurrent_writer_but_not_reader() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.begin(2);
        m.access(0, 9, AccessKind::Write);
        m.access(1, 9, AccessKind::Read); // killed 0? no: read of 9 kills writer 0
        assert!(!m.in_tx(0));
        // Thread 2 reads the same line: 1 only *read* it, so no kill.
        let r = m.access(2, 9, AccessKind::Read);
        assert!(r.victims.is_empty());
        assert!(m.in_tx(1));
    }

    #[test]
    fn read_read_sharing_is_fine() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.access(0, 5, AccessKind::Read);
        let r = m.access(1, 5, AccessKind::Read);
        assert!(r.victims.is_empty());
        assert!(m.in_tx(0) && m.in_tx(1));
    }

    #[test]
    fn non_tx_write_kills_readers_and_writers() {
        let mut m = machine();
        m.begin(0);
        m.begin(1);
        m.access(0, 11, AccessKind::Read);
        m.access(1, 11, AccessKind::Write);
        assert!(!m.in_tx(0)); // killed by 1's write
        m.begin(2);
        m.access(2, 11, AccessKind::Read);
        assert!(!m.in_tx(1)); // 2's read downgraded writer 1
        let victims = m.non_tx_access(3, 11, AccessKind::Write);
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn commit_clears_sets() {
        let mut m = machine();
        m.begin(0);
        m.access(0, 1, AccessKind::Write);
        m.access(0, 2, AccessKind::Read);
        assert_eq!(m.write_set_len(0), 1);
        assert_eq!(m.read_set_len(0), 1);
        m.commit(0);
        assert!(!m.in_tx(0));
        // A new transaction does not see stale lines.
        m.begin(1);
        let r = m.access(1, 1, AccessKind::Write);
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
        m.begin(0);
        // Lines 0, 4, 8 all map to set 0 with 4 sets; ways = 2, so the third
        // distinct line in the set overflows.
        assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
        assert!(m.access(0, 4, AccessKind::Write).self_abort.is_none());
        let r = m.access(0, 8, AccessKind::Write);
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
        m.begin(0);
        for l in 0..3u64 {
            assert!(m.access(0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = m.access(0, 3, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
    }

    #[test]
    fn duplicate_accesses_do_not_consume_capacity() {
        let cfg = HtmConfig {
            read_lines: 2,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        m.begin(0);
        for _ in 0..100 {
            assert!(m.access(0, 42, AccessKind::Read).self_abort.is_none());
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
        m.begin(0);
        // Occupy 6 of 8 ways: fine while alone.
        for l in 0..6u64 {
            assert!(m.access(0, l, AccessKind::Write).self_abort.is_none());
        }
        // Sibling starts a transaction: effective ways drop to 4 and the
        // running transaction (occupancy 6) is squeezed out.
        let squeezed = m.begin(1);
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
        m.begin(0);
        for l in 0..6u64 {
            m.access(0, l, AccessKind::Write);
        }
        let squeezed = m.begin(1);
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
        m.begin(0);
        m.begin(1);
        // With a co-resident tx, effective ways = 2.
        assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
        assert!(m.access(0, 1, AccessKind::Write).self_abort.is_none());
        let r = m.access(0, 2, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
    }

    #[test]
    fn kill_all_clears_every_tx() {
        let mut m = machine();
        m.begin(0);
        m.begin(3);
        m.begin(5);
        let mut killed = m.kill_all();
        killed.sort_unstable();
        assert_eq!(killed, vec![0, 3, 5]);
        assert!(!m.in_tx(0) && !m.in_tx(3) && !m.in_tx(5));
        assert!(m.kill_all().is_empty());
    }

    #[test]
    fn abort_is_idempotent() {
        let mut m = machine();
        m.begin(2);
        m.abort(2);
        m.abort(2);
        assert!(!m.in_tx(2));
    }

    #[test]
    #[should_panic(expected = "nested xbegin")]
    fn nested_begin_panics() {
        let mut m = machine();
        m.begin(0);
        m.begin(0);
    }

    #[test]
    #[should_panic(expected = "outside a transaction")]
    fn commit_without_tx_panics() {
        let mut m = machine();
        m.commit(0);
    }

    #[test]
    fn requester_aborts_policy_inverts_the_victim() {
        let cfg = HtmConfig {
            conflict_resolution: ConflictResolution::RequesterAborts,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::haswell_e3(), cfg);
        m.begin(0);
        m.begin(1);
        m.access(0, 100, AccessKind::Read);
        let r = m.access(1, 100, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::Conflict));
        assert!(r.victims.is_empty());
        assert!(m.in_tx(0), "holder survives under requester-aborts");
        assert!(!m.in_tx(1));
        // Read-read still fine.
        m.begin(2);
        let r = m.access(2, 100, AccessKind::Read);
        assert!(r.self_abort.is_none());
    }

    #[test]
    fn capacity_override_shrinks_and_restores_budgets() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            read_lines: 8,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        // Clamped to 2 ways / 3 read lines: the third write overflows.
        m.set_capacity_override(Some(2), Some(3));
        m.begin(0);
        assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
        assert!(m.access(0, 1, AccessKind::Write).self_abort.is_none());
        let r = m.access(0, 2, AccessKind::Write);
        assert_eq!(r.self_abort, Some(AbortCause::WriteCapacity));
        // Read budget clamps independently.
        m.begin(0);
        for l in 10..13u64 {
            assert!(m.access(0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = m.access(0, 13, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
        // Lifting the override restores the configured geometry.
        m.set_capacity_override(None, None);
        m.begin(0);
        for l in 0..8u64 {
            assert!(m.access(0, l, AccessKind::Write).self_abort.is_none());
        }
        m.commit(0);
    }

    #[test]
    fn capacity_override_never_widens_budgets() {
        let cfg = HtmConfig {
            read_lines: 3,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(2, 1), cfg);
        // A clamp above the configured budget is a no-op (min, not set).
        m.set_capacity_override(None, Some(1000));
        m.begin(0);
        for l in 0..3u64 {
            assert!(m.access(0, l, AccessKind::Read).self_abort.is_none());
        }
        let r = m.access(0, 3, AccessKind::Read);
        assert_eq!(r.self_abort, Some(AbortCause::ReadCapacity));
    }

    #[test]
    fn capacity_override_squeezes_at_sibling_begin() {
        let cfg = HtmConfig {
            write_sets: 1,
            write_ways: 8,
            ..HtmConfig::default()
        };
        let mut m = HtmMachine::new(Topology::new(1, 2), cfg);
        m.begin(0);
        for l in 0..3u64 {
            assert!(m.access(0, l, AccessKind::Write).self_abort.is_none());
        }
        // Override lands mid-transaction: occupancy 3 > clamp 2, but the
        // clamp only bites at the next budget check — here the sibling's
        // begin-time squeeze.
        m.set_capacity_override(Some(2), None);
        assert!(m.in_tx(0));
        let squeezed = m.begin(1);
        assert_eq!(squeezed, vec![(0, AbortCause::WriteCapacity)]);
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
            m.begin(0);
            assert!(m.access(0, 0, AccessKind::Write).self_abort.is_none());
            assert!(m.access(0, 2, AccessKind::Write).self_abort.is_none());
            m.commit(0);
        }
    }
}
