//! The lock bank: every software lock the schedulers use, addressable by id.
//!
//! Four classes of locks appear across the evaluated schedulers (paper
//! Table 2 and §5.1):
//!
//! * `Sgl` — the single-global lock of the HTM fall-back path, common to
//!   every scheduler.
//! * `Aux` — SCM's auxiliary serialization lock for aborted transactions.
//! * `Core(i)` — Seer's per-physical-core locks against SMT-induced
//!   capacity aborts.
//! * `Tx(j)` — Seer's per-atomic-block locks implementing the inferred
//!   fine-grained serialization scheme.
//!
//! [`LockId`]'s derived `Ord` is the *canonical acquisition order* used by
//! every multi-lock acquisition in the runtime; acquiring in this order
//! (and never blocking on a lock while holding a later-ordered one without
//! first releasing, see `Gate::ReleaseHeld`) makes the simulated system —
//! and the algorithm it models — deadlock-free. The paper sorts the rows of
//! `locksToAcquire` for the same reason (Alg. 5 line 75).

use seer_sim::{SimLock, ThreadId};

/// Identifier of a software lock managed by the runtime.
///
/// The derived ordering (`Sgl < Aux < Core(_) < Tx(_)`, each class by
/// index) is the canonical deadlock-avoiding acquisition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockId {
    /// The single-global fall-back lock.
    Sgl,
    /// SCM's auxiliary serialization lock.
    Aux,
    /// Seer's per-physical-core lock.
    Core(usize),
    /// Seer's per-atomic-block lock.
    Tx(usize),
}

impl std::fmt::Display for LockId {
    /// The stable label used by the trace JSONL schema: `sgl`, `aux`,
    /// `core:<i>`, `tx:<j>`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockId::Sgl => write!(f, "sgl"),
            LockId::Aux => write!(f, "aux"),
            LockId::Core(i) => write!(f, "core:{i}"),
            LockId::Tx(i) => write!(f, "tx:{i}"),
        }
    }
}

/// All locks of a simulation run.
#[derive(Debug, Clone)]
pub struct LockBank {
    sgl: SimLock,
    aux: SimLock,
    core: Vec<SimLock>,
    tx: Vec<SimLock>,
}

impl LockBank {
    /// A bank with `cores` core locks and `blocks` transaction locks.
    pub fn new(cores: usize, blocks: usize) -> Self {
        Self {
            sgl: SimLock::new(),
            aux: SimLock::new(),
            core: (0..cores).map(|_| SimLock::new()).collect(),
            tx: (0..blocks).map(|_| SimLock::new()).collect(),
        }
    }

    /// Shared access to a lock.
    pub fn get(&self, id: LockId) -> &SimLock {
        match id {
            LockId::Sgl => &self.sgl,
            LockId::Aux => &self.aux,
            LockId::Core(i) => &self.core[i],
            LockId::Tx(i) => &self.tx[i],
        }
    }

    /// Mutable access to a lock.
    pub fn get_mut(&mut self, id: LockId) -> &mut SimLock {
        match id {
            LockId::Sgl => &mut self.sgl,
            LockId::Aux => &mut self.aux,
            LockId::Core(i) => &mut self.core[i],
            LockId::Tx(i) => &mut self.tx[i],
        }
    }

    /// True when `id` is held by any thread.
    pub fn is_locked(&self, id: LockId) -> bool {
        self.get(id).is_locked()
    }

    /// True when `id` is held by `thread`.
    pub fn is_held_by(&self, id: LockId, thread: ThreadId) -> bool {
        self.get(id).is_held_by(thread)
    }

    /// Releases `id` (held by `thread`), draining the threads to wake
    /// into caller-provided vectors (cleared first): parked acquirers in
    /// FIFO order, then watchers. Allocates nothing — the hot path of the
    /// DES driver's lock hand-off.
    pub fn release_into(
        &mut self,
        id: LockId,
        thread: ThreadId,
        acquirers: &mut Vec<ThreadId>,
        watchers: &mut Vec<ThreadId>,
    ) {
        self.get_mut(id).release_into(thread, acquirers, watchers);
    }

    /// Number of transaction locks in the bank.
    pub fn tx_lock_count(&self) -> usize {
        self.tx.len()
    }

    /// Number of core locks in the bank.
    pub fn core_lock_count(&self) -> usize {
        self.core.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order() {
        let mut ids = vec![
            LockId::Tx(3),
            LockId::Core(1),
            LockId::Sgl,
            LockId::Tx(0),
            LockId::Aux,
            LockId::Core(0),
        ];
        ids.sort();
        assert_eq!(
            ids,
            vec![
                LockId::Sgl,
                LockId::Aux,
                LockId::Core(0),
                LockId::Core(1),
                LockId::Tx(0),
                LockId::Tx(3),
            ]
        );
    }

    #[test]
    fn bank_addressing() {
        let mut bank = LockBank::new(4, 10);
        assert_eq!(bank.core_lock_count(), 4);
        assert_eq!(bank.tx_lock_count(), 10);
        assert!(bank.get_mut(LockId::Tx(7)).try_acquire(2));
        assert!(bank.is_locked(LockId::Tx(7)));
        assert!(bank.is_held_by(LockId::Tx(7), 2));
        assert!(!bank.is_locked(LockId::Tx(6)));
        assert!(!bank.is_locked(LockId::Sgl));
    }

    #[test]
    fn release_produces_wake_plan() {
        let mut bank = LockBank::new(1, 1);
        assert!(bank.get_mut(LockId::Sgl).try_acquire(0));
        bank.get_mut(LockId::Sgl).enqueue_acquirer(1);
        bank.get_mut(LockId::Sgl).add_watcher(2);
        let (mut acquirers, mut watchers) = (vec![9], vec![9]);
        bank.release_into(LockId::Sgl, 0, &mut acquirers, &mut watchers);
        assert_eq!(acquirers, vec![1]);
        assert_eq!(watchers, vec![2]);
        assert!(!bank.is_locked(LockId::Sgl));
    }
}
