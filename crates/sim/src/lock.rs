//! Simulated locks with FIFO waiter queues.
//!
//! A [`SimLock`] models a spin/queue lock of the simulated program. It never
//! blocks the host: the runtime driver calls [`SimLock::try_acquire`], and
//! on failure parks the simulated thread by registering it as a waiter;
//! [`SimLock::release_into`] hands back the set of threads the driver must wake
//! (at the release time plus a hand-off latency decided by the cost model).
//!
//! Two waiting disciplines are needed by the Seer algorithms:
//!
//! * **acquirers** — threads that want ownership (e.g. `acquire-lock(sgl)`
//!   on the fall-back path, Alg. 1 line 20). Handed the lock FIFO, one at a
//!   time.
//! * **watchers** — threads that merely wait for the lock to be free
//!   without taking it (the `wait while is-locked(...)` loops of
//!   `WAIT-Seer-LOCKS`, Alg. 4 lines 55–58). All watchers wake on release.

use std::collections::VecDeque;

use crate::ThreadId;

/// A simulated lock. See the module docs for the waiting disciplines.
#[derive(Debug, Clone)]
pub struct SimLock {
    owner: Option<ThreadId>,
    acquirers: VecDeque<ThreadId>,
    watchers: Vec<ThreadId>,
}

impl Default for SimLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimLock {
    /// Creates a free lock.
    pub fn new() -> Self {
        Self {
            owner: None,
            acquirers: VecDeque::new(),
            watchers: Vec::new(),
        }
    }

    /// Current owner, if held.
    pub fn owner(&self) -> Option<ThreadId> {
        self.owner
    }

    /// True when some thread holds the lock.
    pub fn is_locked(&self) -> bool {
        self.owner.is_some()
    }

    /// True when `thread` holds the lock.
    pub fn is_held_by(&self, thread: ThreadId) -> bool {
        self.owner == Some(thread)
    }

    /// Attempts to take the lock for `thread`.
    ///
    /// Returns `true` on success. On failure the caller should either give
    /// up or park the thread via [`SimLock::enqueue_acquirer`] /
    /// [`SimLock::add_watcher`].
    ///
    /// # Panics
    /// If `thread` already owns the lock (the simulated locks are not
    /// reentrant; the Seer algorithms guard against re-acquisition with the
    /// `acquiredTxLocks` / `acquiredCoreLock` flags).
    pub fn try_acquire(&mut self, thread: ThreadId) -> bool {
        assert!(
            self.owner != Some(thread),
            "thread {thread} re-acquiring a lock it already holds"
        );
        if self.owner.is_none() {
            self.owner = Some(thread);
            true
        } else {
            false
        }
    }

    /// Parks `thread` in the FIFO acquirer queue; idempotent (a thread
    /// woken by an unrelated event may retry and re-park while still
    /// queued).
    ///
    /// The thread is woken to re-contend by a future
    /// [`SimLock::release_into`].
    pub fn enqueue_acquirer(&mut self, thread: ThreadId) {
        if self.acquirers.contains(&thread) {
            return;
        }
        self.acquirers.push_back(thread);
    }

    /// Registers `thread` to be woken (without ownership) when the lock is
    /// next released. Idempotent.
    pub fn add_watcher(&mut self, thread: ThreadId) {
        if !self.watchers.contains(&thread) {
            self.watchers.push(thread);
        }
    }

    /// Releases the lock held by `thread`, draining the threads to wake
    /// into caller-provided vectors (cleared first): the lock keeps its
    /// queue buffers and the caller reuses its own, so a release allocates
    /// nothing.
    ///
    /// The lock becomes observably *free*. The queued `acquirers` come
    /// back in FIFO order and must retry [`SimLock::try_acquire`] (the
    /// first to retry wins, so the queue order is preserved under the
    /// driver's ordered wake-ups); the `watchers` re-check their
    /// conditions. This models a real test-and-set lock, where a release
    /// is followed by a visible free window rather than a direct hand-off
    /// — a window the `WAIT-Seer-LOCKS` loops depend on to make progress.
    ///
    /// # Panics
    /// If `thread` does not own the lock.
    pub fn release_into(
        &mut self,
        thread: ThreadId,
        acquirers: &mut Vec<ThreadId>,
        watchers: &mut Vec<ThreadId>,
    ) {
        assert!(
            self.owner == Some(thread),
            "thread {thread} releasing a lock owned by {:?}",
            self.owner
        );
        self.owner = None;
        acquirers.clear();
        acquirers.extend(self.acquirers.drain(..));
        watchers.clear();
        watchers.append(&mut self.watchers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Releases `l` for `thread`; the woken acquirers and watchers.
    fn release(l: &mut SimLock, thread: ThreadId) -> (Vec<ThreadId>, Vec<ThreadId>) {
        let (mut acquirers, mut watchers) = (vec![99], vec![99]);
        l.release_into(thread, &mut acquirers, &mut watchers);
        (acquirers, watchers)
    }

    #[test]
    fn acquire_release_roundtrip() {
        let mut l = SimLock::new();
        assert!(!l.is_locked());
        assert!(l.try_acquire(1));
        assert!(l.is_locked());
        assert!(l.is_held_by(1));
        assert!(!l.try_acquire(2));
        // The output vectors are cleared first.
        assert_eq!(release(&mut l, 1), (vec![], vec![]));
        assert!(!l.is_locked());
    }

    #[test]
    fn release_drains_acquirers_in_fifo_order() {
        let mut l = SimLock::new();
        assert!(l.try_acquire(0));
        assert!(!l.try_acquire(1));
        l.enqueue_acquirer(1);
        assert!(!l.try_acquire(2));
        l.enqueue_acquirer(2);
        let (acquirers, _) = release(&mut l, 0);
        assert_eq!(acquirers, vec![1, 2]);
        // The lock is observably free until someone re-acquires.
        assert!(!l.is_locked());
        assert!(l.try_acquire(1));
        assert!(l.is_held_by(1));
    }

    #[test]
    fn watchers_drain_on_release() {
        let mut l = SimLock::new();
        assert!(l.try_acquire(0));
        l.add_watcher(5);
        l.add_watcher(6);
        l.add_watcher(5); // idempotent
        let (acquirers, watchers) = release(&mut l, 0);
        assert!(acquirers.is_empty());
        assert_eq!(watchers, vec![5, 6]);
        // Watchers do not persist past a release.
        assert!(l.try_acquire(1));
        assert_eq!(release(&mut l, 1).1, Vec::<ThreadId>::new());
    }

    #[test]
    #[should_panic(expected = "re-acquiring")]
    fn reacquire_panics() {
        let mut l = SimLock::new();
        assert!(l.try_acquire(3));
        let _ = l.try_acquire(3);
    }

    #[test]
    #[should_panic(expected = "releasing a lock owned by")]
    fn foreign_release_panics() {
        let mut l = SimLock::new();
        assert!(l.try_acquire(3));
        let _ = release(&mut l, 4);
    }
}
