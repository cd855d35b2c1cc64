//! The `activeTxs` announcement array (paper Table 2, Fig. 2 steps 1/2/7).
//!
//! One slot per simulated thread (the paper sizes it "with as many slots as
//! threads in the program, making each entry … a single-writer multi-reader
//! register"). A thread announces the atomic block it is about to execute
//! at START and clears the slot at END; commit/abort registration scans the
//! whole array. The scan is deliberately *imprecise*: it sees every
//! announced transaction — including ones merely waiting to start — not
//! just the one that caused an abort. Seer's inference is designed to
//! tolerate exactly this noise.

use seer_sim::ThreadId;

use seer_runtime::BlockId;

/// The global announcement array.
#[derive(Debug, Clone)]
pub struct ActiveTxs {
    slots: Vec<Option<BlockId>>,
}

impl ActiveTxs {
    /// An array for `threads` threads, all slots empty.
    pub fn new(threads: usize) -> Self {
        Self {
            slots: vec![None; threads],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no thread has announced.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Thread `thread` announces it is executing `block` (Fig. 2 step 2).
    pub fn announce(&mut self, thread: ThreadId, block: BlockId) {
        self.slots[thread] = Some(block);
    }

    /// Thread `thread` finished its transaction (Fig. 2 step 7).
    pub fn clear(&mut self, thread: ThreadId) {
        self.slots[thread] = None;
    }

    /// The block announced by `thread`, if any.
    pub fn get(&self, thread: ThreadId) -> Option<BlockId> {
        self.slots[thread]
    }

    /// Scans the array the way REGISTER-ABORT/COMMIT do (Alg. 3): yields
    /// the blocks announced by every thread other than `scanner`.
    pub fn scan_others<'a>(&'a self, scanner: ThreadId) -> impl Iterator<Item = BlockId> + 'a {
        self.slots
            .iter()
            .enumerate()
            .filter(move |(t, slot)| *t != scanner && slot.is_some())
            .map(|(_, slot)| slot.expect("filtered to Some"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_scan_clear_cycle() {
        let mut a = ActiveTxs::new(4);
        assert!(a.is_empty());
        a.announce(0, 7);
        a.announce(2, 3);
        assert_eq!(a.get(0), Some(7));
        assert_eq!(a.get(1), None);
        let seen: Vec<_> = a.scan_others(0).collect();
        assert_eq!(seen, vec![3]);
        let seen: Vec<_> = a.scan_others(1).collect();
        assert_eq!(seen, vec![7, 3]);
        a.clear(0);
        assert_eq!(a.get(0), None);
        let seen: Vec<_> = a.scan_others(1).collect();
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn scanner_excludes_itself() {
        let mut a = ActiveTxs::new(2);
        a.announce(0, 1);
        a.announce(1, 2);
        assert_eq!(a.scan_others(0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.scan_others(1).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn reannounce_overwrites() {
        let mut a = ActiveTxs::new(1);
        a.announce(0, 1);
        a.announce(0, 5);
        assert_eq!(a.get(0), Some(5));
    }
}
