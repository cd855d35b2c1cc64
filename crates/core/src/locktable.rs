//! The `locksToAcquire` table (paper Table 2, Fig. 2 step 6).
//!
//! Row `x` lists the transaction locks block `x` must acquire on its last
//! hardware attempt. The periodic update builds a fresh table from the
//! inferred conflict pairs — applying the symmetric assignment of Alg. 5
//! lines 73–74 (contending blocks take *each other's* locks) — sorts every
//! row (the global acquisition order that avoids deadlocks, line 75), and
//! swaps it in atomically. In the real system the swap is a pointer
//! indirection; in the single-threaded simulation a generation counter
//! stands in for the pointer so tests can observe the swap.

use seer_runtime::BlockId;

/// The dynamic locking scheme.
///
/// ```
/// use seer::LockTable;
///
/// let mut table = LockTable::new(3);
/// table.rebuild(&[(0, 2)]); // blocks 0 and 2 conflict
/// assert_eq!(table.row(0), &[2]); // 0 takes 2's lock...
/// assert_eq!(table.row(2), &[0]); // ...and vice versa
/// assert!(table.row(1).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LockTable {
    rows: Vec<Vec<BlockId>>,
    generation: u64,
}

impl LockTable {
    /// An empty scheme over `blocks` atomic blocks (no serialization).
    pub fn new(blocks: usize) -> Self {
        Self {
            rows: vec![Vec::new(); blocks],
            generation: 0,
        }
    }

    /// Number of atomic blocks.
    pub fn blocks(&self) -> usize {
        self.rows.len()
    }

    /// Locks block `x` must acquire (sorted ascending).
    pub fn row(&self, x: BlockId) -> &[BlockId] {
        &self.rows[x]
    }

    /// True when no row requires any lock.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }

    /// Generation counter, bumped by every swap (the "indirection pointer").
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of (block, lock) entries.
    pub fn total_entries(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Rebuilds the table from inferred conflict `pairs` and swaps it in.
    ///
    /// For each inferred pair `(x, y)`: `x` takes `y`'s lock and `y` takes
    /// `x`'s lock (Alg. 5 lines 73–74). Rows are deduplicated and sorted.
    pub fn rebuild(&mut self, pairs: &[(BlockId, BlockId)]) {
        let blocks = self.rows.len();
        // Rows are cleared and refilled in place: after the first few
        // rounds their capacities stabilize and a rebuild allocates
        // nothing (the steady-state discipline of DESIGN.md §12.3).
        for row in &mut self.rows {
            row.clear();
        }
        for &(x, y) in pairs {
            debug_assert!(x < blocks && y < blocks, "pair ({x},{y}) out of range");
            self.rows[x].push(y);
            self.rows[y].push(x);
        }
        for row in &mut self.rows {
            row.sort_unstable();
            row.dedup();
        }
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let t = LockTable::new(3);
        assert!(t.is_empty());
        assert_eq!(t.generation(), 0);
        assert_eq!(t.row(0), &[] as &[BlockId]);
    }

    #[test]
    fn rebuild_applies_symmetric_assignment() {
        let mut t = LockTable::new(4);
        t.rebuild(&[(0, 2)]);
        assert_eq!(t.row(0), &[2]);
        assert_eq!(t.row(2), &[0]);
        assert_eq!(t.row(1), &[] as &[BlockId]);
        assert_eq!(t.generation(), 1);
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let mut t = LockTable::new(5);
        // (0,3) and (3,0) both inferred: symmetric insertion would
        // duplicate without dedup.
        t.rebuild(&[(0, 3), (3, 0), (0, 1), (4, 0)]);
        assert_eq!(t.row(0), &[1, 3, 4]);
        assert_eq!(t.row(3), &[0]);
        assert_eq!(t.row(1), &[0]);
        assert_eq!(t.row(4), &[0]);
    }

    #[test]
    fn self_pair_takes_own_lock() {
        let mut t = LockTable::new(2);
        t.rebuild(&[(1, 1)]);
        assert_eq!(t.row(1), &[1]);
        assert_eq!(t.row(0), &[] as &[BlockId]);
    }

    #[test]
    fn rebuild_replaces_not_accumulates() {
        let mut t = LockTable::new(3);
        t.rebuild(&[(0, 1)]);
        t.rebuild(&[(1, 2)]);
        assert_eq!(t.row(0), &[] as &[BlockId]);
        assert_eq!(t.row(1), &[2]);
        assert_eq!(t.row(2), &[1]);
        assert_eq!(t.generation(), 2);
        assert_eq!(t.total_entries(), 2);
    }
}
