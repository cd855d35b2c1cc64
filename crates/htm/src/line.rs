//! Cache-line addresses and a fast open-addressing line set.
//!
//! Transactional read/write sets are tracked at cache-line granularity,
//! exactly like TSX. The hot operations are `insert` (every transactional
//! access) and `contains` (conflict probing by every concurrent access), so
//! the set is a simple power-of-two open-addressing table with linear
//! probing and an FxHash-style multiplicative hash — no allocation per
//! access, O(1) amortized, and `clear` re-blanks the whole table.

/// A cache-line address (byte address >> 6 on the modelled 64-byte lines).
pub type LineAddr = u64;

/// Sentinel for an empty slot. Real line addresses never reach this value
/// because the workload address spaces are far below `2^63`.
const EMPTY: u64 = u64::MAX;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn hash(line: LineAddr) -> u64 {
    // FxHash-style single multiply + rotate: plenty for line addresses.
    line.wrapping_mul(FX_SEED).rotate_left(26)
}

/// An open-addressing set of cache-line addresses.
///
/// ```
/// use seer_htm::line::LineSet;
///
/// let mut s = LineSet::new();
/// assert!(s.insert(10));
/// assert!(!s.insert(10)); // already present
/// assert!(s.contains(10));
/// assert_eq!(s.len(), 1);
/// s.clear();
/// assert!(!s.contains(10));
/// ```
#[derive(Debug, Clone)]
pub struct LineSet {
    slots: Vec<u64>,
    items: Vec<LineAddr>,
    mask: usize,
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LineSet {
    /// Creates an empty set with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Creates an empty set sized for about `cap` lines without rehashing.
    pub fn with_capacity(cap: usize) -> Self {
        let size = (cap.max(8) * 2).next_power_of_two();
        Self {
            slots: vec![EMPTY; size],
            items: Vec::with_capacity(cap),
            mask: size - 1,
        }
    }

    /// Number of distinct lines in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no lines are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Inserts `line`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) -> bool {
        debug_assert_ne!(line, EMPTY, "sentinel value used as line address");
        if self.items.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mut idx = hash(line) as usize & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot == EMPTY {
                self.slots[idx] = line;
                self.items.push(line);
                return true;
            }
            if slot == line {
                return false;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// True when `line` is in the set.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        let mut idx = hash(line) as usize & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot == line {
                return true;
            }
            if slot == EMPTY {
                return false;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Removes all lines, keeping allocated capacity.
    ///
    /// Re-blanks the whole slot table. Blanking only the occupied slots
    /// would make a clear O(len) rather than O(capacity), but measured
    /// end to end it made no difference, so the simple wipe stays.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.items.clear();
    }

    /// Iterates the lines in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.items.iter().copied()
    }

    #[cold]
    fn grow(&mut self) {
        let new_size = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_size, EMPTY);
        self.mask = new_size - 1;
        for &line in &self.items {
            let mut idx = hash(line) as usize & self.mask;
            while self.slots[idx] != EMPTY {
                idx = (idx + 1) & self.mask;
            }
            self.slots[idx] = line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = LineSet::new();
        for i in 0..1000u64 {
            assert!(s.insert(i * 7));
        }
        assert_eq!(s.len(), 1000);
        for i in 0..1000u64 {
            assert!(s.contains(i * 7));
        }
        assert!(!s.contains(3));
    }

    #[test]
    fn duplicate_insert_returns_false() {
        let mut s = LineSet::new();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut s = LineSet::new();
        for i in 0..100u64 {
            s.insert(i);
        }
        s.clear();
        assert!(s.is_empty());
        for i in 0..100u64 {
            assert!(!s.contains(i));
        }
        // Reusable after clear.
        assert!(s.insert(5));
        assert!(s.contains(5));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = LineSet::with_capacity(4);
        for i in 0..10_000u64 {
            assert!(s.insert(i.wrapping_mul(0x9E3779B97F4A7C15)));
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut s = LineSet::new();
        s.insert(30);
        s.insert(10);
        s.insert(20);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![30, 10, 20]);
    }

    #[test]
    fn adversarial_same_bucket_keys() {
        // Keys chosen to collide in a small table exercise linear probing.
        let mut s = LineSet::with_capacity(8);
        let base = 0x1000u64;
        for i in 0..64u64 {
            assert!(s.insert(base + i * 16));
        }
        for i in 0..64u64 {
            assert!(s.contains(base + i * 16));
        }
        assert!(!s.contains(base + 64 * 16));
    }
}
