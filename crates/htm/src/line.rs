//! Cache-line addresses and the line directory behind conflict detection.
//!
//! Transactional read/write sets are tracked at cache-line granularity,
//! exactly like TSX. The machine keeps one [`LineDirectory`] for all
//! CPUs: each tracked line maps to the masks of the logical CPUs that
//! hold it in their read and write sets. That answers the question an
//! invalidation asks ("who holds line L?") with one probe, however many
//! transactions are in flight. The table is a power-of-two
//! open-addressing table with linear probing and an FxHash-style
//! multiplicative hash: no allocation per access, O(1) amortized, and
//! deletion by backward shift, so a transaction's end costs O(footprint).

use crate::machine::AccessKind;

/// A cache-line address (byte address >> 6 on the modelled 64-byte lines).
pub type LineAddr = u64;

/// Sentinel for an empty slot. Real line addresses never reach this value
/// because the workload address spaces are far below `2^63`.
const EMPTY: u64 = u64::MAX;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Slots of a fresh directory: room for 256 tracked lines before the
/// first growth, several times a low-contention cell's live footprint.
const INITIAL_SLOTS: usize = 512;

#[inline]
fn hash(line: LineAddr) -> u64 {
    // FxHash-style single multiply + rotate: plenty for line addresses.
    line.wrapping_mul(FX_SEED).rotate_left(26)
}

/// One directory slot: a line and the CPUs holding it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    /// Bit `t` set iff CPU `t` has `line` in its read set.
    readers: u64,
    /// Bit `t` set iff CPU `t` has `line` in its write set.
    writers: u64,
}

const VACANT: Entry = Entry {
    line: EMPTY,
    readers: 0,
    writers: 0,
};

impl Entry {
    /// The mask an access of `kind` records its CPU in.
    #[inline]
    fn mask(&mut self, kind: AccessKind) -> &mut u64 {
        match kind {
            AccessKind::Read => &mut self.readers,
            AccessKind::Write => &mut self.writers,
        }
    }
}

/// Where [`LineDirectory::probe`] found a line, or the vacant slot where
/// it would be inserted. A probe is good until the directory next changes:
/// a release deletes and shifts entries and an insert may grow the table,
/// so take a fresh probe after either.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    line: LineAddr,
    slot: Result<usize, usize>,
}

/// `line → (readers, writers)` CPU masks for every line some in-flight
/// transaction tracks. A line is present iff one of its masks is nonzero:
/// bits only enter through [`LineDirectory::add`], which inserts a line
/// together with its first bit, and [`LineDirectory::release`] deletes
/// the line with its last one.
#[derive(Debug, Clone)]
pub(crate) struct LineDirectory {
    slots: Vec<Entry>,
    len: usize,
    mask: usize,
}

impl LineDirectory {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![VACANT; INITIAL_SLOTS],
            len: 0,
            mask: INITIAL_SLOTS - 1,
        }
    }

    /// The slot holding `line`, or `Err` with the vacant slot ending its
    /// probe run (where an insert would go).
    #[inline]
    fn find(&self, line: LineAddr) -> Result<usize, usize> {
        debug_assert_ne!(line, EMPTY, "sentinel value used as line address");
        let mut idx = hash(line) as usize & self.mask;
        loop {
            let slot = self.slots[idx].line;
            if slot == line {
                return Ok(idx);
            }
            if slot == EMPTY {
                return Err(idx);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Looks `line` up once, for [`LineDirectory::holders`] and
    /// [`LineDirectory::add`].
    #[inline]
    pub(crate) fn probe(&self, line: LineAddr) -> Probe {
        Probe {
            line,
            slot: self.find(line),
        }
    }

    /// The CPUs holding the probed line in a way that conflicts with an
    /// access of `kind`: its writers, plus its readers when the access is
    /// a write. Zero when no CPU tracks the line.
    #[inline]
    pub(crate) fn holders(&self, p: Probe, kind: AccessKind) -> u64 {
        debug_assert_eq!(self.find(p.line), p.slot, "stale probe");
        let Ok(idx) = p.slot else { return 0 };
        let e = self.slots[idx];
        match kind {
            AccessKind::Read => e.writers,
            AccessKind::Write => e.writers | e.readers,
        }
    }

    /// Records `bit` in the probed line's reader mask (for
    /// [`AccessKind::Read`]) or writer mask, inserting the line if it is
    /// untracked. Returns whether the bit is new.
    #[inline]
    pub(crate) fn add(&mut self, p: Probe, bit: u64, kind: AccessKind) -> bool {
        debug_assert_eq!(self.find(p.line), p.slot, "stale probe");
        let idx = match p.slot {
            Ok(idx) => idx,
            Err(mut idx) => {
                if (self.len + 1) * 2 > self.slots.len() {
                    self.grow();
                    idx = self.find(p.line).expect_err("line absent before growth");
                }
                self.len += 1;
                self.slots[idx].line = p.line;
                idx
            }
        };
        let mask = self.slots[idx].mask(kind);
        let new = *mask & bit == 0;
        *mask |= bit;
        new
    }

    /// Drops `bit` from `line`'s reader mask (for [`AccessKind::Read`])
    /// or writer mask, and deletes the entry once both masks are zero.
    ///
    /// # Panics
    /// In debug builds, if `line` is not tracked.
    #[inline]
    pub(crate) fn release(&mut self, line: LineAddr, bit: u64, kind: AccessKind) {
        let Ok(idx) = self.find(line) else {
            debug_assert!(false, "released untracked line {line}");
            return;
        };
        let e = &mut self.slots[idx];
        *e.mask(kind) &= !bit;
        if e.readers | e.writers == 0 {
            self.delete(idx);
        }
    }

    /// Backward-shift deletion: vacate `hole`, then pull each later entry
    /// of the probe run back into the hole unless its home slot lies
    /// cyclically in `(hole, idx]` (moving it would put it before home).
    fn delete(&mut self, mut hole: usize) {
        self.len -= 1;
        let mut idx = hole;
        loop {
            idx = (idx + 1) & self.mask;
            let line = self.slots[idx].line;
            if line == EMPTY {
                break;
            }
            let home = hash(line) as usize & self.mask;
            if (idx.wrapping_sub(home) & self.mask) >= (idx.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = self.slots[idx];
                hole = idx;
            }
        }
        self.slots[hole] = VACANT;
    }

    #[cold]
    fn grow(&mut self) {
        let size = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![VACANT; size]);
        self.mask = size - 1;
        for e in old.into_iter().filter(|e| e.line != EMPTY) {
            let idx = self.find(e.line).expect_err("lines are unique");
            self.slots[idx] = e;
        }
    }

    /// Number of tracked lines.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The masks of `line`; both zero when no CPU tracks it.
    #[cfg(test)]
    fn get(&self, line: LineAddr) -> Entry {
        self.find(line).map_or(VACANT, |idx| self.slots[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(d: &mut LineDirectory, line: LineAddr, cpu: usize, kind: AccessKind) {
        assert!(
            d.add(d.probe(line), 1 << cpu, kind),
            "bit {cpu} already set"
        );
    }

    #[test]
    fn entries_roundtrip_and_delete_at_zero() {
        let mut d = LineDirectory::new();
        set(&mut d, 10, 0, AccessKind::Read);
        set(&mut d, 10, 3, AccessKind::Write);
        let e = d.get(10);
        assert_eq!((e.readers, e.writers), (1, 8));
        d.release(10, 1, AccessKind::Read);
        assert_eq!(d.len(), 1, "writer bit keeps the entry");
        d.release(10, 8, AccessKind::Write);
        assert_eq!(d.len(), 0);
        let e = d.get(10);
        assert_eq!((e.readers, e.writers), (0, 0));
    }

    #[test]
    fn add_reports_new_bits_and_holders_follow_the_access_kind() {
        let mut d = LineDirectory::new();
        assert_eq!(d.holders(d.probe(7), AccessKind::Write), 0);
        assert!(d.add(d.probe(7), 1 << 2, AccessKind::Read));
        assert!(
            !d.add(d.probe(7), 1 << 2, AccessKind::Read),
            "bit already held"
        );
        assert!(d.add(d.probe(7), 1 << 4, AccessKind::Write));
        assert_eq!(d.holders(d.probe(7), AccessKind::Read), 1 << 4);
        assert_eq!(d.holders(d.probe(7), AccessKind::Write), 1 << 4 | 1 << 2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity_and_shrinks_to_empty() {
        let mut d = LineDirectory::new();
        let lines: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        for &l in &lines {
            set(&mut d, l, 5, AccessKind::Read);
        }
        assert_eq!(d.len(), 10_000);
        assert!(d.slots.len() > INITIAL_SLOTS);
        for &l in &lines {
            assert_eq!(d.get(l).readers, 1 << 5);
        }
        for &l in &lines {
            d.release(l, 1 << 5, AccessKind::Read);
        }
        assert_eq!(d.len(), 0);
        assert!(d.slots.iter().all(|e| e.line == EMPTY));
    }

    #[test]
    fn deletion_keeps_every_colliding_line_reachable() {
        // Lines homed on the last few slots wrap their probe runs round
        // the end of the table; deleting from the middle of such a run
        // must pull every later entry back within reach of its home.
        let mut d = LineDirectory::new();
        let mask = d.mask;
        let near_end: Vec<u64> = (0..200_000u64)
            .filter(|&l| hash(l) as usize & mask >= mask - 2)
            .take(12)
            .collect();
        for &l in &near_end {
            set(&mut d, l, 1, AccessKind::Write);
        }
        for (i, &gone) in near_end.iter().enumerate().step_by(2) {
            d.release(gone, 2, AccessKind::Write);
            for &l in &near_end[i + 1..] {
                assert_eq!(d.get(l).writers, 2, "line {l} lost after deleting {gone}");
            }
        }
        assert_eq!(d.len(), near_end.len() / 2);
    }

    proptest! {
        /// The directory agrees with a `HashMap` of masks under any mix
        /// of bit sets and releases, on a line range small enough that
        /// probe runs collide, wrap and shift constantly.
        #[test]
        fn matches_hash_map(ops in prop::collection::vec((0u64..300, 0usize..4, any::<bool>()), 0..600)) {
            use std::collections::HashMap;
            let mut d = LineDirectory::new();
            let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
            for (line, cpu, write) in ops {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let bit = 1u64 << cpu;
                let masks = model.entry(line).or_default();
                let held = if write { &mut masks.1 } else { &mut masks.0 };
                if *held & bit == 0 {
                    *held |= bit;
                    set(&mut d, line, cpu, kind);
                } else {
                    *held &= !bit;
                    if *masks == (0, 0) {
                        model.remove(&line);
                    }
                    d.release(line, bit, kind);
                }
                prop_assert_eq!(d.len(), model.len());
            }
            for line in 0..300u64 {
                let e = d.get(line);
                let want = model.get(&line).copied().unwrap_or_default();
                prop_assert_eq!((e.readers, e.writers), want);
            }
        }
    }
}
