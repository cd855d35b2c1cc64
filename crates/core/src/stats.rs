//! Commit/abort statistics matrices (paper Table 2, Fig. 2 steps 3–5).
//!
//! Every hardware commit and abort scans `activeTxs` (Alg. 3) into a pair
//! of `blocks × blocks` frequency matrices plus an `executions` array;
//! entry `[x][y]` counts events of block `x` during which block `y` was
//! observed running concurrently. These are the matrices the
//! probabilistic inference (Alg. 5) reads.
//!
//! The paper gives each thread private single-writer matrices and sums
//! them into a global view before each inference round, because real
//! threads register concurrently and must not contend on shared counters.
//! The simulator runs every simulated thread on one host thread, so there
//! is nothing to synchronize: registrations write one matrix set — the
//! summed view the paper's inference reads — and decay halves that set in
//! place (DESIGN.md §5 item 8).

use seer_runtime::BlockId;

/// The statistics matrices (`commitStats`, `abortStats`, `executions`)
/// summed over all threads.
///
/// The counters are private: they change only through the registration
/// paths ([`MergedStats::add_commit`], [`MergedStats::add_abort`]) and
/// [`MergedStats::decay`], so every instance is realizable by some event
/// stream. Readers use [`MergedStats::c`], [`MergedStats::a`],
/// [`MergedStats::e`], the row slices and [`MergedStats::digest`].
#[derive(Debug, Clone)]
pub struct MergedStats {
    blocks: usize,
    commit: Vec<u64>,
    abort: Vec<u64>,
    executions: Vec<u64>,
}

impl MergedStats {
    /// Zeroed matrices over `blocks` atomic blocks.
    pub fn new(blocks: usize) -> Self {
        Self {
            blocks,
            commit: vec![0; blocks * blocks],
            abort: vec![0; blocks * blocks],
            executions: vec![0; blocks],
        }
    }

    /// REGISTER-COMMIT: block `x` committed while `concurrent` blocks were
    /// announced by other threads.
    pub fn add_commit(&mut self, x: BlockId, concurrent: impl Iterator<Item = BlockId>) {
        self.executions[x] += 1;
        for y in concurrent {
            self.commit[x * self.blocks + y] += 1;
        }
    }

    /// REGISTER-ABORT: block `x` aborted while `concurrent` blocks were
    /// announced by other threads.
    pub fn add_abort(&mut self, x: BlockId, concurrent: impl Iterator<Item = BlockId>) {
        self.executions[x] += 1;
        for y in concurrent {
            self.abort[x * self.blocks + y] += 1;
        }
    }

    /// Halves every counter (integer division). Applied periodically, this
    /// turns the matrices into exponentially-decayed frequency estimates,
    /// so conflict relations that stopped occurring fade out — the
    /// adaptivity the paper's self-tuning discussion targets for
    /// "time varying workloads".
    pub fn decay(&mut self) {
        for v in self
            .commit
            .iter_mut()
            .chain(self.abort.iter_mut())
            .chain(self.executions.iter_mut())
        {
            *v /= 2;
        }
    }

    /// Number of atomic blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// `commitStats[x][y]` — abbreviated `c_x,y` in the paper.
    pub fn c(&self, x: BlockId, y: BlockId) -> u64 {
        self.commit[x * self.blocks + y]
    }

    /// `abortStats[x][y]` — abbreviated `a_x,y` in the paper.
    pub fn a(&self, x: BlockId, y: BlockId) -> u64 {
        self.abort[x * self.blocks + y]
    }

    /// `executions[x]` — abbreviated `e_x` in the paper.
    pub fn e(&self, x: BlockId) -> u64 {
        self.executions[x]
    }

    /// Row `x` of the commit matrix as a slice (`c_x,0 .. c_x,n-1`).
    pub fn commit_row(&self, x: BlockId) -> &[u64] {
        &self.commit[x * self.blocks..(x + 1) * self.blocks]
    }

    /// Row `x` of the abort matrix as a slice (`a_x,0 .. a_x,n-1`).
    pub fn abort_row(&self, x: BlockId) -> &[u64] {
        &self.abort[x * self.blocks..(x + 1) * self.blocks]
    }

    /// Total executions over all blocks (the "enough samples" signal for
    /// the self-tuning mechanism).
    pub fn total_executions(&self) -> u64 {
        self.executions.iter().sum()
    }

    /// FNV-1a digest over all three matrices — the snapshot fingerprint an
    /// inference round stores in its trace record, so an exported decision
    /// log can tell whether two rounds read the same statistics.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.blocks as u64);
        self.commit.iter().for_each(|&v| mix(v));
        self.abort.iter().for_each(|&v| mix(v));
        self.executions.iter().for_each(|&v| mix(v));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_paths_update_matrices() {
        let mut s = MergedStats::new(3);
        s.add_abort(0, [1, 2].into_iter());
        s.add_abort(0, [1].into_iter());
        s.add_commit(0, [1].into_iter());
        s.add_commit(2, [].into_iter());
        assert_eq!(s.a(0, 1), 2);
        assert_eq!(s.a(0, 2), 1);
        assert_eq!(s.c(0, 1), 1);
        assert_eq!(s.e(0), 3);
        assert_eq!(s.e(2), 1);
        assert_eq!(s.e(1), 0);
        assert_eq!(s.total_executions(), 4);
    }

    #[test]
    fn decay_halves_every_counter() {
        // Odd and even counts in all three matrices: a(0,1)=7, a(0,2)=2,
        // c(1,0)=5, c(1,2)=4, e(0)=7, e(1)=9, e(2)=1.
        let mut s = MergedStats::new(3);
        for i in 0..7 {
            if i < 2 {
                s.add_abort(0, [1, 2].into_iter());
            } else {
                s.add_abort(0, [1].into_iter());
            }
        }
        for i in 0..9 {
            let partners: &[BlockId] = match i {
                0..=3 => &[0, 2],
                4 => &[0],
                _ => &[],
            };
            s.add_commit(1, partners.iter().copied());
        }
        s.add_commit(2, [].into_iter());
        let before = s.clone();
        s.decay();
        for x in 0..3 {
            assert_eq!(s.e(x), before.e(x) / 2, "e({x})");
            for y in 0..3 {
                assert_eq!(s.a(x, y), before.a(x, y) / 2, "a({x},{y})");
                assert_eq!(s.c(x, y), before.c(x, y) / 2, "c({x},{y})");
            }
        }

        // The same matrix, registered directly with the halved counts:
        // a(0,1)=3, a(0,2)=1, c(1,0)=2, c(1,2)=2, e(0)=3, e(1)=4, e(2)=0.
        let mut halved = MergedStats::new(3);
        halved.add_abort(0, [1, 2].into_iter());
        halved.add_abort(0, [1].into_iter());
        halved.add_abort(0, [1].into_iter());
        halved.add_commit(1, [0, 2].into_iter());
        halved.add_commit(1, [0, 2].into_iter());
        halved.add_commit(1, [].into_iter());
        halved.add_commit(1, [].into_iter());
        assert_eq!(s.digest(), halved.digest());

        // Repeated decay fades every counter to zero.
        for _ in 0..4 {
            s.decay();
        }
        assert_eq!(s.digest(), MergedStats::new(3).digest());
    }

    #[test]
    fn row_slices_match_indexed_accessors() {
        let mut m = MergedStats::new(3);
        m.add_abort(1, [0, 2].into_iter());
        m.add_commit(1, [2].into_iter());
        for x in 0..3 {
            for y in 0..3 {
                assert_eq!(m.commit_row(x)[y], m.c(x, y));
                assert_eq!(m.abort_row(x)[y], m.a(x, y));
            }
        }
    }
}
