//! Generic STAMP workload model machinery.
//!
//! Each STAMP application is described as a [`StampModel`]: a set of atomic
//! blocks ([`StampBlock`]), each touching one or more shared *regions*
//! ([`RegionUse`], modelling a shared data structure: a hash table, a tree,
//! a work queue, cluster centers, …) plus thread-private filler accesses.
//! The parameters control exactly the properties a scheduler can observe —
//! which pairs of blocks conflict (region overlap and write rates),
//! transaction footprint (capacity pressure), transaction length and
//! inter-transaction think time — and are calibrated per benchmark in the
//! sibling modules to reproduce the contention regimes reported for STAMP
//! (Minh et al., IISWC'08) and the relative scheduler behaviour of the
//! Seer paper's Figure 3. See `DESIGN.md` §2 for the substitution argument.

use std::sync::Arc;

use seer_htm::AccessKind;
use seer_runtime::{Access, TxRequest, Workload};
use seer_sim::{Cycles, SimRng, ThreadId, ZipfTable};

/// Inclusive integer range used for per-transaction draws.
pub type Range = (u64, u64);

/// One shared data structure touched by an atomic block.
#[derive(Debug, Clone)]
pub struct RegionUse {
    /// Region identifier: blocks referencing the same id share lines and
    /// can conflict. Each id owns a disjoint slice of the address space.
    pub region: u64,
    /// Number of cache lines in the region.
    pub lines: u64,
    /// Zipf exponent of line selection (0 = uniform; higher = hot head).
    pub theta: f64,
    /// Reads into the region per transaction (inclusive range).
    pub reads: Range,
    /// Writes into the region per transaction (inclusive range).
    pub writes: Range,
}

/// One atomic block of a STAMP application.
#[derive(Debug, Clone)]
pub struct StampBlock {
    /// Human-readable name (e.g. `"dedup-insert"`).
    pub name: &'static str,
    /// Relative frequency in the transaction mix.
    pub weight: f64,
    /// Shared structures this block touches.
    pub regions: Vec<RegionUse>,
    /// Thread-private read accesses (buffer scans, locals spilt to memory).
    pub private_reads: Range,
    /// Thread-private write accesses.
    pub private_writes: Range,
    /// Uniform range of cycles between consecutive accesses.
    pub spacing: Range,
    /// Uniform range of non-transactional cycles before the transaction.
    pub think: Range,
}

impl Default for StampBlock {
    fn default() -> Self {
        Self {
            name: "block",
            weight: 1.0,
            regions: Vec::new(),
            private_reads: (4, 10),
            private_writes: (0, 2),
            spacing: (6, 16),
            think: (100, 300),
        }
    }
}

impl StampBlock {
    /// Longest trace this block can produce: every range at its maximum.
    fn max_accesses(&self) -> usize {
        let shared = self.regions.iter().fold(0u64, |n, r| {
            n.saturating_add(r.reads.1).saturating_add(r.writes.1)
        });
        let total = shared
            .saturating_add(self.private_reads.1)
            .saturating_add(self.private_writes.1);
        usize::try_from(total).unwrap_or(usize::MAX)
    }
}

/// A complete STAMP application model.
///
/// Transactions are generated without per-access allocation: `next`
/// allocates one access vector sized for its block's longest trace, and
/// `regenerate` rewrites that vector in place through the model-owned
/// `picks` scratch.
#[derive(Debug, Clone)]
pub struct StampModel {
    name: String,
    blocks: Vec<StampBlock>,
    weights_cdf: Vec<f64>,
    zipf: Vec<Vec<Arc<ZipfTable>>>,
    picks: Vec<(u64, AccessKind)>,
    /// The longest trace any block can draw.
    longest: usize,
    remaining: Vec<usize>,
    private_cursor: Vec<u64>,
}

/// Address-space stride between shared regions (each region id owns one
/// `REGION_STRIDE`-line slice; exported for the granularity-refinement
/// adapter in [`crate::refined`]).
pub const REGION_STRIDE: u64 = 1 << 24;
/// First cache line of the thread-private address space.
pub const PRIVATE_BASE: u64 = 1 << 44;
const PRIVATE_STRIDE: u64 = 1 << 22;
const PRIVATE_WINDOW: u64 = 1 << 16;

impl StampModel {
    /// Builds a model named `name` over `blocks`, giving each of `threads`
    /// threads `txs_per_thread` transactions to execute.
    ///
    /// # Panics
    /// If `blocks` is empty or total weight is non-positive.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<StampBlock>,
        threads: usize,
        txs_per_thread: usize,
    ) -> Self {
        assert!(!blocks.is_empty(), "a model needs at least one block");
        let total: f64 = blocks.iter().map(|b| b.weight).sum();
        assert!(total > 0.0, "total weight must be positive");
        let mut acc = 0.0;
        let weights_cdf = blocks
            .iter()
            .map(|b| {
                acc += b.weight / total;
                acc
            })
            .collect();
        let zipf = blocks
            .iter()
            .map(|b| {
                b.regions
                    .iter()
                    .map(|r| ZipfTable::shared(r.lines.max(1) as usize, r.theta))
                    .collect()
            })
            .collect();
        let longest = blocks.iter().map(StampBlock::max_accesses).max().unwrap_or(0);
        let picks = Vec::with_capacity(longest);
        Self {
            name: name.into(),
            blocks,
            weights_cdf,
            zipf,
            picks,
            longest,
            remaining: vec![txs_per_thread; threads],
            private_cursor: (0..threads as u64).map(|t| t * PRIVATE_STRIDE).collect(),
        }
    }

    /// The blocks of this model.
    pub fn blocks(&self) -> &[StampBlock] {
        &self.blocks
    }

    /// Name of block `id`.
    pub fn block_name(&self, id: usize) -> &'static str {
        self.blocks[id].name
    }

    fn pick_block(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        self.weights_cdf
            .partition_point(|&c| c < u)
            .min(self.blocks.len() - 1)
    }

    fn draw(rng: &mut SimRng, range: Range) -> u64 {
        rng.range_inclusive(range.0, range.1)
    }

    /// Draws a fresh trace for `req.block` into `req`, overwriting its
    /// accesses, duration and think time.
    fn fill_trace(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        let spec = &self.blocks[req.block];
        // Collect the line/kind pairs first, then lay them out in time.
        let picks = &mut self.picks;
        picks.clear();
        for (r, zipf) in spec.regions.iter().zip(&self.zipf[req.block]) {
            let base = r.region * REGION_STRIDE;
            let n_reads = Self::draw(rng, r.reads);
            let n_writes = Self::draw(rng, r.writes);
            for _ in 0..n_reads {
                picks.push((base + rng.zipf(zipf) as u64, AccessKind::Read));
            }
            for _ in 0..n_writes {
                picks.push((base + rng.zipf(zipf) as u64, AccessKind::Write));
            }
        }
        let pr = Self::draw(rng, spec.private_reads);
        let pw = Self::draw(rng, spec.private_writes);
        let cursor = &mut self.private_cursor[thread];
        for i in 0..(pr + pw) {
            *cursor += 1;
            let line = PRIVATE_BASE + thread as u64 * PRIVATE_STRIDE + (*cursor % PRIVATE_WINDOW);
            let kind = if i < pr { AccessKind::Read } else { AccessKind::Write };
            picks.push((line, kind));
        }
        // Deterministic Fisher–Yates shuffle so reads/writes and regions
        // interleave in time the way real code interleaves structures.
        for i in (1..picks.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            picks.swap(i, j);
        }
        req.accesses.clear();
        let mut offset: Cycles = 0;
        for &(line, kind) in picks.iter() {
            offset += Self::draw(rng, spec.spacing);
            req.accesses.push(Access { line, kind, offset });
        }
        req.duration = offset + Self::draw(rng, spec.spacing);
        req.think = Self::draw(rng, spec.think);
    }
}

impl Workload for StampModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let mut req = TxRequest::default();
        self.next_into(thread, rng, &mut req).then_some(req)
    }

    fn next_into(&mut self, thread: ThreadId, rng: &mut SimRng, req: &mut TxRequest) -> bool {
        if self.remaining[thread] == 0 {
            return false;
        }
        self.remaining[thread] -= 1;
        req.block = self.pick_block(rng);
        // Sized once for the longest trace, a reused request never grows.
        req.accesses.clear();
        req.accesses.reserve(self.longest);
        self.fill_trace(thread, req, rng);
        true
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        // The think time was already spent: keep it, though the fresh
        // draw still happens so the RNG stream matches a full rebuild.
        let think = req.think;
        self.fill_trace(thread, req, rng);
        req.think = think;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_model(threads: usize, txs: usize) -> StampModel {
        StampModel::new(
            "test",
            vec![
                StampBlock {
                    name: "a",
                    weight: 3.0,
                    regions: vec![RegionUse {
                        region: 0,
                        lines: 128,
                        theta: 0.5,
                        reads: (5, 10),
                        writes: (1, 3),
                    }],
                    ..StampBlock::default()
                },
                StampBlock {
                    name: "b",
                    weight: 1.0,
                    regions: vec![RegionUse {
                        region: 1,
                        lines: 64,
                        theta: 0.0,
                        reads: (2, 4),
                        writes: (0, 1),
                    }],
                    ..StampBlock::default()
                },
            ],
            threads,
            txs,
        )
    }

    #[test]
    fn traces_well_formed_and_quota_respected() {
        let mut m = simple_model(2, 50);
        let mut rng = SimRng::new(1);
        let mut count = 0;
        while let Some(req) = m.next(0, &mut rng) {
            assert!(req.is_well_formed());
            assert!(req.block < 2);
            count += 1;
        }
        assert_eq!(count, 50);
        assert!(m.next(0, &mut rng).is_none());
        assert!(m.next(1, &mut rng).is_some());
    }

    #[test]
    fn block_mix_follows_weights() {
        let mut m = simple_model(1, 4000);
        let mut rng = SimRng::new(2);
        let mut counts = [0usize; 2];
        while let Some(req) = m.next(0, &mut rng) {
            counts[req.block] += 1;
        }
        // Weight 3:1 → roughly 3000/1000.
        assert!((2_700..3_300).contains(&counts[0]), "counts {counts:?}");
    }

    #[test]
    fn regions_are_disjoint_between_ids() {
        let mut m = simple_model(1, 200);
        let mut rng = SimRng::new(3);
        let mut region0_lines = std::collections::HashSet::new();
        let mut region1_lines = std::collections::HashSet::new();
        while let Some(req) = m.next(0, &mut rng) {
            for a in &req.accesses {
                if a.line < PRIVATE_BASE {
                    if req.block == 0 {
                        region0_lines.insert(a.line);
                    } else {
                        region1_lines.insert(a.line);
                    }
                }
            }
        }
        assert!(region0_lines.is_disjoint(&region1_lines));
    }

    #[test]
    fn regenerate_preserves_block_and_think() {
        let mut m = simple_model(1, 10);
        let mut rng = SimRng::new(4);
        let mut req = m.next(0, &mut rng).unwrap();
        let (block, think) = (req.block, req.think);
        m.regenerate(0, &mut req, &mut rng);
        assert_eq!(req.block, block);
        assert_eq!(req.think, think);
        assert!(req.is_well_formed());
    }

    #[test]
    fn private_lines_differ_between_threads() {
        let mut m = simple_model(2, 5);
        let mut rng = SimRng::new(5);
        let collect = |m: &mut StampModel, th: usize, rng: &mut SimRng| {
            let mut lines = std::collections::HashSet::new();
            while let Some(req) = m.next(th, rng) {
                for a in &req.accesses {
                    if a.line >= PRIVATE_BASE {
                        lines.insert(a.line);
                    }
                }
            }
            lines
        };
        let l0 = collect(&mut m, 0, &mut rng);
        let l1 = collect(&mut m, 1, &mut rng);
        assert!(l0.is_disjoint(&l1));
    }
}
