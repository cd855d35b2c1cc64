//! Structure-granular block refinement — the paper's second future-work
//! direction (§6): "adopting even more fine-grained locking schemes, which
//! associate locks depending on both the atomic block and the identifier
//! of the data structure being manipulated in that atomic block".
//!
//! [`RefinedModel`] wraps any [`Workload`] and rewrites each transaction's
//! block id to a *(block, structure)* pair, where the structure is the
//! dominant shared region in the transaction's own access trace (derived
//! from the address layout — no extra instrumentation, mirroring how a
//! compiler could pass a data-structure handle into the TM library call).
//! Seer itself needs no changes: it simply sees `blocks × structures`
//! atomic blocks and infers a finer conflict relation — e.g. vacation's
//! `update-tables` touching *cars* stops serializing with
//! `make-reservation` instances that only touched *rooms*.
//!
//! The trade-offs the paper anticipates are measurable here: more blocks
//! means a bigger lock table and slower convergence (statistics spread
//! over more cells), in exchange for less false serialization. `seer
//! experiment fine-grained` quantifies both sides.

use seer_runtime::model::{PRIVATE_BASE, REGION_STRIDE};
use seer_runtime::{BlockId, TxRequest, Workload};
use seer_sim::{SimRng, ThreadId};

/// A workload adapter that refines block ids by dominant structure.
#[derive(Debug, Clone)]
pub struct RefinedModel<W> {
    inner: W,
    structures: usize,
    name: String,
    /// Per-region access counts of the trace being refined (scratch).
    counts: Vec<(u64, usize)>,
    /// The committed request under its base block id (scratch).
    base: TxRequest,
}

impl<W: Workload> RefinedModel<W> {
    /// Wraps `inner`, splitting each of its blocks into up to `structures`
    /// refined blocks (structure ids beyond the cap fold modulo the cap).
    ///
    /// # Panics
    /// If `structures` is zero.
    pub fn new(inner: W, structures: usize) -> Self {
        assert!(structures > 0, "need at least one structure bucket");
        let name = format!("{}+refined", inner.name());
        Self {
            inner,
            structures,
            name,
            counts: Vec::new(),
            base: TxRequest::default(),
        }
    }

    /// Number of structure buckets per base block.
    pub fn structures(&self) -> usize {
        self.structures
    }

    /// The base (unrefined) block id of a refined id.
    pub fn base_block(&self, refined: BlockId) -> BlockId {
        refined / self.structures
    }

    /// The structure bucket of a refined id.
    pub fn structure_of(&self, refined: BlockId) -> usize {
        refined % self.structures
    }

    /// Dominant shared region of a trace (most-accessed region id), or 0
    /// for traces that touch no shared region.
    fn dominant_structure(&mut self, req: &TxRequest) -> usize {
        let counts = &mut self.counts;
        counts.clear();
        for a in &req.accesses {
            if a.line >= PRIVATE_BASE {
                continue;
            }
            let region = a.line / REGION_STRIDE;
            match counts.iter_mut().find(|(r, _)| *r == region) {
                Some((_, n)) => *n += 1,
                None => counts.push((region, 1)),
            }
        }
        counts
            .iter()
            .max_by_key(|&&(_, n)| n)
            .map(|&(r, _)| (r as usize) % self.structures)
            .unwrap_or(0)
    }

    fn refine(&mut self, req: &mut TxRequest) {
        let structure = self.dominant_structure(req);
        req.block = req.block * self.structures + structure;
    }
}

impl<W: Workload> Workload for RefinedModel<W> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks() * self.structures
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let mut req = TxRequest::default();
        self.next_into(thread, rng, &mut req).then_some(req)
    }

    fn next_into(&mut self, thread: ThreadId, rng: &mut SimRng, req: &mut TxRequest) -> bool {
        if !self.inner.next_into(thread, rng, req) {
            return false;
        }
        debug_assert!(req.block < self.inner.num_blocks());
        self.refine(req);
        true
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        // The inner workload expects its own block ids; the refined id is
        // kept stable across retries (the statistics must accumulate on
        // one identity even if a re-probed trace shifts its footprint).
        let refined = req.block;
        req.block = self.base_block(refined);
        self.inner.regenerate(thread, req, rng);
        req.block = refined;
    }

    fn commit(&mut self, thread: ThreadId, req: &TxRequest, rng: &mut SimRng) {
        // Field by field: a derived `clone_from` would reallocate, while
        // `Vec::clone_from` reuses the scratch's access buffer.
        let base = &mut self.base;
        base.block = req.block / self.structures;
        base.accesses.clone_from(&req.accesses);
        base.duration = req.duration;
        base.think = req.think;
        self.inner.commit(thread, base, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn block_count_multiplies() {
        let m = RefinedModel::new(Benchmark::VacationHigh.instantiate(2, 10), 4);
        assert_eq!(m.num_blocks(), 12);
        assert_eq!(m.structures(), 4);
        assert_eq!(m.base_block(7), 1);
        assert_eq!(m.structure_of(7), 3);
    }

    #[test]
    fn refined_ids_stay_in_range_and_split_by_structure() {
        let mut m = RefinedModel::new(Benchmark::VacationHigh.instantiate(1, 300), 4);
        let mut rng = SimRng::new(1);
        let mut seen = std::collections::HashSet::new();
        while let Some(req) = m.next(0, &mut rng) {
            assert!(req.block < m.num_blocks());
            seen.insert(req.block);
        }
        // make-reservation (base 0) touches four tables; its instances
        // must spread over more than one refined id.
        let reservation_ids: Vec<_> = seen.iter().filter(|&&b| b / 4 == 0).collect();
        assert!(
            reservation_ids.len() > 1,
            "refinement did not split make-reservation: {seen:?}"
        );
    }

    #[test]
    fn regenerate_preserves_refined_id() {
        let mut m = RefinedModel::new(Benchmark::Genome.instantiate(1, 10), 3);
        let mut rng = SimRng::new(2);
        let mut req = m.next(0, &mut rng).unwrap();
        let refined = req.block;
        m.regenerate(0, &mut req, &mut rng);
        assert_eq!(req.block, refined);
        assert!(req.is_well_formed());
    }

    #[test]
    fn private_only_traces_fold_to_structure_zero() {
        // A fabricated request with only private lines refines to bucket 0.
        let mut m = RefinedModel::new(Benchmark::Genome.instantiate(1, 1), 5);
        let req = TxRequest {
            block: 0,
            accesses: vec![seer_runtime::Access {
                line: PRIVATE_BASE + 10,
                kind: seer_htm::AccessKind::Read,
                offset: 0,
            }],
            duration: 5,
            think: 0,
        };
        assert_eq!(m.dominant_structure(&req), 0);
    }

    #[test]
    #[should_panic(expected = "at least one structure")]
    fn zero_structures_rejected() {
        RefinedModel::new(Benchmark::Genome.instantiate(1, 1), 0);
    }
}
