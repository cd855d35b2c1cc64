//! Configurable synthetic workloads for tests and overhead studies (e.g.
//! the low-contention hash-map of the paper's §5.3).
//!
//! A [`SyntheticSpec`] describes a program as a set of atomic blocks, each
//! with an access-count footprint, a write fraction, and a *hot region* —
//! a shared range of cache lines it touches with some probability. Blocks
//! that share a hot region conflict with each other; blocks with disjoint
//! regions do not. This gives tests precise control over the conflict
//! graph the schedulers must discover.

use std::sync::Arc;

use seer_htm::AccessKind;
use seer_sim::{Cycles, SimRng, ThreadId, ZipfTable};

use crate::workload::{Access, TxRequest, Workload};

/// Static description of one atomic block.
#[derive(Debug, Clone)]
pub struct BlockSpec {
    /// Relative frequency of this block in the transaction mix.
    pub weight: f64,
    /// Number of memory accesses per transaction body.
    pub accesses: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Identifier of the shared hot region this block touches (blocks with
    /// equal region ids contend with each other).
    pub hot_region: u64,
    /// Number of cache lines in the hot region.
    pub hot_lines: u64,
    /// Probability that an access targets the hot region (the rest go to
    /// thread-private lines).
    pub hot_probability: f64,
    /// Zipf exponent of hot-region accesses (0 = uniform).
    pub zipf_theta: f64,
    /// Uniform range of cycles between consecutive accesses.
    pub spacing: (Cycles, Cycles),
}

impl Default for BlockSpec {
    fn default() -> Self {
        Self {
            weight: 1.0,
            accesses: 20,
            write_fraction: 0.3,
            hot_region: 0,
            hot_lines: 64,
            hot_probability: 0.2,
            zipf_theta: 0.0,
            spacing: (8, 24),
        }
    }
}

/// Static description of a synthetic program.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Report name.
    pub name: String,
    /// The atomic blocks.
    pub blocks: Vec<BlockSpec>,
    /// Transactions each thread executes.
    pub txs_per_thread: usize,
    /// Uniform range of non-transactional cycles between transactions.
    pub think: (Cycles, Cycles),
}

impl SyntheticSpec {
    /// A single-block, low-contention read-mostly spec resembling the
    /// paper's 4k-element / 1k-bucket hash-map overhead probe.
    pub fn low_contention_hashmap(txs_per_thread: usize) -> Self {
        Self {
            name: "hashmap-low".to_string(),
            blocks: vec![BlockSpec {
                weight: 1.0,
                accesses: 12,
                write_fraction: 0.1,
                hot_region: 0,
                hot_lines: 1024,
                hot_probability: 0.9,
                zipf_theta: 0.0,
                spacing: (6, 14),
            }],
            txs_per_thread,
            think: (100, 300),
        }
    }
}

const REGION_STRIDE: u64 = 1 << 24;
const PRIVATE_BASE: u64 = 1 << 40;
const PRIVATE_STRIDE: u64 = 1 << 20;

/// Instantiated synthetic workload (holds per-thread issue state).
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: SyntheticSpec,
    weights_cdf: Vec<f64>,
    zipf: Vec<Arc<ZipfTable>>,
    issued: Vec<usize>,
    private_cursor: Vec<u64>,
}

impl SyntheticWorkload {
    /// Instantiates `spec` for `threads` simulated threads.
    ///
    /// # Panics
    /// If the spec has no blocks or non-positive total weight.
    pub fn new(spec: SyntheticSpec, threads: usize) -> Self {
        assert!(!spec.blocks.is_empty(), "spec needs at least one block");
        let total: f64 = spec.blocks.iter().map(|b| b.weight).sum();
        assert!(total > 0.0, "total block weight must be positive");
        let mut acc = 0.0;
        let weights_cdf = spec
            .blocks
            .iter()
            .map(|b| {
                acc += b.weight / total;
                acc
            })
            .collect();
        let zipf = spec
            .blocks
            .iter()
            .map(|b| ZipfTable::shared(b.hot_lines.max(1) as usize, b.zipf_theta))
            .collect();
        Self {
            spec,
            weights_cdf,
            zipf,
            issued: vec![0; threads],
            private_cursor: (0..threads as u64)
                .map(|t| PRIVATE_BASE + t * PRIVATE_STRIDE)
                .collect(),
        }
    }

    /// The instantiated spec.
    pub fn spec(&self) -> &SyntheticSpec {
        &self.spec
    }

    fn pick_block(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        self.weights_cdf
            .partition_point(|&c| c < u)
            .min(self.spec.blocks.len() - 1)
    }

    /// Draws a fresh trace for `req.block` into `req`, overwriting its
    /// accesses, duration and think time.
    fn fill_trace(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        let spec = &self.spec.blocks[req.block];
        req.accesses.clear();
        let mut offset: Cycles = 0;
        for _ in 0..spec.accesses {
            offset += rng.cycles_between(spec.spacing.0, spec.spacing.1);
            let line = if rng.chance(spec.hot_probability) {
                spec.hot_region * REGION_STRIDE + rng.zipf(&self.zipf[req.block]) as u64
            } else {
                let cursor = &mut self.private_cursor[thread];
                *cursor += 1;
                // Wrap within the thread's private window so the address
                // space stays bounded over long runs.
                PRIVATE_BASE + thread as u64 * PRIVATE_STRIDE + (*cursor % (PRIVATE_STRIDE / 2))
            };
            let kind = if rng.chance(spec.write_fraction) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            req.accesses.push(Access { line, kind, offset });
        }
        req.duration = offset + rng.cycles_between(spec.spacing.0, spec.spacing.1);
        req.think = rng.cycles_between(self.spec.think.0, self.spec.think.1);
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn num_blocks(&self) -> usize {
        self.spec.blocks.len()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let mut req = TxRequest::default();
        self.next_into(thread, rng, &mut req).then_some(req)
    }

    fn next_into(&mut self, thread: ThreadId, rng: &mut SimRng, req: &mut TxRequest) -> bool {
        if self.issued[thread] >= self.spec.txs_per_thread {
            return false;
        }
        self.issued[thread] += 1;
        req.block = self.pick_block(rng);
        req.accesses.clear();
        req.accesses
            .reserve(self.spec.blocks[req.block].accesses as usize);
        self.fill_trace(thread, req, rng);
        true
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        // Re-execution re-probes the data structures: rebuild the trace for
        // the same atomic block in place, preserving the original think
        // time (it was already consumed).
        let think = req.think;
        self.fill_trace(thread, req, rng);
        req.think = think;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run, DriverConfig};
    use crate::scheduler::NullScheduler;

    fn spec_two_conflicting_blocks() -> SyntheticSpec {
        SyntheticSpec {
            name: "pairwise".to_string(),
            blocks: vec![
                BlockSpec {
                    hot_region: 0,
                    hot_lines: 4,
                    hot_probability: 0.9,
                    write_fraction: 0.8,
                    ..BlockSpec::default()
                },
                BlockSpec {
                    hot_region: 0,
                    hot_lines: 4,
                    hot_probability: 0.9,
                    write_fraction: 0.8,
                    ..BlockSpec::default()
                },
                BlockSpec {
                    hot_region: 1,
                    hot_probability: 0.05,
                    write_fraction: 0.1,
                    ..BlockSpec::default()
                },
            ],
            txs_per_thread: 100,
            think: (50, 100),
        }
    }

    #[test]
    fn traces_are_well_formed() {
        let mut w = SyntheticWorkload::new(spec_two_conflicting_blocks(), 4);
        let mut rng = SimRng::new(1);
        for th in 0..4 {
            while let Some(req) = w.next(th, &mut rng) {
                assert!(req.is_well_formed());
                assert!(req.block < 3);
                assert_eq!(req.accesses.len(), 20);
            }
        }
    }

    #[test]
    fn per_thread_quota_respected() {
        let mut w = SyntheticWorkload::new(spec_two_conflicting_blocks(), 2);
        let mut rng = SimRng::new(2);
        let count = std::iter::from_fn(|| w.next(0, &mut rng)).count();
        assert_eq!(count, 100);
        assert!(w.next(0, &mut rng).is_none());
        // Thread 1 unaffected.
        assert!(w.next(1, &mut rng).is_some());
    }

    #[test]
    fn regenerate_keeps_block_and_think() {
        let mut w = SyntheticWorkload::new(spec_two_conflicting_blocks(), 1);
        let mut rng = SimRng::new(3);
        let mut req = w.next(0, &mut rng).unwrap();
        let block = req.block;
        let think = req.think;
        w.regenerate(0, &mut req, &mut rng);
        assert_eq!(req.block, block);
        assert_eq!(req.think, think);
        assert!(req.is_well_formed());
    }

    #[test]
    fn conflicting_blocks_conflict_disjoint_blocks_do_not() {
        let mut spec = spec_two_conflicting_blocks();
        spec.txs_per_thread = 150;
        let mut w = SyntheticWorkload::new(spec, 4);
        let mut s = NullScheduler::new(5);
        let mut cfg = DriverConfig::paper_machine(4, 7);
        cfg.costs.async_abort_per_cycle = 0.0;
        let m = run(&mut w, &mut s, &cfg);
        assert_eq!(m.commits, 600);
        // Blocks 0 and 1 share a tiny hot region: they must dominate the
        // ground-truth kill matrix; block 2 is nearly conflict-free.
        let hot: u64 = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .iter()
            .map(|&(v, k)| m.ground_truth.get(v, k))
            .sum();
        let cold: u64 = (0..3).map(|k| m.ground_truth.get(2, k)).sum();
        assert!(hot > 0, "hot blocks must conflict");
        // The cold block is still occasionally killed as collateral of a
        // fall-back (acquiring the SGL aborts every in-flight transaction),
        // so it is not zero — but data conflicts must dominate on the hot
        // pair.
        assert!(
            cold < hot,
            "cold block should be a victim less often: hot={hot} cold={cold}"
        );
    }

    #[test]
    fn low_contention_hashmap_rarely_aborts() {
        let mut w = SyntheticWorkload::new(SyntheticSpec::low_contention_hashmap(200), 4);
        let mut s = NullScheduler::new(5);
        let mut cfg = DriverConfig::paper_machine(4, 11);
        cfg.costs.async_abort_per_cycle = 0.0;
        let m = run(&mut w, &mut s, &cfg);
        assert_eq!(m.commits, 800);
        assert!(
            m.abort_ratio() < 0.05,
            "low-contention spec aborts too much: {}",
            m.abort_ratio()
        );
    }
}
