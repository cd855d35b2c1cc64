//! Yada: Delaunay mesh refinement.
//!
//! Refinement transactions grow a *cavity* around a bad triangle — reading
//! hundreds of mesh elements and rewriting tens of them — plus work-queue
//! operations to fetch the next bad element. The footprints are large
//! enough to stress the HTM's write-set geometry (especially when two
//! hyper-threads share an L1), cavities overlap often, and transactions
//! are long; the paper's Figure 3h shows *every* policy below sequential
//! speed (0.2–1.0), with Seer degrading the least. This is the benchmark
//! that exercises Seer's core locks hardest.

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const MESH: u64 = 0;
const WORK_QUEUE: u64 = 1;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 120;

/// Builds the yada model for `threads` threads.
pub fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "refine-cavity",
            weight: 6.0,
            regions: vec![RegionUse {
                region: MESH,
                lines: 131_072,
                theta: 0.1,
                reads: (80, 200),
                writes: (100, 210),
            }],
            private_reads: (20, 50),
            private_writes: (10, 25),
            spacing: (4, 9),
            think: (60, 160),
        },
        StampBlock {
            name: "queue-fetch",
            weight: 3.0,
            regions: vec![RegionUse {
                region: WORK_QUEUE,
                lines: 12,
                theta: 0.6,
                reads: (1, 3),
                writes: (1, 2),
            }],
            private_reads: (2, 5),
            private_writes: (0, 1),
            spacing: (4, 9),
            think: (40, 100),
        },
        StampBlock {
            name: "queue-push",
            weight: 2.0,
            regions: vec![RegionUse {
                region: WORK_QUEUE,
                lines: 12,
                theta: 0.6,
                reads: (1, 2),
                writes: (1, 2),
            }],
            private_reads: (1, 4),
            private_writes: (0, 1),
            spacing: (4, 9),
            think: (40, 100),
        },
        StampBlock {
            name: "boundary-fix",
            weight: 1.0,
            regions: vec![RegionUse {
                region: MESH,
                lines: 131_072,
                theta: 0.1,
                reads: (30, 80),
                writes: (10, 25),
            }],
            private_reads: (8, 18),
            private_writes: (2, 6),
            spacing: (4, 9),
            think: (60, 160),
        },
    ];
    StampModel::new("yada", blocks, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;
    use seer_sim::SimRng;

    #[test]
    fn cavity_transactions_are_large() {
        let mut m = model(1, 60);
        let mut rng = SimRng::new(6);
        let mut max_writes = 0usize;
        while let Some(req) = m.next(0, &mut rng) {
            if req.block == 0 {
                let writes = req
                    .accesses
                    .iter()
                    .filter(|a| matches!(a.kind, seer_htm::AccessKind::Write))
                    .count();
                max_writes = max_writes.max(writes);
            }
        }
        // Large enough to overflow a 4-way-shared write geometry sometimes.
        assert!(max_writes > 50, "cavity writes too small: {max_writes}");
    }

    #[test]
    fn four_block_structure() {
        let m = model(2, 10);
        assert_eq!(m.num_blocks(), 4);
        assert_eq!(m.block_name(0), "refine-cavity");
    }
}
