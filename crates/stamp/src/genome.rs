//! Genome: gene sequencing by segment deduplication and overlap matching.
//!
//! STAMP's genome has three transactional phases; the dominant atomic
//! blocks are (1) inserting segments into a shared hash set (duplicates
//! collide on buckets), (2) scanning the unique-segment pool, and (3)
//! linking overlapping segments in the string graph. Transactions are
//! moderate-length with meaningful read sets and a few writes; contention
//! concentrates inside each structure, giving a *sparse, per-structure*
//! conflict graph — exactly the shape where Seer's per-block locks beat a
//! single auxiliary lock (the paper reports 2–2.5× gains here, Fig. 3a).

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const HASH: u64 = 0;
const POOL: u64 = 1;
const GRAPH: u64 = 2;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 400;

/// Builds the genome model for `threads` threads.
pub fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "dedup-insert",
            weight: 4.0,
            regions: vec![RegionUse {
                region: HASH,
                lines: 512,
                theta: 0.6,
                reads: (10, 24),
                writes: (2, 4),
            }],
            private_reads: (6, 14),
            private_writes: (0, 2),
            spacing: (6, 16),
            think: (60, 180),
        },
        StampBlock {
            name: "pool-scan",
            weight: 2.0,
            regions: vec![RegionUse {
                region: POOL,
                lines: 2048,
                theta: 0.2,
                reads: (15, 40),
                writes: (0, 1),
            }],
            private_reads: (4, 10),
            private_writes: (0, 1),
            spacing: (5, 12),
            think: (60, 160),
        },
        StampBlock {
            name: "graph-link",
            weight: 2.0,
            regions: vec![RegionUse {
                region: GRAPH,
                lines: 256,
                theta: 0.6,
                reads: (15, 40),
                writes: (2, 6),
            }],
            private_reads: (6, 12),
            private_writes: (1, 3),
            spacing: (6, 16),
            think: (80, 200),
        },
        StampBlock {
            name: "sequencer-add",
            weight: 1.0,
            regions: vec![RegionUse {
                region: POOL,
                lines: 2048,
                theta: 0.2,
                reads: (4, 10),
                writes: (1, 2),
            }],
            ..StampBlock::default()
        },
        StampBlock {
            name: "overlap-update",
            weight: 1.0,
            regions: vec![RegionUse {
                region: GRAPH,
                lines: 192,
                theta: 0.7,
                reads: (3, 8),
                writes: (1, 2),
            }],
            ..StampBlock::default()
        },
    ];
    StampModel::new("genome", blocks, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;
    use seer_sim::SimRng;

    #[test]
    fn five_blocks_as_in_the_application() {
        let m = model(4, 10);
        assert_eq!(m.num_blocks(), 5);
        assert_eq!(m.block_name(0), "dedup-insert");
    }

    #[test]
    fn produces_valid_traces() {
        let mut m = model(2, 30);
        let mut rng = SimRng::new(1);
        while let Some(req) = m.next(0, &mut rng) {
            assert!(req.is_well_formed());
            assert!(!req.accesses.is_empty());
        }
    }
}
