//! K-means: iterative clustering with transactional center updates.
//!
//! The single dominant atomic block adds a point's coordinates into its
//! nearest cluster center (a few cache lines of partial sums per center)
//! — short transactions whose conflict probability is governed by the
//! number of centers. STAMP's *high-contention* configuration uses few
//! clusters (hot centers, frequent collisions); *low contention* uses
//! several times more (Fig. 3c vs 3d: ≈3.4× vs ≈5× peak speedups). A
//! second, rarer block updates the global membership-delta counter.

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const CENTERS: u64 = 0;
const DELTA: u64 = 1;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 700;

/// Lines per cluster center (coordinate partial sums + count).
const LINES_PER_CENTER: u64 = 4;

fn kmeans(name: &str, clusters: u64, threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "center-update",
            weight: 12.0,
            regions: vec![RegionUse {
                region: CENTERS,
                lines: clusters * LINES_PER_CENTER,
                theta: 0.4,
                reads: (2, 5),
                writes: (3, 6),
            }],
            private_reads: (6, 16),
            private_writes: (0, 1),
            spacing: (5, 12),
            think: (120, 320),
        },
        StampBlock {
            name: "delta-accumulate",
            weight: 1.0,
            regions: vec![RegionUse {
                region: DELTA,
                lines: 2,
                theta: 0.0,
                reads: (1, 1),
                writes: (1, 1),
            }],
            private_reads: (1, 3),
            private_writes: (0, 0),
            spacing: (4, 8),
            think: (200, 500),
        },
    ];
    StampModel::new(name, blocks, threads, txs_per_thread)
}

/// High-contention configuration (15 clusters, as STAMP's `-m15 -n15`).
pub fn model_high(threads: usize, txs_per_thread: usize) -> StampModel {
    kmeans("kmeans-high", 15, threads, txs_per_thread)
}

/// Low-contention configuration (40 clusters, as STAMP's `-m40 -n40`).
pub fn model_low(threads: usize, txs_per_thread: usize) -> StampModel {
    kmeans("kmeans-low", 40, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;
    use seer_sim::SimRng;

    #[test]
    fn high_has_fewer_center_lines_than_low() {
        let hi = model_high(2, 10);
        let lo = model_low(2, 10);
        let hi_lines = hi.blocks()[0].regions[0].lines;
        let lo_lines = lo.blocks()[0].regions[0].lines;
        assert!(hi_lines < lo_lines);
        assert_eq!(hi_lines, 60);
        assert_eq!(lo_lines, 160);
    }

    #[test]
    fn transactions_are_short() {
        let mut m = model_high(1, 100);
        let mut rng = SimRng::new(3);
        while let Some(req) = m.next(0, &mut rng) {
            assert!(req.accesses.len() <= 30);
            assert!(req.is_well_formed());
        }
    }
}
