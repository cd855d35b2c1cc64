//! SSCA2 (kernel only): scalable graph kernel building adjacency arrays.
//!
//! The transactional kernel of SSCA2 appends edges into per-node adjacency
//! arrays — tiny transactions (a couple of reads, one or two writes)
//! scattered across a large graph, so conflicts are rare and the workload
//! scales almost linearly. Its cost is dominated by transaction begin/end
//! overhead, which is why the paper's Figure 3e shows every policy scaling
//! and only modest differences between them (HLE trails once its elided
//! lock serializes).

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const ADJACENCY: u64 = 0;
const INDEX: u64 = 1;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 1200;

/// Builds the SSCA2 kernel model for `threads` threads.
pub fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "edge-append",
            weight: 8.0,
            regions: vec![RegionUse {
                region: ADJACENCY,
                lines: 65_536,
                theta: 0.05,
                reads: (1, 2),
                writes: (1, 2),
            }],
            private_reads: (2, 6),
            private_writes: (0, 1),
            spacing: (6, 14),
            think: (80, 200),
        },
        StampBlock {
            name: "index-bump",
            weight: 1.0,
            regions: vec![RegionUse {
                region: INDEX,
                lines: 4096,
                theta: 0.1,
                reads: (1, 2),
                writes: (1, 1),
            }],
            private_reads: (0, 2),
            private_writes: (0, 0),
            spacing: (4, 8),
            think: (60, 160),
        },
    ];
    StampModel::new("ssca2", blocks, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;
    use seer_sim::SimRng;

    #[test]
    fn transactions_are_tiny() {
        let mut m = model(1, 200);
        let mut rng = SimRng::new(4);
        while let Some(req) = m.next(0, &mut rng) {
            assert!(req.accesses.len() <= 12, "ssca2 txs must be tiny");
        }
    }

    #[test]
    fn address_space_is_large() {
        let m = model(1, 1);
        assert!(m.blocks()[0].regions[0].lines >= 65_536);
    }
}
