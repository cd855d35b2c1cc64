//! Synthetic many-blocks scaling workload (`synth@blocks=N`).
//!
//! The STAMP models top out at a handful of atomic blocks, so the
//! `O(blocks²)` inference round never shows up in their profiles. This
//! workload exists to open that axis: `N` atomic blocks arranged in
//! conflict *clusters* of eight — blocks within a cluster share one
//! region (and genuinely conflict), blocks in different clusters are
//! disjoint. The conflict relation is therefore block-sparse no matter
//! how large `N` grows, while each inference round still evaluates all
//! `N²` pairs.
//!
//! Not part of the paper's evaluation (the paper stops at STAMP); this is
//! a scaling probe in the spirit of its §5.3 overhead analysis.

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 300;

/// Default atomic-block count when `synth` is named without `@blocks=N`.
pub const DEFAULT_BLOCKS: u16 = 128;

/// Blocks per conflict cluster (blocks sharing one region).
const CLUSTER: u16 = 8;

/// Cycled static display names (block identity is the index; the name is
/// a trace label, and `StampBlock::name` is `&'static str`).
const NAMES: [&str; 8] = [
    "synth-a", "synth-b", "synth-c", "synth-d", "synth-e", "synth-f", "synth-g", "synth-h",
];

/// Builds the `blocks`-block synthetic model for `threads` threads.
///
/// # Panics
/// If `blocks == 0`.
pub fn model(blocks: u16, threads: usize, txs_per_thread: usize) -> StampModel {
    assert!(blocks > 0, "synth needs at least one block");
    let specs = (0..blocks)
        .map(|i| {
            let cluster = u64::from(i / CLUSTER);
            // Odd blocks write more: within a cluster this yields the
            // asymmetric abort profiles the Th2 percentile filter feeds on.
            let writes = if i % 2 == 0 { (1, 2) } else { (2, 4) };
            StampBlock {
                name: NAMES[usize::from(i % CLUSTER)],
                weight: 1.0,
                regions: vec![RegionUse {
                    region: cluster,
                    lines: 96,
                    theta: 0.6,
                    reads: (2, 5),
                    writes,
                }],
                private_reads: (2, 6),
                private_writes: (0, 2),
                spacing: (5, 12),
                think: (60, 160),
            }
        })
        .collect();
    StampModel::new(
        format!("synth@blocks={blocks}"),
        specs,
        threads,
        txs_per_thread,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::{run, DriverConfig, NullScheduler, Workload};
    use seer_sim::SimRng;

    #[test]
    fn block_count_is_configurable() {
        for n in [1u16, 7, 128, 256] {
            let m = model(n, 2, 10);
            assert_eq!(m.num_blocks(), usize::from(n));
        }
        assert_eq!(model(200, 2, 10).name(), "synth@blocks=200");
    }

    #[test]
    fn clusters_conflict_internally_but_not_across() {
        // Shared lines of blocks 0..8 (cluster 0) and 8..16 (cluster 1)
        // must overlap within a cluster and be disjoint across.
        let mut m = model(16, 1, 400);
        let mut rng = SimRng::new(9);
        let mut lines: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 2];
        while let Some(req) = m.next(0, &mut rng) {
            let cluster = req.block / usize::from(CLUSTER);
            for a in &req.accesses {
                if a.line < seer_runtime::model::PRIVATE_BASE {
                    lines[cluster].insert(a.line);
                }
            }
        }
        assert!(!lines[0].is_empty() && !lines[1].is_empty());
        assert!(
            lines[0].is_disjoint(&lines[1]),
            "clusters must not conflict"
        );
    }

    #[test]
    fn runs_and_contends_under_null_scheduling() {
        let mut m = model(32, 4, 60);
        let mut s = NullScheduler::new(5);
        let metrics = run(&mut m, &mut s, &DriverConfig::paper_machine(4, 1));
        assert_eq!(metrics.commits, 240);
        assert!(
            metrics.aborts.total() > 0,
            "clustered writes should conflict"
        );
    }
}
