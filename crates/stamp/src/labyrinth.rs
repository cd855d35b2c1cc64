//! Labyrinth: Lee-routing on a 3-D grid — the benchmark the paper
//! *excludes* "as most of its transactions exceed TSX capacity" (§5).
//!
//! The model is included here to *validate that exclusion* on the
//! simulated machine rather than to appear in any figure: a routing
//! transaction copies a whole grid neighbourhood into its read set and
//! writes the full path back, far past the L1-bounded write geometry, so
//! nearly every hardware attempt dies with a capacity abort and nearly
//! every transaction ends on the single-global lock — under *any*
//! scheduler, Seer included (no scheduling decision can shrink a
//! footprint). The `excluded_benchmark_capacity_bound` test pins this.

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const GRID: u64 = 0;
const WORK_LIST: u64 = 1;

/// Default transactions per thread at scale 1 (kept small: each one is
/// enormous).
pub const DEFAULT_TXS: usize = 40;

/// Builds the labyrinth model for `threads` threads.
pub fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "route-path",
            weight: 8.0,
            regions: vec![RegionUse {
                region: GRID,
                lines: 1_048_576,
                theta: 0.0,
                // Expansion reads a large neighbourhood; the traceback
                // writes the chosen path. The write set alone (≥600 lines)
                // overflows the 512-line write geometry even without SMT
                // sharing.
                reads: (800, 1600),
                writes: (600, 1100),
            }],
            private_reads: (40, 90),
            private_writes: (10, 30),
            spacing: (3, 7),
            think: (100, 240),
        },
        StampBlock {
            name: "grab-work",
            weight: 2.0,
            regions: vec![RegionUse {
                region: WORK_LIST,
                lines: 8,
                theta: 0.5,
                reads: (1, 2),
                writes: (1, 2),
            }],
            private_reads: (1, 4),
            private_writes: (0, 1),
            spacing: (4, 9),
            think: (40, 100),
        },
    ];
    StampModel::new("labyrinth", blocks, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_baselines::Rtm;
    use seer_runtime::{run, DriverConfig};

    #[test]
    fn route_transactions_exceed_write_capacity() {
        // 600+ distinct written lines over 64 sets means an expected set
        // load of ~10 — beyond even the unshared 8-way geometry.
        let m = model(1, 5);
        let writes_min = m.blocks()[0].regions[0].writes.0;
        assert!(writes_min >= 600);
    }

    #[test]
    fn excluded_benchmark_capacity_bound() {
        // RTM (which waits while the fall-back lock is held, so its aborts
        // reflect genuine hardware failures rather than lock subscription).
        // Aggregated over a few seeds: a single run's capacity/conflict
        // split is close enough to parity that per-seed noise could flip
        // the comparison, and the claim is about the workload, not a seed.
        let mut capacity = 0u64;
        let mut conflict = 0u64;
        for seed in 0..3 {
            let mut m = model(4, 12);
            let mut s = Rtm::default();
            let mut cfg = DriverConfig::paper_machine(4, seed);
            cfg.costs.async_abort_per_cycle = 0.0;
            let metrics = run(&mut m, &mut s, &cfg);
            assert_eq!(metrics.commits, 48);
            // The dominant block cannot commit in hardware: the run is
            // carried by the fall-back, exactly why the paper excluded
            // labyrinth.
            assert!(
                metrics.fallback_fraction() > 0.6,
                "labyrinth should live on the SGL: {:.3}",
                metrics.fallback_fraction()
            );
            capacity += metrics.aborts.capacity;
            conflict += metrics.aborts.conflict;
        }
        assert!(
            capacity > conflict,
            "capacity must dominate: cap {capacity} vs conf {conflict}"
        );
    }
}
