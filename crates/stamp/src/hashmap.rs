//! Low-contention hash map probe (paper §5.3's overhead sanity check).
//!
//! "Even challenging scenarios, such as a low contention small hash-map
//! (4k elements and 1k buckets) yielded a maximum of 4% overhead." The
//! model: short transactions probing a 1k-bucket table (each bucket a
//! line, ~4 elements per bucket reachable with one extra line read),
//! read-mostly, uniformly spread — almost never conflicting, so any
//! slowdown under Seer is pure instrumentation overhead.

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const BUCKETS: u64 = 0;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 900;

/// Builds the hash-map probe for `threads` threads.
pub fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "map-get",
            weight: 9.0,
            regions: vec![RegionUse {
                region: BUCKETS,
                lines: 1024,
                theta: 0.0,
                reads: (2, 4),
                writes: (0, 0),
            }],
            private_reads: (2, 6),
            private_writes: (0, 1),
            spacing: (5, 11),
            think: (90, 220),
        },
        StampBlock {
            name: "map-put",
            weight: 1.0,
            regions: vec![RegionUse {
                region: BUCKETS,
                lines: 1024,
                theta: 0.0,
                reads: (2, 4),
                writes: (1, 2),
            }],
            private_reads: (2, 6),
            private_writes: (0, 1),
            spacing: (5, 11),
            think: (90, 220),
        },
    ];
    StampModel::new("hashmap-low", blocks, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::{run, DriverConfig, NullScheduler, Workload};
    use seer_sim::SimRng;

    #[test]
    fn rarely_conflicts() {
        let mut m = model(4, 300);
        let mut s = NullScheduler::new(5);
        let mut cfg = DriverConfig::paper_machine(4, 1);
        cfg.costs.async_abort_per_cycle = 0.0;
        let metrics = run(&mut m, &mut s, &cfg);
        assert_eq!(metrics.commits, 1200);
        assert!(
            metrics.abort_ratio() < 0.03,
            "hashmap-low should barely abort: {}",
            metrics.abort_ratio()
        );
    }

    #[test]
    fn reads_dominate() {
        let mut m = model(1, 500);
        let mut rng = SimRng::new(7);
        let (mut reads, mut writes) = (0usize, 0usize);
        while let Some(req) = m.next(0, &mut rng) {
            for a in &req.accesses {
                match a.kind {
                    seer_htm::AccessKind::Read => reads += 1,
                    seer_htm::AccessKind::Write => writes += 1,
                }
            }
        }
        assert!(reads > writes * 5, "reads {reads} writes {writes}");
    }
}
