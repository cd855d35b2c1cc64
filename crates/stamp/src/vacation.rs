//! Vacation: an in-memory travel reservation system.
//!
//! Client transactions query and update four red-black-tree tables (cars,
//! flights, rooms, customers). `make-reservation` reads tens of tree nodes
//! across several tables and writes a handful; `delete-customer` and
//! `update-tables` are rarer but write-heavier. The *high* configuration
//! queries more relations per transaction (bigger footprints, more
//! conflicts) than *low*. Conflicts split naturally per table — another
//! sparse conflict graph where fine-grained serialization wins (Fig. 3f/3g
//! show Seer ≈2.2–2.6× vs ≈1.4–1.8× for the baselines at 8 threads).

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const CARS: u64 = 0;
const FLIGHTS: u64 = 1;
const ROOMS: u64 = 2;
const CUSTOMERS: u64 = 3;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 350;

/// Tree-table region: `theta` models root/upper-level sharing (every
/// traversal passes near the root).
fn table(region: u64, reads: (u64, u64), writes: (u64, u64)) -> RegionUse {
    RegionUse {
        region,
        lines: 512,
        theta: 0.5,
        reads,
        writes,
    }
}

fn vacation(
    name: &str,
    reads_per_table: (u64, u64),
    threads: usize,
    txs_per_thread: usize,
) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "make-reservation",
            weight: 9.0,
            regions: vec![
                table(CARS, reads_per_table, (0, 1)),
                table(FLIGHTS, reads_per_table, (0, 1)),
                table(ROOMS, reads_per_table, (0, 1)),
                table(CUSTOMERS, (3, 8), (1, 2)),
            ],
            private_reads: (6, 14),
            private_writes: (1, 3),
            spacing: (5, 12),
            think: (100, 260),
        },
        StampBlock {
            name: "delete-customer",
            weight: 1.0,
            regions: vec![table(CUSTOMERS, (8, 18), (2, 5))],
            private_reads: (4, 10),
            private_writes: (1, 2),
            spacing: (5, 12),
            think: (120, 300),
        },
        StampBlock {
            name: "update-tables",
            weight: 1.0,
            regions: vec![
                table(CARS, (4, 10), (2, 5)),
                table(FLIGHTS, (4, 10), (2, 5)),
                table(ROOMS, (4, 10), (2, 5)),
            ],
            private_reads: (4, 10),
            private_writes: (1, 3),
            spacing: (5, 12),
            think: (120, 300),
        },
    ];
    StampModel::new(name, blocks, threads, txs_per_thread)
}

/// High-contention configuration (more relations queried per transaction).
pub fn model_high(threads: usize, txs_per_thread: usize) -> StampModel {
    vacation("vacation-high", (10, 22), threads, txs_per_thread)
}

/// Low-contention configuration.
pub fn model_low(threads: usize, txs_per_thread: usize) -> StampModel {
    vacation("vacation-low", (6, 13), threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;
    use seer_sim::SimRng;

    #[test]
    fn high_reads_more_than_low() {
        let mut hi = model_high(1, 150);
        let mut lo = model_low(1, 150);
        let mut rng = SimRng::new(5);
        let avg = |m: &mut StampModel, rng: &mut SimRng| {
            let mut total = 0usize;
            let mut n = 0usize;
            while let Some(req) = m.next(0, rng) {
                if req.block == 0 {
                    total += req.accesses.len();
                    n += 1;
                }
            }
            total as f64 / n as f64
        };
        let hi_avg = avg(&mut hi, &mut rng);
        let lo_avg = avg(&mut lo, &mut rng);
        assert!(
            hi_avg > lo_avg + 10.0,
            "high ({hi_avg:.1}) should dwarf low ({lo_avg:.1})"
        );
    }

    #[test]
    fn three_blocks_as_in_the_application() {
        let m = model_high(2, 10);
        assert_eq!(m.num_blocks(), 3);
        assert_eq!(m.block_name(0), "make-reservation");
    }
}
