//! Intruder: network packet intrusion detection.
//!
//! Threads pop packet fragments from a shared work queue (a handful of hot
//! lines — the head/tail pointers and the first elements), reassemble flows
//! in a shared map (the decoder), then run detection over the reassembled
//! payload (read-mostly). STAMP characterizes intruder as *very high*
//! contention dominated by the queue: nearly every concurrent pair of
//! `queue-pop` transactions collides. The decoder conflicts with itself at
//! a lower rate, and detection rarely conflicts at all — a three-tier
//! conflict structure Seer can exploit while single-lock schemes thrash
//! (Fig. 3b shows ≈2.5× over the best baseline at 8 threads).

use seer_runtime::model::{RegionUse, StampBlock, StampModel};

const QUEUE: u64 = 0;
const DECODER: u64 = 1;
const DETECTOR: u64 = 2;

/// Default transactions per thread at scale 1.
pub const DEFAULT_TXS: usize = 500;

/// Builds the intruder model for `threads` threads.
pub fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let blocks = vec![
        StampBlock {
            name: "queue-pop",
            weight: 3.0,
            regions: vec![RegionUse {
                region: QUEUE,
                lines: 3,
                theta: 0.0,
                reads: (1, 3),
                writes: (2, 3),
            }],
            private_reads: (3, 8),
            private_writes: (0, 1),
            spacing: (6, 14),
            think: (20, 60),
        },
        StampBlock {
            name: "decode-insert",
            weight: 3.0,
            regions: vec![RegionUse {
                region: DECODER,
                lines: 320,
                theta: 0.5,
                reads: (6, 16),
                writes: (2, 5),
            }],
            private_reads: (4, 10),
            private_writes: (1, 3),
            spacing: (5, 12),
            think: (40, 120),
        },
        StampBlock {
            name: "detect",
            weight: 2.0,
            regions: vec![RegionUse {
                region: DETECTOR,
                lines: 1024,
                theta: 0.1,
                reads: (10, 28),
                writes: (0, 1),
            }],
            private_reads: (8, 20),
            private_writes: (0, 1),
            spacing: (5, 12),
            think: (50, 140),
        },
    ];
    StampModel::new("intruder", blocks, threads, txs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::Workload;
    use seer_sim::SimRng;

    #[test]
    fn three_blocks_as_in_the_application() {
        let m = model(4, 10);
        assert_eq!(m.num_blocks(), 3);
        assert_eq!(m.block_name(0), "queue-pop");
    }

    #[test]
    fn queue_pop_is_short_and_write_heavy() {
        let mut m = model(1, 200);
        let mut rng = SimRng::new(2);
        let mut queue_lens = Vec::new();
        while let Some(req) = m.next(0, &mut rng) {
            if req.block == 0 {
                queue_lens.push(req.accesses.len());
            }
        }
        assert!(!queue_lens.is_empty());
        let max = *queue_lens.iter().max().unwrap();
        assert!(max <= 16, "queue-pop should be tiny, saw {max} accesses");
    }
}
