//! Bringing your own workload: a transactional order-matching engine.
//!
//! Demonstrates the full public API surface a downstream user touches to
//! evaluate Seer on their own application model:
//!
//! 1. implement [`seer_runtime::Workload`] — here a toy exchange where
//!    *order placement* hammers per-instrument books, *matching* touches
//!    both a hot instrument book and the trade log, and *market-data
//!    snapshots* read broadly but rarely conflict;
//! 2. run it under RTM and under Seer on the simulated machine;
//! 3. inspect what Seer inferred about the conflict structure.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use seer::{Seer, SeerConfig};
use seer_baselines::Rtm;
use seer_htm::AccessKind;
use seer_runtime::{run, Access, DriverConfig, TxRequest, Workload};
use seer_sim::{SimRng, ThreadId, ZipfTable};

/// Atomic blocks of the exchange.
const PLACE_ORDER: usize = 0;
const MATCH_ORDERS: usize = 1;
const SNAPSHOT: usize = 2;

/// Address layout (cache lines).
const BOOKS_BASE: u64 = 0;
const BOOK_LINES_PER_INSTRUMENT: u64 = 8;
const INSTRUMENTS: u64 = 24;
const TRADE_LOG_BASE: u64 = 1 << 20;
const TRADE_LOG_LINES: u64 = 4;
const SNAPSHOT_BASE: u64 = 1 << 21;
const SNAPSHOT_LINES: u64 = 4096;

struct Exchange {
    remaining: Vec<usize>,
    /// Popularity of instruments: a few are very hot, like real markets.
    instrument_popularity: ZipfTable,
}

impl Exchange {
    fn new(threads: usize, txs_per_thread: usize) -> Self {
        Self {
            remaining: vec![txs_per_thread; threads],
            instrument_popularity: ZipfTable::new(INSTRUMENTS as usize, 1.1),
        }
    }

    fn book_line(&self, rng: &mut SimRng) -> u64 {
        let instrument = rng.zipf(&self.instrument_popularity) as u64;
        BOOKS_BASE + instrument * BOOK_LINES_PER_INSTRUMENT + rng.below(BOOK_LINES_PER_INSTRUMENT)
    }

    fn build(&mut self, block: usize, rng: &mut SimRng) -> TxRequest {
        let mut accesses = Vec::new();
        let mut offset = 0u64;
        let mut push = |line: u64, kind: AccessKind, offset: &mut u64, rng: &mut SimRng| {
            *offset += rng.range_inclusive(6, 14);
            accesses.push(Access {
                line,
                kind,
                offset: *offset,
            });
        };
        match block {
            PLACE_ORDER => {
                // Read the book top, insert the order (1-2 line writes).
                for _ in 0..rng.range_inclusive(3, 6) {
                    push(self.book_line(rng), AccessKind::Read, &mut offset, rng);
                }
                for _ in 0..rng.range_inclusive(1, 2) {
                    push(self.book_line(rng), AccessKind::Write, &mut offset, rng);
                }
            }
            MATCH_ORDERS => {
                // Walk one book and append to the (very hot) trade log.
                for _ in 0..rng.range_inclusive(6, 14) {
                    push(self.book_line(rng), AccessKind::Read, &mut offset, rng);
                }
                for _ in 0..rng.range_inclusive(2, 4) {
                    push(self.book_line(rng), AccessKind::Write, &mut offset, rng);
                }
                push(
                    TRADE_LOG_BASE + rng.below(TRADE_LOG_LINES),
                    AccessKind::Write,
                    &mut offset,
                    rng,
                );
            }
            SNAPSHOT => {
                // Broad, read-only sweep over market data.
                for _ in 0..rng.range_inclusive(20, 40) {
                    push(
                        SNAPSHOT_BASE + rng.below(SNAPSHOT_LINES),
                        AccessKind::Read,
                        &mut offset,
                        rng,
                    );
                }
            }
            _ => unreachable!(),
        }
        let duration = offset + 10;
        TxRequest {
            block,
            accesses,
            duration,
            think: rng.range_inclusive(80, 240),
        }
    }
}

impl Workload for Exchange {
    fn name(&self) -> &str {
        "exchange"
    }

    fn num_blocks(&self) -> usize {
        3
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        if self.remaining[thread] == 0 {
            return None;
        }
        self.remaining[thread] -= 1;
        let block = match rng.below(10) {
            0..=4 => PLACE_ORDER,
            5..=8 => MATCH_ORDERS,
            _ => SNAPSHOT,
        };
        Some(self.build(block, rng))
    }

    fn regenerate(&mut self, _thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        let (block, think) = (req.block, req.think);
        *req = self.build(block, rng);
        req.think = think;
    }
}

fn main() {
    let threads = 8;
    let config = DriverConfig::paper_machine(threads, 2024);

    let mut rtm = Rtm::default();
    let mut w = Exchange::new(threads, 600);
    let base = run(&mut w, &mut rtm, &config);

    let mut seer = Seer::new(SeerConfig::full(), threads, 3);
    let mut w = Exchange::new(threads, 600);
    let tuned = run(&mut w, &mut seer, &config);

    let names = ["place-order", "match-orders", "snapshot"];
    println!(
        "exchange under RTM : speedup {:.2}x, {:.2} aborts/commit, {:.0}% fall-back",
        base.speedup(),
        base.abort_ratio(),
        base.fallback_fraction() * 100.0
    );
    println!(
        "exchange under Seer: speedup {:.2}x, {:.2} aborts/commit, {:.0}% fall-back",
        tuned.speedup(),
        tuned.abort_ratio(),
        tuned.fallback_fraction() * 100.0
    );

    println!("\nwhat Seer inferred (one lock per atomic block):");
    for x in 0..3 {
        let row = seer.lock_table().row(x);
        if row.is_empty() {
            println!("  {:<13} runs freely", names[x]);
        } else {
            let partners: Vec<_> = row.iter().map(|&y| names[y]).collect();
            println!("  {:<13} serializes with {partners:?}", names[x]);
        }
    }
    println!("\nground truth (simulator oracle, victim <- killer kills):");
    for v in 0..3 {
        for k in 0..3 {
            let kills = tuned.ground_truth.get(v, k);
            if kills > 0 {
                println!("  {:<13} <- {:<13} {kills}", names[v], names[k]);
            }
        }
    }
}
