//! Quickstart: schedule a STAMP-like workload with Seer and read the
//! results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seer::{Seer, SeerConfig};
use seer_runtime::{run, DriverConfig, TxMode, Workload};
use seer_stamp::Benchmark;

fn main() {
    // A simulated 4-core × 2-hyper-thread machine (the paper's Haswell),
    // running 8 threads of the intruder workload model.
    let threads = 8;
    let mut workload = Benchmark::Intruder.instantiate_default(threads);
    let blocks = workload.num_blocks();

    // Full Seer: monitoring, probabilistic inference, transaction locks,
    // core locks, HTM lock acquisition, and threshold self-tuning.
    let mut scheduler = Seer::new(SeerConfig::full(), threads, blocks);

    let config = DriverConfig::paper_machine(threads, /* seed */ 42);
    let metrics = run(&mut workload, &mut scheduler, &config);

    println!("workload            : {}", workload.name());
    println!("commits             : {}", metrics.commits);
    println!("speedup vs seq      : {:.2}x", metrics.speedup());
    println!("aborts per commit   : {:.2}", metrics.abort_ratio());
    println!(
        "SGL fall-back       : {:.1}% of commits",
        metrics.fallback_fraction() * 100.0
    );
    println!(
        "tx-lock commits     : {:.1}%",
        (metrics.modes.fraction(TxMode::HtmTxLocks)
            + metrics.modes.fraction(TxMode::HtmTxAndCoreLocks))
            * 100.0
    );

    // What did Seer learn? The lock table is the inferred conflict
    // relation: row x lists the blocks x must not run concurrently with.
    println!(
        "\ninferred locking scheme (thresholds {:?}):",
        scheduler.thresholds()
    );
    for x in 0..blocks {
        let row = scheduler.lock_table().row(x);
        if !row.is_empty() {
            println!("  block {x} serializes with {row:?}");
        }
    }
}
