//! Seer's hill climber (§4.3) is applied, not just run: in a cell where it
//! gets to climb, Th1/Th2 leave their initial values and the inference
//! rounds after a climb run at the moved thresholds.
//!
//! The cell is `seer inspect --benchmark kmeans-high --threads 8 --txs
//! 200` (seed 0), which reports four climb steps. A scheduler that
//! steps the climber but keeps its initial thresholds fails here.

use seer::{Seer, SeerConfig};
use seer_harness::sim_seed;
use seer_runtime::{run_traced, DriverConfig, MemoryTraceSink, Workload as _};
use seer_stamp::Benchmark;

#[test]
fn hill_climbing_moves_the_thresholds_seer_infers_with() {
    const THREADS: usize = 8;
    let mut workload = Benchmark::KmeansHigh.instantiate(THREADS, 200);
    let mut seer = Seer::new(SeerConfig::full(), THREADS, workload.num_blocks());
    let initial = seer.thresholds();
    let mut sink = MemoryTraceSink::new();
    let m = run_traced(
        &mut workload,
        &mut seer,
        &DriverConfig::paper_machine(THREADS, sim_seed(0)),
        &mut sink,
    );
    assert_eq!(m.commits, 200 * THREADS as u64);
    assert_eq!(seer.counters().climb_steps, 4, "the cell climbs four times");
    assert_ne!(
        seer.thresholds(),
        initial,
        "four climb steps left Th1/Th2 where they started"
    );
    let moved = sink
        .inference
        .iter()
        .filter(|r| (r.th1, r.th2) != (initial.th1, initial.th2))
        .count();
    assert!(
        moved > 0,
        "no inference round ran at climbed thresholds ({} rounds)",
        sink.inference.len()
    );
}
