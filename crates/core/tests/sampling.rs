//! Tests of the probabilistic-sampling extension (paper §6 future work):
//! sampled statistics must stay unbiased enough to infer the same conflict
//! relations, at a fraction of the monitoring cost.

use seer::{Seer, SeerConfig};
use seer_runtime::{run, DriverConfig, Workload};
use seer_stamp::Benchmark;

fn run_with_sampling(p: f64, txs: usize) -> (Seer, seer_runtime::RunMetrics) {
    let threads = 8;
    let mut w = Benchmark::KmeansHigh.instantiate(threads, txs);
    let blocks = w.num_blocks();
    let mut cfg = SeerConfig::with_sampling(p);
    cfg.hill_climbing = false; // isolate the sampling effect
    let mut sched = Seer::new(cfg, threads, blocks);
    let m = run(
        &mut w,
        &mut sched,
        &DriverConfig::paper_machine(threads, 13),
    );
    (sched, m)
}

#[test]
fn quarter_sampling_still_finds_the_hot_pair() {
    let (sched, m) = run_with_sampling(0.25, 600);
    assert!(m.commits > 0);
    assert!(
        sched.lock_table().row(0).contains(&0),
        "sampled inference missed the center-update self-conflict: {:?}",
        sched.lock_table().row(0)
    );
}

#[test]
fn sampling_reduces_registration_volume_proportionally() {
    let (full, _) = run_with_sampling(1.0, 300);
    let (quarter, _) = run_with_sampling(0.25, 300);
    let full_regs = full.counters().commits_registered + full.counters().aborts_registered;
    let quarter_regs = quarter.counters().commits_registered + quarter.counters().aborts_registered;
    // Not exactly 1/4 (the runs diverge dynamically), but far fewer.
    assert!(
        (quarter_regs as f64) < 0.45 * full_regs as f64,
        "sampling 0.25 registered {quarter_regs} of {full_regs}"
    );
    assert!(quarter_regs > 0);
}

#[test]
fn zero_sampling_learns_nothing_and_locks_nothing() {
    let (sched, m) = run_with_sampling(0.0, 200);
    assert!(m.commits > 0);
    assert!(sched.lock_table().is_empty());
    assert_eq!(sched.counters().commits_registered, 0);
    assert_eq!(sched.counters().aborts_registered, 0);
}

#[test]
fn sampled_probabilities_remain_close_to_full() {
    use seer::inference::conditional_abort_probability;
    let (mut full, _) = run_with_sampling(1.0, 800);
    let (mut quarter, _) = run_with_sampling(0.25, 800);
    full.force_update();
    quarter.force_update();
    let pf = conditional_abort_probability(full.merged_stats(), 0, 0);
    let pq = conditional_abort_probability(quarter.merged_stats(), 0, 0);
    assert!(
        (pf - pq).abs() < 0.15,
        "sampling skewed P(0 aborts | 0 active): full {pf:.3} vs sampled {pq:.3}"
    );
}
