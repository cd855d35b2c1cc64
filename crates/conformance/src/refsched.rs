//! The reference single-lock scheduler.
//!
//! [`SglOnly`] sends every transaction straight down the fall-back path:
//! no hardware attempts, no scheduler locks, no waiting heuristics. It is
//! the degenerate point of the policy space — global lock around every
//! atomic block — and its metrics are therefore fully predictable:
//!
//! * every commit is [`seer_runtime::TxMode::SglFallback`];
//! * `fallbacks == commits`, `htm_attempts == 0`, zero aborts of any kind;
//! * the conservation laws of `RunMetrics::check_conservation` hold.
//!
//! Running real workloads under it cross-checks the driver's accounting
//! against a policy simple enough to reason about exhaustively, and gives
//! a serialization floor other schedulers can be compared to.

use seer_runtime::{BlockId, SchedEnv, Scheduler};
use seer_sim::ThreadId;

/// Pre-transaction serialization on the single global lock, always.
#[derive(Debug, Default, Clone, Copy)]
pub struct SglOnly;

impl Scheduler for SglOnly {
    fn name(&self) -> &'static str {
        "reference-sgl-only"
    }

    /// The budget is irrelevant (no hardware attempt ever starts) but must
    /// be positive for the driver.
    fn attempt_budget(&self) -> u32 {
        1
    }

    fn pre_tx_fallback(
        &mut self,
        _thread: ThreadId,
        _block: BlockId,
        _env: &mut SchedEnv<'_>,
    ) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::{run, DriverConfig, NullScheduler, TxMode};
    use seer_stamp::Benchmark;

    fn run_sgl(threads: usize, seed: u64) -> seer_runtime::RunMetrics {
        let mut workload = Benchmark::HashmapLow.instantiate(threads, 30);
        let mut sched = SglOnly;
        run(
            &mut workload,
            &mut sched,
            &DriverConfig::paper_machine(threads, seed),
        )
    }

    #[test]
    fn all_commits_take_the_global_lock() {
        let m = run_sgl(4, 11);
        assert_eq!(m.commits, 120);
        assert_eq!(m.modes.get(TxMode::SglFallback), m.commits);
        assert_eq!(m.fallbacks, m.commits);
        assert_eq!(m.htm_attempts, 0);
        assert_eq!(m.aborts.total(), 0);
        assert_eq!(m.ground_truth.total(), 0);
        let violations = m.check_conservation();
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn commits_match_an_independent_policy() {
        // Same workload under the null scheduler: the *work done* must be
        // identical even though the execution strategy is opposite.
        let mut workload = Benchmark::HashmapLow.instantiate(4, 30);
        let mut null = NullScheduler::new(5);
        let htm = run(
            &mut workload,
            &mut null,
            &DriverConfig::paper_machine(4, 11),
        );
        let sgl = run_sgl(4, 11);
        assert_eq!(htm.commits, sgl.commits);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = run_sgl(8, 3);
        let b = run_sgl(8, 3);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.makespan, b.makespan);
    }
}
