//! # seer-harness — regenerating the paper's evaluation
//!
//! One function per table/figure of the Seer paper's §5 (see
//! `DESIGN.md` §4 for the experiment index); `seer experiment <name>`
//! renders each of them:
//!
//! | `seer experiment` | Paper artefact |
//! |---|---|
//! | `fig3` | Figure 3 (a–i): speedups of HLE/RTM/SCM/Seer across STAMP |
//! | `table3` | Table 3: commit-mode breakdown per policy |
//! | `fig4` | Figure 4: profiling/inference overhead of Seer vs RTM |
//! | `fig5` | Figure 5: cumulative mechanism ablation |
//! | `ablation-core-locks` | §5.3: core-locks-only gains |
//! | `accuracy` | extra: inferred conflict pairs vs simulator ground truth |
//! | `fine-grained` | extra: the paper's future-work (block × structure) locks |
//! | `convergence` | extra: when the inferred locking scheme stabilizes |
//!
//! Execution goes through one API (`DESIGN.md` §9): experiments declare
//! their grid as a [`Plan`] and hand it to a [`CellExecutor`], which
//! deduplicates, memoizes per `(benchmark, policy, threads, seed, scale)`,
//! and fans uncached cells out across OS threads. Parallel execution is
//! bit-identical to serial — every cell is an independent deterministic
//! simulation — so `--jobs`/`SEER_JOBS` only changes wall-clock time.
//!
//! Environment knobs: `SEER_SEEDS` (seeds averaged per cell, default 3),
//! `SEER_SCALE` (work scale factor, default 1.0), `SEER_JOBS` (executor
//! fan-out width, default 1 = serial), `SEER_REPORT_JSON` (write
//! structured results to a JSON file as well).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::Once;

pub mod exec;
pub mod experiments;
pub mod policy;
pub mod report;
pub mod runner;
pub mod trace_export;

pub use exec::{parallel_map, CellExecutor, CellKey, Plan};
pub use experiments::{
    convergence, core_locks_only, figure3, figure4, figure5, fine_grained, inference_accuracy,
    table3, AccuracyResult, ConvergenceResult, FineGrainedResult, THREADS_FULL, THREADS_TABLE,
};
pub use policy::{PolicyKind, TunedParams, UnknownPolicy};
pub use report::{maybe_write_json, Panel, PercentTable, Series};
pub use runner::{
    default_jobs, default_seeds, execute_cell, geometric_mean, run_cell, sim_seed, Cell,
    CellResult, HarnessConfig,
};
pub use seer_store::{ExecReport, FailedItem, Json, RunFailure, Store, SupervisorConfig, ToJson};
pub use trace_export::{
    chrome_trace, inference_json, lifecycle_json, trace_jsonl, validate_trace_jsonl,
    write_chrome_trace, write_trace_jsonl,
};

/// Reads the common environment configuration for `seer experiment`
/// (`SEER_SEEDS`, `SEER_SCALE`, `SEER_JOBS`). As with the other two, an
/// invalid `SEER_SCALE` warns once and falls back to the default 1.0.
pub fn env_config() -> HarnessConfig {
    static WARNED: Once = Once::new();
    let mut cfg = HarnessConfig::default();
    if let Ok(raw) = std::env::var("SEER_SCALE") {
        match parse_scale(&raw) {
            Some(scale) => cfg.scale = scale,
            None => WARNED.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid SEER_SCALE={raw:?} \
                     (expected a positive, finite number); using default {:?}",
                    cfg.scale
                );
            }),
        }
    }
    cfg
}

/// A work scale factor: positive and finite (the scenario spec's rule).
/// An infinite scale would saturate every transaction count.
fn parse_scale(raw: &str) -> Option<f64> {
    raw.parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && s.is_finite())
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_must_be_positive_and_finite() {
        for bad in ["inf", "NaN", "0", "-1", "abc", ""] {
            assert_eq!(parse_scale(bad), None, "{bad:?} must be rejected");
        }
        assert_eq!(parse_scale("0.05"), Some(0.05));
        assert_eq!(parse_scale("1"), Some(1.0));
    }
}
