//! Declarative experiment plans and the parallel, memoizing cell executor.
//!
//! The paper's evaluation (Figs. 3–5, Table 3, the §5.3 ablations) is a
//! grid of *independent, deterministic* simulation cells, and several
//! artefacts consume overlapping subsets of that grid (Table 3 re-reads
//! every Figure 3 cell; Figure 4 and Figure 5 share the profile-only
//! baseline runs). Instead of each experiment calling the runner inline,
//! an experiment *declares* its grid as a [`Plan`] (a deduplicated set of
//! `Cell × seed` work items) and hands it to a [`CellExecutor`].
//!
//! The machinery behind the executor — deduplicating plans,
//! `parallel_map` fan-out, the memo cache and the supervision layer —
//! lives in `seer-store`'s generic [`Executor`]; this module is the
//! *cell-shaped* instantiation: it picks `K = CellKey`, `V = RunMetrics`,
//! supplies the run function (the runner's `execute_cell`), and keeps the
//! harness-flavoured plan sugar (`add`/`add_grid` expanding a
//! `HarnessConfig`) and the cache-only assembly reads (`cached`/`cell`).
//!
//! Every cell's discrete-event run is a pure function of
//! `(cell, seed, scale)` — seeded via [`sim_seed`], sharing no state with
//! any other cell — so parallel execution is *bit-identical* to serial.
//! The conformance replay
//! fixtures and the executor equivalence test
//! (`crates/harness/tests/executor.rs`) pin this.
//!
//! [`sim_seed`]: crate::runner::sim_seed

use std::time::Duration;

use seer_runtime::RunMetrics;
use seer_store::{ExecReport, Executor};

use crate::runner::{execute_cell, Cell, CellResult, HarnessConfig};

pub use seer_store::parallel_map;

/// The memoization key: every coordinate a cell's metrics depend on.
///
/// `scale` is carried as its IEEE-754 bit pattern so the key is `Eq + Hash`
/// without tolerance games; two scales memoize together exactly when they
/// are the same `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload model.
    pub benchmark: seer_stamp::Benchmark,
    /// Scheduler variant.
    pub policy: crate::policy::PolicyKind,
    /// Simulated threads.
    pub threads: usize,
    /// Harness seed (the driver seed is derived via
    /// [`crate::runner::sim_seed`]).
    pub seed: u64,
    /// Workload scale factor, as raw bits.
    scale_bits: u64,
}

impl CellKey {
    /// Builds the key for one `(cell, seed, scale)` work item.
    pub fn new(cell: Cell, seed: u64, scale: f64) -> Self {
        Self {
            benchmark: cell.benchmark,
            policy: cell.policy,
            threads: cell.threads,
            seed,
            scale_bits: scale.to_bits(),
        }
    }

    /// The cell coordinates (without seed/scale).
    pub fn cell(&self) -> Cell {
        Cell {
            benchmark: self.benchmark,
            policy: self.policy,
            threads: self.threads,
        }
    }

    /// The workload scale factor.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }
}

/// `benchmark/policy/tN/sS`: how failure lists name a cell.
impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/t{}/s{}",
            self.benchmark.spec(),
            self.policy.spec(),
            self.threads,
            self.seed
        )
    }
}

/// A declarative, deduplicated set of `Cell × seed` work items.
///
/// Experiments build a `Plan` up front (usually via [`Plan::add_grid`]),
/// then hand it to [`CellExecutor::execute`]. Duplicate insertions are
/// dropped at build time, so overlapping grids (e.g. Table 3 re-listing
/// every Figure 3 cell) cost nothing even before the cache is consulted.
#[derive(Debug, Default, Clone)]
pub struct Plan {
    inner: seer_store::Plan<CellKey>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(cell, seed)` item at an explicit scale. Returns `true`
    /// if the item was new.
    pub fn add_one(&mut self, cell: Cell, seed: u64, scale: f64) -> bool {
        self.inner.add(CellKey::new(cell, seed, scale))
    }

    /// Adds `cell` under `cfg`: one item per seed `0..cfg.seeds` at
    /// `cfg.scale` (the expansion [`CellExecutor::cell`] averages over).
    pub fn add(&mut self, cell: Cell, cfg: &HarnessConfig) {
        for seed in 0..cfg.seeds {
            self.add_one(cell, seed, cfg.scale);
        }
    }

    /// Adds the full `benchmarks × policies × threads` grid under `cfg`.
    pub fn add_grid(
        &mut self,
        benchmarks: &[seer_stamp::Benchmark],
        policies: &[crate::policy::PolicyKind],
        threads: &[usize],
        cfg: &HarnessConfig,
    ) {
        for &benchmark in benchmarks {
            for &policy in policies {
                for &t in threads {
                    self.add(
                        Cell {
                            benchmark,
                            policy,
                            threads: t,
                        },
                        cfg,
                    );
                }
            }
        }
    }
}

/// The parallel, memoizing executor behind every figure, table and
/// sweep: the workspace's one way to turn a [`Plan`] into metrics.
///
/// A thin instantiation of `seer-store`'s generic [`Executor`]: results
/// are memoized per [`CellKey`] for the lifetime of the executor and
/// computed under supervision (panic isolation and the optional deadline)
/// when planned.
/// The executor is `Sync`; its workers only ever write distinct keys, and
/// readers assemble results by key, which is why `--jobs N` is
/// bit-identical to `--jobs 1` for every N.
#[derive(Debug)]
pub struct CellExecutor {
    cfg: HarnessConfig,
    inner: Executor<CellKey, RunMetrics>,
}

impl CellExecutor {
    /// An executor with an empty cache over `cfg` (which fixes the default
    /// seeds/scale for [`Plan::add`] expansion and `jobs` for fan-out).
    /// With a `deadline`, a cell still simulating after that much
    /// wall-clock time fails as timed out.
    pub fn new(cfg: HarnessConfig, deadline: Option<Duration>) -> Self {
        let inner = Executor::new(cfg.jobs, deadline, |key: CellKey| {
            execute_cell(key.cell(), key.seed, key.scale(), None)
        });
        Self { cfg, inner }
    }

    /// The executor's harness configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.cfg
    }

    /// Resolves every item of `plan` — memo cache, then supervised
    /// simulation fanned out across `cfg.jobs` OS threads — and returns
    /// the coverage report. Safe to call repeatedly and with overlapping
    /// plans; a poisoned cell lands in [`ExecReport::failed`] instead of
    /// aborting the process.
    pub fn execute(&self, plan: &Plan) -> ExecReport<CellKey> {
        self.inner.execute(&plan.inner)
    }

    /// The metrics of one `(cell, seed, scale)` item an earlier
    /// [`execute`](Self::execute) resolved, without computing anything;
    /// `None` for an item that failed or was never planned.
    pub fn cached(&self, cell: Cell, seed: u64, scale: f64) -> Option<RunMetrics> {
        self.inner.cached(&CellKey::new(cell, seed, scale))
    }

    /// Seed-averaged measurements of `cell` over the executor's
    /// `cfg.seeds` at `cfg.scale`, read from the cache; `None` unless
    /// every seed has a result.
    pub fn cell(&self, cell: Cell) -> Option<CellResult> {
        let runs = (0..self.cfg.seeds)
            .map(|seed| self.cached(cell, seed, self.cfg.scale))
            .collect::<Option<Vec<RunMetrics>>>()?;
        Some(CellResult::average(&runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use seer_stamp::Benchmark;

    fn cell(threads: usize) -> Cell {
        Cell {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Rtm,
            threads,
        }
    }

    #[test]
    fn plan_deduplicates_items() {
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 1,
        };
        let mut plan = Plan::new();
        plan.add(cell(2), &cfg);
        plan.add(cell(2), &cfg); // exact duplicate
        plan.add(cell(4), &cfg);
        assert_eq!(plan.inner.len(), 4); // 2 cells × 2 seeds
        assert!(plan.add_one(cell(2), 7, 0.1));
        assert!(!plan.add_one(cell(2), 7, 0.1));
        assert_eq!(plan.inner.len(), 5);
    }

    #[test]
    fn executor_counts_hits_and_misses() {
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 2,
        };
        let exec = CellExecutor::new(cfg, None);
        assert_eq!(
            exec.cell(cell(2)),
            None,
            "nothing is resolved before execute"
        );
        let mut plan = Plan::new();
        plan.add(cell(2), &cfg);
        let report = exec.execute(&plan);
        assert_eq!((report.computed, report.memo_hits), (2, 0));
        // Re-executing the same plan simulates nothing.
        let report = exec.execute(&plan);
        assert_eq!((report.computed, report.memo_hits), (0, 2));
        // Assembly reads the cached seeds.
        let r = exec.cell(cell(2)).expect("both seeds cached");
        assert!(r.speedup > 0.0);
        assert_eq!(exec.cell(cell(4)), None, "unplanned cells stay unresolved");
    }

    #[test]
    fn cached_metrics_equal_a_fresh_run() {
        let cfg = HarnessConfig {
            seeds: 1,
            scale: 0.1,
            jobs: 2,
        };
        let exec = CellExecutor::new(cfg, None);
        let mut plan = Plan::new();
        plan.add(cell(4), &cfg);
        exec.execute(&plan);
        let cached = exec.cached(cell(4), 0, 0.1).expect("planned");
        let fresh = execute_cell(cell(4), 0, 0.1, None);
        assert_eq!(cached.trace_hash, fresh.trace_hash);
        assert_eq!(cached.makespan, fresh.makespan);
        assert_eq!(cached.commits, fresh.commits);
    }

    /// Seed-averaged results of `cell` from a fresh executor.
    fn cold_cell(cell: Cell, cfg: HarnessConfig) -> CellResult {
        let exec = CellExecutor::new(cfg, None);
        let mut plan = Plan::new();
        plan.add(cell, &cfg);
        assert!(exec.execute(&plan).complete());
        exec.cell(cell).expect("every seed cached")
    }

    #[test]
    fn run_cell_is_deterministic() {
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 1,
        };
        let a = cold_cell(cell(4), cfg);
        let b = cold_cell(cell(4), cfg);
        assert_eq!(a.speedup, b.speedup);
        assert_eq!(a.abort_ratio, b.abort_ratio);
        assert!(a.speedup > 0.0);
    }

    #[test]
    fn mode_fractions_sum_to_one() {
        let kmeans = Cell {
            benchmark: Benchmark::KmeansHigh,
            policy: PolicyKind::Seer,
            threads: 4,
        };
        let cfg = HarnessConfig {
            seeds: 1,
            scale: 0.2,
            jobs: 1,
        };
        let r = cold_cell(kmeans, cfg);
        let total: f64 = r.mode_fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn cell_keys_render_their_coordinates() {
        assert_eq!(CellKey::new(cell(2), 3, 0.1).to_string(), "ssca2/rtm/t2/s3");
    }
}
