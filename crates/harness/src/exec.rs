//! Declarative experiment plans and the parallel, memoizing cell executor.
//!
//! The paper's evaluation (Figs. 3–5, Table 3, the §5.3 ablations) is a
//! grid of *independent, deterministic* simulation cells, and several
//! artefacts consume overlapping subsets of that grid (Table 3 re-reads
//! every Figure 3 cell; Figure 4 and Figure 5 share the profile-only
//! baseline runs). Instead of each experiment calling the runner inline,
//! an experiment *declares* its grid as a [`Plan`] (a deduplicated set of
//! `Cell × seed` work items) and hands it to a [`CellExecutor`], which
//! simulates the items its memo map lacks through [`parallel_map`].
//!
//! Every cell's discrete-event run is a pure function of
//! `(cell, seed, scale)` — seeded via [`sim_seed`], sharing no state with
//! any other cell — so parallel execution is *bit-identical* to serial.
//! The conformance replay fixtures and the executor equivalence test
//! (`crates/harness/tests/executor.rs`) pin this.
//!
//! A run is bounded by the driver's event valve and the scale rule
//! ([`seer_stamp::check_scale`]), so there is no wall-clock deadline; a
//! cell that panics panics the caller, naming the cell and seed.
//!
//! [`sim_seed`]: crate::runner::sim_seed

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use seer_runtime::RunMetrics;

use crate::runner::{execute_cell, Cell, CellResult, HarnessConfig};

/// Applies `f` to every item of `items` on up to `jobs` OS threads,
/// returning results in input order (never completion order).
///
/// Work is handed out through a shared atomic cursor, so threads stay busy
/// regardless of per-item cost skew. `jobs <= 1` (or a single item) runs
/// the plain serial loop — byte-for-byte the `--jobs 1` path, which the
/// equivalence tests compare the parallel path against. A panic on any
/// worker propagates out of the enclosing `std::thread::scope`, so it
/// panics the caller at any `jobs`.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

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

/// A declarative, deduplicated set of `Cell × seed` work items, in
/// insertion order.
///
/// Experiments build a `Plan` up front (usually via [`Plan::add_grid`]),
/// then hand it to [`CellExecutor::execute`]. Duplicate insertions are
/// dropped at build time, so overlapping grids (e.g. Table 3 re-listing
/// every Figure 3 cell) cost nothing even before the memo map is consulted.
#[derive(Debug, Default, Clone)]
pub struct Plan {
    items: Vec<CellKey>,
    seen: HashSet<CellKey>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(cell, seed)` item at an explicit scale. Returns `true`
    /// if the item was new.
    pub fn add_one(&mut self, cell: Cell, seed: u64, scale: f64) -> bool {
        let key = CellKey::new(cell, seed, scale);
        let fresh = self.seen.insert(key);
        if fresh {
            self.items.push(key);
        }
        fresh
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
/// Results are memoized per [`CellKey`] for the lifetime of the executor.
/// Workers only compute; the executor stores their results by key after
/// the fan-out, and readers assemble results by key, which is why
/// `--jobs N` is bit-identical to `--jobs 1` for every N.
#[derive(Debug)]
pub struct CellExecutor {
    cfg: HarnessConfig,
    memo: HashMap<CellKey, RunMetrics>,
}

impl CellExecutor {
    /// An executor with an empty memo map over `cfg` (which fixes the
    /// default seeds/scale for [`Plan::add`] expansion and `jobs` for
    /// fan-out).
    pub fn new(cfg: HarnessConfig) -> Self {
        Self {
            cfg,
            memo: HashMap::new(),
        }
    }

    /// The executor's harness configuration.
    pub fn config(&self) -> &HarnessConfig {
        &self.cfg
    }

    /// Simulates every item of `plan` the memo map lacks, fanned out
    /// across `cfg.jobs` OS threads, and returns how many it simulated.
    /// Safe to call repeatedly and with overlapping plans.
    ///
    /// # Panics
    /// If a cell's run panics (see [`execute_cell`]).
    pub fn execute(&mut self, plan: &Plan) -> usize {
        let todo: Vec<CellKey> = plan
            .items
            .iter()
            .filter(|key| !self.memo.contains_key(*key))
            .copied()
            .collect();
        let results = parallel_map(&todo, self.cfg.jobs, |key| {
            let txs = key.benchmark.scaled_txs(key.scale());
            execute_cell(key.cell(), key.seed, txs, None)
        });
        self.memo.extend(todo.iter().copied().zip(results));
        todo.len()
    }

    /// How many items this executor has simulated so far: the sum of what
    /// every [`execute`](Self::execute) returned.
    pub fn simulated(&self) -> usize {
        self.memo.len()
    }

    /// The metrics of one `(cell, seed, scale)` item an earlier
    /// [`execute`](Self::execute) simulated, without computing anything;
    /// `None` for an item that was never planned.
    pub fn cached(&self, cell: Cell, seed: u64, scale: f64) -> Option<RunMetrics> {
        self.memo.get(&CellKey::new(cell, seed, scale)).cloned()
    }

    /// Seed-averaged measurements of `cell` over the executor's
    /// `cfg.seeds` at `cfg.scale`, read from the memo map; `None` unless
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
        assert_eq!(plan.items.len(), 4); // 2 cells × 2 seeds
        assert!(plan.add_one(cell(2), 7, 0.1));
        assert!(!plan.add_one(cell(2), 7, 0.1));
        assert_eq!(plan.items.len(), 5);
        // Insertion order is kept.
        assert_eq!(plan.items[0], CellKey::new(cell(2), 0, 0.1));
        assert_eq!(plan.items[4], CellKey::new(cell(2), 7, 0.1));
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |&x| x * x);
        let parallel = parallel_map(&items, 4, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[5], 25);
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        // The one failure path left for a poisoned cell: no isolation, no
        // partial result, at either fan-out width.
        let items: Vec<u64> = (0..8).collect();
        for jobs in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                parallel_map(&items, jobs, |&x| {
                    assert!(x != 5, "poisoned item");
                    x
                })
            });
            assert!(outcome.is_err(), "jobs {jobs}: the panic was swallowed");
        }
    }

    #[test]
    fn executor_counts_hits_and_misses() {
        let cfg = HarnessConfig {
            seeds: 2,
            scale: 0.1,
            jobs: 2,
        };
        let mut exec = CellExecutor::new(cfg);
        assert_eq!(
            exec.cell(cell(2)),
            None,
            "nothing is resolved before execute"
        );
        let mut plan = Plan::new();
        plan.add(cell(2), &cfg);
        assert_eq!(exec.execute(&plan), 2);
        // Re-executing the same plan simulates nothing.
        assert_eq!(exec.execute(&plan), 0);
        // An overlapping plan simulates only its new items.
        plan.add(cell(4), &cfg);
        assert_eq!(exec.execute(&plan), 2);
        assert_eq!(exec.simulated(), 4);
        // Assembly reads the cached seeds.
        let r = exec.cell(cell(2)).expect("both seeds cached");
        assert!(r.speedup > 0.0);
        assert_eq!(exec.cell(cell(6)), None, "unplanned cells stay unresolved");
    }

    #[test]
    fn cached_metrics_equal_a_fresh_run() {
        let cfg = HarnessConfig {
            seeds: 1,
            scale: 0.1,
            jobs: 2,
        };
        let mut exec = CellExecutor::new(cfg);
        let mut plan = Plan::new();
        plan.add(cell(4), &cfg);
        exec.execute(&plan);
        let cached = exec.cached(cell(4), 0, 0.1).expect("planned");
        let fresh = execute_cell(cell(4), 0, Benchmark::Ssca2.scaled_txs(0.1), None);
        assert_eq!(cached.trace_hash, fresh.trace_hash);
        assert_eq!(cached.makespan, fresh.makespan);
        assert_eq!(cached.commits, fresh.commits);
    }

    /// Seed-averaged results of `cell` from a fresh executor.
    fn cold_cell(cell: Cell, cfg: HarnessConfig) -> CellResult {
        let mut exec = CellExecutor::new(cfg);
        let mut plan = Plan::new();
        plan.add(cell, &cfg);
        assert_eq!(exec.execute(&plan), cfg.seeds as usize);
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
}
