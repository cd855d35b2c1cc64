//! The one generic plan/memoize/fan-out/supervise engine.
//!
//! A [`Plan<K>`] is a deduplicated, insertion-ordered set of keys, and an
//! [`Executor<K, V>`] turns plans into values. [`Executor::execute`] is
//! the only way a value is produced; it resolves each planned key through
//! one order:
//!
//! 1. **memo cache** — results this executor already resolved,
//! 2. **supervised compute** — the run function under panic isolation and
//!    the optional deadline (see [`supervise`]),
//!
//! and returns an [`ExecReport`]: how many keys each stage served, and
//! which keys failed. The report is the only account of the executor's
//! work. Values are read back with [`Executor::cached`], so a failed key
//! stays a hole the caller reports instead of a value computed behind the
//! report's back.
//!
//! Determinism: the run function is a pure function of the key, results
//! land in the cache keyed by their coordinates, and assembly order is
//! dictated by the caller — so any fan-out width produces bit-identical
//! values. The conformance suite pins this against the committed
//! trace-hash fixtures.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::supervisor::{supervise, RunFailure};

/// What a plan key must be able to do (everything the cache, the fan-out
/// and the supervisor's detached threads need). Blanket-implemented.
pub trait PlanKey: Clone + Eq + Hash + Send + Sync + std::fmt::Debug + 'static {}

impl<T: Clone + Eq + Hash + Send + Sync + std::fmt::Debug + 'static> PlanKey for T {}

/// A declarative, deduplicated set of work items in insertion order.
#[derive(Debug, Clone)]
pub struct Plan<K: PlanKey> {
    items: Vec<K>,
    seen: HashSet<K>,
}

impl<K: PlanKey> Default for Plan<K> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            seen: HashSet::new(),
        }
    }
}

impl<K: PlanKey> Plan<K> {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one item; returns `true` if it was new.
    pub fn add(&mut self, key: K) -> bool {
        let fresh = self.seen.insert(key.clone());
        if fresh {
            self.items.push(key);
        }
        fresh
    }

    /// Number of unique work items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the plan holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The unique items, in insertion order.
    pub fn items(&self) -> &[K] {
        &self.items
    }
}

/// Applies `f` to every item of `items` on up to `jobs` OS threads,
/// returning results in input order (never completion order).
///
/// Work is handed out through a shared atomic cursor, so threads stay busy
/// regardless of per-item cost skew. `jobs <= 1` (or a single item) runs
/// the plain serial loop — byte-for-byte the `--jobs 1` path, which the
/// equivalence tests compare the parallel path against. A panic on any
/// worker propagates out of the enclosing `std::thread::scope`.
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

/// One item the supervisor gave up on.
#[derive(Debug, Clone)]
pub struct FailedItem<K> {
    /// The work item's key.
    pub key: K,
    /// Why it has no result.
    pub failure: RunFailure,
}

/// `KEY: FAILURE` — the one rendering of a failed item every command
/// prints after its `FAILED` marker.
impl<K: std::fmt::Display> std::fmt::Display for FailedItem<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.key, self.failure)
    }
}

/// Coverage accounting for one [`Executor::execute`] call:
/// where every planned item's result came from, and which items have
/// none. The only account of the executor's work — it keeps no counters
/// of its own.
#[derive(Debug, Clone)]
pub struct ExecReport<K> {
    /// Unique items in the executed plan.
    pub planned: usize,
    /// Items already in the memo cache.
    pub memo_hits: u64,
    /// Items computed (successfully) this call.
    pub computed: u64,
    /// Items the supervisor gave up on — the coverage gap.
    pub failed: Vec<FailedItem<K>>,
}

impl<K> Default for ExecReport<K> {
    fn default() -> Self {
        Self {
            planned: 0,
            memo_hits: 0,
            computed: 0,
            failed: Vec::new(),
        }
    }
}

impl<K> ExecReport<K> {
    /// True when every planned item has a result.
    pub fn complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// Planned items that have a result (`planned - failed`).
    pub fn covered(&self) -> usize {
        self.planned - self.failed.len()
    }
}

/// The coverage line every command prints after `… planned — `:
/// `M memoized, C computed, F failed`.
impl<K> std::fmt::Display for ExecReport<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} memoized, {} computed, {} failed",
            self.memo_hits,
            self.computed,
            self.failed.len()
        )
    }
}

/// The generic parallel, memoizing, supervised executor.
///
/// `CellExecutor` (harness) is a thin instantiation: it chooses `K`/`V`,
/// provides the run function, and keeps its domain-specific
/// plan-building and assembly sugar.
pub struct Executor<K: PlanKey, V> {
    jobs: usize,
    run: Arc<dyn Fn(K) -> V + Send + Sync>,
    cache: Mutex<HashMap<K, V>>,
    deadline: Option<Duration>,
}

impl<K, V> Executor<K, V>
where
    K: PlanKey,
    V: Clone + Send + 'static,
{
    /// An executor fanning uncached work out across `jobs` OS threads,
    /// computing values with `run` — which must be a pure function of the
    /// key. With a `deadline`, an item still computing after that much
    /// wall-clock time fails as timed out.
    pub fn new(
        jobs: usize,
        deadline: Option<Duration>,
        run: impl Fn(K) -> V + Send + Sync + 'static,
    ) -> Self {
        Self {
            jobs: jobs.max(1),
            run: Arc::new(run),
            cache: Mutex::new(HashMap::new()),
            deadline,
        }
    }

    /// Resolves every item of `plan` — memo cache, then supervised
    /// compute — and returns the coverage report. The only way a value
    /// gets into the executor. Safe to call repeatedly and with
    /// overlapping plans. Never panics on a poisoned item: it lands in
    /// [`ExecReport::failed`] instead.
    pub fn execute(&self, plan: &Plan<K>) -> ExecReport<K> {
        let todo: Vec<K> = {
            let cache = self.cache.lock().expect("executor cache poisoned");
            plan.items()
                .iter()
                .filter(|key| !cache.contains_key(*key))
                .cloned()
                .collect()
        };
        let mut report = ExecReport {
            planned: plan.len(),
            memo_hits: (plan.len() - todo.len()) as u64,
            ..ExecReport::default()
        };
        if todo.is_empty() {
            return report;
        }
        let results = parallel_map(&todo, self.jobs, |key| {
            let run = self.run.clone();
            let key = key.clone();
            supervise(self.deadline, move || run(key))
        });
        let mut cache = self.cache.lock().expect("executor cache poisoned");
        for (key, outcome) in todo.into_iter().zip(results) {
            match outcome {
                Ok(v) => {
                    report.computed += 1;
                    cache.insert(key, v);
                }
                Err(failure) => report.failed.push(FailedItem { key, failure }),
            }
        }
        report
    }

    /// The value an earlier [`execute`](Self::execute) resolved for
    /// `key`, if any: the one read path (no compute).
    pub fn cached(&self, key: &K) -> Option<V> {
        self.cache
            .lock()
            .expect("executor cache poisoned")
            .get(key)
            .cloned()
    }
}

impl<K: PlanKey, V> std::fmt::Debug for Executor<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs)
            .field("cached", &self.cache.lock().map(|c| c.len()).unwrap_or(0))
            .field("deadline", &self.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct NumKey(u64);

    impl std::fmt::Display for NumKey {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "n{}", self.0)
        }
    }

    fn plan(range: std::ops::Range<u64>) -> Plan<NumKey> {
        let mut p = Plan::new();
        for n in range {
            p.add(NumKey(n));
        }
        p
    }

    #[test]
    fn plan_deduplicates() {
        let mut p = Plan::new();
        assert!(p.is_empty());
        assert!(p.add(NumKey(1)));
        assert!(!p.add(NumKey(1)));
        assert!(p.add(NumKey(2)));
        assert_eq!(p.len(), 2);
        assert_eq!(p.items(), &[NumKey(1), NumKey(2)]);
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
    fn executor_counts_hits_and_misses() {
        let exec: Executor<NumKey, u64> = Executor::new(2, None, |k: NumKey| k.0 * k.0);
        let p = plan(0..4);
        let report = exec.execute(&p);
        assert_eq!(report.planned, 4);
        assert_eq!(report.computed, 4);
        assert_eq!(report.memo_hits, 0);
        assert!(report.complete());
        // Re-executing the same plan computes nothing.
        let report = exec.execute(&p);
        assert_eq!(report.memo_hits, 4);
        assert_eq!(report.computed, 0);
        assert_eq!(exec.cached(&NumKey(3)), Some(9));
        // Nothing unplanned is ever resolved.
        assert_eq!(exec.cached(&NumKey(9)), None);
    }

    #[test]
    fn poisoned_item_degrades_into_partial_report() {
        let exec: Executor<NumKey, u64> = Executor::new(2, None, |k: NumKey| {
            if k.0 == 2 {
                panic!("poisoned cell {k:?}");
            }
            k.0
        });
        let report = exec.execute(&plan(0..4));
        assert!(!report.complete());
        assert_eq!(report.computed, 3);
        assert_eq!(report.covered(), 3);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].key, NumKey(2));
        assert!(matches!(report.failed[0].failure, RunFailure::Panicked(_)));
        // The healthy items are all there.
        assert_eq!(exec.cached(&NumKey(1)), Some(1));
        assert_eq!(exec.cached(&NumKey(2)), None);
    }

    #[test]
    fn timed_out_items_are_reported_not_recomputed() {
        let exec: Executor<NumKey, u64> =
            Executor::new(2, Some(Duration::from_millis(1)), |k: NumKey| {
                if k.0 % 2 == 1 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                k.0
            });
        let p = plan(0..4);
        let report = exec.execute(&p);
        // The sleepers always miss the deadline; a loaded host may make
        // the others miss it too, but no item is ever computed twice.
        assert_eq!(
            report.computed as usize + report.failed.len(),
            report.planned
        );
        for n in [1, 3] {
            assert!(
                report.failed.iter().any(|f| f.key == NumKey(n)),
                "{report:?}"
            );
        }
        assert!(report
            .failed
            .iter()
            .all(|f| matches!(f.failure, RunFailure::TimedOut { .. })));
        for f in &report.failed {
            assert_eq!(exec.cached(&f.key), None);
        }
    }

    #[test]
    fn report_renders_one_coverage_line() {
        let exec: Executor<NumKey, u64> = Executor::new(1, None, |k: NumKey| {
            assert!(k.0 != 3, "boom");
            k.0
        });
        exec.execute(&plan(0..2));
        let report = exec.execute(&plan(0..4));
        assert_eq!(report.to_string(), "2 memoized, 1 computed, 1 failed");
        assert_eq!(report.planned, 4);
        assert_eq!(report.failed[0].to_string(), "n3: panicked: boom");
    }
}
