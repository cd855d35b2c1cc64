//! The one generic plan/memoize/fan-out/supervise engine.
//!
//! PR 2 built a memoizing parallel executor for harness cells; PR 4
//! copied the pattern for scenarios. This module is the deduplication:
//! a [`Plan<K>`] is a deduplicated, insertion-ordered set of keys, and an
//! [`Executor<K, V>`] turns plans into values through three layers, in
//! order, plus an account of what is left:
//!
//! 1. **memo cache** — per-key results for the executor's lifetime
//!    (counted by [`Executor::hits`]),
//! 2. **disk store** — shards from previous processes, if a [`Store`] is
//!    attached (counted by [`Executor::disk_hits`]),
//! 3. **supervised compute** — the run function under retry/deadline/
//!    panic isolation (successes counted by [`Executor::misses`]),
//! 4. **failure accounting** — items that kept failing end up in the
//!    [`ExecReport`], so a sweep degrades into a partial report instead
//!    of aborting.
//!
//! Determinism: the run function is a pure function of the key, results
//! land in the cache keyed by their coordinates, and assembly order is
//! dictated by the caller — so any fan-out width, warm or cold store,
//! first run or resume, produces bit-identical values. The conformance
//! suite pins this against the committed trace-hash fixtures.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::persist::{Persist, StoreKey};
use crate::store::Store;
use crate::supervisor::{supervise, RunFailure, SupervisorConfig};

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
    /// The last failure observed.
    pub failure: RunFailure,
    /// Attempts consumed (1 + retries).
    pub attempts: u32,
}

/// Coverage accounting for one [`Executor::execute`] call: where every
/// planned item's result came from, and which items have none.
#[derive(Debug, Clone, Default)]
pub struct ExecReport<K> {
    /// Unique items in the executed plan.
    pub planned: usize,
    /// Items already in the memo cache.
    pub memo_hits: u64,
    /// Items served from the disk store.
    pub disk_hits: u64,
    /// Items computed locally (successfully) this call.
    pub computed: u64,
    /// Items the supervisor gave up on — the coverage gap.
    pub failed: Vec<FailedItem<K>>,
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

enum Source<V> {
    Disk(V),
    Computed(V),
    Failed(RunFailure, u32),
}

/// The generic parallel, memoizing, disk-warmed, supervised executor.
///
/// `CellExecutor` (harness) and `ScenarioExecutor` (scenario engine) are
/// thin instantiations: they choose `K`/`V`, provide the run function,
/// and keep their domain-specific plan-building and assembly sugar.
pub struct Executor<K: PlanKey + StoreKey, V> {
    jobs: usize,
    run: Arc<dyn Fn(K) -> V + Send + Sync>,
    cache: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    store: Option<Store>,
    supervisor: SupervisorConfig,
}

impl<K, V> Executor<K, V>
where
    K: PlanKey + StoreKey,
    V: Persist + Clone + Send + 'static,
{
    /// An executor fanning uncached work out across `jobs` OS threads,
    /// computing values with `run` — which must be a pure function of the
    /// key. No store, environment-default supervision.
    pub fn new(jobs: usize, run: impl Fn(K) -> V + Send + Sync + 'static) -> Self {
        Self {
            jobs: jobs.max(1),
            run: Arc::new(run),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            store: None,
            supervisor: SupervisorConfig::from_env(),
        }
    }

    /// Attaches a disk store: results load from it before computing and
    /// save to it after.
    pub fn with_store(mut self, store: Store) -> Self {
        self.store = Some(store);
        self
    }

    /// Overrides the supervision config (tests want fail-fast; the CLI
    /// wants the environment knobs).
    pub fn with_supervisor(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = cfg;
        self
    }

    /// The fan-out width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Resolves every item of `plan` — memo cache, then disk, then
    /// supervised compute — and returns the coverage report. Safe to call
    /// repeatedly and with overlapping plans. Never panics on a poisoned
    /// item: it lands in [`ExecReport::failed`] instead.
    pub fn execute(&self, plan: &Plan<K>) -> ExecReport<K> {
        let todo: Vec<K> = {
            let cache = self.cache.lock().expect("executor cache poisoned");
            plan.items()
                .iter()
                .filter(|key| !cache.contains_key(*key))
                .cloned()
                .collect()
        };
        let memo_hits = (plan.len() - todo.len()) as u64;
        self.hits.fetch_add(memo_hits, Ordering::Relaxed);
        let mut report = ExecReport {
            planned: plan.len(),
            memo_hits,
            disk_hits: 0,
            computed: 0,
            failed: Vec::new(),
        };
        if todo.is_empty() {
            return report;
        }
        let results = parallel_map(&todo, self.jobs, |key| self.resolve(key));
        let mut cache = self.cache.lock().expect("executor cache poisoned");
        for (key, outcome) in todo.into_iter().zip(results) {
            match outcome {
                Source::Disk(v) => {
                    report.disk_hits += 1;
                    cache.insert(key, v);
                }
                Source::Computed(v) => {
                    report.computed += 1;
                    cache.insert(key, v);
                }
                Source::Failed(failure, attempts) => report.failed.push(FailedItem {
                    key,
                    failure,
                    attempts,
                }),
            }
        }
        report
    }

    fn resolve(&self, key: &K) -> Source<V> {
        if let Some(store) = &self.store {
            if let Some(v) = store.load::<K, V>(key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Source::Disk(v);
            }
        }
        let run = self.run.clone();
        let k = key.clone();
        match supervise(&self.supervisor, move || run(k.clone())) {
            Ok(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(store) = &self.store {
                    store.save(key, &v);
                }
                Source::Computed(v)
            }
            Err((failure, attempts)) => Source::Failed(failure, attempts),
        }
    }

    /// The value for one key: memo cache, then disk, then an *inline,
    /// unsupervised* computation (serial assembly path — batch work
    /// belongs in a [`Plan`], and a panic here propagates like any other
    /// programming error).
    pub fn get(&self, key: K) -> V {
        if let Some(v) = self
            .cache
            .lock()
            .expect("executor cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        if let Some(store) = &self.store {
            if let Some(v) = store.load::<K, V>(&key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.cache
                    .lock()
                    .expect("executor cache poisoned")
                    .insert(key, v.clone());
                return v;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = (self.run)(key.clone());
        if let Some(store) = &self.store {
            store.save(&key, &v);
        }
        self.cache
            .lock()
            .expect("executor cache poisoned")
            .insert(key, v.clone());
        v
    }

    /// The memoized value for `key`, if present (no compute, no disk).
    pub fn cached(&self, key: &K) -> Option<V> {
        self.cache
            .lock()
            .expect("executor cache poisoned")
            .get(key)
            .cloned()
    }

    /// Memo-cache reads served without simulating.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Computations actually performed (after any sequence of plans this
    /// equals the number of unique keys resolved neither by the memo
    /// cache nor by the disk store).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Results served from the disk store instead of computing.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Number of memoized results.
    pub fn cached_len(&self) -> usize {
        self.cache.lock().expect("executor cache poisoned").len()
    }
}

impl<K: PlanKey + StoreKey, V> std::fmt::Debug for Executor<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs)
            .field("cached", &self.cache.lock().map(|c| c.len()).unwrap_or(0))
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("disk_hits", &self.disk_hits.load(Ordering::Relaxed))
            .field("store", &self.store)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{Json, ToJson};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct NumKey(u64);

    impl StoreKey for NumKey {
        const KIND: &'static str = "num";
        fn key_id(&self) -> String {
            format!("n{}", self.0)
        }
        fn key_json(&self) -> Json {
            Json::object([("n", self.0.to_json())])
        }
    }

    impl Persist for u64 {
        fn to_store_json(&self) -> Json {
            Json::object([("value", self.to_json())])
        }
        fn from_store_json(json: &Json) -> Result<Self, String> {
            json.get("value")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| "missing value".to_string())
        }
    }

    fn plan(range: std::ops::Range<u64>) -> Plan<NumKey> {
        let mut p = Plan::new();
        for n in range {
            p.add(NumKey(n));
        }
        p
    }

    fn squarer(jobs: usize) -> Executor<NumKey, u64> {
        Executor::new(jobs, |k: NumKey| k.0 * k.0)
            .with_supervisor(SupervisorConfig::fail_fast())
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
        let exec = squarer(2);
        let p = plan(0..4);
        let report = exec.execute(&p);
        assert_eq!(report.planned, 4);
        assert_eq!(report.computed, 4);
        assert!(report.complete());
        assert_eq!(exec.misses(), 4);
        assert_eq!(exec.hits(), 0);
        let report = exec.execute(&p);
        assert_eq!(report.memo_hits, 4);
        assert_eq!(report.computed, 0);
        assert_eq!(exec.misses(), 4);
        assert_eq!(exec.hits(), 4);
        assert_eq!(exec.get(NumKey(3)), 9);
        assert_eq!(exec.hits(), 5);
    }

    #[test]
    fn poisoned_item_degrades_into_partial_report() {
        let exec: Executor<NumKey, u64> = Executor::new(2, |k: NumKey| {
            if k.0 == 2 {
                panic!("poisoned cell {k:?}");
            }
            k.0
        })
        .with_supervisor(SupervisorConfig::fail_fast());
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
    fn disk_store_warms_a_second_executor() {
        let root = std::env::temp_dir().join(format!(
            "seer-store-exec-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);

        let cold = squarer(2).with_store(Store::open(&root));
        let report = cold.execute(&plan(0..5));
        assert_eq!(report.computed, 5);
        assert_eq!(report.disk_hits, 0);

        // A fresh executor over the same store computes nothing.
        let warm = squarer(2).with_store(Store::open(&root));
        let report = warm.execute(&plan(0..5));
        assert_eq!(report.computed, 0);
        assert_eq!(report.disk_hits, 5);
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.disk_hits(), 5);
        for n in 0..5 {
            assert_eq!(warm.get(NumKey(n)), n * n);
        }

        // get() also reaches through to disk for unplanned keys.
        let warm2 = squarer(1).with_store(Store::open(&root));
        assert_eq!(warm2.get(NumKey(4)), 16);
        assert_eq!(warm2.disk_hits(), 1);
        assert_eq!(warm2.misses(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_after_partial_failure_completes_the_plan() {
        let root = std::env::temp_dir().join(format!(
            "seer-store-resume-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);

        // First process: one poisoned item, the rest persist.
        let crashy: Executor<NumKey, u64> = Executor::new(2, |k: NumKey| {
            if k.0 == 1 {
                panic!("injected failure");
            }
            k.0 * 10
        })
        .with_supervisor(SupervisorConfig::fail_fast())
        .with_store(Store::open(&root));
        let report = crashy.execute(&plan(0..4));
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.computed, 3);

        // Resumed process (bug fixed): only the gap is computed.
        let resumed = Executor::new(2, |k: NumKey| k.0 * 10)
            .with_supervisor(SupervisorConfig::fail_fast())
            .with_store(Store::open(&root));
        let report = resumed.execute(&plan(0..4));
        assert!(report.complete());
        assert_eq!(report.disk_hits, 3);
        assert_eq!(report.computed, 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
