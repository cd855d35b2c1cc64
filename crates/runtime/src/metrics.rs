//! Run metrics: everything the paper's evaluation section reports.
//!
//! * [`TxMode`] — the transaction-mode taxonomy of Table 3 (HTM with no
//!   locks, with SCM's auxiliary lock, with Seer's transaction and/or core
//!   locks, or the SGL fall-back).
//! * [`RunMetrics`] — commits/aborts by cause and mode, attempt
//!   distribution, wait time, the sequential-execution cost used as the
//!   speedup denominator, and fine-granularity lock statistics (§5.2's
//!   "fraction of transaction locks acquired").
//! * [`ConflictGroundTruth`] — the simulator's private record of who
//!   actually killed whom, per atomic-block pair. Never exposed to a
//!   scheduler; used by the `accuracy` experiment to score Seer's
//!   probabilistic inference against reality.

use seer_sim::{CycleHistogram, Cycles};

use crate::workload::BlockId;

/// How a committed transaction instance executed (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxMode {
    /// Hardware transaction, no scheduler locks held.
    HtmNoLocks,
    /// Hardware transaction under SCM's auxiliary lock.
    HtmAuxLock,
    /// Hardware transaction holding Seer transaction lock(s).
    HtmTxLocks,
    /// Hardware transaction holding a Seer core lock.
    HtmCoreLock,
    /// Hardware transaction holding both transaction and core locks.
    HtmTxAndCoreLocks,
    /// Single-global-lock fall-back path.
    SglFallback,
}

impl TxMode {
    /// All modes, in Table 3 presentation order.
    pub const ALL: [TxMode; 6] = [
        TxMode::HtmNoLocks,
        TxMode::HtmAuxLock,
        TxMode::HtmTxLocks,
        TxMode::HtmCoreLock,
        TxMode::HtmTxAndCoreLocks,
        TxMode::SglFallback,
    ];

    /// Table-style label.
    pub fn label(self) -> &'static str {
        match self {
            TxMode::HtmNoLocks => "HTM no locks",
            TxMode::HtmAuxLock => "HTM + Aux lock",
            TxMode::HtmTxLocks => "HTM + Tx Locks",
            TxMode::HtmCoreLock => "HTM + Core Locks",
            TxMode::HtmTxAndCoreLocks => "HTM + Tx + Core Locks",
            TxMode::SglFallback => "SGL fall-back",
        }
    }

    fn index(self) -> usize {
        match self {
            TxMode::HtmNoLocks => 0,
            TxMode::HtmAuxLock => 1,
            TxMode::HtmTxLocks => 2,
            TxMode::HtmCoreLock => 3,
            TxMode::HtmTxAndCoreLocks => 4,
            TxMode::SglFallback => 5,
        }
    }
}

/// Counts of committed transactions per execution mode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeCounts {
    counts: [u64; 6],
}

impl ModeCounts {
    /// Records one commit in `mode`.
    pub fn record(&mut self, mode: TxMode) {
        self.counts[mode.index()] += 1;
    }

    /// Commits in `mode`.
    pub fn get(&self, mode: TxMode) -> u64 {
        self.counts[mode.index()]
    }

    /// Total commits across modes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of commits in `mode` (0 when empty).
    pub fn fraction(&self, mode: TxMode) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(mode) as f64 / total as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ModeCounts) {
        for i in 0..6 {
            self.counts[i] += other.counts[i];
        }
    }
}

/// Abort tallies by coarse cause (what `XStatus` distinguishes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortCounts {
    /// Data-conflict aborts.
    pub conflict: u64,
    /// Capacity-overflow aborts (read or write set).
    pub capacity: u64,
    /// Explicit aborts (SGL subscription).
    pub explicit: u64,
    /// Asynchronous-event aborts (no cause bits).
    pub other: u64,
}

impl AbortCounts {
    /// Total aborts.
    pub fn total(&self) -> u64 {
        self.conflict + self.capacity + self.explicit + self.other
    }
}

/// Ground-truth conflict record: `kills[victim][killer]` counts how many
/// times an instance of atomic block `killer` actually aborted an instance
/// of block `victim`. This is the oracle Seer cannot see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGroundTruth {
    blocks: usize,
    kills: Vec<u64>,
}

impl ConflictGroundTruth {
    /// A zeroed matrix over `blocks` atomic blocks.
    pub fn new(blocks: usize) -> Self {
        Self {
            blocks,
            kills: vec![0; blocks * blocks],
        }
    }

    /// Records that an instance of `killer` aborted an instance of `victim`.
    pub fn record(&mut self, victim: BlockId, killer: BlockId) {
        self.kills[victim * self.blocks + killer] += 1;
    }

    /// Number of atomic blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Kill count for the (victim, killer) pair.
    pub fn get(&self, victim: BlockId, killer: BlockId) -> u64 {
        self.kills[victim * self.blocks + killer]
    }

    /// Total recorded kills.
    pub fn total(&self) -> u64 {
        self.kills.iter().sum()
    }

    /// Pairs `(victim, killer)` responsible for at least `fraction` of all
    /// kills of that victim — the "real" conflict relations to compare
    /// against Seer's inferred locking scheme.
    pub fn significant_pairs(&self, min_kills: u64) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::new();
        for v in 0..self.blocks {
            for k in 0..self.blocks {
                if self.get(v, k) >= min_kills {
                    out.push((v, k));
                }
            }
        }
        out
    }
}

/// Everything measured over one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Committed transaction instances.
    pub commits: u64,
    /// Commits by execution mode (Table 3).
    pub modes: ModeCounts,
    /// Aborts by coarse cause.
    pub aborts: AbortCounts,
    /// Total hardware attempts started.
    pub htm_attempts: u64,
    /// Times the SGL fall-back path was taken.
    pub fallbacks: u64,
    /// Commits indexed by the number of hardware attempts consumed
    /// (index 0 = first-attempt commit; last index = fall-back).
    pub attempts_histogram: Vec<u64>,
    /// Virtual cycles threads spent parked on locks or watch-waits.
    pub wait_cycles: Cycles,
    /// Distribution of individual park durations (log₂ buckets).
    pub wait_histogram: CycleHistogram,
    /// Makespan: virtual time when the last thread finished.
    pub makespan: Cycles,
    /// Cost of the same work executed sequentially, non-instrumented
    /// (speedup denominator, as in the paper's Figure 3).
    pub sequential_cycles: Cycles,
    /// Events where a thread acquired at least one Seer transaction lock,
    /// paired with how many locks it took (for §5.2's granularity stat).
    pub tx_lock_acquisitions: Vec<u32>,
    /// Number of transaction locks that exist (denominator for the above).
    pub tx_locks_available: usize,
    /// Ground truth of who killed whom (simulator-private oracle).
    pub ground_truth: ConflictGroundTruth,
    /// True when the run hit the event safety valve before completing.
    pub truncated: bool,
    /// Total DES events dispatched by the driver's main loop — the
    /// denominator for the bench harness's events/sec throughput figures.
    pub events: u64,
    /// Digest of the run's entire event schedule in execution order (from
    /// [`seer_sim::EventQueue::trace_hash`]). Two runs of the same
    /// (workload, scheduler, config, seed) must report identical hashes;
    /// the conformance suite's replay fixtures pin selected values.
    pub trace_hash: u64,
}

impl RunMetrics {
    /// Fresh metrics for a run over `blocks` atomic blocks with the given
    /// attempt budget.
    pub fn new(blocks: usize, budget: u32, tx_locks_available: usize) -> Self {
        Self {
            commits: 0,
            modes: ModeCounts::default(),
            aborts: AbortCounts::default(),
            htm_attempts: 0,
            fallbacks: 0,
            attempts_histogram: vec![0; budget as usize + 1],
            wait_cycles: 0,
            wait_histogram: CycleHistogram::new(),
            makespan: 0,
            sequential_cycles: 0,
            tx_lock_acquisitions: Vec::new(),
            tx_locks_available,
            ground_truth: ConflictGroundTruth::new(blocks),
            truncated: false,
            events: 0,
            trace_hash: 0,
        }
    }

    /// Checks the conservation laws that must hold at the end of any
    /// non-truncated run, regardless of workload or scheduler. Returns the
    /// list of violated laws (empty = all hold).
    ///
    /// The laws, and what each one pins down:
    ///
    /// 1. **Modes partition commits** — every committed transaction is
    ///    classified in exactly one Table 3 mode.
    /// 2. **Attempt histogram partitions commits** — every commit consumed
    ///    a definite number of hardware attempts (or fell back).
    /// 3. **Fall-backs fill the last histogram bucket, and only it** —
    ///    `fallbacks`, SGL-mode commits, and the final bucket are three
    ///    counters for the same set of transactions.
    /// 4. **Ground truth matches conflict aborts** — the simulator's
    ///    private kill matrix records exactly one (victim, killer) pair per
    ///    conflict abort.
    /// 5. **Attempt accounting** — every hardware attempt ends in exactly
    ///    one of: an HTM commit (a commit in any non-SGL mode) or an abort,
    ///    so `htm_attempts = (commits − fallbacks) + total aborts`.
    pub fn check_conservation(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut check = |ok: bool, law: String| {
            if !ok {
                violations.push(law);
            }
        };
        check(
            self.modes.total() == self.commits,
            format!(
                "modes must partition commits: {} != {}",
                self.modes.total(),
                self.commits
            ),
        );
        let hist_total: u64 = self.attempts_histogram.iter().sum();
        check(
            hist_total == self.commits,
            format!(
                "attempt histogram must partition commits: {hist_total} != {}",
                self.commits
            ),
        );
        let last_bucket = self.attempts_histogram.last().copied().unwrap_or(0);
        check(
            last_bucket == self.fallbacks,
            format!(
                "last histogram bucket must equal fallbacks: {last_bucket} != {}",
                self.fallbacks
            ),
        );
        check(
            self.modes.get(TxMode::SglFallback) == self.fallbacks,
            format!(
                "SGL-mode commits must equal fallbacks: {} != {}",
                self.modes.get(TxMode::SglFallback),
                self.fallbacks
            ),
        );
        check(
            self.ground_truth.total() == self.aborts.conflict,
            format!(
                "ground-truth kills must equal conflict aborts: {} != {}",
                self.ground_truth.total(),
                self.aborts.conflict
            ),
        );
        check(
            self.htm_attempts == (self.commits - self.fallbacks) + self.aborts.total(),
            format!(
                "attempts must balance commits + aborts: {} != ({} - {}) + {}",
                self.htm_attempts,
                self.commits,
                self.fallbacks,
                self.aborts.total()
            ),
        );
        violations
    }

    /// Speedup over the sequential non-instrumented execution.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.sequential_cycles as f64 / self.makespan as f64
        }
    }

    /// Aborts per commit — the contention signal.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts.total() as f64 / self.commits as f64
        }
    }

    /// Fraction of commits that used the SGL fall-back.
    pub fn fallback_fraction(&self) -> f64 {
        self.modes.fraction(TxMode::SglFallback)
    }

    /// Median fraction of available transaction locks taken per
    /// lock-acquiring transaction (§5.2 reports: "in 50% of the cases …
    /// lower than 23% of the globally available transaction locks").
    pub fn median_tx_lock_fraction(&self) -> Option<f64> {
        if self.tx_lock_acquisitions.is_empty() || self.tx_locks_available == 0 {
            return None;
        }
        let mut v = self.tx_lock_acquisitions.clone();
        v.sort_unstable();
        let mid = v[v.len() / 2];
        Some(f64::from(mid) / self.tx_locks_available as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_counts_roundtrip() {
        let mut m = ModeCounts::default();
        m.record(TxMode::HtmNoLocks);
        m.record(TxMode::HtmNoLocks);
        m.record(TxMode::SglFallback);
        assert_eq!(m.get(TxMode::HtmNoLocks), 2);
        assert_eq!(m.get(TxMode::SglFallback), 1);
        assert_eq!(m.total(), 3);
        assert!((m.fraction(TxMode::HtmNoLocks) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mode_counts_merge() {
        let mut a = ModeCounts::default();
        a.record(TxMode::HtmTxLocks);
        let mut b = ModeCounts::default();
        b.record(TxMode::HtmTxLocks);
        b.record(TxMode::HtmCoreLock);
        a.merge(&b);
        assert_eq!(a.get(TxMode::HtmTxLocks), 2);
        assert_eq!(a.get(TxMode::HtmCoreLock), 1);
    }

    #[test]
    fn empty_fraction_is_zero() {
        let m = ModeCounts::default();
        assert_eq!(m.fraction(TxMode::SglFallback), 0.0);
    }

    #[test]
    fn ground_truth_matrix() {
        let mut g = ConflictGroundTruth::new(3);
        g.record(0, 2);
        g.record(0, 2);
        g.record(1, 0);
        assert_eq!(g.get(0, 2), 2);
        assert_eq!(g.get(1, 0), 1);
        assert_eq!(g.get(2, 1), 0);
        assert_eq!(g.total(), 3);
        assert_eq!(g.significant_pairs(2), vec![(0, 2)]);
    }

    #[test]
    fn speedup_and_ratios() {
        let mut m = RunMetrics::new(2, 5, 2);
        m.sequential_cycles = 1000;
        m.makespan = 250;
        m.commits = 10;
        m.aborts.conflict = 5;
        assert!((m.speedup() - 4.0).abs() < 1e-12);
        assert!((m.abort_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn median_lock_fraction() {
        let mut m = RunMetrics::new(2, 5, 10);
        assert_eq!(m.median_tx_lock_fraction(), None);
        m.tx_lock_acquisitions = vec![1, 2, 3, 4, 9];
        assert_eq!(m.median_tx_lock_fraction(), Some(0.3));
    }

    #[test]
    fn zero_makespan_guard() {
        let m = RunMetrics::new(1, 5, 0);
        assert_eq!(m.speedup(), 0.0);
        assert_eq!(m.abort_ratio(), 0.0);
    }

    #[test]
    fn mode_labels_are_distinct() {
        let mut labels: Vec<_> = TxMode::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
