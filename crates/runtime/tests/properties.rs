//! Property-based tests of the DES driver's end-to-end invariants over
//! randomized synthetic workloads and schedulers.

use proptest::prelude::*;
use seer_runtime::model::{RegionUse, StampBlock, StampModel};
use seer_runtime::{run, DriverConfig, NullScheduler, RunMetrics};

fn arb_block() -> impl Strategy<Value = StampBlock> {
    (
        (0u64..10, 0u64..5), // shared reads: minimum, spread
        (0u64..6, 0u64..3),  // shared writes: minimum, spread
        0u64..3,             // region
        1u64..128,           // region lines
        0.0f64..1.5,         // zipf theta
        (1u64..8, 0u64..3),  // private reads, private writes (minimums)
    )
        .prop_map(
            |((r, rs), (w, ws), region, lines, theta, (pr, pw))| StampBlock {
                regions: vec![RegionUse {
                    region,
                    lines,
                    theta,
                    reads: (r, r + rs),
                    writes: (w, w + ws),
                }],
                private_reads: (pr, pr + 3),
                private_writes: (pw, pw + 1),
                spacing: (4, 16),
                think: (20, 120),
                ..StampBlock::default()
            },
        )
}

/// A program: its blocks and the transactions each thread runs.
#[derive(Debug, Clone)]
struct Program {
    blocks: Vec<StampBlock>,
    txs_per_thread: usize,
}

fn arb_program() -> impl Strategy<Value = Program> {
    (prop::collection::vec(arb_block(), 1..5), 5usize..40).prop_map(|(blocks, txs)| Program {
        blocks,
        txs_per_thread: txs,
    })
}

fn run_program(p: &Program, threads: usize, seed: u64, budget: u32) -> RunMetrics {
    let mut w = StampModel::new("prop", p.blocks.clone(), threads, p.txs_per_thread);
    let mut s = NullScheduler::new(budget);
    let mut cfg = DriverConfig::paper_machine(threads, seed);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(&mut w, &mut s, &cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Liveness + conservation: every issued transaction commits exactly
    /// once, whatever the contention pattern; the accounting identities
    /// hold between the metric families.
    #[test]
    fn all_work_commits_and_accounting_balances(
        program in arb_program(),
        threads in 1usize..8,
        seed in any::<u64>(),
        budget in 1u32..7,
    ) {
        let m = run_program(&program, threads, seed, budget);
        prop_assert!(!m.truncated);
        prop_assert_eq!(m.commits, (program.txs_per_thread * threads) as u64);
        // Mode tallies partition the commits.
        prop_assert_eq!(m.modes.total(), m.commits);
        // The attempts histogram partitions the commits too.
        let hist_total: u64 = m.attempts_histogram.iter().sum();
        prop_assert_eq!(hist_total, m.commits);
        // Conflict ground truth records at most one victim per conflict abort.
        prop_assert_eq!(m.ground_truth.total(), m.aborts.conflict);
        // Fall-backs appear in the last histogram bucket.
        prop_assert_eq!(*m.attempts_histogram.last().unwrap(), m.fallbacks);
        // A fall-back can only follow a full budget of aborts.
        prop_assert!(m.aborts.total() >= m.fallbacks * u64::from(budget));
    }

    /// Determinism: identical configuration => identical metrics.
    #[test]
    fn identical_runs_are_bit_identical(
        program in arb_program(),
        threads in 1usize..8,
        seed in any::<u64>(),
    ) {
        let a = run_program(&program, threads, seed, 5);
        let b = run_program(&program, threads, seed, 5);
        prop_assert_eq!(a.commits, b.commits);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.sequential_cycles, b.sequential_cycles);
        prop_assert_eq!(a.aborts.total(), b.aborts.total());
        prop_assert_eq!(a.wait_cycles, b.wait_cycles);
        prop_assert_eq!(a.modes, b.modes);
        prop_assert_eq!(a.trace_hash, b.trace_hash);
    }

    /// Read-only workloads never conflict, never fall back, and commit on
    /// the first attempt.
    #[test]
    fn read_only_is_conflict_free(
        threads in 1usize..8,
        seed in any::<u64>(),
        lines in 1u64..64,
    ) {
        let program = Program {
            blocks: vec![StampBlock {
                regions: vec![RegionUse {
                    region: 0,
                    lines,
                    theta: 0.0,
                    reads: (9, 10),
                    writes: (0, 0),
                }],
                private_reads: (2, 3),
                private_writes: (0, 0),
                spacing: (8, 24),
                think: (10, 60),
                ..StampBlock::default()
            }],
            txs_per_thread: 25,
        };
        let m = run_program(&program, threads, seed, 5);
        prop_assert_eq!(m.aborts.conflict, 0);
        prop_assert_eq!(m.fallbacks, 0);
        prop_assert_eq!(m.attempts_histogram[0], m.commits);
    }

    /// The sequential-cycle accumulator equals the sum of think + duration
    /// over the unscaled traces (single-thread run: makespan ≥ sequential
    /// because of HTM begin/commit overheads).
    #[test]
    fn single_thread_is_slower_than_sequential(program in arb_program(), seed in any::<u64>()) {
        let m = run_program(&program, 1, seed, 5);
        prop_assert!(m.makespan >= m.sequential_cycles,
            "1-thread HTM run cannot beat the raw sequential cost: {} < {}",
            m.makespan, m.sequential_cycles);
    }
}

// ---- canonical lock ordering ------------------------------------------

use seer_runtime::{AbortDecision, Gate, LockId, SchedEnv, Scheduler};

fn arb_lock() -> impl Strategy<Value = LockId> {
    (0u8..4, 0usize..8).prop_map(|(variant, idx)| match variant {
        0 => LockId::Sgl,
        1 => LockId::Aux,
        2 => LockId::Core(idx),
        _ => LockId::Tx(idx),
    })
}

fn class_rank(l: LockId) -> u8 {
    match l {
        LockId::Sgl => 0,
        LockId::Aux => 1,
        LockId::Core(_) => 2,
        LockId::Tx(_) => 3,
    }
}

/// A scheduler that demands a scrambled multi-lock set before every
/// attempt: the driver must canonicalize the order, so the run completes
/// without deadlock no matter how adversarial the list is.
struct ScrambledLocks {
    locks: Vec<LockId>,
    via_htm: bool,
}

impl Scheduler for ScrambledLocks {
    fn name(&self) -> &'static str {
        "scrambled-locks"
    }
    fn attempt_budget(&self) -> u32 {
        5
    }
    fn pre_attempt_gates(
        &mut self,
        _thread: usize,
        _block: usize,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        vec![
            Gate::ReleaseHeld,
            Gate::AcquireMany {
                locks: self.locks.clone(),
                via_htm: self.via_htm,
            },
        ]
    }
    fn on_abort(
        &mut self,
        _thread: usize,
        _block: usize,
        _status: seer_htm::XStatus,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        AbortDecision::Retry { gates: Vec::new() }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The derived `Ord` is the canonical deadlock-avoiding order:
    /// `Sgl < Aux < Core(_) < Tx(_)`, each class by index.
    #[test]
    fn lock_ordering_is_canonical(
        locks in prop::collection::vec(arb_lock(), 0..12),
        a in arb_lock(),
        b in arb_lock(),
    ) {
        let mut sorted = locks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for w in sorted.windows(2) {
            prop_assert!(class_rank(w[0]) <= class_rank(w[1]),
                "class order violated: {:?} before {:?}", w[0], w[1]);
            match (w[0], w[1]) {
                (LockId::Core(i), LockId::Core(j)) | (LockId::Tx(i), LockId::Tx(j)) => {
                    prop_assert!(i < j, "index order violated: {:?} before {:?}", w[0], w[1]);
                }
                _ => {}
            }
        }
        // Total, antisymmetric, consistent with equality.
        prop_assert_eq!(a == b, a.cmp(&b).is_eq());
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    /// Scrambled, duplicated, adversarially-ordered `AcquireMany` lists
    /// must never wedge the driver: it canonicalizes the order, so every
    /// transaction still commits.
    #[test]
    fn scrambled_multi_lock_acquisition_cannot_deadlock(
        locks in prop::collection::vec(arb_lock(), 1..6),
        via_htm in any::<bool>(),
        threads in 2usize..8,
        seed in any::<u64>(),
    ) {
        // Exclude the SGL (acquiring the fall-back lock as a scheduler lock
        // and then entering the fall-back path would double-acquire it) and
        // clamp indices to the lock bank's actual shape: 4 physical cores,
        // `blocks` transaction locks.
        let blocks = 4usize;
        let locks: Vec<LockId> = locks
            .into_iter()
            .filter(|l| *l != LockId::Sgl)
            .map(|l| match l {
                LockId::Core(i) => LockId::Core(i % 4),
                LockId::Tx(i) => LockId::Tx(i % blocks),
                other => other,
            })
            .collect();
        let block = StampBlock {
            regions: vec![RegionUse {
                region: 0,
                lines: 64,
                theta: 0.0,
                reads: (0, 1),
                writes: (0, 1),
            }],
            private_reads: (2, 3),
            private_writes: (2, 3),
            spacing: (8, 24),
            think: (10, 60),
            ..StampBlock::default()
        };
        let mut w = StampModel::new("scramble", vec![block; blocks], threads, 15);
        let mut s = ScrambledLocks { locks, via_htm };
        let mut cfg = DriverConfig::paper_machine(threads, seed);
        cfg.costs.async_abort_per_cycle = 0.0;
        let m = run(&mut w, &mut s, &cfg);
        prop_assert!(!m.truncated, "scrambled locks wedged the driver");
        prop_assert_eq!(m.commits, (15 * threads) as u64);
    }
}
