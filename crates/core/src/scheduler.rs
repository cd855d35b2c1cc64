//! The Seer scheduler — Algorithms 1–5 of the paper, implemented against
//! the `seer-runtime` scheduler interface.
//!
//! Mapping from the paper's pseudocode to this module:
//!
//! | Paper | Here |
//! |---|---|
//! | Alg. 1 line 5 (announce in `activeTxs`) | [`Seer::on_tx_start`] |
//! | Alg. 1 line 8 / Alg. 4 `WAIT-Seer-LOCKS` | [`Seer::pre_attempt_gates`] + [`Seer::on_sgl_wait`] |
//! | Alg. 1 line 16 / Alg. 3 `REGISTER-ABORT` | [`Seer::on_abort`] |
//! | Alg. 1 line 19 `RELEASE-Seer-LOCKS` | driver releases held locks on fall-back entry |
//! | Alg. 2 line 28 / Alg. 3 `REGISTER-COMMIT` | [`Seer::on_htm_commit`] |
//! | Alg. 4 `ACQUIRE-Seer-LOCKS` | the gates returned by [`Seer::on_abort`] |
//! | Alg. 4 lines 52–54 (opportunistic update + tuning) | [`Seer::on_sgl_wait`] (thread 0) |
//! | Alg. 5 `UPDATE-Seer-LOCKS` | [`Seer::force_update`] via `inference` + `locktable` |
//!
//! One deliberate deviation, documented in `DESIGN.md`: when a thread must
//! add a lock to an already-held set (e.g. a capacity abort striking after
//! transaction locks were acquired), it releases its Seer locks and
//! re-acquires the union in canonical order. The paper's pseudocode
//! acquires incrementally in program order, which can deadlock two threads
//! acquiring in opposite orders; a deterministic simulator (unlike a noisy
//! real machine) *will* hit that interleaving eventually, so the
//! reproduction uses the classical ordered-acquisition discipline instead.

use seer_htm::XStatus;
use seer_runtime::trace::{InferenceTrace, TraceSink};
use seer_runtime::{AbortDecision, BlockId, Gate, HookPoint, LockId, SchedEnv, Scheduler};
use seer_sim::{Cycles, ThreadId};

use crate::active::ActiveTxs;
use crate::config::SeerConfig;
use crate::hillclimb::HillClimber;
use crate::inference::{infer_conflict_pairs, InferenceScratch, Thresholds};
use crate::locktable::LockTable;
use crate::stats::MergedStats;

/// Counters describing Seer's internal activity over a run (not part of
/// the paper's tables; used by tests, the accuracy experiment and docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeerCounters {
    /// Lock-scheme recomputations performed.
    pub updates: u64,
    /// Hill-climbing evaluations performed.
    pub climb_steps: u64,
    /// Commit registrations.
    pub commits_registered: u64,
    /// Abort registrations.
    pub aborts_registered: u64,
}

/// The Seer scheduler (one global instance governs all threads).
#[derive(Debug, Clone)]
pub struct Seer {
    cfg: SeerConfig,
    threads: usize,
    blocks: usize,
    active: ActiveTxs,
    merged: MergedStats,
    table: LockTable,
    climber: HillClimber,
    thresholds: Thresholds,
    acquired_tx_locks: Vec<bool>,
    acquired_core_lock: Vec<bool>,
    total_execs: u64,
    execs_at_last_update: u64,
    execs_at_last_climb: u64,
    commits_in_window: u64,
    window_start: Cycles,
    counters: SeerCounters,
    /// Virtual time of the last in-run recomputation that changed the
    /// table (see [`Seer::converged_at`]).
    last_change: Option<Cycles>,
    /// Reused buffer for the concurrent-blocks scan performed on every
    /// commit/abort registration — the hottest Seer path, so it
    /// must not allocate per event.
    scan_buf: Vec<BlockId>,
    /// Reused buffers of the Alg. 5 round, so a steady-state untraced
    /// update allocates nothing.
    scratch: InferenceScratch,
}

impl Seer {
    /// A Seer instance for a program with `blocks` atomic blocks executed
    /// by `threads` threads.
    pub fn new(cfg: SeerConfig, threads: usize, blocks: usize) -> Self {
        assert!(threads > 0 && blocks > 0);
        let climber = HillClimber::new();
        Self {
            thresholds: climber.thresholds(),
            climber,
            cfg,
            threads,
            blocks,
            active: ActiveTxs::new(threads),
            merged: MergedStats::new(blocks),
            table: LockTable::new(blocks),
            acquired_tx_locks: vec![false; threads],
            acquired_core_lock: vec![false; threads],
            total_execs: 0,
            execs_at_last_update: 0,
            execs_at_last_climb: 0,
            commits_in_window: 0,
            window_start: 0,
            counters: SeerCounters::default(),
            last_change: None,
            scan_buf: Vec::new(),
            scratch: InferenceScratch::default(),
        }
    }

    /// Scans the blocks concurrently announced by other threads into the
    /// reused `scan_buf` (sorted, deduplicated — see the comment in
    /// [`Seer::on_abort`] for why registration is per-block, not
    /// per-instance).
    fn scan_concurrent(&mut self, thread: ThreadId) {
        self.scan_buf.clear();
        self.scan_buf.extend(self.active.scan_others(thread));
        self.scan_buf.sort_unstable();
        self.scan_buf.dedup();
    }

    /// Convenience constructor with the full (headline) configuration.
    pub fn full(threads: usize, blocks: usize) -> Self {
        Self::new(SeerConfig::full(), threads, blocks)
    }

    /// Current inference thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Read access to the current locking scheme.
    pub fn lock_table(&self) -> &LockTable {
        &self.table
    }

    /// Internal activity counters.
    pub fn counters(&self) -> SeerCounters {
        self.counters
    }

    /// Virtual time at which the locking scheme last *changed* in the
    /// run, if it ever did — the convergence point of the inference.
    /// (`force_update` calls made by external code are not recorded.)
    pub fn converged_at(&self) -> Option<Cycles> {
        self.last_change
    }

    /// The statistics matrices every registration writes.
    pub fn merged_stats(&self) -> &MergedStats {
        &self.merged
    }

    /// Serialized pairs currently in force, as `(x, y)` with `y` in `x`'s
    /// lock row — the inferred conflict relation the `accuracy` experiment
    /// scores against the simulator's ground truth.
    pub fn inferred_pairs(&self) -> Vec<(BlockId, BlockId)> {
        (0..self.blocks)
            .flat_map(|x| self.table.row(x).iter().map(move |&y| (x, y)))
            .collect()
    }

    /// UPDATE-Seer-LOCKS (Alg. 5): recompute the conflict pairs from the
    /// statistics under the current thresholds, swap the table.
    pub fn force_update(&mut self) {
        self.update_with_trace(None);
    }

    /// The update, optionally emitting one [`InferenceTrace`] to `sink`
    /// stamped with virtual time `now`. The traced and untraced paths run
    /// the same inference round, so the emitted verdicts are the
    /// decisions, not a reconstruction.
    fn update_with_trace(&mut self, trace: Option<(&mut dyn TraceSink, Cycles)>) {
        let th = self.thresholds;
        let pairs = match trace {
            Some((sink, now)) if sink.enabled() => {
                let digest = self.merged.digest();
                let mut rows = Vec::with_capacity(self.blocks);
                let pairs = infer_conflict_pairs(
                    &self.merged,
                    th,
                    &mut self.scratch,
                    Some(&mut |r| rows.push(r)),
                );
                sink.inference(InferenceTrace {
                    round: self.counters.updates + 1,
                    at: now,
                    stats_digest: digest,
                    th1: th.th1,
                    th2: th.th2,
                    total_execs: self.total_execs,
                    rows,
                });
                pairs
            }
            _ => infer_conflict_pairs(&self.merged, th, &mut self.scratch, None),
        };
        self.table.rebuild(pairs);
        self.counters.updates += 1;
        self.execs_at_last_update = self.total_execs;
        if let Some(every) = self.cfg.decay_every_updates {
            if self.counters.updates.is_multiple_of(every) {
                self.merged.decay();
            }
        }
    }

    /// Cheap content fingerprint of the lock table (for change detection).
    fn table_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in 0..self.blocks {
            for &y in self.table.row(x) {
                h ^= (x as u64) << 32 | y as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    fn maybe_update(&mut self, env: &mut SchedEnv<'_>) {
        if self.total_execs - self.execs_at_last_update >= self.cfg.update_period_execs {
            let before = self.table_checksum();
            let now = env.now;
            self.update_with_trace(Some((&mut *env.trace, now)));
            if self.table_checksum() != before {
                self.last_change = Some(env.now);
            }
        }
        if self.cfg.hill_climbing
            && self.total_execs - self.execs_at_last_climb >= self.cfg.climb_period_execs
        {
            let elapsed = env.now.saturating_sub(self.window_start);
            if elapsed > 0 {
                let throughput = self.commits_in_window as f64 / elapsed as f64;
                self.thresholds = self.climber.observe(throughput, env.rng);
                self.counters.climb_steps += 1;
            }
            self.commits_in_window = 0;
            self.window_start = env.now;
            self.execs_at_last_climb = self.total_execs;
        }
    }

    /// The set of Seer locks `thread` should hold, given its flags plus the
    /// newly wanted classes.
    fn wanted_locks(
        &self,
        thread: ThreadId,
        block: BlockId,
        want_core: bool,
        want_tx: bool,
        env: &SchedEnv<'_>,
    ) -> Vec<LockId> {
        let mut locks = Vec::new();
        if want_core || self.acquired_core_lock[thread] {
            locks.push(LockId::Core(env.topology.core_of(thread)));
        }
        if want_tx || self.acquired_tx_locks[thread] {
            locks.extend(self.table.row(block).iter().map(|&y| LockId::Tx(y)));
        }
        locks
    }
}

impl Scheduler for Seer {
    fn name(&self) -> &'static str {
        "Seer"
    }

    fn attempt_budget(&self) -> u32 {
        self.cfg.budget
    }

    fn on_tx_start(&mut self, thread: ThreadId, block: BlockId, _env: &mut SchedEnv<'_>) {
        // Alg. 1 lines 2-5: reset flags, announce the transaction.
        self.acquired_tx_locks[thread] = false;
        self.acquired_core_lock[thread] = false;
        self.active.announce(thread, block);
    }

    fn pre_attempt_gates(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        let mut gates = Vec::new();
        self.pre_attempt_gates_into(thread, block, attempts_left, env, &mut gates);
        gates
    }

    fn pre_attempt_gates_into(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        _attempts_left: u32,
        env: &mut SchedEnv<'_>,
        gates: &mut Vec<Gate>,
    ) {
        // WAIT-Seer-LOCKS (Alg. 4 lines 50-58).
        gates.push(Gate::WaitWhileLocked(LockId::Sgl));
        if self.cfg.tx_locks && !self.acquired_tx_locks[thread] {
            gates.push(Gate::WaitWhileLocked(LockId::Tx(block)));
        }
        if self.cfg.core_locks && !self.acquired_core_lock[thread] {
            gates.push(Gate::WaitWhileLocked(LockId::Core(
                env.topology.core_of(thread),
            )));
        }
    }

    fn on_abort(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        status: XStatus,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        // REGISTER-ABORT (Alg. 3 lines 33-37). The scan is deduplicated
        // per atomic block: the paper's probability definitions
        // (P(x aborts ∧ x‖y) = a_xy / e_x) only stay probabilities if a_xy
        // counts *events in which some instance of y was active*, not
        // active instances — with 8 threads running one hot block, the
        // per-instance reading pushes the "probability" past 1 and washes
        // out Th1's discriminating power.
        self.scan_concurrent(thread);
        self.merged.add_abort(block, self.scan_buf.iter().copied());
        self.total_execs += 1;
        self.counters.aborts_registered += 1;

        if attempts_left == 0 {
            // Budget exhausted: the driver takes the fall-back; it releases
            // our locks first (RELEASE-Seer-LOCKS, Alg. 1 line 19).
            self.acquired_tx_locks[thread] = false;
            self.acquired_core_lock[thread] = false;
            return AbortDecision::Fallback;
        }

        // ACQUIRE-Seer-LOCKS (Alg. 4 lines 43-49).
        let want_core =
            self.cfg.core_locks && status.is_capacity() && !self.acquired_core_lock[thread];
        let want_tx = self.cfg.tx_locks
            && attempts_left == 1
            && !self.acquired_tx_locks[thread]
            && !self.table.row(block).is_empty();

        if !want_core && !want_tx {
            return AbortDecision::Retry { gates: Vec::new() };
        }

        let holding_any = self.acquired_tx_locks[thread] || self.acquired_core_lock[thread];
        let locks = self.wanted_locks(thread, block, want_core, want_tx, env);
        if want_core {
            self.acquired_core_lock[thread] = true;
        }
        if want_tx {
            self.acquired_tx_locks[thread] = true;
        }
        let acquire = Gate::AcquireMany {
            via_htm: self.cfg.htm_lock_acquisition,
            locks,
        };
        let gates = if holding_any {
            // Ordered re-acquisition of the union (see module docs).
            vec![Gate::ReleaseHeld, acquire]
        } else {
            vec![acquire]
        };
        AbortDecision::Retry { gates }
    }

    fn on_htm_commit(&mut self, thread: ThreadId, block: BlockId, _env: &mut SchedEnv<'_>) {
        // REGISTER-COMMIT (Alg. 3 lines 38-42) + activeTxs removal
        // (Alg. 2), deduplicated like REGISTER-ABORT.
        self.scan_concurrent(thread);
        self.merged.add_commit(block, self.scan_buf.iter().copied());
        self.total_execs += 1;
        self.counters.commits_registered += 1;
        self.commits_in_window += 1;
        self.active.clear(thread);
        self.acquired_tx_locks[thread] = false;
        self.acquired_core_lock[thread] = false;
    }

    fn on_fallback_commit(&mut self, thread: ThreadId, _block: BlockId, _env: &mut SchedEnv<'_>) {
        // Alg. 2: the fall-back path does not register statistics (xtest()
        // is false); it only clears the announcement.
        self.commits_in_window += 1;
        self.active.clear(thread);
        self.acquired_tx_locks[thread] = false;
        self.acquired_core_lock[thread] = false;
    }

    fn on_sgl_wait(&mut self, thread: ThreadId, env: &mut SchedEnv<'_>) {
        // Alg. 4 lines 52-54: one designated thread exploits the wait to
        // refresh the locking scheme and tune the thresholds.
        if thread == 0 {
            self.maybe_update(env);
        }
    }

    fn on_periodic(&mut self, env: &mut SchedEnv<'_>) {
        // Robustness trigger for workloads that (thanks to Seer) almost
        // never take the fall-back; see DESIGN.md.
        self.maybe_update(env);
    }

    fn overhead(&self, point: HookPoint) -> Cycles {
        let c = &self.cfg.costs;
        match point {
            HookPoint::TxStart => c.announce,
            HookPoint::Abort | HookPoint::HtmCommit => {
                c.register_fixed + c.scan_per_slot * self.threads as Cycles
            }
            HookPoint::FallbackCommit => c.announce,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::LockBank;
    use seer_sim::{SimRng, Topology};

    fn env<'a>(bank: &'a LockBank, rng: &'a mut SimRng) -> SchedEnv<'a> {
        SchedEnv {
            now: 1000,
            locks: bank,
            topology: Topology::haswell_e3(),
            rng,
            // Zero-sized, so the leak is free.
            trace: Box::leak(Box::new(seer_runtime::NullTraceSink)),
        }
    }

    #[test]
    fn announces_and_clears_active() {
        let mut s = Seer::full(4, 3);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(1, 2, &mut e);
        assert_eq!(s.active.get(1), Some(2));
        s.on_htm_commit(1, 2, &mut e);
        assert_eq!(s.active.get(1), None);
    }

    #[test]
    fn abort_registration_scans_concurrent() {
        let mut s = Seer::full(3, 4);
        let bank = LockBank::new(4, 4);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 1, &mut e);
        s.on_tx_start(1, 2, &mut e);
        s.on_tx_start(2, 3, &mut e);
        s.on_abort(0, 1, XStatus::conflict(), 4, &mut e);
        let m = s.merged_stats();
        assert_eq!(m.a(1, 2), 1);
        assert_eq!(m.a(1, 3), 1);
        assert_eq!(m.a(1, 1), 0);
        assert_eq!(m.e(1), 1);
    }

    #[test]
    fn wait_gates_follow_paper_guards() {
        let mut s = Seer::full(4, 3);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        let gates = s.pre_attempt_gates(1, 2, 5, &mut e);
        assert_eq!(
            gates,
            vec![
                Gate::WaitWhileLocked(LockId::Sgl),
                Gate::WaitWhileLocked(LockId::Tx(2)),
                Gate::WaitWhileLocked(LockId::Core(1)),
            ]
        );
        // Once the thread holds tx locks, it no longer waits on its own.
        s.acquired_tx_locks[1] = true;
        let gates = s.pre_attempt_gates(1, 2, 5, &mut e);
        assert_eq!(
            gates,
            vec![
                Gate::WaitWhileLocked(LockId::Sgl),
                Gate::WaitWhileLocked(LockId::Core(1)),
            ]
        );
    }

    #[test]
    fn capacity_abort_takes_core_lock() {
        let mut s = Seer::full(8, 3);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(5, 0, &mut e);
        let d = s.on_abort(5, 0, XStatus::capacity(), 4, &mut e);
        match d {
            AbortDecision::Retry { gates } => {
                assert_eq!(
                    gates,
                    vec![Gate::AcquireMany {
                        locks: vec![LockId::Core(1)], // thread 5 -> core 1
                        via_htm: true,
                    }]
                );
            }
            AbortDecision::Fallback => panic!(),
        }
        assert!(s.acquired_core_lock[5]);
        // A second capacity abort does not re-acquire.
        let d = s.on_abort(5, 0, XStatus::capacity(), 3, &mut e);
        assert_eq!(d, AbortDecision::Retry { gates: vec![] });
    }

    #[test]
    fn last_attempt_takes_inferred_tx_locks() {
        let mut s = Seer::full(2, 3);
        s.table.rebuild(&[(0, 2)]);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 0, &mut e);
        // Not the last attempt: no tx locks yet.
        let d = s.on_abort(0, 0, XStatus::conflict(), 2, &mut e);
        assert_eq!(d, AbortDecision::Retry { gates: vec![] });
        // Last attempt: acquire the row of block 0 = {Tx(2)}.
        let d = s.on_abort(0, 0, XStatus::conflict(), 1, &mut e);
        match d {
            AbortDecision::Retry { gates } => assert_eq!(
                gates,
                vec![Gate::AcquireMany {
                    locks: vec![LockId::Tx(2)],
                    via_htm: true,
                }]
            ),
            AbortDecision::Fallback => panic!(),
        }
        assert!(s.acquired_tx_locks[0]);
    }

    #[test]
    fn capacity_after_tx_locks_reacquires_union_in_order() {
        let mut s = Seer::full(2, 3);
        s.table.rebuild(&[(0, 2)]);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 0, &mut e);
        let _ = s.on_abort(0, 0, XStatus::conflict(), 1, &mut e); // takes Tx(2)
                                                                  // The last attempt dies of capacity: core lock must join the set,
                                                                  // via release + ordered re-acquisition.
        let d = s.on_abort(0, 0, XStatus::capacity(), 1, &mut e);
        match d {
            AbortDecision::Retry { gates } => {
                assert_eq!(gates.len(), 2);
                assert_eq!(gates[0], Gate::ReleaseHeld);
                match &gates[1] {
                    Gate::AcquireMany { locks, .. } => {
                        assert!(locks.contains(&LockId::Core(0)));
                        assert!(locks.contains(&LockId::Tx(2)));
                    }
                    g => panic!("unexpected gate {g:?}"),
                }
            }
            AbortDecision::Fallback => panic!(),
        }
    }

    #[test]
    fn empty_lock_row_takes_no_tx_locks() {
        let mut s = Seer::full(2, 3);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 0, &mut e);
        let d = s.on_abort(0, 0, XStatus::conflict(), 1, &mut e);
        assert_eq!(d, AbortDecision::Retry { gates: vec![] });
        assert!(!s.acquired_tx_locks[0]);
    }

    #[test]
    fn budget_exhaustion_falls_back() {
        let mut s = Seer::full(2, 3);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 0, &mut e);
        let d = s.on_abort(0, 0, XStatus::conflict(), 0, &mut e);
        assert_eq!(d, AbortDecision::Fallback);
    }

    #[test]
    fn update_builds_table_from_stats() {
        let mut s = Seer::new(
            SeerConfig {
                update_period_execs: 1,
                ..SeerConfig::full()
            },
            2,
            2,
        );
        // Fabricate strong evidence that block 0 conflicts with block 1.
        for _ in 0..60 {
            s.merged.add_abort(0, [1].into_iter());
        }
        for _ in 0..40 {
            s.merged.add_commit(0, [].into_iter());
        }
        s.total_execs = 100;
        s.force_update();
        assert_eq!(s.lock_table().row(0), &[1]);
        assert_eq!(s.lock_table().row(1), &[0]);
        assert_eq!(s.counters().updates, 1);
        assert_eq!(s.inferred_pairs(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn periodic_update_emits_inference_trace_when_sink_enabled() {
        use seer_runtime::MemoryTraceSink;
        let mut s = Seer::new(
            SeerConfig {
                update_period_execs: 1,
                ..SeerConfig::full()
            },
            2,
            2,
        );
        for _ in 0..60 {
            s.merged.add_abort(0, [1].into_iter());
        }
        for _ in 0..40 {
            s.merged.add_commit(0, [].into_iter());
        }
        s.total_execs = 100;
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut sink = MemoryTraceSink::new();
        let mut e = SchedEnv {
            now: 1234,
            locks: &bank,
            topology: Topology::haswell_e3(),
            rng: &mut rng,
            trace: &mut sink,
        };
        s.on_periodic(&mut e);
        assert_eq!(sink.inference.len(), 1, "one update, one trace record");
        let tr = &sink.inference[0];
        assert_eq!(tr.round, 1);
        assert_eq!(tr.at, 1234);
        assert_eq!(tr.total_execs, 100);
        assert_eq!(tr.rows.len(), 2, "one row per atomic block");
        let (_, pair) = tr.decision(0, 1).expect("pair (0,1) must be traced");
        assert!(pair.verdict.serialize(), "strong evidence must serialize");
        assert_eq!(s.lock_table().row(0), &[1], "trace agrees with the table");
        assert_eq!(tr.stats_digest, s.merged_stats().digest());
    }

    #[test]
    fn decay_round_halves_the_registered_counters() {
        // Registrations through the public hooks, then a due update with
        // decay every round: the update must halve every counter the hooks
        // wrote, and the hooks must keep writing the same matrices after.
        let mut s = Seer::new(
            SeerConfig {
                update_period_execs: 5,
                ..SeerConfig::with_decay(1)
            },
            3,
            4,
        );
        let bank = LockBank::new(4, 4);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 1, &mut e);
        s.on_tx_start(1, 2, &mut e);
        s.on_tx_start(2, 3, &mut e);
        s.on_abort(0, 1, XStatus::conflict(), 4, &mut e);
        s.on_abort(0, 1, XStatus::conflict(), 3, &mut e);
        s.on_abort(0, 1, XStatus::conflict(), 2, &mut e);
        s.on_abort(2, 3, XStatus::capacity(), 4, &mut e);
        s.on_htm_commit(0, 1, &mut e);
        let before = s.merged_stats().clone();
        assert_eq!((before.a(1, 2), before.c(1, 2), before.e(1)), (3, 1, 4));
        assert_eq!((before.a(3, 1), before.e(3)), (1, 1));
        s.on_periodic(&mut e); // due update -> inference + decay
        assert_eq!(s.counters().updates, 1);
        let after = s.merged_stats();
        for x in 0..4 {
            assert_eq!(after.e(x), before.e(x) / 2, "e({x})");
            for y in 0..4 {
                assert_eq!(after.a(x, y), before.a(x, y) / 2, "a({x},{y})");
                assert_eq!(after.c(x, y), before.c(x, y) / 2, "c({x},{y})");
            }
        }
        assert_eq!((after.a(1, 2), after.c(1, 2), after.e(1)), (1, 0, 2));
        assert_eq!((after.a(3, 1), after.e(3)), (0, 0));
        // Registration resumes on the decayed matrices.
        s.on_tx_start(0, 1, &mut e);
        s.on_abort(0, 1, XStatus::conflict(), 4, &mut e);
        assert_eq!((s.merged_stats().a(1, 2), s.merged_stats().e(1)), (2, 3));
    }

    #[test]
    fn disabled_mechanisms_produce_no_gates() {
        let profile_only = SeerConfig {
            tx_locks: false,
            core_locks: false,
            htm_lock_acquisition: false,
            ..SeerConfig::full()
        };
        let mut s = Seer::new(profile_only, 2, 3);
        s.table.rebuild(&[(0, 1)]);
        let bank = LockBank::new(4, 3);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 0, &mut e);
        assert_eq!(
            s.pre_attempt_gates(0, 0, 5, &mut e),
            vec![Gate::WaitWhileLocked(LockId::Sgl)]
        );
        let d = s.on_abort(0, 0, XStatus::capacity(), 1, &mut e);
        assert_eq!(d, AbortDecision::Retry { gates: vec![] });
    }

    #[test]
    fn overhead_scales_with_threads() {
        let s2 = Seer::full(2, 2);
        let s8 = Seer::full(8, 2);
        assert!(s8.overhead(HookPoint::HtmCommit) > s2.overhead(HookPoint::HtmCommit));
        assert!(s2.overhead(HookPoint::TxStart) > 0);
    }

    #[test]
    fn fallback_commit_clears_but_does_not_register() {
        let mut s = Seer::full(2, 2);
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut e = env(&bank, &mut rng);
        s.on_tx_start(0, 1, &mut e);
        s.on_fallback_commit(0, 1, &mut e);
        assert_eq!(s.active.get(0), None);
        assert_eq!(s.counters().commits_registered, 0);
        assert_eq!(s.merged_stats().e(1), 0);
    }
}
