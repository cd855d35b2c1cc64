//! Decision-provenance and transaction-lifecycle tracing.
//!
//! Tracing is a **sink object, not a feature flag**: the driver and the
//! schedulers hand fully-formed records to a [`TraceSink`] passed in at
//! run time, and the records are pure observations of state the
//! simulation already computes — no RNG draws, no extra events, no timing
//! changes. A run therefore produces a bit-identical event schedule (and
//! [`crate::RunMetrics::trace_hash`]) whether the sink is
//! [`NullTraceSink`] or a real collector; the golden trace-hash fixtures
//! in `seer-conformance` pin exactly that.
//!
//! Two streams flow through a sink:
//!
//! * **lifecycle** ([`LifecycleEvent`]) — per-transaction events from the
//!   driver: attempt begin, abort with its HTM-status cause, lock waits
//!   with the holder's identity, scheduler-lock acquisitions (e.g. the
//!   core lock taken after a CAPACITY abort), SGL fall-backs, and both
//!   commit flavours;
//! * **inference** ([`InferenceTrace`]) — one record per Seer inference
//!   round, carrying the merged-matrix digest, every per-pair
//!   conditional/conjunctive probability, the fitted Gaussian (η, σ²),
//!   the Th2 percentile cutoff actually used, and the per-pair
//!   [`Verdict`] with the reason (which threshold failed).
//!
//! Emission sites guard on [`TraceSink::enabled`] before building a
//! record, so the disabled path costs one virtual call (or, in the
//! driver, one cached boolean test) and zero allocation.

use seer_htm::XStatus;
use seer_sim::{Cycles, ThreadId};

use crate::locks::LockId;
use crate::workload::BlockId;

/// Coarse abort cause, mirroring the [`crate::AbortCounts`] buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Data conflict with another transaction (or an SGL `kill_all` sweep).
    Conflict,
    /// Read/write-set capacity overflow.
    Capacity,
    /// Explicit `xabort` (begin-time SGL subscription).
    Explicit,
    /// Everything else (asynchronous interrupts/faults).
    Other,
}

impl AbortCause {
    /// Classifies an HTM status word the same way the metrics do.
    pub fn from_status(status: XStatus) -> Self {
        if status.is_conflict() {
            AbortCause::Conflict
        } else if status.is_capacity() {
            AbortCause::Capacity
        } else if status.is_explicit() {
            AbortCause::Explicit
        } else {
            AbortCause::Other
        }
    }

    /// Stable lower-case label used by the JSONL schema.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::Conflict => "conflict",
            AbortCause::Capacity => "capacity",
            AbortCause::Explicit => "explicit",
            AbortCause::Other => "other",
        }
    }
}

/// One per-transaction lifecycle event emitted by the driver.
///
/// Every variant carries the virtual time `at` at which the driver
/// processed the underlying simulation event, and the thread it happened
/// on.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// A hardware attempt began (counted in `RunMetrics::htm_attempts`).
    AttemptBegin {
        /// Virtual time.
        at: Cycles,
        /// Executing thread.
        thread: ThreadId,
        /// Atomic block of the transaction.
        block: BlockId,
        /// Zero-based attempt index within this transaction instance.
        attempt: u32,
    },
    /// A hardware attempt aborted.
    Abort {
        /// Virtual time.
        at: Cycles,
        /// Executing thread.
        thread: ThreadId,
        /// Atomic block of the transaction.
        block: BlockId,
        /// Cause, classified from the HTM status word.
        cause: AbortCause,
        /// Budget remaining after this abort (0 forces the fall-back).
        attempts_left: u32,
    },
    /// The thread parked waiting on a lock.
    LockWait {
        /// Virtual time.
        at: Cycles,
        /// Waiting thread.
        thread: ThreadId,
        /// The lock waited on.
        lock: LockId,
        /// The thread currently holding it, if any (it can be released
        /// between the wait decision and the park in real hardware; in
        /// the simulation a park implies a holder except on re-contended
        /// acquisition hand-offs).
        holder: Option<ThreadId>,
    },
    /// The thread acquired scheduler locks (covers the core-lock taken
    /// after a CAPACITY abort and the per-block tx locks of the inferred
    /// serialization scheme).
    LocksAcquired {
        /// Virtual time.
        at: Cycles,
        /// Acquiring thread.
        thread: ThreadId,
        /// The locks acquired, in canonical order.
        locks: Vec<LockId>,
    },
    /// The transaction gave up on hardware and entered the SGL path
    /// (counted in `RunMetrics::fallbacks`).
    SglFallback {
        /// Virtual time.
        at: Cycles,
        /// Falling-back thread.
        thread: ThreadId,
        /// Atomic block of the transaction.
        block: BlockId,
    },
    /// The transaction committed in hardware.
    HtmCommit {
        /// Virtual time.
        at: Cycles,
        /// Committing thread.
        thread: ThreadId,
        /// Atomic block of the transaction.
        block: BlockId,
        /// Aborted attempts before this successful one.
        attempts_used: u32,
    },
    /// The transaction completed under the SGL fall-back.
    FallbackCommit {
        /// Virtual time.
        at: Cycles,
        /// Committing thread.
        thread: ThreadId,
        /// Atomic block of the transaction.
        block: BlockId,
    },
}

impl LifecycleEvent {
    /// Virtual time of the event.
    pub fn at(&self) -> Cycles {
        match *self {
            LifecycleEvent::AttemptBegin { at, .. }
            | LifecycleEvent::Abort { at, .. }
            | LifecycleEvent::LockWait { at, .. }
            | LifecycleEvent::LocksAcquired { at, .. }
            | LifecycleEvent::SglFallback { at, .. }
            | LifecycleEvent::HtmCommit { at, .. }
            | LifecycleEvent::FallbackCommit { at, .. } => at,
        }
    }

    /// Thread the event happened on.
    pub fn thread(&self) -> ThreadId {
        match *self {
            LifecycleEvent::AttemptBegin { thread, .. }
            | LifecycleEvent::Abort { thread, .. }
            | LifecycleEvent::LockWait { thread, .. }
            | LifecycleEvent::LocksAcquired { thread, .. }
            | LifecycleEvent::SglFallback { thread, .. }
            | LifecycleEvent::HtmCommit { thread, .. }
            | LifecycleEvent::FallbackCommit { thread, .. } => thread,
        }
    }

    /// Stable kebab-case label used by the JSONL schema's `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            LifecycleEvent::AttemptBegin { .. } => "attempt-begin",
            LifecycleEvent::Abort { .. } => "abort",
            LifecycleEvent::LockWait { .. } => "lock-wait",
            LifecycleEvent::LocksAcquired { .. } => "locks-acquired",
            LifecycleEvent::SglFallback { .. } => "sgl-fallback",
            LifecycleEvent::HtmCommit { .. } => "htm-commit",
            LifecycleEvent::FallbackCommit { .. } => "fallback-commit",
        }
    }
}

/// Outcome of one pair's serialize/unserialize decision, with the reason.
///
/// The decision is `conjunctive > Th1 && (!discriminative || conditional >
/// cutoff)`; the verdict records which of the two threshold checks
/// failed. On a non-discriminative row (σ below
/// `MIN_DISCRIMINATIVE_SIGMA`), the Th2 check is vacuously true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Both checks passed: the pair goes into the locking scheme.
    Serialize,
    /// The conjunctive probability did not clear Th1.
    RejectTh1,
    /// The conditional probability did not clear the Th2 percentile cutoff.
    RejectTh2,
    /// Both checks failed.
    RejectBoth,
}

impl Verdict {
    /// Builds a verdict from the two threshold checks.
    pub fn from_checks(conjunctive_ok: bool, conditional_ok: bool) -> Self {
        match (conjunctive_ok, conditional_ok) {
            (true, true) => Verdict::Serialize,
            (false, true) => Verdict::RejectTh1,
            (true, false) => Verdict::RejectTh2,
            (false, false) => Verdict::RejectBoth,
        }
    }

    /// Whether the pair was serialized.
    pub fn serialize(self) -> bool {
        matches!(self, Verdict::Serialize)
    }

    /// Stable label used by the JSONL schema.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Serialize => "serialize",
            Verdict::RejectTh1 => "reject-th1",
            Verdict::RejectTh2 => "reject-th2",
            Verdict::RejectBoth => "reject-both",
        }
    }

    /// Human-readable reason, naming the threshold(s) that failed.
    pub fn reason(self) -> &'static str {
        match self {
            Verdict::Serialize => "conjunctive > Th1 and conditional > Th2 cutoff",
            Verdict::RejectTh1 => "conjunctive <= Th1",
            Verdict::RejectTh2 => "conditional <= Th2 cutoff",
            Verdict::RejectBoth => "conjunctive <= Th1 and conditional <= Th2 cutoff",
        }
    }
}

/// One pair's decision inside a [`RowTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairDecision {
    /// The column (the "other" atomic block `y`).
    pub y: BlockId,
    /// `P(x aborts | x ‖ y)`.
    pub conditional: f64,
    /// `P(x aborts ∧ x ‖ y)`.
    pub conjunctive: f64,
    /// The serialize/reject outcome with its reason.
    pub verdict: Verdict,
}

/// One row (`x`) of an inference round: the fitted Gaussian over the
/// conditional-probability row and every pair decision made against it.
#[derive(Debug, Clone, PartialEq)]
pub struct RowTrace {
    /// The row's atomic block `x`.
    pub x: BlockId,
    /// Fitted mean η of the conditional-probability row.
    pub eta: f64,
    /// Fitted variance σ² of the conditional-probability row.
    pub sigma2: f64,
    /// The Th2 percentile cutoff actually used for this row.
    pub cutoff: f64,
    /// Whether σ cleared `MIN_DISCRIMINATIVE_SIGMA` (if not, the Th2
    /// check is skipped for every pair in the row).
    pub discriminative: bool,
    /// Per-pair probabilities and verdicts, one entry per column `y`.
    pub pairs: Vec<PairDecision>,
}

/// One full inference round of the Seer scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceTrace {
    /// 1-based index of the inference round within the run.
    pub round: u64,
    /// Virtual time at which the round ran.
    pub at: Cycles,
    /// FNV-1a digest of the merged statistics matrices the round read.
    pub stats_digest: u64,
    /// Th1 threshold in force.
    pub th1: f64,
    /// Th2 threshold in force.
    pub th2: f64,
    /// Total block executions observed when the round ran.
    pub total_execs: u64,
    /// Per-row traces, one per atomic block.
    pub rows: Vec<RowTrace>,
}

impl InferenceTrace {
    /// The decision for pair `(x, y)` in this round, if both ids are in
    /// range.
    pub fn decision(&self, x: BlockId, y: BlockId) -> Option<(&RowTrace, &PairDecision)> {
        let row = self.rows.iter().find(|r| r.x == x)?;
        let pair = row.pairs.iter().find(|p| p.y == y)?;
        Some((row, pair))
    }
}

/// Receiver of the two trace streams.
///
/// Implementations must be pure observers: a sink may not influence the
/// simulation in any way (the driver hands it records *after* all
/// scheduling decisions are made).
pub trait TraceSink {
    /// Whether the sink wants records at all. Emission sites check this
    /// before building a record, so disabled tracing allocates nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// A lifecycle event from the driver.
    fn lifecycle(&mut self, event: LifecycleEvent);

    /// An inference round from the Seer scheduler.
    fn inference(&mut self, trace: InferenceTrace);
}

/// The disabled sink: `enabled()` is false and both methods are no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTraceSink;

impl TraceSink for NullTraceSink {
    fn enabled(&self) -> bool {
        false
    }

    fn lifecycle(&mut self, _event: LifecycleEvent) {}

    fn inference(&mut self, _trace: InferenceTrace) {}
}

/// A sink that collects both streams into vectors, in emission order
/// (which is chronological per stream).
#[derive(Debug, Default, Clone)]
pub struct MemoryTraceSink {
    /// Collected lifecycle events.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Collected inference rounds.
    pub inference: Vec<InferenceTrace>,
}

impl MemoryTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifecycle events of the given kind label.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.lifecycle.iter().filter(|e| e.kind() == kind).count()
    }

    /// Abort events with the given cause.
    pub fn count_abort_cause(&self, cause: AbortCause) -> usize {
        self.lifecycle
            .iter()
            .filter(|e| matches!(e, LifecycleEvent::Abort { cause: c, .. } if *c == cause))
            .count()
    }
}

impl TraceSink for MemoryTraceSink {
    fn lifecycle(&mut self, event: LifecycleEvent) {
        self.lifecycle.push(event);
    }

    fn inference(&mut self, trace: InferenceTrace) {
        self.inference.push(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullTraceSink;
        assert!(!s.enabled());
        s.lifecycle(LifecycleEvent::SglFallback {
            at: 0,
            thread: 0,
            block: 0,
        });
        s.inference(InferenceTrace {
            round: 1,
            at: 0,
            stats_digest: 0,
            th1: 0.3,
            th2: 0.8,
            total_execs: 0,
            rows: Vec::new(),
        });
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut s = MemoryTraceSink::new();
        assert!(s.enabled());
        s.lifecycle(LifecycleEvent::AttemptBegin {
            at: 10,
            thread: 1,
            block: 0,
            attempt: 0,
        });
        s.lifecycle(LifecycleEvent::HtmCommit {
            at: 20,
            thread: 1,
            block: 0,
            attempts_used: 0,
        });
        assert_eq!(s.lifecycle.len(), 2);
        assert_eq!(s.lifecycle[0].at(), 10);
        assert_eq!(s.lifecycle[0].kind(), "attempt-begin");
        assert_eq!(s.count_kind("htm-commit"), 1);
        assert_eq!(s.count_kind("abort"), 0);
    }

    #[test]
    fn verdict_from_checks_covers_all_cases() {
        assert_eq!(Verdict::from_checks(true, true), Verdict::Serialize);
        assert_eq!(Verdict::from_checks(false, true), Verdict::RejectTh1);
        assert_eq!(Verdict::from_checks(true, false), Verdict::RejectTh2);
        assert_eq!(Verdict::from_checks(false, false), Verdict::RejectBoth);
        assert!(Verdict::Serialize.serialize());
        assert!(!Verdict::RejectTh1.serialize());
        assert!(Verdict::RejectTh1.reason().contains("Th1"));
        assert!(Verdict::RejectTh2.reason().contains("Th2"));
    }

    #[test]
    fn abort_cause_classification_matches_status_words() {
        use seer_htm::xabort_codes;
        assert_eq!(
            AbortCause::from_status(XStatus::conflict()),
            AbortCause::Conflict
        );
        assert_eq!(
            AbortCause::from_status(XStatus::capacity()),
            AbortCause::Capacity
        );
        assert_eq!(
            AbortCause::from_status(XStatus::explicit(xabort_codes::SGL_LOCKED)),
            AbortCause::Explicit
        );
        assert_eq!(AbortCause::from_status(XStatus::other()), AbortCause::Other);
    }

    #[test]
    fn inference_trace_pair_lookup() {
        let tr = InferenceTrace {
            round: 1,
            at: 100,
            stats_digest: 7,
            th1: 0.3,
            th2: 0.8,
            total_execs: 42,
            rows: vec![RowTrace {
                x: 0,
                eta: 0.1,
                sigma2: 0.01,
                cutoff: 0.2,
                discriminative: true,
                pairs: vec![PairDecision {
                    y: 1,
                    conditional: 0.5,
                    conjunctive: 0.4,
                    verdict: Verdict::Serialize,
                }],
            }],
        };
        assert!(tr.decision(0, 1).is_some());
        assert!(tr.decision(0, 2).is_none());
        assert!(tr.decision(1, 0).is_none());
    }
}
