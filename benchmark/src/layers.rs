//! The outside-in layer split: timing wrappers around the two interfaces
//! the runtime calls out through, and the spans they produce.
//!
//! `seer_runtime::run` drives a `Workload` (the stamp layer) and a
//! `Scheduler` (Seer's core, or a baseline). Wrapping both and timing
//! every callback leaves the runtime's own self time — the event loop, the
//! HTM machine and the event queue — as what remains of the run span
//! after subtracting its children.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use seer_harness::PolicyKind;
use seer_htm::XStatus;
use seer_runtime::{
    AbortDecision, BlockId, Gate, HookPoint, SchedEnv, SchedFault, Scheduler, TxRequest, Workload,
};
use seer_sim::{Cycles, SimRng, ThreadId};

/// Heap allocations so far. Only the traced binary installs an allocator
/// that increments it; elsewhere it stays 0.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Current value of [`ALLOCATIONS`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Time, calls and allocations accumulated at one boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Nanoseconds inside the calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
}

/// A point in time and in the allocation count.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    allocs: u64,
}

impl Mark {
    /// Now.
    pub fn now() -> Self {
        Self {
            allocs: allocations(),
            at: Instant::now(),
        }
    }

    /// One call from `self` to `end`.
    pub fn to(self, end: Mark) -> Tally {
        Tally {
            ns: crate::nanos(end.at - self.at),
            calls: 1,
            allocs: end.allocs - self.allocs,
        }
    }
}

impl Tally {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Mark::now();
        let r = f();
        self.add(start.to(Mark::now()));
        r
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.allocs += other.allocs;
    }
}

/// A `Workload` that forwards every method and times the three the
/// runtime calls per transaction.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    /// `Workload::next`.
    pub next: Tally,
    /// `Workload::regenerate`.
    pub regenerate: Tally,
    /// `Workload::commit`.
    pub commit: Tally,
}

impl<'a> TimedWorkload<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        Self {
            inner,
            next: Tally::default(),
            regenerate: Tally::default(),
            commit: Tally::default(),
        }
    }
}

impl Workload for TimedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        self.next.time(|| self.inner.next(thread, rng))
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        self.regenerate
            .time(|| self.inner.regenerate(thread, req, rng))
    }

    fn commit(&mut self, thread: ThreadId, req: &TxRequest, rng: &mut SimRng) {
        self.commit.time(|| self.inner.commit(thread, req, rng))
    }

    fn on_phase(&mut self, phase: usize) {
        self.inner.on_phase(phase)
    }
}

/// A `Scheduler` that forwards every method. Per-transaction callbacks
/// are timed as hooks; the SGL-wait, periodic and fault callbacks — where
/// Seer runs inference and hill climbing — as maintenance. The
/// constant accessors (`name`, `attempt_budget`, `overhead`) are forwarded
/// untimed: a clock read would cost more than they do.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    /// Per-transaction callbacks.
    pub hooks: Tally,
    /// Maintenance callbacks.
    pub maint: Tally,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        Self {
            inner,
            hooks: Tally::default(),
            maint: Tally::default(),
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attempt_budget(&self) -> u32 {
        self.inner.attempt_budget()
    }

    fn on_tx_start(&mut self, thread: ThreadId, block: BlockId, env: &mut SchedEnv<'_>) {
        self.hooks
            .time(|| self.inner.on_tx_start(thread, block, env))
    }

    fn pre_tx_fallback(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        env: &mut SchedEnv<'_>,
    ) -> bool {
        self.hooks
            .time(|| self.inner.pre_tx_fallback(thread, block, env))
    }

    fn pre_attempt_gates(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        self.hooks.time(|| {
            self.inner
                .pre_attempt_gates(thread, block, attempts_left, env)
        })
    }

    fn on_abort(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        status: XStatus,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        self.hooks.time(|| {
            self.inner
                .on_abort(thread, block, status, attempts_left, env)
        })
    }

    fn on_htm_commit(&mut self, thread: ThreadId, block: BlockId, env: &mut SchedEnv<'_>) {
        self.hooks
            .time(|| self.inner.on_htm_commit(thread, block, env))
    }

    fn on_fallback_commit(&mut self, thread: ThreadId, block: BlockId, env: &mut SchedEnv<'_>) {
        self.hooks
            .time(|| self.inner.on_fallback_commit(thread, block, env))
    }

    fn on_sgl_wait(&mut self, thread: ThreadId, env: &mut SchedEnv<'_>) {
        self.maint.time(|| self.inner.on_sgl_wait(thread, env))
    }

    fn on_periodic(&mut self, env: &mut SchedEnv<'_>) {
        self.maint.time(|| self.inner.on_periodic(env))
    }

    fn on_fault(&mut self, fault: &SchedFault, env: &mut SchedEnv<'_>) {
        self.maint.time(|| self.inner.on_fault(fault, env))
    }

    fn overhead(&self, point: HookPoint) -> Cycles {
        self.inner.overhead(point)
    }
}

/// True for the paper's baselines (`seer-baselines`); false for every
/// Seer variant (`seer`, the core layer).
pub fn is_baseline(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::Hle | PolicyKind::Rtm | PolicyKind::Scm | PolicyKind::Ats
    )
}

/// One span per cell and layer boundary, kept in memory and written as
/// JSON lines when the traced run ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span (`None` for a cell).
    pub parent: Option<u64>,
    /// Pass index.
    pub pass: usize,
    /// Cell index within the pass.
    pub cell: usize,
    /// Layer boundary, e.g. `runtime.run` or `stamp.next`.
    pub name: &'static str,
    /// Total nanoseconds (summed over `calls` for callback spans).
    pub ns: u64,
    /// Calls aggregated into the span.
    pub calls: u64,
    /// Heap allocations inside the span.
    pub allocs: u64,
}

/// Each span's `ns` minus that of its direct children.
pub fn self_ns(spans: &[Span]) -> Vec<i128> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.ns)).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            own[p] -= i128::from(s.ns);
        }
    }
    own
}

/// Renders `spans` as JSON lines with their self times.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"pass\": {}, \"cell\": {}, \"name\": \"{}\", \
             \"ns\": {}, \"self_ns\": {own}, \"calls\": {}, \"allocs\": {}}}\n",
            s.id, s.pass, s.cell, s.name, s.ns, s.calls, s.allocs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{facts::Facts, run_plain, CellSpec};
    use seer_stamp::Benchmark;

    fn wrapped_facts(c: &CellSpec) -> (Facts, Tally, Tally) {
        let mut workload = c.benchmark.instantiate_scaled(c.threads, c.scale);
        let mut sched = c.policy.build(c.threads, workload.num_blocks());
        let mut tw = TimedWorkload::new(&mut workload);
        let mut ts = TimedScheduler::new(sched.as_mut());
        let m = seer_runtime::run(&mut tw, &mut ts, &c.sim_config());
        (Facts::of(&m), tw.next, ts.hooks)
    }

    #[test]
    fn wrappers_forward_budget_and_overhead() {
        // hle's budget (2) differs from the trait default and seer charges
        // hook overheads, so dropping either forward changes the facts.
        for policy in [PolicyKind::Hle, PolicyKind::Seer] {
            let c = CellSpec {
                benchmark: Benchmark::KmeansHigh,
                policy,
                threads: 4,
                scale: 0.05,
                seed: 1,
            };
            let plain = Facts::of(&run_plain(&c).metrics);
            let (wrapped, next, hooks) = wrapped_facts(&c);
            assert_eq!(plain, wrapped, "{}", policy.name());
            assert!(
                next.calls >= plain.commits,
                "every transaction came through next"
            );
            assert!(hooks.calls > 0 && hooks.ns > 0);
        }
        for policy in PolicyKind::ALL {
            let mut inner = policy.build(4, 3);
            let budget = inner.attempt_budget();
            let overheads: Vec<Cycles> = [
                HookPoint::TxStart,
                HookPoint::Abort,
                HookPoint::HtmCommit,
                HookPoint::FallbackCommit,
            ]
            .iter()
            .map(|&p| inner.overhead(p))
            .collect();
            let wrapped = TimedScheduler::new(inner.as_mut());
            assert_eq!(wrapped.attempt_budget(), budget);
            assert_eq!(wrapped.name(), policy.build(4, 3).name());
            for (p, o) in [
                HookPoint::TxStart,
                HookPoint::Abort,
                HookPoint::HtmCommit,
                HookPoint::FallbackCommit,
            ]
            .iter()
            .zip(overheads)
            {
                assert_eq!(wrapped.overhead(*p), o);
            }
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |id, parent, ns| Span {
            id,
            parent,
            pass: 0,
            cell: 0,
            name: "x",
            ns,
            calls: 1,
            allocs: 0,
        };
        let spans = [
            span(1, None, 100),
            span(2, Some(1), 60),
            span(3, Some(2), 50),
            span(4, Some(1), 10),
        ];
        assert_eq!(self_ns(&spans), [30, 10, 50, 10]);
        let lines = spans_jsonl(&spans);
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.starts_with("{\"id\": 1, \"parent\": null,"));
        assert!(lines.contains("\"self_ns\": 10,"));
    }
}
