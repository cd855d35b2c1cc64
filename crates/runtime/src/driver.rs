//! The discrete-event simulation driver.
//!
//! [`run`] executes a [`Workload`] over the simulated HTM machine under a
//! [`Scheduler`], in virtual time, and returns [`RunMetrics`]. The driver
//! owns the generic structure of Algorithm 1 of the paper — the retry loop,
//! the attempt budget, the single-global-lock (SGL) fall-back, the
//! begin-time SGL subscription — while the scheduler-specific behaviour
//! (waits, extra locks, statistics) is injected through the [`Scheduler`]
//! callbacks.
//!
//! ## Thread lifecycle
//!
//! ```text
//!           next()                gates pass              commit point
//! Thinking ───────► Gating ───────────────► Running ───────────────► (next tx)
//!    ▲                │  ▲                     │ abort (conflict /
//!    │                │  │ retry gates         │  capacity / async /
//!    │                │  └─────────────────────┤  sgl-subscription)
//!    │                │ budget exhausted or    │
//!    │                ▼ scheduler says so      ▼
//!    └──────── FallbackRunning ◄────────── Gating(Acquire SGL)
//! ```
//!
//! Every transition bumps the thread's *epoch*; scheduled events carry the
//! epoch they were created under and are dropped if stale, which is how
//! asynchronous aborts cancel a victim's in-flight access/commit events.
//!
//! ## Deadlock freedom
//!
//! Multi-lock acquisitions go through [`Gate::AcquireMany`], which acquires
//! in canonical [`LockId`] order; adding a lock to an already-held set is
//! expressed as [`Gate::ReleaseHeld`] followed by a fresh ordered
//! acquisition. Advisory waits ([`Gate::WaitWhileLocked`]) carry a patience
//! bound, so the cooperative waiting of `WAIT-Seer-LOCKS` can never wedge
//! the system (the underlying HTM, not the waits, guarantees correctness).

use seer_htm::{xabort_codes, CostModel, HtmConfig, HtmMachine, XStatus};
use seer_sim::{Cycles, EventQueue, SimRng, ThreadId, Topology};

use crate::locks::{LockBank, LockId};
use crate::metrics::{RunMetrics, TxMode};
use crate::scheduler::{AbortDecision, Gate, HookPoint, SchedEnv, Scheduler};
use crate::trace::{AbortCause, LifecycleEvent, NullTraceSink, TraceSink};
use crate::workload::{TxRequest, Workload};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Machine shape. Threads are pinned: thread `i` runs on logical CPU `i`.
    pub topology: Topology,
    /// Number of simulated threads (≤ logical CPUs).
    pub threads: usize,
    /// HTM buffer geometry.
    pub htm: HtmConfig,
    /// Latency model.
    pub costs: CostModel,
    /// RNG seed; a run is a pure function of `(workload, scheduler, config)`.
    pub seed: u64,
    /// Interval of the scheduler maintenance tick, if any.
    pub periodic_tick: Option<Cycles>,
    /// Patience bound for advisory waits (see module docs).
    pub wait_patience: Cycles,
    /// Slowdown factor applied to the execution speed of threads whose
    /// physical core hosts another simulated thread (SMT resource
    /// sharing): each such thread's cycles stretch by this factor. 1.0
    /// disables the effect.
    pub smt_slowdown: f64,
    /// Safety valve: abort the simulation after this many events.
    pub max_events: u64,
}

impl DriverConfig {
    /// The paper's setup: 4-core × 2-SMT machine, default costs, a 200k-cycle
    /// maintenance tick, running `threads` simulated threads.
    pub fn paper_machine(threads: usize, seed: u64) -> Self {
        Self {
            topology: Topology::haswell_e3(),
            threads,
            htm: HtmConfig::default(),
            costs: CostModel::default(),
            seed,
            periodic_tick: Some(200_000),
            wait_patience: 100_000,
            smt_slowdown: 1.5,
            max_events: 400_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Thinking,
    Gating,
    Running,
    FallbackRunning,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterGates {
    BeginAttempt,
    StartFallback,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    ThinkDone {
        th: ThreadId,
        epoch: u64,
    },
    GateResume {
        th: ThreadId,
        epoch: u64,
    },
    Access {
        th: ThreadId,
        epoch: u64,
        idx: usize,
    },
    AsyncAbort {
        th: ThreadId,
        epoch: u64,
    },
    CommitPoint {
        th: ThreadId,
        epoch: u64,
    },
    FallbackDone {
        th: ThreadId,
        epoch: u64,
    },
    Tick,
}

struct ThreadCtx {
    /// The current transaction. One request per thread, rewritten in
    /// place by [`Workload::next_into`] at every transaction boundary; it
    /// is meaningful while the thread is Thinking, Gating, Running or
    /// FallbackRunning, and stale once it is Done.
    req: TxRequest,
    attempts_left: u32,
    attempts_used: u32,
    epoch: u64,
    phase: Phase,
    held: Vec<LockId>,
    /// The gates to pass before the next attempt or the fall-back. Built
    /// in place for every attempt, so its buffer is reused.
    pending_gates: Vec<Gate>,
    after_gates: AfterGates,
    gates_entered_at: Cycles,
    park_start: Option<Cycles>,
    pending_delay: Cycles,
    body_start: Cycles,
    finished_at: Cycles,
}

impl ThreadCtx {
    fn new() -> Self {
        Self {
            req: TxRequest::default(),
            attempts_left: 0,
            attempts_used: 0,
            epoch: 0,
            phase: Phase::Thinking,
            held: Vec::new(),
            pending_gates: Vec::new(),
            after_gates: AfterGates::BeginAttempt,
            gates_entered_at: 0,
            park_start: None,
            pending_delay: 0,
            body_start: 0,
            finished_at: 0,
        }
    }

    fn block(&self) -> usize {
        self.req.block
    }
}

/// Runs `workload` under `sched` on the configured machine and returns the
/// collected metrics.
///
/// ```
/// use seer_runtime::synthetic::{SyntheticSpec, SyntheticWorkload};
/// use seer_runtime::{run, DriverConfig, NullScheduler};
///
/// let mut workload =
///     SyntheticWorkload::new(SyntheticSpec::low_contention_hashmap(25), 4);
/// let mut sched = NullScheduler::new(5);
/// let metrics = run(&mut workload, &mut sched, &DriverConfig::paper_machine(4, 7));
/// assert_eq!(metrics.commits, 100);
/// assert!(metrics.speedup() > 1.0);
/// ```
///
/// # Panics
/// If `cfg.threads` is zero or exceeds the topology's logical CPUs.
pub fn run(
    workload: &mut dyn Workload,
    sched: &mut dyn Scheduler,
    cfg: &DriverConfig,
) -> RunMetrics {
    run_traced(workload, sched, cfg, &mut NullTraceSink)
}

/// Like [`run`], but hands decision-provenance records to `sink`.
///
/// Tracing is purely observational: the returned metrics — including
/// [`RunMetrics::trace_hash`] — are bit-identical to an untraced run of
/// the same `(workload, scheduler, config)`; the sink only receives
/// copies of state the simulation already computes.
///
/// # Panics
/// If `cfg.threads` is zero or exceeds the topology's logical CPUs.
pub fn run_traced(
    workload: &mut dyn Workload,
    sched: &mut dyn Scheduler,
    cfg: &DriverConfig,
    sink: &mut dyn TraceSink,
) -> RunMetrics {
    assert!(cfg.threads > 0, "need at least one thread");
    assert!(
        cfg.threads <= cfg.topology.logical_cpus(),
        "more threads ({}) than logical CPUs ({})",
        cfg.threads,
        cfg.topology.logical_cpus()
    );
    let mut driver = Driver::new(workload, sched, sink, cfg.clone());
    driver.bootstrap();
    driver.main_loop();
    driver.finish()
}

struct Driver<'w, 's, 't> {
    cfg: DriverConfig,
    workload: &'w mut dyn Workload,
    sched: &'s mut dyn Scheduler,
    sink: &'t mut dyn TraceSink,
    /// `sink.enabled()`, cached: the hot path pays one boolean test.
    trace_on: bool,
    machine: HtmMachine,
    locks: LockBank,
    queue: EventQueue<Event>,
    threads: Vec<ThreadCtx>,
    metrics: RunMetrics,
    rng: SimRng,
    now: Cycles,
    live_threads: usize,
    budget: u32,
    smt_factor: Vec<f64>,
    /// Reusable scratch buffers for the per-event hot paths. Each is
    /// filled and drained within a single dispatch (taken with
    /// `mem::take`, restored afterwards so the capacity survives), which
    /// keeps steady-state event handling free of heap allocation.
    scratch_needed: Vec<LockId>,
    scratch_squeezed: Vec<(ThreadId, seer_htm::AbortCause)>,
    scratch_victims: Vec<ThreadId>,
    scratch_acquirers: Vec<ThreadId>,
    scratch_watchers: Vec<ThreadId>,
}

impl<'w, 's, 't> Driver<'w, 's, 't> {
    fn new(
        workload: &'w mut dyn Workload,
        sched: &'s mut dyn Scheduler,
        sink: &'t mut dyn TraceSink,
        cfg: DriverConfig,
    ) -> Self {
        let budget = sched.attempt_budget();
        assert!(budget > 0, "scheduler attempt budget must be positive");
        let blocks = workload.num_blocks();
        let machine = HtmMachine::new(cfg.topology, cfg.htm);
        let locks = LockBank::new(cfg.topology.physical_cores(), blocks);
        let metrics = RunMetrics::new(blocks, budget, blocks);
        let rng = SimRng::new(cfg.seed);
        let threads = (0..cfg.threads).map(|_| ThreadCtx::new()).collect();
        let live_threads = cfg.threads;
        let smt_factor = (0..cfg.threads)
            .map(|t| {
                let shared = (0..cfg.threads).any(|o| cfg.topology.are_smt_siblings(t, o));
                if shared {
                    cfg.smt_slowdown.max(1.0)
                } else {
                    1.0
                }
            })
            .collect();
        let trace_on = sink.enabled();
        Self {
            cfg,
            workload,
            sched,
            sink,
            trace_on,
            machine,
            locks,
            queue: EventQueue::new(),
            threads,
            metrics,
            rng,
            now: 0,
            live_threads,
            budget,
            smt_factor,
            scratch_needed: Vec::new(),
            scratch_squeezed: Vec::new(),
            scratch_victims: Vec::new(),
            scratch_acquirers: Vec::new(),
            scratch_watchers: Vec::new(),
        }
    }

    /// Stretches a request's body — access offsets and duration — by the
    /// SMT sharing factor `f`. Sequential cost accounting always uses the
    /// unscaled trace.
    fn stretch_body(f: f64, req: &mut TxRequest) {
        if f <= 1.0 {
            return;
        }
        req.duration = (req.duration as f64 * f).ceil() as Cycles;
        for a in &mut req.accesses {
            a.offset = (a.offset as f64 * f) as Cycles;
        }
    }

    fn bootstrap(&mut self) {
        for th in 0..self.cfg.threads {
            self.next_tx(th, 0);
        }
        if let Some(p) = self.cfg.periodic_tick {
            self.queue.push(p, Event::Tick);
        }
    }

    fn main_loop(&mut self) {
        let mut events = 0u64;
        while self.live_threads > 0 {
            let Some((time, ev)) = self.queue.pop() else {
                // No events but threads alive: every live thread must be
                // parked waiting for a wake that can no longer come. This
                // is a bug in the model, not a workload condition.
                panic!(
                    "event queue drained with {} live thread(s) at t={}",
                    self.live_threads, self.now
                );
            };
            self.now = time;
            events += 1;
            if events > self.cfg.max_events {
                self.metrics.truncated = true;
                break;
            }
            self.dispatch(ev);
            #[cfg(debug_assertions)]
            self.assert_invariants();
        }
        self.metrics.events = events;
    }

    fn finish(self) -> RunMetrics {
        let mut metrics = self.metrics;
        metrics.makespan = self
            .threads
            .iter()
            .map(|t| t.finished_at)
            .max()
            .unwrap_or(0);
        metrics.trace_hash = self.queue.trace_hash();
        #[cfg(debug_assertions)]
        if !metrics.truncated {
            let violations = metrics.check_conservation();
            assert!(
                violations.is_empty(),
                "conservation laws violated at end of run: {violations:#?}"
            );
        }
        metrics
    }

    /// Structural invariants that must hold between any two driver events.
    /// Compiled into every build with debug assertions; see DESIGN.md
    /// (conformance layer) for the catalogue.
    #[cfg(debug_assertions)]
    fn assert_invariants(&self) {
        // SGL subscription consistency: while the fall-back lock is held no
        // hardware transaction may be running — begin-time subscription
        // aborts late starters and `kill_all` sweeps the rest on acquire.
        if self.locks.is_locked(LockId::Sgl) {
            for (th, ctx) in self.threads.iter().enumerate() {
                assert!(
                    ctx.phase != Phase::Running,
                    "thread {th} runs in HTM while the SGL is held"
                );
            }
        }
        for (th, ctx) in self.threads.iter().enumerate() {
            // Held-lock bookkeeping must agree with the lock bank, with no
            // duplicate entries (a duplicate would double-release).
            let mut sorted = ctx.held.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert!(
                sorted.len() == ctx.held.len(),
                "thread {th} records duplicate held locks: {:?}",
                ctx.held
            );
            for &l in &ctx.held {
                assert!(
                    self.locks.is_held_by(l, th),
                    "thread {th} records {l:?} as held but the bank disagrees"
                );
            }
            if ctx.phase == Phase::FallbackRunning {
                assert!(
                    self.locks.is_held_by(LockId::Sgl, th),
                    "thread {th} on the fall-back path without the SGL"
                );
            }
        }
        // Running conservation: commits are partitioned by mode and by the
        // attempt histogram at every instant, every conflict abort has a
        // ground-truth kill record, and attempts never lag their outcomes.
        let m = &self.metrics;
        assert_eq!(m.modes.total(), m.commits, "modes must partition commits");
        let hist: u64 = m.attempts_histogram.iter().sum();
        assert_eq!(hist, m.commits, "attempt histogram must partition commits");
        assert_eq!(
            m.ground_truth.total(),
            m.aborts.conflict,
            "every conflict abort needs a ground-truth kill record"
        );
        let htm_commits = m.commits - m.modes.get(TxMode::SglFallback);
        assert!(
            m.htm_attempts >= htm_commits + m.aborts.total(),
            "more attempt outcomes ({} commits + {} aborts) than attempts ({})",
            htm_commits,
            m.aborts.total(),
            m.htm_attempts
        );
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Tick => {
                self.with_env(|sched, env| sched.on_periodic(env));
                if self.live_threads > 0 {
                    if let Some(p) = self.cfg.periodic_tick {
                        self.queue.push(self.now + p, Event::Tick);
                    }
                }
            }
            Event::ThinkDone { th, epoch } => {
                if self.stale(th, epoch) {
                    return;
                }
                self.tx_arrived(th);
            }
            Event::GateResume { th, epoch } => {
                if self.stale(th, epoch) || self.threads[th].phase != Phase::Gating {
                    return;
                }
                self.unpark(th);
                self.process_gates(th);
            }
            Event::Access { th, epoch, idx } => {
                if self.stale(th, epoch) {
                    return;
                }
                self.do_access(th, idx);
            }
            Event::AsyncAbort { th, epoch } => {
                if self.stale(th, epoch) || self.threads[th].phase != Phase::Running {
                    return;
                }
                self.machine.abort(th);
                self.handle_abort(th, XStatus::other());
            }
            Event::CommitPoint { th, epoch } => {
                if self.stale(th, epoch) {
                    return;
                }
                self.do_commit(th);
            }
            Event::FallbackDone { th, epoch } => {
                if self.stale(th, epoch) {
                    return;
                }
                self.fallback_done(th);
            }
        }
    }

    fn stale(&self, th: ThreadId, epoch: u64) -> bool {
        // Epoch monotonicity: epochs only ever advance, so a delivered event
        // can carry at most the thread's current epoch. Anything newer means
        // the event was fabricated or the epoch counter went backwards.
        debug_assert!(
            epoch <= self.threads[th].epoch,
            "event for thread {th} carries epoch {epoch} from the future (current {})",
            self.threads[th].epoch
        );
        self.threads[th].epoch != epoch
    }

    fn bump(&mut self, th: ThreadId) {
        self.threads[th].epoch += 1;
    }

    fn with_env<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler, &mut SchedEnv<'_>) -> R) -> R {
        let mut env = SchedEnv {
            now: self.now,
            locks: &self.locks,
            topology: self.cfg.topology,
            rng: &mut self.rng,
            trace: &mut *self.sink,
        };
        f(self.sched, &mut env)
    }

    // ---- lifecycle ----------------------------------------------------

    fn next_tx(&mut self, th: ThreadId, extra_delay: Cycles) {
        let ctx = &mut self.threads[th];
        if !self.workload.next_into(th, &mut self.rng, &mut ctx.req) {
            ctx.phase = Phase::Done;
            ctx.finished_at = self.now;
            ctx.epoch += 1;
            self.live_threads -= 1;
            return;
        }
        let req = &mut ctx.req;
        debug_assert!(req.is_well_formed(), "malformed trace from workload");
        debug_assert!(req.block < self.workload.num_blocks());
        self.metrics.sequential_cycles += req.think + req.duration;
        // Think time is stretched here, once per transaction; a retry
        // re-stretches only the regenerated body.
        let f = self.smt_factor[th];
        if f > 1.0 {
            req.think = (req.think as f64 * f) as Cycles;
        }
        Self::stretch_body(f, req);
        let think = req.think;
        ctx.attempts_left = self.budget;
        ctx.attempts_used = 0;
        ctx.phase = Phase::Thinking;
        ctx.epoch += 1;
        let epoch = ctx.epoch;
        self.queue.push(
            self.now + extra_delay + think,
            Event::ThinkDone { th, epoch },
        );
    }

    /// Alg. 1 START: announce, decide pre-tx serialization, gate, attempt.
    fn tx_arrived(&mut self, th: ThreadId) {
        let block = self.threads[th].block();
        self.with_env(|sched, env| sched.on_tx_start(th, block, env));
        let start_overhead = self.sched.overhead(HookPoint::TxStart);
        let force_fallback = self.with_env(|sched, env| sched.pre_tx_fallback(th, block, env));
        if force_fallback {
            self.enter_fallback_path(th);
            self.threads[th].pending_delay += start_overhead;
        } else {
            self.install_attempt_gates(th, block, Vec::new());
            self.threads[th].pending_delay += start_overhead;
            self.process_gates(th);
        }
    }

    /// Installs the gates to pass before the next hardware attempt: `first`
    /// (an abort decision's retry gates, or none), then the scheduler's
    /// pre-attempt gates, built in the thread's pending-gate storage.
    fn install_attempt_gates(&mut self, th: ThreadId, block: usize, first: Vec<Gate>) {
        let attempts_left = self.threads[th].attempts_left;
        let mut gates = std::mem::take(&mut self.threads[th].pending_gates);
        gates.clear();
        gates.extend(first);
        self.with_env(|sched, env| {
            sched.pre_attempt_gates_into(th, block, attempts_left, env, &mut gates)
        });
        self.threads[th].pending_gates = gates;
        self.finish_install(th, AfterGates::BeginAttempt);
    }

    /// Makes `gate` the thread's only pending gate, reusing the
    /// pending-gate storage instead of allocating a fresh list.
    fn install_single_gate(&mut self, th: ThreadId, gate: Gate, after: AfterGates) {
        let ctx = &mut self.threads[th];
        ctx.pending_gates.clear();
        ctx.pending_gates.push(gate);
        self.finish_install(th, after);
    }

    fn finish_install(&mut self, th: ThreadId, after: AfterGates) {
        let now = self.now;
        let ctx = &mut self.threads[th];
        ctx.phase = Phase::Gating;
        ctx.after_gates = after;
        ctx.gates_entered_at = now;
        ctx.pending_delay = 0;
        ctx.epoch += 1;
    }

    fn park(&mut self, th: ThreadId) {
        if self.threads[th].park_start.is_none() {
            self.threads[th].park_start = Some(self.now);
        }
    }

    fn unpark(&mut self, th: ThreadId) {
        if let Some(start) = self.threads[th].park_start.take() {
            let waited = self.now.saturating_sub(start);
            self.metrics.wait_cycles += waited;
            self.metrics.wait_histogram.record(waited);
        }
    }

    /// Processes the pending gate list from the top. Returns having either
    /// parked the thread (watcher/acquirer) or completed all gates and
    /// transitioned.
    fn process_gates(&mut self, th: ThreadId) {
        debug_assert_eq!(self.threads[th].phase, Phase::Gating);
        // The gate list must stay pending (a parked thread re-enters here
        // from the top), but processing mutates thread state — so take
        // the list out and put it back afterwards. Nothing below installs
        // gates for `th`, and the one edit made to the list, sorting an
        // `AcquireMany`'s locks, is idempotent on re-entry.
        let mut gates = std::mem::take(&mut self.threads[th].pending_gates);
        let patience_deadline = self.threads[th].gates_entered_at + self.cfg.wait_patience;
        let mut parked = false;
        for gate in gates.iter_mut() {
            match gate {
                Gate::WaitWhileLocked(l) => {
                    let l = *l;
                    if self.locks.is_locked(l)
                        && !self.locks.is_held_by(l, th)
                        && self.now < patience_deadline
                    {
                        if l == LockId::Sgl {
                            self.with_env(|sched, env| sched.on_sgl_wait(th, env));
                        }
                        if self.trace_on {
                            self.sink.lifecycle(LifecycleEvent::LockWait {
                                at: self.now,
                                thread: th,
                                lock: l,
                                holder: self.locks.get(l).owner(),
                            });
                        }
                        self.locks.get_mut(l).add_watcher(th);
                        self.park(th);
                        let epoch = self.threads[th].epoch;
                        self.queue.push(
                            patience_deadline.max(self.now + 1),
                            Event::GateResume { th, epoch },
                        );
                        parked = true;
                        break;
                    }
                }
                Gate::Acquire(l) => {
                    if !self.acquire_or_park(th, *l) {
                        parked = true;
                        break;
                    }
                }
                Gate::AcquireMany { locks, via_htm } => {
                    let via_htm = *via_htm;
                    locks.sort_unstable();
                    locks.dedup();
                    let mut needed = std::mem::take(&mut self.scratch_needed);
                    needed.clear();
                    for &l in locks.iter() {
                        if self.locks.is_held_by(l, th) {
                            // Granted by a release hand-off while parked:
                            // record ownership so the lock is released later.
                            if !self.threads[th].held.contains(&l) {
                                self.threads[th].held.push(l);
                                if self.trace_on {
                                    self.sink.lifecycle(LifecycleEvent::LocksAcquired {
                                        at: self.now,
                                        thread: th,
                                        locks: vec![l],
                                    });
                                }
                            }
                        } else {
                            needed.push(l);
                        }
                    }
                    if needed.is_empty() {
                        self.scratch_needed = needed;
                        continue;
                    }
                    let all_free = needed.iter().all(|&l| !self.locks.is_locked(l));
                    if via_htm && all_free && needed.len() >= 2 {
                        // Multi-CAS: take all locks in one tiny hardware
                        // transaction (paper §4). Cost: one begin/commit
                        // pair instead of one RMW per lock.
                        for &l in &needed {
                            debug_assert!(
                                self.threads[th].held.iter().all(|&h| h < l),
                                "non-canonical acquisition: {l:?} after holding {:?}",
                                self.threads[th].held
                            );
                            let ok = self.locks.get_mut(l).try_acquire(th, self.now);
                            debug_assert!(ok);
                            self.threads[th].held.push(l);
                        }
                        self.threads[th].pending_delay +=
                            self.cfg.costs.xbegin + self.cfg.costs.xend;
                        self.record_tx_lock_acquisition(&needed);
                        if self.trace_on {
                            self.sink.lifecycle(LifecycleEvent::LocksAcquired {
                                at: self.now,
                                thread: th,
                                locks: needed.clone(),
                            });
                        }
                    } else {
                        let mut newly_tx = 0usize;
                        for &l in &needed {
                            if !self.acquire_or_park(th, l) {
                                parked = true;
                                break;
                            }
                            if matches!(l, LockId::Tx(_)) {
                                newly_tx += 1;
                            }
                        }
                        if newly_tx > 0 {
                            self.metrics.tx_lock_acquisitions.push(newly_tx as u32);
                        }
                    }
                    self.scratch_needed = needed;
                    if parked {
                        break;
                    }
                }
                Gate::ReleaseHeld => self.release_all_held(th),
            }
        }
        self.threads[th].pending_gates = gates;
        if parked {
            return;
        }
        // All gates passed.
        let after = self.threads[th].after_gates;
        match after {
            AfterGates::BeginAttempt => self.begin_attempt(th),
            AfterGates::StartFallback => self.start_fallback(th),
        }
    }

    /// Try-acquire with FIFO parking; true when the lock is now held.
    fn acquire_or_park(&mut self, th: ThreadId, l: LockId) -> bool {
        if self.locks.is_held_by(l, th) {
            if !self.threads[th].held.contains(&l) {
                // Granted by a release hand-off while we were parked.
                self.threads[th].held.push(l);
                if self.trace_on {
                    self.sink.lifecycle(LifecycleEvent::LocksAcquired {
                        at: self.now,
                        thread: th,
                        locks: vec![l],
                    });
                }
            }
            return true;
        }
        // Deadlock freedom rests on every thread acquiring in canonical
        // `LockId` order; growing a held set downwards must instead go
        // through `ReleaseHeld` + fresh ordered acquisition.
        debug_assert!(
            self.threads[th].held.iter().all(|&h| h < l),
            "non-canonical acquisition: {l:?} after holding {:?}",
            self.threads[th].held
        );
        if self.locks.get_mut(l).try_acquire(th, self.now) {
            self.threads[th].held.push(l);
            self.threads[th].pending_delay += self.cfg.costs.cas;
            if matches!(l, LockId::Tx(_)) {
                self.record_tx_lock_acquisition(&[l]);
            }
            if self.trace_on {
                self.sink.lifecycle(LifecycleEvent::LocksAcquired {
                    at: self.now,
                    thread: th,
                    locks: vec![l],
                });
            }
            true
        } else {
            if self.trace_on {
                self.sink.lifecycle(LifecycleEvent::LockWait {
                    at: self.now,
                    thread: th,
                    lock: l,
                    holder: self.locks.get(l).owner(),
                });
            }
            self.locks.get_mut(l).enqueue_acquirer(th);
            self.park(th);
            false
        }
    }

    fn record_tx_lock_acquisition(&mut self, locks: &[LockId]) {
        let tx_count = locks.iter().filter(|l| matches!(l, LockId::Tx(_))).count();
        if tx_count > 0 {
            self.metrics.tx_lock_acquisitions.push(tx_count as u32);
        }
    }

    fn release_all_held(&mut self, th: ThreadId) {
        // Take the held list to release in insertion order (the order is
        // part of the deterministic wake schedule), then hand its buffer
        // back: the thread refills it on its very next acquisition.
        let mut held = std::mem::take(&mut self.threads[th].held);
        for &l in &held {
            self.release_lock(th, l);
        }
        held.clear();
        self.threads[th].held = held;
    }

    fn release_lock(&mut self, th: ThreadId, l: LockId) {
        let mut acquirers = std::mem::take(&mut self.scratch_acquirers);
        let mut watchers = std::mem::take(&mut self.scratch_watchers);
        self.locks
            .release_into(l, th, self.now, &mut acquirers, &mut watchers);
        let handoff = self.now + self.cfg.costs.lock_handoff;
        // Wake queued acquirers first (in FIFO order) and watchers after,
        // staggered: cache-line arbitration serializes the waiters'
        // re-reads of the lock word, which preserves rough FIFO fairness
        // and breaks the synchronized retry herd a simultaneous wake would
        // create. Acquirers that lose the re-contention re-queue.
        let step = (self.cfg.costs.cas / 2).max(1);
        let mut i: Cycles = 0;
        for &a in &acquirers {
            let epoch = self.threads[a].epoch;
            self.queue
                .push(handoff + i * step, Event::GateResume { th: a, epoch });
            i += 1;
        }
        for &w in &watchers {
            let epoch = self.threads[w].epoch;
            self.queue
                .push(handoff + i * step, Event::GateResume { th: w, epoch });
            i += 1;
        }
        self.scratch_acquirers = acquirers;
        self.scratch_watchers = watchers;
    }

    // ---- hardware attempt ----------------------------------------------

    fn begin_attempt(&mut self, th: ThreadId) {
        self.bump(th);
        self.threads[th].phase = Phase::Running;
        self.metrics.htm_attempts += 1;
        if self.trace_on {
            self.sink.lifecycle(LifecycleEvent::AttemptBegin {
                at: self.now,
                thread: th,
                block: self.threads[th].block(),
                attempt: self.threads[th].attempts_used,
            });
        }
        let delay = std::mem::take(&mut self.threads[th].pending_delay);
        let body_start = self.now + delay + self.cfg.costs.xbegin;
        self.threads[th].body_start = body_start;

        // Begin-time SGL subscription (Alg. 1 lines 10-12): if the
        // fall-back lock is held, the transaction self-aborts explicitly.
        if self.locks.is_locked(LockId::Sgl) && !self.locks.is_held_by(LockId::Sgl, th) {
            self.handle_abort(th, XStatus::explicit(xabort_codes::SGL_LOCKED));
            return;
        }

        let mut squeezed = std::mem::take(&mut self.scratch_squeezed);
        self.machine.begin_into(th, &mut squeezed);
        for &(victim, cause) in &squeezed {
            if self.threads[victim].phase == Phase::Running {
                self.handle_abort(victim, XStatus::from(cause));
            }
        }
        self.scratch_squeezed = squeezed;

        let (duration, first_access, epoch) = {
            let ctx = &self.threads[th];
            let req = &ctx.req;
            (
                req.duration,
                req.accesses.first().map(|a| a.offset),
                ctx.epoch,
            )
        };

        // Asynchronous aborts (interrupts, faults): probability grows with
        // the transaction's footprint in time.
        let p_async = duration as f64 * self.cfg.costs.async_abort_per_cycle;
        if self.rng.chance(p_async) {
            let at = body_start + self.rng.below(duration.max(1));
            self.queue.push(at, Event::AsyncAbort { th, epoch });
        }

        match first_access {
            Some(offset) => self
                .queue
                .push(body_start + offset, Event::Access { th, epoch, idx: 0 }),
            None => self.queue.push(
                body_start + duration + self.cfg.costs.xend,
                Event::CommitPoint { th, epoch },
            ),
        }
    }

    fn do_access(&mut self, th: ThreadId, idx: usize) {
        debug_assert_eq!(self.threads[th].phase, Phase::Running);
        let (line, kind, my_block) = {
            let req = &self.threads[th].req;
            let a = req.accesses[idx];
            (a.line, a.kind, req.block)
        };
        let mut victims = std::mem::take(&mut self.scratch_victims);
        let self_abort = self.machine.access_into(th, line, kind, &mut victims);
        for &victim in &victims {
            if self.threads[victim].phase == Phase::Running {
                let victim_block = self.threads[victim].block();
                self.metrics.ground_truth.record(victim_block, my_block);
                self.handle_abort(victim, XStatus::conflict());
            }
        }
        self.scratch_victims = victims;
        if let Some(cause) = self_abort {
            self.handle_abort(th, XStatus::from(cause));
            return;
        }
        // Schedule the next step of the body.
        let ctx = &self.threads[th];
        let req = &ctx.req;
        let epoch = ctx.epoch;
        let body_start = ctx.body_start;
        if idx + 1 < req.accesses.len() {
            let at = body_start + req.accesses[idx + 1].offset;
            self.queue.push(
                at.max(self.now),
                Event::Access {
                    th,
                    epoch,
                    idx: idx + 1,
                },
            );
        } else {
            let at = body_start + req.duration + self.cfg.costs.xend;
            self.queue
                .push(at.max(self.now), Event::CommitPoint { th, epoch });
        }
    }

    fn do_commit(&mut self, th: ThreadId) {
        debug_assert_eq!(self.threads[th].phase, Phase::Running);
        self.machine.commit(th);
        self.bump(th);
        let block = self.threads[th].block();
        self.with_env(|sched, env| sched.on_htm_commit(th, block, env));

        let mode = self.classify_mode(th);
        self.metrics.modes.record(mode);
        self.metrics.commits += 1;
        let used = self.threads[th].attempts_used.min(self.budget - 1) as usize;
        self.metrics.attempts_histogram[used] += 1;
        if self.trace_on {
            self.sink.lifecycle(LifecycleEvent::HtmCommit {
                at: self.now,
                thread: th,
                block,
                attempts_used: self.threads[th].attempts_used,
            });
        }

        self.release_all_held(th);
        self.workload
            .commit(th, &self.threads[th].req, &mut self.rng);
        self.next_tx(th, self.sched.overhead(HookPoint::HtmCommit));
    }

    fn classify_mode(&self, th: ThreadId) -> TxMode {
        let held = &self.threads[th].held;
        let aux = held.contains(&LockId::Aux);
        let tx = held.iter().any(|l| matches!(l, LockId::Tx(_)));
        let core = held.iter().any(|l| matches!(l, LockId::Core(_)));
        match (aux, tx, core) {
            (true, _, _) => TxMode::HtmAuxLock,
            (false, true, true) => TxMode::HtmTxAndCoreLocks,
            (false, true, false) => TxMode::HtmTxLocks,
            (false, false, true) => TxMode::HtmCoreLock,
            (false, false, false) => TxMode::HtmNoLocks,
        }
    }

    // ---- abort handling --------------------------------------------------

    fn handle_abort(&mut self, th: ThreadId, status: XStatus) {
        debug_assert!(!status.is_started());
        self.bump(th);
        let abort_counts = &mut self.metrics.aborts;
        if status.is_conflict() {
            abort_counts.conflict += 1;
        } else if status.is_capacity() {
            abort_counts.capacity += 1;
        } else if status.is_explicit() {
            abort_counts.explicit += 1;
        } else {
            abort_counts.other += 1;
        }
        // The machine slot is already clear for victims/capacity; make sure
        // for the explicit/async paths too.
        self.machine.abort(th);

        let ctx = &mut self.threads[th];
        ctx.attempts_left = ctx.attempts_left.saturating_sub(1);
        ctx.attempts_used += 1;
        let attempts_left = ctx.attempts_left;
        let block = ctx.block();
        if self.trace_on {
            self.sink.lifecycle(LifecycleEvent::Abort {
                at: self.now,
                thread: th,
                block,
                cause: AbortCause::from_status(status),
                attempts_left,
            });
        }

        let decision =
            self.with_env(|sched, env| sched.on_abort(th, block, status, attempts_left, env));

        let resume_at =
            self.now + self.cfg.costs.abort_penalty + self.sched.overhead(HookPoint::Abort);
        if attempts_left == 0 || matches!(decision, AbortDecision::Fallback) {
            self.enter_fallback_path_at(th, resume_at);
        } else {
            let AbortDecision::Retry { gates: retry_gates } = decision else {
                unreachable!()
            };
            // Re-generate the trace: a re-executed transaction re-reads the
            // (possibly changed) data structures. Its think time is spent,
            // so only the body is stretched again.
            let req = &mut self.threads[th].req;
            self.workload.regenerate(th, req, &mut self.rng);
            debug_assert!(req.is_well_formed());
            Self::stretch_body(self.smt_factor[th], req);
            self.install_attempt_gates(th, block, retry_gates);
            let epoch = self.threads[th].epoch;
            self.queue.push(resume_at, Event::GateResume { th, epoch });
        }
    }

    // ---- fall-back path --------------------------------------------------

    fn enter_fallback_path(&mut self, th: ThreadId) {
        self.enter_fallback_path_at(th, self.now);
    }

    fn enter_fallback_path_at(&mut self, th: ThreadId, at: Cycles) {
        self.metrics.fallbacks += 1;
        if self.trace_on {
            self.sink.lifecycle(LifecycleEvent::SglFallback {
                at: self.now,
                thread: th,
                block: self.threads[th].block(),
            });
        }
        // RELEASE-Seer-LOCKS before taking the global lock (Alg. 1 line 19).
        self.release_all_held(th);
        self.install_single_gate(th, Gate::Acquire(LockId::Sgl), AfterGates::StartFallback);
        let epoch = self.threads[th].epoch;
        self.queue
            .push(at.max(self.now), Event::GateResume { th, epoch });
    }

    fn start_fallback(&mut self, th: ThreadId) {
        debug_assert!(self.locks.is_held_by(LockId::Sgl, th));
        self.bump(th);
        self.threads[th].phase = Phase::FallbackRunning;
        // Acquiring the SGL invalidates the lock line every hardware
        // transaction subscribed to at begin: they all abort.
        let block = self.threads[th].block();
        let mut killed = std::mem::take(&mut self.scratch_victims);
        self.machine.kill_all_into(&mut killed);
        for &victim in &killed {
            if victim != th && self.threads[victim].phase == Phase::Running {
                let victim_block = self.threads[victim].block();
                self.metrics.ground_truth.record(victim_block, block);
                self.handle_abort(victim, XStatus::conflict());
            }
        }
        self.scratch_victims = killed;
        let delay = std::mem::take(&mut self.threads[th].pending_delay);
        let duration = self.threads[th].req.duration;
        let epoch = self.threads[th].epoch;
        self.queue.push(
            self.now + delay + duration,
            Event::FallbackDone { th, epoch },
        );
    }

    fn fallback_done(&mut self, th: ThreadId) {
        debug_assert_eq!(self.threads[th].phase, Phase::FallbackRunning);
        self.bump(th);
        let block = self.threads[th].block();
        self.with_env(|sched, env| sched.on_fallback_commit(th, block, env));
        self.metrics.modes.record(TxMode::SglFallback);
        self.metrics.commits += 1;
        *self
            .metrics
            .attempts_histogram
            .last_mut()
            .expect("histogram sized by budget") += 1;
        if self.trace_on {
            self.sink.lifecycle(LifecycleEvent::FallbackCommit {
                at: self.now,
                thread: th,
                block,
            });
        }
        self.release_lock(th, LockId::Sgl);
        self.threads[th].held.retain(|&l| l != LockId::Sgl);
        self.workload
            .commit(th, &self.threads[th].req, &mut self.rng);
        self.next_tx(th, self.sched.overhead(HookPoint::FallbackCommit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::NullScheduler;
    use crate::workload::{Access, BlockId, TxRequest};
    use seer_htm::AccessKind;

    /// A workload of `per_thread` identical transactions per thread, each
    /// touching `lines` distinct lines starting at a per-thread or shared
    /// base, with optional conflicts.
    struct Uniform {
        per_thread: usize,
        issued: Vec<usize>,
        lines: u64,
        shared: bool,
        writes: bool,
        blocks: usize,
    }

    impl Uniform {
        fn new(threads: usize, per_thread: usize, lines: u64, shared: bool, writes: bool) -> Self {
            Self {
                per_thread,
                issued: vec![0; threads],
                lines,
                shared,
                writes,
                blocks: 1,
            }
        }
    }

    impl Workload for Uniform {
        fn name(&self) -> &str {
            "uniform-test"
        }
        fn num_blocks(&self) -> usize {
            self.blocks
        }
        fn next(&mut self, thread: ThreadId, _rng: &mut SimRng) -> Option<TxRequest> {
            if self.issued[thread] >= self.per_thread {
                return None;
            }
            self.issued[thread] += 1;
            let base = if self.shared {
                0
            } else {
                (thread as u64 + 1) * 10_000
            };
            let kind = if self.writes {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let accesses = (0..self.lines)
                .map(|i| Access {
                    line: base + i,
                    kind,
                    offset: i * 10,
                })
                .collect();
            Some(TxRequest {
                block: 0 as BlockId,
                accesses,
                duration: self.lines * 10 + 20,
                think: 50,
            })
        }
    }

    fn quiet_config(threads: usize) -> DriverConfig {
        let mut cfg = DriverConfig::paper_machine(threads, 42);
        cfg.costs.async_abort_per_cycle = 0.0;
        cfg
    }

    #[test]
    fn single_thread_all_commits_first_attempt() {
        let mut w = Uniform::new(1, 100, 8, false, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(1));
        assert_eq!(m.commits, 100);
        assert_eq!(m.aborts.total(), 0);
        assert_eq!(m.modes.get(TxMode::HtmNoLocks), 100);
        assert_eq!(m.attempts_histogram[0], 100);
        assert!(!m.truncated);
        assert!(m.makespan > 0);
    }

    #[test]
    fn disjoint_threads_never_conflict() {
        let mut w = Uniform::new(4, 50, 8, false, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(4));
        assert_eq!(m.commits, 200);
        assert_eq!(m.aborts.conflict, 0);
        assert_eq!(m.fallbacks, 0);
    }

    #[test]
    fn shared_writes_conflict_and_still_complete() {
        let mut w = Uniform::new(4, 50, 8, true, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(4));
        assert_eq!(m.commits, 200);
        assert!(m.aborts.conflict > 0, "shared hot lines must conflict");
        assert!(!m.truncated);
    }

    #[test]
    fn shared_reads_do_not_conflict() {
        let mut w = Uniform::new(4, 50, 8, true, false);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(4));
        assert_eq!(m.commits, 200);
        assert_eq!(m.aborts.conflict, 0);
    }

    #[test]
    fn parallel_speedup_on_disjoint_work() {
        let mut w1 = Uniform::new(1, 200, 16, false, true);
        let mut s = NullScheduler::new(5);
        let m1 = run(&mut w1, &mut s, &quiet_config(1));
        let mut w4 = Uniform::new(4, 50, 16, false, true);
        let m4 = run(&mut w4, &mut s, &quiet_config(4));
        assert!(
            m4.speedup() > 2.0 * m1.speedup(),
            "4 disjoint threads should scale: {} vs {}",
            m4.speedup(),
            m1.speedup()
        );
    }

    #[test]
    fn ground_truth_records_conflicts() {
        let mut w = Uniform::new(2, 100, 4, true, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(2));
        assert!(m.ground_truth.total() > 0);
        assert_eq!(m.ground_truth.total(), m.aborts.conflict);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let mut w = Uniform::new(4, 40, 8, true, true);
            let mut s = NullScheduler::new(5);
            run(&mut w, &mut s, &quiet_config(4))
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts.total(), b.aborts.total());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.modes, b.modes);
        // The trace hash digests the full event schedule, so agreement here
        // is a far stronger statement than the aggregate equalities above.
        assert_ne!(a.trace_hash, 0, "driver must export the schedule digest");
        assert_eq!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn conservation_laws_hold_across_contention_levels() {
        for (shared, writes, threads) in [(false, true, 4), (true, true, 8), (true, false, 4)] {
            let mut w = Uniform::new(threads, 40, 8, shared, writes);
            let mut s = NullScheduler::new(3);
            let m = run(&mut w, &mut s, &quiet_config(threads));
            let violations = m.check_conservation();
            assert!(violations.is_empty(), "violated: {violations:#?}");
        }
    }

    #[test]
    fn budget_exhaustion_falls_back_to_sgl() {
        // Single line, all writes, 8 threads: extreme contention guarantees
        // some transactions exhaust their budget.
        let mut w = Uniform::new(8, 30, 1, true, true);
        let mut s = NullScheduler::new(2);
        let m = run(&mut w, &mut s, &quiet_config(8));
        assert_eq!(m.commits, 240);
        assert!(m.fallbacks > 0, "contention must trigger the fall-back");
        assert!(m.modes.get(TxMode::SglFallback) > 0);
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let mut w = Uniform::new(2, 0, 4, false, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(2));
        assert_eq!(m.commits, 0);
        assert_eq!(m.makespan, 0);
    }

    #[test]
    fn async_aborts_occur_when_enabled() {
        let mut cfg = quiet_config(1);
        cfg.costs.async_abort_per_cycle = 1e-3; // absurdly high for the test
        let mut w = Uniform::new(1, 100, 8, false, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &cfg);
        assert_eq!(m.commits, 100);
        assert!(m.aborts.other > 0);
    }

    #[test]
    #[should_panic(expected = "more threads")]
    fn too_many_threads_panics() {
        let mut w = Uniform::new(9, 1, 1, false, true);
        let mut s = NullScheduler::new(5);
        let _ = run(&mut w, &mut s, &quiet_config(9));
    }

    #[test]
    fn traced_run_is_bit_identical_and_events_reconcile() {
        use crate::trace::{AbortCause, MemoryTraceSink};
        let mut s = NullScheduler::new(2);
        // High contention so aborts and SGL fall-backs both occur.
        let mut w = Uniform::new(8, 30, 1, true, true);
        let untraced = run(&mut w, &mut s, &quiet_config(8));
        let mut w2 = Uniform::new(8, 30, 1, true, true);
        let mut sink = MemoryTraceSink::new();
        let traced = run_traced(&mut w2, &mut s, &quiet_config(8), &mut sink);

        // Tracing is a sink, not a flag: the schedule digest cannot move.
        assert_eq!(untraced.trace_hash, traced.trace_hash);
        assert_eq!(untraced.commits, traced.commits);
        assert_eq!(untraced.makespan, traced.makespan);

        // The lifecycle stream reconciles exactly with the metrics.
        assert_eq!(sink.count_kind("attempt-begin") as u64, traced.htm_attempts);
        assert_eq!(
            sink.count_abort_cause(AbortCause::Conflict) as u64,
            traced.aborts.conflict
        );
        assert_eq!(
            sink.count_abort_cause(AbortCause::Capacity) as u64,
            traced.aborts.capacity
        );
        assert_eq!(
            sink.count_abort_cause(AbortCause::Explicit) as u64,
            traced.aborts.explicit
        );
        assert_eq!(sink.count_kind("sgl-fallback") as u64, traced.fallbacks);
        let sgl_commits = traced.modes.get(TxMode::SglFallback);
        assert_eq!(sink.count_kind("fallback-commit") as u64, sgl_commits);
        assert_eq!(
            sink.count_kind("htm-commit") as u64,
            traced.commits - sgl_commits
        );
        assert!(
            traced.fallbacks > 0,
            "test workload must exercise the fall-back"
        );
    }

    #[test]
    fn retries_stretch_think_time_once() {
        // 8 threads on 4 two-way SMT cores: every request's timing is
        // stretched by 1.5 at issue. Retries re-stretch the regenerated
        // body, but the think time was spent before the first attempt.
        struct ThinkRecorder {
            inner: Uniform,
            thinks: Vec<Cycles>,
        }
        impl Workload for ThinkRecorder {
            fn name(&self) -> &str {
                "think-recorder"
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
                self.inner.next(thread, rng)
            }
            fn commit(&mut self, _thread: ThreadId, req: &TxRequest, _rng: &mut SimRng) {
                self.thinks.push(req.think);
            }
        }
        let mut w = ThinkRecorder {
            inner: Uniform::new(8, 30, 1, true, true),
            thinks: Vec::new(),
        };
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(8));
        assert!(m.aborts.conflict > 0, "the shared line must force retries");
        assert_eq!(w.thinks.len(), 240);
        // Uniform's think time is 50 cycles: 75 once stretched.
        assert!(w.thinks.iter().all(|&t| t == 75), "thinks: {:?}", w.thinks);
    }

    #[test]
    fn sequential_cycles_accumulate() {
        let mut w = Uniform::new(2, 10, 4, false, true);
        let mut s = NullScheduler::new(5);
        let m = run(&mut w, &mut s, &quiet_config(2));
        // 20 txs, each think=50 duration=60.
        assert_eq!(m.sequential_cycles, 20 * (50 + 60));
    }
}
