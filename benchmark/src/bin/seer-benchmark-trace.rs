//! `seer-benchmark-trace`: the per-layer split of one workload.
//!
//! Every cell runs twice per pass: untraced, then through the timing
//! wrappers of `seer_benchmark::layers`. The traced facts must equal the
//! untraced ones, and the difference in run time is the tracing overhead.
//! A counting global allocator runs in this binary only, so the untraced
//! binary's end-to-end numbers use the system allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::Ordering;

use seer::{Seer, SeerCounters};
use seer_benchmark::facts::check_run;
use seer_benchmark::layers::{
    is_baseline, self_ns, spans_jsonl, Mark, Span, Tally, TimedScheduler, TimedWorkload,
    ALLOCATIONS,
};
use seer_benchmark::stats::median;
use seer_benchmark::{
    guarded, nanos, parse_args, print_result, ratio, run_passes, run_plain, CellSpec, Checker,
    Expected, Facts, Metric, USAGE,
};
use seer_harness::PolicyKind;
use seer_runtime::{RunMetrics, Scheduler, Workload as _};

/// Counts every allocation into [`ALLOCATIONS`], then defers to `System`.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added counter touches no memory
// handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Layer totals of one pass.
#[derive(Debug, Default)]
struct LayerPass {
    plain_run_ns: u64,
    run_ns: u64,
    run_allocs: u64,
    stamp_setup_ns: u64,
    core_build_ns: u64,
    next: Tally,
    regenerate: Tally,
    commit: Tally,
    core_hooks: Tally,
    core_maint: Tally,
    /// Maintenance time of `seer` cells only: the cells whose inference
    /// rounds are counted.
    seer_maint_ns: u64,
    baselines: Tally,
    events: u64,
    commits: u64,
    htm_attempts: u64,
    conflict_aborts: u64,
    capacity_aborts: u64,
    fallbacks: u64,
    wait_cycles: u64,
    inference_rounds: u64,
    climb_steps: u64,
}

impl LayerPass {
    fn add_facts(&mut self, m: &RunMetrics) {
        self.events += m.events;
        self.commits += m.commits;
        self.htm_attempts += m.htm_attempts;
        self.conflict_aborts += m.aborts.conflict;
        self.capacity_aborts += m.aborts.capacity;
        self.fallbacks += m.fallbacks;
        self.wait_cycles += m.wait_cycles;
    }

    /// Every per-layer metric of this pass.
    fn metrics(&self) -> Vec<Metric> {
        let s = |ns: u64| ns as f64 / 1e9;
        let mut stamp = self.next;
        stamp.add(self.regenerate);
        stamp.add(self.commit);
        let mut core = self.core_hooks;
        core.add(self.core_maint);
        let children = stamp.ns + core.ns + self.baselines.ns;
        let runtime_ns = self.run_ns as f64 - children as f64;
        let runtime_allocs =
            self.run_allocs as f64 - (stamp.allocs + core.allocs + self.baselines.allocs) as f64;
        let run = self.run_ns as f64;
        let events = self.events as f64;
        let count = |n: u64| n as f64;
        vec![
            Metric::new("runtime.self_s", "s", runtime_ns / 1e9),
            Metric::new("runtime.share", "fraction", ratio(runtime_ns, run)),
            Metric::new("runtime.self_ns_per_event", "ns", ratio(runtime_ns, events)),
            Metric::new(
                "runtime.allocs_per_event",
                "count",
                ratio(runtime_allocs, events),
            ),
            Metric::new("stamp.next_s", "s", s(self.next.ns)),
            Metric::new("stamp.next_calls", "count", count(self.next.calls)),
            Metric::new(
                "stamp.allocs_per_tx",
                "count",
                ratio(stamp.allocs as f64, self.commits as f64),
            ),
            Metric::new("stamp.regenerate_s", "s", s(self.regenerate.ns)),
            Metric::new(
                "stamp.regenerate_calls",
                "count",
                count(self.regenerate.calls),
            ),
            Metric::new("stamp.commit_s", "s", s(self.commit.ns)),
            Metric::new("stamp.share", "fraction", ratio(stamp.ns as f64, run)),
            Metric::new("stamp.setup_s", "s", s(self.stamp_setup_ns)),
            Metric::new("core.build_s", "s", s(self.core_build_ns)),
            Metric::new("core.hooks_s", "s", s(self.core_hooks.ns)),
            Metric::new("core.hook_calls", "count", count(self.core_hooks.calls)),
            Metric::new(
                "core.allocs_per_call",
                "count",
                ratio(self.core_hooks.allocs as f64, self.core_hooks.calls as f64),
            ),
            Metric::new("core.share", "fraction", ratio(core.ns as f64, run)),
            Metric::new("core.maint_s", "s", s(self.core_maint.ns)),
            Metric::new("core.maint_calls", "count", count(self.core_maint.calls)),
            Metric::new(
                "core.inference_rounds",
                "count",
                count(self.inference_rounds),
            ),
            Metric::new("core.climb_steps", "count", count(self.climb_steps)),
            Metric::new(
                "core.us_per_round",
                "us",
                ratio(
                    self.seer_maint_ns as f64 / 1e3,
                    self.inference_rounds as f64,
                ),
            ),
            Metric::new("baselines.hooks_s", "s", s(self.baselines.ns)),
            Metric::new("baselines.hook_calls", "count", count(self.baselines.calls)),
            Metric::new(
                "baselines.share",
                "fraction",
                ratio(self.baselines.ns as f64, run),
            ),
            Metric::new(
                "baselines.allocs_per_call",
                "count",
                ratio(self.baselines.allocs as f64, self.baselines.calls as f64),
            ),
            Metric::new("htm.attempts", "count", count(self.htm_attempts)),
            Metric::new(
                "htm.commit_ratio",
                "fraction",
                ratio(
                    (self.commits - self.fallbacks) as f64,
                    self.htm_attempts as f64,
                ),
            ),
            Metric::new("htm.conflict_aborts", "count", count(self.conflict_aborts)),
            Metric::new("htm.capacity_aborts", "count", count(self.capacity_aborts)),
            Metric::new("runtime.fallbacks", "count", count(self.fallbacks)),
            Metric::new("runtime.wait_cycles", "cycles", count(self.wait_cycles)),
            Metric::new(
                "runtime.events_per_commit",
                "count",
                ratio(events, self.commits as f64),
            ),
            Metric::new(
                "trace.overhead_frac",
                "fraction",
                ratio(
                    self.run_ns as f64 - self.plain_run_ns as f64,
                    self.plain_run_ns as f64,
                ),
            ),
        ]
    }
}

/// The scheduler a traced cell runs: `seer` cells build `Seer::full`
/// directly so its counters can be read after the run; the facts check
/// against the untraced `PolicyKind::build` run proves the two agree.
enum Sched {
    Seer(Box<Seer>),
    Built(Box<dyn Scheduler>),
}

impl Sched {
    fn build(cell: &CellSpec, blocks: usize) -> Self {
        if cell.policy == PolicyKind::Seer {
            Sched::Seer(Box::new(Seer::full(cell.threads, blocks)))
        } else {
            Sched::Built(cell.policy.build(cell.threads, blocks))
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Scheduler {
        match self {
            Sched::Seer(s) => s.as_mut(),
            Sched::Built(s) => s.as_mut(),
        }
    }
}

/// Assigns span ids and keeps every span of the run.
#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    fn push(
        &mut self,
        parent: Option<u64>,
        pass: usize,
        cell: usize,
        name: &'static str,
        t: Tally,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            pass,
            cell,
            name,
            ns: t.ns,
            calls: t.calls,
            allocs: t.allocs,
        });
        id
    }
}

/// Runs `cell` through the wrappers, adding to `layers` and `spans`.
/// Returns the run's metrics, or why the span accounting fails.
fn traced_cell(
    pass: usize,
    idx: usize,
    cell: &CellSpec,
    layers: &mut LayerPass,
    spans: &mut Spans,
) -> Result<RunMetrics, String> {
    // Shared boundary marks: set-up, build and run tile the cell.
    let m0 = Mark::now();
    let mut workload = cell.benchmark.instantiate_scaled(cell.threads, cell.scale);
    let m1 = Mark::now();
    let mut sched = Sched::build(cell, workload.num_blocks());
    let m2 = Mark::now();
    let (metrics, wl, sc) = {
        let mut tw = TimedWorkload::new(&mut workload);
        let mut ts = TimedScheduler::new(sched.as_dyn());
        let m = seer_runtime::run(&mut tw, &mut ts, &cell.sim_config());
        (m, [tw.next, tw.regenerate, tw.commit], [ts.hooks, ts.maint])
    };
    let counters = match &sched {
        Sched::Seer(seer) => seer.counters(),
        Sched::Built(_) => SeerCounters::default(),
    };
    drop((workload, sched));
    let m3 = Mark::now();
    let (setup, build, run) = (m0.to(m1), m1.to(m2), m2.to(m3));

    let baseline = is_baseline(cell.policy);
    let first = spans.spans.len();
    let root = spans.push(None, pass, idx, "cell", m0.to(m3));
    spans.push(Some(root), pass, idx, "stamp.setup", setup);
    let build_name = if baseline {
        "baselines.build"
    } else {
        "core.build"
    };
    spans.push(Some(root), pass, idx, build_name, build);
    let run_id = spans.push(Some(root), pass, idx, "runtime.run", run);
    for (name, t) in ["stamp.next", "stamp.regenerate", "stamp.commit"]
        .into_iter()
        .zip(wl)
    {
        spans.push(Some(run_id), pass, idx, name, t);
    }
    let sched_names = if baseline {
        ["baselines.hooks", "baselines.maint"]
    } else {
        ["core.hooks", "core.maint"]
    };
    for (name, t) in sched_names.into_iter().zip(sc) {
        spans.push(Some(run_id), pass, idx, name, t);
    }
    check_spans(&spans.spans[first..])?;

    layers.run_ns += run.ns;
    layers.run_allocs += run.allocs;
    layers.stamp_setup_ns += setup.ns;
    if !baseline {
        layers.core_build_ns += build.ns;
    }
    layers.next.add(wl[0]);
    layers.regenerate.add(wl[1]);
    layers.commit.add(wl[2]);
    if baseline {
        layers.baselines.add(sc[0]);
        layers.baselines.add(sc[1]);
    } else {
        layers.core_hooks.add(sc[0]);
        layers.core_maint.add(sc[1]);
    }
    if cell.policy == PolicyKind::Seer {
        layers.seer_maint_ns += sc[1].ns;
    }
    layers.inference_rounds += counters.updates;
    layers.climb_steps += counters.climb_steps;
    layers.add_facts(&metrics);
    Ok(metrics)
}

/// One cell's spans: no self time may be negative, i.e. no layer's timed
/// children may outlast it. (The self times always sum to the cell span:
/// set-up, build and run tile it between shared marks.)
fn check_spans(cell_spans: &[Span]) -> Result<(), String> {
    let own = self_ns(cell_spans);
    match cell_spans.iter().zip(&own).find(|(_, &o)| o < 0) {
        Some((s, o)) => Err(format!("span {} has negative self time {o} ns", s.name)),
        None => Ok(()),
    }
}

fn run_pass(
    pass: usize,
    cells: &[CellSpec],
    expected: &Expected,
    checker: &mut Checker,
    spans: &mut Spans,
) -> Vec<Metric> {
    let mut layers = LayerPass::default();
    for (idx, cell) in cells.iter().enumerate() {
        let outcome = guarded(|| run_plain(cell))
            .map_err(|e| format!("panicked: {e}"))
            .and_then(|plain| {
                layers.plain_run_ns += nanos(plain.run);
                let facts = check_run(cell, &plain.metrics)?;
                expected.check(&cell.key(), facts)?;
                let traced = guarded(|| traced_cell(pass, idx, cell, &mut layers, spans))
                    .map_err(|e| format!("traced run panicked: {e}"))??;
                match Facts::of(&traced) {
                    t if t == facts => Ok(facts),
                    t => Err(format!("traced facts {t} differ from untraced {facts}")),
                }
            });
        checker.record(idx, cell, outcome);
    }
    layers.metrics()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless || !args.trace {
        eprintln!("error: seer-benchmark-trace only serves --trace 1");
        return ExitCode::from(2);
    }
    let expected = match Expected::for_workload(args.workload) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cells = args.workload.cells(args.seed);
    let mut checker = Checker::new(cells.len());
    let mut spans = Spans::default();
    let passes = run_passes(args.seconds, |pass| {
        run_pass(pass, &cells, &expected, &mut checker, &mut spans)
    });
    println!(
        "workload {} seed {} traced: {} passes of {} cells, {} spans",
        args.workload.name,
        args.seed,
        passes.len(),
        cells.len(),
        spans.spans.len()
    );
    let metrics: Vec<Metric> = (0..passes[0].len())
        .map(|j| {
            let m = &passes[0][j];
            Metric::new(
                m.name,
                m.unit,
                median(&passes.iter().map(|p| p[j].value).collect::<Vec<_>>()),
            )
        })
        .collect();
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans_jsonl(&spans.spans)) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    checker.report();
    print_result(&checker, &metrics);
    ExitCode::SUCCESS
}
