//! The `seer bench` measurement harness: a pinned workload matrix timed
//! deterministically, reported as JSON, and gated in CI against a
//! committed baseline (`BENCH_006.json`).
//!
//! Two kinds of measurement, with different gating rules (DESIGN.md §12):
//!
//! * **Determinism facts** — per-cell event counts and trace hashes. These
//!   are pure functions of `(cell, seed, scale)` and must match the
//!   baseline *exactly*; any drift means the kernel changed behaviour, not
//!   just speed.
//! * **Throughput ratios** — the event-queue microbench times the current
//!   [`seer_sim::EventQueue`] against [`ReferenceHeapQueue`], a `BinaryHeap`
//!   re-implementation of the pre-calendar-queue kernel doing the exact
//!   same per-operation work (watermark clamp, sequence numbering, FNV
//!   trace fold). The `speedup_vs_heap` ratio is machine-independent — both
//!   sides run in the same process on the same host — so it is the number
//!   the CI perf job gates with a tolerance band. Absolute events/sec and
//!   cells/sec are reported for humans but never gated: they move with the
//!   host CPU.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use seer_harness::{parallel_map, Cell, Json, PolicyKind, ToJson};
use seer_scenario::RunRequest;
use seer_sim::{Cycles, EventQueue, SimRng};
use seer_stamp::Benchmark;

/// Current report schema version (bumped on breaking layout changes).
pub const SCHEMA_VERSION: u64 = 1;

/// Harness seed for the workload matrix (everything runs at seed 0, like
/// the conformance replay fixtures' first column).
pub const MATRIX_SEED: u64 = 0;

/// Event counts the queue microbench pushes through per (queue, n) pair.
const QUEUE_OPS_SMOKE: usize = 200_000;
const QUEUE_OPS_FULL: usize = 2_000_000;

/// Problem sizes of the queue microbench — mirrors the `sim_microbench`
/// Criterion bench (`event_queue/push_pop`).
///
/// Depths chosen so the measurement is sensitive to *queue* cost: at a
/// few hundred pending events the drain is bound by the serial FNV
/// trace-hash fold both queues share (every cycle of calendar work hides
/// under the hash chain's multiply latency, and the heap's advantage of
/// staying L1-resident caps the observable ratio near 1.5× regardless of
/// implementation). From ~10k events the heap's sift-downs leave L1 and
/// the structural O(log n) vs O(1) difference dominates the signal.
pub const QUEUE_SIZES: [usize; 2] = [10_000, 100_000];

/// How hard `seer bench` works: a quick CI-sized pass or a fuller local
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// CI-sized: small workload scale, few repeats, seconds of wall clock.
    Smoke,
    /// Local: larger scale and more repeats for tighter numbers.
    Full,
}

impl BenchMode {
    /// Parses `smoke` / `full`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(BenchMode::Smoke),
            "full" => Some(BenchMode::Full),
            _ => None,
        }
    }

    /// The mode's report label.
    pub fn name(self) -> &'static str {
        match self {
            BenchMode::Smoke => "smoke",
            BenchMode::Full => "full",
        }
    }

    /// Workload scale for the cell matrix.
    pub fn scale(self) -> f64 {
        match self {
            BenchMode::Smoke => 0.05,
            BenchMode::Full => 0.25,
        }
    }

    /// Default timing repeats per measurement (the minimum is kept).
    pub fn default_repeats(self) -> usize {
        match self {
            BenchMode::Smoke => 2,
            BenchMode::Full => 3,
        }
    }

    fn queue_ops(self) -> usize {
        match self {
            BenchMode::Smoke => QUEUE_OPS_SMOKE,
            BenchMode::Full => QUEUE_OPS_FULL,
        }
    }

}

/// The pinned workload matrix: 4 benchmarks × 2 policies × 2 thread
/// counts = 16 cells, all at seed 0. Chosen to cover low and high
/// contention, both the null-ish baseline (`rtm`) and the full scheduler
/// (`seer`), and both SMT-free and SMT-saturated thread counts.
pub fn bench_matrix() -> Vec<Cell> {
    let benchmarks = [
        Benchmark::Genome,
        Benchmark::Ssca2,
        Benchmark::KmeansHigh,
        Benchmark::HashmapLow,
    ];
    let policies = [PolicyKind::Rtm, PolicyKind::Seer];
    let thread_counts = [4usize, 8];
    let mut cells = Vec::with_capacity(benchmarks.len() * policies.len() * thread_counts.len());
    for &benchmark in &benchmarks {
        for &policy in &policies {
            for &threads in &thread_counts {
                cells.push(Cell { benchmark, policy, threads });
            }
        }
    }
    cells
}

// ---- reference heap queue ----------------------------------------------

struct HeapEntry<E> {
    time: Cycles,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest event on top of the max-heap.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A `BinaryHeap`-backed event queue doing exactly the per-operation work
/// of the pre-calendar-queue simulation kernel: watermark clamp and
/// sequence numbering on push, watermark update and FNV-1a trace folding
/// on pop. The timing baseline `speedup_vs_heap` is measured against —
/// kept here (not in `seer-sim`) so the kernel carries no dead code.
pub struct ReferenceHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    seq: u64,
    watermark: Cycles,
    trace_hash: u64,
}

impl<E> Default for ReferenceHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            watermark: 0,
            trace_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Schedules `payload` at `time` (clamped to the watermark).
    pub fn push(&mut self, time: Cycles, payload: E) {
        let time = time.max(self.watermark);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
    }

    /// Pops the earliest event, folding it into the trace digest.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let entry = self.heap.pop()?;
        self.watermark = entry.time;
        for word in [entry.time, entry.seq] {
            for byte in word.to_le_bytes() {
                self.trace_hash ^= u64::from(byte);
                self.trace_hash = self.trace_hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Some((entry.time, entry.payload))
    }

    /// Digest of every popped `(time, seq)` pair.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }
}

// ---- measurements ------------------------------------------------------

/// One row of the queue microbench: both queues pushing and draining `n`
/// events with the `sim_microbench` time distribution.
#[derive(Debug, Clone)]
pub struct QueueBench {
    /// Events per push-all/pop-all iteration.
    pub n: usize,
    /// Current kernel queue throughput, in events (pops) per second.
    pub queue_events_per_sec: f64,
    /// Reference `BinaryHeap` queue throughput.
    pub heap_events_per_sec: f64,
    /// `queue_events_per_sec / heap_events_per_sec` — the gated ratio.
    pub speedup_vs_heap: f64,
}

/// One timed cell of the workload matrix.
#[derive(Debug, Clone)]
pub struct CellBench {
    /// Workload name.
    pub benchmark: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Simulated threads.
    pub threads: usize,
    /// Harness seed.
    pub seed: u64,
    /// DES events the run dispatched — a determinism fact, gated exactly.
    pub events: u64,
    /// The run's schedule digest — a determinism fact, gated exactly.
    pub trace_hash: u64,
    /// Events per second of the fastest repeat.
    pub events_per_sec: f64,
    /// Wall-clock milliseconds of the fastest repeat.
    pub wall_ms: f64,
}

/// A full `seer bench` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The mode the numbers were measured under.
    pub mode: BenchMode,
    /// Queue microbench rows, one per [`QUEUE_SIZES`] entry.
    pub queue: Vec<QueueBench>,
    /// One row per cell of [`bench_matrix`].
    pub cells: Vec<CellBench>,
}

impl BenchReport {
    /// Serializes the report (schema version [`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> Json {
        let queue: Vec<Json> = self
            .queue
            .iter()
            .map(|q| {
                Json::object([
                    ("n", q.n.to_json()),
                    ("queue_events_per_sec", q.queue_events_per_sec.to_json()),
                    ("heap_events_per_sec", q.heap_events_per_sec.to_json()),
                    ("speedup_vs_heap", q.speedup_vs_heap.to_json()),
                ])
            })
            .collect();
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::object([
                    ("benchmark", c.benchmark.to_json()),
                    ("policy", c.policy.to_json()),
                    ("threads", c.threads.to_json()),
                    ("seed", c.seed.to_json()),
                    ("events", c.events.to_json()),
                    ("trace_hash", c.trace_hash.to_json()),
                    ("events_per_sec", c.events_per_sec.to_json()),
                    ("wall_ms", c.wall_ms.to_json()),
                ])
            })
            .collect();
        let total_events: u64 = self.cells.iter().map(|c| c.events).sum();
        let total_secs: f64 = self.cells.iter().map(|c| c.wall_ms / 1e3).sum();
        let totals = Json::object([
            ("cells", self.cells.len().to_json()),
            ("events", total_events.to_json()),
            ("cells_per_sec", safe_rate(self.cells.len() as f64, total_secs).to_json()),
            ("events_per_sec", safe_rate(total_events as f64, total_secs).to_json()),
        ]);
        Json::object([
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("mode", self.mode.name().to_json()),
            ("queue", Json::Array(queue)),
            ("cells", Json::Array(cells)),
            ("totals", totals),
        ])
    }

    /// Writes the pretty-printed report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)
    }
}

fn safe_rate(amount: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        amount / secs
    } else {
        0.0
    }
}

/// Runs the whole harness: queue microbench plus the timed cell matrix
/// (fanned out over `jobs` OS threads; timing happens inside each worker,
/// and only ratios/determinism facts are gated, so parallel noise cannot
/// fail CI).
pub fn run_bench(mode: BenchMode, repeats: usize, jobs: usize) -> BenchReport {
    let queue = queue_microbench(mode.queue_ops(), repeats);
    let matrix = bench_matrix();
    let cells = parallel_map(&matrix, jobs, |&cell| time_cell(cell, mode, repeats));
    BenchReport { mode, queue, cells }
}

/// Times one cell: `repeats` identical runs, keeping the fastest.
fn time_cell(cell: Cell, mode: BenchMode, repeats: usize) -> CellBench {
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    let mut trace_hash = 0u64;
    for rep in 0..repeats.max(1) {
        let start = Instant::now();
        let m = RunRequest::cell(cell).seed(MATRIX_SEED).scale(mode.scale()).run();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        if rep == 0 {
            events = m.events;
            trace_hash = m.trace_hash;
        } else {
            // Repeats are re-runs of a pure function; any drift here is a
            // determinism bug worth failing loudly on.
            assert_eq!(m.events, events, "event count drifted across repeats: {cell:?}");
            assert_eq!(m.trace_hash, trace_hash, "trace hash drifted across repeats: {cell:?}");
        }
    }
    CellBench {
        benchmark: cell.benchmark.name(),
        policy: cell.policy.name(),
        threads: cell.threads,
        seed: MATRIX_SEED,
        events,
        trace_hash,
        events_per_sec: safe_rate(events as f64, best),
        wall_ms: best * 1e3,
    }
}

/// The queue microbench: push `n` events with the `sim_microbench` time
/// distribution (seeded RNG, times below 2²⁰), drain, repeat to cover
/// `ops` total events; fastest repeat wins. One queue lives across all
/// iterations with virtual time advancing by a full 2²⁰-cycle window per
/// iteration — the steady-state shape of a real simulation, where the
/// kernel constructs its queue once per run and then pushes and pops for
/// millions of cycles. Construction and warm-up allocations therefore
/// amortize out for both queues alike, and the ratio measures sustained
/// push/pop throughput rather than allocator behaviour. Both queues run
/// in the same process, so their ratio is host-independent.
fn queue_microbench(ops: usize, repeats: usize) -> Vec<QueueBench> {
    QUEUE_SIZES
        .iter()
        .map(|&n| {
            let mut rng = SimRng::new(7);
            let times: Vec<Cycles> = (0..n).map(|_| rng.below(1 << 20)).collect();
            let iters = (ops / n).max(1);
            let queue_secs = best_of(repeats, || {
                let mut q = EventQueue::new();
                for iter in 0..iters {
                    let base = (iter as Cycles) << 20;
                    for &t in &times {
                        q.push(base + t, ());
                    }
                    while q.pop().is_some() {}
                }
                std::hint::black_box(q.trace_hash());
            });
            let heap_secs = best_of(repeats, || {
                let mut q = ReferenceHeapQueue::new();
                for iter in 0..iters {
                    let base = (iter as Cycles) << 20;
                    for &t in &times {
                        q.push(base + t, ());
                    }
                    while q.pop().is_some() {}
                }
                std::hint::black_box(q.trace_hash());
            });
            let total = (n * iters) as f64;
            let queue_events_per_sec = safe_rate(total, queue_secs);
            let heap_events_per_sec = safe_rate(total, heap_secs);
            QueueBench {
                n,
                queue_events_per_sec,
                heap_events_per_sec,
                speedup_vs_heap: if heap_events_per_sec > 0.0 {
                    queue_events_per_sec / heap_events_per_sec
                } else {
                    0.0
                },
            }
        })
        .collect()
}

fn best_of(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

// ---- validation & baseline comparison ----------------------------------

/// Prefixes a field-reader error with the row it came from.
fn in_ctx(ctx: &str) -> impl Fn(String) -> String + '_ {
    move |e| format!("{ctx}: {e}")
}

/// The range rule every rate and ratio column obeys: finite and positive.
fn positive_numbers(row: &Json, keys: &[&str], ctx: &str) -> Result<(), String> {
    for &key in keys {
        let v = row.f64_field(key).map_err(in_ctx(ctx))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("{ctx}: {key} = {v} is not finite and positive"));
        }
    }
    Ok(())
}

/// Checks a parsed report against the documented schema: version, mode,
/// non-empty queue and cell tables with well-typed fields, and totals
/// consistent with the cell rows. An `inference` table (`BENCH_010.json`
/// carries one, measured for an inference engine since deleted) is
/// history: it is neither read nor gated.
pub fn validate_report(report: &Json) -> Result<(), String> {
    let top = in_ctx("report");
    let version = report.u64_field("schema_version").map_err(&top)?;
    if version != SCHEMA_VERSION {
        return Err(format!("report: schema_version {version} != {SCHEMA_VERSION}"));
    }
    let mode = report.str_field("mode").map_err(&top)?;
    if BenchMode::parse(mode).is_none() {
        return Err(format!("report: unknown mode {mode:?}"));
    }

    let queue = report.array_field("queue").map_err(&top)?;
    if queue.is_empty() {
        return Err("report: queue table is empty".into());
    }
    for (i, row) in queue.iter().enumerate() {
        let ctx = format!("queue[{i}]");
        if row.u64_field("n").map_err(in_ctx(&ctx))? == 0 {
            return Err(format!("{ctx}: n must be positive"));
        }
        positive_numbers(
            row,
            &[
                "queue_events_per_sec",
                "heap_events_per_sec",
                "speedup_vs_heap",
            ],
            &ctx,
        )?;
    }

    let cells = report.array_field("cells").map_err(&top)?;
    if cells.is_empty() {
        return Err("report: cell table is empty".into());
    }
    let mut total_events = 0u64;
    for (i, row) in cells.iter().enumerate() {
        let ctx = format!("cells[{i}]");
        let err = in_ctx(&ctx);
        row.str_field("benchmark").map_err(&err)?;
        row.str_field("policy").map_err(&err)?;
        row.u64_field("seed").map_err(&err)?;
        for key in ["threads", "events", "trace_hash"] {
            if row.u64_field(key).map_err(&err)? == 0 {
                return Err(format!("{ctx}: {key} must be non-zero"));
            }
        }
        positive_numbers(row, &["events_per_sec", "wall_ms"], &ctx)?;
        total_events += row.u64_field("events").map_err(&err)?;
    }

    let totals = report.field("totals").map_err(&top)?;
    let t_cells = totals.u64_field("cells").map_err(in_ctx("totals"))?;
    if t_cells as usize != cells.len() {
        return Err(format!("totals: cells {t_cells} != cell table length {}", cells.len()));
    }
    let t_events = totals.u64_field("events").map_err(in_ctx("totals"))?;
    if t_events != total_events {
        return Err(format!("totals: events {t_events} != sum of cell events {total_events}"));
    }
    positive_numbers(totals, &["cells_per_sec", "events_per_sec"], "totals")?;
    Ok(())
}

fn cell_key(row: &Json) -> (String, String, u64, u64) {
    (
        row.str_field("benchmark").unwrap_or("").to_string(),
        row.str_field("policy").unwrap_or("").to_string(),
        row.u64_field("threads").unwrap_or(0),
        row.u64_field("seed").unwrap_or(0),
    )
}

/// Compares a fresh report against the committed baseline. Returns the
/// list of regressions/mismatches (empty = the gate passes):
///
/// * modes must match — smoke numbers are only comparable to smoke numbers;
/// * every baseline cell must reappear with *identical* `events` and
///   `trace_hash` (determinism facts; no tolerance);
/// * every baseline queue row's `speedup_vs_heap` may drop at most
///   `tolerance` (fraction, e.g. 0.25) below the baseline ratio.
pub fn compare_reports(report: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();

    let mode = report.str_field("mode").unwrap_or("?");
    let base_mode = baseline.str_field("mode").unwrap_or("?");
    if mode != base_mode {
        violations.push(format!(
            "mode mismatch: report is {mode:?} but baseline is {base_mode:?} \
             (run `seer bench --mode {base_mode}`)"
        ));
        return violations;
    }

    let cells = report.array_field("cells").unwrap_or(&[]);
    for base_row in baseline.array_field("cells").unwrap_or(&[]) {
        let key = cell_key(base_row);
        let Some(row) = cells.iter().find(|r| cell_key(r) == key) else {
            violations.push(format!("cell {key:?} present in baseline but missing from report"));
            continue;
        };
        let (events, base_events) = (
            row.u64_field("events").ok(),
            base_row.u64_field("events").ok(),
        );
        if events != base_events {
            violations.push(format!(
                "cell {key:?}: event count changed: {events:?} != baseline {base_events:?}"
            ));
        }
        let (hash, base_hash) = (
            row.u64_field("trace_hash").ok(),
            base_row.u64_field("trace_hash").ok(),
        );
        if hash != base_hash {
            violations.push(format!(
                "cell {key:?}: trace hash changed: {hash:?} != baseline {base_hash:?}"
            ));
        }
    }

    let queue = report.array_field("queue").unwrap_or(&[]);
    for base_row in baseline.array_field("queue").unwrap_or(&[]) {
        let n = base_row.u64_field("n").unwrap_or(0);
        let Some(row) = queue.iter().find(|r| r.u64_field("n").ok() == Some(n)) else {
            violations.push(format!("queue row n={n} present in baseline but missing from report"));
            continue;
        };
        let base_ratio = base_row.f64_field("speedup_vs_heap").unwrap_or(0.0);
        let ratio = row.f64_field("speedup_vs_heap").unwrap_or(0.0);
        let floor = base_ratio * (1.0 - tolerance);
        if ratio < floor {
            violations.push(format!(
                "queue n={n}: speedup_vs_heap regressed to {ratio:.3} \
                 (baseline {base_ratio:.3}, tolerance floor {floor:.3})"
            ));
        }
    }
    violations
}

/// Renders the performance *trajectory* from an older committed report
/// to a fresh one: per-queue-row speedup-ratio movement and per-cell
/// throughput movement, as human-readable lines. Unlike
/// [`compare_reports`] this never gates — absolute events/sec move with
/// the host and ratios drift within tolerance — it exists so a perf PR
/// diffs against the committed trajectory instead of only intra-file
/// ratios. The only hard error is a mode mismatch (smoke numbers are
/// not comparable to full numbers).
pub fn trend_lines(report: &Json, against: &Json) -> Result<Vec<String>, String> {
    let mode = report.str_field("mode").unwrap_or("?");
    let against_mode = against.str_field("mode").unwrap_or("?");
    if mode != against_mode {
        return Err(format!(
            "mode mismatch: report is {mode:?} but --against is {against_mode:?} \
             (trends are only meaningful within one mode)"
        ));
    }

    fn pct(now: f64, then: f64) -> String {
        if then <= 0.0 {
            return "n/a".into();
        }
        format!("{:+.1}%", (now / then - 1.0) * 100.0)
    }

    let mut lines = Vec::new();
    let queue = report.array_field("queue").unwrap_or(&[]);
    for old_row in against.array_field("queue").unwrap_or(&[]) {
        let n = old_row.u64_field("n").unwrap_or(0);
        let Some(row) = queue.iter().find(|r| r.u64_field("n").ok() == Some(n)) else {
            lines.push(format!("queue n={n}: dropped from the matrix"));
            continue;
        };
        let then = old_row.f64_field("speedup_vs_heap").unwrap_or(0.0);
        let now = row.f64_field("speedup_vs_heap").unwrap_or(0.0);
        lines.push(format!(
            "queue n={n}: speedup_vs_heap {then:.3} -> {now:.3} ({})",
            pct(now, then)
        ));
    }
    let cells = report.array_field("cells").unwrap_or(&[]);
    for old_row in against.array_field("cells").unwrap_or(&[]) {
        let key = cell_key(old_row);
        let Some(row) = cells.iter().find(|r| cell_key(r) == key) else {
            lines.push(format!(
                "cell {}/{}/t{}/s{}: dropped from the matrix",
                key.0, key.1, key.2, key.3
            ));
            continue;
        };
        let then = old_row.f64_field("events_per_sec").unwrap_or(0.0);
        let now = row.f64_field("events_per_sec").unwrap_or(0.0);
        lines.push(format!(
            "cell {}/{}/t{}/s{}: {then:.0} -> {now:.0} events/s ({})",
            key.0,
            key.1,
            key.2,
            key.3,
            pct(now, then)
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_pinned_to_sixteen_cells() {
        let cells = bench_matrix();
        assert_eq!(cells.len(), 16);
        // No duplicates, everything at the two pinned thread counts.
        for c in &cells {
            assert!(c.threads == 4 || c.threads == 8);
        }
        let mut keys: Vec<_> = cells
            .iter()
            .map(|c| (c.benchmark.name(), c.policy.name(), c.threads))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 16);
    }

    #[test]
    fn reference_heap_queue_matches_the_kernel_queue() {
        // The timing baseline must do the same work as the real queue:
        // same pop schedule, same trace digest arithmetic.
        let mut rng = SimRng::new(11);
        let times: Vec<Cycles> = (0..2_000).map(|_| rng.below(1 << 20)).collect();
        let mut q = EventQueue::new();
        let mut r = ReferenceHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
            r.push(t, i);
        }
        loop {
            match (q.pop(), r.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
        assert_eq!(q.trace_hash(), r.trace_hash());
    }

    #[test]
    fn queue_microbench_reports_positive_ratios() {
        // Tiny op budget: the assertion is structural, not statistical.
        let rows = queue_microbench(2_000, 1);
        assert_eq!(rows.len(), QUEUE_SIZES.len());
        for row in rows {
            assert!(row.queue_events_per_sec > 0.0);
            assert!(row.heap_events_per_sec > 0.0);
            assert!(row.speedup_vs_heap > 0.0);
        }
    }

    fn tiny_report() -> BenchReport {
        BenchReport {
            mode: BenchMode::Smoke,
            queue: vec![QueueBench {
                n: 1_000,
                queue_events_per_sec: 2e6,
                heap_events_per_sec: 1e6,
                speedup_vs_heap: 2.0,
            }],
            cells: vec![CellBench {
                benchmark: "genome",
                policy: "rtm",
                threads: 4,
                seed: 0,
                events: 1234,
                trace_hash: 0xdead_beef,
                events_per_sec: 5e5,
                wall_ms: 2.5,
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_json_and_validates() {
        let json = tiny_report().to_json();
        let text = json.to_string_pretty();
        let parsed = Json::parse(&text).expect("report must re-parse");
        validate_report(&parsed).expect("report must validate");
        assert_eq!(parsed.get("mode").and_then(Json::as_str), Some("smoke"));
        let totals = parsed.get("totals").unwrap();
        assert_eq!(totals.get("events").and_then(Json::as_u64), Some(1234));
    }

    #[test]
    fn validation_rejects_structural_damage() {
        let good = tiny_report().to_json();
        // Wrong schema version.
        let mut bad = good.clone();
        if let Json::Object(fields) = &mut bad {
            fields[0].1 = Json::UInt(99);
        }
        assert!(validate_report(&bad).is_err());
        // Unknown mode.
        let mut bad = good.clone();
        if let Json::Object(fields) = &mut bad {
            fields[1].1 = Json::Str("warp".into());
        }
        assert!(validate_report(&bad).is_err());
        // Totals that disagree with the cell rows.
        let mut bad = good.clone();
        if let Json::Object(fields) = &mut bad {
            let totals = fields.iter_mut().find(|(k, _)| k == "totals").unwrap();
            if let Json::Object(t) = &mut totals.1 {
                t.iter_mut().find(|(k, _)| k == "events").unwrap().1 = Json::UInt(1);
            }
        }
        assert!(validate_report(&bad).is_err());
        // Missing field inside a cell row.
        let mut bad = good;
        if let Json::Object(fields) = &mut bad {
            let cells = fields.iter_mut().find(|(k, _)| k == "cells").unwrap();
            if let Json::Array(rows) = &mut cells.1 {
                if let Json::Object(row) = &mut rows[0] {
                    row.retain(|(k, _)| k != "trace_hash");
                }
            }
        }
        assert!(validate_report(&bad).is_err());
    }

    #[test]
    fn comparison_gates_determinism_exactly_and_speed_with_tolerance() {
        let base = tiny_report().to_json();

        // Identical report: clean pass.
        assert!(compare_reports(&base, &base, 0.25).is_empty());

        // Faster is always fine.
        let mut faster = tiny_report();
        faster.queue[0].speedup_vs_heap = 3.0;
        assert!(compare_reports(&faster.to_json(), &base, 0.25).is_empty());

        // A within-tolerance slowdown passes; past it fails.
        let mut slower = tiny_report();
        slower.queue[0].speedup_vs_heap = 1.6; // -20% of 2.0
        assert!(compare_reports(&slower.to_json(), &base, 0.25).is_empty());
        slower.queue[0].speedup_vs_heap = 1.4; // -30%
        let violations = compare_reports(&slower.to_json(), &base, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("speedup_vs_heap"));

        // Determinism facts have no tolerance at all.
        let mut drifted = tiny_report();
        drifted.cells[0].trace_hash ^= 1;
        let violations = compare_reports(&drifted.to_json(), &base, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("trace hash"));
        let mut drifted = tiny_report();
        drifted.cells[0].events += 1;
        assert!(!compare_reports(&drifted.to_json(), &base, 0.25).is_empty());

        // A missing cell is a violation, as is a mode mismatch.
        let mut missing = tiny_report();
        missing.cells.clear();
        assert!(!compare_reports(&missing.to_json(), &base, 0.25).is_empty());
        let mut full = tiny_report();
        full.mode = BenchMode::Full;
        let violations = compare_reports(&full.to_json(), &base, 0.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("mode mismatch"));
    }

    #[test]
    fn historical_inference_table_is_neither_read_nor_gated() {
        // BENCH_010.json carries an `inference` table from the deleted
        // incremental engine. A report or baseline with one still
        // validates and compares on its queue and cell rows alone.
        let mut old = tiny_report().to_json();
        if let Json::Object(fields) = &mut old {
            fields.push(("inference".into(), Json::Array(vec![Json::Str("history".into())])));
        }
        validate_report(&old).expect("a report with a history table must validate");
        assert!(compare_reports(&tiny_report().to_json(), &old, 0.25).is_empty());
        assert!(compare_reports(&old, &tiny_report().to_json(), 0.25).is_empty());
        let lines = trend_lines(&tiny_report().to_json(), &old).unwrap();
        assert!(lines.iter().all(|l| !l.contains("inference")), "{lines:?}");
        // The retired mode name is no longer a mode, and every report must
        // carry queue and cell rows.
        assert_eq!(BenchMode::parse("inference"), None);
        let mut empty = tiny_report();
        empty.cells.clear();
        assert!(validate_report(&empty.to_json()).is_err());
    }
}
