//! # seer-benchmark — host cost of the Seer reproduction
//!
//! Times whole simulation cells from the outside by calling the public
//! layers directly — `Benchmark::instantiate_scaled` + `PolicyKind::build`
//! (set-up), then `seer_runtime::run` (run) — and checks every cell's
//! simulated facts. Two binaries share this library:
//!
//! * `seer-benchmark` reports the end-to-end metrics, untraced, on the
//!   system allocator;
//! * `seer-benchmark-trace` runs every cell a second time through timing
//!   wrappers around `Workload` and `Scheduler` (see [`layers`]) under a
//!   counting allocator and reports the per-layer split.
//!
//! Everything is serial: one process, one OS thread, a closed loop with a
//! single client (each cell starts when the previous one ends). A run
//! repeats its workload's whole cell list in passes for `--seconds` and
//! reduces each metric over the passes. `README.md` documents the metrics,
//! the workloads and the measured spreads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod facts;
pub mod layers;
pub mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use seer_harness::{sim_seed, Cell, PolicyKind};
use seer_runtime::{DriverConfig, RunMetrics, Workload as _};
use seer_stamp::Benchmark;

pub use facts::{Checker, Expected, Facts};

/// Largest accepted `--seed`: keeps every derived harness seed, and the
/// simulator seed `sim_seed` derives from it, far from `u64` overflow.
pub const MAX_SEED: u64 = 1 << 40;

/// One benchmark workload: a fixed cell grid and the number of harness
/// seeds each `--seed` expands to.
#[derive(Debug)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Workload models.
    pub benchmarks: &'static [Benchmark],
    /// Scheduler variants.
    pub policies: &'static [PolicyKind],
    /// Simulated thread counts.
    pub threads: &'static [usize],
    /// Scale factor on each benchmark's default transactions per thread.
    pub scale: f64,
    /// `--seed S` runs harness seeds `S..S + seeds`.
    pub seeds: u64,
}

/// The benchmark's workloads; `README.md` records why each was chosen.
pub const WORKLOADS: [WorkloadDef; 4] = [
    // The paper's headline regime: abort, retry, gate and fallback paths.
    WorkloadDef {
        name: "high-contention",
        benchmarks: &[
            Benchmark::KmeansHigh,
            Benchmark::VacationHigh,
            Benchmark::Intruder,
            Benchmark::Genome,
            Benchmark::Yada,
        ],
        policies: &PolicyKind::FIGURE3,
        threads: &[8],
        scale: 0.5,
        seeds: 4,
    },
    // Almost no aborts: the kernel's commit fast path and per-transaction
    // costs (`Workload::next`, begin/commit, registration scans).
    WorkloadDef {
        name: "low-contention",
        benchmarks: &[Benchmark::Ssca2, Benchmark::HashmapLow],
        policies: &[PolicyKind::Rtm, PolicyKind::Seer],
        threads: &[4, 8],
        scale: 2.0,
        seeds: 6,
    },
    // Where Seer's core works hardest; the rtm twins are the control.
    WorkloadDef {
        name: "many-blocks",
        benchmarks: &[
            Benchmark::Synth { blocks: 128 },
            Benchmark::Synth { blocks: 256 },
        ],
        policies: &[PolicyKind::Rtm, PolicyKind::Seer],
        threads: &[4, 8],
        scale: 5.0,
        seeds: 6,
    },
    // Shaped like the tuner's runs and the test suite: set-up dominates.
    WorkloadDef {
        name: "short-cells",
        benchmarks: &[
            Benchmark::Genome,
            Benchmark::Intruder,
            Benchmark::KmeansHigh,
            Benchmark::KmeansLow,
            Benchmark::Ssca2,
            Benchmark::VacationHigh,
            Benchmark::VacationLow,
            Benchmark::Yada,
            Benchmark::HashmapLow,
        ],
        policies: &PolicyKind::ALL,
        threads: &[4],
        scale: 0.08,
        seeds: 11,
    },
];

impl WorkloadDef {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The cells one pass runs for `--seed seed`, seeds outermost.
    pub fn cells(&self, seed: u64) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for s in seed..seed + self.seeds {
            for &benchmark in self.benchmarks {
                for &policy in self.policies {
                    for &threads in self.threads {
                        cells.push(CellSpec {
                            benchmark,
                            policy,
                            threads,
                            scale: self.scale,
                            seed: s,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// One simulation cell at one harness seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Workload model.
    pub benchmark: Benchmark,
    /// Scheduler variant.
    pub policy: PolicyKind,
    /// Simulated threads.
    pub threads: usize,
    /// Work scale factor.
    pub scale: f64,
    /// Harness seed.
    pub seed: u64,
}

impl CellSpec {
    /// `benchmark policy threads seed`: the key of the expected-facts files.
    pub fn key(&self) -> String {
        format!(
            "{} {} {} {}",
            self.benchmark.spec(),
            self.policy.spec(),
            self.threads,
            self.seed
        )
    }

    /// The harness cell (without seed and scale).
    pub fn cell(&self) -> Cell {
        Cell {
            benchmark: self.benchmark,
            policy: self.policy,
            threads: self.threads,
        }
    }

    /// The simulation configuration every harness run of this cell uses.
    pub fn sim_config(&self) -> DriverConfig {
        DriverConfig::paper_machine(self.threads, sim_seed(self.seed))
    }

    /// Commits a complete run must report: every thread's whole share.
    pub fn expected_commits(&self) -> u64 {
        (self.threads * self.benchmark.scaled_txs(self.scale)) as u64
    }
}

/// A cell run untraced, with its two outside-in timings.
#[derive(Debug)]
pub struct PlainRun {
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// `instantiate_scaled` + `PolicyKind::build`.
    pub setup: Duration,
    /// `run`, including dropping the workload and scheduler.
    pub run: Duration,
}

/// Runs `cell` through the public layers, timing set-up and run.
pub fn run_plain(cell: &CellSpec) -> PlainRun {
    let t0 = Instant::now();
    let mut workload = cell.benchmark.instantiate_scaled(cell.threads, cell.scale);
    let mut sched = cell.policy.build(cell.threads, workload.num_blocks());
    let t1 = Instant::now();
    let metrics = seer_runtime::run(&mut workload, sched.as_mut(), &cell.sim_config());
    drop((workload, sched));
    let t2 = Instant::now();
    PlainRun {
        metrics,
        setup: t1 - t0,
        run: t2 - t1,
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Parsed command line, shared by both binaries.
#[derive(Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static WorkloadDef,
    /// Workload seed: harness seeds `seed..seed + workload.seeds`.
    pub seed: u64,
    /// Measuring time; passes stop once another would overrun it.
    pub seconds: f64,
    /// `--trace 1`: the per-layer run.
    pub trace: bool,
    /// `--bless`: rewrite the workload's expected-facts file and exit.
    pub bless: bool,
    /// `--trace-out F.jsonl`: where the traced binary writes its spans.
    pub trace_out: Option<String>,
}

/// Usage text for both binaries.
pub const USAGE: &str = "usage: seer-benchmark --workload NAME [--seed S] [--seconds T] \
[--trace 0|1] [--trace-out F.jsonl] [--bless]\n\
workloads: high-contention, low-contention, many-blocks, short-cells";

/// Parses the command line (without the program name).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut trace_out = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadDef::find(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .ok()
                    .filter(|&s| s <= MAX_SEED)
                    .ok_or_else(|| format!("--seed must be an integer in 0..={MAX_SEED}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s.is_finite() && s > 0.0)
                    .ok_or_else(|| "--seconds must be a positive number".to_string())?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bless,
        trace_out,
    })
}

/// Runs `pass` repeatedly until another pass of typical (median) length
/// would overrun `seconds`; always runs at least one.
pub fn run_passes<P>(seconds: f64, mut pass: impl FnMut(usize) -> P) -> Vec<P> {
    let start = Instant::now();
    let mut results = Vec::new();
    let mut lengths = Vec::new();
    loop {
        let t = Instant::now();
        results.push(pass(results.len()));
        lengths.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + stats::median(&lengths) > seconds {
            return results;
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (an empty denominator) report as 0.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Prints every metric by name with its unit, then the result object as
/// the last line of standard output.
pub fn print_result(checker: &Checker, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.correct(),
        checker.attempted(),
        checker.failed(),
        body.join(", ")
    );
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn workload_grids_have_the_documented_sizes() {
        let sizes: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name, w.cells(0).len()))
            .collect();
        assert_eq!(
            sizes,
            [
                ("high-contention", 80),
                ("low-contention", 48),
                ("many-blocks", 48),
                ("short-cells", 1089)
            ]
        );
    }

    #[test]
    fn seed_expands_to_consecutive_harness_seeds() {
        let w = WorkloadDef::find("low-contention").unwrap();
        let seeds: Vec<u64> = w.cells(7).iter().map(|c| c.seed).collect();
        assert_eq!(seeds.first(), Some(&7));
        assert_eq!(seeds.last(), Some(&12));
    }

    #[test]
    fn command_line_parses_and_rejects() {
        let a = args("--workload many-blocks --seed 3 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("many-blocks", 3, 2.5, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload short-cells --trace 2",
            "--workload short-cells --seed -1",
            "--workload short-cells --seconds 0",
            "--workload short-cells --seed",
            "--workload short-cells --frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn passes_stop_at_the_time_budget() {
        let mut calls = 0;
        let out = run_passes(0.05, |i| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(20));
            i
        });
        assert_eq!(out, (0..calls).collect::<Vec<_>>());
        assert!((1..=3).contains(&calls), "{calls} passes");
    }
}
