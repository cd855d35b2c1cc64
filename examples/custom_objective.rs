//! A user-defined tuning objective: minimize tail waiting.
//!
//! The built-in objectives optimize throughput and disturbance
//! recovery. This example plugs a different figure of merit into the
//! same deterministic search machinery: the p99 of Seer's wait-queue
//! residency (how long the unluckiest transactions sit parked before
//! the scheduler releases them), folded from the `RunMetrics` the
//! executor already caches. Nothing else changes — the driver batches,
//! memoizes, and ranks exactly as for the built-ins.
//!
//! ```sh
//! cargo run --release --example custom_objective [budget]
//! ```

use seer_harness::{Cell, Plan, PolicyKind};
use seer_scenario::ScenarioPlan;
use seer_stamp::Benchmark;
use seer_tune::{run_search, DriverKind, Objective, ParamSpace, TuneExecutor};

/// The pinned workload: one high-contention benchmark where waiting is
/// the mechanism Seer trades aborts against.
const BENCHMARK: Benchmark = Benchmark::KmeansHigh;
const THREADS: usize = 8;
const SCALE: f64 = 0.5;

/// Tail-latency objective: higher is better, so the score is the
/// negated seed-averaged p99 park time in cycles.
struct TailWaitObjective;

impl Objective for TailWaitObjective {
    fn name(&self) -> &'static str {
        "p99-wait"
    }

    fn plan(
        &self,
        policy: PolicyKind,
        fidelity: u64,
        cells: &mut Plan,
        _scenarios: &mut ScenarioPlan,
    ) {
        for seed in 0..fidelity {
            cells.add_one(
                Cell {
                    benchmark: BENCHMARK,
                    policy,
                    threads: THREADS,
                },
                seed,
                SCALE,
            );
        }
    }

    fn score(&self, policy: PolicyKind, fidelity: u64, exec: &TuneExecutor) -> Option<f64> {
        let mut total = 0.0;
        for seed in 0..fidelity {
            let m = exec.cells().cached(
                Cell {
                    benchmark: BENCHMARK,
                    policy,
                    threads: THREADS,
                },
                seed,
                SCALE,
            )?;
            total += m.wait_histogram.quantile(0.99) as f64;
        }
        Some(-(total / fidelity as f64))
    }
}

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    let space = ParamSpace::default_space();
    let exec = TuneExecutor::new(4, None, None);
    let outcome = run_search(
        &space,
        DriverKind::Random,
        budget,
        0,
        &TailWaitObjective,
        &exec,
        &mut |what, _| eprintln!("evaluating {what}"),
    );

    println!(
        "{} on {}/{THREADS}t — lower p99 park time is better ({} config(s)):",
        TailWaitObjective.name(),
        BENCHMARK.name(),
        outcome.trials.len(),
    );
    let mut ranked: Vec<_> = outcome.trials.iter().collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    for t in &ranked {
        match t.score {
            Some(s) => println!("  {:>8.0} cycles  {}", -s, space.policy(&t.point).spec()),
            None => println!("    FAILED  {}", space.policy(&t.point).spec()),
        }
    }

    // The paper defaults under the same yardstick.
    let mut cells = Plan::new();
    let mut scenarios = ScenarioPlan::new();
    TailWaitObjective.plan(PolicyKind::Seer, 2, &mut cells, &mut scenarios);
    exec.execute(&cells, &scenarios);
    if let Some(d) = TailWaitObjective.score(PolicyKind::Seer, 2, &exec) {
        println!("  {:>8.0} cycles  seer (paper defaults)", -d);
    }
}
