//! `seer experiment <name>`: regenerates one table or figure of the
//! paper's evaluation (`DESIGN.md` §4 has the index).
//!
//! Every experiment shares one frame: a [`CellExecutor`] over
//! [`env_config`] (`SEER_SEEDS`, `SEER_SCALE`, `SEER_JOBS`), the
//! configuration and cache lines on stderr, and the optional
//! `SEER_REPORT_JSON` export. The table below adds only what differs —
//! which `seer_harness` function runs and how its result prints.

use seer_harness::{
    convergence, core_locks_only, env_config, figure3, figure4, figure5, fine_grained,
    inference_accuracy, maybe_write_json, table3, CellExecutor, Json, ToJson, THREADS_FULL,
    THREADS_TABLE,
};

use crate::args::{Args, ParseError};

/// One experiment: prints its text rendering and returns its JSON report.
type Experiment = fn(&CellExecutor) -> Json;

/// Every experiment `seer experiment` runs, by name.
pub const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("fig3", fig3),
    ("table3", table3_modes),
    ("fig4", fig4),
    ("fig5", fig5),
    ("ablation-core-locks", ablation_core_locks),
    ("accuracy", accuracy),
    ("fine-grained", fine_grained_locks),
    ("convergence", convergence_speed),
];

/// The experiment names, comma-separated (for usage and errors).
pub fn names() -> String {
    EXPERIMENTS.map(|(name, _)| name).join(", ")
}

/// `seer experiment <name>`.
pub fn experiment(name: &str, args: &Args) -> Result<(), ParseError> {
    let (name, run) = EXPERIMENTS
        .into_iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| ParseError(format!("unknown experiment {name:?} (valid: {})", names())))?;
    args.allow_only(&[])?;
    let exec = CellExecutor::new(env_config());
    let cfg = exec.config();
    eprintln!(
        "{name}: seeds={} scale={} jobs={} (set SEER_SEEDS / SEER_SCALE / SEER_JOBS to adjust)",
        cfg.seeds, cfg.scale, cfg.jobs
    );
    let report = run(&exec);
    // The extra experiments drive their own runs rather than the executor.
    if exec.misses() + exec.hits() > 0 {
        eprintln!(
            "{name}: {} cells simulated, {} cache hits",
            exec.misses(),
            exec.hits()
        );
    }
    let written = maybe_write_json(&report)
        .map_err(|e| ParseError(format!("cannot write $SEER_REPORT_JSON: {e}")))?;
    if written {
        eprintln!("{name}: JSON written to $SEER_REPORT_JSON");
    }
    Ok(())
}

fn fig3(exec: &CellExecutor) -> Json {
    let panels = figure3(exec, &THREADS_FULL);
    for p in &panels {
        print!("{}", p.render());
        println!();
    }
    panels.to_json()
}

fn table3_modes(exec: &CellExecutor) -> Json {
    let (tables, lock_fraction) = table3(exec, &THREADS_TABLE);
    for t in &tables {
        print!("{}", t.render());
        println!();
    }
    if let Some(f) = lock_fraction {
        println!(
            "Seer fine-granularity statistic (§5.2): when transaction locks are\n\
             acquired, the median fraction of the available transaction locks\n\
             taken is {:.0}% (the paper reports < 23% in 50% of the cases).",
            f * 100.0
        );
    }
    tables.to_json()
}

fn fig4(exec: &CellExecutor) -> Json {
    let panel = figure4(exec, &THREADS_FULL);
    print!("{}", panel.render());
    println!();
    println!("Values below 1.0 are pure instrumentation overhead; the paper");
    println!("reports a mean slowdown below 5% and at most 8%.");
    panel.to_json()
}

fn fig5(exec: &CellExecutor) -> Json {
    let panels = figure5(exec, &THREADS_TABLE);
    for p in &panels {
        print!("{}", p.render());
        println!();
    }
    panels.to_json()
}

/// §5.3: geometric-mean speedup of Seer with only core locks enabled,
/// relative to profile-only Seer (the paper: +9% at 6, +22% at 8 threads).
fn ablation_core_locks(exec: &CellExecutor) -> Json {
    let panel = core_locks_only(exec, &[2, 4, 6, 8]);
    print!("{}", panel.render());
    panel.to_json()
}

/// Seer's inferred serialization pairs against the simulator's true
/// killers (pairs behind at least 5% of a run's kills), at 8 threads.
fn accuracy(exec: &CellExecutor) -> Json {
    let results = inference_accuracy(8, exec.config().scale, 0.05);
    println!(
        "{:<16}{:>10}{:>10}{:>10}{:>8}",
        "benchmark", "precision", "recall", "inferred", "truth"
    );
    for r in &results {
        println!(
            "{:<16}{:>10.2}{:>10.2}{:>10}{:>8}",
            r.benchmark, r.precision, r.recall, r.inferred, r.truth
        );
    }
    results.to_json()
}

/// The paper's §6 future work: locks keyed by (atomic block × data
/// structure) instead of atomic block alone, at 8 threads.
fn fine_grained_locks(exec: &CellExecutor) -> Json {
    let cfg = exec.config();
    let results = fine_grained(8, cfg.scale, cfg.seeds);
    println!(
        "{:<16}{:>10}{:>10}{:>14}{:>15}",
        "benchmark", "plain", "refined", "plain pairs", "refined pairs"
    );
    for r in &results {
        println!(
            "{:<16}{:>10.2}{:>10.2}{:>14}{:>15}",
            r.benchmark, r.plain, r.refined, r.plain_pairs, r.refined_pairs
        );
    }
    println!("\nRefinement buys precision (pairs name structures, not whole blocks)");
    println!("at the cost of slower convergence (statistics spread over more cells).");
    results.to_json()
}

/// When the inferred locking scheme last changed, per benchmark at 8
/// threads — how much of a run the inference actually needs (§5.3).
fn convergence_speed(exec: &CellExecutor) -> Json {
    let results = convergence(8, exec.config().scale);
    println!(
        "{:<16}{:>16}{:>14}{:>12}{:>10}",
        "benchmark", "converged@cycle", "makespan", "fraction", "updates"
    );
    for r in &results {
        let (at, frac) = match (r.converged_at, r.converged_fraction) {
            (Some(a), Some(f)) => (a.to_string(), format!("{:.0}%", f * 100.0)),
            _ => ("never locked".to_string(), "-".to_string()),
        };
        println!(
            "{:<16}{:>16}{:>14}{:>12}{:>10}",
            r.benchmark, at, r.makespan, frac, r.updates
        );
    }
    results.to_json()
}
