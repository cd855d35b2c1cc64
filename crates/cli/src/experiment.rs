//! `seer experiment <name>`: regenerates one table or figure of the
//! paper's evaluation (`DESIGN.md` §4 has the index).
//!
//! Every experiment shares one frame: a [`CellExecutor`] over
//! [`env_config`] (`SEER_SEEDS`, `SEER_SCALE`, `SEER_JOBS`) with the
//! `SEER_CELL_TIMEOUT_MS` deadline, the configuration and coverage lines
//! on stderr, the failed items and a nonzero exit when a planned item has
//! no result, and the optional `SEER_REPORT_JSON` export. The table below
//! adds only what differs — which `seer_harness` function runs and how
//! its result prints.

use std::fmt::Display;

use seer_harness::{
    convergence, core_locks_only, env_config, figure3, figure4, figure5, fine_grained,
    inference_accuracy, maybe_write_json, table3, CellExecutor, Json, Planned, ToJson,
    THREADS_FULL, THREADS_TABLE,
};

use crate::args::{Args, ParseError};
use crate::commands::{cell_deadline, coverage_loss};

/// What one experiment hands back to the frame: its JSON document
/// (`None` only if the figure could not be assembled), or its coverage
/// loss as the error.
type Produced = Result<Option<Json>, ParseError>;

/// One experiment, by name: prints its text rendering and returns what it
/// produced.
type Experiment = fn(&str, &CellExecutor) -> Produced;

/// Prints a planned experiment's figure with `show`, which returns its
/// JSON — only if every planned item has a result — then the coverage
/// line; a failed item makes the error.
fn shown<T, K: Display>(
    name: &str,
    (report, figure): Planned<T, K>,
    show: impl FnOnce(T) -> Json,
) -> Produced {
    let json = figure.map(show);
    eprintln!("{name}: {} cell(s) planned — {report}", report.planned);
    coverage_loss(name, &report, "cell(s)", "no figure printed")?;
    Ok(json)
}

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
    let exec = CellExecutor::new(env_config(), cell_deadline());
    let cfg = exec.config();
    eprintln!(
        "{name}: seeds={} scale={} jobs={} (set SEER_SEEDS / SEER_SCALE / SEER_JOBS to adjust)",
        cfg.seeds, cfg.scale, cfg.jobs
    );
    let Some(json) = run(name, &exec)? else {
        return Ok(());
    };
    let written = maybe_write_json(&json)
        .map_err(|e| ParseError(format!("cannot write $SEER_REPORT_JSON: {e}")))?;
    if written {
        eprintln!("{name}: JSON written to $SEER_REPORT_JSON");
    }
    Ok(())
}

fn fig3(name: &str, exec: &CellExecutor) -> Produced {
    shown(name, figure3(exec, &THREADS_FULL), |panels| {
        for p in &panels {
            print!("{}", p.render());
            println!();
        }
        panels.to_json()
    })
}

fn table3_modes(name: &str, exec: &CellExecutor) -> Produced {
    shown(
        name,
        table3(exec, &THREADS_TABLE),
        |(tables, lock_fraction)| {
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
        },
    )
}

fn fig4(name: &str, exec: &CellExecutor) -> Produced {
    shown(name, figure4(exec, &THREADS_FULL), |panel| {
        print!("{}", panel.render());
        println!();
        println!("Values below 1.0 are pure instrumentation overhead; the paper");
        println!("reports a mean slowdown below 5% and at most 8%.");
        panel.to_json()
    })
}

fn fig5(name: &str, exec: &CellExecutor) -> Produced {
    shown(name, figure5(exec, &THREADS_TABLE), |panels| {
        for p in &panels {
            print!("{}", p.render());
            println!();
        }
        panels.to_json()
    })
}

/// §5.3: geometric-mean speedup of Seer with only core locks enabled,
/// relative to profile-only Seer (the paper: +9% at 6, +22% at 8 threads).
fn ablation_core_locks(name: &str, exec: &CellExecutor) -> Produced {
    shown(name, core_locks_only(exec, &[2, 4, 6, 8]), |panel| {
        print!("{}", panel.render());
        panel.to_json()
    })
}

/// Seer's inferred serialization pairs against the simulator's true
/// killers (pairs behind at least 5% of a run's kills), at 8 threads.
fn accuracy(name: &str, exec: &CellExecutor) -> Produced {
    let cfg = exec.config();
    let planned = inference_accuracy(8, cfg.scale, 0.05, cfg.jobs, cell_deadline());
    shown(name, planned, |results| {
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
    })
}

/// The paper's §6 future work: locks keyed by (atomic block × data
/// structure) instead of atomic block alone, at 8 threads.
fn fine_grained_locks(name: &str, exec: &CellExecutor) -> Produced {
    let cfg = exec.config();
    let planned = fine_grained(8, cfg.scale, cfg.seeds, cfg.jobs, cell_deadline());
    shown(name, planned, |results| {
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
    })
}

/// When the inferred locking scheme last changed, per benchmark at 8
/// threads — how much of a run the inference actually needs (§5.3).
fn convergence_speed(name: &str, exec: &CellExecutor) -> Produced {
    let cfg = exec.config();
    let planned = convergence(8, cfg.scale, cfg.jobs, cell_deadline());
    shown(name, planned, |results| {
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
    })
}
