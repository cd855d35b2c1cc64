//! `seer-benchmark`: the end-to-end host metrics of one workload, measured
//! untraced on the system allocator. See `README.md`.

use std::process::ExitCode;

use seer_benchmark::facts::check_run;
use seer_benchmark::stats::{median, minimum, peak_rss_mb, tail};
use seer_benchmark::{
    guarded, parse_args, print_result, ratio, run_passes, run_plain, Args, CellSpec, Checker,
    Expected, Facts, Metric, USAGE,
};
use seer_harness::geometric_mean;
use seer_scenario::RunRequest;

/// One pass over the workload's cells.
#[derive(Debug, Default)]
struct Pass {
    /// Per cell, in cell order: set-up time in ms (0 if it panicked).
    setup_ms: Vec<f64>,
    /// Per cell, in cell order: run time in ms (0 if it panicked).
    run_ms: Vec<f64>,
    events: u64,
    speedups: Vec<f64>,
}

fn run_pass(cells: &[CellSpec], expected: &Expected, checker: &mut Checker) -> Pass {
    let mut pass = Pass::default();
    for (i, cell) in cells.iter().enumerate() {
        let (mut setup_ms, mut run_ms) = (0.0, 0.0);
        let outcome = guarded(|| run_plain(cell))
            .map_err(|e| format!("panicked: {e}"))
            .and_then(|r| {
                setup_ms = r.setup.as_secs_f64() * 1e3;
                run_ms = r.run.as_secs_f64() * 1e3;
                pass.events += r.metrics.events;
                pass.speedups.push(r.metrics.speedup());
                let facts = check_run(cell, &r.metrics)?;
                expected.check(&cell.key(), facts).map(|()| facts)
            });
        pass.setup_ms.push(setup_ms);
        pass.run_ms.push(run_ms);
        checker.record(i, cell, outcome);
    }
    pass
}

/// For each cell, `reduce` over the passes of that cell's `time`.
fn per_cell(
    passes: &[Pass],
    time: impl Fn(&Pass, usize) -> f64,
    reduce: fn(&[f64]) -> f64,
) -> Vec<f64> {
    (0..passes[0].setup_ms.len())
        .map(|i| reduce(&passes.iter().map(|p| time(p, i)).collect::<Vec<_>>()))
        .collect()
}

/// Runs the cell at index `seed mod cells` through the workspace's public
/// entry point; its facts must equal the benchmark's own.
fn sample_check(args: &Args, cells: &[CellSpec], checker: &mut Checker) {
    let idx = (args.seed % cells.len() as u64) as usize;
    let cell = &cells[idx];
    let outcome = guarded(|| {
        Facts::of(
            &RunRequest::cell(cell.cell())
                .seed(cell.seed)
                .scale(cell.scale)
                .run(),
        )
    })
    .map_err(|e| format!("RunRequest panicked: {e}"))
    .and_then(|facts| match checker.facts(idx) {
        Some(own) if own == facts => Ok(facts),
        Some(own) => Err(format!("RunRequest facts {facts} differ from {own}")),
        None => Err("no facts to compare RunRequest with".to_string()),
    });
    checker.record(idx, cell, outcome);
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match Expected::bless(args.workload) {
            Ok((path, n)) => {
                println!("blessed {n} cells into {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.trace {
        eprintln!("error: --trace 1 is served by seer-benchmark-trace");
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
    let passes = run_passes(args.seconds, |_| run_pass(&cells, &expected, &mut checker));
    sample_check(&args, &cells, &mut checker);

    for (i, p) in passes.iter().enumerate() {
        let (setup, run) = (p.setup_ms.iter().sum::<f64>(), p.run_ms.iter().sum::<f64>());
        println!(
            "pass {i}: wall_s {:.6} setup_s {:.6} run_s {:.6}",
            (setup + run) / 1e3,
            setup / 1e3,
            run / 1e3
        );
    }
    // Every pass does identical deterministic work, so what differs between
    // passes is host interference, which only adds time: a cell's run and
    // total times are its fastest pass. Set-up is mostly allocation and page
    // faults, whose cost follows the heap state the previous cell left, so
    // a cell's set-up time is its median pass, which keeps that cost in.
    let setup_ms = per_cell(&passes, |p, i| p.setup_ms[i], median);
    let run_ms = per_cell(&passes, |p, i| p.run_ms[i], minimum);
    let cell_ms = per_cell(&passes, |p, i| p.setup_ms[i] + p.run_ms[i], minimum);
    let t = tail(&cell_ms).expect("a workload has cells");
    let events = passes[0].events as f64;
    let metrics = [
        Metric::new("wall_s", "s", cell_ms.iter().sum::<f64>() / 1e3),
        Metric::new("setup_s", "s", setup_ms.iter().sum::<f64>() / 1e3),
        Metric::new(
            "events_per_s",
            "1/s",
            ratio(events, run_ms.iter().sum::<f64>() / 1e3),
        ),
        Metric::new("cell_ms_p50", "ms", median(&cell_ms)),
        Metric::new("cell_ms_tail", "ms", t.value),
        Metric::new(
            "sim_speedup_geomean",
            "x",
            geometric_mean(&passes[0].speedups),
        ),
    ];
    println!(
        "workload {} seed {}: {} passes of {} cells; cell_ms_tail is p{} with {} of {} cells \
         beyond; peak_rss_mb {} (VmHWM, unbounded)",
        args.workload.name,
        args.seed,
        passes.len(),
        cells.len(),
        t.percentile,
        t.beyond,
        t.samples,
        peak_rss_mb()
    );
    checker.report();
    print_result(&checker, &metrics);
    ExitCode::SUCCESS
}
