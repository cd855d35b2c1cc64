//! The CLI commands: `list`, `run`, `sweep`, `tune`, `inspect`,
//! `explain`, and the `scenario` family (`check` and `experiment` have
//! modules of their own).

use std::sync::Once;

use seer::{Seer, SeerConfig};
use seer_harness::{
    default_jobs, write_chrome_trace, write_trace_jsonl, Cell, CellExecutor, ExecReport,
    HarnessConfig, Plan, PolicyKind, Store,
};
use seer_runtime::{run, DriverConfig, MemoryTraceSink, RunMetrics, TxMode, Workload};
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

use crate::args::{Args, ParseError};

/// The fixed benchmarks the CLI lists (STAMP + the hash-map probe).
/// The parameterized `synth@blocks=N` probe is parsed by spec instead —
/// see [`parse_benchmark`].
fn benchmarks() -> Vec<Benchmark> {
    Benchmark::STAMP
        .into_iter()
        .chain([Benchmark::HashmapLow])
        .collect()
}

/// Parses `--benchmark`: a fixed member's name, `synth`, or
/// `synth@blocks=N`. Labyrinth stays CLI-hidden (it exists to validate
/// the paper's exclusion, not to be run from here).
fn parse_benchmark(name: &str) -> Result<Benchmark, ParseError> {
    Benchmark::from_spec(name)
        .filter(|b| *b != Benchmark::Labyrinth)
        .ok_or_else(|| ParseError(format!("unknown benchmark {name:?} (see `seer list`)")))
}

/// Every [`PolicyKind`] name round-trips through `FromStr`, so the CLI
/// can run all eleven variants — the Figure 5 cumulative ones included.
fn parse_policy(name: &str) -> Result<PolicyKind, ParseError> {
    name.parse::<PolicyKind>()
        .map_err(|e| ParseError(e.to_string()))
}

/// Prints top-level usage.
pub fn print_usage() {
    println!(
        "seer — Seer HTM-scheduler reproduction (SPAA'15)\n\
         \n\
         commands:\n\
         \x20 list                         benchmarks and policies\n\
         \x20 run      one simulated run   --benchmark B --policy P --threads N\n\
         \x20                              [--seed N] [--txs N] [--json true]\n\
         \x20                              [--trace F.jsonl] [--chrome F.json]\n\
         \x20 sweep    thread sweep        --benchmark B [--policies hle,rtm,scm,seer]\n\
         \x20                              [--max-threads N] [--seed N] [--jobs N]\n\
         \x20                              [--store DIR] [--resume]\n\
         \x20 tune     parameter search    [--driver random|halving|climb] [--budget N]\n\
         \x20          over Seer's knobs   [--objective throughput|robustness|combined]\n\
         \x20          (see DESIGN.md §15) [--space F.json] [--seed N] [--jobs N]\n\
         \x20                              [--json true] [--out TUNE.json]\n\
         \x20                              [--store DIR] [--resume]\n\
         \x20 inspect  Seer's learned state --benchmark B --threads N [--txs N] [--seed N]\n\
         \x20 explain  decision history     --benchmark B --policy P --pair X,Y\n\
         \x20          for one block pair   [--threads N] [--seed N] [--txs N]\n\
         \x20 scenario list                 built-in disturbance scenarios\n\
         \x20 scenario run                  [--name S | --spec F.json] [--policy P]\n\
         \x20          recovery scoring     [--seed N] [--jobs N] [--json true]\n\
         \x20                               [--trace F.jsonl] [--store DIR] [--resume]\n\
         \x20 experiment NAME              regenerate a paper table/figure: fig3, table3,\n\
         \x20                              fig4, fig5, ablation-core-locks, accuracy,\n\
         \x20                              fine-grained, convergence (SEER_SEEDS,\n\
         \x20                              SEER_SCALE, SEER_JOBS, SEER_REPORT_JSON)\n\
         \x20 check KIND   schema gate     --file F[,F...]   KIND: trace|scenario|tune\n\
         \n\
         Persistence: --store DIR attaches an on-disk result store (results load\n\
         before simulating and persist after); --resume is shorthand for\n\
         --store .seer-store. A killed sweep re-run with --resume recomputes only\n\
         the gap and is byte-identical to an uninterrupted run.\n\
         \n\
         Simulated machine: 4 physical cores x 2 hyper-threads (the paper's\n\
         Haswell Xeon E3-1275); all results are in simulated cycles."
    );
}

/// `seer list`.
pub fn list() {
    println!("benchmarks:");
    for b in benchmarks() {
        println!("  {:<14} ({} txs/thread by default)", b.name(), b.default_txs());
    }
    let synth = Benchmark::Synth { blocks: seer_stamp::synth::DEFAULT_BLOCKS };
    println!(
        "  {:<14} ({} txs/thread by default; many-blocks scaling probe,\n\
         \x20                use synth@blocks=N for N atomic blocks, default {})",
        "synth",
        synth.default_txs(),
        seer_stamp::synth::DEFAULT_BLOCKS
    );
    println!("\npolicies:");
    for p in PolicyKind::ALL {
        println!("  {:<26} {}", p.name(), p.describe());
    }
}

fn metrics_summary(m: &RunMetrics) -> String {
    format!(
        "commits            {}\n\
         speedup            {:.3}x over sequential\n\
         aborts/commit      {:.3} (conflict {}, capacity {}, explicit {}, other {})\n\
         fall-back          {:.1}% of commits\n\
         modes              no-locks {:.1}%, aux {:.1}%, tx {:.1}%, core {:.1}%, tx+core {:.1}%, sgl {:.1}%\n\
         waits              {} parks, mean {:.0} / p95 ~{} / max {} cycles\n\
         makespan           {} cycles (sequential work: {} cycles)",
        m.commits,
        m.speedup(),
        m.abort_ratio(),
        m.aborts.conflict,
        m.aborts.capacity,
        m.aborts.explicit,
        m.aborts.other,
        m.fallback_fraction() * 100.0,
        m.modes.fraction(TxMode::HtmNoLocks) * 100.0,
        m.modes.fraction(TxMode::HtmAuxLock) * 100.0,
        m.modes.fraction(TxMode::HtmTxLocks) * 100.0,
        m.modes.fraction(TxMode::HtmCoreLock) * 100.0,
        m.modes.fraction(TxMode::HtmTxAndCoreLocks) * 100.0,
        m.modes.fraction(TxMode::SglFallback) * 100.0,
        m.wait_histogram.count(),
        m.wait_histogram.mean(),
        m.wait_histogram.quantile(0.95),
        m.wait_histogram.max(),
        m.makespan,
        m.sequential_cycles,
    )
}

/// `seer run`.
pub fn run_one(args: &Args) -> Result<(), ParseError> {
    args.allow_only(&[
        "benchmark", "policy", "threads", "seed", "txs", "json", "trace", "chrome",
    ])?;
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or("genome"))?;
    let policy = parse_policy(args.get("policy").unwrap_or("seer"))?;
    let threads: usize = args.get_parsed("threads", 8)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let txs: usize = args.get_parsed("txs", benchmark.default_txs())?;
    let json: bool = args.get_parsed("json", false)?;
    if threads == 0 || threads > 8 {
        return Err(ParseError("--threads must be 1..=8".into()));
    }

    let scale = txs as f64 / benchmark.default_txs() as f64;
    let cell = Cell {
        benchmark,
        policy,
        threads,
    };
    let trace_path = args.get("trace");
    let chrome_path = args.get("chrome");
    let m = if trace_path.is_some() || chrome_path.is_some() {
        // Tracing is a sink, not a flag: metrics (and trace_hash) are
        // bit-identical to the untraced run below.
        let mut sink = MemoryTraceSink::new();
        let m = RunRequest::cell(cell)
            .seed(seed)
            .scale(scale)
            .traced(&mut sink)
            .run();
        if let Some(path) = trace_path {
            if write_trace_jsonl(path, &sink) {
                eprintln!("trace: JSONL written to {path}");
            }
        }
        if let Some(path) = chrome_path {
            if write_chrome_trace(path, &sink) {
                eprintln!("trace: Chrome trace-event JSON written to {path}");
            }
        }
        m
    } else {
        RunRequest::cell(cell).seed(seed).scale(scale).run()
    };
    if json {
        use seer_harness::{Json, ToJson};
        let out = Json::object([
            ("benchmark", benchmark.spec().to_json()),
            ("policy", policy.label().to_json()),
            ("threads", threads.to_json()),
            ("seed", seed.to_json()),
            ("commits", m.commits.to_json()),
            ("speedup", m.speedup().to_json()),
            ("abort_ratio", m.abort_ratio().to_json()),
            ("fallback_fraction", m.fallback_fraction().to_json()),
            ("makespan_cycles", m.makespan.to_json()),
            ("sequential_cycles", m.sequential_cycles.to_json()),
        ]);
        println!("{}", out.to_string_pretty());
    } else {
        println!("{} under {} with {threads} thread(s), seed {seed}:", benchmark.spec(), policy.label());
        println!("{}", metrics_summary(&m));
    }
    Ok(())
}

/// `--jobs` is a *tuning* option: an invalid value — unparsable or
/// zero — warns once per process with the expected form and falls back
/// to [`default_jobs`], instead of silently defaulting or aborting a
/// script mid-sweep. (Options that pick *what* runs, like `--threads`,
/// still hard-error: guessing there would silently measure the wrong
/// thing.)
fn jobs_or_warn(args: &Args) -> usize {
    static WARNED: Once = Once::new();
    let default = default_jobs();
    match args.get("jobs") {
        None => default,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid --jobs {raw:?} \
                         (usage: --jobs N, a positive integer); using default {default}"
                    );
                });
                default
            }
        },
    }
}

/// Scale factor `seer sweep` runs at (a full sweep touches up to 88
/// cells; half scale keeps it interactive).
const SWEEP_SCALE: f64 = 0.5;

/// Where `--resume` looks for results when no `--store DIR` is given.
const DEFAULT_STORE_DIR: &str = ".seer-store";

/// Resolves `--store DIR` / `--resume` into a store attachment.
/// `--resume` alone uses [`DEFAULT_STORE_DIR`]. Opening is lazy and an
/// unwritable directory degrades into a warn-once pass-through inside the
/// store, so this never fails and never aborts a sweep mid-run.
fn store_from_args(args: &Args) -> Option<Store> {
    store_dir_from_args(args).map(Store::open)
}

/// The directory behind [`store_from_args`], for commands (like `tune`)
/// that open more than one store view over it.
fn store_dir_from_args(args: &Args) -> Option<&str> {
    match (args.get("store"), args.get("resume")) {
        (Some(dir), _) => Some(dir),
        (None, Some(_)) => Some(DEFAULT_STORE_DIR),
        (None, None) => None,
    }
}

/// Where one batch's results came from: the coverage line `sweep`,
/// `tune` and `scenario run` print on stderr after `… planned — `.
struct Coverage {
    /// `None` where the executor is fresh, so a memo hit cannot happen.
    memoized: Option<u64>,
    from_disk: u64,
    computed: u64,
    failed: u64,
}

impl Coverage {
    fn of<K>(report: &ExecReport<K>) -> Self {
        Self {
            memoized: Some(report.memo_hits),
            from_disk: report.disk_hits,
            computed: report.computed,
            failed: report.failed.len() as u64,
        }
    }

    fn of_tune(report: &seer_tune::TuneExecReport) -> Self {
        Self {
            memoized: Some(report.memo_hits),
            from_disk: report.disk_hits,
            computed: report.computed,
            failed: report.failed,
        }
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(memoized) = self.memoized {
            write!(f, "{memoized} memoized, ")?;
        }
        write!(
            f,
            "{} from disk, {} computed, {} failed",
            self.from_disk, self.computed, self.failed
        )
    }
}

/// `seer sweep`.
pub fn sweep(args: &Args) -> Result<(), ParseError> {
    args.allow_only(&[
        "benchmark", "policies", "max-threads", "seed", "jobs", "store", "resume",
    ])?;
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or("genome"))?;
    let max_threads: usize = args.get_parsed("max-threads", 8)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    if max_threads == 0 || max_threads > 8 {
        return Err(ParseError("--max-threads must be 1..=8".into()));
    }
    let policies: Vec<PolicyKind> = match args.get("policies") {
        None => PolicyKind::FIGURE3.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_policy)
            .collect::<Result<_, _>>()?,
    };

    let jobs = jobs_or_warn(args);

    // Declare the whole grid up front and fan it out across `jobs` OS
    // threads; the printed table then assembles from cache in row order
    // (bit-identical to a serial sweep for any --jobs value).
    let cfg = HarnessConfig {
        seeds: 1,
        scale: SWEEP_SCALE,
        jobs,
    };
    let exec = match store_from_args(args) {
        Some(store) => CellExecutor::with_store(cfg, store),
        None => CellExecutor::new(cfg),
    };
    let mut plan = Plan::new();
    for threads in 1..=max_threads {
        for &policy in &policies {
            plan.add_one(
                Cell {
                    benchmark,
                    policy,
                    threads,
                },
                seed,
                SWEEP_SCALE,
            );
        }
    }
    let report = exec.execute(&plan);
    if exec.store().is_some() || !report.complete() {
        eprintln!(
            "sweep: {} cell(s) planned — {}",
            report.planned,
            Coverage::of(&report)
        );
    }

    println!("{} — speedup over sequential (seed {seed})", benchmark.spec());
    print!("{:>8}", "threads");
    for p in &policies {
        print!("{:>12}", p.label());
    }
    println!();
    for threads in 1..=max_threads {
        print!("{threads:>8}");
        for &policy in &policies {
            // Assemble from cache only: a failed cell renders as FAILED in
            // a partial table instead of re-panicking on recompute.
            match exec.cached(
                Cell {
                    benchmark,
                    policy,
                    threads,
                },
                seed,
                SWEEP_SCALE,
            ) {
                Some(m) => print!("{:>12.3}", m.speedup()),
                None => print!("{:>12}", "FAILED"),
            }
        }
        println!();
    }
    if !report.complete() {
        for f in &report.failed {
            eprintln!(
                "sweep: FAILED {}/{}/t{} after {} attempt(s): {}",
                f.key.benchmark.spec(),
                f.key.policy.name(),
                f.key.threads,
                f.attempts,
                f.failure,
            );
        }
        return Err(ParseError(format!(
            "{} of {} cell(s) failed; partial results above (re-run with --resume to retry only the gaps)",
            report.failed.len(),
            report.planned,
        )));
    }
    Ok(())
}

/// `seer tune`: deterministic parameter search over Seer's scheduling
/// knobs (DESIGN.md §15). Proposes configurations with the chosen
/// driver, evaluates them through the same executor stack as `sweep`
/// (memo, `--store`/`--resume`, `--jobs`), and prints a ranked
/// leaderboard plus a per-dimension sensitivity table. The result is
/// bit-identical for any `--jobs` value.
pub fn tune(args: &Args) -> Result<(), ParseError> {
    use seer_harness::Json;
    use seer_scenario::ScenarioPlan;
    use seer_tune::{objective_by_name, report_json, run_search, DriverKind, ParamSpace};

    args.allow_only(&[
        "space", "driver", "budget", "objective", "seed", "jobs", "json", "out", "store",
        "resume",
    ])?;
    let space = match args.get("space") {
        None => ParamSpace::default_space(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ParseError(format!("cannot read --space {path:?}: {e}")))?;
            ParamSpace::parse(&text)
                .map_err(|e| ParseError(format!("--space {path:?}: {e}")))?
        }
    };
    let driver: DriverKind = args
        .get("driver")
        .unwrap_or("random")
        .parse()
        .map_err(ParseError)?;
    let budget: u64 = args.get_parsed("budget", 16)?;
    if budget == 0 {
        return Err(ParseError("--budget must be at least 1".into()));
    }
    let seed: u64 = args.get_parsed("seed", 0)?;
    let objective_name = args.get("objective").unwrap_or("combined");
    let objective = objective_by_name(objective_name).ok_or_else(|| {
        ParseError(format!(
            "unknown objective {objective_name:?} (throughput, robustness, combined)"
        ))
    })?;
    let json: bool = args.get_parsed("json", false)?;

    let exec =
        seer_tune::TuneExecutor::with_store_dir(jobs_or_warn(args), store_dir_from_args(args));

    let outcome = run_search(
        &space,
        driver,
        budget,
        seed,
        objective.as_ref(),
        &exec,
        &mut |what, r| {
            eprintln!("tune: batch {what} — {} run(s), {}", r.planned, Coverage::of_tune(r));
        },
    );

    // The yardstick: the paper-default configuration, evaluated through
    // the same objective at the incumbent's fidelity. One extra batch;
    // its runs memoize and persist like any trial's.
    let mut total = outcome.exec_report.clone();
    let mut default_failures = Vec::new();
    let default_score = outcome
        .best
        .map(|b| outcome.trials[b].fidelity)
        .and_then(|fidelity| {
            let mut cells = Plan::new();
            let mut scenarios = ScenarioPlan::new();
            objective.plan(PolicyKind::Seer, fidelity, &mut cells, &mut scenarios);
            let (r, failures) = exec.execute(&cells, &scenarios);
            total.absorb(&r);
            default_failures = failures;
            objective.score(PolicyKind::Seer, fidelity, &exec)
        });

    // Cumulative coverage, in the sweep-report vocabulary (the CI tune
    // job greps a `--resume` second pass for pure-disk counters here).
    eprintln!(
        "tune: {} run(s) planned — {}",
        total.planned,
        Coverage::of_tune(&total)
    );

    let doc = report_json(
        &space,
        driver,
        budget,
        seed,
        objective.name(),
        &outcome,
        default_score,
    );
    if let Some(out) = args.get("out") {
        std::fs::write(out, format!("{}\n", doc.to_string_pretty()))
            .map_err(|e| ParseError(format!("cannot write {out:?}: {e}")))?;
    }
    if json {
        println!("{}", doc.to_string_pretty());
    } else {
        println!(
            "{} objective — driver {}, budget {}, seed {} ({} distinct config(s))",
            objective.name(),
            driver.name(),
            budget,
            seed,
            outcome.trials.len(),
        );
        println!("{:>4}  {:>12}  {:>3}  spec", "rank", "score", "fid");
        if let Some(rows) = doc.get("leaderboard").and_then(Json::as_array) {
            for row in rows {
                let rank = row.get("rank").and_then(Json::as_u64).unwrap_or(0);
                let fid = row.get("fidelity").and_then(Json::as_u64).unwrap_or(0);
                let spec = row.get("spec").and_then(Json::as_str).unwrap_or("?");
                match row.get("score").and_then(Json::as_f64) {
                    Some(s) => println!("{rank:>4}  {s:>12.6}  {fid:>3}  {spec}"),
                    None => println!("{rank:>4}  {:>12}  {fid:>3}  {spec}", "FAILED"),
                }
            }
        }
        match (default_score, doc.get("improvement").and_then(Json::as_f64)) {
            (Some(d), Some(r)) => {
                println!("\ndefault (paper constants): {d:.6} — best is {r:.3}x the default");
            }
            (Some(d), None) => println!("\ndefault (paper constants): {d:.6}"),
            (None, _) => println!("\ndefault (paper constants): FAILED"),
        }
        println!("\nsensitivity around the incumbent (objective drop when the knob moves):");
        if let Some(rows) = doc.get("sensitivity").and_then(Json::as_array) {
            for row in rows {
                let dim = row.get("dim").and_then(Json::as_str).unwrap_or("?");
                match row.get("delta").and_then(Json::as_f64) {
                    Some(delta) => {
                        let alt = row
                            .get("best_alternative")
                            .map(Json::to_string_compact)
                            .unwrap_or_else(|| "null".into());
                        println!("  {dim:<12} {delta:>12.6}  (best alternative: {alt})");
                    }
                    None => println!("  {dim:<12} {:>12}", "no varying trial"),
                }
            }
        }
    }

    if !outcome.failures.is_empty() || !default_failures.is_empty() {
        for f in outcome.failures.iter().chain(&default_failures) {
            eprintln!("tune: FAILED {f}");
        }
        return Err(ParseError(format!(
            "{} run(s) failed; the leaderboard above ranks affected trials last \
             (re-run with --resume to retry only the gaps)",
            outcome.failures.len() + default_failures.len(),
        )));
    }
    Ok(())
}

/// `seer inspect`.
pub fn inspect(args: &Args) -> Result<(), ParseError> {
    args.allow_only(&["benchmark", "threads", "txs", "seed"])?;
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or("genome"))?;
    let threads: usize = args.get_parsed("threads", 8)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    if threads == 0 || threads > 8 {
        return Err(ParseError("--threads must be 1..=8".into()));
    }
    let txs: usize = args.get_parsed("txs", benchmark.default_txs())?;

    let mut workload = benchmark.instantiate(threads, txs);
    let blocks = workload.num_blocks();
    let mut sched = Seer::new(SeerConfig::full(), threads, blocks);
    // Same --seed semantics as `seer run`: a harness seed, derived into a
    // driver seed by the one shared derivation.
    let m = run(
        &mut workload,
        &mut sched,
        &DriverConfig::paper_machine(threads, seer_harness::sim_seed(seed)),
    );
    sched.force_update();

    println!("{} under full Seer, {threads} thread(s):\n", benchmark.spec());
    println!("{}\n", metrics_summary(&m));
    println!(
        "thresholds          Th1 = {:.2}, Th2 = {:.2} ({} updates, {} climb steps)",
        sched.thresholds().th1,
        sched.thresholds().th2,
        sched.counters().updates,
        sched.counters().climb_steps
    );
    println!("\ninferred locking scheme:");
    let mut any = false;
    for x in 0..blocks {
        let row = sched.lock_table().row(x);
        if !row.is_empty() {
            let partners: Vec<&str> = row.iter().map(|&y| workload.block_name(y)).collect();
            println!("  {:<18} -> {partners:?}", workload.block_name(x));
            any = true;
        }
    }
    if !any {
        println!("  (empty — no pair crossed the thresholds)");
    }
    println!("\nground truth (simulator oracle; victim <- killer, top 8):");
    let mut pairs: Vec<(u64, usize, usize)> = (0..blocks)
        .flat_map(|v| (0..blocks).map(move |k| (v, k)))
        .map(|(v, k)| (m.ground_truth.get(v, k), v, k))
        .filter(|&(n, _, _)| n > 0)
        .collect();
    pairs.sort_unstable_by_key(|p| std::cmp::Reverse(p.0));
    for (kills, v, k) in pairs.into_iter().take(8) {
        println!(
            "  {:<18} <- {:<18} {kills}",
            workload.block_name(v),
            workload.block_name(k)
        );
    }
    Ok(())
}

/// Parses `--pair X,Y` into block indices.
fn parse_pair(raw: &str) -> Result<(usize, usize), ParseError> {
    let err = || ParseError(format!("--pair {raw:?} is not of the form X,Y (block indices)"));
    let (x, y) = raw.split_once(',').ok_or_else(err)?;
    Ok((
        x.trim().parse().map_err(|_| err())?,
        y.trim().parse().map_err(|_| err())?,
    ))
}

/// The decision history of `(x, y)` for one replayed cell — every
/// inference round's probabilities, fitted Gaussian, Th2 cutoff and
/// verdict reason. Returned as a string so tests can assert on it; the
/// `explain` command prints it.
pub fn explain_text(cell: Cell, seed: u64, scale: f64, x: usize, y: usize) -> String {
    let mut sink = MemoryTraceSink::new();
    let m = RunRequest::cell(cell)
        .seed(seed)
        .scale(scale)
        .traced(&mut sink)
        .run();
    let workload = cell.benchmark.instantiate_scaled(cell.threads, scale);
    let mut out = format!(
        "pair ({x}, {y}) = ({}, {}) — {} under {}, {} thread(s), seed {seed}\n\
         {} commits, {} inference round(s) recorded\n",
        workload.block_name(x),
        workload.block_name(y),
        cell.benchmark.spec(),
        cell.policy.label(),
        cell.threads,
        m.commits,
        sink.inference.len(),
    );
    let mut decided = 0usize;
    for tr in &sink.inference {
        let Some((row, pair)) = tr.decision(x, y) else {
            continue;
        };
        decided += 1;
        out.push_str(&format!(
            "\nround {} at {} cycles (digest {:#018x}, {} execs, Th1={:.2} Th2={:.2})\n\
             \x20 P(abort {x} | {x}||{y})     conditional = {:.4}\n\
             \x20 P(abort {x} ^ {x}||{y})    conjunctive = {:.4}\n\
             \x20 row {x} fit: eta = {:.4}, sigma^2 = {:.6}, Th2 cutoff = {:.4}{}\n\
             \x20 verdict: {} — {}\n",
            tr.round,
            tr.at,
            tr.stats_digest,
            tr.total_execs,
            tr.th1,
            tr.th2,
            pair.conditional,
            pair.conjunctive,
            row.eta,
            row.sigma2,
            row.cutoff,
            if row.discriminative {
                ""
            } else {
                " (non-discriminative: cutoff filter waived)"
            },
            pair.verdict.label(),
            pair.verdict.reason(),
        ));
    }
    if decided == 0 {
        out.push_str(
            "\nno decision recorded for this pair — the policy never ran an \
             inference round covering it\n(only the Seer-family policies infer; \
             try --policy seer)\n",
        );
    } else if let Some(last) = sink
        .inference
        .iter()
        .rev()
        .find_map(|tr| tr.decision(x, y))
    {
        out.push_str(&format!(
            "\nfinal scheme: pair ({x}, {y}) {}serialized\n",
            if last.1.verdict.serialize() { "" } else { "NOT " }
        ));
    }
    out
}

/// `seer explain`.
pub fn explain(args: &Args) -> Result<(), ParseError> {
    args.allow_only(&["benchmark", "policy", "pair", "threads", "seed", "txs"])?;
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or("genome"))?;
    let policy = parse_policy(args.get("policy").unwrap_or("seer"))?;
    let threads: usize = args.get_parsed("threads", 8)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let txs: usize = args.get_parsed("txs", benchmark.default_txs())?;
    if threads == 0 || threads > 8 {
        return Err(ParseError("--threads must be 1..=8".into()));
    }
    let raw_pair = args
        .get("pair")
        .ok_or_else(|| ParseError("explain needs --pair X,Y".into()))?;
    let (x, y) = parse_pair(raw_pair)?;

    let scale = txs as f64 / benchmark.default_txs() as f64;
    let blocks = benchmark.instantiate_scaled(threads, scale).num_blocks();
    if x >= blocks || y >= blocks {
        // Warn once per process (the `SEER_SEEDS`/`SEER_JOBS` style)
        // instead of panicking: an out-of-range pair is a diagnosis typo,
        // not a reason to abort a script driving the CLI.
        static WARNED: Once = Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: pair ({x}, {y}) is out of range for {} \
                 ({blocks} atomic blocks, indices 0..={}); skipping",
                benchmark.spec(),
                blocks - 1
            );
        });
        return Ok(());
    }
    print!(
        "{}",
        explain_text(
            Cell {
                benchmark,
                policy,
                threads,
            },
            seed,
            scale,
            x,
            y,
        )
    );
    Ok(())
}

/// `seer scenario list`.
pub fn scenario_list() {
    println!("built-in scenarios (4 threads, 100k-cycle scoring window):");
    for spec in seer_scenario::library::all() {
        println!(
            "  {:<16} {:<14} {} phase shift(s), {} churn event(s), {} fault(s)",
            spec.name,
            spec.benchmark.name(),
            spec.phases.len() - 1,
            spec.churn.len(),
            spec.faults.len(),
        );
    }
    println!(
        "\nrun one with `seer scenario run --name NAME`, all with `seer scenario run`,\n\
         or a custom JSON spec with `seer scenario run --spec FILE.json`."
    );
}

/// Satellite behaviour: `seer scenario` argument errors that name the
/// wrong scenario (typo, stale script) or hand over a malformed spec warn
/// once per process and list what *is* known, instead of panicking — a
/// sweep driving the CLI should keep going past one bad item.
fn warn_scenario(problem: &str) {
    static WARNED: Once = Once::new();
    WARNED.call_once(|| {
        eprintln!("warning: {problem}; skipping");
        eprintln!(
            "known scenarios: {}",
            seer_scenario::library::BUILTIN_NAMES.join(", ")
        );
    });
}

fn print_recovery(outcome: &seer_scenario::ScenarioOutcome) {
    let r = &outcome.report;
    println!("{} under {}, seed {}:", r.scenario, r.policy, r.seed);
    println!(
        "  commits        {}\n\
         \x20 makespan       {} cycles ({} window(s) of {})\n\
         \x20 throughput     {:.6} commits/cycle\n\
         \x20 steady state   {:+.1}% vs pre-disturbance\n\
         \x20 recovered      {}",
        r.commits,
        r.makespan,
        outcome.windows.windows().len(),
        r.window,
        r.throughput,
        r.steady_state_delta * 100.0,
        if r.recovered { "yes" } else { "NO" },
    );
    println!("  disturbances:");
    for s in &r.scores {
        let reconverge = match s.time_to_reconverge {
            Some(t) => format!("re-converged in {t}"),
            None => "never re-converged".to_string(),
        };
        let pairs = match s.pairs_stable_at {
            Some(at) => format!(", pairs stable at {at}"),
            None => String::new(),
        };
        println!(
            "    {:<16} at {:>8}  depth {:>5.1}%  {reconverge}{pairs}",
            s.label,
            s.at,
            s.regression_depth * 100.0,
        );
    }
    if r.scores.is_empty() {
        println!("    (none fired before the run ended)");
    }
}

/// `seer scenario run`.
pub fn scenario_run(args: &Args) -> Result<(), ParseError> {
    use seer_scenario::{library, ScenarioPlan, ScenarioSpec};

    args.allow_only(&[
        "name", "spec", "policy", "seed", "jobs", "json", "trace", "store", "resume",
    ])?;
    let policy = parse_policy(args.get("policy").unwrap_or("seer"))?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let json: bool = args.get_parsed("json", false)?;

    let mut builtin_name: Option<String> = None;
    let spec = match (args.get("name"), args.get("spec")) {
        (Some(_), Some(_)) => {
            return Err(ParseError("--name and --spec are mutually exclusive".into()));
        }
        (Some(name), None) => match library::builtin(name) {
            Some(spec) => {
                builtin_name = Some(name.to_string());
                Some(spec)
            }
            None => {
                warn_scenario(&format!("unknown scenario {name:?}"));
                return Ok(());
            }
        },
        (None, Some(path)) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    warn_scenario(&format!("cannot read scenario spec {path:?} ({e})"));
                    return Ok(());
                }
            };
            match ScenarioSpec::parse(&text) {
                Ok(spec) => Some(spec),
                Err(e) => {
                    warn_scenario(&format!("malformed scenario spec {path:?}: {e}"));
                    return Ok(());
                }
            }
        }
        (None, None) => None,
    };

    if let Some(spec) = spec {
        let store = store_from_args(args);
        let outcome = match args.get("trace") {
            Some(path) => {
                if store.is_some() {
                    // A disk hit has no event streams to export, so a
                    // traced run is always live.
                    eprintln!("scenario: --trace requested; running live (store not consulted)");
                }
                let mut sink = MemoryTraceSink::new();
                let outcome = RunRequest::scenario(&spec)
                    .policy(policy)
                    .seed(seed)
                    .traced(&mut sink)
                    .run();
                if write_trace_jsonl(path, &sink) {
                    eprintln!("trace: JSONL written to {path}");
                }
                outcome
            }
            None => match (store, &builtin_name) {
                (Some(store), Some(name)) => {
                    // Built-in by name with a store: go through the
                    // executor so the result persists.
                    let exec = seer_scenario::ScenarioExecutor::with_store(1, store);
                    let mut plan = ScenarioPlan::new();
                    plan.add(name, policy, seed);
                    let report = exec.execute(&plan);
                    let coverage = Coverage {
                        memoized: None,
                        ..Coverage::of(&report)
                    };
                    eprintln!("scenario: 1 planned — {coverage}");
                    match exec.cached(name, policy, seed) {
                        Some(outcome) => outcome,
                        None => {
                            let f = &report.failed[0];
                            return Err(ParseError(format!(
                                "scenario {name:?} failed after {} attempt(s): {}",
                                f.attempts, f.failure
                            )));
                        }
                    }
                }
                (store, _) => {
                    if store.is_some() {
                        eprintln!(
                            "scenario: --spec runs are not persisted (the store keys built-in names); running live"
                        );
                    }
                    RunRequest::scenario(&spec).policy(policy).seed(seed).run()
                }
            },
        };
        if json {
            use seer_harness::ToJson;
            println!("{}", outcome.report.to_json().to_string_pretty());
        } else {
            print_recovery(&outcome);
        }
        return Ok(());
    }

    // No --name/--spec: the whole built-in library through the memoizing
    // executor, fanned out over --jobs.
    if args.get("trace").is_some() {
        return Err(ParseError("--trace needs a single scenario (--name or --spec)".into()));
    }
    let jobs: usize = args.get_parsed("jobs", default_jobs())?;
    if jobs == 0 {
        return Err(ParseError("--jobs must be at least 1".into()));
    }
    let exec = match store_from_args(args) {
        Some(store) => seer_scenario::ScenarioExecutor::with_store(jobs, store),
        None => seer_scenario::ScenarioExecutor::new(jobs),
    };
    let mut plan = ScenarioPlan::new();
    for name in library::BUILTIN_NAMES {
        plan.add(name, policy, seed);
    }
    let report = exec.execute(&plan);
    if exec.store().is_some() || !report.complete() {
        eprintln!(
            "scenario: {} planned — {}",
            report.planned,
            Coverage::of(&report)
        );
    }
    // Assemble from cache only, so one failed scenario yields a partial
    // report instead of a recompute panic.
    if json {
        use seer_harness::{Json, ToJson};
        let reports: Vec<Json> = library::BUILTIN_NAMES
            .iter()
            .filter_map(|name| exec.cached(name, policy, seed))
            .map(|outcome| outcome.report.to_json())
            .collect();
        println!("{}", Json::Array(reports).to_string_pretty());
    } else {
        let mut first = true;
        for name in library::BUILTIN_NAMES {
            let Some(outcome) = exec.cached(name, policy, seed) else {
                continue;
            };
            if !first {
                println!();
            }
            first = false;
            print_recovery(&outcome);
        }
    }
    if !report.complete() {
        for f in &report.failed {
            eprintln!(
                "scenario: FAILED {}/{} seed {} after {} attempt(s): {}",
                f.key.scenario,
                f.key.policy.name(),
                f.key.seed,
                f.attempts,
                f.failure,
            );
        }
        return Err(ParseError(format!(
            "{} of {} scenario(s) failed; partial results above (re-run with --resume to retry only the gaps)",
            report.failed.len(),
            report.planned,
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn benchmark_and_policy_lookup() {
        assert_eq!(parse_benchmark("genome").unwrap().name(), "genome");
        assert_eq!(parse_benchmark("hashmap-low").unwrap().name(), "hashmap-low");
        assert!(parse_benchmark("nope").is_err());
        assert_eq!(parse_policy("SEER").unwrap(), PolicyKind::Seer);
        assert_eq!(parse_policy("hle").unwrap(), PolicyKind::Hle);
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn benchmark_lookup_accepts_synth_specs() {
        assert_eq!(
            parse_benchmark("synth").unwrap(),
            Benchmark::Synth { blocks: seer_stamp::synth::DEFAULT_BLOCKS }
        );
        assert_eq!(
            parse_benchmark("synth@blocks=48").unwrap(),
            Benchmark::Synth { blocks: 48 }
        );
        assert!(parse_benchmark("synth@blocks=0").is_err());
        assert!(parse_benchmark("synth@blocks=lots").is_err());
        // Labyrinth is modelled (to validate the paper's exclusion) but
        // deliberately not runnable from the CLI.
        assert!(parse_benchmark("labyrinth").is_err());
    }

    #[test]
    fn cli_names_every_policy_variant() {
        // The Figure 5 cumulative variants included — `seer run`/`sweep`
        // can reproduce every cell of the evaluation.
        for p in PolicyKind::ALL {
            assert_eq!(parse_policy(p.name()).unwrap(), p, "{}", p.name());
        }
        assert_eq!(
            parse_policy("seer-plus-tx-locks").unwrap(),
            PolicyKind::SeerPlusTxLocks
        );
    }

    #[test]
    fn run_command_executes() {
        let a = args(&["run", "--benchmark", "ssca2", "--threads", "2", "--txs", "40"]);
        run_one(&a).expect("run should succeed");
        let a = args(&["run", "--benchmark", "ssca2", "--threads", "2", "--txs", "40", "--json", "true"]);
        run_one(&a).expect("json run should succeed");
    }

    #[test]
    fn run_command_validates_threads() {
        let a = args(&["run", "--threads", "9"]);
        assert!(run_one(&a).is_err());
        let a = args(&["run", "--threads", "0"]);
        assert!(run_one(&a).is_err());
    }

    #[test]
    fn sweep_command_executes_with_policy_list() {
        let a = args(&[
            "sweep",
            "--benchmark",
            "hashmap-low",
            "--policies",
            "rtm,seer",
            "--max-threads",
            "2",
        ]);
        sweep(&a).expect("sweep should succeed");
    }

    #[test]
    fn sweep_command_accepts_jobs() {
        let a = args(&[
            "sweep",
            "--benchmark",
            "hashmap-low",
            "--policies",
            "rtm,seer-plus-tx-locks",
            "--max-threads",
            "2",
            "--jobs",
            "2",
        ]);
        sweep(&a).expect("parallel sweep should succeed");
        // Invalid --jobs warns once and falls back to the default instead
        // of erroring out (satellite fix; was a hard error before).
        let a = args(&[
            "sweep",
            "--benchmark",
            "hashmap-low",
            "--policies",
            "rtm",
            "--max-threads",
            "1",
            "--jobs",
            "0",
        ]);
        sweep(&a).expect("invalid --jobs should warn and default, not error");
    }

    #[test]
    fn tuning_options_warn_and_default_instead_of_failing() {
        // Missing → default; valid → parsed; invalid (zero or garbage) →
        // warn-once + default. The Once means only the first bad value
        // prints, but the fallback applies every time.
        assert_eq!(jobs_or_warn(&args(&["sweep"])), default_jobs());
        assert_eq!(jobs_or_warn(&args(&["sweep", "--jobs", "3"])), 3);
        assert_eq!(jobs_or_warn(&args(&["sweep", "--jobs", "0"])), default_jobs());
        assert_eq!(jobs_or_warn(&args(&["sweep", "--jobs", "lots"])), default_jobs());
    }

    #[test]
    fn run_command_executes_on_synth_spec() {
        let a = args(&[
            "run", "--benchmark", "synth@blocks=24", "--threads", "2", "--txs", "30",
        ]);
        run_one(&a).expect("synth run should succeed");
    }

    #[test]
    fn inspect_command_executes() {
        let a = args(&["inspect", "--benchmark", "kmeans-high", "--threads", "4", "--txs", "60"]);
        inspect(&a).expect("inspect should succeed");
    }

    #[test]
    fn unknown_options_are_rejected() {
        let a = args(&["run", "--bogus", "1"]);
        assert!(run_one(&a).is_err());
    }

    #[test]
    fn workers_option_is_rejected_by_every_executing_command() {
        // Execution is local only: a script still passing `--workers`
        // must learn that, not silently compute on this host.
        type Command = fn(&Args) -> Result<(), ParseError>;
        let commands: [(&str, Command); 3] = [
            ("sweep", sweep),
            ("tune", tune),
            ("scenario-run", scenario_run),
        ];
        for (name, command) in commands {
            let a = args(&[name, "--workers", "127.0.0.1:1", "--seed", "0"]);
            let ParseError(msg) = command(&a).expect_err(name);
            assert!(msg.starts_with("unknown option --workers"), "{name}: {msg}");
        }
    }

    #[test]
    fn pair_parsing() {
        assert_eq!(parse_pair("3,7").unwrap(), (3, 7));
        assert_eq!(parse_pair("0, 1").unwrap(), (0, 1));
        assert!(parse_pair("3").is_err());
        assert!(parse_pair("a,b").is_err());
        assert!(parse_pair("3,").is_err());
    }

    #[test]
    fn explain_prints_at_least_one_round_with_full_decision_detail() {
        let cell = Cell {
            benchmark: Benchmark::KmeansHigh,
            policy: PolicyKind::Seer,
            threads: 4,
        };
        let text = explain_text(cell, 0, 0.2, 0, 1);
        assert!(text.contains("round 1 at "), "no inference round:\n{text}");
        assert!(text.contains("conditional = "), "{text}");
        assert!(text.contains("conjunctive = "), "{text}");
        assert!(text.contains("eta = "), "{text}");
        assert!(text.contains("sigma^2 = "), "{text}");
        assert!(text.contains("Th2 cutoff = "), "{text}");
        assert!(text.contains("verdict: "), "{text}");
        assert!(text.contains("final scheme: pair (0, 1)"), "{text}");
    }

    #[test]
    fn explain_command_executes_on_known_pair() {
        let a = args(&[
            "explain",
            "--benchmark",
            "kmeans-high",
            "--policy",
            "seer",
            "--pair",
            "0,1",
            "--threads",
            "4",
            "--txs",
            "60",
        ]);
        explain(&a).expect("explain should succeed");
    }

    #[test]
    fn explain_warns_on_out_of_range_pair_instead_of_panicking() {
        let a = args(&[
            "explain",
            "--benchmark",
            "ssca2",
            "--pair",
            "999,0",
            "--threads",
            "2",
            "--txs",
            "40",
        ]);
        // Out-of-range pair: warns once to stderr and returns Ok.
        explain(&a).expect("out-of-range pair must not panic");
        explain(&a).expect("second call hits the Once, still no panic");
    }

    #[test]
    fn explain_requires_pair_and_validates_options() {
        let a = args(&["explain", "--benchmark", "ssca2"]);
        assert!(explain(&a).is_err());
        let a = args(&["explain", "--pair", "nope"]);
        assert!(explain(&a).is_err());
        let a = args(&["explain", "--pair", "0,1", "--threads", "9"]);
        assert!(explain(&a).is_err());
    }

    #[test]
    fn scenario_run_executes_one_builtin_with_json_and_trace() {
        let dir = std::env::temp_dir().join("seer-cli-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("scenario.jsonl");
        let a = args(&[
            "scenario-run",
            "--name",
            "stats-amnesia",
            "--json",
            "true",
            "--trace",
            jsonl.to_str().unwrap(),
        ]);
        scenario_run(&a).expect("built-in scenario should run");
        let trace = std::fs::read_to_string(&jsonl).unwrap();
        assert!(trace.lines().next().unwrap().starts_with('{'));
    }

    #[test]
    fn scenario_run_accepts_a_spec_file() {
        let dir = std::env::temp_dir().join("seer-cli-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.json");
        std::fs::write(
            &path,
            r#"{"name":"tiny","benchmark":"ssca2","threads":2,"scale":0.08,
               "window":50000,"faults":[{"at":60000,"kind":"wipe-stats"}]}"#,
        )
        .unwrap();
        let a = args(&["scenario-run", "--spec", path.to_str().unwrap()]);
        scenario_run(&a).expect("custom spec should run");
    }

    #[test]
    fn scenario_run_warns_instead_of_panicking_on_bad_input() {
        // Unknown name: warn-once + list of known scenarios, exit clean.
        let a = args(&["scenario-run", "--name", "meteor-strike"]);
        scenario_run(&a).expect("unknown scenario name must not panic");
        scenario_run(&a).expect("second call hits the Once, still clean");

        // Malformed spec file: same treatment.
        let dir = std::env::temp_dir().join("seer-cli-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{\"name\": 42").unwrap();
        let a = args(&["scenario-run", "--spec", path.to_str().unwrap()]);
        scenario_run(&a).expect("malformed spec must not panic");

        // Unreadable spec path too.
        let a = args(&["scenario-run", "--spec", "/no/such/spec.json"]);
        scenario_run(&a).expect("missing spec file must not panic");
    }

    #[test]
    fn scenario_run_validates_option_combinations() {
        let a = args(&["scenario-run", "--name", "phase-flip", "--spec", "x.json"]);
        assert!(scenario_run(&a).is_err(), "--name and --spec are exclusive");
        let a = args(&["scenario-run", "--trace", "x.jsonl"]);
        assert!(scenario_run(&a).is_err(), "--trace needs a single scenario");
        let a = args(&["scenario-run", "--jobs", "0"]);
        assert!(scenario_run(&a).is_err());
        let a = args(&["scenario-run", "--bogus", "1"]);
        assert!(scenario_run(&a).is_err());
    }

    #[test]
    fn scenario_list_prints_every_builtin() {
        // Smoke: must not panic, and the library must be non-empty.
        scenario_list();
        assert!(!seer_scenario::library::BUILTIN_NAMES.is_empty());
    }

    #[test]
    fn run_command_writes_trace_files() {
        let dir = std::env::temp_dir().join("seer-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("trace.jsonl");
        let chrome = dir.join("trace.json");
        let a = args(&[
            "run",
            "--benchmark",
            "ssca2",
            "--policy",
            "seer",
            "--threads",
            "2",
            "--txs",
            "40",
            "--trace",
            jsonl.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
        ]);
        run_one(&a).expect("traced run should succeed");
        let jsonl_content = std::fs::read_to_string(&jsonl).unwrap();
        assert!(!jsonl_content.is_empty());
        assert!(jsonl_content.lines().next().unwrap().starts_with('{'));
        let chrome_content = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome_content.contains("traceEvents"));
    }
}
