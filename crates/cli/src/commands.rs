//! The CLI commands: `list`, `run`, `sweep`, `inspect` and `explain`
//! (`check` and `experiment` have modules of their own).

use std::sync::Once;

use seer::{Seer, SeerConfig};
use seer_harness::{
    env_config, write_chrome_trace, write_trace_jsonl, Cell, CellExecutor, HarnessConfig, Plan,
    PolicyKind,
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
/// can run all eleven named variants — the Figure 5 cumulative ones
/// included — and any `seer@key=value,...` spec.
fn parse_policy(name: &str) -> Result<PolicyKind, ParseError> {
    name.parse::<PolicyKind>()
        .map_err(|e| ParseError(e.to_string()))
}

/// Parses `--policies`, a comma-separated list of trimmed items. A
/// `key=value` item with no `@` continues the `seer@` spec before it, so
/// `seer,seer@window=100,climb=500` is two policies.
fn parse_policies(list: &str) -> Result<Vec<PolicyKind>, ParseError> {
    let mut specs: Vec<String> = Vec::new();
    for item in list.split(',').map(str::trim) {
        match specs.last_mut() {
            Some(spec) if spec.contains('@') && item.contains('=') && !item.contains('@') => {
                spec.push(',');
                spec.push_str(item);
            }
            _ => specs.push(item.to_string()),
        }
    }
    specs.iter().map(|s| parse_policy(s)).collect()
}

/// Parses `--txs` (transactions per thread, default the benchmark's).
/// The work scale it means, `txs / default_txs`, must pass the one scale
/// rule, [`seer_stamp::check_scale`], so no input asks for a run that
/// never ends; out of range (0 included) is an error naming the allowed
/// range.
fn parse_txs(args: &Args, benchmark: Benchmark) -> Result<usize, ParseError> {
    let default = benchmark.default_txs();
    let txs: usize = args.get_parsed("txs", default)?;
    seer_stamp::check_scale(txs as f64 / default as f64).map_err(|_| {
        ParseError(format!(
            "--txs {txs} is out of range for {} (1..={})",
            benchmark.spec(),
            (seer_stamp::MAX_SCALE * default as f64) as usize
        ))
    })?;
    Ok(txs)
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
         \x20 inspect  Seer's learned state --benchmark B --threads N [--txs N] [--seed N]\n\
         \x20 explain  decision history     --benchmark B --policy P --pair X,Y\n\
         \x20          for one block pair   [--threads N] [--seed N] [--txs N]\n\
         \x20 experiment NAME              regenerate a paper table/figure: fig3, table3,\n\
         \x20                              fig4, fig5, ablation-core-locks, accuracy,\n\
         \x20                              fine-grained, convergence (SEER_SEEDS,\n\
         \x20                              SEER_SCALE, SEER_JOBS, SEER_REPORT_JSON)\n\
         \x20 check KIND   schema gate     --file F[,F...]   KIND: trace\n\
         \n\
         Simulated machine: 4 physical cores x 2 hyper-threads (the paper's\n\
         Haswell Xeon E3-1275); all results are in simulated cycles."
    );
}

/// `seer list`.
pub fn list() {
    println!("benchmarks:");
    for b in benchmarks() {
        println!(
            "  {:<14} ({} txs/thread by default)",
            b.name(),
            b.default_txs()
        );
    }
    let synth = Benchmark::Synth {
        blocks: seer_stamp::synth::DEFAULT_BLOCKS,
    };
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
    print!("{}", run_report(args)?);
    Ok(())
}

/// What `seer run` prints, returned as a string so tests can assert on
/// it. Trace files named by `--trace`/`--chrome` are written on the way.
fn run_report(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&[
        "benchmark",
        "policy",
        "threads",
        "seed",
        "txs",
        "json",
        "trace",
        "chrome",
    ])?;
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or("genome"))?;
    let policy = parse_policy(args.get("policy").unwrap_or("seer"))?;
    let threads: usize = args.get_parsed("threads", 8)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let txs = parse_txs(args, benchmark)?;
    let json: bool = args.get_parsed("json", false)?;
    if threads == 0 || threads > 8 {
        return Err(ParseError("--threads must be 1..=8".into()));
    }

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
            .txs(txs)
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
        RunRequest::cell(cell).seed(seed).txs(txs).run()
    };
    Ok(if json {
        format!("{}\n", run_json(cell, seed, &m).to_string_pretty())
    } else {
        format!(
            "{} under {} with {threads} thread(s), seed {seed}:\n{}\n",
            benchmark.spec(),
            policy.label(),
            metrics_summary(&m)
        )
    })
}

/// The `seer run --json true` object for `cell`'s run `m`. Its `policy`
/// is the policy's label, which for a `seer@…` policy is its spec.
fn run_json(cell: Cell, seed: u64, m: &RunMetrics) -> seer_harness::Json {
    use seer_harness::{Json, ToJson};
    Json::object([
        ("benchmark", cell.benchmark.spec().to_json()),
        ("policy", cell.policy.label().to_json()),
        ("threads", cell.threads.to_json()),
        ("seed", seed.to_json()),
        ("commits", m.commits.to_json()),
        ("speedup", m.speedup().to_json()),
        ("abort_ratio", m.abort_ratio().to_json()),
        ("fallback_fraction", m.fallback_fraction().to_json()),
        ("makespan_cycles", m.makespan.to_json()),
        ("sequential_cycles", m.sequential_cycles.to_json()),
    ])
}

/// `--jobs` is a *tuning* option: an invalid value — unparsable or
/// zero — warns once per process with the expected form and falls back
/// to `SEER_JOBS` (see [`env_config`]), instead of silently defaulting or aborting a
/// script mid-sweep. (Options that pick *what* runs, like `--threads`,
/// still hard-error: guessing there would silently measure the wrong
/// thing.)
fn jobs_or_warn(args: &Args) -> usize {
    static WARNED: Once = Once::new();
    let default = env_config().jobs;
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

/// `seer sweep`.
pub fn sweep(args: &Args) -> Result<(), ParseError> {
    print!("{}", sweep_table(args)?);
    Ok(())
}

/// Runs the sweep `args` ask for and renders its speedup table. Each
/// policy's column is as wide as its label needs, and at least 12.
fn sweep_table(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["benchmark", "policies", "max-threads", "seed", "jobs"])?;
    let benchmark = parse_benchmark(args.get("benchmark").unwrap_or("genome"))?;
    let max_threads: usize = args.get_parsed("max-threads", 8)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    if max_threads == 0 || max_threads > 8 {
        return Err(ParseError("--max-threads must be 1..=8".into()));
    }
    let policies = match args.get("policies") {
        None => PolicyKind::FIGURE3.to_vec(),
        Some(list) => parse_policies(list)?,
    };

    let jobs = jobs_or_warn(args);

    // Declare the whole grid up front and fan it out across `jobs` OS
    // threads; the printed table then assembles from the memo map in row
    // order (bit-identical to a serial sweep for any --jobs value).
    let mut exec = CellExecutor::new(HarnessConfig {
        seeds: 1,
        scale: SWEEP_SCALE,
        jobs,
    });
    let cell = |policy, threads| Cell {
        benchmark,
        policy,
        threads,
    };
    let mut plan = Plan::new();
    for threads in 1..=max_threads {
        for &policy in &policies {
            plan.add_one(cell(policy, threads), seed, SWEEP_SCALE);
        }
    }
    exec.execute(&plan);

    let mut out = format!(
        "{} — speedup over sequential (seed {seed})\n{:>8}",
        benchmark.spec(),
        "threads"
    );
    let labels: Vec<_> = policies.iter().map(|p| p.label()).collect();
    let widths: Vec<usize> = labels.iter().map(|l| 12.max(l.len() + 1)).collect();
    for (label, w) in labels.iter().zip(&widths) {
        out += &format!("{label:>w$}");
    }
    out.push('\n');
    for threads in 1..=max_threads {
        out += &format!("{threads:>8}");
        for (&policy, w) in policies.iter().zip(&widths) {
            let m = exec
                .cached(cell(policy, threads), seed, SWEEP_SCALE)
                .expect("every planned cell was executed");
            out += &format!("{:>w$.3}", m.speedup());
        }
        out.push('\n');
    }
    Ok(out)
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
    let txs = parse_txs(args, benchmark)?;

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

    println!(
        "{} under full Seer, {threads} thread(s):\n",
        benchmark.spec()
    );
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
    let err = || {
        ParseError(format!(
            "--pair {raw:?} is not of the form X,Y (block indices)"
        ))
    };
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
pub fn explain_text(cell: Cell, seed: u64, txs: usize, x: usize, y: usize) -> String {
    let mut sink = MemoryTraceSink::new();
    let m = RunRequest::cell(cell)
        .seed(seed)
        .txs(txs)
        .traced(&mut sink)
        .run();
    let workload = cell.benchmark.instantiate(cell.threads, txs);
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
    } else if let Some(last) = sink.inference.iter().rev().find_map(|tr| tr.decision(x, y)) {
        out.push_str(&format!(
            "\nfinal scheme: pair ({x}, {y}) {}serialized\n",
            if last.1.verdict.serialize() {
                ""
            } else {
                "NOT "
            }
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
    let txs = parse_txs(args, benchmark)?;
    if threads == 0 || threads > 8 {
        return Err(ParseError("--threads must be 1..=8".into()));
    }
    let raw_pair = args
        .get("pair")
        .ok_or_else(|| ParseError("explain needs --pair X,Y".into()))?;
    let (x, y) = parse_pair(raw_pair)?;

    let blocks = benchmark.instantiate(threads, txs).num_blocks();
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
            txs,
            x,
            y,
        )
    );
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
        assert_eq!(
            parse_benchmark("hashmap-low").unwrap().name(),
            "hashmap-low"
        );
        assert!(parse_benchmark("nope").is_err());
        assert_eq!(parse_policy("SEER").unwrap(), PolicyKind::Seer);
        assert_eq!(parse_policy("hle").unwrap(), PolicyKind::Hle);
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn benchmark_lookup_accepts_synth_specs() {
        assert_eq!(
            parse_benchmark("synth").unwrap(),
            Benchmark::Synth {
                blocks: seer_stamp::synth::DEFAULT_BLOCKS
            }
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
            assert_eq!(parse_policy(&p.name()).unwrap(), p, "{}", p.name());
        }
        assert_eq!(
            parse_policy("seer-plus-tx-locks").unwrap(),
            PolicyKind::SeerPlusTxLocks
        );
    }

    #[test]
    fn policy_lists_keep_multi_key_specs_whole() {
        let two_keys = parse_policy("seer@window=100,climb=500").unwrap();
        assert_eq!(
            parse_policies("seer,seer@window=100,climb=500,seer@window=5000").unwrap(),
            vec![
                PolicyKind::Seer,
                two_keys,
                parse_policy("seer@window=5000").unwrap()
            ]
        );
        // A key=value item after a named policy starts nothing.
        assert!(parse_policies("rtm,window=100").is_err());
    }

    #[test]
    fn policy_lists_trim_items() {
        // Whitespace around a named policy or a continued knob is dropped.
        assert_eq!(
            parse_policies("seer, rtm").unwrap(),
            vec![PolicyKind::Seer, PolicyKind::Rtm]
        );
        assert_eq!(
            parse_policies("seer@window=100, climb=500,rtm").unwrap(),
            vec![
                parse_policy("seer@window=100,climb=500").unwrap(),
                PolicyKind::Rtm
            ]
        );
        assert_eq!(
            parse_policies(" seer@window=100 , climb=500 , rtm ").unwrap(),
            parse_policies("seer@window=100,climb=500,rtm").unwrap()
        );
        // An empty item is still an error, not a skipped one.
        for list in ["rtm,", "rtm, ,seer", ""] {
            assert!(parse_policies(list).is_err(), "{list:?}");
        }
    }

    #[test]
    fn policy_lists_trim_knob_values() {
        assert_eq!(
            parse_policies("rtm,seer@window= 100 , climb = 500").unwrap(),
            vec![
                PolicyKind::Rtm,
                parse_policy("seer@window=100,climb=500").unwrap()
            ]
        );
    }

    #[test]
    fn policy_lists_reject_a_repeated_knob() {
        let ParseError(msg) = parse_policies("seer,seer@window=5,window=7").unwrap_err();
        assert!(msg.contains("seer@window=5,window=7"), "{msg}");
    }

    #[test]
    fn sweep_heads_one_distinct_column_per_configuration() {
        let a = args(&[
            "sweep",
            "--benchmark",
            "kmeans-high",
            "--max-threads",
            "1",
            "--policies",
            "seer,seer@window=100,seer@window=5000",
        ]);
        let table = sweep_table(&a).expect("sweep should succeed");
        let lines: Vec<&str> = table.lines().collect();
        let heads: Vec<&str> = lines[1].split_whitespace().collect();
        assert_eq!(
            heads,
            ["threads", "Seer", "seer@window=100", "seer@window=5000"]
        );
        // Every cell sits under its heading's right edge.
        assert_eq!(lines[2].len(), lines[1].len(), "{table}");
    }

    #[test]
    fn run_reports_name_the_knobs_they_ran() {
        let policy = parse_policy("seer@window=100,th2=0.9").unwrap();
        let cell = Cell {
            benchmark: Benchmark::Ssca2,
            policy,
            threads: 2,
        };
        let m = RunRequest::cell(cell).scale(0.05).run();
        let run = run_json(cell, 0, &m);
        assert_eq!(
            parse_policy(run.str_field("policy").unwrap()).unwrap(),
            policy
        );
    }

    #[test]
    fn run_command_executes() {
        let a = args(&[
            "run",
            "--benchmark",
            "ssca2",
            "--threads",
            "2",
            "--txs",
            "40",
        ]);
        run_one(&a).expect("run should succeed");
        let a = args(&[
            "run",
            "--benchmark",
            "ssca2",
            "--threads",
            "2",
            "--txs",
            "40",
            "--json",
            "true",
        ]);
        run_one(&a).expect("json run should succeed");
    }

    /// Runs `command` on ssca2 (1 200 transactions per thread by default,
    /// so `--txs` may be 1..=1 200 000) with each out-of-range `--txs`,
    /// and requires the error to name the allowed range.
    fn rejects_txs_outside_the_scale_rule(
        command: fn(&Args) -> Result<(), ParseError>,
        words: &[&str],
    ) {
        for txs in ["0", "1200001", "100000000000"] {
            let mut parts = words.to_vec();
            parts.extend(["--benchmark", "ssca2", "--threads", "1", "--txs", txs]);
            let ParseError(msg) = command(&args(&parts)).unwrap_err();
            assert_eq!(
                msg,
                format!("--txs {txs} is out of range for ssca2 (1..=1200000)")
            );
        }
    }

    #[test]
    fn run_rejects_txs_outside_the_scale_rule() {
        rejects_txs_outside_the_scale_rule(run_one, &["run"]);
    }

    #[test]
    fn inspect_rejects_txs_outside_the_scale_rule() {
        rejects_txs_outside_the_scale_rule(inspect, &["inspect"]);
    }

    #[test]
    fn explain_rejects_txs_outside_the_scale_rule() {
        rejects_txs_outside_the_scale_rule(explain, &["explain", "--pair", "0,1"]);
    }

    #[test]
    fn txs_at_the_bounds_of_the_scale_rule_is_accepted() {
        let ssca2 = Benchmark::Ssca2;
        let txs = |raw: &str| parse_txs(&args(&["run", "--txs", raw]), ssca2);
        assert_eq!(txs("1").unwrap(), 1);
        assert_eq!(txs("1200000").unwrap(), 1_200_000);
        assert_eq!(
            parse_txs(&args(&["run"]), ssca2).unwrap(),
            1200,
            "no --txs is the default"
        );
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
        let default = env_config().jobs;
        assert_eq!(jobs_or_warn(&args(&["sweep"])), default);
        assert_eq!(jobs_or_warn(&args(&["sweep", "--jobs", "3"])), 3);
        assert_eq!(jobs_or_warn(&args(&["sweep", "--jobs", "0"])), default);
        assert_eq!(jobs_or_warn(&args(&["sweep", "--jobs", "lots"])), default);
    }

    #[test]
    fn run_command_executes_on_synth_spec() {
        let a = args(&[
            "run",
            "--benchmark",
            "synth@blocks=24",
            "--threads",
            "2",
            "--txs",
            "30",
        ]);
        run_one(&a).expect("synth run should succeed");
    }

    #[test]
    fn inspect_command_executes() {
        let a = args(&[
            "inspect",
            "--benchmark",
            "kmeans-high",
            "--threads",
            "4",
            "--txs",
            "60",
        ]);
        inspect(&a).expect("inspect should succeed");
    }

    #[test]
    fn unknown_options_are_rejected() {
        let a = args(&["run", "--bogus", "1"]);
        assert!(run_one(&a).is_err());
    }

    #[test]
    fn workers_option_is_rejected_by_sweep() {
        // Execution is local only: a script still passing `--workers`
        // must learn that, not silently compute on this host.
        let a = args(&["sweep", "--workers", "127.0.0.1:1", "--seed", "0"]);
        let ParseError(msg) = sweep(&a).unwrap_err();
        assert!(msg.starts_with("unknown option --workers"), "{msg}");
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
        let text = explain_text(cell, 0, Benchmark::KmeansHigh.scaled_txs(0.2), 0, 1);
        assert!(text.contains("round 1 at "), "no inference round:\n{text}");
        assert!(text.contains("conditional = "), "{text}");
        assert!(text.contains("conjunctive = "), "{text}");
        assert!(text.contains("eta = "), "{text}");
        assert!(text.contains("sigma^2 = "), "{text}");
        assert!(text.contains("Th2 cutoff = "), "{text}");
        assert!(text.contains("verdict: "), "{text}");
        assert!(text.contains("final scheme: pair (0, 1)"), "{text}");
    }

    /// `--txs N` runs exactly N transactions per thread, not the count a
    /// round trip through a scale factor gives (54 for 55, 20 for 5).
    fn run_commits(txs: &str) -> String {
        run_report(&args(&[
            "run",
            "--benchmark",
            "ssca2",
            "--threads",
            "1",
            "--txs",
            txs,
        ]))
        .unwrap()
    }

    #[test]
    fn run_with_txs_55_commits_55() {
        let out = run_commits("55");
        assert!(out.contains("\ncommits            55\n"), "{out}");
    }

    #[test]
    fn run_with_txs_5_commits_5() {
        let out = run_commits("5");
        assert!(out.contains("\ncommits            5\n"), "{out}");
    }

    #[test]
    fn explain_with_txs_5_commits_5_per_thread() {
        let cell = Cell {
            benchmark: Benchmark::Ssca2,
            policy: PolicyKind::Seer,
            threads: 2,
        };
        let text = explain_text(cell, 0, 5, 0, 1);
        assert!(text.contains("\n10 commits, "), "{text}");
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
