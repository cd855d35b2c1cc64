//! Scheduler comparison on one workload — a miniature Figure 3 panel.
//!
//! Sweeps HLE, RTM, SCM, ATS and Seer over 1..=8 threads on a chosen
//! benchmark and prints speedup, abort rate, and fall-back usage, so you
//! can see *why* a scheduler wins, not just that it does.
//!
//! ```sh
//! cargo run --release --example compare_schedulers [benchmark]
//! ```
//! where `[benchmark]` is one of genome, intruder, kmeans-high,
//! kmeans-low, ssca2, vacation-high, vacation-low, yada (default:
//! vacation-high).

use seer_harness::{Cell, PolicyKind};
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

fn parse_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::STAMP.into_iter().find(|b| b.name() == name)
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "vacation-high".into());
    let Some(benchmark) = parse_benchmark(&name) else {
        eprintln!("unknown benchmark {name:?}; pick one of:");
        for b in Benchmark::STAMP {
            eprintln!("  {}", b.name());
        }
        std::process::exit(1);
    };

    let policies = [
        PolicyKind::Hle,
        PolicyKind::Rtm,
        PolicyKind::Scm,
        PolicyKind::Ats,
        PolicyKind::Seer,
    ];

    println!("benchmark: {}", benchmark.name());
    println!(
        "{:>8} {:>22} {:>12} {:>12}",
        "threads", "speedup (per policy)", "aborts/commit", "fall-back %"
    );
    for threads in 1..=8usize {
        let mut speedups = String::new();
        let mut best = (f64::MIN, policies[0]);
        let mut aborts = String::new();
        let mut fallbacks = String::new();
        for policy in policies {
            let m = RunRequest::cell(Cell {
                benchmark,
                policy,
                threads,
            })
            .scale(0.5)
            .run();
            let s = m.speedup();
            if s > best.0 {
                best = (s, policy);
            }
            speedups += &format!("{s:>5.2}");
            aborts += &format!("{:>5.1}", m.abort_ratio());
            fallbacks += &format!("{:>5.0}", m.fallback_fraction() * 100.0);
        }
        println!(
            "{threads:>8} {speedups:>22} {aborts:>12} {fallbacks:>12}   best: {}",
            best.1.label()
        );
    }
    println!("\ncolumns per group: HLE, RTM, SCM, ATS, Seer");
}
