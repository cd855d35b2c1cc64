//! The paper's experiments as reusable functions, one per table/figure.
//!
//! Each function *declares* its grid as a [`Plan`], hands it to the shared
//! [`CellExecutor`] (which deduplicates, memoizes, and fans work out across
//! `cfg.jobs` OS threads), then assembles the figure from cached results;
//! `seer experiment <name>` renders them. Tests and the Criterion benches
//! call the same functions at reduced scale, so every number in
//! `EXPERIMENTS.md` is regenerable from exactly one place — and figures
//! sharing cells (Table 3 re-reads every Figure 3 cell; Figures 4/5 share
//! the profile-only baselines) simulate each unique cell exactly once per
//! executor.

use seer_stamp::Benchmark;
use seer_store::{Json, ToJson};

use crate::exec::{parallel_map, CellExecutor, Plan};
use crate::policy::PolicyKind;
use crate::report::{Panel, PercentTable, Series};
use crate::runner::{default_jobs, execute_cell, geometric_mean, Cell};

/// Thread counts swept by Figure 3 / Figure 4.
pub const THREADS_FULL: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Thread counts reported by Table 3 / Figure 5.
pub const THREADS_TABLE: [usize; 4] = [2, 4, 6, 8];

fn cell(benchmark: Benchmark, policy: PolicyKind, threads: usize) -> Cell {
    Cell {
        benchmark,
        policy,
        threads,
    }
}

/// Figure 3: speedup of HLE/RTM/SCM/Seer over sequential, per benchmark
/// (panels a–h) plus the geometric-mean panel (i).
pub fn figure3(exec: &CellExecutor, threads: &[usize]) -> Vec<Panel> {
    let mut plan = Plan::new();
    plan.add_grid(&Benchmark::STAMP, &PolicyKind::FIGURE3, threads, exec.config());
    exec.execute(&plan);

    let mut panels = Vec::new();
    // Per-policy, per-thread speedups across benchmarks, for the geo-mean.
    let mut all: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); threads.len()]; PolicyKind::FIGURE3.len()];
    for &benchmark in &Benchmark::STAMP {
        let mut series = Vec::new();
        for (pi, &policy) in PolicyKind::FIGURE3.iter().enumerate() {
            let mut points = Vec::new();
            for (ti, &t) in threads.iter().enumerate() {
                let r = exec.cell(cell(benchmark, policy, t));
                points.push((t, r.speedup));
                all[pi][ti].push(r.speedup);
            }
            series.push(Series {
                label: policy.label().to_string(),
                points,
            });
        }
        panels.push(Panel {
            title: benchmark.name().to_string(),
            series,
        });
    }
    let geo_series = PolicyKind::FIGURE3
        .iter()
        .enumerate()
        .map(|(pi, &policy)| Series {
            label: policy.label().to_string(),
            points: threads
                .iter()
                .enumerate()
                .map(|(ti, &t)| (t, geometric_mean(&all[pi][ti])))
                .collect(),
        })
        .collect();
    panels.push(Panel {
        title: "geometric mean in STAMP".to_string(),
        series: geo_series,
    });
    panels
}

/// Table 3: breakdown of committed-transaction modes per policy at the
/// reported thread counts, averaged across the STAMP benchmarks. Returns
/// one table per policy, plus (as the paper's §5.2 text reports) the mean
/// per-run median fraction of transaction locks Seer acquires.
pub fn table3(exec: &CellExecutor, threads: &[usize]) -> (Vec<PercentTable>, Option<f64>) {
    use seer_runtime::TxMode;
    let mut plan = Plan::new();
    plan.add_grid(&Benchmark::STAMP, &PolicyKind::FIGURE3, threads, exec.config());
    exec.execute(&plan);

    let mut tables = Vec::new();
    let mut seer_lock_fractions = Vec::new();
    for &policy in &PolicyKind::FIGURE3 {
        let mut rows: Vec<(String, Vec<f64>)> = TxMode::ALL
            .iter()
            .map(|m| (m.label().to_string(), Vec::new()))
            .collect();
        for &t in threads {
            let mut mode_acc = [0.0f64; 6];
            for &benchmark in &Benchmark::STAMP {
                let r = exec.cell(cell(benchmark, policy, t));
                for (acc, f) in mode_acc.iter_mut().zip(r.mode_fractions) {
                    *acc += f;
                }
                if policy == PolicyKind::Seer {
                    if let Some(f) = r.median_tx_lock_fraction {
                        seer_lock_fractions.push(f);
                    }
                }
            }
            for i in 0..6 {
                rows[i].1.push(mode_acc[i] / Benchmark::STAMP.len() as f64);
            }
        }
        // The paper's Table 3 only prints rows a variant can populate.
        let rows = rows
            .into_iter()
            .filter(|(_, values)| values.iter().any(|&v| v >= 0.0005))
            .collect();
        tables.push(PercentTable {
            title: policy.label().to_string(),
            columns: threads.iter().map(|t| format!("{t}t")).collect(),
            rows,
        });
    }
    let lock_fraction = if seer_lock_fractions.is_empty() {
        None
    } else {
        Some(seer_lock_fractions.iter().sum::<f64>() / seer_lock_fractions.len() as f64)
    };
    (tables, lock_fraction)
}

/// Figure 4: geometric-mean speedup of profile-only Seer relative to RTM,
/// per thread count — the cost of monitoring + inference + self-tuning
/// without any scheduling benefit. Includes the low-contention hash map as
/// an extra series (§5.3 reports ≤4% overhead there).
pub fn figure4(exec: &CellExecutor, threads: &[usize]) -> Panel {
    let mut benchmarks = Benchmark::STAMP.to_vec();
    benchmarks.push(Benchmark::HashmapLow);
    let mut plan = Plan::new();
    plan.add_grid(
        &benchmarks,
        &[PolicyKind::Rtm, PolicyKind::SeerProfileOnly],
        threads,
        exec.config(),
    );
    exec.execute(&plan);

    let mut stamp_points = Vec::new();
    let mut hashmap_points = Vec::new();
    for &t in threads {
        let mut ratios = Vec::new();
        for &benchmark in &Benchmark::STAMP {
            let rtm = exec.cell(cell(benchmark, PolicyKind::Rtm, t));
            let prof = exec.cell(cell(benchmark, PolicyKind::SeerProfileOnly, t));
            ratios.push(prof.speedup / rtm.speedup);
        }
        stamp_points.push((t, geometric_mean(&ratios)));

        let rtm = exec.cell(cell(Benchmark::HashmapLow, PolicyKind::Rtm, t));
        let prof = exec.cell(cell(Benchmark::HashmapLow, PolicyKind::SeerProfileOnly, t));
        hashmap_points.push((t, prof.speedup / rtm.speedup));
    }
    Panel {
        title: "Seer(profile-only) relative to RTM".to_string(),
        series: vec![
            Series {
                label: "STAMP geo-mean".to_string(),
                points: stamp_points,
            },
            Series {
                label: "hashmap-low".to_string(),
                points: hashmap_points,
            },
        ],
    }
}

/// Figure 5: cumulative contribution of each Seer mechanism — speedup of
/// each variant relative to the profile-only baseline, per benchmark and
/// thread count, plus the geometric-mean panel.
pub fn figure5(exec: &CellExecutor, threads: &[usize]) -> Vec<Panel> {
    let mut plan = Plan::new();
    plan.add_grid(&Benchmark::STAMP, &PolicyKind::FIGURE5, threads, exec.config());
    exec.execute(&plan);

    let mut panels = Vec::new();
    let variants = &PolicyKind::FIGURE5[1..]; // baseline is the divisor
    let mut all: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); threads.len()]; variants.len()];
    for &benchmark in &Benchmark::STAMP {
        let base: Vec<f64> = threads
            .iter()
            .map(|&t| exec.cell(cell(benchmark, PolicyKind::SeerProfileOnly, t)).speedup)
            .collect();
        let mut series = Vec::new();
        for (vi, &policy) in variants.iter().enumerate() {
            let mut points = Vec::new();
            for (ti, &t) in threads.iter().enumerate() {
                let r = exec.cell(cell(benchmark, policy, t));
                let rel = r.speedup / base[ti];
                points.push((t, rel));
                all[vi][ti].push(rel);
            }
            series.push(Series {
                label: policy.label().to_string(),
                points,
            });
        }
        panels.push(Panel {
            title: benchmark.name().to_string(),
            series,
        });
    }
    let geo = variants
        .iter()
        .enumerate()
        .map(|(vi, &policy)| Series {
            label: policy.label().to_string(),
            points: threads
                .iter()
                .enumerate()
                .map(|(ti, &t)| (t, geometric_mean(&all[vi][ti])))
                .collect(),
        })
        .collect();
    panels.push(Panel {
        title: "geo-mean".to_string(),
        series: geo,
    });
    panels
}

/// §5.3 core-locks-only ablation: geometric-mean speedup of
/// core-locks-only Seer relative to profile-only Seer (the paper reports
/// +9% at 6 threads and +22% at 8).
pub fn core_locks_only(exec: &CellExecutor, threads: &[usize]) -> Panel {
    let mut plan = Plan::new();
    plan.add_grid(
        &Benchmark::STAMP,
        &[PolicyKind::SeerProfileOnly, PolicyKind::SeerCoreLocksOnly],
        threads,
        exec.config(),
    );
    exec.execute(&plan);

    let mut points = Vec::new();
    for &t in threads {
        let mut ratios = Vec::new();
        for &benchmark in &Benchmark::STAMP {
            let base = exec.cell(cell(benchmark, PolicyKind::SeerProfileOnly, t));
            let core = exec.cell(cell(benchmark, PolicyKind::SeerCoreLocksOnly, t));
            ratios.push(core.speedup / base.speedup);
        }
        points.push((t, geometric_mean(&ratios)));
    }
    Panel {
        title: "core-locks-only relative to profile-only".to_string(),
        series: vec![Series {
            label: "geo-mean".to_string(),
            points,
        }],
    }
}

/// Inference-accuracy scores for one benchmark at one thread count.
#[derive(Debug, Clone)]
pub struct AccuracyResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of inferred pairs that are true conflicts (per ground
    /// truth).
    pub precision: f64,
    /// Fraction of significant true conflicts that were inferred.
    pub recall: f64,
    /// Number of pairs Seer serialized.
    pub inferred: usize,
    /// Number of significant pairs in the ground truth.
    pub truth: usize,
}

impl ToJson for AccuracyResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("benchmark", self.benchmark.to_json()),
            ("precision", self.precision.to_json()),
            ("recall", self.recall.to_json()),
            ("inferred", self.inferred.to_json()),
            ("truth", self.truth.to_json()),
        ])
    }
}

/// Extra experiment (not in the paper, enabled by the simulator's oracle):
/// score Seer's inferred conflict relation against the ground-truth kill
/// matrix. A true pair is one responsible for ≥ `significance` of the
/// victim block's recorded kills. Benchmarks fan out across `SEER_JOBS`
/// threads (these runs need post-run scheduler state, so they bypass the
/// cell cache).
pub fn inference_accuracy(threads: usize, scale: f64, significance: f64) -> Vec<AccuracyResult> {
    use seer::{Seer, SeerConfig};
    use seer_runtime::{run, DriverConfig, Workload};

    parallel_map(&Benchmark::STAMP, default_jobs(), |&benchmark| {
        let mut workload = benchmark.instantiate_scaled(threads, scale);
        let blocks = workload.num_blocks();
        let mut sched = Seer::new(SeerConfig::full(), threads, blocks);
        let metrics = run(&mut workload, &mut sched, &DriverConfig::paper_machine(threads, 7));
        sched.force_update();

        // Symmetrized ground truth: a pair is significant if its kills (in
        // either direction) reach `significance` of the total.
        let total_kills = metrics.ground_truth.total().max(1);
        let min_kills = ((total_kills as f64) * significance).ceil() as u64;
        let mut truth: Vec<(usize, usize)> = Vec::new();
        for v in 0..blocks {
            for k in v..blocks {
                let kills = metrics.ground_truth.get(v, k)
                    + if v == k { 0 } else { metrics.ground_truth.get(k, v) };
                if kills >= min_kills {
                    truth.push((v, k));
                }
            }
        }
        let mut inferred: Vec<(usize, usize)> = sched
            .inferred_pairs()
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        inferred.sort_unstable();
        inferred.dedup();

        let hits = inferred.iter().filter(|p| truth.contains(p)).count();
        let precision = if inferred.is_empty() {
            1.0
        } else {
            hits as f64 / inferred.len() as f64
        };
        let recall = if truth.is_empty() {
            1.0
        } else {
            hits as f64 / truth.len() as f64
        };
        AccuracyResult {
            benchmark: benchmark.name().to_string(),
            precision,
            recall,
            inferred: inferred.len(),
            truth: truth.len(),
        }
    })
}

/// One row of the fine-grained (structure-refined) extension experiment.
#[derive(Debug, Clone)]
pub struct FineGrainedResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Speedup of plain (per-atomic-block) Seer.
    pub plain: f64,
    /// Speedup of structure-refined Seer.
    pub refined: f64,
    /// Serialized pairs in the plain lock table.
    pub plain_pairs: usize,
    /// Serialized pairs in the refined lock table.
    pub refined_pairs: usize,
}

impl ToJson for FineGrainedResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("benchmark", self.benchmark.to_json()),
            ("plain", self.plain.to_json()),
            ("refined", self.refined.to_json()),
            ("plain_pairs", self.plain_pairs.to_json()),
            ("refined_pairs", self.refined_pairs.to_json()),
        ])
    }
}

/// Future-work extension experiment (paper §6): Seer with block-granular
/// locks vs Seer with (block × data-structure)-granular locks, obtained by
/// refining block ids with `seer_stamp::RefinedModel`. Benchmarks fan out
/// across `SEER_JOBS` threads.
pub fn fine_grained(threads: usize, scale: f64, seeds: u64) -> Vec<FineGrainedResult> {
    use seer::{Seer, SeerConfig};
    use seer_runtime::{run, DriverConfig, Workload};
    use seer_stamp::RefinedModel;

    const STRUCTURES: usize = 4;
    parallel_map(&Benchmark::STAMP, default_jobs(), |&benchmark| {
        let mut plain_speedup = 0.0;
        let mut refined_speedup = 0.0;
        let mut plain_pairs = 0usize;
        let mut refined_pairs = 0usize;
        for seed in 0..seeds {
            let cfg = DriverConfig::paper_machine(threads, 0xF17E + seed * 4099);

            let mut w = benchmark.instantiate_scaled(threads, scale);
            let blocks = w.num_blocks();
            let mut sched = Seer::new(SeerConfig::full(), threads, blocks);
            let m = run(&mut w, &mut sched, &cfg);
            plain_speedup += m.speedup() / seeds as f64;
            plain_pairs = plain_pairs.max(sched.inferred_pairs().len());

            let mut w = RefinedModel::new(benchmark.instantiate_scaled(threads, scale), STRUCTURES);
            let blocks = w.num_blocks();
            let mut sched = Seer::new(SeerConfig::full(), threads, blocks);
            let m = run(&mut w, &mut sched, &cfg);
            refined_speedup += m.speedup() / seeds as f64;
            refined_pairs = refined_pairs.max(sched.inferred_pairs().len());
        }
        FineGrainedResult {
            benchmark: benchmark.name().to_string(),
            plain: plain_speedup,
            refined: refined_speedup,
            plain_pairs,
            refined_pairs,
        }
    })
}

/// Convergence of the probabilistic inference for one benchmark.
#[derive(Debug, Clone)]
pub struct ConvergenceResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Virtual time of the last lock-scheme *change*, if any.
    pub converged_at: Option<u64>,
    /// Total run length (makespan), for normalization.
    pub makespan: u64,
    /// Fraction of the run spent before convergence (None = never locked).
    pub converged_fraction: Option<f64>,
    /// Number of recomputations performed in-run.
    pub updates: u64,
}

impl ToJson for ConvergenceResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("benchmark", self.benchmark.to_json()),
            ("converged_at", self.converged_at.to_json()),
            ("makespan", self.makespan.to_json()),
            ("converged_fraction", self.converged_fraction.to_json()),
            ("updates", self.updates.to_json()),
        ])
    }
}

/// Extra experiment: how quickly does Seer's locking scheme converge?
/// The paper motivates its "relatively aggressive monitoring/optimization
/// rates" by STAMP's short runs (§5.3); this measures the resulting
/// convergence point directly. Benchmarks fan out across `SEER_JOBS`
/// threads.
pub fn convergence(threads: usize, scale: f64) -> Vec<ConvergenceResult> {
    use seer::{Seer, SeerConfig};
    use seer_runtime::{run, DriverConfig, Workload};

    parallel_map(&Benchmark::STAMP, default_jobs(), |&benchmark| {
        let mut workload = benchmark.instantiate_scaled(threads, scale);
        let blocks = workload.num_blocks();
        let mut sched = Seer::new(SeerConfig::full(), threads, blocks);
        let m = run(&mut workload, &mut sched, &DriverConfig::paper_machine(threads, 31));
        let converged_at = sched.converged_at();
        ConvergenceResult {
            benchmark: benchmark.name().to_string(),
            converged_at,
            makespan: m.makespan,
            converged_fraction: converged_at.map(|t| t as f64 / m.makespan.max(1) as f64),
            updates: sched.counters().updates,
        }
    })
}

/// Quick single-cell speedup at harness seed 0 (used by benches and
/// tests).
pub fn quick_speedup(benchmark: Benchmark, policy: PolicyKind, threads: usize, scale: f64) -> f64 {
    execute_cell(cell(benchmark, policy, threads), 0, scale, None).speedup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::HarnessConfig;

    fn tiny() -> CellExecutor {
        CellExecutor::new(HarnessConfig {
            seeds: 1,
            scale: 0.08,
            jobs: 2,
        })
    }

    #[test]
    fn figure3_has_nine_panels() {
        let panels = figure3(&tiny(), &[2, 4]);
        assert_eq!(panels.len(), 9);
        assert_eq!(panels[8].title, "geometric mean in STAMP");
        for p in &panels {
            assert_eq!(p.series.len(), 4);
            for s in &p.series {
                assert_eq!(s.points.len(), 2);
                assert!(s.points.iter().all(|&(_, y)| y > 0.0));
            }
        }
    }

    #[test]
    fn table3_covers_policies_and_threads() {
        let (tables, _) = table3(&tiny(), &[4]);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.columns, vec!["4t"]);
            // Percentages per column sum to ~100.
            let col_total: f64 = t.rows.iter().map(|(_, v)| v[0]).sum();
            assert!((col_total - 1.0).abs() < 1e-6, "{} sums to {col_total}", t.title);
        }
    }

    #[test]
    fn figure4_produces_ratio_series() {
        let p = figure4(&tiny(), &[2]);
        assert_eq!(p.series.len(), 2);
        let (_, r) = p.series[0].points[0];
        assert!(r > 0.5 && r < 1.5, "overhead ratio implausible: {r}");
    }

    #[test]
    fn accuracy_scores_are_probabilities() {
        for a in inference_accuracy(4, 0.08, 0.05) {
            assert!((0.0..=1.0).contains(&a.precision), "{a:?}");
            assert!((0.0..=1.0).contains(&a.recall), "{a:?}");
        }
    }
}
