//! The paper's quantitative claims, each quoted and asserted at reduced
//! scale. Where the simulator compresses magnitudes (see EXPERIMENTS.md),
//! the assertion checks the *direction* with a conservative bound rather
//! than the paper's absolute factor.

use seer_harness::{geometric_mean, Cell, PolicyKind};
use seer_runtime::TxMode;
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

const SCALE: f64 = 0.25;

fn cell(b: Benchmark, p: PolicyKind, t: usize, seed: u64) -> seer_runtime::RunMetrics {
    RunRequest::cell(Cell {
        benchmark: b,
        policy: p,
        threads: t,
    })
    .seed(seed)
    .scale(SCALE)
    .run()
}

/// §1: "Seer improves the performance of the Intel TSX HTM … in TM
/// benchmarks with 8 threads" — Seer's STAMP geo-mean beats every
/// baseline's at 8 threads.
#[test]
fn claim_seer_leads_every_baseline_at_eight_threads() {
    let geo = |p: PolicyKind| {
        let v: Vec<f64> = Benchmark::STAMP
            .iter()
            .map(|&b| cell(b, p, 8, 2).speedup())
            .collect();
        geometric_mean(&v)
    };
    let seer = geo(PolicyKind::Seer);
    for p in [PolicyKind::Hle, PolicyKind::Rtm, PolicyKind::Scm] {
        let other = geo(p);
        assert!(
            seer > other,
            "Seer geo-mean {seer:.3} should beat {} {other:.3}",
            p.label()
        );
    }
}

/// §1: "These performance gains are not only a consequence of the reduced
/// aborts, but also of the reduced activation of the HTM's pessimistic
/// fall-back path."
#[test]
fn claim_gains_come_from_aborts_and_fallback() {
    let b = Benchmark::VacationHigh;
    let rtm = cell(b, PolicyKind::Rtm, 8, 3);
    let seer = cell(b, PolicyKind::Seer, 8, 3);
    assert!(
        seer.abort_ratio() < rtm.abort_ratio(),
        "aborts: seer {:.2} vs rtm {:.2}",
        seer.abort_ratio(),
        rtm.abort_ratio()
    );
    assert!(
        seer.fallback_fraction() < rtm.fallback_fraction() / 2.0,
        "fallback: seer {:.3} vs rtm {:.3}",
        seer.fallback_fraction(),
        rtm.fallback_fraction()
    );
}

/// §5.2 / Table 3: "HLE drastically loses its ability to execute
/// transactions in hardware, as threads increase".
#[test]
fn claim_hle_hardware_fraction_decays_with_threads() {
    let frac = |t: usize| {
        let m = cell(Benchmark::Genome, PolicyKind::Hle, t, 4);
        m.modes.fraction(TxMode::HtmNoLocks)
    };
    let at2 = frac(2);
    let at8 = frac(8);
    assert!(
        at2 > at8 + 0.2,
        "HLE hardware fraction should collapse: 2t {at2:.2} vs 8t {at8:.2}"
    );
}

/// §5.2: SCM "has significantly lower usage of the fall-back path" than
/// RTM, but commits a substantial share under the auxiliary lock, "a
/// single lock, which prevents parallelism among all restarting
/// transactions".
#[test]
fn claim_scm_trades_fallback_for_aux_serialization() {
    let rtm = cell(Benchmark::KmeansHigh, PolicyKind::Rtm, 8, 5);
    let scm = cell(Benchmark::KmeansHigh, PolicyKind::Scm, 8, 5);
    assert!(scm.fallback_fraction() < rtm.fallback_fraction() / 4.0);
    assert!(
        scm.modes.fraction(TxMode::HtmAuxLock) > 0.1,
        "aux share {:.3}",
        scm.modes.fraction(TxMode::HtmAuxLock)
    );
}

/// §5.2: "the frequency with which [Seer] uses a single-global lock is
/// drastically lower" — low single digits at 8 threads.
#[test]
fn claim_seer_sgl_usage_is_marginal() {
    let mut total = 0.0;
    for b in Benchmark::STAMP {
        total += cell(b, PolicyKind::Seer, 8, 6).fallback_fraction();
    }
    let mean = total / Benchmark::STAMP.len() as f64;
    assert!(mean < 0.07, "Seer mean SGL usage too high: {mean:.3}");
}

/// Mean speedup over a few seeds: the single-seed numbers carry enough
/// run-to-run variance to drown a ±10% claim, exactly as single hardware
/// runs would (the paper averages 20).
fn mean_speedup(b: Benchmark, p: PolicyKind, t: usize, seeds: std::ops::Range<u64>) -> f64 {
    let n = seeds.end - seeds.start;
    seeds.map(|s| cell(b, p, t, s).speedup()).sum::<f64>() / n as f64
}

/// §5.3 / Figure 5: "the core locks are only beneficial when using 6 or 8
/// threads, i.e., when we start executing multiple hardware threads on the
/// same core."
#[test]
fn claim_core_locks_matter_only_with_smt() {
    // At 4 threads the core-locks-only variant must be a no-op (within
    // noise); at 8 threads it must help on the capacity-bound model.
    let base4 = mean_speedup(Benchmark::Yada, PolicyKind::SeerProfileOnly, 4, 0..4);
    let core4 = mean_speedup(Benchmark::Yada, PolicyKind::SeerCoreLocksOnly, 4, 0..4);
    assert!(
        (core4 / base4 - 1.0).abs() < 0.10,
        "4t core locks should be ~neutral: {:.3}",
        core4 / base4
    );
    let base8 = mean_speedup(Benchmark::Yada, PolicyKind::SeerProfileOnly, 8, 0..4);
    let core8 = mean_speedup(Benchmark::Yada, PolicyKind::SeerCoreLocksOnly, 8, 0..4);
    assert!(
        core8 > base8 * 1.1,
        "8t core locks should pay off on yada: {:.3}",
        core8 / base8
    );
}

/// §5.3 / Figure 4: the monitoring/inference overhead "is less than 5%
/// and varies from negligible to at most 8%" — enforced with a small
/// cushion at this reduced scale.
#[test]
fn claim_profiling_overhead_is_bounded() {
    let mut ratios = Vec::new();
    for b in Benchmark::STAMP {
        let rtm = mean_speedup(b, PolicyKind::Rtm, 4, 0..3);
        let prof = mean_speedup(b, PolicyKind::SeerProfileOnly, 4, 0..3);
        ratios.push(prof / rtm);
    }
    let geo = geometric_mean(&ratios);
    assert!(geo > 0.90, "mean profiling overhead too high: {geo:.3}");
    assert!(
        ratios.iter().all(|&r| r > 0.85),
        "worst-case overhead too high: {ratios:?}"
    );
}

/// §5 setup: "We used a budget of 5 attempts for hardware transactions in
/// all approaches" — the shipped defaults agree.
#[test]
fn claim_attempt_budget_defaults() {
    assert_eq!(PolicyKind::Rtm.build(8, 4).attempt_budget(), 5);
    assert_eq!(PolicyKind::Scm.build(8, 4).attempt_budget(), 5);
    assert_eq!(PolicyKind::Seer.build(8, 4).attempt_budget(), 5);
}

/// §4: self-tuning starts from "the initial values of Th1 = 0.3 and
/// Th2 = 0.8".
#[test]
fn claim_initial_thresholds() {
    let t = seer::Thresholds::default();
    assert_eq!(t.th1, 0.3);
    assert_eq!(t.th2, 0.8);
}
