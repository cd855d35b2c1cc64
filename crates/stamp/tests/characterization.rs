//! Workload characterization tests: each STAMP model must exhibit the
//! statistical signature its real counterpart is known for (footprint
//! sizes, read/write balance, transaction-length ordering, contention
//! regime). These pin the calibration that `EXPERIMENTS.md` depends on.

use seer_baselines::Rtm;
use seer_htm::AccessKind;
use seer_runtime::{run, DriverConfig, RunMetrics, Workload};
use seer_sim::SimRng;
use seer_stamp::Benchmark;

/// Average accesses and write fraction of a model's transaction stream.
fn footprint(b: Benchmark, txs: usize) -> (f64, f64) {
    let mut m = b.instantiate(1, txs);
    let mut rng = SimRng::new(99);
    let (mut total, mut writes, mut n) = (0usize, 0usize, 0usize);
    while let Some(req) = m.next(0, &mut rng) {
        total += req.accesses.len();
        writes += req
            .accesses
            .iter()
            .filter(|a| matches!(a.kind, AccessKind::Write))
            .count();
        n += 1;
    }
    (total as f64 / n as f64, writes as f64 / total as f64)
}

fn contended_run(b: Benchmark, threads: usize) -> RunMetrics {
    let mut w = b.instantiate(threads, (b.default_txs() / 4).max(30));
    let mut s = Rtm::default();
    let mut cfg = DriverConfig::paper_machine(threads, 12);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(&mut w, &mut s, &cfg)
}

#[test]
fn transaction_length_ordering_matches_stamp() {
    // STAMP's published characterization orders mean transaction sizes:
    // ssca2 (tiny) < kmeans < intruder/genome < vacation < yada (huge).
    let (ssca2, _) = footprint(Benchmark::Ssca2, 400);
    let (kmeans, _) = footprint(Benchmark::KmeansHigh, 400);
    let (genome, _) = footprint(Benchmark::Genome, 400);
    let (vacation, _) = footprint(Benchmark::VacationHigh, 400);
    let (yada, _) = footprint(Benchmark::Yada, 100);
    assert!(ssca2 < kmeans, "ssca2 {ssca2:.1} !< kmeans {kmeans:.1}");
    assert!(kmeans < genome, "kmeans {kmeans:.1} !< genome {genome:.1}");
    assert!(
        genome < vacation,
        "genome {genome:.1} !< vacation {vacation:.1}"
    );
    assert!(vacation < yada, "vacation {vacation:.1} !< yada {yada:.1}");
    assert!(
        yada > 150.0,
        "yada mix must be dominated by large cavities: {yada:.1}"
    );
}

#[test]
fn read_write_balance_per_benchmark() {
    // Vacation is read-dominated (tree lookups); kmeans writes heavily
    // (center updates); yada sits in between but with a large absolute
    // write count.
    let (_, vacation_wf) = footprint(Benchmark::VacationLow, 300);
    let (_, kmeans_wf) = footprint(Benchmark::KmeansHigh, 300);
    assert!(
        vacation_wf < 0.25,
        "vacation writes too much: {vacation_wf:.2}"
    );
    assert!(kmeans_wf > 0.2, "kmeans writes too little: {kmeans_wf:.2}");
}

#[test]
fn contention_regimes_at_eight_threads() {
    // ssca2 ~conflict-free; kmeans-high conflict-heavy; the rest between.
    let ssca2 = contended_run(Benchmark::Ssca2, 8);
    assert!(
        ssca2.abort_ratio() < 0.05,
        "ssca2 aborts: {}",
        ssca2.abort_ratio()
    );
    let kmeans = contended_run(Benchmark::KmeansHigh, 8);
    assert!(
        kmeans.abort_ratio() > 0.8,
        "kmeans-high should be hot: {}",
        kmeans.abort_ratio()
    );
    let low = contended_run(Benchmark::KmeansLow, 8);
    assert!(
        low.abort_ratio() < kmeans.abort_ratio(),
        "kmeans-low ({}) must be cooler than high ({})",
        low.abort_ratio(),
        kmeans.abort_ratio()
    );
}

#[test]
fn vacation_high_is_hotter_than_low() {
    let hi = contended_run(Benchmark::VacationHigh, 8);
    let lo = contended_run(Benchmark::VacationLow, 8);
    assert!(
        hi.abort_ratio() > lo.abort_ratio(),
        "vacation-high ({}) must out-contend low ({})",
        hi.abort_ratio(),
        lo.abort_ratio()
    );
}

#[test]
fn yada_capacity_pressure_appears_only_under_smt() {
    let at4 = contended_run(Benchmark::Yada, 4);
    let at8 = contended_run(Benchmark::Yada, 8);
    assert!(
        at8.aborts.capacity > 4 * at4.aborts.capacity.max(1),
        "SMT sharing must multiply capacity aborts: {} -> {}",
        at4.aborts.capacity,
        at8.aborts.capacity
    );
}

#[test]
fn every_model_survives_the_full_policy_matrix_at_two_threads() {
    use seer::{Seer, SeerConfig};
    for b in Benchmark::STAMP
        .into_iter()
        .chain([Benchmark::HashmapLow, Benchmark::Labyrinth])
    {
        let mut w = b.instantiate(2, 25);
        let blocks = w.num_blocks();
        let mut s = Seer::new(SeerConfig::full(), 2, blocks);
        let m = run(&mut w, &mut s, &DriverConfig::paper_machine(2, 77));
        assert_eq!(m.commits, 50, "{}", b.name());
        assert!(!m.truncated, "{}", b.name());
    }
}

#[test]
fn hashmap_low_lives_up_to_its_name() {
    let m = contended_run(Benchmark::HashmapLow, 8);
    assert!(
        m.abort_ratio() < 0.05,
        "hashmap-low should barely abort: {}",
        m.abort_ratio()
    );
    assert_eq!(m.fallbacks, 0);
}
