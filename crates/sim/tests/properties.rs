//! Property-based tests for the simulation substrate.

use std::sync::Arc;

use proptest::prelude::*;
use seer_sim::{EventQueue, SimLock, SimRng, ZipfTable};

/// The plain inverse-CDF lookup the guide index must reproduce.
fn full_search(table: &ZipfTable, u: f64) -> usize {
    let cdf = table.cdf();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The largest `f64` strictly below a positive `x`.
fn below(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Draws that sit on or just under a boundary of the guided search: 0,
/// every bucket edge `b/K` and its predecessor, every cdf value and its
/// predecessor, the largest `f64` below 1, and 1 itself.
fn adversarial_draws(table: &ZipfTable) -> Vec<f64> {
    // `ZipfTable`'s guide caps the bucket count at 2^17.
    let buckets = table.len().next_power_of_two().min(1 << 17);
    let mut us = vec![0.0, below(1.0), 1.0];
    for b in 1..=buckets {
        let edge = b as f64 / buckets as f64;
        us.extend([edge, below(edge)]);
    }
    for &c in table.cdf() {
        us.extend([c, below(c)]);
    }
    us
}

/// Asserts guided == full search over the adversarial draws plus `random`
/// `unit()` draws.
fn assert_guided_matches_full(n: usize, theta: f64, seed: u64, random: usize) {
    let table = ZipfTable::new(n, theta);
    let mut rng = SimRng::new(seed);
    let draws = adversarial_draws(&table)
        .into_iter()
        .chain((0..random).map(|_| rng.unit()));
    for u in draws {
        assert_eq!(
            table.sample(u),
            full_search(&table, u),
            "n={n} theta={theta} u={u:e}"
        );
    }
}

proptest! {
    // Each case builds a table of up to 2^18 entries and checks every
    // boundary draw of it, so fewer cases than the default.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The guide index never changes a sample: over random sizes up to 2^18
    /// (log-uniform) and exponents in [0, 3), the guided lookup equals the
    /// full binary search on every boundary draw and on random draws.
    #[test]
    fn guided_sample_matches_full_search(
        log_n in 0u32..19,
        frac in 0.0f64..1.0,
        theta in 0.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let hi = 1usize << log_n;
        let n = (hi - ((hi / 2) as f64 * frac) as usize).max(1);
        assert_guided_matches_full(n, theta, seed, 500);
    }
}

#[test]
fn guided_sample_matches_full_search_at_model_sizes() {
    // Every size class a built-in model uses (yada's 131 072, ssca2's
    // 65 536, the 2^17-bucket cap and its neighbours), up to 2^18.
    for n in [
        1,
        2,
        3,
        12,
        96,
        4096,
        65_536,
        131_071,
        131_072,
        131_073,
        1 << 18,
    ] {
        for theta in [0.0, 0.05, 0.1, 0.6, 1.0, 3.0] {
            assert_guided_matches_full(n, theta, n as u64, 2_000);
        }
    }
}

#[test]
fn shared_tables_are_one_instance_per_key() {
    let theta = 0.37;
    let a = ZipfTable::shared(777, theta);
    assert!(Arc::ptr_eq(&a, &ZipfTable::shared(777, theta)));
    assert!(!Arc::ptr_eq(&a, &ZipfTable::shared(778, theta)));
    // Exponents one ulp apart are different keys.
    let next_up = f64::from_bits(theta.to_bits() + 1);
    let b = ZipfTable::shared(777, next_up);
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(a.cdf(), ZipfTable::new(777, theta).cdf());

    // Four threads racing on the same keys all get the same instances:
    // every 16-key chunk holds all eight keys twice over.
    let up = f64::from_bits(0.81f64.to_bits() + 1);
    let keys: Vec<(usize, f64)> = (0..64)
        .map(|i| (1_000 + i % 4, if i % 8 < 4 { 0.81 } else { up }))
        .collect();
    let tables: Vec<Arc<ZipfTable>> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(16)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(n, theta)| ZipfTable::shared(n, theta))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("racing thread panicked"))
            .collect()
    });
    for (&(n, theta), table) in keys.iter().zip(&tables) {
        let again = ZipfTable::shared(n, theta);
        assert!(Arc::ptr_eq(table, &again), "n={n} theta={theta:e}");
        assert_eq!(table.len(), n);
    }
    assert!(!Arc::ptr_eq(&tables[0], &tables[4]), "one-ulp apart");
}

proptest! {
    /// The event queue pops a total order: non-decreasing times, and FIFO
    /// among equal times — equivalent to a stable sort by time.
    #[test]
    fn event_queue_is_a_stable_sort(times in prop::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped, expected);
    }

    /// Interleaved pushes and pops still never go backwards in time, as
    /// long as pushes respect the watermark.
    #[test]
    fn event_queue_time_is_monotone(ops in prop::collection::vec((0u64..50, any::<bool>()), 1..300)) {
        let mut q = EventQueue::new();
        let mut last = 0u64;
        for (dt, pop) in ops {
            if pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            } else {
                q.push(last + dt, ());
            }
        }
    }

    /// Zipf sampling never leaves the table's bounds and the CDF is
    /// monotone.
    #[test]
    fn zipf_sample_in_bounds(n in 1usize..500, theta in 0.0f64..2.5, seed in any::<u64>()) {
        let table = ZipfTable::new(n, theta);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let i = rng.zipf(&table);
            prop_assert!(i < n);
        }
        // Monotone: higher u never maps to an earlier index... not strictly
        // required by the API, but partition_point over a CDF implies it.
        let lo = table.sample(0.0);
        let hi = table.sample(0.999_999_9);
        prop_assert!(lo <= hi);
    }

    /// Same seed => identical stream.
    #[test]
    fn rng_reproducibility(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// A lock subjected to arbitrary acquire/release/queue operations never
    /// double-grants ownership and conserves its waiters.
    #[test]
    fn lock_never_double_grants(ops in prop::collection::vec(0u8..4, 1..200)) {
        let mut lock = SimLock::new();
        let threads = 4usize;
        let mut parked: Vec<bool> = vec![false; threads];
        for (i, op) in ops.into_iter().enumerate() {
            let t = i % threads;
            match op {
                0 => {
                    if !lock.is_held_by(t) && lock.try_acquire(t) {
                        prop_assert!(lock.is_held_by(t));
                    }
                }
                1 => {
                    if lock.is_held_by(t) {
                        let wake = lock.release(t);
                        prop_assert!(!lock.is_locked());
                        for a in &wake.acquirers {
                            prop_assert!(parked[*a]);
                            parked[*a] = false;
                        }
                    }
                }
                2 => {
                    if !lock.is_held_by(t) && !parked[t] && lock.is_locked() {
                        lock.enqueue_acquirer(t);
                        parked[t] = true;
                    }
                }
                _ => {
                    lock.add_watcher(t);
                }
            }
        }
    }
}
