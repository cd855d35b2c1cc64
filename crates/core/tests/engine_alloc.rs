//! Zero steady-state allocation audit for the inference round
//! (`crates/runtime/tests/scratch_reuse.rs` style, one layer up).
//!
//! A counting global allocator measures two steady states after warm-up:
//!
//! * the full Alg. 5 round at 64 and 256 blocks — once the caller-owned
//!   [`InferenceScratch`] has reached its working sizes, an untraced
//!   round must allocate nothing;
//! * the full `Seer` scheduler — event registration (`on_tx_start` /
//!   `on_htm_commit` / `on_abort`) plus `force_update` rounds, covering
//!   the statistics writes, the inference round, and the in-place
//!   `LockTable::rebuild`.
//!
//! Everything here is deterministic (fixed streams, no hashing), so the
//! assertions are exact, not statistical. Allocations are counted per
//! thread, so another thread allocating meanwhile (libtest's runner, a
//! test running in parallel) cannot leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use seer::inference::{
    infer_conflict_pairs, InferenceScratch, Thresholds, MIN_DISCRIMINATIVE_SIGMA,
};
use seer::stats::MergedStats;
use seer::{Seer, SeerConfig};
use seer_htm::XStatus;
use seer_runtime::{LockBank, NullTraceSink, SchedEnv, Scheduler};
use seer_sim::{SimRng, Topology};

struct CountingAllocator;

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // allocations. A const-initialised `Cell` needs no allocation itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made on this thread during `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn another_threads_allocations_stay_out_of_the_window() {
    let stop = Arc::new(AtomicBool::new(false));
    let made = Arc::new(AtomicU64::new(0));
    let churner = {
        let (stop, made) = (Arc::clone(&stop), Arc::clone(&made));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(vec![0u8; 64]);
                made.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    // The window spans at least 1 000 allocations on the other thread and
    // none on this one.
    let start = made.load(Ordering::Relaxed);
    let seen = allocations_during(|| {
        while made.load(Ordering::Relaxed) < start + 1_000 {
            std::thread::yield_now();
        }
    });
    stop.store(true, Ordering::Relaxed);
    churner.join().expect("churner thread");
    assert_eq!(seen, 0, "another thread's allocations were counted");
}

/// A populated stats matrix (xorshift stream: deterministic, contended
/// enough to emit pairs).
fn populated(blocks: usize, seed: u64) -> MergedStats {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut m = MergedStats::new(blocks);
    for _ in 0..blocks * 24 {
        let x = next(blocks);
        // Partners concentrate in a small neighborhood of x: at large n a
        // uniform partner spreads the conjunctive mass so thin that no
        // pair ever crosses Th1.
        let y = (x + 1 + next(3)) % blocks;
        if next(3) == 0 {
            m.add_commit(x, [y].into_iter());
        } else {
            m.add_abort(x, [y].into_iter());
        }
    }
    m
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let th = Thresholds::default();
    let min_sigma = MIN_DISCRIMINATIVE_SIGMA;

    // --- full inference round over reused scratch -----------------------
    for n in [64, 256] {
        let mut stats = populated(n, 0x5EED);
        let mut scratch = InferenceScratch::default();
        let baseline = infer_conflict_pairs(&stats, th, min_sigma, &mut scratch, None).to_vec();
        assert!(!baseline.is_empty(), "audit stats must emit pairs at n={n}");
        // Registrations between rounds, as in a running scheduler: the
        // round reads fresh counters but needs no new capacity.
        let rounds = allocations_during(|| {
            for round in 0..20 {
                stats.add_commit(round % n, [(round + 1) % n].into_iter());
                let pairs = infer_conflict_pairs(&stats, th, min_sigma, &mut scratch, None);
                std::hint::black_box(pairs);
            }
        });
        assert_eq!(rounds, 0, "steady-state rounds at n={n} must not allocate");
        // The reused scratch still decides what fresh scratch decides.
        let mut fresh = InferenceScratch::default();
        assert_eq!(
            infer_conflict_pairs(&stats, th, min_sigma, &mut scratch, None),
            infer_conflict_pairs(&stats, th, min_sigma, &mut fresh, None)
        );
    }

    // --- full scheduler: events + force_update -------------------------
    let threads = 4;
    let blocks = 16;
    let topology = Topology::haswell_e3();
    let locks = LockBank::new(topology.physical_cores(), blocks);
    let mut rng = SimRng::new(7);
    let mut sink = NullTraceSink;
    let mut env = SchedEnv {
        now: 0,
        locks: &locks,
        topology,
        rng: &mut rng,
        trace: &mut sink,
    };
    let mut seer = Seer::new(SeerConfig::full(), threads, blocks);

    // One synthetic event batch: all threads announce, half commit, half
    // abort (attempts_left > 1, so the abort path returns no gates and
    // acquires nothing).
    let batch = |seer: &mut Seer, env: &mut SchedEnv<'_>, round: usize| {
        for t in 0..threads {
            seer.on_tx_start(t, (t + round) % blocks, env);
        }
        for t in 0..threads {
            let block = (t + round) % blocks;
            if t % 2 == 0 {
                seer.on_htm_commit(t, block, env);
            } else {
                seer.on_abort(t, block, XStatus::conflict(), 3, env);
                seer.on_htm_commit(t, block, env);
            }
        }
    };

    for round in 0..100 {
        batch(&mut seer, &mut env, round);
        seer.force_update();
    }
    let scheduler = allocations_during(|| {
        for round in 100..140 {
            batch(&mut seer, &mut env, round);
            seer.force_update();
        }
    });
    assert_eq!(
        scheduler, 0,
        "steady-state Seer rounds (events + update) must not allocate"
    );
}
