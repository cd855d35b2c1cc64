//! Per-transaction allocation audit for the workload models
//! (`crates/core/tests/engine_alloc.rs` style, one layer over).
//!
//! The driver keeps one request per thread, and `next_into` rewrites it
//! in place: once the request has grown to the model's longest trace,
//! issuing a transaction allocates nothing. The owning `next` allocates
//! exactly the returned request's access vector. Everything else reuses
//! model-owned scratch: `regenerate` rewrites the request in place and
//! allocates nothing, and so does the refinement adapter's `commit`. The
//! counts are exact, not statistical.
//!
//! In-place regeneration must also be blind to what the request held
//! before: a stale, SMT-stretched, over-long request regenerates to the
//! same trace, and leaves the same RNG state, as a clean one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seer_runtime::synthetic::{SyntheticSpec, SyntheticWorkload};
use seer_runtime::{TxRequest, Workload};
use seer_sim::SimRng;
use seer_stamp::{Benchmark, RefinedModel};

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

/// Allocations made on this thread during `f`, and its result.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

type Make = Box<dyn Fn() -> Box<dyn Workload>>;

/// A constructor for every audited model: the Fig. 3 STAMP models, the
/// many-blocks probe, the refinement adapter and the runtime's synthetic
/// workload. Quotas are large enough that none runs dry.
fn models() -> Vec<(String, Make)> {
    const THREADS: usize = 2;
    const TXS: usize = 10_000;
    let mut out: Vec<(String, Make)> = Benchmark::STAMP
        .into_iter()
        .chain([Benchmark::Synth { blocks: 128 }])
        .map(|b| {
            let make: Make = Box::new(move || Box::new(b.instantiate(THREADS, TXS)));
            (b.spec(), make)
        })
        .collect();
    out.push((
        "vacation-high+refined".into(),
        Box::new(|| {
            Box::new(RefinedModel::new(
                Benchmark::VacationHigh.instantiate(THREADS, TXS),
                4,
            ))
        }),
    ));
    out.push((
        "synthetic hashmap-low".into(),
        Box::new(|| {
            Box::new(SyntheticWorkload::new(
                SyntheticSpec::low_contention_hashmap(TXS),
                THREADS,
            ))
        }),
    ));
    out
}

#[test]
fn next_into_regenerate_and_commit_never_allocate_once_warm() {
    for (name, make) in models() {
        let mut w = make();
        let mut rng = SimRng::new(0xA110C);
        let mut req = TxRequest::default();
        // Warm-up: lets the reused request and lazily grown scratch (the
        // refinement adapter's region counts) reach their steady sizes.
        for _ in 0..50 {
            assert!(w.next_into(0, &mut rng, &mut req), "quota");
            w.regenerate(0, &mut req, &mut rng);
            w.commit(0, &req, &mut rng);
        }
        for _ in 0..100 {
            let (allocs, next) = allocations_during(|| w.next(0, &mut rng));
            assert!(next.is_some(), "quota");
            assert_eq!(allocs, 1, "{name}: next allocates only its access vector");
            let (allocs, issued) = allocations_during(|| w.next_into(1, &mut rng, &mut req));
            assert!(issued, "quota");
            assert_eq!(allocs, 0, "{name}: next_into rewrites the request in place");
            for _ in 0..3 {
                let (allocs, ()) = allocations_during(|| w.regenerate(1, &mut req, &mut rng));
                assert_eq!(allocs, 0, "{name}: regenerate rewrites in place");
            }
            let (allocs, ()) = allocations_during(|| w.commit(1, &req, &mut rng));
            assert_eq!(allocs, 0, "{name}: commit reuses scratch");
        }
    }
}

/// `req` as the driver can leave it after a failed attempt on an
/// SMT-shared core: offsets and duration stretched, plus stale accesses
/// beyond any fresh trace's length. Block and think time are inputs that
/// `regenerate` keeps, so they stay.
fn dirtied(req: &TxRequest) -> TxRequest {
    let mut dirty = req.clone();
    for a in &mut dirty.accesses {
        a.offset = (a.offset as f64 * 1.5) as u64;
    }
    dirty.duration = (dirty.duration as f64 * 1.5).ceil() as u64 + 7;
    let stale = dirty.accesses[0];
    dirty.accesses.resize(dirty.accesses.len() + 5_000, stale);
    dirty
}

#[test]
fn regenerate_ignores_stale_request_contents() {
    for (name, make) in models() {
        // Two models driven through identical call sequences stay in
        // identical states (regenerate advances the private-line cursors).
        let (mut a, mut b) = (make(), make());
        let (mut rng_a, mut rng_b) = (SimRng::new(0x5EED), SimRng::new(0x5EED));
        for round in 0..50 {
            let mut clean = a.next(0, &mut rng_a).expect("quota");
            let mut dirty = dirtied(&b.next(0, &mut rng_b).expect("quota"));
            a.regenerate(0, &mut clean, &mut rng_a);
            b.regenerate(0, &mut dirty, &mut rng_b);
            assert_eq!(clean, dirty, "{name} round {round}: stale contents leaked");
            assert_eq!(
                rng_a.clone().next_u64(),
                rng_b.clone().next_u64(),
                "{name} round {round}: RNG streams diverged"
            );
        }
    }
}
