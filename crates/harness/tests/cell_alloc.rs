//! Whole-cell allocation audit (`crates/stamp/tests/alloc.rs` style, at
//! the level of a full simulated run).
//!
//! Once warm, a transaction's lifecycle allocates nothing: the driver
//! reuses one request and one gate list per thread, the workload rewrites
//! the request in place (`Workload::next_into`), the policies append to
//! the reused gate list (`Scheduler::pre_attempt_gates_into`), and the
//! HTM machine's line directory and footprint lists keep their capacity.
//! So a cell that commits twice as many transactions must make exactly as
//! many allocations. The cells run one thread with asynchronous aborts
//! off, so nothing aborts; the only allocations are the run's set-up and
//! its scratch buffers reaching their working sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seer_harness::PolicyKind;
use seer_runtime::{run, DriverConfig, Workload};
use seer_stamp::Benchmark;

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

/// Allocations made inside `run` for one cell of `txs` transactions, and
/// the transactions it committed. Workload and scheduler are built
/// outside the count.
fn run_allocations(benchmark: Benchmark, policy: PolicyKind, txs: usize) -> (u64, u64) {
    let mut workload = benchmark.instantiate(1, txs);
    let mut sched = policy.build(1, workload.num_blocks());
    let mut cfg = DriverConfig::paper_machine(1, 3);
    cfg.costs.async_abort_per_cycle = 0.0;
    let before = ALLOCATIONS.with(Cell::get);
    let metrics = run(&mut workload, sched.as_mut(), &cfg);
    let allocs = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(metrics.aborts.total(), 0, "{policy:?} on {}: aborted", benchmark.name());
    (allocs, metrics.commits)
}

#[test]
fn a_warm_cell_allocates_nothing_per_transaction() {
    for benchmark in [Benchmark::Ssca2, Benchmark::HashmapLow] {
        for policy in PolicyKind::ALL {
            let (small, small_commits) = run_allocations(benchmark, policy, 4_000);
            let (large, large_commits) = run_allocations(benchmark, policy, 8_000);
            assert_eq!(large_commits, 2 * small_commits);
            assert_eq!(
                small,
                large,
                "{policy:?} on {}: {small} allocations for {small_commits} commits, \
                 {large} for {large_commits}",
                benchmark.name()
            );
        }
    }
}
