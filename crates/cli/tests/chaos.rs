//! Chaos suite: real worker *processes*, real faults, zero result drift.
//!
//! Spawns `seer serve` worker processes, points a coordinator pool at
//! them, and then misbehaves: SIGKILL one worker mid-sweep, SIGSTOP
//! another past the heartbeat deadline, and — separately — run with no
//! reachable worker at all.
//! The hard assertions are *results-identity* ones, deliberately immune
//! to timing: whatever the faults, the sweep must complete with 100%
//! coverage and every value must be byte-identical to a serial local
//! run. The counter assertions (workers declared lost, work retried)
//! only check directions that the fault script makes inevitable.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use seer_harness::{CellExecutor, HarnessConfig, Plan, PolicyKind};
use seer_remote::{PoolConfig, WorkerPool};
use seer_stamp::Benchmark;
use seer_store::Persist;

/// A spawned worker process and the address it bound.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    /// Spawns the worker binary on an ephemeral port and parses the
    /// `serve: listening on ADDR` line it prints before serving.
    fn spawn() -> WorkerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_seer"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("worker binary spawns");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker announces its address");
        let addr = line
            .trim()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
            .to_string();
        WorkerProc { child, addr }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL — the worker vanishes without any protocol goodbye.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGSTOP — the worker freezes mid-whatever: the TCP connection
    /// stays open but heartbeats stop, which only the coordinator's
    /// read deadline can detect.
    fn stall(&self) {
        let status = Command::new("kill")
            .args(["-STOP", &self.pid().to_string()])
            .status()
            .expect("kill -STOP runs");
        assert!(status.success(), "SIGSTOP failed");
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // SIGKILL works on stopped processes too, so no SIGCONT needed.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Aggressive-but-safe coordinator tuning for the tests: workers
/// heartbeat every ~100 ms, so 900 ms of silence means stalled.
fn test_pool_config() -> PoolConfig {
    PoolConfig {
        window: 2,
        heartbeat_timeout: Duration::from_millis(900),
        connect_timeout: Duration::from_millis(1000),
    }
}

/// The chaos workload: enough independent cells that faults injected
/// mid-sweep are guaranteed to leave work for the survivors.
fn chaos_plan(cfg: &HarnessConfig) -> Plan {
    let mut plan = Plan::new();
    plan.add_grid(
        &[Benchmark::HashmapLow, Benchmark::Ssca2],
        &[PolicyKind::Rtm, PolicyKind::Seer],
        &[1, 2],
        cfg,
    );
    plan
}

fn chaos_cfg(jobs: usize) -> HarnessConfig {
    HarnessConfig {
        seeds: 3,
        scale: 0.1,
        jobs,
    }
}

/// Every key of `plan`, resolved on `exec`, must be byte-identical to
/// the serial local reference.
fn assert_results_match_local(exec: &CellExecutor, plan: &Plan) {
    let reference = CellExecutor::new(chaos_cfg(1));
    for key in plan.items() {
        let distributed = exec
            .cached(key.cell(), key.seed, key.scale())
            .unwrap_or_else(|| panic!("missing result for {key:?}"));
        let local = reference.metrics_at(key.cell(), key.seed, key.scale());
        assert_eq!(
            distributed.to_store_json().to_string_compact(),
            local.to_store_json().to_string_compact(),
            "distributed result drifted for {key:?}"
        );
    }
}

/// SIGKILL one worker and SIGSTOP another mid-sweep: the coordinator
/// must notice both (dead socket / silent socket), re-dispatch their
/// work, finish on the survivor, and produce results field-for-field
/// identical to a serial local run.
///
/// The sweep is driven in two phases on one pool so the fault window is
/// deterministic, not a race against the sweep finishing early. Phase A
/// proves all three workers serve work. The faults land between phases,
/// but their *detection* is mid-cell either way: phase B work is written
/// to the killed worker's open-looking socket (dead on read) and to the
/// stalled worker (accepted, then silence past the heartbeat deadline).
/// With `jobs == capacity(3 workers)` and the healthy worker's window
/// holding only 2 slots, at least four phase-B dispatchers are forced
/// onto the faulty pair — both losses and the re-dispatch are
/// guaranteed, whatever the timing.
#[test]
fn killed_and_stalled_workers_do_not_lose_or_corrupt_work() {
    let mut w0 = WorkerProc::spawn();
    let w1 = WorkerProc::spawn();
    let w2 = WorkerProc::spawn();
    let pool = Arc::new(WorkerPool::connect(
        &[w0.addr.clone(), w1.addr.clone(), w2.addr.clone()],
        test_pool_config(),
    ));
    assert_eq!(pool.alive_workers(), 3, "all workers must handshake");

    let cfg = chaos_cfg(pool.capacity());
    let exec = CellExecutor::new(cfg).with_remote(pool.clone());
    let plan = chaos_plan(&cfg);
    assert_eq!(plan.len(), 24);

    // Phase A: the first chunk of the plan (seed 0 of every cell) warms
    // all three workers.
    let mut phase_a = Plan::new();
    for key in plan.items().iter().filter(|k| k.seed == 0) {
        phase_a.add_one(key.cell(), key.seed, key.scale());
    }
    assert_eq!(phase_a.len(), 8);
    let report_a = exec.execute(&phase_a);
    assert!(report_a.complete(), "phase A failed: {report_a:?}");
    assert!(pool.stats().completed >= 8, "{:?}", pool.stats());

    // The faults: one worker vanishes without a goodbye, another
    // freezes with its sockets open (only heartbeat silence gives it
    // away).
    w0.kill();
    w1.stall();

    // Phase B: the rest of the plan (16 fresh keys). Re-executing the
    // *full* plan also proves phase-A results stay memoized.
    let report_b = exec.execute(&plan);
    assert!(report_b.complete(), "failures recorded: {report_b:?}");
    assert_eq!(report_b.planned, 24);
    assert_eq!(report_b.memo_hits, 8);
    assert_eq!(
        report_b.memo_hits + report_b.disk_hits + report_b.remote_hits + report_b.computed,
        24
    );

    // Both misbehaving workers were declared lost, their work was
    // re-dispatched, and the sweep went on.
    let stats = pool.stats();
    assert_eq!(stats.workers_lost, 2, "{stats:?}");
    assert_eq!(pool.alive_workers(), 1);
    assert!(stats.retried >= 1, "lost work must be re-dispatched: {stats:?}");
    assert!(
        stats.completed >= report_b.remote_hits,
        "every remote hit came from a verified completion: {stats:?}"
    );

    // The headline: byte-identical to a serial local run, every cell.
    assert_results_match_local(&exec, &plan);
    drop(w2);
}

/// With every worker dead before the sweep starts, the pool degrades
/// (warn-once) and the executor computes everything locally — complete
/// coverage, identical bytes, zero remote hits.
#[test]
fn zero_reachable_workers_degrades_to_a_complete_local_sweep() {
    // Spawn and immediately kill, so the addresses are real but dead.
    let mut w0 = WorkerProc::spawn();
    let mut w1 = WorkerProc::spawn();
    let addrs = [w0.addr.clone(), w1.addr.clone()];
    w0.kill();
    w1.kill();

    let pool = Arc::new(WorkerPool::connect(&addrs, test_pool_config()));
    assert_eq!(pool.alive_workers(), 0);

    let cfg = chaos_cfg(2);
    let exec = CellExecutor::new(cfg).with_remote(pool.clone());
    let plan = chaos_plan(&cfg);
    let report = exec.execute(&plan);

    assert!(report.complete(), "failures recorded: {report:?}");
    assert_eq!(report.remote_hits, 0);
    assert_eq!(report.computed, plan.len() as u64);
    assert_eq!(pool.stats().dispatched, 0, "no work goes to dead workers");
    assert_results_match_local(&exec, &plan);
}

/// A worker SIGKILLed *between* sweeps: the second sweep re-dispatches
/// everything to the survivor and still matches the first byte-for-byte
/// (same keys → same values, wherever they were computed).
#[test]
fn a_worker_lost_between_sweeps_changes_nothing_but_placement() {
    let mut w0 = WorkerProc::spawn();
    let w1 = WorkerProc::spawn();
    let pool = Arc::new(WorkerPool::connect(
        &[w0.addr.clone(), w1.addr.clone()],
        test_pool_config(),
    ));
    assert_eq!(pool.alive_workers(), 2);

    let cfg = HarnessConfig {
        seeds: 1,
        scale: 0.1,
        jobs: pool.capacity(),
    };
    let mut plan_a = Plan::new();
    plan_a.add_grid(&[Benchmark::HashmapLow], &[PolicyKind::Rtm], &[1, 2], &cfg);

    let exec_a = CellExecutor::new(cfg).with_remote(pool.clone());
    let report_a = exec_a.execute(&plan_a);
    assert!(report_a.complete());

    w0.kill();

    // Fresh executor (cold memo) over the same plan, one worker down.
    let exec_b = CellExecutor::new(cfg).with_remote(pool.clone());
    let report_b = exec_b.execute(&plan_a);
    assert!(report_b.complete());
    assert_results_match_local(&exec_b, &plan_a);
    drop(w1);
}
