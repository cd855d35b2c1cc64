//! The driver issues transactions through `Workload::next_into` and gates
//! attempts through `Scheduler::pre_attempt_gates_into`, while wrappers
//! that implement only the owning forms (`next`, `pre_attempt_gates`)
//! reach the same implementations through the provided defaults. These
//! tests pin that the two forms of each agree, call for call, for every
//! built-in workload and every named policy.

use seer_harness::PolicyKind;
use seer_htm::XStatus;
use seer_runtime::synthetic::{SyntheticSpec, SyntheticWorkload};
use seer_runtime::{
    Access, Gate, LockBank, LockId, NullTraceSink, SchedEnv, Scheduler, TxRequest, Workload,
};
use seer_scenario::{library, ScenarioWorkload};
use seer_sim::{SimRng, Topology};
use seer_stamp::{Benchmark, RefinedModel};

const THREADS: usize = 2;
const TXS: usize = 40;

type Make = Box<dyn Fn() -> Box<dyn Workload>>;

/// Every built-in workload, with quotas small enough to run dry.
fn workloads() -> Vec<(String, Make)> {
    let mut out: Vec<(String, Make)> = Benchmark::STAMP
        .into_iter()
        .chain([
            Benchmark::HashmapLow,
            Benchmark::Labyrinth,
            Benchmark::Synth { blocks: 128 },
        ])
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
    for mut spec in library::all() {
        spec.threads = THREADS;
        spec.scale = 0.005;
        let name = format!("scenario {}", spec.name);
        out.push((name, Box::new(move || Box::new(ScenarioWorkload::new(&spec)))));
    }
    out
}

/// A request holding nothing `next_into` may keep: a foreign block, a
/// long stale trace and stale timing.
fn stale_request() -> TxRequest {
    let stale = Access {
        line: 12_345,
        kind: seer_htm::AccessKind::Write,
        offset: 9,
    };
    TxRequest {
        block: 7,
        accesses: vec![stale; 3_000],
        duration: 99_999,
        think: 77_777,
    }
}

#[test]
fn next_into_agrees_with_next_for_every_workload() {
    for (name, make) in workloads() {
        let (mut a, mut b) = (make(), make());
        let (mut rng_a, mut rng_b) = (SimRng::new(0x1D70), SimRng::new(0x1D70));
        let mut reused = stale_request();
        let mut issued = 0;
        for round in 0..(TXS + 5) * THREADS {
            let thread = round % THREADS;
            if round == TXS {
                // Scenario workloads switch models here; others ignore it.
                a.on_phase(1);
                b.on_phase(1);
            }
            let owned = a.next(thread, &mut rng_a);
            let filled = b.next_into(thread, &mut rng_b, &mut reused);
            assert_eq!(owned.is_some(), filled, "{name} round {round}: quota disagrees");
            let Some(mut owned) = owned else { continue };
            issued += 1;
            assert_eq!(owned, reused, "{name} round {round}: requests differ");
            // Drive the retry and commit hooks identically, so any state
            // they feed back into generation stays in step as well.
            a.regenerate(thread, &mut owned, &mut rng_a);
            b.regenerate(thread, &mut reused, &mut rng_b);
            assert_eq!(owned, reused, "{name} round {round}: regenerated requests differ");
            a.commit(thread, &owned, &mut rng_a);
            b.commit(thread, &reused, &mut rng_b);
            assert_eq!(
                rng_a.clone().next_u64(),
                rng_b.clone().next_u64(),
                "{name} round {round}: RNG streams diverged"
            );
        }
        assert!(issued > 0, "{name}: issued nothing");
        assert!(
            a.next(0, &mut rng_a).is_none() && !b.next_into(0, &mut rng_b, &mut reused),
            "{name}: both forms run dry together"
        );
    }
}

#[test]
fn pre_attempt_gates_into_agrees_with_pre_attempt_gates_for_every_policy() {
    const CPUS: usize = 8;
    const BLOCKS: usize = 6;
    let topology = Topology::haswell_e3();
    let statuses = [
        XStatus::conflict(),
        XStatus::capacity(),
        XStatus::conflict(),
        XStatus::other(),
    ];
    for policy in PolicyKind::ALL {
        let (mut a, mut b) = (policy.build(CPUS, BLOCKS), policy.build(CPUS, BLOCKS));
        let bank = LockBank::new(topology.physical_cores(), BLOCKS);
        let (mut rng_a, mut rng_b) = (SimRng::new(5), SimRng::new(5));
        let (mut sink_a, mut sink_b) = (NullTraceSink, NullTraceSink);
        let mut env_a = SchedEnv {
            now: 0,
            locks: &bank,
            topology,
            rng: &mut rng_a,
            trace: &mut sink_a,
        };
        let mut env_b = SchedEnv {
            now: 0,
            locks: &bank,
            topology,
            rng: &mut rng_b,
            trace: &mut sink_b,
        };
        let both = |a: &mut Box<dyn Scheduler>,
                    b: &mut Box<dyn Scheduler>,
                    env_a: &mut SchedEnv<'_>,
                    env_b: &mut SchedEnv<'_>,
                    thread: usize,
                    block: usize,
                    left: u32| {
            let owned = a.pre_attempt_gates(thread, block, left, env_a);
            // The list may already hold retry gates: `_into` appends.
            let mut into = vec![Gate::ReleaseHeld];
            b.pre_attempt_gates_into(thread, block, left, env_b, &mut into);
            assert_eq!(into[0], Gate::ReleaseHeld, "{policy:?}: prefix overwritten");
            assert_eq!(into[1..], owned[..], "{policy:?} thread {thread} left {left}");
        };
        for step in 0..400usize {
            let thread = step % CPUS;
            let block = (step * 7) % BLOCKS;
            env_a.now = step as u64 * 1_000;
            env_b.now = env_a.now;
            a.on_tx_start(thread, block, &mut env_a);
            b.on_tx_start(thread, block, &mut env_b);
            both(&mut a, &mut b, &mut env_a, &mut env_b, thread, block, 5);
            // Abort down the budget: Seer's core and tx locks engage on
            // capacity aborts and on the last attempt.
            for left in (0..4).rev() {
                let status = statuses[(step + left as usize) % statuses.len()];
                let da = a.on_abort(thread, block, status, left, &mut env_a);
                let db = b.on_abort(thread, block, status, left, &mut env_b);
                assert_eq!(da, db, "{policy:?}: abort decisions differ");
                both(&mut a, &mut b, &mut env_a, &mut env_b, thread, block, left);
            }
            if step % 3 == 0 {
                a.on_htm_commit(thread, block, &mut env_a);
                b.on_htm_commit(thread, block, &mut env_b);
            } else {
                a.on_fallback_commit(thread, block, &mut env_a);
                b.on_fallback_commit(thread, block, &mut env_b);
            }
            if step % 50 == 49 {
                a.on_periodic(&mut env_a);
                b.on_periodic(&mut env_b);
            }
        }
        // The Sgl wait is every policy's but HLE's first gate.
        let mut gates = Vec::new();
        b.pre_attempt_gates_into(0, 0, 5, &mut env_b, &mut gates);
        assert_eq!(
            gates.first() == Some(&Gate::WaitWhileLocked(LockId::Sgl)),
            policy != PolicyKind::Hle,
            "{policy:?}: {gates:?}"
        );
    }
}
