//! Phase-switching workload adapter.
//!
//! [`ScenarioWorkload`] composes the STAMP models a spec's phases name
//! into one `Workload`: transactions are drawn from the *active* phase's
//! model, with the phase's hot-set skew and think-time scaling applied at
//! issue (and skew re-applied on retry regeneration). The driver flips the
//! active phase by calling [`Workload::on_phase`] when it pops a
//! `Directive::Phase` event, so regime changes land at exact scheduled
//! cycles.
//!
//! Two invariants make phase flips safe mid-transaction:
//!
//! * **Issuer pinning** — a transaction's retries and commit are routed to
//!   the model that *issued* it (`issued_by`), never the newly active one,
//!   so regeneration preserves the block identity the scheduler has been
//!   profiling.
//! * **Fixed total work** — the adapter owns the per-thread transaction
//!   quota (the base benchmark's scaled count); each underlying model is
//!   built with that full quota as capacity, so the amount of work a run
//!   performs does not depend on where the phase boundaries fall.

use seer_runtime::{TxRequest, Workload};
use seer_sim::{Cycles, SimRng, ThreadId};
use seer_stamp::model::{PRIVATE_BASE, REGION_STRIDE};
use seer_stamp::{Benchmark, StampModel};

use crate::spec::ScenarioSpec;

/// A `Workload` that switches regimes at scenario phase boundaries.
#[derive(Debug)]
pub struct ScenarioWorkload {
    name: String,
    models: Vec<StampModel>,
    phase_model: Vec<usize>,
    phase_skew: Vec<f64>,
    phase_think: Vec<f64>,
    active: usize,
    issued_by: Vec<usize>,
    remaining: Vec<usize>,
    blocks: usize,
}

impl ScenarioWorkload {
    /// Instantiates the models for every distinct benchmark the spec's
    /// phases reference. The per-thread quota is the *base* benchmark's
    /// scaled transaction count.
    pub fn new(spec: &ScenarioSpec) -> Self {
        let quota = spec.benchmark.scaled_txs(spec.scale);
        let mut benchmarks: Vec<Benchmark> = Vec::new();
        let mut phase_model = Vec::new();
        for p in &spec.phases {
            let b = p.benchmark.unwrap_or(spec.benchmark);
            let idx = match benchmarks.iter().position(|&x| x == b) {
                Some(i) => i,
                None => {
                    benchmarks.push(b);
                    benchmarks.len() - 1
                }
            };
            phase_model.push(idx);
        }
        let models: Vec<StampModel> = benchmarks
            .iter()
            .map(|b| b.instantiate(spec.threads, quota))
            .collect();
        let blocks = models
            .iter()
            .map(|m| m.num_blocks())
            .max()
            .expect("a spec has at least one phase");
        ScenarioWorkload {
            name: spec.name.clone(),
            models,
            phase_model,
            phase_skew: spec.phases.iter().map(|p| p.skew).collect(),
            phase_think: spec.phases.iter().map(|p| p.think_scale).collect(),
            active: 0,
            issued_by: vec![0; spec.threads],
            remaining: vec![quota; spec.threads],
            blocks,
        }
    }

    /// Per-thread transaction quota (fixed for the whole run).
    pub fn quota(&self) -> usize {
        self.remaining.iter().copied().max().unwrap_or(0)
    }

    /// Compresses the shared-line offsets of `req` by the active phase's
    /// skew, concentrating traffic on the head of each region. Private
    /// lines are untouched, so capacity pressure stays realistic.
    fn apply_skew(&self, req: &mut TxRequest) {
        let skew = self.phase_skew[self.active];
        if skew >= 1.0 {
            return;
        }
        for a in &mut req.accesses {
            if a.line < PRIVATE_BASE {
                let region = a.line / REGION_STRIDE;
                let offset = a.line % REGION_STRIDE;
                a.line = region * REGION_STRIDE + (offset as f64 * skew) as u64;
            }
        }
    }
}

impl Workload for ScenarioWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let mut req = TxRequest::default();
        self.next_into(thread, rng, &mut req).then_some(req)
    }

    fn next_into(&mut self, thread: ThreadId, rng: &mut SimRng, req: &mut TxRequest) -> bool {
        if self.remaining[thread] == 0 {
            return false;
        }
        let model = self.phase_model[self.active];
        // Every model's capacity equals the whole-run quota, so the active
        // model cannot run dry before the scenario's own budget does.
        if !self.models[model].next_into(thread, rng, req) {
            return false;
        }
        self.remaining[thread] -= 1;
        self.issued_by[thread] = model;
        req.think = (req.think as f64 * self.phase_think[self.active]) as Cycles;
        self.apply_skew(req);
        true
    }

    fn regenerate(&mut self, thread: ThreadId, req: &mut TxRequest, rng: &mut SimRng) {
        // Retries re-execute the block the *issuing* model defined, under
        // the skew of the phase in force now.
        self.models[self.issued_by[thread]].regenerate(thread, req, rng);
        self.apply_skew(req);
    }

    fn commit(&mut self, thread: ThreadId, req: &TxRequest, rng: &mut SimRng) {
        self.models[self.issued_by[thread]].commit(thread, req, rng);
    }

    fn on_phase(&mut self, phase: usize) {
        if phase < self.phase_model.len() {
            self.active = phase;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PhaseSpec;

    fn spec_two_phases() -> ScenarioSpec {
        let mut spec = ScenarioSpec::stationary("wl-test", Benchmark::Ssca2, 2, 0.05, 50_000);
        spec.phases.push(PhaseSpec {
            at: 10_000,
            benchmark: Some(Benchmark::KmeansHigh),
            skew: 0.25,
            think_scale: 3.0,
        });
        spec
    }

    #[test]
    fn quota_is_fixed_by_the_base_benchmark() {
        let spec = spec_two_phases();
        let mut w = ScenarioWorkload::new(&spec);
        let quota = Benchmark::Ssca2.scaled_txs(0.05);
        assert_eq!(w.quota(), quota);
        let mut rng = SimRng::new(1);
        let mut drawn = 0;
        while w.next(0, &mut rng).is_some() {
            drawn += 1;
        }
        assert_eq!(drawn, quota, "thread 0 draws exactly the quota");
        assert!(w.next(0, &mut rng).is_none());
        assert!(w.next(1, &mut rng).is_some(), "thread 1 unaffected");
    }

    #[test]
    fn phase_flip_switches_the_issuing_model() {
        let spec = spec_two_phases();
        let mut w = ScenarioWorkload::new(&spec);
        let mut rng = SimRng::new(2);
        let before = w.next(0, &mut rng).unwrap();
        w.on_phase(1);
        let after = w.next(0, &mut rng).unwrap();
        // Think scaling of phase 1 applies to the new draw only.
        assert!(after.is_well_formed());
        assert!(before.is_well_formed());
        // The two models expose different block sets; num_blocks covers both.
        assert!(w.num_blocks() >= Benchmark::Ssca2.instantiate(2, 5).num_blocks());
        assert!(after.block < w.num_blocks());
    }

    #[test]
    fn skew_compresses_shared_lines_only() {
        let mut spec = ScenarioSpec::stationary("skew", Benchmark::Ssca2, 1, 0.05, 50_000);
        spec.phases.push(PhaseSpec {
            at: 1,
            benchmark: None,
            skew: 0.01,
            think_scale: 1.0,
        });
        let mut w = ScenarioWorkload::new(&spec);
        w.on_phase(1);
        let mut rng = SimRng::new(3);
        let mut saw_shared = false;
        for _ in 0..20 {
            let Some(req) = w.next(0, &mut rng) else {
                break;
            };
            for a in &req.accesses {
                if a.line < PRIVATE_BASE {
                    saw_shared = true;
                    let offset = a.line % REGION_STRIDE;
                    assert!(
                        offset < REGION_STRIDE / 50,
                        "offset {offset} not compressed by skew 0.01"
                    );
                } else {
                    assert!(a.line >= PRIVATE_BASE, "private lines untouched");
                }
            }
        }
        assert!(saw_shared, "test needs at least one shared access");
    }

    #[test]
    fn regenerate_goes_to_the_issuing_model() {
        let spec = spec_two_phases();
        let mut w = ScenarioWorkload::new(&spec);
        let mut rng = SimRng::new(4);
        let mut req = w.next(0, &mut rng).unwrap();
        let (block, think) = (req.block, req.think);
        // Flip phases mid-transaction; the retry must preserve identity.
        w.on_phase(1);
        w.regenerate(0, &mut req, &mut rng);
        assert_eq!(req.block, block, "retry must re-execute the same block");
        assert_eq!(req.think, think, "regeneration preserves think time");
        assert!(req.is_well_formed());
    }

    #[test]
    fn think_scale_multiplies_think_time() {
        let mut spec = ScenarioSpec::stationary("think", Benchmark::Ssca2, 1, 0.05, 50_000);
        spec.phases.push(PhaseSpec {
            at: 1,
            benchmark: None,
            skew: 1.0,
            think_scale: 10.0,
        });
        // Same seed, two adapters: one in phase 0, one flipped to phase 1.
        let mut w0 = ScenarioWorkload::new(&spec);
        let mut w1 = ScenarioWorkload::new(&spec);
        w1.on_phase(1);
        let mut r0 = SimRng::new(5);
        let mut r1 = SimRng::new(5);
        let a = w0.next(0, &mut r0).unwrap();
        let b = w1.next(0, &mut r1).unwrap();
        assert_eq!(
            b.think,
            a.think * 10,
            "think time scales by the phase factor"
        );
    }
}
