//! Search drivers: seeded random search, successive halving, and
//! coordinate hill-climbing.
//!
//! ## Determinism under fan-out
//!
//! Every driver is a pure function of `(space, objective, seed)`. The
//! discipline that makes this hold at any `--jobs` value:
//!
//! 1. **Propose before executing.** Each round's candidate points are
//!    drawn from [`SimRng`] streams derived from the search seed and
//!    the proposal index — never from anything an evaluation produced
//!    out of order.
//! 2. **Execute as one batch.** All runs a round needs go into a single
//!    deduplicated plan; the executor may resolve them in any order,
//!    from memo, disk or any of its threads, because results are keyed,
//!    not positional.
//! 3. **Score from the cache.** After the batch, scores are pure folds
//!    over memoized values, and every tie-break is by proposal index.

use seer_sim::SimRng;

use seer_harness::ExecReport;

use crate::exec::{TuneExecutor, TuneKey};
use crate::objective::Objective;
use crate::sampler::{midpoint, neighbors, sample};
use crate::space::{ParamSpace, Point};

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// `budget` independent uniform draws, all at the base fidelity.
    Random,
    /// Successive halving: `budget` initial configs at fidelity 1; each
    /// rung keeps the better half and doubles the fidelity (capped at
    /// [`MAX_FIDELITY`]).
    Halving,
    /// Coordinate hill-climbing from the space midpoint; `budget` bounds
    /// the total number of distinct configs evaluated.
    Climb,
}

impl DriverKind {
    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Random => "random",
            DriverKind::Halving => "halving",
            DriverKind::Climb => "climb",
        }
    }
}

impl std::str::FromStr for DriverKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(DriverKind::Random),
            "halving" => Ok(DriverKind::Halving),
            "climb" => Ok(DriverKind::Climb),
            other => Err(format!("unknown driver {other:?} (random, halving, climb)")),
        }
    }
}

/// Fidelity (harness seeds per cell) used by the flat drivers and by
/// halving's first doubling target.
pub const BASE_FIDELITY: u64 = 2;
/// Fidelity cap for successive halving (seeds `0..8` at the top rung).
pub const MAX_FIDELITY: u64 = 8;

/// One evaluated configuration, at the highest fidelity it reached.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Proposal index (stable identity and final tie-break).
    pub index: u64,
    /// The point in space coordinates.
    pub point: Point,
    /// Seeds evaluated (`0..fidelity`).
    pub fidelity: u64,
    /// Objective value; `None` when a needed run failed.
    pub score: Option<f64>,
}

/// The outcome of a search.
pub struct SearchOutcome {
    /// Every distinct configuration evaluated, in proposal order, each
    /// at its final fidelity.
    pub trials: Vec<Trial>,
    /// Index into `trials` of the incumbent (best score, lowest
    /// proposal index on ties). `None` only if every trial failed.
    pub best: Option<usize>,
    /// Coverage summed over all evaluation batches, failed runs
    /// included.
    pub exec_report: ExecReport<TuneKey>,
}

/// Ranks trial references best-first: scored before failed, higher
/// score first, proposal index as the deterministic tie-break.
pub fn rank(trials: &mut [&mut Trial]) {
    trials.sort_by(|a, b| match (a.score, b.score) {
        (Some(x), Some(y)) => y
            .partial_cmp(&x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index)),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.index.cmp(&b.index),
    });
}

/// Runs `driver` over `space` for `objective`, spending at most
/// `budget` (see each [`DriverKind`] for the budget's unit), with every
/// random draw derived from `seed`.
pub fn run_search(
    space: &ParamSpace,
    driver: DriverKind,
    budget: u64,
    seed: u64,
    objective: &dyn Objective,
    exec: &TuneExecutor,
    progress: &mut dyn FnMut(&str, &ExecReport<TuneKey>),
) -> SearchOutcome {
    let mut state = SearchState {
        space,
        objective,
        exec,
        trials: Vec::new(),
        exec_report: ExecReport::default(),
    };
    match driver {
        DriverKind::Random => {
            let rng = SimRng::new(seed).derive(0x52414e44); // "RAND"
            let points: Vec<Point> = (0..budget)
                .map(|i| sample(space, &mut rng.derive(i)))
                .collect();
            let idx = state.propose(points);
            state.evaluate(&idx, BASE_FIDELITY, progress);
        }
        DriverKind::Halving => {
            let rng = SimRng::new(seed).derive(0x48414c56); // "HALV"
            let points: Vec<Point> = (0..budget)
                .map(|i| sample(space, &mut rng.derive(i)))
                .collect();
            let mut cohort = state.propose(points);
            let mut fidelity = 1;
            loop {
                state.evaluate(&cohort, fidelity, progress);
                if cohort.len() <= 1 || fidelity >= MAX_FIDELITY {
                    break;
                }
                // Keep the better half (ceiling, so a cohort of one
                // survivor still reaches the fidelity cap).
                let mut refs: Vec<&mut Trial> = state
                    .trials
                    .iter_mut()
                    .filter(|t| cohort.contains(&(t.index as usize)))
                    .collect();
                rank(&mut refs);
                cohort = refs
                    .iter()
                    .take(cohort.len().div_ceil(2))
                    .map(|t| t.index as usize)
                    .collect();
                fidelity *= 2;
            }
        }
        DriverKind::Climb => {
            let start = state.propose(vec![midpoint(space)]);
            state.evaluate(&start, BASE_FIDELITY, progress);
            let mut current = start[0];
            while (state.trials.len() as u64) < budget {
                let candidates: Vec<Point> = neighbors(space, &state.trials[current].point)
                    .into_iter()
                    .filter(|p| !state.trials.iter().any(|t| t.point == *p))
                    .take((budget as usize).saturating_sub(state.trials.len()))
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let idx = state.propose(candidates);
                state.evaluate(&idx, BASE_FIDELITY, progress);
                let best_neighbor = idx
                    .iter()
                    .copied()
                    .filter(|&i| state.trials[i].score.is_some())
                    .max_by(|&a, &b| {
                        let (x, y) = (state.trials[a].score, state.trials[b].score);
                        x.partial_cmp(&y)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            // On equal scores prefer the earlier proposal.
                            .then(state.trials[b].index.cmp(&state.trials[a].index))
                    });
                match (best_neighbor, state.trials[current].score) {
                    (Some(n), Some(cur)) if state.trials[n].score > Some(cur) => current = n,
                    (Some(n), None) => current = n,
                    _ => break, // local optimum
                }
            }
        }
    }
    let best = {
        let mut refs: Vec<&mut Trial> = state.trials.iter_mut().collect();
        rank(&mut refs);
        refs.first()
            .filter(|t| t.score.is_some())
            .map(|t| t.index as usize)
    };
    SearchOutcome {
        trials: state.trials,
        best,
        exec_report: state.exec_report,
    }
}

struct SearchState<'a> {
    space: &'a ParamSpace,
    objective: &'a dyn Objective,
    exec: &'a TuneExecutor,
    trials: Vec<Trial>,
    exec_report: ExecReport<TuneKey>,
}

impl SearchState<'_> {
    /// Registers distinct new points as trials (deduplicating against
    /// everything already proposed) and returns the trial indices the
    /// batch should evaluate — including re-proposed duplicates.
    fn propose(&mut self, points: Vec<Point>) -> Vec<usize> {
        let mut idx = Vec::with_capacity(points.len());
        for point in points {
            if let Some(existing) = self.trials.iter().position(|t| t.point == point) {
                if !idx.contains(&existing) {
                    idx.push(existing);
                }
                continue;
            }
            self.trials.push(Trial {
                index: self.trials.len() as u64,
                point,
                fidelity: 0,
                score: None,
            });
            idx.push(self.trials.len() - 1);
        }
        idx
    }

    /// Evaluates the given trials at `fidelity`: one deduplicated batch
    /// plan, one execute, then pure-fold scoring.
    fn evaluate(
        &mut self,
        idx: &[usize],
        fidelity: u64,
        progress: &mut dyn FnMut(&str, &ExecReport<TuneKey>),
    ) {
        let mut cells = seer_harness::Plan::new();
        let mut scenarios = seer_scenario::ScenarioPlan::new();
        for &i in idx {
            let policy = self.space.policy(&self.trials[i].point);
            self.objective
                .plan(policy, fidelity, &mut cells, &mut scenarios);
        }
        let report = self.exec.execute(&cells, &scenarios);
        progress(
            &format!("{} config(s) at fidelity {}", idx.len(), fidelity),
            &report,
        );
        self.exec_report.absorb(report);
        for &i in idx {
            let policy = self.space.policy(&self.trials[i].point);
            self.trials[i].score = self.objective.score(policy, fidelity, self.exec);
            self.trials[i].fidelity = fidelity;
        }
    }
}
