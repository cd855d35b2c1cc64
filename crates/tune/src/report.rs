//! The tune report: ranked leaderboard, incumbent-vs-default
//! comparison, and the per-dimension sensitivity table.
//!
//! Everything here is a pure function of the search outcome — no
//! execution counters, no timings, no fan-out detail — so the rendered
//! JSON is bit-identical for serial, `--jobs N`, and store-warmed runs
//! of the same `(space, driver, budget, objective, seed)`.

use seer_store::{Json, ToJson};

use crate::driver::{rank, DriverKind, SearchOutcome, Trial};
use crate::space::{DimKind, ParamSpace, ParamValue};

/// Schema version stamped into every report (checked by `seer check tune`).
pub const SCHEMA_VERSION: u64 = 1;
/// Leaderboard length.
pub const LEADERBOARD_TOP: usize = 10;

/// One row of the sensitivity table: how much the objective drops when
/// dimension `dim` moves off the incumbent, estimated from trials
/// already evaluated (no extra runs).
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Dimension name.
    pub dim: String,
    /// `incumbent score − best score among trials differing in `dim``;
    /// `None` when no evaluated trial differs in this dimension.
    pub delta: Option<f64>,
    /// The differing value of the best such trial.
    pub best_alternative: Option<ParamValue>,
}

/// Per-dimension sensitivity around the incumbent.
///
/// For each dimension the estimate is the objective gap to the best
/// trial whose coordinate differs there (trials differing in several
/// dimensions still count — with sparse budgets they are often all we
/// have, and the gap then *underestimates* sensitivity, never inflates
/// it). A large delta means the knob matters; a near-zero delta means
/// the search found equally good configs elsewhere along that axis.
pub fn sensitivity(space: &ParamSpace, trials: &[Trial], best: usize) -> Vec<Sensitivity> {
    let incumbent = &trials[best];
    let incumbent_score = incumbent.score.expect("the incumbent is scored");
    space
        .dims()
        .iter()
        .enumerate()
        .map(|(d, dim)| {
            let alternative = trials
                .iter()
                .filter(|t| t.index != incumbent.index)
                .filter(|t| t.point[d] != incumbent.point[d])
                .filter(|t| t.score.is_some())
                .max_by(|a, b| {
                    a.score
                        .partial_cmp(&b.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.index.cmp(&a.index))
                });
            Sensitivity {
                dim: dim.name.clone(),
                delta: alternative.map(|t| incumbent_score - t.score.unwrap()),
                best_alternative: alternative.map(|t| t.point[d]),
            }
        })
        .collect()
}

fn value_json(kind: &DimKind, value: &ParamValue) -> Json {
    match (value, kind) {
        (ParamValue::Int(n), _) => (*n).to_json(),
        (ParamValue::Float(f), _) => (*f).to_json(),
        (ParamValue::Choice(i), DimKind::Choice { options }) => options[*i].to_json(),
        (ParamValue::Choice(_), _) => unreachable!("choice value on a range dim"),
    }
}

fn trial_json(space: &ParamSpace, trial: &Trial, rank: usize) -> Json {
    Json::object([
        ("rank", rank.to_json()),
        ("trial", trial.index.to_json()),
        ("spec", space.policy(&trial.point).spec().to_json()),
        ("point", space.point_json(&trial.point)),
        ("fidelity", trial.fidelity.to_json()),
        (
            "score",
            match trial.score {
                Some(s) => s.to_json(),
                None => Json::Null,
            },
        ),
    ])
}

/// Renders the full report document.
///
/// `default_score` is the paper-default configuration evaluated on the
/// same objective at the incumbent's fidelity — the yardstick for the
/// `improvement` ratio.
pub fn report_json(
    space: &ParamSpace,
    driver: DriverKind,
    budget: u64,
    seed: u64,
    objective: &str,
    outcome: &SearchOutcome,
    default_score: Option<f64>,
) -> Json {
    let mut ranked: Vec<Trial> = outcome.trials.clone();
    let mut refs: Vec<&mut Trial> = ranked.iter_mut().collect();
    rank(&mut refs);
    let leaderboard: Vec<Json> = refs
        .iter()
        .take(LEADERBOARD_TOP)
        .enumerate()
        .map(|(i, t)| trial_json(space, t, i + 1))
        .collect();
    let best = outcome.best.map(|b| &outcome.trials[b]);
    let improvement = match (best.and_then(|b| b.score), default_score) {
        (Some(b), Some(d)) if d > 0.0 => Some(b / d),
        _ => None,
    };
    let sens = best
        .map(|b| sensitivity(space, &outcome.trials, b.index as usize))
        .unwrap_or_default();
    let sens_json: Vec<Json> = sens
        .iter()
        .map(|s| {
            let dim_kind = &space
                .dims()
                .iter()
                .find(|d| d.name == s.dim)
                .expect("sensitivity rows come from the space")
                .kind;
            Json::object([
                ("dim", s.dim.to_json()),
                (
                    "delta",
                    match s.delta {
                        Some(d) => d.to_json(),
                        None => Json::Null,
                    },
                ),
                (
                    "best_alternative",
                    match &s.best_alternative {
                        Some(v) => value_json(dim_kind, v),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::object([
        ("schema_version", SCHEMA_VERSION.to_json()),
        ("driver", driver.name().to_json()),
        ("budget", budget.to_json()),
        ("seed", seed.to_json()),
        ("objective", objective.to_json()),
        ("space", space.to_json()),
        ("trials", outcome.trials.len().to_json()),
        (
            "best",
            match best {
                Some(b) => trial_json(space, b, 1),
                None => Json::Null,
            },
        ),
        (
            "default_score",
            match default_score {
                Some(d) => d.to_json(),
                None => Json::Null,
            },
        ),
        (
            "improvement",
            match improvement {
                Some(r) => r.to_json(),
                None => Json::Null,
            },
        ),
        ("leaderboard", Json::Array(leaderboard)),
        ("sensitivity", Json::Array(sens_json)),
    ])
}

/// Validates a report document against the schema `seer check tune`
/// gates in CI. Returns every violation found (empty = valid).
pub fn validate_report(json: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check = |found: Result<bool, String>, what: &str| match found {
        Ok(true) => {}
        Ok(false) => violations.push(format!("field {what:?} has an invalid value")),
        Err(e) => violations.push(e),
    };
    check(
        json.u64_field("schema_version")
            .map(|v| v == SCHEMA_VERSION),
        "schema_version",
    );
    check(
        json.str_field("driver")
            .map(|d| d.parse::<DriverKind>().is_ok()),
        "driver",
    );
    for name in ["budget", "seed", "trials"] {
        check(json.u64_field(name).map(|_| true), name);
    }
    check(json.str_field("objective").map(|_| true), "objective");
    match json.field("space") {
        Ok(space) => {
            if let Err(e) = ParamSpace::from_json(space) {
                violations.push(format!("space does not validate: {e}"));
            }
        }
        Err(e) => violations.push(e),
    }
    match json.array_field("leaderboard") {
        Err(e) => violations.push(e),
        Ok(rows) => {
            let mut last_score: Option<f64> = None;
            for (i, row) in rows.iter().enumerate() {
                if row.u64_field("rank").ok() != Some(i as u64 + 1) {
                    violations.push(format!("leaderboard[{i}]: rank must be {}", i + 1));
                }
                let spec_ok = row
                    .str_field("spec")
                    .is_ok_and(|s| s.parse::<seer_harness::PolicyKind>().is_ok());
                if !spec_ok {
                    violations.push(format!("leaderboard[{i}]: spec must parse as a policy"));
                }
                if let Err(e) = row.u64_field("fidelity") {
                    violations.push(format!("leaderboard[{i}]: {e}"));
                }
                let score = row.f64_field("score").ok();
                match (last_score, score) {
                    (Some(prev), Some(s)) if s > prev => {
                        violations.push(format!("leaderboard[{i}]: scores must be non-increasing"));
                    }
                    (_, Some(s)) => last_score = Some(s),
                    // A null score (failed trial) must not precede a
                    // scored one.
                    (_, None) if rows[i..].iter().any(|r| r.f64_field("score").is_ok()) => {
                        violations.push(format!(
                            "leaderboard[{i}]: failed trial ranked above a scored one"
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
    match json.array_field("sensitivity") {
        Err(e) => violations.push(e),
        Ok(rows) => {
            for (i, row) in rows.iter().enumerate() {
                if let Err(e) = row.str_field("dim") {
                    violations.push(format!("sensitivity[{i}]: {e}"));
                }
            }
        }
    }
    violations
}
