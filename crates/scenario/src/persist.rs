//! Store identity and lossless shard codec for scenario outcomes.
//!
//! `seer-store` owns the traits and the `RunMetrics` codec; this module
//! adds the scenario-shaped halves next to the types they serialize:
//! [`ScenarioKey`] gets a [`StoreKey`] identity, and [`ScenarioOutcome`]
//! gets a [`Persist`] round-trip covering all three of its parts —
//! metrics (via the store's `RunMetrics` codec), the windowed slice, and
//! the recovery report. The report's `ToJson` already defines the
//! committed fixture schema, so persistence reuses it verbatim and only
//! adds the parser.

use seer_harness::{Json, ToJson};
use seer_runtime::{MetricsWindow, RunMetrics, WindowedMetrics};
use seer_store::{Persist, StoreKey};

use crate::exec::ScenarioKey;
use crate::report::{RecoveryReport, RecoveryScore};
use crate::runner::ScenarioOutcome;

impl StoreKey for ScenarioKey {
    const KIND: &'static str = "scenario";

    fn key_id(&self) -> String {
        format!("{}/{}/s{}", self.scenario, self.policy.spec(), self.seed)
    }

    fn key_json(&self) -> Json {
        Json::object([
            ("scenario", self.scenario.to_json()),
            ("policy", self.policy.spec().to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

fn window_json(w: &MetricsWindow) -> Json {
    Json::object([
        ("from", w.from.to_json()),
        ("to", w.to.to_json()),
        ("commits", w.commits.to_json()),
        ("htm_commits", w.htm_commits.to_json()),
        ("fallback_commits", w.fallback_commits.to_json()),
        ("aborts", w.aborts.to_json()),
        ("attempts", w.attempts.to_json()),
        ("fallbacks_entered", w.fallbacks_entered.to_json()),
    ])
}

fn window_from_json(json: &Json) -> Result<MetricsWindow, String> {
    Ok(MetricsWindow {
        from: json.u64_field("from")?,
        to: json.u64_field("to")?,
        commits: json.u64_field("commits")?,
        htm_commits: json.u64_field("htm_commits")?,
        fallback_commits: json.u64_field("fallback_commits")?,
        aborts: json.u64_field("aborts")?,
        attempts: json.u64_field("attempts")?,
        fallbacks_entered: json.u64_field("fallbacks_entered")?,
    })
}

fn score_from_json(json: &Json) -> Result<RecoveryScore, String> {
    Ok(RecoveryScore {
        label: json.str_field("label")?.to_string(),
        at: json.u64_field("at")?,
        baseline_throughput: json.f64_field("baseline_throughput")?,
        min_throughput: json.f64_field("min_throughput")?,
        regression_depth: json.f64_field("regression_depth")?,
        reconverged_at: json.opt_u64_field("reconverged_at")?,
        time_to_reconverge: json.opt_u64_field("time_to_reconverge")?,
        pairs_stable_at: json.opt_u64_field("pairs_stable_at")?,
    })
}

/// Parses a [`RecoveryReport`] back from its committed `ToJson` schema —
/// the inverse the fixtures never needed until results became durable.
pub fn report_from_json(json: &Json) -> Result<RecoveryReport, String> {
    let scores = json
        .array_field("scores")?
        .iter()
        .map(score_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RecoveryReport {
        scenario: json.str_field("scenario")?.to_string(),
        policy: json.str_field("policy")?.to_string(),
        seed: json.u64_field("seed")?,
        window: json.u64_field("window")?,
        makespan: json.u64_field("makespan")?,
        commits: json.u64_field("commits")?,
        throughput: json.f64_field("throughput")?,
        trace_hash: json.u64_field("trace_hash")?,
        steady_state_delta: json.f64_field("steady_state_delta")?,
        recovered: json.bool_field("recovered")?,
        scores,
    })
}

/// Parses and validates the output of `seer scenario run --json true`:
/// one report object or a non-empty array of them (`DESIGN.md` §11).
/// Beyond [`report_from_json`]'s field types it enforces the rules every
/// scored report satisfies: finite, non-negative throughputs, a positive
/// window, each regression depth equal to `max(0, 1 − min/baseline)`,
/// `reconverged_at`/`time_to_reconverge` null together (and differing by
/// `at`), and `recovered` agreeing with the scores.
pub fn validate_reports(json: &Json) -> Result<Vec<RecoveryReport>, String> {
    let items = match json {
        Json::Array(items) => items.as_slice(),
        one => std::slice::from_ref(one),
    };
    if items.is_empty() {
        return Err("no reports".into());
    }
    items
        .iter()
        .map(|item| {
            let report = report_from_json(item)?;
            check_report(&report).map_err(|e| format!("{}: {e}", report.scenario))?;
            Ok(report)
        })
        .collect()
}

fn check_report(r: &RecoveryReport) -> Result<(), String> {
    if r.scenario.is_empty() || r.policy.is_empty() {
        return Err("empty scenario or policy name".into());
    }
    if r.window == 0 {
        return Err("field \"window\" must be positive".into());
    }
    if !(r.throughput.is_finite() && r.throughput >= 0.0) {
        return Err(format!(
            "throughput {} is not finite and non-negative",
            r.throughput
        ));
    }
    if !r.steady_state_delta.is_finite() {
        return Err("steady_state_delta is not finite".into());
    }
    for score in &r.scores {
        check_score(score, r.makespan)?;
    }
    let all_scored_recovered = r
        .scores
        .iter()
        .filter(|s| s.baseline_throughput > 0.0)
        .all(|s| s.reconverged_at.is_some());
    if r.recovered != all_scored_recovered {
        return Err(format!(
            "\"recovered\" = {} disagrees with the scores",
            r.recovered
        ));
    }
    Ok(())
}

fn check_score(s: &RecoveryScore, makespan: u64) -> Result<(), String> {
    let (label, at) = (&s.label, s.at);
    if label.is_empty() {
        return Err("score label is empty".into());
    }
    if at >= makespan {
        return Err(format!(
            "score {label:?} at {at} is past the makespan {makespan}"
        ));
    }
    let (baseline, min, depth) = (s.baseline_throughput, s.min_throughput, s.regression_depth);
    if ![baseline, min, depth].iter().all(|v| v.is_finite()) {
        return Err(format!("score {label:?} has a non-finite number"));
    }
    if baseline < 0.0 || min < 0.0 {
        return Err(format!("score {label:?} has a negative throughput"));
    }
    if !(0.0..=1.0).contains(&depth) {
        return Err(format!(
            "score {label:?} regression_depth {depth} outside [0, 1]"
        ));
    }
    if baseline > 0.0 {
        let expected = (1.0 - min / baseline).max(0.0);
        if (depth - expected).abs() > 1e-9 {
            return Err(format!(
                "score {label:?} regression_depth {depth} inconsistent with \
                 baseline {baseline} / min {min} (expected {expected})"
            ));
        }
    }
    match (s.reconverged_at, s.time_to_reconverge) {
        (None, None) => Ok(()),
        (Some(end), Some(t)) if end >= at && end - at == t => Ok(()),
        (Some(end), Some(t)) => Err(format!(
            "score {label:?}: time_to_reconverge {t} != reconverged_at {end} - at {at}"
        )),
        _ => Err(format!(
            "score {label:?}: reconverged_at and time_to_reconverge must be null together"
        )),
    }
}

impl Persist for ScenarioOutcome {
    fn to_store_json(&self) -> Json {
        Json::object([
            ("metrics", self.metrics.to_store_json()),
            (
                "windows",
                Json::object([
                    ("width", self.windows.width().to_json()),
                    (
                        "windows",
                        Json::Array(self.windows.windows().iter().map(window_json).collect()),
                    ),
                ]),
            ),
            ("report", self.report.to_json()),
        ])
    }

    fn from_store_json(json: &Json) -> Result<Self, String> {
        let metrics = RunMetrics::from_store_json(json.field("metrics")?)
            .map_err(|e| format!("metrics: {e}"))?;
        let windows_json = json.field("windows")?;
        let width = windows_json.u64_field("width")?;
        if width == 0 {
            return Err("window width must be positive".to_string());
        }
        let windows = windows_json
            .array_field("windows")?
            .iter()
            .map(window_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let report = report_from_json(json.field("report")?).map_err(|e| format!("report: {e}"))?;
        Ok(ScenarioOutcome {
            metrics,
            windows: WindowedMetrics::from_windows(width, windows),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::request::RunRequest;
    use seer_harness::PolicyKind;

    #[test]
    fn scenario_outcome_round_trip_is_lossless() {
        let spec = library::builtin("stats-amnesia").unwrap();
        let outcome = RunRequest::scenario(&spec).policy(PolicyKind::Seer).run();
        let json = outcome.to_store_json();
        // Through the tree and through the actual byte serialization.
        let back = ScenarioOutcome::from_store_json(&json).expect("round trip");
        assert_eq!(back.metrics.trace_hash, outcome.metrics.trace_hash);
        assert_eq!(
            format!("{:?}", back.metrics),
            format!("{:?}", outcome.metrics)
        );
        assert_eq!(back.windows, outcome.windows);
        assert_eq!(back.report, outcome.report);
        let reparsed = Json::parse(&json.to_string_compact()).expect("parse");
        let back2 = ScenarioOutcome::from_store_json(&reparsed).expect("byte round trip");
        assert_eq!(back2.report, outcome.report);
        assert_eq!(back2.windows, outcome.windows);
    }

    #[test]
    fn malformed_outcome_is_an_error_not_a_panic() {
        assert!(ScenarioOutcome::from_store_json(&Json::Null).is_err());
        let spec = library::builtin("churn-storm").unwrap();
        let outcome = RunRequest::scenario(&spec).policy(PolicyKind::Rtm).run();
        let mut json = outcome.to_store_json();
        if let Json::Object(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "windows" {
                    *v =
                        Json::object([("width", 0u64.to_json()), ("windows", Json::Array(vec![]))]);
                }
            }
        }
        assert!(ScenarioOutcome::from_store_json(&json).is_err());
    }

    fn phase_flip_report() -> RecoveryReport {
        let spec = library::builtin("phase-flip").unwrap();
        RunRequest::scenario(&spec)
            .policy(PolicyKind::Seer)
            .run()
            .report
    }

    /// Why `validate_reports` rejects `report` once `mutate` breaks it.
    fn rejection(mutate: impl FnOnce(&mut RecoveryReport)) -> String {
        let mut report = phase_flip_report();
        mutate(&mut report);
        validate_reports(&report.to_json()).expect_err("mutation must be rejected")
    }

    #[test]
    fn validator_accepts_a_fresh_report_alone_or_in_an_array() {
        let report = phase_flip_report();
        assert!(
            report.scores[0].baseline_throughput > 0.0,
            "first score is scored"
        );
        assert_eq!(validate_reports(&report.to_json()).unwrap().len(), 1);
        let both = Json::Array(vec![report.to_json(), report.to_json()]);
        assert_eq!(validate_reports(&both).unwrap(), [report.clone(), report]);
    }

    #[test]
    fn validator_rejects_inconsistent_reports() {
        // Moves the depth by at least 0.25 and keeps it in [0, 1).
        let err = rejection(|r| {
            r.scores[0].regression_depth = (r.scores[0].regression_depth + 0.25) % 1.0
        });
        assert!(err.contains("regression_depth"), "{err}");
        let err = rejection(|r| {
            r.scores[0].reconverged_at = None;
            r.scores[0].time_to_reconverge = Some(5);
        });
        assert!(err.contains("null together"), "{err}");
        let err = rejection(|r| r.recovered = !r.recovered);
        assert!(err.contains("recovered"), "{err}");
        let err = rejection(|r| r.window = 0);
        assert!(err.contains("window"), "{err}");
        assert_eq!(
            validate_reports(&Json::Array(vec![])).unwrap_err(),
            "no reports"
        );
        assert!(validate_reports(&Json::Null).is_err());
    }

    #[test]
    fn key_ids_are_unique() {
        let a = ScenarioKey {
            scenario: "phase-flip".into(),
            policy: PolicyKind::Seer,
            seed: 0,
        };
        let mut b = a.clone();
        b.seed = 1;
        let mut c = a.clone();
        c.policy = PolicyKind::Rtm;
        assert_ne!(a.key_id(), b.key_id());
        assert_ne!(a.key_id(), c.key_id());
    }
}
