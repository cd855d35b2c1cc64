//! `seer check <kind> --file F[,F…]`: the schema gates for every artefact
//! the workspace writes, behind one read → parse → validate → summary
//! loop. The validators live next to the writers they mirror:
//!
//! | kind | validates | validator |
//! |---|---|---|
//! | `bench` | `seer bench` reports (`DESIGN.md` §12) | `seer_bench::harness::validate_report` |
//! | `trace` | `--trace` JSONL (§10) | `seer_harness::validate_trace_jsonl` |
//! | `scenario` | `seer scenario run --json true` (§11) | `seer_scenario::validate_reports` |
//! | `tune` | `seer tune` leaderboards (§15) | `seer_tune::validate_report` |
//!
//! `bench` also takes the perf gates: `--baseline FILE` (cell facts must
//! match exactly, speedup ratios may drop at most `--tolerance`, default
//! 0.25) and `--against FILE` (prints the trend; never gates).

use seer_bench::harness::{compare_reports, trend_lines};
use seer_harness::{validate_trace_jsonl, Json};

use crate::args::{Args, ParseError};

/// The artefact kinds `seer check` validates.
pub const KINDS: [&str; 4] = ["bench", "trace", "scenario", "tune"];

/// `seer check <kind>`: validates each `--file` in order, printing its
/// summary; the first invalid file is the error.
pub fn check(kind: &str, args: &Args) -> Result<(), ParseError> {
    if !KINDS.contains(&kind) {
        return Err(ParseError(format!(
            "unknown check kind {kind:?} (valid: {})",
            KINDS.join(", ")
        )));
    }
    let bench = kind == "bench";
    args.allow_only(if bench {
        &["file", "baseline", "tolerance", "against"]
    } else {
        &["file"]
    })?;
    let files = args
        .get("file")
        .ok_or_else(|| ParseError("--file F[,F...] is required".into()))?;
    let gate = if bench {
        Some(BenchGate::from_args(args)?)
    } else {
        None
    };
    for path in files.split(',') {
        let summary =
            summarize(kind, path, gate.as_ref()).map_err(|e| ParseError(format!("{path}: {e}")))?;
        for line in summary {
            println!("{line}");
        }
    }
    Ok(())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))
}

fn read_json(path: &str) -> Result<Json, String> {
    Json::parse(&read(path)?).map_err(|e| format!("not valid JSON: {e}"))
}

fn summarize(kind: &str, path: &str, gate: Option<&BenchGate>) -> Result<Vec<String>, String> {
    if kind == "trace" {
        let counts = validate_trace_jsonl(&read(path)?)?;
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        let mut lines = vec![format!("{path}: {total} records OK")];
        lines.extend(counts.iter().map(|(name, n)| format!("  {name:<16} {n}")));
        return Ok(lines);
    }
    let json = read_json(path)?;
    match (kind, gate) {
        (_, Some(gate)) => gate.check(path, &json),
        ("scenario", _) => {
            let reports = seer_scenario::validate_reports(&json)?;
            let mut lines = vec![format!("{path}: {} report(s) OK", reports.len())];
            lines.extend(
                reports
                    .iter()
                    .map(|r| format!("  {:<16} {} score(s)", r.scenario, r.scores.len())),
            );
            Ok(lines)
        }
        _ => {
            let violations = seer_tune::validate_report(&json);
            if !violations.is_empty() {
                return Err(listing(
                    &format!("{} violation(s)", violations.len()),
                    &violations,
                ));
            }
            Ok(vec![format!("{path}: ok")])
        }
    }
}

/// `head:` followed by one `  - item` line per item.
fn listing(head: &str, items: &[String]) -> String {
    let mut msg = format!("{head}:");
    for item in items {
        msg.push_str("\n  - ");
        msg.push_str(item);
    }
    msg
}

/// A validated `seer bench` report read from `path`.
fn load_bench(path: &str) -> Result<Json, ParseError> {
    read_json(path)
        .and_then(|json| seer_bench::harness::validate_report(&json).map(|()| json))
        .map_err(|e| ParseError(format!("{path}: {e}")))
}

/// `seer check bench`'s reference reports, each loaded and validated once.
struct BenchGate {
    baseline: Option<(String, Json)>,
    tolerance: f64,
    against: Option<(String, Json)>,
}

impl BenchGate {
    fn from_args(args: &Args) -> Result<Self, ParseError> {
        let tolerance: f64 = args.get_parsed("tolerance", 0.25)?;
        if !(0.0..1.0).contains(&tolerance) {
            return Err(ParseError(format!(
                "--tolerance must be a fraction in [0, 1), got {tolerance}"
            )));
        }
        let load = |key| {
            args.get(key)
                .map(|path| load_bench(path).map(|json| (path.to_string(), json)))
                .transpose()
        };
        Ok(Self {
            baseline: load("baseline")?,
            tolerance,
            against: load("against")?,
        })
    }

    fn check(&self, path: &str, report: &Json) -> Result<Vec<String>, String> {
        seer_bench::harness::validate_report(report)?;
        let mut lines = vec![format!("{path}: schema OK")];
        if let Some((base_path, baseline)) = &self.baseline {
            let violations = compare_reports(report, baseline, self.tolerance);
            if !violations.is_empty() {
                let head = format!("{} violation(s) vs baseline {base_path}", violations.len());
                return Err(listing(&head, &violations));
            }
            lines.push(format!(
                "{path}: within tolerance {} of baseline {base_path}",
                self.tolerance
            ));
        }
        if let Some((against_path, against)) = &self.against {
            lines.push(format!("{path}: trend vs {against_path}:"));
            lines.extend(
                trend_lines(report, against)?
                    .iter()
                    .map(|l| format!("  {l}")),
            );
        }
        Ok(lines)
    }
}
