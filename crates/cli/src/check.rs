//! `seer check <kind> --file F[,F…]`: the schema gates for every artefact
//! the workspace writes, behind one read → parse → validate → summary
//! loop. The validators live next to the writers they mirror:
//!
//! | kind | validates | validator |
//! |---|---|---|
//! | `trace` | `--trace` JSONL (§10) | `seer_harness::validate_trace_jsonl` |
//! | `scenario` | `seer scenario run --json true` (§11) | `seer_scenario::validate_reports` |

use seer_harness::{validate_trace_jsonl, Json};

use crate::args::{Args, ParseError};

/// The artefact kinds `seer check` validates.
pub const KINDS: [&str; 2] = ["trace", "scenario"];

/// `seer check <kind>`: validates each `--file` in order, printing its
/// summary; the first invalid file is the error.
pub fn check(kind: &str, args: &Args) -> Result<(), ParseError> {
    if !KINDS.contains(&kind) {
        return Err(ParseError(format!(
            "unknown check kind {kind:?} (valid: {})",
            KINDS.join(", ")
        )));
    }
    args.allow_only(&["file"])?;
    let files = args
        .get("file")
        .ok_or_else(|| ParseError("--file F[,F...] is required".into()))?;
    for path in files.split(',') {
        let summary = summarize(kind, path).map_err(|e| ParseError(format!("{path}: {e}")))?;
        for line in summary {
            println!("{line}");
        }
    }
    Ok(())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))
}

fn summarize(kind: &str, path: &str) -> Result<Vec<String>, String> {
    if kind == "trace" {
        let counts = validate_trace_jsonl(&read(path)?)?;
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        let mut lines = vec![format!("{path}: {total} records OK")];
        lines.extend(counts.iter().map(|(name, n)| format!("  {name:<16} {n}")));
        return Ok(lines);
    }
    let json = Json::parse(&read(path)?).map_err(|e| format!("not valid JSON: {e}"))?;
    let reports = seer_scenario::validate_reports(&json)?;
    let mut lines = vec![format!("{path}: {} report(s) OK", reports.len())];
    lines.extend(
        reports
            .iter()
            .map(|r| format!("  {:<16} {} score(s)", r.scenario, r.scores.len())),
    );
    Ok(lines)
}
