//! `seer check <kind> --file F[,F…]`: the schema gates for the artefacts
//! the workspace writes, behind one read → parse → validate → summary
//! loop. The validators live next to the writers they mirror:
//!
//! | kind | validates | validator |
//! |---|---|---|
//! | `trace` | `--trace` JSONL (§10) | `seer_harness::validate_trace_jsonl` |

use seer_harness::validate_trace_jsonl;

use crate::args::{Args, ParseError};

/// The artefact kinds `seer check` validates.
pub const KINDS: [&str; 1] = ["trace"];

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
        let summary = summarize(path).map_err(|e| ParseError(format!("{path}: {e}")))?;
        for line in summary {
            println!("{line}");
        }
    }
    Ok(())
}

fn summarize(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let counts = validate_trace_jsonl(&text)?;
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    let mut lines = vec![format!("{path}: {total} records OK")];
    lines.extend(counts.iter().map(|(name, n)| format!("  {name:<16} {n}")));
    Ok(lines)
}
