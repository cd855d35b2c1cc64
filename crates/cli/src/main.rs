//! `seer` — command-line front end for the Seer reproduction.
//!
//! ```text
//! seer list                                  # benchmarks and policies
//! seer run    --benchmark genome --policy seer --threads 8 [--seed N] [--txs N] [--json true]
//! seer sweep  --benchmark vacation-high [--policies hle,rtm,scm,seer] [--max-threads 8]
//!             [--store DIR] [--resume]                   # persistent, resumable results
//! seer tune   [--driver random|halving|climb] [--budget N] [--objective combined]
//!             [--space F.json] [--seed N] [--jobs N] [--json true] [--out TUNE.json]
//!             [--store DIR] [--resume]                   # parameter search over Seer's knobs
//! seer inspect --benchmark intruder --threads 8 [--txs N]   # Seer's learned state
//! seer explain --benchmark genome --policy seer --pair 0,2  # decision history of one pair
//! seer scenario list                                        # built-in disturbance scenarios
//! seer scenario run [--name churn-storm | --spec F.json] [--policy P] [--seed N]
//!                   [--jobs N] [--json true] [--trace F.jsonl] [--store DIR] [--resume]
//! seer experiment fig3                                      # regenerate a paper figure/table
//! seer check trace --file F.jsonl[,F2...]                   # schema-check an artefact
//! ```

mod args;
mod check;
mod commands;
mod experiment;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(raw) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("try `seer help`");
            2
        }
    };
    std::process::exit(code);
}

/// The commands whose first positional word picks an action or kind:
/// `scenario run`, `check trace`, `experiment fig3`.
const FAMILIES: [&str; 3] = ["scenario", "check", "experiment"];

/// Folds the two-word `<family> <action>` form into a single
/// `<family>-<action>` command token, keeping the one-positional grammar.
fn fold_command(raw: &mut Vec<String>) {
    if raw.first().is_some_and(|c| FAMILIES.contains(&c.as_str()))
        && raw.get(1).is_some_and(|a| !a.starts_with('-'))
    {
        let action = raw.remove(1);
        raw[0] = format!("{}-{action}", raw[0]);
    }
}

fn run(mut raw: Vec<String>) -> Result<(), String> {
    if raw.is_empty() {
        commands::print_usage();
        return Ok(());
    }
    fold_command(&mut raw);
    let args = Args::parse(raw).map_err(|e| e.to_string())?;
    if args.wants_help() || args.command == "help" {
        commands::print_usage();
        return Ok(());
    }
    match args.command.as_str() {
        "list" => {
            args.allow_only(&[]).map_err(|e| e.to_string())?;
            commands::list();
            Ok(())
        }
        "run" => commands::run_one(&args).map_err(|e| e.to_string()),
        "sweep" => commands::sweep(&args).map_err(|e| e.to_string()),
        "tune" => commands::tune(&args).map_err(|e| e.to_string()),
        "inspect" => commands::inspect(&args).map_err(|e| e.to_string()),
        "explain" => commands::explain(&args).map_err(|e| e.to_string()),
        "scenario-list" => {
            args.allow_only(&[]).map_err(|e| e.to_string())?;
            commands::scenario_list();
            Ok(())
        }
        "scenario-run" => commands::scenario_run(&args).map_err(|e| e.to_string()),
        "scenario" => {
            Err("scenario needs an action: `seer scenario run` or `seer scenario list`".into())
        }
        "check" => Err(format!(
            "check needs a kind: one of {}",
            check::KINDS.join(", ")
        )),
        "experiment" => Err(format!(
            "experiment needs a name: one of {}",
            experiment::names()
        )),
        other => {
            if let Some(kind) = other.strip_prefix("check-") {
                check::check(kind, &args).map_err(|e| e.to_string())
            } else if let Some(name) = other.strip_prefix("experiment-") {
                experiment::experiment(name, &args).map_err(|e| e.to_string())
            } else {
                Err(format!("unknown command {other:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{fold_command, run};

    fn fold(parts: &[&str]) -> Vec<String> {
        let mut raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        fold_command(&mut raw);
        raw
    }

    #[test]
    fn family_actions_fold_into_one_command_token() {
        assert_eq!(
            fold(&["scenario", "run", "--seed", "1"]),
            ["scenario-run", "--seed", "1"]
        );
        assert_eq!(fold(&["scenario", "list"]), ["scenario-list"]);
        assert_eq!(
            fold(&["check", "trace", "--file", "x"]),
            ["check-trace", "--file", "x"]
        );
        assert_eq!(fold(&["experiment", "fig3"]), ["experiment-fig3"]);
        // No action (or an option) after the family: left for `run` to report.
        assert_eq!(fold(&["scenario"]), ["scenario"]);
        assert_eq!(fold(&["scenario", "--help"]), ["scenario", "--help"]);
        assert_eq!(fold(&["check", "--file", "x"]), ["check", "--file", "x"]);
        // Other commands untouched.
        assert_eq!(fold(&["run", "--seed", "1"]), ["run", "--seed", "1"]);
        assert_eq!(fold(&[]), Vec::<String>::new());
    }

    fn run_words(parts: &[&str]) -> Result<(), String> {
        run(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unknown_check_kinds_and_experiments_list_the_valid_ones() {
        let err = run_words(&["check", "logs", "--file", "x"]).unwrap_err();
        assert!(
            err.contains("\"logs\"") && err.contains("(valid: trace, scenario, tune)"),
            "{err}"
        );
        let err = run_words(&["check", "--file", "x"]).unwrap_err();
        assert!(err.contains("one of trace, scenario, tune"), "{err}");
        // `bench` is neither a check kind nor a command.
        let err = run_words(&["check", "bench", "--file", "x"]).unwrap_err();
        assert!(err.contains("unknown check kind \"bench\""), "{err}");
        let err = run_words(&["bench"]).unwrap_err();
        assert!(err.contains("unknown command \"bench\""), "{err}");
        // Nor is `serve`: execution is local only.
        let err = run_words(&["serve", "--addr", "127.0.0.1:0"]).unwrap_err();
        assert!(err.contains("unknown command \"serve\""), "{err}");
        let err = run_words(&["experiment", "fig9"]).unwrap_err();
        assert!(
            err.contains("\"fig9\"") && err.contains("fig3, table3"),
            "{err}"
        );
        let err = run_words(&["experiment"]).unwrap_err();
        assert!(err.contains("fine-grained, convergence"), "{err}");
    }

    #[test]
    fn check_validates_its_options_before_reading_files() {
        let err = run_words(&["check", "trace"]).unwrap_err();
        assert!(err.contains("--file"), "{err}");
        // Every kind takes `--file` alone.
        for kind in ["trace", "scenario", "tune"] {
            for opt in ["--baseline", "--tolerance"] {
                let err = run_words(&["check", kind, "--file", "x", opt, "y"]).unwrap_err();
                assert!(err.contains(&format!("unknown option {opt}")), "{err}");
            }
        }
        let err = run_words(&["check", "trace", "--file", "/nonexistent/t.jsonl"]).unwrap_err();
        assert!(
            err.starts_with("/nonexistent/t.jsonl: cannot read"),
            "{err}"
        );
    }

    #[test]
    fn check_accepts_committed_artefacts() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let file = |rel: &str| format!("{root}/{rel}");
        let leaderboard = file("crates/tune/tests/fixtures/leaderboard.json");
        let tune = format!("{},{leaderboard}", file("TUNE_064.json"));
        run_words(&["check", "tune", "--file", &tune]).unwrap();
        let trace = file("crates/conformance/tests/fixtures/decision_trace.jsonl");
        run_words(&["check", "trace", "--file", &trace]).unwrap();
        // A file of the wrong kind is rejected.
        let err = run_words(&["check", "scenario", "--file", &file("TUNE_064.json")]);
        assert!(err.is_err());
    }
}
