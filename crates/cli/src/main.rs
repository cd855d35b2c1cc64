//! `seer` — command-line front end for the Seer reproduction.
//!
//! ```text
//! seer list                                  # benchmarks and policies
//! seer run    --benchmark genome --policy seer --threads 8 [--seed N] [--txs N] [--json true]
//! seer sweep  --benchmark vacation-high [--policies hle,rtm,scm,seer] [--max-threads 8]
//! seer inspect --benchmark intruder --threads 8 [--txs N]   # Seer's learned state
//! seer explain --benchmark genome --policy seer --pair 0,2  # decision history of one pair
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
/// `check trace`, `experiment fig3`.
const FAMILIES: [&str; 2] = ["check", "experiment"];

/// Every command `seer` runs (`help` aside).
const COMMANDS: [&str; 7] = [
    "list",
    "run",
    "sweep",
    "inspect",
    "explain",
    "experiment",
    "check",
];

/// Rejects an unknown command word before its options are parsed, so a
/// removed command with a trailing action (`seer scenario run`) is named
/// as such, with the valid commands listed.
fn known_command(word: &str) -> Result<(), String> {
    let in_family = FAMILIES.iter().any(|f| {
        word.strip_prefix(f)
            .is_some_and(|rest| rest.starts_with('-'))
    });
    if word.starts_with('-') || word == "help" || COMMANDS.contains(&word) || in_family {
        Ok(())
    } else {
        Err(unknown_command(word))
    }
}

fn unknown_command(word: &str) -> String {
    format!("unknown command {word:?} (valid: {})", COMMANDS.join(", "))
}

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
    if raw.is_empty() || matches!(raw[0].as_str(), "--help" | "-h") {
        commands::print_usage();
        return Ok(());
    }
    fold_command(&mut raw);
    known_command(&raw[0])?;
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
        "inspect" => commands::inspect(&args).map_err(|e| e.to_string()),
        "explain" => commands::explain(&args).map_err(|e| e.to_string()),
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
                Err(unknown_command(other))
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
            fold(&["check", "trace", "--file", "x"]),
            ["check-trace", "--file", "x"]
        );
        assert_eq!(fold(&["experiment", "fig3"]), ["experiment-fig3"]);
        // No action (or an option) after the family: left for `run` to report.
        assert_eq!(fold(&["check"]), ["check"]);
        assert_eq!(fold(&["check", "--help"]), ["check", "--help"]);
        assert_eq!(fold(&["check", "--file", "x"]), ["check", "--file", "x"]);
        // Other commands untouched, the removed `scenario` family included.
        assert_eq!(fold(&["run", "--seed", "1"]), ["run", "--seed", "1"]);
        assert_eq!(fold(&["scenario", "run"]), ["scenario", "run"]);
        assert_eq!(fold(&[]), Vec::<String>::new());
    }

    fn run_words(parts: &[&str]) -> Result<(), String> {
        run(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn help_prints_usage_in_every_spelling() {
        for words in [
            &[][..],
            &["help"],
            &["--help"],
            &["-h"],
            &["run", "--help"],
            &["run", "-h"],
        ] {
            assert_eq!(run_words(words), Ok(()), "{words:?}");
        }
        // Any other option in command position still wants a command.
        let err = run_words(&["--threads", "2"]).unwrap_err();
        assert!(err.contains("expected a command before options"), "{err}");
    }

    #[test]
    fn unknown_check_kinds_and_experiments_list_the_valid_ones() {
        let err = run_words(&["check", "logs", "--file", "x"]).unwrap_err();
        assert!(
            err.contains("\"logs\"") && err.contains("(valid: trace)"),
            "{err}"
        );
        let err = run_words(&["check", "--file", "x"]).unwrap_err();
        assert!(err.contains("one of trace"), "{err}");
        // The scenario engine is gone: `scenario` is neither a check kind
        // nor a command, and its error lists what is.
        let err = run_words(&["check", "scenario", "--file", "x"]).unwrap_err();
        assert!(
            err.contains("unknown check kind \"scenario\" (valid: trace)"),
            "{err}"
        );
        for words in [
            &["scenario", "run"][..],
            &["scenario", "list"],
            &["scenario"],
        ] {
            let err = run_words(words).unwrap_err();
            assert_eq!(
                err,
                "unknown command \"scenario\" (valid: list, run, sweep, inspect, explain, \
                 experiment, check)",
                "{words:?}"
            );
        }
        // The parameter search is gone: `tune` is neither a check kind nor
        // a command.
        let err = run_words(&["check", "tune", "--file", "x"]).unwrap_err();
        assert!(
            err.contains("unknown check kind \"tune\" (valid: trace)"),
            "{err}"
        );
        let err = run_words(&["tune", "--budget", "8"]).unwrap_err();
        assert!(err.contains("unknown command \"tune\""), "{err}");
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
    fn former_knob_specs_are_unknown_policies() {
        // Seer runs the paper's constants: a `seer@key=value` spec, or a
        // `key=value` item in a list, is an unknown policy (exit 2).
        let err = run_words(&["run", "--policy", "seer@window=100"]).unwrap_err();
        assert_eq!(err, "unknown policy \"seer@window=100\" (see `seer list`)");
        let err = run_words(&["sweep", "--policies", "seer,window=100"]).unwrap_err();
        assert_eq!(err, "unknown policy \"window=100\" (see `seer list`)");
    }

    #[test]
    fn removed_store_options_are_errors() {
        // The on-disk result store is gone: each of its options is an
        // error (exit 2) on every command that took it, never ignored.
        let cases: [(&[&str], &str, Option<&str>); 2] = [
            (&["sweep"], "store", Some("d")),
            // Once a value-free flag; the bare word now wants a value.
            (&["sweep"], "resume", None),
        ];
        for (command, option, value) in cases {
            let flag = format!("--{option}");
            let mut words = command.to_vec();
            words.push(&flag);
            words.extend(value);
            let err = run_words(&words).unwrap_err();
            let expected = match value {
                Some(_) => format!("unknown option {flag}"),
                None => format!("{flag} needs a value"),
            };
            assert!(err.contains(&expected), "{words:?}: {err}");
        }
    }

    #[test]
    fn check_validates_its_options_before_reading_files() {
        let err = run_words(&["check", "trace"]).unwrap_err();
        assert!(err.contains("--file"), "{err}");
        // Every kind takes `--file` alone.
        for opt in ["--baseline", "--tolerance"] {
            let err = run_words(&["check", "trace", "--file", "x", opt, "y"]).unwrap_err();
            assert!(err.contains(&format!("unknown option {opt}")), "{err}");
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
        let trace = file("crates/conformance/tests/fixtures/decision_trace.jsonl");
        run_words(&["check", "trace", "--file", &trace]).unwrap();
        // A file of the wrong kind is rejected.
        let json = file("crates/store/Cargo.toml");
        assert!(run_words(&["check", "trace", "--file", &json]).is_err());
    }
}
