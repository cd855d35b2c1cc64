//! A small, dependency-free argument parser for the `seer` CLI.
//!
//! Grammar: `seer <command> [--key value]...`. Unknown keys and malformed
//! values are reported with the offending token; `--help` anywhere prints
//! usage. Kept deliberately simple — the CLI has seven commands and a
//! handful of typed options.

use std::collections::BTreeMap;

/// Parsed command line: the command word plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The command word (e.g. `run`).
    pub command: String,
    options: BTreeMap<String, String>,
}

/// Parse failure with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ParseError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ParseError("missing command (try `seer help`)".into()))?;
        if command.starts_with('-') {
            return Err(ParseError(format!(
                "expected a command before options, got {command:?}"
            )));
        }
        let mut options = BTreeMap::new();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ParseError(format!("expected --option, got {tok:?}")));
            };
            // The one value-free flag: presence is the whole message.
            if key == "help" {
                options.insert(key.to_string(), "true".into());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| ParseError(format!("--{key} needs a value")))?;
            if options.insert(key.to_string(), value).is_some() {
                return Err(ParseError(format!("--{key} given twice")));
            }
        }
        Ok(Self { command, options })
    }

    /// True when `--help` was passed.
    pub fn wants_help(&self) -> bool {
        self.options.contains_key("help")
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A typed option with a default; malformed values are errors.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ParseError(format!("--{key} {raw:?} is not a valid value"))),
        }
    }

    /// Rejects options outside the allowed set (catches typos).
    pub fn allow_only(&self, allowed: &[&str]) -> Result<(), ParseError> {
        for key in self.options.keys() {
            if key != "help" && !allowed.contains(&key.as_str()) {
                return Err(ParseError(format!(
                    "unknown option --{key} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, ParseError> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["run", "--benchmark", "genome", "--threads", "8"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("benchmark"), Some("genome"));
        assert_eq!(a.get_parsed("threads", 4usize).unwrap(), 8);
        assert_eq!(a.get_parsed("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_command() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--threads", "2"]).is_err());
    }

    #[test]
    fn rejects_dangling_option() {
        let e = parse(&["run", "--threads"]).unwrap_err();
        assert!(e.0.contains("needs a value"));
    }

    #[test]
    fn rejects_duplicates_and_unknowns() {
        assert!(parse(&["run", "--x", "1", "--x", "2"]).is_err());
        let a = parse(&["run", "--bogus", "1"]).unwrap();
        assert!(a.allow_only(&["threads"]).is_err());
        assert!(a.allow_only(&["bogus"]).is_ok());
    }

    #[test]
    fn rejects_malformed_values() {
        let a = parse(&["run", "--threads", "eight"]).unwrap();
        assert!(a.get_parsed("threads", 1usize).is_err());
    }

    #[test]
    fn help_flag_is_value_free() {
        let a = parse(&["run", "--help"]).unwrap();
        assert!(a.wants_help());
    }
}
