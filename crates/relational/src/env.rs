//! Strict parsing of `RTX_*` environment overrides.
//!
//! Every process-wide knob of the workspace (`RTX_THREADS`, `RTX_DEMAND`,
//! `RTX_MONITOR`, `RTX_FSYNC`) funnels through this module
//! so that all of them share one contract:
//!
//! * **unset** (or set to the empty / all-whitespace string) means "no
//!   override" — the caller's programmatic default applies;
//! * a **well-formed** value (after trimming surrounding whitespace) yields
//!   the parsed override;
//! * a **malformed** value is a hard [`EnvParseError`] naming the variable,
//!   the offending value and the accepted forms — never a silent fallback.
//!
//! The last point is the whole reason this module exists: a fleet operator
//! who exports `RTX_DEMAND=ful` or `RTX_MONITOR=enforec` must find out at
//! startup, not after the misconfigured default has served traffic.  Callers
//! that structurally cannot surface an error (process-global `OnceLock`
//! defaults resolved deep inside an infallible path) use
//! [`read_or_warn`], which reports the malformed value loudly on stderr and
//! then — and only then — falls back.

use std::fmt;

/// A malformed `RTX_*` environment override: the variable was set, but its
/// value does not parse.  Unset variables never produce this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The environment variable name (e.g. `RTX_DEMAND`).
    pub var: String,
    /// The rejected value, as found in the environment.
    pub value: String,
    /// A human-readable description of the accepted forms.
    pub expected: &'static str,
}

impl fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvParseError {}

/// Parses one environment override from an already-read raw value.
///
/// `raw` is the value as read from the environment (`None` when the variable
/// is unset).  Unset, empty and all-whitespace values mean "no override"
/// (`Ok(None)`); otherwise the trimmed value is handed to `parse`, and a
/// `None` from the parser becomes a hard [`EnvParseError`].
///
/// This is the pure core every `RTX_*` variable's tests exercise directly —
/// process-global `OnceLock` caches make the real environment path
/// untestable in-process after first use.
pub fn parse_setting<T>(
    var: &str,
    raw: Option<&str>,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, EnvParseError> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match parse(trimmed) {
        Some(value) => Ok(Some(value)),
        None => Err(EnvParseError {
            var: var.to_string(),
            value: raw.to_string(),
            expected,
        }),
    }
}

/// Reads and strictly parses an environment override from the process
/// environment.  See [`parse_setting`] for the contract.
pub fn read_setting<T>(
    var: &str,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, EnvParseError> {
    let raw = std::env::var(var).ok();
    parse_setting(var, raw.as_deref(), expected, parse)
}

/// Like [`read_setting`], but for call sites that structurally cannot
/// surface an error: a malformed value is reported loudly on stderr and
/// treated as "no override".  Prefer [`read_setting`] wherever the caller
/// can reject.
pub fn read_or_warn<T>(
    var: &str,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    match read_setting(var, expected, parse) {
        Ok(value) => value,
        Err(e) => {
            eprintln!("warning: ignoring {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_bool(v: &str) -> Option<bool> {
        match v {
            "yes" => Some(true),
            "no" => Some(false),
            _ => None,
        }
    }

    #[test]
    fn unset_and_blank_mean_no_override() {
        assert_eq!(parse_setting("RTX_X", None, "yes/no", parse_bool), Ok(None));
        assert_eq!(
            parse_setting("RTX_X", Some(""), "yes/no", parse_bool),
            Ok(None)
        );
        assert_eq!(
            parse_setting("RTX_X", Some("   "), "yes/no", parse_bool),
            Ok(None)
        );
    }

    #[test]
    fn well_formed_values_are_trimmed_and_parsed() {
        assert_eq!(
            parse_setting("RTX_X", Some("yes"), "yes/no", parse_bool),
            Ok(Some(true))
        );
        assert_eq!(
            parse_setting("RTX_X", Some("  no "), "yes/no", parse_bool),
            Ok(Some(false))
        );
    }

    #[test]
    fn malformed_values_are_hard_errors_naming_the_variable() {
        let err = parse_setting("RTX_X", Some("maybe"), "yes/no", parse_bool).unwrap_err();
        assert_eq!(err.var, "RTX_X");
        assert_eq!(err.value, "maybe");
        let shown = err.to_string();
        assert!(shown.contains("RTX_X"), "{shown}");
        assert!(shown.contains("maybe"), "{shown}");
        assert!(shown.contains("yes/no"), "{shown}");
    }

    #[test]
    fn read_setting_reads_the_process_environment() {
        // Only an unset variable is safely testable in-process (tests run
        // concurrently and the environment is shared); the parsing paths
        // are covered through `parse_setting` above.
        assert_eq!(
            read_setting("RTX_THIS_VARIABLE_IS_NEVER_SET", "anything", |_| Some(())),
            Ok(None)
        );
        assert_eq!(
            read_or_warn("RTX_THIS_VARIABLE_IS_NEVER_SET", "anything", |_| Some(())),
            None
        );
    }
}
