//! Session supervision: monitor policies, violation events, and runtime
//! health.
//!
//! The verification procedures of §3–§4 (log validation, temporal
//! properties, goal reachability, input control) are decision procedures
//! over *completed* runs.  This module is the runtime half of making them
//! **online**: a [`Session`](crate::Session) carries a [`MonitorPolicy`] and
//! an optional [`SessionObserver`] that is consulted at every step — before
//! the step to *admit* the input (the §4 input-control gate) and after the
//! step to *observe* the produced output (incremental log validation,
//! per-step temporal properties, forbidden goals).  Observers report typed
//! [`Violation`] events; under [`MonitorPolicy::Enforce`] an admission
//! violation rejects the input with
//! [`CoreError::StepRejected`] before the
//! run advances.
//!
//! Supervision is fault isolation on top of monitoring: the step path is
//! wrapped in `catch_unwind`, so a panicking observer or evaluator
//! *quarantines* its own session — the name is released, the state is
//! preserved for inspection, and sibling sessions (and the shared catalog
//! lock) are untouched.  [`RuntimeHealth`] snapshots the aggregate:
//! active/quarantined sessions, violations seen, inputs rejected.
//!
//! The concrete observer implementation lives in `rtx-verify::monitor`
//! (`SessionMonitor`), keeping the dependency arrow pointing from the
//! verifier to the core.

use crate::CoreError;
use rtx_relational::{Instance, RelationName, Tuple};
use std::fmt;

/// How a [`Session`](crate::Session) treats its attached monitor.
///
/// The process-wide default comes from the `RTX_MONITOR` environment
/// variable ([`MonitorPolicy::from_env_setting`] — strict: a malformed value
/// is a hard error, never a silent fallback to [`MonitorPolicy::Off`]); a
/// runtime or session can override it programmatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorPolicy {
    /// No monitoring: attached observers are not consulted.
    #[default]
    Off,
    /// Observers run at every step and violations are recorded on the
    /// session, but the run is never perturbed: a monitored run is
    /// bit-identical to an unmonitored one.
    Observe,
    /// Like [`MonitorPolicy::Observe`], and additionally the admission gate
    /// is enforced: an input whose admission raises a violation is rejected
    /// with [`CoreError::StepRejected`]
    /// before the run advances.
    Enforce,
}

impl MonitorPolicy {
    /// The accepted forms of `RTX_MONITOR`, for the strict-parse error
    /// message.
    pub const ENV_EXPECTED: &'static str = "`off`, `observe` or `enforce`";

    /// Parses one (pre-trimmed, non-empty) `RTX_MONITOR` token: `off`,
    /// `observe` or `enforce`, ASCII case-insensitive.
    fn parse_token(value: &str) -> Option<MonitorPolicy> {
        match value.to_ascii_lowercase().as_str() {
            "off" => Some(MonitorPolicy::Off),
            "observe" => Some(MonitorPolicy::Observe),
            "enforce" => Some(MonitorPolicy::Enforce),
            _ => None,
        }
    }

    /// Strictly parses an `RTX_MONITOR` value through the shared
    /// [`env`](rtx_relational::env) contract: `Ok(None)` when unset or
    /// blank, a hard [`EnvParseError`](rtx_relational::env::EnvParseError)
    /// when malformed — a typo'd `RTX_MONITOR=enforec` must fail loudly,
    /// not silently disable the guardrails.
    pub fn from_env_setting(
        raw: Option<&str>,
    ) -> Result<Option<MonitorPolicy>, rtx_relational::env::EnvParseError> {
        rtx_relational::env::parse_setting(
            "RTX_MONITOR",
            raw,
            Self::ENV_EXPECTED,
            Self::parse_token,
        )
    }

    /// True unless the policy is [`MonitorPolicy::Off`].
    pub fn is_active(&self) -> bool {
        !matches!(self, MonitorPolicy::Off)
    }
}

impl fmt::Display for MonitorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MonitorPolicy::Off => "off",
            MonitorPolicy::Observe => "observe",
            MonitorPolicy::Enforce => "enforce",
        };
        f.write_str(s)
    }
}

/// Which verification check a [`Violation`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A §4 state-deviation-input constraint (input control) was violated.
    Constraint,
    /// A registered temporal property does not hold at this step.
    Temporal,
    /// A forbidden goal became true in the step's output.
    Goal,
    /// The observed output deviates from the spec's log projection
    /// (incremental Thm 3.1 log validation).
    Log,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Constraint => "constraint",
            ViolationKind::Temporal => "temporal",
            ViolationKind::Goal => "goal",
            ViolationKind::Log => "log",
        };
        f.write_str(s)
    }
}

/// One monitored-check failure: which check, at which step, and — when the
/// check can name one — the offending relation and witness tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The step index (0-based) the violation was detected at.
    pub step: usize,
    /// Which kind of check failed.
    pub kind: ViolationKind,
    /// The name of the violated constraint, property, or goal.
    pub source: String,
    /// The relation the witness tuple belongs to, when one exists.
    pub relation: Option<RelationName>,
    /// A witness tuple demonstrating the violation, when one exists.
    pub tuple: Option<Tuple>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}: {} violation of `{}`",
            self.step, self.kind, self.source
        )?;
        if let (Some(rel), Some(tuple)) = (&self.relation, &self.tuple) {
            write!(f, " [witness {}{}]", rel.as_str(), tuple)?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

/// A per-session online monitor, consulted by
/// [`Session::step`](crate::Session::step) when the session's
/// [`MonitorPolicy`] is active.
///
/// `admit` runs *before* the step and gates the input (§4 input control);
/// `observe` runs *after* the step over the produced output (log validation,
/// temporal properties, goals) and must advance the observer's own mirror of
/// the run — it is called exactly once per *admitted* step, so a rejection
/// under [`MonitorPolicy::Enforce`] leaves monitor and session in lockstep.
///
/// A typed error from either hook aborts the step with that error; a panic
/// quarantines the session.  The `Debug + Send` bounds keep
/// [`Session`](crate::Session) debuggable and sendable across threads.
pub trait SessionObserver: Send + fmt::Debug {
    /// Checks whether `input` may be admitted at step `step`.  Returned
    /// violations are recorded on the session; under
    /// [`MonitorPolicy::Enforce`] a non-empty return rejects the input.
    fn admit(&mut self, step: usize, input: &Instance) -> Result<Vec<Violation>, CoreError>;

    /// Observes the admitted step's input and produced output, returning any
    /// violations detected.  Implementations advance their internal run
    /// mirror here.
    fn observe(
        &mut self,
        step: usize,
        input: &Instance,
        output: &Instance,
    ) -> Result<Vec<Violation>, CoreError>;
}

/// A point-in-time snapshot of a [`Runtime`](crate::Runtime)'s supervision
/// state, from [`Runtime::health`](crate::Runtime::health).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuntimeHealth {
    /// Names currently registered in the session registry (live, stepping
    /// sessions).
    pub active_sessions: usize,
    /// Sessions quarantined after a panic, in name order.  Quarantined
    /// sessions release their registry name (so it can be reused) but keep
    /// their state for inspection.
    pub quarantined_sessions: Vec<String>,
    /// Total violations recorded by observers across all sessions.
    pub violations: u64,
    /// Total inputs rejected by enforcement across all sessions.
    pub rejections: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_strict() {
        assert_eq!(MonitorPolicy::parse_token("off"), Some(MonitorPolicy::Off));
        assert_eq!(
            MonitorPolicy::parse_token("observe"),
            Some(MonitorPolicy::Observe)
        );
        assert_eq!(
            MonitorPolicy::parse_token("enforce"),
            Some(MonitorPolicy::Enforce)
        );
        assert_eq!(
            MonitorPolicy::parse_token("Enforce"),
            Some(MonitorPolicy::Enforce)
        );
        assert_eq!(
            MonitorPolicy::parse_token("OBSERVE"),
            Some(MonitorPolicy::Observe)
        );
        assert_eq!(MonitorPolicy::parse_token(""), None);
        assert_eq!(MonitorPolicy::parse_token("on"), None);
        assert_eq!(MonitorPolicy::parse_token("enforced"), None);
        assert_eq!(MonitorPolicy::parse_token("1"), None);
    }

    #[test]
    fn default_and_activity() {
        assert_eq!(MonitorPolicy::default(), MonitorPolicy::Off);
        assert!(!MonitorPolicy::Off.is_active());
        assert!(MonitorPolicy::Observe.is_active());
        assert!(MonitorPolicy::Enforce.is_active());
    }

    #[test]
    fn rtx_monitor_setting_rejects_malformed_values_loudly() {
        assert_eq!(MonitorPolicy::from_env_setting(None), Ok(None));
        assert_eq!(MonitorPolicy::from_env_setting(Some("")), Ok(None));
        assert_eq!(MonitorPolicy::from_env_setting(Some("  ")), Ok(None));
        assert_eq!(
            MonitorPolicy::from_env_setting(Some(" Enforce ")),
            Ok(Some(MonitorPolicy::Enforce))
        );
        // The fleet-misconfiguration bug this pins: a typo'd policy
        // (`enforec`) used to silently leave monitoring Off.
        for bad in ["enforec", "on", "1", "observe,enforce"] {
            let err = MonitorPolicy::from_env_setting(Some(bad)).unwrap_err();
            assert_eq!(err.var, "RTX_MONITOR");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn violation_display_names_the_witness() {
        let v = Violation {
            step: 3,
            kind: ViolationKind::Constraint,
            source: "no-late-bids".into(),
            relation: Some(RelationName::new("bid")),
            tuple: Some(Tuple::from_iter(["vase", "mallory"])),
            detail: "bid after close".into(),
        };
        let s = v.to_string();
        assert!(s.contains("step 3"), "{s}");
        assert!(s.contains("no-late-bids"), "{s}");
        assert!(s.contains("bid"), "{s}");
        assert!(s.contains("mallory"), "{s}");
        let s = ViolationKind::Log.to_string();
        assert_eq!(s, "log");
    }
}
