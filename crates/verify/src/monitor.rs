//! Online session monitoring: the decision procedures of §3–§4 as a
//! per-step runtime service.
//!
//! [`SessionMonitor`] implements
//! [`rtx_core::SessionObserver`]: attach one to a
//! [`Session`](rtx_core::Session) (under
//! [`MonitorPolicy::Observe`](rtx_core::MonitorPolicy::Observe) or
//! [`Enforce`](rtx_core::MonitorPolicy::Enforce)) and every step is checked
//! *as the run advances* instead of in a post-mortem:
//!
//! * **Input control (admission, Theorem 4.1)** — each registered
//!   [`SdiConstraint`] is compiled through
//!   [`SdiConstraint::compile_to_error_rules_named`] into a witness-carrying
//!   gate program, evaluated over the offered input and the monitor's state
//!   mirror *before* the step.  A non-empty gate derivation is a
//!   [`Violation`] naming the constraint and the offending input tuple;
//!   under `Enforce` the session rejects the input with
//!   [`CoreError::StepRejected`].
//! * **Incremental log validation (Theorem 3.1, operational form)** — the
//!   monitor shadow-evaluates the *spec* transducer's output program,
//!   restricted to logged relations, with a delta-aware
//!   [`StepEvaluator`]: per step it joins only against the state delta, so a
//!   length-N run costs N bounded steps, not an O(N²) re-scan.  Any
//!   divergence between the observed log slice and the spec's is a
//!   [`Violation`] with the offending relation and tuple.  The monitor also
//!   feeds a symbolic [`LogAuditCursor`]; [`SessionMonitor::audit`] runs the
//!   full Theorem 3.1 satisfiability check on demand.
//! * **Temporal properties (Theorem 3.3, per-step form)** — registered
//!   `T_past-input` sentences are checked with [`step_satisfies`] against
//!   each step's output and pre-step state.
//! * **Forbidden goals** — registered [`Goal`]s are matched against each
//!   step's output ([`Goal::satisfied_in`]); a match is a violation (e.g.
//!   "the run reached `oversold`").
//!
//! The monitor never perturbs the run: observation is read-only, and a
//! monitored run is bit-identical to an unmonitored one (property-tested in
//! the integration suite).

use crate::enforce::SdiConstraint;
use crate::log_validation::{LogAuditCursor, LogValidity};
use crate::reachability::Goal;
use crate::temporal::step_satisfies;
use crate::VerifyError;
use rtx_core::{CoreError, SessionObserver, SpocusTransducer, Violation, ViolationKind};
use rtx_datalog::{
    Atom, BodyLiteral, ChangeClass, CompiledProgram, EvalBudget, Parallelism, Program, ResidentDb,
    ResidentView, Rule, StepEvaluator,
};
use rtx_logic::{Formula, Term};
use rtx_relational::{Instance, RelationName, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Maps a verifier-layer error onto the observer contract's error type.
fn core_err(e: VerifyError) -> CoreError {
    CoreError::Runtime {
        detail: format!("monitor: {e}"),
    }
}

/// One registered admission constraint, compiled into its witness-carrying
/// gate head.
#[derive(Debug, Clone)]
struct GateHead {
    /// The synthetic head relation the constraint's error rules derive.
    head: RelationName,
    /// The user-facing constraint name, reported on violations.
    name: String,
    /// The witness variables, in head-argument order.
    vars: Vec<String>,
    /// The antecedent atom instantiated to name the offending tuple
    /// (preferring an input-vocabulary atom).
    witness: Option<Atom>,
}

/// The compiled admission gate: every constraint's error rules in one
/// program, plus its prepared view of the shared catalog.
#[derive(Debug, Clone)]
struct Gate {
    program: CompiledProgram,
    heads: Vec<GateHead>,
    view: ResidentView,
}

/// An online monitor for one session — see the [module docs](self).
///
/// Construction is builder-style: [`SessionMonitor::new`] wires the spec and
/// the shared catalog, then [`with_constraint`](Self::with_constraint),
/// [`with_property`](Self::with_property) and
/// [`forbid_goal`](Self::forbid_goal) register checks.  Box it into
/// [`Session::attach_observer`](rtx_core::Session::attach_observer).
#[derive(Debug)]
pub struct SessionMonitor {
    spec: Arc<SpocusTransducer>,
    db: Arc<ResidentDb>,
    parallelism: Parallelism,
    /// Shadow evaluation of the spec's logged outputs.
    shadow_program: CompiledProgram,
    shadow: StepEvaluator,
    shadow_view: ResidentView,
    /// Admission gate (None until a constraint is registered).
    constraints: Vec<(String, SdiConstraint)>,
    gate: Option<Gate>,
    properties: Vec<(String, Formula)>,
    goals: Vec<(String, Goal)>,
    cursor: LogAuditCursor,
    /// Logged slices of observed steps not yet folded into the symbolic
    /// cursor.  Each entry is the step's input ∪ output restricted to the log
    /// schema — a handful of tuples.  Building the Theorem 3.1 membership
    /// formulas from them is pure symbol pushing, but the most
    /// allocation-heavy part of a step, so it is deferred off the per-step
    /// hot path and paid only when the cursor is actually consulted
    /// ([`SessionMonitor::audit`]).
    pending_log: Vec<Instance>,
    /// Cached catalog snapshot for FO property evaluation, keyed by the
    /// database version stamp.
    db_snapshot: Option<(u64, Instance)>,
    /// State mirror: the spec state before the next step, its predecessor,
    /// and the delta between them (same cumulation as the session itself).
    state: Instance,
    old_state: Instance,
    delta: Instance,
    steps: usize,
    /// Join derivations performed by the monitor's own evaluations so far —
    /// the work counter that pins the O(step) claim in tests.
    work: u64,
}

impl SessionMonitor {
    /// Creates a monitor validating sessions against `spec` over the shared
    /// catalog `db`.  The monitored session may run `spec` itself
    /// (self-validation) or a customization of it — the log comparison only
    /// covers the spec's logged output relations.
    pub fn new(spec: Arc<SpocusTransducer>, db: Arc<ResidentDb>) -> Result<Self, VerifyError> {
        let schema = spec.schema();
        let log = schema.log().clone();
        let shadow_rules: Vec<Rule> = spec
            .output_program()
            .rules()
            .iter()
            .filter(|rule| log.contains(&rule.head.relation))
            .cloned()
            .collect();
        // Seed the join order on the input relations: a step's input is
        // bounded by the step, not the run, so the shadow's volatile passes
        // drive their joins from it instead of scanning the grown state.
        let input_seeds: BTreeSet<RelationName> =
            schema.input().iter().map(|(n, _)| n.clone()).collect();
        let shadow_program =
            CompiledProgram::compile_seeded(&Program::new(shadow_rules), &input_seeds)
                .map_err(VerifyError::from)?;
        let input = schema.input().clone();
        let state = schema.state().clone();
        let classify = move |name: &RelationName| {
            if input.contains(name.clone()) {
                ChangeClass::Volatile
            } else if state.contains(name.clone()) {
                ChangeClass::GrowOnly
            } else {
                ChangeClass::Static
            }
        };
        let shadow = StepEvaluator::new(&shadow_program, classify).map_err(VerifyError::from)?;
        let shadow_view = db.view_for(&shadow_program);
        let empty_state = Instance::empty(schema.state());
        Ok(SessionMonitor {
            spec,
            db,
            parallelism: Parallelism::default(),
            shadow_program,
            shadow,
            shadow_view,
            constraints: Vec::new(),
            gate: None,
            properties: Vec::new(),
            goals: Vec::new(),
            cursor: LogAuditCursor::new(),
            pending_log: Vec::new(),
            db_snapshot: None,
            state: empty_state.clone(),
            old_state: empty_state.clone(),
            delta: empty_state,
            steps: 0,
            work: 0,
        })
    }

    /// Sets the [`Parallelism`] policy the monitor's evaluations run under.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self.shadow.set_parallelism(parallelism);
        self
    }

    /// Registers a named `T_sdi` admission constraint (Theorem 4.1): inputs
    /// matching its antecedent with no consequent escape raise a
    /// [`ViolationKind::Constraint`] violation at admission, *before* the
    /// run advances.  Fails if the constraint mentions a relation outside
    /// the spec's input ∪ state ∪ db vocabulary.
    pub fn with_constraint(
        mut self,
        name: impl Into<String>,
        constraint: SdiConstraint,
    ) -> Result<Self, VerifyError> {
        let name = name.into();
        self.check_constraint_vocabulary(&name, &constraint)?;
        self.constraints.push((name, constraint));
        self.rebuild_gate()?;
        Ok(self)
    }

    /// A fresh monitor for another session of the same spec.  The compiled
    /// shadow program, admission gate, properties and goals — everything
    /// construction paid for — are shared with `self`; all per-session run
    /// state (cursor, state mirror, step and work counters) starts empty.
    /// This is the cheap way to guard a fleet: build one fully configured
    /// prototype, then `fork` it once per session.
    pub fn fork(&self) -> SessionMonitor {
        let empty_state = Instance::empty(self.spec.schema().state());
        let mut shadow = self.shadow.clone();
        shadow.reset();
        SessionMonitor {
            spec: Arc::clone(&self.spec),
            db: Arc::clone(&self.db),
            parallelism: self.parallelism,
            shadow_program: self.shadow_program.clone(),
            shadow,
            shadow_view: self.shadow_view.clone(),
            constraints: self.constraints.clone(),
            gate: self.gate.clone(),
            properties: self.properties.clone(),
            goals: self.goals.clone(),
            cursor: LogAuditCursor::new(),
            pending_log: Vec::new(),
            db_snapshot: None,
            state: empty_state.clone(),
            old_state: empty_state.clone(),
            delta: empty_state,
            steps: 0,
            work: 0,
        }
    }

    /// Registers a named `T_past-input` temporal property (Theorem 3.3),
    /// checked per step with [`step_satisfies`].
    pub fn with_property(mut self, name: impl Into<String>, property: Formula) -> Self {
        self.properties.push((name.into(), property));
        self
    }

    /// Registers a named forbidden goal: a step whose output satisfies the
    /// goal raises a [`ViolationKind::Goal`] violation.
    pub fn forbid_goal(mut self, name: impl Into<String>, goal: Goal) -> Self {
        self.goals.push((name.into(), goal));
        self
    }

    /// Number of steps observed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Join derivations performed by the monitor's own evaluations so far.
    /// Incremental validation means the per-step increment is bounded by the
    /// step's own input/delta, independent of how long the run already is.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// The symbolic Theorem 3.1 cursor over the log observed so far, after
    /// folding any steps whose formulas were deferred off the hot path.
    pub fn cursor(&mut self) -> Result<&LogAuditCursor, VerifyError> {
        self.flush_cursor()?;
        Ok(&self.cursor)
    }

    /// Runs the full Theorem 3.1 satisfiability audit over the log observed
    /// so far: is it producible by the *spec* at all?  `db` is the catalog
    /// instance to audit against (typically
    /// [`ResidentDb::snapshot`]).  This is the deep, on-demand check; the
    /// per-step shadow comparison is the cheap incremental one.
    pub fn audit(&mut self, db: &Instance) -> Result<LogValidity, VerifyError> {
        self.flush_cursor()?;
        self.cursor.validate(&self.spec, db)
    }

    /// Folds every pending logged step into the symbolic cursor.  Each step
    /// is symbolised exactly once, so a run audited after every step still
    /// pays O(step) formula building per step, never O(run²).
    fn flush_cursor(&mut self) -> Result<(), VerifyError> {
        for logged in std::mem::take(&mut self.pending_log) {
            self.cursor.push_step(&self.spec, &logged)?;
        }
        Ok(())
    }

    fn check_constraint_vocabulary(
        &self,
        name: &str,
        constraint: &SdiConstraint,
    ) -> Result<(), VerifyError> {
        let schema = self.spec.schema();
        let known = |relation: &RelationName| {
            schema.input().contains(relation.clone())
                || schema.state().contains(relation.clone())
                || schema.db().contains(relation.clone())
        };
        let mut mentioned: BTreeSet<RelationName> = BTreeSet::new();
        for lit in &constraint.antecedent {
            match lit {
                BodyLiteral::Positive(a) | BodyLiteral::Negative(a) => {
                    mentioned.insert(a.relation.clone());
                }
                BodyLiteral::NotEqual(..) => {}
            }
        }
        for (relation, _arity) in constraint.consequent.relations()? {
            mentioned.insert(relation);
        }
        for relation in mentioned {
            if !known(&relation) {
                return Err(VerifyError::UnsupportedProperty {
                    detail: format!(
                        "constraint `{name}` mentions `{relation}`, which is not an input, state or database relation of spec `{}`",
                        self.spec.name()
                    ),
                });
            }
        }
        Ok(())
    }

    fn rebuild_gate(&mut self) -> Result<(), VerifyError> {
        let input_schema = self.spec.schema().input().clone();
        let mut rules = Vec::new();
        let mut heads = Vec::new();
        for (index, (name, constraint)) in self.constraints.iter().enumerate() {
            // '@' keeps the synthetic head out of the user-definable name
            // space (the rule parser only accepts word characters and '-').
            let head = format!("viol@{index}");
            rules.extend(constraint.compile_to_error_rules_named(&head)?);
            let witness = constraint
                .antecedent
                .iter()
                .filter_map(|lit| match lit {
                    BodyLiteral::Positive(atom) => Some(atom),
                    _ => None,
                })
                .find(|atom| input_schema.contains(atom.relation.clone()))
                .or_else(|| {
                    constraint.antecedent.iter().find_map(|lit| match lit {
                        BodyLiteral::Positive(atom) => Some(atom),
                        _ => None,
                    })
                })
                .cloned();
            heads.push(GateHead {
                head: RelationName::new(head),
                name: name.clone(),
                vars: constraint.witness_variables(),
                witness,
            });
        }
        let program = CompiledProgram::compile(&Program::new(rules)).map_err(VerifyError::from)?;
        let view = self.db.view_for(&program);
        self.gate = Some(Gate {
            program,
            heads,
            view,
        });
        Ok(())
    }

    /// The catalog snapshot for FO evaluation, re-taken only when the
    /// catalog's version stamp moved.
    fn snapshot(&mut self) -> &Instance {
        let version = self.db.version();
        if self.db_snapshot.as_ref().map(|(v, _)| *v) != Some(version) {
            self.db_snapshot = Some((version, self.db.snapshot()));
        }
        &self.db_snapshot.as_ref().expect("just filled").1
    }

    /// Cumulates the state mirror after an admitted step, exactly as the
    /// session's own stepper does (`past-R := past-R ∪ R`).
    fn cumulate(&mut self, input: &Instance) -> Result<(), CoreError> {
        let mut next = self.state.clone();
        let mut delta = Instance::empty(self.spec.schema().state());
        for (name, rel) in input.iter() {
            let past = name.past();
            if rel.is_empty() || next.get(&past).is_none() {
                continue;
            }
            let prev = self.state.get(&past).expect("state mirrors next");
            if prev.is_empty() {
                delta.absorb_relation(past.clone(), rel)?;
            } else {
                for tuple in rel.iter() {
                    if !prev.contains(tuple) {
                        delta.insert(past.clone(), tuple.clone())?;
                    }
                }
            }
            next.absorb_relation(past, rel)?;
        }
        self.old_state = std::mem::replace(&mut self.state, next);
        self.delta = delta;
        Ok(())
    }
}

/// Instantiates `atom` under the witness binding `vars ↦ row`, producing the
/// concrete offending tuple to report.  `None` if the atom uses a variable
/// outside the witness (cannot happen for `T_sdi` antecedents, where every
/// variable occurs positively).
fn instantiate_witness(atom: &Atom, vars: &[String], row: &Tuple) -> Option<(RelationName, Tuple)> {
    let mut values = Vec::with_capacity(atom.args.len());
    for arg in &atom.args {
        match arg {
            Term::Var(v) => {
                let pos = vars.iter().position(|w| w == v)?;
                values.push(*row.values().get(pos)?);
            }
            Term::Const(c) => values.push(*c),
        }
    }
    Some((atom.relation.clone(), Tuple::new(values)))
}

impl SessionObserver for SessionMonitor {
    fn admit(&mut self, step: usize, input: &Instance) -> Result<Vec<Violation>, CoreError> {
        let Some(gate) = self.gate.as_mut() else {
            return Ok(Vec::new());
        };
        if !self.db.view_is_current(&gate.view) {
            gate.view = self.db.view_for(&gate.program);
        }
        let (derived, stats) = gate
            .program
            .evaluate(
                &[input, &self.state],
                Some(&gate.view),
                self.parallelism,
                EvalBudget::UNLIMITED,
            )
            .map_err(CoreError::Datalog)?;
        self.work += stats.tuples_derived;
        let mut violations = Vec::new();
        for head in &gate.heads {
            let Some(rows) = derived.get(&head.head) else {
                continue;
            };
            for row in rows.iter() {
                let (relation, tuple) = head
                    .witness
                    .as_ref()
                    .and_then(|atom| instantiate_witness(atom, &head.vars, row))
                    .map(|(r, t)| (Some(r), Some(t)))
                    .unwrap_or((None, None));
                violations.push(Violation {
                    step,
                    kind: ViolationKind::Constraint,
                    source: head.name.clone(),
                    relation,
                    tuple,
                    detail: "input matches the constraint antecedent with no consequent escape"
                        .into(),
                });
            }
        }
        Ok(violations)
    }

    fn observe(
        &mut self,
        step: usize,
        input: &Instance,
        output: &Instance,
    ) -> Result<Vec<Violation>, CoreError> {
        let mut violations = Vec::new();

        // Incremental shadow validation of the logged output relations: the
        // spec's own per-step derivation, delta-joined against the state
        // mirror, compared tuple-for-tuple with the observed output.
        if !self.db.view_is_current(&self.shadow_view) {
            let stale = self.db.stale_relations(&self.shadow_view);
            self.shadow_view = self.db.view_for(&self.shadow_program);
            self.shadow.invalidate_relations(&stale);
        }
        let (expected, stats) = self.shadow.step(
            &self.shadow_program,
            input,
            &self.state,
            &self.old_state,
            &self.delta,
            &self.shadow_view,
        )?;
        self.work += stats.tuples_derived;
        for (relation, _arity) in self.shadow_program.out_schema().iter() {
            let expected_rel = expected.get(relation);
            let observed_rel = output.get(relation);
            // Fast path: identical tuple sets — the overwhelmingly common
            // case on honest runs — settled by one set comparison instead of
            // per-tuple membership probes in both directions.
            let agree = match (expected_rel, observed_rel) {
                (None, None) => true,
                (Some(e), None) => e.is_empty(),
                (None, Some(o)) => o.is_empty(),
                (Some(e), Some(o)) => e == o,
            };
            if agree {
                continue;
            }
            for tuple in observed_rel.map(|r| r.iter()).into_iter().flatten() {
                if !expected_rel.is_some_and(|r| r.contains(tuple)) {
                    violations.push(Violation {
                        step,
                        kind: ViolationKind::Log,
                        source: relation.as_str().to_string(),
                        relation: Some(relation.clone()),
                        tuple: Some(tuple.clone()),
                        detail: "logged output tuple is not derivable from the spec at this step"
                            .into(),
                    });
                }
            }
            for tuple in expected_rel.map(|r| r.iter()).into_iter().flatten() {
                if !observed_rel.is_some_and(|r| r.contains(tuple)) {
                    violations.push(Violation {
                        step,
                        kind: ViolationKind::Log,
                        source: relation.as_str().to_string(),
                        relation: Some(relation.clone()),
                        tuple: Some(tuple.clone()),
                        detail: "spec-mandated output tuple is missing from the log".into(),
                    });
                }
            }
        }

        // Buffer the step's logged slice for the symbolic Theorem 3.1
        // cursor.  Formula building happens on demand (`audit`/`cursor`);
        // here only the few logged tuples are copied.
        let log_names = self.spec.schema().log();
        let logged = input
            .restrict_to_set(log_names)
            .union(&output.restrict_to_set(log_names))
            .map_err(|e| core_err(VerifyError::from(e)))?;
        self.pending_log.push(logged);

        // Per-step temporal properties (Theorem 3.3) over output, pre-step
        // state and the catalog snapshot.
        if !self.properties.is_empty() {
            let state = self.state.clone();
            let db = self.snapshot().clone();
            for (name, property) in &self.properties {
                if !step_satisfies(property, output, &state, &db).map_err(core_err)? {
                    violations.push(Violation {
                        step,
                        kind: ViolationKind::Temporal,
                        source: name.clone(),
                        relation: None,
                        tuple: None,
                        detail: "temporal property does not hold at this step".into(),
                    });
                }
            }
        }

        // Forbidden goals over the step's output.
        for (name, goal) in &self.goals {
            if goal.satisfied_in(output) {
                violations.push(Violation {
                    step,
                    kind: ViolationKind::Goal,
                    source: name.clone(),
                    relation: None,
                    tuple: None,
                    detail: "forbidden goal is satisfied by the step's output".into(),
                });
            }
        }

        self.cumulate(input)?;
        self.steps += 1;
        Ok(violations)
    }
}
