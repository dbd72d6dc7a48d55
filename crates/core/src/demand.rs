//! Per-session demand: which slice of the output a session actually reads.
//!
//! A [`Session`](crate::Session) of the resident runtime usually probes its
//! transducer's output relations at the keys of one customer interaction —
//! the products of this step's `order`, one fixed customer id — not across
//! the whole shared catalog.  A [`SessionDemand`] states that footprint as a
//! set of [`SessionGoal`]s, one per demanded output relation:
//!
//! * a binding **pattern** over the relation's columns (`"bf"` = first
//!   column bound), the [`Adornment`] of the magic-set rewrite;
//! * optional **constants** for the bound columns known for the whole
//!   session (a customer id, a session key);
//! * optional **input projections**: per step, the bound values are the
//!   projection of one of the step's input relations, so demand follows the
//!   session's own activity with no caller bookkeeping.
//!
//! [`Runtime::open_session_with_demand`](crate::Runtime::open_session_with_demand)
//! compiles the demand into an internal plan: under
//! [`DemandPolicy::Demand`] the output program is rewritten through
//! [`magic_rewrite`] and each step evaluates the rewritten program with the
//! session's magic seed facts as volatile per-step state (never stamped into
//! the shared database); under [`DemandPolicy::Full`] the original program
//! evaluates unrewritten and the output is filtered to the same footprint.
//! Both modes produce **identical** step outputs — the policy is purely a
//! performance knob, like [`Parallelism`](rtx_datalog::Parallelism).

use crate::{CoreError, SpocusTransducer};
use rtx_datalog::{
    magic_rewrite, Adornment, CompiledProgram, DatalogError, DemandGoal, DemandPolicy,
    DemandProgram,
};
use rtx_relational::{Instance, RelationName, Schema, Tuple};
use std::collections::BTreeSet;
use std::fmt;

/// One demanded output relation of a session: its binding pattern plus where
/// the bound values come from (session constants, per-step input
/// projections, or both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionGoal {
    relation: RelationName,
    adornment: Adornment,
    constants: Vec<Tuple>,
    projections: Vec<(RelationName, Vec<usize>)>,
    specialize: bool,
}

impl SessionGoal {
    /// A goal over `relation` under a `b`/`f` binding pattern (see
    /// [`Adornment::parse`]).  An all-free pattern demands the whole
    /// relation; a pattern with bound columns needs at least one seed source
    /// ([`SessionGoal::with_constants`] or [`SessionGoal::from_input`]).
    pub fn new(relation: impl Into<RelationName>, pattern: &str) -> Result<SessionGoal, CoreError> {
        Ok(SessionGoal {
            relation: relation.into(),
            adornment: Adornment::parse(pattern).map_err(CoreError::Datalog)?,
            constants: Vec::new(),
            projections: Vec::new(),
            specialize: false,
        })
    }

    /// Adds session-constant seed tuples over the bound columns (ascending
    /// column order), demanded at every step of the session.
    pub fn with_constants<I>(mut self, constants: I) -> SessionGoal
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.constants.extend(constants);
        self
    }

    /// Adds a per-step seed source: at each step, every tuple of the named
    /// input relation is projected onto `columns` (one column per bound goal
    /// column, in ascending bound-column order) and demanded for that step.
    pub fn from_input<I>(mut self, relation: impl Into<RelationName>, columns: I) -> SessionGoal
    where
        I: IntoIterator<Item = usize>,
    {
        self.projections
            .push((relation.into(), columns.into_iter().collect()));
        self
    }

    /// Requests constant specialization: the goal's rules are partially
    /// evaluated against the constants ([`DemandGoal::constants`]) instead of
    /// guarded by a magic predicate.  Requires at least one constant and no
    /// input projections (specialization happens once, at session open).
    pub fn specialized(mut self) -> SessionGoal {
        self.specialize = true;
        self
    }

    /// The demanded output relation.
    pub fn relation(&self) -> &RelationName {
        &self.relation
    }

    /// The binding pattern.
    pub fn adornment(&self) -> &Adornment {
        &self.adornment
    }

    /// The session-constant seeds.
    pub fn constants(&self) -> &[Tuple] {
        &self.constants
    }

    /// The per-step input projections.
    pub fn projections(&self) -> &[(RelationName, Vec<usize>)] {
        &self.projections
    }

    /// True if the goal requests constant specialization.
    pub fn is_specialized(&self) -> bool {
        self.specialize
    }

    fn invalid(&self, why: impl fmt::Display) -> CoreError {
        CoreError::Datalog(DatalogError::DemandUnsupported {
            reason: format!(
                "session goal {}@{}: {why}",
                self.relation.as_str(),
                self.adornment
            ),
        })
    }

    /// Validates the goal against the transducer's schemas.
    fn validate(&self, transducer: &SpocusTransducer) -> Result<(), CoreError> {
        let schema = transducer.schema();
        let Some(arity) = schema.output().arity_of(self.relation.clone()) else {
            return Err(self.invalid("not an output relation of the transducer"));
        };
        if arity != self.adornment.arity() {
            return Err(self.invalid(format!(
                "adornment arity {} does not match relation arity {arity}",
                self.adornment.arity()
            )));
        }
        let bound = self.adornment.bound_count();
        if bound == 0 && !(self.constants.is_empty() && self.projections.is_empty()) {
            return Err(self.invalid("an all-free goal takes no seeds"));
        }
        if self.specialize {
            if self.constants.is_empty() {
                return Err(self.invalid("specialization requires at least one constant seed"));
            }
            if !self.projections.is_empty() {
                return Err(
                    self.invalid("specialization is incompatible with per-step input projections")
                );
            }
        }
        for tuple in &self.constants {
            if tuple.arity() != bound {
                return Err(self.invalid(format!(
                    "constant seed arity {} does not match the {bound} bound column(s)",
                    tuple.arity()
                )));
            }
        }
        for (input, columns) in &self.projections {
            let Some(input_arity) = schema.input().arity_of(input.clone()) else {
                return Err(self.invalid(format!("`{input}` is not an input relation")));
            };
            if columns.len() != bound {
                return Err(self.invalid(format!(
                    "projection of `{input}` names {} column(s) for {bound} bound column(s)",
                    columns.len()
                )));
            }
            if let Some(&bad) = columns.iter().find(|&&c| c >= input_arity) {
                return Err(self.invalid(format!(
                    "projection column {bad} is out of range for `{input}` (arity {input_arity})"
                )));
            }
        }
        Ok(())
    }

    /// The [`DemandGoal`] driving the magic-set rewrite for this goal.
    fn demand_goal(&self) -> Result<DemandGoal, CoreError> {
        let goal = if self.specialize {
            DemandGoal::constants(
                self.relation.clone(),
                &self.adornment.to_string(),
                self.constants.iter().cloned(),
            )
        } else if self.adornment.has_bound() {
            DemandGoal::seeded(self.relation.clone(), &self.adornment.to_string())
                .map(|g| g.with_seeds(self.constants.iter().cloned()))
        } else {
            Ok(DemandGoal::free(
                self.relation.clone(),
                self.adornment.arity(),
            ))
        };
        goal.map_err(CoreError::Datalog)
    }
}

/// The demanded footprint of one session: a set of [`SessionGoal`]s over the
/// transducer's output relations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionDemand {
    goals: Vec<SessionGoal>,
}

impl SessionDemand {
    /// An empty demand (add goals with [`SessionDemand::goal`]).
    pub fn new() -> SessionDemand {
        SessionDemand::default()
    }

    /// Adds a goal.
    pub fn goal(mut self, goal: SessionGoal) -> SessionDemand {
        self.goals.push(goal);
        self
    }

    /// The goals.
    pub fn goals(&self) -> &[SessionGoal] {
        &self.goals
    }

    /// True if no goal was stated.
    pub fn is_empty(&self) -> bool {
        self.goals.is_empty()
    }
}

/// How a demand plan evaluates a step.
#[derive(Debug)]
enum PlanMode {
    /// Evaluate the magic-set-rewritten program, seeded per step, and map
    /// the adorned result back ([`DemandProgram::restrict_with`]).
    Rewritten {
        compiled: CompiledProgram,
        /// Schema of the merged per-step volatile instance: the transducer
        /// input relations plus the magic seed relations.
        volatile_schema: Schema,
    },
    /// Evaluate the original program in full and filter the output to the
    /// demanded footprint ([`DemandProgram::footprint_with`]) — the
    /// [`DemandPolicy::Full`] fallback, result-identical to `Rewritten`.
    Restricted { rewrite: DemandProgram },
}

/// A compiled [`SessionDemand`]: everything a session stepper needs to seed,
/// evaluate and restrict one step under the demand.  Built by
/// [`Runtime::open_session_with_demand`](crate::Runtime::open_session_with_demand).
#[derive(Debug)]
pub(crate) struct DemandPlan {
    spec: SessionDemand,
    policy: DemandPolicy,
    mode: PlanMode,
}

impl DemandPlan {
    /// Validates `spec` against the transducer and compiles it under
    /// `policy`.
    pub(crate) fn new(
        transducer: &SpocusTransducer,
        spec: SessionDemand,
        policy: DemandPolicy,
    ) -> Result<DemandPlan, CoreError> {
        if spec.is_empty() {
            return Err(CoreError::Datalog(DatalogError::DemandUnsupported {
                reason: "a session demand must state at least one goal".to_string(),
            }));
        }
        let mut goals = Vec::with_capacity(spec.goals().len());
        for goal in spec.goals() {
            goal.validate(transducer)?;
            goals.push(goal.demand_goal()?);
        }
        let rewrite =
            magic_rewrite(transducer.output_program(), &goals).map_err(CoreError::Datalog)?;
        let mode = match policy {
            DemandPolicy::Demand => {
                let volatile_schema = transducer
                    .schema()
                    .input()
                    .union(rewrite.magic_schema())
                    .map_err(CoreError::Relational)?;
                let compiled =
                    CompiledProgram::compile_demand_program(rewrite).map_err(CoreError::Datalog)?;
                PlanMode::Rewritten {
                    compiled,
                    volatile_schema,
                }
            }
            DemandPolicy::Full => PlanMode::Restricted { rewrite },
        };
        Ok(DemandPlan { spec, policy, mode })
    }

    /// The policy the plan was compiled under.
    pub(crate) fn policy(&self) -> DemandPolicy {
        self.policy
    }

    /// The demand the plan was compiled from.
    pub(crate) fn spec(&self) -> &SessionDemand {
        &self.spec
    }

    /// The rewritten, compiled program — `None` under the
    /// [`DemandPolicy::Full`] fallback (the stepper evaluates the original
    /// program).
    pub(crate) fn compiled(&self) -> Option<&CompiledProgram> {
        match &self.mode {
            PlanMode::Rewritten { compiled, .. } => Some(compiled),
            PlanMode::Restricted { .. } => None,
        }
    }

    /// The demand rewrite (seed names, restriction, footprint).
    pub(crate) fn rewrite(&self) -> &DemandProgram {
        match &self.mode {
            PlanMode::Rewritten { compiled, .. } => compiled
                .demand()
                .expect("a demand-compiled program carries its rewrite"),
            PlanMode::Restricted { rewrite } => rewrite,
        }
    }

    /// The magic seed relation names (empty under the fallback: nothing is
    /// seeded, the filter works from the same per-step seed instance).
    pub(crate) fn magic_names(&self) -> BTreeSet<RelationName> {
        self.rewrite().magic_schema().names().cloned().collect()
    }

    /// Builds the step's magic seed instance: the static session constants
    /// plus, for every input projection, the projection of this step's input
    /// tuples onto the goal's bound columns.
    pub(crate) fn seed_instance(&self, input: &Instance) -> Result<Instance, CoreError> {
        let rewrite = self.rewrite();
        let mut seeds = rewrite.seed_instance();
        for goal in self.spec.goals() {
            let Some(seed_rel) = rewrite.seed_relation(goal.relation(), goal.adornment()) else {
                continue;
            };
            for (input_rel, columns) in goal.projections() {
                let Some(relation) = input.get(input_rel) else {
                    continue;
                };
                for tuple in relation.iter() {
                    let key = tuple
                        .project(columns)
                        .expect("projection columns were validated at session open");
                    seeds
                        .insert(seed_rel.clone(), key)
                        .map_err(CoreError::Relational)?;
                }
            }
        }
        Ok(seeds)
    }

    /// Merges the step input and its magic seeds into the rewritten
    /// program's volatile instance (only meaningful in `Rewritten` mode).
    pub(crate) fn volatile_instance(
        &self,
        input: &Instance,
        seeds: &Instance,
    ) -> Result<Instance, CoreError> {
        let PlanMode::Rewritten {
            volatile_schema, ..
        } = &self.mode
        else {
            unreachable!("volatile merging is only used on the rewritten path");
        };
        let mut merged = Instance::empty(volatile_schema);
        merged.absorb(input).map_err(CoreError::Relational)?;
        merged.absorb(seeds).map_err(CoreError::Relational)?;
        Ok(merged)
    }
}
