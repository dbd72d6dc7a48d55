//! Demand-driven evaluation: the magic-set rewrite and constant
//! specialization.
//!
//! A transducer step never reads the whole derived database — it probes the
//! handful of output/log relations its schema names, usually at the keys of
//! one session (one customer, one order).  This module turns that *demand*
//! into a program transformation, so evaluation derives only the footprint a
//! step can observe instead of the full IDB over the shared catalog.
//!
//! The lifecycle is **adorn → seed → specialize → evaluate**:
//!
//! 1. **Adorn.**  Each [`DemandGoal`] names a derived relation and an
//!    [`Adornment`] — a bound/free pattern over its columns (`bf` = first
//!    column bound).  [`magic_rewrite`] propagates bindings sideways through
//!    rule bodies (left to right, the textbook SIP), producing adorned
//!    predicates `p@bf` for every reachable (relation, pattern) pair and
//!    dropping rules no goal can reach.
//! 2. **Seed.**  Every adorned predicate with at least one bound column is
//!    guarded by a *magic* predicate `m@p@bf` holding the demanded
//!    bindings.  Goal-level magic relations are *seed* relations: the caller
//!    populates them ([`DemandProgram::seed_instance`] for static seeds, a
//!    per-session instance for runtime seeds) and they are never derived
//!    into the shared database.  Rules whose bodies pass through more than
//!    one derived subgoal are chained through *supplementary* predicates
//!    `s@…` that carry exactly the bindings later literals still need.
//! 3. **Specialize.**  A goal whose bound values are known statically
//!    ([`DemandGoal::constants`]) is *constant-specialized* instead of
//!    guarded: its rules are partially evaluated against each seed tuple,
//!    substituting the session constants into heads and bodies, so the
//!    compiled join order starts from the constants with no magic join at
//!    all.
//! 4. **Evaluate.**  The rewritten [`Program`] evaluates on any engine in
//!    the crate.  [`DemandProgram::restrict`] maps the adorned result back
//!    to the original goal relations (union over adornments), hiding the
//!    magic/supplementary apparatus.
//!
//! The rewrite is *sound and complete for the demanded footprint*: for every
//! goal, the restricted result holds exactly the tuples of the full
//! evaluation that match some seed (all tuples, for an all-free goal).
//! Negated body atoms over derived relations are demanded **all-free** — the
//! negation then tests the complete relation, which keeps stratified
//! semantics intact (a bound adornment on a negated atom would be unsound).
//! A rewrite whose magic rules would break stratification is rejected at
//! compile time (`NotStratifiable`); callers fall back to full evaluation.

use crate::ast::{Atom, BodyLiteral, Program, Rule};
use crate::error::DatalogError;
use rtx_logic::Term;
use rtx_relational::{Instance, RelationName, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Whether an evaluation applies the demand rewrite.
///
/// The process-wide default comes from the `RTX_DEMAND` environment variable
/// ([`DemandPolicy::from_env_setting`] — strict: a malformed value is a hard
/// error, never a silent fallback); a runtime or caller can override it
/// programmatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemandPolicy {
    /// Evaluate the program as written (no rewrite).
    #[default]
    Full,
    /// Rewrite through [`magic_rewrite`] before evaluating.  Callers that
    /// state no explicit goals demand every derived relation all-free, which
    /// is result-identical to [`DemandPolicy::Full`] (and prunes rules
    /// unreachable from any head).
    Demand,
}

impl DemandPolicy {
    /// The accepted forms of `RTX_DEMAND`, for the strict-parse error
    /// message.
    pub const ENV_EXPECTED: &'static str = "`demand`/`on` or `full`/`off`";

    /// Parses one (pre-trimmed, non-empty) `RTX_DEMAND` token: `full`/`off`
    /// or `demand`/`on`, ASCII case-insensitive.
    fn parse_token(value: &str) -> Option<DemandPolicy> {
        match value.to_ascii_lowercase().as_str() {
            "full" | "off" => Some(DemandPolicy::Full),
            "demand" | "on" => Some(DemandPolicy::Demand),
            _ => None,
        }
    }

    /// Strictly parses an `RTX_DEMAND` value through the shared
    /// [`env`](rtx_relational::env) contract: `Ok(None)` when unset or
    /// blank, `Ok(Some(_))` for a well-formed value, and a hard
    /// [`EnvParseError`](rtx_relational::env::EnvParseError) when malformed —
    /// a typo'd kill switch (`RTX_DEMAND=ful`) must fail loudly, not
    /// silently leave demand evaluation on.
    pub fn from_env_setting(
        raw: Option<&str>,
    ) -> Result<Option<DemandPolicy>, rtx_relational::env::EnvParseError> {
        rtx_relational::env::parse_setting("RTX_DEMAND", raw, Self::ENV_EXPECTED, Self::parse_token)
    }
}

impl fmt::Display for DemandPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DemandPolicy::Full => "full",
            DemandPolicy::Demand => "demand",
        })
    }
}

/// A bound/free pattern over the columns of one relation.
///
/// Rendered in the classical `b`/`f` string form: `bf` binds the first
/// column of a binary relation and leaves the second free.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Adornment {
    bound: Vec<bool>,
}

impl Adornment {
    /// Parses a `b`/`f` pattern string.
    pub fn parse(pattern: &str) -> Result<Adornment, DatalogError> {
        let mut bound = Vec::with_capacity(pattern.len());
        for c in pattern.chars() {
            match c {
                'b' => bound.push(true),
                'f' => bound.push(false),
                _ => {
                    return Err(DatalogError::Parse {
                        message: "adornment characters must be `b` or `f`".to_string(),
                        fragment: pattern.to_string(),
                    });
                }
            }
        }
        Ok(Adornment { bound })
    }

    /// The all-free adornment of the given arity.
    pub fn all_free(arity: usize) -> Adornment {
        Adornment {
            bound: vec![false; arity],
        }
    }

    /// The all-bound adornment of the given arity.
    pub fn all_bound(arity: usize) -> Adornment {
        Adornment {
            bound: vec![true; arity],
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.bound.len()
    }

    /// True if the column is bound.
    pub fn is_bound(&self, column: usize) -> bool {
        self.bound.get(column).copied().unwrap_or(false)
    }

    /// True if at least one column is bound.
    pub fn has_bound(&self) -> bool {
        self.bound.iter().any(|&b| b)
    }

    /// Number of bound columns (the arity of the matching magic relation).
    pub fn bound_count(&self) -> usize {
        self.bound.iter().filter(|&&b| b).count()
    }

    /// The bound column positions, ascending.
    pub fn bound_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.bound
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
    }

    fn from_bools(bound: Vec<bool>) -> Adornment {
        Adornment { bound }
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bound {
            f.write_str(if b { "b" } else { "f" })?;
        }
        Ok(())
    }
}

/// One demanded entry point into a program: a derived relation, the binding
/// pattern under which it is read, and (optionally) the bound values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandGoal {
    relation: RelationName,
    adornment: Adornment,
    seeds: Vec<Tuple>,
    specialize: bool,
}

impl DemandGoal {
    /// Demands every tuple of the relation (all columns free).
    pub fn free(relation: impl Into<RelationName>, arity: usize) -> DemandGoal {
        DemandGoal {
            relation: relation.into(),
            adornment: Adornment::all_free(arity),
            seeds: Vec::new(),
            specialize: false,
        }
    }

    /// Demands the relation under a bound pattern whose values arrive at
    /// evaluation time through the goal's magic seed relation
    /// ([`DemandProgram::seed_relation`]) — the per-session, per-step path.
    pub fn seeded(
        relation: impl Into<RelationName>,
        pattern: &str,
    ) -> Result<DemandGoal, DatalogError> {
        Ok(DemandGoal {
            relation: relation.into(),
            adornment: Adornment::parse(pattern)?,
            seeds: Vec::new(),
            specialize: false,
        })
    }

    /// Static seed tuples (over the bound columns, ascending) carried in
    /// [`DemandProgram::seed_instance`] in addition to any runtime seeds.
    pub fn with_seeds<I>(mut self, seeds: I) -> DemandGoal
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.seeds.extend(seeds);
        self
    }

    /// Demands the relation under a bound pattern whose values are known
    /// statically: the rules are *constant-specialized* (partially evaluated
    /// against each seed tuple) instead of guarded by a magic predicate.
    pub fn constants<I>(
        relation: impl Into<RelationName>,
        pattern: &str,
        seeds: I,
    ) -> Result<DemandGoal, DatalogError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        Ok(DemandGoal {
            relation: relation.into(),
            adornment: Adornment::parse(pattern)?,
            seeds: seeds.into_iter().collect(),
            specialize: true,
        })
    }

    /// The demanded relation.
    pub fn relation(&self) -> &RelationName {
        &self.relation
    }

    /// The binding pattern.
    pub fn adornment(&self) -> &Adornment {
        &self.adornment
    }

    /// The static seed tuples (over the bound columns, ascending).
    pub fn seeds(&self) -> &[Tuple] {
        &self.seeds
    }

    /// True if the goal is constant-specialized.
    pub fn is_specialized(&self) -> bool {
        self.specialize
    }

    fn unsupported(&self, why: &str) -> DatalogError {
        DatalogError::DemandUnsupported {
            reason: format!("goal {}@{}: {why}", self.relation.as_str(), self.adornment),
        }
    }
}

/// The result of [`magic_rewrite`]: the rewritten program plus everything a
/// caller needs to seed it and to map results back to the original schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandProgram {
    program: Program,
    goals: Vec<DemandGoal>,
    magic_schema: Schema,
    seed_facts: Vec<(RelationName, Tuple)>,
    seed_names: BTreeMap<(RelationName, Adornment), RelationName>,
    renames: BTreeMap<RelationName, RelationName>,
    auxiliary: BTreeSet<RelationName>,
    output_schema: Schema,
}

impl DemandProgram {
    /// The rewritten program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The goals the rewrite was driven by.
    pub fn goals(&self) -> &[DemandGoal] {
        &self.goals
    }

    /// Schema of the goal-level magic *seed* relations.  These are
    /// extensional inputs of the rewritten program: the caller provides
    /// their facts (they are per-evaluation demand, never part of the shared
    /// database).
    pub fn magic_schema(&self) -> &Schema {
        &self.magic_schema
    }

    /// The original relations the goals demand, with their arities — the
    /// schema of [`DemandProgram::restrict`]'s result.
    pub fn output_schema(&self) -> &Schema {
        &self.output_schema
    }

    /// The seed relation feeding a [`DemandGoal::seeded`] goal, if any.
    pub fn seed_relation(
        &self,
        relation: &RelationName,
        adornment: &Adornment,
    ) -> Option<&RelationName> {
        self.seed_names.get(&(relation.clone(), adornment.clone()))
    }

    /// The auxiliary (magic and supplementary) relations of the rewritten
    /// program.  Their derivations are engine bookkeeping, not answers.
    pub fn auxiliary(&self) -> &BTreeSet<RelationName> {
        &self.auxiliary
    }

    /// True for magic/supplementary relations.
    pub fn is_auxiliary(&self, relation: &RelationName) -> bool {
        self.auxiliary.contains(relation)
    }

    /// The static seed facts as an instance over [`magic_schema`]
    /// (empty relations for goals seeded only at runtime).
    ///
    /// [`magic_schema`]: DemandProgram::magic_schema
    pub fn seed_instance(&self) -> Instance {
        let mut out = Instance::empty(&self.magic_schema);
        for (name, tuple) in &self.seed_facts {
            out.insert(name.clone(), tuple.clone())
                .expect("seed facts were arity-checked during the rewrite");
        }
        out
    }

    /// Maps a derived instance of the rewritten program back onto the
    /// original goal relations: adorned relations are renamed and unioned
    /// into their original names, magic/supplementary relations are dropped,
    /// and each bound goal is filtered down to its *own* seeds (magic
    /// propagation legitimately derives answers for transitively demanded
    /// bindings too; those are engine work, not goal answers).
    ///
    /// Goals seeded at runtime are filtered against their static seeds only
    /// here — use [`DemandProgram::restrict_with`] to supply the runtime
    /// seed instance as well.
    pub fn restrict(&self, derived: &Instance) -> Instance {
        self.restrict_with(derived, None)
    }

    /// [`DemandProgram::restrict`], with an additional instance of runtime
    /// seed facts (over [`DemandProgram::magic_schema`] names) that bound
    /// goals are filtered against alongside their static seeds.
    pub fn restrict_with(&self, derived: &Instance, runtime_seeds: Option<&Instance>) -> Instance {
        let mut out = Instance::empty(&self.output_schema);
        for goal in &self.goals {
            let adorned = if goal.specialize {
                specialized_name(&goal.relation, &goal.adornment)
            } else {
                adorned_name(&goal.relation, &goal.adornment)
            };
            let Some(relation) = derived.get(&adorned) else {
                continue;
            };
            // Specialized rules already carry the seed constants in their
            // heads; all-free goals demand everything.  Both are exact.
            if goal.specialize || !goal.adornment.has_bound() {
                out.absorb_relation(goal.relation.clone(), relation)
                    .expect("adorned relations share their original arity");
                continue;
            }
            let seed_rel = self
                .seed_names
                .get(&(goal.relation.clone(), goal.adornment.clone()));
            let extra = seed_rel.and_then(|name| runtime_seeds.and_then(|seeds| seeds.get(name)));
            let columns: Vec<usize> = goal.adornment.bound_columns().collect();
            for tuple in relation.iter() {
                let key = tuple
                    .project(&columns)
                    .expect("adorned relations share the goal arity");
                if goal.seeds.contains(&key) || extra.is_some_and(|rel| rel.contains(&key)) {
                    out.insert(goal.relation.clone(), tuple.clone())
                        .expect("adorned relations share the goal arity");
                }
            }
        }
        out
    }

    /// Restricts a *full* (unrewritten) evaluation result to the goals'
    /// footprint: all tuples for an all-free goal, and the tuples matching
    /// some static seed on the bound columns otherwise.  This is the oracle
    /// the equivalence suite compares [`DemandProgram::restrict`] against.
    pub fn footprint(&self, full: &Instance) -> Instance {
        self.footprint_with(full, None)
    }

    /// [`DemandProgram::footprint`], with an additional instance of runtime
    /// seed facts (over [`DemandProgram::magic_schema`] names) matched
    /// alongside the static seeds — the full-evaluation twin of
    /// [`DemandProgram::restrict_with`], used by callers that fall back to
    /// an unrewritten evaluation but still owe the demanded footprint.
    pub fn footprint_with(&self, full: &Instance, runtime_seeds: Option<&Instance>) -> Instance {
        let mut out = Instance::empty(&self.output_schema);
        for goal in &self.goals {
            let Some(relation) = full.get(&goal.relation) else {
                continue;
            };
            if !goal.adornment.has_bound() {
                out.absorb_relation(goal.relation.clone(), relation)
                    .expect("footprint relations share the goal arity");
                continue;
            }
            let seed_rel = self
                .seed_names
                .get(&(goal.relation.clone(), goal.adornment.clone()));
            let extra = seed_rel.and_then(|name| runtime_seeds.and_then(|seeds| seeds.get(name)));
            let columns: Vec<usize> = goal.adornment.bound_columns().collect();
            for tuple in relation.iter() {
                let key = tuple
                    .project(&columns)
                    .expect("goal adornment arity was checked against the program");
                if goal.seeds.contains(&key) || extra.is_some_and(|rel| rel.contains(&key)) {
                    out.insert(goal.relation.clone(), tuple.clone())
                        .expect("footprint relations share the goal arity");
                }
            }
        }
        out
    }
}

/// The magic seed relation name for a demanded (relation, adornment) pair.
pub fn magic_relation(relation: &RelationName, adornment: &Adornment) -> RelationName {
    RelationName::new(format!("m@{}@{}", relation.as_str(), adornment))
}

fn adorned_name(relation: &RelationName, adornment: &Adornment) -> RelationName {
    if adornment.has_bound() {
        RelationName::new(format!("{}@{}", relation.as_str(), adornment))
    } else {
        relation.clone()
    }
}

fn specialized_name(relation: &RelationName, adornment: &Adornment) -> RelationName {
    RelationName::new(format!("{}@{}@c", relation.as_str(), adornment))
}

fn sup_name(
    relation: &RelationName,
    adornment: &Adornment,
    tag: &str,
    link: usize,
) -> RelationName {
    RelationName::new(format!(
        "s@{}@{}@{tag}@{link}",
        relation.as_str(),
        adornment
    ))
}

/// Partially evaluates one rule against one seed tuple: the seed values are
/// unified with the head terms at the adornment's bound columns and the
/// resulting substitution is applied to the whole rule.  Returns `None` when
/// a head constant (or a repeated head variable) conflicts with the seed —
/// the rule cannot produce a demanded tuple.
pub fn specialize(rule: &Rule, adornment: &Adornment, seed: &Tuple) -> Option<Rule> {
    let mut substitution: BTreeMap<String, rtx_relational::Value> = BTreeMap::new();
    for (i, column) in adornment.bound_columns().enumerate() {
        let value = *seed.get(i)?;
        match rule.head.args.get(column)? {
            Term::Const(existing) => {
                if *existing != value {
                    return None;
                }
            }
            Term::Var(name) => match substitution.get(name.as_str()) {
                Some(existing) if *existing != value => return None,
                _ => {
                    substitution.insert(name.clone(), value);
                }
            },
        }
    }
    let subst_term = |t: &Term| match t {
        Term::Var(name) => substitution
            .get(name.as_str())
            .map(|v| Term::constant(*v))
            .unwrap_or_else(|| t.clone()),
        Term::Const(_) => t.clone(),
    };
    let subst_atom = |a: &Atom| Atom {
        relation: a.relation.clone(),
        args: a.args.iter().map(subst_term).collect(),
    };
    Some(Rule {
        head: subst_atom(&rule.head),
        body: rule
            .body
            .iter()
            .map(|lit| match lit {
                BodyLiteral::Positive(a) => BodyLiteral::Positive(subst_atom(a)),
                BodyLiteral::Negative(a) => BodyLiteral::Negative(subst_atom(a)),
                BodyLiteral::NotEqual(a, b) => BodyLiteral::NotEqual(subst_term(a), subst_term(b)),
            })
            .collect(),
    })
}

struct Rewriter {
    idb: BTreeSet<RelationName>,
    queue: VecDeque<(RelationName, Adornment)>,
    done: BTreeSet<RelationName>,
    rules: Vec<Rule>,
    seen: BTreeSet<Rule>,
    auxiliary: BTreeSet<RelationName>,
}

impl Rewriter {
    fn demand(&mut self, relation: &RelationName, adornment: Adornment) {
        if self.done.insert(adorned_name(relation, &adornment)) {
            self.queue.push_back((relation.clone(), adornment));
        }
    }

    fn push(&mut self, rule: Rule) {
        if self.seen.insert(rule.clone()) {
            self.rules.push(rule);
        }
    }

    /// Rewrites one rule of the adorned predicate `relation@adornment`,
    /// emitting the adorned rule itself plus the magic and supplementary
    /// rules its derived subgoals need.
    fn rewrite_rule(
        &mut self,
        relation: &RelationName,
        adornment: &Adornment,
        head_name: &RelationName,
        rule: &Rule,
        tag: &str,
        guarded: bool,
    ) {
        let head = Atom {
            relation: head_name.clone(),
            args: rule.head.args.clone(),
        };
        let guard = guarded.then(|| {
            let name = magic_relation(relation, adornment);
            self.auxiliary.insert(name.clone());
            Atom {
                relation: name,
                args: adornment
                    .bound_columns()
                    .map(|c| rule.head.args[c].clone())
                    .collect(),
            }
        });

        // Sideways pass over the body: variables become bound through the
        // guard and each positive literal; filters (negations,
        // inequalities) are placed as soon as their variables are bound so
        // that every stream prefix is safe; derived subgoals are adorned
        // with the bindings available at their position.
        let mut bound: BTreeSet<String> = guard.iter().flat_map(|g| g.variables()).collect();
        let mut stream: Vec<(BodyLiteral, Option<(RelationName, Adornment)>)> = Vec::new();
        let mut pending: Vec<BodyLiteral> = Vec::new();
        for literal in &rule.body {
            match literal {
                BodyLiteral::Positive(atom) => {
                    if self.idb.contains(&atom.relation) {
                        let sub = Adornment::from_bools(
                            atom.args
                                .iter()
                                .map(|t| t.as_var().map(|v| bound.contains(v)).unwrap_or(true))
                                .collect(),
                        );
                        self.demand(&atom.relation, sub.clone());
                        let renamed = Atom {
                            relation: adorned_name(&atom.relation, &sub),
                            args: atom.args.clone(),
                        };
                        stream.push((
                            BodyLiteral::Positive(renamed),
                            Some((atom.relation.clone(), sub)),
                        ));
                    } else {
                        stream.push((literal.clone(), None));
                    }
                    bound.extend(atom.variables());
                    let mut still = Vec::new();
                    for filter in pending.drain(..) {
                        if filter.variables().is_subset(&bound) {
                            stream.push((filter, None));
                        } else {
                            still.push(filter);
                        }
                    }
                    pending = still;
                }
                BodyLiteral::Negative(atom) => {
                    if self.idb.contains(&atom.relation) {
                        // A bound adornment on a negated atom would test an
                        // incomplete relation; demand it whole instead.
                        self.demand(&atom.relation, Adornment::all_free(atom.arity()));
                    }
                    if literal.variables().is_subset(&bound) {
                        stream.push((literal.clone(), None));
                    } else {
                        pending.push(literal.clone());
                    }
                }
                BodyLiteral::NotEqual(..) => {
                    if literal.variables().is_subset(&bound) {
                        stream.push((literal.clone(), None));
                    } else {
                        pending.push(literal.clone());
                    }
                }
            }
        }
        // Rule safety guarantees every filter variable is positively bound
        // by the end of the body.
        stream.extend(pending.into_iter().map(|l| (l, None)));

        let subgoals: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, (_, marker))| marker.is_some())
            .map(|(i, _)| i)
            .collect();
        if subgoals.is_empty() {
            let body: Vec<BodyLiteral> = guard
                .into_iter()
                .map(BodyLiteral::Positive)
                .chain(stream.into_iter().map(|(l, _)| l))
                .collect();
            self.push(Rule::new(head, body));
            return;
        }

        // needs[i] = variables read by stream[i..] or the head; a
        // supplementary head after position p carries bound ∩ needs[p+1].
        let mut needs: Vec<BTreeSet<String>> = vec![BTreeSet::new(); stream.len() + 1];
        needs[stream.len()] = head.variables();
        for i in (0..stream.len()).rev() {
            let mut set = needs[i + 1].clone();
            set.extend(stream[i].0.variables());
            needs[i] = set;
        }

        let mut previous: Option<Atom> = None;
        let mut bound_so_far: BTreeSet<String> = guard.iter().flat_map(|g| g.variables()).collect();
        let mut consumed = 0usize;
        let last = *subgoals.last().expect("subgoals is non-empty");
        for (link, &position) in subgoals.iter().enumerate() {
            let segment: Vec<BodyLiteral> = stream[consumed..position]
                .iter()
                .map(|(l, _)| l.clone())
                .collect();
            for literal in &segment {
                if let BodyLiteral::Positive(atom) = literal {
                    bound_so_far.extend(atom.variables());
                }
            }
            let (subgoal_literal, marker) = &stream[position];
            let (sub_relation, sub_adornment) =
                marker.as_ref().expect("subgoal positions carry a marker");
            let BodyLiteral::Positive(subgoal_atom) = subgoal_literal else {
                unreachable!("only positive atoms are marked as subgoals");
            };
            let prefix: Vec<BodyLiteral> = if link == 0 {
                guard.iter().cloned().map(BodyLiteral::Positive).collect()
            } else {
                vec![BodyLiteral::Positive(
                    previous.clone().expect("chained links follow a supplement"),
                )]
            };
            if sub_adornment.has_bound() {
                let name = magic_relation(sub_relation, sub_adornment);
                self.auxiliary.insert(name.clone());
                let args: Vec<Term> = sub_adornment
                    .bound_columns()
                    .map(|c| subgoal_atom.args[c].clone())
                    .collect();
                let body: Vec<BodyLiteral> = prefix
                    .iter()
                    .cloned()
                    .chain(segment.iter().cloned())
                    .collect();
                self.push(Rule::new(
                    Atom {
                        relation: name,
                        args,
                    },
                    body,
                ));
            }
            bound_so_far.extend(subgoal_atom.variables());
            if position == last {
                let body: Vec<BodyLiteral> = prefix
                    .into_iter()
                    .chain(segment)
                    .chain([subgoal_literal.clone()])
                    .chain(stream[position + 1..].iter().map(|(l, _)| l.clone()))
                    .collect();
                self.push(Rule::new(head.clone(), body));
            } else {
                let carried: Vec<String> = bound_so_far
                    .intersection(&needs[position + 1])
                    .cloned()
                    .collect();
                let name = sup_name(relation, adornment, tag, link + 1);
                self.auxiliary.insert(name.clone());
                let sup_head = Atom {
                    relation: name,
                    args: carried.iter().map(Term::var).collect(),
                };
                let body: Vec<BodyLiteral> = prefix
                    .into_iter()
                    .chain(segment)
                    .chain([subgoal_literal.clone()])
                    .collect();
                self.push(Rule::new(sup_head.clone(), body));
                previous = Some(sup_head);
            }
            consumed = position + 1;
        }
    }
}

/// Rewrites a program for the given demand goals: adorned rules, magic
/// guards, supplementary chains and constant specialization, as described in
/// the module docs.  Rules unreachable from any goal are dropped.
///
/// Errors with [`DatalogError::DemandUnsupported`] when a goal names a
/// non-derived relation, mismatches an arity, or duplicates another goal's
/// (relation, adornment) pair.
pub fn magic_rewrite(
    program: &Program,
    goals: &[DemandGoal],
) -> Result<DemandProgram, DatalogError> {
    let arities = program.relation_arities()?;
    let idb = program.idb_relations();

    let mut goal_keys: BTreeSet<(RelationName, Adornment)> = BTreeSet::new();
    for goal in goals {
        if !idb.contains(&goal.relation) {
            return Err(goal.unsupported("not a derived relation of the program"));
        }
        let arity = arities[&goal.relation];
        if goal.adornment.arity() != arity {
            return Err(goal.unsupported(&format!(
                "adornment arity {} does not match relation arity {arity}",
                goal.adornment.arity()
            )));
        }
        let bound_count = goal.adornment.bound_count();
        if goal.seeds.iter().any(|s| s.arity() != bound_count) {
            return Err(goal.unsupported(&format!(
                "seed tuples must cover exactly the {bound_count} bound column(s)"
            )));
        }
        if goal.specialize && goal.seeds.is_empty() {
            return Err(goal.unsupported("constant specialization requires seed tuples"));
        }
        if !goal.adornment.has_bound() && !goal.seeds.is_empty() {
            return Err(goal.unsupported("an all-free goal cannot carry seeds"));
        }
        if !goal_keys.insert((goal.relation.clone(), goal.adornment.clone())) {
            return Err(goal.unsupported("duplicate (relation, adornment) goal"));
        }
    }

    let mut rewriter = Rewriter {
        idb,
        queue: VecDeque::new(),
        done: BTreeSet::new(),
        rules: Vec::new(),
        seen: BTreeSet::new(),
        auxiliary: BTreeSet::new(),
    };

    for goal in goals {
        if goal.specialize {
            let head_name = specialized_name(&goal.relation, &goal.adornment);
            rewriter.done.insert(head_name.clone());
            for (rule_idx, rule) in program.rules_for(&goal.relation).iter().enumerate() {
                for (seed_idx, seed) in goal.seeds.iter().enumerate() {
                    if let Some(specialized) = specialize(rule, &goal.adornment, seed) {
                        let tag = format!("{rule_idx}x{seed_idx}");
                        rewriter.rewrite_rule(
                            &goal.relation,
                            &goal.adornment,
                            &head_name,
                            &specialized,
                            &tag,
                            false,
                        );
                    }
                }
            }
        } else {
            rewriter.demand(&goal.relation, goal.adornment.clone());
        }
    }
    while let Some((relation, adornment)) = rewriter.queue.pop_front() {
        let head_name = adorned_name(&relation, &adornment);
        let rules: Vec<Rule> = program.rules_for(&relation).into_iter().cloned().collect();
        for (rule_idx, rule) in rules.iter().enumerate() {
            let tag = rule_idx.to_string();
            rewriter.rewrite_rule(
                &relation,
                &adornment,
                &head_name,
                rule,
                &tag,
                adornment.has_bound(),
            );
        }
    }

    // Goal-level magic relations are seeds the caller populates.  When
    // demand propagation also *derives* a goal's magic relation (recursive
    // demand back into a goal), route the caller's seeds through a pure-EDB
    // `@seed` relation so the magic relation stays a clean IDB.
    let derived_heads: BTreeSet<RelationName> = rewriter
        .rules
        .iter()
        .map(|r| r.head.relation.clone())
        .collect();
    let mut magic_pairs: Vec<(RelationName, usize)> = Vec::new();
    let mut seed_names: BTreeMap<(RelationName, Adornment), RelationName> = BTreeMap::new();
    let mut seed_facts: Vec<(RelationName, Tuple)> = Vec::new();
    for goal in goals {
        if goal.specialize || !goal.adornment.has_bound() {
            continue;
        }
        let magic = magic_relation(&goal.relation, &goal.adornment);
        let seed_rel = if derived_heads.contains(&magic) {
            let seed = RelationName::new(format!("{}@seed", magic.as_str()));
            let vars: Vec<Term> = (0..goal.adornment.bound_count())
                .map(|i| Term::var(format!("X{i}")))
                .collect();
            rewriter.auxiliary.insert(seed.clone());
            rewriter.push(Rule::new(
                Atom {
                    relation: magic.clone(),
                    args: vars.clone(),
                },
                vec![BodyLiteral::Positive(Atom {
                    relation: seed.clone(),
                    args: vars,
                })],
            ));
            seed
        } else {
            // The magic relation itself is extensional; mark it auxiliary
            // in case no surviving rule guards on it.
            rewriter.auxiliary.insert(magic.clone());
            magic.clone()
        };
        magic_pairs.push((seed_rel.clone(), goal.adornment.bound_count()));
        seed_names.insert(
            (goal.relation.clone(), goal.adornment.clone()),
            seed_rel.clone(),
        );
        for seed in &goal.seeds {
            seed_facts.push((seed_rel.clone(), seed.clone()));
        }
    }

    let mut renames: BTreeMap<RelationName, RelationName> = BTreeMap::new();
    let mut output_pairs: Vec<(RelationName, usize)> = Vec::new();
    for goal in goals {
        output_pairs.push((goal.relation.clone(), arities[&goal.relation]));
        let adorned = if goal.specialize {
            specialized_name(&goal.relation, &goal.adornment)
        } else {
            adorned_name(&goal.relation, &goal.adornment)
        };
        if adorned != goal.relation {
            renames.insert(adorned, goal.relation.clone());
        }
    }

    Ok(DemandProgram {
        program: Program::new(rewriter.rules),
        goals: goals.to_vec(),
        magic_schema: Schema::from_pairs(magic_pairs)?,
        seed_facts,
        seed_names,
        renames,
        auxiliary: rewriter.auxiliary,
        output_schema: Schema::from_pairs(output_pairs)?,
    })
}

/// Rewrites a program demanding **every** derived relation all-free.
///
/// The result is result-identical to evaluating the original program; the
/// rewrite degenerates to reachability pruning, which makes it the oracle
/// path behind [`DemandPolicy::Demand`] on
/// [`EvalOptions`](crate::EvalOptions).
pub fn demand_all(program: &Program) -> Result<DemandProgram, DatalogError> {
    let arities = program.relation_arities()?;
    let goals: Vec<DemandGoal> = program
        .idb_relations()
        .into_iter()
        .map(|r| {
            let arity = arities[&r];
            DemandGoal::free(r, arity)
        })
        .collect();
    magic_rewrite(program, &goals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_stratified, EvalOptions};
    use crate::parser::parse_program;
    use rtx_relational::Value;

    fn tuple(values: &[&str]) -> Tuple {
        Tuple::from_iter(values.iter().map(Value::str))
    }

    fn full_eval(program: &Program, edb: &Instance) -> Instance {
        evaluate_stratified(program, edb, EvalOptions::default())
            .unwrap()
            .0
    }

    fn demand_eval(demand: &DemandProgram, edb: &Instance) -> Instance {
        let sources = edb
            .union(&demand.seed_instance())
            .expect("seed relations are disjoint from the database");
        let (derived, _) =
            evaluate_stratified(demand.program(), &sources, EvalOptions::default()).unwrap();
        demand.restrict(&derived)
    }

    #[test]
    fn adornment_parse_display_roundtrip() {
        let a = Adornment::parse("bfb").unwrap();
        assert_eq!(a.to_string(), "bfb");
        assert_eq!(a.arity(), 3);
        assert!(a.is_bound(0) && !a.is_bound(1) && a.is_bound(2));
        assert_eq!(a.bound_count(), 2);
        assert_eq!(a.bound_columns().collect::<Vec<_>>(), vec![0, 2]);
        assert!(Adornment::parse("bx").is_err());
        assert!(!Adornment::all_free(2).has_bound());
        assert!(Adornment::all_bound(2).has_bound());
    }

    #[test]
    fn policy_parses_strictly() {
        assert_eq!(
            DemandPolicy::parse_token("Demand"),
            Some(DemandPolicy::Demand)
        );
        assert_eq!(DemandPolicy::parse_token("on"), Some(DemandPolicy::Demand));
        assert_eq!(DemandPolicy::parse_token("full"), Some(DemandPolicy::Full));
        assert_eq!(DemandPolicy::parse_token("OFF"), Some(DemandPolicy::Full));
        assert_eq!(DemandPolicy::parse_token("sometimes"), None);
        assert_eq!(DemandPolicy::parse_token(""), None);
        assert_eq!(DemandPolicy::Demand.to_string(), "demand");
    }

    #[test]
    fn rtx_demand_setting_rejects_malformed_values_loudly() {
        assert_eq!(DemandPolicy::from_env_setting(None), Ok(None));
        assert_eq!(DemandPolicy::from_env_setting(Some("")), Ok(None));
        assert_eq!(DemandPolicy::from_env_setting(Some("  ")), Ok(None));
        assert_eq!(
            DemandPolicy::from_env_setting(Some(" Full ")),
            Ok(Some(DemandPolicy::Full))
        );
        assert_eq!(
            DemandPolicy::from_env_setting(Some("on")),
            Ok(Some(DemandPolicy::Demand))
        );
        // The fleet-misconfiguration bug this pins: a typo'd kill switch
        // (`ful` for `full`) used to silently keep the demand rewrite on.
        for bad in ["ful", "enforec", "1", "demand,full", "true"] {
            let err = DemandPolicy::from_env_setting(Some(bad)).unwrap_err();
            assert_eq!(err.var, "RTX_DEMAND");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("RTX_DEMAND"), "{err}");
        }
    }

    #[test]
    fn goal_validation_rejects_bad_shapes() {
        let program = parse_program("d(X) :- e(X).").unwrap();
        let unsupported = |g: DemandGoal| {
            matches!(
                magic_rewrite(&program, &[g]),
                Err(DatalogError::DemandUnsupported { .. })
            )
        };
        assert!(unsupported(DemandGoal::free("e", 1)));
        assert!(unsupported(DemandGoal::free("d", 2)));
        assert!(unsupported(
            DemandGoal::seeded("d", "b")
                .unwrap()
                .with_seeds([tuple(&["a", "b"])])
        ));
        assert!(unsupported(
            DemandGoal::free("d", 1).with_seeds([tuple(&["a"])])
        ));
        assert!(matches!(
            magic_rewrite(
                &program,
                &[DemandGoal::free("d", 1), DemandGoal::free("d", 1)]
            ),
            Err(DatalogError::DemandUnsupported { .. })
        ));
    }

    #[test]
    fn all_free_demand_matches_full_evaluation_and_prunes() {
        let program = parse_program(
            "reach(X) :- src(X).\n\
             reach(Y) :- reach(X), edge(X,Y).\n\
             unrelated(X) :- other(X).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("src", 1), ("edge", 2), ("other", 1)]).unwrap();
        let mut edb = Instance::empty(&schema);
        edb.insert("src", tuple(&["a"])).unwrap();
        edb.insert("edge", tuple(&["a", "b"])).unwrap();
        edb.insert("edge", tuple(&["b", "c"])).unwrap();
        edb.insert("other", tuple(&["z"])).unwrap();

        let demand = magic_rewrite(&program, &[DemandGoal::free("reach", 1)]).unwrap();
        // Rules for `unrelated` are unreachable from the goal and dropped.
        assert!(!demand
            .program()
            .idb_relations()
            .contains(&RelationName::new("unrelated")));
        assert!(demand.auxiliary().is_empty());

        let restricted = demand_eval(&demand, &edb);
        let full = full_eval(&program, &edb).restrict_to(["reach"]);
        assert_eq!(restricted, full);
    }

    #[test]
    fn bound_goal_on_transitive_closure_computes_exact_footprint() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- edge(X,Z), tc(Z,Y).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut edb = Instance::empty(&schema);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "z")] {
            edb.insert("edge", tuple(&[a, b])).unwrap();
        }

        let goal = DemandGoal::seeded("tc", "bf")
            .unwrap()
            .with_seeds([tuple(&["a"])]);
        let demand = magic_rewrite(&program, &[goal]).unwrap();

        // The recursive rule must pass demand sideways: edge(X,Z) binds Z,
        // so the recursive subgoal is tc@bf guarded by a derived magic rule.
        let magic = magic_relation(&RelationName::new("tc"), &Adornment::parse("bf").unwrap());
        assert!(demand
            .program()
            .rules()
            .iter()
            .any(|r| r.head.relation == magic));
        assert!(demand.is_auxiliary(&magic));
        assert_eq!(
            demand.seed_relation(&RelationName::new("tc"), &Adornment::parse("bf").unwrap()),
            Some(&RelationName::new(format!("{}@seed", magic.as_str())))
        );

        let restricted = demand_eval(&demand, &edb);
        let full = full_eval(&program, &edb);
        assert_eq!(restricted, demand.footprint(&full));
        // Footprint from `a` reaches b, c, d but never the x/y/z component.
        let reached = restricted.get(&RelationName::new("tc")).unwrap();
        assert_eq!(reached.len(), 3);
        assert!(restricted.holds("tc", &tuple(&["a", "d"])));
        assert!(!restricted.holds("tc", &tuple(&["x", "y"])));
    }

    #[test]
    fn constant_specialization_substitutes_and_avoids_magic() {
        let program = parse_program("match(C,P) :- browse(P), category(P,K), pref(C,K).").unwrap();
        let goal = DemandGoal::constants("match", "bf", [tuple(&["alice"])]).unwrap();
        let demand = magic_rewrite(&program, &[goal]).unwrap();

        // No magic relation: the constant is substituted into the rule.
        assert!(demand.magic_schema().is_empty());
        let rule = &demand.program().rules()[0];
        assert_eq!(rule.head.relation, RelationName::new("match@bf@c"));
        assert_eq!(rule.head.args[0], Term::constant(Value::str("alice")));
        assert!(rule.body.iter().any(|l| matches!(
            l,
            BodyLiteral::Positive(a)
                if a.relation == RelationName::new("pref")
                    && a.args[0] == Term::constant(Value::str("alice"))
        )));

        let schema = Schema::from_pairs([("browse", 1), ("category", 2), ("pref", 2)]).unwrap();
        let mut edb = Instance::empty(&schema);
        edb.insert("browse", tuple(&["p1"])).unwrap();
        edb.insert("category", tuple(&["p1", "books"])).unwrap();
        edb.insert("pref", tuple(&["alice", "books"])).unwrap();
        edb.insert("pref", tuple(&["bob", "books"])).unwrap();

        let restricted = demand_eval(&demand, &edb);
        let full = full_eval(&program, &edb);
        assert_eq!(restricted, demand.footprint(&full));
        assert!(restricted.holds("match", &tuple(&["alice", "p1"])));
        assert!(!restricted.holds("match", &tuple(&["bob", "p1"])));
    }

    #[test]
    fn specialize_drops_conflicting_rules() {
        let program = parse_program(
            "status('gold',X) :- vip(X).\n\
             status('basic',X) :- member(X).",
        )
        .unwrap();
        let gold = specialize(
            &program.rules()[0],
            &Adornment::parse("bf").unwrap(),
            &tuple(&["gold"]),
        );
        assert!(gold.is_some());
        let basic = specialize(
            &program.rules()[1],
            &Adornment::parse("bf").unwrap(),
            &tuple(&["gold"]),
        );
        assert!(basic.is_none());
    }

    #[test]
    fn supplementary_chain_links_multiple_subgoals() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- edge(X,Z), tc(Z,Y).\n\
             meet(X,Y,Z) :- tc(X,Y), tc(Y,Z), X <> Z.",
        )
        .unwrap();
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut edb = Instance::empty(&schema);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("q", "r")] {
            edb.insert("edge", tuple(&[a, b])).unwrap();
        }

        let goal = DemandGoal::seeded("meet", "bff")
            .unwrap()
            .with_seeds([tuple(&["a"])]);
        let demand = magic_rewrite(&program, &[goal]).unwrap();
        // Two derived subgoals in one body force a supplementary link.
        assert!(demand
            .auxiliary()
            .iter()
            .any(|r| r.as_str().starts_with("s@meet@bff@")));

        let restricted = demand_eval(&demand, &edb);
        let full = full_eval(&program, &edb);
        assert_eq!(restricted, demand.footprint(&full));
        assert!(restricted.holds("meet", &tuple(&["a", "b", "c"])));
        assert!(!restricted.holds("meet", &tuple(&["b", "c", "d"])));
    }

    #[test]
    fn negated_derived_atom_is_demanded_whole() {
        let program = parse_program(
            "good(X) :- node(X), NOT bad(X).\n\
             bad(X) :- flagged(X).\n\
             bad(Y) :- edge(X,Y), bad(X).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("node", 1), ("flagged", 1), ("edge", 2)]).unwrap();
        let mut edb = Instance::empty(&schema);
        for n in ["a", "b", "c"] {
            edb.insert("node", tuple(&[n])).unwrap();
        }
        edb.insert("flagged", tuple(&["a"])).unwrap();
        edb.insert("edge", tuple(&["a", "b"])).unwrap();

        let goal = DemandGoal::seeded("good", "b")
            .unwrap()
            .with_seeds([tuple(&["b"]), tuple(&["c"])]);
        let demand = magic_rewrite(&program, &[goal]).unwrap();
        // `bad` appears under its original (all-free, complete) name.
        assert!(demand
            .program()
            .idb_relations()
            .contains(&RelationName::new("bad")));

        let restricted = demand_eval(&demand, &edb);
        let full = full_eval(&program, &edb);
        assert_eq!(restricted, demand.footprint(&full));
        assert!(!restricted.holds("good", &tuple(&["b"])));
        assert!(restricted.holds("good", &tuple(&["c"])));
    }

    #[test]
    fn demand_all_is_identity_modulo_pruning() {
        let program = parse_program(
            "a(X) :- e(X).\n\
             b(X) :- a(X), f(X).\n\
             c(X) :- b(X), NOT a(X).",
        )
        .unwrap();
        let demand = demand_all(&program).unwrap();
        assert!(demand.auxiliary().is_empty());
        assert_eq!(demand.program().len(), program.len());

        let schema = Schema::from_pairs([("e", 1), ("f", 1)]).unwrap();
        let mut edb = Instance::empty(&schema);
        edb.insert("e", tuple(&["v"])).unwrap();
        edb.insert("f", tuple(&["v"])).unwrap();
        edb.insert("f", tuple(&["w"])).unwrap();
        assert_eq!(demand_eval(&demand, &edb), full_eval(&program, &edb));
    }

    #[test]
    fn seed_instance_and_multiple_goals_union_adornments() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- edge(X,Z), tc(Z,Y).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut edb = Instance::empty(&schema);
        for (a, b) in [("a", "b"), ("b", "c"), ("x", "y")] {
            edb.insert("edge", tuple(&[a, b])).unwrap();
        }
        let goals = [
            DemandGoal::seeded("tc", "bf")
                .unwrap()
                .with_seeds([tuple(&["a"])]),
            DemandGoal::seeded("tc", "fb")
                .unwrap()
                .with_seeds([tuple(&["y"])]),
        ];
        let demand = magic_rewrite(&program, &goals).unwrap();
        let seeds = demand.seed_instance();
        assert_eq!(seeds.total_tuples(), 2);

        let restricted = demand_eval(&demand, &edb);
        let full = full_eval(&program, &edb);
        assert_eq!(restricted, demand.footprint(&full));
        assert!(restricted.holds("tc", &tuple(&["a", "c"])));
        assert!(restricted.holds("tc", &tuple(&["x", "y"])));
    }
}
