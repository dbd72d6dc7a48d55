//! Evaluation of datalog programs against relational instances.
//!
//! Two entry points are provided:
//!
//! * [`evaluate_nonrecursive`] — the reference evaluation of a non-recursive
//!   program: derived relations are computed in dependency (topological)
//!   order in a single pass;
//! * [`evaluate_stratified`] — the reference evaluation of stratified
//!   datalog¬, iterating each stratum to a fixpoint with either naive or
//!   semi-naive evaluation ([`FixpointStrategy`]).  This is the substrate
//!   ablation the benchmarks exercise (`datalog_eval`).
//!
//! Both interpreter paths re-analyse the program on every call and join with
//! nested scans, and neither hands work to the compiled engine in
//! [`crate::compile`], which performs the analysis once and joins through
//! hash indexes: they stay the **reference oracle** that engine is checked
//! against.  Production callers (the Spocus transducer runtime) use
//! [`CompiledProgram::evaluate`](crate::CompiledProgram::evaluate).

use crate::graph::DependencyGraph;
use crate::safety::check_program_safety;
use crate::{Atom, BodyLiteral, DatalogError, Program, Rule};
use rtx_logic::Term;
use rtx_relational::{Instance, Relation, RelationName, Schema, Tuple, Value, ValueVec};
use std::collections::BTreeMap;

/// Fixpoint iteration strategy for recursive strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FixpointStrategy {
    /// Re-derive everything from scratch each round.
    Naive,
    /// Semi-naive: each round only joins against the delta of the previous
    /// round for one occurrence of a recursive relation; recursive
    /// occurrences before the delta position read the pre-delta snapshot so
    /// that no derivation is enumerated twice.
    #[default]
    SemiNaive,
}

/// Evaluation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Fixpoint strategy for recursive strata.
    pub strategy: FixpointStrategy,
    /// Resource budget for the evaluation; unlimited by default.
    pub budget: EvalBudget,
    /// Demand policy: [`Demand`](crate::demand::DemandPolicy::Demand) routes
    /// the evaluation through the magic-set rewrite ([`crate::demand`]) with
    /// every derived relation demanded all-free — result-identical to
    /// [`Full`](crate::demand::DemandPolicy::Full), which the randomized
    /// equivalence suite pins.
    pub demand: crate::demand::DemandPolicy,
}

/// A resource budget for one evaluation: a runaway rule set (or an
/// adversarial input) hits a typed [`DatalogError::BudgetExceeded`] instead
/// of spinning the fixpoint loop or materialising unbounded derivations.
///
/// Budgets are checked against the running [`EvalStats`] counters: the
/// engines stop as soon as a counter passes its limit, so the overshoot is
/// bounded by one rule pass.  The default budget is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalBudget {
    /// Maximum number of tuple derivations (including re-derivations), or
    /// `None` for unlimited.
    pub max_derivations: Option<u64>,
    /// Maximum number of fixpoint rounds across all strata, or `None` for
    /// unlimited.
    pub max_rounds: Option<u64>,
}

impl EvalBudget {
    /// The unlimited budget (the default).
    pub const UNLIMITED: EvalBudget = EvalBudget {
        max_derivations: None,
        max_rounds: None,
    };

    /// A budget capping only the derivation count.
    pub fn max_derivations(limit: u64) -> Self {
        EvalBudget {
            max_derivations: Some(limit),
            max_rounds: None,
        }
    }

    /// A budget capping only the fixpoint round count.
    pub fn max_rounds(limit: u64) -> Self {
        EvalBudget {
            max_derivations: None,
            max_rounds: Some(limit),
        }
    }

    /// This budget with the derivation cap replaced.
    pub fn with_max_derivations(mut self, limit: u64) -> Self {
        self.max_derivations = Some(limit);
        self
    }

    /// This budget with the round cap replaced.
    pub fn with_max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = Some(limit);
        self
    }

    /// True if no limit is set (the fast path skips all checks).
    pub fn is_unlimited(&self) -> bool {
        self.max_derivations.is_none() && self.max_rounds.is_none()
    }

    /// Checks the running counters against the limits.
    pub fn check(&self, stats: &EvalStats) -> Result<(), DatalogError> {
        if let Some(limit) = self.max_derivations {
            // Magic/supplementary derivations count against the budget too:
            // a runaway demand rewrite must trip the limit like any other
            // runaway rule set.
            let spent = stats.tuples_derived + stats.magic_tuples_derived;
            if spent > limit {
                return Err(DatalogError::BudgetExceeded {
                    resource: "derivations".into(),
                    limit,
                    spent,
                });
            }
        }
        if let Some(limit) = self.max_rounds {
            if stats.rounds > limit {
                return Err(DatalogError::BudgetExceeded {
                    resource: "rounds".into(),
                    limit,
                    spent: stats.rounds,
                });
            }
        }
        Ok(())
    }
}

/// Statistics from an evaluation, for the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of rule applications (a rule evaluated against one database
    /// state counts once).
    pub rule_applications: u64,
    /// Number of tuples derived (including duplicates re-derived by naive
    /// iteration).
    pub tuples_derived: u64,
    /// Number of fixpoint rounds across all strata.
    pub rounds: u64,
    /// Rule applications of demand bookkeeping (magic/supplementary) rules —
    /// reported separately so [`EvalStats::rule_applications`] keeps counting
    /// exactly the original program's rules through a demand rewrite.
    pub magic_applications: u64,
    /// Tuples derived into magic/supplementary relations (see
    /// [`EvalStats::magic_applications`]).
    pub magic_tuples_derived: u64,
}

/// Evaluates a non-recursive program against an extensional database.
///
/// The result instance contains exactly the program's derived (IDB)
/// relations.  Body relations that are missing from `edb` are treated as
/// empty, which mirrors the paper's convention that input relations not
/// mentioned at a step are empty.
pub fn evaluate_nonrecursive(program: &Program, edb: &Instance) -> Result<Instance, DatalogError> {
    check_program_safety(program)?;
    let arities = program.relation_arities()?;
    let graph = DependencyGraph::of(program);
    if let Some(cycle) = graph.first_cycle() {
        let idb = program.idb_relations();
        // Only cycles among derived relations matter (an EDB relation can
        // trivially "depend on itself" only if it also appears in a head).
        if cycle.iter().any(|r| idb.contains(r)) {
            return Err(DatalogError::Recursive {
                cycle: cycle.iter().map(|r| r.as_str().to_string()).collect(),
            });
        }
    }
    // No stratification needed: ordering comes from the SCC decomposition
    // below, and a program without IDB cycles cannot have negation through a
    // cycle, so `stratify` could never fail here.

    let idb = program.idb_relations();
    let out_schema = Schema::from_pairs(
        idb.iter()
            .map(|r| (r.clone(), *arities.get(r).unwrap_or(&0))),
    )?;
    let mut derived = Instance::empty(&out_schema);

    // Process derived relations in topological order (`sccs()` lists
    // components dependencies-first), so that rules whose bodies mention
    // other derived relations always see their dependencies computed.
    for component in graph.sccs() {
        for relation in component {
            if !idb.contains(&relation) {
                continue;
            }
            for rule in program.rules_for(&relation) {
                for tuple in apply_rule(rule, &[edb, &derived])? {
                    derived.insert(relation.clone(), tuple)?;
                }
            }
        }
    }
    Ok(derived)
}

/// Evaluates a (possibly recursive) stratified program against an extensional
/// database, returning the derived relations and evaluation statistics.
pub fn evaluate_stratified(
    program: &Program,
    edb: &Instance,
    options: EvalOptions,
) -> Result<(Instance, EvalStats), DatalogError> {
    if options.demand == crate::demand::DemandPolicy::Demand {
        // Demand every derived relation all-free: the rewrite degenerates to
        // reachability pruning and is result-identical to full evaluation.
        // An unsupported program falls back to the unrewritten path.
        if let Ok(rewrite) = crate::demand::demand_all(program) {
            let full_options = EvalOptions {
                demand: crate::demand::DemandPolicy::Full,
                ..options
            };
            let (derived, stats) = evaluate_stratified(rewrite.program(), edb, full_options)?;
            return Ok((rewrite.restrict(&derived), stats));
        }
    }
    check_program_safety(program)?;
    let arities = program.relation_arities()?;
    let graph = DependencyGraph::of(program);
    let strata = graph.stratify()?;
    let idb = program.idb_relations();

    let out_schema = Schema::from_pairs(
        idb.iter()
            .map(|r| (r.clone(), *arities.get(r).unwrap_or(&0))),
    )?;
    let mut derived = Instance::empty(&out_schema);
    let mut stats = EvalStats::default();

    for stratum in strata {
        let stratum_rules: Vec<&Rule> = program
            .rules()
            .iter()
            .filter(|r| stratum.contains(&r.head.relation))
            .collect();
        if stratum_rules.is_empty() {
            continue;
        }
        // Delta per derived relation of this stratum (for semi-naive), plus
        // the pre-delta snapshot (`previous`): `previous ∪ delta` is always
        // the current derived instance and the two are disjoint.
        let mut delta: BTreeMap<RelationName, Relation> = stratum
            .iter()
            .filter(|r| idb.contains(*r))
            .map(|r| (r.clone(), Relation::empty(*arities.get(r).unwrap_or(&0))))
            .collect();
        let mut previous = derived.clone();

        // Initial round: full evaluation of every rule of the stratum.
        loop {
            stats.rounds += 1;
            options.budget.check(&stats)?;
            let mut new_facts: Vec<(RelationName, Tuple)> = Vec::new();
            for rule in &stratum_rules {
                stats.rule_applications += 1;
                let candidates = match options.strategy {
                    FixpointStrategy::Naive => apply_rule(rule, &[edb, &derived])?,
                    FixpointStrategy::SemiNaive => {
                        apply_rule_seminaive(rule, edb, &derived, &previous, &delta, &stratum)?
                    }
                };
                for tuple in candidates {
                    stats.tuples_derived += 1;
                    if !derived.holds(rule.head.relation.clone(), &tuple) {
                        new_facts.push((rule.head.relation.clone(), tuple));
                    }
                }
                options.budget.check(&stats)?;
            }
            // Refresh deltas; snapshot the pre-delta state before merging.
            for (_, rel) in delta.iter_mut() {
                *rel = Relation::empty(rel.arity());
            }
            previous = derived.clone();
            let mut changed = false;
            for (name, tuple) in new_facts {
                if derived.insert(name.clone(), tuple.clone())? {
                    changed = true;
                    if let Some(d) = delta.get_mut(&name) {
                        d.insert(tuple)?;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    Ok((derived, stats))
}

/// Applies a rule against a database presented as a list of instances
/// (relations are looked up in each in turn; a relation found nowhere is
/// empty).
fn apply_rule(rule: &Rule, databases: &[&Instance]) -> Result<Vec<Tuple>, DatalogError> {
    let mut results = Vec::new();
    let mut bindings = BTreeMap::new();
    join_positive(
        rule,
        &positive_atoms(rule),
        0,
        databases,
        &mut bindings,
        &mut results,
        None,
    )?;
    Ok(results)
}

/// Semi-naive application with the standard old/delta/full split: for each
/// occurrence `p` of a recursive relation, occurrence `p` reads the delta,
/// recursive occurrences *before* `p` read the pre-delta snapshot and
/// occurrences *after* `p` read the full derived instance.  Summed over all
/// `p`, every derivation that uses at least one delta tuple is enumerated
/// exactly once.  Rules with no recursive body relation are evaluated fully
/// (they only need one round to saturate).
fn apply_rule_seminaive(
    rule: &Rule,
    edb: &Instance,
    derived: &Instance,
    previous: &Instance,
    delta: &BTreeMap<RelationName, Relation>,
    stratum: &[RelationName],
) -> Result<Vec<Tuple>, DatalogError> {
    let positives = positive_atoms(rule);
    let recursive_positions: Vec<usize> = positives
        .iter()
        .enumerate()
        .filter(|(_, atom)| stratum.contains(&atom.relation))
        .map(|(i, _)| i)
        .collect();

    // Deltas are empty exactly on the first round (any later round only
    // starts because the previous one inserted new facts): evaluate every
    // rule fully there.  A rule with no recursive body atom saturates in
    // that round and derives nothing new afterwards — skip it.
    let deltas_empty = delta.values().all(Relation::is_empty);
    if deltas_empty {
        return apply_rule(rule, &[edb, derived]);
    }
    if recursive_positions.is_empty() {
        return Ok(Vec::new());
    }

    let mut results = Vec::new();
    for &pos in &recursive_positions {
        let mut bindings = BTreeMap::new();
        join_positive(
            rule,
            &positives,
            0,
            &[edb, derived],
            &mut bindings,
            &mut results,
            Some(&SeminaiveView {
                delta_pos: pos,
                delta,
                old_chain: [edb, previous],
                recursive_positions: &recursive_positions,
            }),
        )?;
    }
    Ok(results)
}

fn positive_atoms(rule: &Rule) -> Vec<&Atom> {
    rule.body
        .iter()
        .filter_map(|l| match l {
            BodyLiteral::Positive(a) => Some(a),
            _ => None,
        })
        .collect()
}

/// The delta restriction applied to one semi-naive pass — see
/// [`apply_rule_seminaive`].
struct SeminaiveView<'a> {
    delta_pos: usize,
    delta: &'a BTreeMap<RelationName, Relation>,
    old_chain: [&'a Instance; 2],
    recursive_positions: &'a [usize],
}

/// Recursive nested-loop join over the positive atoms; when all positive
/// atoms are matched, negative literals and inequalities are checked and the
/// head is instantiated.
fn join_positive(
    rule: &Rule,
    positives: &[&Atom],
    index: usize,
    databases: &[&Instance],
    bindings: &mut BTreeMap<String, Value>,
    results: &mut Vec<Tuple>,
    view: Option<&SeminaiveView<'_>>,
) -> Result<(), DatalogError> {
    if index == positives.len() {
        if check_filters(rule, databases, bindings)? {
            results.push(instantiate(rule, &rule.head, bindings)?);
        }
        return Ok(());
    }
    let atom = positives[index];
    let relation: Option<&Relation> = match view {
        Some(v) if v.delta_pos == index => v.delta.get(&atom.relation),
        Some(v) if index < v.delta_pos && v.recursive_positions.contains(&index) => {
            lookup(&v.old_chain, &atom.relation)
        }
        _ => lookup(databases, &atom.relation),
    };
    let Some(relation) = relation else {
        return Ok(());
    };
    'tuples: for tuple in relation.iter() {
        if tuple.arity() != atom.args.len() {
            continue;
        }
        let mut added: Vec<&str> = Vec::new();
        for (term, value) in atom.args.iter().zip(tuple.values()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        undo(bindings, &added);
                        continue 'tuples;
                    }
                }
                Term::Var(name) => match bindings.get(name) {
                    Some(bound) if bound != value => {
                        undo(bindings, &added);
                        continue 'tuples;
                    }
                    Some(_) => {}
                    None => {
                        bindings.insert(name.clone(), *value);
                        added.push(name);
                    }
                },
            }
        }
        join_positive(
            rule,
            positives,
            index + 1,
            databases,
            bindings,
            results,
            view,
        )?;
        undo(bindings, &added);
    }
    Ok(())
}

fn undo(bindings: &mut BTreeMap<String, Value>, added: &[&str]) {
    for name in added {
        bindings.remove(*name);
    }
}

/// Checks negated atoms and inequalities under a complete binding.
fn check_filters(
    rule: &Rule,
    databases: &[&Instance],
    bindings: &BTreeMap<String, Value>,
) -> Result<bool, DatalogError> {
    for lit in &rule.body {
        match lit {
            BodyLiteral::Positive(_) => {}
            BodyLiteral::Negative(atom) => {
                let tuple = instantiate(rule, atom, bindings)?;
                let present = databases
                    .iter()
                    .any(|db| db.get(&atom.relation).is_some_and(|r| r.contains(&tuple)));
                if present {
                    return Ok(false);
                }
            }
            BodyLiteral::NotEqual(a, b) => {
                let av = resolve(rule, a, bindings)?;
                let bv = resolve(rule, b, bindings)?;
                if av == bv {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// Resolves a term under a binding.  An unbound variable is a hard error:
/// the safety check guarantees every variable of a filter literal is bound by
/// the positive body, so hitting this means the caller bypassed safety —
/// failing loudly beats fabricating a sentinel value that silently satisfies
/// (or falsifies) the filter.
fn resolve<'b>(
    rule: &Rule,
    term: &'b Term,
    bindings: &'b BTreeMap<String, Value>,
) -> Result<&'b Value, DatalogError> {
    match term {
        Term::Const(c) => Ok(c),
        Term::Var(name) => bindings
            .get(name)
            .ok_or_else(|| DatalogError::UnboundVariable {
                rule: rule.to_string(),
                variable: name.clone(),
            }),
    }
}

fn instantiate(
    rule: &Rule,
    atom: &Atom,
    bindings: &BTreeMap<String, Value>,
) -> Result<Tuple, DatalogError> {
    let mut values = ValueVec::with_capacity(atom.args.len());
    for term in &atom.args {
        values.push(*resolve(rule, term, bindings)?);
    }
    Ok(Tuple::from(values))
}

fn lookup<'a>(databases: &[&'a Instance], relation: &RelationName) -> Option<&'a Relation> {
    databases.iter().find_map(|db| db.get(relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledProgram;
    use crate::parser::parse_program;

    fn edb(pairs: &[(&str, usize)], facts: &[(&str, &[&str])]) -> Instance {
        let schema = Schema::from_pairs(pairs.iter().map(|&(n, a)| (n, a))).unwrap();
        let mut inst = Instance::empty(&schema);
        for (rel, vals) in facts {
            inst.insert(*rel, Tuple::from_iter(vals.iter().copied()))
                .unwrap();
        }
        inst
    }

    #[test]
    fn single_rule_join_with_negation_and_inequality() {
        let program =
            parse_program("suspicious(X,Y) :- pay(X,Y), pay(X,Z), Y <> Z, NOT refund(X).").unwrap();
        let db = edb(
            &[("pay", 2), ("refund", 1)],
            &[
                ("pay", &["time", "855"]),
                ("pay", &["time", "900"]),
                ("pay", &["newsweek", "845"]),
                ("refund", &["newsweek"]),
            ],
        );
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        let sus = out.relation("suspicious").unwrap();
        assert_eq!(sus.len(), 2); // (time,855) and (time,900)
        assert!(out.holds("suspicious", &Tuple::from_iter(["time", "855"])));
        assert!(!out.holds("suspicious", &Tuple::from_iter(["newsweek", "845"])));
    }

    #[test]
    fn missing_body_relations_are_treated_as_empty() {
        let program = parse_program("p(X) :- q(X), NOT r(X).").unwrap();
        let db = edb(&[("q", 1)], &[("q", &["a"])]);
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert!(out.holds("p", &Tuple::from_iter(["a"])));
    }

    #[test]
    fn constants_in_rules_filter_matches() {
        let program = parse_program("vip(X) :- order(X, gold).").unwrap();
        let db = edb(
            &[("order", 2)],
            &[("order", &["alice", "gold"]), ("order", &["bob", "silver"])],
        );
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert!(out.holds("vip", &Tuple::from_iter(["alice"])));
        assert!(!out.holds("vip", &Tuple::from_iter(["bob"])));
    }

    #[test]
    fn propositional_rules_work() {
        let program = parse_program("ok :- a(X), NOT b(X).\nerror :- b(X), NOT a(X).").unwrap();
        let db = edb(&[("a", 1), ("b", 1)], &[("a", &["1"])]);
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert!(out.relation("ok").unwrap().holds());
        assert!(!out.relation("error").unwrap().holds());
    }

    #[test]
    fn layered_nonrecursive_programs_evaluate_in_order() {
        let program = parse_program(
            "billed(X) :- order(X), price(X,Y).\n\
             overdue(X) :- billed(X), NOT pay(X).",
        )
        .unwrap();
        let db = edb(
            &[("order", 1), ("price", 2), ("pay", 1)],
            &[
                ("order", &["time"]),
                ("price", &["time", "855"]),
                ("order", &["lemonde"]),
            ],
        );
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert!(out.holds("billed", &Tuple::from_iter(["time"])));
        assert!(out.holds("overdue", &Tuple::from_iter(["time"])));
        assert!(!out.holds("overdue", &Tuple::from_iter(["lemonde"])));
    }

    #[test]
    fn layered_programs_ignore_alphabetical_order() {
        // `a` depends on `b` but sorts before it: evaluation must follow the
        // dependency order, not the relation-name order (regression test for
        // the stratum-internal ordering bug).
        let program = parse_program("a(X) :- b(X).\nb(X) :- q(X).").unwrap();
        let db = edb(&[("q", 1)], &[("q", &["v"])]);
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert!(out.holds("a", &Tuple::from_iter(["v"])));
        assert!(out.holds("b", &Tuple::from_iter(["v"])));
    }

    #[test]
    fn recursive_program_rejected_by_nonrecursive_entry_point() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- edge(X,Y), tc(Y,Z).",
        )
        .unwrap();
        let db = edb(&[("edge", 2)], &[("edge", &["a", "b"])]);
        assert!(matches!(
            evaluate_nonrecursive(&program, &db),
            Err(DatalogError::Recursive { .. })
        ));
    }

    #[test]
    fn transitive_closure_fixpoint_naive_and_seminaive_agree() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- edge(X,Y), tc(Y,Z).",
        )
        .unwrap();
        // A chain a -> b -> c -> d plus a cycle back to a.
        let db = edb(
            &[("edge", 2)],
            &[
                ("edge", &["a", "b"]),
                ("edge", &["b", "c"]),
                ("edge", &["c", "d"]),
                ("edge", &["d", "a"]),
            ],
        );
        let (naive, naive_stats) = evaluate_stratified(
            &program,
            &db,
            EvalOptions {
                strategy: FixpointStrategy::Naive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let (semi, semi_stats) = evaluate_stratified(
            &program,
            &db,
            EvalOptions {
                strategy: FixpointStrategy::SemiNaive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(naive.relation("tc"), semi.relation("tc"));
        assert_eq!(naive.relation("tc").unwrap().len(), 16); // complete graph on 4 nodes
                                                             // Semi-naive should not derive more tuples than naive re-derivation.
        assert!(semi_stats.tuples_derived <= naive_stats.tuples_derived);
        assert!(naive_stats.rounds >= 3);
    }

    #[test]
    fn seminaive_does_not_rederive_across_delta_positions() {
        // Non-linear transitive closure has two recursive occurrences; the
        // old/delta/full split must enumerate each derivation exactly once.
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- tc(X,Y), tc(Y,Z).",
        )
        .unwrap();
        let n = 6usize;
        let mut facts: Vec<(String, String)> = Vec::new();
        for i in 0..n - 1 {
            facts.push((format!("n{i}"), format!("n{}", i + 1)));
        }
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        for (a, b) in &facts {
            db.insert("edge", Tuple::from_iter([a.as_str(), b.as_str()]))
                .unwrap();
        }
        let (out, stats) = evaluate_stratified(
            &program,
            &db,
            EvalOptions {
                strategy: FixpointStrategy::SemiNaive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        // 15 tc facts on a 6-node chain.
        assert_eq!(out.relation("tc").unwrap().len(), 15);
        // Every derivation is enumerated exactly once: 5 base facts plus one
        // rule-2 derivation per (path, split point) pair — on a 6-node chain
        // that is sum over path lengths L of (6-L)(L-1) = 20, i.e. 25 total.
        // Without the pre-delta split, delta⋈delta pairs are enumerated from
        // both recursive occurrences and the count inflates.
        assert_eq!(
            stats.tuples_derived, 25,
            "semi-naive re-derivation regression: {} tuples derived",
            stats.tuples_derived
        );
        let (_, naive_stats) = evaluate_stratified(
            &program,
            &db,
            EvalOptions {
                strategy: FixpointStrategy::Naive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert!(stats.tuples_derived < naive_stats.tuples_derived);
    }

    #[test]
    fn budget_trips_across_engines_and_unlimited_is_free() {
        let program =
            parse_program("tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).").unwrap();
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        for i in 0..5 {
            db.insert(
                "edge",
                Tuple::from_iter([format!("n{i}"), format!("n{}", i + 1)]),
            )
            .unwrap();
        }
        let compiled = CompiledProgram::compile(&program).unwrap();
        type Eval<'a> = &'a dyn Fn(EvalBudget) -> Result<(Instance, EvalStats), DatalogError>;
        let interpreted: Eval = &|budget| {
            evaluate_stratified(
                &program,
                &db,
                EvalOptions {
                    budget,
                    ..EvalOptions::default()
                },
            )
        };
        let compiled: Eval =
            &|budget| compiled.evaluate(&[&db], None, crate::Parallelism::default(), budget);
        for (engine, evaluate) in [("interpreted", interpreted), ("compiled", compiled)] {
            // Rounds cap: the 6-node chain needs more than two fixpoint
            // rounds, so the evaluation stops with a typed error.
            let err = evaluate(EvalBudget::max_rounds(2)).unwrap_err();
            assert!(
                matches!(
                    err,
                    DatalogError::BudgetExceeded { ref resource, limit: 2, .. }
                        if resource == "rounds"
                ),
                "{engine}: {err}"
            );

            // Derivations cap: 15 tc facts need 25 derivations.
            let err = evaluate(EvalBudget::max_derivations(10)).unwrap_err();
            assert!(
                matches!(
                    err,
                    DatalogError::BudgetExceeded { ref resource, limit: 10, .. }
                        if resource == "derivations"
                ),
                "{engine}: {err}"
            );

            // A budget generous enough for the whole evaluation changes
            // nothing.
            let (out, _) =
                evaluate(EvalBudget::max_derivations(1000).with_max_rounds(1000)).unwrap();
            assert_eq!(out.relation("tc").unwrap().len(), 15);
        }
        assert!(EvalBudget::UNLIMITED.is_unlimited());
        assert!(!EvalBudget::max_rounds(1).is_unlimited());
    }

    #[test]
    fn seminaive_skips_saturated_lower_stratum_rules() {
        // Negation forces `tc` into a later stratum than `edge`, so the base
        // rule has no recursive body atom *and* does not share its stratum
        // with an EDB relation: it must still run only once, not once per
        // fixpoint round.  25 = 5 base + 20 split-point derivations, the
        // same count the compiled engine and the non-stratified variant pin.
        let program = parse_program(
            "bad(X) :- flag(X).\n\
             tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- tc(X,Y), tc(Y,Z), NOT bad(X).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("edge", 2), ("flag", 1)]).unwrap();
        let mut db = Instance::empty(&schema);
        for i in 0..5 {
            db.insert(
                "edge",
                Tuple::from_iter([format!("n{i}"), format!("n{}", i + 1)]),
            )
            .unwrap();
        }
        let (out, stats) = evaluate_stratified(
            &program,
            &db,
            EvalOptions {
                strategy: FixpointStrategy::SemiNaive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.relation("tc").unwrap().len(), 15);
        assert_eq!(stats.tuples_derived, 25);
    }

    #[test]
    fn stratified_negation_after_recursion() {
        let program = parse_program(
            "reach(X) :- source(X).\n\
             reach(Y) :- reach(X), edge(X,Y).\n\
             unreachable(X) :- node(X), NOT reach(X).",
        )
        .unwrap();
        let db = edb(
            &[("source", 1), ("edge", 2), ("node", 1)],
            &[
                ("source", &["a"]),
                ("edge", &["a", "b"]),
                ("node", &["a"]),
                ("node", &["b"]),
                ("node", &["c"]),
            ],
        );
        let (out, _) = evaluate_stratified(&program, &db, EvalOptions::default()).unwrap();
        assert!(out.holds("reach", &Tuple::from_iter(["b"])));
        assert!(out.holds("unreachable", &Tuple::from_iter(["c"])));
        assert!(!out.holds("unreachable", &Tuple::from_iter(["a"])));
    }

    #[test]
    fn compiled_engine_is_selectable_through_options() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- edge(X,Y), tc(Y,Z).",
        )
        .unwrap();
        let db = edb(
            &[("edge", 2)],
            &[("edge", &["a", "b"]), ("edge", &["b", "c"])],
        );
        let (compiled, _) = CompiledProgram::compile(&program)
            .unwrap()
            .evaluate(
                &[&db],
                None,
                crate::Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        let (reference, _) = evaluate_stratified(&program, &db, EvalOptions::default()).unwrap();
        assert_eq!(compiled, reference);
    }

    #[test]
    fn unsafe_program_is_rejected_by_both_engines() {
        let program = parse_program("p(X,Y) :- q(X).").unwrap();
        let db = edb(&[("q", 1)], &[("q", &["a"])]);
        assert!(matches!(
            evaluate_nonrecursive(&program, &db),
            Err(DatalogError::UnsafeRule { .. })
        ));
        assert!(matches!(
            evaluate_stratified(&program, &db, EvalOptions::default()),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn unbound_variable_in_negation_is_a_hard_error() {
        // An unsafe negated rule never reaches the join through the public
        // entry points (the safety check rejects it first); drive the
        // internal application path directly to pin down the defence-in-depth
        // behaviour: no `<unbound:..>` sentinel value is fabricated, the
        // evaluation fails loudly instead.
        let program = parse_program("p(X) :- q(X), NOT r(X, Z).").unwrap();
        let rule = &program.rules()[0];
        let db = edb(&[("q", 1), ("r", 2)], &[("q", &["a"])]);
        let err = apply_rule(rule, &[&db]).unwrap_err();
        assert!(matches!(
            err,
            DatalogError::UnboundVariable { variable, .. } if variable == "Z"
        ));
        // And the public entry point still reports the rule as unsafe.
        assert!(matches!(
            evaluate_nonrecursive(&program, &db),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn empty_program_produces_empty_instance() {
        let program = Program::empty();
        let db = edb(&[("q", 1)], &[]);
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_derivations_are_set_semantics() {
        let program = parse_program("p(X) :- q(X, Y).").unwrap();
        let db = edb(
            &[("q", 2)],
            &[("q", &["a", "1"]), ("q", &["a", "2"]), ("q", &["b", "1"])],
        );
        let out = evaluate_nonrecursive(&program, &db).unwrap();
        assert_eq!(out.relation("p").unwrap().len(), 2);
    }
}
