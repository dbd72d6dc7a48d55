//! Finite satisfiability of Bernays–Schönfinkel (∃\*∀\*) sentences.
//!
//! This is the computational heart of every decidability theorem in the
//! paper.  The decision procedure follows the classical argument the paper
//! cites (\[Ram30\], \[Lew80\], \[BGG97\]): a satisfiable ∃^k∀\* sentence over a
//! relational vocabulary with constants has a model whose domain consists of
//! (at most) the constants plus `max(1, k)` additional elements.  Under the
//! unique-name assumption of the relational setting we therefore:
//!
//! 1. normalise the sentence to negation normal form and verify the ∃\*∀\*
//!    shape (existentials never under universals);
//! 2. enumerate candidate domain sizes from `max(1, |C|)` up to `|C| + k`
//!    (where `C` is the set of constants and `k` the number of existential
//!    variables), instantiating fresh anonymous elements for the non-constant
//!    part of the domain;
//! 3. ground the sentence over the candidate domain: quantifiers expand to
//!    finite conjunctions/disjunctions, atoms over *fixed* relations (the
//!    given database and log in the paper's reductions) evaluate to constants,
//!    and atoms over *free* relations (the unknown input sequence) become
//!    propositional variables;
//! 4. hand the grounded formula to the `rtx-sat` solver; a satisfying
//!    assignment is read back as a [`FiniteStructure`] witness model.
//!
//! The domain-size sweep (rather than grounding only at the maximum size) is
//! required for completeness: a sentence such as `∀x∀y x = y` is satisfiable
//! only in a one-element domain.

use crate::{FiniteStructure, Formula, LogicError, Term};
use rtx_relational::{RelationName, Value};
use rtx_sat::{solve_formula, PropFormula, SatResult, Var};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

thread_local! {
    static GROUNDED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Running totals `(ground_nodes, ground_atoms)` over every grounding
/// [`solve_bs_with_stats`] has attempted on this thread, every candidate
/// domain size included.
///
/// This is a test hook: the decision procedures built on this module report
/// no statistics of their own, so a test pins what one of them grounds by
/// reading this counter before and after the call.
pub fn grounding_count() -> (u64, u64) {
    GROUNDED.with(Cell::get)
}

/// Default budget on the number of propositional nodes a single grounding may
/// produce.  The NEXPTIME lower bound is real: exceeding the budget returns
/// [`LogicError::GroundingTooLarge`] instead of looping for hours.
pub const DEFAULT_NODE_LIMIT: usize = 5_000_000;

/// A Bernays–Schönfinkel satisfiability problem.
#[derive(Debug, Clone)]
pub struct BsProblem {
    sentence: Formula,
    /// Relations with a fixed, closed-world interpretation (name → (arity, tuples)).
    fixed: BTreeMap<RelationName, (usize, BTreeSet<Vec<Value>>)>,
    /// Extra constants that must be part of every candidate domain (e.g. the
    /// active domain of the database in Theorem 3.1).
    extra_constants: BTreeSet<Value>,
    node_limit: usize,
}

impl BsProblem {
    /// Creates a problem with no fixed relations and no extra constants.
    pub fn new(sentence: Formula) -> Self {
        BsProblem {
            sentence,
            fixed: BTreeMap::new(),
            extra_constants: BTreeSet::new(),
            node_limit: DEFAULT_NODE_LIMIT,
        }
    }

    /// The sentence being decided.
    pub fn sentence(&self) -> &Formula {
        &self.sentence
    }

    /// Fixes the interpretation of a relation (closed world).  Any values in
    /// the tuples are added to the constant pool.
    pub fn fix_relation<N, I>(&mut self, name: N, arity: usize, tuples: I) -> &mut Self
    where
        N: Into<RelationName>,
        I: IntoIterator<Item = Vec<Value>>,
    {
        let set: BTreeSet<Vec<Value>> = tuples.into_iter().collect();
        for t in &set {
            self.extra_constants.extend(t.iter().cloned());
        }
        self.fixed.insert(name.into(), (arity, set));
        self
    }

    /// Adds constants that must appear in every candidate domain.
    pub fn add_constants<I>(&mut self, values: I) -> &mut Self
    where
        I: IntoIterator<Item = Value>,
    {
        self.extra_constants.extend(values);
        self
    }

    /// Overrides the grounding node budget.
    pub fn set_node_limit(&mut self, limit: usize) -> &mut Self {
        self.node_limit = limit;
        self
    }

    /// True if `name` has a fixed interpretation.
    pub fn is_fixed(&self, name: &RelationName) -> bool {
        self.fixed.contains_key(name)
    }
}

/// The outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BsOutcome {
    /// Satisfiable; the witness model interprets both the fixed and the free
    /// relations over the candidate domain.
    Satisfiable(FiniteStructure),
    /// No model exists (over any domain, by the small-model property).
    Unsatisfiable,
}

impl BsOutcome {
    /// True for [`BsOutcome::Satisfiable`].
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, BsOutcome::Satisfiable(_))
    }
}

/// Statistics about the grounding: exact sizes, so tests can pin them
/// (`crates/verify/tests/grounding_budget.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroundingStats {
    /// Domain size of the last grounding attempted.
    pub domain_size: usize,
    /// Number of propositional nodes in the last grounded formula.
    pub ground_nodes: usize,
    /// Number of distinct ground atoms (propositional variables) created.
    pub ground_atoms: usize,
    /// Number of candidate domain sizes tried.
    pub domains_tried: usize,
}

/// Decides satisfiability of a [`BsProblem`].
pub fn solve_bs(problem: &BsProblem) -> Result<BsOutcome, LogicError> {
    solve_bs_with_stats(problem).map(|(outcome, _)| outcome)
}

/// Decides satisfiability and reports grounding statistics.
pub fn solve_bs_with_stats(problem: &BsProblem) -> Result<(BsOutcome, GroundingStats), LogicError> {
    let free = problem.sentence.free_variables();
    if !free.is_empty() {
        return Err(LogicError::NotASentence {
            free_variables: free.into_iter().collect(),
        });
    }
    if !problem.sentence.is_bernays_schonfinkel() {
        return Err(LogicError::NotBernaysSchonfinkel);
    }
    // Arity consistency check up front for clearer errors.
    problem.sentence.relations()?;

    let nnf = problem.sentence.nnf();
    let mut constants: Vec<Value> = Vec::new();
    for c in problem
        .sentence
        .constants()
        .into_iter()
        .chain(problem.extra_constants.iter().cloned())
    {
        if !constants.contains(&c) {
            constants.push(c);
        }
    }
    let k = problem.sentence.existential_width();

    let min_size = constants.len().max(1);
    let max_size = (constants.len() + k).max(1);

    let mut stats = GroundingStats::default();
    for size in min_size..=max_size {
        let domain = build_domain(&constants, size);
        stats.domains_tried += 1;
        stats.domain_size = domain.len();

        let mut grounder = Grounder::new(problem, &domain, problem.node_limit);
        let prop = grounder.ground(&nnf, &BTreeMap::new());
        GROUNDED.with(|total| {
            let (nodes, atoms) = total.get();
            total.set((
                nodes + grounder.nodes as u64,
                atoms + grounder.atoms.len() as u64,
            ));
        });
        let prop = prop?;
        stats.ground_nodes = grounder.nodes;
        stats.ground_atoms = grounder.atoms.len();

        match solve_formula(&prop) {
            SatResult::Sat(model) => {
                let mut witness = FiniteStructure::new(domain.clone());
                // Fixed relations keep their given interpretation.
                for (name, (_arity, tuples)) in &problem.fixed {
                    for t in tuples {
                        witness.add_fact(name.clone(), t.clone());
                    }
                }
                // Free relations are read off the SAT model.
                for ((name, tuple), var) in &grounder.atoms {
                    if model.value(*var) == Some(true) {
                        witness.add_fact(name.clone(), tuple.clone());
                    }
                }
                return Ok((BsOutcome::Satisfiable(witness), stats));
            }
            SatResult::Unsat => continue,
        }
    }
    Ok((BsOutcome::Unsatisfiable, stats))
}

/// Builds a domain of exactly `size` values: all constants first, then fresh
/// anonymous elements guaranteed not to collide with any constant.
fn build_domain(constants: &[Value], size: usize) -> Vec<Value> {
    let mut domain: Vec<Value> = constants.to_vec();
    let mut i = 0usize;
    while domain.len() < size {
        let candidate = Value::str(format!("⋆{i}"));
        if !domain.contains(&candidate) {
            domain.push(candidate);
        }
        i += 1;
    }
    domain
}

struct Grounder<'a> {
    problem: &'a BsProblem,
    domain: &'a [Value],
    node_limit: usize,
    nodes: usize,
    atoms: BTreeMap<(RelationName, Vec<Value>), Var>,
}

impl<'a> Grounder<'a> {
    fn new(problem: &'a BsProblem, domain: &'a [Value], node_limit: usize) -> Self {
        Grounder {
            problem,
            domain,
            node_limit,
            nodes: 0,
            atoms: BTreeMap::new(),
        }
    }

    fn bump(&mut self, by: usize) -> Result<(), LogicError> {
        self.nodes += by;
        if self.nodes > self.node_limit {
            Err(LogicError::GroundingTooLarge {
                estimated_nodes: self.nodes,
                limit: self.node_limit,
            })
        } else {
            Ok(())
        }
    }

    fn atom_var(&mut self, relation: &RelationName, values: Vec<Value>) -> Var {
        let next_index = self.atoms.len() as u32;
        *self
            .atoms
            .entry((relation.clone(), values))
            .or_insert(Var(next_index))
    }

    fn resolve(&self, term: &Term, env: &BTreeMap<String, Value>) -> Result<Value, LogicError> {
        match term {
            Term::Const(v) => Ok(*v),
            Term::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| LogicError::UnboundVariable { name: name.clone() }),
        }
    }

    /// Grounds an NNF formula under a variable environment.
    fn ground(
        &mut self,
        formula: &Formula,
        env: &BTreeMap<String, Value>,
    ) -> Result<PropFormula, LogicError> {
        self.bump(1)?;
        match formula {
            Formula::True => Ok(PropFormula::True),
            Formula::False => Ok(PropFormula::False),
            Formula::Eq(a, b) => {
                let av = self.resolve(a, env)?;
                let bv = self.resolve(b, env)?;
                Ok(if av == bv {
                    PropFormula::True
                } else {
                    PropFormula::False
                })
            }
            Formula::Atom { relation, args } => {
                let values = args
                    .iter()
                    .map(|t| self.resolve(t, env))
                    .collect::<Result<Vec<Value>, LogicError>>()?;
                if let Some((arity, tuples)) = self.problem.fixed.get(relation) {
                    if *arity != values.len() {
                        return Err(LogicError::InconsistentArity {
                            relation: relation.as_str().to_string(),
                            first: *arity,
                            second: values.len(),
                        });
                    }
                    Ok(if tuples.contains(&values) {
                        PropFormula::True
                    } else {
                        PropFormula::False
                    })
                } else {
                    Ok(PropFormula::Atom(self.atom_var(relation, values)))
                }
            }
            Formula::Not(inner) => {
                let g = self.ground(inner, env)?;
                Ok(PropFormula::not(g))
            }
            Formula::And(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                for f in fs {
                    parts.push(self.ground(f, env)?);
                }
                Ok(PropFormula::and(parts))
            }
            Formula::Or(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                for f in fs {
                    parts.push(self.ground(f, env)?);
                }
                Ok(PropFormula::or(parts))
            }
            Formula::Implies(a, b) => {
                let ga = self.ground(a, env)?;
                let gb = self.ground(b, env)?;
                Ok(PropFormula::implies(ga, gb))
            }
            Formula::Exists(vars, body) => self.ground_quantifier(vars, body, env, true),
            Formula::Forall(vars, body) => self.ground_quantifier(vars, body, env, false),
        }
    }

    fn ground_quantifier(
        &mut self,
        vars: &[String],
        body: &Formula,
        env: &BTreeMap<String, Value>,
        existential: bool,
    ) -> Result<PropFormula, LogicError> {
        if vars.is_empty() {
            return self.ground(body, env);
        }
        let (first, rest) = vars.split_first().expect("non-empty");
        let mut parts = Vec::with_capacity(self.domain.len());
        for value in self.domain.iter() {
            let mut inner = env.clone();
            inner.insert(first.clone(), *value);
            let grounded = if rest.is_empty() {
                self.ground(body, &inner)?
            } else {
                self.ground_quantifier(rest, body, &inner, existential)?
            };
            parts.push(grounded);
        }
        Ok(if existential {
            PropFormula::or(parts)
        } else {
            PropFormula::and(parts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str, vars: &[&str]) -> Formula {
        Formula::atom(name, vars.iter().map(|v| Term::var(*v)))
    }

    #[test]
    fn rejects_open_formulas() {
        let open = atom("R", &["x"]);
        assert!(matches!(
            solve_bs(&BsProblem::new(open)),
            Err(LogicError::NotASentence { .. })
        ));
    }

    #[test]
    fn rejects_non_bs_sentences() {
        let bad = Formula::forall(["y"], Formula::exists(["x"], atom("R", &["x", "y"])));
        assert!(matches!(
            solve_bs(&BsProblem::new(bad)),
            Err(LogicError::NotBernaysSchonfinkel)
        ));
    }

    #[test]
    fn pure_existential_satisfiable() {
        let f = Formula::exists(
            ["x", "y"],
            Formula::and(vec![
                atom("R", &["x", "y"]),
                Formula::neq(Term::var("x"), Term::var("y")),
            ]),
        );
        match solve_bs(&BsProblem::new(f)).unwrap() {
            BsOutcome::Satisfiable(model) => {
                let tuples = model.relation_tuples("R");
                assert!(tuples.iter().any(|t| t[0] != t[1]));
            }
            BsOutcome::Unsatisfiable => panic!("expected satisfiable"),
        }
    }

    #[test]
    fn forall_exists_conflict_is_unsat() {
        // ∃x R(x) ∧ ∀y (¬R(y)) is unsatisfiable.
        let f = Formula::and(vec![
            Formula::exists(["x"], atom("R", &["x"])),
            Formula::forall(["y"], Formula::not(atom("R", &["y"]))),
        ]);
        assert_eq!(
            solve_bs(&BsProblem::new(f)).unwrap(),
            BsOutcome::Unsatisfiable
        );
    }

    #[test]
    fn small_domain_needed_for_equality_sentences() {
        // ∀x∀y x = y is satisfiable only in a one-element domain; the sweep
        // must find it even though the constant pool is empty.
        let f = Formula::forall(["x", "y"], Formula::eq(Term::var("x"), Term::var("y")));
        assert!(solve_bs(&BsProblem::new(f)).unwrap().is_satisfiable());

        // But together with two distinct constants it is unsatisfiable.
        let g = Formula::and(vec![
            Formula::forall(["x", "y"], Formula::eq(Term::var("x"), Term::var("y"))),
            Formula::exists(
                ["x"],
                Formula::and(vec![
                    Formula::eq(Term::var("x"), Term::constant(Value::str("a"))),
                    Formula::neq(
                        Term::constant(Value::str("a")),
                        Term::constant(Value::str("b")),
                    ),
                ]),
            ),
        ]);
        // note: the inequality of constants a ≠ b is true under the unique
        // name assumption, so the sentence reduces to ∀x∀y x=y over a domain
        // containing both a and b — unsatisfiable.
        assert_eq!(
            solve_bs(&BsProblem::new(g)).unwrap(),
            BsOutcome::Unsatisfiable
        );
    }

    #[test]
    fn fixed_relations_constrain_models() {
        // db: price(time, 855).  Sentence: ∃x∃y (price(x, y) ∧ pay(x, y)), pay free.
        let f = Formula::exists(
            ["x", "y"],
            Formula::and(vec![
                Formula::atom("price", [Term::var("x"), Term::var("y")]),
                Formula::atom("pay", [Term::var("x"), Term::var("y")]),
            ]),
        );
        let mut p = BsProblem::new(f);
        p.fix_relation("price", 2, [vec![Value::str("time"), Value::int(855)]]);
        match solve_bs(&p).unwrap() {
            BsOutcome::Satisfiable(model) => {
                let pay = model.relation_tuples("pay");
                assert!(pay.contains(&vec![Value::str("time"), Value::int(855)]));
            }
            BsOutcome::Unsatisfiable => panic!("expected satisfiable"),
        }

        // With an empty price relation the same sentence is unsatisfiable.
        let f2 = Formula::exists(
            ["x", "y"],
            Formula::and(vec![
                Formula::atom("price", [Term::var("x"), Term::var("y")]),
                Formula::atom("pay", [Term::var("x"), Term::var("y")]),
            ]),
        );
        let mut p2 = BsProblem::new(f2);
        p2.fix_relation("price", 2, Vec::<Vec<Value>>::new());
        assert_eq!(solve_bs(&p2).unwrap(), BsOutcome::Unsatisfiable);
    }

    #[test]
    fn universal_constraints_on_free_relations() {
        // ∀x (R(x) → x = a) ∧ ∃x R(x): satisfiable, and the witness must have
        // R = {a}.
        let a = Value::str("a");
        let f = Formula::and(vec![
            Formula::forall(
                ["x"],
                Formula::implies(
                    atom("R", &["x"]),
                    Formula::eq(Term::var("x"), Term::constant(a)),
                ),
            ),
            Formula::exists(["x"], atom("R", &["x"])),
        ]);
        match solve_bs(&BsProblem::new(f)).unwrap() {
            BsOutcome::Satisfiable(model) => {
                let r = model.relation_tuples("R");
                assert_eq!(r, BTreeSet::from([vec![a]]));
            }
            BsOutcome::Unsatisfiable => panic!("expected satisfiable"),
        }
    }

    #[test]
    fn node_limit_is_enforced() {
        // Three pairwise-distinct existential witnesses force the domain sweep
        // past size 2; the six-variable universal block then blows past the
        // tiny node budget before a satisfying domain size is reached.
        let distinct = Formula::exists(
            ["y1", "y2", "y3"],
            Formula::and(vec![
                atom("S", &["y1", "y2", "y3"]),
                Formula::neq(Term::var("y1"), Term::var("y2")),
                Formula::neq(Term::var("y1"), Term::var("y3")),
                Formula::neq(Term::var("y2"), Term::var("y3")),
            ]),
        );
        let wide_forall = Formula::forall(
            ["x1", "x2", "x3", "x4", "x5", "x6"],
            atom("R", &["x1", "x2", "x3", "x4", "x5", "x6"]),
        );
        let mut p = BsProblem::new(Formula::and(vec![distinct, wide_forall]));
        p.set_node_limit(100);
        assert!(matches!(
            solve_bs(&p),
            Err(LogicError::GroundingTooLarge { .. })
        ));
    }

    #[test]
    fn stats_are_reported() {
        let f = Formula::exists(["x"], atom("R", &["x"]));
        let (outcome, stats) = solve_bs_with_stats(&BsProblem::new(f)).unwrap();
        assert!(outcome.is_satisfiable());
        assert!(stats.domain_size >= 1);
        assert!(stats.ground_nodes > 0);
        assert!(stats.domains_tried >= 1);
    }

    #[test]
    fn grounding_count_totals_every_domain_tried() {
        // `∀x∀y x = y` beside one witness and no constant: the one-element
        // domain is the only candidate, and it decides the sentence.
        let f = Formula::and(vec![
            Formula::exists(["z"], atom("R", &["z"])),
            Formula::forall(["x", "y"], Formula::eq(Term::var("x"), Term::var("y"))),
        ]);
        let before = grounding_count();
        let (outcome, stats) = solve_bs_with_stats(&BsProblem::new(f)).unwrap();
        let after = grounding_count();
        assert!(outcome.is_satisfiable());
        assert_eq!(stats.domains_tried, 1);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (stats.ground_nodes as u64, stats.ground_atoms as u64)
        );

        // An unsatisfiable sentence tries every candidate size, and the
        // counter adds up all of them, not just the last.
        let g = Formula::and(vec![
            Formula::exists(
                ["x", "y"],
                Formula::and(vec![atom("R", &["x"]), atom("R", &["y"])]),
            ),
            Formula::forall(["z"], Formula::not(atom("R", &["z"]))),
        ]);
        let before = grounding_count();
        let (outcome, stats) = solve_bs_with_stats(&BsProblem::new(g)).unwrap();
        let after = grounding_count();
        assert_eq!(outcome, BsOutcome::Unsatisfiable);
        assert_eq!(stats.domains_tried, 2);
        assert!(after.0 - before.0 > stats.ground_nodes as u64);
        assert!(after.1 - before.1 > stats.ground_atoms as u64);
    }

    #[test]
    fn witness_satisfies_sentence_by_direct_evaluation() {
        // Cross-check the SAT-based procedure against Formula::eval on the
        // returned witness.
        let sentence = Formula::and(vec![
            Formula::exists(
                ["x", "y"],
                Formula::and(vec![
                    atom("edge", &["x", "y"]),
                    Formula::neq(Term::var("x"), Term::var("y")),
                ]),
            ),
            Formula::forall(["x"], Formula::not(atom("edge", &["x", "x"]))),
        ]);
        let problem = BsProblem::new(sentence.clone());
        match solve_bs(&problem).unwrap() {
            BsOutcome::Satisfiable(model) => {
                assert!(sentence.eval(&model, &BTreeMap::new()).unwrap());
            }
            BsOutcome::Unsatisfiable => panic!("expected satisfiable"),
        }
    }
}
