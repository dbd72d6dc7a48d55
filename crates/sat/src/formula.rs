//! Propositional formulas (the target of first-order grounding).

use crate::Var;
use std::collections::BTreeSet;
use std::fmt;

/// A propositional formula over variables [`Var`].
///
/// This is the intermediate representation produced by grounding an ∃*∀*FO
/// sentence over its small model domain (see `rtx-logic::bernays`).  `And` and
/// `Or` are n-ary to keep grounded formulas shallow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropFormula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// A propositional variable.
    Atom(Var),
    /// Negation.
    Not(Box<PropFormula>),
    /// n-ary conjunction (empty conjunction is true).
    And(Vec<PropFormula>),
    /// n-ary disjunction (empty disjunction is false).
    Or(Vec<PropFormula>),
}

impl PropFormula {
    /// A variable atom.
    pub fn var(index: u32) -> Self {
        PropFormula::Atom(Var(index))
    }

    /// Negation, with constant folding.
    ///
    /// An associated constructor (not `std::ops::Not`): it takes the operand
    /// by value and folds constants.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: PropFormula) -> Self {
        match f {
            PropFormula::True => PropFormula::False,
            PropFormula::False => PropFormula::True,
            PropFormula::Not(inner) => *inner,
            other => PropFormula::Not(Box::new(other)),
        }
    }

    /// Conjunction, with constant folding and flattening.
    pub fn and(fs: Vec<PropFormula>) -> Self {
        let mut out = Vec::new();
        for f in fs {
            match f {
                PropFormula::True => {}
                PropFormula::False => return PropFormula::False,
                PropFormula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PropFormula::True,
            1 => out.into_iter().next().expect("len checked"),
            _ => PropFormula::And(out),
        }
    }

    /// Disjunction, with constant folding and flattening.
    pub fn or(fs: Vec<PropFormula>) -> Self {
        let mut out = Vec::new();
        for f in fs {
            match f {
                PropFormula::False => {}
                PropFormula::True => return PropFormula::True,
                PropFormula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PropFormula::False,
            1 => out.into_iter().next().expect("len checked"),
            _ => PropFormula::Or(out),
        }
    }

    /// Implication `a → b` as `¬a ∨ b`.
    pub fn implies(a: PropFormula, b: PropFormula) -> Self {
        PropFormula::or(vec![PropFormula::not(a), b])
    }

    /// Biconditional `a ↔ b`.
    pub fn iff(a: PropFormula, b: PropFormula) -> Self {
        PropFormula::and(vec![
            PropFormula::implies(a.clone(), b.clone()),
            PropFormula::implies(b, a),
        ])
    }

    /// The set of variables occurring in the formula.
    pub fn variables(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            PropFormula::True | PropFormula::False => {}
            PropFormula::Atom(v) => {
                out.insert(*v);
            }
            PropFormula::Not(f) => f.collect_vars(out),
            PropFormula::And(fs) | PropFormula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
        }
    }

    /// The largest variable index occurring in the formula, plus one.
    pub fn num_vars(&self) -> u32 {
        self.variables().iter().map(|v| v.0 + 1).max().unwrap_or(0)
    }

    /// Evaluates the formula under an assignment function.
    pub fn eval<F>(&self, assignment: &F) -> bool
    where
        F: Fn(Var) -> bool,
    {
        match self {
            PropFormula::True => true,
            PropFormula::False => false,
            PropFormula::Atom(v) => assignment(*v),
            PropFormula::Not(f) => !f.eval(assignment),
            PropFormula::And(fs) => fs.iter().all(|f| f.eval(assignment)),
            PropFormula::Or(fs) => fs.iter().any(|f| f.eval(assignment)),
        }
    }

    /// Structural size (number of nodes): an exact measure of
    /// grounded-formula growth.
    pub fn size(&self) -> usize {
        match self {
            PropFormula::True | PropFormula::False | PropFormula::Atom(_) => 1,
            PropFormula::Not(f) => 1 + f.size(),
            PropFormula::And(fs) | PropFormula::Or(fs) => {
                1 + fs.iter().map(PropFormula::size).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for PropFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropFormula::True => write!(f, "⊤"),
            PropFormula::False => write!(f, "⊥"),
            PropFormula::Atom(v) => write!(f, "{v}"),
            PropFormula::Not(inner) => write!(f, "¬{inner}"),
            PropFormula::And(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            PropFormula::Or(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        assert_eq!(PropFormula::not(PropFormula::True), PropFormula::False);
        assert_eq!(
            PropFormula::and(vec![PropFormula::True, PropFormula::var(0)]),
            PropFormula::var(0)
        );
        assert_eq!(
            PropFormula::and(vec![PropFormula::False, PropFormula::var(0)]),
            PropFormula::False
        );
        assert_eq!(
            PropFormula::or(vec![PropFormula::False, PropFormula::var(1)]),
            PropFormula::var(1)
        );
        assert_eq!(
            PropFormula::or(vec![PropFormula::True, PropFormula::var(1)]),
            PropFormula::True
        );
        assert_eq!(PropFormula::and(vec![]), PropFormula::True);
        assert_eq!(PropFormula::or(vec![]), PropFormula::False);
    }

    #[test]
    fn double_negation_cancels() {
        let f = PropFormula::not(PropFormula::not(PropFormula::var(2)));
        assert_eq!(f, PropFormula::var(2));
    }

    #[test]
    fn flattening_nested_connectives() {
        let f = PropFormula::and(vec![
            PropFormula::and(vec![PropFormula::var(0), PropFormula::var(1)]),
            PropFormula::var(2),
        ]);
        assert_eq!(
            f,
            PropFormula::And(vec![
                PropFormula::var(0),
                PropFormula::var(1),
                PropFormula::var(2)
            ])
        );
    }

    #[test]
    fn variables_and_num_vars() {
        let f = PropFormula::implies(PropFormula::var(0), PropFormula::var(4));
        assert_eq!(f.variables().len(), 2);
        assert_eq!(f.num_vars(), 5);
        assert_eq!(PropFormula::True.num_vars(), 0);
    }

    #[test]
    fn eval_matches_semantics() {
        let f = PropFormula::iff(PropFormula::var(0), PropFormula::var(1));
        assert!(f.eval(&|_| true));
        assert!(f.eval(&|_| false));
        assert!(!f.eval(&|v: Var| v.0 == 0));
    }

    #[test]
    fn size_counts_nodes() {
        let f = PropFormula::and(vec![
            PropFormula::var(0),
            PropFormula::not(PropFormula::var(1)),
        ]);
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn display_is_readable() {
        let f = PropFormula::or(vec![
            PropFormula::var(0),
            PropFormula::not(PropFormula::var(1)),
        ]);
        assert_eq!(f.to_string(), "(v0 ∨ ¬v1)");
    }
}
