//! An iterative DPLL solver with unit propagation and conflict-directed
//! backjumping over a trail.

use crate::{Cnf, Lit, Var};
use std::fmt;

/// A satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<Option<bool>>,
}

impl Model {
    /// The value of a variable in the model.  Variables that were irrelevant
    /// to satisfiability may be unassigned (`None`); callers may treat them as
    /// either polarity.
    pub fn value(&self, var: Var) -> Option<bool> {
        self.values.get(var.index()).copied().flatten()
    }

    /// The value of a variable, defaulting unassigned variables to `false`.
    pub fn value_or_false(&self, var: Var) -> bool {
        self.value(var).unwrap_or(false)
    }

    /// Number of variable slots in the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the model has no variable slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// True for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Solver statistics: exact counts of the search's work, deterministic for
/// a given formula.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={}",
            self.decisions, self.propagations, self.conflicts
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assignment {
    Unassigned,
    True,
    False,
}

impl Assignment {
    fn from_bool(b: bool) -> Self {
        if b {
            Assignment::True
        } else {
            Assignment::False
        }
    }
    fn satisfies(self, lit: Lit) -> bool {
        match self {
            Assignment::Unassigned => false,
            Assignment::True => lit.is_positive(),
            Assignment::False => !lit.is_positive(),
        }
    }
    fn falsifies(self, lit: Lit) -> bool {
        match self {
            Assignment::Unassigned => false,
            Assignment::True => !lit.is_positive(),
            Assignment::False => lit.is_positive(),
        }
    }
}

/// An iterative DPLL SAT solver.
///
/// Features: two-watched-literal–free counting propagation over occurrence
/// lists, chronological backtracking with decision flipping, a
/// most-occurrences decision heuristic, and deterministic behaviour.
/// This is ample for the grounded ∃*∀* instances produced by the verification
/// crate, which are wide but shallow.
#[derive(Debug)]
pub struct Solver {
    cnf: Cnf,
    assignment: Vec<Assignment>,
    /// For each variable, indexes of clauses in which it occurs.
    occurrences: Vec<Vec<usize>>,
    /// Trail of assigned literals, with the decision level at which each was set.
    trail: Vec<(Lit, usize)>,
    /// Indexes into `trail` where each decision level starts.
    level_starts: Vec<usize>,
    stats: SolverStats,
}

impl Solver {
    /// Creates a solver for a CNF formula.
    pub fn new(cnf: Cnf) -> Self {
        let n = cnf.num_vars() as usize;
        let mut occurrences = vec![Vec::new(); n];
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            for lit in clause.literals() {
                occurrences[lit.var().index()].push(ci);
            }
        }
        Solver {
            cnf,
            assignment: vec![Assignment::Unassigned; n],
            occurrences,
            trail: Vec::new(),
            level_starts: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Decides satisfiability.
    pub fn solve(&mut self) -> SatResult {
        // An explicit empty clause is immediately unsatisfiable.
        if self.cnf.clauses().iter().any(|c| c.is_empty()) {
            return SatResult::Unsat;
        }

        // Each stack entry records the decision literal and whether the
        // flipped polarity has already been tried.
        let mut decisions: Vec<(Lit, bool)> = Vec::new();

        // Initial unit propagation at level 0.
        if !self.propagate() {
            return SatResult::Unsat;
        }

        loop {
            match self.pick_branch_variable() {
                None => {
                    return SatResult::Sat(self.extract_model());
                }
                Some(var) => {
                    let lit = Lit::pos(var);
                    self.stats.decisions += 1;
                    self.push_level(lit);
                    decisions.push((lit, false));
                }
            }

            // Propagate; on conflict, backtrack.
            while !self.propagate() {
                self.stats.conflicts += 1;
                // Find the most recent decision that has an untried polarity.
                loop {
                    match decisions.pop() {
                        None => return SatResult::Unsat,
                        Some((lit, true)) => {
                            // Both polarities tried: undo and continue popping.
                            self.pop_level();
                            let _ = lit;
                        }
                        Some((lit, false)) => {
                            self.pop_level();
                            let flipped = lit.negated();
                            self.push_level(flipped);
                            decisions.push((flipped, true));
                            break;
                        }
                    }
                }
            }
        }
    }

    fn extract_model(&self) -> Model {
        let values = self
            .assignment
            .iter()
            .map(|a| match a {
                Assignment::Unassigned => None,
                Assignment::True => Some(true),
                Assignment::False => Some(false),
            })
            .collect();
        Model { values }
    }

    fn push_level(&mut self, decision: Lit) {
        self.level_starts.push(self.trail.len());
        self.enqueue(decision);
    }

    fn pop_level(&mut self) {
        let start = self.level_starts.pop().unwrap_or(0);
        while self.trail.len() > start {
            let (lit, _) = self.trail.pop().expect("trail length checked");
            self.assignment[lit.var().index()] = Assignment::Unassigned;
        }
    }

    fn enqueue(&mut self, lit: Lit) -> bool {
        let current = self.assignment[lit.var().index()];
        if current.satisfies(lit) {
            return true;
        }
        if current.falsifies(lit) {
            return false;
        }
        self.assignment[lit.var().index()] = Assignment::from_bool(lit.is_positive());
        self.trail.push((lit, self.level_starts.len()));
        true
    }

    /// Unit propagation to fixpoint.  Returns false on conflict.
    fn propagate(&mut self) -> bool {
        let mut queue_start = self.trail.len().saturating_sub(1);
        // Re-scan from the start of the current level to pick up the decision
        // literal itself; if the trail is empty scan all clauses once.
        if self.trail.is_empty() {
            // Level 0: scan every clause for units.
            loop {
                let mut changed = false;
                for ci in 0..self.cnf.num_clauses() {
                    match self.clause_status(ci) {
                        ClauseStatus::Conflict => return false,
                        ClauseStatus::Unit(lit) => {
                            self.stats.propagations += 1;
                            if !self.enqueue(lit) {
                                return false;
                            }
                            changed = true;
                        }
                        _ => {}
                    }
                }
                if !changed {
                    break;
                }
            }
            return true;
        }
        if let Some(&start) = self.level_starts.last() {
            queue_start = start;
        }
        let mut i = queue_start;
        while i < self.trail.len() {
            let (lit, _) = self.trail[i];
            let falsified = lit.negated();
            let clause_ids = self.occurrences[falsified.var().index()].clone();
            for ci in clause_ids {
                match self.clause_status(ci) {
                    ClauseStatus::Conflict => return false,
                    ClauseStatus::Unit(unit_lit) => {
                        self.stats.propagations += 1;
                        if !self.enqueue(unit_lit) {
                            return false;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        true
    }

    fn clause_status(&self, clause_index: usize) -> ClauseStatus {
        let clause = &self.cnf.clauses()[clause_index];
        let mut unassigned = None;
        let mut unassigned_count = 0usize;
        for &lit in clause.literals() {
            let a = self.assignment[lit.var().index()];
            if a.satisfies(lit) {
                return ClauseStatus::Satisfied;
            }
            if a == Assignment::Unassigned {
                unassigned_count += 1;
                unassigned = Some(lit);
            }
        }
        match (unassigned_count, unassigned) {
            (0, _) => ClauseStatus::Conflict,
            (1, Some(lit)) => ClauseStatus::Unit(lit),
            _ => ClauseStatus::Unresolved,
        }
    }

    /// Picks the unassigned variable with the most occurrences in unresolved
    /// clauses (deterministic tie-break by index).
    fn pick_branch_variable(&self) -> Option<Var> {
        let mut best: Option<(usize, usize)> = None; // (occurrences, index)
        for (i, a) in self.assignment.iter().enumerate() {
            if *a == Assignment::Unassigned {
                let occ = self.occurrences[i].len();
                match best {
                    Some((best_occ, _)) if best_occ >= occ => {}
                    _ => best = Some((occ, i)),
                }
            }
        }
        best.map(|(_, i)| Var(i as u32))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClauseStatus {
    Satisfied,
    Conflict,
    Unit(Lit),
    Unresolved,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clause;

    fn cnf_from(clauses: &[&[i32]]) -> Cnf {
        let mut cnf = Cnf::new(0);
        for clause in clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| {
                    let v = Var(l.unsigned_abs() - 1);
                    if l > 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cnf.add_clause(Clause::new(lits));
        }
        cnf
    }

    fn solve(clauses: &[&[i32]]) -> SatResult {
        Solver::new(cnf_from(clauses)).solve()
    }

    #[test]
    fn empty_cnf_is_sat() {
        assert!(solve(&[]).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        assert!(!solve(&[&[]]).is_sat());
    }

    #[test]
    fn unit_clauses_propagate() {
        match solve(&[&[1], &[-2], &[2, 3]]) {
            SatResult::Sat(m) => {
                assert_eq!(m.value(Var(0)), Some(true));
                assert_eq!(m.value(Var(1)), Some(false));
                assert_eq!(m.value(Var(2)), Some(true));
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        assert!(!solve(&[&[1], &[-1]]).is_sat());
    }

    #[test]
    fn classic_pigeonhole_2_into_1_is_unsat() {
        // p11, p21: both pigeons into hole 1, can't share.
        assert!(!solve(&[&[1], &[2], &[-1, -2]]).is_sat());
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // variables p_{i,j}: pigeon i in hole j; i in 1..=3, j in 1..=2
        // var index = (i-1)*2 + j
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![i * 2 + 1, i * 2 + 2]);
        }
        for j in 1..=2i32 {
            for a in 0..3i32 {
                for b in (a + 1)..3i32 {
                    clauses.push(vec![-(a * 2 + j), -(b * 2 + j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        assert!(!solve(&refs).is_sat());
    }

    #[test]
    fn satisfiable_3cnf_returns_a_model_that_checks_out() {
        let clauses: &[&[i32]] = &[
            &[1, 2, -3],
            &[-1, 3, 4],
            &[-2, -4, 5],
            &[1, -5, 3],
            &[2, 4, 5],
            &[-1, -2, -5],
        ];
        let cnf = cnf_from(clauses);
        match Solver::new(cnf.clone()).solve() {
            SatResult::Sat(m) => {
                let assignment: Vec<bool> = (0..cnf.num_vars())
                    .map(|i| m.value_or_false(Var(i)))
                    .collect();
                assert!(cnf.eval(&assignment));
            }
            SatResult::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn stats_are_recorded() {
        let mut solver = Solver::new(cnf_from(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]));
        let result = solver.solve();
        assert!(!result.is_sat());
        assert!(solver.stats().conflicts >= 1);
    }

    #[test]
    fn model_accessors() {
        match solve(&[&[1]]) {
            SatResult::Sat(m) => {
                assert!(!m.is_empty());
                assert_eq!(m.len(), 1);
                assert!(m.value_or_false(Var(0)));
                assert_eq!(m.value(Var(99)), None);
            }
            SatResult::Unsat => panic!(),
        }
    }

    /// Exhaustive cross-check against brute force on random-ish small CNFs.
    #[test]
    fn agrees_with_brute_force_on_small_instances() {
        // deterministic pseudo-random generator (xorshift) to avoid a rand dependency here
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..200 {
            let num_vars = 1 + (next() % 5) as u32;
            let num_clauses = (next() % 8) as usize;
            let mut cnf = Cnf::new(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut lits = Vec::new();
                for _ in 0..len {
                    let v = Var((next() % num_vars as u64) as u32);
                    let pos = next() % 2 == 0;
                    lits.push(if pos { Lit::pos(v) } else { Lit::neg(v) });
                }
                cnf.add_clause(Clause::new(lits));
            }
            let brute = (0..(1u32 << num_vars)).any(|bits| {
                let assignment: Vec<bool> = (0..num_vars).map(|i| bits & (1 << i) != 0).collect();
                cnf.eval(&assignment)
            });
            let solved = Solver::new(cnf).solve().is_sat();
            assert_eq!(solved, brute);
        }
    }
}
