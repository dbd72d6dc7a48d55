//! Rule compilation and hash-indexed evaluation.
//!
//! The interpreter in [`crate::engine`] re-analyses a program on every call:
//! it re-checks safety, rebuilds the dependency graph, re-stratifies, binds
//! variables through a string-keyed map and scans (and clones) whole
//! relations at every join level.  For a Spocus transducer that evaluates the
//! same output program at every input step, all of that work is loop-invariant.
//!
//! This module factors the loop-invariant work into a one-time **compilation
//! pipeline**:
//!
//! 1. **Analysis** — safety checking, arity collection, dependency-graph
//!    construction and stratification run exactly once, in
//!    [`CompiledProgram::compile`].  Rules are grouped into strata and, inside
//!    each non-recursive stratum, ordered topologically so that a rule never
//!    reads a derived relation before the rules defining it have run.
//! 2. **Slot resolution** — every variable of a rule is assigned a dense
//!    numeric slot; at evaluation time bindings live in a flat
//!    `Vec<Option<Value>>` register frame instead of a `BTreeMap<String,
//!    Value>`.
//! 3. **Join ordering** — the positive atoms of each rule are reordered with
//!    a greedy bound-prefix heuristic: at each step the atom with the most
//!    bound columns (constants or variables bound by earlier atoms) is chosen,
//!    ties broken towards fewer fresh variables and then towards the original
//!    body order.
//! 4. **Access-path selection** — for each atom (in its chosen position) the
//!    columns are statically partitioned into *key* columns (constants and
//!    already-bound variables: the hash-index probe key), *write* columns
//!    (first occurrence of a variable: binds the slot) and *check* columns
//!    (repeated variable within the same atom: an equality filter).
//!
//! At evaluation time each join level probes a [`TupleIndex`] on the atom's
//! key columns instead of scanning the relation.  Indexes are built lazily,
//! only for the `(relation, columns)` pairs the program actually probes, and
//! cached for the duration of an evaluation.  For a long-lived database the
//! caching extends across evaluations, sessions and threads: make the
//! database resident with [`CompiledProgram::prepare`] (or
//! [`ResidentDb::new`]) and evaluate over its [`ResidentDb::view_for`] view
//! — the resident database keeps its indexes across runs and invalidates
//! them per relation by version stamp (see [`crate::resident`] for the
//! lifecycle).
//!
//! Evaluation is **data-parallel**: the paper's set-at-a-time semantics mean
//! every rule of a stratum reads the *previous* fixpoint round, so rules of a
//! recursive round — and waves of head-independent rules in a non-recursive
//! stratum, and chunks of one rule's outer candidates — fan out to the
//! scoped worker pool of [`crate::pool`] when the [`Parallelism`] policy and
//! candidate counts warrant it.  The outer candidates are the level-0 join
//! tuples, or the `(level-0, level-1)` tuple pairs when level 0 is too small
//! to split: a catalog scan behind a one-tuple input guard
//! (`offer(P,Y) :- refresh(R), price(P,Y), …`) splits on `price`.
//! Per-pass sinks are merged in the fixed `(stratum, rule, pass, chunk)`
//! order, so parallel evaluation is bit-identical to sequential, including
//! the [`EvalStats`] counters (see the [`crate::pool`] docs for the
//! determinism contract).
//!
//! The reference interpreter remains available through [`crate::engine`] and
//! is used as an oracle by the randomized equivalence tests; it never calls
//! into this module.

use crate::demand::{magic_rewrite, DemandGoal, DemandProgram};
use crate::engine::{EvalBudget, EvalStats};
use crate::graph::DependencyGraph;
use crate::pool::{Parallelism, Pool};
use crate::resident::{ResidentDb, ResidentView};
use crate::safety::check_program_safety;
use crate::{Atom, BodyLiteral, DatalogError, Program, Rule};
use rtx_logic::Term;
use rtx_relational::{
    FxHashMap, Instance, Relation, RelationName, Schema, Tuple, TupleIndex, Value, ValueVec,
};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

thread_local! {
    static ANALYSES: Cell<u64> = const { Cell::new(0) };
}

/// Number of full program analyses (safety + dependency graph +
/// stratification) performed by this thread.
///
/// This is a test hook: callers that cache a [`CompiledProgram`] can assert
/// that repeated evaluation does **zero** re-analysis by checking that this
/// counter does not move across evaluations.
pub fn analysis_count() -> u64 {
    ANALYSES.with(Cell::get)
}

/// A term as seen from a rule's register frame: either a compiled variable
/// slot or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotTerm {
    /// The value bound to a register slot.
    Slot(usize),
    /// An inline constant.
    Const(Value),
}

/// A positive body atom, compiled against a join position: its columns are
/// partitioned into index-key, slot-write and equality-check columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledAtom {
    relation: RelationName,
    arity: usize,
    /// Position of this atom in the rule body as written (before reordering).
    source_index: usize,
    /// True if the relation is defined in the same stratum (drives the
    /// semi-naive delta rewriting for recursive strata).
    recursive: bool,
    /// Columns probed through the hash index, with the terms producing the
    /// probe key (parallel vectors).
    key_cols: Vec<usize>,
    key_terms: Vec<SlotTerm>,
    /// True if `key_cols` is `[0, 1, .., k-1]`: the probe can range-scan the
    /// relation's sorted tuple set directly, with no index to build.
    prefix_key: bool,
    /// `(column, slot)`: first occurrence of a variable — binds the slot.
    writes: Vec<(usize, usize)>,
    /// `(column, slot)`: repeated variable within this atom — equality check.
    checks: Vec<(usize, usize)>,
}

impl CompiledAtom {
    /// The relation this atom reads.
    pub fn relation(&self) -> &RelationName {
        &self.relation
    }

    /// The columns probed through the hash index.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_cols
    }

    /// True if the probe is a sorted-prefix range scan (key columns
    /// `[0..k)`), which needs no index at all.
    pub fn uses_prefix_scan(&self) -> bool {
        self.prefix_key
    }

    /// The `(column, slot)` pairs that bind fresh variables.
    pub fn write_columns(&self) -> &[(usize, usize)] {
        &self.writes
    }

    /// The `(column, slot)` pairs checked for same-atom variable repeats.
    pub fn check_columns(&self) -> &[(usize, usize)] {
        &self.checks
    }
}

/// A negated atom with slot-resolved arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNegation {
    pub(crate) relation: RelationName,
    pub(crate) args: Vec<SlotTerm>,
}

impl CompiledNegation {
    /// The negated relation.
    pub fn relation(&self) -> &RelationName {
        &self.relation
    }

    /// The slot-resolved arguments.
    pub fn args(&self) -> &[SlotTerm] {
        &self.args
    }
}

/// One rule after compilation: reordered atoms, slot-resolved head and
/// filters, and the size of the register frame.
///
/// Fields are crate-visible so the incremental step evaluator
/// ([`crate::incremental`]) can derive cache-extended variants (head widened
/// with deferred negation arguments, volatile negations stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    pub(crate) head_relation: RelationName,
    pub(crate) head: Vec<SlotTerm>,
    pub(crate) atoms: Vec<CompiledAtom>,
    /// Positions (in `atoms`) of same-stratum relations, precomputed for the
    /// semi-naive delta rewriting.
    pub(crate) recursive_positions: Vec<usize>,
    pub(crate) negations: Vec<CompiledNegation>,
    pub(crate) disequalities: Vec<(SlotTerm, SlotTerm)>,
    pub(crate) n_slots: usize,
    /// Slot index → variable name, for diagnostics.
    pub(crate) slot_names: Vec<String>,
    /// Rendering of the source rule, for diagnostics.
    pub(crate) source: String,
    /// True for demand bookkeeping (magic/supplementary) rules of a
    /// demand-compiled program: their derivations are reported through the
    /// separate `magic_*` [`EvalStats`] counters.
    pub(crate) auxiliary: bool,
}

impl CompiledRule {
    /// The head relation.
    pub fn head_relation(&self) -> &RelationName {
        &self.head_relation
    }

    /// The compiled atoms in chosen join order.
    pub fn atoms(&self) -> &[CompiledAtom] {
        &self.atoms
    }

    /// The compiled negations, in source order.
    pub fn negations(&self) -> &[CompiledNegation] {
        &self.negations
    }

    /// The chosen join order, as indices into the rule body as written.
    pub fn atom_order(&self) -> Vec<usize> {
        self.atoms.iter().map(|a| a.source_index).collect()
    }

    /// Number of register slots (distinct variables) of the rule.
    pub fn slot_count(&self) -> usize {
        self.n_slots
    }
}

/// A stratum of compiled rules.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stratum {
    /// Indices into `CompiledProgram::rules`, topologically ordered by head
    /// relation (meaningful for the single-pass evaluation of non-recursive
    /// strata).
    rule_indices: Vec<usize>,
    /// Head relations of this stratum.
    heads: BTreeSet<RelationName>,
    /// True if some rule body mentions a same-stratum head.
    recursive: bool,
}

/// A datalog program compiled for repeated indexed evaluation.
///
/// Compilation runs every per-program analysis once; evaluation then performs
/// no safety checking, no graph construction and no stratification — see the
/// [module docs](self) for the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    rules: Vec<CompiledRule>,
    strata: Vec<Stratum>,
    out_schema: Schema,
    recursive: bool,
    /// Present for demand-compiled programs
    /// ([`CompiledProgram::compile_demand`]): the rewrite metadata used to
    /// seed and to restrict evaluations.
    demand: Option<Box<DemandProgram>>,
}

impl CompiledProgram {
    /// Compiles a (possibly recursive) stratified program.
    pub fn compile(program: &Program) -> Result<Self, DatalogError> {
        Self::compile_with(program, false, None)
    }

    /// Compiles a program, rejecting recursion among derived relations — the
    /// entry point for Spocus output programs, which must be non-recursive.
    pub fn compile_nonrecursive(program: &Program) -> Result<Self, DatalogError> {
        Self::compile_with(program, true, None)
    }

    /// Compiles a program through the demand (magic-set) rewrite of
    /// [`crate::demand`]: the program is adorned for the given goals at
    /// compile time, magic guards become join-order seeds (every rewritten
    /// rule drives its join from the demanded bindings), and the
    /// [`Self::evaluate`] family automatically merges the goals' static seed
    /// facts into the sources and maps results back onto the original goal
    /// relations via [`DemandProgram::restrict_with`].
    ///
    /// Derivations into magic/supplementary relations are reported through
    /// the separate `magic_*` counters of [`EvalStats`].
    pub fn compile_demand(program: &Program, goals: &[DemandGoal]) -> Result<Self, DatalogError> {
        Self::compile_demand_program(magic_rewrite(program, goals)?)
    }

    /// [`Self::compile_demand`] from an already-computed rewrite.
    pub fn compile_demand_program(rewrite: DemandProgram) -> Result<Self, DatalogError> {
        let mut seeds: BTreeSet<RelationName> = rewrite.auxiliary().clone();
        seeds.extend(rewrite.magic_schema().names().cloned());
        let mut compiled = Self::compile_with(rewrite.program(), false, Some(&seeds))?;
        for rule in &mut compiled.rules {
            rule.auxiliary = rewrite.is_auxiliary(&rule.head_relation);
        }
        compiled.demand = Some(Box::new(rewrite));
        Ok(compiled)
    }

    /// The demand-rewrite metadata, for programs built by
    /// [`Self::compile_demand`].
    pub fn demand(&self) -> Option<&DemandProgram> {
        self.demand.as_deref()
    }

    /// Compiles a program whose rules carry **seed** atoms: relations known
    /// by the caller to be tiny at evaluation time, which the join order
    /// must start from, whatever the greedy bound-prefix heuristic would
    /// otherwise pick.  The delete-rederive programs of [`crate::dred`] seed
    /// on their delta guards ("proportional to the affected closure" only
    /// holds if every synthesized rule drives its join from the guard);
    /// per-step monitors seed on the transducer input relations, whose
    /// per-step cardinality is bounded by the step, not the run.
    pub fn compile_seeded(
        program: &Program,
        seeds: &BTreeSet<RelationName>,
    ) -> Result<Self, DatalogError> {
        Self::compile_with(program, false, Some(seeds))
    }

    fn compile_with(
        program: &Program,
        forbid_recursion: bool,
        seeds: Option<&BTreeSet<RelationName>>,
    ) -> Result<Self, DatalogError> {
        ANALYSES.with(|c| c.set(c.get() + 1));
        check_program_safety(program)?;
        let arities = program.relation_arities()?;
        let graph = DependencyGraph::of(program);
        let idb = program.idb_relations();

        let mut recursive = false;
        if let Some(cycle) = graph.first_cycle() {
            if cycle.iter().any(|r| idb.contains(r)) {
                if forbid_recursion {
                    return Err(DatalogError::Recursive {
                        cycle: cycle.iter().map(|r| r.as_str().to_string()).collect(),
                    });
                }
                recursive = true;
            }
        }

        let relation_strata = graph.stratify()?;
        // Topological position of every relation: `sccs()` lists components
        // dependencies-first, so rules evaluated in this order always see
        // their derived dependencies fully computed.
        let mut topo_pos: BTreeMap<RelationName, usize> = BTreeMap::new();
        for (pos, component) in graph.sccs().iter().enumerate() {
            for relation in component {
                topo_pos.insert(relation.clone(), pos);
            }
        }

        let out_schema = Schema::from_pairs(
            idb.iter()
                .map(|r| (r.clone(), *arities.get(r).unwrap_or(&0))),
        )?;

        let mut rules = Vec::new();
        let mut strata = Vec::new();
        for stratum_relations in &relation_strata {
            let heads: BTreeSet<RelationName> = stratum_relations
                .iter()
                .filter(|r| idb.contains(*r))
                .cloned()
                .collect();
            if heads.is_empty() {
                continue;
            }
            let mut source_indices: Vec<usize> = program
                .rules()
                .iter()
                .enumerate()
                .filter(|(_, r)| heads.contains(&r.head.relation))
                .map(|(i, _)| i)
                .collect();
            source_indices.sort_by_key(|&i| {
                let head = &program.rules()[i].head.relation;
                (*topo_pos.get(head).unwrap_or(&0), i)
            });
            let stratum_recursive = source_indices.iter().any(|&i| {
                program.rules()[i]
                    .body_relations()
                    .iter()
                    .any(|r| heads.contains(r))
            });
            let mut rule_indices = Vec::with_capacity(source_indices.len());
            for i in source_indices {
                rule_indices.push(rules.len());
                rules.push(compile_rule(&program.rules()[i], &heads, seeds)?);
            }
            strata.push(Stratum {
                rule_indices,
                heads,
                recursive: stratum_recursive,
            });
        }

        Ok(CompiledProgram {
            rules,
            strata,
            out_schema,
            recursive,
            demand: None,
        })
    }

    /// The compiled rules, grouped by stratum and topologically ordered.
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// The schema of the derived (IDB) relations.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// True if some derived relation depends on itself.
    pub fn is_recursive(&self) -> bool {
        self.recursive
    }

    /// Makes a database resident with every hash index this program probes
    /// pre-built.
    ///
    /// A transducer evaluates its output program once per input step against
    /// `input ∪ state ∪ db`, where `db` rarely changes; preparing `db` once
    /// makes the per-step cost independent of the database size for
    /// selective rules, and the returned [`ResidentDb`] keeps those indexes
    /// across runs and sessions (invalidated per relation by version stamp).
    /// Prefix-keyed probes range-scan the relation's own sorted tuple set,
    /// so only non-prefix key shapes need an index built here.
    pub fn prepare(&self, db: &Instance) -> ResidentDb {
        let resident = ResidentDb::new(db.clone());
        resident.prepare_for(self);
        resident
    }

    /// Evaluates the program against a list of extensional sources.
    ///
    /// Relations are resolved in each source in turn (first match wins), then
    /// in the optional resident `view` (whose retained indexes are probed
    /// instead of rebuilt; see [`ResidentDb::view_for`]), then in the derived
    /// instance; a relation found nowhere is empty — the same convention as
    /// the reference interpreter.
    ///
    /// Passes whose outer-candidate counts clear the [`Parallelism`] policy's
    /// threshold fan out to the worker pool.  The parallel schedule is
    /// bit-identical to the sequential one — same derived instance, same
    /// [`EvalStats`] — because work units are merged in the fixed `(stratum,
    /// rule, pass, chunk)` order (see [`crate::pool`]).
    ///
    /// The fixpoint loops check the running [`EvalStats`] against `budget`
    /// and stop with [`DatalogError::BudgetExceeded`] instead of spinning
    /// (the overshoot is bounded by one rule wave / fixpoint round).
    pub fn evaluate(
        &self,
        sources: &[&Instance],
        view: Option<&ResidentView>,
        parallelism: Parallelism,
        budget: EvalBudget,
    ) -> Result<(Instance, EvalStats), DatalogError> {
        let parallelism = parallelism.resolved();
        // A demand-compiled program reads its magic seed relations as
        // extensional inputs: merge the goals' static seeds with any runtime
        // seeds the caller put in `sources` and front the combined instance
        // (first match wins, so the merge shadows the partial copies).
        let merged_seeds: Option<Instance> = match &self.demand {
            Some(demand) => {
                let mut inst = demand.seed_instance();
                for name in demand.magic_schema().names() {
                    for source in sources {
                        if let Some(relation) = source.get(name) {
                            inst.absorb_relation(name.clone(), relation)?;
                            break;
                        }
                    }
                }
                Some(inst)
            }
            None => None,
        };
        let seeded_sources: Vec<&Instance>;
        let sources: &[&Instance] = match &merged_seeds {
            Some(inst) => {
                seeded_sources = std::iter::once(inst)
                    .chain(sources.iter().copied())
                    .collect();
                &seeded_sources
            }
            None => sources,
        };
        let mut ctx = EvalContext::new(&self.out_schema, sources, view);
        let mut stats = EvalStats::default();
        for stratum in &self.strata {
            if stratum.recursive {
                self.run_recursive_stratum(stratum, &mut ctx, &mut stats, parallelism, budget)?;
            } else {
                self.run_single_pass_stratum(stratum, &mut ctx, &mut stats, parallelism, budget)?;
            }
        }
        match &self.demand {
            Some(demand) => Ok((
                demand.restrict_with(&ctx.derived, merged_seeds.as_ref()),
                stats,
            )),
            None => Ok((ctx.derived, stats)),
        }
    }

    /// Non-recursive stratum: its rules are split into consecutive **waves**
    /// — maximal runs in which no rule reads a head derived by the same wave
    /// (topological order makes writers precede readers, so waves are found
    /// by a single forward scan).  Rules of one wave cannot observe each
    /// other in the sequential schedule either, so a wave evaluates them
    /// concurrently and merges their sinks in rule order: bit-identical to
    /// the one-rule-at-a-time pass.
    fn run_single_pass_stratum(
        &self,
        stratum: &Stratum,
        ctx: &mut EvalContext<'_>,
        stats: &mut EvalStats,
        parallelism: Parallelism,
        budget: EvalBudget,
    ) -> Result<(), DatalogError> {
        stats.rounds += 1;
        budget.check(stats)?;
        let indices = &stratum.rule_indices;
        let mut start = 0;
        while start < indices.len() {
            // Wave end: stop before the first rule reading a wave head.
            let mut wave_heads: BTreeSet<&RelationName> = BTreeSet::new();
            let mut end = start;
            while end < indices.len() {
                let rule = &self.rules[indices[end]];
                if end > start && rule.atoms.iter().any(|a| wave_heads.contains(&a.relation)) {
                    break;
                }
                wave_heads.insert(&rule.head_relation);
                end += 1;
            }

            let wave = &indices[start..end];
            let mut sinks: Vec<Vec<Tuple>> = vec![Vec::new(); wave.len()];
            for &ri in wave {
                ctx.ensure_pass_indexes(&self.rules[ri], None);
            }
            {
                let bound = collect_bound(parallelism, wave.len());
                let passes = wave
                    .iter()
                    .map(|&ri| ctx.prepare_pass(&self.rules[ri], None, bound))
                    .collect::<Result<Vec<_>, _>>()?;
                execute_passes(&passes, parallelism, &mut sinks)?;
            }
            for (&ri, sink) in wave.iter().zip(sinks.iter_mut()) {
                let rule = &self.rules[ri];
                if rule.auxiliary {
                    stats.magic_applications += 1;
                    stats.magic_tuples_derived += sink.len() as u64;
                } else {
                    stats.rule_applications += 1;
                    stats.tuples_derived += sink.len() as u64;
                }
                ctx.insert_derived(&rule.head_relation, sink)?;
            }
            budget.check(stats)?;
            start = end;
        }
        Ok(())
    }

    /// Recursive stratum: semi-naive fixpoint with the standard
    /// old/delta/full split over the recursive atom occurrences.
    ///
    /// Within one round every rule reads the previous round's state (the
    /// derived instance is only merged *after* all rules ran), so all
    /// `(rule, delta-position)` passes of a round are independent: they fan
    /// out to the pool together and their sinks are merged in `(rule, pass)`
    /// order — the exact sequence the sequential loop produces.
    fn run_recursive_stratum(
        &self,
        stratum: &Stratum,
        ctx: &mut EvalContext<'_>,
        stats: &mut EvalStats,
        parallelism: Parallelism,
        budget: EvalBudget,
    ) -> Result<(), DatalogError> {
        let mut delta: BTreeMap<RelationName, Relation> = stratum
            .heads
            .iter()
            .map(|r| {
                let arity = self.out_schema.arity_of(r.clone()).unwrap_or(0);
                (r.clone(), Relation::empty(arity))
            })
            .collect();
        let mut old = ctx.derived.clone();

        loop {
            stats.rounds += 1;
            budget.check(stats)?;
            ctx.begin_round();
            // Deltas are empty exactly on the first round: any later round
            // only starts because the previous one inserted new facts.
            let first_round = delta.values().all(Relation::is_empty);

            // Rules that run this round: a rule with no recursive body atom
            // saturates in round 1; re-running it would re-derive the same
            // tuples.
            let active: Vec<usize> = stratum
                .rule_indices
                .iter()
                .copied()
                .filter(|&ri| first_round || !self.rules[ri].recursive_positions.is_empty())
                .collect();

            // One work unit per (rule, delta-position) pass, rule-major so
            // that concatenating a rule's pass sinks reproduces the
            // sequential per-rule sink.
            let mut sinks: Vec<Vec<Tuple>>;
            let mut pass_rule: Vec<usize> = Vec::new(); // pass index → active slot
            {
                let mut specs: Vec<(usize, Option<SeminaiveView<'_>>)> = Vec::new();
                for (slot, &ri) in active.iter().enumerate() {
                    let positions = &self.rules[ri].recursive_positions;
                    if first_round {
                        pass_rule.push(slot);
                        specs.push((ri, None));
                    } else {
                        for &pos in positions {
                            pass_rule.push(slot);
                            specs.push((
                                ri,
                                Some(SeminaiveView {
                                    delta_pos: pos,
                                    positions,
                                    delta: &delta,
                                    old: &old,
                                    old_shadows_sources: false,
                                }),
                            ));
                        }
                    }
                }
                for (ri, view) in &specs {
                    ctx.ensure_pass_indexes(&self.rules[*ri], view.as_ref());
                }
                sinks = vec![Vec::new(); specs.len()];
                let bound = collect_bound(parallelism, specs.len());
                let passes = specs
                    .iter()
                    .map(|(ri, view)| ctx.prepare_pass(&self.rules[*ri], view.as_ref(), bound))
                    .collect::<Result<Vec<_>, _>>()?;
                execute_passes(&passes, parallelism, &mut sinks)?;
            }

            let mut new_facts: Vec<(RelationName, Tuple)> = Vec::new();
            let mut pass_cursor = 0;
            for (slot, &ri) in active.iter().enumerate() {
                let rule = &self.rules[ri];
                if rule.auxiliary {
                    stats.magic_applications += 1;
                } else {
                    stats.rule_applications += 1;
                }
                while pass_cursor < pass_rule.len() && pass_rule[pass_cursor] == slot {
                    let sink = &mut sinks[pass_cursor];
                    if rule.auxiliary {
                        stats.magic_tuples_derived += sink.len() as u64;
                    } else {
                        stats.tuples_derived += sink.len() as u64;
                    }
                    for tuple in sink.drain(..) {
                        if !ctx
                            .derived
                            .get(&rule.head_relation)
                            .is_some_and(|r| r.contains(&tuple))
                        {
                            new_facts.push((rule.head_relation.clone(), tuple));
                        }
                    }
                    pass_cursor += 1;
                }
            }
            budget.check(stats)?;

            for rel in delta.values_mut() {
                *rel = Relation::empty(rel.arity());
            }
            old = ctx.derived.clone();
            // Merge directly and invalidate the derived-index cache once at
            // the end of the round — no rule reads `derived` in between.
            let mut changed = false;
            for (name, tuple) in new_facts {
                if ctx.derived.insert(name.clone(), tuple.clone())? {
                    changed = true;
                    if let Some(d) = delta.get_mut(&name) {
                        d.insert(tuple)?;
                    }
                }
            }
            if !changed {
                break;
            }
            ctx.invalidate_derived();
        }
        Ok(())
    }
}

/// Restriction applied to one evaluation pass of a rule over changing
/// relations: the atom at `delta_pos` reads the delta, atoms at earlier
/// delta-capable `positions` read the pre-delta snapshot, everything else
/// reads the full database.
///
/// Two callers drive this old/delta/full split: the recursive-stratum
/// fixpoint (positions = the rule's same-stratum atoms, `old` shadowed by
/// the external sources) and the incremental step evaluator (positions = the
/// rule's grow-only atoms, `old` shadowing the sources, which carry the
/// already-grown state).
pub(crate) struct SeminaiveView<'v> {
    pub(crate) delta_pos: usize,
    /// The delta-capable atom positions of the rule, ascending.
    pub(crate) positions: &'v [usize],
    pub(crate) delta: &'v BTreeMap<RelationName, Relation>,
    pub(crate) old: &'v Instance,
    /// True if `old` must win over the sources for pre-delta positions (the
    /// incremental case, where the sources hold the *post*-delta state).
    pub(crate) old_shadows_sources: bool,
}

/// Where a positive atom resolves for one evaluation pass.
enum AtomPlan<'x> {
    /// Probe a hash index with a key assembled from the register frame.
    Probe {
        index: &'x TupleIndex,
        atom: &'x CompiledAtom,
    },
    /// Range-scan the relation's sorted tuple set on a column prefix — no
    /// index needed, the `BTreeSet` ordering *is* the index.
    PrefixScan {
        relation: &'x Relation,
        atom: &'x CompiledAtom,
    },
    /// Full scan that re-checks the key columns per tuple: the defensive
    /// fallback for a keyed atom whose index is unexpectedly missing.
    CheckedScan {
        relation: &'x Relation,
        atom: &'x CompiledAtom,
    },
    /// Scan a relation (no bound columns).
    Scan {
        relation: &'x Relation,
        atom: &'x CompiledAtom,
    },
    /// The relation is empty or absent: the pass produces nothing.
    Empty,
}

/// Index spaces of an evaluation context (cache keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Space {
    /// External sources and the prepared database: immutable for the whole
    /// evaluation.
    External,
    /// The derived instance: invalidated whenever it changes.
    Derived,
    /// The per-round delta of a recursive stratum.
    Delta,
    /// The per-round pre-delta snapshot of a recursive stratum.
    Old,
}

pub(crate) struct EvalContext<'x> {
    sources: Vec<&'x Instance>,
    prepared: Option<&'x ResidentView>,
    derived: Instance,
    cache: FxHashMap<(Space, RelationName, Vec<usize>), TupleIndex>,
}

impl<'x> EvalContext<'x> {
    pub(crate) fn new(
        out_schema: &Schema,
        sources: &[&'x Instance],
        prepared: Option<&'x ResidentView>,
    ) -> Self {
        EvalContext {
            sources: sources.to_vec(),
            prepared,
            derived: Instance::empty(out_schema),
            cache: FxHashMap::default(),
        }
    }

    /// Resolves a positive atom's relation: external sources in order, then
    /// the resident view, then the derived instance.
    fn resolve(&self, name: &RelationName) -> Option<(Space, &Relation)> {
        for source in &self.sources {
            if let Some(rel) = source.get(name) {
                return Some((Space::External, rel));
            }
        }
        if let Some(prepared) = self.prepared {
            if let Some(rel) = prepared.instance().get(name) {
                return Some((Space::External, rel));
            }
        }
        self.derived.get(name).map(|rel| (Space::Derived, rel))
    }

    /// Drops the per-round delta/old index entries.
    fn begin_round(&mut self) {
        self.cache
            .retain(|(space, _, _), _| !matches!(space, Space::Delta | Space::Old));
    }

    /// Drops indexes over the derived instance (called when it changes).
    fn invalidate_derived(&mut self) {
        self.cache
            .retain(|(space, _, _), _| !matches!(space, Space::Derived));
    }

    /// Drains a rule's sink into the derived instance in one bulk build.
    fn insert_derived(
        &mut self,
        relation: &RelationName,
        tuples: &mut Vec<Tuple>,
    ) -> Result<(), DatalogError> {
        if self.derived.insert_bulk(relation, tuples)? > 0 {
            self.invalidate_derived();
        }
        Ok(())
    }

    /// Makes sure an index for `(space, relation, cols)` exists in the cache,
    /// building it from `relation_data` if missing.  Prepared-database
    /// indexes are used as-is and never copied into the cache.
    fn ensure_index(
        &mut self,
        space: Space,
        name: &RelationName,
        cols: &[usize],
        view: Option<&SeminaiveView<'_>>,
    ) {
        let key = (space, name.clone(), cols.to_vec());
        if self.cache.contains_key(&key) {
            return;
        }
        let index = match space {
            Space::Delta => {
                let view = view.expect("delta space implies a semi-naive view");
                view.delta
                    .get(name)
                    .map(|rel| TupleIndex::build(cols.to_vec(), rel.iter()))
            }
            Space::Old => {
                let view = view.expect("old space implies a semi-naive view");
                self.resolve_old(view, name)
                    .map(|rel| TupleIndex::build(cols.to_vec(), rel.iter()))
            }
            Space::External | Space::Derived => self
                .resolve(name)
                .filter(|(s, _)| *s == space)
                .map(|(_, rel)| TupleIndex::build(cols.to_vec(), rel.iter())),
        };
        if let Some(index) = index {
            self.cache.insert(key, index);
        }
    }

    /// Resolution for an atom at a pre-delta position.  For the recursive
    /// fixpoint, sources win (mirroring the interpreter's lookup) and the
    /// snapshot is the fallback; for the incremental step evaluator the
    /// snapshot wins, because the sources already hold the post-delta state.
    fn resolve_old<'s>(
        &'s self,
        view: &'s SeminaiveView<'_>,
        name: &RelationName,
    ) -> Option<&'s Relation> {
        if view.old_shadows_sources {
            return view.old.get(name);
        }
        for source in &self.sources {
            if let Some(rel) = source.get(name) {
                return Some(rel);
            }
        }
        if let Some(prepared) = self.prepared {
            if let Some(rel) = prepared.instance().get(name) {
                return Some(rel);
            }
        }
        view.old.get(name)
    }

    /// Runs one evaluation pass of a rule, fanning the outer-atom candidates
    /// out to the pool when `parallelism` and the candidate count warrant it;
    /// chunk sinks are merged in candidate order, so the result appended to
    /// `sink` is bit-identical to the sequential pass.
    pub(crate) fn run_pass_par(
        &mut self,
        rule: &CompiledRule,
        view: Option<&SeminaiveView<'_>>,
        parallelism: Parallelism,
        sink: &mut Vec<Tuple>,
    ) -> Result<(), DatalogError> {
        self.ensure_pass_indexes(rule, view);
        let Some(pass) = self.prepare_pass(rule, view, collect_bound(parallelism, 1))? else {
            return Ok(());
        };
        if pass.outer.is_none() {
            // Sequential fast path (one worker, or a pass below the collect
            // bound): join lazily in place — no scheduling layer.
            return run_sequential(&pass, sink);
        }
        execute_passes(&[Some(pass)], parallelism, std::slice::from_mut(sink))
    }

    /// Phase 1 (mutable): makes sure every hash index a pass of `rule`
    /// probes exists.  Prefix-keyed atoms range-scan the sorted tuple set
    /// directly and need nothing built.
    fn ensure_pass_indexes(&mut self, rule: &CompiledRule, view: Option<&SeminaiveView<'_>>) {
        for (pos, atom) in rule.atoms.iter().enumerate() {
            if atom.key_cols.is_empty() || atom.prefix_key {
                continue;
            }
            let Some(space) = self.probe_space(pos, atom, view) else {
                continue;
            };
            if space == Space::External && self.prepared_index(atom).is_some() {
                continue;
            }
            self.ensure_index(space, &atom.relation, &atom.key_cols, view);
        }
    }

    /// Phase 2 (immutable): assembles the atom plans, negation sources and —
    /// when a cheap upper bound on the candidate count reaches
    /// `collect_above` — the collected outer candidates for parallel
    /// chunking.  The candidates are the level-0 tuples when level 0 alone
    /// reaches the bound, else the `(level-0, level-1)` pairs when the
    /// product of the two levels' bounds does.  Passes under the bound keep
    /// `outer: None` and join lazily on the calling thread, so the
    /// multi-core default never materialises candidates for passes the
    /// threshold keeps inline, and a sequential policy (bound `usize::MAX`)
    /// never collects at all.  The space
    /// decision is shared with phase 1 (`probe_space`), so every index
    /// looked up here was ensured by [`Self::ensure_pass_indexes`].  Returns
    /// `None` if some atom resolves to an empty relation (the pass derives
    /// nothing).
    fn prepare_pass<'s>(
        &'s self,
        rule: &'s CompiledRule,
        view: Option<&'s SeminaiveView<'s>>,
        collect_above: usize,
    ) -> Result<Option<PreparedPass<'s>>, DatalogError> {
        let mut plans = Vec::with_capacity(rule.atoms.len());
        for (pos, atom) in rule.atoms.iter().enumerate() {
            let plan = match self.probe_space(pos, atom, view) {
                None => AtomPlan::Empty,
                Some(Space::Delta) => {
                    let v = view.expect("delta space implies a view");
                    self.plan_for(Space::Delta, atom, v.delta.get(&atom.relation))
                }
                Some(Space::Old) => {
                    let v = view.expect("old space implies a view");
                    self.plan_for(Space::Old, atom, self.resolve_old(v, &atom.relation))
                }
                Some(space) => {
                    let rel = self.resolve(&atom.relation).map(|(_, rel)| rel);
                    self.plan_for(space, atom, rel)
                }
            };
            if matches!(plan, AtomPlan::Empty) {
                return Ok(None);
            }
            plans.push(plan);
        }
        let negations: Vec<Vec<&Relation>> = rule
            .negations
            .iter()
            .map(|neg| self.negation_sources(&neg.relation))
            .collect();
        let outer = match plans.as_slice() {
            [first, ..] if outer_estimate(first) >= collect_above => {
                // No slot is bound before level 0: its key terms are
                // constants.
                let regs = vec![None; rule.n_slots];
                Some(Outer::Level0(collect_level(rule, first, &regs)?))
            }
            [first, second, ..]
                if outer_estimate(first).saturating_mul(outer_estimate(second))
                    >= collect_above =>
            {
                Some(Outer::Level1(collect_pairs(rule, first, second)?))
            }
            _ => None,
        };
        Ok(Some(PreparedPass {
            rule,
            plans,
            negations,
            outer,
        }))
    }

    fn plan_for<'s>(
        &'s self,
        space: Space,
        atom: &'s CompiledAtom,
        relation: Option<&'s Relation>,
    ) -> AtomPlan<'s> {
        let Some(relation) = relation else {
            return AtomPlan::Empty;
        };
        if relation.is_empty() {
            return AtomPlan::Empty;
        }
        if atom.key_cols.is_empty() {
            return AtomPlan::Scan { relation, atom };
        }
        if atom.prefix_key {
            return AtomPlan::PrefixScan { relation, atom };
        }
        if space == Space::External {
            if let Some(index) = self.prepared_index(atom) {
                return AtomPlan::Probe { index, atom };
            }
        }
        match self
            .cache
            .get(&(space, atom.relation.clone(), atom.key_cols.clone()))
        {
            Some(index) => AtomPlan::Probe { index, atom },
            // Unreachable while `probe_space` drives both the ensure phase
            // and this one; the checked scan keeps the join correct (it
            // still filters on the key columns) if they ever diverge.
            None => AtomPlan::CheckedScan { relation, atom },
        }
    }

    /// Which index space a positive atom reads from for this pass, or `None`
    /// if its relation resolves nowhere.  Both `run_pass` phases must use
    /// this single decision so the plan always finds the index it ensured.
    fn probe_space(
        &self,
        pos: usize,
        atom: &CompiledAtom,
        view: Option<&SeminaiveView<'_>>,
    ) -> Option<Space> {
        match view {
            Some(v) if v.delta_pos == pos => Some(Space::Delta),
            Some(v) if pos < v.delta_pos && v.positions.contains(&pos) => Some(Space::Old),
            _ => self.resolve(&atom.relation).map(|(space, _)| space),
        }
    }

    /// The resident index for an atom, if the atom's relation resolves to the
    /// resident view (sources shadow it, mirroring interpreter lookup).
    fn prepared_index(&self, atom: &CompiledAtom) -> Option<&TupleIndex> {
        let prepared = self.prepared?;
        if self.sources.iter().any(|s| s.get(&atom.relation).is_some()) {
            return None;
        }
        prepared.index(&atom.relation, &atom.key_cols)
    }

    /// Every source holding the negated relation (negation checks all
    /// sources, like the interpreter's `check_filters`).
    fn negation_sources(&self, name: &RelationName) -> Vec<&Relation> {
        let mut out = Vec::new();
        for source in &self.sources {
            if let Some(rel) = source.get(name) {
                out.push(rel);
            }
        }
        if let Some(prepared) = self.prepared {
            if let Some(rel) = prepared.instance().get(name) {
                out.push(rel);
            }
        }
        if let Some(rel) = self.derived.get(name) {
            out.push(rel);
        }
        out
    }
}

/// One rule pass, fully planned against a frozen [`EvalContext`]: the atom
/// plans, the resolved negation sources, and the outer candidates in
/// iteration order.  Everything is borrowed immutably, so prepared passes
/// can be executed from worker threads.
struct PreparedPass<'x> {
    rule: &'x CompiledRule,
    /// Empty iff the rule has no positive atoms (a fact rule): the pass then
    /// runs the leaf checks exactly once.
    plans: Vec<AtomPlan<'x>>,
    /// The outer candidates, collected only when the pass may be chunked
    /// across workers; `None` on the sequential path, which joins lazily.
    outer: Option<Outer<'x>>,
    negations: Vec<Vec<&'x Relation>>,
}

impl PreparedPass<'_> {
    /// The scheduling cost of the pass: its collected outer candidate count
    /// (0 for passes below the collect bound, which always run inline).
    fn cost(&self) -> usize {
        self.outer.as_ref().map_or(0, Outer::len)
    }
}

/// The candidates a pass is chunked over, in the order the sequential join
/// visits them.
enum Outer<'x> {
    /// Level-0 tuples.
    Level0(Vec<&'x Tuple>),
    /// `(level-0, level-1)` tuple pairs: the split descends one level when
    /// level 0 is too small to split (a one-tuple input guard such as
    /// `refresh(R)` in front of a catalog scan).
    Level1(Vec<(&'x Tuple, &'x Tuple)>),
}

impl Outer<'_> {
    fn len(&self) -> usize {
        match self {
            Outer::Level0(tuples) => tuples.len(),
            Outer::Level1(pairs) => pairs.len(),
        }
    }
}

/// Runs a whole prepared pass sequentially, joining lazily (no candidate
/// collection needed): byte-for-byte the pre-parallelism evaluation path.
fn run_sequential(pass: &PreparedPass<'_>, sink: &mut Vec<Tuple>) -> Result<(), DatalogError> {
    match &pass.outer {
        None => {
            let mut regs: Vec<Option<Value>> = vec![None; pass.rule.n_slots];
            join(pass.rule, &pass.plans, &pass.negations, 0, &mut regs, sink)
        }
        Some(outer) => run_prepared(pass, outer, 0..outer.len(), sink),
    }
}

/// The per-pass candidate bound above which a region of `region_passes`
/// independent passes collects outer candidates for chunking: the region
/// threshold split evenly across its passes, so a wave of medium rules still
/// fans out rule-per-worker while tiny passes never materialise candidates.
/// `usize::MAX` (never collect) when the policy cannot go parallel.
fn collect_bound(parallelism: Parallelism, region_passes: usize) -> usize {
    if parallelism.worker_count() <= 1 {
        usize::MAX
    } else {
        (parallelism.threshold() / region_passes.max(1)).max(2)
    }
}

/// A cheap upper bound on a plan's candidate count under any bindings (the
/// indexed or scanned relation's size), used to decide whether collecting the
/// candidates for chunking can pay off.  Overshooting is harmless: the
/// collection itself costs only the *actual* candidates (probe slice or
/// prefix range), or a scan the lazy join would perform anyway.
fn outer_estimate(plan: &AtomPlan<'_>) -> usize {
    match plan {
        AtomPlan::Probe { index, .. } => index.len(),
        AtomPlan::PrefixScan { relation, .. }
        | AtomPlan::CheckedScan { relation, .. }
        | AtomPlan::Scan { relation, .. } => relation.len(),
        AtomPlan::Empty => 0,
    }
}

/// The compiled atom a plan joins (all non-empty plans carry one).
fn plan_atom<'x>(plan: &AtomPlan<'x>) -> &'x CompiledAtom {
    match plan {
        AtomPlan::Probe { atom, .. }
        | AtomPlan::PrefixScan { atom, .. }
        | AtomPlan::CheckedScan { atom, .. }
        | AtomPlan::Scan { atom, .. } => atom,
        AtomPlan::Empty => unreachable!("prepare_pass drops empty passes"),
    }
}

/// Collects the candidate tuples of one join level under the bindings in
/// `regs`, in the exact order the sequential join would visit them.
fn collect_level<'x>(
    rule: &CompiledRule,
    plan: &AtomPlan<'x>,
    regs: &[Option<Value>],
) -> Result<Vec<&'x Tuple>, DatalogError> {
    let key_of = |atom: &CompiledAtom| -> Result<ValueVec, DatalogError> {
        let mut key = ValueVec::with_capacity(atom.key_terms.len());
        for term in &atom.key_terms {
            key.push(*value_of(rule, term, regs)?);
        }
        Ok(key)
    };
    Ok(match plan {
        AtomPlan::Probe { index, atom } => index.probe(&key_of(atom)?).iter().collect(),
        AtomPlan::PrefixScan { relation, atom } => {
            relation.scan_prefix_owned(key_of(atom)?).collect()
        }
        AtomPlan::CheckedScan { relation, atom } => {
            let key = key_of(atom)?;
            relation
                .iter()
                .filter(|tuple| {
                    tuple.arity() == atom.arity
                        && atom
                            .key_cols
                            .iter()
                            .zip(key.iter())
                            .all(|(&col, want)| tuple.values()[col] == *want)
                })
                .collect()
        }
        AtomPlan::Scan { relation, .. } => relation.iter().collect(),
        AtomPlan::Empty => unreachable!("prepare_pass drops empty passes"),
    })
}

/// Collects the `(level-0, level-1)` candidate pairs of a pass: each level-0
/// candidate that binds is followed by the level-1 candidates under its
/// bindings, so the pairs come out in sequential join order.
fn collect_pairs<'x>(
    rule: &CompiledRule,
    first: &AtomPlan<'x>,
    second: &AtomPlan<'x>,
) -> Result<Vec<(&'x Tuple, &'x Tuple)>, DatalogError> {
    let atom = plan_atom(first);
    let mut regs: Vec<Option<Value>> = vec![None; rule.n_slots];
    let mut pairs = Vec::new();
    for outer in collect_level(rule, first, &regs)? {
        if bind(atom, outer, &mut regs) {
            for inner in collect_level(rule, second, &regs)? {
                pairs.push((outer, inner));
            }
        }
        unbind(atom, &mut regs);
    }
    Ok(pairs)
}

/// Joins one contiguous range of a prepared pass's outer candidates into
/// `sink` — the unit of parallel work.  Running the full range reproduces
/// the sequential pass exactly (candidates are collected in join order).
fn run_prepared(
    pass: &PreparedPass<'_>,
    outer: &Outer<'_>,
    range: std::ops::Range<usize>,
    sink: &mut Vec<Tuple>,
) -> Result<(), DatalogError> {
    let (rule, plans, negations) = (pass.rule, &pass.plans, &pass.negations);
    let mut regs: Vec<Option<Value>> = vec![None; rule.n_slots];
    let first = plan_atom(&plans[0]);
    match outer {
        Outer::Level0(tuples) => {
            for &tuple in &tuples[range] {
                step_tuple(rule, plans, negations, 0, first, tuple, &mut regs, sink)?;
            }
        }
        Outer::Level1(pairs) => {
            let second = plan_atom(&plans[1]);
            for &(outer, tuple) in &pairs[range] {
                if bind(first, outer, &mut regs) {
                    step_tuple(rule, plans, negations, 1, second, tuple, &mut regs, sink)?;
                }
                unbind(first, &mut regs);
            }
        }
    }
    Ok(())
}

/// Executes a slate of independent prepared passes, appending each pass's
/// derivations to the sink of the same index.
///
/// Below the parallelism threshold (measured in total outer candidates) the
/// passes run inline, in order.  Above it, each pass's candidates are split
/// into contiguous chunks and all `(pass, chunk)` jobs fan out to the pool;
/// results are merged in job order — pass-major, chunks ascending — which
/// reproduces the sequential sink contents (and therefore the `EvalStats`
/// counters) bit for bit.  Errors surface deterministically as the error of
/// the lowest-indexed failing job, which is the one the sequential schedule
/// would have hit first.
fn execute_passes(
    passes: &[Option<PreparedPass<'_>>],
    parallelism: Parallelism,
    sinks: &mut [Vec<Tuple>],
) -> Result<(), DatalogError> {
    debug_assert_eq!(passes.len(), sinks.len());
    let jobs = pool_jobs(passes, parallelism);
    if jobs.len() > 1 {
        let results = Pool::new(parallelism.worker_count()).run(jobs.len(), |k| {
            let (slot, ref range) = jobs[k];
            let pass = passes[slot].as_ref().expect("job slots hold passes");
            let outer = pass.outer.as_ref().expect("job passes are collected");
            let mut sink = Vec::new();
            run_prepared(pass, outer, range.clone(), &mut sink).map(|()| sink)
        });
        for (k, result) in results.into_iter().enumerate() {
            sinks[jobs[k].0].extend(result?);
        }
        // Uncollected passes produced no jobs: run them inline.  (A
        // collected-but-empty outer means the pass derives nothing.)
        for (pass, sink) in passes.iter().zip(sinks.iter_mut()) {
            if let Some(pass) = pass {
                if pass.outer.is_none() {
                    run_sequential(pass, sink)?;
                }
            }
        }
        return Ok(());
    }

    for (pass, sink) in passes.iter().zip(sinks.iter_mut()) {
        if let Some(pass) = pass {
            run_sequential(pass, sink)?;
        }
    }
    Ok(())
}

/// The `(pass, candidate range)` jobs a slate of passes fans out as: none
/// below the parallelism threshold, else each collected pass's candidates in
/// contiguous chunks, pass-major.
fn pool_jobs(
    passes: &[Option<PreparedPass<'_>>],
    parallelism: Parallelism,
) -> Vec<(usize, std::ops::Range<usize>)> {
    // Only passes whose candidates were collected (estimate cleared the
    // collect bound) are candidates for chunking; everything else — tiny
    // passes, leaf-only fact rules — runs inline on the calling thread.
    // Each pass owns its sink, so inline-vs-pooled placement cannot change
    // any sink's contents.
    let total: usize = passes.iter().flatten().map(PreparedPass::cost).sum();
    let workers = parallelism.worker_count();
    let mut jobs = Vec::new();
    if workers <= 1 || total < parallelism.threshold().max(2) {
        return jobs;
    }
    // Chunk the outer candidates so each worker sees several chunks (work
    // sharing keeps stragglers from idling the rest).
    let chunk = total.div_ceil(workers * 4).max(1);
    for (slot, pass) in passes.iter().enumerate() {
        let Some(outer) = pass.as_ref().and_then(|p| p.outer.as_ref()) else {
            continue;
        };
        let mut lo = 0;
        while lo < outer.len() {
            let hi = (lo + chunk).min(outer.len());
            jobs.push((slot, lo..hi));
            lo = hi;
        }
    }
    jobs
}

/// Recursive indexed join over the compiled atoms; at the leaf, negations and
/// disequalities are checked and the head is materialised.
fn join(
    rule: &CompiledRule,
    plans: &[AtomPlan<'_>],
    negations: &[Vec<&Relation>],
    level: usize,
    regs: &mut Vec<Option<Value>>,
    sink: &mut Vec<Tuple>,
) -> Result<(), DatalogError> {
    if level == plans.len() {
        for (neg, rels) in rule.negations.iter().zip(negations) {
            let tuple = materialize(rule, &neg.args, regs)?;
            if rels.iter().any(|rel| rel.contains(&tuple)) {
                return Ok(());
            }
        }
        for (a, b) in &rule.disequalities {
            if value_of(rule, a, regs)? == value_of(rule, b, regs)? {
                return Ok(());
            }
        }
        sink.push(materialize(rule, &rule.head, regs)?);
        return Ok(());
    }

    let (atom, tuples): (&CompiledAtom, &[Tuple]) = match &plans[level] {
        AtomPlan::Probe { index, atom } => {
            let mut key = ValueVec::with_capacity(atom.key_terms.len());
            for term in &atom.key_terms {
                key.push(*value_of(rule, term, regs)?);
            }
            (atom, index.probe(&key))
        }
        AtomPlan::PrefixScan { relation, atom } => {
            let mut key = ValueVec::with_capacity(atom.key_terms.len());
            for term in &atom.key_terms {
                key.push(*value_of(rule, term, regs)?);
            }
            for tuple in relation.scan_prefix(&key) {
                step_tuple(rule, plans, negations, level, atom, tuple, regs, sink)?;
            }
            return Ok(());
        }
        AtomPlan::CheckedScan { relation, atom } => {
            let mut key = ValueVec::with_capacity(atom.key_terms.len());
            for term in &atom.key_terms {
                key.push(*value_of(rule, term, regs)?);
            }
            for tuple in relation.iter() {
                let matches = tuple.arity() == atom.arity
                    && atom
                        .key_cols
                        .iter()
                        .zip(key.iter())
                        .all(|(&col, want)| tuple.values()[col] == *want);
                if matches {
                    step_tuple(rule, plans, negations, level, atom, tuple, regs, sink)?;
                }
            }
            return Ok(());
        }
        AtomPlan::Scan { relation, atom } => {
            // Scans iterate the relation directly (no per-level clone); the
            // borrow is disjoint from the register frame.
            for tuple in relation.iter() {
                step_tuple(rule, plans, negations, level, atom, tuple, regs, sink)?;
            }
            return Ok(());
        }
        AtomPlan::Empty => return Ok(()),
    };
    for tuple in tuples {
        step_tuple(rule, plans, negations, level, atom, tuple, regs, sink)?;
    }
    Ok(())
}

/// Applies one candidate tuple at a join level: binds write slots, verifies
/// check columns, recurses, and unwinds the bindings.
#[allow(clippy::too_many_arguments)]
fn step_tuple(
    rule: &CompiledRule,
    plans: &[AtomPlan<'_>],
    negations: &[Vec<&Relation>],
    level: usize,
    atom: &CompiledAtom,
    tuple: &Tuple,
    regs: &mut Vec<Option<Value>>,
    sink: &mut Vec<Tuple>,
) -> Result<(), DatalogError> {
    let result = if bind(atom, tuple, regs) {
        join(rule, plans, negations, level + 1, regs, sink)
    } else {
        Ok(())
    };
    unbind(atom, regs);
    result
}

/// Binds an atom's write slots from `tuple`, then verifies its check
/// columns; false if the tuple does not match the atom.  The caller unbinds
/// either way.
fn bind(atom: &CompiledAtom, tuple: &Tuple, regs: &mut [Option<Value>]) -> bool {
    if tuple.arity() != atom.arity {
        return false;
    }
    let values = tuple.values();
    for &(col, slot) in &atom.writes {
        regs[slot] = Some(values[col]);
    }
    atom.checks
        .iter()
        .all(|&(col, slot)| regs[slot].as_ref() == Some(&values[col]))
}

/// Clears the slots an atom binds.
fn unbind(atom: &CompiledAtom, regs: &mut [Option<Value>]) {
    for &(_, slot) in &atom.writes {
        regs[slot] = None;
    }
}

fn value_of<'r>(
    rule: &'r CompiledRule,
    term: &'r SlotTerm,
    regs: &'r [Option<Value>],
) -> Result<&'r Value, DatalogError> {
    match term {
        SlotTerm::Const(value) => Ok(value),
        SlotTerm::Slot(slot) => regs[*slot]
            .as_ref()
            .ok_or_else(|| DatalogError::UnboundVariable {
                rule: rule.source.clone(),
                variable: rule.slot_names[*slot].clone(),
            }),
    }
}

fn materialize(
    rule: &CompiledRule,
    terms: &[SlotTerm],
    regs: &[Option<Value>],
) -> Result<Tuple, DatalogError> {
    let mut values = ValueVec::with_capacity(terms.len());
    for term in terms {
        values.push(*value_of(rule, term, regs)?);
    }
    Ok(Tuple::from(values))
}

/// Compiles one rule: slot assignment, greedy bound-prefix join ordering and
/// per-atom access-path selection.  `stratum_heads` marks which relations are
/// recursive occurrences.
fn compile_rule(
    rule: &Rule,
    stratum_heads: &BTreeSet<RelationName>,
    seeds: Option<&BTreeSet<RelationName>>,
) -> Result<CompiledRule, DatalogError> {
    let positives: Vec<(usize, &Atom)> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            BodyLiteral::Positive(atom) => Some((i, atom)),
            _ => None,
        })
        .collect();

    // Slot assignment in first-positive-occurrence order; safety guarantees
    // that this covers every variable of the rule.
    let mut slots: BTreeMap<&str, usize> = BTreeMap::new();
    let mut slot_names: Vec<String> = Vec::new();
    for (_, atom) in &positives {
        for term in &atom.args {
            if let Term::Var(name) = term {
                if !slots.contains_key(name.as_str()) {
                    slots.insert(name, slot_names.len());
                    slot_names.push(name.clone());
                }
            }
        }
    }

    let slot_of = |term: &Term| -> Result<SlotTerm, DatalogError> {
        match term {
            Term::Const(value) => Ok(SlotTerm::Const(*value)),
            Term::Var(name) => slots
                .get(name.as_str())
                .map(|&s| SlotTerm::Slot(s))
                .ok_or_else(|| DatalogError::UnsafeRule {
                    rule: rule.to_string(),
                    variable: name.clone(),
                }),
        }
    };

    // Greedy bound-prefix join ordering.
    let mut remaining: Vec<usize> = (0..positives.len()).collect();
    let mut bound: BTreeSet<usize> = BTreeSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(positives.len());
    while !remaining.is_empty() {
        let (chosen_pos, &chosen) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &i)| {
                let atom = positives[i].1;
                let seeded = seeds.is_some_and(|s| s.contains(&atom.relation)) as i64;
                let mut bound_cols = 0i64;
                let mut fresh = BTreeSet::new();
                for term in &atom.args {
                    match term {
                        Term::Const(_) => bound_cols += 1,
                        Term::Var(name) => {
                            let slot = slots[name.as_str()];
                            if bound.contains(&slot) {
                                bound_cols += 1;
                            } else {
                                fresh.insert(slot);
                            }
                        }
                    }
                }
                // Seed (delta-guard) atoms first; then most bound columns,
                // then fewest fresh variables, then the original body order
                // (max_by_key keeps the last maximum, so negate the index to
                // prefer earlier atoms).
                (seeded, bound_cols, -(fresh.len() as i64), -(i as i64))
            })
            .expect("remaining is non-empty");
        remaining.remove(chosen_pos);
        order.push(chosen);
        for term in &positives[chosen].1.args {
            if let Term::Var(name) = term {
                bound.insert(slots[name.as_str()]);
            }
        }
    }

    // Access-path selection per atom, in the chosen order.
    let mut bound_before: BTreeSet<usize> = BTreeSet::new();
    let mut atoms = Vec::with_capacity(order.len());
    for &i in &order {
        let (source_index, atom) = positives[i];
        let mut key_cols = Vec::new();
        let mut key_terms = Vec::new();
        let mut writes = Vec::new();
        let mut checks = Vec::new();
        let mut written_here: BTreeSet<usize> = BTreeSet::new();
        for (col, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(value) => {
                    key_cols.push(col);
                    key_terms.push(SlotTerm::Const(*value));
                }
                Term::Var(name) => {
                    let slot = slots[name.as_str()];
                    if bound_before.contains(&slot) {
                        key_cols.push(col);
                        key_terms.push(SlotTerm::Slot(slot));
                    } else if written_here.contains(&slot) {
                        checks.push((col, slot));
                    } else {
                        writes.push((col, slot));
                        written_here.insert(slot);
                    }
                }
            }
        }
        bound_before.extend(written_here);
        // Key columns are collected in column order, so a prefix key is
        // exactly `[0, 1, .., k-1]`.
        let prefix_key = !key_cols.is_empty() && key_cols.iter().enumerate().all(|(i, &c)| i == c);
        atoms.push(CompiledAtom {
            relation: atom.relation.clone(),
            arity: atom.args.len(),
            source_index,
            recursive: stratum_heads.contains(&atom.relation),
            key_cols,
            key_terms,
            prefix_key,
            writes,
            checks,
        });
    }

    let mut negations = Vec::new();
    let mut disequalities = Vec::new();
    for literal in &rule.body {
        match literal {
            BodyLiteral::Positive(_) => {}
            BodyLiteral::Negative(atom) => {
                let args = atom
                    .args
                    .iter()
                    .map(&slot_of)
                    .collect::<Result<Vec<_>, _>>()?;
                negations.push(CompiledNegation {
                    relation: atom.relation.clone(),
                    args,
                });
            }
            BodyLiteral::NotEqual(a, b) => {
                disequalities.push((slot_of(a)?, slot_of(b)?));
            }
        }
    }
    let head = rule
        .head
        .args
        .iter()
        .map(&slot_of)
        .collect::<Result<Vec<_>, _>>()?;

    let recursive_positions = atoms
        .iter()
        .enumerate()
        .filter(|(_, a)| a.recursive)
        .map(|(i, _)| i)
        .collect();

    Ok(CompiledRule {
        head_relation: rule.head.relation.clone(),
        head,
        atoms,
        recursive_positions,
        negations,
        disequalities,
        n_slots: slot_names.len(),
        slot_names,
        source: rule.to_string(),
        auxiliary: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_stratified, EvalOptions};
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
    fn demand_compiled_program_seeds_restricts_and_splits_counters() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- edge(X,Z), tc(Z,Y).",
        )
        .unwrap();
        // A long chain plus a large disconnected clique: full evaluation
        // derives the clique's closure, a demanded probe never visits it.
        let mut facts: Vec<(String, String)> = Vec::new();
        for i in 0..4 {
            facts.push((format!("c{i}"), format!("c{}", i + 1)));
        }
        for i in 0..10 {
            for j in 0..10 {
                facts.push((format!("k{i}"), format!("k{j}")));
            }
        }
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        for (a, b) in &facts {
            db.insert("edge", Tuple::from_iter([a.as_str(), b.as_str()]))
                .unwrap();
        }

        let goal = crate::demand::DemandGoal::seeded("tc", "bf")
            .unwrap()
            .with_seeds([Tuple::from_iter(["c0"])]);
        let demand = CompiledProgram::compile_demand(&program, &[goal]).unwrap();
        assert!(demand.demand().is_some());
        let full = CompiledProgram::compile(&program).unwrap();

        let (demanded, demand_stats) = demand
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        let (complete, full_stats) = full
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();

        // The restricted result is the goal footprint of the full fixpoint.
        let footprint = demand.demand().unwrap().footprint(&complete);
        assert_eq!(demanded, footprint);
        assert_eq!(demanded.get(&RelationName::new("tc")).unwrap().len(), 4);

        // Magic bookkeeping is counted separately, and the demanded
        // evaluation derives far fewer content tuples than the full one.
        assert!(demand_stats.magic_tuples_derived > 0);
        assert_eq!(full_stats.magic_tuples_derived, 0);
        assert!(demand_stats.tuples_derived < full_stats.tuples_derived / 5);
    }

    #[test]
    fn demand_compiled_program_accepts_runtime_seeds_in_sources() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- edge(X,Z), tc(Z,Y).",
        )
        .unwrap();
        let goal = crate::demand::DemandGoal::seeded("tc", "bf").unwrap();
        let compiled = CompiledProgram::compile_demand(&program, &[goal]).unwrap();
        let seed_rel = compiled
            .demand()
            .unwrap()
            .seed_relation(
                &RelationName::new("tc"),
                &crate::demand::Adornment::parse("bf").unwrap(),
            )
            .unwrap()
            .clone();

        let db = edb(
            &[("edge", 2)],
            &[
                ("edge", &["a", "b"]),
                ("edge", &["b", "c"]),
                ("edge", &["x", "y"]),
            ],
        );
        let seed_schema = Schema::from_pairs([(seed_rel.clone(), 1)]).unwrap();
        let mut seeds = Instance::empty(&seed_schema);
        seeds.insert(seed_rel, Tuple::from_iter(["a"])).unwrap();

        let (out, _) = compiled
            .evaluate(
                &[&seeds, &db],
                None,
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert!(out.holds("tc", &Tuple::from_iter(["a", "c"])));
        assert!(!out.holds("tc", &Tuple::from_iter(["x", "y"])));
    }

    #[test]
    fn join_order_prefers_bound_prefixes() {
        // c has a constant (1 bound column) so it is chosen first; it binds
        // X, which makes a(X,Z) 1-bound while b(Z,Y) is still 0-bound.
        let program = parse_program("p(X,Y) :- a(X,Z), b(Z,Y), c(X, gold).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let rule = &compiled.rules()[0];
        assert_eq!(rule.atom_order(), vec![2, 0, 1]);
        // c probes on its constant column; a probes on X; b probes on Z.
        assert_eq!(rule.atoms()[0].key_columns(), &[1]);
        assert_eq!(rule.atoms()[1].key_columns(), &[0]);
        assert_eq!(rule.atoms()[2].key_columns(), &[0]);
    }

    #[test]
    fn index_keys_cover_constants_and_bound_variables() {
        let program = parse_program("p(X) :- a(X), b(X, gold, Y).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let rule = &compiled.rules()[0];
        assert_eq!(rule.atom_order(), vec![1, 0]);
        let b = &rule.atoms()[0];
        // b's constant column is a key; X and Y are fresh writes.
        assert_eq!(b.key_columns(), &[1]);
        assert_eq!(b.write_columns().len(), 2);
        let a = &rule.atoms()[1];
        assert_eq!(a.key_columns(), &[0]);
        assert!(a.write_columns().is_empty());
    }

    #[test]
    fn repeated_variable_within_an_atom_becomes_a_check() {
        let program = parse_program("loop(X) :- edge(X, X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let atom = &compiled.rules()[0].atoms()[0];
        assert_eq!(atom.write_columns(), &[(0, 0)]);
        assert_eq!(atom.check_columns(), &[(1, 0)]);
        assert!(atom.key_columns().is_empty());

        let db = edb(
            &[("edge", 2)],
            &[("edge", &["a", "a"]), ("edge", &["a", "b"])],
        );
        let (out, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        assert_eq!(out.relation("loop").unwrap().len(), 1);
        assert!(out.holds("loop", &Tuple::from_iter(["a"])));
    }

    #[test]
    fn compile_runs_analysis_once_and_evaluation_runs_none() {
        let program = parse_program("p(X) :- q(X), NOT r(X).").unwrap();
        let before = analysis_count();
        let compiled = CompiledProgram::compile(&program).unwrap();
        assert_eq!(analysis_count(), before + 1);
        let db = edb(
            &[("q", 1), ("r", 1)],
            &[("q", &["a"]), ("q", &["b"]), ("r", &["b"])],
        );
        for _ in 0..5 {
            let (out, _) = compiled
                .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
                .unwrap();
            assert_eq!(out.relation("p").unwrap().len(), 1);
        }
        assert_eq!(analysis_count(), before + 1);
    }

    #[test]
    fn nonrecursive_layers_evaluate_in_topological_order() {
        // `a` reads `b` but sorts before it alphabetically: topological
        // ordering (not name ordering) must drive the single pass.
        let program = parse_program("a(X) :- b(X).\nb(X) :- q(X).").unwrap();
        let compiled = CompiledProgram::compile_nonrecursive(&program).unwrap();
        let db = edb(&[("q", 1)], &[("q", &["v"])]);
        let (out, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        assert!(out.holds("a", &Tuple::from_iter(["v"])));
    }

    #[test]
    fn compile_nonrecursive_rejects_cycles() {
        let program =
            parse_program("tc(X,Y) :- edge(X,Y).\ntc(X,Z) :- edge(X,Y), tc(Y,Z).").unwrap();
        assert!(matches!(
            CompiledProgram::compile_nonrecursive(&program),
            Err(DatalogError::Recursive { .. })
        ));
        assert!(CompiledProgram::compile(&program).unwrap().is_recursive());
    }

    #[test]
    fn recursive_programs_match_the_interpreter() {
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- edge(X,Y), tc(Y,Z).",
        )
        .unwrap();
        let db = edb(
            &[("edge", 2)],
            &[
                ("edge", &["a", "b"]),
                ("edge", &["b", "c"]),
                ("edge", &["c", "d"]),
                ("edge", &["d", "a"]),
            ],
        );
        let compiled = CompiledProgram::compile(&program).unwrap();
        let (fast, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        let (reference, _) = evaluate_stratified(&program, &db, EvalOptions::default()).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast.relation("tc").unwrap().len(), 16);
    }

    #[test]
    fn recursive_strata_do_not_rerun_saturated_rules() {
        // Non-linear transitive closure on a 6-node chain: the compiled
        // semi-naive fixpoint must enumerate each derivation exactly once
        // (5 base + 20 split-point derivations — the same count the
        // interpreter's regression test pins) and must not re-run the
        // non-recursive base rule after the first round.
        let program = parse_program(
            "tc(X,Y) :- edge(X,Y).\n\
             tc(X,Z) :- tc(X,Y), tc(Y,Z).",
        )
        .unwrap();
        let mut db = edb(&[("edge", 2)], &[]);
        for i in 0..5 {
            db.insert(
                "edge",
                Tuple::from_iter([format!("n{i}"), format!("n{}", i + 1)]),
            )
            .unwrap();
        }
        let compiled = CompiledProgram::compile(&program).unwrap();
        let (out, stats) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        assert_eq!(out.relation("tc").unwrap().len(), 15);
        assert_eq!(stats.tuples_derived, 25);
    }

    #[test]
    fn stratified_negation_matches_the_interpreter() {
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
        let compiled = CompiledProgram::compile(&program).unwrap();
        let (fast, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        let (reference, _) = evaluate_stratified(&program, &db, EvalOptions::default()).unwrap();
        assert_eq!(fast, reference);
    }

    #[test]
    fn prefix_probes_need_no_prepared_index() {
        // price(X,Y) is probed on its first column, which the sorted tuple
        // set serves directly: preparing the database builds nothing.
        let program = parse_program("bill(X,Y) :- order(X), price(X,Y).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let mut db = edb(&[("price", 2)], &[]);
        for i in 0..100 {
            db.insert("price", Tuple::from_iter([format!("p{i}"), format!("{i}")]))
                .unwrap();
        }
        let price_atom = &compiled.rules()[0].atoms()[1];
        assert_eq!(price_atom.relation().as_str(), "price");
        assert!(price_atom.uses_prefix_scan());
        let prepared = compiled.prepare(&db);
        assert_eq!(prepared.index_count(), 0);
        let orders = edb(&[("order", 1)], &[("order", &["p7"])]);
        let (out, _) = compiled
            .evaluate(
                &[&orders],
                Some(&prepared.view_for(&compiled)),
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert!(out.holds("bill", &Tuple::from_iter(["p7", "7"])));
        assert_eq!(out.relation("bill").unwrap().len(), 1);
    }

    #[test]
    fn non_prefix_probes_use_the_prepared_hash_index() {
        // made-by(Y, X) joins on its *second* column, which is not a prefix:
        // the prepared database carries a hash index keyed on column 1.
        let program = parse_program("sourced(X) :- item(X), made-by(Y, X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let atom = compiled.rules()[0]
            .atoms()
            .iter()
            .find(|a| a.relation().as_str() == "made-by")
            .unwrap();
        assert_eq!(atom.key_columns(), &[1]);
        assert!(!atom.uses_prefix_scan());
        let db = edb(
            &[("made-by", 2)],
            &[
                ("made-by", &["acme", "widget"]),
                ("made-by", &["acme", "gadget"]),
                ("made-by", &["globex", "widget"]),
            ],
        );
        let prepared = compiled.prepare(&db);
        assert_eq!(prepared.index_count(), 1);
        let items = edb(&[("item", 1)], &[("item", &["widget"])]);
        let (out, _) = compiled
            .evaluate(
                &[&items],
                Some(&prepared.view_for(&compiled)),
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert!(out.holds("sourced", &Tuple::from_iter(["widget"])));
        assert_eq!(out.relation("sourced").unwrap().len(), 1);
    }

    #[test]
    fn multiple_sources_resolve_first_match() {
        let program = parse_program("p(X) :- q(X), NOT r(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let a = edb(&[("q", 1)], &[("q", &["x"])]);
        let b = edb(&[("r", 1)], &[("r", &["x"])]);
        let (out, _) = compiled
            .evaluate(
                &[&a, &b],
                None,
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        // negation sees every source: r(x) holds, so p is empty
        assert!(out.relation("p").unwrap().is_empty());
    }

    /// The `offer` shape: a one-tuple input guard sharing no variable with
    /// the catalog scan behind it.  Level 0 is too small to split, so the
    /// pass collects `(guard, price)` pairs and fans out as several pool
    /// jobs; the result and the stats match the sequential pass.
    #[test]
    fn a_one_tuple_guard_pass_splits_on_level_one() {
        let program =
            parse_program("offer(P,Y) :- refresh(R), price(P,Y), NOT browsed(P).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let rule = &compiled.rules()[0];
        assert_eq!(rule.atom_order(), vec![0, 1], "the guard drives the join");
        let mut db = edb(&[("price", 2), ("browsed", 1)], &[("browsed", &["p3"])]);
        for i in 0..64 {
            db.insert("price", Tuple::from_iter([format!("p{i}"), format!("{i}")]))
                .unwrap();
        }
        let tick = edb(&[("refresh", 1)], &[("refresh", &["t0"])]);

        let parallelism = Parallelism::threads(2).with_threshold(16);
        let ctx = EvalContext::new(compiled.out_schema(), &[&tick, &db], None);
        let pass = ctx
            .prepare_pass(rule, None, collect_bound(parallelism, 1))
            .unwrap()
            .expect("no atom is empty");
        assert_eq!(pass.cost(), 64, "one pair per price tuple");
        let passes = [Some(pass)];
        assert!(pool_jobs(&passes, parallelism).len() > 1);

        let (sequential, sequential_stats) = compiled
            .evaluate(
                &[&tick, &db],
                None,
                Parallelism::sequential(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        let (parallel, parallel_stats) = compiled
            .evaluate(&[&tick, &db], None, parallelism, EvalBudget::UNLIMITED)
            .unwrap();
        assert_eq!(sequential.relation("offer").unwrap().len(), 63);
        assert_eq!(parallel, sequential);
        assert_eq!(parallel_stats, sequential_stats);
    }

    #[test]
    fn fact_rules_fire_once() {
        let program = parse_program("ok :- a(X), NOT b(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let db = edb(&[("a", 1), ("b", 1)], &[("a", &["1"])]);
        let (out, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        assert!(out.relation("ok").unwrap().holds());
    }
}
