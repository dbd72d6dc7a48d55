//! Incremental per-step evaluation of flat programs over grow-only state.
//!
//! A Spocus transducer evaluates the same non-recursive, flat output program
//! at every input step against `input ∪ past ∪ db`, and its cumulative state
//! gives the sources a very particular change discipline:
//!
//! * `input` is **volatile** — replaced wholesale at every step;
//! * every `past-R` is **grow-only** — it gains exactly the step's input and
//!   never loses a tuple;
//! * `db` is **static** between explicit catalog mutations.
//!
//! [`StepEvaluator`] exploits that discipline so step *i+1* joins only
//! against what changed:
//!
//! * A rule with a positive volatile atom is re-derived each step — its join
//!   is bounded by the (typically tiny) step input, not by the state or the
//!   catalog.
//! * A rule whose positive atoms are only grow-only/static is **cached**: its
//!   positive join results are materialised once and then extended per step
//!   by a semi-naive pass over the `past-R` delta (the old/delta/full split
//!   of [`crate::compile`], re-aimed at the state atoms instead of the
//!   recursive ones).  The join work of step *i+1* touches only the delta.
//! * Negations cannot be cached blindly — `past-R` growth *retracts* derived
//!   tuples, and volatile negations flip both ways — so each cached row
//!   carries the bindings of its volatile/grow-only negations and re-checks
//!   them (two set probes) at emission.  A row blocked by a grow-only
//!   negation can never fire again *while the relation honours the grow-only
//!   contract*, so it is dropped — but the drop is **version-guarded**: for
//!   a grow-only relation the cardinality is a version stamp (every legal
//!   mutation moves it upward), so each step compares the observed
//!   cardinalities against the last seen ones, and a decrease proves the
//!   contract was broken and reseeds that rule's cache (dropped rows
//!   included) with one full pass.  Disequalities and static negations are
//!   checked once, at derivation.
//!
//! Sinks become relations in bulk: each rule's derivations (a volatile
//! rule's join output, a cached rule's emitted heads) are drained into the
//! step's output through one
//! [`Instance::insert_bulk`](rtx_relational::Instance::insert_bulk) — sorted,
//! deduplicated and built in one linear pass — instead of one set insert per
//! tuple.  A catalog-wide rule behind an input tick derives O(catalog)
//! tuples every step, and this keeps placing them cheaper than the join.
//!
//! The caching is sound only for **flat** programs (no derived relation in
//! any body, which Spocus guarantees); [`StepEvaluator::new`] rejects
//! anything else.  Seeding is **per rule**: when a static relation changes
//! (the resident database's version moved — an insert *or* a retraction),
//! call [`StepEvaluator::invalidate_relations`] with the stale relation
//! names ([`ResidentDb::stale_relations`](crate::ResidentDb::stale_relations)
//! computes them) and only the rules that read one of them reseed at the
//! next step; every other rule keeps its cache and stays on the delta path.
//! [`StepEvaluator::reset`] remains the blunt instrument: it drops every
//! cache at once.

use crate::compile::{CompiledProgram, CompiledRule, EvalContext, SeminaiveView};
use crate::engine::{EvalBudget, EvalStats};
use crate::pool::Parallelism;
use crate::resident::ResidentView;
use crate::DatalogError;
use rtx_relational::{Instance, Relation, RelationName, Schema, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// How a source relation may change from one step to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeClass {
    /// Replaced wholesale every step (transducer inputs).
    Volatile,
    /// Only ever gains tuples (cumulative `past-R` state).
    GrowOnly,
    /// Unchanged between explicit resets (the resident database).
    Static,
}

/// A deferred negation of a cached rule: its argument values ride along in
/// the cached row at `start..start + len` and are re-checked at emission.
#[derive(Debug, Clone)]
struct DeferredNeg {
    relation: RelationName,
    /// True for grow-only negations (a block is permanent), false for
    /// volatile ones (a block lasts one step).
    grow: bool,
    start: usize,
    len: usize,
}

/// Per-rule evaluation strategy.  Rules are addressed by index into the
/// compiled program passed to [`StepEvaluator::step`], so an all-volatile
/// program costs no rule cloning at all.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one evaluator holds a handful of these
enum StepKind {
    /// Re-derive each step (the rule reads a volatile relation positively).
    Volatile,
    /// Cache positive-join rows and extend them from the grow-only delta.
    Cached {
        /// The rule with its head widened by the deferred negation arguments
        /// and the deferred negations stripped from the leaf checks — `None`
        /// when nothing was deferred and the original rule serves as-is.
        modified: Option<CompiledRule>,
        /// Arity of the real head (prefix of each cached row).
        head_len: usize,
        /// Atom positions reading grow-only relations (the delta split).
        grow_positions: Vec<usize>,
        /// Deferred negations, grow-only first so permanent blocks are
        /// discovered before a one-step volatile block can mask them.
        deferred: Vec<DeferredNeg>,
        /// Every relation the rule reads (atoms and negations) — the match
        /// key for [`StepEvaluator::invalidate_relations`].
        reads: BTreeSet<RelationName>,
        /// Grow-only relations the rule reads (positively or negated), with
        /// the cardinality last observed.  Under the grow-only contract a
        /// relation's cardinality is a version stamp — every legal mutation
        /// increases it — so a decrease proves the relation shrank and the
        /// cache (including rows the grow-only block dropped) is void.
        grow_sizes: BTreeMap<RelationName, usize>,
        /// False until the cache has been seeded by a full pass, and again
        /// after an invalidation hits one of the rule's reads.
        seeded: bool,
        /// All positive-join rows over the state seen so far that pass the
        /// static filters, deduplicated.
        rows: BTreeSet<Tuple>,
    },
}

/// Incremental step evaluation for a flat compiled program — see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct StepEvaluator {
    out_schema: Schema,
    rules: Vec<StepKind>,
    initialized: bool,
    parallelism: Parallelism,
    budget: EvalBudget,
    /// Scratch sink reused across rules and steps: a rule's derivations
    /// land here and are drained into the step's output in bulk, so a step
    /// of small rules allocates no sink.
    sink: Vec<Tuple>,
}

impl StepEvaluator {
    /// Builds a step evaluator, classifying every source relation with
    /// `classify`.  Fails with [`DatalogError::NotFlat`] if any rule body
    /// reads a derived relation (caching per-rule results is only sound when
    /// rules do not feed each other).
    pub fn new(
        program: &CompiledProgram,
        classify: impl Fn(&RelationName) -> ChangeClass,
    ) -> Result<Self, DatalogError> {
        let out_schema = program.out_schema().clone();
        for rule in program.rules() {
            for atom in rule.atoms() {
                if out_schema.contains(atom.relation().clone()) {
                    return Err(DatalogError::NotFlat {
                        relation: atom.relation().as_str().to_string(),
                    });
                }
            }
            for neg in &rule.negations {
                if out_schema.contains(neg.relation.clone()) {
                    return Err(DatalogError::NotFlat {
                        relation: neg.relation.as_str().to_string(),
                    });
                }
            }
        }

        let mut rules = Vec::with_capacity(program.rules().len());
        for rule in program.rules() {
            let has_volatile_atom = rule
                .atoms()
                .iter()
                .any(|a| classify(a.relation()) == ChangeClass::Volatile);
            if has_volatile_atom {
                rules.push(StepKind::Volatile);
                continue;
            }

            let grow_positions: Vec<usize> = rule
                .atoms()
                .iter()
                .enumerate()
                .filter(|(_, a)| classify(a.relation()) == ChangeClass::GrowOnly)
                .map(|(pos, _)| pos)
                .collect();

            let mut reads: BTreeSet<RelationName> = BTreeSet::new();
            let mut grow_sizes: BTreeMap<RelationName, usize> = BTreeMap::new();
            for atom in rule.atoms() {
                reads.insert(atom.relation().clone());
                if classify(atom.relation()) == ChangeClass::GrowOnly {
                    grow_sizes.insert(atom.relation().clone(), 0);
                }
            }
            for neg in &rule.negations {
                reads.insert(neg.relation.clone());
                if classify(&neg.relation) == ChangeClass::GrowOnly {
                    grow_sizes.insert(neg.relation.clone(), 0);
                }
            }

            // Split the negations: static ones stay leaf-checked, the rest
            // are deferred to emission (grow-only first).
            let head_len = rule.head.len();
            let mut kept = Vec::new();
            let mut to_defer = Vec::new();
            for neg in &rule.negations {
                match classify(&neg.relation) {
                    ChangeClass::Static => kept.push(neg.clone()),
                    ChangeClass::GrowOnly => to_defer.push((neg.clone(), true)),
                    ChangeClass::Volatile => to_defer.push((neg.clone(), false)),
                }
            }
            let modified = if to_defer.is_empty() {
                None
            } else {
                let mut cached = rule.clone();
                to_defer.sort_by_key(|&(_, grow)| !grow);
                let mut deferred_head = Vec::new();
                for (neg, _) in &to_defer {
                    deferred_head.extend(neg.args.iter().cloned());
                }
                cached.head.extend(deferred_head);
                cached.negations = kept;
                Some(cached)
            };
            let mut deferred = Vec::with_capacity(to_defer.len());
            let mut offset = head_len;
            for (neg, grow) in to_defer {
                deferred.push(DeferredNeg {
                    relation: neg.relation.clone(),
                    grow,
                    start: offset,
                    len: neg.args.len(),
                });
                offset += neg.args.len();
            }

            rules.push(StepKind::Cached {
                modified,
                head_len,
                grow_positions,
                deferred,
                reads,
                grow_sizes,
                seeded: false,
                rows: BTreeSet::new(),
            });
        }

        Ok(StepEvaluator {
            out_schema,
            rules,
            initialized: false,
            parallelism: Parallelism::default(),
            budget: EvalBudget::UNLIMITED,
            sink: Vec::new(),
        })
    }

    /// Replaces the [`Parallelism`] policy the per-step passes evaluate
    /// under.  Parallel steps are bit-identical to sequential ones (same
    /// derived instances, same stats); the policy only changes how the work
    /// above the tuple-count threshold is scheduled.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Replaces the [`Parallelism`] policy in place (see
    /// [`Self::with_parallelism`]).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The policy the per-step passes evaluate under.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Replaces the per-step [`EvalBudget`].  Each call to [`Self::step`]
    /// checks its own running [`EvalStats`] against the budget and stops with
    /// [`DatalogError::BudgetExceeded`] instead of finishing a pathological
    /// step; the cached join rows are only extended after a pass completes,
    /// so a budget trip leaves the evaluator consistent and usable.
    pub fn with_budget(mut self, budget: EvalBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the per-step [`EvalBudget`] in place (see
    /// [`Self::with_budget`]).
    pub fn set_budget(&mut self, budget: EvalBudget) {
        self.budget = budget;
    }

    /// The per-step budget the evaluator enforces.
    pub fn budget(&self) -> EvalBudget {
        self.budget
    }

    /// The schema of the derived relations.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// True once the caches have been seeded by a first step.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Total cached positive-join rows across all rules (diagnostics).
    pub fn cached_rows(&self) -> usize {
        self.rules
            .iter()
            .map(|r| match r {
                StepKind::Volatile => 0,
                StepKind::Cached { rows, .. } => rows.len(),
            })
            .sum()
    }

    /// Drops all caches; the next [`Self::step`] reseeds them with a full
    /// evaluation.  Call this when the grow-only state was rebuilt wholesale
    /// or when the set of changed relations is unknown; when it *is* known
    /// (the resident database names it), [`Self::invalidate_relations`]
    /// reseeds only the affected rules.
    pub fn reset(&mut self) {
        self.initialized = false;
        for rule in &mut self.rules {
            if let StepKind::Cached {
                rows,
                grow_sizes,
                seeded,
                ..
            } = rule
            {
                rows.clear();
                for len in grow_sizes.values_mut() {
                    *len = 0;
                }
                *seeded = false;
            }
        }
    }

    /// Reseeds exactly the rule caches that read one of `changed`: their
    /// rows — including rows previously dropped by the permanent grow-only
    /// block — are recomputed by one full pass at the next [`Self::step`],
    /// while every other rule keeps its cache and stays on the delta path.
    ///
    /// Call this with the output of
    /// [`ResidentDb::stale_relations`](crate::ResidentDb::stale_relations)
    /// when the catalog mutated under the evaluator — in particular when a
    /// retraction shrank a relation, which the grow-only discipline of the
    /// caches cannot absorb.  Returns how many rule caches were invalidated.
    pub fn invalidate_relations(&mut self, changed: &[RelationName]) -> usize {
        if changed.is_empty() {
            return 0;
        }
        let mut invalidated = 0;
        for rule in &mut self.rules {
            if let StepKind::Cached {
                reads,
                grow_sizes,
                seeded,
                rows,
                ..
            } = rule
            {
                if *seeded && changed.iter().any(|name| reads.contains(name)) {
                    rows.clear();
                    for len in grow_sizes.values_mut() {
                        *len = 0;
                    }
                    *seeded = false;
                    invalidated += 1;
                }
            }
        }
        invalidated
    }

    /// Evaluates one step of `program` (the same program the evaluator was
    /// built from): `volatile ∪ grown ∪ view` is the step's database, and
    /// `grown = grown_old ∪ grown_delta` is the grow-only decomposition
    /// since the previous step (both ignored on the seeding step).
    ///
    /// Returns the derived instance and the step's statistics;
    /// `tuples_derived` counts only join derivations, so a caller can pin
    /// that a step joined nothing but the delta.
    pub fn step(
        &mut self,
        program: &CompiledProgram,
        volatile: &Instance,
        grown: &Instance,
        grown_old: &Instance,
        grown_delta: &Instance,
        view: &ResidentView,
    ) -> Result<(Instance, EvalStats), DatalogError> {
        assert_eq!(
            program.rules().len(),
            self.rules.len(),
            "StepEvaluator::step must receive the program it was built from"
        );
        let parallelism = self.parallelism.resolved();
        let budget = self.budget;
        let mut stats = EvalStats {
            rounds: 1,
            ..EvalStats::default()
        };
        budget.check(&stats)?;
        let mut out = Instance::empty(&self.out_schema);
        let delta_empty = grown_delta.is_empty();
        // Built on first use: an all-volatile program never pays for it.
        let mut delta_map: Option<BTreeMap<RelationName, Relation>> = None;

        let volatile_sources = [volatile, grown];
        let mut volatile_ctx: Option<EvalContext<'_>> = None;
        let cached_sources = [grown];
        let mut cached_ctx: Option<EvalContext<'_>> = None;
        let sink = &mut self.sink;

        for (rule, step_rule) in program.rules().iter().zip(self.rules.iter_mut()) {
            match step_rule {
                StepKind::Volatile => {
                    let ctx = volatile_ctx.get_or_insert_with(|| {
                        EvalContext::new(&self.out_schema, &volatile_sources, Some(view))
                    });
                    stats.rule_applications += 1;
                    sink.clear();
                    ctx.run_pass_par(rule, None, parallelism, sink)?;
                    stats.tuples_derived += sink.len() as u64;
                    budget.check(&stats)?;
                    out.insert_bulk(&rule.head_relation, sink)?;
                }
                StepKind::Cached {
                    modified,
                    head_len,
                    grow_positions,
                    deferred,
                    reads: _,
                    grow_sizes,
                    seeded,
                    rows,
                } => {
                    let rule = modified.as_ref().unwrap_or(rule);
                    let ctx = cached_ctx.get_or_insert_with(|| {
                        EvalContext::new(&self.out_schema, &cached_sources, Some(view))
                    });
                    // Version guard: under the grow-only contract a
                    // relation's cardinality only moves upward, so a
                    // decrease proves the relation shrank behind our back
                    // and every cached row — including the ones the
                    // permanent grow-only block dropped — is suspect.
                    if *seeded
                        && grow_sizes
                            .iter()
                            .any(|(name, &len)| grown.get(name).map_or(0, |r| r.len()) < len)
                    {
                        rows.clear();
                        *seeded = false;
                    }
                    if !*seeded {
                        stats.rule_applications += 1;
                        sink.clear();
                        ctx.run_pass_par(rule, None, parallelism, sink)?;
                        stats.tuples_derived += sink.len() as u64;
                        budget.check(&stats)?;
                        rows.extend(sink.drain(..));
                        *seeded = true;
                    } else if !grow_positions.is_empty() && !delta_empty {
                        let delta_map = delta_map.get_or_insert_with(|| {
                            grown_delta
                                .iter()
                                .map(|(name, rel)| (name.clone(), rel.clone()))
                                .collect()
                        });
                        stats.rule_applications += 1;
                        sink.clear();
                        for &pos in grow_positions.iter() {
                            let view = SeminaiveView {
                                delta_pos: pos,
                                positions: grow_positions,
                                delta: delta_map,
                                old: grown_old,
                                old_shadows_sources: true,
                            };
                            ctx.run_pass_par(rule, Some(&view), parallelism, sink)?;
                        }
                        stats.tuples_derived += sink.len() as u64;
                        budget.check(&stats)?;
                        rows.extend(sink.drain(..));
                    }
                    for (name, len) in grow_sizes.iter_mut() {
                        *len = grown.get(name).map_or(0, |r| r.len());
                    }
                    emit_cached(
                        rule, *head_len, deferred, rows, volatile, grown, sink, &mut out,
                    )?;
                }
            }
        }
        self.initialized = true;
        Ok((out, stats))
    }
}

/// Emits the heads of the cached rows whose deferred negations pass under
/// the current step, dropping rows a grow-only negation blocks.  The drop
/// is safe because [`StepEvaluator::step`] version-guards it: a shrink of
/// the negated relation (observed by cardinality, or announced through
/// [`StepEvaluator::invalidate_relations`]) reseeds the whole rule cache,
/// dropped rows included.  `heads` is scratch space, left empty.
#[allow(clippy::too_many_arguments)]
fn emit_cached(
    rule: &CompiledRule,
    head_len: usize,
    deferred: &[DeferredNeg],
    rows: &mut BTreeSet<Tuple>,
    volatile: &Instance,
    grown: &Instance,
    heads: &mut Vec<Tuple>,
    out: &mut Instance,
) -> Result<(), DatalogError> {
    let mut dead: Vec<Tuple> = Vec::new();
    // A step that failed part-way may have left derivations behind.
    heads.clear();
    heads.reserve(rows.len());
    for row in rows.iter() {
        let values = row.values();
        let mut emit = true;
        for neg in deferred {
            let key = Tuple::from_slice(&values[neg.start..neg.start + neg.len]);
            let source = if neg.grow { grown } else { volatile };
            if source
                .get(&neg.relation)
                .is_some_and(|rel| rel.contains(&key))
            {
                emit = false;
                if neg.grow {
                    // A grow-only relation never loses the blocking tuple:
                    // this row can never fire again.
                    dead.push(row.clone());
                }
                break;
            }
        }
        if emit {
            heads.push(Tuple::from_slice(&values[..head_len]));
        }
    }
    out.insert_bulk(&rule.head_relation, heads)?;
    for row in dead {
        rows.remove(&row);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::resident::ResidentDb;

    fn classify_by_prefix(name: &RelationName) -> ChangeClass {
        if name.as_str().starts_with("past-") {
            ChangeClass::GrowOnly
        } else if name.as_str().starts_with("db-") {
            ChangeClass::Static
        } else {
            ChangeClass::Volatile
        }
    }

    fn instance(pairs: &[(&str, usize)], facts: &[(&str, &[&str])]) -> Instance {
        let schema = Schema::from_pairs(pairs.iter().map(|&(n, a)| (n, a))).unwrap();
        let mut inst = Instance::empty(&schema);
        for (rel, vals) in facts {
            inst.insert(*rel, Tuple::from_iter(vals.iter().copied()))
                .unwrap();
        }
        inst
    }

    /// Drives the evaluator through cumulative-state steps and checks each
    /// step's output against a from-scratch full evaluation.
    fn check_against_full(
        program_text: &str,
        db: &Instance,
        state_pairs: &[(&str, usize)],
        input_pairs: &[(&str, usize)],
        steps: &[&[(&str, &[&str])]],
    ) -> Vec<EvalStats> {
        let program = parse_program(program_text).unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let resident = compiled.prepare(db);
        let view = resident.view_for(&compiled);
        let mut evaluator = StepEvaluator::new(&compiled, classify_by_prefix).unwrap();

        let mut grown = instance(state_pairs, &[]);
        let mut grown_old = grown.clone();
        let mut delta = instance(state_pairs, &[]);
        let mut all_stats = Vec::new();
        for facts in steps {
            let input = instance(input_pairs, facts);
            let (incremental, stats) = evaluator
                .step(&compiled, &input, &grown, &grown_old, &delta, &view)
                .unwrap();
            let (full, _) = compiled
                .evaluate(
                    &[&input, &grown, db],
                    None,
                    Parallelism::default(),
                    EvalBudget::UNLIMITED,
                )
                .unwrap();
            assert_eq!(incremental, full, "incremental ≠ full at some step");
            all_stats.push(stats);

            // Cumulate: past-R gains the step's input relation R.
            let mut next = grown.clone();
            let mut next_delta = instance(state_pairs, &[]);
            for (name, rel) in input.iter() {
                let past = name.past();
                if next.get(&past).is_some() {
                    for tuple in rel.iter() {
                        if !grown.get(&past).unwrap().contains(tuple) {
                            next_delta.insert(past.clone(), tuple.clone()).unwrap();
                        }
                    }
                    next.absorb_relation(past, rel).unwrap();
                }
            }
            grown_old = grown;
            grown = next;
            delta = next_delta;
        }
        all_stats
    }

    #[test]
    fn cached_rule_joins_only_the_delta() {
        let db = instance(
            &[("db-base", 1)],
            &[
                ("db-base", &["a"]),
                ("db-base", &["b"]),
                ("db-base", &["c"]),
                ("db-base", &["d"]),
            ],
        );
        let stats = check_against_full(
            "seen(X) :- past-touch(X), db-base(X).",
            &db,
            &[("past-touch", 1)],
            &[("touch", 1)],
            &[
                &[("touch", &["a"]), ("touch", &["b"]), ("touch", &["c"])],
                &[("touch", &["d"])],
                &[],
                &[("touch", &["a"])], // duplicate: delta is empty
            ],
        );
        let derived: Vec<u64> = stats.iter().map(|s| s.tuples_derived).collect();
        // Step 1 seeds against the empty state (0 derivations), step 2 joins
        // exactly the three new past-touch tuples, step 3 exactly one, and a
        // step with an empty delta joins nothing at all — a from-scratch
        // evaluation would have re-derived all 4 tuples at step 4.
        assert_eq!(derived, vec![0, 3, 1, 0]);
    }

    #[test]
    fn budget_trips_with_typed_error_and_leaves_evaluator_usable() {
        let db = instance(
            &[("db-base", 1)],
            &[
                ("db-base", &["a"]),
                ("db-base", &["b"]),
                ("db-base", &["c"]),
            ],
        );
        let program = parse_program("echo(X) :- ping(X), db-base(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let resident = compiled.prepare(&db);
        let view = resident.view_for(&compiled);
        let mut evaluator = StepEvaluator::new(&compiled, classify_by_prefix)
            .unwrap()
            .with_budget(EvalBudget::max_derivations(2));

        let grown = instance(&[("past-ping", 1)], &[]);
        let big = instance(
            &[("ping", 1)],
            &[("ping", &["a"]), ("ping", &["b"]), ("ping", &["c"])],
        );
        let err = evaluator
            .step(&compiled, &big, &grown, &grown, &grown, &view)
            .unwrap_err();
        assert_eq!(
            err,
            DatalogError::BudgetExceeded {
                resource: "derivations".into(),
                limit: 2,
                spent: 3,
            }
        );

        // A budget trip is not a poisoned evaluator: a cheaper step (or a
        // lifted budget) evaluates normally afterwards.
        let small = instance(&[("ping", 1)], &[("ping", &["a"])]);
        let (out, stats) = evaluator
            .step(&compiled, &small, &grown, &grown, &grown, &view)
            .unwrap();
        assert_eq!(stats.tuples_derived, 1);
        assert_eq!(out.get(&RelationName::new("echo")).unwrap().len(), 1);

        evaluator.set_budget(EvalBudget::UNLIMITED);
        assert!(evaluator.budget().is_unlimited());
        let (out, _) = evaluator
            .step(&compiled, &big, &grown, &grown, &grown, &view)
            .unwrap();
        assert_eq!(out.get(&RelationName::new("echo")).unwrap().len(), 3);
    }

    #[test]
    fn grow_only_negation_retracts_permanently() {
        // Offers stand while the product was never touched: rows must
        // disappear when past-touch gains the product, and never return.
        let db = instance(
            &[("db-avail", 1)],
            &[("db-avail", &["a"]), ("db-avail", &["b"])],
        );
        check_against_full(
            "offer(X) :- db-avail(X), NOT past-touch(X).",
            &db,
            &[("past-touch", 1)],
            &[("touch", 1)],
            &[&[], &[("touch", &["a"])], &[], &[("touch", &["b"])], &[]],
        );
    }

    #[test]
    fn volatile_negation_flips_both_ways() {
        // quiet(X) holds at steps where X was touched before but is not being
        // touched right now — blocked rows must come back.
        let db = instance(&[("db-avail", 1)], &[("db-avail", &["a"])]);
        check_against_full(
            "quiet(X) :- past-touch(X), db-avail(X), NOT touch(X).",
            &db,
            &[("past-touch", 1)],
            &[("touch", 1)],
            &[
                &[("touch", &["a"])],
                &[("touch", &["a"])],
                &[],
                &[("touch", &["a"])],
                &[],
            ],
        );
    }

    #[test]
    fn multiple_grow_atoms_split_old_delta_full() {
        // Two grow-only atoms in one rule exercise the old/delta/full split.
        let db = instance(
            &[("db-pair", 2)],
            &[("db-pair", &["a", "b"]), ("db-pair", &["b", "c"])],
        );
        check_against_full(
            "linked(X,Y) :- past-touch(X), past-touch(Y), db-pair(X,Y).",
            &db,
            &[("past-touch", 1)],
            &[("touch", 1)],
            &[
                &[("touch", &["a"])],
                &[("touch", &["b"])],
                &[("touch", &["c"])],
                &[],
            ],
        );
    }

    #[test]
    fn volatile_rules_re_derive_each_step() {
        let db = instance(&[("db-price", 2)], &[("db-price", &["a", "1"])]);
        check_against_full(
            "bill(X,Y) :- touch(X), db-price(X,Y), NOT past-touch(X).",
            &db,
            &[("past-touch", 1)],
            &[("touch", 1)],
            &[&[("touch", &["a"])], &[("touch", &["a"])], &[]],
        );
    }

    #[test]
    fn non_flat_programs_are_rejected() {
        let program = parse_program("p(X) :- q(X).\nr(X) :- p(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        assert!(matches!(
            StepEvaluator::new(&compiled, classify_by_prefix),
            Err(DatalogError::NotFlat { .. })
        ));
    }

    #[test]
    fn reset_reseeds_after_static_changes() {
        let program = parse_program("seen(X) :- past-touch(X), db-base(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let resident = ResidentDb::new(instance(&[("db-base", 1)], &[("db-base", &["a"])]));
        let mut evaluator = StepEvaluator::new(&compiled, classify_by_prefix).unwrap();

        let state_schema = &[("past-touch", 1)];
        let empty_state = instance(state_schema, &[]);
        let grown = instance(
            state_schema,
            &[("past-touch", &["a"]), ("past-touch", &["b"])],
        );
        let input = instance(&[("touch", 1)], &[]);

        let view = resident.view_for(&compiled);
        let (out, _) = evaluator
            .step(&compiled, &input, &grown, &empty_state, &empty_state, &view)
            .unwrap();
        assert_eq!(out.relation("seen").unwrap().len(), 1);

        // The static relation changes: without a reset the cache would miss b.
        resident.insert("db-base", Tuple::from_iter(["b"])).unwrap();
        evaluator.reset();
        assert!(!evaluator.is_initialized());
        let view = resident.view_for(&compiled);
        let (out, _) = evaluator
            .step(&compiled, &input, &grown, &empty_state, &empty_state, &view)
            .unwrap();
        assert_eq!(out.relation("seen").unwrap().len(), 2);
        assert_eq!(evaluator.cached_rows(), 2);
    }

    /// Regression: rows dropped by the permanent grow-only block used to be
    /// gone for good even when the negated relation later *shrank* (a
    /// retraction reached the state).  The cardinality version guard must
    /// revive them.
    #[test]
    fn a_shrinking_grow_only_negation_revives_dropped_rows() {
        let program = parse_program("offer(X) :- db-avail(X), NOT past-touch(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let resident = compiled.prepare(&instance(
            &[("db-avail", 1)],
            &[("db-avail", &["a"]), ("db-avail", &["b"])],
        ));
        let view = resident.view_for(&compiled);
        let mut evaluator = StepEvaluator::new(&compiled, classify_by_prefix).unwrap();

        let empty_state = instance(&[("past-touch", 1)], &[]);
        let input = instance(&[("touch", 1)], &[]);
        let grown = instance(&[("past-touch", 1)], &[("past-touch", &["a"])]);

        // Seed with past-touch = {a}: the row for a is blocked and dropped.
        let (out, _) = evaluator
            .step(&compiled, &input, &grown, &empty_state, &empty_state, &view)
            .unwrap();
        assert_eq!(out.relation("offer").unwrap().len(), 1);

        // A steady step keeps it dropped (the perf contract).
        let (out, _) = evaluator
            .step(&compiled, &input, &grown, &grown, &empty_state, &view)
            .unwrap();
        assert_eq!(out.relation("offer").unwrap().len(), 1);

        // The state shrinks: the guard reseeds and the row comes back.
        let (out, _) = evaluator
            .step(&compiled, &input, &empty_state, &grown, &empty_state, &view)
            .unwrap();
        assert!(out.holds("offer", &Tuple::from_iter(["a"])));
        assert_eq!(out.relation("offer").unwrap().len(), 2);
    }

    /// Regression twin for positive atoms: cached join rows derived from a
    /// grow-only relation must vanish when that relation shrinks.
    #[test]
    fn a_shrinking_grow_only_atom_voids_stale_join_rows() {
        let program = parse_program("seen(X) :- past-touch(X), db-base(X).").unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let resident = compiled.prepare(&instance(
            &[("db-base", 1)],
            &[("db-base", &["a"]), ("db-base", &["b"])],
        ));
        let view = resident.view_for(&compiled);
        let mut evaluator = StepEvaluator::new(&compiled, classify_by_prefix).unwrap();

        let empty_state = instance(&[("past-touch", 1)], &[]);
        let input = instance(&[("touch", 1)], &[]);
        let grown = instance(
            &[("past-touch", 1)],
            &[("past-touch", &["a"]), ("past-touch", &["b"])],
        );
        let (out, _) = evaluator
            .step(&compiled, &input, &grown, &empty_state, &empty_state, &view)
            .unwrap();
        assert_eq!(out.relation("seen").unwrap().len(), 2);

        // past-touch loses a: the cached row joining it must go too.
        let shrunk = instance(&[("past-touch", 1)], &[("past-touch", &["b"])]);
        let (out, _) = evaluator
            .step(&compiled, &input, &shrunk, &grown, &empty_state, &view)
            .unwrap();
        assert!(!out.holds("seen", &Tuple::from_iter(["a"])));
        assert_eq!(out.relation("seen").unwrap().len(), 1);
    }

    #[test]
    fn invalidate_relations_reseeds_only_the_affected_rules() {
        let program = parse_program(
            "seen(X) :- past-touch(X), db-base(X).\n\
             okay(X) :- past-touch(X), db-extra(X).",
        )
        .unwrap();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let resident = ResidentDb::new(instance(
            &[("db-base", 1), ("db-extra", 1)],
            &[("db-base", &["a"]), ("db-extra", &["a"])],
        ));
        let mut evaluator = StepEvaluator::new(&compiled, classify_by_prefix).unwrap();

        let empty_state = instance(&[("past-touch", 1)], &[]);
        let input = instance(&[("touch", 1)], &[]);
        let grown = instance(&[("past-touch", 1)], &[("past-touch", &["a"])]);

        let view = resident.view_for(&compiled);
        let (out, _) = evaluator
            .step(&compiled, &input, &grown, &empty_state, &empty_state, &view)
            .unwrap();
        assert_eq!(out.relation("seen").unwrap().len(), 1);
        assert_eq!(out.relation("okay").unwrap().len(), 1);
        assert_eq!(evaluator.cached_rows(), 2);

        // Retract the tuple `seen` joins against: exactly the relations the
        // resident database names as stale get invalidated, and only the
        // rule reading them pays a reseed pass.
        resident
            .retract("db-base", &Tuple::from_iter(["a"]))
            .unwrap();
        let stale = resident.stale_relations(&view);
        assert_eq!(stale, vec![RelationName::new("db-base")]);
        assert_eq!(evaluator.invalidate_relations(&stale), 1);
        assert!(evaluator.is_initialized());

        let view = resident.view_for(&compiled);
        let (out, stats) = evaluator
            .step(&compiled, &input, &grown, &grown, &empty_state, &view)
            .unwrap();
        assert!(out.relation("seen").unwrap().is_empty());
        assert_eq!(out.relation("okay").unwrap().len(), 1);
        assert_eq!(stats.rule_applications, 1, "only `seen` reseeds");

        // Invalidating a relation nothing reads is free.
        assert_eq!(
            evaluator.invalidate_relations(&[RelationName::new("db-unread")]),
            0
        );
    }
}
