//! Delete-rederive (DRed) incremental maintenance for stratified programs.
//!
//! The engine's evaluation stack was grow-only: every layer from
//! [`Relation`] to the incremental
//! [`StepEvaluator`](crate::StepEvaluator) assumed relations never shrink.
//! [`DredEngine`] makes deletion first-class: it keeps a stratified
//! program's derived fixpoint **incrementally maintained** under arbitrary
//! base-relation insertions *and retractions*, paying work proportional to
//! the affected derivation closure instead of re-running the fixpoint.
//!
//! Two maintenance strategies are used, chosen per dependency component:
//!
//! * **Support counting** (Gupta–Mumick) for non-recursive components: the
//!   engine keeps, for every derived tuple, the number of distinct rule
//!   derivations supporting it.  A mutation batch evaluates *signed delta
//!   rules* — the original rules with one body literal swapped for a tiny
//!   delta-guard relation, expanded so every remaining literal reads the
//!   **post-mutation** database and the guards, never an old-side copy (see
//!   `counting_delta_program`'s docs for the algebra) — and tuples whose
//!   count crosses zero are inserted into or removed from the derived
//!   instance.  No rederivation pass — and no copy-on-write deep copy of
//!   any pre-mutation relation — is ever needed.
//! * **Delete-rederive** for recursive components, where exact counts are
//!   not finite-state: first the *over-deletion* closure of the retracted
//!   tuples is computed against the pre-mutation database (everything whose
//!   derivation might have depended on a deleted tuple), then deleted
//!   tuples with **alternative support** in the post-mutation database are
//!   re-derived back, then insertions propagate semi-naively.
//!
//! All delta programs are synthesized once, at engine construction, as flat
//! datalog programs over fresh guard relation names and compiled through
//! the ordinary [`CompiledProgram`] pipeline — so every delta pass uses the
//! same indexed-join machinery, parallel schedule and determinism contract
//! as a full evaluation.  Guard atoms are compiled with a *seeded* join
//! order (see `CompiledProgram::compile_seeded`): the delta guard always
//! drives the join, which is what keeps a 1-tuple retraction against a
//! 100k-tuple catalog at affected-closure cost.
//!
//! Net per-relation deltas flow upward component by component (in
//! dependency order), so a mutation that touches nothing a component reads
//! skips it entirely.
//!
//! Only recursive components ever look at pre-mutation state (the
//! over-deletion closure runs against the old database); [`DredEngine::apply`]
//! snapshots exactly the relations those components read as copy-on-write
//! Arc shares *before* mutating, and since the snapshot itself is never
//! written, no deep copy is ever triggered.  Counting components read only
//! the post-mutation world plus the delta guards, so a 1-tuple mutation of
//! a 100k-tuple relation costs a single O(log n) set edit plus
//! affected-closure-sized delta joins — never an O(n) relation copy.

use crate::compile::CompiledProgram;
use crate::engine::EvalBudget;
use crate::graph::DependencyGraph;
use crate::pool::Parallelism;
use crate::resident::{needed_indexes, ResidentView};
use crate::safety::check_program_safety;
use crate::{Atom, BodyLiteral, DatalogError, Program, Rule};
use rtx_logic::Term;
use rtx_relational::{FxHashMap, Instance, Relation, RelationName, Schema, Tuple, TupleIndex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Guard-relation name: net deletions of `r` visible to delta rules.
fn del_name(r: &RelationName) -> RelationName {
    RelationName::new(format!("dred!del@{}", r.as_str()))
}

/// Guard-relation name: net additions of `r` visible to delta rules.
fn add_name(r: &RelationName) -> RelationName {
    RelationName::new(format!("dred!add@{}", r.as_str()))
}

/// Head name of the over-deletion candidate program for head relation `r`.
fn cand_name(r: &RelationName) -> RelationName {
    RelationName::new(format!("dred!cand@{}", r.as_str()))
}

/// Head name of the rederivation program for head relation `r`.
fn redo_name(r: &RelationName) -> RelationName {
    RelationName::new(format!("dred!redo@{}", r.as_str()))
}

/// Head name of the insertion-delta program for head relation `r`.
fn ins_name(r: &RelationName) -> RelationName {
    RelationName::new(format!("dred!ins@{}", r.as_str()))
}

/// Head name of the full-count program for head `r`, rule `ri` (counting
/// heads are per-rule so extended-head arities never conflict).
fn cnt_name(r: &RelationName, ri: usize) -> RelationName {
    RelationName::new(format!("dred!cnt@{}#{ri}", r.as_str()))
}

/// Head name of one signed count-delta variant for head `r`, rule `ri`.
/// Every variant gets its own head so the evaluator's set semantics never
/// merges contributions that carry different signs.
fn cnt_delta_name(r: &RelationName, ri: usize, seq: usize) -> RelationName {
    RelationName::new(format!("dred!cnt-d@{}#{ri}.{seq}", r.as_str()))
}

/// Cross-mutation index cache: `(relation, key columns) → (stamp, index)`.
type IndexCache = FxHashMap<(RelationName, Vec<usize>), (u64, Arc<TupleIndex>)>;

/// One mutation of a base (EDB) relation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Insert(RelationName, Tuple),
    Retract(RelationName, Tuple),
}

/// An ordered batch of base-relation mutations applied atomically by
/// [`DredEngine::apply`].  Later operations see earlier ones: inserting and
/// then retracting the same tuple nets to nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationBatch {
    ops: Vec<Op>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        MutationBatch::default()
    }

    /// Queues a tuple insertion.
    pub fn insert(mut self, relation: impl Into<RelationName>, tuple: Tuple) -> Self {
        self.ops.push(Op::Insert(relation.into(), tuple));
        self
    }

    /// Queues a tuple retraction.
    pub fn retract(mut self, relation: impl Into<RelationName>, tuple: Tuple) -> Self {
        self.ops.push(Op::Retract(relation.into(), tuple));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Work accounting for one [`DredEngine::apply`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DredStats {
    /// Derived tuples removed by the over-deletion phase (recursive
    /// components only) — the size of the affected closure upper bound.
    pub over_deleted: u64,
    /// Over-deleted tuples put back because they have alternative support.
    pub rederived: u64,
    /// Net derived-tuple deletions across all components.
    pub deleted: u64,
    /// Net derived-tuple insertions across all components.
    pub inserted: u64,
    /// Delta-program evaluation rounds across all phases and components.
    pub rounds: u64,
}

impl DredStats {
    fn absorb(&mut self, other: DredStats) {
        self.over_deleted += other.over_deleted;
        self.rederived += other.rederived;
        self.deleted += other.deleted;
        self.inserted += other.inserted;
        self.rounds += other.rounds;
    }
}

/// Net change of one relation within a mutation batch.
#[derive(Debug, Clone)]
struct NetDelta {
    del: Relation,
    add: Relation,
}

impl NetDelta {
    fn new(arity: usize) -> Self {
        NetDelta {
            del: Relation::empty(arity),
            add: Relation::empty(arity),
        }
    }

    fn is_empty(&self) -> bool {
        self.del.is_empty() && self.add.is_empty()
    }
}

/// One strongly-connected component of the program's dependency graph,
/// together with its synthesized maintenance programs.
#[derive(Debug)]
struct Component {
    /// Derived relations defined by this component (one for non-recursive
    /// components; the mutually recursive clique otherwise).
    heads: BTreeSet<RelationName>,
    /// Every relation the component's rules read (positive or negated).
    reads: BTreeSet<RelationName>,
    recursive: bool,
    /// Source rules, as `(index within component, rule)` — the index names
    /// the per-rule counting heads.
    rules: Vec<Rule>,
    /// Over-deletion candidates (recursive components): original rules with
    /// one literal swapped for a deletion/addition guard, evaluated against
    /// the pre-mutation database.
    delete: Option<CompiledProgram>,
    /// Rederivation (recursive components): original rules restricted to
    /// over-deleted candidate heads, evaluated against the post-mutation
    /// database.
    rederive: Option<CompiledProgram>,
    /// Insertion deltas (recursive components), evaluated against the
    /// post-mutation database.
    insert: Option<CompiledProgram>,
    /// Signed derivation-count deltas (non-recursive components).
    count_delta: Option<CompiledProgram>,
    /// Head registry of `count_delta`: `(variant head, ±1)` — the sign each
    /// variant's derivations contribute to the per-tuple counts.
    count_heads: Vec<(RelationName, i64)>,
    /// Full derivation counts (non-recursive components) — used once, at
    /// engine construction.
    count_full: Option<CompiledProgram>,
}

/// An incrementally maintained stratified-datalog fixpoint supporting
/// first-class retraction.  See the [module docs](self) for the algorithm.
///
/// ```
/// use rtx_datalog::{parse_program, DredEngine};
/// use rtx_relational::{Instance, Schema, Tuple};
///
/// let program = parse_program(
///     "reach(X) :- source(X). reach(Y) :- reach(X), edge(X, Y).",
/// )
/// .unwrap();
/// let schema = Schema::from_pairs([("source", 1), ("edge", 2)]).unwrap();
/// let mut db = Instance::empty(&schema);
/// db.insert("source", Tuple::from_iter(["a"])).unwrap();
/// for (x, y) in [("a", "b"), ("b", "c")] {
///     db.insert("edge", Tuple::from_iter([x, y])).unwrap();
/// }
///
/// let mut engine = DredEngine::new(&program, db).unwrap();
/// assert_eq!(engine.derived().relation("reach").unwrap().len(), 3);
///
/// // Retract the only edge into `b`: b and c lose reachability.
/// let stats = engine.retract("edge", Tuple::from_iter(["a", "b"])).unwrap();
/// assert_eq!(engine.derived().relation("reach").unwrap().len(), 1);
/// assert_eq!(stats.deleted, 2);
/// ```
#[derive(Debug)]
pub struct DredEngine {
    compiled: CompiledProgram,
    components: Vec<Component>,
    idb: BTreeSet<RelationName>,
    edb: Instance,
    derived: Instance,
    /// Per-head derivation counts for counting (non-recursive) components.
    counts: FxHashMap<RelationName, FxHashMap<Tuple, i64>>,
    /// Relations whose *pre-mutation* state some recursive component reads
    /// (its reads plus its own heads).  [`DredEngine::apply`] snapshots
    /// exactly these — everything else is maintained against the
    /// post-mutation world only.
    old_needed: BTreeSet<RelationName>,
    /// Per-relation version stamps over EDB and derived relations alike,
    /// bumped at every mutation the engine performs — the same stamp idea as
    /// [`crate::ResidentDb`], powering the cross-mutation index cache.
    versions: FxHashMap<RelationName, u64>,
    /// Monotone mutation counter feeding [`DredEngine::versions`].
    counter: u64,
    /// Non-prefix hash indexes reused across mutations while their
    /// relation's stamp stands still, so a 1-tuple mutation never re-scans
    /// an untouched 100k-tuple relation just to rebuild the index a delta
    /// join probes.
    index_cache: IndexCache,
    parallelism: Parallelism,
}

/// Bumps `name`'s version stamp.  A free function over the two fields so
/// callers holding disjoint borrows of other engine fields can use it.
fn bump_version(
    versions: &mut FxHashMap<RelationName, u64>,
    counter: &mut u64,
    name: &RelationName,
) {
    *counter += 1;
    versions.insert(name.clone(), *counter);
}

/// Assembles a prepared view over the engine's current world (EDB ∪
/// derived) for one delta program: the instance is a copy-on-write merge
/// (O(#relations)), and every non-prefix index the program probes is taken
/// from `cache` when its relation's stamp has not moved, rebuilt (and
/// re-cached) otherwise.
fn world_view(
    edb: &Instance,
    derived: &Instance,
    versions: &FxHashMap<RelationName, u64>,
    counter: u64,
    cache: &mut IndexCache,
    program: &CompiledProgram,
) -> Result<ResidentView, DatalogError> {
    let mut world = edb.clone();
    for (name, rel) in derived.iter() {
        world.ensure_relation(name.clone(), rel.arity())?;
        world.absorb_relation(name.clone(), rel)?;
    }
    let mut indexes = FxHashMap::default();
    for (name, cols) in needed_indexes(program) {
        let Some(rel) = world.get(&name) else {
            continue;
        };
        let stamp = versions.get(&name).copied().unwrap_or(0);
        let key = (name, cols);
        let index = match cache.get(&key) {
            Some((built_at, index)) if *built_at == stamp => Arc::clone(index),
            _ => {
                let index = Arc::new(TupleIndex::build(key.1.clone(), rel.iter()));
                cache.insert(key.clone(), (stamp, Arc::clone(&index)));
                index
            }
        };
        indexes.insert(key, index);
    }
    Ok(ResidentView::from_parts(world, indexes, counter))
}

impl DredEngine {
    /// Builds the engine: compiles the program, runs the initial fixpoint
    /// over `database`, synthesizes every maintenance program and seeds the
    /// derivation counts of non-recursive components.
    pub fn new(program: &Program, database: Instance) -> Result<Self, DatalogError> {
        Self::with_parallelism(program, database, Parallelism::default())
    }

    /// [`DredEngine::new`] under an explicit [`Parallelism`] policy, used by
    /// every full and delta evaluation the engine runs.
    pub fn with_parallelism(
        program: &Program,
        database: Instance,
        parallelism: Parallelism,
    ) -> Result<Self, DatalogError> {
        check_program_safety(program)?;
        let compiled = CompiledProgram::compile(program)?;
        let parallelism = parallelism.resolved();
        let (derived, _) =
            compiled.evaluate(&[&database], None, parallelism, EvalBudget::UNLIMITED)?;

        let idb = program.idb_relations();
        let graph = DependencyGraph::of(program);
        let mut components = Vec::new();
        for scc in graph.sccs() {
            let heads: BTreeSet<RelationName> =
                scc.iter().filter(|r| idb.contains(*r)).cloned().collect();
            if heads.is_empty() {
                continue;
            }
            components.push(Component::build(program, &heads)?);
        }

        let mut old_needed = BTreeSet::new();
        for comp in components.iter().filter(|c| c.recursive) {
            old_needed.extend(comp.reads.iter().cloned());
            old_needed.extend(comp.heads.iter().cloned());
        }

        let mut engine = DredEngine {
            compiled,
            components,
            idb,
            edb: database,
            derived,
            counts: FxHashMap::default(),
            old_needed,
            versions: FxHashMap::default(),
            counter: 0,
            index_cache: FxHashMap::default(),
            parallelism,
        };
        engine.seed_counts()?;
        Ok(engine)
    }

    /// The current base (EDB) instance.
    pub fn database(&self) -> &Instance {
        &self.edb
    }

    /// The maintained derived (IDB) instance — always equal to what a full
    /// evaluation over [`DredEngine::database`] would produce.
    pub fn derived(&self) -> &Instance {
        &self.derived
    }

    /// The compiled form of the maintained program.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Retracts one base tuple; see [`DredEngine::apply`].
    pub fn retract(
        &mut self,
        relation: impl Into<RelationName>,
        tuple: Tuple,
    ) -> Result<DredStats, DatalogError> {
        self.apply(&MutationBatch::new().retract(relation, tuple))
    }

    /// Inserts one base tuple; see [`DredEngine::apply`].
    pub fn insert(
        &mut self,
        relation: impl Into<RelationName>,
        tuple: Tuple,
    ) -> Result<DredStats, DatalogError> {
        self.apply(&MutationBatch::new().insert(relation, tuple))
    }

    /// Applies a batch of base-relation mutations and incrementally repairs
    /// the derived fixpoint.  The whole batch is validated before anything
    /// mutates, so an error leaves the engine unchanged.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<DredStats, DatalogError> {
        // Validate up front: every op must target an existing base relation
        // with the right arity.  Derived relations are not directly mutable.
        for op in &batch.ops {
            let (name, tuple) = match op {
                Op::Insert(n, t) | Op::Retract(n, t) => (n, t),
            };
            if self.idb.contains(name) {
                return Err(DatalogError::Relational(
                    rtx_relational::RelationalError::SchemaMismatch {
                        detail: format!(
                            "cannot mutate derived relation `{name}`; retract its base facts instead"
                        ),
                    },
                ));
            }
            let rel = self.edb.relation_checked(name.clone())?;
            if rel.arity() != tuple.arity() {
                return Err(DatalogError::Relational(
                    rtx_relational::RelationalError::ArityMismatch {
                        relation: name.as_str().to_string(),
                        expected: rel.arity(),
                        actual: tuple.arity(),
                    },
                ));
            }
        }

        // Snapshot the pre-mutation state recursive components will read —
        // and nothing else.  Relation clones are copy-on-write Arc shares
        // and the snapshot is never written, so this is O(#relations)
        // regardless of cardinality.
        let old_entries: Vec<(RelationName, Relation)> = self
            .old_needed
            .iter()
            .filter_map(|name| {
                self.derived
                    .get(name)
                    .or_else(|| self.edb.get(name))
                    .map(|rel| (name.clone(), rel.clone()))
            })
            .collect();
        let old_db = guard_instance(&old_entries)?;

        // Apply the batch to the base instance, accumulating net deltas.
        let mut nets: BTreeMap<RelationName, NetDelta> = BTreeMap::new();
        for op in &batch.ops {
            match op {
                Op::Insert(name, tuple) => {
                    if self.edb.insert(name.clone(), tuple.clone())? {
                        bump_version(&mut self.versions, &mut self.counter, name);
                        let net = nets
                            .entry(name.clone())
                            .or_insert_with(|| NetDelta::new(tuple.arity()));
                        if net.del.contains(tuple) {
                            net.del.remove(tuple)?;
                        } else {
                            net.add.insert(tuple.clone())?;
                        }
                    }
                }
                Op::Retract(name, tuple) => {
                    if self.edb.remove(name.clone(), tuple)? {
                        bump_version(&mut self.versions, &mut self.counter, name);
                        let net = nets
                            .entry(name.clone())
                            .or_insert_with(|| NetDelta::new(tuple.arity()));
                        if net.add.contains(tuple) {
                            net.add.remove(tuple)?;
                        } else {
                            net.del.insert(tuple.clone())?;
                        }
                    }
                }
            }
        }

        // Maintain components in dependency order; net deltas of each
        // component's heads feed the components above it.
        let mut stats = DredStats::default();
        for ci in 0..self.components.len() {
            let touched = self.components[ci]
                .reads
                .iter()
                .any(|r| nets.get(r).is_some_and(|n| !n.is_empty()));
            if !touched {
                continue;
            }
            let comp_stats = if self.components[ci].recursive {
                self.run_dred(ci, &old_db, &mut nets)?
            } else {
                self.run_counting(ci, &mut nets)?
            };
            stats.absorb(comp_stats);
        }
        Ok(stats)
    }

    /// Classic delete-rederive for one recursive component.  `old_db` holds
    /// Arc-shared pre-mutation snapshots of everything the component reads
    /// (see [`DredEngine::old_needed`]).
    fn run_dred(
        &mut self,
        ci: usize,
        old_db: &Instance,
        nets: &mut BTreeMap<RelationName, NetDelta>,
    ) -> Result<DredStats, DatalogError> {
        let comp = &self.components[ci];
        let mut stats = DredStats::default();
        let arity_of = |h: &RelationName| old_db.get(h).map_or(0, Relation::arity);

        // Phase 1 — over-delete: close the deletion candidates against the
        // *old* database.  Round 1 is driven by the external net deltas;
        // later rounds by the candidates the previous round deleted.
        let mut deleted: BTreeMap<RelationName, Relation> = comp
            .heads
            .iter()
            .map(|h| (h.clone(), Relation::empty(arity_of(h))))
            .collect();
        let mut guard_entries = external_guard_entries(&comp.reads, nets);
        let delete = comp.delete.as_ref().expect("recursive component");
        while !guard_entries.is_empty() {
            let guards = guard_instance(&guard_entries)?;
            let (out, _) = delete.evaluate(
                &[&guards, old_db],
                None,
                self.parallelism,
                EvalBudget::UNLIMITED,
            )?;
            stats.rounds += 1;
            let mut next_round = Vec::new();
            for h in &comp.heads {
                let already = &deleted[h];
                let mut newly = Relation::empty(already.arity());
                if let Some(cand) = out.get(&cand_name(h)) {
                    for t in cand.iter() {
                        if old_db.holds(h.clone(), t) && !already.contains(t) {
                            newly.insert(t.clone())?;
                        }
                    }
                }
                if newly.is_empty() {
                    continue;
                }
                for t in newly.iter() {
                    self.derived.remove(h.clone(), t)?;
                }
                bump_version(&mut self.versions, &mut self.counter, h);
                stats.over_deleted += newly.len() as u64;
                deleted.get_mut(h).expect("head present").absorb(&newly)?;
                next_round.push((del_name(h), newly));
            }
            guard_entries = next_round;
        }

        // Phase 2 — re-derive: candidates with alternative support in the
        // *new* database come back; rederived tuples can support further
        // rederivations, so iterate to fixpoint.
        let mut remaining = deleted;
        loop {
            let entries: Vec<(RelationName, Relation)> = remaining
                .iter()
                .filter(|(_, rel)| !rel.is_empty())
                .map(|(h, rel)| (cand_name(h), rel.clone()))
                .collect();
            if entries.is_empty() {
                break;
            }
            let guards = guard_instance(&entries)?;
            let rederive = comp.rederive.as_ref().expect("recursive component");
            let (out, _) = rederive.evaluate(
                &[&guards, &self.edb, &self.derived],
                None,
                self.parallelism,
                EvalBudget::UNLIMITED,
            )?;
            stats.rounds += 1;
            let mut changed = false;
            for h in &comp.heads {
                let Some(redone) = out.get(&redo_name(h)) else {
                    continue;
                };
                let still = remaining.get_mut(h).expect("head present");
                let back: Vec<Tuple> = redone
                    .iter()
                    .filter(|t| still.contains(t))
                    .cloned()
                    .collect();
                if !back.is_empty() {
                    bump_version(&mut self.versions, &mut self.counter, h);
                }
                for t in back {
                    self.derived.insert(h.clone(), t.clone())?;
                    still.remove(&t)?;
                    stats.rederived += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 3 — insert: propagate external additions (and deletions
        // under negation) semi-naively against the new database.
        let mut added: BTreeMap<RelationName, Relation> = comp
            .heads
            .iter()
            .map(|h| (h.clone(), Relation::empty(arity_of(h))))
            .collect();
        let mut guard_entries = external_guard_entries(&comp.reads, nets);
        let insert = comp.insert.as_ref().expect("recursive component");
        while !guard_entries.is_empty() {
            let guards = guard_instance(&guard_entries)?;
            // Each round reads the current world through a prepared view, so
            // non-prefix joins probe cached indexes; only relations whose
            // stamps moved since the last round are re-indexed.
            let view = world_view(
                &self.edb,
                &self.derived,
                &self.versions,
                self.counter,
                &mut self.index_cache,
                insert,
            )?;
            let (out, _) = insert.evaluate(
                &[&guards],
                Some(&view),
                self.parallelism,
                EvalBudget::UNLIMITED,
            )?;
            // Drop the view's Arc shares before mutating `derived` below, so
            // insertions stay in-place instead of copying the relation.
            drop(view);
            stats.rounds += 1;
            let mut next_round = Vec::new();
            for h in &comp.heads {
                let mut newly = Relation::empty(arity_of(h));
                if let Some(ins) = out.get(&ins_name(h)) {
                    for t in ins.iter() {
                        if !self.derived.holds(h.clone(), t) {
                            newly.insert(t.clone())?;
                        }
                    }
                }
                if newly.is_empty() {
                    continue;
                }
                for t in newly.iter() {
                    self.derived.insert(h.clone(), t.clone())?;
                }
                bump_version(&mut self.versions, &mut self.counter, h);
                added.get_mut(h).expect("head present").absorb(&newly)?;
                next_round.push((add_name(h), newly));
            }
            guard_entries = next_round;
        }

        // Net deltas of this component's heads, for the components above.
        let comp_heads: Vec<RelationName> = comp.heads.iter().cloned().collect();
        for h in comp_heads {
            let mut net = NetDelta::new(arity_of(&h));
            for t in remaining[&h].iter() {
                if !self.derived.holds(h.clone(), t) {
                    net.del.insert(t.clone())?;
                }
            }
            for t in added[&h].iter() {
                if !old_db.holds(h.clone(), t) {
                    net.add.insert(t.clone())?;
                }
            }
            stats.deleted += net.del.len() as u64;
            stats.inserted += net.add.len() as u64;
            if !net.is_empty() {
                nets.insert(h, net);
            }
        }
        Ok(stats)
    }

    /// Support-counting maintenance for one non-recursive component: one
    /// delta-program pass adjusts per-tuple derivation counts; tuples
    /// crossing zero are deleted or inserted.  No rederivation needed.
    fn run_counting(
        &mut self,
        ci: usize,
        nets: &mut BTreeMap<RelationName, NetDelta>,
    ) -> Result<DredStats, DatalogError> {
        let comp = &self.components[ci];
        let mut stats = DredStats::default();
        let head = comp
            .heads
            .iter()
            .next()
            .expect("non-recursive component has exactly one head")
            .clone();

        // Guards: only the external net deltas — the signed delta expansion
        // reads everything else from the post-mutation world, so no old-side
        // copy of anything is ever materialised.
        let entries = external_guard_entries(&comp.reads, nets);
        let guards = guard_instance(&entries)?;
        let count_delta = comp.count_delta.as_ref().expect("counting component");
        // The single telescoped pass reads the post-mutation world through a
        // prepared view: new-side atoms probing a non-prefix key of a large,
        // untouched relation hit the cross-mutation index cache instead of
        // re-scanning the relation to build a throwaway index.
        let view = world_view(
            &self.edb,
            &self.derived,
            &self.versions,
            self.counter,
            &mut self.index_cache,
            count_delta,
        )?;
        let (out, _) = count_delta.evaluate(
            &[&guards],
            Some(&view),
            self.parallelism,
            EvalBudget::UNLIMITED,
        )?;
        // Release the view's Arc shares before mutating `derived`, or the
        // first removed tuple would pay a copy-on-write deep copy of its
        // whole relation.
        drop(view);
        stats.rounds += 1;

        // Fold the signed derivation deltas into the per-tuple counts: each
        // variant head contributes its registry sign per extended tuple.
        let head_arity = self.derived.get(&head).map_or(0, Relation::arity);
        let mut delta: BTreeMap<Tuple, i64> = BTreeMap::new();
        for (name, sign) in &comp.count_heads {
            if let Some(rows) = out.get(name) {
                for ext in rows.iter() {
                    let t = Tuple::from_slice(&ext.values()[..head_arity]);
                    *delta.entry(t).or_insert(0) += sign;
                }
            }
        }

        let counts = self.counts.entry(head.clone()).or_default();
        let mut net = NetDelta::new(head_arity);
        for (tuple, d) in delta {
            if d == 0 {
                continue;
            }
            let old = counts.get(&tuple).copied().unwrap_or(0);
            let new = old + d;
            debug_assert!(new >= 0, "derivation count of {tuple} went negative");
            let new = new.max(0);
            if new == 0 {
                counts.remove(&tuple);
            } else {
                counts.insert(tuple.clone(), new);
            }
            if old > 0 && new == 0 {
                self.derived.remove(head.clone(), &tuple)?;
                net.del.insert(tuple)?;
            } else if old == 0 && new > 0 {
                self.derived.insert(head.clone(), tuple.clone())?;
                net.add.insert(tuple)?;
            }
        }
        stats.deleted += net.del.len() as u64;
        stats.inserted += net.add.len() as u64;
        if !net.is_empty() {
            bump_version(&mut self.versions, &mut self.counter, &head);
            nets.insert(head, net);
        }
        Ok(stats)
    }

    /// Seeds the derivation counts of every counting component by running
    /// its full-count program once over the initial database.
    fn seed_counts(&mut self) -> Result<(), DatalogError> {
        for comp in &self.components {
            let Some(count_full) = comp.count_full.as_ref() else {
                continue;
            };
            let head = comp
                .heads
                .iter()
                .next()
                .expect("counting component has one head")
                .clone();
            let head_arity = self.derived.get(&head).map_or(0, Relation::arity);
            let (out, _) = count_full.evaluate(
                &[&self.edb, &self.derived],
                None,
                self.parallelism,
                EvalBudget::UNLIMITED,
            )?;
            let counts = self.counts.entry(head.clone()).or_default();
            for ri in 0..comp.rules.len() {
                if let Some(derivations) = out.get(&cnt_name(&head, ri)) {
                    for ext in derivations.iter() {
                        let t = Tuple::from_slice(&ext.values()[..head_arity]);
                        *counts.entry(t).or_insert(0) += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Guard entries for the external net deltas a component reads.
fn external_guard_entries(
    reads: &BTreeSet<RelationName>,
    nets: &BTreeMap<RelationName, NetDelta>,
) -> Vec<(RelationName, Relation)> {
    let mut entries = Vec::new();
    for r in reads {
        let Some(net) = nets.get(r) else { continue };
        if !net.del.is_empty() {
            entries.push((del_name(r), net.del.clone()));
        }
        if !net.add.is_empty() {
            entries.push((add_name(r), net.add.clone()));
        }
    }
    entries
}

/// Materialises guard relations as an instance the evaluator can read as an
/// extra source.  Relations are copy-on-write shared, so this is
/// O(#guards).
fn guard_instance(entries: &[(RelationName, Relation)]) -> Result<Instance, DatalogError> {
    let schema = Schema::from_pairs(entries.iter().map(|(n, r)| (n.clone(), r.arity())))?;
    let mut inst = Instance::empty(&schema);
    for (name, rel) in entries {
        inst.absorb_relation(name.clone(), rel)?;
    }
    Ok(inst)
}

impl Component {
    fn build(program: &Program, heads: &BTreeSet<RelationName>) -> Result<Self, DatalogError> {
        let mut rules: Vec<Rule> = Vec::new();
        for rule in program.rules() {
            if heads.contains(&rule.head.relation) {
                rules.push(rule.clone());
            }
        }
        let mut reads = BTreeSet::new();
        for rule in &rules {
            reads.extend(rule.body_relations());
        }
        let recursive = reads.iter().any(|r| heads.contains(r));

        let mut seeds = BTreeSet::new();
        for r in &reads {
            seeds.insert(del_name(r));
            seeds.insert(add_name(r));
        }
        for h in heads {
            seeds.insert(cand_name(h));
        }

        let component = if recursive {
            let delete = compile_delta(dred_delete_program(&rules), &seeds)?;
            let rederive = compile_delta(dred_rederive_program(&rules), &seeds)?;
            let insert = compile_delta(dred_insert_program(&rules), &seeds)?;
            Component {
                heads: heads.clone(),
                reads,
                recursive,
                rules,
                delete: Some(delete),
                rederive: Some(rederive),
                insert: Some(insert),
                count_delta: None,
                count_heads: Vec::new(),
                count_full: None,
            }
        } else {
            let (delta_program, count_heads) = counting_delta_program(&rules);
            let count_delta = compile_delta(delta_program, &seeds)?;
            let count_full = compile_delta(counting_full_program(&rules), &seeds)?;
            Component {
                heads: heads.clone(),
                reads,
                recursive,
                rules,
                delete: None,
                rederive: None,
                insert: None,
                count_delta: Some(count_delta),
                count_heads,
                count_full: Some(count_full),
            }
        };
        Ok(component)
    }
}

/// Compiles a synthesized delta program with guard atoms leading every join.
fn compile_delta(
    program: Program,
    seeds: &BTreeSet<RelationName>,
) -> Result<CompiledProgram, DatalogError> {
    CompiledProgram::compile_seeded(&program, seeds)
}

/// The positive atoms of a rule body, in written order.
fn positives(rule: &Rule) -> Vec<&Atom> {
    rule.body
        .iter()
        .filter_map(|l| match l {
            BodyLiteral::Positive(a) => Some(a),
            _ => None,
        })
        .collect()
}

/// The negated atoms of a rule body, in written order.
fn negations(rule: &Rule) -> Vec<&Atom> {
    rule.body
        .iter()
        .filter_map(|l| match l {
            BodyLiteral::Negative(a) => Some(a),
            _ => None,
        })
        .collect()
}

/// The disequality literals of a rule body.
fn disequalities(rule: &Rule) -> Vec<BodyLiteral> {
    rule.body
        .iter()
        .filter(|l| matches!(l, BodyLiteral::NotEqual(..)))
        .cloned()
        .collect()
}

/// Over-deletion candidate program: for every rule and every body literal
/// that can change, the rule with that literal swapped for a delta guard,
/// every other literal reading the old database.  A derivation is a
/// deletion candidate as soon as *one* of its supports was deleted (or one
/// of its negated atoms gained the blocking tuple).
fn dred_delete_program(rules: &[Rule]) -> Program {
    let mut out = Vec::new();
    for rule in rules {
        let pos = positives(rule);
        let negs = negations(rule);
        let diseqs = disequalities(rule);
        let head = Atom::new(cand_name(&rule.head.relation), rule.head.args.clone());
        for j in 0..pos.len() {
            let mut body = Vec::new();
            for (i, atom) in pos.iter().enumerate() {
                if i == j {
                    body.push(BodyLiteral::Positive(Atom::new(
                        del_name(&atom.relation),
                        atom.args.clone(),
                    )));
                } else {
                    body.push(BodyLiteral::Positive((*atom).clone()));
                }
            }
            for neg in &negs {
                body.push(BodyLiteral::Negative((*neg).clone()));
            }
            body.extend(diseqs.iter().cloned());
            out.push(Rule::new(head.clone(), body));
        }
        for k in 0..negs.len() {
            // The negated relation gained a tuple: derivations blocked by
            // the new tuple die.  The guard binds the negation's arguments
            // to the added tuples; the original body (over the old
            // database) reproduces the dying derivations.
            let mut body: Vec<BodyLiteral> = pos
                .iter()
                .map(|a| BodyLiteral::Positive((*a).clone()))
                .collect();
            body.push(BodyLiteral::Positive(Atom::new(
                add_name(&negs[k].relation),
                negs[k].args.clone(),
            )));
            for neg in &negs {
                body.push(BodyLiteral::Negative((*neg).clone()));
            }
            body.extend(diseqs.iter().cloned());
            out.push(Rule::new(head.clone(), body));
        }
    }
    Program::new(out)
}

/// Rederivation program: each original rule restricted to the over-deleted
/// candidates of its head, evaluated against the new database.  A candidate
/// with any surviving derivation comes back.
fn dred_rederive_program(rules: &[Rule]) -> Program {
    let mut out = Vec::new();
    for rule in rules {
        let head = Atom::new(redo_name(&rule.head.relation), rule.head.args.clone());
        let mut body = vec![BodyLiteral::Positive(Atom::new(
            cand_name(&rule.head.relation),
            rule.head.args.clone(),
        ))];
        body.extend(rule.body.iter().cloned());
        out.push(Rule::new(head, body));
    }
    Program::new(out)
}

/// Insertion-delta program: for every rule and every body literal that can
/// change, the rule with that literal swapped for the dual guard (additions
/// at positive literals, deletions at negated ones), everything else
/// reading the new database.
fn dred_insert_program(rules: &[Rule]) -> Program {
    let mut out = Vec::new();
    for rule in rules {
        let pos = positives(rule);
        let negs = negations(rule);
        let diseqs = disequalities(rule);
        let head = Atom::new(ins_name(&rule.head.relation), rule.head.args.clone());
        for j in 0..pos.len() {
            let mut body = Vec::new();
            for (i, atom) in pos.iter().enumerate() {
                if i == j {
                    body.push(BodyLiteral::Positive(Atom::new(
                        add_name(&atom.relation),
                        atom.args.clone(),
                    )));
                } else {
                    body.push(BodyLiteral::Positive((*atom).clone()));
                }
            }
            for neg in &negs {
                body.push(BodyLiteral::Negative((*neg).clone()));
            }
            body.extend(diseqs.iter().cloned());
            out.push(Rule::new(head.clone(), body));
        }
        for k in 0..negs.len() {
            // The negated relation lost a tuple: derivations it was
            // blocking become live.
            let mut body: Vec<BodyLiteral> = pos
                .iter()
                .map(|a| BodyLiteral::Positive((*a).clone()))
                .collect();
            body.push(BodyLiteral::Positive(Atom::new(
                del_name(&negs[k].relation),
                negs[k].args.clone(),
            )));
            for neg in &negs {
                body.push(BodyLiteral::Negative((*neg).clone()));
            }
            body.extend(diseqs.iter().cloned());
            out.push(Rule::new(head.clone(), body));
        }
    }
    Program::new(out)
}

/// The extended head of a counting rule: the original head arguments
/// followed by every rule variable (sorted), so distinct derivations —
/// distinct variable bindings — materialise as distinct tuples and the
/// evaluator's set semantics still exposes exact derivation counts.
fn extended_head(name: RelationName, rule: &Rule) -> Atom {
    let mut args = rule.head.args.clone();
    for var in rule.variables() {
        args.push(Term::var(var));
    }
    Atom::new(name, args)
}

/// Full-count program (used once, at engine construction): one rule per
/// source rule materialising every derivation as an extended-head tuple.
fn counting_full_program(rules: &[Rule]) -> Program {
    let out = rules
        .iter()
        .enumerate()
        .map(|(ri, rule)| {
            Rule::new(
                extended_head(cnt_name(&rule.head.relation, ri), rule),
                rule.body.clone(),
            )
        })
        .collect::<Vec<_>>();
    Program::new(out)
}

/// Signed count-delta program (non-recursive components), with its head
/// registry: `(variant head, ±1)` pairs the fold loop sums.
///
/// The body literals are ordered positives then negations; the count delta
/// telescopes over that order: the term for literal position `g` reads
/// literals before `g` from the **new** database, swaps literal `g` for a
/// signed delta guard (`add − del` for a positive literal, `del − add` for
/// a negated one), and would read literals after `g` from the *old*
/// database.  Materialising old copies would force a copy-on-write deep
/// copy of every mutated relation per batch, so instead each old-side
/// factor is expanded through the pointwise identities
///
/// ```text
///   old(R)  =  R − add(R) + del(R)          ¬old(C)  =  ¬C − del(C) + add(C)
/// ```
///
/// into signed variant rules over the new database and the (tiny) delta
/// guards only.  Variants are not disjoint (`add ⊆ new`), which is exactly
/// what the negative signs cancel; each variant gets its own head relation
/// so set semantics never merges differently-signed contributions.  The
/// expansion is exponential in old-side literals per term (3 choices each),
/// which is fine for the short rule bodies stratified transducer programs
/// use — and it is paid once, at engine construction.
fn counting_delta_program(rules: &[Rule]) -> (Program, Vec<(RelationName, i64)>) {
    let mut out = Vec::new();
    let mut registry = Vec::new();
    for (ri, rule) in rules.iter().enumerate() {
        let pos = positives(rule);
        let negs = negations(rule);
        let diseqs = disequalities(rule);
        // Telescope order: positives as written, then negations.
        let literals: Vec<(bool, &Atom)> = pos
            .iter()
            .map(|a| (true, *a))
            .chain(negs.iter().map(|a| (false, *a)))
            .collect();
        let mut seq = 0usize;
        for g in 0..literals.len() {
            let (guard_positive, guard_atom) = literals[g];
            // `new − old` of the guard literal: `add − del` for a positive
            // literal, `del − add` for a negated one.
            let guard_variants = if guard_positive {
                [
                    (del_name(&guard_atom.relation), -1i64),
                    (add_name(&guard_atom.relation), 1),
                ]
            } else {
                [
                    (add_name(&guard_atom.relation), -1),
                    (del_name(&guard_atom.relation), 1),
                ]
            };
            let suffix = &literals[g + 1..];
            let combos = 3usize.pow(suffix.len() as u32);
            for (guard_rel, base_sign) in &guard_variants {
                for code in 0..combos {
                    let mut body: Vec<BodyLiteral> = Vec::new();
                    for &(is_pos, atom) in &literals[..g] {
                        body.push(if is_pos {
                            BodyLiteral::Positive(atom.clone())
                        } else {
                            BodyLiteral::Negative(atom.clone())
                        });
                    }
                    body.push(BodyLiteral::Positive(Atom::new(
                        guard_rel.clone(),
                        guard_atom.args.clone(),
                    )));
                    let mut sign = *base_sign;
                    let mut c = code;
                    for &(is_pos, atom) in suffix {
                        let choice = c % 3;
                        c /= 3;
                        let (literal, factor_sign) = match (is_pos, choice) {
                            (true, 0) => (BodyLiteral::Positive(atom.clone()), 1),
                            (true, 1) => (
                                BodyLiteral::Positive(Atom::new(
                                    del_name(&atom.relation),
                                    atom.args.clone(),
                                )),
                                1,
                            ),
                            (true, _) => (
                                BodyLiteral::Positive(Atom::new(
                                    add_name(&atom.relation),
                                    atom.args.clone(),
                                )),
                                -1,
                            ),
                            (false, 0) => (BodyLiteral::Negative(atom.clone()), 1),
                            (false, 1) => (
                                BodyLiteral::Positive(Atom::new(
                                    del_name(&atom.relation),
                                    atom.args.clone(),
                                )),
                                -1,
                            ),
                            (false, _) => (
                                BodyLiteral::Positive(Atom::new(
                                    add_name(&atom.relation),
                                    atom.args.clone(),
                                )),
                                1,
                            ),
                        };
                        sign *= factor_sign;
                        body.push(literal);
                    }
                    body.extend(diseqs.iter().cloned());
                    let name = cnt_delta_name(&rule.head.relation, ri, seq);
                    seq += 1;
                    registry.push((name.clone(), sign));
                    out.push(Rule::new(extended_head(name, rule), body));
                }
            }
        }
    }
    (Program::new(out), registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn t1(a: &str) -> Tuple {
        Tuple::from_iter([a])
    }

    fn t2(a: &str, b: &str) -> Tuple {
        Tuple::from_iter([a, b])
    }

    /// The maintained instance must be bit-identical to a from-scratch
    /// evaluation over the engine's current base instance.
    fn assert_matches_rebuild(engine: &DredEngine) {
        let (rebuilt, _) = engine
            .compiled()
            .evaluate(
                &[engine.database()],
                None,
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .expect("rebuild evaluates");
        assert_eq!(
            engine.derived(),
            &rebuilt,
            "maintained instance drifted from rebuild-from-scratch"
        );
    }

    fn catalog_db() -> Instance {
        let schema = Schema::from_pairs([("product", 1), ("price", 2), ("delisted", 1)]).unwrap();
        let mut db = Instance::empty(&schema);
        for p in ["widget", "gadget", "bolt"] {
            db.insert("product", t1(p)).unwrap();
        }
        db.insert("price", t2("widget", "10")).unwrap();
        db.insert("price", t2("widget", "12")).unwrap();
        db.insert("price", t2("gadget", "7")).unwrap();
        db.insert("delisted", t1("bolt")).unwrap();
        db
    }

    fn catalog_program() -> Program {
        parse_program(
            "sellable(X) :- product(X), price(X, Y), NOT delisted(X).\n\
             offered(X, Y) :- sellable(X), price(X, Y).",
        )
        .unwrap()
    }

    #[test]
    fn counting_retract_with_alternative_support_keeps_the_tuple() {
        let mut engine = DredEngine::new(&catalog_program(), catalog_db()).unwrap();
        assert!(engine.derived().holds("sellable", &t1("widget")));

        // widget has two price rows: dropping one keeps it sellable.
        let stats = engine.retract("price", t2("widget", "10")).unwrap();
        assert!(engine.derived().holds("sellable", &t1("widget")));
        assert!(!engine.derived().holds("offered", &t2("widget", "10")));
        assert_eq!(stats.deleted, 1); // only offered(widget, 10)
        assert_matches_rebuild(&engine);

        // Dropping the last price row delists it from sellable too.
        engine.retract("price", t2("widget", "12")).unwrap();
        assert!(!engine.derived().holds("sellable", &t1("widget")));
        assert_matches_rebuild(&engine);
    }

    #[test]
    fn counting_handles_negation_deltas_both_ways() {
        let mut engine = DredEngine::new(&catalog_program(), catalog_db()).unwrap();
        assert!(!engine.derived().holds("sellable", &t1("bolt")));

        // bolt has no price; give it one, then un-delist it.
        engine.insert("price", t2("bolt", "3")).unwrap();
        assert!(!engine.derived().holds("sellable", &t1("bolt")));
        let stats = engine.retract("delisted", t1("bolt")).unwrap();
        assert!(engine.derived().holds("sellable", &t1("bolt")));
        assert!(engine.derived().holds("offered", &t2("bolt", "3")));
        assert_eq!(stats.inserted, 2);
        assert_matches_rebuild(&engine);

        // Re-delisting takes both derived tuples back out.
        let stats = engine.insert("delisted", t1("bolt")).unwrap();
        assert_eq!(stats.deleted, 2);
        assert_matches_rebuild(&engine);
    }

    fn reach_db(edges: &[(&str, &str)], sources: &[&str]) -> Instance {
        let schema = Schema::from_pairs([("source", 1), ("edge", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        for s in sources {
            db.insert("source", t1(s)).unwrap();
        }
        for (x, y) in edges {
            db.insert("edge", t2(x, y)).unwrap();
        }
        db
    }

    fn reach_program() -> Program {
        parse_program("reach(X) :- source(X). reach(Y) :- reach(X), edge(X, Y).").unwrap()
    }

    #[test]
    fn recursive_retraction_rederives_alternative_paths() {
        // a → b → c plus a second route a → d → c: cutting a→b removes b
        // but c survives through d.
        let db = reach_db(&[("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")], &["a"]);
        let mut engine = DredEngine::new(&reach_program(), db).unwrap();
        assert_eq!(engine.derived().relation("reach").unwrap().len(), 4);

        let stats = engine.retract("edge", t2("a", "b")).unwrap();
        assert!(!engine.derived().holds("reach", &t1("b")));
        assert!(engine.derived().holds("reach", &t1("c")));
        // b and c are over-deleted; c is rederived through d.
        assert!(stats.over_deleted >= 2);
        assert_eq!(stats.rederived, 1);
        assert_eq!(stats.deleted, 1);
        assert_matches_rebuild(&engine);
    }

    #[test]
    fn recursive_cycle_with_no_external_support_dies_entirely() {
        // A cycle b ⇄ c reachable only through a → b: DRed's rederivation
        // must not resurrect the cycle from its own deleted tuples.
        let db = reach_db(&[("a", "b"), ("b", "c"), ("c", "b")], &["a"]);
        let mut engine = DredEngine::new(&reach_program(), db).unwrap();
        assert_eq!(engine.derived().relation("reach").unwrap().len(), 3);

        engine.retract("edge", t2("a", "b")).unwrap();
        assert_eq!(engine.derived().relation("reach").unwrap().len(), 1);
        assert_matches_rebuild(&engine);
    }

    #[test]
    fn recursive_insertions_propagate_semi_naively() {
        let db = reach_db(&[("b", "c"), ("c", "d")], &["a"]);
        let mut engine = DredEngine::new(&reach_program(), db).unwrap();
        assert_eq!(engine.derived().relation("reach").unwrap().len(), 1);

        // Connecting a → b brings the whole chain in.
        let stats = engine.insert("edge", t2("a", "b")).unwrap();
        assert_eq!(engine.derived().relation("reach").unwrap().len(), 4);
        assert_eq!(stats.inserted, 3);
        assert_matches_rebuild(&engine);
    }

    #[test]
    fn batch_cancels_and_is_atomic() {
        let mut engine = DredEngine::new(&catalog_program(), catalog_db()).unwrap();
        let before = engine.derived().clone();

        // Insert+retract of the same tuple nets to nothing.
        let batch = MutationBatch::new()
            .insert("price", t2("bolt", "3"))
            .retract("price", t2("bolt", "3"));
        let stats = engine.apply(&batch).unwrap();
        assert_eq!(stats, DredStats::default());
        assert_eq!(engine.derived(), &before);

        // A bad op anywhere in the batch leaves the engine untouched.
        let batch = MutationBatch::new()
            .retract("price", t2("widget", "10"))
            .insert("no-such-relation", t1("x"));
        assert!(engine.apply(&batch).is_err());
        assert_eq!(engine.derived(), &before);
        assert!(engine.database().holds("price", &t2("widget", "10")));
    }

    #[test]
    fn derived_relations_cannot_be_mutated_directly() {
        let mut engine = DredEngine::new(&catalog_program(), catalog_db()).unwrap();
        let err = engine.retract("sellable", t1("widget")).unwrap_err();
        assert!(err.to_string().contains("derived"));
        let err = engine
            .insert("price", Tuple::from_iter(["too", "many", "cols"]))
            .unwrap_err();
        assert!(matches!(
            err,
            DatalogError::Relational(rtx_relational::RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn untouched_components_are_skipped() {
        // Two independent derived families; mutating one's base relations
        // must not evaluate the other (stats.rounds stays small).
        let program = parse_program(
            "left(X) :- a(X).\n\
             right(X) :- b(X).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("a", 1), ("b", 1)]).unwrap();
        let mut db = Instance::empty(&schema);
        db.insert("a", t1("x")).unwrap();
        db.insert("b", t1("y")).unwrap();
        let mut engine = DredEngine::new(&program, db).unwrap();

        let stats = engine.retract("a", t1("x")).unwrap();
        assert_eq!(stats.rounds, 1, "only the `left` component may run");
        assert!(engine.derived().relation("left").unwrap().is_empty());
        assert!(engine.derived().holds("right", &t1("y")));
        assert_matches_rebuild(&engine);
    }

    #[test]
    fn retracting_an_absent_tuple_is_a_no_op() {
        let mut engine = DredEngine::new(&catalog_program(), catalog_db()).unwrap();
        let before = engine.derived().clone();
        let stats = engine.retract("price", t2("nobody", "9")).unwrap();
        assert_eq!(stats, DredStats::default());
        assert_eq!(engine.derived(), &before);
    }

    #[test]
    fn mixed_recursive_and_counting_strata_compose() {
        // A recursive reachability core feeding a counting stratum with
        // negation above it.
        let program = parse_program(
            "reach(X) :- source(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             unreachable(X) :- node(X), NOT reach(X).",
        )
        .unwrap();
        let schema = Schema::from_pairs([("source", 1), ("edge", 2), ("node", 1)]).unwrap();
        let mut db = Instance::empty(&schema);
        db.insert("source", t1("a")).unwrap();
        for n in ["a", "b", "c"] {
            db.insert("node", t1(n)).unwrap();
        }
        db.insert("edge", t2("a", "b")).unwrap();
        let mut engine = DredEngine::new(&program, db).unwrap();
        assert!(engine.derived().holds("unreachable", &t1("c")));
        assert!(!engine.derived().holds("unreachable", &t1("b")));

        // Cutting a→b flips b to unreachable through the negation.
        engine.retract("edge", t2("a", "b")).unwrap();
        assert!(engine.derived().holds("unreachable", &t1("b")));
        assert_matches_rebuild(&engine);

        // And adding b→c after reconnecting brings both back.
        let batch = MutationBatch::new()
            .insert("edge", t2("a", "b"))
            .insert("edge", t2("b", "c"));
        engine.apply(&batch).unwrap();
        assert!(engine.derived().relation("unreachable").unwrap().is_empty());
        assert_matches_rebuild(&engine);
    }

    #[test]
    fn parallel_maintenance_is_bit_identical_to_sequential() {
        let program = catalog_program();
        let mutations = [
            (false, "price", t2("widget", "10")),
            (true, "price", t2("bolt", "3")),
            (false, "delisted", t1("bolt")),
            (false, "product", t1("gadget")),
        ];
        let mut reference: Option<Instance> = None;
        for threads in [1usize, 2, 8] {
            let policy = Parallelism::threads(threads).with_threshold(0);
            let mut engine = DredEngine::with_parallelism(&program, catalog_db(), policy).unwrap();
            for (is_insert, rel, tuple) in mutations.iter().cloned() {
                if is_insert {
                    engine.insert(rel, tuple).unwrap();
                } else {
                    engine.retract(rel, tuple).unwrap();
                }
            }
            assert_matches_rebuild(&engine);
            match &reference {
                None => reference = Some(engine.derived().clone()),
                Some(expected) => assert_eq!(engine.derived(), expected),
            }
        }
    }

    #[test]
    fn disequalities_survive_delta_synthesis() {
        let program = parse_program("conflict(X, Y) :- claim(X, Z), claim(Y, Z), X <> Y.").unwrap();
        let schema = Schema::from_pairs([("claim", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        db.insert("claim", t2("alice", "plot1")).unwrap();
        db.insert("claim", t2("bob", "plot1")).unwrap();
        let mut engine = DredEngine::new(&program, db).unwrap();
        assert_eq!(engine.derived().relation("conflict").unwrap().len(), 2);

        engine.retract("claim", t2("bob", "plot1")).unwrap();
        assert!(engine.derived().relation("conflict").unwrap().is_empty());
        assert_matches_rebuild(&engine);

        engine.insert("claim", t2("carol", "plot1")).unwrap();
        assert_eq!(engine.derived().relation("conflict").unwrap().len(), 2);
        assert_matches_rebuild(&engine);
    }
}
