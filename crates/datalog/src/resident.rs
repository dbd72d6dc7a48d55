//! An owned, version-stamped resident database shared across evaluations.
//!
//! [`CompiledProgram::prepare`](crate::CompiledProgram::prepare) used to hand
//! back a `PreparedDb<'a>` borrowing the caller's [`Instance`]: good for one
//! run, useless for a resident service where many concurrent sessions step
//! against one shared catalog that occasionally changes.  [`ResidentDb`] is
//! the owned replacement:
//!
//! * **Owned, copy-on-write tuple sets** — relations are `Arc`-shared
//!   [`Relation`]s, so constructing a resident database from an
//!   [`Instance`] and snapshotting it back out are O(#relations), never
//!   O(#tuples).
//! * **Version stamps** — a monotone counter stamps every relation at its
//!   last mutation.  Hash indexes are cached per `(relation, key columns)`
//!   pair together with the stamp they were built at and are invalidated
//!   *per relation*: inserting into `price` never discards the `category`
//!   index.  (The interned [`SymbolTable`](rtx_relational::SymbolTable) is
//!   the invalidation-free half: symbol ids never change, so only tuple sets
//!   need versioning.)
//! * **Thread-shareable** — all state sits behind one `RwLock`; evaluations
//!   take a cheap consistent [`ResidentView`] snapshot and never hold the
//!   lock while joining, so concurrent sessions on different threads share
//!   one catalog and its indexes.  The same property feeds the data-parallel
//!   evaluator ([`crate::pool`]): a view's `Arc`-shared indexes are probed
//!   lock-free by every worker of an evaluation, including a *recursive*
//!   fixpoint probing a non-prefix column — the resident index is built once
//!   at preparation and reused by every round (pinned by the
//!   `parallel_strata` integration tests; only per-round delta/old indexes
//!   live in the per-evaluation cache).
//!
//! The lifecycle is: build once ([`ResidentDb::new`] or
//! [`CompiledProgram::prepare`](crate::CompiledProgram::prepare)), evaluate
//! many times ([`ResidentDb::view_for`], then
//! [`CompiledProgram::evaluate`](crate::CompiledProgram::evaluate) over the view),
//! mutate whenever ([`ResidentDb::insert`], [`ResidentDb::ensure_relation`])
//! — the next view rebuilds exactly the indexes whose relations changed.

use crate::compile::CompiledProgram;
use rtx_relational::{
    FxHashMap, Instance, Relation, RelationName, RelationalError, Schema, Tuple, TupleIndex,
};
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};

/// A cached index together with the relation version it was built at.
#[derive(Debug, Clone)]
struct IndexEntry {
    built_at: u64,
    index: Arc<TupleIndex>,
}

#[derive(Debug)]
struct ResidentInner {
    instance: Instance,
    /// Per-relation version stamp: the value of `counter` at the relation's
    /// last mutation (0 for untouched relations).
    versions: FxHashMap<RelationName, u64>,
    /// Monotone mutation counter over the whole database.
    counter: u64,
    indexes: FxHashMap<(RelationName, Vec<usize>), IndexEntry>,
    /// Total number of index builds ever performed — the instrumentation
    /// hook the amortization tests pin and the ledger reports as
    /// `datalog.index_builds_per_mutation`.
    index_builds: u64,
}

/// An owned, version-stamped database resident across runs and sessions.
///
/// See the [module docs](self) for the lifecycle.  All methods take `&self`;
/// the database is designed to be wrapped in an `Arc` and shared between
/// threads.
#[derive(Debug)]
pub struct ResidentDb {
    inner: RwLock<ResidentInner>,
}

impl ResidentDb {
    /// Makes an instance resident.  The instance's relations are shared
    /// copy-on-write, so this is O(#relations).
    pub fn new(instance: Instance) -> Self {
        ResidentDb {
            inner: RwLock::new(ResidentInner {
                instance,
                versions: FxHashMap::default(),
                counter: 0,
                indexes: FxHashMap::default(),
                index_builds: 0,
            }),
        }
    }

    // Poison recovery: every mutation section leaves the inner maps valid
    // (copy-on-write relation swaps, monotone version stamps), so a panic in
    // one thread — e.g. a quarantined session — must not wedge the shared
    // catalog for every other session.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, ResidentInner> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, ResidentInner> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The database-wide mutation counter.  Any mutation increments it, so
    /// callers that cached derived results can detect staleness with one
    /// load.
    pub fn version(&self) -> u64 {
        self.read().counter
    }

    /// The version stamp of one relation (0 if never mutated or absent).
    pub fn version_of(&self, name: &RelationName) -> u64 {
        self.read().versions.get(name).copied().unwrap_or(0)
    }

    /// A consistent snapshot of the resident instance (O(#relations)).
    pub fn snapshot(&self) -> Instance {
        self.read().instance.clone()
    }

    /// The schema of the resident instance.
    pub fn schema(&self) -> Schema {
        self.read().instance.schema()
    }

    /// Inserts a tuple, bumping the relation's version stamp if it was new.
    pub fn insert(
        &self,
        name: impl Into<RelationName>,
        tuple: Tuple,
    ) -> Result<bool, RelationalError> {
        let name = name.into();
        let mut inner = self.write();
        let new = inner.instance.insert(name.clone(), tuple)?;
        if new {
            inner.counter += 1;
            let stamp = inner.counter;
            inner.versions.insert(name, stamp);
        }
        Ok(new)
    }

    /// Retracts a tuple, bumping the relation's version stamp if it was
    /// present — the deletion dual of [`ResidentDb::insert`].  The bumped
    /// stamp flows through the same machinery inserts use: the next
    /// [`ResidentDb::view_for`] rebuilds exactly the retracted relation's
    /// indexes, and [`ResidentDb::view_is_current`] /
    /// [`ResidentDb::stale_relations`] report the relation as changed to any
    /// session holding a view over it.
    pub fn retract(
        &self,
        name: impl Into<RelationName>,
        tuple: &Tuple,
    ) -> Result<bool, RelationalError> {
        let name = name.into();
        let mut inner = self.write();
        let removed = inner.instance.remove(name.clone(), tuple)?;
        if removed {
            inner.counter += 1;
            let stamp = inner.counter;
            inner.versions.insert(name, stamp);
        }
        Ok(removed)
    }

    /// True if relation `name` holds `tuple` (false for an absent relation).
    pub fn contains(&self, name: &RelationName, tuple: &Tuple) -> bool {
        self.read()
            .instance
            .get(name)
            .is_some_and(|relation| relation.contains(tuple))
    }

    /// Replaces relation `name` wholesale (adding it if absent), sharing the
    /// given tuple set, and bumps its version stamp.
    pub fn replace_relation(&self, name: impl Into<RelationName>, relation: Relation) {
        let name = name.into();
        let mut inner = self.write();
        inner.instance.replace_relation(name.clone(), relation);
        inner.counter += 1;
        let stamp = inner.counter;
        inner.versions.insert(name, stamp);
    }

    /// Materialises an empty relation if absent (errors on an arity
    /// conflict); returns whether the schema grew.
    pub fn ensure_relation(
        &self,
        name: impl Into<RelationName>,
        arity: usize,
    ) -> Result<bool, RelationalError> {
        let name = name.into();
        let mut inner = self.write();
        let added = inner.instance.ensure_relation(name.clone(), arity)?;
        if added {
            inner.counter += 1;
            let stamp = inner.counter;
            inner.versions.insert(name, stamp);
        }
        Ok(added)
    }

    /// Number of distinct `(relation, key columns)` indexes currently cached.
    pub fn index_count(&self) -> usize {
        self.read().indexes.len()
    }

    /// Total number of index builds performed over the database's lifetime.
    ///
    /// A resident service amortizes preparation: N runs over an unchanged
    /// catalog must leave this counter where the first run put it.
    pub fn index_builds(&self) -> u64 {
        self.read().index_builds
    }

    /// Pre-builds every index `program` probes, so the first evaluation pays
    /// nothing.  Equivalent to dropping the result of [`Self::view_for`].
    pub fn prepare_for(&self, program: &CompiledProgram) {
        let _ = self.view_for(program);
    }

    /// A consistent evaluation view: the instance snapshot plus every hash
    /// index `program` probes, each guaranteed fresh at the snapshot's
    /// versions.  Only indexes whose relation changed since they were last
    /// built are rebuilt; everything else is `Arc`-shared from the cache.
    pub fn view_for(&self, program: &CompiledProgram) -> ResidentView {
        let needed = needed_indexes(program);
        let reads = read_relations(program);

        // Fast path: everything fresh under the read lock.
        {
            let inner = self.read();
            if needed.iter().all(|key| !inner.needs_build(&key.0, &key.1)) {
                return inner.assemble_view(&needed, &reads);
            }
        }

        // Slow path: rebuild stale entries under the write lock, then
        // assemble the view from the same lock hold so the snapshot is
        // consistent with the indexes.
        let mut inner = self.write();
        for (name, cols) in &needed {
            if !inner.needs_build(name, cols) {
                continue;
            }
            let Some(relation) = inner.instance.get(name) else {
                continue;
            };
            let index = Arc::new(TupleIndex::build(cols.clone(), relation.iter()));
            let built_at = inner.versions.get(name).copied().unwrap_or(0);
            inner
                .indexes
                .insert((name.clone(), cols.clone()), IndexEntry { built_at, index });
            inner.index_builds += 1;
        }
        inner.assemble_view(&needed, &reads)
    }

    /// True if none of the relations the view's program reads has changed
    /// since the view was taken — the per-relation staleness check callers
    /// use to keep incremental caches alive across unrelated mutations.
    pub fn view_is_current(&self, view: &ResidentView) -> bool {
        let inner = self.read();
        view.read_versions
            .iter()
            .all(|(name, stamp)| inner.versions.get(name).copied().unwrap_or(0) == *stamp)
    }

    /// The relations the view's program reads whose version stamps moved
    /// since the view was taken, in name order.  This is the fine-grained
    /// form of [`ResidentDb::view_is_current`]: instead of one stale bit, a
    /// caller holding per-relation caches (e.g. a
    /// [`StepEvaluator`](crate::StepEvaluator)) learns exactly which caches
    /// to reseed after a catalog mutation — insert or retract alike.
    pub fn stale_relations(&self, view: &ResidentView) -> Vec<RelationName> {
        let inner = self.read();
        let mut stale: Vec<RelationName> = view
            .read_versions
            .iter()
            .filter(|(name, stamp)| inner.versions.get(name).copied().unwrap_or(0) != **stamp)
            .map(|(name, _)| name.clone())
            .collect();
        stale.sort();
        stale
    }
}

impl ResidentInner {
    /// True if the `(name, cols)` index is missing or stale while the
    /// relation exists (absent relations never need an index).
    fn needs_build(&self, name: &RelationName, cols: &[usize]) -> bool {
        if self.instance.get(name).is_none() {
            return false;
        }
        let current = self.versions.get(name).copied().unwrap_or(0);
        match self.indexes.get(&(name.clone(), cols.to_vec())) {
            Some(entry) => entry.built_at != current,
            None => true,
        }
    }

    fn assemble_view(
        &self,
        needed: &[(RelationName, Vec<usize>)],
        reads: &BTreeSet<RelationName>,
    ) -> ResidentView {
        let mut indexes = FxHashMap::default();
        for key in needed {
            if let Some(entry) = self.indexes.get(key) {
                indexes.insert(key.clone(), Arc::clone(&entry.index));
            }
        }
        // Stamp every relation the program reads (0 for relations the
        // database does not hold yet, so creating one later reads as stale).
        let read_versions = reads
            .iter()
            .map(|name| (name.clone(), self.versions.get(name).copied().unwrap_or(0)))
            .collect();
        ResidentView {
            instance: self.instance.clone(),
            indexes,
            read_versions,
            version: self.counter,
        }
    }
}

/// The distinct non-prefix index shapes a compiled program probes.  Prefix
/// keys range-scan the sorted tuple set and need nothing built.
pub(crate) fn needed_indexes(program: &CompiledProgram) -> Vec<(RelationName, Vec<usize>)> {
    let mut needed: Vec<(RelationName, Vec<usize>)> = Vec::new();
    for rule in program.rules() {
        for atom in rule.atoms() {
            if atom.key_columns().is_empty() || atom.uses_prefix_scan() {
                continue;
            }
            let key = (atom.relation().clone(), atom.key_columns().to_vec());
            if !needed.contains(&key) {
                needed.push(key);
            }
        }
    }
    needed
}

/// Every relation a compiled program can read (positive and negated body
/// atoms) — the set whose version stamps decide whether a view is current.
fn read_relations(program: &CompiledProgram) -> BTreeSet<RelationName> {
    let mut reads = BTreeSet::new();
    for rule in program.rules() {
        for atom in rule.atoms() {
            reads.insert(atom.relation().clone());
        }
        for neg in rule.negations() {
            reads.insert(neg.relation().clone());
        }
    }
    reads
}

/// A consistent per-evaluation snapshot of a [`ResidentDb`]: the instance
/// plus `Arc`-shared indexes, all stamped at one version.  Holding a view
/// never blocks writers; a view simply goes stale (check
/// [`ResidentDb::view_is_current`], which compares only the stamps of the
/// relations the view's program reads).
#[derive(Debug, Clone)]
pub struct ResidentView {
    instance: Instance,
    indexes: FxHashMap<(RelationName, Vec<usize>), Arc<TupleIndex>>,
    /// Version stamps, at snapshot time, of every relation the program
    /// reads (0 for relations absent from the database).
    read_versions: FxHashMap<RelationName, u64>,
    version: u64,
}

impl ResidentView {
    /// Assembles a view from parts — the crate-internal hook for callers
    /// (like the delete-rederive engine) that keep their own version-stamped
    /// index cache but want the evaluator's prepared-index probe path.  The
    /// view carries no read-version stamps, so it cannot be fed back to
    /// [`ResidentDb::view_is_current`].
    pub(crate) fn from_parts(
        instance: Instance,
        indexes: FxHashMap<(RelationName, Vec<usize>), Arc<TupleIndex>>,
        version: u64,
    ) -> Self {
        ResidentView {
            instance,
            indexes,
            read_versions: FxHashMap::default(),
            version,
        }
    }

    /// The snapshot instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The database version the view was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of indexes carried by the view.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// The index over `(relation, cols)`, if the view carries one.
    pub(crate) fn index(&self, name: &RelationName, cols: &[usize]) -> Option<&TupleIndex> {
        // Allocation-free probe would need a borrowed key pair; the lookup
        // runs once per atom per pass, so the clone is noise.
        self.indexes
            .get(&(name.clone(), cols.to_vec()))
            .map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use rtx_relational::Value;

    fn db() -> Instance {
        let schema = Schema::from_pairs([("made-by", 2), ("price", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        for (maker, item) in [("acme", "widget"), ("acme", "gadget"), ("globex", "widget")] {
            db.insert("made-by", Tuple::from_iter([maker, item]))
                .unwrap();
        }
        db.insert(
            "price",
            Tuple::new(vec![Value::str("widget"), Value::int(10)]),
        )
        .unwrap();
        db
    }

    fn program() -> CompiledProgram {
        // made-by is probed on its second column: a non-prefix hash index.
        let program = parse_program("sourced(X) :- item(X), made-by(Y, X).").unwrap();
        CompiledProgram::compile(&program).unwrap()
    }

    #[test]
    fn views_share_indexes_until_the_relation_changes() {
        let resident = ResidentDb::new(db());
        let compiled = program();
        let v1 = resident.view_for(&compiled);
        assert_eq!(v1.index_count(), 1);
        assert_eq!(resident.index_builds(), 1);
        // A second view over the unchanged relation rebuilds nothing.
        let v2 = resident.view_for(&compiled);
        assert_eq!(resident.index_builds(), 1);
        assert_eq!(v1.version(), v2.version());
    }

    #[test]
    fn insert_bumps_only_the_touched_relation() {
        let resident = ResidentDb::new(db());
        let compiled = program();
        resident.prepare_for(&compiled);
        assert_eq!(resident.index_builds(), 1);

        // Mutating `price` leaves the `made-by` index valid.
        resident
            .insert(
                "price",
                Tuple::new(vec![Value::str("gadget"), Value::int(7)]),
            )
            .unwrap();
        let before = resident.version_of(&RelationName::new("made-by"));
        let _ = resident.view_for(&compiled);
        assert_eq!(resident.index_builds(), 1);
        assert_eq!(resident.version_of(&RelationName::new("made-by")), before);

        // Mutating `made-by` invalidates (exactly) its index.
        resident
            .insert("made-by", Tuple::from_iter(["initech", "widget"]))
            .unwrap();
        let view = resident.view_for(&compiled);
        assert_eq!(resident.index_builds(), 2);
        let idx = view
            .index(&RelationName::new("made-by"), &[1])
            .expect("index carried by the view");
        assert_eq!(idx.probe(&[Value::str("widget")]).len(), 3);
    }

    #[test]
    fn view_currency_is_per_relation() {
        let resident = ResidentDb::new(db());
        let compiled = program(); // reads `item` and `made-by`
        let view = resident.view_for(&compiled);
        assert!(resident.view_is_current(&view));

        // `price` is not read by the program: mutating it keeps the view
        // (and any caches keyed on it) current.
        resident
            .insert("price", Tuple::new(vec![Value::str("bolt"), Value::int(2)]))
            .unwrap();
        assert!(resident.view_is_current(&view));

        // `made-by` is read: mutating it makes the view stale.
        resident
            .insert("made-by", Tuple::from_iter(["acme", "bolt"]))
            .unwrap();
        assert!(!resident.view_is_current(&view));

        // A read relation materialised only later also reads as stale.
        let view = resident.view_for(&compiled);
        assert!(resident.view_is_current(&view));
        resident.ensure_relation("item", 1).unwrap();
        assert!(!resident.view_is_current(&view));
    }

    #[test]
    fn retract_bumps_only_the_touched_relation() {
        let resident = ResidentDb::new(db());
        let compiled = program();
        resident.prepare_for(&compiled);
        assert_eq!(resident.index_builds(), 1);

        // Retracting from `price` leaves the `made-by` index valid.
        assert!(resident
            .retract(
                "price",
                &Tuple::new(vec![Value::str("widget"), Value::int(10)]),
            )
            .unwrap());
        let _ = resident.view_for(&compiled);
        assert_eq!(resident.index_builds(), 1);

        // Retracting from `made-by` invalidates (exactly) its index, and the
        // rebuilt index no longer covers the retracted tuple.
        assert!(resident
            .retract("made-by", &Tuple::from_iter(["acme", "widget"]))
            .unwrap());
        let view = resident.view_for(&compiled);
        assert_eq!(resident.index_builds(), 2);
        let idx = view
            .index(&RelationName::new("made-by"), &[1])
            .expect("index carried by the view");
        assert_eq!(idx.probe(&[Value::str("widget")]).len(), 1);
    }

    #[test]
    fn retracting_an_absent_tuple_does_not_bump_versions() {
        let resident = ResidentDb::new(db());
        let v = resident.version();
        assert!(!resident
            .retract("made-by", &Tuple::from_iter(["acme", "nothing"]))
            .unwrap());
        assert_eq!(resident.version(), v);
        // Unknown relations and arity mismatches are errors, like inserts.
        assert!(resident.retract("nope", &Tuple::from_iter(["x"])).is_err());
        assert!(resident
            .retract("made-by", &Tuple::from_iter(["x"]))
            .is_err());
    }

    #[test]
    fn stale_relations_names_exactly_the_changed_reads() {
        let resident = ResidentDb::new(db());
        let compiled = program(); // reads `item` and `made-by`
        let view = resident.view_for(&compiled);
        assert!(resident.stale_relations(&view).is_empty());

        // `price` is not read by the program: no stale relation reported.
        resident
            .retract(
                "price",
                &Tuple::new(vec![Value::str("widget"), Value::int(10)]),
            )
            .unwrap();
        assert!(resident.stale_relations(&view).is_empty());

        // Retracting from `made-by` names exactly that relation.
        resident
            .retract("made-by", &Tuple::from_iter(["acme", "widget"]))
            .unwrap();
        assert_eq!(
            resident.stale_relations(&view),
            vec![RelationName::new("made-by")]
        );
        assert!(!resident.view_is_current(&view));
    }

    #[test]
    fn duplicate_inserts_do_not_bump_versions() {
        let resident = ResidentDb::new(db());
        let v = resident.version();
        assert!(!resident
            .insert("made-by", Tuple::from_iter(["acme", "widget"]))
            .unwrap());
        assert_eq!(resident.version(), v);
    }

    #[test]
    fn ensure_relation_grows_the_resident_schema() {
        let resident = ResidentDb::new(db());
        assert!(resident.ensure_relation("category", 2).unwrap());
        assert!(!resident.ensure_relation("category", 2).unwrap());
        assert!(resident.ensure_relation("category", 3).is_err());
        resident
            .insert("category", Tuple::from_iter(["tools", "widget"]))
            .unwrap();
        assert_eq!(resident.snapshot().relation("category").unwrap().len(), 1);
        assert!(resident.schema().contains("category"));
    }

    #[test]
    fn concurrent_views_and_writes_stay_consistent() {
        let resident = std::sync::Arc::new(ResidentDb::new(db()));
        let compiled = std::sync::Arc::new(program());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let resident = std::sync::Arc::clone(&resident);
                let compiled = std::sync::Arc::clone(&compiled);
                scope.spawn(move || {
                    for i in 0..50 {
                        let view = resident.view_for(&compiled);
                        // Every view is internally consistent: the index
                        // always covers exactly the snapshot's tuples.
                        let idx = view
                            .index(&RelationName::new("made-by"), &[1])
                            .expect("view carries the made-by index");
                        assert_eq!(
                            idx.len(),
                            view.instance().relation("made-by").unwrap().len()
                        );
                        if i % 10 == 0 {
                            let item = format!("item-{i}");
                            resident
                                .insert("made-by", Tuple::from_iter(["acme", item.as_str()]))
                                .unwrap();
                        }
                    }
                });
            }
        });
    }
}
