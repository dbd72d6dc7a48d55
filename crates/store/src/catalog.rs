//! The store: named tables over the one in-memory catalog.

use crate::StoreError;
use rtx_datalog::ResidentDb;
use rtx_relational::{Instance, RelationName, Schema, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the store knows about one table beyond its rows.
#[derive(Debug)]
pub(crate) struct TableInfo {
    /// The catalog's own name for the relation, shared with every mutation.
    pub(crate) name: RelationName,
    pub(crate) arity: usize,
    pub(crate) attributes: Option<Vec<String>>,
}

/// The store facade: named tables of fixed arity whose rows live in one
/// version-stamped [`ResidentDb`] — the database a deployed transducer
/// points its `db` relations at and every session reads.
///
/// Every operation that changes the catalog is counted: [`Store::op_count`]
/// is the absolute operation number the durable layer's snapshots and WAL
/// base offsets use.  Duplicate inserts and retractions of absent rows
/// change nothing and are not counted.
///
/// The database is shared ([`Store::database`]); mutating it other than
/// through the store bypasses the count and, under a
/// [`DurableStore`](crate::DurableStore), the write-ahead log.
#[derive(Debug)]
pub struct Store {
    db: Arc<ResidentDb>,
    tables: BTreeMap<String, TableInfo>,
    op_count: usize,
}

impl Default for Store {
    fn default() -> Self {
        Store::restore(Instance::empty(&Schema::empty()), BTreeMap::new(), 0)
    }
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// A store over `instance` (shared, not copied) that has counted
    /// `op_count` operations; `attributes` names the columns of the tables
    /// that have names.
    pub(crate) fn restore(
        instance: Instance,
        mut attributes: BTreeMap<String, Vec<String>>,
        op_count: usize,
    ) -> Self {
        let tables = instance
            .iter()
            .map(|(name, relation)| {
                let info = TableInfo {
                    name: name.clone(),
                    arity: relation.arity(),
                    attributes: attributes.remove(name.as_str()),
                };
                (name.as_str().to_string(), info)
            })
            .collect();
        Store {
            db: Arc::new(ResidentDb::new(instance)),
            tables,
            op_count,
        }
    }

    /// Creates a table.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        attributes: Option<Vec<String>>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StoreError::DuplicateTable(name));
        }
        let relation = RelationName::from(name.as_str());
        self.db.ensure_relation(relation.clone(), arity)?;
        let info = TableInfo {
            name: relation,
            arity,
            attributes,
        };
        self.tables.insert(name, info);
        self.op_count += 1;
        Ok(())
    }

    /// The catalog's name for `table`, once `row` is known to fit it.
    pub(crate) fn resolve(&self, table: &str, row: &Tuple) -> Result<&RelationName, StoreError> {
        let info = self
            .tables
            .get(table)
            .ok_or_else(|| StoreError::UnknownTable(table.to_string()))?;
        if row.arity() != info.arity {
            return Err(StoreError::ArityMismatch {
                table: table.to_string(),
                expected: info.arity,
                actual: row.arity(),
            });
        }
        Ok(&info.name)
    }

    /// True if `table` exists.
    pub(crate) fn has_table(&self, table: &str) -> bool {
        self.tables.contains_key(table)
    }

    /// The tables, in name order.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &TableInfo> {
        self.tables.values()
    }

    /// Inserts a row into a table.  Returns whether the row was new.
    pub fn insert(&mut self, table: &str, row: Tuple) -> Result<bool, StoreError> {
        let new = self.db.insert(self.resolve(table, &row)?, row)?;
        self.op_count += usize::from(new);
        Ok(new)
    }

    /// Retracts a row from a table.  Returns whether the row was present;
    /// like a duplicate insert, retracting an absent row is not counted.
    pub fn retract(&mut self, table: &str, row: &Tuple) -> Result<bool, StoreError> {
        let removed = self.db.retract(self.resolve(table, row)?, row)?;
        self.op_count += usize::from(removed);
        Ok(removed)
    }

    /// The catalog itself: the resident database sessions read.
    pub fn database(&self) -> &Arc<ResidentDb> {
        &self.db
    }

    /// How many operations have changed the catalog, ever: table creations,
    /// new rows and removed rows.
    pub fn op_count(&self) -> usize {
        self.op_count
    }

    /// The whole catalog as a relational [`Instance`] — the form the
    /// transducer runtime consumes as its database `D`.  Relations are shared
    /// copy-on-write, so this is O(#tables).
    pub fn snapshot(&self) -> Instance {
        self.db.snapshot()
    }

    /// A store holding `instance` (one table per relation, shared, not
    /// copied), counted as if each table and row had been added one by one.
    pub fn from_instance(instance: &Instance) -> Self {
        let op_count = instance.iter().count() + instance.total_tuples();
        Store::restore(instance.clone(), BTreeMap::new(), op_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableStore, FsyncPolicy, MemVfs};
    use rtx_datalog::{parse_program, CompiledProgram};
    use rtx_relational::Value;

    fn price(product: &str, amount: i64) -> Tuple {
        Tuple::from_iter(vec![Value::str(product), Value::int(amount)])
    }

    fn sample_store() -> Store {
        let mut s = Store::new();
        s.create_table("price", 2, None).unwrap();
        s.create_table("available", 1, None).unwrap();
        for (p, amt) in [("time", 855), ("newsweek", 845), ("lemonde", 8350)] {
            s.insert("price", price(p, amt)).unwrap();
        }
        s.insert("available", Tuple::from_iter(vec![Value::str("time")]))
            .unwrap();
        s
    }

    /// The sample catalog written through a durable store on `vfs`.
    fn durable_sample(vfs: &MemVfs) -> DurableStore {
        let (mut d, _) = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap();
        let sample = sample_store().snapshot();
        for (name, relation) in sample.iter() {
            d.create_table(name.as_str(), relation.arity(), None)
                .unwrap();
            for row in relation.iter() {
                d.insert(name.as_str(), row.clone()).unwrap();
            }
        }
        d
    }

    /// The catalog recovered from `vfs`.
    fn reopen(vfs: &MemVfs) -> Instance {
        let (d, _) = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap();
        d.store().snapshot()
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut s = sample_store();
        assert!(matches!(
            s.create_table("price", 2, None),
            Err(StoreError::DuplicateTable(_))
        ));
        assert_eq!(s.op_count(), 6);
    }

    #[test]
    fn unknown_table_errors() {
        let mut s = sample_store();
        let row = Tuple::from_iter(vec![Value::int(1)]);
        assert!(matches!(
            s.insert("nope", row.clone()),
            Err(StoreError::UnknownTable(_))
        ));
        assert!(matches!(
            s.retract("nope", &row),
            Err(StoreError::UnknownTable(_))
        ));
    }

    #[test]
    fn join_via_store() {
        let s = sample_store();
        let program = parse_program("offer(P, A) :- available(P), price(P, A).").unwrap();
        let (joined, _) = CompiledProgram::compile(&program)
            .unwrap()
            .evaluate_resident(&[], s.database())
            .unwrap();
        let offers = joined.relation("offer").unwrap();
        assert_eq!(offers.len(), 1);
        assert!(offers.contains(&price("time", 855)));
    }

    #[test]
    fn instance_round_trip() {
        let s = sample_store();
        let instance = s.snapshot();
        assert_eq!(instance.relation("price").unwrap().len(), 3);
        let s2 = Store::from_instance(&instance);
        assert_eq!(s2.snapshot(), instance);
        assert_eq!(s2.op_count(), s.op_count());
    }

    #[test]
    fn journal_replay_reproduces_store() {
        let s = sample_store();
        assert_eq!(s.op_count(), 2 + 4);
        let vfs = MemVfs::new();
        let d = durable_sample(&vfs);
        assert_eq!(d.store().op_count(), s.op_count());
        drop(d);
        assert_eq!(reopen(&vfs), s.snapshot());
    }

    #[test]
    fn retractions_are_journaled_and_replayed() {
        let mut s = sample_store();
        let vfs = MemVfs::new();
        let mut d = durable_sample(&vfs);
        let before = s.op_count();

        // Only real removals are counted and logged.
        let gone = price("newsweek", 845);
        assert!(s.retract("price", &gone).unwrap());
        assert!(d.retract("price", &gone).unwrap());
        assert!(!s.retract("price", &gone).unwrap());
        assert!(!d.retract("price", &gone).unwrap());
        assert_eq!(s.op_count(), before + 1);
        assert_eq!(d.store().op_count(), before + 1);
        assert!(!s.snapshot().holds("price", &gone));

        // A mixed insert/retract log rebuilds the same store.
        let lemonde = Tuple::from_iter(vec![Value::str("lemonde")]);
        let time = Tuple::from_iter(vec![Value::str("time")]);
        s.insert("available", lemonde.clone()).unwrap();
        s.retract("available", &time).unwrap();
        d.insert("available", lemonde).unwrap();
        d.retract("available", &time).unwrap();
        drop(d);
        assert_eq!(reopen(&vfs), s.snapshot());
    }

    #[test]
    fn duplicate_inserts_not_journaled() {
        let mut s = sample_store();
        let before = s.op_count();
        assert!(!s
            .insert("available", Tuple::from_iter(vec![Value::str("time")]))
            .unwrap());
        assert_eq!(s.op_count(), before);
    }

    #[test]
    fn catalog_introspection() {
        let s = sample_store();
        let schema = s.database().schema();
        assert_eq!(schema.len(), 2);
        assert!(!schema.is_empty());
        assert_eq!(
            schema.names().map(|n| n.as_str()).collect::<Vec<_>>(),
            vec!["available", "price"]
        );
        assert_eq!(schema.arity_of("price"), Some(2));
        assert!(s.tables().all(|t| t.attributes.is_none()));
    }

    #[test]
    fn indexes_through_store() {
        let mut s = sample_store();
        // Selecting on `price`'s second column needs a hash index; the
        // catalog keeps it until `price` changes.
        let program = parse_program("hit(P) :- price(P, 845).").unwrap();
        let program = CompiledProgram::compile(&program).unwrap();
        s.database().prepare_for(&program);
        assert_eq!(s.database().index_count(), 1);
        let builds = s.database().index_builds();
        let (rows, _) = program.evaluate_resident(&[], s.database()).unwrap();
        assert_eq!(rows.relation("hit").unwrap().len(), 1);
        assert_eq!(s.database().index_builds(), builds);
        s.insert("price", price("herald", 845)).unwrap();
        let (rows, _) = program.evaluate_resident(&[], s.database()).unwrap();
        assert_eq!(rows.relation("hit").unwrap().len(), 2);
        assert_eq!(s.database().index_builds(), builds + 1);
    }
}
