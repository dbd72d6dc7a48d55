//! Copies of the catalog in a second resident database: compatibility shims.
//!
//! A [`Store`]'s catalog already *is* a [`ResidentDb`]
//! ([`Store::database`]), and a runtime serving that same `Arc` needs nothing
//! from this module.  [`Store::to_resident`] and [`ResidentSync`] remain for
//! callers that keep a database of their own beside the store.  The copy is
//! cheap: relations are shared copy-on-write, and a sync replaces exactly the
//! relations whose version stamps moved, bumping only their stamps in the
//! target.
//!
//! ```
//! use rtx_store::{ResidentSync, Store};
//! use rtx_relational::{Tuple, Value};
//!
//! let mut store = Store::new();
//! store.create_table("price", 2, None).unwrap();
//! store
//!     .insert("price", Tuple::new(vec![Value::str("time"), Value::int(855)]))
//!     .unwrap();
//!
//! // Copy the catalog into a database of its own once…
//! let (resident, mut sync) = store.to_resident().unwrap();
//! let v0 = resident.version();
//!
//! // …keep writing to the store…
//! store
//!     .insert("price", Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]))
//!     .unwrap();
//!
//! // …and bring the copy up to date: one operation since the last sync.
//! assert_eq!(sync.sync(&store, &resident).unwrap(), 1);
//! assert!(resident.version() > v0);
//! assert_eq!(resident.snapshot().relation("price").unwrap().len(), 2);
//! ```

use crate::{Store, StoreError};
use rtx_datalog::ResidentDb;

/// How far a copy of a store's catalog has been brought up to date —
/// obtained from [`Store::to_resident`].
///
/// A compatibility shim for the traced pass of the `rtx-ledger` benchmark,
/// which keeps a database of its own beside the store so that the store
/// apply and the copy are timed as separate spans.  Everything else serves
/// [`Store::database`] directly and needs no copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentSync {
    /// The store's operation count at the last sync.
    applied: usize,
    /// The catalog's version at the last sync.
    version: u64,
}

impl ResidentSync {
    /// The store's operation count at the last sync: how many operations
    /// the copy reflects.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Brings `resident` up to date with `store`: every catalog relation
    /// whose version stamp moved since the last sync replaces its copy (an
    /// `Arc` clone, bumping that relation's stamp in `resident`).  Returns
    /// the number of operations the store applied since the last sync; a
    /// checkpoint in between changes neither.
    pub fn sync(&mut self, store: &Store, resident: &ResidentDb) -> Result<usize, StoreError> {
        let db = store.database();
        let version = db.version();
        if version != self.version {
            for (name, relation) in db.snapshot().iter() {
                if db.version_of(name) > self.version {
                    resident.replace_relation(name, relation.clone());
                }
            }
            self.version = version;
        }
        let applied = store.op_count() - self.applied;
        self.applied = store.op_count();
        Ok(applied)
    }
}

impl Store {
    /// Copies the catalog into a [`ResidentDb`] of its own (relations shared
    /// copy-on-write, so O(#tables)), plus a [`ResidentSync`] cursor for
    /// bringing the copy up to date.  A compatibility shim like
    /// [`ResidentSync`]: a runtime can serve [`Store::database`] itself.
    pub fn to_resident(&self) -> Result<(ResidentDb, ResidentSync), StoreError> {
        let sync = ResidentSync {
            applied: self.op_count(),
            version: self.database().version(),
        };
        Ok((ResidentDb::new(self.snapshot()), sync))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableStore, FsyncPolicy, MemVfs};
    use rtx_relational::{RelationName, Tuple, Value};
    use std::sync::Arc;

    fn store() -> Store {
        let mut s = Store::new();
        s.create_table("price", 2, None).unwrap();
        s.create_table("available", 1, None).unwrap();
        for (p, amt) in [("time", 855), ("newsweek", 845)] {
            s.insert("price", Tuple::new(vec![Value::str(p), Value::int(amt)]))
                .unwrap();
        }
        s
    }

    #[test]
    fn to_resident_snapshots_the_catalog() {
        let s = store();
        let (resident, sync) = s.to_resident().unwrap();
        assert_eq!(sync.applied(), s.op_count());
        assert_eq!(resident.snapshot(), s.snapshot());
    }

    #[test]
    fn sync_applies_only_the_journal_suffix() {
        let mut s = store();
        let (resident, mut sync) = s.to_resident().unwrap();

        // Nothing new: no version churn.
        let v = resident.version();
        assert_eq!(sync.sync(&s, &resident).unwrap(), 0);
        assert_eq!(resident.version(), v);

        // New table + rows arrive through the journal.
        s.create_table("category", 2, None).unwrap();
        s.insert("category", Tuple::from_iter(["news", "time"]))
            .unwrap();
        s.insert(
            "price",
            Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
        )
        .unwrap();
        assert_eq!(sync.sync(&s, &resident).unwrap(), 3);
        assert_eq!(resident.snapshot(), s.snapshot());
        assert_eq!(sync.applied(), s.op_count());
    }

    #[test]
    fn sync_bumps_only_touched_relations() {
        let mut s = store();
        let (resident, mut sync) = s.to_resident().unwrap();
        let available = RelationName::new("available");
        let price = RelationName::new("price");
        let available_before = resident.version_of(&available);

        s.insert(
            "price",
            Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
        )
        .unwrap();
        sync.sync(&s, &resident).unwrap();

        assert_eq!(resident.version_of(&available), available_before);
        assert!(resident.version_of(&price) > 0);
    }

    #[test]
    fn mixed_insert_and_retract_suffixes_round_trip() {
        let mut s = store();
        let (resident, mut sync) = s.to_resident().unwrap();

        // Interleave inserts and retractions, including an insert that is
        // later retracted and a retraction that is later re-inserted.
        s.insert(
            "price",
            Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
        )
        .unwrap();
        s.retract(
            "price",
            &Tuple::new(vec![Value::str("time"), Value::int(855)]),
        )
        .unwrap();
        s.insert("available", Tuple::from_iter(["lemonde"]))
            .unwrap();
        s.retract(
            "price",
            &Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
        )
        .unwrap();
        s.insert(
            "price",
            Tuple::new(vec![Value::str("time"), Value::int(855)]),
        )
        .unwrap();
        assert_eq!(sync.sync(&s, &resident).unwrap(), 5);

        // The synchronised resident database is identical to one built from
        // the final store state, and to one made resident afresh.
        assert_eq!(resident.snapshot(), s.snapshot());
        let (fresh, _) = Store::from_instance(&s.snapshot()).to_resident().unwrap();
        assert_eq!(resident.snapshot(), fresh.snapshot());

        // Retractions bump versions like inserts do: a session watching
        // `price` learns about the shrink through the same stamp channel.
        let price = RelationName::new("price");
        let before = resident.version_of(&price);
        s.retract(
            "price",
            &Tuple::new(vec![Value::str("newsweek"), Value::int(845)]),
        )
        .unwrap();
        sync.sync(&s, &resident).unwrap();
        assert!(resident.version_of(&price) > before);
        assert_eq!(resident.snapshot(), s.snapshot());
    }

    #[test]
    fn sync_survives_journal_truncation() {
        // The cursor counts operations, not buffered journal entries, so a
        // checkpoint between two syncs (which resets the WAL) changes
        // nothing: the sync after it carries exactly the writes since the
        // last one.
        let vfs = MemVfs::new();
        let (mut d, _) = DurableStore::open(Arc::new(vfs), FsyncPolicy::Never).unwrap();
        d.create_table("price", 2, None).unwrap();
        let (resident, mut sync) = d.store().to_resident().unwrap();
        assert_eq!(sync.sync(d.store(), &resident).unwrap(), 0);

        d.insert(
            "price",
            Tuple::new(vec![Value::str("time"), Value::int(855)]),
        )
        .unwrap();
        d.checkpoint().unwrap();
        d.insert(
            "price",
            Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
        )
        .unwrap();
        assert_eq!(sync.sync(d.store(), &resident).unwrap(), 2);
        assert_eq!(resident.snapshot(), d.store().snapshot());
        assert_eq!(sync.applied(), d.store().op_count());

        d.checkpoint().unwrap();
        let v = resident.version();
        assert_eq!(sync.sync(d.store(), &resident).unwrap(), 0);
        assert_eq!(resident.version(), v);
    }

    #[test]
    fn replaying_a_rebuilt_store_from_scratch_matches() {
        let s = store();
        let vfs = MemVfs::new();
        let (mut d, _) = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap();
        for (name, relation) in s.snapshot().iter() {
            d.create_table(name.as_str(), relation.arity(), None)
                .unwrap();
            for row in relation.iter() {
                d.insert(name.as_str(), row.clone()).unwrap();
            }
        }
        drop(d);
        let (replayed, _) = DurableStore::open(Arc::new(vfs), FsyncPolicy::Always).unwrap();
        let (resident, _) = s.to_resident().unwrap();
        let (from_replay, _) = replayed.store().to_resident().unwrap();
        assert_eq!(resident.snapshot(), from_replay.snapshot());
    }
}
