//! Durability: a [`Runtime`] whose catalog is backed by crash-safe storage.
//!
//! A plain [`Runtime`] serves sessions against an in-memory
//! [`ResidentDb`](rtx_datalog::ResidentDb); a process restart loses the
//! catalog.  A [`DurableRuntime`] pairs the runtime with **one**
//! [`rtx_store::DurableStore`], whatever the runtime's shard count: every
//! catalog mutation is write-ahead logged through the store's [`Vfs`]
//! *before* it reaches the shared resident database, and
//! [`Runtime::open_durable`] / [`ShardedRuntime::open_durable`] recover the
//! exact committed catalog after a crash — snapshot, WAL tail replay,
//! torn-tail handling and all (see the `rtx-store` crate docs for the
//! lifecycle).  Recovery does not depend on the shard count: a store can be
//! reopened with a different one.
//!
//! Ordering per mutation: WAL append (+ fsync per [`FsyncPolicy`]) →
//! in-memory [`rtx_store::Store`] apply → journal suffix replayed into the
//! shared `ResidentDb` via [`ResidentSync`], bumping exactly the touched
//! relation's version stamp so open sessions on every shard reseed only what
//! changed.  The [`ResidentSync`] cursor uses absolute journal offsets, so
//! [`DurableRuntime::checkpoint`] (which truncates the journal) never
//! desynchronizes it.

use crate::{CoreError, Runtime, Session, ShardedRuntime, SpocusTransducer};
use rtx_relational::Tuple;
use rtx_store::{DurableStore, FsyncPolicy, RecoveryReport, ResidentSync, StoreError, Vfs};
use std::sync::{Arc, Mutex, MutexGuard};

/// A [`Runtime`] whose catalog survives process crashes: mutations go
/// through a write-ahead log and recovery rebuilds the resident database
/// bit-identically.  See the [module docs](self).
#[derive(Debug)]
pub struct DurableRuntime {
    sharded: ShardedRuntime,
    durable: Mutex<DurableState>,
}

/// [`DurableRuntime`] under the name callers of
/// [`ShardedRuntime::open_durable`] use: durability does not depend on the
/// shard count, so there is one type.
pub type ShardedDurableRuntime = DurableRuntime;

#[derive(Debug)]
struct DurableState {
    store: DurableStore,
    sync: ResidentSync,
}

impl Runtime {
    /// Opens (or recovers) a one-shard durable runtime on `vfs` — see
    /// [`ShardedRuntime::open_durable`].
    pub fn open_durable(
        vfs: Arc<dyn Vfs>,
        policy: FsyncPolicy,
    ) -> Result<(DurableRuntime, RecoveryReport), CoreError> {
        ShardedRuntime::open_durable(vfs, policy, 1)
    }
}

impl ShardedRuntime {
    /// Opens (or recovers) a durable runtime on `vfs`: persisted state is
    /// recovered by the [`DurableStore`], made resident **once**, and served
    /// to sessions on `shards` shards exactly like an in-memory runtime.
    /// The fsync `policy` may be overridden by the `RTX_FSYNC` environment
    /// variable (see [`FsyncPolicy::from_env`]; a malformed value is a hard
    /// error).
    pub fn open_durable(
        vfs: Arc<dyn Vfs>,
        policy: FsyncPolicy,
        shards: usize,
    ) -> Result<(DurableRuntime, RecoveryReport), CoreError> {
        let (store, report) = DurableStore::open(vfs, policy)?;
        let (resident, sync) = store.store().to_resident()?;
        Ok((
            DurableRuntime {
                sharded: ShardedRuntime::shared(Arc::new(resident), shards),
                durable: Mutex::new(DurableState { store, sync }),
            },
            report,
        ))
    }
}

impl DurableRuntime {
    /// The session runtime serving the recovered catalog.
    pub fn runtime(&self) -> &Runtime {
        &self.sharded
    }

    /// The same session runtime, under the type it was opened as.
    pub fn sharded(&self) -> &ShardedRuntime {
        &self.sharded
    }

    /// Opens a named session on its home shard — delegates to
    /// [`Runtime::open_session`].
    pub fn open_session(
        &self,
        name: impl Into<String>,
        transducer: impl Into<Arc<SpocusTransducer>>,
    ) -> Result<Session, CoreError> {
        self.sharded.open_session(name, transducer)
    }

    /// Creates a catalog table durably, then makes it resident.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        arity: usize,
        attributes: Option<Vec<String>>,
    ) -> Result<(), CoreError> {
        self.mutate(|store| store.create_table(name, arity, attributes))
    }

    /// Inserts a catalog row durably, then makes it resident.  Open
    /// sessions on every shard observe the change at their next step.
    /// Returns `true` if the row was new.
    pub fn insert(&self, table: &str, row: Tuple) -> Result<bool, CoreError> {
        self.mutate(|store| store.insert(table, row))
    }

    /// Retracts a catalog row durably, then removes it from the resident
    /// database.  Returns `true` if the row was present.
    pub fn retract(&self, table: &str, row: &Tuple) -> Result<bool, CoreError> {
        self.mutate(|store| store.retract(table, row))
    }

    /// Forces every acknowledged write to stable storage, regardless of the
    /// fsync policy.
    pub fn sync(&self) -> Result<(), CoreError> {
        Ok(self.lock().store.sync()?)
    }

    /// Checkpoints the backing store: snapshots the catalog and truncates
    /// the WAL (see [`DurableStore::checkpoint`]).  The resident database
    /// and open sessions are unaffected — the journal's monotone base
    /// offset keeps the internal [`ResidentSync`] cursor valid across the
    /// truncation.
    pub fn checkpoint(&self) -> Result<(), CoreError> {
        Ok(self.lock().store.checkpoint()?)
    }

    /// The backing store's snapshot/WAL epoch (bumped per checkpoint).
    pub fn epoch(&self) -> u64 {
        self.lock().store.epoch()
    }

    fn lock(&self) -> MutexGuard<'_, DurableState> {
        self.durable.lock().expect("durable state poisoned")
    }

    /// Applies one durable mutation, then replays its journal suffix into
    /// the shared resident database.
    fn mutate<T>(
        &self,
        op: impl FnOnce(&mut DurableStore) -> Result<T, StoreError>,
    ) -> Result<T, CoreError> {
        let mut state = self.lock();
        let DurableState { store, sync } = &mut *state;
        let out = op(store)?;
        sync.sync(store.store(), self.sharded.database())?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rtx_relational::Value;
    use rtx_store::MemVfs;

    fn open(vfs: &MemVfs) -> (DurableRuntime, RecoveryReport) {
        Runtime::open_durable(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap()
    }

    /// Loads the Figure 1 catalog into a durable runtime.
    fn seed_figure1(rt: &DurableRuntime) {
        let db = models::figure1_database();
        for (name, relation) in db.iter() {
            rt.create_table(name.as_str(), relation.arity(), None)
                .unwrap();
            for tuple in relation.iter() {
                rt.insert(name.as_str(), tuple.clone()).unwrap();
            }
        }
    }

    #[test]
    fn durable_runtime_reopens_bit_identical() {
        let vfs = MemVfs::new();
        let (rt, report) = open(&vfs);
        assert_eq!(report, RecoveryReport::default());
        seed_figure1(&rt);
        rt.checkpoint().unwrap();
        // Post-checkpoint churn lands in the WAL tail.
        rt.insert(
            "price",
            Tuple::new(vec![Value::str("herald"), Value::int(500)]),
        )
        .unwrap();
        rt.retract(
            "price",
            &Tuple::new(vec![Value::str("newsweek"), Value::int(845)]),
        )
        .unwrap();
        let expect = rt.runtime().database().snapshot();
        drop(rt); // crash

        let (recovered, report) = open(&vfs);
        assert_eq!(report.replayed, 2);
        assert!(report.snapshot_ops > 0);
        assert_eq!(recovered.runtime().database().snapshot(), expect);
    }

    #[test]
    fn sessions_replay_figure1_after_recovery() {
        // End-to-end: seed the catalog durably, crash, recover, and run the
        // paper's Figure 1 interaction against the recovered catalog — the
        // delivery must fire exactly as it does in-memory.
        let vfs = MemVfs::new();
        let (rt, _) = open(&vfs);
        seed_figure1(&rt);
        drop(rt); // crash before any checkpoint: recovery is WAL-only

        let (recovered, report) = open(&vfs);
        assert!(report.replayed > 0);
        let session = recovered.open_session("customer", models::short()).unwrap();
        let mut session = session;
        for input in models::figure1_inputs().iter() {
            session.step(input).unwrap();
        }
        let run = session.run().unwrap();
        assert!(run
            .outputs()
            .get(1)
            .unwrap()
            .holds("deliver", &Tuple::from_iter([Value::str("time")])));
    }

    #[test]
    fn mutations_reach_open_sessions_and_survive_checkpoint() {
        let vfs = MemVfs::new();
        let (rt, _) = open(&vfs);
        seed_figure1(&rt);
        let v0 = rt.runtime().database().version();
        // A checkpoint truncates the journal mid-stream; the next mutation
        // must still flow into the resident database (regression guard for
        // the absolute-offset ResidentSync cursor).
        rt.checkpoint().unwrap();
        rt.insert(
            "price",
            Tuple::new(vec![Value::str("herald"), Value::int(500)]),
        )
        .unwrap();
        assert!(rt.runtime().database().version() > v0);
        assert_eq!(
            rt.runtime()
                .database()
                .snapshot()
                .relation("price")
                .unwrap()
                .len(),
            4
        );
        assert_eq!(rt.epoch(), 1);
    }

    #[test]
    fn one_durable_store_feeds_every_shard() {
        let vfs = MemVfs::new();
        let (rt, report) =
            ShardedRuntime::open_durable(Arc::new(vfs.clone()), FsyncPolicy::Always, 3).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(rt.sharded().shard_count(), 3);
        let db = models::figure1_database();
        for (name, relation) in db.iter() {
            rt.create_table(name.as_str(), relation.arity(), None)
                .unwrap();
            for tuple in relation.clone().iter() {
                rt.insert(name.as_str(), tuple.clone()).unwrap();
            }
        }

        // Sessions pinned to different shards all see one durable mutation
        // at their next step: the store feeds a single shared ResidentDb.
        let transducer = Arc::new(models::short());
        let mut sessions: Vec<_> = (0..3)
            .map(|i| {
                rt.sharded()
                    .open_session_on(i, format!("s{i}"), Arc::clone(&transducer))
                    .unwrap()
            })
            .collect();
        let schema = models::short_input_schema();
        let order_economist = {
            let mut inst = rtx_relational::Instance::empty(&schema);
            inst.insert("order", Tuple::from_iter(["economist"]))
                .unwrap();
            inst
        };
        for session in &mut sessions {
            let out = session.step(&order_economist).unwrap();
            assert!(out.relation("sendbill").unwrap().is_empty());
        }
        rt.insert(
            "price",
            Tuple::new(vec![Value::str("economist"), Value::int(700)]),
        )
        .unwrap();
        for session in &mut sessions {
            let out = session.step(&order_economist).unwrap();
            assert!(out.holds(
                "sendbill",
                &Tuple::new(vec![Value::str("economist"), Value::int(700)])
            ));
        }
        let expect = rt.sharded().database().snapshot();
        drop(sessions);
        drop(rt); // crash

        // Recovery is shard-count independent: reopening with a different
        // fleet size rebuilds the identical catalog.
        let (recovered, report) =
            ShardedRuntime::open_durable(Arc::new(vfs), FsyncPolicy::Always, 2).unwrap();
        assert!(report.replayed > 0);
        assert_eq!(recovered.sharded().database().snapshot(), expect);
    }

    #[test]
    fn store_errors_surface_as_core_errors() {
        let vfs = MemVfs::new();
        let (rt, _) = open(&vfs);
        rt.create_table("t", 1, None).unwrap();
        let err = rt.create_table("t", 1, None).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Store(rtx_store::StoreError::DuplicateTable(_))
        ));
        assert!(err.to_string().contains("already exists"));
    }
}
