//! # rtx-store
//!
//! An in-memory relational store — the substrate standing in for the external
//! database the paper assumes behind the `db` relations of a transducer
//! schema ("the db relations represent a database used by the system,
//! possibly very large and external", §2.2; the prototype of \[FAY97\] used
//! Postgres).
//!
//! The store holds **one** in-memory catalog: a version-stamped
//! [`ResidentDb`](rtx_datalog::ResidentDb), the same database every session
//! reads.  The modules are:
//!
//! * `catalog` — [`Store`]: named tables of fixed arity whose rows live in
//!   that database, and the count of operations that changed it;
//! * `journal` — the WAL's on-disk format: checksummed operation records
//!   and the parser that tells a torn tail from corruption;
//! * `durable` — [`DurableStore`]: fsync policy, snapshots and recovery;
//! * `resident` — [`Store::to_resident`] and [`ResidentSync`], shims that
//!   copy the catalog into a *second* resident database;
//! * `vfs` — the storage backends ([`Vfs`]), with deterministic fault
//!   injection ([`FaultVfs`]) for testing recovery.
//!
//! # Durability lifecycle
//!
//! The durable layer persists the store as **one snapshot plus a WAL tail**,
//! moving through a fixed lifecycle:
//!
//! 1. **Append** — every mutation is validated against the catalog, encoded
//!    as a length-prefixed, CRC32-checksummed record and appended to the
//!    on-disk WAL, and only then applied to the resident database
//!    (write-ahead ordering).  Operations that would change nothing are
//!    never logged.  Interned symbols cross this boundary by text, so a
//!    recovering process (with an empty
//!    [`SymbolTable`](rtx_relational::SymbolTable)) re-interns them.
//! 2. **Fsync policy** — [`FsyncPolicy`] decides when appended records become
//!    durable: `Always` (fsync per commit), `EveryN` (group commit), or
//!    `Never` (leave it to the OS).  The `RTX_FSYNC` environment variable
//!    overrides the policy at [`DurableStore::open`] time.
//! 3. **Snapshot** — [`DurableStore::checkpoint`] writes the whole catalog to
//!    a temp file, fsyncs it, and atomically renames it into place.  The
//!    snapshot records the absolute operation count it captures.
//! 4. **Truncate** — only after the snapshot is durable is the WAL reset to
//!    a new epoch whose base offset is the snapshot's operation count.
//!    Nothing is held in memory besides the catalog, so nothing else is
//!    cleared.
//! 5. **Recover** — [`DurableStore::open`] loads the latest valid snapshot,
//!    building each relation once from its rows, and replays the WAL tail.
//!    A torn final record (the classic half-written append at the crash
//!    point) is detected by length/CRC mismatch and dropped with a note in
//!    the [`RecoveryReport`]; corruption *before* the tail is a hard
//!    [`StoreError::Corrupt`] with a byte offset.
//!
//! Recovery is exercised by a deterministic fault-injection harness
//! ([`FaultVfs`]) that crashes the storage backend at the k-th I/O operation;
//! the workspace-level kill-and-recover sweep asserts that for *every* crash
//! point the recovered state equals the committed prefix of the workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod durable;
mod journal;
mod resident;
#[cfg(test)]
mod table;
mod vfs;

pub use catalog::Store;
pub use durable::{DurableStore, FsyncPolicy, RecoveryReport};
pub use journal::TornTail;
pub use resident::ResidentSync;
pub use vfs::{Fault, FaultVfs, MemVfs, StdVfs, Vfs, VfsFile};

/// Errors produced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A table name was used that does not exist.
    UnknownTable(String),
    /// A table was created twice.
    DuplicateTable(String),
    /// A row of the wrong arity was inserted or retracted.
    ArityMismatch {
        /// The table involved.
        table: String,
        /// Declared arity.
        expected: usize,
        /// Offending row arity.
        actual: usize,
    },
    /// An error from the relational layer.
    Relational(rtx_relational::RelationalError),
    /// An I/O error from the storage backend.  The rendered
    /// [`std::io::Error`] (operation, path, OS detail) is captured as text so
    /// the error type stays `Clone + PartialEq + Eq` like the rest of the
    /// enum.
    Io {
        /// What failed, where, and why (e.g. `"fsync wal: No space left"`).
        context: String,
    },
    /// Persisted data failed validation during recovery — a checksum or
    /// structural mismatch *before* the final WAL record, or an unreadable
    /// snapshot.  (A torn **final** record is not corruption: it is dropped
    /// gracefully and reported via
    /// [`RecoveryReport::torn_tail`].)
    Corrupt {
        /// Byte offset into the corrupt file where validation failed.
        offset: u64,
        /// What the validator expected vs. what it found.
        reason: String,
    },
    /// A malformed configuration override (e.g. an unparseable `RTX_FSYNC`
    /// value).  Never produced for an *unset* variable — only a set value
    /// that fails the strict parse, so a typo'd fsync policy can't silently
    /// weaken (or tighten) durability.
    Config {
        /// Which override failed to parse, the value, and the accepted forms.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            StoreError::DuplicateTable(name) => write!(f, "table `{name}` already exists"),
            StoreError::ArityMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for table `{table}`: expected {expected}, got {actual}"
            ),
            StoreError::Relational(e) => write!(f, "relational error: {e}"),
            StoreError::Io { context } => write!(f, "i/o error: {context}"),
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt store data at byte {offset}: {reason}")
            }
            StoreError::Config { detail } => write!(f, "configuration error: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<rtx_relational::RelationalError> for StoreError {
    fn from(e: rtx_relational::RelationalError) -> Self {
        StoreError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::{Tuple, Value};

    #[test]
    fn store_end_to_end() {
        let mut store = Store::new();
        store
            .create_table("price", 2, Some(vec!["product".into(), "amount".into()]))
            .unwrap();
        store
            .insert(
                "price",
                Tuple::from_iter(vec![Value::str("time"), Value::int(855)]),
            )
            .unwrap();
        store
            .insert(
                "price",
                Tuple::from_iter(vec![Value::str("newsweek"), Value::int(845)]),
            )
            .unwrap();
        let instance = store.snapshot();
        let price = instance.relation("price").unwrap();
        assert_eq!(price.len(), 2);
        let time = [Value::str("time")];
        let rows: Vec<_> = price.scan_prefix(&time).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), Some(&Value::int(855)));
        assert_eq!(store.op_count(), 3);
    }

    #[test]
    fn error_display() {
        assert!(StoreError::UnknownTable("x".into())
            .to_string()
            .contains('x'));
        assert!(StoreError::DuplicateTable("x".into())
            .to_string()
            .contains("exists"));
    }
}
