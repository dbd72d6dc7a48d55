//! Crash-safe persistence: an on-disk WAL plus snapshots, with recovery.
//!
//! [`DurableStore`] wraps a [`Store`] so that every mutation is persisted
//! through a [`Vfs`] **before** it is applied to the catalog, and a process
//! can recover the exact committed state after a crash.  The on-disk layout
//! is one snapshot file plus a write-ahead log tail (see the [crate
//! docs](crate) for the full lifecycle):
//!
//! * **WAL** (`wal`) — a header (magic, epoch, base offset) followed by one
//!   CRC-checksummed record per operation that changed the catalog; the
//!   record with ordinal `i` holds operation number `base + i` (the
//!   `journal` module owns the format).
//! * **Snapshot** (`snapshot`) — magic, CRC over the body, epoch, the
//!   absolute operation count it captures, then every table with its rows
//!   in sorted order.  Snapshots are written to a temp file and atomically
//!   renamed ([`Vfs::write_atomic`]), so a crash mid-checkpoint leaves the
//!   old snapshot intact.
//!
//! Recovery ([`DurableStore::open`]) builds each snapshot relation once from
//! its rows, replays the WAL records whose absolute index the snapshot has
//! not already captured, and classifies damage precisely: a **torn tail**
//! (the final record's bytes run out at end-of-file — the signature of a
//! crash mid-append) is dropped and reported via
//! [`RecoveryReport::torn_tail`]; any mismatch *before* the tail — a failed
//! checksum on a complete record, an undecodable payload, a base offset that
//! skips operations — is a hard [`StoreError::Corrupt`] with the byte offset
//! where validation failed.

use crate::journal::{
    crc32, encode_record, get_attributes, parse_wal, put_attributes, wal_header, Operation,
    TornTail, WAL_FILE,
};
use crate::vfs::{Vfs, VfsFile};
use crate::{Store, StoreError};
use rtx_relational::codec::{self, Reader};
use rtx_relational::{Instance, Schema, Tuple};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

const SNAPSHOT_FILE: &str = "snapshot";
const SNAP_MAGIC: &[u8; 8] = b"RTXSNAP1";

/// When WAL appends are forced to stable storage.
///
/// The `RTX_FSYNC` environment variable overrides the policy passed to
/// [`DurableStore::open`] (mirroring the engine's `RTX_THREADS` override):
/// `always`, `never`, or `every:N` for group commit of `N` appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: an acknowledged write is durable.
    Always,
    /// Group commit: fsync after every `N` appends (and at checkpoints).
    /// A crash can lose up to `N - 1` acknowledged operations.
    EveryN(usize),
    /// Never fsync from the store; leave flushing to the OS.  Fastest, and
    /// still crash-*consistent* (recovery sees a clean prefix), but recent
    /// acknowledged writes may be lost.
    Never,
}

impl FsyncPolicy {
    /// The accepted forms of `RTX_FSYNC`, for the strict-parse error
    /// message.
    pub const ENV_EXPECTED: &'static str = "`always`, `never`, or `every:N` with N >= 1";

    /// Parses one (pre-trimmed, non-empty) `RTX_FSYNC` token: `"always"`,
    /// `"never"`, or `"every:N"` with `N ≥ 1` (ASCII case-insensitive on the
    /// keyword; the count rejects signs, spaces and 0).
    fn parse_token(value: &str) -> Option<FsyncPolicy> {
        match value.to_ascii_lowercase().as_str() {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            v => {
                let n = v.strip_prefix("every:")?;
                if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(FsyncPolicy::EveryN(n)),
                    _ => None,
                }
            }
        }
    }

    /// Strictly parses an `RTX_FSYNC` override through the shared
    /// [`env`](rtx_relational::env) contract: `Ok(None)` ("no override")
    /// when the value is absent or blank, a hard
    /// [`EnvParseError`](rtx_relational::env::EnvParseError) when it is set
    /// but malformed.  [`DurableStore::open`] turns that error into
    /// [`StoreError::Config`] — a typo'd fsync policy must refuse to open
    /// the store, not silently fall back to the programmatic default.
    pub fn from_env(
        value: Option<&str>,
    ) -> Result<Option<FsyncPolicy>, rtx_relational::env::EnvParseError> {
        rtx_relational::env::parse_setting(
            "RTX_FSYNC",
            value,
            Self::ENV_EXPECTED,
            Self::parse_token,
        )
    }
}

/// What [`DurableStore::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Absolute operation count captured by the loaded snapshot (0 when
    /// booting fresh or before the first checkpoint).
    pub snapshot_ops: usize,
    /// WAL tail operations replayed on top of the snapshot.
    pub replayed: usize,
    /// The torn final record, if the WAL ended mid-append.  The torn bytes
    /// were discarded (and the WAL file trimmed back to its valid prefix);
    /// the operation they encoded was never acknowledged durable under
    /// [`FsyncPolicy::Always`].
    pub torn_tail: Option<TornTail>,
}

/// A [`Store`] whose mutations are write-ahead logged through a [`Vfs`],
/// with checkpointing and crash recovery.  See the [crate docs](crate) for
/// the durability lifecycle.
pub struct DurableStore {
    vfs: Arc<dyn Vfs>,
    store: Store,
    wal: Box<dyn VfsFile>,
    /// The record being appended, reused so a warm append allocates nothing.
    record: Vec<u8>,
    epoch: u64,
    policy: FsyncPolicy,
    /// Appends not yet covered by an fsync (group commit accounting).
    unsynced: usize,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("epoch", &self.epoch)
            .field("policy", &self.policy)
            .field("op_count", &self.store.op_count())
            .finish_non_exhaustive()
    }
}

impl DurableStore {
    /// Opens (or creates) a durable store on `vfs`, recovering any persisted
    /// state: the latest snapshot is loaded, the WAL tail replayed, and a
    /// torn final record dropped with a note in the [`RecoveryReport`].
    ///
    /// The fsync `policy` may be overridden by the `RTX_FSYNC` environment
    /// variable ([`FsyncPolicy::from_env`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the backend fails; [`StoreError::Corrupt`] if
    /// persisted data fails validation anywhere before the WAL tail;
    /// [`StoreError::Config`] if `RTX_FSYNC` is set to a malformed value —
    /// a typo'd policy refuses to open rather than silently running under
    /// the wrong durability guarantee.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        policy: FsyncPolicy,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let raw = std::env::var("RTX_FSYNC").ok();
        let policy = FsyncPolicy::from_env(raw.as_deref())
            .map_err(|e| StoreError::Config {
                detail: e.to_string(),
            })?
            .unwrap_or(policy);
        let mut report = RecoveryReport::default();

        // 1. Snapshot: the base state plus the absolute op count it captures.
        let (mut store, snapshot_epoch) = match vfs.read(SNAPSHOT_FILE)? {
            None => (Store::new(), 0u64),
            Some(bytes) => decode_snapshot(&bytes)?,
        };
        let snapshot_ops = store.op_count();
        report.snapshot_ops = snapshot_ops;

        // 2. WAL: header + tail records.
        let mut epoch = snapshot_epoch;
        match vfs.read(WAL_FILE)? {
            None => {
                // First boot (or the WAL vanished after a clean checkpoint):
                // start a fresh log continuing the snapshot's numbering.
                vfs.write_atomic(WAL_FILE, &wal_header(epoch, snapshot_ops))?;
            }
            Some(bytes) => {
                let parsed = parse_wal(&bytes)?;
                if parsed.epoch > snapshot_epoch {
                    return Err(StoreError::Corrupt {
                        offset: 8,
                        reason: format!(
                            "wal epoch {} is newer than snapshot epoch {} — snapshot lost",
                            parsed.epoch, snapshot_epoch
                        ),
                    });
                }
                if parsed.base > snapshot_ops {
                    return Err(StoreError::Corrupt {
                        offset: 16,
                        reason: format!(
                            "wal base {} skips past snapshot op count {snapshot_ops} — \
                             operations missing",
                            parsed.base
                        ),
                    });
                }
                let wal_end = parsed.base + parsed.records.len();
                if snapshot_ops >= wal_end && (snapshot_ops > parsed.base || parsed.torn.is_some())
                {
                    // The snapshot already covers everything this WAL holds
                    // (a crash landed between snapshot rename and WAL swap
                    // during a checkpoint): retire the stale log.
                    report.torn_tail = parsed.torn;
                    vfs.write_atomic(WAL_FILE, &wal_header(epoch, snapshot_ops))?;
                } else {
                    epoch = epoch.max(parsed.epoch);
                    // Replay the records the snapshot has not captured.
                    let skip = snapshot_ops - parsed.base;
                    for op in parsed.records.into_iter().skip(skip) {
                        apply_replayed(&mut store, op)?;
                        report.replayed += 1;
                    }
                    if parsed.torn.is_some() {
                        // Trim the torn bytes so future appends extend a
                        // clean prefix.
                        vfs.write_atomic(WAL_FILE, &bytes[..parsed.valid_len])?;
                    }
                    report.torn_tail = parsed.torn;
                }
            }
        }

        let wal = vfs.open_append(WAL_FILE)?;
        Ok((
            DurableStore {
                vfs,
                store,
                wal,
                record: Vec::new(),
                epoch,
                policy,
                unsynced: 0,
            },
            report,
        ))
    }

    /// Read access to the store: its catalog and operation count.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The current snapshot/WAL epoch (bumped by every checkpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fsync policy in effect.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// WAL appends acknowledged since the last fsync (group-commit debt).
    pub fn pending_sync(&self) -> usize {
        self.unsynced
    }

    /// Creates a table, write-ahead logged.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        attributes: Option<Vec<String>>,
    ) -> Result<(), StoreError> {
        let name = name.into();
        // Pre-validate so the WAL only ever records operations that apply
        // cleanly: the on-disk stream must replay change-for-change.
        if self.store.has_table(&name) {
            return Err(StoreError::DuplicateTable(name));
        }
        self.log(&Operation::CreateTable {
            name: &name,
            arity,
            attributes: attributes.as_deref().map(Cow::Borrowed),
        })?;
        self.store.create_table(name, arity, attributes)
    }

    /// Inserts a row, write-ahead logged.  Returns `true` if the row was
    /// new; a duplicate insert touches neither the WAL nor the catalog.
    pub fn insert(&mut self, table: &str, row: Tuple) -> Result<bool, StoreError> {
        let name = self.store.resolve(table, &row)?;
        if self.store.database().contains(name, &row) {
            return Ok(false);
        }
        self.log(&Operation::Insert {
            table,
            row: Cow::Borrowed(&row),
        })?;
        self.store.insert(table, row)
    }

    /// Retracts a row, write-ahead logged.  Returns `true` if the row was
    /// present; retracting an absent row touches neither the WAL nor the
    /// catalog, and a row of the wrong arity is an
    /// [`StoreError::ArityMismatch`].
    pub fn retract(&mut self, table: &str, row: &Tuple) -> Result<bool, StoreError> {
        let name = self.store.resolve(table, row)?;
        if !self.store.database().contains(name, row) {
            return Ok(false);
        }
        self.log(&Operation::Retract {
            table,
            row: Cow::Borrowed(row),
        })?;
        self.store.retract(table, row)
    }

    /// Forces every acknowledged append to stable storage, regardless of
    /// policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 || matches!(self.policy, FsyncPolicy::Never) {
            self.wal.sync()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Checkpoints the store: writes a snapshot of the current state (temp
    /// file + fsync + atomic rename), then — only once the snapshot is
    /// durable — truncates the WAL to a fresh epoch whose base offset is the
    /// snapshot's operation count.
    ///
    /// A crash at *any* point leaves a recoverable pair: before the snapshot
    /// rename the old snapshot + full WAL still recover; between rename and
    /// WAL swap the new snapshot subsumes the stale WAL, which recovery
    /// detects by op count and retires.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let next_epoch = self.epoch + 1;
        let op_count = self.store.op_count();
        let snapshot = encode_snapshot(&self.store, next_epoch);
        self.vfs.write_atomic(SNAPSHOT_FILE, &snapshot)?;
        // Snapshot is durable; the WAL records it covers are now redundant.
        self.vfs
            .write_atomic(WAL_FILE, &wal_header(next_epoch, op_count))?;
        self.wal = self.vfs.open_append(WAL_FILE)?;
        self.epoch = next_epoch;
        self.unsynced = 0;
        Ok(())
    }

    /// Appends `op` as a checksummed WAL record and applies the fsync
    /// policy.  Called *before* the catalog apply (write-ahead ordering): on
    /// error the catalog is untouched.
    fn log(&mut self, op: &Operation<'_>) -> Result<(), StoreError> {
        self.record.clear();
        encode_record(&mut self.record, op);
        self.wal.append(&self.record)?;
        match self.policy {
            FsyncPolicy::Always => self.wal.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.wal.sync()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }
}

/// Applies one replayed WAL operation to the store being recovered.  The WAL
/// only ever records operations that changed state, so a replay that turns
/// out to be a no-op means the log and snapshot disagree — corruption that
/// slipped past the checksums, surfaced loudly rather than absorbed.
fn apply_replayed(store: &mut Store, op: Operation<'_>) -> Result<(), StoreError> {
    let changed = match op {
        Operation::CreateTable {
            name,
            arity,
            attributes,
        } => {
            store.create_table(name, arity, attributes.map(Cow::into_owned))?;
            true
        }
        Operation::Insert { table, row } => store.insert(table, row.into_owned())?,
        Operation::Retract { table, row } => store.retract(table, &row)?,
    };
    if !changed {
        return Err(StoreError::Corrupt {
            offset: 0,
            reason: "wal record replayed as a no-op — log and snapshot disagree".to_string(),
        });
    }
    Ok(())
}

/// Encodes the whole catalog, tables in name order and rows sorted, with the
/// store's operation count.
fn encode_snapshot(store: &Store, epoch: u64) -> Vec<u8> {
    let catalog = store.snapshot();
    let mut body = Vec::new();
    codec::put_u64(&mut body, epoch);
    codec::put_u64(&mut body, store.op_count() as u64);
    codec::put_u32(&mut body, store.tables().count() as u32);
    for table in store.tables() {
        codec::put_str(&mut body, table.name.as_str());
        codec::put_u32(&mut body, table.arity as u32);
        put_attributes(&mut body, table.attributes.as_deref());
        let rows = catalog.get(&table.name).expect("every table is resident");
        codec::put_u64(&mut body, rows.len() as u64);
        for row in rows.iter() {
            codec::put_tuple(&mut body, row);
        }
    }
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(SNAP_MAGIC);
    codec::put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Decodes a snapshot into a rebuilt [`Store`] (its operation count the one
/// the snapshot captured) plus the snapshot's epoch.  Each relation is built
/// once from its decoded rows.  Snapshots are written atomically, so *any*
/// damage — short file, bad magic, checksum or structural mismatch — is
/// hard corruption.
fn decode_snapshot(bytes: &[u8]) -> Result<(Store, u64), StoreError> {
    if bytes.len() < 12 || &bytes[..8] != SNAP_MAGIC {
        return Err(StoreError::Corrupt {
            offset: 0,
            reason: format!(
                "bad snapshot header: {}",
                if bytes.len() < 12 {
                    format!("{} bytes, need at least 12", bytes.len())
                } else {
                    "magic mismatch".to_string()
                }
            ),
        });
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    let actual = crc32(body);
    if actual != stored_crc {
        return Err(StoreError::Corrupt {
            offset: 8,
            reason: format!(
                "snapshot checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
            ),
        });
    }
    let corrupt = |e: codec::DecodeError| {
        let e = e.offset_by(12);
        StoreError::Corrupt {
            offset: e.offset as u64,
            reason: e.reason,
        }
    };
    let mut r = Reader::new(body);
    let epoch = r.get_u64("snapshot epoch").map_err(corrupt)?;
    let op_count = r.get_u64("snapshot op count").map_err(corrupt)? as usize;
    let table_count = r.get_u32("table count").map_err(corrupt)? as usize;
    let mut instance = Instance::empty(&Schema::empty());
    let mut attributes = BTreeMap::new();
    for _ in 0..table_count {
        let name = r.get_str("table name").map_err(corrupt)?;
        let arity = r.get_u32("table arity").map_err(corrupt)? as usize;
        if let Some(attrs) = get_attributes(&mut r).map_err(corrupt)? {
            attributes.insert(name.to_string(), attrs);
        }
        if !instance.ensure_relation(name, arity)? {
            return Err(StoreError::DuplicateTable(name.to_string()));
        }
        let row_count = r.get_u64("row count").map_err(corrupt)? as usize;
        if row_count > r.remaining() {
            return Err(StoreError::Corrupt {
                offset: (12 + r.position()) as u64,
                reason: format!(
                    "row count {row_count} exceeds the {} remaining bytes",
                    r.remaining()
                ),
            });
        }
        let mut rows = Vec::new();
        for _ in 0..row_count {
            rows.push(r.get_tuple().map_err(corrupt)?);
        }
        instance.insert_bulk(name, &mut rows)?;
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt {
            offset: (12 + r.position()) as u64,
            reason: format!("{} trailing bytes after last table", r.remaining()),
        });
    }
    Ok((Store::restore(instance, attributes, op_count), epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{decode_operation, encode_operation, WAL_HEADER_LEN};
    use crate::{Fault, FaultVfs, MemVfs};
    use rtx_relational::Value;

    fn open_mem(vfs: &MemVfs) -> (DurableStore, RecoveryReport) {
        DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap()
    }

    fn seed(store: &mut DurableStore) {
        store.create_table("price", 2, None).unwrap();
        for (p, amt) in [("time", 855), ("newsweek", 845)] {
            store
                .insert("price", Tuple::new(vec![Value::str(p), Value::int(amt)]))
                .unwrap();
        }
    }

    #[test]
    fn reopen_recovers_from_the_wal_alone() {
        let vfs = MemVfs::new();
        let (mut store, report) = open_mem(&vfs);
        assert_eq!(report, RecoveryReport::default());
        seed(&mut store);
        store
            .retract(
                "price",
                &Tuple::new(vec![Value::str("time"), Value::int(855)]),
            )
            .unwrap();
        let expect = store.store().snapshot();
        drop(store); // "crash": no checkpoint ever ran

        let (recovered, report) = open_mem(&vfs);
        assert_eq!(report.snapshot_ops, 0);
        assert_eq!(report.replayed, 4);
        assert_eq!(report.torn_tail, None);
        assert_eq!(recovered.store().snapshot(), expect);
        // Absolute numbering continues where the log left off.
        assert_eq!(recovered.store().op_count(), 4);
    }

    #[test]
    fn checkpoint_then_reopen_uses_the_snapshot() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        store.checkpoint().unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.store().op_count(), 3);
        // Post-checkpoint writes land in the fresh WAL tail.
        store
            .insert(
                "price",
                Tuple::new(vec![Value::str("lemonde"), Value::int(8350)]),
            )
            .unwrap();
        let expect = store.store().snapshot();
        drop(store);

        let (recovered, report) = open_mem(&vfs);
        assert_eq!(report.snapshot_ops, 3);
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.store().snapshot(), expect);
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(recovered.store().op_count(), 4);

        // Duplicate-table creation still rejected after recovery.
        assert!(matches!(
            {
                let mut r = recovered;
                r.create_table("price", 2, None)
            },
            Err(StoreError::DuplicateTable(_))
        ));
    }

    #[test]
    fn torn_tail_is_dropped_gracefully_and_trimmed() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        drop(store);
        // Tear the last record: chop 3 bytes off the WAL.
        let len = vfs.len_of(WAL_FILE).unwrap();
        vfs.truncate(WAL_FILE, len - 3);

        let (recovered, report) = open_mem(&vfs);
        let torn = report.torn_tail.expect("tail was torn");
        assert!(torn.reason.contains("truncated"), "{}", torn.reason);
        assert_eq!(report.replayed, 2); // create + first insert survive
        assert_eq!(
            recovered
                .store()
                .snapshot()
                .relation("price")
                .unwrap()
                .len(),
            1
        );
        drop(recovered);

        // The torn bytes were trimmed: a second recovery is clean.
        let (_, report) = open_mem(&vfs);
        assert_eq!(report.torn_tail, None);
        assert_eq!(report.replayed, 2);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error_with_offset() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        drop(store);
        // Flip a byte inside the FIRST record's payload (header is 24
        // bytes, record header 8 more).
        vfs.corrupt_byte(WAL_FILE, WAL_HEADER_LEN + 8 + 2);

        let err = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap_err();
        match err {
            StoreError::Corrupt { offset, reason } => {
                assert_eq!(offset, WAL_HEADER_LEN as u64);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        store.checkpoint().unwrap();
        drop(store);
        vfs.corrupt_byte(SNAPSHOT_FILE, 20);
        let err = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn crash_between_snapshot_and_wal_swap_recovers() {
        // Checkpoint's danger window: the new snapshot is renamed into
        // place, then the crash hits before the WAL is reset.  Recovery
        // must notice the stale WAL (its ops are all covered) and retire it.
        let vfs = MemVfs::new();
        let (mut store, _) = open_mem(&vfs);
        seed(&mut store);
        let expect = store.store().snapshot();
        // Hand-roll the first half of a checkpoint.
        let snap = encode_snapshot(store.store(), 1);
        vfs.write_atomic(SNAPSHOT_FILE, &snap).unwrap();
        drop(store); // crash before the WAL swap

        let (recovered, report) = open_mem(&vfs);
        assert_eq!(report.snapshot_ops, 3);
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.store().snapshot(), expect);
        assert_eq!(recovered.store().op_count(), 3);
    }

    #[test]
    fn group_commit_syncs_every_n() {
        let vfs = MemVfs::new();
        let (mut store, _) =
            DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::EveryN(3)).unwrap();
        store.create_table("t", 1, None).unwrap();
        assert_eq!(store.pending_sync(), 1);
        store
            .insert("t", Tuple::from_iter(vec![Value::int(1)]))
            .unwrap();
        assert_eq!(store.pending_sync(), 2);
        store
            .insert("t", Tuple::from_iter(vec![Value::int(2)]))
            .unwrap(); // third append: group commits
        assert_eq!(store.pending_sync(), 0);
        store
            .insert("t", Tuple::from_iter(vec![Value::int(3)]))
            .unwrap();
        assert_eq!(store.pending_sync(), 1);
        store.sync().unwrap();
        assert_eq!(store.pending_sync(), 0);
    }

    #[test]
    fn wal_append_failure_leaves_memory_untouched() {
        // Fault the 6th I/O op: snapshot read (1), wal read (2), header
        // write (3), create append (4), create fsync (5), insert append
        // (6) — the insert's WAL write fails, so the in-memory store must
        // not apply it either.
        let vfs = MemVfs::new();
        let faulty = FaultVfs::new(vfs.clone(), 6, Fault::Error);
        let (mut store, _) = DurableStore::open(Arc::new(faulty), FsyncPolicy::Always).unwrap();
        store.create_table("t", 1, None).unwrap();
        let row = Tuple::from_iter(vec![Value::int(1)]);
        assert!(matches!(
            store.insert("t", row.clone()),
            Err(StoreError::Io { .. })
        ));
        assert!(store.store().snapshot().relation("t").unwrap().is_empty());
        assert_eq!(store.store().op_count(), 1);
        // The fault was transient: the same insert goes through now.
        assert!(store.insert("t", row).unwrap());
        assert_eq!(store.store().snapshot().relation("t").unwrap().len(), 1);
    }

    #[test]
    fn rtx_fsync_override_parses_strictly() {
        // Unset or blank means "no override" under the shared RTX_* contract.
        assert_eq!(FsyncPolicy::from_env(None), Ok(None));
        assert_eq!(FsyncPolicy::from_env(Some("")), Ok(None));
        assert_eq!(FsyncPolicy::from_env(Some("  ")), Ok(None));
        // Well-formed values trim surrounding whitespace and ignore keyword
        // case, like every other RTX_* variable.
        assert_eq!(
            FsyncPolicy::from_env(Some("always")),
            Ok(Some(FsyncPolicy::Always))
        );
        assert_eq!(
            FsyncPolicy::from_env(Some(" Never ")),
            Ok(Some(FsyncPolicy::Never))
        );
        assert_eq!(
            FsyncPolicy::from_env(Some("every:8")),
            Ok(Some(FsyncPolicy::EveryN(8)))
        );
        // Malformed values are hard errors naming the variable — no signs,
        // no zero, no inner spaces, no garbage.
        for bad in [
            "every:",
            "every:0",
            "every:-2",
            "every: 3",
            "every:3x",
            "3",
            "sometimes",
            "alwaysnever",
        ] {
            let err = FsyncPolicy::from_env(Some(bad)).unwrap_err();
            assert_eq!(err.var, "RTX_FSYNC", "{bad:?}");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn operation_codec_round_trips() {
        let ops = vec![
            Operation::CreateTable {
                name: "t",
                arity: 2,
                attributes: Some(Cow::Owned(vec!["a".into(), "b".into()])),
            },
            Operation::CreateTable {
                name: "",
                arity: 0,
                attributes: None,
            },
            Operation::Insert {
                table: "t",
                row: Cow::Owned(Tuple::new(vec![Value::str("x\"y\n"), Value::int(i64::MIN)])),
            },
            Operation::Retract {
                table: "t",
                row: Cow::Owned(Tuple::new(vec![Value::str(""), Value::int(-1)])),
            },
        ];
        for op in &ops {
            let mut bytes = Vec::new();
            encode_operation(&mut bytes, op);
            let mut r = Reader::new(&bytes);
            assert_eq!(&decode_operation(&mut r).unwrap(), op);
            assert!(r.is_empty());
            // Every truncation errors, never panics.
            for cut in 0..bytes.len() {
                assert!(decode_operation(&mut Reader::new(&bytes[..cut])).is_err());
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// A snapshot written by the encoder that kept rows in insertion order:
    /// `price` (with attribute names), `available` and `category`, 12 rows
    /// in all, several inserted out of sorted order; 15 operations, epoch 1.
    const INSERTION_ORDER_SNAPSHOT: &[u8] = &[
        0x52, 0x54, 0x58, 0x53, 0x4e, 0x41, 0x50, 0x31, 0x53, 0x2b, 0x84, 0x8c, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x61, 0x76, 0x61, 0x69, 0x6c, 0x61, 0x62, 0x6c, 0x65,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x74, 0x69, 0x6d, 0x65, 0x01, 0x00, 0x00, 0x00,
        0x01, 0x09, 0x00, 0x00, 0x00, 0x65, 0x63, 0x6f, 0x6e, 0x6f, 0x6d, 0x69, 0x73, 0x74, 0x01,
        0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x6c, 0x65, 0x6d, 0x6f, 0x6e, 0x64, 0x65,
        0x01, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00, 0x61, 0x74, 0x6c, 0x61, 0x6e, 0x74,
        0x69, 0x63, 0x08, 0x00, 0x00, 0x00, 0x63, 0x61, 0x74, 0x65, 0x67, 0x6f, 0x72, 0x79, 0x02,
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x6e, 0x65, 0x77, 0x73, 0x01, 0x04, 0x00, 0x00, 0x00,
        0x74, 0x69, 0x6d, 0x65, 0x02, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x6e, 0x65,
        0x77, 0x73, 0x01, 0x08, 0x00, 0x00, 0x00, 0x6e, 0x65, 0x77, 0x73, 0x77, 0x65, 0x65, 0x6b,
        0x02, 0x00, 0x00, 0x00, 0x01, 0x05, 0x00, 0x00, 0x00, 0x64, 0x61, 0x69, 0x6c, 0x79, 0x01,
        0x07, 0x00, 0x00, 0x00, 0x6c, 0x65, 0x6d, 0x6f, 0x6e, 0x64, 0x65, 0x05, 0x00, 0x00, 0x00,
        0x70, 0x72, 0x69, 0x63, 0x65, 0x02, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x07,
        0x00, 0x00, 0x00, 0x70, 0x72, 0x6f, 0x64, 0x75, 0x63, 0x74, 0x06, 0x00, 0x00, 0x00, 0x61,
        0x6d, 0x6f, 0x75, 0x6e, 0x74, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x74, 0x69, 0x6d, 0x65, 0x00, 0x57, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x07, 0x00, 0x00, 0x00, 0x6c,
        0x65, 0x6d, 0x6f, 0x6e, 0x64, 0x65, 0x00, 0x9e, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00, 0x6e, 0x65, 0x77, 0x73, 0x77, 0x65,
        0x65, 0x6b, 0x00, 0x4d, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x01, 0x09, 0x00, 0x00, 0x00, 0x65, 0x63, 0x6f, 0x6e, 0x6f, 0x6d, 0x69, 0x73, 0x74, 0x00,
        0xbc, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00,
        0x00, 0x00, 0x61, 0x74, 0x6c, 0x61, 0x6e, 0x74, 0x69, 0x63, 0x00, 0xf4, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff,
    ];

    /// The WAL tail written after that snapshot: insert `price(herald, 500)`,
    /// retract `price(newsweek, 845)`, insert `available(herald)`, retract
    /// `available(time)`.
    const INSERTION_ORDER_WAL: &[u8] = &[
        0x52, 0x54, 0x58, 0x57, 0x41, 0x4c, 0x31, 0x0a, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x22, 0x00, 0x00, 0x00, 0x5d, 0x47,
        0x0d, 0x21, 0x01, 0x05, 0x00, 0x00, 0x00, 0x70, 0x72, 0x69, 0x63, 0x65, 0x02, 0x00, 0x00,
        0x00, 0x01, 0x06, 0x00, 0x00, 0x00, 0x68, 0x65, 0x72, 0x61, 0x6c, 0x64, 0x00, 0xf4, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x00, 0x00, 0x00, 0x3e, 0x27, 0x77, 0x4f, 0x02,
        0x05, 0x00, 0x00, 0x00, 0x70, 0x72, 0x69, 0x63, 0x65, 0x02, 0x00, 0x00, 0x00, 0x01, 0x08,
        0x00, 0x00, 0x00, 0x6e, 0x65, 0x77, 0x73, 0x77, 0x65, 0x65, 0x6b, 0x00, 0x4d, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x1d, 0x00, 0x00, 0x00, 0x84, 0xec, 0x05, 0x96, 0x01, 0x09,
        0x00, 0x00, 0x00, 0x61, 0x76, 0x61, 0x69, 0x6c, 0x61, 0x62, 0x6c, 0x65, 0x01, 0x00, 0x00,
        0x00, 0x01, 0x06, 0x00, 0x00, 0x00, 0x68, 0x65, 0x72, 0x61, 0x6c, 0x64, 0x1b, 0x00, 0x00,
        0x00, 0xb2, 0x85, 0xa1, 0xbf, 0x02, 0x09, 0x00, 0x00, 0x00, 0x61, 0x76, 0x61, 0x69, 0x6c,
        0x61, 0x62, 0x6c, 0x65, 0x01, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x74, 0x69,
        0x6d, 0x65,
    ];

    #[test]
    fn files_from_the_insertion_order_encoder_recover() {
        let vfs = MemVfs::new();
        vfs.write_atomic(SNAPSHOT_FILE, INSERTION_ORDER_SNAPSHOT)
            .unwrap();
        vfs.write_atomic(WAL_FILE, INSERTION_ORDER_WAL).unwrap();
        let (recovered, report) = open_mem(&vfs);
        assert_eq!(
            report,
            RecoveryReport {
                snapshot_ops: 15,
                replayed: 4,
                torn_tail: None,
            }
        );
        assert_eq!((recovered.epoch(), recovered.store().op_count()), (1, 19));
        let price = |p: &str, amount: i64| Tuple::new(vec![Value::str(p), Value::int(amount)]);
        let one = |p: &str| Tuple::from_iter([p]);
        let schema = Schema::from_pairs([("available", 1), ("category", 2), ("price", 2)]).unwrap();
        let expect = Instance::from_facts(
            &schema,
            [
                (
                    "price",
                    vec![
                        price("time", 855),
                        price("lemonde", 8350),
                        price("economist", 700),
                        price("atlantic", -12),
                        price("herald", 500),
                    ],
                ),
                (
                    "available",
                    ["economist", "lemonde", "atlantic", "herald"]
                        .map(one)
                        .to_vec(),
                ),
                (
                    "category",
                    vec![
                        Tuple::from_iter(["news", "time"]),
                        Tuple::from_iter(["news", "newsweek"]),
                        Tuple::from_iter(["daily", "lemonde"]),
                    ],
                ),
            ],
        )
        .unwrap();
        assert_eq!(recovered.store().snapshot(), expect);
        let price = recovered
            .store()
            .tables()
            .find(|t| t.name.as_str() == "price");
        assert_eq!(
            price.unwrap().attributes,
            Some(vec!["product".to_string(), "amount".to_string()])
        );

        // Today's encoder writes the snapshot's catalog in the same number
        // of bytes: only the row order differs.
        let vfs = MemVfs::new();
        vfs.write_atomic(SNAPSHOT_FILE, INSERTION_ORDER_SNAPSHOT)
            .unwrap();
        let (snapshot_only, report) = open_mem(&vfs);
        assert_eq!((report.snapshot_ops, report.replayed), (15, 0));
        let rewritten = encode_snapshot(snapshot_only.store(), 1);
        assert_eq!(rewritten.len(), INSERTION_ORDER_SNAPSHOT.len());
        assert_ne!(rewritten, INSERTION_ORDER_SNAPSHOT);
        let (reloaded, epoch) = decode_snapshot(&rewritten).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(reloaded.snapshot(), snapshot_only.store().snapshot());
    }
}
