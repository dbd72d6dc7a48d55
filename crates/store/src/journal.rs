//! The write-ahead journal's on-disk format: operation records and the WAL
//! file.
//!
//! The WAL (`wal`) is a 24-byte header — magic, epoch, base offset — followed
//! by records, each `len: u32 | crc32: u32 | payload`, where the payload is
//! one [`Operation`] encoded with the [`rtx_relational::codec`] (symbols by
//! text: the symbol-resolution boundary).  The record with ordinal `i` holds
//! the operation with *absolute* index `base + i`, the numbering of
//! [`Store::op_count`](crate::Store::op_count).  Only operations that changed
//! the catalog are ever recorded, so replay is change-for-change.

use crate::StoreError;
use rtx_relational::codec::{self, Reader};
use rtx_relational::Tuple;
use std::borrow::Cow;

pub(crate) const WAL_FILE: &str = "wal";
const WAL_MAGIC: &[u8; 8] = b"RTXWAL1\n";
pub(crate) const WAL_HEADER_LEN: usize = 8 + 8 + 8;

const OP_CREATE: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_RETRACT: u8 = 2;

/// The CRC32 (IEEE) lookup table, computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3 polynomial) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One WAL record.  A record being written borrows the caller's name and
/// row; a decoded one owns its row.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Operation<'a> {
    /// A table was created.
    CreateTable {
        name: &'a str,
        arity: usize,
        attributes: Option<Cow<'a, [String]>>,
    },
    /// A row was inserted.
    Insert { table: &'a str, row: Cow<'a, Tuple> },
    /// A row was retracted.
    Retract { table: &'a str, row: Cow<'a, Tuple> },
}

/// Appends the payload encoding of `op` to `out`.
pub(crate) fn encode_operation(out: &mut Vec<u8>, op: &Operation<'_>) {
    match op {
        Operation::CreateTable {
            name,
            arity,
            attributes,
        } => {
            out.push(OP_CREATE);
            codec::put_str(out, name);
            codec::put_u32(out, *arity as u32);
            put_attributes(out, attributes.as_deref());
        }
        Operation::Insert { table, row } => {
            out.push(OP_INSERT);
            codec::put_str(out, table);
            codec::put_tuple(out, row);
        }
        Operation::Retract { table, row } => {
            out.push(OP_RETRACT);
            codec::put_str(out, table);
            codec::put_tuple(out, row);
        }
    }
}

/// Appends optional attribute names: a flag byte, then the count and the
/// names.  Table creations in the WAL and tables in a snapshot share it.
pub(crate) fn put_attributes(out: &mut Vec<u8>, attributes: Option<&[String]>) {
    match attributes {
        None => out.push(0),
        Some(attrs) => {
            out.push(1);
            codec::put_u32(out, attrs.len() as u32);
            for a in attrs {
                codec::put_str(out, a);
            }
        }
    }
}

/// Reads what [`put_attributes`] wrote.
pub(crate) fn get_attributes(
    r: &mut Reader<'_>,
) -> Result<Option<Vec<String>>, codec::DecodeError> {
    match r.get_u8("attributes flag")? {
        0 => Ok(None),
        1 => {
            let count = r.get_u32("attribute count")? as usize;
            if count > r.remaining() {
                return Err(codec::DecodeError {
                    offset: r.position(),
                    reason: format!(
                        "attribute count {count} exceeds the {} remaining bytes",
                        r.remaining()
                    ),
                });
            }
            let names = (0..count).map(|_| r.get_str("attribute name").map(str::to_string));
            names.collect::<Result<_, _>>().map(Some)
        }
        flag => Err(codec::DecodeError {
            offset: r.position() - 1,
            reason: format!("invalid attributes flag {flag}"),
        }),
    }
}

/// Appends `op` to `out` as one framed record: `len | crc32 | payload`.
pub(crate) fn encode_record(out: &mut Vec<u8>, op: &Operation<'_>) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    encode_operation(out, op);
    let len = (out.len() - start - 8) as u32;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

pub(crate) fn decode_operation<'a>(
    r: &mut Reader<'a>,
) -> Result<Operation<'a>, codec::DecodeError> {
    let at = r.position();
    match r.get_u8("operation tag")? {
        OP_CREATE => {
            let name = r.get_str("table name")?;
            let arity = r.get_u32("table arity")? as usize;
            let attributes = get_attributes(r)?.map(Cow::Owned);
            Ok(Operation::CreateTable {
                name,
                arity,
                attributes,
            })
        }
        OP_INSERT => Ok(Operation::Insert {
            table: r.get_str("table name")?,
            row: Cow::Owned(r.get_tuple()?),
        }),
        OP_RETRACT => Ok(Operation::Retract {
            table: r.get_str("table name")?,
            row: Cow::Owned(r.get_tuple()?),
        }),
        tag => Err(codec::DecodeError {
            offset: at,
            reason: format!("unknown operation tag {tag}"),
        }),
    }
}

/// A dropped torn tail: where the final, incomplete WAL record started and
/// why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset into the WAL file where the torn record begins.
    pub offset: u64,
    /// Why the record was rejected (truncated header, short payload…).
    pub reason: String,
}

pub(crate) fn wal_header(epoch: u64, base: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    codec::put_u64(&mut out, epoch);
    codec::put_u64(&mut out, base as u64);
    out
}

pub(crate) struct ParsedWal<'a> {
    pub(crate) epoch: u64,
    pub(crate) base: usize,
    pub(crate) records: Vec<Operation<'a>>,
    /// Byte length of the valid prefix (header + intact records).
    pub(crate) valid_len: usize,
    pub(crate) torn: Option<TornTail>,
}

/// Parses a WAL file: header, then records until end-of-file.  An incomplete
/// **final** record (its bytes run out at EOF) is a torn tail — reported,
/// not fatal.  A complete record that fails its checksum or does not decode
/// is corruption — fatal, with the offending byte offset.
pub(crate) fn parse_wal(bytes: &[u8]) -> Result<ParsedWal<'_>, StoreError> {
    if bytes.len() < WAL_HEADER_LEN || &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::Corrupt {
            offset: 0,
            reason: format!(
                "bad wal header: {}",
                if bytes.len() < WAL_HEADER_LEN {
                    format!("{} bytes, need {WAL_HEADER_LEN}", bytes.len())
                } else {
                    "magic mismatch".to_string()
                }
            ),
        });
    }
    let mut header = Reader::new(&bytes[8..WAL_HEADER_LEN]);
    let epoch = header.get_u64("wal epoch").expect("16 header bytes");
    let base = header.get_u64("wal base").expect("16 header bytes") as usize;

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut torn = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            torn = Some(TornTail {
                offset: pos as u64,
                reason: format!("record header truncated: {remaining} of 8 bytes"),
            });
            break;
        }
        let mut head = Reader::new(&bytes[pos..pos + 8]);
        let len = head.get_u32("record length").expect("8 bytes") as usize;
        let crc = head.get_u32("record checksum").expect("8 bytes");
        if remaining - 8 < len {
            torn = Some(TornTail {
                offset: pos as u64,
                reason: format!("record payload truncated: {} of {len} bytes", remaining - 8),
            });
            break;
        }
        // The record's bytes are fully present: any mismatch from here on is
        // corruption, not a tear.
        let payload = &bytes[pos + 8..pos + 8 + len];
        let actual = crc32(payload);
        if actual != crc {
            return Err(StoreError::Corrupt {
                offset: pos as u64,
                reason: format!(
                    "record checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"
                ),
            });
        }
        let mut r = Reader::new(payload);
        let op = decode_operation(&mut r).map_err(|e| {
            let e = e.offset_by(pos + 8);
            StoreError::Corrupt {
                offset: e.offset as u64,
                reason: e.reason,
            }
        })?;
        if !r.is_empty() {
            return Err(StoreError::Corrupt {
                offset: (pos + 8 + r.position()) as u64,
                reason: format!("{} trailing bytes after operation", r.remaining()),
            });
        }
        records.push(op);
        pos += 8 + len;
    }
    Ok(ParsedWal {
        epoch,
        base,
        records,
        valid_len: pos,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableStore, FsyncPolicy, MemVfs, Vfs};
    use rtx_relational::Value;
    use std::sync::Arc;

    fn open(vfs: &MemVfs) -> DurableStore {
        DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Always)
            .unwrap()
            .0
    }

    fn row(i: i64) -> Tuple {
        Tuple::from_iter(vec![Value::int(i)])
    }

    /// The WAL on `vfs`: `(epoch, base, record count)`.
    fn wal(vfs: &MemVfs) -> (u64, usize, usize) {
        let bytes = vfs.read(WAL_FILE).unwrap().unwrap();
        let parsed = parse_wal(&bytes).unwrap();
        assert_eq!((parsed.valid_len, parsed.torn), (bytes.len(), None));
        (parsed.epoch, parsed.base, parsed.records.len())
    }

    #[test]
    fn journal_records_in_order() {
        let vfs = MemVfs::new();
        let mut store = open(&vfs);
        assert_eq!(wal(&vfs), (0, 0, 0));
        store.create_table("price", 2, None).unwrap();
        let time = Tuple::from_iter(vec![Value::str("time"), Value::int(855)]);
        assert!(store.insert("price", time.clone()).unwrap());
        // Operations that change nothing never reach the WAL.
        assert!(!store.insert("price", time.clone()).unwrap());
        assert!(!store.retract("price", &row(1).concat(&row(2))).unwrap());
        assert!(store.retract("price", &time).unwrap());
        let bytes = vfs.read(WAL_FILE).unwrap().unwrap();
        assert_eq!(
            parse_wal(&bytes).unwrap().records,
            vec![
                Operation::CreateTable {
                    name: "price",
                    arity: 2,
                    attributes: None,
                },
                Operation::Insert {
                    table: "price",
                    row: Cow::Owned(time.clone()),
                },
                Operation::Retract {
                    table: "price",
                    row: Cow::Owned(time),
                },
            ]
        );
        assert_eq!(store.store().op_count(), 3);
    }

    #[test]
    fn clear_advances_the_base_monotonically() {
        let vfs = MemVfs::new();
        let mut store = open(&vfs);
        store.create_table("t", 1, None).unwrap();
        for i in 0..2 {
            store.insert("t", row(i)).unwrap();
        }
        assert_eq!(wal(&vfs), (0, 0, 3));
        // A checkpoint starts a new epoch whose base is the operation count:
        // the next record is operation #3.
        store.checkpoint().unwrap();
        assert_eq!(wal(&vfs), (1, 3, 0));
        store.insert("t", row(99)).unwrap();
        assert_eq!(wal(&vfs), (1, 3, 1));
        store.checkpoint().unwrap();
        assert_eq!(wal(&vfs), (2, 4, 0));
        assert_eq!(store.store().op_count(), 4);
    }

    #[test]
    fn rebase_fast_forwards_an_empty_journal() {
        // Recovery from a snapshot alone resumes the absolute numbering at
        // the snapshot's operation count, and appends continue from there.
        let vfs = MemVfs::new();
        let mut store = open(&vfs);
        store.create_table("t", 1, None).unwrap();
        for i in 0..6 {
            store.insert("t", row(i)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);
        let mut store = open(&vfs);
        assert_eq!(store.store().op_count(), 7);
        assert_eq!(wal(&vfs), (1, 7, 0));
        store.retract("t", &row(0)).unwrap();
        drop(store);
        let store = open(&vfs);
        assert_eq!(store.store().op_count(), 8);
        assert_eq!(wal(&vfs), (1, 7, 1));
    }
}
