//! Logging and recovery (§4.5).
//!
//! The paper's recovery design rests on three observations:
//!
//! 1. **Replace** modifies leaf pages without touching the index, so it
//!    is protected by write-ahead logging of before/after images.
//! 2. **Insert, delete and append** do the opposite — they modify only
//!    index pages and never overwrite existing leaf pages — so shadowing
//!    the (small) index pages suffices; the byte-reshuffling rules were
//!    designed precisely so leaf segments are never overwritten.
//! 3. "Since no control information is kept on leaf segments, the log
//!    record of all updates must contain the operation that caused the
//!    update as well as its parameters, and the log sequence number of
//!    the update must be placed in the root page of the object to ensure
//!    that the update can be undone or redone idempotently."
//!
//! This module provides exactly that: an append-only [`Wal`] of logical
//! operation records, [`Wal::logged_replace`] (physical before/after
//! images, in-place apply), logical logging wrappers for the
//! index-modifying operations, and idempotent [`redo`]/[`undo`] driven
//! by the LSN stored in the object root.

use crate::error::Result;
use crate::object::LargeObject;
use crate::store::ObjectStore;

/// One logged update. `lsn` values are assigned in increasing order by
/// the [`Wal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Log sequence number.
    pub lsn: u64,
    /// Object the update applied to.
    pub object: u64,
    /// The operation and its parameters.
    pub op: LogOp,
}

/// The operation that caused an update, with its parameters — enough to
/// redo it forward or undo it backward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// In-place byte replace with physical before/after images.
    Replace {
        /// Byte offset of the replaced range.
        offset: u64,
        /// The overwritten bytes (undo image).
        before: Vec<u8>,
        /// The new bytes (redo image).
        after: Vec<u8>,
    },
    /// Logical insert.
    Insert {
        /// Insertion offset.
        offset: u64,
        /// Inserted bytes.
        bytes: Vec<u8>,
    },
    /// Logical delete; the deleted bytes are kept for undo.
    Delete {
        /// First deleted byte.
        offset: u64,
        /// The deleted content.
        bytes: Vec<u8>,
    },
    /// Logical append.
    Append {
        /// Appended bytes.
        bytes: Vec<u8>,
    },
}

/// An append-only, in-memory log. In a full DBMS this would sit on
/// stable storage; for the reproduction the crash-injection tests treat
/// the `Wal` plus a descriptor checkpoint as the stable state and drop
/// everything else.
///
/// ```
/// use eos_core::{ObjectStore, wal::{Wal, undo}};
///
/// let mut store = ObjectStore::in_memory(512, 2000);
/// let mut wal = Wal::new();
/// let mut obj = store.create_with(b"the quick brown fox", None).unwrap();
///
/// wal.logged_replace(&mut store, &mut obj, 4, b"slick").unwrap();
/// assert_eq!(store.read(&obj, 4, 5).unwrap(), b"slick");
///
/// // Undo via the before-image; idempotence is keyed on the root LSN.
/// let r = wal.records().last().unwrap().clone();
/// undo(&mut store, &mut obj, &r).unwrap();
/// assert_eq!(store.read(&obj, 4, 5).unwrap(), b"quick");
/// ```
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<LogRecord>,
    next_lsn: u64,
}

impl Wal {
    /// An empty log; LSNs start at 1 (0 means "never updated").
    pub fn new() -> Wal {
        Wal {
            records: Vec::new(),
            next_lsn: 1,
        }
    }

    /// All records in LSN order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Records for one object in LSN order.
    pub fn records_for(&self, object: u64) -> impl Iterator<Item = &LogRecord> {
        self.records.iter().filter(move |r| r.object == object)
    }

    /// The highest LSN handed out so far (the log tail); 0 if nothing
    /// was ever logged. No object root may carry an LSN beyond this.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    fn log(&mut self, object: u64, op: LogOp) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records.push(LogRecord { lsn, object, op });
        lsn
    }

    /// §4.5 replace: write the log record (old and new values) *before*
    /// updating in place, then stamp the object's root with the LSN.
    pub fn logged_replace(
        &mut self,
        store: &mut ObjectStore,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let before = store.read(obj, offset, data.len() as u64)?;
        let lsn = self.log(
            obj.id(),
            LogOp::Replace {
                offset,
                before,
                after: data.to_vec(),
            },
        );
        store.replace(obj, offset, data)?;
        obj.lsn = lsn;
        Ok(())
    }

    /// Logical insert with logging.
    pub fn logged_insert(
        &mut self,
        store: &mut ObjectStore,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let lsn = self.log(
            obj.id(),
            LogOp::Insert {
                offset,
                bytes: data.to_vec(),
            },
        );
        store.insert(obj, offset, data)?;
        obj.lsn = lsn;
        Ok(())
    }

    /// Logical delete with logging (captures the deleted bytes first so
    /// the operation can be undone).
    pub fn logged_delete(
        &mut self,
        store: &mut ObjectStore,
        obj: &mut LargeObject,
        offset: u64,
        len: u64,
    ) -> Result<()> {
        let bytes = store.read(obj, offset, len)?;
        let lsn = self.log(obj.id(), LogOp::Delete { offset, bytes });
        store.delete(obj, offset, len)?;
        obj.lsn = lsn;
        Ok(())
    }

    /// Logical append with logging.
    pub fn logged_append(
        &mut self,
        store: &mut ObjectStore,
        obj: &mut LargeObject,
        data: &[u8],
    ) -> Result<()> {
        let lsn = self.log(
            obj.id(),
            LogOp::Append {
                bytes: data.to_vec(),
            },
        );
        store.append(obj, data)?;
        obj.lsn = lsn;
        Ok(())
    }
}

// ---- serialization (durable logs / log shipping) -----------------------

/// Magic tag of a serialized log ("EOSL").
const WAL_MAGIC: u32 = 0x454F_534C; // format-anchor: WAL_MAGIC
/// Record tag: in-place replace with before/after images.
const TAG_REPLACE: u8 = 0; // format-anchor: WAL_TAG_REPLACE
/// Record tag: logical insert.
const TAG_INSERT: u8 = 1; // format-anchor: WAL_TAG_INSERT
/// Record tag: logical delete (deleted bytes kept for undo).
const TAG_DELETE: u8 = 2; // format-anchor: WAL_TAG_DELETE
/// Record tag: logical append.
const TAG_APPEND: u8 = 3; // format-anchor: WAL_TAG_APPEND

/// Number of durability classes in the L6 write-ordering contract
/// (DESIGN.md §15). The lint cross-checks this against both the
/// FORMAT.md anchor and the declared `// durability-class:` table, so
/// adding a class forces all three to move together.
pub const DURABILITY_CLASSES: usize = 5; // format-anchor: DURABILITY_CLASSES

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .at
            .checked_add(n)
            .and_then(|end| self.data.get(self.at..end))
            .ok_or(crate::Error::CorruptObject {
                reason: "truncated log".into(),
            })?;
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(crate::codec::array_at(
            self.take(4)?,
            0,
            "log u32 field",
        )?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(crate::codec::array_at(
            self.take(8)?,
            0,
            "log u64 field",
        )?))
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

impl LogRecord {
    /// Serialize one record (length-prefixed fields, fixed header).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.lsn.to_le_bytes());
        out.extend_from_slice(&self.object.to_le_bytes());
        match &self.op {
            LogOp::Replace {
                offset,
                before,
                after,
            } => {
                out.push(TAG_REPLACE);
                out.extend_from_slice(&offset.to_le_bytes());
                put_bytes(&mut out, before);
                put_bytes(&mut out, after);
            }
            LogOp::Insert { offset, bytes } => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&offset.to_le_bytes());
                put_bytes(&mut out, bytes);
            }
            LogOp::Delete { offset, bytes } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&offset.to_le_bytes());
                put_bytes(&mut out, bytes);
            }
            LogOp::Append { bytes } => {
                out.push(TAG_APPEND);
                put_bytes(&mut out, bytes);
            }
        }
        out
    }

    pub(crate) fn read_from(r: &mut Reader<'_>) -> Result<LogRecord> {
        let lsn = r.u64()?;
        let object = r.u64()?;
        let tag = r.take(1)?[0];
        let op = match tag {
            TAG_REPLACE => LogOp::Replace {
                offset: r.u64()?,
                before: r.bytes()?,
                after: r.bytes()?,
            },
            TAG_INSERT => LogOp::Insert {
                offset: r.u64()?,
                bytes: r.bytes()?,
            },
            TAG_DELETE => LogOp::Delete {
                offset: r.u64()?,
                bytes: r.bytes()?,
            },
            TAG_APPEND => LogOp::Append { bytes: r.bytes()? },
            _ => {
                return Err(crate::Error::CorruptObject {
                    reason: format!("unknown log record tag {tag}"),
                })
            }
        };
        Ok(LogRecord { lsn, object, op })
    }
}

impl Wal {
    /// Serialize the whole log — write this to stable storage to make
    /// the log durable, or ship it to a replica.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            put_bytes(&mut out, &r.to_bytes());
        }
        out
    }

    /// Decode a log written by [`Self::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Wal> {
        let mut r = Reader { data, at: 0 };
        if r.u32()? != WAL_MAGIC {
            return Err(crate::Error::CorruptObject {
                reason: "bad log magic".into(),
            });
        }
        let n = r.u32()?;
        let mut records = Vec::with_capacity(n as usize);
        let mut max_lsn = 0;
        for _ in 0..n {
            let body = r.bytes()?;
            let mut rr = Reader { data: &body, at: 0 };
            let rec = LogRecord::read_from(&mut rr)?;
            max_lsn = max_lsn.max(rec.lsn);
            records.push(rec);
        }
        Ok(Wal {
            records,
            next_lsn: max_lsn + 1,
        })
    }
}

/// Reapply `record` to the object if and only if it has not been applied
/// yet (`record.lsn > obj.lsn`) — the idempotent redo of §4.5.
pub fn redo(store: &mut ObjectStore, obj: &mut LargeObject, record: &LogRecord) -> Result<()> {
    if record.lsn <= obj.lsn() || record.object != obj.id() {
        return Ok(());
    }
    match &record.op {
        LogOp::Replace { offset, after, .. } => store.replace(obj, *offset, after)?,
        LogOp::Insert { offset, bytes } => store.insert(obj, *offset, bytes)?,
        LogOp::Delete { offset, bytes } => store.delete(obj, *offset, bytes.len() as u64)?,
        LogOp::Append { bytes } => store.append(obj, bytes)?,
    }
    obj.lsn = record.lsn;
    Ok(())
}

/// Roll `record` back if and only if it is the last applied update
/// (`record.lsn == obj.lsn`) — the idempotent undo of §4.5. Undo is
/// applied in reverse LSN order.
pub fn undo(store: &mut ObjectStore, obj: &mut LargeObject, record: &LogRecord) -> Result<()> {
    if record.lsn != obj.lsn() || record.object != obj.id() {
        return Ok(());
    }
    match &record.op {
        LogOp::Replace { offset, before, .. } => store.replace(obj, *offset, before)?,
        LogOp::Insert { offset, bytes } => store.delete(obj, *offset, bytes.len() as u64)?,
        LogOp::Delete { offset, bytes } => store.insert(obj, *offset, bytes)?,
        LogOp::Append { bytes } => {
            let size = obj.size();
            store.truncate(obj, size - bytes.len() as u64)?;
        }
    }
    obj.lsn = record.lsn - 1;
    Ok(())
}

/// Replay the log onto a descriptor whose on-disk state is intact —
/// e.g. a fresh replica being rebuilt by log shipping, or a committed
/// descriptor after a crash that lost only uncommitted work (which,
/// thanks to shadowed index pages and deferred frees, never touches the
/// committed tree). Records already reflected (LSN ≤ descriptor LSN)
/// are skipped by the idempotence rule, so replay can run any number of
/// times.
pub fn recover(
    store: &mut ObjectStore,
    checkpoint: &LargeObject,
    wal: &Wal,
) -> Result<LargeObject> {
    let mut obj = checkpoint.clone();
    for r in wal.records_for(checkpoint.id()) {
        redo(store, &mut obj, r)?;
    }
    Ok(obj)
}
