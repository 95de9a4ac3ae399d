//! Error type for the large object manager.

use std::fmt;

/// Result alias used throughout `eos-core`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the EOS large object manager.
#[derive(Debug)]
pub enum Error {
    /// A byte offset or range fell outside the object.
    OutOfObjectBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Current object size.
        object_size: u64,
    },
    /// The database has no room for the requested growth.
    NoSpace {
        /// Pages that could not be allocated.
        requested_pages: u64,
    },
    /// An object descriptor or index page failed validation.
    CorruptObject {
        /// Human-readable description.
        reason: String,
    },
    /// The operation is not supported by this store (used by baselines
    /// that lack, e.g., byte inserts).
    Unsupported {
        /// The operation name.
        op: &'static str,
        /// Why it is unsupported.
        reason: String,
    },
    /// A transaction token was used after commit/abort.
    StaleTransaction,
    /// A snapshot read named an object id the pinned committed root
    /// set does not contain (never created, or deleted before the
    /// snapshot was pinned).
    UnknownObject {
        /// The object id that was looked up.
        id: u64,
    },
    /// A transaction's first write to an object came with a descriptor
    /// older than the object's published committed root: another
    /// transaction committed a write to it since the caller took the
    /// descriptor, and writing through the stale copy would lose that
    /// update and reference pages it freed. Re-read the committed
    /// descriptor (e.g. [`crate::Snapshot::object`]) and retry.
    StaleDescriptor {
        /// The object written.
        id: u64,
        /// LSN of the caller's descriptor.
        descriptor_lsn: u64,
        /// LSN of the published committed root.
        committed_lsn: u64,
    },
    /// A group commit could not make its batch durable. On a data
    /// barrier failure the transaction was rolled back; on a log force
    /// failure its durability is unknown (restart recovery decides).
    CommitFailed {
        /// Human-readable description.
        reason: String,
    },
    /// A durable log record does not fit in the reserved log region,
    /// even after checkpointing (the region is too small for the
    /// transaction's footprint).
    LogFull {
        /// Bytes the record needs.
        needed: u64,
        /// Bytes one log half can hold.
        available: u64,
    },
    /// The durable log refuses all further work until the store is
    /// reopened: a checkpoint's superblock publish (or its force)
    /// failed, so which log half is in force on disk is unknown; or a
    /// durable commit's in-place write failed part-way (or a failed
    /// commit could not be compensated), so how far it applies is
    /// unknown. Only restart recovery, which reads the log as it
    /// landed, can tell.
    LogFailed {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// The log was written by the v4 format and its uncommitted tail
    /// still holds an undo-image `replace` entry: rolling it back needs
    /// the undo pass this version no longer has, so recovery refuses
    /// the log rather than misread it. Recover it with the previous
    /// version first.
    LegacyUndoLog {
        /// The scope whose undo entry is pending.
        txn: u64,
    },
    /// An underlying buddy-allocator error.
    Buddy(eos_buddy::Error),
    /// An underlying volume error.
    Pager(eos_pager::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfObjectBounds {
                offset,
                len,
                object_size,
            } => write!(
                f,
                "range [{offset}, {}) outside object of {object_size} bytes",
                offset + len
            ),
            Error::NoSpace { requested_pages } => {
                write!(f, "no space for {requested_pages} more pages")
            }
            Error::CorruptObject { reason } => write!(f, "corrupt object: {reason}"),
            Error::Unsupported { op, reason } => {
                write!(f, "operation `{op}` unsupported: {reason}")
            }
            Error::StaleTransaction => write!(f, "transaction already finished"),
            Error::UnknownObject { id } => {
                write!(f, "object {id} not in the snapshot's committed root set")
            }
            Error::StaleDescriptor {
                id,
                descriptor_lsn,
                committed_lsn,
            } => write!(
                f,
                "descriptor of object {id} is stale (LSN {descriptor_lsn}, committed root at LSN {committed_lsn})"
            ),
            Error::CommitFailed { reason } => write!(f, "commit failed: {reason}"),
            Error::LogFull { needed, available } => write!(
                f,
                "log record of {needed} bytes exceeds the {available}-byte log half"
            ),
            Error::LogFailed { reason } => write!(f, "log failed until reopen: {reason}"),
            Error::LegacyUndoLog { txn } => write!(
                f,
                "v4 log holds a pending undo-image entry of scope {txn}: recover it with the \
                 previous version first"
            ),
            Error::Buddy(e) => write!(f, "space manager: {e}"),
            Error::Pager(e) => write!(f, "volume: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Buddy(e) => Some(e),
            Error::Pager(e) => Some(e),
            _ => None,
        }
    }
}

impl From<eos_buddy::Error> for Error {
    fn from(e: eos_buddy::Error) -> Self {
        match e {
            eos_buddy::Error::NoSpace { requested_pages } => Error::NoSpace { requested_pages },
            other => Error::Buddy(other),
        }
    }
}

impl From<eos_pager::Error> for Error {
    fn from(e: eos_pager::Error) -> Self {
        Error::Pager(e)
    }
}
