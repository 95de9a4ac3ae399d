//! The logged (durable-store) variants of the §4 operations.
//!
//! On a store with an attached [`crate::StripedWal`] every mutating operation
//! runs inside a transaction scope — the caller's own, or an implicit
//! per-operation scope ([`ObjectStore::with_autocommit`]) — and leaves
//! a trail in the on-disk log:
//!
//! * **`replace`** is redo-logged and no-steal (§4.2): its in-place
//!   page writes wait in the scope's stash, ride the commit record as
//!   physical redo, and are issued only once that record is durable.
//!   It logs nothing before the commit, so nothing needs undoing. Per
//!   touched segment it may instead take the shadowed L/N/R rewrite,
//!   when that writes fewer device bytes ([`ops::replace::run_logged`]).
//! * **Everything else** (append, insert, delete, truncate, compaction)
//!   is *shadowed* (§4.5): it writes only freshly allocated pages and
//!   defers its frees, so the committed image on disk stays intact and
//!   nothing needs undoing. These log a [`WalEntry::Touch`] after the
//!   fact, purely to stamp the LSN and feed the eventual commit record
//!   — the log stays small no matter how many bytes the operation
//!   moved.
//!
//! The commit record ([`WalEntry::Commit`], written by
//! [`ObjectStore::commit_txn`]) then carries the new serialized root of
//! every touched object, tombstones for deletions and the redo of every
//! in-place write; it is the single durable commit point of the scope.

use eos_obs::OpKind;

use crate::durable::WalEntry;
use crate::error::{Error, Result};
use crate::locks::TxnId;
use crate::object::LargeObject;
use crate::ops;

use super::ObjectStore;
impl ObjectStore {
    /// Run `f` inside the caller's active transaction scope, or — on a
    /// durable store with no scope active — inside an implicit
    /// per-operation scope that commits on success and aborts on error.
    /// Without this, a committed operation's deferred frees would be
    /// applied immediately and a *later* crash could find those pages
    /// reallocated and overwritten while the log still considers their
    /// old contents committed.
    pub(crate) fn with_autocommit<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if self.active.is_some() || self.wal.is_none() {
            return f(self);
        }
        self.begin_txn();
        match f(self) {
            Ok(v) => {
                self.commit_txn()?;
                Ok(v)
            }
            Err(e) => {
                // Best effort: the abort itself can fail (e.g. the
                // volume died); recovery handles that case on restart.
                if self.in_txn() {
                    let _ = self.abort_txn();
                }
                Err(e)
            }
        }
    }

    /// The scope every logged operation stamps its entries with.
    fn active_scope_id(&self) -> Result<TxnId> {
        self.active.ok_or(Error::StaleTransaction)
    }

    /// Record `obj`'s current root in the active scope's commit set.
    pub(crate) fn note_touched(&mut self, obj: &LargeObject) {
        let (id, bytes) = (obj.id, obj.to_bytes());
        if let Some(txn) = self.active_txn_mut() {
            txn.touched.insert(id, bytes);
            txn.deleted.retain(|&d| d != id);
        }
    }

    /// Stamp the next LSN on `obj`, append a [`WalEntry::Touch`] for it
    /// and add it to the scope's commit set — the post-hoc trail of
    /// every shadowed operation.
    pub(crate) fn log_touch(&mut self, obj: &mut LargeObject) -> Result<()> {
        let scope = self.active_scope_id()?;
        let wal = self.wal.as_ref().ok_or(Error::Unsupported {
            op: "log_touch",
            reason: "the store has no log".into(),
        })?;
        let lsn = wal.allocate_lsn();
        obj.lsn = lsn;
        let entry = WalEntry::Touch {
            txn: scope,
            lsn,
            object: obj.id,
            root_after: obj.to_bytes(),
        };
        wal.append(entry)?;
        self.note_touched(obj);
        Ok(())
    }

    // ---- the logged operations -------------------------------------------

    /// The no-steal replace (§4.2) of a durable store and of every
    /// [`crate::Txn::replace`]: stash the in-place writes, or rewrite
    /// the segments where that is cheaper ([`ops::replace::run_logged`]).
    /// The stash reaches the volume only after the commit record, so
    /// abort writes nothing, with or without a log. A stash-only
    /// replace changes no root, so on a durable store it logs nothing
    /// until its commit record carries the redo; a volatile store logs
    /// and publishes no roots.
    pub(crate) fn staged_replace(
        &mut self,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let _span = self.obs.span(OpKind::Replace, &self.volume);
        self.set_affinity_for(obj.id());
        self.with_autocommit(|s| {
            if ops::replace::run_logged(s, obj, offset, data)? && s.wal.is_some() {
                s.log_touch(obj)?;
            }
            s.paranoid_check(obj)
        })
    }

    pub(crate) fn logged_append(&mut self, obj: &mut LargeObject, data: &[u8]) -> Result<()> {
        self.with_autocommit(|s| {
            {
                let mut session = ops::append::AppendSession::open(s, obj, None)?;
                session.append(data)?;
                session.close()?;
            }
            s.log_touch(obj)?;
            s.paranoid_check(obj)
        })
    }

    pub(crate) fn logged_insert(
        &mut self,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.with_autocommit(|s| {
            ops::insert::run(s, obj, offset, data)?;
            s.log_touch(obj)?;
            s.paranoid_check(obj)
        })
    }

    pub(crate) fn logged_delete(
        &mut self,
        obj: &mut LargeObject,
        offset: u64,
        len: u64,
    ) -> Result<()> {
        self.with_autocommit(|s| {
            ops::delete::run(s, obj, offset, len)?;
            s.log_touch(obj)?;
            s.paranoid_check(obj)
        })
    }

    pub(crate) fn logged_create_with(
        &mut self,
        data: &[u8],
        size_hint: Option<u64>,
    ) -> Result<LargeObject> {
        self.with_autocommit(|s| {
            let mut obj = s.create_object();
            if !data.is_empty() || size_hint.is_some() {
                let mut session = ops::append::AppendSession::open(s, &mut obj, size_hint)?;
                session.append(data)?;
                session.close()?;
            }
            s.log_touch(&mut obj)?;
            s.paranoid_check(&obj)?;
            Ok(obj)
        })
    }

    pub(crate) fn logged_delete_object(&mut self, obj: &mut LargeObject) -> Result<()> {
        self.with_autocommit(|s| {
            let size = obj.size();
            if size > 0 {
                ops::delete::run(s, obj, 0, size)?;
            }
            // No log entry: deletion is fully shadowed (frees are
            // deferred), and the commit record's tombstone is what makes
            // it durable.
            let id = obj.id;
            if let Some(txn) = s.active_txn_mut() {
                txn.touched.remove(&id);
                if !txn.deleted.contains(&id) {
                    txn.deleted.push(id);
                }
            }
            s.paranoid_check(obj)
        })
    }
}
