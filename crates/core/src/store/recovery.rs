//! Restart recovery for durable stores (§4.5 made whole-volume).
//!
//! A durable volume carries three kinds of state: the data/index pages
//! of the objects, the buddy directories, and the log region. Only the
//! log is trusted. A durable store writes its directories back lazily
//! (never on the commit path), so on disk they are stale hints that
//! recovery rewrites, not inputs it reads:
//!
//! 1. **Scan** — [`StripedWal::attach`] replays each stripe's active
//!    log half up to its torn tail, merges the stripes by LSN, settles
//!    cross-stripe commits (all parts durable → committed, else
//!    presumed aborted), and yields the committed root map, the redo
//!    of the committed in-place writes and the uncommitted pending
//!    tail. Uncommitted work never reached a committed page — shadowed
//!    operations wrote only pages no committed root references, and
//!    in-place writes wait for their commit frame — so discarding the
//!    tail *is* the rollback. A v4 log whose pending tail still holds
//!    an undo-image entry is refused ([`Error::LegacyUndoLog`]).
//! 2. **Redo** — one pass over the committed redo in log order: each
//!    record is a read-modify-write of its page, which also repairs a
//!    torn in-place write. A later commit's freed extent cancels the
//!    earlier redo on its pages, which may since have been reallocated
//!    and rewritten.
//! 3. **Rebuild** — the buddy directories are reformatted in memory and
//!    the allocation bitmap is reconstructed from scratch: the boot page
//!    plus every page extent reachable from a committed root. Then each
//!    directory page is written once. This one stroke reconciles
//!    everything the crash could have left behind — half-applied
//!    deferred frees, allocations of the doomed transaction, a stale
//!    superdirectory, directories last written at the previous
//!    recovery — because none of that state is an input.
//! 4. **Checkpoint** — the recovered map is written as a fresh
//!    checkpoint, whose sync also makes the redo writes durable before
//!    the log that carried them is dropped; a second crash during or
//!    right after recovery just repeats it (recovery is idempotent).
//!
//! The roots need no redo: the commit record itself carries the final
//! root of every touched object, and shadowing guarantees the pages
//! those roots point at were on disk before the commit record was.

use eos_buddy::BuddyManager;
use eos_obs::{Metrics, OpKind, PipeKind};
use eos_pager::SharedVolume;

use std::sync::Arc;

use crate::config::StoreConfig;
use crate::durable::{Redo, RedoStep, WalEntry};
use crate::error::{Error, Result};
use crate::object::LargeObject;
use crate::striped::StripedWal;

use super::ObjectStore;

/// What [`ObjectStore::open_durable`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Every committed object, rebuilt from the log's root map.
    pub objects: Vec<LargeObject>,
    /// Log records the attach scan replayed.
    pub records_scanned: u64,
    /// Whether the scan cut a torn record off the tail of the log.
    pub torn_tail: bool,
    /// Uncommitted operations discarded (the pending tail).
    pub rolled_back_ops: u64,
    /// Redo records replayed onto their pages (each a read-modify-write
    /// of one page).
    pub redo_pages: u64,
    /// Redo records dropped because a later commit freed their page.
    pub redo_cancelled: u64,
    /// Highest LSN in the recovered log.
    pub max_lsn: u64,
}

impl ObjectStore {
    /// Like [`ObjectStore::create`], plus a freshly formatted log
    /// region of `wal_pages` pages placed directly after the buddy
    /// spaces (the volume must have room: `(pages_per_space + 1) *
    /// num_spaces + wal_pages` pages). The returned store logs every
    /// mutating operation; reopen it with [`ObjectStore::open_durable`].
    /// Its buddy directories are write-back: written here, then only
    /// by the next open's recovery, which rebuilds them from the log.
    pub fn create_durable(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        wal_pages: u64,
    ) -> Result<ObjectStore> {
        let base = (pages_per_space + 1) * num_spaces as u64;
        let wal = StripedWal::format(&volume, base, wal_pages, config.wal_stripes)?;
        // Directories are derived state here (recovery rebuilds them),
        // so they are written back: once now, never on the commit path.
        let buddy = BuddyManager::create_write_back(volume.clone(), num_spaces, pages_per_space)?;
        let mut store = Self::with_fresh_buddy(volume, buddy, config, Metrics::new())?;
        store.buddy.flush_directories()?;
        wal.set_metrics(&store.obs);
        store.wal = Some(Arc::new(wal));
        Ok(store)
    }

    /// Reopen a durable store, running full restart recovery (see the
    /// [module docs](self::recovery)). Always safe to call — on a
    /// cleanly closed store it degenerates to reloading the checkpoint.
    /// Returns the store and a [`RecoveryReport`] listing every
    /// committed object (the volume is self-describing; no descriptors
    /// need to have survived on the client side).
    ///
    /// Recovery itself is crash-safe: it writes only the committed
    /// redo (idempotently), each rebuilt directory once, and a fresh
    /// checkpoint, so a failure part-way through is simply retried by
    /// the next open.
    pub fn open_durable(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        wal_pages: u64,
    ) -> Result<(ObjectStore, RecoveryReport)> {
        Self::open_durable_with(
            volume,
            num_spaces,
            pages_per_space,
            config,
            wal_pages,
            &Metrics::new(),
        )
    }

    /// [`Self::open_durable`] recording into a caller-supplied metrics
    /// domain instead of a fresh one — the CLI threads
    /// [`eos_obs::global()`] through here so recovery cost and the
    /// subsequent operations accumulate in one place.
    pub fn open_durable_with(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        wal_pages: u64,
        metrics: &Metrics,
    ) -> Result<(ObjectStore, RecoveryReport)> {
        // The whole restart sequence — log scan, redo writes, directory
        // rebuild, fresh checkpoint — is one `recovery` span.
        let _span = metrics.span(OpKind::Recovery, &volume);
        let base = (pages_per_space + 1) * num_spaces as u64;
        let wal = StripedWal::attach(&volume, base, wal_pages, config.wal_stripes)?;
        let pending = wal.pending();
        if let Some(txn) = pending.iter().find_map(|e| match e {
            WalEntry::LegacyUndo { txn, .. } => Some(*txn),
            _ => None,
        }) {
            return Err(Error::LegacyUndoLog { txn });
        }
        let rolled_back_ops = pending.len() as u64;

        // 2. Redo, with cancellation by later frees.
        let (redo, redo_cancelled) = live_redo(wal.redo_steps());
        for r in &redo {
            let mut page = volume.read_pages(r.page, 1)?;
            let at = r.offset as usize;
            page.get_mut(at..at + r.bytes.len())
                .ok_or_else(|| Error::CorruptObject {
                    reason: format!("redo record for page {} overruns the page", r.page),
                })?
                .copy_from_slice(&r.bytes);
            volume.write_pages(r.page, &page)?;
        }

        // Rehydrate the committed objects from their serialized roots.
        let committed = wal.committed();
        let mut objects = Vec::with_capacity(committed.len());
        for (id, desc) in &committed {
            let obj = LargeObject::from_bytes(desc)?;
            if obj.id != *id {
                return Err(Error::CorruptObject {
                    reason: format!("log root map entry {id} deserialized as object {}", obj.id),
                });
            }
            objects.push(obj);
        }

        // 3. Rebuild the allocator from scratch: reformat the
        // directories in memory (data pages untouched), mark the boot
        // page and every extent a committed root reaches, then write
        // each directory page once.
        let buddy = BuddyManager::create_write_back(volume.clone(), num_spaces, pages_per_space)?;
        let mut store = Self::with_fresh_buddy(volume, buddy, config, metrics.clone())?;
        for obj in &objects {
            for (start, pages) in store.object_page_extents(obj) {
                store.buddy.allocate_at(start, pages)?;
            }
        }
        store.buddy.flush_directories()?;
        store.next_id = objects
            .iter()
            .map(|o| o.id)
            .max()
            .unwrap_or(0)
            .max(wal.max_object_id())
            + 1;

        // 4. Checkpoint: persist the recovered state, dropping the
        // rolled-back tail from disk.
        let report = RecoveryReport {
            objects: objects.clone(),
            records_scanned: wal.records_scanned(),
            torn_tail: wal.torn_tail(),
            rolled_back_ops,
            redo_pages: redo.len() as u64,
            redo_cancelled,
            max_lsn: wal.last_lsn(),
        };
        wal.clear_pending();
        wal.set_metrics(metrics);
        wal.checkpoint()?;
        store.wal = Some(Arc::new(wal));
        // A restart that actually undid work is a flight-recorder
        // moment: mark the timeline and, when `EOS_FLIGHT_PATH` is set,
        // snapshot the ring + metrics for post-mortem inspection.
        if report.torn_tail || report.rolled_back_ops > 0 {
            metrics.pipe_event(PipeKind::Instant, "recovery.rollback", 0, 0);
            let _ = metrics.flight_dump("recovery");
        }
        Ok((store, report))
    }
}

/// The redo records recovery replays, in log order: every committed
/// write, minus those on a page a later step freed. Returns them and
/// the number cancelled.
fn live_redo(steps: Vec<(u64, RedoStep)>) -> (Vec<Redo>, u64) {
    let mut live: Vec<Redo> = Vec::new();
    let mut cancelled = 0u64;
    for (_, step) in steps {
        match step {
            RedoStep::Write(r) => live.push(r),
            RedoStep::Free(start, pages) => {
                let before = live.len();
                live.retain(|r| r.page < start || r.page - start >= pages);
                cancelled += (before - live.len()) as u64;
            }
        }
    }
    (live, cancelled)
}
