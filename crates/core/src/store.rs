//! The EOS object store: a volume formatted into buddy spaces plus the
//! large-object operations of §4.

use std::collections::BTreeMap;
use std::sync::Arc;

use eos_buddy::{BuddyManager, Extent, FreeBatch};
use eos_obs::{Metrics, MetricsSnapshot, OpKind};
use eos_pager::{IoStats, PageId, SharedVolume};

use crate::config::{StoreConfig, Threshold};
use crate::durable::WalEntry;
use crate::error::{Error, Result};
use crate::locks::TxnId;
use crate::node::{node_capacity, Node};
use crate::object::LargeObject;
use crate::ops;
use crate::striped::StripedWal;
use crate::verify::{ObjectStats, Violation};

mod logged;
mod recovery;

pub use recovery::RecoveryReport;

/// The large object manager: owns the disk space (through the buddy
/// system of §3) and implements create/append, read, replace, insert,
/// delete and truncate on [`LargeObject`]s.
pub struct ObjectStore {
    volume: SharedVolume,
    buddy: BuddyManager,
    config: StoreConfig,
    next_id: u64,
    /// Open transaction scopes, keyed by [`TxnId`]. The single-writer
    /// API ([`Self::begin_txn`] &c.) drives exactly one; the concurrent
    /// front-end ([`crate::concurrent::ConcurrentStore`]) keeps one per
    /// in-flight client transaction.
    txns: BTreeMap<TxnId, TxnState>,
    /// The scope the next mutating operation charges its allocations,
    /// deferred frees and touched roots to.
    active: Option<TxnId>,
    next_txn: TxnId,
    /// The on-disk log of a durable store ([`Self::create_durable`] /
    /// [`Self::open_durable`]); `None` for the classic in-memory-logged
    /// store, whose mutating ops then skip the logging path entirely.
    /// Shared (`Arc`) so the concurrent front-end can force stripes
    /// without holding the store latch — the log's own state lives
    /// behind its per-stripe latches.
    wal: Option<Arc<StripedWal>>,
    /// The buddy space the next allocation should prefer — set to the
    /// touched object's home space (`id % num_spaces`) by every §4
    /// operation, so concurrent writers on different objects contend on
    /// different space latches and an object's segments cluster.
    affinity: usize,
    /// The metrics domain I/O is attributed to. Every store starts with
    /// a fresh private domain (test isolation); [`Self::set_metrics`]
    /// rewires the whole stack — buddy manager, durable log, and the
    /// store's own operation spans — onto a shared one (the CLI uses
    /// [`eos_obs::global()`]).
    pub(crate) obs: Metrics,
}

/// Book-keeping for an open transaction scope (§4.5): frees are
/// deferred behind release locks, and the scope's own allocations are
/// remembered so an abort can return them. On a durable store the
/// scope also accumulates the commit record: the latest serialized
/// root of every object it touched and tombstones for deletions.
struct TxnState {
    batch: FreeBatch,
    allocs: Vec<Extent>,
    touched: BTreeMap<u64, Vec<u8>>,
    deleted: Vec<u64>,
}

/// The outcome of [`ObjectStore::prepare_commit`]: everything the
/// caller needs to finish the commit after its log force — and, for
/// the MVCC front-end, to publish the scope's new roots to readers.
pub struct PreparedCommit {
    /// The scope's deferred-free batch, to apply once the commit
    /// record is durable (or to park behind pinned reader epochs).
    pub batch: FreeBatch,
    /// Whether a commit record was appended at all (read-only scopes
    /// skip the log entirely).
    pub appended: bool,
    /// Serialized root descriptor of every object the scope touched.
    pub touched: BTreeMap<u64, Vec<u8>>,
    /// Objects the scope deleted (tombstones in the commit record).
    pub deleted: Vec<u64>,
    /// The WAL stripes carrying a part of the commit record — the set
    /// whose force ([`StripedWal::sync_stripes`]) makes it durable.
    /// Empty when nothing was appended.
    pub stripes: Vec<usize>,
}

impl ObjectStore {
    /// Format `num_spaces` buddy spaces of `pages_per_space` data pages
    /// on the volume and return an empty store. The directories are
    /// write-through: every allocation and free writes its directory
    /// page (§3.3).
    pub fn create(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
    ) -> Result<ObjectStore> {
        let buddy = BuddyManager::create(volume.clone(), num_spaces, pages_per_space)?;
        Self::with_fresh_buddy(volume, buddy, config, Metrics::new())
    }

    /// Wrap a freshly formatted space manager in an empty store,
    /// claiming the boot-record page (the very first data page) so
    /// reopened stores find it at a deterministic address.
    fn with_fresh_buddy(
        volume: SharedVolume,
        mut buddy: BuddyManager,
        config: StoreConfig,
        obs: Metrics,
    ) -> Result<ObjectStore> {
        // The data-base read must drop its space guard before
        // allocate_at re-locks the same space.
        let boot = buddy.space(0).data_base();
        buddy.allocate_at(boot, 1)?;
        buddy.set_metrics(&obs);
        Ok(ObjectStore {
            volume,
            buddy,
            config,
            next_id: 1,
            txns: BTreeMap::new(),
            active: None,
            next_txn: 1,
            wal: None,
            affinity: 0,
            obs,
        })
    }

    /// Reopen a previously formatted store by reading every buddy-space
    /// directory back from the volume. Objects are reattached by
    /// deserializing their client-held descriptors
    /// ([`LargeObject::from_bytes`]).
    pub fn open(
        volume: SharedVolume,
        num_spaces: usize,
        pages_per_space: u64,
        config: StoreConfig,
        next_object_id: u64,
    ) -> Result<ObjectStore> {
        let mut buddy = BuddyManager::open(volume.clone(), num_spaces, pages_per_space)?;
        let obs = Metrics::new();
        buddy.set_metrics(&obs);
        Ok(ObjectStore {
            volume,
            buddy,
            config,
            next_id: next_object_id,
            txns: BTreeMap::new(),
            active: None,
            next_txn: 1,
            wal: None,
            affinity: 0,
            obs,
        })
    }

    /// Convenience: an in-memory store of at least `data_pages` pages,
    /// split into as many buddy spaces as the directory geometry
    /// requires. For tests and examples.
    pub fn in_memory(page_size: usize, data_pages: u64) -> ObjectStore {
        Self::in_memory_with(page_size, data_pages, StoreConfig::default())
    }

    /// [`Self::in_memory`] with an explicit configuration.
    pub fn in_memory_with(page_size: usize, data_pages: u64, config: StoreConfig) -> ObjectStore {
        use eos_pager::{DiskProfile, MemVolume};
        let geometry = eos_buddy::Geometry::for_page_size(page_size);
        let pps = geometry.max_space_pages.min(data_pages.max(16));
        let spaces = data_pages.div_ceil(pps).max(1) as usize;
        let vol = MemVolume::with_profile(
            page_size,
            (pps + 1) * spaces as u64 + 2,
            DiskProfile::VINTAGE_1992,
        )
        .shared();
        ObjectStore::create(vol, spaces, pps, config).expect("in-memory store creation cannot fail")
    }

    // ---- geometry & accessors ------------------------------------------

    /// Page size of the underlying volume.
    pub fn page_size(&self) -> usize {
        self.volume.page_size()
    }

    /// Page size as u64 (the planners work in u64).
    pub(crate) fn ps(&self) -> u64 {
        self.volume.page_size() as u64
    }

    /// Largest segment the space manager can hand out, in pages.
    pub fn max_seg_pages(&self) -> u64 {
        self.buddy.max_extent_pages()
    }

    /// Entry capacity of an index page.
    pub fn node_cap(&self) -> usize {
        node_capacity(self.page_size())
    }

    /// Entry capacity of the root (client-bounded, §4 footnote 3).
    pub fn root_cap(&self) -> usize {
        self.config
            .max_root_entries
            .map_or_else(|| self.node_cap(), |m| m.clamp(2, self.node_cap()))
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig {
        self.config_ref()
    }

    pub(crate) fn config_ref(&self) -> &StoreConfig {
        &self.config
    }

    /// The underlying volume (for I/O statistics in experiments).
    pub fn volume(&self) -> &SharedVolume {
        &self.volume
    }

    /// The buddy space manager (for utilization experiments).
    pub fn buddy(&self) -> &BuddyManager {
        &self.buddy
    }

    /// Mutable access to the buddy manager (experiments only).
    pub fn buddy_mut(&mut self) -> &mut BuddyManager {
        &mut self.buddy
    }

    /// The on-disk log of a durable store, if this store has one.
    pub fn durable_wal(&self) -> Option<&StripedWal> {
        self.wal.as_deref()
    }

    /// A shareable handle on the on-disk log: the concurrent front-end
    /// caches it so commit forces ([`StripedWal::sync_stripes`]) run
    /// without any store latch held.
    pub(crate) fn wal_handle(&self) -> Option<Arc<StripedWal>> {
        self.wal.clone()
    }

    /// Cumulative volume I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.volume.stats()
    }

    /// Zero the volume I/O counters.
    pub fn reset_io_stats(&self) {
        self.volume.reset_stats();
    }

    /// The metrics domain this store records into.
    pub fn metrics(&self) -> &Metrics {
        &self.obs
    }

    /// Rewire the whole stack onto `metrics`: the store's operation
    /// spans, the buddy manager's allocator/latch instruments and, on a
    /// durable store, the log's frame/sync/checkpoint counters. Numbers
    /// already recorded into the previous domain stay there.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.buddy.set_metrics(metrics);
        if let Some(wal) = &self.wal {
            wal.set_metrics(metrics);
        }
        self.obs = metrics.clone();
    }

    /// Point-in-time snapshot of the store's metrics domain, with the
    /// page-cache hit/miss counters (when the volume has a cache layer)
    /// folded in as gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if let Some(cs) = self.volume.cache_stats() {
            self.obs.gauge("pager.cache.hits").set(cs.hits);
            self.obs.gauge("pager.cache.misses").set(cs.misses);
        }
        self.obs.snapshot()
    }

    // ---- object lifecycle ----------------------------------------------

    /// Create an empty object with the store's default threshold.
    pub fn create_object(&mut self) -> LargeObject {
        let id = self.next_id;
        self.next_id += 1;
        self.set_affinity_for(id);
        LargeObject::new(id, self.config.threshold)
    }

    /// Create an empty object with a caller-chosen identity — used when
    /// replaying a log onto a replica (see [`crate::wal`]).
    pub fn create_object_with_id(&mut self, id: u64) -> LargeObject {
        self.next_id = self.next_id.max(id + 1);
        self.set_affinity_for(id);
        LargeObject::new(id, self.config.threshold)
    }

    /// Steer subsequent allocations toward `id`'s home buddy space —
    /// the placement half of the sharding story: writers on different
    /// objects allocate from (and latch) different spaces, and one
    /// object's segments cluster in one space.
    pub(crate) fn set_affinity_for(&mut self, id: u64) {
        self.affinity = (id % self.buddy.num_spaces() as u64) as usize;
    }

    // ---- boot record -------------------------------------------------------

    /// Write the boot record: up to one page of client bytes at a fixed,
    /// well-known location (the first data page of the first buddy
    /// space). The paper leaves root placement to the client; the boot
    /// record is the conventional spot for the descriptor of a root
    /// catalog object, making a volume fully self-describing.
    pub fn write_boot_record(&mut self, data: &[u8]) -> Result<()> {
        let ps = self.page_size();
        if data.len() + 4 > ps {
            return Err(Error::Unsupported {
                op: "write_boot_record",
                reason: format!("boot record of {} bytes exceeds one page", data.len()),
            });
        }
        let mut page = vec![0u8; ps];
        page[0..4].copy_from_slice(&(data.len() as u32).to_le_bytes());
        page[4..4 + data.len()].copy_from_slice(data);
        self.volume.write_pages(self.boot_page(), &page)?;
        Ok(())
    }

    /// Read the boot record written by [`Self::write_boot_record`]
    /// (empty if none was ever written).
    pub fn read_boot_record(&self) -> Result<Vec<u8>> {
        let page = self.volume.read_pages(self.boot_page(), 1)?;
        let len = u32::from_le_bytes(page[0..4].try_into().unwrap()) as usize;
        if len + 4 > page.len() {
            return Err(Error::CorruptObject {
                reason: "boot record length exceeds the page".into(),
            });
        }
        Ok(page[4..4 + len].to_vec())
    }

    /// The fixed volume page of the boot record: data page 0 of buddy
    /// space 0 (volume page 1, right after the first directory).
    fn boot_page(&self) -> PageId {
        let space = self.buddy.space(0);
        space.data_base()
    }

    // ---- transaction scope (§4.5) ----------------------------------------

    /// Open a transaction scope. Until [`Self::commit_txn`]:
    ///
    /// * every free is **deferred** behind a release lock (§4.5 /
    ///   \[Lehm89\]) — freed segments cannot be reallocated, and
    /// * insert/delete/append write only freshly allocated pages
    ///   (shadowed index pages, brand-new leaf segments),
    ///
    /// so the committed tree image stays fully intact on disk: a crash
    /// that loses the in-flight descriptor loses no committed data.
    /// `replace` is the exception — it writes leaf pages in place and
    /// must be protected with [`crate::wal::Wal::logged_replace`].
    ///
    /// # Panics
    /// If a transaction scope is already open (single-writer facade;
    /// the concurrent front-end opens scopes directly).
    pub fn begin_txn(&mut self) {
        assert!(
            self.active.is_none(),
            "nested transactions are not supported"
        );
        let id = self.open_scope();
        self.active = Some(id);
    }

    /// Open a new transaction scope and return its id, without making
    /// it the active one — the concurrent front-end keeps many scopes
    /// open and selects per operation via [`Self::set_active_scope`].
    pub fn open_scope(&mut self) -> TxnId {
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            id,
            TxnState {
                batch: self.buddy.begin_free_batch(),
                allocs: Vec::new(),
                touched: BTreeMap::new(),
                deleted: Vec::new(),
            },
        );
        id
    }

    /// Select which open scope the next mutating operations charge
    /// their allocations, deferred frees and touched roots to (`None`
    /// restores autocommit behaviour for durable stores).
    pub fn set_active_scope(&mut self, id: Option<TxnId>) {
        self.active = id;
    }

    /// The scope mutating operations currently charge to.
    pub fn active_scope(&self) -> Option<TxnId> {
        self.active
    }

    /// Does `id` name an open scope?
    pub fn scope_is_open(&self, id: TxnId) -> bool {
        self.txns.contains_key(&id)
    }

    /// Has the scope done anything a durable commit must sync — touched
    /// or deleted objects, allocations, or pending log entries?
    pub fn scope_dirty(&self, id: TxnId) -> bool {
        self.txns
            .get(&id)
            .is_some_and(|t| !t.touched.is_empty() || !t.deleted.is_empty() || !t.allocs.is_empty())
            || self.wal.as_ref().is_some_and(|w| w.has_pending_for(id))
    }

    /// The group-commit lane a scope's force belongs on: the home
    /// stripe of the lowest-id object it touched or deleted (0 for a
    /// scope with nothing to publish). Scopes on different lanes
    /// batch — and force — independently.
    pub fn scope_group_stripe(&self, id: TxnId) -> usize {
        let Some(wal) = &self.wal else { return 0 };
        self.txns.get(&id).map_or(0, |t| {
            t.touched
                .keys()
                .copied()
                .chain(t.deleted.iter().copied())
                .map(|o| wal.stripe_of(o))
                .min()
                .unwrap_or(0)
        })
    }

    fn active_txn_mut(&mut self) -> Option<&mut TxnState> {
        let id = self.active?;
        self.txns.get_mut(&id)
    }

    /// Commit the open scope: apply every deferred free. On a durable
    /// store the **commit point** comes first — the volume is synced so
    /// every shadowed page the scope wrote is durable (the
    /// data-before-log barrier: the commit record must never point at
    /// pages the OS could still be holding back), then a
    /// [`WalEntry::Commit`] record carrying the new root of every
    /// touched object is appended to the on-disk log and forced to
    /// stable storage; only then are the deferred frees applied. Both
    /// barriers are gated on [`StoreConfig::sync_on_commit`]. A crash
    /// on either side of that append recovers cleanly: before it, the
    /// transaction never happened; after it, restart recovery rebuilds
    /// the allocator state from the committed roots.
    /// On a non-durable store the caller makes the new descriptor
    /// durable (that write is the commit point, since the root is
    /// client-placed).
    ///
    /// If the commit append itself fails the scope is rolled back
    /// cleanly — before-images restored, allocations returned, deferred
    /// frees dropped, an Abort record closing the scope in the log —
    /// and the error returned; the volume stays structurally clean (the
    /// log-full-during-commit tests drive this path).
    pub fn commit_txn(&mut self) -> Result<()> {
        // Commit I/O (log frames, the data-before-log syncs, the
        // deferred frees) is attributed to `wal.commit`, not to the
        // operation that happened to trigger an autocommit — span
        // nesting subtracts it from the enclosing op automatically.
        let _span = self.obs.span(OpKind::WalCommit, &self.volume);
        let id = self.active.take().expect("no open transaction");
        self.commit_scope(id)
    }

    /// Commit one scope end to end: the data-before-log barrier, the
    /// commit-record append, the log force, then the deferred frees.
    /// The group-commit leader instead calls the three phases
    /// ([`Self::prepare_commit`], its own single log force,
    /// [`Self::apply_commit`]) so one fsync covers a whole batch.
    pub fn commit_scope(&mut self, id: TxnId) -> Result<()> {
        let prep = self.prepare_commit(id, true)?;
        if prep.appended && self.config.sync_on_commit {
            if let Some(wal) = &self.wal {
                // The log force — only the stripes carrying a part of
                // this commit record: the record is durable past here.
                // durability: seals(commit-frame)
                wal.sync_stripes(&prep.stripes)?;
            }
        }
        self.apply_commit(prep.batch)
    }

    /// Phase 1 of a commit: close the scope's book-keeping and append
    /// (without forcing) its [`WalEntry::Commit`] record. Returns the
    /// [`PreparedCommit`] the caller finishes with: the deferred-free
    /// batch to apply once the record is durable, whether a record was
    /// appended at all (read-only scopes skip the log entirely), and
    /// the touched-root/tombstone sets the MVCC front-end publishes to
    /// lock-free readers. With `data_barrier` the volume is synced
    /// before the append, so the record never points at shadowed pages
    /// the OS could still be holding back; the group-commit leader
    /// passes `false` after issuing one barrier for the whole batch.
    ///
    /// On any error (most importantly [`Error::LogFull`]) the scope is
    /// **fully aborted** — before-images restored, allocations
    /// returned, deferred frees dropped, an Abort record appended —
    /// so a failed commit can never leave the store half-applied.
    pub fn prepare_commit(&mut self, id: TxnId, data_barrier: bool) -> Result<PreparedCommit> {
        let txn = self.txns.remove(&id).ok_or(Error::StaleTransaction)?;
        if self.active == Some(id) {
            self.active = None;
        }
        let batch = txn.batch;
        let Some(wal) = self.wal.clone() else {
            return Ok(PreparedCommit {
                batch,
                appended: false,
                touched: txn.touched,
                deleted: txn.deleted,
                stripes: Vec::new(),
            });
        };
        let worth_logging =
            !txn.touched.is_empty() || !txn.deleted.is_empty() || wal.has_pending_for(id);
        if !worth_logging {
            return Ok(PreparedCommit {
                batch,
                appended: false,
                touched: txn.touched,
                deleted: txn.deleted,
                stripes: Vec::new(),
            });
        }
        // A fresh LSN for the commit point itself: strictly ordered
        // across scopes, so recovery's cross-stripe merge has a global
        // tiebreak.
        let lsn = wal.allocate_lsn();
        let touched: Vec<(u64, Vec<u8>)> =
            txn.touched.iter().map(|(k, v)| (*k, v.clone())).collect();
        let sync = data_barrier && self.config.sync_on_commit;
        // Data-before-log: shadowed pages must be on disk before the
        // commit record that publishes them.
        // durability: seals(shadow-data)
        let barrier = if sync { wal.sync() } else { Ok(()) };
        let appended = barrier.and_then(|()| {
            // durability: mutates(commit-frame)
            wal.append_commit(id, lsn, touched, txn.deleted.clone())
        });
        match appended {
            Err(e) => {
                // Clean abort: put the scope back so abort_scope finds
                // its allocations and deferred frees, then roll
                // everything back.
                self.txns.insert(id, txn);
                let _ = self.abort_scope(id);
                Err(e)
            }
            Ok(stripes) => Ok(PreparedCommit {
                batch,
                appended: true,
                touched: txn.touched,
                deleted: txn.deleted,
                stripes,
            }),
        }
    }

    /// Phase 3 of a commit: apply the deferred frees. Only called once
    /// the commit record is durable (or was never needed).
    // durability: requires(commit-frame)
    pub fn apply_commit(&mut self, batch: FreeBatch) -> Result<()> {
        // Freed pages become allocatable (and under MVCC, reusable by
        // writers) from here on — the superseding commit frame must
        // already be durable.
        // durability: mutates(mvcc-publish)
        self.buddy.commit_frees(batch)?;
        Ok(())
    }

    /// Abort the open scope: drop the deferred frees (the logical frees
    /// never happen) and return every page the scope allocated. The
    /// caller goes back to its pre-transaction descriptor copy. On a
    /// durable store the in-place writes of any logged `replace` are
    /// first reversed from their before-images, the restores are synced
    /// to stable storage, and only then does an [`WalEntry::Abort`]
    /// record close the scope in the log — without that barrier the
    /// Abort frame could persist ahead of the restores, and recovery
    /// (trusting the Abort) would skip the undo. If the abort itself is
    /// interrupted before the record lands, restart recovery simply
    /// rolls the scope back again.
    pub fn abort_txn(&mut self) -> Result<()> {
        let id = self.active.take().expect("no open transaction");
        self.abort_scope(id)
    }

    /// Abort one scope: restore the before-images of its uncommitted
    /// in-place writes, drop its deferred frees, return its
    /// allocations, and close it in the log with a scope-stamped
    /// [`WalEntry::Abort`]. Other open scopes are untouched — their
    /// pending entries stay pending.
    pub fn abort_scope(&mut self, id: TxnId) -> Result<()> {
        let txn = self.txns.remove(&id).ok_or(Error::StaleTransaction)?;
        if self.active == Some(id) {
            self.active = None;
        }
        let restored_images = self.wal.as_ref().is_some_and(|w| {
            w.pending_for(id)
                .iter()
                .any(|e| matches!(e, WalEntry::Op { page_images, .. } if !page_images.is_empty()))
        });
        if self.wal.is_some() {
            self.rollback_scope_images(id)?;
        }
        self.buddy.abort_frees(txn.batch);
        for e in txn.allocs {
            self.buddy.free(e.start, e.pages)?;
        }
        if let Some(wal) = &self.wal {
            if wal.has_pending_for(id) {
                if restored_images && self.config.sync_on_commit {
                    // Restores-before-Abort barrier.
                    // durability: seals(shadow-data)
                    wal.sync()?;
                }
                let lsn = wal.last_lsn();
                // durability: mutates(commit-frame)
                wal.append(WalEntry::Abort { txn: id, lsn })?;
            }
        }
        Ok(())
    }

    /// Is a transaction scope open (single-writer facade)?
    pub fn in_txn(&self) -> bool {
        self.active.is_some()
    }

    /// Create an object pre-filled with `data`, optionally telling the
    /// store the eventual size in advance ("if the size is known a
    /// priori, it is provided as a hint", §4.1).
    pub fn create_with(&mut self, data: &[u8], size_hint: Option<u64>) -> Result<LargeObject> {
        let _span = self.obs.span(OpKind::Create, &self.volume);
        if self.wal.is_some() {
            return self.logged_create_with(data, size_hint);
        }
        let mut obj = self.create_object();
        if !data.is_empty() || size_hint.is_some() {
            // The internal session (not `open_append`, which would open
            // a nested Append span and claim the I/O): creation cost
            // belongs to `create`.
            let mut s = ops::append::AppendSession::open(self, &mut obj, size_hint)?;
            s.append(data)?;
            s.close()?;
        }
        Ok(obj)
    }

    /// Delete an object: free every leaf segment and index page. The
    /// handle becomes an empty object. On a durable store the commit
    /// record carries a tombstone, so the deletion survives restart.
    pub fn delete_object(&mut self, obj: &mut LargeObject) -> Result<()> {
        let _span = self.obs.span(OpKind::Delete, &self.volume);
        self.set_affinity_for(obj.id());
        if self.wal.is_some() {
            return self.logged_delete_object(obj);
        }
        let size = obj.size();
        if size > 0 {
            ops::delete::run(self, obj, 0, size)?;
        }
        self.paranoid_check(obj)
    }

    // ---- the §4 operations ----------------------------------------------

    /// Read `len` bytes starting at byte `offset` (§4.2).
    pub fn read(&self, obj: &LargeObject, offset: u64, len: u64) -> Result<Vec<u8>> {
        let _span = self.obs.span(OpKind::Read, &self.volume);
        ops::read::run(self, obj, offset, len)
    }

    /// Read the whole object.
    pub fn read_all(&self, obj: &LargeObject) -> Result<Vec<u8>> {
        let _span = self.obs.span(OpKind::Read, &self.volume);
        ops::read::run(self, obj, 0, obj.size())
    }

    /// Overwrite `data.len()` bytes in place starting at `offset`
    /// (§4.2: "the search algorithm can also be used for the byte range
    /// replace operation").
    pub fn replace(&mut self, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
        let _span = self.obs.span(OpKind::Replace, &self.volume);
        self.set_affinity_for(obj.id());
        if self.wal.is_some() {
            return self.logged_replace(obj, offset, data);
        }
        ops::replace::run(self, obj, offset, data)?;
        self.paranoid_check(obj)
    }

    /// Overwrite bytes at `offset` **copy-on-write**: each touched
    /// segment is split §4.4-style into pages kept in place (L and R)
    /// and a new segment N on a fresh extent holding the touched pages,
    /// plus whatever the threshold T makes L and R donate; the free of
    /// the pages N supersedes is deferred behind the scope's release
    /// lock. The committed image — and any MVCC reader snapshot pinned
    /// on it — stays intact on disk until the scope commits and the
    /// deferral is reclaimed. Byte-for-byte the same result as
    /// [`Self::replace`]; the concurrent front-end uses this variant so
    /// its lock-free readers never observe a half-applied overwrite.
    pub fn replace_shadow(
        &mut self,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let _span = self.obs.span(OpKind::Replace, &self.volume);
        self.set_affinity_for(obj.id());
        if self.wal.is_some() {
            return self.logged_replace_shadow(obj, offset, data);
        }
        ops::replace::run_shadow(self, obj, offset, data)?;
        self.paranoid_check(obj)
    }

    /// Append bytes at the end of the object (§4.1).
    pub fn append(&mut self, obj: &mut LargeObject, data: &[u8]) -> Result<()> {
        let _span = self.obs.span(OpKind::Append, &self.volume);
        self.set_affinity_for(obj.id());
        if self.wal.is_some() {
            return self.logged_append(obj, data);
        }
        let mut s = ops::append::AppendSession::open(self, obj, None)?;
        s.append(data)?;
        s.close()
    }

    /// Open a multi-append session (§4.1). While the session is open,
    /// successive segment allocations double in size (or, with a size
    /// hint, maximum-size segments are used); the final segment is
    /// trimmed when the session closes.
    pub fn open_append<'a>(
        &'a mut self,
        obj: &'a mut LargeObject,
        size_hint: Option<u64>,
    ) -> Result<ops::append::AppendSession<'a>> {
        // The span rides inside the session so the whole multi-append —
        // open (tail absorption), every chunk, and the closing trim and
        // tree splice — lands in one `append` attribution.
        let span = self.obs.span(OpKind::Append, &self.volume);
        self.set_affinity_for(obj.id());
        let mut session = ops::append::AppendSession::open(self, obj, size_hint)?;
        session.attach_span(span);
        Ok(session)
    }

    /// Insert `data` at byte `offset`, shifting the tail of the object
    /// right (§4.3.1, with the §4.4 reshuffling).
    pub fn insert(&mut self, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
        let _span = self.obs.span(OpKind::Insert, &self.volume);
        self.set_affinity_for(obj.id());
        if self.wal.is_some() {
            return self.logged_insert(obj, offset, data);
        }
        ops::insert::run(self, obj, offset, data)?;
        self.paranoid_check(obj)
    }

    /// Delete `len` bytes starting at `offset`, shifting the tail left
    /// (§4.3.2, with the §4.4 reshuffling).
    pub fn delete(&mut self, obj: &mut LargeObject, offset: u64, len: u64) -> Result<()> {
        let _span = self.obs.span(OpKind::Delete, &self.volume);
        self.set_affinity_for(obj.id());
        if self.wal.is_some() {
            return self.logged_delete(obj, offset, len);
        }
        ops::delete::run(self, obj, offset, len)?;
        self.paranoid_check(obj)
    }

    /// Truncate the object to `new_size` bytes — the special case of
    /// delete that never touches a leaf segment.
    pub fn truncate(&mut self, obj: &mut LargeObject, new_size: u64) -> Result<()> {
        let _span = self.obs.span(OpKind::Delete, &self.volume);
        self.set_affinity_for(obj.id());
        let size = obj.size();
        if new_size > size {
            return Err(Error::OutOfObjectBounds {
                offset: new_size,
                len: 0,
                object_size: size,
            });
        }
        if new_size == size {
            return Ok(());
        }
        if self.wal.is_some() {
            return self.logged_delete(obj, new_size, size - new_size);
        }
        ops::delete::run(self, obj, new_size, size - new_size)?;
        self.paranoid_check(obj)
    }

    /// Walk the whole tree and return structural statistics
    /// (segment count, page counts, utilization).
    pub fn object_stats(&self, obj: &LargeObject) -> Result<ObjectStats> {
        crate::verify::object_stats(self, obj)
    }

    /// Exhaustively check the object's structural invariants; used by
    /// the property tests after every operation.
    pub fn verify_object(&self, obj: &LargeObject) -> Result<()> {
        crate::verify::verify_object(self, obj)
    }

    /// Like [`ObjectStore::verify_object`] but collects *every*
    /// violation in the tree instead of failing on the first — the
    /// entry point `eos-check` builds its census on.
    pub fn verify_object_report(&self, obj: &LargeObject) -> Vec<Violation> {
        crate::verify::verify_object_report(self, obj)
    }

    /// Every page extent `(start_page, pages)` the object references:
    /// index pages and leaf segments. Tolerant of unreadable index
    /// pages (their subtrees are skipped), so a whole-volume page
    /// census can still run on a damaged tree.
    pub fn object_page_extents(&self, obj: &LargeObject) -> Vec<(u64, u64)> {
        crate::verify::object_page_extents(self, obj)
    }

    /// When [`StoreConfig::paranoid_checks`] is set, re-walk `obj` and
    /// re-audit the buddy directories, escalating any violation to an
    /// error at the operation boundary that introduced it.
    pub(crate) fn paranoid_check(&self, obj: &LargeObject) -> Result<()> {
        if !self.config.paranoid_checks {
            return Ok(());
        }
        self.verify_object(obj)?;
        self.buddy
            .check_invariants()
            .map_err(|e| Error::CorruptObject {
                reason: format!("buddy invariant after operation: {e}"),
            })
    }

    // ---- internal helpers shared by the ops modules ----------------------

    /// Effective threshold (in pages) for an update whose leaf parent
    /// holds `parent_entries` entries.
    pub(crate) fn effective_threshold(&self, obj: &LargeObject, parent_entries: usize) -> u64 {
        let cap = self.node_cap();
        u64::from(obj.threshold.effective(parent_entries, cap))
    }

    /// Default threshold value for fresh objects (experiments tweak it
    /// via [`StoreConfig`]).
    pub fn default_threshold(&self) -> Threshold {
        self.config.threshold
    }

    /// Record a §4.4 local reshuffle: the insert/delete planner decided
    /// to move bytes between L/N/R under threshold `t`. Local
    /// reshuffles stay attributed to the operation that triggered them
    /// (no span of their own); these counters answer "how often, and
    /// how much moved, per threshold" — the §5 experiment axes.
    pub(crate) fn note_reshuffle(&self, t: u64, plan: &crate::reshuffle::ReshufflePlan) {
        if plan.from_l == 0 && plan.from_r == 0 {
            return;
        }
        self.obs.counter(&format!("reshuffle.triggers.t{t}")).inc();
        let moved_pages = (plan.from_l + plan.from_r).div_ceil(self.ps());
        self.obs
            .histogram("reshuffle.pages_moved")
            .record(moved_pages);
    }

    /// Allocate a fresh extent of exactly `pages` pages.
    pub(crate) fn alloc_extent(&mut self, pages: u64) -> Result<Extent> {
        let e = self.buddy.allocate_near(pages, self.affinity)?;
        if let Some(txn) = self.active_txn_mut() {
            txn.allocs.push(e);
        }
        Ok(e)
    }

    /// Allocate at most `pages`, taking what is available.
    pub(crate) fn alloc_up_to(&mut self, pages: u64) -> Result<Extent> {
        let e = self.buddy.allocate_up_to_near(pages, self.affinity)?;
        if let Some(txn) = self.active_txn_mut() {
            txn.allocs.push(e);
        }
        Ok(e)
    }

    /// Free `pages` pages starting at `start` — deferred behind a
    /// release lock while a transaction scope is open.
    pub(crate) fn free_pages(&mut self, start: PageId, pages: u64) -> Result<()> {
        let batch = self
            .active
            .and_then(|id| self.txns.get(&id))
            .map(|t| t.batch);
        match batch {
            Some(batch) => {
                self.buddy.defer_free(batch, Extent { start, pages });
            }
            None => self.buddy.free(start, pages)?,
        }
        Ok(())
    }

    /// Read an index node from its page.
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node> {
        let buf = self.volume.read_pages(page, 1)?;
        Node::from_page(&buf)
    }

    /// Write an index node, shadowing it if configured: the node goes to
    /// a freshly allocated page and the old page is freed, so the
    /// committed tree is never overwritten (§4.5). Returns the page the
    /// node now lives on.
    pub(crate) fn write_node(&mut self, old: Option<PageId>, node: &Node) -> Result<PageId> {
        let image = node.to_page(self.page_size());
        match old {
            Some(page) if !self.config.shadow_index_pages => {
                self.volume.write_pages(page, &image)?;
                Ok(page)
            }
            old => {
                let ext = self.alloc_extent(1)?;
                self.volume.write_pages(ext.start, &image)?;
                if let Some(page) = old {
                    self.free_pages(page, 1)?;
                }
                Ok(ext.start)
            }
        }
    }

    /// Free the page of a dropped index node.
    pub(crate) fn free_node(&mut self, page: PageId) -> Result<()> {
        self.free_pages(page, 1)
    }
}
