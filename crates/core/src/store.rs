//! The EOS object store: a volume formatted into buddy spaces plus the
//! large-object operations of §4.

use std::collections::BTreeMap;
use std::sync::Arc;

use eos_buddy::{BuddyManager, Extent, FreeBatch};
use eos_obs::{Metrics, MetricsSnapshot, OpKind};
use eos_pager::{IoStats, PageId, SharedVolume};

use crate::config::{StoreConfig, Threshold};
use crate::durable::{Redo, WalEntry};
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
    /// Before-images of pages overwritten in place while older reader
    /// pins were live (DESIGN.md §14): page → `(publication epoch,
    /// page bytes)`, epochs ascending. A read pinned at epoch `p` sees
    /// the earliest image newer than `p`; the reclaim that drops the
    /// commit's parked frees drops its images too.
    overlay: BTreeMap<PageId, Vec<(u64, Vec<u8>)>>,
}

/// Whose version of a leaf page a read sees (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum View {
    /// The volume as it is: committed state plus every issued write.
    Disk,
    /// The volume patched with a scope's stashed in-place writes — what
    /// every read inside the scope sees (read-your-writes).
    Scope(TxnId),
    /// The volume patched with the overlay's before-images, as a reader
    /// pinned at this publication epoch must see it.
    AsOf(u64),
}

/// Book-keeping for an open transaction scope (§4.5): frees are
/// deferred behind release locks, and the scope's own allocations are
/// remembered so an abort can return them. On a durable store the
/// scope also accumulates the commit record: the latest serialized
/// root of every object it touched and tombstones for deletions.
struct TxnState {
    batch: FreeBatch,
    allocs: Vec<Extent>,
    /// Extents freed into `batch`, for the commit frame's freed list.
    freed: Vec<Extent>,
    touched: BTreeMap<u64, Vec<u8>>,
    deleted: Vec<u64>,
    /// Leaf pages the scope overwrites in place (§4.2), held back until
    /// the commit frame carrying their redo is durable (no-steal).
    stash: BTreeMap<PageId, Stashed>,
}

/// One stashed in-place page write.
pub(crate) struct Stashed {
    /// The object the page belongs to (routes its redo to a stripe).
    object: u64,
    /// The whole page as the scope leaves it.
    after: Vec<u8>,
    /// The committed page, when the scope had to read it anyway.
    before: Option<Vec<u8>>,
    /// The byte range of the page the scope changed.
    lo: usize,
    hi: usize,
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
    /// The committed scope.
    pub txn: TxnId,
    /// The stashed pages to write in place once the record is durable.
    pub(crate) in_place: Vec<(PageId, Stashed)>,
    /// The committed root (`None`: absent) of every object the record
    /// touches or deletes, as the log held it before the append — what
    /// [`ObjectStore::fail_commit_force`] restores.
    prior: Vec<(u64, Option<Vec<u8>>)>,
}

impl PreparedCommit {
    /// The pages the commit writes in place.
    pub(crate) fn in_place_pages(&self) -> Vec<PageId> {
        self.in_place.iter().map(|&(page, _)| page).collect()
    }
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
        register_instruments(&obs);
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
            overlay: BTreeMap::new(),
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
        register_instruments(&obs);
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
            overlay: BTreeMap::new(),
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
        register_instruments(metrics);
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
        let mut page = Vec::with_capacity(ps);
        page.extend_from_slice(&(data.len() as u32).to_le_bytes());
        page.extend_from_slice(data);
        page.resize(ps, 0);
        self.volume.write_pages(self.boot_page(), &page)?;
        Ok(())
    }

    /// Read the boot record written by [`Self::write_boot_record`]
    /// (empty if none was ever written).
    pub fn read_boot_record(&self) -> Result<Vec<u8>> {
        let page = self.volume.read_pages(self.boot_page(), 1)?;
        let len = crate::codec::u32_at(&page, 0, "boot record length")? as usize;
        page.get(4..4 + len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| Error::CorruptObject {
                reason: "boot record length exceeds the page".into(),
            })
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
    /// On a durable store `replace` writes leaf pages in place, but
    /// only at commit, after the commit frame carrying its redo is
    /// durable; until then its pages wait in the scope's stash.
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
                freed: Vec::new(),
                touched: BTreeMap::new(),
                deleted: Vec::new(),
                stash: BTreeMap::new(),
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

    /// Does a durable commit of the scope need the data-before-log
    /// barrier — did it allocate (and so write) any fresh page? A
    /// replace-only scope allocates nothing: its in-place writes follow
    /// the commit frame, so its commit costs the log force alone.
    pub fn scope_dirty(&self, id: TxnId) -> bool {
        self.txns.get(&id).is_some_and(|t| !t.allocs.is_empty())
    }

    /// The group-commit lane a scope's force belongs on: the home
    /// stripe of the lowest-id object it touched, deleted or wrote in
    /// place (0 for a scope with nothing to publish). Scopes on
    /// different lanes batch — and force — independently.
    pub fn scope_group_stripe(&self, id: TxnId) -> usize {
        let Some(wal) = &self.wal else { return 0 };
        self.txns.get(&id).map_or(0, |t| {
            t.touched
                .keys()
                .copied()
                .chain(t.deleted.iter().copied())
                .chain(t.stash.values().map(|s| s.object))
                .map(|o| wal.stripe_of(o))
                .min()
                .unwrap_or(0)
        })
    }

    fn active_txn_mut(&mut self) -> Option<&mut TxnState> {
        let id = self.active?;
        self.txns.get_mut(&id)
    }

    /// Commit the open scope. On a durable store the **commit point**
    /// comes first: if the scope wrote fresh pages the volume is synced
    /// so they are durable (the data-before-log barrier: the commit
    /// record must never point at pages the OS could still be holding
    /// back), then a [`WalEntry::Commit`] record carrying the new root
    /// of every touched object and the redo of every in-place write is
    /// appended to the on-disk log and forced to stable storage; only
    /// then are the stashed pages written in place and the deferred
    /// frees applied. Both barriers are gated on
    /// [`StoreConfig::sync_on_commit`]. A crash on either side of that
    /// append recovers cleanly: before it, the transaction never
    /// happened; after it, restart recovery rebuilds the allocator
    /// state from the committed roots and replays the redo.
    /// On a non-durable store the caller makes the new descriptor
    /// durable (that write is the commit point, since the root is
    /// client-placed).
    ///
    /// If the commit append itself fails the scope is rolled back
    /// cleanly — stash dropped, allocations returned, deferred frees
    /// dropped, an Abort record closing the scope in the log — and the
    /// error returned; the volume stays structurally clean (the
    /// log-full-during-commit tests drive this path).
    pub fn commit_txn(&mut self) -> Result<()> {
        // Commit I/O (log frames, the data-before-log syncs, the
        // in-place writes, the deferred frees) is attributed to
        // `wal.commit`, not to the operation that happened to trigger
        // an autocommit — span nesting subtracts it from the enclosing
        // op automatically.
        let _span = self.obs.span(OpKind::WalCommit, &self.volume);
        let id = self.active.take().ok_or(Error::StaleTransaction)?;
        self.commit_scope(id)
    }

    /// Commit one scope end to end: the data-before-log barrier (only
    /// if the scope allocated), the commit-record append, the log
    /// force, then [`Self::finish_commit`]. A group-commit leader
    /// instead runs the phases itself ([`Self::prepare_commit`] per
    /// scope, one log force, then the finish per scope) so one fsync
    /// covers a whole batch.
    pub fn commit_scope(&mut self, id: TxnId) -> Result<()> {
        let dirty = self.scope_dirty(id);
        let prep = self.prepare_commit(id, dirty)?;
        match self.force_commit(&prep) {
            Ok(()) => self.finish_commit(prep),
            Err(e) => {
                self.fail_commit_force(&prep, &format!("log force failed: {e}"));
                Err(e)
            }
        }
    }

    /// The log force of a prepared commit — only the stripes carrying
    /// a part of its record: the record is durable past here. A
    /// function of its own so that, in [`Self::commit_scope`], the
    /// compensating append of a failed force follows
    /// [`Self::finish_commit`]: L6 replays a body in text order.
    fn force_commit(&self, prep: &PreparedCommit) -> Result<()> {
        if prep.appended && self.config.sync_on_commit {
            if let Some(wal) = &self.wal {
                // durability: seals(commit-frame)
                wal.sync_stripes(&prep.stripes)?;
            }
        }
        Ok(())
    }

    /// Settle a commit whose log force failed: its record was written
    /// but may or may not be durable. The store reports the commit
    /// failed, so it makes that outcome definite: it appends a
    /// compensating commit that restores what the log held before —
    /// the prior root or tombstone of every object the record touched
    /// or deleted, and the committed bytes of every range it was to
    /// write in place — and drops the record's deferred frees
    /// unapplied (leaked pages come back at restart). Recovery replays
    /// the pair in LSN order, and any later force makes the
    /// compensation durable along with the record, so a later commit
    /// of the same objects or pages can never be overwritten by the
    /// failed one's roots or redo — nor can a checkpoint carry that
    /// redo, which was never written in place. If the compensation
    /// cannot be appended, the log fails until reopen.
    pub(crate) fn fail_commit_force(&mut self, prep: &PreparedCommit, reason: &str) {
        self.buddy.abort_frees(prep.batch);
        let Some(wal) = self.wal.clone() else { return };
        if !prep.appended {
            return;
        }
        if let Err(e) = self.void_commit(&wal, prep) {
            wal.fail(&format!("{reason}; voiding the commit failed: {e}"));
        }
    }

    /// Append the compensating commit of [`Self::fail_commit_force`]
    /// and retire the redo of both records: the pages already hold the
    /// bytes the pair leaves them with.
    fn void_commit(&mut self, wal: &StripedWal, prep: &PreparedCommit) -> Result<()> {
        let mut redo = Vec::with_capacity(prep.in_place.len());
        for (page, s) in &prep.in_place {
            let before = match &s.before {
                Some(before) => before.clone(),
                None => self.volume.read_pages(*page, 1)?,
            };
            let bytes = before.get(s.lo..s.hi).ok_or_else(|| Error::CorruptObject {
                reason: format!("stashed range [{}, {}) outside page {page}", s.lo, s.hi),
            })?;
            let r = Redo {
                page: *page,
                offset: s.lo as u32,
                bytes: bytes.to_vec(),
            };
            redo.push((s.object, r));
        }
        let mut touched = Vec::new();
        let mut deleted = Vec::new();
        for (id, root) in &prep.prior {
            match root {
                Some(root) => touched.push((*id, root.clone())),
                None => deleted.push(*id),
            }
        }
        let txn = self.next_txn;
        self.next_txn += 1;
        let lsn = wal.allocate_lsn();
        // Publishes only roots and bytes the log already holds as
        // committed: no fresh page needs a data barrier first.
        // durability: mutates(commit-frame)
        let stripes = wal.append_commit(txn, lsn, touched, deleted, redo, &[])?; // lint: allow(durability, reason = "a compensating commit publishes only state already committed")
        wal.mark_applied(prep.txn, &prep.stripes);
        wal.mark_applied(txn, &stripes);
        Ok(())
    }

    /// Phases 2 and 3 of a commit whose record is durable, for a store
    /// with no pinned readers to protect: write the stashed pages in
    /// place, then apply the deferred frees.
    // durability: requires(commit-frame)
    pub fn finish_commit(&mut self, mut prep: PreparedCommit) -> Result<()> {
        self.write_in_place(&mut prep, None)?;
        self.apply_commit(prep.batch)
    }

    /// Phase 1 of a commit: close the scope's book-keeping and append
    /// (without forcing) its [`WalEntry::Commit`] record. Returns the
    /// [`PreparedCommit`] the caller finishes with: the stashed pages
    /// to write in place and the deferred-free batch to apply once the
    /// record is durable, whether a record was appended at all
    /// (read-only scopes skip the log entirely), and the
    /// touched-root/tombstone sets the MVCC front-end publishes to
    /// lock-free readers. With `data_barrier` the volume is synced
    /// before the append, so the record never points at shadowed pages
    /// the OS could still be holding back; the group-commit leader
    /// passes `false` after issuing one barrier for the whole batch.
    ///
    /// On any error (most importantly [`Error::LogFull`]) the scope is
    /// **fully aborted** — stash dropped, allocations returned,
    /// deferred frees dropped, an Abort record appended — so a failed
    /// commit can never leave the store half-applied.
    pub fn prepare_commit(&mut self, id: TxnId, data_barrier: bool) -> Result<PreparedCommit> {
        let mut txn = self.txns.remove(&id).ok_or(Error::StaleTransaction)?;
        if self.active == Some(id) {
            self.active = None;
        }
        let batch = txn.batch;
        let in_place: Vec<(PageId, Stashed)> = std::mem::take(&mut txn.stash).into_iter().collect();
        let redo: Vec<(u64, Redo)> = in_place
            .iter()
            .map(|(page, s)| {
                let bytes = s.after.get(s.lo..s.hi).map(<[u8]>::to_vec);
                let redo = Redo {
                    page: *page,
                    offset: s.lo as u32,
                    bytes: bytes.unwrap_or_default(),
                };
                (s.object, redo)
            })
            .collect();
        let Some(wal) = self.wal.clone() else {
            return Ok(PreparedCommit {
                batch,
                appended: false,
                touched: txn.touched,
                deleted: txn.deleted,
                stripes: Vec::new(),
                txn: id,
                in_place,
                prior: Vec::new(),
            });
        };
        let worth_logging = !txn.touched.is_empty()
            || !txn.deleted.is_empty()
            || !in_place.is_empty()
            || wal.has_pending_for(id);
        if !worth_logging {
            return Ok(PreparedCommit {
                batch,
                appended: false,
                touched: txn.touched,
                deleted: txn.deleted,
                stripes: Vec::new(),
                txn: id,
                in_place,
                prior: Vec::new(),
            });
        }
        // A fresh LSN for the commit point itself: strictly ordered
        // across scopes, so recovery's cross-stripe merge has a global
        // tiebreak.
        let lsn = wal.allocate_lsn();
        let touched: Vec<(u64, Vec<u8>)> =
            txn.touched.iter().map(|(k, v)| (*k, v.clone())).collect();
        let freed: Vec<(PageId, u64)> = txn.freed.iter().map(|e| (e.start, e.pages)).collect();
        let redo_bytes: u64 = redo.iter().map(|(_, r)| r.encoded_len()).sum();
        let prior: Vec<(u64, Option<Vec<u8>>)> = txn
            .touched
            .keys()
            .chain(&txn.deleted)
            .map(|&id| (id, wal.committed_root(id)))
            .collect();
        let sync = data_barrier && self.config.sync_on_commit;
        // Data-before-log: shadowed pages must be on disk before the
        // commit record that publishes them.
        // durability: seals(shadow-data)
        let barrier = if sync { wal.sync() } else { Ok(()) };
        let appended = barrier.and_then(|()| {
            // durability: mutates(commit-frame)
            wal.append_commit(id, lsn, touched, txn.deleted.clone(), redo, &freed)
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
            Ok(stripes) => {
                self.obs.counter("wal.redo_bytes").add(redo_bytes);
                Ok(PreparedCommit {
                    batch,
                    appended: true,
                    touched: txn.touched,
                    deleted: txn.deleted,
                    stripes,
                    txn: id,
                    in_place,
                    prior,
                })
            }
        }
    }

    /// Phase 2 of a commit, once its record is durable: write the
    /// stashed pages in place. With `park` — the commit's publication
    /// epoch, when older reader pins are live — each page's before-image
    /// is parked in the overlay under that epoch first, so those readers
    /// keep their snapshot (DESIGN.md §14); the images a replace already
    /// read are reused, the others are read here. Runs under the store
    /// write latch, so no reader sees a page between the two.
    ///
    /// An I/O error part-way leaves a durable commit partly written, so
    /// it fails the log until reopen: no later commit may build on the
    /// pages it did not write, and restart recovery replays the whole
    /// commit's redo.
    // durability: requires(commit-frame)
    pub(crate) fn write_in_place(
        &mut self,
        prep: &mut PreparedCommit,
        park: Option<u64>,
    ) -> Result<()> {
        if prep.in_place.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.write_stashed(std::mem::take(&mut prep.in_place), park) {
            if let Some(wal) = &self.wal {
                wal.fail(&format!("in-place write of a durable commit failed: {e}"));
            }
            return Err(e);
        }
        if let Some(wal) = &self.wal {
            wal.mark_applied(prep.txn, &prep.stripes);
        }
        Ok(())
    }

    /// The write loop of [`Self::write_in_place`].
    // durability: requires(commit-frame)
    fn write_stashed(&mut self, pages: Vec<(PageId, Stashed)>, park: Option<u64>) -> Result<()> {
        for (page, s) in pages {
            if let Some(epoch) = park {
                let before = match s.before {
                    Some(before) => before,
                    None => self.volume.read_pages(page, 1)?,
                };
                self.overlay.entry(page).or_default().push((epoch, before));
                self.obs.gauge("mvcc.overlay_pages").add(1);
            }
            // durability: mutates(committed-page)
            self.volume.write_pages(page, &s.after)?;
        }
        Ok(())
    }

    /// Drop the before-images parked under publication `epoch` for
    /// `pages` — called when the commit's parked frees are reclaimed.
    pub(crate) fn drop_overlay(&mut self, epoch: u64, pages: &[PageId]) {
        let mut dropped = 0u64;
        for page in pages {
            if let Some(images) = self.overlay.get_mut(page) {
                let before = images.len();
                images.retain(|(e, _)| *e != epoch);
                dropped += (before - images.len()) as u64;
                if images.is_empty() {
                    self.overlay.remove(page);
                }
            }
        }
        self.obs.gauge("mvcc.overlay_pages").sub(dropped);
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

    /// Abort the open scope: drop its stashed in-place writes and
    /// deferred frees (neither ever reached the volume) and return
    /// every page the scope allocated. The caller goes back to its
    /// pre-transaction descriptor copy. On a durable store an
    /// [`WalEntry::Abort`] record closes the scope in the log if it
    /// logged anything; an abort writes no data page, so it needs no
    /// barrier — if it is interrupted, restart recovery simply discards
    /// the scope again.
    pub fn abort_txn(&mut self) -> Result<()> {
        let id = self.active.take().ok_or(Error::StaleTransaction)?;
        self.abort_scope(id)
    }

    /// Abort one scope: drop its stash and deferred frees, return its
    /// allocations, and close it in the log with a scope-stamped
    /// [`WalEntry::Abort`]. Other open scopes are untouched — their
    /// pending entries stay pending.
    pub fn abort_scope(&mut self, id: TxnId) -> Result<()> {
        let txn = self.txns.remove(&id).ok_or(Error::StaleTransaction)?;
        if self.active == Some(id) {
            self.active = None;
        }
        self.buddy.abort_frees(txn.batch);
        for e in txn.allocs {
            self.buddy.free(e.start, e.pages)?;
        }
        if let Some(wal) = &self.wal {
            if wal.has_pending_for(id) {
                let lsn = wal.last_lsn();
                // lint: allow(durability, reason = "an Abort frame publishes nothing: the scope's shadow pages stay unreferenced, so no data barrier must precede it")
                wal.append(WalEntry::Abort { txn: id, lsn })?; // durability: mutates(commit-frame)
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

    /// Read `len` bytes starting at byte `offset` (§4.2). Inside a
    /// transaction scope the read sees the scope's own in-place writes.
    pub fn read(&self, obj: &LargeObject, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.read_in(self.view(), obj, offset, len)
    }

    /// Read the whole object.
    pub fn read_all(&self, obj: &LargeObject) -> Result<Vec<u8>> {
        self.read_in(self.view(), obj, 0, obj.size())
    }

    /// [`Self::read`] as `view` sees the leaf pages.
    pub(crate) fn read_in(
        &self,
        view: View,
        obj: &LargeObject,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        let _span = self.obs.span(OpKind::Read, &self.volume);
        ops::read::run(self, view, obj, offset, len)
    }

    /// Overwrite `data.len()` bytes starting at `offset` (§4.2: "the
    /// search algorithm can also be used for the byte range replace
    /// operation"). A volatile store writes the pages in place at once.
    /// A durable store redo-logs the write and issues it only at
    /// commit, after the commit frame — or, per touched segment, takes
    /// the copy-on-write rewrite of [`Self::replace_shadow`] when that
    /// writes fewer device bytes (DESIGN.md §7 item 8).
    pub fn replace(&mut self, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
        if self.wal.is_some() {
            return self.staged_replace(obj, offset, data);
        }
        let _span = self.obs.span(OpKind::Replace, &self.volume);
        self.set_affinity_for(obj.id());
        ops::replace::run(self, obj, offset, data)?;
        self.paranoid_check(obj)
    }

    /// Overwrite bytes at `offset` **copy-on-write**, whatever the
    /// cost: each touched segment is split §4.4-style into pages kept in
    /// place (L and R) and a new segment N on a fresh extent holding the
    /// touched pages, plus whatever the threshold T makes L and R
    /// donate; the free of the pages N supersedes is deferred behind
    /// the scope's release lock. Byte-for-byte the same result as
    /// [`Self::replace`], and the rewrite side of its per-segment cost
    /// rule — the reference the rule is tested against.
    pub fn replace_shadow(
        &mut self,
        obj: &mut LargeObject,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let _span = self.obs.span(OpKind::Replace, &self.volume);
        self.set_affinity_for(obj.id());
        self.with_autocommit(|s| {
            ops::replace::run_shadow(s, obj, offset, data)?;
            if s.wal.is_some() {
                s.log_touch(obj)?;
            }
            s.paranoid_check(obj)
        })
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
    /// release lock while a transaction scope is open. A freed page's
    /// stashed in-place write is dropped: the page leaves the object.
    pub(crate) fn free_pages(&mut self, start: PageId, pages: u64) -> Result<()> {
        let extent = Extent { start, pages };
        match self.active_txn_mut() {
            Some(txn) => {
                let batch = txn.batch;
                txn.freed.push(extent);
                let end = start.saturating_add(pages);
                txn.stash.retain(|&p, _| p < start || p >= end);
                self.buddy.defer_free(batch, extent);
            }
            None => self.buddy.free(start, pages)?,
        }
        Ok(())
    }

    // ---- leaf-page views (DESIGN.md §12) --------------------------------

    /// The view the next leaf read sees: the active scope's, else the
    /// disk.
    pub(crate) fn view(&self) -> View {
        self.active.map_or(View::Disk, View::Scope)
    }

    /// Read `pages` leaf pages at `start` into `buf` as `view` sees
    /// them. Every leaf read of the §4 operations goes through here, so
    /// a scope reads its own stashed writes and a pinned reader the
    /// before-images of pages overwritten since its pin.
    pub(crate) fn read_leaf_into(
        &self,
        view: View,
        start: PageId,
        pages: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        self.volume.read_into(start, pages, buf)?;
        let end = start.saturating_add(pages);
        match view {
            View::Disk => {}
            View::Scope(id) => {
                if let Some(txn) = self.txns.get(&id) {
                    for (&page, s) in txn.stash.range(start..end) {
                        patch_page(buf, page - start, &s.after)?;
                    }
                }
            }
            View::AsOf(pin) => {
                for (&page, images) in self.overlay.range(start..end) {
                    if let Some((_, image)) = images.iter().find(|(epoch, _)| *epoch > pin) {
                        patch_page(buf, page - start, image)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Read `pages` leaf pages at `start` as the active scope sees them.
    pub(crate) fn read_leaf(&self, start: PageId, pages: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; pages as usize * self.page_size()];
        self.read_leaf_into(self.view(), start, pages, &mut buf)?;
        Ok(buf)
    }

    /// Write `bytes` at byte `at` of leaf page `page` of `object` into
    /// the active scope's stash (§4.2, no-steal): nothing reaches the
    /// volume before the commit frame carrying the redo is durable
    /// ([`Self::write_in_place`]). `read` says the page keeps bytes
    /// outside the range: on its first write it is then read once and
    /// kept as the before-image too.
    pub(crate) fn stash_write(
        &mut self,
        object: u64,
        page: PageId,
        at: u64,
        bytes: &[u8],
        read: bool,
    ) -> Result<()> {
        let id = self.active.ok_or(Error::StaleTransaction)?;
        let fresh = !self
            .txns
            .get(&id)
            .ok_or(Error::StaleTransaction)?
            .stash
            .contains_key(&page);
        let before = if fresh && read {
            Some(self.read_leaf(page, 1)?)
        } else {
            None
        };
        let ps = self.page_size();
        let txn = self.txns.get_mut(&id).ok_or(Error::StaleTransaction)?;
        let (lo, hi) = (at as usize, at as usize + bytes.len());
        let s = txn.stash.entry(page).or_insert_with(|| Stashed {
            object,
            after: before.clone().unwrap_or_else(|| vec![0u8; ps]),
            before,
            lo,
            hi,
        });
        s.after
            .get_mut(lo..hi)
            .ok_or_else(|| Error::CorruptObject {
                reason: format!("in-place write [{lo}, {hi}) outside its page"),
            })?
            .copy_from_slice(bytes);
        s.lo = s.lo.min(lo);
        s.hi = s.hi.max(hi);
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

/// Register the store's own instruments up front, so a snapshot lists
/// them (at zero) before the first in-place write: `wal.redo_bytes`,
/// the redo record bytes commit frames carried, and
/// `mvcc.overlay_pages`, the before-images currently parked for
/// pinned readers.
fn register_instruments(metrics: &Metrics) {
    metrics.counter("wal.redo_bytes");
    metrics.gauge("mvcc.overlay_pages");
}

/// Lay a one-page `image` over page `index` of a multi-page buffer.
fn patch_page(buf: &mut [u8], index: u64, image: &[u8]) -> Result<()> {
    let (at, len) = (index as usize * image.len(), buf.len());
    buf.get_mut(at..at + image.len())
        .ok_or_else(|| Error::CorruptObject {
            reason: format!("page {index} outside a {len}-byte read"),
        })?
        .copy_from_slice(image);
    Ok(())
}
