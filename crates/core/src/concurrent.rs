//! A concurrent front-end over [`ObjectStore`]: shared handles,
//! per-transaction scopes, byte-range locking, and a group-commit WAL
//! pipeline.
//!
//! The paper's engine (§4.5) interleaves many client transactions over
//! one storage manager: each transaction locks the byte ranges it
//! touches, shadowed operations keep the committed image intact, and a
//! single commit point makes each transaction durable. This module is
//! that front-end:
//!
//! * [`ConcurrentStore`] is a cheaply cloneable (`Arc`-shared) handle
//!   around one [`ObjectStore`]. The store itself sits behind a
//!   `RwLock` — reads of committed objects run concurrently, mutations
//!   serialize on the write latch (the latch is held only for the
//!   in-memory/page work of one operation, never across a user stall).
//! * [`Txn`] is one transaction scope. Every **write** first acquires
//!   an exclusive lock from the shared [`RangeLockManager`] (a tail
//!   lock for offset-shifting edits, the whole object for replace:
//!   each write publishes a whole new root at commit), *then* takes
//!   the store latch — so lock waits never hold the latch. A scope's
//!   first write to an object refuses a descriptor older than the
//!   published committed root ([`Error::StaleDescriptor`]). Locks
//!   follow strict two-phase locking: they are released only after
//!   commit or abort.
//!   **Reads take no range locks at all**: they pin the committed
//!   root set the last commit published (MVCC snapshot isolation,
//!   DESIGN.md §14) and traverse it while the pin parks any
//!   concurrent reclaim; [`Snapshot`] is the explicit, multi-read
//!   form of the same pin.
//! * Durable commits funnel through a **group-commit pipeline**: each
//!   committing thread enqueues its scope; one thread becomes the
//!   leader, drains the queue, and retires the whole batch with *two*
//!   volume syncs total (one data barrier, one log force) instead of
//!   two per transaction. Batch sizes are recorded in the
//!   `wal.group_commit.batch` histogram. On a striped log
//!   ([`crate::StripedWal`]) the pipeline runs one **lane per stripe**:
//!   scopes enqueue on their home stripe's lane, each lane elects its
//!   own leader, and the lanes' Phase C log forces hold only their own
//!   stripe latches — so commits on disjoint stripes force in
//!   parallel, which is the whole point of striping.
//!
//! Lock acquisition order is the caller's responsibility: `lock`
//! blocks without deadlock detection, so transactions that touch
//! multiple objects should touch them in a consistent order (or use
//! disjoint objects, as ingest workloads naturally do).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eos_buddy::FreeBatch;
use eos_obs::{Counter, Gauge, Histogram, Metrics, PipeKind, PIN_TRACE_BIT};
use eos_pager::{PageId, SharedVolume};
use parking_lot::{LockClass, TrackedCondvar, TrackedMutex, TrackedRwLock};

use crate::error::{Error, Result};
use crate::locks::{LockMode, RangeLockManager, TxnId};
use crate::object::LargeObject;
use crate::store::{ObjectStore, PreparedCommit, View};
use crate::striped::StripedWal;

/// A shareable handle to one [`ObjectStore`]. Clone it freely — all
/// clones see the same store, lock table, and commit pipeline.
#[derive(Clone)]
pub struct ConcurrentStore {
    inner: Arc<Inner>,
}

struct Inner {
    // The store latch legitimately covers page I/O: §4.5 latched
    // commit phases write shadow pages and WAL records under it
    // (`io = allowed`), which is why it ranks *above* the volume
    // mutex and below nothing that forbids I/O. See DESIGN.md §13.
    // lock-class: store = store.latch rank = 30 io = allowed
    store: TrackedRwLock<ObjectStore>,
    locks: RangeLockManager,
    /// The store's volume, retained so the group-commit leader can
    /// issue its barrier/force syncs without holding the store latch.
    volume: SharedVolume,
    /// The store's striped log, retained (shared `Arc`) so Phase C and
    /// the solo commit force stripes without any store latch — the
    /// write-preferring `RwLock` would otherwise let a waiting writer
    /// block the read-latched force and serialize the lanes again.
    wal: Option<Arc<StripedWal>>,
    group_commit: bool,
    sync_on_commit: bool,
    // Outermost latch in the hierarchy: a committer takes it before
    // anything else and the leader *drops* it across `flush_batch`
    // (release-then-reacquire), so it never covers I/O or the latch.
    // One lane per WAL stripe (a single lane when unstriped or
    // volatile); a scope enqueues on its home stripe's lane and the
    // lanes flush independently.
    // lock-class: group = commit.group rank = 10 io = forbidden
    group: Vec<TrackedMutex<GroupState>>,
    group_cv: Vec<TrackedCondvar>,
    // MVCC bookkeeping: the committed root set, reader epoch pins and
    // the parked deferred-free batches. Taken *under* the store latch
    // on the publication path (rank above `store.latch`), and alone on
    // the pin/unpin path; never held while acquiring anything else,
    // and never across volume I/O (reclaims apply after it drops).
    // lock-class: mvcc = mvcc.state rank = 35 io = forbidden
    mvcc: TrackedMutex<MvccState>,
    mvcc_obs: MvccObs,
    /// Mirrors `wal.syncs`: the leader calls `Volume::sync` directly
    /// (bypassing [`crate::durable::DurableWal::sync`]), so it bumps
    /// the same counter by hand to keep the metric honest.
    syncs: Counter,
    group_commits: Counter,
    batch_hist: Histogram,
    /// eos-trace instruments for the commit pipeline (DESIGN.md §16).
    cobs: CommitObs,
    /// Monotonic group-commit batch ids (first batch is 1; 0 in an
    /// event means "batch unknown / not applicable").
    batch_seq: AtomicU64,
}

/// Pre-resolved eos-trace instruments: the pipeline-event domain and
/// the per-phase wall-clock histograms (DESIGN.md §16).
struct CommitObs {
    metrics: Metrics,
    /// Enqueue-to-retirement wait of each committer (leader included:
    /// its wait ends when it assumes leadership).
    queue_wait_us: Histogram,
    /// Wall time of the leader's Phases A–D, one histogram each.
    phase_wall_us: [Histogram; 4],
    /// Pin-to-unpin hold time of MVCC reads and snapshots.
    pin_hold_us: Histogram,
}

/// Microseconds elapsed since `t0`, saturating.
fn us_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The committed-version state readers pin (DESIGN.md §14): writers
/// publish a new root set per commit under a fresh epoch; readers pin
/// the epoch they started at, and superseded pages (deferred-free
/// batches of commits that happened while any older epoch was pinned)
/// are parked until the oldest pin passes them.
struct MvccState {
    /// The current publication epoch — bumped once per committed scope.
    epoch: u64,
    /// Object id → committed root descriptor, as of `epoch`. Shared
    /// out to snapshots by `Arc`; publication clones-and-replaces, so
    /// a pinned snapshot's view is immutable.
    roots: Arc<BTreeMap<u64, Arc<LargeObject>>>,
    /// Live reader pins: epoch → number of pins at that epoch.
    pinned: BTreeMap<u64, usize>,
    /// Deferred-free batches parked behind older reader pins, in
    /// publication order (epochs strictly increase back to front).
    deferred: VecDeque<DeferredFrees>,
}

/// One parked deferred-free batch: the frees of a commit published at
/// `epoch`, reclaimable once no reader pin is older than that epoch,
/// together with the before-images its in-place writes parked in the
/// store's overlay under the same epoch.
struct DeferredFrees {
    epoch: u64,
    batch: FreeBatch,
    pages: u64,
    /// Pages whose before-image the commit parked.
    overlay: Vec<PageId>,
}

impl MvccState {
    /// The oldest pinned epoch, if any reader is live.
    fn oldest_pin(&self) -> Option<u64> {
        self.pinned.keys().next().copied()
    }

    /// Pop every parked batch the oldest live pin has passed. A batch
    /// parked at publication epoch `e` superseded pages that were live
    /// at epochs `< e`, so it is reclaimable exactly when no pin is
    /// older than `e`.
    fn drain_reclaimable(&mut self) -> Vec<DeferredFrees> {
        let oldest = self.oldest_pin();
        let mut out = Vec::new();
        while let Some(front) = self.deferred.front() {
            if oldest.is_some_and(|p| p < front.epoch) {
                break;
            }
            if let Some(d) = self.deferred.pop_front() {
                out.push(d);
            }
        }
        out
    }
}

/// Pre-resolved `mvcc.*` instruments ([`ObjectStore::metrics`] domain).
#[derive(Clone)]
struct MvccObs {
    /// Snapshots pinned (named snapshots and per-read implicit pins).
    snapshots: Counter,
    /// Deferred-free batches reclaimed after their parking epoch passed.
    reclaim_batches: Counter,
    /// Pages those reclaimed batches returned to the allocator.
    reclaimed_pages: Counter,
    /// Pages currently parked behind reader pins.
    deferred_pages: Gauge,
    /// Current epoch minus the oldest pinned epoch (0 with no readers).
    oldest_epoch_lag: Gauge,
}

#[derive(Default)]
struct GroupState {
    /// Scopes waiting to be flushed by the next leader.
    queue: Vec<TxnId>,
    /// Finished commits not yet picked up by their owning thread,
    /// tagged with the batch id that retired them so the follower's
    /// trace events link to the leader's phase spans.
    results: HashMap<TxnId, (u64, Result<()>)>,
    /// Whether a leader is currently flushing a batch (with the group
    /// mutex released); at most one at a time.
    leader_running: bool,
}

impl ConcurrentStore {
    /// Wrap `store` for shared use, with group commit enabled.
    ///
    /// If the caller wants operations recorded in a specific metrics
    /// domain, call [`ObjectStore::set_metrics`] *before* wrapping —
    /// the lock-manager and group-commit instruments are resolved from
    /// the store's domain here.
    pub fn new(store: ObjectStore) -> ConcurrentStore {
        Self::with_group_commit(store, true)
    }

    /// Wrap `store`, choosing whether durable commits batch through
    /// the group-commit pipeline (`true`) or each pay their own pair
    /// of syncs under the write latch (`false`).
    pub fn with_group_commit(store: ObjectStore, group_commit: bool) -> ConcurrentStore {
        let obs: Metrics = store.metrics().clone();
        let volume = store.volume().clone();
        let sync_on_commit = store.config().sync_on_commit;
        let locks = RangeLockManager::new();
        locks.set_metrics(&obs);
        // Seed the committed root set from the durable log's committed
        // map, so readers can resolve any object that was committed
        // before this front-end was wrapped around the store. Volatile
        // stores start empty (reads fall back to caller descriptors).
        let seed: BTreeMap<u64, Arc<LargeObject>> = store
            .durable_wal()
            .map(|w| {
                w.committed()
                    .into_iter()
                    .filter_map(|(id, bytes)| {
                        LargeObject::from_bytes(&bytes)
                            .ok()
                            .map(|o| (id, Arc::new(o)))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let wal = store.wal_handle();
        let lanes = wal.as_ref().map_or(1, |w| w.num_stripes());
        ConcurrentStore {
            inner: Arc::new(Inner {
                store: TrackedRwLock::new(LockClass::allows_io("store.latch"), store),
                locks,
                volume,
                wal,
                group_commit,
                sync_on_commit,
                group: (0..lanes)
                    .map(|_| {
                        TrackedMutex::new(
                            LockClass::forbids_io("commit.group"),
                            GroupState::default(),
                        )
                    })
                    .collect(),
                group_cv: (0..lanes).map(|_| TrackedCondvar::new()).collect(),
                mvcc: TrackedMutex::new(
                    LockClass::forbids_io("mvcc.state"),
                    MvccState {
                        epoch: 1,
                        roots: Arc::new(seed),
                        pinned: BTreeMap::new(),
                        deferred: VecDeque::new(),
                    },
                ),
                mvcc_obs: MvccObs {
                    snapshots: obs.counter("mvcc.snapshots"),
                    reclaim_batches: obs.counter("mvcc.reclaim_batches"),
                    reclaimed_pages: obs.counter("mvcc.reclaimed_pages"),
                    deferred_pages: obs.gauge("mvcc.deferred_pages"),
                    oldest_epoch_lag: obs.gauge("mvcc.oldest_epoch_lag"),
                },
                syncs: obs.counter("wal.syncs"),
                group_commits: obs.counter("wal.group_commits"),
                batch_hist: obs.histogram("wal.group_commit.batch"),
                cobs: CommitObs {
                    queue_wait_us: obs.histogram("commit.queue_wait_us"),
                    phase_wall_us: [
                        obs.histogram("commit.phase_a.wall_us"),
                        obs.histogram("commit.phase_b.wall_us"),
                        obs.histogram("commit.phase_c.wall_us"),
                        obs.histogram("commit.phase_d.wall_us"),
                    ],
                    pin_hold_us: obs.histogram("mvcc.pin.hold_us"),
                    metrics: obs,
                },
                batch_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Open a new transaction scope. The returned handle owns the
    /// scope: dropping it without [`Txn::commit`] aborts it.
    pub fn begin(&self) -> Txn {
        let id = self.inner.store.write().open_scope();
        Txn {
            cs: self.clone(),
            id,
            finished: false,
            wrote: RefCell::new(BTreeSet::new()),
        }
    }

    /// Run `f` with shared (read) access to the underlying store.
    pub fn with_store<R>(&self, f: impl FnOnce(&ObjectStore) -> R) -> R {
        f(&self.inner.store.read())
    }

    /// Run `f` with exclusive access to the underlying store — for
    /// maintenance outside any transaction (autocommit applies).
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut ObjectStore) -> R) -> R {
        f(&mut self.inner.store.write())
    }

    /// Unwrap back to the plain store. Fails (returning `self`) if
    /// other clones of this handle are still alive.
    pub fn try_into_inner(self) -> std::result::Result<ObjectStore, ConcurrentStore> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.store.into_inner()),
            Err(arc) => Err(ConcurrentStore { inner: arc }),
        }
    }

    /// The shared byte-range lock table.
    pub fn locks(&self) -> &RangeLockManager {
        &self.inner.locks
    }

    // ---- MVCC: pins, publication, reclaim (DESIGN.md §14) ----------------
    //
    // The reclaim path's write-ordering contract (rule L6, DESIGN.md
    // §15): deferred-freed pages must not become reusable before the
    // commit frame that supersedes them is durable.
    //
    // durability-class: mvcc-publish requires = commit-frame

    /// Pin the current epoch and hand back the committed root set as
    /// of that epoch. Every pin MUST be paired with one
    /// [`Self::unpin_and_reclaim`].
    fn pin(&self) -> (u64, Arc<BTreeMap<u64, Arc<LargeObject>>>) {
        let inner = &*self.inner;
        let (epoch, roots) = {
            let mut mv = inner.mvcc.lock();
            let epoch = mv.epoch;
            *mv.pinned.entry(epoch).or_insert(0) += 1;
            inner.mvcc_obs.snapshots.inc();
            let lag = epoch - mv.oldest_pin().unwrap_or(epoch);
            inner.mvcc_obs.oldest_epoch_lag.set(lag);
            (epoch, Arc::clone(&mv.roots))
        };
        inner
            .cobs
            .metrics
            .pipe_event(PipeKind::Begin, "mvcc.pin", epoch | PIN_TRACE_BIT, 0);
        (epoch, roots)
    }

    /// Release one pin at `epoch` and apply every deferred-free batch
    /// the oldest remaining pin has now passed. The reclaim itself
    /// (directory-page writes on a log-less store; in-memory on a
    /// durable one) runs under the store write latch, with the
    /// MVCC latch already released. Batches are parked only by
    /// [`Self::publish_commit`], *after* their commit's log force, so
    /// every drained batch's commit frame is already durable.
    // durability: requires(commit-frame)
    fn unpin_and_reclaim(&self, epoch: u64) -> Result<()> {
        let inner = &*self.inner;
        let reclaim = {
            let mut mv = inner.mvcc.lock();
            if let Some(n) = mv.pinned.get_mut(&epoch) {
                *n -= 1;
                if *n == 0 {
                    mv.pinned.remove(&epoch);
                }
            }
            let out = mv.drain_reclaimable();
            let lag = mv.epoch - mv.oldest_pin().unwrap_or(mv.epoch);
            inner.mvcc_obs.oldest_epoch_lag.set(lag);
            out
        };
        inner
            .cobs
            .metrics
            .pipe_event(PipeKind::End, "mvcc.pin", epoch | PIN_TRACE_BIT, 0);
        if reclaim.is_empty() {
            return Ok(());
        }
        let mut st = inner.store.write();
        let mut reclaim = reclaim;
        for i in 0..reclaim.len() {
            let (epoch, batch, pages) = {
                let d = &reclaim[i];
                st.drop_overlay(d.epoch, &d.overlay);
                (d.epoch, d.batch, d.pages)
            };
            inner.cobs.metrics.pipe_event(
                PipeKind::Instant,
                "mvcc.reclaim",
                epoch | PIN_TRACE_BIT,
                0,
            );
            // durability: mutates(mvcc-publish)
            if let Err(e) = st.apply_commit(batch) {
                // `commit_frees` consumed the batch from the registry
                // before the failing free I/O, so the failed batch
                // cannot be re-parked (re-applying it would double
                // free) — its pages leak until restart, and the gauge
                // must drop them. The *rest* of the drained batches
                // were never touched: re-park them at the queue front,
                // in order, so a later unpin retries the frees.
                inner.mvcc_obs.deferred_pages.sub(pages);
                drop(st);
                let mut mv = inner.mvcc.lock();
                for r in reclaim.drain(i + 1..).rev() {
                    mv.deferred.push_front(r);
                }
                return Err(e);
            }
            inner.mvcc_obs.reclaim_batches.inc();
            inner.mvcc_obs.reclaimed_pages.add(pages);
            inner.mvcc_obs.deferred_pages.sub(pages);
        }
        Ok(())
    }

    /// Publish one prepared commit to readers and retire its deferred
    /// frees: bump the epoch, swap in a new committed root set with the
    /// scope's touched roots and tombstones applied, write the scope's
    /// stashed pages in place, then either apply the free batch
    /// immediately (no reader pinned an older epoch) or park it on the
    /// epoch-tagged deferred list — together with the before-images of
    /// the in-place writes, which the older pins read instead of the
    /// new pages. Called with the store write latch held, so no reader
    /// sees the epoch bump without the writes; the MVCC latch nests
    /// inside it and is released before any I/O.
    // durability: requires(commit-frame)
    fn publish_commit(&self, st: &mut ObjectStore, prep: &mut PreparedCommit) -> Result<()> {
        let inner = &*self.inner;
        let pages = st.buddy().batch_page_count(prep.batch);
        let overlay = prep.in_place_pages();
        let mut decoded = Vec::with_capacity(prep.touched.len());
        for (id, bytes) in &prep.touched {
            decoded.push((*id, Arc::new(LargeObject::from_bytes(bytes)?)));
        }
        let (epoch, park) = {
            let mut mv = inner.mvcc.lock();
            mv.epoch += 1;
            if !decoded.is_empty() || !prep.deleted.is_empty() {
                let mut roots = (*mv.roots).clone();
                for (id, obj) in decoded {
                    roots.insert(id, obj);
                }
                for id in &prep.deleted {
                    roots.remove(id);
                }
                mv.roots = Arc::new(roots);
            }
            let lag = mv.epoch - mv.oldest_pin().unwrap_or(mv.epoch);
            inner.mvcc_obs.oldest_epoch_lag.set(lag);
            let epoch = mv.epoch;
            let park = (pages > 0 || !overlay.is_empty()) && !mv.pinned.is_empty();
            if park {
                mv.deferred.push_back(DeferredFrees {
                    epoch,
                    batch: prep.batch,
                    pages,
                    overlay,
                });
                inner.mvcc_obs.deferred_pages.add(pages);
                inner.cobs.metrics.pipe_event(
                    PipeKind::Instant,
                    "mvcc.park",
                    epoch | PIN_TRACE_BIT,
                    0,
                );
            }
            (epoch, park)
        };
        st.write_in_place(prep, park.then_some(epoch))?;
        if !park {
            inner.cobs.metrics.pipe_event(
                PipeKind::Instant,
                "mvcc.apply",
                epoch | PIN_TRACE_BIT,
                0,
            );
            // durability: mutates(mvcc-publish)
            st.apply_commit(prep.batch)?;
        }
        Ok(())
    }

    /// Pin a consistent, immutable view of every committed object. The
    /// snapshot reads entirely without range locks; pages it can see
    /// are protected from reclaim until it drops.
    pub fn snapshot(&self) -> Snapshot {
        let (epoch, roots) = self.pin();
        Snapshot {
            cs: self.clone(),
            epoch,
            roots,
            pinned: Instant::now(),
        }
    }

    // ---- the commit pipeline ---------------------------------------------

    fn commit_scope(&self, id: TxnId) -> Result<()> {
        if self.inner.group_commit {
            self.commit_grouped(id)
        } else {
            self.commit_solo(id)
        }
    }

    /// The non-grouped durable commit, with MVCC publication: the same
    /// barrier/append/force sequence as [`ObjectStore::commit_scope`],
    /// but with both syncs issued **outside the store latch** — the
    /// data barrier before the append, the log force holding only the
    /// touched stripes' latches after it — so solo committers on
    /// disjoint stripes overlap their I/O. Then root publication and
    /// the deferred frees (parked if a reader epoch is pinned).
    fn commit_solo(&self, id: TxnId) -> Result<()> {
        let inner = &*self.inner;
        // Data barrier: shadowed pages must be on disk before the commit
        // record that publishes them (only a scope that allocated has
        // any).
        if inner.sync_on_commit && inner.wal.is_some() {
            let dirty = inner.store.read().scope_dirty(id);
            if dirty {
                // durability: seals(shadow-data)
                if let Err(e) = inner.volume.sync() {
                    let _ = inner.store.write().abort_scope(id);
                    return Err(Error::CommitFailed {
                        reason: format!("data barrier failed: {}", Error::from(e)),
                    });
                }
                inner.syncs.inc();
            }
        }
        // Append the commit record under the write latch, no force.
        let mut prep = {
            let mut st = inner.store.write();
            // durability: mutates(commit-frame)
            st.prepare_commit(id, false)?
        };
        // The log force: the commit record is durable past here.
        if prep.appended && inner.sync_on_commit {
            if let Some(wal) = &inner.wal {
                // durability: seals(commit-frame)
                if let Err(e) = wal.sync_stripes(&prep.stripes) {
                    // Durability unknown: settle the scope
                    // ([`ObjectStore::fail_commit_force`]), then fail
                    // the commit.
                    let reason = format!("log force failed: {e}");
                    inner.store.write().fail_commit_force(&prep, &reason);
                    return Err(Error::CommitFailed { reason });
                }
            }
        }
        let mut st = inner.store.write();
        self.publish_commit(&mut st, &mut prep)
    }

    /// Group commit: enqueue the scope, then either wait for a leader
    /// to retire it or become the leader and flush the whole queue.
    fn commit_grouped(&self, id: TxnId) -> Result<()> {
        let inner = &*self.inner;
        let waited = Instant::now();
        inner
            .cobs
            .metrics
            .pipe_event(PipeKind::Begin, "commit.queue_wait", id, 0);
        // Set once the queue-wait span has been closed (the leader
        // closes its own at election, a follower at retirement).
        let mut wait_closed = false;
        let mut close_wait = |batch_id: u64| {
            if wait_closed {
                return;
            }
            wait_closed = true;
            inner
                .cobs
                .metrics
                .pipe_event(PipeKind::End, "commit.queue_wait", id, batch_id);
            let wait_ns = u64::try_from(waited.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.cobs.queue_wait_us.record(wait_ns / 1000);
            inner
                .cobs
                .metrics
                .check_stall("commit.queue_wait", id, batch_id, wait_ns);
        };
        // Home lane: the scope's lowest touched stripe. The store read
        // latch must drop *before* the lane mutex is taken —
        // store.latch (rank 30) can never be held while acquiring
        // commit.group (rank 10).
        let lane = {
            let st = inner.store.read();
            st.scope_group_stripe(id)
        }
        .min(inner.group.len() - 1);
        let mut g = inner.group[lane].lock();
        g.queue.push(id);
        loop {
            if let Some((batch_id, res)) = g.results.remove(&id) {
                drop(g);
                close_wait(batch_id);
                return res;
            }
            if !g.leader_running {
                g.leader_running = true;
                let batch = std::mem::take(&mut g.queue);
                let batch_id = inner.batch_seq.fetch_add(1, Ordering::Relaxed) + 1;
                drop(g);
                close_wait(batch_id);
                let results = self.flush_batch(&batch, batch_id, id);
                g = inner.group[lane].lock();
                g.leader_running = false;
                for (txn, res) in results {
                    g.results.insert(txn, (batch_id, res));
                }
                inner.group_cv[lane].notify_all();
                // Loop around: our own result is now in the map. If
                // more committers queued up meanwhile, one of the
                // woken threads elects itself the next leader.
            } else {
                inner.group_cv[lane].wait(&mut g);
            }
        }
    }

    /// Retire one batch of prepared scopes with two volume syncs
    /// total. Called with the group mutex *released*; takes the store
    /// latch only for the in-memory phases.
    ///
    /// The leader stamps Phase A–D begin/end events with *shared
    /// boundary timestamps* (phase N's end instant is phase N+1's
    /// begin), so the exported timeline is contiguous and the phase
    /// durations sum exactly to the batch's end-to-end wall time.
    /// `lead` is the leader's TxnId — the trace id of the batch-level
    /// spans.
    fn flush_batch(&self, batch: &[TxnId], batch_id: u64, lead: TxnId) -> Vec<(TxnId, Result<()>)> {
        let inner = &*self.inner;
        inner.group_commits.inc();
        inner.batch_hist.record(batch.len() as u64);
        let m = &inner.cobs.metrics;
        let t0 = m.now_ns();

        // Phase A — one data barrier for the whole batch, outside the
        // latch: shadowed pages of *every* scope in the batch must be
        // on disk before any commit record. Skipped when no scope
        // allocated: a replace-only batch costs the Phase C force alone.
        if inner.sync_on_commit {
            let dirty = {
                let st = inner.store.read();
                batch.iter().any(|&t| st.scope_dirty(t))
            };
            if dirty {
                // durability: seals(shadow-data)
                if let Err(e) = inner.volume.sync() {
                    return self.fail_batch(batch, &Error::from(e).to_string());
                }
                inner.syncs.inc();
            }
        }
        let t1 = m.now_ns();

        // Phase B — append each scope's commit record under the write
        // latch, without forcing the log.
        let mut prepared = Vec::with_capacity(batch.len());
        let mut appended_any = false;
        {
            let mut st = inner.store.write();
            for &t in batch {
                // durability: mutates(commit-frame)
                let r = st.prepare_commit(t, false);
                if matches!(&r, Ok(p) if p.appended) {
                    appended_any = true;
                }
                m.pipe_event(PipeKind::Instant, "commit.prepare", t, batch_id);
                prepared.push((t, r));
            }
        }
        let t2 = m.now_ns();

        // Phase C — one log force covers every commit record appended
        // in phase B. No waiter is released before this returns, so a
        // reported commit is durable even though its fsync was shared.
        // On a striped log the force holds only the latches of the
        // stripes this batch actually landed on — and *no store latch*
        // — so lanes flushing disjoint stripes force in parallel.
        let mut force_err: Option<String> = None;
        if appended_any && inner.sync_on_commit {
            let force: Result<()> = match &inner.wal {
                Some(w) => {
                    let mut stripes: Vec<usize> = prepared
                        .iter()
                        .filter_map(|(_, r)| r.as_ref().ok())
                        .flat_map(|p| p.stripes.iter().copied())
                        .collect();
                    stripes.sort_unstable();
                    stripes.dedup();
                    // durability: seals(commit-frame)
                    w.sync_stripes(&stripes)
                }
                None => {
                    // durability: seals(commit-frame)
                    match inner.volume.sync() {
                        Ok(()) => {
                            inner.syncs.inc();
                            Ok(())
                        }
                        Err(e) => Err(Error::from(e)),
                    }
                }
            };
            if let Err(e) = force {
                force_err = Some(e.to_string());
            }
        }
        let t3 = m.now_ns();

        // Phase D — publish each scope's new roots to readers, write
        // its stashed pages in place and apply (or park, behind pinned
        // reader epochs) its deferred frees, under the latch.
        let mut out = Vec::with_capacity(prepared.len());
        {
            let mut st = inner.store.write();
            for (t, r) in prepared {
                let res = match r {
                    // `prepare_commit` already rolled the scope back.
                    Err(e) => Err(e),
                    Ok(mut prep) => match &force_err {
                        // The force failed after the records were written:
                        // durability is unknown, so settle the scope
                        // ([`ObjectStore::fail_commit_force`]) and
                        // surface an error.
                        Some(msg) => {
                            let reason = format!("group log force failed: {msg}");
                            st.fail_commit_force(&prep, &reason);
                            Err(Error::CommitFailed { reason })
                        }
                        None => self.publish_commit(&mut st, &mut prep),
                    },
                };
                out.push((t, res));
            }
        }
        let t4 = m.now_ns();

        // Emit the batch timeline: an enclosing `commit` span plus the
        // four phase spans, back to back on the shared boundaries.
        m.pipe_event_at(t0, PipeKind::Begin, "commit", lead, batch_id);
        let phases = [
            ("commit.phase_a", t0, t1),
            ("commit.phase_b", t1, t2),
            ("commit.phase_c", t2, t3),
            ("commit.phase_d", t3, t4),
        ];
        for (i, &(phase, begin, end)) in phases.iter().enumerate() {
            m.pipe_event_at(begin, PipeKind::Begin, phase, lead, batch_id);
            m.pipe_event_at(end, PipeKind::End, phase, lead, batch_id);
            inner.cobs.phase_wall_us[i].record(end.saturating_sub(begin) / 1000);
            m.check_stall(phase, lead, batch_id, end.saturating_sub(begin));
        }
        m.pipe_event_at(t4, PipeKind::End, "commit", lead, batch_id);

        if force_err.is_some() {
            // The batch is being failed with durability unknown — the
            // exact situation the flight recorder exists for.
            let _ = m.flight_dump("commit_failed");
        }
        out
    }

    /// Data barrier failed before anything was logged: roll every
    /// scope in the batch back and report the failure to each waiter.
    fn fail_batch(&self, batch: &[TxnId], msg: &str) -> Vec<(TxnId, Result<()>)> {
        let out: Vec<(TxnId, Result<()>)> = {
            let mut st = self.inner.store.write();
            batch
                .iter()
                .map(|&t| {
                    let _ = st.abort_scope(t);
                    (
                        t,
                        Err(Error::CommitFailed {
                            reason: format!("group data barrier failed: {msg}"),
                        }),
                    )
                })
                .collect()
        };
        let _ = self.inner.cobs.metrics.flight_dump("commit_failed");
        out
    }
}

/// One transaction scope on a [`ConcurrentStore`].
///
/// Writes follow strict 2PL: exclusive range locks accumulate as the
/// transaction touches bytes and are released only by [`Txn::commit`]
/// or [`Txn::abort`] (or by `Drop`, which aborts). Reads take **no
/// locks at all**: they pin the committed root set published by the
/// last commit (snapshot isolation — see DESIGN.md §14) and read the
/// version the pin protects, falling back to the transaction's own
/// uncommitted view for objects it has written (read-your-writes).
/// The handle is `Send` — move it into the thread that runs the
/// transaction.
pub struct Txn {
    cs: ConcurrentStore,
    id: TxnId,
    finished: bool,
    /// Ids of objects this scope has written — reads of these resolve
    /// to the caller's descriptor (the uncommitted view) instead of
    /// the committed root set.
    wrote: RefCell<BTreeSet<u64>>,
}

impl Txn {
    /// This scope's identifier (also its lock-table owner id).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Run `f` on the store with this scope active, under the write
    /// latch. All lock acquisition must happen *before* this.
    fn with_scope<R>(&self, f: impl FnOnce(&mut ObjectStore) -> Result<R>) -> Result<R> {
        let mut st = self.cs.inner.store.write();
        st.set_active_scope(Some(self.id));
        let r = f(&mut st);
        st.set_active_scope(None);
        r
    }

    /// Note a write to `obj` for read-your-writes resolution. Called
    /// with the object's write lock held, so the committed root cannot
    /// move underneath: on the scope's first write to `obj`, a
    /// descriptor older than the published committed root fails with
    /// [`Error::StaleDescriptor`]. Volatile stores publish no roots and
    /// skip the check.
    fn note_write(&self, obj: &LargeObject) -> Result<()> {
        if self.wrote.borrow().contains(&obj.id) {
            return Ok(());
        }
        if self.cs.inner.wal.is_some() {
            let committed = self.cs.inner.mvcc.lock().roots.get(&obj.id).map(|o| o.lsn);
            if let Some(committed_lsn) = committed.filter(|&lsn| lsn > obj.lsn) {
                return Err(Error::StaleDescriptor {
                    id: obj.id,
                    descriptor_lsn: obj.lsn,
                    committed_lsn,
                });
            }
        }
        self.wrote.borrow_mut().insert(obj.id);
        Ok(())
    }

    /// Create an object (optionally with initial bytes). The new
    /// object is exclusively locked by this transaction — no other
    /// transaction can see it before commit anyway, but the lock keeps
    /// the footprint uniform for the lock-table accounting.
    pub fn create(&self, data: &[u8], size_hint: Option<u64>) -> Result<LargeObject> {
        let obj = self.with_scope(|st| st.create_with(data, size_hint))?;
        // Fresh id: guaranteed uncontended, safe to lock after the
        // fact without holding the latch.
        self.cs
            .inner
            .locks
            .lock_object(self.id, obj.id, LockMode::Exclusive);
        self.wrote.borrow_mut().insert(obj.id);
        Ok(obj)
    }

    /// Read `len` bytes at `offset` — **lock-free**. If this scope has
    /// written the object, the caller's descriptor (its uncommitted
    /// view) is read, together with the scope's stashed in-place
    /// writes; otherwise an implicit snapshot pins the current epoch
    /// and the read traverses the committed root for the object id,
    /// immune to concurrent commits, in-place writes and page reclaim.
    pub fn read(&self, obj: &LargeObject, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.read_with(obj, |_| (offset, len))
    }

    /// Read the whole object — lock-free, same resolution as
    /// [`Txn::read`].
    pub fn read_all(&self, obj: &LargeObject) -> Result<Vec<u8>> {
        self.read_with(obj, |o| (0, o.size()))
    }

    /// The read behind [`Self::read`] and [`Self::read_all`]: `range`
    /// picks `(offset, len)` from the descriptor the read resolves to.
    fn read_with(
        &self,
        obj: &LargeObject,
        range: impl Fn(&LargeObject) -> (u64, u64),
    ) -> Result<Vec<u8>> {
        if self.wrote.borrow().contains(&obj.id) {
            let (offset, len) = range(obj);
            let st = self.cs.inner.store.read();
            return st.read_in(View::Scope(self.id), obj, offset, len);
        }
        let pinned = Instant::now();
        let (epoch, roots) = self.cs.pin();
        let r = {
            let st = self.cs.inner.store.read();
            let target = roots.get(&obj.id).map_or(obj, |o| &**o);
            let (offset, len) = range(target);
            st.read_in(View::AsOf(epoch), target, offset, len)
        };
        self.cs.unpin_and_reclaim(epoch)?;
        self.cs.inner.cobs.pin_hold_us.record(us_since(pinned));
        r
    }

    /// Pin an explicit named snapshot of the committed state (every
    /// object, not just one) — independent of this transaction's
    /// lifetime and of its uncommitted writes.
    pub fn snapshot(&self) -> Snapshot {
        self.cs.snapshot()
    }

    /// Overwrite bytes under an exclusive lock on the whole object. A
    /// range lock would not do: a segment the replace rewrites gets a
    /// new root for the object at commit, so two scopes replacing
    /// disjoint ranges would each commit a root built from their own
    /// descriptor and the later one would lose the earlier one's
    /// update. On a durable store the replace is §4.2's in-place write,
    /// redo-logged ([`ObjectStore::replace`]): the pages wait in the
    /// scope's stash until the commit frame is durable, and Phase D
    /// parks their before-images for readers pinned at older epochs.
    /// A volatile store replaces the same way, minus the log: the stash
    /// needs none to make abort free.
    pub fn replace(&self, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
        self.cs
            .inner
            .locks
            .lock_object(self.id, obj.id, LockMode::Exclusive);
        self.note_write(obj)?;
        self.with_scope(|st| st.staged_replace(obj, offset, data))
    }

    /// Append under an exclusive lock on the tail from the current
    /// size — readers of existing bytes are not blocked.
    pub fn append(&self, obj: &mut LargeObject, data: &[u8]) -> Result<()> {
        self.cs
            .inner
            .locks
            .lock_tail(self.id, obj.id, obj.size(), LockMode::Exclusive);
        self.note_write(obj)?;
        self.with_scope(|st| st.append(obj, data))
    }

    /// Insert at `offset`: everything from `offset` onward shifts, so
    /// the exclusive lock covers the tail from `offset`.
    pub fn insert(&self, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
        self.cs
            .inner
            .locks
            .lock_tail(self.id, obj.id, offset, LockMode::Exclusive);
        self.note_write(obj)?;
        self.with_scope(|st| st.insert(obj, offset, data))
    }

    /// Delete a byte range: offsets shift from `offset` onward.
    pub fn delete(&self, obj: &mut LargeObject, offset: u64, len: u64) -> Result<()> {
        self.cs
            .inner
            .locks
            .lock_tail(self.id, obj.id, offset, LockMode::Exclusive);
        self.note_write(obj)?;
        self.with_scope(|st| st.delete(obj, offset, len))
    }

    /// Truncate to `new_size`: locks the discarded tail.
    pub fn truncate(&self, obj: &mut LargeObject, new_size: u64) -> Result<()> {
        self.cs
            .inner
            .locks
            .lock_tail(self.id, obj.id, new_size, LockMode::Exclusive);
        self.note_write(obj)?;
        self.with_scope(|st| st.truncate(obj, new_size))
    }

    /// Delete the whole object under an exclusive whole-object lock.
    pub fn delete_object(&self, obj: &mut LargeObject) -> Result<()> {
        self.cs
            .inner
            .locks
            .lock_object(self.id, obj.id, LockMode::Exclusive);
        self.note_write(obj)?;
        self.with_scope(|st| st.delete_object(obj))
    }

    /// Commit the scope (through the group pipeline when enabled) and
    /// release all locks.
    pub fn commit(mut self) -> Result<()> {
        self.finished = true;
        let r = self.cs.commit_scope(self.id);
        self.cs.inner.locks.release_all(self.id);
        r
    }

    /// Abort the scope, rolling back its effects, and release all
    /// locks.
    pub fn abort(mut self) -> Result<()> {
        self.finished = true;
        let r = self.cs.inner.store.write().abort_scope(self.id);
        self.cs.inner.locks.release_all(self.id);
        r
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            // Best effort — a failed rollback is repaired by restart
            // recovery, exactly like a crash at this point.
            let _ = self.cs.inner.store.write().abort_scope(self.id);
            self.cs.inner.locks.release_all(self.id);
        }
    }
}

/// A pinned, immutable view of the committed state (DESIGN.md §14).
///
/// Pinning is O(1): the snapshot holds an `Arc` of the committed root
/// set published by the last commit, plus an epoch pin that keeps
/// every page those roots reference from being reclaimed. Reads
/// traverse the trees without any range locks and are byte-stable no
/// matter how many writers commit concurrently. Dropping the snapshot
/// releases the pin; deferred frees parked behind it are applied as
/// soon as no older pin remains.
pub struct Snapshot {
    cs: ConcurrentStore,
    epoch: u64,
    roots: Arc<BTreeMap<u64, Arc<LargeObject>>>,
    /// When the pin was taken, for the `mvcc.pin.hold_us` histogram.
    pinned: Instant,
}

impl Snapshot {
    /// The publication epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ids of every object committed as of the pin, ascending.
    pub fn object_ids(&self) -> Vec<u64> {
        self.roots.keys().copied().collect()
    }

    /// The pinned root descriptor of `id`, if the object was committed
    /// as of the pin. The clone stays readable through [`Self::read`]
    /// for this snapshot's lifetime.
    pub fn object(&self, id: u64) -> Option<LargeObject> {
        self.roots.get(&id).map(|o| (**o).clone())
    }

    /// Size in bytes of object `id` as of the pin.
    pub fn size_of(&self, id: u64) -> Result<u64> {
        self.roots
            .get(&id)
            .map(|o| o.size())
            .ok_or(Error::UnknownObject { id })
    }

    /// Read `len` bytes at `offset` of object `id`, as of the pin —
    /// no locks, unaffected by commits after the pin.
    pub fn read(&self, id: u64, offset: u64, len: u64) -> Result<Vec<u8>> {
        let obj = self.roots.get(&id).ok_or(Error::UnknownObject { id })?;
        let st = self.cs.inner.store.read();
        st.read_in(View::AsOf(self.epoch), obj, offset, len)
    }

    /// Read the whole object `id` as of the pin.
    pub fn read_all(&self, id: u64) -> Result<Vec<u8>> {
        let size = self.size_of(id)?;
        self.read(id, 0, size)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Best effort: a failed reclaim leaks pages until the next
        // unpin or restart recovery, never corrupts.
        let _ = self.cs.unpin_and_reclaim(self.epoch);
        let held_us = us_since(self.pinned);
        self.cs.inner.cobs.pin_hold_us.record(held_us);
        self.cs.inner.cobs.metrics.check_stall(
            "mvcc.pin",
            self.epoch | PIN_TRACE_BIT,
            0,
            held_us * 1000,
        );
    }
}
