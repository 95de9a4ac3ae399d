//! MVCC snapshot reads (DESIGN.md §14): epoch pins, root publication,
//! deferred-free parking and reclaim, and the lock-free read path.
//!
//! Three properties are pinned here, each against the `mvcc.*` and
//! `locks.*` instruments so regressions surface as counter drift, not
//! just as corrupted bytes:
//!
//! 1. A stalled reader parks every superseded page: writers churn, the
//!    reader's view stays byte-identical, nothing is reclaimed until it
//!    drops — and then everything is.
//! 2. Readers acquire **zero** range locks: the `locks.acquired`
//!    counter is flat across a read-only phase.
//! 3. A snapshot is one frozen epoch: later commits (including objects
//!    created after the pin) are invisible to it, while fresh reads see
//!    them immediately.

use std::sync::Arc;
use std::time::Duration;

use eos::core::{ConcurrentStore, Error, LargeObject, ObjectStore, StoreConfig};
use eos::obs::{Metrics, PipeEvent, PipeKind};
use eos::pager::{DiskProfile, MemVolume, SharedVolume, ThrottledVolume};

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 249) as u8))
        .collect()
}

/// A durable store on a throttled in-memory volume, with its own
/// metrics domain so the `mvcc.*` / `locks.*` assertions are not
/// polluted by other tests in the process.
fn durable_store(metrics: &Metrics) -> ObjectStore {
    // Four buddy spaces: parked deferred-free batches keep superseded
    // pages *allocated* until the stalled reader drops, so the churn
    // tests need roughly double the live working set.
    let inner: SharedVolume =
        MemVolume::with_profile(1024, (1024 + 1) * 4 + 62, DiskProfile::FREE).shared();
    let volume: SharedVolume = Arc::new(ThrottledVolume::new(inner, Duration::from_micros(50)));
    let mut store = ObjectStore::create_durable(
        volume,
        4,
        1024,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        62,
    )
    .unwrap();
    store.set_metrics(metrics);
    store
}

fn check_clean(cs: ConcurrentStore, named: &[(String, LargeObject)]) {
    let store = match cs.try_into_inner() {
        Ok(s) => s,
        Err(_) => panic!("a ConcurrentStore handle outlived the test"),
    };
    let report = eos_check::check_store(&store, named, None);
    assert!(report.is_clean(), "{}", report.render_table());
}

/// Satellite: the reclaim-safety stress. A deliberately stalled reader
/// pins the first epoch while writer threads churn replace/append
/// transactions; superseded pages must park (deferred_pages > 0), the
/// stalled view must stay byte-identical throughout, and dropping the
/// reader must reclaim every parked batch (deferred_pages back to 0).
#[test]
fn stalled_reader_parks_superseded_pages_until_it_drops() {
    const WRITERS: u64 = 4;
    const TXNS: u64 = 12;
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);

    let before = pattern(3, 60_000);
    let target = store.create_with(&before, None).unwrap();
    let cs = ConcurrentStore::new(store);

    // The stalled reader: pins the epoch *before* any churn.
    let stalled = cs.snapshot();
    assert_eq!(stalled.read_all(target.id()).unwrap(), before);

    // Churn: every writer owns one object and replaces ranges of it,
    // freeing its superseded segments at each commit — all of which
    // must park behind the stalled pin.
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let cs = cs.clone();
        handles.push(std::thread::spawn(move || {
            let txn = cs.begin();
            let mut obj = txn.create(&pattern(w as u8, 20_000), None).unwrap();
            txn.commit().unwrap();
            for i in 0..TXNS {
                let txn = cs.begin();
                let off = (i * 1_337) % 10_000;
                txn.replace(&mut obj, off, &pattern((w + i) as u8, 4_000))
                    .unwrap();
                txn.commit().unwrap();
            }
            obj
        }));
    }
    let churned: Vec<LargeObject> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let snap = metrics.snapshot();
    let parked = snap.gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(
        parked > 0,
        "writer churn under a stalled reader parked nothing"
    );
    assert!(snap.gauge("mvcc.oldest_epoch_lag").unwrap_or(0) > 0);

    // The stalled view is still byte-identical — the pages its roots
    // reference were superseded but not reclaimed.
    assert_eq!(stalled.read_all(target.id()).unwrap(), before);

    // Drop the pin: everything parked is reclaimable now (no other
    // reader is live), so the deferred list must drain to zero.
    drop(stalled);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("mvcc.deferred_pages").unwrap_or(0),
        0,
        "parked batches survived the last reader"
    );
    assert!(snap.counter("mvcc.reclaim_batches").unwrap_or(0) > 0);
    assert!(snap.counter("mvcc.reclaimed_pages").unwrap_or(0) > 0);
    assert_eq!(snap.gauge("mvcc.oldest_epoch_lag").unwrap_or(0), 0);

    let mut named = vec![("target".to_string(), target)];
    for (w, obj) in churned.into_iter().enumerate() {
        named.push((format!("churn-{w}"), obj));
    }
    check_clean(cs, &named);
}

/// Satellite: the read path takes no range locks. After a write phase
/// (which does lock), a read-only phase of `Txn::read` and snapshot
/// reads must leave `locks.acquired` exactly where it was.
#[test]
fn readers_acquire_zero_range_locks() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let bytes = pattern(9, 50_000);
    let shared = store.create_with(&bytes, None).unwrap();
    let cs = ConcurrentStore::new(store);

    // Write phase: locks are taken (sanity for the instrument itself).
    let txn = cs.begin();
    let mut obj = txn.create(&pattern(1, 8_000), None).unwrap();
    txn.commit().unwrap();
    let txn = cs.begin();
    txn.replace(&mut obj, 100, &pattern(2, 2_000)).unwrap();
    txn.commit().unwrap();
    let locks_after_writes = metrics.snapshot().counter("locks.acquired").unwrap_or(0);
    assert!(locks_after_writes > 0, "writers never touched the table");

    // Read-only phase: four reader threads, a mix of per-read implicit
    // pins and block reads under one snapshot, all content-checked.
    let mut readers = Vec::new();
    for r in 0..4u64 {
        let cs = cs.clone();
        let expect = bytes.clone();
        let obj = shared.clone();
        readers.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                let off = (r * 997 + i * 4_099) % 45_000;
                let txn = cs.begin();
                let got = txn.read(&obj, off, 4_000).unwrap();
                assert_eq!(got, &expect[off as usize..off as usize + 4_000]);
                txn.commit().unwrap();
            }
            let snap = cs.snapshot();
            for i in 0..30u64 {
                let off = (r * 31 + i * 2_003) % 45_000;
                let got = snap.read(obj.id(), off, 4_000).unwrap();
                assert_eq!(got, &expect[off as usize..off as usize + 4_000]);
            }
        }));
    }
    for h in readers {
        h.join().unwrap();
    }

    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("locks.acquired").unwrap_or(0),
        locks_after_writes,
        "the read-only phase moved the lock-grant counter"
    );
    assert_eq!(snap.counter("locks.conflicts").unwrap_or(0), 0);
    assert_eq!(cs.locks().held_count(shared.id()), 0);
    // Every read (implicit or snapshot) pinned an epoch.
    assert!(snap.counter("mvcc.snapshots").unwrap_or(0) >= 4 * 31);

    check_clean(
        cs,
        &[("shared".to_string(), shared), ("w".to_string(), obj)],
    );
}

/// A snapshot is one frozen epoch: commits after the pin — replaces,
/// appends, deletes, and whole new objects — are invisible through it,
/// while fresh transactions and fresh snapshots see every one of them.
#[test]
fn snapshot_is_a_frozen_epoch() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let v1 = pattern(5, 30_000);
    let a = store.create_with(&v1, None).unwrap();
    let cs = ConcurrentStore::new(store);

    let old = cs.snapshot();
    assert_eq!(old.object_ids(), vec![a.id()]);
    assert_eq!(old.size_of(a.id()).unwrap(), v1.len() as u64);

    // Advance the store: mutate `a` and create `b`.
    let mut a2 = a.clone();
    let txn = cs.begin();
    txn.replace(&mut a2, 1_000, &pattern(77, 5_000)).unwrap();
    txn.append(&mut a2, &pattern(78, 2_000)).unwrap();
    let b = txn.create(&pattern(79, 9_000), None).unwrap();
    txn.commit().unwrap();

    // The frozen view: pre-commit bytes, no `b`.
    assert_eq!(old.read_all(a.id()).unwrap(), v1);
    assert!(matches!(
        old.read_all(b.id()),
        Err(Error::UnknownObject { .. })
    ));
    assert!(old.object(b.id()).is_none());

    // A *fresh* snapshot and a fresh transaction both see the commit.
    let new = cs.snapshot();
    assert!(new.epoch() > old.epoch());
    let mut want = v1.clone();
    want[1_000..6_000].copy_from_slice(&pattern(77, 5_000));
    want.extend(pattern(78, 2_000));
    assert_eq!(new.read_all(a.id()).unwrap(), want);
    assert_eq!(new.read_all(b.id()).unwrap(), pattern(79, 9_000));
    let txn = cs.begin();
    assert_eq!(txn.read_all(&a2).unwrap(), want);
    txn.commit().unwrap();

    // Read-your-writes: inside a writing transaction, reads of the
    // written object resolve to the uncommitted view, not the pin.
    let txn = cs.begin();
    let mut a3 = a2.clone();
    txn.replace(&mut a3, 0, b"XYZZY").unwrap();
    assert_eq!(&txn.read(&a3, 0, 5).unwrap(), b"XYZZY");
    txn.abort().unwrap();
    // ... and the abort keeps the committed view intact.
    let txn = cs.begin();
    assert_eq!(txn.read(&a2, 0, 5).unwrap(), &want[..5]);
    txn.commit().unwrap();

    drop(old);
    drop(new);
    check_clean(cs, &[("a".to_string(), a2), ("b".to_string(), b)]);
}

/// The solo (non-grouped) commit path publishes roots the same way the
/// grouped path does: without publication, a snapshot after a solo
/// commit would still resolve the old root.
#[test]
fn solo_commits_publish_to_readers_too() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let v1 = pattern(11, 12_000);
    let a = store.create_with(&v1, None).unwrap();
    let cs = ConcurrentStore::with_group_commit(store, false);

    let mut a2 = a.clone();
    let txn = cs.begin();
    txn.replace(&mut a2, 0, &pattern(12, 3_000)).unwrap();
    txn.commit().unwrap();

    let snap = cs.snapshot();
    let mut want = v1.clone();
    want[..3_000].copy_from_slice(&pattern(12, 3_000));
    assert_eq!(snap.read_all(a.id()).unwrap(), want);
    drop(snap);

    // A stalled reader parks solo-commit frees just the same.
    let pin = cs.snapshot();
    let txn = cs.begin();
    txn.replace(&mut a2, 4_000, &pattern(13, 3_000)).unwrap();
    txn.commit().unwrap();
    assert!(metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0) > 0);
    assert_eq!(pin.read_all(a.id()).unwrap(), want);
    drop(pin);
    assert_eq!(
        metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0),
        0
    );

    check_clean(cs, &[("a".to_string(), a2)]);
}

// ---- reclaim write-ordering (eos-crashdep L6, DESIGN.md §15) ------------
//
// The `mvcc-publish` durability class requires `commit-frame`: pages a
// commit superseded must not re-enter the free pool (`apply_commit`)
// before that commit's log frame is forced. A durable store writes its
// buddy directories back lazily, so a free leaves no volume write to
// observe; these two tests read the pipeline-event timeline instead —
// the `wal.force` span against the `mvcc.apply` / `mvcc.park` /
// `mvcc.reclaim` instants — plus the allocator's free-page count.

/// Pipeline events recorded since sequence number `from`.
fn events_since(metrics: &Metrics, from: u64) -> Vec<PipeEvent> {
    metrics
        .pipe_events()
        .into_iter()
        .filter(|e| e.seq >= from)
        .collect()
}

fn is_force_end(e: &PipeEvent) -> bool {
    e.kind == PipeKind::End && e.phase == "wal.force"
}

fn free_pages(cs: &ConcurrentStore) -> u64 {
    cs.with_store(|s| s.buddy().total_free_pages())
}

/// With a reader pinned, a superseding commit parks its frees behind
/// the pin, strictly after the commit's frame force; the frees apply
/// only when the pin drops, and the reclaim never touches the log.
#[test]
fn parked_reclaim_runs_after_the_superseding_commit_force() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let mut a = store.create_with(&pattern(21, 12_000), None).unwrap();
    let cs = ConcurrentStore::new(store);

    let pin = cs.snapshot();
    let mark = metrics.pipe_recorded();

    // Copy-on-write replace: the superseded segment's pages become a
    // deferred-free batch, parked behind the pin.
    let txn = cs.begin();
    txn.replace(&mut a, 0, &pattern(22, 8_000)).unwrap();
    txn.commit().unwrap();
    let commit = events_since(&metrics, mark);

    let force = commit
        .iter()
        .rposition(is_force_end)
        .expect("the commit frame was forced");
    let park = commit
        .iter()
        .position(|e| e.phase == "mvcc.park")
        .expect("the superseded pages did not park behind the pin");
    assert!(
        force < park,
        "frees parked before the frame force: {commit:?}"
    );
    assert!(
        !commit.iter().any(|e| e.phase == "mvcc.apply"),
        "parked frees were applied inline: {commit:?}"
    );
    let parked = metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(
        parked > 0,
        "the superseded pages did not park behind the pin"
    );
    let free_while_pinned = free_pages(&cs);

    // The pin drops: the parked pages return to the free pool, and the
    // reclaim writes no log frame and forces nothing.
    let mark = metrics.pipe_recorded();
    drop(pin);
    let reclaim = events_since(&metrics, mark);
    assert!(
        reclaim.iter().any(|e| e.phase == "mvcc.reclaim"),
        "dropping the last pin reclaimed nothing: {reclaim:?}"
    );
    assert!(
        !reclaim.iter().any(|e| e.phase.starts_with("wal.")),
        "reclaim must not touch the log: {reclaim:?}"
    );
    assert_eq!(free_pages(&cs), free_while_pinned + parked);
    assert_eq!(
        metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0),
        0
    );

    check_clean(cs, &[("a".to_string(), a)]);
}

/// With no reader pinned, the frees apply inside the commit itself —
/// but still only after the frame force, and the log is silent from
/// then on.
#[test]
fn immediate_free_application_follows_the_frame_force() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let mut a = store.create_with(&pattern(31, 12_000), None).unwrap();
    let cs = ConcurrentStore::new(store);
    let free_before = free_pages(&cs);
    let mark = metrics.pipe_recorded();

    let txn = cs.begin();
    txn.replace(&mut a, 0, &pattern(32, 8_000)).unwrap();
    txn.commit().unwrap();
    let events = events_since(&metrics, mark);

    let force = events
        .iter()
        .rposition(is_force_end)
        .expect("the commit frame was forced");
    let apply = events
        .iter()
        .position(|e| e.phase == "mvcc.apply")
        .unwrap_or_else(|| panic!("no inline free application: {events:?}"));
    assert!(
        force < apply,
        "frees applied before the frame force: {events:?}"
    );
    assert!(
        !events[apply..].iter().any(|e| e.phase.starts_with("wal.")),
        "the log must be silent once the frees apply: {events:?}"
    );
    // Rewriting the first 8000 of 12000 bytes copies whole segments, so
    // the superseded pages exactly balance the fresh ones once freed.
    assert_eq!(
        free_pages(&cs),
        free_before,
        "the superseded pages were not freed"
    );

    check_clean(cs, &[("a".to_string(), a)]);
}

/// Satellite (PR 10): out-of-order reader unpin. Three readers pin
/// three distinct epochs with a parked deferred-free batch between
/// each. Dropping the *youngest* pin first must reclaim nothing;
/// dropping the *oldest* while the middle one is still live must
/// recompute the oldest pinned epoch and drain exactly the batch the
/// surviving pin has passed — not everything, not nothing — while the
/// survivor's view stays byte-identical.
#[test]
fn out_of_order_unpin_recomputes_the_oldest_pin() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let v1 = pattern(1, 30_000);
    let mut obj = store.create_with(&v1, None).unwrap();
    let cs = ConcurrentStore::new(store);

    let r1 = cs.snapshot();

    // Commit #1 (supersedes pages under r1's pin — parks one batch).
    let seg = pattern(2, 8_000);
    let txn = cs.begin();
    txn.replace(&mut obj, 0, &seg).unwrap();
    txn.commit().unwrap();
    let mut v2 = v1.clone();
    v2[..8_000].copy_from_slice(&seg);
    let r2 = cs.snapshot();

    // Commit #2 (parks a second batch, now behind r1 *and* r2).
    let txn = cs.begin();
    txn.replace(&mut obj, 10_000, &pattern(3, 8_000)).unwrap();
    txn.commit().unwrap();
    let r3 = cs.snapshot();

    let snap = metrics.snapshot();
    let parked = snap.gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(parked > 0, "commits under pinned readers parked nothing");

    // Youngest drops first: the oldest pin (r1) still protects both
    // batches, so nothing may be reclaimed.
    drop(r3);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("mvcc.deferred_pages").unwrap_or(0),
        parked,
        "dropping a younger pin reclaimed pages an older pin protects"
    );
    assert_eq!(snap.counter("mvcc.reclaim_batches").unwrap_or(0), 0);

    // Oldest drops while the middle pin lives: the oldest pinned epoch
    // is recomputed to r2's, draining exactly commit #1's batch.
    drop(r1);
    let snap = metrics.snapshot();
    let left = snap.gauge("mvcc.deferred_pages").unwrap_or(0);
    assert!(left < parked, "dropping the oldest pin reclaimed nothing");
    assert!(
        left > 0,
        "a batch parked past the surviving pin was reclaimed early"
    );
    assert_eq!(snap.counter("mvcc.reclaim_batches").unwrap_or(0), 1);

    // The survivor still reads its pinned version, byte-exact.
    assert_eq!(r2.read_all(obj.id()).unwrap(), v2);

    drop(r2);
    let snap = metrics.snapshot();
    assert_eq!(snap.gauge("mvcc.deferred_pages").unwrap_or(0), 0);

    check_clean(cs, &[("obj".to_string(), obj)]);
}

/// A volume whose `sync` fails on demand: `fail_after(n)` lets the
/// next `n` syncs through and fails the one after (re-arm or disarm
/// freely; `u64::MAX` = never fail).
struct FailSyncVolume {
    inner: SharedVolume,
    fuse: std::sync::atomic::AtomicU64,
}

impl FailSyncVolume {
    fn new(inner: SharedVolume) -> Arc<FailSyncVolume> {
        Arc::new(FailSyncVolume {
            inner,
            fuse: std::sync::atomic::AtomicU64::new(u64::MAX),
        })
    }

    fn fail_after(&self, n: u64) {
        self.fuse.store(n, std::sync::atomic::Ordering::SeqCst);
    }
}

impl eos::pager::Volume for FailSyncVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn read_into(&self, start: u64, pages: u64, buf: &mut [u8]) -> eos::pager::Result<()> {
        self.inner.read_into(start, pages, buf)
    }
    fn write_pages(&self, start: u64, data: &[u8]) -> eos::pager::Result<()> {
        self.inner.write_pages(start, data)
    }
    fn stats(&self) -> eos::pager::IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
    fn sync(&self) -> eos::pager::Result<()> {
        use std::sync::atomic::Ordering;
        let left = self.fuse.load(Ordering::SeqCst);
        if left == u64::MAX {
            return self.inner.sync();
        }
        if left == 0 {
            self.fuse.store(u64::MAX, Ordering::SeqCst);
            return Err(eos::pager::Error::Io(std::io::Error::other(
                "injected sync failure",
            )));
        }
        self.fuse.store(left - 1, Ordering::SeqCst);
        self.inner.sync()
    }
}

/// Satellite (PR 10) regression: the group-commit force-failure path.
/// A commit whose log force fails must surface `CommitFailed` *and*
/// leave nothing stuck behind it: its deferred-free batch leaves the
/// buddy registry (`buddy.pending.extents` back to 0 once readers
/// drain), previously parked batches still drain to
/// `mvcc.deferred_pages = 0`, and the failed scope's byte ranges are
/// immediately re-lockable by a new transaction.
#[test]
fn failed_force_releases_locks_and_drains_parked_batches() {
    let metrics = Metrics::new();
    let inner: SharedVolume =
        MemVolume::with_profile(1024, (1024 + 1) * 4 + 62, DiskProfile::FREE).shared();
    let failer = FailSyncVolume::new(inner);
    let volume: SharedVolume = failer.clone();
    let mut store = ObjectStore::create_durable(
        volume,
        4,
        1024,
        StoreConfig {
            sync_on_commit: true,
            ..StoreConfig::default()
        },
        62,
    )
    .unwrap();
    store.set_metrics(&metrics);
    let mut obj = store.create_with(&pattern(7, 30_000), None).unwrap();
    let cs = ConcurrentStore::new(store);

    // A pinned reader, and a successful commit that parks its frees
    // behind it.
    let reader = cs.snapshot();
    let txn = cs.begin();
    txn.replace(&mut obj, 0, &pattern(8, 6_000)).unwrap();
    txn.commit().unwrap();
    assert!(metrics.snapshot().gauge("mvcc.deferred_pages").unwrap_or(0) > 0);

    // The failing commit: let the data barrier (sync #1) through and
    // fail the log force (sync #2).
    let txn = cs.begin();
    let mut failed_view = obj.clone();
    txn.replace(&mut failed_view, 10_000, &pattern(9, 6_000))
        .unwrap();
    failer.fail_after(1);
    let err = txn.commit().unwrap_err();
    failer.fail_after(u64::MAX);
    assert!(
        matches!(err, Error::CommitFailed { .. }),
        "force failure surfaced as {err:?}"
    );

    // Its ranges are immediately re-lockable: a fresh transaction
    // writes the same bytes without deadlocking on leaked locks.
    let txn = cs.begin();
    txn.replace(&mut obj, 10_000, &pattern(10, 6_000)).unwrap();
    txn.commit().unwrap();

    // Dropping the reader drains every *parked* batch, and the failed
    // commit's batch is out of the buddy registry too — nothing holds
    // `pending.extents` up once the deferred list is empty.
    drop(reader);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge("mvcc.deferred_pages").unwrap_or(0),
        0,
        "parked batches survived the last reader after a failed force"
    );
    assert_eq!(
        snap.gauge("buddy.pending.extents").unwrap_or(0),
        0,
        "the failed commit's free batch leaked in the buddy registry"
    );
}

/// Regression: two writers on one object must not lose an update. Every
/// write publishes a whole new root at commit, so a scope writing
/// through a descriptor taken before another scope's commit would
/// publish a root without that commit's bytes — and pointing at pages
/// it freed. Replace takes the whole-object lock, and a scope's first
/// write through a descriptor older than the committed root fails
/// with [`Error::StaleDescriptor`]; retrying with the committed
/// descriptor keeps both updates and the volume clean.
#[test]
fn disjoint_replaces_of_one_object_keep_both_updates() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let mut model = pattern(4, 60_000);
    let obj = store.create_with(&model, None).unwrap();
    let id = obj.id();
    let cs = ConcurrentStore::new(store);

    let mut a = obj.clone();
    let txn_a = cs.begin();
    txn_a.replace(&mut a, 0, &[0xA1; 100]).unwrap();

    // Writer B starts from the same committed descriptor and replaces a
    // disjoint range while A is still open.
    let writer_b = {
        let cs = cs.clone();
        let mut b = obj.clone();
        std::thread::spawn(move || {
            let txn_b = cs.begin();
            match txn_b.replace(&mut b, 50_000, &[0xB2; 100]) {
                Ok(()) => txn_b.commit().map(|()| None),
                Err(e) => txn_b.abort().map(|()| Some(e)),
            }
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    txn_a.commit().unwrap();
    let refused = writer_b.join().unwrap().unwrap();
    assert!(
        matches!(refused, Some(Error::StaleDescriptor { id: i, .. }) if i == id),
        "a write through a descriptor older than the committed root was not refused: {refused:?}"
    );
    model[..100].fill(0xA1);

    // The retry starts from the committed root and keeps A's bytes.
    let mut b = cs.snapshot().object(id).unwrap();
    let txn_b = cs.begin();
    txn_b.replace(&mut b, 50_000, &[0xB2; 100]).unwrap();
    txn_b.commit().unwrap();
    model[50_000..50_100].fill(0xB2);

    assert_eq!(cs.snapshot().read_all(id).unwrap(), model);
    check_clean(cs, &[("obj".to_string(), b)]);
}

/// Read-your-writes through the stash: one `Txn` replaces bytes in
/// place (held back until commit), reads them, inserts in front of
/// them — an insert whose rewrite reads the stashed page — and reads
/// again; a concurrent snapshot sees none of it until the commit.
#[test]
fn one_txn_reads_its_own_in_place_writes() {
    let metrics = Metrics::new();
    let mut store = durable_store(&metrics);
    let mut model = pattern(21, 40_000);
    let mut obj = store.create_with(&model, Some(40_000)).unwrap();
    let cs = ConcurrentStore::new(store);

    let txn = cs.begin();
    txn.replace(&mut obj, 10_000, &pattern(22, 300)).unwrap();
    model[10_000..10_300].copy_from_slice(&pattern(22, 300));
    assert_eq!(txn.read(&obj, 9_900, 500).unwrap(), model[9_900..10_400]);
    txn.insert(&mut obj, 9_950, &pattern(23, 120)).unwrap();
    model.splice(9_950..9_950, pattern(23, 120));
    assert_eq!(txn.read_all(&obj).unwrap(), model);
    assert_eq!(
        cs.snapshot().read_all(obj.id()).unwrap(),
        pattern(21, 40_000),
        "the uncommitted writes leaked to a snapshot"
    );
    txn.commit().unwrap();
    assert_eq!(cs.snapshot().read_all(obj.id()).unwrap(), model);
    check_clean(cs, &[("obj".to_string(), obj)]);
}

/// The cost rule bounds a replace's redo: a 1 MiB `Txn::replace` on the
/// benchmark's layout (4 KiB pages, a 1024-page log) rewrites the
/// segments it covers whole and writes only the boundary pages in
/// place, so its commit frame fits a log half.
#[test]
fn a_one_mib_replace_fits_the_benchmark_log() {
    const PAGE: usize = 4096;
    const PPS: u64 = 2048;
    const WAL_PAGES: u64 = 1024;
    let volume = MemVolume::with_profile(PAGE, (PPS + 1) * 2 + WAL_PAGES, DiskProfile::FREE);
    let mut store =
        ObjectStore::create_durable(volume.shared(), 2, PPS, StoreConfig::default(), WAL_PAGES)
            .unwrap();
    let mut model = Vec::new();
    let mut obj = store.create_with(&[], None).unwrap();
    for i in 0..40u8 {
        let chunk = pattern(i, 64 * 1024);
        store.append(&mut obj, &chunk).unwrap();
        model.extend_from_slice(&chunk);
    }
    let cs = ConcurrentStore::new(store);
    let data = pattern(99, 1 << 20);
    let at = 300_001;
    let txn = cs.begin();
    txn.replace(&mut obj, at as u64, &data).unwrap();
    txn.commit().unwrap();
    model[at..at + data.len()].copy_from_slice(&data);
    assert_eq!(cs.snapshot().read_all(obj.id()).unwrap(), model);
    check_clean(cs, &[("obj".to_string(), obj)]);
}
