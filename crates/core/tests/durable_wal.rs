//! Durable-store lifecycle tests: create, mutate, reopen, recover.
//!
//! The exhaustive crash-point sweep lives at the workspace root
//! (`tests/crash_sweep.rs`); these tests cover the happy paths and the
//! targeted failure modes of the durable WAL integration.

use eos_core::{ConcurrentStore, Error, ObjectStore, StoreConfig};
use eos_pager::{DiskProfile, MemVolume, SharedVolume};

const PAGE: usize = 512;
const SPACES: usize = 2;
const PPS: u64 = 126;
const WAL_PAGES: u64 = 66;

fn fresh_volume() -> SharedVolume {
    let pages = (PPS + 1) * SPACES as u64 + WAL_PAGES;
    MemVolume::with_profile(PAGE, pages, DiskProfile::FREE).shared()
}

fn create(volume: SharedVolume) -> ObjectStore {
    ObjectStore::create_durable(volume, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap()
}

fn reopen(volume: SharedVolume) -> (ObjectStore, eos_core::RecoveryReport) {
    ObjectStore::open_durable(volume, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

#[test]
fn committed_objects_survive_reopen() {
    let vol = fresh_volume();
    let a_bytes = pattern(3000, 1);
    let b_bytes = pattern(700, 2);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&a_bytes, None).unwrap();
        let _b = store.create_with(&b_bytes, None).unwrap();
        store.insert(&mut a, 100, &pattern(40, 3)).unwrap();
        store.delete(&mut a, 0, 100).unwrap();
        store.replace(&mut a, 10, b"REPLACED").unwrap();
    }
    let (store, report) = reopen(vol);
    assert!(!report.torn_tail);
    assert_eq!(report.rolled_back_ops, 0);
    assert_eq!(report.objects.len(), 2);

    // Model what the mutations did.
    let mut model = a_bytes.clone();
    let ins = pattern(40, 3);
    model.splice(100..100, ins.iter().copied());
    model.drain(0..100);
    model[10..18].copy_from_slice(b"REPLACED");

    let a = report.objects.iter().find(|o| o.id() == 1).unwrap();
    let b = report.objects.iter().find(|o| o.id() == 2).unwrap();
    assert_eq!(store.read_all(a).unwrap(), model);
    assert_eq!(store.read_all(b).unwrap(), b_bytes);
    store.verify_object(a).unwrap();
    store.verify_object(b).unwrap();
    store.buddy().check_invariants().unwrap();
}

#[test]
fn deleted_objects_stay_deleted() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&pattern(2000, 1), None).unwrap();
        let _b = store.create_with(&pattern(50, 2), None).unwrap();
        store.delete_object(&mut a).unwrap();
    }
    let (_store, report) = reopen(vol);
    assert_eq!(report.objects.len(), 1);
    assert_eq!(report.objects[0].id(), 2);
}

#[test]
fn explicit_txn_groups_ops_and_abort_reverts() {
    let vol = fresh_volume();
    let base = pattern(1500, 7);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&base, None).unwrap();
        let pre_txn = a.clone();

        store.begin_txn();
        store.append(&mut a, &pattern(300, 8)).unwrap();
        store.replace(&mut a, 0, b"xxxx").unwrap();
        store.abort_txn().unwrap();
        a = pre_txn;
        assert_eq!(store.read_all(&a).unwrap(), base, "abort reverted");

        store.begin_txn();
        store.append(&mut a, b"tail").unwrap();
        store.commit_txn().unwrap();
    }
    let (store, report) = reopen(vol);
    let a = &report.objects[0];
    let mut want = base;
    want.extend_from_slice(b"tail");
    assert_eq!(store.read_all(a).unwrap(), want);
}

#[test]
fn uncommitted_replace_rolls_back_on_reopen() {
    let vol = fresh_volume();
    let base = pattern(4 * PAGE, 9);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&base, Some(base.len() as u64)).unwrap();
        // Simulate a crash mid-transaction: mutate inside an explicit
        // scope and drop the store without committing.
        store.begin_txn();
        store.replace(&mut a, 100, &pattern(600, 10)).unwrap();
        store.append(&mut a, &pattern(123, 11)).unwrap();
        // no commit — the store (and its in-memory state) just vanish
    }
    let (store, report) = reopen(vol);
    // The append's Touch is the whole pending tail: the replace logged
    // nothing before its commit, and its stashed pages never reached
    // the volume, so there is nothing to undo and nothing to redo.
    assert_eq!(report.rolled_back_ops, 1);
    assert_eq!(
        report.redo_pages, 0,
        "an uncommitted replace leaves no redo"
    );
    let a = &report.objects[0];
    assert_eq!(store.read_all(a).unwrap(), base, "back to committed state");
    store.buddy().check_invariants().unwrap();
}

#[test]
fn recovered_store_keeps_working() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        store.create_with(&pattern(900, 1), None).unwrap();
    }
    let (mut store, report) = reopen(vol.clone());
    let mut a = report.objects[0].clone();
    store.append(&mut a, &pattern(200, 2)).unwrap();
    let mut b = store.create_with(&pattern(80, 3), None).unwrap();
    assert_eq!(b.id(), report.objects[0].id() + 1, "ids keep advancing");
    store.insert(&mut b, 0, b"hdr").unwrap();
    drop(store);

    let (store, report) = reopen(vol);
    assert_eq!(report.objects.len(), 2);
    let a2 = report.objects.iter().find(|o| o.id() == a.id()).unwrap();
    assert_eq!(store.read_all(a2).unwrap().len(), 1100);
}

#[test]
fn reopen_is_idempotent() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&pattern(1000, 5), None).unwrap();
        store.begin_txn();
        store.replace(&mut a, 0, &pattern(300, 6)).unwrap();
        // crash with the scope open
    }
    let (_s1, r1) = reopen(vol.clone());
    let (store, r2) = reopen(vol);
    assert_eq!(r1.objects.len(), r2.objects.len());
    assert_eq!(
        r2.rolled_back_ops, 0,
        "first recovery checkpointed the rollback"
    );
    assert_eq!(
        store.read_all(&r2.objects[0]).unwrap(),
        pattern(1000, 5),
        "double recovery lands on the same bytes"
    );
}

// ---- write-ordering barriers --------------------------------------------
//
// The crash sweep cannot catch a missing fsync barrier: its injected
// volume persists writes in order, while a real OS page cache may
// reorder them. These tests pin the barrier protocol itself by
// recording the interleaving of write and sync calls.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Read { start: u64, pages: u64 },
    Write { start: u64, pages: u64 },
    Sync,
}

struct EventVolume {
    inner: SharedVolume,
    events: std::sync::Mutex<Vec<Event>>,
}

impl EventVolume {
    fn new(inner: SharedVolume) -> std::sync::Arc<EventVolume> {
        std::sync::Arc::new(EventVolume {
            inner,
            events: std::sync::Mutex::new(Vec::new()),
        })
    }

    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl eos_pager::Volume for EventVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn read_into(&self, start: u64, pages: u64, buf: &mut [u8]) -> eos_pager::Result<()> {
        self.events
            .lock()
            .unwrap()
            .push(Event::Read { start, pages });
        self.inner.read_into(start, pages, buf)
    }
    fn write_pages(&self, start: u64, data: &[u8]) -> eos_pager::Result<()> {
        self.events.lock().unwrap().push(Event::Write {
            start,
            pages: (data.len() / self.inner.page_size()) as u64,
        });
        self.inner.write_pages(start, data)
    }
    fn stats(&self) -> eos_pager::IoStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
    fn sync(&self) -> eos_pager::Result<()> {
        self.events.lock().unwrap().push(Event::Sync);
        self.inner.sync()
    }
}

const WAL_BASE: u64 = (PPS + 1) * SPACES as u64;

fn is_log_write(e: &Event) -> bool {
    matches!(e, Event::Write { start, .. } if *start >= WAL_BASE)
}

fn is_data_write(e: &Event) -> bool {
    matches!(e, Event::Write { start, .. } if *start < WAL_BASE)
}

fn is_data_read(e: &Event) -> Option<u64> {
    match e {
        Event::Read { start, pages } if *start < WAL_BASE => Some(*pages),
        _ => None,
    }
}

/// The I/O shape of a durable 512 B `Txn::replace` commit: it
/// allocates nothing, reads only its boundary pages, costs one sync
/// (no data barrier: nothing fresh was written), and writes its data
/// pages in place only after the commit frame is forced — no-steal
/// redo, so the log needs no undo.
#[test]
fn replace_commit_is_one_sync_and_writes_after_the_commit_frame() {
    let recorder = EventVolume::new(fresh_volume());
    let vol: SharedVolume = recorder.clone();
    let cs = ConcurrentStore::new(create(vol));
    let setup = cs.begin();
    let mut a = setup
        .create(&pattern(8 * PAGE, 1), Some(8 * PAGE as u64))
        .unwrap();
    setup.commit().unwrap();
    let extents = |obj: &eos_core::LargeObject| cs.with_store(|st| st.object_page_extents(obj));
    let before = extents(&a);
    recorder.take();

    let txn = cs.begin();
    txn.replace(&mut a, 3 * PAGE as u64 - 100, &pattern(PAGE, 2))
        .unwrap();
    txn.commit().unwrap();
    let events = recorder.take();

    let committed = cs.snapshot().object(a.id()).unwrap();
    assert_eq!(extents(&committed), before, "the replace moved pages");
    let inside = |page: u64| before.iter().any(|&(s, n)| (s..s + n).contains(&page));
    assert!(
        events.iter().all(|e| match e {
            Event::Write { start, pages } if *start < WAL_BASE =>
                (*start..start + pages).all(inside),
            _ => true,
        }),
        "the replace wrote outside the object's pages (an allocation): {events:?}"
    );
    let data_read: u64 = events.iter().filter_map(is_data_read).sum();
    assert!(data_read <= 2, "read {data_read} data pages: {events:?}");
    let syncs: Vec<usize> = (0..events.len())
        .filter(|&i| events[i] == Event::Sync)
        .collect();
    assert_eq!(syncs.len(), 1, "one sync per replace commit: {events:?}");
    let frame = events
        .iter()
        .rposition(is_log_write)
        .expect("a commit frame");
    assert!(
        frame < syncs[0],
        "the sync forces the commit frame: {events:?}"
    );
    let data: Vec<usize> = (0..events.len())
        .filter(|&i| is_data_write(&events[i]))
        .collect();
    assert!(!data.is_empty(), "the replace wrote in place: {events:?}");
    assert!(
        data.iter().all(|&i| i > syncs[0]),
        "data pages must follow the forced commit frame: {events:?}"
    );
    let mut model = pattern(8 * PAGE, 1);
    model[3 * PAGE - 100..4 * PAGE - 100].copy_from_slice(&pattern(PAGE, 2));
    assert_eq!(cs.snapshot().read_all(a.id()).unwrap(), model);
}

/// Abort writes no data page and issues no sync: the stashed in-place
/// writes never reached the volume, so every data page is
/// byte-identical to before the scope.
#[test]
fn abort_writes_no_data_page() {
    let recorder = EventVolume::new(fresh_volume());
    let vol: SharedVolume = recorder.clone();
    let mut store = create(vol);
    let mut a = store
        .create_with(&pattern(4 * PAGE, 1), Some(4 * PAGE as u64))
        .unwrap();
    let pre = a.clone();
    let data_pages = |store: &ObjectStore| store.volume().read_pages(0, WAL_BASE).unwrap();
    let before = data_pages(&store);

    store.begin_txn();
    store.replace(&mut a, 0, &pattern(700, 3)).unwrap();
    store
        .replace(&mut a, 3 * PAGE as u64, &pattern(100, 4))
        .unwrap();
    assert_eq!(
        &store.read(&a, 0, 700).unwrap(),
        &pattern(700, 3),
        "the scope reads its own writes"
    );
    recorder.take();
    store.abort_txn().unwrap();
    let events = recorder.take();

    assert!(
        !events.iter().any(|e| is_data_write(e) || *e == Event::Sync),
        "abort wrote data or synced: {events:?}"
    );
    assert_eq!(data_pages(&store), before, "a data page changed");
    assert_eq!(store.read_all(&pre).unwrap(), pattern(4 * PAGE, 1));
}

/// A torn in-place write — the commit frame durable, the page only
/// half new — is repaired by recovery's redo: the bytes outside the
/// replaced range are the same in the old and the new page.
#[test]
fn recovery_repairs_a_torn_in_place_page() {
    let vol = fresh_volume();
    let base = pattern(6 * PAGE, 5);
    let patch = pattern(300, 6);
    let at = 2 * PAGE + 100;
    let page = {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&base, Some(base.len() as u64)).unwrap();
        let page = store.object_page_extents(&a)[0].0 + 2;
        let old = vol.read_pages(page, 1).unwrap();
        store.replace(&mut a, at as u64, &patch).unwrap();
        let new = vol.read_pages(page, 1).unwrap();
        assert_ne!(old, new, "the committed replace wrote in place");
        // Power dies mid-write: only the first half of the page landed.
        let mut torn = new[..PAGE / 2].to_vec();
        torn.extend_from_slice(&old[PAGE / 2..]);
        vol.write_pages(page, &torn).unwrap();
        page
    };
    let (store, report) = reopen(vol.clone());
    assert!(report.redo_pages >= 1, "the commit's redo was replayed");
    let mut want = base;
    want[at..at + patch.len()].copy_from_slice(&patch);
    assert_eq!(store.read_all(&report.objects[0]).unwrap(), want);
    assert_eq!(
        vol.read_pages(page, 1).unwrap()[..],
        want[2 * PAGE..3 * PAGE]
    );
}

/// Redo cancellation: a page written in place, then freed by a later
/// commit and reallocated to another object by a third, must not get
/// the first commit's redo replayed over the new object's bytes.
#[test]
fn redo_is_cancelled_for_a_freed_and_reallocated_page() {
    let vol = fresh_volume();
    let b_bytes = pattern(4 * PAGE, 9);
    {
        let mut store = create(vol.clone());
        let mut a = store
            .create_with(&pattern(4 * PAGE, 7), Some(4 * PAGE as u64))
            .unwrap();
        let page = store.object_page_extents(&a)[0].0 + 1;
        store
            .replace(&mut a, PAGE as u64 + 10, &pattern(50, 8))
            .unwrap();
        store.delete_object(&mut a).unwrap();
        // Object ids pick their home buddy space (`id % spaces`): skip
        // id 2 so the new object lands in the space the page came from.
        store.create_with(b"x", None).unwrap();
        let b = store
            .create_with(&b_bytes, Some(b_bytes.len() as u64))
            .unwrap();
        assert!(
            store
                .object_page_extents(&b)
                .iter()
                .any(|&(start, pages)| (start..start + pages).contains(&page)),
            "the test needs the replaced page reallocated to the new object"
        );
    }
    let (store, report) = reopen(vol);
    assert_eq!(
        report.redo_cancelled, 1,
        "the freed page's redo was dropped"
    );
    let b = report.objects.iter().find(|o| o.id() == 3).unwrap();
    assert_eq!(store.read_all(b).unwrap(), b_bytes);
}

/// Read-your-writes in a single-writer durable scope: every leaf read
/// inside the scope — the caller's, and the ones insert makes —
/// sees the stashed in-place writes.
#[test]
fn durable_scope_reads_its_own_in_place_writes() {
    let vol = fresh_volume();
    let mut model = pattern(5 * PAGE, 11);
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&model, Some(model.len() as u64)).unwrap();
        store.begin_txn();
        store.replace(&mut a, 700, &pattern(64, 12)).unwrap();
        model[700..764].copy_from_slice(&pattern(64, 12));
        assert_eq!(store.read_all(&a).unwrap(), model, "replace → read");
        store.insert(&mut a, 650, &pattern(90, 13)).unwrap();
        model.splice(650..650, pattern(90, 13));
        assert_eq!(store.read_all(&a).unwrap(), model, "insert → read");
        store.commit_txn().unwrap();
        assert_eq!(store.read_all(&a).unwrap(), model, "after commit");
    }
    let (store, report) = reopen(vol);
    assert_eq!(store.read_all(&report.objects[0]).unwrap(), model);
}

#[test]
fn log_wraps_under_sustained_load() {
    let vol = fresh_volume();
    let mut store = create(vol.clone());
    let mut a = store.create_with(&pattern(2 * PAGE, 1), None).unwrap();
    for i in 0..200u64 {
        store
            .replace(&mut a, (i % 64) * 8, &pattern(64, i as u8))
            .unwrap();
    }
    let wal = store.durable_wal().unwrap();
    assert!(wal.checkpoints_taken() > 0, "the log flipped halves");
    drop(store);
    let (store, report) = reopen(vol);
    assert_eq!(report.objects.len(), 1);
    store.verify_object(&report.objects[0]).unwrap();
}

// ---- I/O shape --------------------------------------------------------------
//
// A durable store treats its buddy directories as derived state (restart
// recovery rebuilds them from the log), so it writes them back only at
// format and recovery; its log keeps the active tail page in memory and
// lets advisory Touch frames ride the next frame write. These tests pin
// the resulting I/O per commit and per recovery.

/// Volume pages of the buddy directories.
fn is_dir_page(page: u64) -> bool {
    page < WAL_BASE && page.is_multiple_of(PPS + 1)
}

fn dir_writes(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Write { start, .. } if is_dir_page(*start) => Some(*start),
            _ => None,
        })
        .collect()
}

#[test]
fn durable_solo_commit_writes_the_log_once_and_no_directory() {
    let recorder = EventVolume::new(fresh_volume());
    let vol: SharedVolume = recorder.clone();
    let mut store = create(vol);
    let mut a = store.create_with(&pattern(4 * PAGE, 1), None).unwrap();
    // Each op is one autocommit scope: a Commit frame, plus a Touch
    // frame, allocations and deferred frees for the shadowed ones (the
    // replace writes in place and logs only its redo).
    for step in 0..3 {
        recorder.take();
        match step {
            0 => store.replace(&mut a, 700, &pattern(300, 2)),
            1 => store.insert(&mut a, 100, &pattern(90, 3)),
            _ => store.delete(&mut a, 1500, 400),
        }
        .unwrap();
        let events = recorder.take();
        assert!(
            dir_writes(&events).is_empty(),
            "a durable commit wrote a directory page: {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::Read { start, .. } if *start >= WAL_BASE)),
            "a commit read the log back: {events:?}"
        );
        assert_eq!(
            events.iter().filter(|e| is_log_write(e)).count(),
            1,
            "the Touch and Commit frames share one log write: {events:?}"
        );
    }
}

#[test]
fn recovery_writes_each_directory_once_and_matches_its_rebuild() {
    let vol = fresh_volume();
    {
        let mut store = create(vol.clone());
        let mut a = store.create_with(&pattern(5 * PAGE, 1), None).unwrap();
        let mut b = store.create_with(&pattern(2 * PAGE, 2), None).unwrap();
        store.insert(&mut a, 300, &pattern(700, 3)).unwrap();
        store.delete(&mut b, 100, 400).unwrap();
        store.begin_txn();
        store.append(&mut b, &pattern(900, 4)).unwrap();
        // crash with the scope open
    }
    let recorder = EventVolume::new(vol.clone());
    let rvol: SharedVolume = recorder.clone();
    let (store, _) =
        ObjectStore::open_durable(rvol, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap();
    let mut written = dir_writes(&recorder.take());
    written.sort_unstable();
    let every_dir: Vec<u64> = (0..SPACES as u64).map(|i| i * (PPS + 1)).collect();
    assert_eq!(
        written, every_dir,
        "each directory page written exactly once"
    );

    // The pages on disk are the rebuilt directories.
    let on_disk = eos_buddy::BuddyManager::open(vol, SPACES, PPS).unwrap();
    on_disk.check_invariants().unwrap();
    for i in 0..SPACES {
        assert_eq!(
            on_disk.space(i).dir().to_page(),
            store.buddy().space(i).dir().to_page(),
            "space {i}: directory on disk differs from the rebuilt one"
        );
    }
}

#[test]
fn log_less_store_writes_one_directory_page_per_allocation() {
    use eos_core::obs::Metrics;
    let recorder = EventVolume::new(fresh_volume());
    let vol: SharedVolume = recorder.clone();
    let mut store = ObjectStore::create(vol, SPACES, PPS, StoreConfig::default()).unwrap();
    let metrics = Metrics::new();
    store.set_metrics(&metrics);
    recorder.take();
    let mut a = store.create_with(&pattern(5 * PAGE + 9, 1), None).unwrap();
    store.insert(&mut a, 1000, &pattern(800, 2)).unwrap();
    store.delete(&mut a, 0, 600).unwrap();
    let snap = metrics.snapshot();
    let allocs = snap.histogram("buddy.alloc.pages").unwrap().count;
    let frees = snap.histogram("buddy.free.pages").unwrap().count;
    assert!(allocs > 0 && frees > 0);
    assert_eq!(
        dir_writes(&recorder.take()).len() as u64,
        allocs + frees,
        "§3.3: one directory write per allocation and per free"
    );
}

// ---- failed checkpoint publish --------------------------------------------

/// A checkpoint whose flip fails part-way must never strand commits the
/// store goes on to acknowledge. Sweep an injected I/O failure across
/// every operation of a run of replace commits on a small
/// log (so the halves flip every few commits), heal the volume, commit
/// a second object, and reopen: every acknowledged commit must be in
/// the recovered image. Before the fix, a failed superblock write left
/// the log appending to the unpublished half, and the post-heal commit
/// — acknowledged — vanished on reopen.
#[test]
fn failed_checkpoint_publish_never_loses_acknowledged_commits() {
    use eos_pager::FaultyVolume;
    const LOG: u64 = 16;
    let pages = (PPS + 1) * SPACES as u64 + LOG;
    let original = pattern(1500, 1);
    let second = pattern(700, 9);
    for budget in 0..400u64 {
        let inner = MemVolume::with_profile(PAGE, pages, DiskProfile::FREE).shared();
        let faulty = FaultyVolume::new(inner.clone(), u64::MAX);
        let mut store =
            ObjectStore::create_durable(faulty.clone(), SPACES, PPS, StoreConfig::default(), LOG)
                .unwrap();
        let mut obj = store.create_with(&original, None).unwrap();
        let mut acked = original.clone();
        // The bytes of the one commit that failed, which may still have
        // become durable (its frame landed before the error surfaced).
        let mut limbo = None;
        faulty.heal(budget);
        for i in 0..40u8 {
            let data = pattern(100, i.wrapping_add(2));
            let off = (usize::from(i) * 37) % 1400;
            let mut next = acked.clone();
            next[off..off + 100].copy_from_slice(&data);
            if store.replace(&mut obj, off as u64, &data).is_ok() {
                acked = next;
            } else {
                limbo = Some(next);
                break;
            }
        }
        faulty.heal(u64::MAX);
        // Commit again on the healed volume; if the store acknowledges
        // it, it must survive the reopen.
        let second_acked = store.create_with(&second, None).is_ok();
        drop(store);

        let (store, report) =
            ObjectStore::open_durable(inner, SPACES, PPS, StoreConfig::default(), LOG).unwrap();
        let first = report
            .objects
            .iter()
            .find(|o| o.id() == 1)
            .expect("the first object was acknowledged before any fault");
        let got = store.read_all(first).unwrap();
        assert!(
            got == acked || Some(&got) == limbo.as_ref(),
            "budget {budget}: acknowledged replaces of object 1 lost"
        );
        if second_acked {
            let obj2 = report
                .objects
                .iter()
                .find(|o| o.id() == 2)
                .unwrap_or_else(|| panic!("budget {budget}: acknowledged commit lost on reopen"));
            assert_eq!(store.read_all(obj2).unwrap(), second, "budget {budget}");
        }
    }
}

// ---- commits in doubt ---------------------------------------------------
//
// A commit whose log force fails may or may not be durable; the store
// reports it failed and appends a compensating commit that restores what
// the log held before, so no later commit can be overwritten by it at
// restart. One whose force succeeded but whose in-place write failed is
// durable but only partly written: the log fails until reopen.

/// The three commit paths: the single-writer store's `commit_scope`,
/// and the concurrent front-end's solo and group-commit pipelines.
#[derive(Debug, Clone, Copy)]
enum Front {
    Single,
    Solo,
    Grouped,
}

const FRONTS: [Front; 3] = [Front::Single, Front::Solo, Front::Grouped];

/// A store driven through one [`Front`]. The single-writer path runs
/// through [`ConcurrentStore::with_store_mut`], whose operations
/// autocommit on the plain store.
struct Pipeline {
    front: Front,
    cs: ConcurrentStore,
}

impl Pipeline {
    fn new(front: Front, volume: SharedVolume) -> Pipeline {
        let grouped = matches!(front, Front::Grouped);
        let cs = ConcurrentStore::with_group_commit(create(volume), grouped);
        Pipeline { front, cs }
    }

    /// A one-segment object, so a small replace writes in place.
    fn create(&mut self, data: &[u8]) -> eos_core::LargeObject {
        let hint = Some(data.len() as u64);
        if let Front::Single = self.front {
            return self
                .cs
                .with_store_mut(|st| st.create_with(data, hint))
                .unwrap();
        }
        let txn = self.cs.begin();
        let obj = txn.create(data, hint).unwrap();
        txn.commit().unwrap();
        obj
    }

    /// One replace in its own scope, committed.
    fn replace(
        &mut self,
        obj: &mut eos_core::LargeObject,
        at: u64,
        data: &[u8],
    ) -> eos_core::Result<()> {
        if let Front::Single = self.front {
            return self.cs.with_store_mut(|st| st.replace(obj, at, data));
        }
        let txn = self.cs.begin();
        match txn.replace(obj, at, data) {
            Ok(()) => txn.commit(),
            Err(e) => {
                let _ = txn.abort();
                Err(e)
            }
        }
    }

    fn checkpoint(&self) -> eos_core::Result<()> {
        self.cs.with_store(|st| {
            st.durable_wal()
                .map_or(Ok(()), eos_core::StripedWal::checkpoint)
        })
    }
}

/// `base` with `patch` laid over bytes `[at, at + patch.len())`.
fn patched(base: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    out
}

/// Scope A replaces a range in place and its log force fails; scope B
/// replaces part of that range from the bytes on disk (A's write was
/// never issued); the process dies, with or without a checkpoint first.
/// B was acknowledged and A was not, so the reopened object is the base
/// with B's bytes and none of A's — a checkpoint that carried A's redo
/// past B would overwrite B's, and a replay of A without its
/// compensation would resurrect A's around them.
#[test]
fn failed_in_place_force_never_overwrites_a_later_commit() {
    use eos_pager::FaultyVolume;
    for (front, checkpoint) in FRONTS.into_iter().flat_map(|f| [(f, false), (f, true)]) {
        let inner = fresh_volume();
        let faulty = FaultyVolume::new(inner.clone(), u64::MAX);
        let mut pipe = Pipeline::new(front, faulty.clone());
        let base = pattern(4 * PAGE, 1);
        let mut obj = pipe.create(&base);
        let (a, b) = (pattern(300, 2), pattern(100, 3));
        faulty.fail_sync_after(0);
        assert!(
            pipe.replace(&mut obj, 100, &a).is_err(),
            "{front:?}: the force failed"
        );
        pipe.replace(&mut obj, 200, &b)
            .unwrap_or_else(|e| panic!("{front:?}: the store stopped after a failed force: {e}"));
        if checkpoint {
            pipe.checkpoint().unwrap();
        }
        drop(pipe);

        let (store, report) = reopen(inner);
        let got = store.read_all(&report.objects[0]).unwrap();
        assert!(
            got == patched(&base, 200, &b),
            "{front:?}, checkpoint {checkpoint}: B lost, or A's bytes recovered"
        );
    }
}

/// An I/O failure swept across one in-place replace commit — its
/// boundary read, its commit frame, its in-place write — then a second
/// replace of the same range on the healed volume, a checkpoint and a
/// reopen: every acknowledged commit survives, and the failing one is
/// recovered whole or not at all. A commit whose in-place write failed
/// is durable but partly written, so the store refuses the second
/// replace and recovery finishes the first.
#[test]
fn failed_in_place_write_fails_the_log_and_recovery_finishes_it() {
    use eos_pager::FaultyVolume;
    for front in FRONTS {
        let mut refused = 0;
        for budget in 0..12u64 {
            let inner = fresh_volume();
            let faulty = FaultyVolume::new(inner.clone(), u64::MAX);
            let mut pipe = Pipeline::new(front, faulty.clone());
            let base = pattern(8 * PAGE, 4);
            let mut obj = pipe.create(&base);
            // Two pages, written one at a time: the failure can land
            // between them.
            let at = 3 * PAGE - 100;
            let (a, b) = (pattern(PAGE, 5), pattern(PAGE, 6));
            faulty.heal(budget);
            let a_acked = pipe.replace(&mut obj, at as u64, &a).is_ok();
            faulty.heal(u64::MAX);
            let b_acked = pipe.replace(&mut obj, at as u64, &b);
            if matches!(b_acked, Err(Error::LogFailed { .. })) {
                refused += 1;
            }
            let _ = pipe.checkpoint();
            drop(pipe);

            let (store, report) = reopen(inner);
            let got = store.read_all(&report.objects[0]).unwrap();
            let after_a = patched(&base, at, &a);
            if b_acked.is_ok() {
                assert!(
                    got == patched(&base, at, &b),
                    "{front:?} budget {budget}: B lost"
                );
            } else if a_acked {
                assert!(got == after_a, "{front:?} budget {budget}: A lost");
            } else {
                assert!(
                    got == base || got == after_a,
                    "{front:?} budget {budget}: A recovered in part"
                );
            }
        }
        assert!(refused > 0, "{front:?}: no budget failed an in-place write");
    }
}

/// A delete whose force fails may still be found durable at restart;
/// a later in-place replace of the same object logs no root, so only
/// the delete's compensating commit, which logs the object's root
/// again, keeps the replace's acknowledged bytes from vanishing with
/// the object.
#[test]
fn failed_delete_force_never_drops_a_later_replace() {
    use eos_pager::FaultyVolume;
    let inner = fresh_volume();
    let faulty = FaultyVolume::new(inner.clone(), u64::MAX);
    let mut store = create(faulty.clone());
    let base = pattern(4 * PAGE, 7);
    let obj = store.create_with(&base, Some(base.len() as u64)).unwrap();
    faulty.fail_sync_after(0);
    assert!(
        store.delete_object(&mut obj.clone()).is_err(),
        "the delete's force failed"
    );
    let mut live = obj.clone();
    let b = pattern(200, 8);
    store.replace(&mut live, 100, &b).unwrap();
    assert_eq!(
        store.object_page_extents(&live),
        store.object_page_extents(&obj),
        "the replace wrote in place"
    );
    drop(store);

    let (store, report) = reopen(inner);
    let got = report
        .objects
        .iter()
        .find(|o| o.id() == obj.id())
        .expect("the acknowledged replace kept its object");
    assert_eq!(store.read_all(got).unwrap(), patched(&base, 100, &b));
}

/// A v4 undo-image `replace` entry (tag 1) as the previous format wrote
/// it: scope, the logical record (LSN first), the root after, and one
/// before-image.
fn v4_undo_entry(txn: u64, lsn: u64) -> eos_core::durable::WalEntry {
    let put = |out: &mut Vec<u8>, b: &[u8]| {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    };
    let mut record = lsn.to_le_bytes().to_vec();
    record.extend_from_slice(&1u64.to_le_bytes());
    let mut raw = vec![1u8];
    raw.extend_from_slice(&txn.to_le_bytes());
    put(&mut raw, &record);
    put(&mut raw, &[]);
    raw.extend_from_slice(&1u32.to_le_bytes());
    raw.extend_from_slice(&5u64.to_le_bytes());
    put(&mut raw, &[0xAB; PAGE]);
    eos_core::durable::WalEntry::from_bytes(&raw).unwrap()
}

/// Stamp every valid superblock slot with format version 4.
fn stamp_v4_superblocks(vol: &SharedVolume) {
    for slot in [WAL_BASE, WAL_BASE + 1] {
        let mut page = vol.read_pages(slot, 1).unwrap();
        if page[0..4] != 0x454F_5357u32.to_le_bytes() {
            continue;
        }
        page[4..8].copy_from_slice(&4u32.to_le_bytes());
        let crc = eos_core::durable::crc32(&page[..17]);
        page[17..21].copy_from_slice(&crc.to_le_bytes());
        vol.write_pages(slot, &page).unwrap();
    }
}

/// Old logs are never misread: a v4 log whose undo-image entries all
/// committed recovers (their in-place writes were synced before their
/// commit), and one whose pending tail still holds such an entry is
/// refused with a typed error instead of being rolled forward.
#[test]
fn v4_logs_recover_or_are_refused() {
    use eos_core::durable::{DurableWal, WalEntry};
    let vol = fresh_volume();
    let bytes = pattern(900, 3);
    {
        let mut store = create(vol.clone());
        store.create_with(&bytes, None).unwrap();
    }
    {
        let mut wal = DurableWal::attach(vol.clone(), WAL_BASE, WAL_PAGES).unwrap();
        let lsn = wal.allocate_lsn();
        wal.append(v4_undo_entry(7, lsn)).unwrap();
        let lsn = wal.allocate_lsn();
        wal.append(WalEntry::Commit {
            txn: 7,
            lsn,
            participants: 1,
            touched: Vec::new(),
            deleted: Vec::new(),
            redo: Vec::new(),
            freed: Vec::new(),
        })
        .unwrap();
    }
    stamp_v4_superblocks(&vol);
    let image = vol.read_pages(0, vol.num_pages()).unwrap();
    let (store, report) = reopen(vol.clone());
    assert_eq!(store.read_all(&report.objects[0]).unwrap(), bytes);

    // The same v4 log with one more undo entry that never committed.
    let vol = MemVolume::from_bytes(PAGE, image, DiskProfile::FREE).shared();
    {
        let mut wal = DurableWal::attach(vol.clone(), WAL_BASE, WAL_PAGES).unwrap();
        let lsn = wal.allocate_lsn();
        wal.append(v4_undo_entry(8, lsn)).unwrap();
    }
    let refused =
        ObjectStore::open_durable(vol, SPACES, PPS, StoreConfig::default(), WAL_PAGES).map(|_| ());
    assert!(
        matches!(refused, Err(eos_core::Error::LegacyUndoLog { txn: 8 })),
        "got {refused:?}"
    );
}
