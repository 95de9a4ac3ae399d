//! Durable-store lifecycle tests: create, mutate, reopen, recover.
//!
//! The exhaustive crash-point sweep lives at the workspace root
//! (`tests/crash_sweep.rs`); these tests cover the happy paths and the
//! targeted failure modes of the durable WAL integration.

use eos_core::{ObjectStore, StoreConfig};
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
        let mut a = store.create_with(&base, None).unwrap();
        // Simulate a crash mid-transaction: mutate inside an explicit
        // scope and drop the store without committing.
        store.begin_txn();
        store.replace(&mut a, 100, &pattern(600, 10)).unwrap();
        store.append(&mut a, &pattern(123, 11)).unwrap();
        // no commit — the store (and its in-memory state) just vanish
    }
    let (store, report) = reopen(vol);
    assert_eq!(report.rolled_back_ops, 2);
    assert!(report.restored_pages > 0, "replace images were restored");
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
    Read { start: u64 },
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
        self.events.lock().unwrap().push(Event::Read { start });
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

/// Index of the first sync strictly after `from`, if any.
fn sync_after(events: &[Event], from: usize) -> Option<usize> {
    events[from + 1..]
        .iter()
        .position(|e| *e == Event::Sync)
        .map(|i| from + 1 + i)
}

#[test]
fn replace_barriers_order_undo_data_and_commit() {
    let recorder = EventVolume::new(fresh_volume());
    let vol: SharedVolume = recorder.clone();
    let mut store = create(vol);
    let mut a = store.create_with(&pattern(4 * PAGE, 1), None).unwrap();
    recorder.take();

    store.replace(&mut a, 100, &pattern(900, 2)).unwrap();
    let events = recorder.take();

    // WAL rule: the Op frame (undo images) is written and *synced*
    // before the first in-place data write.
    let first_log = events.iter().position(is_log_write).expect("an Op frame");
    let first_data = events
        .iter()
        .position(is_data_write)
        .expect("in-place writes");
    assert!(first_log < first_data, "undo frame precedes the overwrite");
    let barrier = sync_after(&events, first_log).expect("a sync after the Op frame");
    assert!(
        barrier < first_data,
        "undo images must be durable before the first in-place byte: {events:?}"
    );

    // Data-before-log: every data write is synced before the Commit
    // frame (the last log write) lands.
    let last_log = events.iter().rposition(is_log_write).unwrap();
    let last_data = events.iter().rposition(is_data_write).unwrap();
    assert!(last_data < last_log, "commit frame is the final frame");
    let commit_barrier = sync_after(&events, last_data).expect("a sync after the data writes");
    assert!(
        commit_barrier < last_log,
        "data pages must be durable before the commit frame: {events:?}"
    );
    assert_eq!(
        events.last(),
        Some(&Event::Sync),
        "the commit frame itself is synced"
    );
}

#[test]
fn abort_syncs_restores_before_the_abort_frame() {
    let recorder = EventVolume::new(fresh_volume());
    let vol: SharedVolume = recorder.clone();
    let mut store = create(vol);
    let mut a = store.create_with(&pattern(4 * PAGE, 1), None).unwrap();

    store.begin_txn();
    store.replace(&mut a, 0, &pattern(700, 3)).unwrap();
    recorder.take();
    store.abort_txn().unwrap();
    let events = recorder.take();

    // The before-image restores (data writes) must be durable before
    // the Abort frame — otherwise a crash can persist the Abort and
    // recovery would skip the undo.
    let last_data = events.iter().rposition(is_data_write).expect("restores");
    let abort_frame = events.iter().rposition(is_log_write).expect("Abort frame");
    assert!(last_data < abort_frame);
    let barrier = sync_after(&events, last_data).expect("a sync after the restores");
    assert!(
        barrier < abort_frame,
        "restores must be durable before the Abort frame: {events:?}"
    );
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
    // Each op is one autocommit scope: a Touch frame, a Commit frame,
    // allocations and deferred frees.
    for step in 0..3 {
        recorder.take();
        match step {
            0 => store.replace_shadow(&mut a, 700, &pattern(300, 2)),
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
                .any(|e| matches!(e, Event::Read { start } if *start >= WAL_BASE)),
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
/// every operation of a run of copy-on-write replace commits on a small
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
            if store.replace_shadow(&mut obj, off as u64, &data).is_ok() {
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
