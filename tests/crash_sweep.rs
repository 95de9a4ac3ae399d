//! The exhaustive crash-point sweep: for a scripted workload of
//! transactional create/append/insert/delete/replace/delete-object
//! operations against a durable store, simulate a power loss after
//! exactly *k* page writes — for **every** k the workload performs, and
//! for both clean and torn final writes — then reopen the half-written
//! volume, run restart recovery, and assert:
//!
//! 1. every transaction whose commit returned success before the crash
//!    is present byte-for-byte (committed-prefix equality);
//! 2. the transaction in flight at the crash is either fully present or
//!    fully absent — present only if the crash hit its commit append
//!    (the limbo window §4.5 allows), never a byte-mixture;
//! 3. `eos-check` finds nothing wrong with the recovered volume.

use std::collections::BTreeMap;
use std::sync::Arc;

use eos::core::{ConcurrentStore, LargeObject, ObjectStore, StoreConfig, Txn};
use eos::pager::{CrashPointVolume, DiskProfile, MemVolume, SharedVolume};

const PAGE: usize = 512;
const SPACES: usize = 2;
const PPS: u64 = 126;
const WAL_PAGES: u64 = 66;
const VOLUME_PAGES: u64 = (PPS + 1) * SPACES as u64 + WAL_PAGES;

// The striped variant runs two WAL stripes; each slice gets the full
// single-log capacity so checkpoint pressure stays comparable.
const STRIPED_WAL_PAGES: u64 = 2 * WAL_PAGES;
const STRIPED_VOLUME_PAGES: u64 = (PPS + 1) * SPACES as u64 + STRIPED_WAL_PAGES;

fn striped_config() -> StoreConfig {
    StoreConfig {
        wal_stripes: 2,
        ..StoreConfig::default()
    }
}

/// One mutating operation; objects are named by creation order (the
/// durable store assigns ids 1, 2, … deterministically).
#[derive(Debug, Clone)]
enum Op {
    Create(Vec<u8>),
    Append(u64, Vec<u8>),
    Insert(u64, u64, Vec<u8>),
    Delete(u64, u64, u64),
    Replace(u64, u64, Vec<u8>),
    Truncate(u64, u64),
    DeleteObj(u64),
    /// Commit this scope and the next one as one group-commit batch,
    /// with a log checkpoint between their commit appends (the flip an
    /// append can fire inside Phase B). No effect on the bytes.
    BatchWithNext,
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

/// The scripted workload: 34 transaction scopes exercising every §4
/// operation, sized to cross page and segment boundaries and to flip
/// the log's halves, ending with the in-place replace cases: a replace
/// written after its commit frame, a free and a reallocation of its
/// page, and a checkpoint inside a group-commit batch.
fn workload() -> Vec<Vec<Op>> {
    vec![
        // txn 1: two objects are born
        vec![
            Op::Create(pattern(3 * PAGE + 77, 1)),
            Op::Create(pattern(40, 2)),
        ],
        // txn 2: growth and a mid-object insert
        vec![
            Op::Append(1, pattern(2 * PAGE, 3)),
            Op::Insert(1, 700, pattern(300, 4)),
            Op::Append(2, pattern(PAGE + 13, 5)),
        ],
        // txn 3: in-place replaces, straddling a page boundary
        vec![
            Op::Replace(1, 100, pattern(64, 6)),
            Op::Replace(1, PAGE as u64 - 17, pattern(200, 7)),
            Op::Replace(2, 0, pattern(30, 8)),
        ],
        // txn 4: shrink from the middle and the end
        vec![
            Op::Delete(1, 400, 900),
            Op::Truncate(2, 300),
            Op::Replace(1, 0, pattern(128, 9)),
        ],
        // txn 5: one object dies, a third is born
        vec![Op::DeleteObj(2), Op::Create(pattern(2 * PAGE + 11, 10))],
        // txn 6: growth spurt on the newcomer, multi-segment appends
        vec![
            Op::Append(3, pattern(500, 11)),
            Op::Append(3, pattern(4 * PAGE, 12)),
            Op::Replace(1, 50, pattern(90, 13)),
        ],
        // txn 7: churn that forces reshuffling around segment seams
        vec![
            Op::Insert(3, PAGE as u64, pattern(700, 14)),
            Op::Delete(3, 200, 450),
            Op::Insert(1, 0, pattern(256, 15)),
            Op::Replace(3, 2 * PAGE as u64 + 5, pattern(300, 16)),
        ],
        // txn 8: a fourth object, then heavy in-place traffic
        vec![
            Op::Create(pattern(PAGE + 200, 17)),
            Op::Replace(4, 100, pattern(400, 18)),
            Op::Replace(4, 0, pattern(64, 19)),
            Op::Append(4, pattern(300, 20)),
        ],
        // txn 9: shrink everything back down
        vec![
            Op::Truncate(3, 900),
            Op::Delete(1, 500, 800),
            Op::Truncate(4, 256),
        ],
        // txn 10: touches on every survivor
        vec![
            Op::Replace(1, 10, pattern(48, 21)),
            Op::Append(3, pattern(150, 22)),
            Op::Insert(4, 128, pattern(99, 23)),
        ],
        // txn 11: a fifth object spanning several pages
        vec![
            Op::Create(pattern(5 * PAGE + 123, 24)),
            Op::Replace(1, 0, pattern(32, 25)),
        ],
        // txn 12: splice into the newcomer's interior, then grow it
        vec![
            Op::Insert(5, 2 * PAGE as u64 + 3, pattern(600, 26)),
            Op::Append(5, pattern(PAGE + 1, 27)),
        ],
        // txn 13: overwrite across a page seam, then cut the tail
        vec![
            Op::Replace(5, PAGE as u64 - 50, pattern(300, 28)),
            Op::Truncate(5, 4 * PAGE as u64),
        ],
        // txn 14: object 4 dies while object 3 grows
        vec![Op::DeleteObj(4), Op::Append(3, pattern(3 * PAGE, 29))],
        // txn 15: deletes at the head and in the middle
        vec![Op::Delete(3, 0, 200), Op::Delete(5, 100, 300)],
        // txn 16: a sixth object, rewritten right after its birth
        vec![
            Op::Create(pattern(2 * PAGE, 30)),
            Op::Replace(6, 10, pattern(500, 31)),
        ],
        // txn 17: inserts at the head of three objects
        vec![
            Op::Insert(1, 0, pattern(77, 32)),
            Op::Insert(3, 0, pattern(PAGE, 33)),
            Op::Insert(6, 0, pattern(5, 34)),
        ],
        // txn 18: deep truncations
        vec![Op::Truncate(1, 300), Op::Truncate(6, PAGE as u64 + 7)],
        // txn 19: regrowth of the truncated objects
        vec![
            Op::Append(1, pattern(2 * PAGE + 9, 35)),
            Op::Append(6, pattern(900, 36)),
        ],
        // txn 20: in-place replaces only
        vec![
            Op::Replace(3, 5, pattern(1000, 37)),
            Op::Replace(5, 0, pattern(64, 38)),
        ],
        // txn 21: the first object dies, a seventh is born
        vec![Op::DeleteObj(1), Op::Create(pattern(3 * PAGE, 39))],
        // txn 22: churn on the newest object
        vec![
            Op::Insert(7, 700, pattern(400, 40)),
            Op::Delete(7, 100, 500),
            Op::Append(5, pattern(250, 41)),
        ],
        // txn 23: touches on every survivor
        vec![
            Op::Replace(6, 0, pattern(128, 42)),
            Op::Truncate(3, 2000),
            Op::Insert(5, 64, pattern(333, 43)),
        ],
        // txn 24: an eighth object beside growth and an overwrite
        vec![
            Op::Create(pattern(4 * PAGE + 99, 44)),
            Op::Append(3, pattern(PAGE + 50, 45)),
            Op::Replace(7, 0, pattern(700, 46)),
        ],
        // txn 25: splice, hollow out, cut back
        vec![
            Op::Insert(8, PAGE as u64 + 1, pattern(800, 47)),
            Op::Delete(6, 200, 600),
            Op::Truncate(7, 1000),
        ],
        // txn 26: object 6 dies amid growth elsewhere
        vec![
            Op::DeleteObj(6),
            Op::Append(8, pattern(2 * PAGE, 48)),
            Op::Insert(5, 0, pattern(150, 49)),
        ],
        // txn 27: a long delete spanning segments
        vec![
            Op::Delete(8, 50, 1500),
            Op::Replace(3, 100, pattern(300, 50)),
            Op::Append(7, pattern(600, 51)),
        ],
        // txn 28: final touches on every survivor
        vec![
            Op::Replace(8, 0, pattern(400, 52)),
            Op::Truncate(5, 900),
            Op::Insert(3, 2500, pattern(200, 53)),
        ],
        // txn 29: object 9 grows to 20 pages in doubling segments (1,
        // 2, 4, 8, 5 pages), big enough for in-place replaces.
        vec![Op::Create(pattern(20 * PAGE, 54))],
        // txn 30: an in-place replace in the 8-page segment (pages
        // 7–14): its page is written after the commit frame, from the
        // redo the frame carries.
        vec![Op::Replace(9, 7 * PAGE as u64 + 30, pattern(200, 55))],
        // txn 31: an insert into that segment rewrites it whole and
        // frees the replaced page — the commit logs the freed extent.
        vec![Op::Insert(9, 7 * PAGE as u64 + 100, pattern(50, 56))],
        // txn 32: growth reallocates the freed pages with new bytes;
        // recovery must not replay txn 30's redo over them.
        vec![Op::Append(9, pattern(8 * PAGE, 57))],
        // txns 33–34: one group-commit batch whose second append flips
        // the log: txn 33's redo is not yet written in place at the
        // flip, so the checkpoint must carry it.
        vec![
            Op::Replace(9, 3 * PAGE as u64 + 7, pattern(90, 58)),
            Op::BatchWithNext,
        ],
        vec![
            Op::Replace(5, 5, pattern(40, 59)),
            Op::Append(3, pattern(300, 60)),
        ],
    ]
}

/// Apply one op to the byte-level model.
fn model_apply(model: &mut BTreeMap<u64, Vec<u8>>, next_id: &mut u64, op: &Op) {
    match op {
        Op::Create(bytes) => {
            model.insert(*next_id, bytes.clone());
            *next_id += 1;
        }
        Op::Append(id, bytes) => model.get_mut(id).unwrap().extend_from_slice(bytes),
        Op::Insert(id, off, bytes) => {
            let v = model.get_mut(id).unwrap();
            v.splice(*off as usize..*off as usize, bytes.iter().copied());
        }
        Op::Delete(id, off, len) => {
            let v = model.get_mut(id).unwrap();
            v.drain(*off as usize..(*off + *len) as usize);
        }
        Op::Replace(id, off, bytes) => {
            let v = model.get_mut(id).unwrap();
            v[*off as usize..*off as usize + bytes.len()].copy_from_slice(bytes);
        }
        Op::Truncate(id, size) => model.get_mut(id).unwrap().truncate(*size as usize),
        Op::DeleteObj(id) => {
            model.remove(id);
        }
        Op::BatchWithNext => {}
    }
}

/// Apply one op to the store. Handles map object id → live descriptor.
fn store_apply(
    store: &mut ObjectStore,
    handles: &mut BTreeMap<u64, LargeObject>,
    op: &Op,
) -> eos::core::Result<()> {
    match op {
        Op::Create(bytes) => {
            let obj = store.create_with(bytes, None)?;
            handles.insert(obj.id(), obj);
        }
        Op::Append(id, bytes) => {
            let obj = handles.get_mut(id).unwrap();
            store.append(obj, bytes)?;
        }
        Op::Insert(id, off, bytes) => {
            let obj = handles.get_mut(id).unwrap();
            store.insert(obj, *off, bytes)?;
        }
        Op::Delete(id, off, len) => {
            let obj = handles.get_mut(id).unwrap();
            store.delete(obj, *off, *len)?;
        }
        Op::Replace(id, off, bytes) => {
            let obj = handles.get_mut(id).unwrap();
            store.replace(obj, *off, bytes)?;
        }
        Op::Truncate(id, size) => {
            let obj = handles.get_mut(id).unwrap();
            store.truncate(obj, *size)?;
        }
        Op::DeleteObj(id) => {
            let mut obj = handles.remove(id).unwrap();
            store.delete_object(&mut obj)?;
        }
        Op::BatchWithNext => {}
    }
    Ok(())
}

/// Where the crash error (if any) surfaced.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Every transaction committed.
    Completed,
    /// Crash surfaced mid-operation or mid-abort: `n` txns committed,
    /// the in-flight one cannot have reached its commit record.
    CrashedInTxn(usize),
    /// Crash surfaced inside `commit_txn` of txn `n` (0-based): the
    /// commit record may or may not have become durable — limbo.
    CrashedInCommit(usize),
    /// Crash surfaced inside the batched commit of txns `n` and `n+1`:
    /// either, both or neither record may have become durable.
    CrashedInBatch(usize),
}

impl Outcome {
    /// The committed prefixes (counts of whole txns) a crash with this
    /// outcome may recover to.
    fn prefixes(&self) -> std::ops::RangeInclusive<usize> {
        match *self {
            Outcome::Completed => panic!("the workload completed despite the crash"),
            Outcome::CrashedInTxn(n) => n..=n,
            Outcome::CrashedInCommit(n) => n..=n + 1,
            Outcome::CrashedInBatch(n) => n..=n + 2,
        }
    }
}

/// Run a scripted workload transaction by transaction.
fn run_ops(store: &mut ObjectStore, txns: &[Vec<Op>]) -> Outcome {
    let mut handles = BTreeMap::new();
    let mut t = 0;
    while let Some(txn) = txns.get(t) {
        if txn.iter().any(|op| matches!(op, Op::BatchWithNext)) {
            if let Err(outcome) = run_batch(store, &mut handles, t, &txns[t..t + 2]) {
                return outcome;
            }
            t += 2;
            continue;
        }
        store.begin_txn();
        for op in txn {
            if store_apply(store, &mut handles, op).is_err() {
                return Outcome::CrashedInTxn(t);
            }
        }
        if store.commit_txn().is_err() {
            return Outcome::CrashedInCommit(t);
        }
        t += 1;
    }
    Outcome::Completed
}

/// Commit two scopes the way the group-commit leader does — both
/// appends, one force, then each scope's in-place writes and frees —
/// with a log checkpoint between the two appends.
fn run_batch(
    store: &mut ObjectStore,
    handles: &mut BTreeMap<u64, LargeObject>,
    t: usize,
    pair: &[Vec<Op>],
) -> Result<(), Outcome> {
    let mut scopes = Vec::new();
    for txn in pair {
        let id = store.open_scope();
        store.set_active_scope(Some(id));
        let applied: eos::core::Result<()> = txn
            .iter()
            .try_for_each(|op| store_apply(store, handles, op));
        store.set_active_scope(None);
        applied.map_err(|_| Outcome::CrashedInTxn(t))?;
        scopes.push(id);
    }
    let commit = |store: &mut ObjectStore| -> eos::core::Result<()> {
        let first = store.prepare_commit(scopes[0], store.scope_dirty(scopes[0]))?;
        store.durable_wal().unwrap().checkpoint()?;
        let second = store.prepare_commit(scopes[1], store.scope_dirty(scopes[1]))?;
        let mut stripes = first.stripes.clone();
        stripes.extend(&second.stripes);
        store.durable_wal().unwrap().sync_stripes(&stripes)?;
        store.finish_commit(first)?;
        store.finish_commit(second)
    };
    commit(store).map_err(|_| Outcome::CrashedInBatch(t))
}

fn run_workload(store: &mut ObjectStore) -> Outcome {
    run_ops(store, &workload())
}

/// Model snapshots: `states[j]` = object id → bytes after `j` committed
/// transactions.
fn model_states_for(txns: &[Vec<Op>]) -> Vec<BTreeMap<u64, Vec<u8>>> {
    let mut states = vec![BTreeMap::new()];
    let mut model = BTreeMap::new();
    let mut next_id = 1u64;
    for txn in txns {
        for op in txn {
            model_apply(&mut model, &mut next_id, op);
        }
        states.push(model.clone());
    }
    states
}

fn model_states() -> Vec<BTreeMap<u64, Vec<u8>>> {
    model_states_for(&workload())
}

/// A fresh durable store on a crash-point gate over an in-memory
/// volume.
fn fresh_store_with(
    config: StoreConfig,
    wal_pages: u64,
    volume_pages: u64,
) -> (ObjectStore, Arc<CrashPointVolume>) {
    let mem = MemVolume::with_profile(PAGE, volume_pages, DiskProfile::FREE).shared();
    let gate = CrashPointVolume::new(mem);
    let vol: SharedVolume = gate.clone();
    let store = ObjectStore::create_durable(vol, SPACES, PPS, config, wal_pages).unwrap();
    (store, gate)
}

fn fresh_store() -> (ObjectStore, Arc<CrashPointVolume>) {
    fresh_store_with(StoreConfig::default(), WAL_PAGES, VOLUME_PAGES)
}

/// Recover the post-crash disk image and return (store, id → bytes).
fn recover_with(
    image: Vec<u8>,
    config: StoreConfig,
    wal_pages: u64,
) -> (ObjectStore, BTreeMap<u64, Vec<u8>>, Vec<LargeObject>) {
    let vol = MemVolume::from_bytes(PAGE, image, DiskProfile::FREE).shared();
    let (store, report) = ObjectStore::open_durable(vol, SPACES, PPS, config, wal_pages)
        .expect("recovery must succeed on any crash image");
    let mut bytes = BTreeMap::new();
    for obj in &report.objects {
        bytes.insert(obj.id(), store.read_all(obj).unwrap());
    }
    (store, bytes, report.objects)
}

fn recover(image: Vec<u8>) -> (ObjectStore, BTreeMap<u64, Vec<u8>>, Vec<LargeObject>) {
    recover_with(image, StoreConfig::default(), WAL_PAGES)
}

fn assert_checker_clean(store: &ObjectStore, objects: &[LargeObject], ctx: &str) {
    let named: Vec<(String, LargeObject)> = objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    let report = eos_check::check_store(store, &named, None);
    assert!(
        report.is_clean(),
        "{ctx}: eos-check found problems:\n{}",
        report.render_table()
    );
}

#[test]
fn crash_sweep_every_io_point() {
    let states = model_states();

    // Baseline run, unarmed: count the workload's I/O points and sanity
    // check the final state.
    let (mut store, gate) = fresh_store();
    gate.arm(u64::MAX, false); // counting only; u64::MAX never fires
    assert_eq!(run_workload(&mut store), Outcome::Completed);
    let total_writes = gate.writes_seen();
    drop(store);
    println!(
        "crash sweep: {total_writes} I/O points, clean + torn = {} scenarios",
        2 * total_writes
    );
    assert!(
        total_writes >= 144,
        "workload too small for a meaningful sweep: {total_writes} writes"
    );
    let (_, final_bytes, _) = recover(gate.image().unwrap());
    assert_eq!(
        &final_bytes,
        states.last().unwrap(),
        "unarmed run end state"
    );

    for torn in [false, true] {
        for k in 0..total_writes {
            let (mut store, gate) = fresh_store();
            gate.arm(k, torn);
            let outcome = run_workload(&mut store);
            drop(store);
            assert!(
                gate.has_crashed(),
                "k={k} torn={torn}: the armed crash never fired"
            );
            let (rstore, recovered, objects) = recover(gate.image().unwrap());

            let prefixes = outcome.prefixes();
            assert!(
                prefixes.clone().any(|j| recovered == states[j]),
                "k={k} torn={torn}: recovered state matches no committed \
                 prefix in {prefixes:?} ({outcome:?}).\n\
                 recovered ids: {:?}\nexpected ids: {:?}",
                recovered.keys().collect::<Vec<_>>(),
                states[*prefixes.start()].keys().collect::<Vec<_>>(),
            );
            assert_checker_clean(&rstore, &objects, &format!("k={k} torn={torn}"));
        }
    }
}

// ---- Striped-WAL crash sweep (DESIGN.md §17, FORMAT.md §Striped WAL) -------

/// The striped workload: objects hash onto stripes by id (`id % 2`), so
/// object 1 and 3 log on stripe 1, object 2 on stripe 0. The scopes are
/// chosen to cover every cross-stripe shape the commit pipeline has:
///
/// * single-stripe commits landing on each stripe *alternately*, so both
///   stripes carry non-contiguous global LSNs and recovery must merge
///   them by LSN, not by position;
/// * cross-stripe commits (two `participants` parts, one per stripe)
///   whose crash window between the part appends must presume abort;
/// * a cross-stripe delete-object + create, the tombstone part and the
///   birth part on different stripes.
fn striped_workload() -> Vec<Vec<Op>> {
    vec![
        // txn 1: objects 1 (stripe 1) and 2 (stripe 0) born together —
        // a two-participant commit from the very first scope.
        vec![
            Op::Create(pattern(2 * PAGE + 100, 41)),
            Op::Create(pattern(PAGE + 40, 42)),
        ],
        // txn 2: stripe-1 solo commit.
        vec![
            Op::Append(1, pattern(PAGE + 33, 43)),
            Op::Insert(1, 300, pattern(150, 44)),
        ],
        // txn 3: stripe-0 solo commit — stripe 0's log now skips the
        // LSNs txn 2 burned on stripe 1.
        vec![
            Op::Replace(2, 64, pattern(200, 45)),
            Op::Append(2, pattern(PAGE, 46)),
        ],
        // txn 4: back to both stripes, shrink + splice in one scope.
        vec![Op::Delete(1, 200, 500), Op::Truncate(2, 700)],
        // txn 5: object 2 dies on stripe 0 while object 3 is born on
        // stripe 1 — the tombstone and the birth are separate parts of
        // one commit.
        vec![Op::DeleteObj(2), Op::Create(pattern(PAGE + 77, 47))],
        // txn 6: growth spurt on the newcomer — multi-page appends keep
        // stripe 1's log busy while stripe 0 sits idle.
        vec![
            Op::Append(3, pattern(3 * PAGE, 48)),
            Op::Replace(1, 10, pattern(90, 49)),
        ],
        // txn 7: a fourth object (stripe 0) revives cross-stripe
        // traffic after the stripe had gone quiet.
        vec![
            Op::Create(pattern(2 * PAGE + 31, 50)),
            Op::Insert(3, PAGE as u64, pattern(250, 51)),
        ],
        // txn 8: stripe-0 solo, then a cross-stripe shrink.
        vec![
            Op::Replace(4, 0, pattern(300, 52)),
            Op::Append(4, pattern(PAGE / 2, 53)),
        ],
        vec![Op::Truncate(3, 600), Op::Delete(4, 100, 350)],
        // txn 10: object 5 born on stripe 1 beside stripe-1 growth.
        vec![
            Op::Create(pattern(3 * PAGE + 17, 54)),
            Op::Append(1, pattern(PAGE, 55)),
        ],
        // txn 11: stripe-0 solo, in place and spliced.
        vec![
            Op::Replace(4, 10, pattern(200, 56)),
            Op::Insert(4, 0, pattern(300, 57)),
        ],
        // txn 12: object 6 born on stripe 0, object 5 rewritten on 1.
        vec![
            Op::Create(pattern(PAGE + 64, 58)),
            Op::Replace(5, 100, pattern(600, 59)),
        ],
        // txn 13: cross-stripe shrink and growth.
        vec![Op::Delete(5, 0, 700), Op::Append(6, pattern(2 * PAGE, 60))],
        // txn 14: stripe-1 solo: a death and growth.
        vec![Op::DeleteObj(1), Op::Append(3, pattern(PAGE + 9, 61))],
        // txn 15: stripe-0 solo splice and cut.
        vec![
            Op::Insert(6, PAGE as u64, pattern(400, 62)),
            Op::Truncate(4, 200),
        ],
        // txn 16: object 4 dies on stripe 0, object 7 born on 1.
        vec![Op::DeleteObj(4), Op::Create(pattern(2 * PAGE + 3, 63))],
        // txn 17: cross-stripe in-place replaces.
        vec![
            Op::Replace(7, 0, pattern(500, 64)),
            Op::Replace(6, 20, pattern(300, 65)),
        ],
        // txn 18: stripe-1 solo.
        vec![Op::Append(7, pattern(PAGE, 66)), Op::Delete(3, 100, 200)],
        // txn 19: object 8 born on stripe 0, splice on stripe 1.
        vec![
            Op::Create(pattern(PAGE + 50, 67)),
            Op::Insert(5, 64, pattern(128, 68)),
        ],
        // txn 20: stripe-0 solo.
        vec![Op::Truncate(6, 900), Op::Append(8, pattern(3 * PAGE, 69))],
        // txn 21: three objects across both stripes.
        vec![
            Op::Delete(7, 300, 400),
            Op::Replace(8, 0, pattern(256, 70)),
            Op::Truncate(5, 700),
        ],
        // txn 22: a final cross-stripe death and growth.
        vec![Op::DeleteObj(6), Op::Append(3, pattern(PAGE, 71))],
        // txn 23: objects 9 (stripe 1) and 10 (stripe 0) grow to 16
        // pages in doubling segments, the fourth one 8 pages long.
        vec![
            Op::Create(pattern(16 * PAGE, 72)),
            Op::Create(pattern(16 * PAGE, 73)),
        ],
        // txn 24: cross-stripe in-place replaces — each stripe's commit
        // part carries its own object's redo.
        vec![
            Op::Replace(9, 7 * PAGE as u64 + 5, pattern(100, 74)),
            Op::Replace(10, 8 * PAGE as u64 + 300, pattern(150, 75)),
        ],
        // txn 25: stripe-1 solo: an insert rewrites the replaced
        // segment and frees its pages.
        vec![Op::Insert(9, 7 * PAGE as u64 + 50, pattern(40, 76))],
    ]
}

/// Tentpole satellite: crash at every write I/O point of a two-stripe
/// log whose commits force the stripes together — part appends, the
/// per-stripe commit barriers, and the data-page traffic in between —
/// for clean and torn final writes. Recovery must merge the stripes by
/// global LSN, presume abort on any incomplete cross-stripe part set,
/// and land every image on a committed prefix (or the §4.5 limbo
/// successor) with `eos-check` clean.
#[test]
fn crash_sweep_striped_wal_two_stripes() {
    let txns = striped_workload();
    let states = model_states_for(&txns);

    // Unarmed counting run.
    let (mut store, gate) =
        fresh_store_with(striped_config(), STRIPED_WAL_PAGES, STRIPED_VOLUME_PAGES);
    gate.arm(u64::MAX, false);
    assert_eq!(run_ops(&mut store, &txns), Outcome::Completed);
    let total_writes = gate.writes_seen();
    drop(store);
    println!("striped crash sweep: {total_writes} I/O points across 2 stripes, clean + torn");
    assert!(
        total_writes >= 104,
        "striped workload too small for a meaningful sweep: {total_writes} writes"
    );
    let (_, final_bytes, _) =
        recover_with(gate.image().unwrap(), striped_config(), STRIPED_WAL_PAGES);
    assert_eq!(&final_bytes, states.last().unwrap(), "unarmed end state");

    for torn in [false, true] {
        for k in 0..total_writes {
            let (mut store, gate) =
                fresh_store_with(striped_config(), STRIPED_WAL_PAGES, STRIPED_VOLUME_PAGES);
            gate.arm(k, torn);
            let outcome = run_ops(&mut store, &txns);
            drop(store);
            assert!(
                gate.has_crashed(),
                "striped k={k} torn={torn}: the armed crash never fired"
            );
            let (rstore, recovered, objects) =
                recover_with(gate.image().unwrap(), striped_config(), STRIPED_WAL_PAGES);

            // In commit limbo a cross-stripe scope has one extra legal
            // outcome the single-log sweep never sees: all parts durable
            // → present (the successor prefix); any part missing →
            // presumed abort → absent. Both reduce to the same
            // prefix-or-successor assertion.
            let prefixes = outcome.prefixes();
            assert!(
                prefixes.clone().any(|j| recovered == states[j]),
                "striped k={k} torn={torn}: recovered state matches no committed \
                 prefix in {prefixes:?} ({outcome:?}).\n\
                 recovered ids: {:?}\nexpected ids: {:?}",
                recovered.keys().collect::<Vec<_>>(),
                states[*prefixes.start()].keys().collect::<Vec<_>>(),
            );
            assert_checker_clean(&rstore, &objects, &format!("striped k={k} torn={torn}"));
        }
    }
}

// ---- MVCC publication/reclaim crash sweep (DESIGN.md §14) ------------------

/// One step of the MVCC workload, replayed through the concurrent
/// front-end: commits publish roots while snapshots pin epochs (parking
/// the deferred frees), and snapshot drops run the reclaim.
enum Step {
    /// A reader pins the current epoch: later frees park behind it.
    Pin,
    /// The oldest pinned reader drops.
    UnpinOldest,
    /// The newest pinned reader drops (an out-of-order unpin).
    UnpinNewest,
    /// One transaction scope.
    Txn(Vec<Op>),
}

fn mvcc_workload() -> Vec<Step> {
    use Step::{Pin, Txn, UnpinNewest, UnpinOldest};
    vec![
        // txn 1: two objects are born.
        Txn(vec![
            Op::Create(pattern(3 * PAGE + 50, 31)),
            Op::Create(pattern(PAGE + 30, 32)),
        ]),
        // A stalled reader pins the two-object epoch: every free below
        // parks behind it until the drop.
        Pin,
        // txn 2: copy-on-write replace + growth — all frees parked.
        Txn(vec![
            Op::Replace(1, 100, pattern(400, 33)),
            Op::Append(2, pattern(600, 34)),
        ]),
        // txn 3: shrink + splice, still pinned.
        Txn(vec![
            Op::Delete(1, 300, 700),
            Op::Insert(2, 64, pattern(200, 35)),
        ]),
        UnpinOldest,
        // txn 4 under a second pin: one object dies (tombstone publish).
        Pin,
        Txn(vec![Op::Replace(1, 0, pattern(128, 36)), Op::DeleteObj(2)]),
        UnpinOldest,
        // txn 5: no reader pinned — frees apply inline.
        Txn(vec![Op::Truncate(1, 800)]),
        // txn 6: a newcomer, and growth.
        Txn(vec![
            Op::Create(pattern(2 * PAGE + 70, 37)),
            Op::Append(1, pattern(PAGE, 38)),
        ]),
        // txns 7–8 under two stacked pins; the newer one drops first,
        // so nothing may be reclaimed yet.
        Pin,
        Txn(vec![
            Op::Replace(3, 10, pattern(900, 39)),
            Op::Insert(1, 400, pattern(300, 40)),
        ]),
        Pin,
        Txn(vec![
            Op::Delete(3, 0, 500),
            Op::Replace(1, 0, pattern(200, 41)),
        ]),
        UnpinNewest,
        // txns 9–10 still behind the older pin.
        Txn(vec![
            Op::Create(pattern(PAGE + 5, 42)),
            Op::Truncate(3, 400),
        ]),
        Txn(vec![
            Op::Append(4, pattern(3 * PAGE, 43)),
            Op::Delete(1, 100, 1000),
        ]),
        UnpinOldest,
        // txns 11–12 under a fresh pin: a death and an overwrite.
        Pin,
        Txn(vec![Op::DeleteObj(3), Op::Insert(4, 0, pattern(700, 44))]),
        Txn(vec![
            Op::Replace(4, 500, pattern(1200, 45)),
            Op::Append(1, pattern(800, 46)),
        ]),
        UnpinOldest,
        // txns 13–15: inline frees, then one more parked batch.
        Txn(vec![Op::Truncate(4, 1500), Op::Create(pattern(900, 47))]),
        Pin,
        Txn(vec![
            Op::Replace(5, 0, pattern(900, 48)),
            Op::Delete(4, 200, 300),
        ]),
        UnpinOldest,
        Txn(vec![
            Op::Append(5, pattern(2 * PAGE, 49)),
            Op::Replace(1, 50, pattern(64, 50)),
        ]),
    ]
}

/// The workload's transactions alone, for the byte-level model.
fn mvcc_txns() -> Vec<Vec<Op>> {
    mvcc_workload()
        .into_iter()
        .filter_map(|step| match step {
            Step::Txn(ops) => Some(ops),
            _ => None,
        })
        .collect()
}

/// Apply one op inside a concurrent-front-end transaction.
fn txn_apply(
    txn: &Txn,
    handles: &mut BTreeMap<u64, LargeObject>,
    op: &Op,
) -> eos::core::Result<()> {
    match op {
        Op::Create(bytes) => {
            let obj = txn.create(bytes, None)?;
            handles.insert(obj.id(), obj);
        }
        Op::Append(id, bytes) => txn.append(handles.get_mut(id).unwrap(), bytes)?,
        Op::Insert(id, off, bytes) => txn.insert(handles.get_mut(id).unwrap(), *off, bytes)?,
        Op::Delete(id, off, len) => txn.delete(handles.get_mut(id).unwrap(), *off, *len)?,
        Op::Replace(id, off, bytes) => txn.replace(handles.get_mut(id).unwrap(), *off, bytes)?,
        Op::Truncate(id, size) => txn.truncate(handles.get_mut(id).unwrap(), *size)?,
        Op::DeleteObj(id) => txn.delete_object(&mut handles.remove(id).unwrap())?,
        Op::BatchWithNext => unreachable!("the MVCC workload batches through the pipeline"),
    }
    Ok(())
}

/// Run the MVCC workload. Returns how many transactions committed and
/// whether the failure surfaced inside a commit (the limbo window).
fn run_mvcc_workload(cs: &ConcurrentStore) -> Outcome {
    let mut handles = BTreeMap::new();
    let mut pins = std::collections::VecDeque::new();
    let mut committed = 0usize;
    for step in mvcc_workload() {
        match step {
            Step::Pin => pins.push_back(cs.snapshot()),
            // A reclaim failure is swallowed by the drop; the next
            // transaction surfaces the crash.
            Step::UnpinOldest => drop(pins.pop_front()),
            Step::UnpinNewest => drop(pins.pop_back()),
            Step::Txn(ops) => {
                let txn = cs.begin();
                for op in &ops {
                    if txn_apply(&txn, &mut handles, op).is_err() {
                        return Outcome::CrashedInTxn(committed);
                    }
                }
                if txn.commit().is_err() {
                    return Outcome::CrashedInCommit(committed);
                }
                committed += 1;
            }
        }
    }
    Outcome::Completed
}

/// Satellite: crash at every write I/O point of the MVCC commit path —
/// root publication, deferred-free parking, and the reclaim that runs
/// when the last pin drops. Every image must recover to a committed
/// prefix (or the §4.5 limbo successor) with `eos-check` clean: a
/// parked batch lost in the crash must come back as *free* pages, not
/// as leaks.
#[test]
fn crash_sweep_mvcc_publish_and_reclaim() {
    let states = model_states_for(&mvcc_txns());

    // Unarmed counting run.
    let (store, gate) = fresh_store();
    gate.arm(u64::MAX, false);
    let cs = ConcurrentStore::new(store);
    assert_eq!(run_mvcc_workload(&cs), Outcome::Completed);
    drop(cs);
    let total_writes = gate.writes_seen();
    println!("mvcc crash sweep: {total_writes} I/O points, clean + torn");
    assert!(
        total_writes >= 57,
        "MVCC workload too small for a meaningful sweep: {total_writes} writes"
    );
    let (_, final_bytes, _) = recover(gate.image().unwrap());
    assert_eq!(&final_bytes, states.last().unwrap(), "unarmed end state");

    for torn in [false, true] {
        for k in 0..total_writes {
            let (store, gate) = fresh_store();
            gate.arm(k, torn);
            let cs = ConcurrentStore::new(store);
            let outcome = run_mvcc_workload(&cs);
            drop(cs);
            assert!(
                gate.has_crashed(),
                "mvcc k={k} torn={torn}: the armed crash never fired"
            );
            let (rstore, recovered, objects) = recover(gate.image().unwrap());

            let prefixes = outcome.prefixes();
            assert!(
                prefixes.clone().any(|j| recovered == states[j]),
                "mvcc k={k} torn={torn}: recovered state matches no committed \
                 prefix in {prefixes:?} ({outcome:?}).\n\
                 recovered ids: {:?}\nexpected ids: {:?}",
                recovered.keys().collect::<Vec<_>>(),
                states[*prefixes.start()].keys().collect::<Vec<_>>(),
            );
            assert_checker_clean(&rstore, &objects, &format!("mvcc k={k} torn={torn}"));
        }
    }
}

/// Recovery is idempotent even when the power dies again *during*
/// recovery: crash the recovery run itself at every one of its own I/O
/// points, then recover from that second-generation image.
#[test]
fn crash_sweep_double_crash_during_recovery() {
    // First-generation crash image: power loss mid-way through txn 31,
    // right after txn 30's in-place replace committed — so recovery has
    // committed redo to replay, and an open scope's tail to discard.
    const PREFIX: usize = 30;
    let (mut store, gate) = fresh_store();
    gate.arm(u64::MAX, false);
    let mut handles = BTreeMap::new();
    let txns = workload();
    for txn in txns.iter().take(PREFIX) {
        store.begin_txn();
        for op in txn {
            store_apply(&mut store, &mut handles, op).unwrap();
        }
        store.commit_txn().unwrap();
    }
    // Open scope, never committed: its Touch frames pend in the log.
    store.begin_txn();
    for op in &txns[PREFIX] {
        store_apply(&mut store, &mut handles, op).unwrap();
    }
    drop(store);
    let image = gate.image().unwrap();

    // Count recovery's own writes.
    let mem = MemVolume::from_bytes(PAGE, image.clone(), DiskProfile::FREE).shared();
    let gate = CrashPointVolume::new(mem);
    gate.arm(u64::MAX, false);
    let v: SharedVolume = gate.clone();
    let (_s, _r) =
        ObjectStore::open_durable(v, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap();
    let recovery_writes = gate.writes_seen();
    assert!(
        recovery_writes >= 5,
        "recovery wrote only {recovery_writes} times"
    );
    println!("double-crash sweep: {recovery_writes} I/O points inside recovery");

    let states = model_states();
    for torn in [false, true] {
        for k in 0..recovery_writes {
            let mem = MemVolume::from_bytes(PAGE, image.clone(), DiskProfile::FREE).shared();
            let gate = CrashPointVolume::new(mem);
            gate.arm(k, torn);
            let v: SharedVolume = gate.clone();
            let crashed =
                ObjectStore::open_durable(v, SPACES, PPS, StoreConfig::default(), WAL_PAGES);
            assert!(
                crashed.is_err(),
                "k={k} torn={torn}: recovery finished despite the crash"
            );
            let (rstore, recovered, objects) = recover(gate.image().unwrap());
            assert_eq!(
                recovered, states[PREFIX],
                "k={k} torn={torn}: second recovery must land on the {PREFIX}-txn prefix"
            );
            assert_checker_clean(
                &rstore,
                &objects,
                &format!("double-crash k={k} torn={torn}"),
            );
        }
    }
}
