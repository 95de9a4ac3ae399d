//! The barrier-mutation sweep — runtime half of eos-crashdep (L6).
//!
//! `tests/crash_sweep.rs` proves recovery holds at every I/O point when
//! every sync actually reached the platter. This suite attacks the
//! *syncs themselves*: the scripted crash workload runs once per
//! enumerated sync site with exactly that sync elided (the write group
//! it was supposed to seal stays queued behind the missing barrier),
//! and for each elision we search the crash images "power died after
//! sync *m*" for one that breaks recovery, committed-prefix equality,
//! or the `eos-check` invariants. A sync whose elision never produces a
//! failing image is dead weight — or worse, the static L6 contract
//! (DESIGN.md §15) claims an ordering the code does not need. Every
//! sync must be load-bearing.
//!
//! The census test closes the loop from the other side: the static
//! seal-site list extracted by `eos_lint::crashdep_analysis` must match
//! a pinned inventory, so adding/removing a sync in eos-core forces
//! whoever did it to revisit both the L6 annotations and this sweep.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use eos::core::{LargeObject, ObjectStore, StoreConfig};
use eos::pager::{DiskProfile, MemVolume, MutatingVolume, SharedVolume};

const PAGE: usize = 512;
const SPACES: usize = 2;
const PPS: u64 = 126;
const WAL_PAGES: u64 = 66;
const VOLUME_PAGES: u64 = (PPS + 1) * SPACES as u64 + WAL_PAGES;

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
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

/// The scripted workload from `crash_sweep.rs`: ten transaction scopes
/// exercising every §4 operation across page and segment boundaries,
/// then an object whose later segments are big enough that a small
/// replace is cheaper in place than rewritten, and a scope of such
/// replaces alone — a commit that is one frame force followed by the
/// in-place writes.
fn workload() -> Vec<Vec<Op>> {
    vec![
        vec![
            Op::Create(pattern(3 * PAGE + 77, 1)),
            Op::Create(pattern(40, 2)),
        ],
        vec![
            Op::Append(1, pattern(2 * PAGE, 3)),
            Op::Insert(1, 700, pattern(300, 4)),
            Op::Append(2, pattern(PAGE + 13, 5)),
        ],
        vec![
            Op::Replace(1, 100, pattern(64, 6)),
            Op::Replace(1, PAGE as u64 - 17, pattern(200, 7)),
            Op::Replace(2, 0, pattern(30, 8)),
        ],
        vec![
            Op::Delete(1, 400, 900),
            Op::Truncate(2, 300),
            Op::Replace(1, 0, pattern(128, 9)),
        ],
        vec![Op::DeleteObj(2), Op::Create(pattern(2 * PAGE + 11, 10))],
        vec![
            Op::Append(3, pattern(500, 11)),
            Op::Append(3, pattern(4 * PAGE, 12)),
            Op::Replace(1, 50, pattern(90, 13)),
        ],
        vec![
            Op::Insert(3, PAGE as u64, pattern(700, 14)),
            Op::Delete(3, 200, 450),
            Op::Insert(1, 0, pattern(256, 15)),
            Op::Replace(3, 2 * PAGE as u64 + 5, pattern(300, 16)),
        ],
        vec![
            Op::Create(pattern(PAGE + 200, 17)),
            Op::Replace(4, 100, pattern(400, 18)),
            Op::Replace(4, 0, pattern(64, 19)),
            Op::Append(4, pattern(300, 20)),
        ],
        vec![
            Op::Truncate(3, 900),
            Op::Delete(1, 500, 800),
            Op::Truncate(4, 256),
        ],
        vec![
            Op::Replace(1, 10, pattern(48, 21)),
            Op::Append(3, pattern(150, 22)),
            Op::Insert(4, 128, pattern(99, 23)),
        ],
        vec![Op::Create(pattern(12 * PAGE, 24))],
        vec![
            Op::Replace(5, 4 * PAGE as u64 + 10, pattern(100, 25)),
            Op::Replace(5, 9 * PAGE as u64 - 30, pattern(60, 26)),
        ],
    ]
}

/// Index of the workload's in-place replace scope.
const IN_PLACE_TXN: usize = 11;

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
    }
}

/// Apply one op to the store, mapping object id → live descriptor.
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
    }
    Ok(())
}

/// Model snapshots: `states[j]` = object id → bytes after `j` committed
/// transactions.
fn model_states() -> Vec<BTreeMap<u64, Vec<u8>>> {
    let mut states = vec![BTreeMap::new()];
    let mut model = BTreeMap::new();
    let mut next_id = 1u64;
    for txn in workload() {
        for op in &txn {
            model_apply(&mut model, &mut next_id, op);
        }
        states.push(model.clone());
    }
    states
}

/// Sync-count bookkeeping from one full (pass-through) workload run:
/// `pre[t]` / `post[t]` = syncs observed before `commit_txn` of txn `t`
/// was called / after it returned. Everything txn `t` made durable sits
/// at sync indices `< post[t]`, and its commit frame cannot be on disk
/// in any image that cuts before sync `pre[t]`.
struct SyncTrace {
    pre: Vec<usize>,
    post: Vec<usize>,
}

impl SyncTrace {
    /// Transactions **guaranteed** durable in the image "crashed after
    /// sync `m`" (groups `0..=m` applied): all of txn `t`'s writes and
    /// barriers landed iff `post[t] - 1 <= m`.
    fn must_have(&self, m: usize) -> usize {
        self.post.iter().filter(|&&c| c <= m + 1).count()
    }

    /// Transactions that **could** appear committed in that image: the
    /// commit frame write of txn `t` is issued after sync `pre[t]`, so
    /// it can be in a group `<= m` only if `pre[t] <= m`.
    fn may_have(&self, m: usize) -> usize {
        self.pre.iter().filter(|&&c| c <= m).count()
    }
}

/// A fresh durable store behind a barrier-mutation wrapper. `elide`
/// arms the mutation *before* the store is formatted, so the format and
/// checkpoint syncs are part of the enumerated site space too.
fn fresh_store(elide: Option<usize>) -> (ObjectStore, Arc<MutatingVolume>) {
    let mem = MemVolume::with_profile(PAGE, VOLUME_PAGES, DiskProfile::FREE).shared();
    let mv = MutatingVolume::new(mem).unwrap();
    if let Some(k) = elide {
        mv.elide(k);
    }
    let vol: SharedVolume = mv.clone();
    let store =
        ObjectStore::create_durable(vol, SPACES, PPS, StoreConfig::default(), WAL_PAGES).unwrap();
    (store, mv)
}

/// Run the scripted workload to completion (the wrapper is
/// pass-through, so nothing fails live) and record the sync trace.
fn run_workload(store: &mut ObjectStore, mv: &MutatingVolume) -> SyncTrace {
    let mut handles = BTreeMap::new();
    let mut trace = SyncTrace {
        pre: Vec::new(),
        post: Vec::new(),
    };
    for txn in workload() {
        store.begin_txn();
        for op in &txn {
            store_apply(store, &mut handles, op).unwrap();
        }
        trace.pre.push(mv.sync_count());
        store.commit_txn().unwrap();
        trace.post.push(mv.sync_count());
    }
    trace
}

type Recovered = (ObjectStore, BTreeMap<u64, Vec<u8>>, Vec<LargeObject>);

/// Recover a crash image; `None` if restart recovery itself rejects the
/// volume or a recovered object cannot be read back.
fn try_recover(image: Vec<u8>) -> Option<Recovered> {
    let vol = MemVolume::from_bytes(PAGE, image, DiskProfile::FREE).shared();
    let (store, report) =
        ObjectStore::open_durable(vol, SPACES, PPS, StoreConfig::default(), WAL_PAGES).ok()?;
    let mut bytes = BTreeMap::new();
    for obj in &report.objects {
        bytes.insert(obj.id(), store.read_all(obj).ok()?);
    }
    Some((store, bytes, report.objects))
}

fn checker_clean(store: &ObjectStore, objects: &[LargeObject]) -> bool {
    let named: Vec<(String, LargeObject)> = objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    eos_check::check_store(store, &named, None).is_clean()
}

/// Does this crash image violate the durability contract? A violation
/// is any of: recovery refuses the volume, the recovered state matches
/// no acceptable committed prefix, or `eos-check` finds structural rot.
fn image_violates(
    image: Vec<u8>,
    states: &[BTreeMap<u64, Vec<u8>>],
    trace: &SyncTrace,
    m: usize,
) -> bool {
    let Some((store, bytes, objects)) = try_recover(image) else {
        return true;
    };
    let lo = trace.must_have(m);
    let hi = trace.may_have(m);
    let prefix_ok = (lo..=hi).any(|j| states[j] == bytes);
    !prefix_ok || !checker_clean(&store, &objects)
}

/// Baseline: with every sync intact, every "crashed after sync m" image
/// (from the end of format onwards) recovers to an acceptable committed
/// prefix. This is the control for the sweep below — it shows a failing
/// image under elision is the *elision's* doing.
#[test]
fn baseline_images_all_recover() {
    let states = model_states();
    let (mut store, mv) = fresh_store(None);
    let format_syncs = mv.sync_count();
    assert!(format_syncs >= 1, "format must sync at least once");
    let trace = run_workload(&mut store, &mv);
    drop(store);

    let sealed = mv.sealed_groups();
    assert_eq!(
        states.last().unwrap().len(),
        4,
        "model end state should hold four objects"
    );
    for m in format_syncs - 1..sealed {
        assert!(
            !image_violates(mv.crash_image(m), &states, &trace, m),
            "baseline image after sync {m} (of {sealed}) failed recovery"
        );
    }
}

/// The sweep: elide each sync site in turn and demand at least one
/// failing crash image. `crash_image` (the whole unsealed group stayed
/// in the queue) is tried first; `crash_image_reordered` (the queue was
/// reordered and only the group's last write jumped the dead barrier)
/// is the fallback ordering.
#[test]
fn every_sync_site_is_load_bearing() {
    let states = model_states();

    // Baseline run fixes the sync-site count for the deterministic
    // workload (the same count is re-asserted per elision run).
    let (mut store, mv) = fresh_store(None);
    run_workload(&mut store, &mv);
    drop(store);
    let total = mv.sealed_groups();
    println!("barrier mutation: {total} sync sites enumerated");
    assert!(total >= 10, "too few sync sites for a meaningful sweep");

    let mut unbroken: Vec<usize> = Vec::new();
    for k in 0..total {
        let (mut store, mv) = fresh_store(Some(k));
        let trace = run_workload(&mut store, &mv);
        drop(store);
        assert_eq!(
            mv.sealed_groups(),
            total,
            "k={k}: workload must be deterministic in its sync count"
        );
        if !elision_breaks_some_image(&mv, &states, &trace, k, total) {
            unbroken.push(k);
        }
    }
    assert!(
        unbroken.is_empty(),
        "sync sites {unbroken:?} (of {total}) were elided without any crash \
         image failing recovery — either the sync is dead weight or the \
         sweep's orderings are too tame"
    );
}

fn elision_breaks_some_image(
    mv: &MutatingVolume,
    states: &[BTreeMap<u64, Vec<u8>>],
    trace: &SyncTrace,
    k: usize,
    total: usize,
) -> bool {
    for m in k..total {
        if image_violates(mv.crash_image(m), states, trace, m)
            || image_violates(mv.crash_image_reordered(m), states, trace, m)
        {
            return true;
        }
    }
    false
}

/// CI smoke (`cargo test --test barrier_mutation quick_`): the three
/// barriers whose removal the static L6 rule provably catches — the
/// commit-frame force an in-place replace's page writes wait for
/// (no-steal redo), the data-before-log barrier in `prepare_commit`,
/// and the commit-frame force of a scope that wrote shadow pages —
/// each also break a crash image at runtime.
#[test]
fn quick_pinned_barriers_each_break_recovery() {
    let states = model_states();
    let (mut store, mv) = fresh_store(None);
    let trace = run_workload(&mut store, &mv);
    drop(store);
    let total = mv.sealed_groups();

    // The in-place scope allocates nothing, so its commit is a single
    // sync: the force of the frame carrying its redo. txn 3 (index 2)
    // rewrites small segments: its commit's two syncs are the
    // shadow-data barrier and the commit-frame force.
    assert_eq!(
        trace.post[IN_PLACE_TXN] - trace.pre[IN_PLACE_TXN],
        1,
        "the in-place replace scope should commit with one sync"
    );
    let redo_force = trace.post[IN_PLACE_TXN] - 1;
    let data_barrier = trace.post[2] - 2;
    let frame_force = trace.post[2] - 1;
    for (name, k) in [
        ("in-place commit-frame force", redo_force),
        ("shadow-data barrier", data_barrier),
        ("commit-frame force", frame_force),
    ] {
        let (mut store, mv) = fresh_store(Some(k));
        let trace = run_workload(&mut store, &mv);
        drop(store);
        assert!(
            elision_breaks_some_image(&mv, &states, &trace, k, total),
            "eliding the {name} (sync {k}) broke no crash image"
        );
    }
}

/// Anti-drift census: the seal sites the static L6 analysis extracts
/// from eos-core must match this pinned inventory, and the runtime
/// workload must actually cross enough sync sites to exercise them.
/// Adding or removing a `durability: seals(...)` annotation — or the
/// sync under it — fails this test until the sweep above is revisited.
#[test]
fn quick_static_seal_census_matches_runtime() {
    let analysis = eos_lint::crashdep_analysis(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();

    assert_eq!(
        analysis
            .classes
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>(),
        vec![
            "commit-frame",
            "committed-page",
            "mvcc-publish",
            "shadow-data",
            "superblock",
        ],
        "durability class table drifted (DESIGN.md §15)"
    );

    // (file, classes sealed) per seal site, sorted by location.
    let seal_sites: Vec<(String, Vec<String>)> = analysis
        .seal_sites_in("eos-core")
        .iter()
        .map(|c| {
            let file = c
                .location
                .rsplit_once(':')
                .map_or(c.location.as_str(), |(f, _)| f)
                .to_string();
            (file, c.seals.clone())
        })
        .collect();
    let expect = |f: &str, s: &[&str]| {
        (
            format!("crates/core/src/{f}"),
            s.iter().map(|c| (*c).to_string()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(
        seal_sites,
        vec![
            // commit_solo: data barrier + per-stripe log force.
            expect("concurrent.rs", &["shadow-data"]),
            expect("concurrent.rs", &["commit-frame"]),
            // flush_batch: phase A barrier + phase C force (striped
            // and unstriped arms).
            expect("concurrent.rs", &["shadow-data"]),
            expect("concurrent.rs", &["commit-frame"]),
            expect("concurrent.rs", &["commit-frame"]),
            expect("durable.rs", &["shadow-data", "superblock"]),
            expect("durable.rs", &["shadow-data"]),
            expect("durable.rs", &["superblock"]),
            expect("store.rs", &["commit-frame"]),
            expect("store.rs", &["shadow-data"]),
            // StripedWal::sync_stripes — the per-stripe commit seal.
            expect("striped.rs", &["commit-frame"]),
        ],
        "eos-core seal-site census drifted: update the L6 annotations, this \
         pin, and re-run the barrier-mutation sweep"
    );

    // Runtime side: the canonical workload crosses the format sync plus
    // at least one commit force per txn, and a data barrier in all but
    // the in-place replace scope.
    let (mut store, mv) = fresh_store(None);
    let format_syncs = mv.sync_count();
    let trace = run_workload(&mut store, &mv);
    drop(store);
    assert!(format_syncs >= 1);
    assert!(
        mv.sync_count() >= format_syncs + 2 * workload().len() - 1,
        "workload crossed only {} sync sites — too few to exercise the \
         declared barriers",
        mv.sync_count()
    );
    assert_eq!(trace.post.len(), workload().len());
}
