//! Model-based differential testing (PR 2, satellite).
//!
//! One random operation sequence is *concretized* once against a plain
//! `Vec<u8>` reference model (offsets clamped, payloads fixed) and then
//! replayed verbatim against every store under test, so each store sees
//! byte-identical operations. After **every** operation each store's
//! full contents must equal the model byte for byte.
//!
//! Stores compared:
//!
//! * EOS [`ObjectStore`] — the full surface, including `truncate`,
//!   `compact` and `consolidate`, which the baselines lack.
//! * The §2 baselines (Exodus, Starburst, WiSS, System R) on the ops
//!   each one supports — System R has no insert/delete, WiSS caps
//!   object size at one directory page of slices.
//! * A **durable** EOS store (on-disk WAL, autocommitted ops) against a
//!   volatile one: the logging fast paths must not change a single
//!   byte, and the contents must survive a reopen-with-recovery.

use eos::baselines::{ExodusStore, StarburstStore, SystemRStore, WissStore};
use eos::core::{BlobStore, ConcurrentStore, LargeObject, ObjectStore, Snapshot, StoreConfig, Txn};
use eos::pager::{DiskProfile, MemVolume, SharedVolume};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Default case count, overridable via PROPTEST_CASES for deep soaks.
fn prop_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// A raw, unclamped operation as drawn from the strategy.
#[derive(Debug, Clone)]
enum Op {
    Append { len: usize },
    Insert { at: u64, len: usize },
    Delete { at: u64, len: u64 },
    Replace { at: u64, len: usize },
    Truncate { to: u64 },
    Read { at: u64, len: u64 },
    Compact,
    Consolidate,
}

/// The same operation with offsets clamped against the model size and
/// the payload materialized — every store replays exactly this.
#[derive(Debug, Clone)]
enum Cop {
    Append(Vec<u8>),
    Insert(u64, Vec<u8>),
    Delete(u64, u64),
    Replace(u64, Vec<u8>),
    Truncate(u64),
    Read(u64, u64),
    Compact,
    Consolidate,
}

fn fill(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 251) as u8))
        .collect()
}

/// Clamp a raw op against the current model size; `None` means the op
/// degenerates to a no-op (e.g. delete from an empty object) or would
/// push the object past `cap` bytes.
fn concretize(op: &Op, size: u64, seed: u8, cap: usize) -> Option<Cop> {
    match *op {
        Op::Append { len } => (size as usize + len <= cap).then(|| Cop::Append(fill(seed, len))),
        Op::Insert { at, len } => {
            if size as usize + len > cap {
                return None;
            }
            let at = if size == 0 { 0 } else { at % (size + 1) };
            Some(Cop::Insert(at, fill(seed.wrapping_add(7), len)))
        }
        Op::Delete { at, len } => {
            if size == 0 {
                return None;
            }
            let at = at % size;
            let len = len.min(size - at);
            (len > 0).then_some(Cop::Delete(at, len))
        }
        Op::Replace { at, len } => {
            if size == 0 {
                return None;
            }
            let at = at % size;
            let len = (len as u64).min(size - at) as usize;
            Some(Cop::Replace(at, fill(seed.wrapping_add(31), len)))
        }
        Op::Truncate { to } => Some(Cop::Truncate(to % (size + 1))),
        Op::Read { at, len } => {
            if size == 0 {
                return None;
            }
            let at = at % size;
            Some(Cop::Read(at, len.min(size - at)))
        }
        Op::Compact => Some(Cop::Compact),
        Op::Consolidate => Some(Cop::Consolidate),
    }
}

fn model_apply(model: &mut Vec<u8>, c: &Cop) {
    match c {
        Cop::Append(data) => model.extend_from_slice(data),
        Cop::Insert(at, data) => {
            model.splice(*at as usize..*at as usize, data.iter().copied());
        }
        Cop::Delete(at, len) => {
            model.drain(*at as usize..(*at + *len) as usize);
        }
        Cop::Replace(at, data) => {
            model[*at as usize..*at as usize + data.len()].copy_from_slice(data);
        }
        Cop::Truncate(to) => model.truncate(*to as usize),
        Cop::Read(..) | Cop::Compact | Cop::Consolidate => {}
    }
}

/// Replay one concrete op on a baseline through the [`BlobStore`]
/// trait. Reads are differential too: the slice must match the model.
fn blob_apply<S: BlobStore>(store: &mut S, h: &mut S::Handle, c: &Cop, model: &[u8]) {
    match c {
        Cop::Append(data) => store.append(h, data).unwrap(),
        Cop::Insert(at, data) => store.insert(h, *at, data).unwrap(),
        Cop::Delete(at, len) => store.delete(h, *at, *len).unwrap(),
        Cop::Replace(at, data) => store.replace(h, *at, data).unwrap(),
        Cop::Read(at, len) => assert_eq!(
            store.read(h, *at, *len).unwrap(),
            &model[*at as usize..(*at + *len) as usize]
        ),
        Cop::Truncate(_) | Cop::Compact | Cop::Consolidate => {
            unreachable!("not in the shared op set")
        }
    }
    assert_eq!(store.size(h), model.len() as u64, "{} size", store.name());
    assert_eq!(
        store.read(h, 0, model.len() as u64).unwrap(),
        model,
        "{} content",
        store.name()
    );
}

/// Replay one concrete op on an EOS store through its native API.
fn eos_apply(store: &mut ObjectStore, obj: &mut LargeObject, c: &Cop, model: &[u8]) {
    match c {
        Cop::Append(data) => store.append(obj, data).unwrap(),
        Cop::Insert(at, data) => store.insert(obj, *at, data).unwrap(),
        Cop::Delete(at, len) => store.delete(obj, *at, *len).unwrap(),
        Cop::Replace(at, data) => store.replace(obj, *at, data).unwrap(),
        Cop::Truncate(to) => store.truncate(obj, *to).unwrap(),
        Cop::Read(at, len) => assert_eq!(
            store.read(obj, *at, *len).unwrap(),
            &model[*at as usize..(*at + *len) as usize]
        ),
        Cop::Compact => {
            store.compact(obj).unwrap();
        }
        Cop::Consolidate => {
            store.consolidate(obj).unwrap();
        }
    }
    assert_eq!(obj.size(), model.len() as u64, "eos size");
    assert_eq!(store.read_all(obj).unwrap(), model, "eos content");
}

/// Ops every page-based baseline supports (no truncate/compact).
fn shared_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0usize..1_200).prop_map(|len| Op::Append { len }),
            3 => (any::<u64>(), 0usize..900).prop_map(|(at, len)| Op::Insert { at, len }),
            3 => (any::<u64>(), any::<u64>())
                .prop_map(|(at, len)| Op::Delete { at, len: len % 2_000 }),
            2 => (any::<u64>(), 0usize..700).prop_map(|(at, len)| Op::Replace { at, len }),
            2 => (any::<u64>(), any::<u64>())
                .prop_map(|(at, len)| Op::Read { at, len: len % 1_500 }),
        ],
        1..35,
    )
}

/// The sequential subset System R supports.
fn sequential_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0usize..1_200).prop_map(|len| Op::Append { len }),
            2 => (any::<u64>(), 0usize..700).prop_map(|(at, len)| Op::Replace { at, len }),
            2 => (any::<u64>(), any::<u64>())
                .prop_map(|(at, len)| Op::Read { at, len: len % 1_500 }),
        ],
        1..35,
    )
}

/// The full EOS surface, including ops the baselines lack.
fn full_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0usize..1_200).prop_map(|len| Op::Append { len }),
            3 => (any::<u64>(), 0usize..900).prop_map(|(at, len)| Op::Insert { at, len }),
            3 => (any::<u64>(), any::<u64>())
                .prop_map(|(at, len)| Op::Delete { at, len: len % 2_000 }),
            2 => (any::<u64>(), 0usize..700).prop_map(|(at, len)| Op::Replace { at, len }),
            1 => any::<u64>().prop_map(|to| Op::Truncate { to }),
            2 => (any::<u64>(), any::<u64>())
                .prop_map(|(at, len)| Op::Read { at, len: len % 1_500 }),
            1 => Just(Op::Compact),
            1 => Just(Op::Consolidate),
        ],
        1..35,
    )
}

fn baseline_vol() -> SharedVolume {
    MemVolume::with_profile(256, 4 * 902 + 2, DiskProfile::FREE).shared()
}

/// Drive EOS plus a set of baselines through one sequence; every store
/// must track the model after every op.
fn run_against<S: BlobStore>(ops: &[Op], mut baselines: Vec<S>, cap: usize) {
    let mut model: Vec<u8> = Vec::new();
    let mut eos = ObjectStore::in_memory(1024, 2000);
    let mut obj = eos.create_with(&[], None).unwrap();
    let mut handles: Vec<S::Handle> = baselines
        .iter_mut()
        .map(|s| s.create(&[], false).unwrap())
        .collect();
    for (i, op) in ops.iter().enumerate() {
        let Some(c) = concretize(op, model.len() as u64, i as u8, cap) else {
            continue;
        };
        model_apply(&mut model, &c);
        eos_apply(&mut eos, &mut obj, &c, &model);
        for (s, h) in baselines.iter_mut().zip(handles.iter_mut()) {
            blob_apply(s, h, &c, &model);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: prop_cases(), ..ProptestConfig::default() })]

    /// EOS vs Exodus (1- and 4-page leaves) vs Starburst on the op set
    /// all of them support.
    #[test]
    fn eos_and_page_baselines_agree(ops in shared_ops()) {
        run_against(
            &ops,
            vec![
                ExodusStore::create(baseline_vol(), 4, 901, 1).unwrap(),
                ExodusStore::create(baseline_vol(), 4, 901, 4).unwrap(),
            ],
            30_000,
        );
        run_against(
            &ops,
            vec![StarburstStore::create(baseline_vol(), 4, 901).unwrap()],
            30_000,
        );
    }

    /// EOS vs WiSS; WiSS caps at one directory page of 256-byte slices
    /// on this geometry, so keep the object small.
    #[test]
    fn eos_and_wiss_agree(ops in shared_ops()) {
        run_against(
            &ops,
            vec![WissStore::create(baseline_vol(), 4, 901).unwrap()],
            4_000,
        );
    }

    /// EOS vs System R on the sequential subset (no insert/delete).
    #[test]
    fn eos_and_systemr_agree(ops in sequential_ops()) {
        run_against(
            &ops,
            vec![SystemRStore::create(baseline_vol(), 4, 901).unwrap()],
            30_000,
        );
    }

    /// The full EOS surface against the model, ending with a static
    /// consistency check: no run may leak or double-claim a page.
    #[test]
    fn eos_full_surface_matches_model(ops in full_ops()) {
        let mut model: Vec<u8> = Vec::new();
        let mut eos = ObjectStore::in_memory(1024, 2000);
        let mut obj = eos.create_with(&[], None).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let Some(c) = concretize(op, model.len() as u64, i as u8, 30_000) else {
                continue;
            };
            model_apply(&mut model, &c);
            eos_apply(&mut eos, &mut obj, &c, &model);
        }
        let named = vec![("obj".to_string(), obj.clone())];
        let report = eos_check::check_store(&eos, &named, None);
        prop_assert!(report.is_clean(), "{}", report.render_table());
    }

    /// A durable (on-disk WAL, autocommit) store must produce the same
    /// bytes as a volatile one for every op, and the final contents
    /// must survive a close + reopen-with-recovery.
    #[test]
    fn durable_store_matches_volatile(ops in full_ops()) {
        const SPACES: usize = 2;
        const PPS: u64 = 126;
        const WAL_PAGES: u64 = 66;
        let volume =
            MemVolume::with_profile(512, (PPS + 1) * SPACES as u64 + WAL_PAGES, DiskProfile::FREE)
                .shared();
        let mut durable = ObjectStore::create_durable(
            volume.clone(),
            SPACES,
            PPS,
            StoreConfig::default(),
            WAL_PAGES,
        )
        .unwrap();
        let mut volatile = ObjectStore::in_memory(512, PPS * SPACES as u64);
        let mut model: Vec<u8> = Vec::new();
        let mut dobj = durable.create_with(&[], None).unwrap();
        let mut vobj = volatile.create_with(&[], None).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let Some(c) = concretize(op, model.len() as u64, i as u8, 12_000) else {
                continue;
            };
            model_apply(&mut model, &c);
            eos_apply(&mut volatile, &mut vobj, &c, &model);
            eos_apply(&mut durable, &mut dobj, &c, &model);
        }
        let id = dobj.id();
        drop(durable);
        let (reopened, report) =
            ObjectStore::open_durable(volume, SPACES, PPS, StoreConfig::default(), WAL_PAGES)
                .unwrap();
        prop_assert_eq!(report.rolled_back_ops, 0);
        let desc = report
            .objects
            .iter()
            .find(|o| o.id() == id)
            .expect("object survived reopen");
        prop_assert_eq!(reopened.read_all(desc).unwrap(), model);
    }
}

// ---- snapshot isolation (MVCC, DESIGN.md §14) ------------------------------

/// One step of the snapshot-isolation script.
#[derive(Debug, Clone)]
enum SnapAct {
    /// Run a writer transaction over object `obj % 2` (committed or
    /// aborted), checking mid-transaction that no snapshot can see the
    /// uncommitted writes.
    Txn {
        obj: usize,
        ops: Vec<Op>,
        commit: bool,
    },
    /// Pin a reader snapshot, remembering the model at the pin point.
    Pin,
    /// Replay every object through pinned reader `r` (mod live pins):
    /// the view must be byte-equal to the model *at its pin point*.
    ReadPinned { r: usize },
    /// Drop pinned reader `r` (mod live pins), releasing its epoch.
    DropPin { r: usize },
}

fn snap_acts() -> impl Strategy<Value = Vec<SnapAct>> {
    let writer_ops = proptest::collection::vec(
        prop_oneof![
            3 => (0usize..900).prop_map(|len| Op::Append { len }),
            3 => (any::<u64>(), 0usize..700).prop_map(|(at, len)| Op::Insert { at, len }),
            3 => (any::<u64>(), any::<u64>())
                .prop_map(|(at, len)| Op::Delete { at, len: len % 1_500 }),
            2 => (any::<u64>(), 0usize..600).prop_map(|(at, len)| Op::Replace { at, len }),
            1 => any::<u64>().prop_map(|to| Op::Truncate { to }),
        ],
        1..6,
    );
    proptest::collection::vec(
        prop_oneof![
            4 => (any::<usize>(), writer_ops, any::<u8>())
                .prop_map(|(obj, ops, b)| SnapAct::Txn { obj, ops, commit: b % 5 != 0 }),
            2 => Just(SnapAct::Pin),
            3 => any::<usize>().prop_map(|r| SnapAct::ReadPinned { r }),
            2 => any::<usize>().prop_map(|r| SnapAct::DropPin { r }),
        ],
        1..30,
    )
}

/// Replay one concrete op through a transaction handle.
fn txn_apply(txn: &Txn, obj: &mut LargeObject, c: &Cop) {
    match c {
        Cop::Append(data) => txn.append(obj, data).unwrap(),
        Cop::Insert(at, data) => txn.insert(obj, *at, data).unwrap(),
        Cop::Delete(at, len) => txn.delete(obj, *at, *len).unwrap(),
        Cop::Replace(at, data) => txn.replace(obj, *at, data).unwrap(),
        Cop::Truncate(to) => txn.truncate(obj, *to).unwrap(),
        Cop::Read(..) | Cop::Compact | Cop::Consolidate => {
            unreachable!("not in the writer op set")
        }
    }
}

/// Cases of `pinned_readers_see_their_pin_point` run so far, and how
/// many of them committed an in-place replace while a reader pin was
/// live (so before-images were parked for the older pin).
static PIN_CASES: AtomicU32 = AtomicU32::new(0);
static IN_PLACE_UNDER_PIN: AtomicU32 = AtomicU32::new(0);

/// A pinned reader and what the world looked like when it pinned.
fn assert_pinned_view(snap: &Snapshot, objs: &[LargeObject], models: &[Vec<u8>]) {
    for (obj, model) in objs.iter().zip(models) {
        assert_eq!(
            &snap.read_all(obj.id()).unwrap(),
            model,
            "pinned view of object {} diverged from its pin-point model",
            obj.id()
        );
    }
}

// Four times the default cases, so that plenty of them commit an
// in-place replace while a reader is pinned.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4 * prop_cases(), ..ProptestConfig::default() })]

    /// Model-based snapshot isolation: interleaved writer transactions
    /// and pinned readers over a shared durable store. Every pinned
    /// reader's view stays byte-equal to the model at its pin point —
    /// across later commits, aborts, and mid-transaction states — and
    /// the volume comes out of the run structurally clean (no pages
    /// leaked by the deferred-free parking). Replaces overwrite their
    /// pages in place at commit; the before-images parked for older
    /// pins are all dropped once the last pin goes.
    #[test]
    fn pinned_readers_see_their_pin_point(acts in snap_acts()) {
        const SPACES: usize = 2;
        const PPS: u64 = 1024;
        const WAL_PAGES: u64 = 62;
        let volume = MemVolume::with_profile(
            1024,
            (PPS + 1) * SPACES as u64 + WAL_PAGES,
            DiskProfile::FREE,
        )
        .shared();
        let mut store = ObjectStore::create_durable(
            volume,
            SPACES,
            PPS,
            StoreConfig::default(),
            WAL_PAGES,
        )
        .unwrap();
        // The third object is one 40-page segment — past 2T pages at
        // the default T = 8 — so small replaces into it are written in
        // place, and large ones split it L/N/R.
        let mut objs = vec![
            store.create_with(&fill(1, 700), None).unwrap(),
            store.create_with(&fill(2, 1_300), None).unwrap(),
            store.create_with(&fill(3, 40_000), Some(40_000)).unwrap(),
        ];
        let mut models: Vec<Vec<u8>> = vec![fill(1, 700), fill(2, 1_300), fill(3, 40_000)];
        let caps = [8_000, 8_000, 48_000];
        let cs = ConcurrentStore::new(store);
        // Start with one reader pinned at the seed state (a DropPin act
        // may release it), so early writes already run under a pin.
        let mut pins: Vec<(Snapshot, Vec<Vec<u8>>)> = vec![(cs.snapshot(), models.clone())];
        let overlay = cs.with_store(|st| st.metrics().gauge("mvcc.overlay_pages"));
        let mut in_place_under_pin = false;

        for (i, act) in acts.iter().enumerate() {
            match act {
                SnapAct::Txn { obj, ops, commit } => {
                    let o = obj % objs.len();
                    let txn = cs.begin();
                    let mut work = objs[o].clone();
                    let mut m = models[o].clone();
                    for (j, op) in ops.iter().enumerate() {
                        let seed = (i * 7 + j) as u8;
                        let Some(c) = concretize(op, m.len() as u64, seed, caps[o]) else {
                            continue;
                        };
                        model_apply(&mut m, &c);
                        txn_apply(&txn, &mut work, &c);
                    }
                    // Read-your-writes: the writing scope sees its own
                    // uncommitted bytes...
                    prop_assert_eq!(&txn.read_all(&work).unwrap(), &m);
                    // ...while a snapshot pinned mid-transaction sees
                    // only the last *committed* state.
                    let mid = cs.snapshot();
                    prop_assert_eq!(&mid.read_all(objs[o].id()).unwrap(), &models[o]);
                    drop(mid);
                    if *commit {
                        txn.commit().unwrap();
                        in_place_under_pin |= overlay.get() > 0;
                        objs[o] = work;
                        models[o] = m;
                    } else {
                        txn.abort().unwrap();
                    }
                    // Uncommitted (or aborted) writes never leak into a
                    // fresh post-transaction snapshot either.
                    let now = cs.snapshot();
                    assert_pinned_view(&now, &objs, &models);
                    drop(now);
                }
                SnapAct::Pin => {
                    let snap = cs.snapshot();
                    assert_pinned_view(&snap, &objs, &models);
                    pins.push((snap, models.clone()));
                }
                SnapAct::ReadPinned { r } => {
                    if !pins.is_empty() {
                        let (snap, at_pin) = &pins[r % pins.len()];
                        assert_pinned_view(snap, &objs, at_pin);
                    }
                }
                SnapAct::DropPin { r } => {
                    if !pins.is_empty() {
                        let idx = r % pins.len();
                        pins.remove(idx);
                    }
                }
            }
        }
        // Every surviving pin still reads its pin point at the end.
        for (snap, at_pin) in &pins {
            assert_pinned_view(snap, &objs, at_pin);
        }
        drop(pins);
        prop_assert_eq!(overlay.get(), 0, "before-images outlived the last pin");
        let reached = IN_PLACE_UNDER_PIN.fetch_add(u32::from(in_place_under_pin), Ordering::Relaxed)
            + u32::from(in_place_under_pin);
        let cases = PIN_CASES.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("pinned_readers_see_their_pin_point: {reached} of {cases} cases committed an in-place replace under a live pin");

        let store = match cs.try_into_inner() {
            Ok(s) => s,
            Err(_) => panic!("a handle outlived the script"),
        };
        let named: Vec<(String, LargeObject)> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (format!("obj-{i}"), o.clone()))
            .collect();
        let report = eos_check::check_store(&store, &named, None);
        prop_assert!(report.is_clean(), "{}", report.render_table());
        for (obj, model) in objs.iter().zip(&models) {
            prop_assert_eq!(&store.read_all(obj).unwrap(), model);
        }
    }
}
