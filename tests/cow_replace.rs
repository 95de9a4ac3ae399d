//! Copy-on-write replace as a §4.4 L/N/R rewrite, and the durable
//! replace's choice between it and an in-place write.
//!
//! The copy-on-write replace ([`ObjectStore::replace_shadow`], the side
//! of the durable `replace` that rewrites a segment) rewrites only the
//! touched pages of a segment, plus what the threshold T makes its
//! neighbours donate; the pages before and after stay in place. Pinned
//! here:
//!
//! * a model-based property over segment size, offset, length and T
//!   (`Fixed` and `Adaptive`): the bytes equal the model, the rewrite
//!   allocates no more pages than rewriting the whole segment would,
//!   every piece left behind is safe (≥ T pages) unless the segment was
//!   rewritten whole, and the volume passes `eos check`; and the
//!   durable `replace` on the same state never writes more device
//!   bytes than either the rewrite or an all-in-place write would;
//! * the I/O shape: a one-page replace in a 16-page segment at T = 8
//!   reads and writes at most 8 data pages, not 16.

use eos::core::durable::REDO_HEADER;
use eos::core::{LargeObject, ObjectStore, StoreConfig, Threshold};
use eos::pager::{DiskProfile, MemVolume};
use proptest::prelude::*;

const SPACES: usize = 2;
const PPS: u64 = 1024;
const WAL_PAGES: u64 = 62;

fn prop_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn fill(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add((i % 251) as u8))
        .collect()
}

/// A durable store with `page_size`-byte pages on an in-memory volume.
fn durable(page_size: usize, threshold: Threshold) -> ObjectStore {
    let volume = MemVolume::with_profile(
        page_size,
        (PPS + 1) * SPACES as u64 + WAL_PAGES,
        DiskProfile::FREE,
    )
    .shared();
    let config = StoreConfig {
        threshold,
        ..StoreConfig::default()
    };
    ObjectStore::create_durable(volume, SPACES, PPS, config, WAL_PAGES).unwrap()
}

/// An object of `len` bytes held in exactly one segment.
fn one_segment_object(store: &mut ObjectStore, len: usize) -> (LargeObject, Vec<u8>) {
    let data = fill(len as u8, len);
    let obj = store.create_with(&data, Some(len as u64)).unwrap();
    assert_eq!(store.object_stats(&obj).unwrap().segments, 1);
    (obj, data)
}

/// Leaf segment sizes in pages (the root points straight at segments).
fn segment_pages(store: &ObjectStore, obj: &LargeObject) -> Vec<u64> {
    assert_eq!(obj.height(), 1, "the test objects stay one level deep");
    store
        .object_page_extents(obj)
        .into_iter()
        .map(|(_, pages)| pages)
        .collect()
}

/// Replace inside an explicit transaction; returns the data pages the
/// rewrite allocated (frees are deferred to the commit, so the free
/// count drops by exactly the allocation).
fn replace_counting_allocs(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    at: u64,
    data: &[u8],
) -> u64 {
    store.begin_txn();
    let free_before = store.buddy().total_free_pages();
    store.replace_shadow(obj, at, data).unwrap();
    let allocated = free_before - store.buddy().total_free_pages();
    store.commit_txn().unwrap();
    allocated
}

/// Device bytes the durable `replace` (cost-chosen per segment) writes
/// for one replace in its own transaction: fresh pages of rewritten
/// segments, pages written in place, and the redo their commit frame
/// carries. In-place pages are the touched pages still referenced
/// afterwards (a rewritten segment's touched pages are freed).
fn chosen_replace_bytes(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    at: u64,
    data: &[u8],
) -> u64 {
    let ps = store.page_size() as u64;
    let touched: Vec<u64> = touched_pages(store, obj, at, data.len() as u64);
    let redo = store.metrics().counter("wal.redo_bytes");
    let redo_before = redo.get();
    store.begin_txn();
    let free_before = store.buddy().total_free_pages();
    store.replace(obj, at, data).unwrap();
    let allocated = free_before - store.buddy().total_free_pages();
    store.commit_txn().unwrap();
    let live: Vec<(u64, u64)> = store.object_page_extents(obj);
    let in_place = touched
        .iter()
        .filter(|&&p| live.iter().any(|&(s, n)| (s..s + n).contains(&p)))
        .count() as u64;
    (allocated + in_place) * ps + redo.get() - redo_before
}

/// Volume pages holding bytes `[at, at + len)` of a one-level object
/// whose segments are whole pages but for the last (what a single
/// segment and the pieces replaces cut from it look like).
fn touched_pages(store: &ObjectStore, obj: &LargeObject, at: u64, len: u64) -> Vec<u64> {
    let ps = store.page_size() as u64;
    let mut out = Vec::new();
    let mut seg_at = 0u64;
    for (start, pages) in store.object_page_extents(obj) {
        let bytes = (pages * ps).min(obj.size() - seg_at);
        let (lo, hi) = (at.max(seg_at), (at + len).min(seg_at + bytes));
        if lo < hi {
            let (p0, p1) = ((lo - seg_at) / ps, (hi - 1 - seg_at) / ps);
            out.extend((p0..=p1).map(|p| start + p));
        }
        seg_at += bytes;
    }
    out
}

fn threshold() -> impl Strategy<Value = Threshold> {
    prop_oneof![
        (1u32..17).prop_map(Threshold::Fixed),
        (1u32..5).prop_map(|base| Threshold::Adaptive { base }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: prop_cases(), ..ProptestConfig::default() })]

    /// One replace into a single segment of 1–40 pages (last page
    /// partial or full), then a second anywhere, which may span the
    /// pieces the first one left.
    #[test]
    fn replace_rewrites_no_more_than_its_segment(
        t in threshold(),
        seg in (1u64..41, 0u64..1024),
        first in (any::<u64>(), 1usize..4_097),
        second in (any::<u64>(), 1usize..6_001),
    ) {
        let ps = 1024u64;
        let mut store = durable(ps as usize, t);
        let len = seg.0 * ps - seg.1;
        let (mut obj, mut model) = one_segment_object(&mut store, len as usize);
        let t_eff = u64::from(t.effective(1, store.node_cap()));

        // The durable `replace` runs on a twin that takes the same
        // rounds: its device bytes are never more than the rewrite's
        // (measured below) or than writing every touched page in place.
        let mut twin = durable(ps as usize, t);
        let (mut twin_obj, _) = one_segment_object(&mut twin, len as usize);
        for (round, (at, n)) in [first, second].into_iter().enumerate() {
            let at = at % len;
            let n = (n as u64).min(len - at) as usize;
            let data = fill(round as u8 + 101, n);
            let pages_before: u64 = segment_pages(&store, &obj).iter().sum();
            let touched = touched_pages(&store, &obj, at, n as u64).len() as u64;
            let chosen = chosen_replace_bytes(&mut twin, &mut twin_obj, at, &data);
            let allocated = replace_counting_allocs(&mut store, &mut obj, at, &data);
            let all_in_place = touched * (ps + REDO_HEADER) + n as u64;
            prop_assert!(
                chosen <= allocated * ps && chosen <= all_in_place,
                "chose {chosen} B: rewrite {} B, in place {all_in_place} B",
                allocated * ps
            );
            prop_assert_eq!(&twin.read_all(&twin_obj).unwrap(), &{
                let mut m = model.clone();
                m[at as usize..at as usize + n].copy_from_slice(&data);
                m
            });
            // Later rounds start from the same layout on both sides.
            if round == 0 {
                twin = durable(ps as usize, t);
                let (o, _) = one_segment_object(&mut twin, len as usize);
                twin_obj = o;
                replace_counting_allocs(&mut twin, &mut twin_obj, at, &data);
            }
            model[at as usize..at as usize + n].copy_from_slice(&data);

            prop_assert_eq!(&store.read_all(&obj).unwrap(), &model);
            // Rewriting every segment whole would allocate at least the
            // pages of the segments touched; the first round touches
            // the one segment there is, later rounds at most all.
            if round == 0 {
                prop_assert!(allocated <= seg.0, "allocated {allocated} > segment {}", seg.0);
            } else {
                prop_assert!(allocated <= pages_before, "allocated {allocated} > {pages_before}");
            }
            // No piece below T pages is left next to one it could have
            // merged with: either every segment is safe, or the object
            // is one segment (rewritten whole).
            let pieces = segment_pages(&store, &obj);
            prop_assert!(
                pieces.len() == 1 || pieces.iter().all(|&p| p >= t_eff),
                "T = {t_eff}: unsafe piece among {pieces:?}"
            );
        }
        let report = eos_check::check_store(&store, &[("obj".to_string(), obj)], None);
        prop_assert!(report.is_clean(), "{}", report.render_table());
    }
}

/// The I/O shape of the saving: a one-page (4 KiB) replace at each
/// page of a 16-page segment at T = 8 reads and writes at most 8 data
/// pages — the trio keeps whichever side is safe in place and rewrites
/// the rest as one 8-page N. Rewriting the segment whole costs 16 and
/// 16.
#[test]
fn one_page_replace_in_a_16_page_segment_moves_at_most_8_pages() {
    const PS: u64 = 4096;
    for page in 0..16u64 {
        let mut store = durable(PS as usize, Threshold::Fixed(8));
        let (mut obj, mut model) = one_segment_object(&mut store, (16 * PS) as usize);
        let data = fill(page as u8, PS as usize);
        store.begin_txn();
        let before = store.io_stats();
        store.replace_shadow(&mut obj, page * PS, &data).unwrap();
        let io = store.io_stats();
        store.commit_txn().unwrap();
        let (reads, writes) = (
            io.page_reads - before.page_reads,
            io.page_writes - before.page_writes,
        );
        assert!(
            reads <= 8 && writes <= 8,
            "replace at page {page}: read {reads} and wrote {writes} pages"
        );
        model[(page * PS) as usize..((page + 1) * PS) as usize].copy_from_slice(&data);
        assert_eq!(store.read_all(&obj).unwrap(), model);
        assert_eq!(segment_pages(&store, &obj).iter().sum::<u64>(), 16);
        let report = eos_check::check_store(&store, &[("obj".to_string(), obj)], None);
        assert!(report.is_clean(), "{}", report.render_table());
    }
}
