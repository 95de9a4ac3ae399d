//! The byte-range replace operation (§4.2).
//!
//! Replace locates the range with the search algorithm and overwrites
//! leaf pages **in place** — it is the one update that modifies leaf
//! pages and leaves the index untouched, so it is protected by logging
//! rather than shadowing (§4.5). Only partially overwritten boundary
//! pages need to be read first.
//!
//! * [`run`] is the volatile store's replace: the pages are written
//!   straight away, with no log (the paper's cost model, E-experiments).
//! * [`run_logged`] is the no-steal one: a durable store's replace,
//!   redo-logged, and every `Txn::replace`, on a volatile store too.
//!   Per touched segment it picks the cheaper write in device bytes: in
//!   place — the touched pages plus, with a log, their redo records in
//!   the commit frame — or the §4.4 L/N/R rewrite of [`super::rewrite`], whose
//!   cost is the pages its reshuffle plan writes (a tie goes to the
//!   rewrite). An in-place write goes to the scope's stash
//!   ([`ObjectStore::stash_write`]); its pages reach the volume only
//!   once the commit frame carrying their redo is durable, so nothing
//!   needs undoing and abort writes nothing. The rule also bounds each
//!   segment's redo to about 2T pages: a segment the range covers
//!   whole always rewrites.
//! * [`run_shadow`] forces the copy-on-write rewrite for every segment:
//!   the reference the cost rule is tested against.

use super::rewrite::Fill;
use crate::durable::REDO_HEADER;
use crate::error::{Error, Result};
use crate::object::LargeObject;
use crate::store::ObjectStore;
use crate::tree::{descend, leaf_entry};

/// The volatile in-place replace: a log-less store makes no crash
/// promise, so the write carries no ordering contract.
pub(crate) fn run(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    check_bounds(obj, offset, data)?;
    if data.is_empty() {
        return Ok(());
    }
    let ps = store.ps();
    let (mut path, mut rel) = descend(store, obj, offset)?;
    let mut src = data;
    loop {
        let e = leaf_entry(&path);
        let take = (e.bytes - rel).min(src.len() as u64);
        let p0 = rel / ps;
        let p1 = (rel + take - 1) / ps;
        let npages = p1 - p0 + 1;
        // Only the partially overwritten boundary pages are read: the
        // head page when bytes before the range survive, the tail page
        // (possibly the segment's partial last page) when bytes after it
        // survive.
        let head = rel - p0 * ps;
        let tail = ((p1 + 1) * ps).min(e.bytes) - (rel + take);
        let mut buf = vec![0u8; (npages * ps) as usize];
        let mut pages = buf.chunks_exact_mut(ps as usize);
        if head > 0 {
            if let Some(page) = pages.next() {
                store.read_leaf_into(store.view(), e.ptr + p0, 1, page)?;
            }
        }
        // With one page and a surviving head, that page is read already.
        if tail > 0 {
            if let Some(page) = pages.last() {
                store.read_leaf_into(store.view(), e.ptr + p1, 1, page)?;
            }
        }
        let (now, rest) = src.split_at(take as usize);
        buf.get_mut(head as usize..(head + take) as usize)
            .ok_or_else(|| Error::CorruptObject {
                reason: "replaced range outside the page buffer".into(),
            })?
            .copy_from_slice(now);
        store.volume().write_pages(e.ptr + p0, &buf)?;
        src = rest;
        if src.is_empty() {
            return Ok(());
        }
        super::read::advance(store, &mut path)?;
        rel = 0;
    }
}

/// The no-steal replace: per touched segment, the cheaper of an
/// in-place write into the scope's stash and the L/N/R rewrite (see
/// the module docs). The in-place cost is the touched pages plus, on a
/// durable store, one redo record per page; the rewrite cost is the
/// pages N occupies.
/// Returns whether any segment was rewritten (the root changed).
pub(crate) fn run_logged(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    data: &[u8],
) -> Result<bool> {
    check_bounds(obj, offset, data)?;
    let ps = store.ps();
    let (mut off, mut src, mut rewrote) = (offset, data, false);
    while !src.is_empty() {
        // Re-descend for every segment: a rewrite propagates a new
        // (shadowed) index path. Replace shifts no offsets, so `off`
        // still names the next untouched byte.
        let (path, rel) = descend(store, obj, off)?;
        let e = leaf_entry(&path);
        let take = (e.bytes - rel).min(src.len() as u64);
        let (now, rest) = src.split_at(take as usize);
        let (l0, last) = (rel / ps * ps, rel + take - 1);
        let fill = Fill::Overlay {
            at: rel - l0,
            data: now,
        };
        let plan = super::rewrite::plan(store, obj, &path, l0, last, fill)?;
        let touched = last / ps - rel / ps + 1;
        let in_place = match store.durable_wal() {
            Some(_) => touched * (ps + REDO_HEADER) + take,
            None => touched * ps,
        };
        if in_place < plan.new_pages(ps) * ps {
            let mut at = rel;
            for chunk in split_at_pages(rel, now, ps) {
                let whole = chunk.len() as u64 == ps;
                store.stash_write(obj.id(), e.ptr + at / ps, at % ps, chunk, !whole)?;
                at += chunk.len() as u64;
            }
        } else {
            super::rewrite::execute(store, obj, path, plan, fill, off)?;
            rewrote = true;
        }
        off += take;
        src = rest;
    }
    Ok(rewrote)
}

/// Cut `data`, written from byte `rel` of a segment, at page
/// boundaries.
fn split_at_pages(rel: u64, data: &[u8], ps: u64) -> impl Iterator<Item = &[u8]> {
    let head = ((ps - rel % ps) as usize).min(data.len());
    let (first, rest) = data.split_at(head);
    std::iter::once(first)
        .chain(rest.chunks(ps as usize))
        .filter(|c| !c.is_empty())
}

fn check_bounds(obj: &LargeObject, offset: u64, data: &[u8]) -> Result<()> {
    let size = obj.size();
    let len = data.len() as u64;
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(Error::OutOfObjectBounds {
            offset,
            len,
            object_size: size,
        });
    }
    Ok(())
}

/// Copy-on-write replace: every segment S the range touches is
/// rewritten as an L/N/R trio ([`super::rewrite`]). L is S's whole
/// pages before the first touched page, N the touched pages with the
/// new bytes laid over them, R S's pages after the last touched page.
/// The §4.4 reshuffle may move pages of L and R into N, so no piece
/// smaller than T pages is left beside a neighbour it could merge
/// with; N goes to a freshly allocated extent, L′ and R′ stay in place
/// and shared with the committed root, and only the pages of S between
/// them are freed — deferred into the active transaction's
/// release-lock batch. The index path above S is rewritten through the
/// normal shadowing `propagate`, so the committed tree stays
/// byte-identical on disk until the deferral is reclaimed: like
/// insert/delete/append, nothing committed is overwritten.
pub(crate) fn run_shadow(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    check_bounds(obj, offset, data)?;
    let ps = store.ps();
    let mut off = offset;
    let mut src = data;
    while !src.is_empty() {
        // Re-descend for every segment: the rewrite propagates a new
        // (shadowed) index path, so a saved path goes stale the moment
        // one segment is swapped. Replace shifts no offsets, so `off`
        // still names the next untouched byte.
        let (path, rel) = descend(store, obj, off)?;
        let take = (leaf_entry(&path).bytes - rel).min(src.len() as u64);
        let (now, rest) = src.split_at(take as usize);
        // L is the whole pages before the first touched page.
        let l0 = rel / ps * ps;
        let fill = Fill::Overlay {
            at: rel - l0,
            data: now,
        };
        super::rewrite::run(store, obj, path, l0, rel + take - 1, fill, off)?;
        off += take;
        src = rest;
    }
    Ok(())
}
