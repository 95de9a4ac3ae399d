//! The byte-range replace operation (§4.2).
//!
//! Replace locates the range with the search algorithm and overwrites
//! leaf pages **in place** — it is the one update that modifies leaf
//! pages and leaves the index untouched, so it is protected by logging
//! rather than shadowing (§4.5). Only partially overwritten boundary
//! pages need to be read first.
//!
//! [`run_shadow`] is the MVCC variant and deviates from §4.2: it is
//! another §4.4 L/N/R rewrite ([`super::rewrite`], shared with insert).
//! Only the touched pages of each segment, plus whatever the threshold
//! T makes L and R donate, are written to a fresh extent; the pages
//! before and after stay in place, shared with the committed root, and
//! only the pages in between are freed (deferred). A committed image a
//! reader snapshot has pinned is never overwritten — the concurrent
//! front-end's lock-free read path depends on exactly this.

// The one in-place overwrite of committed state in the system (rule
// L6, DESIGN.md §15): safe only once the undo images are forced.
//
// durability-class: committed-page requires = undo-image

use super::rewrite::Fill;
use crate::error::{Error, Result};
use crate::object::LargeObject;
use crate::store::ObjectStore;
use crate::tree::{descend, leaf_entry};

// durability: requires(undo-image)
pub(crate) fn run(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    let size = obj.size();
    let len = data.len() as u64;
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(Error::OutOfObjectBounds {
            offset,
            len,
            object_size: size,
        });
    }
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
                store.volume().read_into(e.ptr + p0, 1, page)?;
            }
        }
        // With one page and a surviving head, that page is read already.
        if tail > 0 {
            if let Some(page) = pages.last() {
                store.volume().read_into(e.ptr + p1, 1, page)?;
            }
        }
        let (now, rest) = src.split_at(take as usize);
        buf.get_mut(head as usize..(head + take) as usize)
            .ok_or_else(|| Error::CorruptObject {
                reason: "replaced range outside the page buffer".into(),
            })?
            .copy_from_slice(now);
        // durability: mutates(committed-page)
        store.volume().write_pages(e.ptr + p0, &buf)?;
        src = rest;
        if src.is_empty() {
            return Ok(());
        }
        super::read::advance(store, &mut path)?;
        rel = 0;
    }
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
/// byte-identical on disk until the deferral is reclaimed. No
/// before-images and no mid-operation log force are needed: like
/// insert/delete/append, nothing committed is overwritten.
pub(crate) fn run_shadow(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    let size = obj.size();
    let len = data.len() as u64;
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(Error::OutOfObjectBounds {
            offset,
            len,
            object_size: size,
        });
    }
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
