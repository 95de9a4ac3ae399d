//! The search (byte-range read) operation, §4.2.
//!
//! Descend the tree to the leaf segment holding the first byte, read the
//! covered pages of that segment **in one multi-page call** (one seek),
//! then "use the stack to obtain the rest of the bytes": advance the
//! saved path to the logically next segment without re-descending from
//! the root.
//!
//! Page runs whose bytes are needed in full are read straight into the
//! output buffer (no intermediate copy); only the partial first/last
//! pages of the range go through a one-page scratch buffer.

use crate::error::{Error, Result};
use crate::object::LargeObject;
use crate::store::{ObjectStore, View};
use crate::tree::{descend, leaf_entry, PathStep};

/// Read `len` bytes at `offset` of `obj`, leaf pages as `view` sees
/// them.
pub(crate) fn run(
    store: &ObjectStore,
    view: View,
    obj: &LargeObject,
    offset: u64,
    len: u64,
) -> Result<Vec<u8>> {
    let size = obj.size();
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(Error::OutOfObjectBounds {
            offset,
            len,
            object_size: size,
        });
    }
    if len == 0 {
        return Ok(Vec::new());
    }
    let ps = store.ps();
    let psz = ps as usize;
    let (mut path, mut rel) = descend(store, obj, offset)?;
    let mut out = vec![0u8; len as usize];
    let mut written = 0usize;
    let mut scratch = vec![0u8; psz];
    let mut remaining = len;
    loop {
        let e = leaf_entry(&path);
        let take = (e.bytes - rel).min(remaining) as usize;
        let p0 = rel / ps;
        let skip = (rel - p0 * ps) as usize;

        // The segment contributes bytes [rel, rel+take). Split into a
        // partial head page, a run of whole pages, and a partial tail
        // page; the whole-page run lands directly in `out`.
        let mut seg_written = 0usize;
        let mut page = p0;
        if skip > 0 {
            store.read_leaf_into(view, e.ptr + page, 1, &mut scratch)?;
            let n = (psz - skip).min(take);
            copy_into(&mut out, written, scratch.get(skip..skip + n))?;
            seg_written += n;
            page += 1;
        }
        let whole_pages = (take - seg_written) / psz;
        if whole_pages > 0 {
            let n = whole_pages * psz;
            let at = written + seg_written;
            let run = out.get_mut(at..at + n).ok_or_else(out_of_range)?;
            store.read_leaf_into(view, e.ptr + page, whole_pages as u64, run)?;
            seg_written += n;
            page += whole_pages as u64;
        }
        if seg_written < take {
            store.read_leaf_into(view, e.ptr + page, 1, &mut scratch)?;
            let n = take - seg_written;
            copy_into(&mut out, written + seg_written, scratch.get(..n))?;
            seg_written = take;
        }
        debug_assert_eq!(seg_written, take);
        written += take;
        remaining -= take as u64;
        if remaining == 0 {
            return Ok(out);
        }
        advance(store, &mut path)?;
        rel = 0;
    }
}

/// Move the saved path to the next leaf segment in byte order.
pub(crate) fn advance(store: &ObjectStore, path: &mut Vec<PathStep>) -> Result<()> {
    loop {
        let top = path.last_mut().ok_or_else(|| Error::CorruptObject {
            reason: "advanced past the last segment".into(),
        })?;
        if top.child + 1 < top.node.entries.len() {
            top.child += 1;
            break;
        }
        path.pop();
    }
    // Descend leftmost back to level 1.
    while let Some(top) = path.last().filter(|top| top.node.level > 1) {
        let ptr = top
            .node
            .entries
            .get(top.child)
            .ok_or_else(out_of_range)?
            .ptr;
        let node = store.read_node(ptr)?;
        path.push(PathStep {
            page: Some(ptr),
            node,
            child: 0,
        });
    }
    Ok(())
}

/// Copy `src` (a checked sub-slice of a page buffer) into `out` at `at`.
fn copy_into(out: &mut [u8], at: usize, src: Option<&[u8]>) -> Result<()> {
    let src = src.ok_or_else(out_of_range)?;
    out.get_mut(at..at + src.len())
        .ok_or_else(out_of_range)?
        .copy_from_slice(src);
    Ok(())
}

fn out_of_range() -> Error {
    Error::CorruptObject {
        reason: "segment range outside the read buffer".into(),
    }
}
