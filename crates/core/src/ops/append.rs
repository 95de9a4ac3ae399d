//! The append/create operation (§4.1).
//!
//! Appends run inside an [`AppendSession`]:
//!
//! * With a **size hint**, "the large object manager allocates a segment
//!   just large enough to hold the entire object" (maximum-size segments
//!   if it exceeds the largest segment), and successive chunks are laid
//!   down back to back with no holes (Fig 5.a).
//! * With the size **unknown**, "successive segments allocated for
//!   storage double in size until the maximum segment size is reached"
//!   (Fig 5.b — the Starburst growth scheme).
//! * "At the end of these multi-append operations the last allocated
//!   segment is always trimmed", which is trivial because the buddy
//!   system frees with one-page precision.
//!
//! If the object already ends in a partial page, those bytes are
//! absorbed into the first new segment (the old partial page is freed),
//! so an append never overwrites an existing leaf page (§4.5).

use eos_pager::PageId;

use crate::error::Result;
use crate::node::Entry;
use crate::object::LargeObject;
use crate::store::ObjectStore;
use crate::tree::{self, descend, leaf_entry};

/// A multi-append session. Obtain with
/// [`ObjectStore::open_append`](crate::ObjectStore::open_append), feed
/// it chunks with [`AppendSession::append`], and finish with
/// [`AppendSession::close`] — closing trims the tail segment and splices
/// the new segments into the tree.
pub struct AppendSession<'a> {
    store: &'a mut ObjectStore,
    obj: &'a mut LargeObject,
    /// Bytes the caller promised are still coming (`None` = unknown).
    hint_remaining: Option<u64>,
    /// Partial-page bytes absorbed from the old tail segment; the tree
    /// entry shrinks by this many bytes at close.
    shrink_last_by: u64,
    /// The currently open (not yet full) segment.
    seg: Option<OpenSeg>,
    /// Completed segments awaiting the tree splice.
    done: Vec<Entry>,
    /// Pages of the last allocation — the doubling base.
    last_alloc_pages: u64,
    closed: bool,
    /// The `append` attribution span of a *public* session
    /// ([`ObjectStore::open_append`](crate::ObjectStore::open_append));
    /// internal callers (create, the logged variants) run under their
    /// own span and leave this `None`. Dropped with the session, after
    /// the closing trim and splice.
    span: Option<eos_obs::OpSpan>,
}

struct OpenSeg {
    start: PageId,
    alloc_pages: u64,
    full_pages: u64,
    /// Bytes of the trailing partial page, buffered until the page
    /// fills or the session closes.
    partial: Vec<u8>,
}

impl OpenSeg {
    fn bytes(&self, ps: u64) -> u64 {
        self.full_pages * ps + self.partial.len() as u64
    }

    fn capacity_left(&self, ps: u64) -> u64 {
        self.alloc_pages * ps - self.bytes(ps)
    }
}

impl<'a> AppendSession<'a> {
    pub(crate) fn open(
        store: &'a mut ObjectStore,
        obj: &'a mut LargeObject,
        additional_bytes_hint: Option<u64>,
    ) -> Result<AppendSession<'a>> {
        let ps = store.ps();
        let mut shrink_last_by = 0u64;
        let mut partial0: Vec<u8> = Vec::new();
        let mut last_alloc_pages = 0u64;
        if !obj.is_empty() {
            // Absorb the old partial tail page, if any.
            let (path, _) = descend(store, obj, obj.size() - 1)?;
            let e = leaf_entry(&path);
            let seg_pages = e.bytes.div_ceil(ps);
            last_alloc_pages = seg_pages;
            let sm = e.bytes % ps;
            if sm != 0 {
                let page = store.read_leaf(e.ptr + seg_pages - 1, 1)?;
                partial0.extend_from_slice(&page[..sm as usize]);
                shrink_last_by = sm;
                store.free_pages(e.ptr + seg_pages - 1, 1)?;
            }
        }
        let seg = if partial0.is_empty() {
            None
        } else {
            // The absorbed bytes restart in a fresh (1-page, for now)
            // segment; appends extend it under the growth policy.
            let want = additional_bytes_hint
                .map_or(1, |h| (h + partial0.len() as u64).div_ceil(ps))
                .min(store.max_seg_pages())
                .max(1);
            let ext = store.alloc_up_to(want)?;
            Some(OpenSeg {
                start: ext.start,
                alloc_pages: ext.pages,
                full_pages: 0,
                partial: partial0,
            })
        };
        if let Some(s) = &seg {
            last_alloc_pages = s.alloc_pages;
        }
        Ok(AppendSession {
            store,
            obj,
            hint_remaining: additional_bytes_hint,
            shrink_last_by,
            seg,
            done: Vec::new(),
            last_alloc_pages,
            closed: false,
            span: None,
        })
    }

    /// Attach the attribution span that should live as long as the
    /// session (set by
    /// [`ObjectStore::open_append`](crate::ObjectStore::open_append)
    /// only).
    pub(crate) fn attach_span(&mut self, span: eos_obs::OpSpan) {
        self.span = Some(span);
    }

    /// Append one chunk at the end of the object.
    pub fn append(&mut self, data: &[u8]) -> Result<()> {
        assert!(!self.closed, "append on a closed session");
        let ps = self.store.ps();
        let mut src = data;
        while !src.is_empty() {
            if self.seg.as_ref().is_none_or(|s| s.capacity_left(ps) == 0) {
                self.finish_segment()?;
                self.alloc_segment(src.len() as u64)?;
            }
            let seg = self.seg.as_mut().expect("just allocated");
            let take = (seg.capacity_left(ps)).min(src.len() as u64) as usize;
            let (chunk, rest) = src.split_at(take);
            src = rest;
            // Compose the buffered partial bytes with the chunk and
            // write all completed pages in one call.
            let buffered = seg.partial.len();
            let complete = (buffered + chunk.len()) / ps as usize;
            if complete > 0 {
                let mut buf = Vec::with_capacity(complete * ps as usize);
                buf.extend_from_slice(&seg.partial);
                let need = complete * ps as usize - buffered;
                buf.extend_from_slice(&chunk[..need]);
                self.store
                    .volume()
                    .write_pages(seg.start + seg.full_pages, &buf)?;
                seg.full_pages += complete as u64;
                seg.partial.clear();
                seg.partial.extend_from_slice(&chunk[need..]);
            } else {
                seg.partial.extend_from_slice(chunk);
            }
            if let Some(h) = &mut self.hint_remaining {
                *h = h.saturating_sub(take as u64);
            }
        }
        Ok(())
    }

    /// Bytes appended so far in this session (excluding absorbed ones).
    pub fn appended(&self) -> u64 {
        let ps = self.store.ps();
        let open = self.seg.as_ref().map_or(0, |s| s.bytes(ps));
        self.done.iter().map(|e| e.bytes).sum::<u64>() + open - self.shrink_last_by
    }

    /// Flush the tail, trim the last segment, and splice the new
    /// segments into the tree.
    pub fn close(mut self) -> Result<()> {
        self.finish_segment()?;
        self.closed = true;
        let done = std::mem::take(&mut self.done);
        if done.is_empty() && self.shrink_last_by == 0 {
            return Ok(());
        }
        tree::append_entries(self.store, self.obj, done, self.shrink_last_by)?;
        self.store.paranoid_check(self.obj)
    }

    /// Allocate the next segment under the §4.1 growth policy.
    fn alloc_segment(&mut self, upcoming: u64) -> Result<()> {
        debug_assert!(self.seg.is_none());
        let ps = self.store.ps();
        let max = self.store.max_seg_pages();
        let want = match self.hint_remaining {
            // Known size: just large enough (a run of maximum-size
            // segments when very large).
            Some(h) => h.max(upcoming).div_ceil(ps).clamp(1, max),
            // Unknown: double the previous allocation.
            None => (self.last_alloc_pages * 2).clamp(1, max),
        };
        let ext = self.store.alloc_up_to(want)?;
        self.last_alloc_pages = ext.pages;
        self.seg = Some(OpenSeg {
            start: ext.start,
            alloc_pages: ext.pages,
            full_pages: 0,
            partial: Vec::new(),
        });
        Ok(())
    }

    /// Flush the partial page, trim unused pages, record the entry.
    fn finish_segment(&mut self) -> Result<()> {
        let Some(mut seg) = self.seg.take() else {
            return Ok(());
        };
        let ps = self.store.ps();
        let bytes = seg.bytes(ps);
        if !seg.partial.is_empty() {
            // Flush the partial tail page, zero-padded.
            seg.partial.resize(ps as usize, 0);
            self.store
                .volume()
                .write_pages(seg.start + seg.full_pages, &seg.partial)?;
            seg.full_pages += 1;
            seg.partial.clear();
        }
        let used = bytes.div_ceil(ps);
        if used < seg.alloc_pages {
            // Trim: "the last allocated segment is always trimmed".
            self.store
                .free_pages(seg.start + used, seg.alloc_pages - used)?;
        }
        if bytes > 0 {
            self.done.push(Entry {
                bytes,
                ptr: seg.start,
            });
        }
        // bytes == 0: the trim above already returned the whole extent.
        Ok(())
    }
}

impl Drop for AppendSession<'_> {
    fn drop(&mut self) {
        // Dropping without close() (e.g. unwinding out of an I/O error)
        // leaks the session's segments unless a transaction scope is
        // open — abort_txn reclaims them. Nothing to assert here: the
        // leak is the documented contract of abandoning a session.
    }
}
