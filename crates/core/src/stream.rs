//! Streaming access and compaction.
//!
//! §1 motivates piece-wise access with objects too big to handle in one
//! chunk ("it would be unlikely (if not impossible) to create a very
//! large object in one big step"). [`ObjectReader`] is the read-side
//! counterpart: an iterator that yields the object segment by segment,
//! each segment fetched with a single multi-page call.
//!
//! [`ObjectStore::compact`] rewrites an object into a minimal run of
//! maximum-size segments — the right layout "for more static objects
//! where the cost of updates is of little or no concern" (§4.4).

use crate::error::Result;
use crate::node::{Entry, Node};
use crate::object::LargeObject;
use crate::ops::read::advance;
use crate::store::ObjectStore;
use crate::tree::{descend, free_subtree, leaf_entry, normalize_root, PathStep};

/// Iterator over an object's content, one leaf segment per item.
pub struct ObjectReader<'a> {
    store: &'a ObjectStore,
    path: Option<Vec<PathStep>>,
    remaining: u64,
}

impl<'a> ObjectReader<'a> {
    fn new(store: &'a ObjectStore, obj: &LargeObject) -> Result<ObjectReader<'a>> {
        let path = if obj.is_empty() {
            None
        } else {
            Some(descend(store, obj, 0)?.0)
        };
        Ok(ObjectReader {
            store,
            path,
            remaining: obj.size(),
        })
    }
}

impl Iterator for ObjectReader<'_> {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        let path = self.path.as_mut()?;
        let e = leaf_entry(path);
        let ps = self.store.ps();
        let pages = e.bytes.div_ceil(ps);
        let out = match self.store.read_leaf(e.ptr, pages) {
            Ok(mut buf) => {
                buf.truncate(e.bytes as usize);
                buf
            }
            Err(err) => {
                self.path = None;
                return Some(Err(err));
            }
        };
        self.remaining -= e.bytes;
        if self.remaining == 0 {
            self.path = None;
        } else if let Err(err) = advance(self.store, path) {
            self.path = None;
            return Some(Err(err));
        }
        Some(Ok(out))
    }
}

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Leaf segments before.
    pub segments_before: u64,
    /// Leaf segments after.
    pub segments_after: u64,
}

impl ObjectStore {
    /// Stream the object segment by segment.
    pub fn reader<'a>(&'a self, obj: &LargeObject) -> Result<ObjectReader<'a>> {
        ObjectReader::new(self, obj)
    }

    /// Collect the leaf segments of an object as `(bytes, first page)`
    /// pairs — diagnostics and layout inspection.
    pub fn segments(&self, obj: &LargeObject) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        if obj.is_empty() {
            return Ok(out);
        }
        let (mut path, _) = descend(self, obj, 0)?;
        let mut seen = 0u64;
        loop {
            let e = leaf_entry(&path);
            out.push((e.bytes, e.ptr));
            seen += e.bytes;
            if seen == obj.size() {
                return Ok(out);
            }
            advance(self, &mut path)?;
        }
    }

    /// Rewrite the object into a minimal run of maximum-size segments
    /// (the §4.4 "the larger the segment size the better" layout for
    /// static objects). Needs transient space for the new copy before
    /// the old segments are freed. On a durable store the rewrite is
    /// shadowed like any structural update and becomes visible at
    /// commit.
    pub fn compact(&mut self, obj: &mut LargeObject) -> Result<CompactStats> {
        let _span = self
            .metrics()
            .span(eos_obs::OpKind::Reshuffle, self.volume());
        if self.durable_wal().is_some() {
            return self.with_autocommit(|s| {
                let stats = s.compact_inner(obj)?;
                s.log_touch(obj)?;
                Ok(stats)
            });
        }
        self.compact_inner(obj)
    }

    fn compact_inner(&mut self, obj: &mut LargeObject) -> Result<CompactStats> {
        let ps = self.ps();
        let max_bytes = (self.max_seg_pages() * ps) as usize;
        let old_segments = self.segments(obj)?;
        let stats_before = old_segments.len() as u64;
        if obj.is_empty() {
            return Ok(CompactStats {
                segments_before: 0,
                segments_after: 0,
            });
        }

        // Copy into fresh maximal segments, streaming one old segment at
        // a time (bounded memory: one max segment + one old segment).
        // Allocation is best effort: when churn has fragmented the free
        // space, compact takes the largest contiguous runs available
        // instead of failing.
        let mut new_entries: Vec<Entry> = Vec::new();
        let mut buffer: Vec<u8> = Vec::with_capacity(max_bytes);
        for &(bytes, ptr) in &old_segments {
            let pages = bytes.div_ceil(ps);
            let mut buf = self.read_leaf(ptr, pages)?;
            buf.truncate(bytes as usize);
            let mut src = buf.as_slice();
            while !src.is_empty() {
                let take = (max_bytes - buffer.len()).min(src.len());
                buffer.extend_from_slice(&src[..take]);
                src = &src[take..];
                if buffer.len() == max_bytes {
                    new_entries.extend(write_best_effort(self, &buffer)?);
                    buffer.clear();
                }
            }
        }
        if !buffer.is_empty() {
            new_entries.extend(write_best_effort(self, &buffer)?);
        }

        // Free the old tree (index pages and segments), install the new.
        let old_root = std::mem::replace(&mut obj.root, Node::new(1));
        free_subtree(self, &old_root)?;
        obj.root = Node {
            level: 1,
            entries: new_entries,
        };
        normalize_root(self, obj)?;
        self.paranoid_check(obj)?;
        Ok(CompactStats {
            segments_before: stats_before,
            segments_after: self.segments(obj)?.len() as u64,
        })
    }
}

/// Write `bytes` as segments using the largest contiguous runs the
/// allocator can offer (falls back below the maximum under
/// fragmentation).
fn write_best_effort(store: &mut ObjectStore, bytes: &[u8]) -> Result<Vec<Entry>> {
    let ps = store.ps();
    let mut out = Vec::new();
    let mut src = bytes;
    while !src.is_empty() {
        let want = (src.len() as u64).div_ceil(ps).min(store.max_seg_pages());
        let ext = store.alloc_up_to(want)?;
        let take = ((ext.pages * ps) as usize).min(src.len());
        let used = (take as u64).div_ceil(ps);
        let mut buf = src[..take].to_vec();
        buf.resize((used * ps) as usize, 0);
        store.volume().write_pages(ext.start, &buf)?;
        if used < ext.pages {
            store.free_pages(ext.start + used, ext.pages - used)?;
        }
        out.push(Entry {
            bytes: take as u64,
            ptr: ext.start,
        });
        src = &src[take..];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreConfig, Threshold};

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn shattered() -> (ObjectStore, LargeObject, Vec<u8>) {
        let mut store = ObjectStore::in_memory_with(
            512,
            8000,
            StoreConfig {
                threshold: Threshold::Fixed(1),
                ..StoreConfig::default()
            },
        );
        let mut model = pattern(250_000);
        let mut obj = store.create_with(&model, None).unwrap();
        for i in 0..50u64 {
            let off = (i * 4999) % (model.len() as u64);
            store.insert(&mut obj, off, b"##").unwrap();
            model.splice(off as usize..off as usize, *b"##");
        }
        (store, obj, model)
    }

    #[test]
    fn reader_streams_the_whole_object() {
        let (store, obj, model) = shattered();
        let mut got = Vec::new();
        let mut chunks = 0;
        for chunk in store.reader(&obj).unwrap() {
            got.extend(chunk.unwrap());
            chunks += 1;
        }
        assert_eq!(got, model);
        let stats = store.object_stats(&obj).unwrap();
        assert_eq!(chunks, stats.segments);
    }

    #[test]
    fn reader_on_empty_object_yields_nothing() {
        let mut store = ObjectStore::in_memory(512, 100);
        let obj = store.create_object();
        assert_eq!(store.reader(&obj).unwrap().count(), 0);
    }

    #[test]
    fn segments_lists_layout_in_order() {
        let (store, obj, model) = shattered();
        let segs = store.segments(&obj).unwrap();
        assert!(segs.len() > 10);
        assert_eq!(
            segs.iter().map(|&(b, _)| b).sum::<u64>(),
            model.len() as u64
        );
    }

    #[test]
    fn compact_restores_minimal_layout() {
        let (mut store, mut obj, model) = shattered();
        let before = store.object_stats(&obj).unwrap();
        let free_before = store.buddy().total_free_pages();
        let stats = store.compact(&mut obj).unwrap();
        assert_eq!(stats.segments_before, before.segments);
        assert!(stats.segments_after < stats.segments_before / 5);
        store.verify_object(&obj).unwrap();
        assert_eq!(store.read_all(&obj).unwrap(), model);
        // Compaction cannot lose pages (it should gain some back).
        assert!(store.buddy().total_free_pages() >= free_before);
        // Scanning now takes one seek per (few) segments.
        store.reset_io_stats();
        let _ = store.read_all(&obj).unwrap();
        assert!(store.io_stats().seeks <= stats.segments_after);
    }

    #[test]
    fn compact_empty_is_noop() {
        let mut store = ObjectStore::in_memory(512, 100);
        let mut obj = store.create_object();
        let s = store.compact(&mut obj).unwrap();
        assert_eq!(s.segments_after, 0);
        assert!(obj.is_empty());
    }
}
