//! Group reallocation of unsafe segments (\[Bili91a\]; §4.4 last
//! paragraph).
//!
//! "When the parent node is indeed going to be split if the child
//! segment is split, the entire node is scanned and for any two or more
//! logically adjacent segments that have less than T pages, a single
//! larger segment is allocated to accommodate this group of unsafe
//! adjacent segments." Consolidation both restores physical clustering
//! and shrinks the parent's entry count, often avoiding the split
//! altogether.

use crate::error::Result;
use crate::node::{Entry, Node};
use crate::store::ObjectStore;

/// Statistics returned by a consolidation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidateStats {
    /// Number of adjacent-unsafe runs merged.
    pub runs_merged: u64,
    /// Segments before the pass.
    pub segments_before: u64,
    /// Segments after the pass.
    pub segments_after: u64,
}

/// Merge every run of two or more logically adjacent segments of fewer
/// than `t` pages each into single larger segments. `node` must be a
/// level-1 node; its entries are edited in place (the caller propagates
/// counts). Runs larger than the maximum segment are split greedily.
pub(crate) fn consolidate_leaf_parent(
    store: &mut ObjectStore,
    node: &mut Node,
    t: u64,
) -> Result<ConsolidateStats> {
    debug_assert_eq!(node.level, 1);
    let ps = store.ps();
    let max_bytes = store.max_seg_pages() * ps;
    let mut stats = ConsolidateStats {
        segments_before: node.entries.len() as u64,
        ..Default::default()
    };

    // Collect maximal runs of adjacent unsafe entries, capped at the
    // maximum segment size.
    let unsafe_seg = |e: &Entry| e.bytes.div_ceil(ps) < t;
    let mut runs: Vec<(usize, usize)> = Vec::new(); // [i, j)
    let mut i = 0;
    while i < node.entries.len() {
        if !unsafe_seg(&node.entries[i]) {
            i += 1;
            continue;
        }
        let mut j = i;
        let mut bytes = 0u64;
        while j < node.entries.len()
            && unsafe_seg(&node.entries[j])
            && bytes + node.entries[j].bytes <= max_bytes
        {
            bytes += node.entries[j].bytes;
            j += 1;
        }
        if j - i >= 2 {
            runs.push((i, j));
        }
        i = j.max(i + 1);
    }

    // Rewrite each run into one fresh segment (right to left so earlier
    // indices stay valid).
    for &(a, b) in runs.iter().rev() {
        let mut bytes: Vec<u8> = Vec::new();
        for e in &node.entries[a..b] {
            let pages = e.bytes.div_ceil(ps);
            let buf = store.read_leaf(e.ptr, pages)?;
            bytes.extend_from_slice(&buf[..e.bytes as usize]);
        }
        let fresh = crate::ops::rewrite::write_new_segments(store, &bytes)?;
        let old: Vec<Entry> = node.entries.splice(a..b, fresh).collect();
        for e in old {
            store.free_pages(e.ptr, e.bytes.div_ceil(ps))?;
        }
        stats.runs_merged += 1;
    }
    stats.segments_after = node.entries.len() as u64;
    Ok(stats)
}

impl ObjectStore {
    /// Walk the whole object and apply group reallocation to every
    /// level-1 node — an explicit defragmentation pass with the current
    /// threshold ("for more static objects … the larger the segment
    /// size the better the overall performance", §4.4).
    pub fn consolidate(&mut self, obj: &mut crate::LargeObject) -> Result<ConsolidateStats> {
        if self.durable_wal().is_some() {
            return self.with_autocommit(|s| {
                let stats = s.consolidate_inner(obj)?;
                s.log_touch(obj)?;
                Ok(stats)
            });
        }
        self.consolidate_inner(obj)
    }

    fn consolidate_inner(&mut self, obj: &mut crate::LargeObject) -> Result<ConsolidateStats> {
        let cap = self.node_cap();
        let t = self.effective_threshold(obj, 0).max(2);
        let mut total = ConsolidateStats::default();
        let mut root = obj.root.clone();
        let changed = self.consolidate_sub(&mut root, t, &mut total)?;
        if changed {
            obj.root = root;
            crate::tree::normalize_root(self, obj)?;
        }
        let _ = cap;
        self.paranoid_check(obj)?;
        Ok(total)
    }

    fn consolidate_sub(
        &mut self,
        node: &mut Node,
        t: u64,
        total: &mut ConsolidateStats,
    ) -> Result<bool> {
        if node.level == 1 {
            let before = node.entries.len();
            let s = consolidate_leaf_parent(self, node, t)?;
            total.runs_merged += s.runs_merged;
            total.segments_before += s.segments_before;
            total.segments_after += s.segments_after;
            return Ok(node.entries.len() != before);
        }
        // Recurse into every child, keeping the in-memory nodes so
        // children that consolidation leaves under half-full can be
        // merged or rotated with a sibling before write-out.
        let mut slots: Vec<(crate::node::Entry, Node, bool)> = Vec::new();
        let mut any = false;
        for e in std::mem::take(&mut node.entries) {
            let mut child = self.read_node(e.ptr)?;
            let changed = self.consolidate_sub(&mut child, t, total)?;
            any |= changed;
            slots.push((e, child, changed));
        }
        let min = crate::node::node_min(self.page_size());
        let cap = self.node_cap();
        loop {
            let pos = slots.iter().position(|(_, n, _)| n.entries.len() < min);
            let Some(i) = pos else { break };
            if slots.len() == 1 {
                break; // the root collapse will absorb it
            }
            let j = if i > 0 { i - 1 } else { i + 1 };
            let (a, b) = (i.min(j), i.max(j));
            let (eb, nb, _) = slots.remove(b);
            let (ea, na, _) = slots.remove(a);
            let level = na.level;
            let mut combined = na.entries;
            combined.extend(nb.entries);
            any = true;
            if combined.len() <= cap {
                self.free_node(eb.ptr)?;
                slots.insert(
                    a,
                    (
                        ea,
                        Node {
                            level,
                            entries: combined,
                        },
                        true,
                    ),
                );
            } else {
                let mut halves = crate::tree::split_even(&combined, 2).into_iter();
                slots.insert(
                    a,
                    (
                        ea,
                        Node {
                            level,
                            entries: halves.next().unwrap(),
                        },
                        true,
                    ),
                );
                slots.insert(
                    a + 1,
                    (
                        eb,
                        Node {
                            level,
                            entries: halves.next().unwrap(),
                        },
                        true,
                    ),
                );
            }
        }
        let mut entries = Vec::with_capacity(slots.len());
        for (e, child, changed) in slots {
            if changed {
                let page = self.write_node(Some(e.ptr), &child)?;
                entries.push(Entry {
                    bytes: child.total_bytes(),
                    ptr: page,
                });
            } else {
                entries.push(e);
            }
        }
        node.entries = entries;
        Ok(any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreConfig, Threshold};

    fn shattered(t: Threshold) -> (ObjectStore, crate::LargeObject, Vec<u8>) {
        let mut store = ObjectStore::in_memory_with(
            512,
            6000,
            StoreConfig {
                threshold: t,
                ..StoreConfig::default()
            },
        );
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let mut obj = store.create_with(&data, Some(data.len() as u64)).unwrap();
        let mut model = data;
        // Shatter with T=1-style tiny inserts.
        for i in 0..60u64 {
            let off = (i * 3331) % (model.len() as u64);
            store.insert(&mut obj, off, b"..").unwrap();
            model.splice(off as usize..off as usize, *b"..");
        }
        (store, obj, model)
    }

    #[test]
    fn explicit_consolidation_restores_clustering() {
        let (mut store, mut obj, model) = shattered(Threshold::Fixed(1));
        let before = store.object_stats(&obj).unwrap();
        // Raise the threshold, then consolidate.
        obj.set_threshold(Threshold::Fixed(16));
        let stats = store.consolidate(&mut obj).unwrap();
        let after = store.object_stats(&obj).unwrap();
        assert!(stats.runs_merged > 0, "nothing merged");
        assert!(
            after.segments < before.segments / 2,
            "segments {} -> {}",
            before.segments,
            after.segments
        );
        store.verify_object(&obj).unwrap();
        assert_eq!(store.read_all(&obj).unwrap(), model, "content preserved");
    }

    #[test]
    fn consolidation_frees_what_it_replaces() {
        let (mut store, mut obj, _) = shattered(Threshold::Fixed(1));
        obj.set_threshold(Threshold::Fixed(8));
        let used_before = store.buddy().total_data_pages() - store.buddy().total_free_pages();
        store.consolidate(&mut obj).unwrap();
        let used_after = store.buddy().total_data_pages() - store.buddy().total_free_pages();
        assert!(
            used_after <= used_before,
            "consolidation may only reduce used pages ({used_before} -> {used_after})"
        );
        store.verify_object(&obj).unwrap();
    }

    #[test]
    fn safe_segments_are_left_alone() {
        let mut store = ObjectStore::in_memory(512, 4000);
        let data = vec![3u8; 100_000];
        let mut obj = store.create_with(&data, Some(100_000)).unwrap();
        let before = store.object_stats(&obj).unwrap();
        let stats = store.consolidate(&mut obj).unwrap();
        assert_eq!(stats.runs_merged, 0);
        let after = store.object_stats(&obj).unwrap();
        assert_eq!(before.segments, after.segments);
    }
}
