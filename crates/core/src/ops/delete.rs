//! The delete operation (§4.3.2), with §4.4 page reshuffling.
//!
//! A range delete has two phases, exactly as in the paper:
//!
//! 1. **Leaf analysis** (Fig 7): locate the segment S holding the last
//!    kept byte on the left and the segment S′ holding the first kept
//!    byte on the right. S keeps its prefix **L** without being read;
//!    the kept bytes of S′'s boundary page Q move into a new segment
//!    **N** (the only leaf page the operation ever reads); the pages of
//!    S′ after Q stay in place as **R**. L, N and R are then reshuffled
//!    under the threshold T. Deletions that end on a page boundary —
//!    including truncation and whole-object deletion — create no N and
//!    touch no leaf page at all.
//! 2. **Tree surgery**: entire subtrees strictly inside the range are
//!    freed by reading index pages only ("without touching a single leaf
//!    segment"); the boundary entries are replaced by L/N/R; nodes that
//!    fall below half-full are merged or rotated with a sibling; finally
//!    the root is collapsed while it has a single index-node child.

use eos_pager::PageId;

use crate::error::{Error, Result};
use crate::node::{node_min, Entry, Node};
use crate::object::LargeObject;
use crate::reshuffle::reshuffle;
use crate::store::ObjectStore;
use crate::tree::{descend, free_subtree, leaf_entry, normalize_root, split_even};

pub(crate) fn run(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    len: u64,
) -> Result<()> {
    let size = obj.size();
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(Error::OutOfObjectBounds {
            offset,
            len,
            object_size: size,
        });
    }
    if len == 0 {
        return Ok(());
    }
    let (d0, d1) = (offset, offset + len);
    if d0 == 0 && d1 == size {
        // Deleting the entire object never touches a leaf segment.
        free_subtree(store, &obj.root)?;
        obj.root = Node::new(1);
        return Ok(());
    }

    let ps = store.ps();

    // ---- Phase 1: boundary analysis and data movement ------------------

    // Left boundary: the segment containing byte d0, when d0 falls
    // inside it. Its prefix of `l0` bytes survives as L.
    let left: Option<(Entry, u64)> = if d0 > 0 {
        let (path, rel) = descend(store, obj, d0)?;
        (rel > 0).then(|| (leaf_entry(&path), rel))
    } else {
        None
    };

    // Right boundary: the segment containing the last deleted byte; the
    // bytes after it survive as N (from the boundary page) and R.
    let (r_path, r_rel) = descend(store, obj, d1 - 1)?;
    let r_seg = leaf_entry(&r_path);
    let first_kept = r_rel + 1;
    let right: Option<(Entry, u64)> = (first_kept < r_seg.bytes).then_some((r_seg, first_kept));

    let same_segment = matches!((&left, &right), (Some((a, _)), Some((b, _))) if a.ptr == b.ptr);

    let l0 = left.map_or(0, |(_, rel)| rel);
    // (n0, r0, q, q_aligned): bytes for N and R, the boundary page
    // index, and whether the delete ends exactly on a page boundary.
    let (n0, r0, q, q_aligned) = match right {
        None => (0, 0, 0, true),
        Some((e, keep)) => {
            let q = keep / ps;
            let qb = keep % ps;
            if qb == 0 {
                (0, e.bytes - keep, q, true)
            } else {
                let page_q_bytes = (e.bytes - q * ps).min(ps);
                (
                    page_q_bytes - qb,
                    e.bytes.saturating_sub((q + 1) * ps),
                    q,
                    false,
                )
            }
        }
    };

    // Reshuffle under the threshold of the leaf parent receiving N.
    let parent_fill = r_path.last().expect("path").node.entries.len();
    let t = store.effective_threshold(obj, parent_fill);
    let plan = reshuffle(l0, n0, r0, ps, t, store.max_seg_pages());
    store.note_reshuffle(t, &plan);

    // Build and write N. Reads: L's donated tail (one call), then page Q
    // together with R's donated head (one contiguous call) — the paper's
    // worst case of two extra disk seeks.
    let mut n_entries: Vec<Entry> = Vec::new();
    if plan.n > 0 {
        let mut n_bytes = Vec::with_capacity(plan.n as usize);
        if plan.from_l > 0 {
            let (e, rel) = left.expect("from_l implies a left boundary");
            let lo_page = (rel - plan.from_l) / ps;
            let hi_page = (rel - 1) / ps;
            let src = store.read_leaf(e.ptr + lo_page, hi_page - lo_page + 1)?;
            let a = (rel - plan.from_l - lo_page * ps) as usize;
            n_bytes.extend_from_slice(&src[a..a + plan.from_l as usize]);
        }
        let (e, keep) = right.expect("n > 0 implies a right boundary");
        let hi_page = if plan.from_r > 0 {
            q + 1 + (plan.from_r - 1) / ps
        } else {
            q
        };
        let src = store.read_leaf(e.ptr + q, hi_page - q + 1)?;
        let a = (keep - q * ps) as usize;
        n_bytes.extend_from_slice(&src[a..a + n0 as usize]);
        if plan.from_r > 0 {
            let a = ps as usize; // R begins on the page after Q
            n_bytes.extend_from_slice(&src[a..a + plan.from_r as usize]);
        }
        debug_assert_eq!(n_bytes.len() as u64, plan.n);
        n_entries = super::rewrite::write_new_segments(store, &n_bytes)?;
    }

    // Free dead pages and assemble the per-segment replacement lists.
    let mut repl: Vec<(PageId, Vec<Entry>)> = Vec::new();
    if same_segment {
        // One segment loses its middle: keep the L′ prefix, free up to
        // where R′ resumes.
        let (e, _) = left.expect("same_segment");
        let s_pages = e.bytes.div_ceil(ps);
        let keep_l = plan.l.div_ceil(ps);
        let donated_r = if r0 > 0 && plan.r == 0 {
            s_pages - (q + 1)
        } else {
            plan.from_r / ps
        };
        let r_from = (if q_aligned { q } else { q + 1 }) + donated_r;
        if r_from > keep_l {
            store.free_pages(e.ptr + keep_l, r_from - keep_l)?;
        }
        let mut entries = Vec::new();
        if plan.l > 0 {
            entries.push(Entry {
                bytes: plan.l,
                ptr: e.ptr,
            });
        }
        entries.extend(n_entries);
        if plan.r > 0 {
            entries.push(Entry {
                bytes: plan.r,
                ptr: e.ptr + r_from,
            });
        }
        repl.push((e.ptr, entries));
    } else {
        if let Some((e, _)) = left {
            // "To delete all bytes of S on the right of P_b, we simply
            // decrement the counts in the parent of S and free all pages
            // of S on the right of P" — plus any tail pages donated to N.
            let s_pages = e.bytes.div_ceil(ps);
            let keep = plan.l.div_ceil(ps);
            if keep < s_pages {
                store.free_pages(e.ptr + keep, s_pages - keep)?;
            }
            let mut entries = Vec::new();
            if plan.l > 0 {
                entries.push(Entry {
                    bytes: plan.l,
                    ptr: e.ptr,
                });
            }
            repl.push((e.ptr, entries));
        }
        if let Some((e, _)) = right {
            let s_pages = e.bytes.div_ceil(ps);
            let donated_r = if r0 > 0 && plan.r == 0 {
                s_pages - (q + 1)
            } else {
                plan.from_r / ps
            };
            let r_from = (if q_aligned { q } else { q + 1 }) + donated_r;
            if r_from > 0 {
                store.free_pages(e.ptr, r_from)?;
            }
            let mut entries = n_entries;
            if plan.r > 0 {
                entries.push(Entry {
                    bytes: plan.r,
                    ptr: e.ptr + r_from,
                });
            }
            repl.push((e.ptr, entries));
        }
    }

    // ---- Phase 2: tree surgery ------------------------------------------

    let mut root = std::mem::replace(&mut obj.root, Node::new(1));
    delete_in_node(store, &mut root, d0, d1, &repl)?;
    obj.root = root;
    normalize_root(store, obj)?;
    // Fix any under-filled node left along the deletion seam (see
    // tree::repair_seam for the case the in-recursion repair misses).
    crate::tree::repair_seam(store, obj, d0)
}

/// A child of the node being edited: either an untouched entry or a
/// modified in-memory node awaiting write-out.
enum Slot {
    Done(Entry),
    Pending { old_page: PageId, node: Node },
}

impl Slot {
    fn entry_count(&self) -> Option<usize> {
        match self {
            Slot::Pending { node, .. } => Some(node.entries.len()),
            Slot::Done(_) => None,
        }
    }

    fn into_node(self, store: &ObjectStore) -> Result<(PageId, Node)> {
        match self {
            Slot::Done(e) => Ok((e.ptr, store.read_node(e.ptr)?)),
            Slot::Pending { old_page, node } => Ok((old_page, node)),
        }
    }
}

/// Recursively delete `[d0, d1)` (relative to this node's span) from the
/// subtree under `node`, splicing in the boundary replacements and
/// repairing under-filled children. The node is edited in place; the
/// caller writes it out (the root stays in the descriptor).
fn delete_in_node(
    store: &mut ObjectStore,
    node: &mut Node,
    d0: u64,
    d1: u64,
    repl: &[(PageId, Vec<Entry>)],
) -> Result<()> {
    let ps = store.ps();
    let mut slots: Vec<Slot> = Vec::with_capacity(node.entries.len());
    let mut acc = 0u64;
    for e in std::mem::take(&mut node.entries) {
        let (lo, hi) = (acc, acc + e.bytes);
        acc = hi;
        if hi <= d0 || lo >= d1 {
            slots.push(Slot::Done(e));
            continue;
        }
        if node.level == 1 {
            match repl.iter().find(|(ptr, _)| *ptr == e.ptr) {
                Some((_, entries)) => {
                    slots.extend(entries.iter().map(|&e| Slot::Done(e)));
                }
                None => {
                    // Fully covered segment: freed without being read.
                    store.free_pages(e.ptr, e.bytes.div_ceil(ps))?;
                }
            }
        } else if lo >= d0 && hi <= d1 {
            // Entire subtree inside the range.
            let child = store.read_node(e.ptr)?;
            free_subtree(store, &child)?;
            store.free_node(e.ptr)?;
        } else {
            let mut child = store.read_node(e.ptr)?;
            delete_in_node(
                store,
                &mut child,
                d0.saturating_sub(lo),
                (d1 - lo).min(e.bytes),
                repl,
            )?;
            if child.entries.is_empty() {
                store.free_node(e.ptr)?;
            } else {
                slots.push(Slot::Pending {
                    old_page: e.ptr,
                    node: child,
                });
            }
        }
    }

    // Repair under-filled boundary children by merging or rotating with
    // a sibling ("check if a node … has now less than the allowed number
    // of pairs and if so, merge or rotate with a sibling").
    let min = node_min(store.page_size());
    loop {
        let deficient = slots
            .iter()
            .position(|s| s.entry_count().is_some_and(|n| n < min));
        let Some(i) = deficient else { break };
        if slots.len() == 1 {
            break; // No sibling; the root collapse handles the rest.
        }
        // Prefer a sibling already in memory.
        let j = if i > 0 && (i + 1 >= slots.len() || matches!(slots[i - 1], Slot::Pending { .. })) {
            i - 1
        } else {
            i + 1
        };
        let (a, b) = (i.min(j), i.max(j));
        let right = slots.remove(b).into_node(store)?;
        let left = slots.remove(a).into_node(store)?;
        debug_assert_eq!(left.1.level, right.1.level);
        let level = left.1.level;
        let mut combined = left.1.entries;
        combined.extend(right.1.entries);
        if combined.len() <= store.node_cap() {
            // Merge: one node survives, the other page is freed.
            store.free_node(right.0)?;
            slots.insert(
                a,
                Slot::Pending {
                    old_page: left.0,
                    node: Node {
                        level,
                        entries: combined,
                    },
                },
            );
        } else {
            // Rotate: split the union evenly so both are ≥ half full.
            let mut halves = split_even(&combined, 2).into_iter();
            slots.insert(
                a,
                Slot::Pending {
                    old_page: left.0,
                    node: Node {
                        level,
                        entries: halves.next().unwrap(),
                    },
                },
            );
            slots.insert(
                a + 1,
                Slot::Pending {
                    old_page: right.0,
                    node: Node {
                        level,
                        entries: halves.next().unwrap(),
                    },
                },
            );
        }
    }

    // Write out pending children and collect the final entry list. A
    // child that took extra replacement entries may overflow its page:
    // write_split turns it into several half-full-or-better nodes.
    let mut entries = Vec::with_capacity(slots.len());
    for s in slots {
        match s {
            Slot::Done(e) => entries.push(e),
            Slot::Pending { old_page, node: n } => {
                entries.extend(crate::tree::write_split(store, Some(old_page), &n)?);
            }
        }
    }
    node.entries = entries;
    Ok(())
}
