//! The §4.4 L/N/R rewrite of one leaf segment, shared by insert and
//! the copy-on-write side of replace.
//!
//! Both operations change a contiguous *window* of one segment S and
//! leave the rest of S alone, so both cut S into three pieces (Fig 6):
//! **L**, the bytes of S before the window, kept in place; **N**, the
//! window's new contents, written to a fresh extent; **R**, the whole
//! pages of S after the window, kept in place. The two differ only in
//! how N is built ([`Fill`]): insert splices its bytes in front of the
//! window's old bytes, replace lays its bytes over them.
//!
//! [`plan`] reshuffles the trio under the threshold T without any I/O
//! (the durable replace prices it against an in-place write);
//! [`execute`] then reads only the planned source range of S (the window plus whatever L and R donate
//! to N), writes N, frees the pages of S between L′ and R′ — deferred
//! behind the scope's release lock inside a transaction — and splices
//! `[L′, N…, R′]` into the leaf parent. Nothing committed is ever
//! overwritten: L′ and R′ stay shared with the committed root, so MVCC
//! pins, parked frees and crash safety work exactly as for any other
//! shadowed operation.

use crate::config::Threshold;
use crate::consolidate::consolidate_leaf_parent;
use crate::error::{Error, Result};
use crate::node::Entry;
use crate::object::LargeObject;
use crate::reshuffle::{reshuffle, ReshufflePlan};
use crate::store::ObjectStore;
use crate::tree::{propagate, repair_seam, PathStep};

/// How the new segment N is built from the window's old bytes.
#[derive(Clone, Copy)]
pub(crate) enum Fill<'a> {
    /// Insert: the bytes go in front of the window's old bytes.
    Splice(&'a [u8]),
    /// Replace: the bytes overwrite the window's old bytes, starting
    /// `at` bytes into the window.
    Overlay { at: u64, data: &'a [u8] },
}

/// A reshuffled L/N/R trio for one window of a segment S, before any
/// I/O: what [`execute`] will read, write and free.
#[derive(Clone, Copy)]
pub(crate) struct Plan {
    /// The segment S being rewritten.
    s: Entry,
    /// First byte of the window in S (the bytes before it are L).
    l0: u64,
    /// First byte of R: the page boundary after the window.
    r_start: u64,
    /// The effective threshold the trio was reshuffled under.
    t: u64,
    plan: ReshufflePlan,
}

impl Plan {
    /// Pages the new segment(s) N will occupy — the rewrite's device
    /// cost in data pages.
    pub(crate) fn new_pages(&self, ps: u64) -> u64 {
        self.plan.n.div_ceil(ps)
    }
}

/// Plan the rewrite of a window of the segment S the finished descent
/// `path` points at: from byte `l0` of S (the bytes before it stay as
/// L) through the end of the page holding byte `last` (the pages after
/// it stay as R).
pub(crate) fn plan(
    store: &ObjectStore,
    obj: &LargeObject,
    path: &[PathStep],
    l0: u64,
    last: u64,
    fill: Fill<'_>,
) -> Result<Plan> {
    let ps = store.ps();
    let step = path.last().ok_or_else(|| corrupt("empty descent path"))?;
    let s = step
        .node
        .entries
        .get(step.child)
        .copied()
        .ok_or_else(|| corrupt("descent path points past its node"))?;
    if l0 > last || last >= s.bytes {
        return Err(corrupt("rewrite window outside its segment"));
    }
    let r_start = ((last / ps + 1) * ps).min(s.bytes);
    let r0 = s.bytes - r_start;
    let n0 = match fill {
        Fill::Splice(data) => r_start - l0 + data.len() as u64,
        Fill::Overlay { .. } => r_start - l0,
    };
    let t = store.effective_threshold(obj, step.node.entries.len());
    let plan = reshuffle(l0, n0, r0, ps, t, store.max_seg_pages());
    Ok(Plan {
        s,
        l0,
        r_start,
        t,
        plan,
    })
}

/// Plan and execute the rewrite of one window ([`plan`], [`execute`]).
pub(crate) fn run(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    path: Vec<PathStep>,
    l0: u64,
    last: u64,
    fill: Fill<'_>,
    seam: u64,
) -> Result<()> {
    let planned = plan(store, obj, &path, l0, last, fill)?;
    execute(store, obj, path, planned, fill, seam)
}

/// Execute a [`plan`]: build and write N, free the pages of S between
/// L′ and R′ and splice `[L′, N…, R′]` into the leaf parent. `seam` is
/// an object offset inside S, where the tree is repaired if the
/// Adaptive-T group reallocation left the leaf parent under half full.
pub(crate) fn execute(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    mut path: Vec<PathStep>,
    planned: Plan,
    fill: Fill<'_>,
    seam: u64,
) -> Result<()> {
    let ps = store.ps();
    let Plan {
        s,
        l0,
        r_start,
        t,
        plan,
    } = planned;
    store.note_reshuffle(t, &plan);

    // Read the planned source range of S — L's donated tail, the
    // window, R's donated head — in one contiguous call, and build N.
    let lo = l0 - plan.from_l;
    let hi = r_start + plan.from_r;
    let lo_page = lo / ps;
    let src = store.read_leaf(s.ptr + lo_page, hi.div_ceil(ps) - lo_page)?;
    let part = |a: u64, b: u64| {
        src.get((a - lo_page * ps) as usize..(b - lo_page * ps) as usize)
            .ok_or_else(|| corrupt("source range outside the read pages"))
    };
    let mut n_bytes = Vec::with_capacity(plan.n as usize);
    n_bytes.extend_from_slice(part(lo, l0)?);
    if let Fill::Splice(data) = fill {
        n_bytes.extend_from_slice(data);
    }
    n_bytes.extend_from_slice(part(l0, hi)?);
    if let Fill::Overlay { at, data } = fill {
        let a = (plan.from_l + at) as usize;
        n_bytes
            .get_mut(a..a + data.len())
            .ok_or_else(|| corrupt("replaced bytes overrun the rewrite window"))?
            .copy_from_slice(data);
    }
    if n_bytes.len() as u64 != plan.n {
        return Err(corrupt("new segment size disagrees with its plan"));
    }
    let n_entries = write_new_segments(store, &n_bytes)?;

    // L′ keeps its leading pages and R′ its trailing ones (R′ starts
    // where the source range ended, on a page boundary); free the one
    // contiguous run between them.
    let keep_l = plan.l.div_ceil(ps);
    let r_from = if plan.r > 0 {
        hi / ps
    } else {
        s.bytes.div_ceil(ps)
    };
    if r_from > keep_l {
        store.free_pages(s.ptr + keep_l, r_from - keep_l)?;
    }

    // Fix the parent with entries for L′, N, R′ (sizes > 0) and
    // propagate counts and pointers to the root.
    let mut repl = Vec::with_capacity(2 + n_entries.len());
    if plan.l > 0 {
        repl.push(Entry {
            bytes: plan.l,
            ptr: s.ptr,
        });
    }
    repl.extend(n_entries);
    if plan.r > 0 {
        repl.push(Entry {
            bytes: plan.r,
            ptr: s.ptr + r_from,
        });
    }
    let bottom = path
        .last_mut()
        .ok_or_else(|| corrupt("empty descent path"))?;
    bottom
        .node
        .entries
        .splice(bottom.child..bottom.child + 1, repl);
    // [Bili91a] group reallocation: under the adaptive policy, if the
    // new entries are about to split the parent, first merge adjacent
    // unsafe segments — often the node then fits again.
    let consolidated = if bottom.node.entries.len() > store.node_cap()
        && matches!(obj.threshold(), Threshold::Adaptive { .. })
    {
        consolidate_leaf_parent(store, &mut bottom.node, t)?.runs_merged > 0
    } else {
        false
    };
    propagate(store, obj, path)?;
    if consolidated {
        // Consolidation may have left the node under half full.
        repair_seam(store, obj, seam)?;
    }
    Ok(())
}

/// Allocate and write `bytes` as one segment, or several maximum-size
/// segments when it exceeds the largest the buddy system hands out
/// (also used by the delete executor for its new segment N, and by
/// group reallocation).
pub(crate) fn write_new_segments(store: &mut ObjectStore, bytes: &[u8]) -> Result<Vec<Entry>> {
    let ps = store.ps();
    let max_bytes = (store.max_seg_pages() * ps) as usize;
    let mut out = Vec::with_capacity(bytes.len().div_ceil(max_bytes));
    for chunk in bytes.chunks(max_bytes) {
        let pages = (chunk.len() as u64).div_ceil(ps);
        let ext = store.alloc_extent(pages)?;
        let mut buf = chunk.to_vec();
        buf.resize((pages * ps) as usize, 0);
        store.volume().write_pages(ext.start, &buf)?;
        out.push(Entry {
            bytes: chunk.len() as u64,
            ptr: ext.start,
        });
    }
    Ok(out)
}

fn corrupt(reason: &str) -> Error {
    Error::CorruptObject {
        reason: reason.into(),
    }
}
