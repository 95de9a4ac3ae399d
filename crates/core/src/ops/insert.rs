//! The insert operation (§4.3.1), with §4.4 page reshuffling.
//!
//! Inserting `Ic` bytes at byte `B` of segment S conceptually creates
//! three segments (Fig 6): **L** — the bytes of S left of the insertion
//! point (physically the unchanged prefix of S, including the partially
//! kept page P); **N** — a brand-new segment holding the inserted bytes
//! followed by the tail of page P (plus whatever reshuffling moves in);
//! **R** — the pages of S after P, kept in place. Existing leaf pages
//! are never overwritten; only the new segment is written and the index
//! is fixed (§4.5). The reshuffle, read, write, free and splice steps
//! live in [`super::rewrite`], shared with copy-on-write replace.

use super::rewrite::Fill;
use crate::error::{Error, Result};
use crate::object::LargeObject;
use crate::store::ObjectStore;
use crate::tree::descend;

pub(crate) fn run(
    store: &mut ObjectStore,
    obj: &mut LargeObject,
    offset: u64,
    data: &[u8],
) -> Result<()> {
    let size = obj.size();
    if offset > size {
        return Err(Error::OutOfObjectBounds {
            offset,
            len: data.len() as u64,
            object_size: size,
        });
    }
    if data.is_empty() {
        return Ok(());
    }
    if offset == size {
        // Insertion at the very end is an append.
        let mut s = super::append::AppendSession::open(store, obj, None)?;
        s.append(data)?;
        return s.close();
    }

    // Step 1: traverse the tree, saving the path.
    let (path, rel) = descend(store, obj, offset)?;
    // Steps 2–5: L is S up to the insertion point, N the inserted bytes
    // followed by the tail of the page P holding it, R the pages of S
    // after P (the paper's L/N/R arithmetic).
    super::rewrite::run(store, obj, path, rel, rel, Fill::Splice(data), offset)
}
