//! Striped write-ahead logging: N independent [`DurableWal`] regions
//! forced in parallel.
//!
//! A single log region serializes every commit force behind one mutex;
//! the paper's multi-space layout (§3) makes the natural shard: objects
//! hash by id onto a **stripe**, each stripe owns a contiguous slice of
//! the log region and its own [`DurableWal`], and commits whose objects
//! live on disjoint stripes force concurrently — each stripe's force
//! holds only that stripe's latch while the volume barrier runs.
//!
//! ```text
//! log region (pages)
//! ├── stripe 0:  [sb A][sb B][half 0 …][half 1 …]
//! ├── stripe 1:  [sb A][sb B][half 0 …][half 1 …]   ⇐ pages/N each
//! └── …                                               (format-anchor in
//!                                                      FORMAT.md §WAL)
//! ```
//!
//! **LSNs are global.** One atomic counter hands out LSNs across all
//! stripes, so recovery can merge the stripes' records into a single
//! total order — the stripe is a placement decision, not a logical one.
//!
//! **Cross-stripe commits** (a scope touching objects on more than one
//! stripe) write one [`WalEntry::Commit`] *part* per participating
//! stripe, every part stamped with the same scope, the same fresh LSN,
//! and the participant count. A part only becomes true once all its
//! siblings are durable: live appends resolve the parts after the last
//! one lands; a restart counts surviving parts per scope and resolves
//! the scope only when all `participants` survived, else presumes abort
//! (its redo is never replayed). Because each *object* maps to exactly one stripe, its root
//! history lives on one stripe and the per-stripe `committed_lsn` guard
//! keeps a late-resolved older part from clobbering a newer root.
//!
//! With `stripes = 1` (the default) the single stripe occupies the
//! whole region in the exact layout earlier versions wrote — striping
//! is purely additive.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use eos_obs::Metrics;
use eos_pager::{PageId, SharedVolume};
use parking_lot::{LockClass, TrackedMutex};

use crate::durable::{DurableWal, Redo, RedoStep, WalEntry};
use crate::error::{Error, Result};
use crate::locks::TxnId;

/// N log stripes over one region, each an independent [`DurableWal`].
/// All methods take `&self`: per-stripe state lives behind the stripe
/// latches, LSNs behind an atomic, so the store can hand out an `Arc`
/// and commit forces never queue on the store latch.
pub struct StripedWal {
    // lock-class: stripes = wal.stripe rank = 55 io = allowed
    stripes: Vec<TrackedMutex<DurableWal>>,
    // lock-class: scopes = wal.scopes rank = 54 io = forbidden
    /// Which stripes hold uncommitted entries of each open scope. This
    /// is the routing index `append_commit`, the `Abort` fan-out, and
    /// [`Self::has_pending_for`] consult so that none of them has to
    /// *scan the stripes*: a stripe latch may legitimately be held
    /// across a volume force (io = allowed), and a commit that polls
    /// every stripe's latch to find its participants queues behind
    /// every in-flight force — serializing the pipeline right back
    /// into the single-latch shape this module exists to break.
    scopes: TrackedMutex<BTreeMap<TxnId, BTreeSet<usize>>>,
    /// Global LSN allocator — `next_lsn` is the next value handed out.
    next_lsn: AtomicU64,
}

impl StripedWal {
    fn stripe_mutex(wal: DurableWal) -> TrackedMutex<DurableWal> {
        TrackedMutex::new(LockClass::allows_io("wal.stripe"), wal)
    }

    fn scopes_map(
        seed: BTreeMap<TxnId, BTreeSet<usize>>,
    ) -> TrackedMutex<BTreeMap<TxnId, BTreeSet<usize>>> {
        TrackedMutex::new(LockClass::forbids_io("wal.scopes"), seed)
    }

    /// Record that `txn` has an uncommitted entry on `stripe`. Called
    /// *before* the stripe append: a failed append then leaves a stale
    /// stripe in the set, which at worst routes one extra (empty)
    /// commit part or abort record there — harmless, and cleaned up
    /// when the scope resolves.
    fn note_scope(&self, txn: TxnId, stripe: usize) {
        self.scopes.lock().entry(txn).or_default().insert(stripe);
    }

    /// Split `pages` at `base` into `stripes` equal slices and format a
    /// fresh [`DurableWal`] in each. `stripes` is clamped to at least 1
    /// and each slice must still clear the per-log minimum.
    pub fn format(
        volume: &SharedVolume,
        base: PageId,
        pages: u64,
        stripes: usize,
    ) -> Result<StripedWal> {
        let n = stripes.max(1) as u64;
        let per = pages / n;
        let mut slices = Vec::with_capacity(n as usize);
        for r in 0..n {
            let mut wal = DurableWal::format(volume.clone(), base + r * per, per)?;
            wal.set_stripe(r);
            slices.push(Self::stripe_mutex(wal));
        }
        Ok(StripedWal {
            stripes: slices,
            scopes: Self::scopes_map(BTreeMap::new()),
            next_lsn: AtomicU64::new(1),
        })
    }

    /// Attach to an existing striped region: attach each slice, then
    /// settle the cross-stripe commits — a scope whose surviving parts
    /// number `participants` is resolved (its roots become committed on
    /// every part's stripe); any other count presumes abort and voids
    /// the parts, leaving the scope's other entries pending for the
    /// caller to discard.
    pub fn attach(
        volume: &SharedVolume,
        base: PageId,
        pages: u64,
        stripes: usize,
    ) -> Result<StripedWal> {
        let n = stripes.max(1) as u64;
        let per = pages / n;
        let mut slices = Vec::with_capacity(n as usize);
        let mut max_lsn = 0u64;
        // txn → (declared participant count, stripes holding a part).
        let mut parts: BTreeMap<TxnId, (u32, Vec<usize>)> = BTreeMap::new();
        for r in 0..n {
            let mut wal = DurableWal::attach(volume.clone(), base + r * per, per)?;
            wal.set_stripe(r);
            max_lsn = max_lsn.max(wal.last_lsn());
            for (txn, participants) in wal.unresolved_commits() {
                let slot = parts.entry(txn).or_insert((participants, Vec::new()));
                if slot.0 != participants {
                    return Err(Error::CorruptObject {
                        reason: format!(
                            "cross-stripe commit of scope {txn}: parts disagree on \
                             participant count ({} vs {participants})",
                            slot.0
                        ),
                    });
                }
                slot.1.push(r as usize);
            }
            slices.push(Self::stripe_mutex(wal));
        }
        for (txn, (participants, present)) in parts {
            let complete = present.len() as u32 == participants;
            for r in present {
                let mut w = slices[r].lock();
                if complete {
                    w.resolve_txn(txn);
                } else {
                    w.drop_txn(txn);
                }
            }
        }
        // Seed the scope index from what survived the scan: the pending
        // entries of a live scope still need their Abort records routed
        // to the right stripes.
        let mut scopes: BTreeMap<TxnId, BTreeSet<usize>> = BTreeMap::new();
        for (r, stripe) in slices.iter().enumerate() {
            let w = stripe.lock();
            for entry in w.pending() {
                if let Some(txn) = entry.txn() {
                    scopes.entry(txn).or_default().insert(r);
                }
            }
        }
        Ok(StripedWal {
            stripes: slices,
            scopes: Self::scopes_map(scopes),
            next_lsn: AtomicU64::new(max_lsn + 1),
        })
    }

    /// How many stripes this log runs.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe an object's log traffic lands on.
    pub fn stripe_of(&self, object: u64) -> usize {
        (object % self.stripes.len() as u64) as usize
    }

    /// Hand out the next LSN (monotonically increasing, starting at 1,
    /// global across stripes).
    pub fn allocate_lsn(&self) -> u64 {
        self.next_lsn.fetch_add(1, Ordering::Relaxed)
    }

    /// The highest LSN handed out so far; 0 if none.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed) - 1
    }

    /// Append one entry durably on the stripe it belongs to: Op/Touch
    /// entries go to their object's stripe, an Abort to every stripe
    /// holding entries of its scope, a Checkpoint to stripe 0. Commit
    /// entries must go through [`Self::append_commit`], which knows how
    /// to split them.
    pub fn append(&self, entry: WalEntry) -> Result<()> {
        match entry {
            WalEntry::LegacyUndo { .. } => Err(Error::Unsupported {
                op: "wal append",
                reason: "v4 undo-image entries are read-only".into(),
            }),
            WalEntry::Touch { txn, object, .. } => {
                let s = self.stripe_of(object);
                self.note_scope(txn, s);
                self.stripes[s].lock().append(entry)
            }
            WalEntry::Commit {
                txn,
                lsn,
                touched,
                deleted,
                redo,
                freed,
                ..
            } => {
                // Redo without an owning object routes to stripe 0.
                let redo = redo.into_iter().map(|r| (0, r)).collect();
                self.append_commit(txn, lsn, touched, deleted, redo, &freed)
                    .map(|_| ())
            }
            WalEntry::Abort { txn, lsn } => {
                let homes = self.scopes.lock().remove(&txn).unwrap_or_default();
                if homes.is_empty() {
                    return self.stripes[0].lock().append(WalEntry::Abort { txn, lsn });
                }
                for &s in &homes {
                    self.stripes[s]
                        .lock()
                        .append(WalEntry::Abort { txn, lsn })?;
                }
                Ok(())
            }
            WalEntry::Checkpoint { .. } => self.stripes[0].lock().append(entry),
        }
    }

    /// Append a scope's commit point, split per stripe, and return the
    /// participating stripes (the set [`Self::sync_stripes`] must force
    /// before the commit is reported durable). Participants are every
    /// stripe holding a root part, a redo part *or* a pending entry of
    /// the scope; for a single participant the part self-commits on
    /// append, for several each part is held until all have landed,
    /// then resolved — so a crash between the appends presumes abort on
    /// restart. Redo is `(object id, record)`, routed to the object's
    /// stripe; every part gets the `freed` extents, and each stripe
    /// keeps only those overlapping its own redo (a page with redo is
    /// freed by a scope touching the object that wrote it, whose stripe
    /// therefore participates).
    pub fn append_commit(
        &self,
        txn: TxnId,
        lsn: u64,
        touched: Vec<(u64, Vec<u8>)>,
        deleted: Vec<u64>,
        redo: Vec<(u64, Redo)>,
        freed: &[(PageId, u64)],
    ) -> Result<Vec<usize>> {
        let n = self.stripes.len();
        let mut touched_parts: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); n];
        for (id, desc) in touched {
            touched_parts[self.stripe_of(id)].push((id, desc));
        }
        let mut deleted_parts: Vec<Vec<u64>> = vec![Vec::new(); n];
        for id in deleted {
            deleted_parts[self.stripe_of(id)].push(id);
        }
        let mut redo_parts: Vec<Vec<Redo>> = vec![Vec::new(); n];
        for (id, r) in redo {
            redo_parts[self.stripe_of(id)].push(r);
        }
        // Participants come from the scope index, never from polling
        // the stripe latches: a poll would block behind every stripe
        // latch currently held across a force, re-serializing commits
        // the stripes are meant to decouple.
        let homes = self.scopes.lock().get(&txn).cloned().unwrap_or_default();
        let mut participating: Vec<usize> = (0..n)
            .filter(|&s| {
                !touched_parts[s].is_empty()
                    || !deleted_parts[s].is_empty()
                    || !redo_parts[s].is_empty()
                    || homes.contains(&s)
            })
            .collect();
        if participating.is_empty() {
            participating.push(0);
        }
        let participants = participating.len() as u32;
        for (at, &s) in participating.iter().enumerate() {
            let entry = WalEntry::Commit {
                txn,
                lsn,
                participants,
                touched: std::mem::take(&mut touched_parts[s]),
                deleted: std::mem::take(&mut deleted_parts[s]),
                redo: std::mem::take(&mut redo_parts[s]),
                freed: freed.to_vec(),
            };
            let appended = match self.stripes.get(s) {
                Some(stripe) => stripe.lock().append(entry),
                None => Err(Error::CorruptObject {
                    reason: format!("commit part routed to missing stripe {s}"),
                }),
            };
            if let Err(e) = appended {
                // Void the parts already down: recovery would presume
                // abort on the incomplete set anyway, and the in-memory
                // view must agree with that verdict now.
                for &prior in &participating[..at] {
                    self.stripes[prior].lock().drop_txn(txn);
                }
                return Err(e);
            }
        }
        if participants > 1 {
            for &s in &participating {
                self.stripes[s].lock().resolve_txn(txn);
            }
        }
        self.scopes.lock().remove(&txn);
        Ok(participating)
    }

    /// Force everything appended so far to stable storage. Stripe 0's
    /// latch stands in for the whole log: any one stripe's force
    /// barriers the volume, and callers without a stripe set (format,
    /// recovery, solo barriers) don't contend with anyone.
    pub fn sync(&self) -> Result<()> {
        let stripe = self.stripes[0].lock();
        // `wal.stripe` is io = allowed (§13): holding the stripe's own
        // latch across its force is the design — it serializes forces
        // *per stripe* while other stripes' forces proceed.
        stripe.sync() // lint: allow(latch, reason = "wal.stripe is io=allowed; the guard covers only this stripe's force")
    }

    /// Force the named stripes — the per-stripe commit barrier. Each
    /// stripe's force holds only that stripe's latch, so forces for
    /// disjoint stripes overlap; two commits on the same stripe
    /// serialize there, preserving the one-barrier-then-one-force
    /// ordering per stripe.
    pub fn sync_stripes(&self, stripes: &[usize]) -> Result<()> {
        for &s in stripes {
            let stripe = self.stripes[s].lock();
            // durability: seals(commit-frame)
            stripe.sync()?; // lint: allow(latch, reason = "wal.stripe is io=allowed; the guard covers only this stripe's force")
        }
        Ok(())
    }

    /// Does `txn` have uncommitted entries on any stripe? Answered from
    /// the scope index (no stripe latch touched — this runs on the
    /// commit path's dirty check, concurrently with other stripes'
    /// forces). Conservative by one append: a scope whose only append
    /// *failed* still reads as pending until it commits or aborts.
    pub fn has_pending_for(&self, txn: TxnId) -> bool {
        self.scopes.lock().contains_key(&txn)
    }

    /// The uncommitted entries of one scope, merged across stripes in
    /// global LSN order.
    pub fn pending_for(&self, txn: TxnId) -> Vec<WalEntry> {
        let mut out: Vec<WalEntry> = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().pending_for(txn).cloned());
        }
        out.sort_by_key(WalEntry::lsn);
        out
    }

    /// The uncommitted tail across all scopes and stripes, in global
    /// LSN order — what a restart discards.
    pub fn pending(&self) -> Vec<WalEntry> {
        let mut out: Vec<WalEntry> = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().pending().iter().cloned());
        }
        out.sort_by_key(WalEntry::lsn);
        out
    }

    /// Drop the uncommitted tail and the unapplied redo from the
    /// in-memory view of every stripe (recovery calls this after its
    /// redo pass).
    pub(crate) fn clear_pending(&self) {
        for stripe in &self.stripes {
            stripe.lock().clear_pending();
        }
        self.scopes.lock().clear();
    }

    /// The committed root map, merged across stripes. Each object's
    /// root lives on exactly one stripe (its home), so the union is
    /// disjoint.
    pub fn committed(&self) -> BTreeMap<u64, Vec<u8>> {
        let mut out = BTreeMap::new();
        for stripe in &self.stripes {
            out.extend(
                stripe
                    .lock()
                    .committed()
                    .iter()
                    .map(|(k, v)| (*k, v.clone())),
            );
        }
        out
    }

    /// The committed root of `object` (`None`: never created, or
    /// deleted), read from its home stripe.
    pub(crate) fn committed_root(&self, object: u64) -> Option<Vec<u8>> {
        let stripe = self.stripes.get(self.stripe_of(object))?;
        stripe.lock().committed().get(&object).cloned()
    }

    /// The redo and freed-extent steps of every stripe's active half,
    /// merged in global LSN order (steps of one commit keep their
    /// order) — the input of recovery's redo pass.
    pub(crate) fn redo_steps(&self) -> Vec<(u64, RedoStep)> {
        let mut out: Vec<(u64, RedoStep)> = Vec::new();
        for stripe in &self.stripes {
            out.extend(stripe.lock().redo_steps().iter().cloned());
        }
        out.sort_by_key(|(lsn, _)| *lsn);
        out
    }

    /// The in-place write of `txn`'s redo, logged on `stripes`, has
    /// been issued: checkpoints stop carrying it.
    pub(crate) fn mark_applied(&self, txn: TxnId, stripes: &[usize]) {
        for &s in stripes {
            if let Some(stripe) = self.stripes.get(s) {
                stripe.lock().mark_applied(txn);
            }
        }
    }

    /// Fail every stripe until reopen ([`Error::LogFailed`]): a commit
    /// whose outcome only restart recovery can settle must not be
    /// followed by commits that build on the volume as it is.
    pub(crate) fn fail(&self, reason: &str) {
        for stripe in &self.stripes {
            stripe.lock().fail(reason);
        }
    }

    /// Highest object id mentioned anywhere in the log.
    pub fn max_object_id(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.lock().max_object_id())
            .max()
            .unwrap_or(0)
    }

    /// Total records the attach scans replayed.
    pub fn records_scanned(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.lock().records_scanned())
            .sum()
    }

    /// Did any stripe's attach scan cut a torn tail?
    pub fn torn_tail(&self) -> bool {
        self.stripes.iter().any(|s| s.lock().torn_tail())
    }

    /// Checkpoints taken since attach/format, all stripes.
    pub fn checkpoints_taken(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.lock().checkpoints_taken())
            .sum()
    }

    /// Bytes of active halves already used by records, all stripes.
    pub fn bytes_used(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().bytes_used()).sum()
    }

    /// Checkpoint every stripe (flip halves, drop dead records).
    pub fn checkpoint(&self) -> Result<()> {
        for stripe in &self.stripes {
            stripe.lock().checkpoint()?;
        }
        Ok(())
    }

    /// Wire every stripe's instruments into `metrics`.
    pub(crate) fn set_metrics(&self, metrics: &Metrics) {
        for stripe in &self.stripes {
            stripe.lock().set_metrics(metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_pager::{DiskProfile, MemVolume};

    fn vol(pages: u64) -> SharedVolume {
        MemVolume::with_profile(512, pages, DiskProfile::FREE).shared()
    }

    fn commit_one(wal: &StripedWal, txn: TxnId, object: u64, tag: u8) -> Vec<usize> {
        let lsn = wal.allocate_lsn();
        wal.append_commit(
            txn,
            lsn,
            vec![(object, vec![tag; 4])],
            Vec::new(),
            Vec::new(),
            &[],
        )
        .unwrap()
    }

    #[test]
    fn entries_route_to_their_objects_stripe() {
        let v = vol(64);
        let wal = StripedWal::format(&v, 0, 32, 4).unwrap();
        assert_eq!(wal.num_stripes(), 4);
        for object in 0..8u64 {
            let lsn = wal.allocate_lsn();
            wal.append(WalEntry::Touch {
                txn: object,
                lsn,
                object,
                root_after: vec![0xAA],
            })
            .unwrap();
        }
        // Each object's entry is pending on exactly its home stripe.
        for object in 0..8u64 {
            let home = wal.stripe_of(object);
            assert_eq!(home, (object % 4) as usize);
            let pend = wal.pending_for(object);
            assert_eq!(pend.len(), 1);
        }
        // Commits route home too, and the merged committed map sees all.
        for object in 0..8u64 {
            let stripes = commit_one(&wal, object, object, object as u8);
            assert_eq!(stripes, vec![wal.stripe_of(object)]);
        }
        assert_eq!(wal.committed().len(), 8);
        assert!(!wal.has_pending_for(3));
    }

    #[test]
    fn cross_stripe_commit_survives_reattach_when_all_parts_landed() {
        let v = vol(64);
        let base = 0;
        let pages = 32;
        {
            let wal = StripedWal::format(&v, base, pages, 2).unwrap();
            let lsn = wal.allocate_lsn();
            // Objects 4 and 5 live on stripes 0 and 1: two parts.
            let stripes = wal
                .append_commit(
                    7,
                    lsn,
                    vec![(4, vec![1]), (5, vec![2])],
                    Vec::new(),
                    Vec::new(),
                    &[],
                )
                .unwrap();
            assert_eq!(stripes, vec![0, 1]);
            assert_eq!(wal.committed().len(), 2);
            wal.sync().unwrap();
        }
        let wal = StripedWal::attach(&v, base, pages, 2).unwrap();
        let committed = wal.committed();
        assert_eq!(committed.get(&4), Some(&vec![1]));
        assert_eq!(committed.get(&5), Some(&vec![2]));
        assert!(wal.pending().is_empty());
    }

    #[test]
    fn incomplete_cross_stripe_commit_is_presumed_aborted() {
        let v = vol(64);
        let base = 0;
        let pages = 32;
        {
            let wal = StripedWal::format(&v, base, pages, 2).unwrap();
            let lsn = wal.allocate_lsn();
            // Forge the crash window: only stripe 0's part lands.
            wal.stripes[0]
                .lock()
                .append(WalEntry::Commit {
                    txn: 9,
                    lsn,
                    participants: 2,
                    touched: vec![(4, vec![1])],
                    deleted: Vec::new(),
                    redo: Vec::new(),
                    freed: Vec::new(),
                })
                .unwrap();
            wal.sync().unwrap();
        }
        let wal = StripedWal::attach(&v, base, pages, 2).unwrap();
        // The lone part is void: nothing committed, nothing pending
        // (the part carried no other entries).
        assert!(wal.committed().is_empty());
        assert!(wal.pending().is_empty());
    }

    #[test]
    fn single_stripe_layout_matches_unstriped_log() {
        let v = vol(64);
        {
            let wal = StripedWal::format(&v, 0, 32, 1).unwrap();
            commit_one(&wal, 1, 10, 0xCC);
            wal.sync().unwrap();
        }
        // The plain DurableWal attaches to the same region and sees the
        // same state: stripes=1 is byte-identical to the unstriped log.
        let plain = DurableWal::attach(v, 0, 32).unwrap();
        assert_eq!(plain.committed().get(&10), Some(&vec![0xCC; 4]));
    }
}
