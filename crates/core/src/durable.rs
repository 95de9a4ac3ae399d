//! The durable write-ahead log (§4.5, made persistent).
//!
//! [`crate::wal::Wal`] implements the paper's *logical* logging and
//! idempotent redo/undo in memory; this module puts the log on the
//! volume itself so it survives a power loss. A store formatted with
//! [`crate::ObjectStore::create_durable`] reserves a **log region** of
//! pages right after the buddy spaces:
//!
//! ```text
//! page base+0   superblock slot A ─┐ dual slots, epoch-versioned,
//! page base+1   superblock slot B ─┘ CRC-sealed (torn-write safe)
//! page base+2 …          log half 0 ─┐ records live in one half; a
//! page base+2+H …        log half 1 ─┘ checkpoint flips to the other
//! ```
//!
//! Records are framed `[len u32][epoch u32][crc32 u32][payload]` and
//! terminated by a zero length word. The epoch stamp is the half's
//! occupancy epoch: after a flip the inactive half still holds
//! CRC-valid frames from its previous occupancy, and without the stamp
//! a crash that persists a new frame's leading pages but not its
//! terminator could let the scan run off the new frame onto a stale
//! one, replaying a phantom record. The scan cuts the log at the first
//! frame whose length overruns the half, whose epoch is not the active
//! half's, whose CRC (sealing epoch + payload) mismatches, or whose
//! payload fails to parse — that is the **torn tail**: the prefix
//! before it is exactly the set of records whose writes completed
//! before the power died, because every append goes to disk before
//! [`DurableWal::append`] returns (pages are written front to back, so
//! a power loss always leaves a record prefix plus at most one torn
//! frame).
//!
//! The **commit point** is the append (plus fsync) of a
//! [`WalEntry::Commit`] record carrying the serialized root descriptors
//! of every object the transaction touched, tombstones for the ones it
//! deleted, and the physical **redo records** ([`Redo`]) of its in-place
//! leaf writes (§4.2 replace). Those writes reach their pages only
//! after the record is durable (no-steal), so the log never needs undo:
//! everything else on the volume — leaf segments, shadowed index pages,
//! buddy directories — is reconstructible from the descriptors, and the
//! in-place pages from the redo, which is what restart recovery
//! ([`crate::ObjectStore::open_durable`]) does.
//!
//! Checkpointing uses the classic dual-half scheme: the live root map is
//! written as a single [`WalEntry::Checkpoint`] record at the start of
//! the *inactive* half — together with the redo of every commit whose
//! in-place write has not been issued yet, and followed by any
//! still-pending uncommitted records, which must survive the flip —
//! and then the superblock is
//! rewritten with a bumped epoch to point at it. A crash anywhere in
//! between leaves the old superblock — and therefore the old, complete
//! half — in force.

// The write-ordering contract this module anchors (rule L6, DESIGN.md
// §15). Roots first, then the classes whose safety hangs on them:
//
// durability-class: shadow-data requires = none
// durability-class: commit-frame requires = shadow-data
// durability-class: committed-page requires = commit-frame
// durability-class: superblock requires = shadow-data

use std::collections::{BTreeMap, BTreeSet};

use eos_obs::{Counter, Metrics, OpKind, PipeKind};
use eos_pager::{PageId, SharedVolume};

use crate::codec;
use crate::error::{Error, Result};
use crate::locks::TxnId;
use crate::wal::{put_bytes, Reader};

/// Magic tag of a log superblock ("EOSW").
const SB_MAGIC: u32 = 0x454F_5357; // format-anchor: SB_MAGIC
/// On-disk format version of the log region (v2 added the epoch stamp
/// to every frame header; v3 stamps every Op/Touch/Commit/Abort entry
/// with its transaction scope so concurrent scopes can commit and roll
/// back independently; v4 adds the `participants` count to commit
/// records so a commit split across WAL stripes resolves atomically;
/// v5 adds redo records and freed extents to commit records and carried
/// redo to checkpoints, and no longer writes undo-image Op entries).
const SB_VERSION: u32 = 5; // format-anchor: SB_VERSION
/// The previous format version, still attached: its commit records
/// decode as v5 records without redo, and a pending undo-image entry
/// is refused ([`Error::LegacyUndoLog`]) rather than rolled back.
const SB_VERSION_V4: u32 = 4; // format-anchor: SB_VERSION_V4
/// Serialized superblock length: magic 4 + version 4 + epoch 8 +
/// active 1 + crc 4.
const SB_LEN: usize = 21; // format-anchor: SB_LEN
/// Frame header: length (4) + epoch (4) + CRC-32 (4).
const FRAME_HEADER: u64 = 12; // format-anchor: FRAME_HEADER
/// Smallest usable log region: 2 superblock pages + 1 page per half.
const MIN_LOG_PAGES: u64 = 4; // format-anchor: MIN_LOG_PAGES
/// Entry tag: a v4 logged `replace` carrying undo page images. Never
/// written any more; decoded only to recognise a v4 log's pending tail.
const ENTRY_TAG_OP: u8 = 1; // format-anchor: ENTRY_TAG_OP
/// Entry tag: structural update (no logical payload).
const ENTRY_TAG_TOUCH: u8 = 2; // format-anchor: ENTRY_TAG_TOUCH
/// Entry tag: transaction commit point.
const ENTRY_TAG_COMMIT: u8 = 3; // format-anchor: ENTRY_TAG_COMMIT
/// Entry tag: explicit rollback.
const ENTRY_TAG_ABORT: u8 = 4; // format-anchor: ENTRY_TAG_ABORT
/// Entry tag: checkpoint (complete committed root map).
const ENTRY_TAG_CHECKPOINT: u8 = 5; // format-anchor: ENTRY_TAG_CHECKPOINT
/// Encoded header of one redo record: page u64 + offset u32 + length
/// u32 — what an in-place write costs in log bytes beyond its data.
pub const REDO_HEADER: u64 = 16; // format-anchor: REDO_HEADER

// ---- CRC-32 (IEEE 802.3) ------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_feed(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `data` — the checksum sealing every log record and
/// superblock.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_feed(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC of a log frame: seals the epoch stamp *and* the payload, so a
/// frame whose epoch field was damaged cannot validate either.
fn frame_crc(epoch: u32, payload: &[u8]) -> u32 {
    crc32_feed(crc32_feed(0xFFFF_FFFF, &epoch.to_le_bytes()), payload) ^ 0xFFFF_FFFF
}

// ---- log entries --------------------------------------------------------

/// One physical redo record: after the commit carrying it is durable,
/// `bytes` belong at byte `offset` of volume page `page`. Replaying it
/// is a read-modify-write of that page, so a torn in-place write is
/// repaired too — the bytes outside the range are the same in the old
/// and the new page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redo {
    /// Volume page the write lands on.
    pub page: PageId,
    /// Byte offset of `bytes` within the page.
    pub offset: u32,
    /// The after-image of the written range.
    pub bytes: Vec<u8>,
}

impl Redo {
    /// Encoded size: the record header plus the data.
    pub fn encoded_len(&self) -> u64 {
        REDO_HEADER + self.bytes.len() as u64
    }
}

/// One step of recovery's redo pass: a commit's in-place write, or an
/// extent a later commit freed, which cancels earlier redo on its
/// pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RedoStep {
    Write(Redo),
    Free(PageId, u64),
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry {
    /// A v4 undo-logged `replace` (tag 1), decoded only so that a log
    /// written by the previous format is never misread: a committed one
    /// is inert (its in-place write was synced before its commit), a
    /// pending one makes recovery refuse the log
    /// ([`Error::LegacyUndoLog`]). `raw` is the frame payload, kept so
    /// a checkpoint could carry it byte-exactly.
    LegacyUndo {
        /// Transaction scope the operation belonged to.
        txn: TxnId,
        /// LSN of the operation.
        lsn: u64,
        /// The undecoded frame payload.
        raw: Vec<u8>,
    },
    /// A structural update with no logical payload worth logging —
    /// compaction, consolidation, object deletion. Shadowing makes it
    /// invisible until commit; the entry exists to stamp the LSN and
    /// carry the new root for the commit record.
    Touch {
        /// Transaction scope the update belongs to.
        txn: TxnId,
        /// LSN of the update.
        lsn: u64,
        /// Object the update applied to.
        object: u64,
        /// Serialized descriptor after the update.
        root_after: Vec<u8>,
    },
    /// The commit point of a transaction scope: the descriptors of
    /// every object the scope touched, tombstones for the ones it
    /// deleted, and the redo of its in-place writes. Once this record
    /// is on stable storage the transaction is durable; until then it
    /// never happened. Covers only the entries stamped with the same
    /// `txn` — entries of other open scopes remain pending.
    Commit {
        /// Transaction scope this record commits.
        txn: TxnId,
        /// LSN of the commit point itself (freshly allocated, strictly
        /// ordered across scopes — the tiebreak when recovery merges
        /// WAL stripes).
        lsn: u64,
        /// How many WAL stripes carry a part of this commit. `1` is
        /// the common self-contained case; for a cross-stripe commit
        /// each stripe holds one part and a restart honors the commit
        /// only when all `participants` parts survived — otherwise the
        /// scope is presumed aborted.
        participants: u32,
        /// `(object id, serialized descriptor)` for each touched object.
        touched: Vec<(u64, Vec<u8>)>,
        /// Ids of objects the transaction deleted.
        deleted: Vec<u64>,
        /// Redo of the scope's in-place writes, applied after the
        /// record is durable.
        redo: Vec<Redo>,
        /// `(start page, pages)` extents the scope freed that overlap a
        /// page with redo earlier in this log half: recovery drops that
        /// redo, because the page may since have been reallocated.
        freed: Vec<(PageId, u64)>,
    },
    /// An explicit rollback: the records of this scope are void.
    Abort {
        /// Transaction scope this record voids.
        txn: TxnId,
        /// Highest LSN the aborted scope logged.
        lsn: u64,
    },
    /// A checkpoint: the complete committed root map at the moment the
    /// log flipped halves, plus the redo of committed in-place writes
    /// not yet issued at the flip. Starts every half.
    Checkpoint {
        /// Highest LSN assigned before the checkpoint.
        max_lsn: u64,
        /// The full `(object id, serialized descriptor)` map.
        roots: Vec<(u64, Vec<u8>)>,
        /// Redo carried over from the previous half.
        redo: Vec<Redo>,
    },
}

fn put_roots(out: &mut Vec<u8>, roots: &[(u64, Vec<u8>)]) {
    out.extend_from_slice(&(roots.len() as u32).to_le_bytes());
    for (id, desc) in roots {
        out.extend_from_slice(&id.to_le_bytes());
        put_bytes(out, desc);
    }
}

fn read_roots(r: &mut Reader<'_>) -> Result<Vec<(u64, Vec<u8>)>> {
    let n = r.u32()? as usize;
    let mut roots = Vec::with_capacity(n.min(r.data.len()));
    for _ in 0..n {
        let id = r.u64()?;
        let desc = r.bytes()?;
        roots.push((id, desc));
    }
    Ok(roots)
}

fn put_redo(out: &mut Vec<u8>, redo: &[Redo]) {
    out.extend_from_slice(&(redo.len() as u32).to_le_bytes());
    for r in redo {
        out.extend_from_slice(&r.page.to_le_bytes());
        out.extend_from_slice(&r.offset.to_le_bytes());
        put_bytes(out, &r.bytes);
    }
}

fn read_redo(r: &mut Reader<'_>) -> Result<Vec<Redo>> {
    let n = r.u32()? as usize;
    let mut redo = Vec::with_capacity(n.min(r.data.len()));
    for _ in 0..n {
        redo.push(Redo {
            page: r.u64()?,
            offset: r.u32()?,
            bytes: r.bytes()?,
        });
    }
    Ok(redo)
}

impl WalEntry {
    /// Serialize to the frame payload. A commit or checkpoint with no
    /// redo (and no freed extents) encodes exactly as in v4.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalEntry::LegacyUndo { raw, .. } => out.extend_from_slice(raw),
            WalEntry::Touch {
                txn,
                lsn,
                object,
                root_after,
            } => {
                out.push(ENTRY_TAG_TOUCH);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&object.to_le_bytes());
                put_bytes(&mut out, root_after);
            }
            WalEntry::Commit {
                txn,
                lsn,
                participants,
                touched,
                deleted,
                redo,
                freed,
            } => {
                out.push(ENTRY_TAG_COMMIT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&lsn.to_le_bytes());
                out.extend_from_slice(&participants.to_le_bytes());
                put_roots(&mut out, touched);
                out.extend_from_slice(&(deleted.len() as u32).to_le_bytes());
                for id in deleted {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                if !redo.is_empty() || !freed.is_empty() {
                    put_redo(&mut out, redo);
                    out.extend_from_slice(&(freed.len() as u32).to_le_bytes());
                    for (start, pages) in freed {
                        out.extend_from_slice(&start.to_le_bytes());
                        out.extend_from_slice(&pages.to_le_bytes());
                    }
                }
            }
            WalEntry::Abort { txn, lsn } => {
                out.push(ENTRY_TAG_ABORT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&lsn.to_le_bytes());
            }
            WalEntry::Checkpoint {
                max_lsn,
                roots,
                redo,
            } => {
                out.push(ENTRY_TAG_CHECKPOINT);
                out.extend_from_slice(&max_lsn.to_le_bytes());
                put_roots(&mut out, roots);
                if !redo.is_empty() {
                    put_redo(&mut out, redo);
                }
            }
        }
        out
    }

    /// Decode a frame payload written by [`Self::to_bytes`] (or by the
    /// v4 format, whose records are a prefix of the v5 ones).
    pub fn from_bytes(data: &[u8]) -> Result<WalEntry> {
        let mut r = Reader { data, at: 0 };
        let tag = r.take(1)?[0];
        let entry = match tag {
            ENTRY_TAG_OP => {
                let txn = r.u64()?;
                let body = r.bytes()?;
                let lsn = Reader { data: &body, at: 0 }.u64()?;
                r.at = data.len();
                WalEntry::LegacyUndo {
                    txn,
                    lsn,
                    raw: data.to_vec(),
                }
            }
            ENTRY_TAG_TOUCH => WalEntry::Touch {
                txn: r.u64()?,
                lsn: r.u64()?,
                object: r.u64()?,
                root_after: r.bytes()?,
            },
            ENTRY_TAG_COMMIT => {
                let txn = r.u64()?;
                let lsn = r.u64()?;
                let participants = r.u32()?;
                let touched = read_roots(&mut r)?;
                let n = r.u32()? as usize;
                let mut deleted = Vec::with_capacity(n.min(data.len()));
                for _ in 0..n {
                    deleted.push(r.u64()?);
                }
                let (mut redo, mut freed) = (Vec::new(), Vec::new());
                if r.at < data.len() {
                    redo = read_redo(&mut r)?;
                    let n = r.u32()? as usize;
                    freed.reserve(n.min(data.len()));
                    for _ in 0..n {
                        freed.push((r.u64()?, r.u64()?));
                    }
                }
                WalEntry::Commit {
                    txn,
                    lsn,
                    participants,
                    touched,
                    deleted,
                    redo,
                    freed,
                }
            }
            ENTRY_TAG_ABORT => WalEntry::Abort {
                txn: r.u64()?,
                lsn: r.u64()?,
            },
            ENTRY_TAG_CHECKPOINT => WalEntry::Checkpoint {
                max_lsn: r.u64()?,
                roots: read_roots(&mut r)?,
                redo: if r.at < data.len() {
                    read_redo(&mut r)?
                } else {
                    Vec::new()
                },
            },
            _ => {
                return Err(Error::CorruptObject {
                    reason: format!("unknown log entry tag {tag}"),
                })
            }
        };
        if r.at != data.len() {
            return Err(Error::CorruptObject {
                reason: format!("log entry tag {tag} has trailing bytes"),
            });
        }
        Ok(entry)
    }

    /// The LSN this entry carries (the operation's for a legacy entry,
    /// the scope's highest LSN otherwise).
    pub fn lsn(&self) -> u64 {
        match self {
            WalEntry::LegacyUndo { lsn, .. }
            | WalEntry::Touch { lsn, .. }
            | WalEntry::Commit { lsn, .. }
            | WalEntry::Abort { lsn, .. } => *lsn,
            WalEntry::Checkpoint { max_lsn, .. } => *max_lsn,
        }
    }

    /// The transaction scope this entry belongs to; `None` for
    /// checkpoints, which are scope-independent.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalEntry::LegacyUndo { txn, .. }
            | WalEntry::Touch { txn, .. }
            | WalEntry::Commit { txn, .. }
            | WalEntry::Abort { txn, .. } => Some(*txn),
            WalEntry::Checkpoint { .. } => None,
        }
    }
}

// ---- superblock ---------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Superblock {
    epoch: u64,
    active: u8,
}

impl Superblock {
    fn to_page(self, page_size: usize) -> Vec<u8> {
        let mut page = Vec::with_capacity(page_size);
        page.extend_from_slice(&SB_MAGIC.to_le_bytes());
        page.extend_from_slice(&SB_VERSION.to_le_bytes());
        page.extend_from_slice(&self.epoch.to_le_bytes());
        page.push(self.active);
        let crc = crc32(&page); // seals exactly the 17 bytes above
        page.extend_from_slice(&crc.to_le_bytes());
        page.resize(page_size, 0);
        page
    }

    fn from_page(page: &[u8]) -> Option<Superblock> {
        if page.len() < SB_LEN {
            return None;
        }
        if codec::u32_at(page, 0, "superblock magic").ok()? != SB_MAGIC {
            return None;
        }
        let version = codec::u32_at(page, 4, "superblock version").ok()?;
        if version != SB_VERSION && version != SB_VERSION_V4 {
            return None;
        }
        let sealed = page.get(0..SB_LEN - 4)?;
        if crc32(sealed) != codec::u32_at(page, SB_LEN - 4, "superblock crc").ok()? {
            return None;
        }
        let active = *page.get(16)?;
        if active > 1 {
            return None;
        }
        Some(Superblock {
            epoch: codec::u64_at(page, 8, "superblock epoch").ok()?,
            active,
        })
    }
}

// ---- the durable log ----------------------------------------------------

/// Pre-resolved observability handles: counters record through pure
/// atomics, so nothing here can violate the latch discipline no matter
/// where in the commit path it fires. `metrics` is kept to open the
/// `wal.checkpoint` span.
struct WalObs {
    metrics: Metrics,
    frames: Counter,
    bytes: Counter,
    syncs: Counter,
    checkpoints: Counter,
}

/// The persistent write-ahead log of a durable [`crate::ObjectStore`].
/// See the [module docs](self) for the on-disk layout and protocol.
pub struct DurableWal {
    volume: SharedVolume,
    base: PageId,
    half_pages: u64,
    active: u8,
    epoch: u64,
    /// Which superblock slot holds the epoch currently in force. A
    /// checkpoint always publishes to the *other* slot, so a torn
    /// superblock write leaves this one intact.
    sb_slot: u8,
    /// Byte offset within the active half where the next frame write
    /// starts (held Touch frames go there first).
    head: u64,
    /// The active half's bytes from the start of `head`'s page up to
    /// `head` (empty when `head` is page-aligned). A frame write starts
    /// its buffer with these, so the log never reads its own tail back.
    tail: Vec<u8>,
    /// Encoded Touch frames appended since the last frame write. The
    /// next Op, Commit, Abort or Checkpoint frame (or dropping the log)
    /// writes them in the same volume write; nothing forces them on
    /// their own, because no recovery step needs a Touch.
    held: Vec<u8>,
    /// Highest epoch this log has stamped on any frame. Every flip takes
    /// a fresh one, so a flip retried after a failed attempt never
    /// shares an epoch with the frames that attempt left behind.
    max_epoch: u64,
    /// Why the log refuses further work: a checkpoint's superblock
    /// publish failed and the half in force on disk became unknown, or
    /// the store failed it ([`Self::fail`]) over a commit only recovery
    /// can settle.
    failed: Option<String>,
    next_lsn: u64,
    /// Committed object id → serialized root descriptor.
    committed: BTreeMap<u64, Vec<u8>>,
    /// Object id → LSN of the commit that last set (or tombstoned) its
    /// root. Guards the fold: a held-out part of an older cross-stripe
    /// commit resolved late must not clobber a newer committed root.
    committed_lsn: BTreeMap<u64, u64>,
    /// Touch entries (and held cross-stripe commit parts) since the
    /// last commit/abort — the uncommitted tail a restart discards.
    pending: Vec<WalEntry>,
    /// The redo and freed-extent steps of every commit in the active
    /// half, carried redo first, in log order with their commit LSNs —
    /// the input of recovery's redo pass.
    redo_log: Vec<(u64, RedoStep)>,
    /// Pages with a redo record in the active half: a later commit's
    /// freed extents are logged only where they overlap one of these.
    redo_pages: BTreeSet<PageId>,
    /// Redo of committed scopes whose in-place write has not been
    /// issued yet ([`Self::mark_applied`]); a checkpoint carries it into
    /// the new half. After an attach it holds every redo of the half,
    /// until recovery has replayed it.
    unapplied: Vec<(TxnId, Vec<Redo>)>,
    /// Highest object id mentioned anywhere in the log.
    max_object_id: u64,
    records_scanned: u64,
    torn_tail: bool,
    checkpoints_taken: u64,
    /// Which WAL stripe this log serves (0 for an unstriped log) —
    /// stamped onto trace spans so per-stripe forces are attributable.
    stripe: u64,
    /// Attached by [`Self::set_metrics`]; `None` until the owning store
    /// wires its metrics domain through.
    obs: Option<WalObs>,
}

impl DurableWal {
    /// Resolve this log's instrument handles against `metrics`:
    /// `wal.frames` / `wal.bytes` (appended payloads), `wal.syncs`
    /// (commit barriers), `wal.checkpoints` (half-flips), plus the
    /// `wal.checkpoint` span around each flip.
    pub(crate) fn set_metrics(&mut self, metrics: &Metrics) {
        self.obs = Some(WalObs {
            metrics: metrics.clone(),
            frames: metrics.counter("wal.frames"),
            bytes: metrics.counter("wal.bytes"),
            syncs: metrics.counter("wal.syncs"),
            checkpoints: metrics.counter("wal.checkpoints"),
        });
    }

    fn half_bytes(&self) -> u64 {
        self.half_pages * self.volume.page_size() as u64
    }

    fn half_base(&self, half: u8) -> PageId {
        self.base + 2 + u64::from(half) * self.half_pages
    }

    fn check_region(volume: &SharedVolume, base: PageId, pages: u64) -> Result<u64> {
        if pages < MIN_LOG_PAGES || base + pages > volume.num_pages() {
            return Err(Error::Unsupported {
                op: "durable_wal",
                reason: format!(
                    "log region [{base}, +{pages}) needs ≥ {MIN_LOG_PAGES} pages inside \
                     the {}-page volume",
                    volume.num_pages()
                ),
            });
        }
        Ok((pages - 2) / 2)
    }

    /// Format a fresh, empty log region of `pages` pages starting at
    /// volume page `base`.
    pub fn format(volume: SharedVolume, base: PageId, pages: u64) -> Result<DurableWal> {
        let half_pages = Self::check_region(&volume, base, pages)?;
        let ps = volume.page_size();
        // Terminate half 0 (a zero length word) before pointing the
        // superblock at it.
        // durability: mutates(shadow-data)
        volume.write_pages(base + 2, &vec![0u8; ps])?;
        let sb = Superblock {
            epoch: 1,
            active: 0,
        };
        // lint: allow(durability, reason = "formatting a virgin region: no live slot or committed state to preserve, and the caller cannot observe the store before the sync below")
        volume.write_pages(base, &sb.to_page(ps))?; // durability: mutates(superblock)
                                                    // durability: mutates(shadow-data)
        volume.write_pages(base + 1, &vec![0u8; ps])?;
        // durability: seals(shadow-data, superblock)
        volume.sync()?;
        Ok(Self::new(volume, base, half_pages, sb, 0))
    }

    /// An empty in-memory log whose superblock `sb` sits in `sb_slot`.
    fn new(
        volume: SharedVolume,
        base: PageId,
        half_pages: u64,
        sb: Superblock,
        sb_slot: u8,
    ) -> DurableWal {
        DurableWal {
            volume,
            base,
            half_pages,
            active: sb.active,
            epoch: sb.epoch,
            sb_slot,
            head: 0,
            tail: Vec::new(),
            held: Vec::new(),
            max_epoch: sb.epoch,
            failed: None,
            next_lsn: 1,
            committed: BTreeMap::new(),
            committed_lsn: BTreeMap::new(),
            pending: Vec::new(),
            redo_log: Vec::new(),
            redo_pages: BTreeSet::new(),
            unapplied: Vec::new(),
            max_object_id: 0,
            records_scanned: 0,
            torn_tail: false,
            checkpoints_taken: 0,
            stripe: 0,
            obs: None,
        }
    }

    /// Attach to an existing log region: pick the valid superblock with
    /// the highest epoch (a torn superblock write leaves the other slot
    /// in force) and scan its half up to the torn tail. A *virgin*
    /// region — both superblock pages all zero — is formatted fresh; a
    /// region where neither slot validates but bytes are present is
    /// refused, so detectable corruption never silently reformats away
    /// committed state.
    pub fn attach(volume: SharedVolume, base: PageId, pages: u64) -> Result<DurableWal> {
        let half_pages = Self::check_region(&volume, base, pages)?;
        let slot0 = volume.read_pages(base, 1)?;
        let slot1 = volume.read_pages(base + 1, 1)?;
        let best = match (Superblock::from_page(&slot0), Superblock::from_page(&slot1)) {
            (Some(a), Some(b)) => Some(if a.epoch >= b.epoch { (a, 0) } else { (b, 1) }),
            (Some(a), None) => Some((a, 0)),
            (None, Some(b)) => Some((b, 1)),
            (None, None) => None,
        };
        let Some((sb, slot)) = best else {
            let virgin = slot0.iter().all(|&b| b == 0) && slot1.iter().all(|&b| b == 0);
            if virgin {
                return Self::format(volume, base, pages);
            }
            return Err(Error::CorruptObject {
                reason: format!(
                    "log region at page {base}: neither superblock slot validates \
                     and the region is not virgin — refusing to reformat \
                     (run explicit salvage)"
                ),
            });
        };
        let mut wal = Self::new(volume, base, half_pages, sb, slot);
        // A flip that failed before its publish (in an earlier session)
        // may have left frames at the start of the inactive half under
        // an epoch newer than the superblock's. Every flip writes from
        // offset 0, so the first frame header there names the newest
        // epoch the half holds; the next flip must not reuse it.
        let inactive = wal.volume.read_pages(wal.half_base(1 - sb.active), 1)?;
        if let Ok(stale) = codec::u32_at(&inactive, 4, "frame epoch") {
            wal.max_epoch = wal.max_epoch.max(u64::from(stale));
        }
        wal.scan()?;
        Ok(wal)
    }

    /// Replay the active half into the in-memory state, cutting at the
    /// torn tail.
    fn scan(&mut self) -> Result<()> {
        let half = self
            .volume
            .read_pages(self.half_base(self.active), self.half_pages)?;
        let limit = half.len() as u64;
        let mut at = 0u64;
        loop {
            if at + FRAME_HEADER > limit {
                break; // full to the brim; still a clean prefix
            }
            let base = at as usize;
            let len = u64::from(codec::u32_at(&half, base, "frame length")?);
            let epoch = codec::u32_at(&half, base + 4, "frame epoch")?;
            let crc = codec::u32_at(&half, base + 8, "frame crc")?;
            if len == 0 {
                break; // clean tail
            }
            if epoch != self.epoch as u32 {
                // A CRC-valid frame left over from this half's previous
                // occupancy — reachable only when the current occupant's
                // terminator was lost to a partial persist.
                self.torn_tail = true;
                break;
            }
            if at + FRAME_HEADER + len > limit {
                self.torn_tail = true;
                break;
            }
            let Some(payload) =
                half.get((at + FRAME_HEADER) as usize..(at + FRAME_HEADER + len) as usize)
            else {
                self.torn_tail = true;
                break;
            };
            if frame_crc(epoch, payload) != crc {
                self.torn_tail = true;
                break;
            }
            let Ok(entry) = WalEntry::from_bytes(payload) else {
                self.torn_tail = true;
                break;
            };
            self.absorb(entry);
            self.records_scanned += 1;
            at += FRAME_HEADER + len;
        }
        self.head = at;
        let ps = self.volume.page_size() as u64;
        self.tail = half
            .get((at / ps * ps) as usize..at as usize)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        Ok(())
    }

    /// Fold one entry into the in-memory state — shared by the scan and
    /// by live appends, so a reopened log always agrees with the one
    /// that wrote it.
    fn absorb(&mut self, entry: WalEntry) {
        self.next_lsn = self.next_lsn.max(entry.lsn() + 1);
        match entry {
            WalEntry::LegacyUndo { .. } => self.pending.push(entry),
            WalEntry::Touch { object, .. } => {
                self.max_object_id = self.max_object_id.max(object);
                self.pending.push(entry);
            }
            WalEntry::Commit { participants, .. } if participants > 1 => {
                // One part of a cross-stripe commit: its roots become
                // true only once every sibling part is on its stripe,
                // so the part is *held* pending until
                // [`Self::resolve_txn`] (all parts durable) or
                // [`Self::drop_txn`] / an Abort voids it.
                self.pending.push(entry);
            }
            WalEntry::Commit {
                txn,
                lsn,
                touched,
                deleted,
                redo,
                freed,
                ..
            } => self.apply_commit(txn, lsn, touched, deleted, redo, freed),
            WalEntry::Abort { txn, .. } => self.pending.retain(|e| e.txn() != Some(txn)),
            WalEntry::Checkpoint {
                max_lsn,
                roots,
                redo,
            } => {
                self.committed = roots
                    .into_iter()
                    .inspect(|(id, _)| self.max_object_id = self.max_object_id.max(*id))
                    .collect();
                self.committed_lsn = self.committed.keys().map(|&id| (id, max_lsn)).collect();
                self.pending.clear();
                self.redo_pages = redo.iter().map(|r| r.page).collect();
                self.redo_log = redo
                    .iter()
                    .map(|r| (max_lsn, RedoStep::Write(r.clone())))
                    .collect();
                self.unapplied = if redo.is_empty() {
                    Vec::new()
                } else {
                    vec![(0, redo)]
                };
            }
        }
    }

    /// Fold one commit into the committed map, guarded by commit LSN:
    /// an older cross-stripe commit resolved after a newer commit of
    /// the same object must not clobber the newer root. Live appends
    /// are monotonic, so the guard only bites during the attach-time
    /// stripe merge. Records the commit's freed extents and redo for
    /// the redo pass, and resolves every pending entry of the scope.
    fn apply_commit(
        &mut self,
        txn: TxnId,
        lsn: u64,
        touched: Vec<(u64, Vec<u8>)>,
        deleted: Vec<u64>,
        redo: Vec<Redo>,
        freed: Vec<(PageId, u64)>,
    ) {
        for (id, desc) in touched {
            self.max_object_id = self.max_object_id.max(id);
            if self.committed_lsn.get(&id).is_none_or(|&l| lsn >= l) {
                self.committed.insert(id, desc);
                self.committed_lsn.insert(id, lsn);
            }
        }
        for id in deleted {
            self.max_object_id = self.max_object_id.max(id);
            if self.committed_lsn.get(&id).is_none_or(|&l| lsn >= l) {
                self.committed.remove(&id);
                self.committed_lsn.insert(id, lsn);
            }
        }
        for (start, pages) in freed {
            self.redo_log.push((lsn, RedoStep::Free(start, pages)));
        }
        if !redo.is_empty() {
            for r in &redo {
                self.redo_pages.insert(r.page);
                self.redo_log.push((lsn, RedoStep::Write(r.clone())));
            }
            self.unapplied.push((txn, redo));
        }
        // Only this scope's entries are resolved; concurrent scopes
        // stay pending until their own commit/abort.
        self.pending.retain(|e| e.txn() != Some(txn));
    }

    /// Resolve a held cross-stripe commit part: fold its roots into
    /// the committed map and drop every pending entry of the scope.
    /// Called once every sibling part is durable on its own stripe.
    pub(crate) fn resolve_txn(&mut self, txn: TxnId) {
        let at = self
            .pending
            .iter()
            .position(|e| matches!(e, WalEntry::Commit { txn: t, .. } if *t == txn));
        if let Some(at) = at {
            if let WalEntry::Commit {
                lsn,
                touched,
                deleted,
                redo,
                freed,
                ..
            } = self.pending.remove(at)
            {
                self.apply_commit(txn, lsn, touched, deleted, redo, freed);
            }
        }
    }

    /// Void the held commit part of `txn` without touching its other
    /// pending entries — presumed abort for a cross-stripe commit that
    /// never completed on every stripe.
    pub(crate) fn drop_txn(&mut self, txn: TxnId) {
        self.pending
            .retain(|e| !matches!(e, WalEntry::Commit { txn: t, .. } if *t == txn));
    }

    /// The held cross-stripe commit parts, as `(txn, participants)`,
    /// for the attach-time all-parts-present check.
    pub(crate) fn unresolved_commits(&self) -> Vec<(TxnId, u32)> {
        self.pending
            .iter()
            .filter_map(|e| match e {
                WalEntry::Commit {
                    txn, participants, ..
                } => Some((*txn, *participants)),
                _ => None,
            })
            .collect()
    }

    /// Append one entry: its frame (and a fresh terminator behind it)
    /// reaches the volume before this returns — except a Touch frame,
    /// which is held until the next frame write carries it. Flips to a
    /// checkpoint automatically when the active half is full.
    pub fn append(&mut self, mut entry: WalEntry) -> Result<()> {
        self.check_live()?;
        if let WalEntry::Commit { freed, .. } = &mut entry {
            // Only a free that overlaps redo still in this half can
            // cancel anything at recovery; the rest would be dead bytes.
            freed.retain(|&(start, pages)| {
                self.redo_pages
                    .range(start..start.saturating_add(pages))
                    .next()
                    .is_some()
            });
        }
        let payload = entry.to_bytes();
        let frame = FRAME_HEADER + payload.len() as u64;
        if self.bytes_used() + frame + FRAME_HEADER > self.half_bytes() {
            self.checkpoint()?;
            if self.bytes_used() + frame + FRAME_HEADER > self.half_bytes() {
                return Err(Error::LogFull {
                    needed: frame,
                    available: self
                        .half_bytes()
                        .saturating_sub(self.bytes_used() + FRAME_HEADER),
                });
            }
        }
        let encoded = self.encode_frame(&payload);
        if matches!(entry, WalEntry::Touch { .. }) {
            self.held.extend_from_slice(&encoded);
        } else {
            self.write_frames(&encoded)?;
        }
        if let Some(o) = &self.obs {
            // One instant per appended frame on the pipeline timeline,
            // stamped with the owning scope (0 for checkpoints).
            o.metrics
                .pipe_event(PipeKind::Instant, "wal.frame", entry.txn().unwrap_or(0), 0);
        }
        self.absorb(entry);
        Ok(())
    }

    /// Refuse all further work until reopen ([`Error::LogFailed`]); the
    /// first reason given is the one reported.
    pub(crate) fn fail(&mut self, reason: &str) {
        self.failed.get_or_insert_with(|| reason.to_string());
    }

    /// Refuse work once the log failed ([`Self::fail`], or a failed
    /// checkpoint publish that left the half in force unknown).
    fn check_live(&self) -> Result<()> {
        match &self.failed {
            Some(reason) => Err(Error::LogFailed {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Frame `payload` under the current epoch: `[len][epoch][crc]`
    /// followed by the payload.
    fn encode_frame(&self, payload: &[u8]) -> Vec<u8> {
        let epoch = self.epoch as u32;
        let mut frame = Vec::with_capacity(FRAME_HEADER as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&epoch.to_le_bytes());
        frame.extend_from_slice(&frame_crc(epoch, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(obs) = &self.obs {
            obs.frames.inc();
            obs.bytes.add(payload.len() as u64);
        }
        frame
    }

    /// Write the held Touch frames and then `frames` at `head` of the
    /// active half, in one volume write, followed by a zero terminator,
    /// and advance `head`.
    fn write_frames(&mut self, frames: &[u8]) -> Result<()> {
        let ps = self.volume.page_size() as u64;
        let len = (self.held.len() + frames.len()) as u64;
        let first_page = self.head / ps;
        // The last page holds the terminator behind the frames.
        let last_page = (self.head + len + FRAME_HEADER - 1) / ps;
        // Build the buffer front to back: the cached bytes sharing the
        // first page, then the frames, and zeros out to the page
        // boundary. Starting from the cached tail drops stale bytes past
        // the old terminator, which must not survive as a plausible
        // frame; the zeros `resize` appends are the new terminator.
        let mut buf = Vec::with_capacity(((last_page - first_page + 1) * ps) as usize);
        buf.extend_from_slice(&self.tail);
        buf.extend_from_slice(&self.held);
        buf.extend_from_slice(frames);
        buf.resize(((last_page - first_page + 1) * ps) as usize, 0);
        self.volume
            .write_pages(self.half_base(self.active) + first_page, &buf)?;
        self.head += len;
        self.held.clear();
        let tail_at = ((self.head / ps - first_page) * ps) as usize;
        self.tail = buf
            .get(tail_at..tail_at + (self.head % ps) as usize)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        Ok(())
    }

    /// Flip halves: write the committed root map as a checkpoint record
    /// at the start of the inactive half, with every uncommitted pending
    /// record behind it (an open scope must survive the flip; held
    /// Touch frames ride along as pending records), in one volume
    /// write; then publish the new half by bumping the superblock epoch.
    /// A crash at any point leaves one complete, consistent half in
    /// force. A failure before the publish rolls back to the old half;
    /// a failed publish leaves the half in force unknown, so the log
    /// refuses all further work ([`Error::LogFailed`]) until reopen.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_live()?;
        let _span = self
            .obs
            .as_ref()
            .map(|o| o.metrics.span(OpKind::WalCheckpoint, &self.volume));
        // The half-flip on the pipeline timeline (no owning scope).
        let _pspan = self
            .obs
            .as_ref()
            .map(|o| o.metrics.pipe_span("wal.checkpoint", 0, 0));
        // Redo whose in-place write has not been issued yet (an earlier
        // scope of the batch whose append flipped the log) must survive
        // the flip: the old half, its only copy, stops being scanned.
        let carried: Vec<Redo> = self
            .unapplied
            .iter()
            .flat_map(|(_, redo)| redo.iter().cloned())
            .collect();
        let max_lsn = self.next_lsn - 1;
        let cp = WalEntry::Checkpoint {
            max_lsn,
            roots: self
                .committed
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            redo: carried.clone(),
        };
        let payloads: Vec<Vec<u8>> = std::iter::once(cp.to_bytes())
            .chain(self.pending.iter().map(WalEntry::to_bytes))
            .collect();
        let need: u64 = payloads.iter().map(|p| FRAME_HEADER + p.len() as u64).sum();
        if need + FRAME_HEADER > self.half_bytes() {
            return Err(Error::LogFull {
                needed: need,
                available: self.half_bytes() - FRAME_HEADER,
            });
        }

        let old = (
            self.active,
            self.head,
            self.epoch,
            std::mem::take(&mut self.tail),
            std::mem::take(&mut self.held),
        );
        self.active = 1 - self.active;
        self.head = 0;
        // Frames in the new half carry the epoch under which the half
        // will be scanned, distinguishing them from any CRC-valid
        // leftovers of its previous occupancy — including those of a
        // failed flip, whose epoch stays burned.
        self.max_epoch += 1;
        self.epoch = self.max_epoch;
        let frames: Vec<u8> = payloads.iter().flat_map(|p| self.encode_frame(p)).collect();
        // Checkpoint + carried frames land on the *inactive* half —
        // fresh-extent writes in the shadow paradigm.
        // durability: mutates(shadow-data)
        let mut staged = self.write_frames(&frames);
        if staged.is_ok() {
            // Barrier: the new half must be stable before it is
            // published.
            // durability: seals(shadow-data)
            staged = self.volume.sync().map_err(Error::from);
        }
        if let Err(e) = staged {
            // Nothing published: the old half is still the log.
            (self.active, self.head, self.epoch, self.tail, self.held) = old;
            return Err(e);
        }
        let sb = Superblock {
            epoch: self.epoch,
            active: self.active,
        };
        // Always publish into the slot *not* holding the epoch in
        // force, so a torn superblock write loses at most this
        // checkpoint, never the log it supersedes.
        let slot = 1 - self.sb_slot;
        // durability: mutates(superblock)
        let mut published = self.volume.write_pages(
            self.base + u64::from(slot),
            &sb.to_page(self.volume.page_size()),
        );
        if published.is_ok() {
            // durability: seals(superblock)
            published = self.volume.sync();
        }
        if let Err(e) = published {
            let reason = format!(
                "checkpoint publish of epoch {} to superblock slot {slot} failed: {e}",
                self.epoch
            );
            self.failed = Some(reason.clone());
            return Err(Error::LogFailed { reason });
        }
        self.sb_slot = slot;
        self.redo_pages = carried.iter().map(|r| r.page).collect();
        self.redo_log = carried
            .into_iter()
            .map(|r| (max_lsn, RedoStep::Write(r)))
            .collect();
        self.checkpoints_taken += 1;
        if let Some(obs) = &self.obs {
            obs.checkpoints.inc();
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage — the commit
    /// barrier.
    pub fn sync(&self) -> Result<()> {
        self.check_live()?;
        let _force = self
            .obs
            .as_ref()
            .map(|o| o.metrics.pipe_span("wal.force", self.stripe, 0));
        // Lockdep tripwire at the WAL's own barrier: catches a latch
        // held across the force even when the test volume is a custom
        // `Volume` impl that never reaches the Mem/File bottom hooks.
        parking_lot::on_volume_io("wal.sync");
        self.volume.sync()?;
        if let Some(obs) = &self.obs {
            obs.syncs.inc();
        }
        Ok(())
    }

    /// Tag this log with the stripe index it serves, so trace spans
    /// distinguish concurrent per-stripe forces.
    pub(crate) fn set_stripe(&mut self, stripe: u64) {
        self.stripe = stripe;
    }

    /// Hand out the next LSN (monotonically increasing, starting at 1).
    pub fn allocate_lsn(&mut self) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        lsn
    }

    /// The highest LSN handed out so far; 0 if none.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Committed object id → serialized root descriptor.
    pub fn committed(&self) -> &BTreeMap<u64, Vec<u8>> {
        &self.committed
    }

    /// The uncommitted tail: Op/Touch entries not covered by a commit,
    /// across all open scopes, in log order.
    pub fn pending(&self) -> &[WalEntry] {
        &self.pending
    }

    /// The uncommitted entries of one scope, in log order.
    pub fn pending_for(&self, txn: TxnId) -> impl DoubleEndedIterator<Item = &WalEntry> {
        self.pending.iter().filter(move |e| e.txn() == Some(txn))
    }

    /// Drop the uncommitted tail and the unapplied redo from the
    /// in-memory view (recovery calls this after its redo pass; the
    /// next checkpoint drops both from disk too).
    pub(crate) fn clear_pending(&mut self) {
        self.pending.clear();
        self.unapplied.clear();
    }

    /// The redo and freed-extent steps of the active half, in log order
    /// with their commit LSNs.
    pub(crate) fn redo_steps(&self) -> &[(u64, RedoStep)] {
        &self.redo_log
    }

    /// The in-place write of `txn`'s committed redo has been issued: a
    /// later checkpoint need not carry it (its sync makes the write
    /// durable before the superblock publish drops this half).
    pub(crate) fn mark_applied(&mut self, txn: TxnId) {
        self.unapplied.retain(|(t, _)| *t != txn);
    }

    /// Highest object id mentioned anywhere in the log.
    pub fn max_object_id(&self) -> u64 {
        self.max_object_id
    }

    /// Number of records the attach scan replayed.
    pub fn records_scanned(&self) -> u64 {
        self.records_scanned
    }

    /// Did the attach scan cut a torn tail?
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// Checkpoints taken since attach/format.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Bytes of the active half already used by records, held Touch
    /// frames included.
    pub fn bytes_used(&self) -> u64 {
        self.head + self.held.len() as u64
    }
}

impl Drop for DurableWal {
    fn drop(&mut self) {
        // Held Touch frames go out with the log, so a log dropped
        // without a crash scans back every frame it appended. Best
        // effort: nothing durable depends on them.
        if !self.held.is_empty() && self.failed.is_none() {
            let _ = self.write_frames(&[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_pager::{DiskProfile, MemVolume};

    fn vol(pages: u64) -> SharedVolume {
        MemVolume::with_profile(256, pages, DiskProfile::FREE).shared()
    }

    fn op_entry(lsn: u64, object: u64, bytes: &[u8]) -> WalEntry {
        op_entry_for(1, lsn, object, bytes)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn entries_roundtrip() {
        let entries = [
            op_entry(7, 3, b"hello"),
            WalEntry::Touch {
                txn: 42,
                lsn: 9,
                object: 4,
                root_after: vec![1],
            },
            WalEntry::Commit {
                txn: 42,
                lsn: 9,
                participants: 2,
                touched: vec![(3, vec![9; 40]), (4, vec![1])],
                deleted: vec![17],
                redo: vec![],
                freed: vec![],
            },
            WalEntry::Abort { txn: 42, lsn: 11 },
            WalEntry::Checkpoint {
                max_lsn: 11,
                roots: vec![(3, vec![9; 40])],
                redo: vec![],
            },
            WalEntry::Commit {
                txn: 43,
                lsn: 12,
                participants: 1,
                touched: vec![],
                deleted: vec![],
                redo: vec![Redo {
                    page: 12,
                    offset: 100,
                    bytes: vec![5; 300],
                }],
                freed: vec![(40, 8)],
            },
            WalEntry::Checkpoint {
                max_lsn: 13,
                roots: vec![],
                redo: vec![Redo {
                    page: 19,
                    offset: 0,
                    bytes: vec![6; 256],
                }],
            },
        ];
        for e in &entries {
            let bytes = e.to_bytes();
            assert_eq!(&WalEntry::from_bytes(&bytes).unwrap(), e);
        }
    }

    #[test]
    fn append_scan_roundtrip_with_commit() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(op_entry(1, 5, b"aaa")).unwrap();
            wal.append(op_entry(2, 5, b"bbb")).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: 2,
                participants: 1,
                touched: vec![(5, vec![1, 2, 3])],
                deleted: vec![],
                redo: vec![],
                freed: vec![],
            })
            .unwrap();
            wal.append(op_entry(3, 6, b"uncommitted")).unwrap();
        }
        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal.records_scanned(), 4);
        assert!(!wal.torn_tail());
        assert_eq!(wal.last_lsn(), 3);
        assert_eq!(wal.committed().len(), 1);
        assert_eq!(wal.committed()[&5], vec![1, 2, 3]);
        assert_eq!(wal.pending().len(), 1, "op 3 is the uncommitted tail");
        assert_eq!(wal.max_object_id(), 6);
    }

    fn op_entry_for(txn: TxnId, lsn: u64, object: u64, bytes: &[u8]) -> WalEntry {
        WalEntry::Touch {
            txn,
            lsn,
            object,
            root_after: bytes.to_vec(),
        }
    }

    #[test]
    fn commit_absorbs_only_its_own_scope() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(op_entry_for(1, 1, 5, b"aaa")).unwrap();
            wal.append(op_entry_for(2, 2, 6, b"bbb")).unwrap();
            wal.append(op_entry_for(1, 3, 5, b"ccc")).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: 3,
                participants: 1,
                touched: vec![(5, vec![1])],
                deleted: vec![],
                redo: vec![],
                freed: vec![],
            })
            .unwrap();
            // Scope 1's entries are absorbed; scope 2's stay pending.
            assert_eq!(wal.pending_for(1).count(), 0);
            assert_eq!(wal.pending_for(2).count(), 1);
            assert_eq!(wal.pending().len(), 1);
        }
        // A restart scan preserves the split: scope 2 is still the
        // uncommitted tail, scope 1 is committed.
        let mut wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal.committed()[&5], vec![1]);
        assert_eq!(wal.pending().len(), 1);
        assert_eq!(wal.pending_for(2).count(), 1);
        // An abort for scope 2 drops exactly its entries.
        wal.append(WalEntry::Abort { txn: 2, lsn: 4 }).unwrap();
        assert_eq!(wal.pending().len(), 0);
    }

    #[test]
    fn torn_tail_is_cut() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 1,
            participants: 1,
            touched: vec![(5, vec![1])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        })
        .unwrap();
        let keep = wal.bytes_used();
        // An Abort frame is written at once (a Touch would be held).
        wal.append(WalEntry::Abort { txn: 2, lsn: 2 }).unwrap();
        // Corrupt one payload byte of the last record on disk.
        let page = v.read_pages(2, 1).unwrap();
        let mut page = page;
        page[(keep + FRAME_HEADER) as usize + 2] ^= 0xFF;
        v.write_pages(2, &page).unwrap();

        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert!(wal.torn_tail());
        assert_eq!(wal.records_scanned(), 2, "prefix survives");
        assert_eq!(wal.committed().len(), 1);
        assert!(wal.pending().is_empty());
    }

    #[test]
    fn checkpoint_flips_halves_and_carries_pending() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"committed")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 1,
            participants: 1,
            touched: vec![(5, vec![1])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        })
        .unwrap();
        wal.append(op_entry(2, 6, b"in flight")).unwrap();
        wal.checkpoint().unwrap();
        assert_eq!(wal.pending().len(), 1, "pending survives the flip");

        let wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal2.committed().len(), 1);
        assert_eq!(wal2.pending().len(), 1);
        assert_eq!(wal2.last_lsn(), 2);
        assert_eq!(
            wal2.records_scanned(),
            2,
            "checkpoint + carried pending record"
        );
    }

    #[test]
    fn half_overflow_checkpoints_automatically() {
        let v = vol(64);
        // 64 pages of 256 B: halves of 31 pages = 7936 bytes each.
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        for i in 0..100u64 {
            wal.append(op_entry(i + 1, 5, &[7u8; 150])).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: i + 1,
                participants: 1,
                touched: vec![(5, vec![8u8; 30])],
                deleted: vec![],
                redo: vec![],
                freed: vec![],
            })
            .unwrap();
        }
        assert!(wal.checkpoints_taken() > 0, "the log wrapped");
        let wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal2.committed().len(), 1);
        assert_eq!(wal2.last_lsn(), 100);
    }

    #[test]
    fn oversized_record_reports_log_full() {
        let v = vol(8);
        let mut wal = DurableWal::format(v, 0, 8).unwrap();
        let err = wal.append(op_entry(1, 5, &[0u8; 4096])).unwrap_err();
        assert!(matches!(err, Error::LogFull { .. }), "got {err}");
    }

    #[test]
    fn checkpoints_alternate_superblock_slots() {
        let v = vol(64);
        let ps = 256usize;
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 1,
            participants: 1,
            touched: vec![(5, vec![1])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        })
        .unwrap();
        let epoch_of = |page: Vec<u8>| Superblock::from_page(&page).map(|sb| sb.epoch);
        assert_eq!(epoch_of(v.read_pages(0, 1).unwrap()), Some(1));
        assert_eq!(epoch_of(v.read_pages(1, 1).unwrap()), None, "slot 1 zeroed");

        // The first checkpoint must publish into the *other* slot —
        // overwriting slot 0 here would leave a torn superblock write
        // with zero valid slots.
        wal.checkpoint().unwrap();
        assert_eq!(epoch_of(v.read_pages(0, 1).unwrap()), Some(1));
        assert_eq!(epoch_of(v.read_pages(1, 1).unwrap()), Some(2));
        wal.checkpoint().unwrap();
        assert_eq!(epoch_of(v.read_pages(0, 1).unwrap()), Some(3));
        assert_eq!(epoch_of(v.read_pages(1, 1).unwrap()), Some(2));

        // A torn write of the newest superblock loses only that
        // checkpoint: attach falls back to the other slot and still
        // sees the committed state.
        v.write_pages(0, &vec![0xAAu8; ps]).unwrap();
        let wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal2.epoch, 2);
        assert_eq!(wal2.committed()[&5], vec![1]);
    }

    #[test]
    fn stale_epoch_frames_are_rejected() {
        let v = vol(64);
        {
            let wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            drop(wal);
        }
        // Forge a CRC-valid frame stamped with a *different* epoch at
        // the head of the active half — the disk state a lost
        // terminator write would leave behind after a half flip.
        let payload = op_entry(9, 5, b"phantom").to_bytes();
        let mut page = vec![0u8; 256];
        page[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        page[4..8].copy_from_slice(&7u32.to_le_bytes());
        page[8..12].copy_from_slice(&frame_crc(7, &payload).to_le_bytes());
        page[12..12 + payload.len()].copy_from_slice(&payload);
        v.write_pages(2, &page).unwrap();

        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert!(wal.torn_tail(), "stale frame is cut, not replayed");
        assert_eq!(wal.records_scanned(), 0);
        assert!(wal.pending().is_empty());
    }

    #[test]
    fn corrupt_superblocks_refuse_to_reformat() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(WalEntry::Commit {
                txn: 1,
                lsn: 1,
                participants: 1,
                touched: vec![(5, vec![1])],
                deleted: vec![],
                redo: vec![],
                freed: vec![],
            })
            .unwrap();
        }
        // Smash both superblock slots: detectable corruption must be
        // surfaced, not silently formatted over.
        v.write_pages(0, &vec![0x55u8; 256]).unwrap();
        v.write_pages(1, &vec![0x55u8; 256]).unwrap();
        let err = DurableWal::attach(v, 0, 64).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::CorruptObject { .. }), "got {err}");
    }

    #[test]
    fn cross_stripe_commit_parts_are_held_until_resolved() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 2,
            participants: 2,
            touched: vec![(5, vec![1])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        })
        .unwrap();
        // The part is held: nothing committed yet, the op still pends.
        assert!(wal.committed().is_empty());
        assert_eq!(wal.pending().len(), 2);
        assert_eq!(wal.unresolved_commits(), vec![(1, 2)]);

        wal.resolve_txn(1);
        assert_eq!(wal.committed()[&5], vec![1]);
        assert!(wal.pending().is_empty());

        // A restart scan sees the part again — still held — and a
        // drop (presumed abort) keeps the Op for the rollback pass.
        let mut wal2 = DurableWal::attach(v, 0, 64).unwrap();
        assert!(wal2.committed().is_empty());
        assert_eq!(wal2.unresolved_commits(), vec![(1, 2)]);
        wal2.drop_txn(1);
        assert!(wal2.unresolved_commits().is_empty());
        assert_eq!(wal2.pending_for(1).count(), 1, "the Touch stays pending");
    }

    #[test]
    fn late_resolved_part_cannot_clobber_newer_commit() {
        let v = vol(64);
        let mut wal = DurableWal::format(v, 0, 64).unwrap();
        // Part of an old cross-stripe commit of object 5 at LSN 2.
        wal.append(WalEntry::Commit {
            txn: 1,
            lsn: 2,
            participants: 2,
            touched: vec![(5, vec![0xAA])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        })
        .unwrap();
        // A newer self-contained commit of the same object at LSN 5.
        wal.append(WalEntry::Commit {
            txn: 2,
            lsn: 5,
            participants: 1,
            touched: vec![(5, vec![0xBB])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        })
        .unwrap();
        // Resolving the stale part late must not roll the root back.
        wal.resolve_txn(1);
        assert_eq!(wal.committed()[&5], vec![0xBB]);
    }

    fn commit_of(txn: TxnId, lsn: u64, object: u64) -> WalEntry {
        WalEntry::Commit {
            txn,
            lsn,
            participants: 1,
            touched: vec![(object, vec![lsn as u8])],
            deleted: vec![],
            redo: vec![],
            freed: vec![],
        }
    }

    #[test]
    fn appends_never_read_the_log_back() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        for i in 1..=60u64 {
            wal.append(op_entry(i, 5, &[i as u8; 40])).unwrap();
            wal.append(commit_of(1, i, 5)).unwrap();
        }
        assert!(wal.checkpoints_taken() > 0, "the tail survived a flip too");
        assert_eq!(v.stats().page_reads, 0);
        drop(wal);
        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert!(!wal.torn_tail());
        assert_eq!(wal.committed()[&5], vec![60]);
    }

    #[test]
    fn touch_frames_ride_the_next_frame_write() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        let touch = |lsn| WalEntry::Touch {
            txn: 1,
            lsn,
            object: 5,
            root_after: vec![7; 20],
        };
        let writes = || v.stats().page_writes;
        let before = writes();
        wal.append(touch(1)).unwrap();
        wal.append(touch(2)).unwrap();
        assert_eq!(writes(), before, "Touch frames are held");
        assert_eq!(wal.pending().len(), 2, "but already part of the log state");
        wal.append(commit_of(1, 3, 5)).unwrap();
        assert_eq!(
            writes(),
            before + 1,
            "one write carries both Touches and the Commit"
        );
        // A Touch still held when the log is dropped goes out with it.
        wal.append(touch(4)).unwrap();
        drop(wal);
        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal.records_scanned(), 4);
        assert_eq!(wal.pending().len(), 1);
    }

    #[test]
    fn failed_flip_rolls_back_and_burns_its_epoch() {
        let inner = vol(64);
        let f = eos_pager::FaultyVolume::new(inner.clone(), u64::MAX);
        let mut wal = DurableWal::format(f.clone(), 0, 64).unwrap();
        wal.append(op_entry(1, 5, b"aaa")).unwrap();
        wal.append(commit_of(1, 1, 5)).unwrap();
        let (head, tail) = (wal.head, wal.tail.clone());
        // The checkpoint frame write fails: nothing was published.
        f.heal(0);
        assert!(wal.checkpoint().is_err());
        f.heal(u64::MAX);
        assert_eq!((wal.active, wal.epoch, wal.head), (0, 1, head));
        assert_eq!(wal.tail, tail);
        // The old half keeps taking appends, and a retried flip stamps
        // a fresh epoch, never the failed attempt's 2.
        wal.append(commit_of(1, 2, 5)).unwrap();
        wal.checkpoint().unwrap();
        assert_eq!((wal.active, wal.epoch), (1, 3));
        let wal = DurableWal::attach(inner, 0, 64).unwrap();
        assert_eq!(wal.epoch, 3);
        assert_eq!(wal.committed()[&5], vec![2]);
    }

    #[test]
    fn failed_publish_fails_the_log_until_reopen() {
        let inner = vol(64);
        let f = eos_pager::FaultyVolume::new(inner.clone(), u64::MAX);
        let mut wal = DurableWal::format(f.clone(), 0, 64).unwrap();
        wal.append(commit_of(1, 1, 5)).unwrap();
        // The half write lands, the superblock write fails.
        f.heal(1);
        let err = wal.checkpoint().unwrap_err();
        assert!(matches!(err, Error::LogFailed { .. }), "got {err}");
        f.heal(u64::MAX);
        for r in [wal.append(commit_of(1, 2, 5)), wal.sync(), wal.checkpoint()] {
            assert!(matches!(r, Err(Error::LogFailed { .. })), "got {r:?}");
        }
        // Reopen: the old superblock is in force with everything the
        // log acknowledged.
        let wal = DurableWal::attach(inner, 0, 64).unwrap();
        assert_eq!(wal.epoch, 1);
        assert_eq!(wal.committed()[&5], vec![1]);
    }

    #[test]
    fn reopen_after_failed_flip_never_reuses_its_epoch() {
        let inner = vol(64);
        let f = eos_pager::FaultyVolume::new(inner.clone(), u64::MAX);
        let mut wal = DurableWal::format(f.clone(), 0, 64).unwrap();
        wal.append(commit_of(1, 1, 5)).unwrap();
        // The flip writes half 1 under epoch 2, then its publish fails.
        f.heal(1);
        assert!(wal.checkpoint().is_err());
        drop(wal);
        // The next session (restart recovery) flips into the same half:
        // it must skip epoch 2, whose frames still sit there.
        let mut wal = DurableWal::attach(inner.clone(), 0, 64).unwrap();
        assert_eq!(wal.epoch, 1);
        wal.checkpoint().unwrap();
        assert_eq!((wal.active, wal.epoch), (1, 3));
        let wal = DurableWal::attach(inner, 0, 64).unwrap();
        assert_eq!(wal.epoch, 3);
        assert_eq!(wal.committed()[&5], vec![1]);
    }

    #[test]
    fn attach_on_virgin_region_formats_fresh() {
        let v = vol(16);
        let wal = DurableWal::attach(v.clone(), 4, 12).unwrap();
        assert_eq!(wal.last_lsn(), 0);
        assert!(wal.committed().is_empty());
        // And it is immediately reattachable.
        drop(wal);
        let wal = DurableWal::attach(v, 4, 12).unwrap();
        assert_eq!(wal.records_scanned(), 0);
    }

    fn redo_commit(txn: TxnId, lsn: u64, redo: Vec<Redo>, freed: Vec<(PageId, u64)>) -> WalEntry {
        WalEntry::Commit {
            txn,
            lsn,
            participants: 1,
            touched: vec![],
            deleted: vec![],
            redo,
            freed,
        }
    }

    fn redo_at(page: PageId) -> Redo {
        Redo {
            page,
            offset: 3,
            bytes: vec![9; 5],
        }
    }

    #[test]
    fn freed_extents_are_logged_only_over_redo_pages() {
        let v = vol(64);
        {
            let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
            wal.append(redo_commit(1, 1, vec![redo_at(40)], vec![]))
                .unwrap();
            // Pages 10..14 never had redo: the free is dropped before
            // encoding; 38..42 covers page 40 and is kept.
            wal.append(redo_commit(2, 2, vec![], vec![(10, 4), (38, 4)]))
                .unwrap();
        }
        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(
            wal.redo_steps(),
            &[
                (1, RedoStep::Write(redo_at(40))),
                (2, RedoStep::Free(38, 4)),
            ]
        );
    }

    #[test]
    fn checkpoint_carries_only_unapplied_redo() {
        let v = vol(64);
        let mut wal = DurableWal::format(v.clone(), 0, 64).unwrap();
        wal.append(redo_commit(1, 1, vec![redo_at(40)], vec![]))
            .unwrap();
        wal.append(redo_commit(2, 2, vec![redo_at(41)], vec![]))
            .unwrap();
        // Scope 1's in-place write was issued; scope 2's was not when
        // the log flipped.
        wal.mark_applied(1);
        wal.checkpoint().unwrap();
        drop(wal);
        let wal = DurableWal::attach(v, 0, 64).unwrap();
        assert_eq!(wal.redo_steps(), &[(2, RedoStep::Write(redo_at(41)))]);
    }
}
