//! # eos-check — whole-volume static consistency analysis (fsck)
//!
//! An offline analyzer for EOS volumes that cross-checks every
//! persistent structure the paper describes against every other:
//!
//! * **Buddy directories** (§3, Fig 1/2) — each space's allocation map
//!   is decoded tolerantly (a corrupt map yields findings, not panics)
//!   and audited for segment alignment, overlap (non-zero bytes under a
//!   big segment), orphan continuation bytes, maximal coalescing, and
//!   agreement between the `count[]` array and the map.
//! * **Superdirectory** (§3.3) — the cached largest-free-type per space
//!   is compared against the truth recomputed from the map. The cache
//!   is optimistic by design ("the first wrong guess will correct it"),
//!   so an over-promise is only informational; an under-promise means
//!   allocations will falsely skip the space and is an error.
//! * **Allocation census** (§4) — every object's positional tree is
//!   walked; each referenced page is claimed in a volume-wide ownership
//!   map. Pages claimed twice are overlaps (errors); pages allocated in
//!   a map but claimed by no object, the boot record, or a pending
//!   deferred free (§4.5 release locks) are leaks (warnings).
//! * **Write-ahead log** (§4.5) — object-root LSNs must not run ahead
//!   of the log tail, and the log's LSNs must be strictly increasing.
//!
//! Every broken invariant becomes a [`Finding`]; nothing short-circuits,
//! so one report shows the full extent of the damage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amap_audit;
mod census;
mod report;
pub mod schema;

use eos_buddy::SpaceDir;
use eos_core::wal::Wal;
use eos_core::{LargeObject, ObjectStore};
use eos_pager::SharedVolume;

pub use amap_audit::{audit_dir, SpaceAudit};
pub use report::Report;
pub use schema::{parse_envelope, Envelope, EnvelopeFinding, Json};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected slack in an optimistic structure (e.g. a stale
    /// superdirectory over-promise); no action needed.
    Info,
    /// Space is wasted but no data is at risk (e.g. leaked pages).
    Warning,
    /// An invariant the paper states is broken; data may be at risk.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which layer of the storage structure a finding concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A buddy-space directory page: the `count[]` array or the
    /// allocation map (§3, Fig 1/2).
    Buddy,
    /// The in-memory superdirectory cache (§3.3).
    Superdir,
    /// One object's positional tree (§4).
    Object,
    /// The volume-wide page-ownership census.
    Census,
    /// The write-ahead log and object-root LSNs (§4.5).
    Wal,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Layer::Buddy => "buddy",
            Layer::Superdir => "superdir",
            Layer::Object => "object",
            Layer::Census => "census",
            Layer::Wal => "wal",
        })
    }
}

/// One broken (or noteworthy) invariant found by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which layer of the structure it concerns.
    pub layer: Layer,
    /// Where: a space/page/object path, e.g. `space 2 page 17` or
    /// `object "big" root/0/3`.
    pub location: String,
    /// What is wrong, in the paper's terms.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.layer, self.location, self.detail
        )
    }
}

/// Analyze a live (successfully opened) store: audit every buddy
/// directory, compare the superdirectory cache against recomputed
/// truth, run the whole-volume page-ownership census over `objects`
/// (pass *every* live object, including the catalog object itself, or
/// their pages will be reported as leaks), and — when `wal` is given —
/// check LSN sanity.
pub fn check_store(
    store: &ObjectStore,
    objects: &[(String, LargeObject)],
    wal: Option<&Wal>,
) -> Report {
    let mut findings = Vec::new();
    let buddy = store.buddy();
    let mut audits = Vec::with_capacity(buddy.num_spaces());
    let mut pages_scanned = 0u64;

    for i in 0..buddy.num_spaces() {
        let space = buddy.space(i);
        let dir = space.dir();
        let audit = audit_dir(dir, i);
        pages_scanned += dir.data_pages();
        findings.extend(audit.findings.iter().cloned());
        audits.push(audit);
    }

    // Superdirectory coherence (§3.3): belief vs truth recomputed from
    // the tolerantly decoded maps, not from the (possibly corrupt)
    // count arrays.
    for (i, audit) in audits.iter().enumerate() {
        let truth = audit
            .free_counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &n)| n > 0)
            .map(|(t, _)| t as u8);
        let belief = buddy.superdir_belief(i);
        match (belief, truth) {
            (Some(b), Some(t)) if b > t => findings.push(Finding {
                severity: Severity::Info,
                layer: Layer::Superdir,
                location: format!("space {i}"),
                detail: format!(
                    "superdirectory over-promises type {b}, map holds at most \
                     type {t} (stale optimism; the first wrong guess will correct it)"
                ),
            }),
            (Some(b), Some(t)) if b < t => findings.push(Finding {
                severity: Severity::Error,
                layer: Layer::Superdir,
                location: format!("space {i}"),
                detail: format!(
                    "superdirectory under-promises type {b}, map holds type {t}: \
                     allocations will falsely skip this space"
                ),
            }),
            (Some(b), None) => findings.push(Finding {
                severity: Severity::Info,
                layer: Layer::Superdir,
                location: format!("space {i}"),
                detail: format!(
                    "superdirectory over-promises type {b}, space is full \
                     (stale optimism; the first wrong guess will correct it)"
                ),
            }),
            (None, Some(t)) => findings.push(Finding {
                severity: Severity::Error,
                layer: Layer::Superdir,
                location: format!("space {i}"),
                detail: format!(
                    "superdirectory believes the space is full, map holds type {t}: \
                     allocations will falsely skip this space"
                ),
            }),
            _ => {}
        }
    }

    // Whole-volume allocation census over the tolerantly decoded maps.
    findings.extend(census::run(store, objects, &audits));

    // WAL / LSN sanity (§4.5) — against the caller-held in-memory log
    // or, on a durable store, its own on-disk log (which carries no
    // logical op records: only the LSN tail applies).
    let lsn_view: Option<(u64, Vec<eos_core::wal::LogRecord>)> = match wal {
        Some(w) => Some((w.last_lsn(), w.records().to_vec())),
        None => store.durable_wal().map(|w| (w.last_lsn(), Vec::new())),
    };
    if let Some((tail, records)) = lsn_view {
        for (name, obj) in objects {
            if obj.lsn() > tail {
                findings.push(Finding {
                    severity: Severity::Error,
                    layer: Layer::Wal,
                    location: format!("object {name:?}"),
                    detail: format!(
                        "root carries LSN {} but the log tail is {tail}: \
                         updates were lost from the log",
                        obj.lsn()
                    ),
                });
            }
        }
        for w in records.windows(2) {
            if w[1].lsn <= w[0].lsn {
                findings.push(Finding {
                    severity: Severity::Error,
                    layer: Layer::Wal,
                    location: format!("log record {}", w[1].lsn),
                    detail: format!("LSN {} follows {}, not increasing", w[1].lsn, w[0].lsn),
                });
            }
        }
    }

    Report {
        findings,
        spaces_checked: buddy.num_spaces(),
        objects_checked: objects.len(),
        pages_scanned,
    }
}

/// Audit a volume's buddy directories straight from disk, without
/// opening a store — the path of last resort for volumes so damaged
/// that [`ObjectStore::open`] refuses them. Reads each space's
/// directory page with [`SpaceDir::from_page_unchecked`] and audits it;
/// object-level checks need a store and are not run.
pub fn audit_volume(volume: &SharedVolume, num_spaces: usize, pages_per_space: u64) -> Report {
    let geometry = eos_buddy::Geometry::for_page_size(volume.page_size());
    let span = pages_per_space + 1;
    let mut findings = Vec::new();
    let mut pages_scanned = 0u64;
    for i in 0..num_spaces {
        let dir_page = i as u64 * span;
        let page = match volume.read_pages(dir_page, 1) {
            Ok(p) => p,
            Err(e) => {
                findings.push(Finding {
                    severity: Severity::Error,
                    layer: Layer::Buddy,
                    location: format!("space {i}"),
                    detail: format!("directory page {dir_page} unreadable: {e}"),
                });
                continue;
            }
        };
        match SpaceDir::from_page_unchecked(geometry, pages_per_space, &page) {
            Ok(dir) => {
                pages_scanned += dir.data_pages();
                findings.extend(audit_dir(&dir, i).findings);
            }
            Err(e) => findings.push(Finding {
                severity: Severity::Error,
                layer: Layer::Buddy,
                location: format!("space {i}"),
                detail: format!("directory page {dir_page} undecodable: {e}"),
            }),
        }
    }
    Report {
        findings,
        spaces_checked: num_spaces,
        objects_checked: 0,
        pages_scanned,
    }
}
