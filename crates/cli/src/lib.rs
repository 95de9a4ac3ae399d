//! # eos-cli — command-line access to EOS volumes
//!
//! A small tool over the library: format a file-backed volume, store and
//! retrieve named large objects through the boot-record catalog, edit
//! byte ranges in place, and inspect or verify the store.
//!
//! ```text
//! eos init db.eos --mb 64            # format a 64 MiB volume
//! eos put db.eos photo.jpg photo.jpg # store a file under a name
//! eos putmany db.eos a.bin b.bin     # store several files concurrently
//! eos ls db.eos                      # list objects
//! eos cat db.eos photo.jpg 0 128     # read a byte range (hex to stdout)
//! eos splice db.eos doc.txt 100 patch.bin   # insert bytes at offset
//! eos cut db.eos doc.txt 100 64      # delete a byte range
//! eos get db.eos photo.jpg out.jpg   # read an object into a file
//! eos rm db.eos photo.jpg            # delete object + catalog entry
//! eos stat db.eos [name]             # store / object statistics
//! eos stats db.eos [--json]          # per-operation I/O attribution
//! eos verify db.eos                  # full invariant check
//! eos check db.eos [--json]          # static analysis of every structure
//! eos compact db.eos doc.txt         # rewrite into maximal segments
//! eos snapshot create db.eos nightly # pin every named root, cheaply
//! eos snapshot read db.eos nightly doc.txt old.txt  # read as-of
//! eos recover db.eos                 # restart recovery + catalog GC
//! ```
//!
//! CLI volumes always use 4 KiB pages; the buddy-space layout is derived
//! from the file length, so a volume file is fully self-describing
//! (geometry from size, objects from the boot-record catalog).
//!
//! Volumes are **durable**: the last [`WAL_PAGES`] pages of the file
//! hold a write-ahead log, every command's mutations commit through it,
//! and every open runs restart recovery — so a `kill -9` (or power
//! loss) mid-command never corrupts the volume. `eos recover` runs
//! recovery explicitly, reports what it found, and reconciles the
//! catalog with the committed object set.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use eos::buddy::Geometry;
use eos::catalog::Catalog;
use eos::core::{ConcurrentStore, LargeObject, ObjectStore, RecoveryReport, StoreConfig};
use eos::pager::{DiskProfile, FileVolume, SharedVolume};

/// Page size every CLI volume uses.
pub const PAGE_SIZE: usize = 4096;

/// Pages reserved at the end of every CLI volume for the write-ahead
/// log (1 MiB at 4 KiB pages: two ~508 KiB halves — CLI log records are
/// descriptor-sized, so each half holds thousands of them).
pub const WAL_PAGES: u64 = 256;

/// Errors surfaced to the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

type Result<T> = std::result::Result<T, CliError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(CliError(msg.into()))
}

macro_rules! bail {
    ($($arg:tt)*) => { return err(format!($($arg)*)) };
}

fn map_err<E: std::fmt::Display>(e: E) -> CliError {
    CliError(e.to_string())
}

/// Buddy-space layout for a volume of `total_pages` 4 KiB pages —
/// the same deterministic formula `init` uses, so any file length maps
/// back to its geometry.
pub fn layout_for(total_pages: u64) -> (usize, u64) {
    let g = Geometry::for_page_size(PAGE_SIZE);
    // The trailing log region comes off the top; buddy spaces of the
    // maximum size fill the rest. Derive the count from the span.
    let data_pages = total_pages.saturating_sub(WAL_PAGES);
    let span = g.max_space_pages + 1;
    let spaces = (data_pages / span).max(1) as usize;
    let pps = if data_pages / span == 0 {
        data_pages.saturating_sub(1).max(16)
    } else {
        g.max_space_pages
    };
    (spaces, pps)
}

/// Catalog namespace reserved for snapshot manifests: a snapshot named
/// `nightly` is cataloged as `.snap/nightly`, so it survives every
/// command (including `eos recover`'s catalog GC) like any other named
/// object while staying visually separate in `eos ls`.
const SNAP_PREFIX: &str = ".snap/";

const SNAP_MAGIC: u32 = 0x454F_5350; // format-anchor: SNAP_MAGIC

/// Serialize a snapshot manifest: the root descriptor of every named
/// object at creation time. Descriptor-sized per entry — a snapshot of
/// a multi-gigabyte store is a few hundred bytes.
fn encode_manifest(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, desc) in entries {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(desc.len() as u32).to_le_bytes());
        out.extend_from_slice(desc);
    }
    out
}

fn decode_manifest(data: &[u8]) -> Result<Vec<(String, Vec<u8>)>> {
    let mut at = 0usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        if at + n > data.len() {
            return err("snapshot manifest truncated");
        }
        let s = &data[at..at + n];
        at += n;
        Ok(s)
    };
    let u32_at = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
    if u32_at(take(4)?) != SNAP_MAGIC {
        return err("not a snapshot manifest (bad magic)");
    }
    let n = u32_at(take(4)?);
    let mut entries = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let nl = u32_at(take(4)?) as usize;
        let name = String::from_utf8(take(nl)?.to_vec())
            .map_err(|_| CliError("snapshot manifest: name not UTF-8".into()))?;
        let dl = u32_at(take(4)?) as usize;
        entries.push((name, take(dl)?.to_vec()));
    }
    Ok(entries)
}

/// Is the pinned root still the live root of some cataloged object?
/// Descriptor equality (same id, root page, size, LSN) means the root —
/// and, by the shadow rule, every page beneath it — is exactly the
/// committed tree the snapshot saw. Anything else means the object was
/// modified or deleted since, its superseded pages were freed at commit,
/// and the pinned descriptor may point at reclaimed (reused) pages.
fn snap_entry_intact(cat: &Catalog, desc: &[u8]) -> bool {
    cat.names()
        .filter(|n| !n.starts_with(SNAP_PREFIX))
        .filter_map(|n| cat.get(n).ok())
        .any(|live| live.to_bytes() == desc)
}

fn open_volume(path: &Path) -> Result<(SharedVolume, usize, u64)> {
    let meta = std::fs::metadata(path).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    let total_pages = meta.len() / PAGE_SIZE as u64;
    let (spaces, pps) = layout_for(total_pages);
    let vol = FileVolume::open(path, PAGE_SIZE, DiskProfile::MODERN_HDD)
        .map_err(map_err)?
        .shared();
    Ok((vol, spaces, pps))
}

/// Open a CLI volume, running restart recovery (a no-op on a cleanly
/// closed volume). Every command goes through here, so a volume left
/// behind by a crashed command heals on its next use. The store joins
/// the process-global metrics domain, so `eos stats` sees the I/O
/// every command in this process attributed to its operations.
fn open_store_recover(path: &Path) -> Result<(ObjectStore, RecoveryReport)> {
    let (vol, spaces, pps) = open_volume(path)?;
    ObjectStore::open_durable_with(
        vol,
        spaces,
        pps,
        StoreConfig::default(),
        WAL_PAGES,
        eos::obs::global(),
    )
    .map_err(map_err)
}

fn open_store(path: &Path) -> Result<ObjectStore> {
    open_store_recover(path).map(|(store, _)| store)
}

/// Static whole-volume analysis: open the store and run the full
/// `eos-check` suite over every cataloged object *plus* the catalog
/// object itself (it owns pages too — without it the census would
/// report its pages as leaks). Falls back to a raw directory audit
/// when the volume is too damaged to open.
fn run_check(path: &Path) -> Result<eos_check::Report> {
    match open_store(path) {
        Ok(store) => {
            let mut objects: Vec<(String, LargeObject)> = Vec::new();
            let boot = store.read_boot_record().map_err(map_err)?;
            if !boot.is_empty() {
                let cat_obj = LargeObject::from_bytes(&boot).map_err(map_err)?;
                objects.push(("<catalog>".into(), cat_obj));
            }
            let cat = Catalog::load(&store).map_err(map_err)?;
            for name in cat.names() {
                objects.push((name.to_string(), cat.get(name).map_err(map_err)?));
            }
            Ok(eos_check::check_store(&store, &objects, None))
        }
        Err(open_err) => {
            // The store refused to open (corrupt log superblocks, torn
            // directory, bad boot record, …): audit the raw directory
            // pages instead, and surface the refusal itself as an
            // error — a volume whose store cannot open is never clean.
            let meta = std::fs::metadata(path)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            let total_pages = meta.len() / PAGE_SIZE as u64;
            let (spaces, pps) = layout_for(total_pages);
            let vol = FileVolume::open(path, PAGE_SIZE, DiskProfile::MODERN_HDD)
                .map_err(map_err)?
                .shared();
            let mut report = eos_check::audit_volume(&vol, spaces, pps);
            report.findings.insert(
                0,
                eos_check::Finding {
                    severity: eos_check::Severity::Error,
                    layer: eos_check::Layer::Wal,
                    location: path.display().to_string(),
                    detail: format!("store failed to open: {open_err}"),
                },
            );
            Ok(report)
        }
    }
}

/// One pipeline event parsed back from a raw dump
/// ([`eos::obs::pipe_doc_json`]) or a flight-recorder file. The phase
/// label comes back as an owned string — the in-process
/// [`eos::obs::PipeEvent`] uses `&'static str`, so dumps round-trip
/// through this mirror instead.
#[derive(Debug, Clone)]
struct PipeRow {
    seq: u64,
    ts_ns: u64,
    kind: String,
    phase: String,
    trace_id: u64,
    batch_id: u64,
    thread: u64,
}

fn pipe_rows(events: &[eos_check::Json]) -> Vec<PipeRow> {
    let u = |j: &eos_check::Json, k: &str| j.get(k).and_then(eos_check::Json::as_u64).unwrap_or(0);
    let s = |j: &eos_check::Json, k: &str| {
        j.get(k)
            .and_then(eos_check::Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    events
        .iter()
        .map(|e| PipeRow {
            seq: u(e, "seq"),
            ts_ns: u(e, "ts_ns"),
            kind: s(e, "kind"),
            phase: s(e, "phase"),
            trace_id: u(e, "trace_id"),
            batch_id: u(e, "batch_id"),
            thread: u(e, "thread"),
        })
        .collect()
}

/// Parse a raw pipeline-event document; returns the rows plus the ring
/// accounting (`recorded`, `capacity`, `dropped`).
fn parse_pipe_doc(text: &str) -> Result<(Vec<PipeRow>, u64, u64, u64)> {
    let doc =
        eos_check::schema::parse(text).map_err(|e| CliError(format!("bad trace JSON: {e}")))?;
    let events = doc
        .get("events")
        .and_then(eos_check::Json::as_array)
        .ok_or(CliError("not a trace dump: no `events` array".into()))?;
    let u = |k: &str| doc.get(k).and_then(eos_check::Json::as_u64).unwrap_or(0);
    Ok((
        pipe_rows(events),
        u("recorded"),
        u("capacity"),
        u("dropped"),
    ))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Re-emit parsed rows as Chrome `trace_event` JSON — the same format
/// [`eos::obs::chrome_trace_json`] produces in-process, rebuilt here
/// because a dump's phase labels are no longer `&'static str`.
fn chrome_from_rows(rows: &[PipeRow]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (ph, scope) = match r.kind.as_str() {
            "begin" => ("B", ""),
            "end" => ("E", ""),
            _ => ("i", ",\"s\":\"t\""),
        };
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}{scope},\
             \"args\":{{\"seq\":{},\"kind\":{},\"trace_id\":{},\"batch_id\":{}}}}}",
            json_str(&r.phase),
            r.ts_ns / 1000,
            r.ts_ns % 1000,
            r.thread,
            r.seq,
            json_str(&r.kind),
            r.trace_id,
            r.batch_id
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// One reconstructed group-commit batch: the leader's `commit` span
/// with its Phase A–D breakdown and the follower head-count.
struct BatchSummary {
    batch_id: u64,
    leader: u64,
    thread: u64,
    wall_us: u64,
    phases_us: [u64; 4],
    members: u64,
}

/// Pair up `commit` begin/end spans per batch and attach the phase
/// breakdown; unmatched begins (still in flight when the dump was
/// taken) are skipped.
fn summarize_batches(rows: &[PipeRow]) -> Vec<BatchSummary> {
    use std::collections::HashMap;
    const PHASES: [&str; 4] = [
        "commit.phase_a",
        "commit.phase_b",
        "commit.phase_c",
        "commit.phase_d",
    ];
    let mut open: HashMap<u64, &PipeRow> = HashMap::new();
    let mut phase_open: HashMap<(u64, usize), u64> = HashMap::new();
    let mut phases: HashMap<u64, [u64; 4]> = HashMap::new();
    let mut members: HashMap<u64, BTreeSet<u64>> = HashMap::new();
    let mut out = Vec::new();
    for r in rows {
        if r.phase == "commit.queue_wait" && r.kind == "end" {
            members.entry(r.batch_id).or_default().insert(r.trace_id);
        } else if let Some(i) = PHASES.iter().position(|p| *p == r.phase) {
            match r.kind.as_str() {
                "begin" => {
                    phase_open.insert((r.batch_id, i), r.ts_ns);
                }
                "end" => {
                    if let Some(t0) = phase_open.remove(&(r.batch_id, i)) {
                        phases.entry(r.batch_id).or_default()[i] =
                            r.ts_ns.saturating_sub(t0) / 1000;
                    }
                }
                _ => {}
            }
        } else if r.phase == "commit" {
            match r.kind.as_str() {
                "begin" => {
                    open.insert(r.batch_id, r);
                }
                "end" => {
                    if let Some(b) = open.remove(&r.batch_id) {
                        out.push(BatchSummary {
                            batch_id: r.batch_id,
                            leader: b.trace_id,
                            thread: b.thread,
                            wall_us: r.ts_ns.saturating_sub(b.ts_ns) / 1000,
                            phases_us: [0; 4],
                            members: 0,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    for b in &mut out {
        b.phases_us = phases.remove(&b.batch_id).unwrap_or_default();
        b.members = members.remove(&b.batch_id).map_or(0, |m| m.len() as u64);
    }
    out.sort_by_key(|b| std::cmp::Reverse(b.wall_us));
    out
}

fn render_pipe_rows(out: &mut String, rows: &[PipeRow]) {
    writeln!(
        out,
        "{:>6} {:>12} {:<7} {:<20} {:>16} {:>6} {:>6}",
        "SEQ", "TS-US", "KIND", "PHASE", "TRACE", "BATCH", "THR"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:>6} {:>12} {:<7} {:<20} {:>16} {:>6} {:>6}",
            r.seq,
            r.ts_ns / 1000,
            r.kind,
            r.phase,
            r.trace_id,
            r.batch_id,
            r.thread
        )
        .unwrap();
    }
}

/// Run one CLI invocation; returns the text to print.
pub fn run(args: &[String]) -> Result<String> {
    let mut out = String::new();
    match args {
        [] => return err(USAGE),
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("init", [file, opts @ ..]) => {
                let mut mb = 64u64;
                let mut it = opts.iter();
                while let Some(o) = it.next() {
                    match o.as_str() {
                        "--mb" => {
                            mb = it
                                .next()
                                .and_then(|v| v.parse().ok())
                                .ok_or(CliError("--mb needs a number".into()))?;
                        }
                        other => bail!("unknown option {other}"),
                    }
                }
                let total_pages = (mb << 20) / PAGE_SIZE as u64;
                if total_pages < WAL_PAGES + 32 {
                    bail!("--mb {mb} is too small: the volume needs room for the log region");
                }
                let (spaces, pps) = layout_for(total_pages);
                let vol = FileVolume::create(
                    Path::new(file),
                    PAGE_SIZE,
                    (pps + 1) * spaces as u64 + WAL_PAGES,
                    DiskProfile::MODERN_HDD,
                )
                .map_err(map_err)?
                .shared();
                let mut store = ObjectStore::create_durable(
                    vol,
                    spaces,
                    pps,
                    StoreConfig::default(),
                    WAL_PAGES,
                )
                .map_err(map_err)?;
                store.set_metrics(eos::obs::global());
                Catalog::new().save(&mut store).map_err(map_err)?;
                writeln!(
                    out,
                    "formatted {file}: {spaces} buddy space(s) × {pps} pages ({:.1} MiB data)",
                    (spaces as u64 * pps * PAGE_SIZE as u64) as f64 / (1 << 20) as f64
                )
                .unwrap();
            }
            ("put", [file, name, input]) => {
                let data = std::fs::read(input).map_err(map_err)?;
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                if let Ok(mut old) = cat.get(name) {
                    store.delete_object(&mut old).map_err(map_err)?;
                }
                let obj = store
                    .create_with(&data, Some(data.len() as u64))
                    .map_err(map_err)?;
                cat.put(name, &obj);
                cat.save(&mut store).map_err(map_err)?;
                writeln!(out, "stored {name}: {} bytes", data.len()).unwrap();
            }
            ("putmany", [file, inputs @ ..]) if !inputs.is_empty() => {
                let mut datas = Vec::with_capacity(inputs.len());
                for input in inputs {
                    datas.push((input.clone(), std::fs::read(input).map_err(map_err)?));
                }
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                // Replacements are deleted up front, serially — the
                // concurrent phase then only creates fresh objects, so
                // the writer transactions are lock-disjoint.
                for (name, _) in &datas {
                    if let Ok(mut old) = cat.get(name) {
                        store.delete_object(&mut old).map_err(map_err)?;
                    }
                }
                let cs = ConcurrentStore::new(store);
                let mut stored: Vec<(String, LargeObject, usize)> = Vec::new();
                let results: Vec<std::thread::Result<_>> = std::thread::scope(|s| {
                    datas
                        .iter()
                        .map(|(name, data)| {
                            let cs = cs.clone();
                            s.spawn(move || -> std::result::Result<_, eos::core::Error> {
                                let txn = cs.begin();
                                let obj = txn.create(data, Some(data.len() as u64))?;
                                txn.commit()?;
                                Ok((name.clone(), obj, data.len()))
                            })
                        })
                        .collect::<Vec<_>>()
                        .into_iter()
                        .map(std::thread::ScopedJoinHandle::join)
                        .collect()
                });
                let mut store = match cs.try_into_inner() {
                    Ok(s) => s,
                    Err(_) => bail!("internal: store handle leaked past the ingest threads"),
                };
                for r in results {
                    match r {
                        Ok(Ok(entry)) => stored.push(entry),
                        Ok(Err(e)) => bail!("putmany: {e}"),
                        Err(_) => bail!("putmany: ingest thread panicked"),
                    }
                }
                for (name, obj, _) in &stored {
                    cat.put(name, obj);
                }
                cat.save(&mut store).map_err(map_err)?;
                let total: usize = stored.iter().map(|(_, _, n)| n).sum();
                writeln!(
                    out,
                    "stored {} object(s), {total} bytes ({} writer threads, group commit)",
                    stored.len(),
                    datas.len()
                )
                .unwrap();
            }
            ("get", [file, name, output]) => {
                let store = open_store(Path::new(file))?;
                let cat = Catalog::load(&store).map_err(map_err)?;
                let obj = cat.get(name).map_err(map_err)?;
                let data = store.read_all(&obj).map_err(map_err)?;
                std::fs::write(output, &data).map_err(map_err)?;
                writeln!(out, "wrote {} bytes to {output}", data.len()).unwrap();
            }
            ("cat", [file, name, offset, len]) => {
                let store = open_store(Path::new(file))?;
                let cat = Catalog::load(&store).map_err(map_err)?;
                let obj = cat.get(name).map_err(map_err)?;
                let offset: u64 = offset.parse().map_err(map_err)?;
                let len: u64 = len.parse().map_err(map_err)?;
                let data = store.read(&obj, offset, len).map_err(map_err)?;
                for chunk in data.chunks(16) {
                    for b in chunk {
                        write!(out, "{b:02x} ").unwrap();
                    }
                    writeln!(out).unwrap();
                }
            }
            ("ls", [file]) => {
                let store = open_store(Path::new(file))?;
                let cat = Catalog::load(&store).map_err(map_err)?;
                if cat.is_empty() {
                    writeln!(out, "(empty)").unwrap();
                }
                for name in cat.names() {
                    let obj = cat.get(name).map_err(map_err)?;
                    let stats = store.object_stats(&obj).map_err(map_err)?;
                    writeln!(
                        out,
                        "{name}\t{} bytes\t{} segment(s)\theight {}",
                        obj.size(),
                        stats.segments,
                        stats.height
                    )
                    .unwrap();
                }
            }
            ("rm", [file, name]) => {
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                let mut obj = cat.get(name).map_err(map_err)?;
                store.delete_object(&mut obj).map_err(map_err)?;
                cat.remove(name);
                cat.save(&mut store).map_err(map_err)?;
                writeln!(out, "removed {name}").unwrap();
            }
            ("splice", [file, name, offset, input]) => {
                let data = std::fs::read(input).map_err(map_err)?;
                let offset: u64 = offset.parse().map_err(map_err)?;
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                let mut obj = cat.get(name).map_err(map_err)?;
                store.insert(&mut obj, offset, &data).map_err(map_err)?;
                cat.put(name, &obj);
                cat.save(&mut store).map_err(map_err)?;
                writeln!(
                    out,
                    "inserted {} bytes at {offset}; {name} is now {} bytes",
                    data.len(),
                    obj.size()
                )
                .unwrap();
            }
            ("cut", [file, name, offset, len]) => {
                let offset: u64 = offset.parse().map_err(map_err)?;
                let len: u64 = len.parse().map_err(map_err)?;
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                let mut obj = cat.get(name).map_err(map_err)?;
                store.delete(&mut obj, offset, len).map_err(map_err)?;
                cat.put(name, &obj);
                cat.save(&mut store).map_err(map_err)?;
                writeln!(
                    out,
                    "cut [{offset}, {}); {name} is now {} bytes",
                    offset + len,
                    obj.size()
                )
                .unwrap();
            }
            ("append", [file, name, input]) => {
                let data = std::fs::read(input).map_err(map_err)?;
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                let mut obj = cat.get(name).map_err(map_err)?;
                store.append(&mut obj, &data).map_err(map_err)?;
                cat.put(name, &obj);
                cat.save(&mut store).map_err(map_err)?;
                writeln!(
                    out,
                    "appended {} bytes; {name} is now {} bytes",
                    data.len(),
                    obj.size()
                )
                .unwrap();
            }
            ("compact", [file, name]) => {
                let mut store = open_store(Path::new(file))?;
                let mut cat = Catalog::load(&store).map_err(map_err)?;
                let mut obj = cat.get(name).map_err(map_err)?;
                let stats = store.compact(&mut obj).map_err(map_err)?;
                cat.put(name, &obj);
                cat.save(&mut store).map_err(map_err)?;
                writeln!(
                    out,
                    "compacted {name}: {} -> {} segment(s)",
                    stats.segments_before, stats.segments_after
                )
                .unwrap();
            }
            ("stat", [file]) => {
                let store = open_store(Path::new(file))?;
                let frag = store.buddy().fragmentation();
                let total = store.buddy().total_data_pages();
                writeln!(
                    out,
                    "{} / {total} pages free; largest contiguous run {} pages",
                    frag.free_pages, frag.largest_free_run
                )
                .unwrap();
            }
            ("stat", [file, name]) => {
                let store = open_store(Path::new(file))?;
                let cat = Catalog::load(&store).map_err(map_err)?;
                let obj = cat.get(name).map_err(map_err)?;
                let s = store.object_stats(&obj).map_err(map_err)?;
                writeln!(out, "{name}: {} bytes", s.size).unwrap();
                writeln!(
                    out,
                    "  {} segment(s) over {} leaf pages ({}..{} pages each)",
                    s.segments, s.leaf_pages, s.min_seg_pages, s.max_seg_pages
                )
                .unwrap();
                writeln!(
                    out,
                    "  tree height {}, {} index page(s), {:.1}% leaf utilization",
                    s.height,
                    s.index_pages,
                    100.0 * s.leaf_utilization(PAGE_SIZE)
                )
                .unwrap();
            }
            ("stats", [file, opts @ ..]) => {
                let mut json = false;
                let mut prom = false;
                let mut trace = false;
                for o in opts {
                    match o.as_str() {
                        "--json" => json = true,
                        "--prom" => prom = true,
                        "--trace" => trace = true,
                        other => bail!("unknown option {other}"),
                    }
                }
                if json && prom {
                    bail!("--json and --prom are mutually exclusive");
                }
                if trace && (json || prom) {
                    bail!("--trace is a human-readable dump; drop --json/--prom");
                }
                let store = open_store(Path::new(file))?;
                let snap = store.metrics_snapshot();
                if json {
                    // The shared report envelope (same shape as
                    // `eos check --json`): stats never finds problems,
                    // so `clean` is constant and `findings` empty.
                    writeln!(
                        out,
                        "{{\"clean\":true,\"findings\":[],\"metrics\":{}}}",
                        snap.to_json_object()
                    )
                    .unwrap();
                } else if prom {
                    out.push_str(&snap.render_prometheus());
                } else {
                    out.push_str(&snap.render_table());
                    if trace {
                        out.push('\n');
                        out.push_str(&eos::obs::render_trace(
                            &store.metrics().trace(),
                            snap.trace_recorded,
                            snap.trace_capacity,
                        ));
                    }
                }
            }
            ("trace", [sub, rest @ ..]) => match (sub.as_str(), rest) {
                ("summary", [file, opts @ ..]) => {
                    let mut top = 5usize;
                    let mut it = opts.iter();
                    while let Some(o) = it.next() {
                        match o.as_str() {
                            "--top" => {
                                top = it
                                    .next()
                                    .and_then(|v| v.parse().ok())
                                    .ok_or(CliError("--top needs a number".into()))?;
                            }
                            other => bail!("unknown option {other}"),
                        }
                    }
                    let text = std::fs::read_to_string(file).map_err(map_err)?;
                    let (rows, recorded, capacity, dropped) = parse_pipe_doc(&text)?;
                    let stalls = rows.iter().filter(|r| r.kind == "stall").count();
                    writeln!(
                        out,
                        "pipeline: {} event(s) in window ({recorded} recorded, ring \
                         capacity {capacity}, {dropped} dropped), {stalls} stall(s)",
                        rows.len()
                    )
                    .unwrap();
                    let batches = summarize_batches(&rows);
                    if batches.is_empty() {
                        writeln!(out, "(no completed commit batches in the window)").unwrap();
                    } else {
                        writeln!(
                            out,
                            "top {} slowest commit batch(es) of {}:",
                            top.min(batches.len()),
                            batches.len()
                        )
                        .unwrap();
                        writeln!(
                            out,
                            "{:>6} {:>8} {:>4} {:>5} {:>9} {:>8} {:>8} {:>8} {:>8}",
                            "BATCH",
                            "LEADER",
                            "THR",
                            "TXNS",
                            "WALL-US",
                            "A-US",
                            "B-US",
                            "C-US",
                            "D-US"
                        )
                        .unwrap();
                        for b in batches.iter().take(top) {
                            writeln!(
                                out,
                                "{:>6} {:>8} {:>4} {:>5} {:>9} {:>8} {:>8} {:>8} {:>8}",
                                b.batch_id,
                                b.leader,
                                b.thread,
                                b.members,
                                b.wall_us,
                                b.phases_us[0],
                                b.phases_us[1],
                                b.phases_us[2],
                                b.phases_us[3]
                            )
                            .unwrap();
                        }
                    }
                }
                ("export", [file, opts @ ..]) => {
                    let mut dest: Option<&str> = None;
                    let mut it = opts.iter();
                    while let Some(o) = it.next() {
                        match o.as_str() {
                            "--out" => {
                                dest =
                                    Some(it.next().ok_or(CliError("--out needs a path".into()))?);
                            }
                            other => bail!("unknown option {other}"),
                        }
                    }
                    let text = std::fs::read_to_string(file).map_err(map_err)?;
                    let (rows, ..) = parse_pipe_doc(&text)?;
                    let chrome = chrome_from_rows(&rows);
                    // Self-check: the export must round-trip through the
                    // house parser with every event intact.
                    let parsed = eos_check::schema::parse(&chrome)
                        .map_err(|e| CliError(format!("export failed self-check: {e}")))?;
                    let n = parsed
                        .get("traceEvents")
                        .and_then(eos_check::Json::as_array)
                        .map_or(0, <[eos_check::Json]>::len);
                    if n != rows.len() {
                        bail!("export failed self-check: {n} of {} events", rows.len());
                    }
                    match dest {
                        Some(p) => {
                            std::fs::write(p, &chrome).map_err(map_err)?;
                            writeln!(out, "wrote {n} trace event(s) to {p}").unwrap();
                        }
                        None => out.push_str(&chrome),
                    }
                }
                ("dump", [file]) => {
                    let text = std::fs::read_to_string(file).map_err(map_err)?;
                    let doc = eos_check::schema::parse(&text)
                        .map_err(|e| CliError(format!("bad flight dump: {e}")))?;
                    let flight = doc
                        .get("flight")
                        .ok_or(CliError("not a flight dump: no `flight` object".into()))?;
                    let reason = flight
                        .get("reason")
                        .and_then(eos_check::Json::as_str)
                        .unwrap_or("unknown");
                    let pipe = flight
                        .get("pipe")
                        .ok_or(CliError("flight dump has no `pipe` document".into()))?;
                    let rows = pipe
                        .get("events")
                        .and_then(eos_check::Json::as_array)
                        .map(pipe_rows)
                        .unwrap_or_default();
                    let u = |k: &str| pipe.get(k).and_then(eos_check::Json::as_u64).unwrap_or(0);
                    let spans = flight
                        .get("spans")
                        .and_then(eos_check::Json::as_array)
                        .map_or(0, <[eos_check::Json]>::len);
                    writeln!(out, "flight recorder dump — reason `{reason}`").unwrap();
                    writeln!(
                        out,
                        "pipeline window: {} event(s) ({} recorded, ring capacity {}, \
                         {} dropped); {spans} completed span(s)",
                        rows.len(),
                        u("recorded"),
                        u("capacity"),
                        u("dropped")
                    )
                    .unwrap();
                    render_pipe_rows(&mut out, &rows);
                }
                _ => bail!("usage: eos trace summary|export|dump ...\n{USAGE}"),
            },
            ("verify", [file]) => {
                let store = open_store(Path::new(file))?;
                store.buddy().check_invariants().map_err(map_err)?;
                let cat = Catalog::load(&store).map_err(map_err)?;
                let mut objects = 0;
                for name in cat.names() {
                    let obj = cat.get(name).map_err(map_err)?;
                    store
                        .verify_object(&obj)
                        .map_err(|e| CliError(format!("{name}: {e}")))?;
                    objects += 1;
                }
                writeln!(
                    out,
                    "ok: buddy maps consistent, {objects} object(s) verified"
                )
                .unwrap();
            }
            ("check", [file, opts @ ..]) => {
                let mut json = false;
                for o in opts {
                    match o.as_str() {
                        "--json" => json = true,
                        other => bail!("unknown option {other}"),
                    }
                }
                let report = run_check(Path::new(file))?;
                let rendered = if json {
                    let mut j = report.to_json();
                    j.push('\n');
                    j
                } else {
                    report.render_table()
                };
                // fsck semantics: findings worse than informational fail
                // the command (non-zero exit) but still print the report.
                if report.is_clean() {
                    out.push_str(&rendered);
                } else {
                    return Err(CliError(rendered));
                }
            }
            ("lint", opts) => {
                let mut json = false;
                let mut locks_dot = false;
                let mut durability_dot = false;
                let mut root = None;
                let mut lint_opts = eos_lint::Options::default();
                for o in opts {
                    match o.as_str() {
                        "--json" => json = true,
                        "--locks-dot" => locks_dot = true,
                        "--durability-dot" => durability_dot = true,
                        "--verbose" => lint_opts.verbose = true,
                        "--update-ratchet" => lint_opts.update_ratchet = true,
                        other if !other.starts_with('-') && root.is_none() => {
                            root = Some(other.to_string());
                        }
                        other => bail!("unknown option {other}"),
                    }
                }
                let root = root.unwrap_or_else(|| ".".to_string());
                let report = eos_lint::lint_workspace(Path::new(&root), &lint_opts)
                    .map_err(|e| CliError(format!("lint {root}: {e}")))?;
                let rendered = if locks_dot {
                    report.to_dot()
                } else if durability_dot {
                    report.to_durability_dot()
                } else if json {
                    let mut j = report.to_json();
                    j.push('\n');
                    j
                } else {
                    report.render_table()
                };
                // Same gate semantics as `check`: anything worse than
                // informational fails the command but still prints.
                if report.is_clean() {
                    out.push_str(&rendered);
                } else {
                    return Err(CliError(rendered));
                }
            }
            ("recover", [file]) => {
                let path = Path::new(file);
                let (mut store, report) = open_store_recover(path)?;
                writeln!(
                    out,
                    "recovered {file}: {} log record(s) scanned{}",
                    report.records_scanned,
                    if report.torn_tail {
                        ", torn tail cut"
                    } else {
                        ""
                    }
                )
                .unwrap();
                writeln!(
                    out,
                    "  rolled back {} uncommitted op(s), redid {} in-place write(s) ({} cancelled)",
                    report.rolled_back_ops, report.redo_pages, report.redo_cancelled
                )
                .unwrap();
                writeln!(
                    out,
                    "  {} committed object(s), log tail LSN {}",
                    report.objects.len(),
                    report.max_lsn
                )
                .unwrap();

                // Reconcile the catalog with the committed object set —
                // the log is authoritative, the boot record is only a
                // pointer. A crash between a commit and the catalog
                // save can leave stale names or orphaned objects.
                let committed: BTreeSet<u64> = report.objects.iter().map(LargeObject::id).collect();
                // A zeroed boot page is indistinguishable from a
                // never-saved catalog (both read back empty), so an
                // empty result with committed objects present also
                // takes the salvage path.
                let loaded = Catalog::load(&store);
                let needs_salvage = match &loaded {
                    Ok(c) => c.is_empty() && !report.objects.is_empty(),
                    Err(_) => true,
                };
                let mut cat = match loaded {
                    Ok(c) if !needs_salvage => c,
                    _ => {
                        // The boot record (a raw, unlogged page) did not
                        // survive. The catalog object itself is committed
                        // through the log — find it and re-point the boot
                        // record at it.
                        let salvaged = report.objects.iter().find(|obj| {
                            store
                                .read_all(obj)
                                .is_ok_and(|bytes| Catalog::parse(&bytes).is_ok())
                        });
                        match salvaged {
                            Some(obj) => {
                                store.write_boot_record(&obj.to_bytes()).map_err(map_err)?;
                                writeln!(
                                    out,
                                    "  boot record rebuilt from committed catalog object {}",
                                    obj.id()
                                )
                                .unwrap();
                                Catalog::load(&store).map_err(map_err)?
                            }
                            None => {
                                writeln!(out, "  catalog lost; starting empty").unwrap();
                                Catalog::new()
                            }
                        }
                    }
                };
                let catalog_obj_id = store
                    .read_boot_record()
                    .ok()
                    .filter(|b| !b.is_empty())
                    .and_then(|b| LargeObject::from_bytes(&b).ok())
                    .map(|o| o.id());

                // Drop names whose objects did not survive recovery.
                let names: Vec<String> = cat.names().map(str::to_string).collect();
                let mut dropped = 0usize;
                for name in names {
                    let live = cat.get(&name).is_ok_and(|o| committed.contains(&o.id()));
                    if !live {
                        cat.remove(&name);
                        dropped += 1;
                    }
                }
                // Collect committed objects no name (and no boot pointer)
                // reaches — garbage from a crash between commit and
                // catalog save.
                let named_ids: BTreeSet<u64> = cat
                    .names()
                    .filter_map(|n| cat.get(n).ok())
                    .map(|o| o.id())
                    .collect();
                let mut collected = 0usize;
                for obj in &report.objects {
                    if Some(obj.id()) != catalog_obj_id && !named_ids.contains(&obj.id()) {
                        let mut o = obj.clone();
                        store.delete_object(&mut o).map_err(map_err)?;
                        collected += 1;
                    }
                }
                if dropped > 0 || collected > 0 {
                    cat.save(&mut store).map_err(map_err)?;
                }
                writeln!(
                    out,
                    "  catalog: {} name(s) kept, {dropped} dropped, {collected} orphan object(s) collected",
                    cat.len()
                )
                .unwrap();
            }
            ("snapshot", [sub, rest @ ..]) => match (sub.as_str(), rest) {
                ("create", [file, snap]) => {
                    if snap.contains('/') {
                        bail!("snapshot names must not contain `/`");
                    }
                    let mut store = open_store(Path::new(file))?;
                    let mut cat = Catalog::load(&store).map_err(map_err)?;
                    let key = format!("{SNAP_PREFIX}{snap}");
                    if cat.get(&key).is_ok() {
                        bail!("snapshot `{snap}` already exists");
                    }
                    let mut entries: Vec<(String, Vec<u8>)> = Vec::new();
                    let mut max_lsn = 0u64;
                    for name in cat.names().filter(|n| !n.starts_with(SNAP_PREFIX)) {
                        let obj = cat.get(name).map_err(map_err)?;
                        max_lsn = max_lsn.max(obj.lsn());
                        entries.push((name.to_string(), obj.to_bytes()));
                    }
                    let bytes = encode_manifest(&entries);
                    let obj = store
                        .create_with(&bytes, Some(bytes.len() as u64))
                        .map_err(map_err)?;
                    cat.put(&key, &obj);
                    cat.save(&mut store).map_err(map_err)?;
                    writeln!(
                        out,
                        "snapshot {snap}: pinned {} object(s) at lsn {max_lsn} ({} manifest bytes)",
                        entries.len(),
                        bytes.len()
                    )
                    .unwrap();
                }
                ("list", [file]) => {
                    let store = open_store(Path::new(file))?;
                    let cat = Catalog::load(&store).map_err(map_err)?;
                    let snaps: Vec<String> = cat
                        .names()
                        .filter_map(|n| n.strip_prefix(SNAP_PREFIX))
                        .map(str::to_string)
                        .collect();
                    if snaps.is_empty() {
                        writeln!(out, "(no snapshots)").unwrap();
                    }
                    for snap in snaps {
                        let mobj = cat.get(&format!("{SNAP_PREFIX}{snap}")).map_err(map_err)?;
                        let entries = decode_manifest(&store.read_all(&mobj).map_err(map_err)?)?;
                        let max_lsn = entries
                            .iter()
                            .filter_map(|(_, d)| LargeObject::from_bytes(d).ok())
                            .map(|o| o.lsn())
                            .max()
                            .unwrap_or(0);
                        let intact = entries
                            .iter()
                            .filter(|(_, d)| snap_entry_intact(&cat, d))
                            .count();
                        writeln!(
                            out,
                            "{snap}\t{} object(s)\tlsn {max_lsn}\t{intact} still readable",
                            entries.len()
                        )
                        .unwrap();
                    }
                }
                ("read", [file, snap, name, output]) => {
                    let store = open_store(Path::new(file))?;
                    let cat = Catalog::load(&store).map_err(map_err)?;
                    let mobj = cat
                        .get(&format!("{SNAP_PREFIX}{snap}"))
                        .map_err(|_| CliError(format!("no snapshot named `{snap}`")))?;
                    let entries = decode_manifest(&store.read_all(&mobj).map_err(map_err)?)?;
                    let desc = entries
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, d)| d)
                        .ok_or_else(|| {
                            CliError(format!("snapshot `{snap}` has no object `{name}`"))
                        })?;
                    if !snap_entry_intact(&cat, desc) {
                        bail!(
                            "`{name}` diverged since snapshot `{snap}`: its pinned root is no \
                             longer live and the pages may have been reclaimed"
                        );
                    }
                    let obj = LargeObject::from_bytes(desc).map_err(map_err)?;
                    let data = store.read_all(&obj).map_err(map_err)?;
                    std::fs::write(output, &data).map_err(map_err)?;
                    writeln!(
                        out,
                        "wrote {} bytes to {output} (as of snapshot {snap})",
                        data.len()
                    )
                    .unwrap();
                }
                ("drop", [file, snap]) => {
                    let mut store = open_store(Path::new(file))?;
                    let mut cat = Catalog::load(&store).map_err(map_err)?;
                    let key = format!("{SNAP_PREFIX}{snap}");
                    let mut mobj = cat
                        .get(&key)
                        .map_err(|_| CliError(format!("no snapshot named `{snap}`")))?;
                    store.delete_object(&mut mobj).map_err(map_err)?;
                    cat.remove(&key);
                    cat.save(&mut store).map_err(map_err)?;
                    writeln!(out, "dropped snapshot {snap}").unwrap();
                }
                _ => bail!("usage: eos snapshot create|list|read|drop ...\n{USAGE}"),
            },
            ("help", _) => return err(USAGE),
            (other, _) => bail!("unknown or malformed command `{other}`\n{USAGE}"),
        },
    }
    Ok(out)
}

/// Usage text.
pub const USAGE: &str = "\
usage: eos <command> ...
  init <file> [--mb N]            format a volume (default 64 MiB)
  put <file> <name> <input>       store a file as a named object
  putmany <file> <input>...       store several files concurrently
                                  (one transaction per file, batched
                                  through the group-commit log; each
                                  is cataloged under its input path)
  get <file> <name> <output>      read an object into a file
  cat <file> <name> <off> <len>   hex-dump a byte range
  ls <file>                       list objects
  rm <file> <name>                delete an object
  splice <file> <name> <off> <input>  insert bytes at an offset
  cut <file> <name> <off> <len>   delete a byte range
  append <file> <name> <input>    append bytes
  compact <file> <name>           rewrite into maximal segments
  stat <file> [name]              store or object statistics
  stats <file> [--json|--prom] [--trace]
                                  per-operation I/O attribution, metric
                                  registry, and trace-ring summary for
                                  this process (table, shared JSON
                                  envelope, or Prometheus text)
  trace summary <events.json> [--top N]
                                  reconstruct group-commit batches from
                                  a raw pipeline-event dump and list the
                                  N slowest with their Phase A-D
                                  breakdown (default 5)
  trace export <events.json> [--out <path>]
                                  convert a raw dump to Chrome
                                  trace_event JSON (open in Perfetto or
                                  chrome://tracing)
  trace dump <flight.json>        render a flight-recorder dump (written
                                  to $EOS_FLIGHT_PATH on commit failure,
                                  recovery rollback, or panic)
  snapshot create <file> <name>   pin every cataloged object's current
                                  root in a named, descriptor-sized
                                  manifest (itself stored as an object)
  snapshot list <file>            list snapshots: objects pinned, lsn,
                                  how many roots are still readable
  snapshot read <file> <snap> <obj> <output>
                                  read an object as of a snapshot;
                                  refuses if the object diverged (its
                                  pinned pages may have been reclaimed)
  snapshot drop <file> <name>     delete a snapshot manifest
  verify <file>                   check every invariant (first failure)
  recover <file>                  run restart recovery, report what it
                                  found, reconcile the catalog
  check <file> [--json]           full static analysis: audit every
                                  buddy directory, census every page,
                                  report all findings (fsck)
  lint [root] [--json] [--locks-dot] [--durability-dot] [--verbose]
       [--update-ratchet]
                                  source-level invariant linter:
                                  panic-path ratchet, latch discipline,
                                  FORMAT.md drift, lock-order analysis,
                                  durability-ordering analysis (default
                                  root: .); --locks-dot / --durability-dot
                                  emit the hierarchies as Graphviz DOT";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("eos-cli-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn call(args: &[&str]) -> Result<String> {
        let v: Vec<String> = args.iter().map(std::string::ToString::to_string).collect();
        run(&v)
    }

    #[test]
    fn lint_subcommand_runs_clean_on_the_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap();
        let text = call(&["lint", root.to_str().unwrap()]).unwrap();
        assert!(text.contains("linted"), "{text}");
        let json = call(&["lint", root.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(call(&["lint", "--bogus"]).is_err());
    }

    #[test]
    fn putmany_ingests_concurrently_and_catalogs_everything() {
        let db = tmp("many.eos");
        let dbs = db.to_str().unwrap();
        assert!(call(&["init", dbs, "--mb", "16"])
            .unwrap()
            .contains("formatted"));
        let mut names = Vec::new();
        for i in 0..6u32 {
            let f = tmp(&format!("many-{i}.bin"));
            let data: Vec<u8> = (0..20_000u32)
                .map(|j| ((j * 7 + i * 13) % 251) as u8)
                .collect();
            std::fs::write(&f, &data).unwrap();
            names.push(f.to_str().unwrap().to_string());
        }
        let mut args = vec!["putmany".to_string(), dbs.to_string()];
        args.extend(names.iter().cloned());
        let text = run(&args).unwrap();
        assert!(text.contains("stored 6 object(s)"), "{text}");
        // Every file is cataloged under its path and byte-identical.
        for (i, name) in names.iter().enumerate() {
            let outf = tmp(&format!("many-out-{i}.bin"));
            call(&["get", dbs, name, outf.to_str().unwrap()]).unwrap();
            assert_eq!(std::fs::read(&outf).unwrap(), std::fs::read(name).unwrap());
        }
        // Re-ingesting replaces rather than duplicates, and the store
        // stays structurally clean.
        let text = run(&args).unwrap();
        assert!(text.contains("stored 6 object(s)"), "{text}");
        let check = call(&["check", dbs]).unwrap();
        assert!(check.contains("0 error(s)"), "{check}");
    }

    #[test]
    fn full_session() {
        let db = tmp("a.eos");
        let dbs = db.to_str().unwrap();
        let input = tmp("in.bin");
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&input, &data).unwrap();
        let ins = input.to_str().unwrap();

        assert!(call(&["init", dbs, "--mb", "16"])
            .unwrap()
            .contains("formatted"));
        assert!(call(&["put", dbs, "blob", ins])
            .unwrap()
            .contains("100000 bytes"));
        let ls = call(&["ls", dbs]).unwrap();
        assert!(ls.contains("blob") && ls.contains("100000 bytes"), "{ls}");

        // Byte-range edits.
        let patch = tmp("patch.bin");
        std::fs::write(&patch, b"PATCH").unwrap();
        call(&["splice", dbs, "blob", "10", patch.to_str().unwrap()]).unwrap();
        call(&["cut", dbs, "blob", "0", "10"]).unwrap();
        call(&["append", dbs, "blob", patch.to_str().unwrap()]).unwrap();

        let outp = tmp("out.bin");
        call(&["get", dbs, "blob", outp.to_str().unwrap()]).unwrap();
        let got = std::fs::read(&outp).unwrap();
        let mut want = data.clone();
        want.splice(10..10, *b"PATCH");
        want.drain(0..10);
        want.extend(*b"PATCH");
        assert_eq!(got, want);

        // cat prints hex of the patch at its post-cut position (offset 0).
        let hex = call(&["cat", dbs, "blob", "0", "5"]).unwrap();
        assert!(hex.contains("50 41 54 43 48"), "{hex}");

        assert!(call(&["stat", dbs]).unwrap().contains("pages free"));
        assert!(call(&["stat", dbs, "blob"]).unwrap().contains("segment(s)"));
        assert!(call(&["verify", dbs]).unwrap().contains("ok:"));
        assert!(call(&["compact", dbs, "blob"]).unwrap().contains("->"));
        assert!(call(&["verify", dbs]).unwrap().contains("1 object(s)"));
        assert!(call(&["rm", dbs, "blob"]).unwrap().contains("removed"));
        assert!(call(&["ls", dbs]).unwrap().contains("(empty)"));

        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(call(&[]).is_err());
        assert!(call(&["bogus"]).is_err());
        assert!(call(&["get", "/nonexistent.eos", "x", "/tmp/y"]).is_err());
        let db = tmp("err.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        assert!(call(&["get", dbs, "missing", "/tmp/nope"]).is_err());
        assert!(call(&["init", dbs, "--mb", "oops"]).is_err());
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn check_reports_clean_volume() {
        let db = tmp("check.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("check-in.bin");
        std::fs::write(&input, vec![42u8; 50_000]).unwrap();
        call(&["put", dbs, "blob", input.to_str().unwrap()]).unwrap();

        let table = call(&["check", dbs]).unwrap();
        assert!(table.contains("0 error(s)"), "{table}");
        assert!(table.contains("object(s)"), "{table}");

        // A fresh volume may carry Info-level superdirectory optimism
        // (by design) but must be clean: no warnings, no errors.
        let json = call(&["check", dbs, "--json"]).unwrap();
        assert!(json.starts_with("{\"clean\":true"), "{json}");
        assert!(!json.contains("\"error\""), "{json}");
        assert!(!json.contains("\"warning\""), "{json}");

        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn check_flags_corrupt_volume() {
        use std::io::{Seek, SeekFrom, Write};
        let db = tmp("check-bad.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("check-bad-in.bin");
        std::fs::write(&input, vec![11u8; 30_000]).unwrap();
        call(&["put", dbs, "blob", input.to_str().unwrap()]).unwrap();
        // Smashing a buddy directory is no longer enough: restart
        // recovery rebuilds the directories from the log on every open.
        // Smash both log superblock slots instead — attach refuses to
        // open a non-virgin region with no valid superblock (silently
        // reformatting would be data loss), and `check` must surface
        // that refusal as an error and exit non-zero, without
        // panicking.
        let total_pages = std::fs::metadata(&db).unwrap().len() / PAGE_SIZE as u64;
        let (spaces, pps) = layout_for(total_pages);
        let sb_base = (pps + 1) * spaces as u64;
        let mut f = std::fs::OpenOptions::new().write(true).open(&db).unwrap();
        f.seek(SeekFrom::Start(sb_base * PAGE_SIZE as u64)).unwrap();
        f.write_all(&vec![0xFFu8; 2 * 4096]).unwrap();
        drop(f);

        let err = call(&["check", dbs]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("error(s)") || text.contains("ERROR"),
            "{text}"
        );

        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn trace_subcommands_summarize_export_and_dump_real_events() {
        use eos::obs::Metrics;
        use eos::pager::MemVolume;

        // Generate a genuine event stream: a private domain, a small
        // concurrent store, a handful of commits.
        let metrics = Metrics::new();
        let vol = MemVolume::with_profile(4096, 6144, eos::pager::DiskProfile::FREE).shared();
        let mut store = eos::core::ObjectStore::create_durable(
            vol,
            1,
            4096,
            eos::core::StoreConfig::default(),
            1024,
        )
        .unwrap();
        store.set_metrics(&metrics);
        let cs = ConcurrentStore::new(store);
        for i in 0..3u8 {
            let txn = cs.begin();
            let mut obj = txn.create(&vec![i; 5_000], None).unwrap();
            txn.append(&mut obj, &[i; 500]).unwrap();
            txn.commit().unwrap();
        }

        let events = tmp("trace-events.json");
        std::fs::write(&events, eos::obs::pipe_doc_json(&metrics)).unwrap();
        let flight = tmp("trace-flight.json");
        std::fs::write(&flight, metrics.flight_json("commit_failed")).unwrap();
        let ev = events.to_str().unwrap();

        let summary = call(&["trace", "summary", ev]).unwrap();
        assert!(summary.contains("pipeline: "), "{summary}");
        assert!(summary.contains("slowest commit batch(es)"), "{summary}");
        assert!(summary.contains("WALL-US"), "{summary}");
        let top1 = call(&["trace", "summary", ev, "--top", "1"]).unwrap();
        assert!(top1.contains("top 1 slowest"), "{top1}");

        // Export: valid Chrome trace_event JSON, to stdout and to a file.
        let chrome = call(&["trace", "export", ev]).unwrap();
        let doc = eos_check::schema::parse(&chrome).unwrap();
        assert!(doc
            .get("traceEvents")
            .and_then(eos_check::Json::as_array)
            .is_some_and(|a| !a.is_empty()));
        let outp = tmp("trace-chrome.json");
        let msg = call(&["trace", "export", ev, "--out", outp.to_str().unwrap()]).unwrap();
        assert!(msg.contains("trace event(s)"), "{msg}");
        eos_check::schema::parse(&std::fs::read_to_string(&outp).unwrap()).unwrap();

        let dump = call(&["trace", "dump", flight.to_str().unwrap()]).unwrap();
        assert!(dump.contains("reason `commit_failed`"), "{dump}");
        assert!(dump.contains("completed span(s)"), "{dump}");
        assert!(dump.contains("PHASE"), "{dump}");

        // Malformed inputs fail without panicking.
        let bogus = tmp("trace-bogus.json");
        std::fs::write(&bogus, "{\"nope\":1}").unwrap();
        assert!(call(&["trace", "summary", bogus.to_str().unwrap()]).is_err());
        assert!(call(&["trace", "dump", bogus.to_str().unwrap()]).is_err());
        assert!(call(&["trace", "frobnicate"]).is_err());
    }

    #[test]
    fn recover_on_a_healthy_volume_is_a_no_op() {
        let db = tmp("rec-clean.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("rec-in.bin");
        std::fs::write(&input, vec![3u8; 20_000]).unwrap();
        call(&["put", dbs, "blob", input.to_str().unwrap()]).unwrap();

        let report = call(&["recover", dbs]).unwrap();
        assert!(report.contains("rolled back 0 uncommitted"), "{report}");
        assert!(report.contains("0 dropped, 0 orphan"), "{report}");
        // The volume still checks out and the object is intact.
        assert!(call(&["check", dbs]).is_ok());
        let outp = tmp("rec-out.bin");
        call(&["get", dbs, "blob", outp.to_str().unwrap()]).unwrap();
        assert_eq!(std::fs::read(&outp).unwrap(), vec![3u8; 20_000]);
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn recover_collects_orphans_and_stale_names() {
        let db = tmp("rec-gc.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("rec-gc-in.bin");
        std::fs::write(&input, vec![5u8; 9_000]).unwrap();
        call(&["put", dbs, "keep", input.to_str().unwrap()]).unwrap();

        // Simulate a command that crashed between committing an object
        // and saving the catalog: commit straight through the library
        // without a catalog entry.
        {
            let (mut store, _) = open_store_recover(Path::new(dbs)).unwrap();
            store.create_with(&[9u8; 5000], None).unwrap();
            // dropped here: committed but unnamed — an orphan
        }

        let report = call(&["recover", dbs]).unwrap();
        assert!(report.contains("1 orphan object(s) collected"), "{report}");
        assert!(report.contains("1 name(s) kept"), "{report}");
        // `check` agrees nothing leaks afterwards.
        assert!(call(&["check", dbs]).is_ok());
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn recover_salvages_catalog_after_boot_page_loss() {
        use std::io::{Seek, SeekFrom, Write};
        let db = tmp("rec-boot.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("rec-boot-in.bin");
        std::fs::write(&input, vec![8u8; 14_000]).unwrap();
        call(&["put", dbs, "blob", input.to_str().unwrap()]).unwrap();

        // Zero the boot page (volume page 1): a torn catalog-save. The
        // boot record reads back *empty* — indistinguishable from a
        // never-saved catalog — so salvage must kick in anyway and
        // re-point it at the committed catalog object instead of
        // collecting everything as orphans.
        let mut f = std::fs::OpenOptions::new().write(true).open(&db).unwrap();
        f.seek(SeekFrom::Start(PAGE_SIZE as u64)).unwrap();
        f.write_all(&vec![0u8; PAGE_SIZE]).unwrap();
        drop(f);

        let report = call(&["recover", dbs]).unwrap();
        assert!(report.contains("boot record rebuilt"), "{report}");
        assert!(report.contains("1 name(s) kept"), "{report}");
        assert!(report.contains("0 orphan object(s) collected"), "{report}");
        let outp = tmp("rec-boot-out.bin");
        call(&["get", dbs, "blob", outp.to_str().unwrap()]).unwrap();
        assert_eq!(std::fs::read(&outp).unwrap(), vec![8u8; 14_000]);
        assert!(call(&["check", dbs]).is_ok());
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn stats_attributes_quickstart_io_to_operations() {
        let db = tmp("stats.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("stats-in.bin");
        std::fs::write(&input, vec![9u8; 120_000]).unwrap();
        call(&["put", dbs, "blob", input.to_str().unwrap()]).unwrap();
        call(&["cat", dbs, "blob", "50000", "64"]).unwrap();
        let patch = tmp("stats-patch.bin");
        std::fs::write(&patch, vec![1u8; 5_000]).unwrap();
        call(&["splice", dbs, "blob", "60000", patch.to_str().unwrap()]).unwrap();

        // The quickstart's I/O lands on the process-global domain,
        // attributed per operation: put → create, cat → read,
        // splice → insert.
        let json = call(&["stats", dbs, "--json"]).unwrap();
        let env = eos_check::parse_envelope(&json).unwrap();
        assert!(env.clean && env.findings.is_empty());
        let ops = env
            .body
            .get("metrics")
            .and_then(|m| m.get("ops"))
            .and_then(eos_check::Json::as_array)
            .unwrap();
        for wanted in ["create", "read", "insert"] {
            let row = ops
                .iter()
                .find(|o| o.get("op").and_then(eos_check::Json::as_str) == Some(wanted))
                .unwrap_or_else(|| panic!("no `{wanted}` row in {json}"));
            let field = |k: &str| row.get(k).and_then(eos_check::Json::as_u64).unwrap();
            assert!(field("count") > 0, "{wanted} never ran: {json}");
            assert!(field("seeks") > 0, "{wanted} attributed no seeks: {json}");
            assert!(
                field("page_reads") + field("page_writes") > 0,
                "{wanted} attributed no transfers: {json}"
            );
        }

        // All three renderings work; bad flag combos do not.
        let table = call(&["stats", dbs]).unwrap();
        assert!(
            table.contains("OPERATION") && table.contains("create"),
            "{table}"
        );
        for metric in ["wal.redo_bytes", "mvcc.overlay_pages"] {
            assert!(table.contains(metric), "{metric} missing from {table}");
        }
        let traced = call(&["stats", dbs, "--trace"]).unwrap();
        assert!(traced.contains("SEQ"), "{traced}");
        let prom = call(&["stats", dbs, "--prom"]).unwrap();
        assert!(prom.contains("eos_op_seeks{op=\"create\"}"), "{prom}");
        assert!(call(&["stats", dbs, "--json", "--prom"]).is_err());
        assert!(call(&["stats", dbs, "--json", "--trace"]).is_err());
        assert!(call(&["stats", dbs, "--bogus"]).is_err());
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn check_and_stats_share_the_report_envelope() {
        let db = tmp("envelope.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("envelope-in.bin");
        std::fs::write(&input, vec![4u8; 10_000]).unwrap();
        call(&["put", dbs, "blob", input.to_str().unwrap()]).unwrap();

        // One schema helper parses both commands' --json output.
        for cmd in ["check", "stats"] {
            let json = call(&[cmd, dbs, "--json"]).unwrap();
            let env = eos_check::parse_envelope(&json)
                .unwrap_or_else(|e| panic!("{cmd} --json broke the envelope: {e}\n{json}"));
            assert!(env.clean, "{cmd}: {json}");
            assert!(
                env.findings.iter().all(|f| f.severity == "info"),
                "{cmd}: {json}"
            );
        }
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn named_snapshots_pin_and_refuse_after_divergence() {
        let db = tmp("snap.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let a_in = tmp("snap-a.bin");
        let b_in = tmp("snap-b.bin");
        let a_data: Vec<u8> = (0..30_000u32).map(|i| (i % 241) as u8).collect();
        std::fs::write(&a_in, &a_data).unwrap();
        std::fs::write(&b_in, vec![6u8; 12_000]).unwrap();
        call(&["put", dbs, "a", a_in.to_str().unwrap()]).unwrap();
        call(&["put", dbs, "b", b_in.to_str().unwrap()]).unwrap();

        let text = call(&["snapshot", "create", dbs, "s1"]).unwrap();
        assert!(text.contains("pinned 2 object(s)"), "{text}");
        // A snapshot is cheap: descriptor-sized entries, not a copy.
        assert!(text.contains("manifest bytes"), "{text}");
        assert!(call(&["snapshot", "create", dbs, "s1"]).is_err());
        assert!(call(&["snapshot", "create", dbs, "s/1"]).is_err());

        let ls = call(&["snapshot", "list", dbs]).unwrap();
        assert!(ls.contains("s1") && ls.contains("2 still readable"), "{ls}");

        // Both objects read back as-of the snapshot.
        let a_out = tmp("snap-a-out.bin");
        call(&["snapshot", "read", dbs, "s1", "a", a_out.to_str().unwrap()]).unwrap();
        assert_eq!(std::fs::read(&a_out).unwrap(), a_data);

        // Diverge `a`: append frees nothing but replaces its root; the
        // snapshot must now refuse `a` (pages no longer pinned) while
        // `b` stays readable.
        call(&["append", dbs, "a", b_in.to_str().unwrap()]).unwrap();
        let e = call(&["snapshot", "read", dbs, "s1", "a", a_out.to_str().unwrap()])
            .unwrap_err()
            .to_string();
        assert!(e.contains("diverged"), "{e}");
        let b_out = tmp("snap-b-out.bin");
        call(&["snapshot", "read", dbs, "s1", "b", b_out.to_str().unwrap()]).unwrap();
        assert_eq!(std::fs::read(&b_out).unwrap(), vec![6u8; 12_000]);
        let ls = call(&["snapshot", "list", dbs]).unwrap();
        assert!(ls.contains("1 still readable"), "{ls}");

        // Unknown names and missing snapshots are reported, drop works,
        // and the store stays structurally clean throughout.
        assert!(call(&["snapshot", "read", dbs, "s1", "zz", "/tmp/x"]).is_err());
        assert!(call(&["snapshot", "read", dbs, "nope", "a", "/tmp/x"]).is_err());
        assert!(call(&["snapshot", "drop", dbs, "nope"]).is_err());
        call(&["snapshot", "drop", dbs, "s1"]).unwrap();
        let ls = call(&["snapshot", "list", dbs]).unwrap();
        assert!(ls.contains("(no snapshots)"), "{ls}");
        assert!(call(&["check", dbs]).is_ok());
        std::fs::remove_file(&db).ok();
    }

    #[test]
    fn put_replaces_and_reclaims() {
        let db = tmp("repl.eos");
        let dbs = db.to_str().unwrap();
        call(&["init", dbs, "--mb", "16"]).unwrap();
        let input = tmp("big.bin");
        std::fs::write(&input, vec![7u8; 2_000_000]).unwrap();
        let small = tmp("small.bin");
        std::fs::write(&small, b"tiny").unwrap();
        call(&["put", dbs, "x", input.to_str().unwrap()]).unwrap();
        let before = call(&["stat", dbs]).unwrap();
        call(&["put", dbs, "x", small.to_str().unwrap()]).unwrap();
        let after = call(&["stat", dbs]).unwrap();
        let free = |s: &str| -> u64 { s.split_whitespace().next().unwrap().parse().unwrap() };
        assert!(free(&after) > free(&before), "{before} -> {after}");
        std::fs::remove_file(&db).ok();
    }
}
