//! One pass of a workload: set up (several times, timed), measure,
//! verify against the model, drop the store uncleanly, recover, verify
//! again and run `eos-check`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eos_core::{ConcurrentStore, ObjectStore, StoreConfig};
use eos_obs::{HistogramSnapshot, Metrics, MetricsSnapshot};
use eos_pager::{DiskProfile, FileVolume, IoStats, SharedVolume, Volume};

use crate::timed::{Call, Io, TimedVolume, TraceTotals, Tracer};
use crate::workloads::{self, Ctx, Event, Layout, Samples, Workload};

pub const PAGE: usize = 4096;

/// Durable, fsync-per-commit configuration: the flush policy every
/// workload runs under.
fn config() -> StoreConfig {
    StoreConfig {
        sync_on_commit: true,
        ..StoreConfig::default()
    }
}

/// A named measurement with its unit and sample count.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub late: u64,
    pub sends: u64,
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless the pass was traced.
    pub layers: Vec<Metric>,
}

impl Pass {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The store under test plus the handles the benchmark measures it by.
struct Rig {
    file: Arc<FileVolume>,
    metrics: Metrics,
    cs: ConcurrentStore,
    tracer: Option<Arc<Tracer>>,
}

impl Rig {
    /// Format a fresh store on the preallocated volume file at `path`.
    fn create(path: &Path, layout: Layout, traced: bool) -> Result<Rig, String> {
        let file = Arc::new(
            FileVolume::open(path, PAGE, DiskProfile::FREE)
                .map_err(|e| format!("open {}: {e}", path.display()))?,
        );
        let tracer = traced.then(Tracer::new);
        let volume: SharedVolume = match &tracer {
            Some(t) => Arc::new(TimedVolume::new(file.clone(), t.clone())),
            None => file.clone(),
        };
        let mut store = ObjectStore::create_durable(
            volume,
            layout.spaces,
            layout.pps,
            config(),
            layout.wal_pages,
        )
        .map_err(|e| format!("create_durable: {e}"))?;
        let metrics = Metrics::new();
        store.set_metrics(&metrics);
        Ok(Rig {
            file,
            cs: ConcurrentStore::new(store),
            metrics,
            tracer,
        })
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            cs: &self.cs,
            tracer: self.tracer.as_deref(),
            deferred_pages: self.metrics.gauge("mvcc.deferred_pages"),
        }
    }
}

/// Write the whole volume file with zeros and sync it, so every page
/// has its disk blocks before the store starts: the file then behaves
/// like the raw partition EOS volumes were, and no commit pays for
/// filesystem block allocation (`FileVolume::create` leaves the file
/// sparse). Done once per pass, untimed; every set-up of the pass
/// formats a new store over the same file, which writes no new blocks
/// and frees none.
fn preallocate(path: &Path, layout: Layout) -> std::io::Result<()> {
    let pages = (layout.pps + 1) * layout.spaces as u64 + layout.wal_pages;
    let mut f = std::fs::File::create(path)?;
    let zeros = vec![0u8; 256 * PAGE];
    let mut left = pages;
    while left > 0 {
        let n = left.min(256);
        f.write_all(&zeros[..n as usize * PAGE])?;
        left -= n;
    }
    f.sync_all()
}

/// Counters read at the edges of the measured window.
struct Edge {
    io: IoStats,
    registry: MetricsSnapshot,
    trace: Option<TraceTotals>,
}

impl Edge {
    fn take(rig: &Rig) -> Edge {
        Edge {
            io: rig.file.stats(),
            registry: rig.metrics.snapshot(),
            trace: rig.tracer.as_ref().map(|t| t.totals()),
        }
    }
}

/// Volume files live under the working directory, on the filesystem the
/// checkout is on, and are removed when the pass ends.
fn data_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_data");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes a volume file when dropped, then syncs its directory so the
/// deletion (and the block discards it may trigger) is committed now,
/// outside every timed phase, rather than during a later fsync.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        }
    }
}

/// A `FileVolume` that remembers the first pre-image of every page
/// written through it, so the file can be put back exactly as it was.
/// Recovery writes only rebuilt directories, undo images and a fresh
/// checkpoint; restoring those pages recreates the crashed image, so
/// recovery can be timed several times on the same bytes.
struct UndoVolume {
    inner: Arc<FileVolume>,
    saved: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl Volume for UndoVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: u64, pages: u64, buf: &mut [u8]) -> eos_pager::Result<()> {
        self.inner.read_into(start, pages, buf)
    }

    fn write_pages(&self, start: u64, data: &[u8]) -> eos_pager::Result<()> {
        let pages = (data.len() / PAGE) as u64;
        {
            let mut saved = self.saved.lock().expect("undo map poisoned");
            for p in start..start + pages {
                if let std::collections::btree_map::Entry::Vacant(e) = saved.entry(p) {
                    e.insert(self.inner.read_pages(p, 1)?);
                }
            }
        }
        self.inner.write_pages(start, data)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn sync(&self) -> eos_pager::Result<()> {
        self.inner.sync()
    }
}

/// Idle time before the set-ups and before the measured window.
const SETTLE: std::time::Duration = std::time::Duration::from_secs(3);

/// Timed recoveries per pass; `recovery_s` is their median.
const RECOVERIES: usize = 11;

/// Run `name` once: `setups` timed set-ups (the last one is kept and
/// measured), then `seconds` of workload, then the correctness gates.
pub fn run_pass(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Pass, String> {
    let layout = workloads::make(name, seed)
        .ok_or_else(|| format!("unknown workload {name}"))?
        .layout();
    let guard = RemoveOnDrop(data_dir()?.join(format!("{name}-{}.vol", std::process::id())));
    preallocate(&guard.0, layout).map_err(|e| format!("create {}: {e}", guard.0.display()))?;
    // Let the device absorb the burst of writes just made (on a shared
    // virtual disk it drains for seconds after the last fsync returns),
    // here and again before the measured window, so each timed phase
    // starts from an idle device.
    std::thread::sleep(SETTLE);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setups.max(1) {
        // Drop the previous set-up's store before formatting over it.
        drop(kept.take());
        let t0 = Instant::now();
        let mut w = workloads::make(name, seed).expect("workload name checked above");
        let rig = Rig::create(&guard.0, layout, traced)?;
        w.setup(&rig.ctx())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((w, rig));
    }
    let (mut w, rig) = kept.expect("at least one set-up ran");
    std::thread::sleep(SETTLE);

    let before = Edge::take(&rig);
    let t0 = Instant::now();
    let samples = w.run(&rig.ctx(), seconds);
    let elapsed = t0.elapsed().as_secs_f64();
    let after = Edge::take(&rig);

    // The log recovery replays: a checkpoint, then a fixed tail of the
    // workload's writes. Otherwise its length would depend on where the
    // run happened to stop in the log's checkpoint cycle.
    rig.cs
        .with_store(|st| st.durable_wal().map(|wal| wal.checkpoint()))
        .transpose()
        .map_err(|e| format!("closing checkpoint: {e}"))?;
    let tail = w.tail(&rig.ctx());

    let mut problems = samples.mismatches.clone();
    problems.extend(tail.mismatches);
    verify_live(&rig.cs, w.as_ref(), &mut problems);
    let mut layers = match (&before.trace, &after.trace) {
        (Some(b), Some(a)) => layer_metrics(&rig, &samples, &before, &after, &(a - b)),
        _ => Vec::new(),
    };
    // Unclean drop: no checkpoint, no shutdown; every handle goes.
    drop(rig);
    let (recovery_s, records) = recover_and_check(&guard.0, layout, w.as_ref(), &mut problems)?;

    let io = after.io - before.io;
    let end_to_end = end_to_end_metrics(&samples, elapsed, &setup_s, &io, recovery_s);
    if !layers.is_empty() {
        layers.push(metric(
            "recovery.records_scanned",
            records as f64,
            "count",
            1,
        ));
    }
    Ok(Pass {
        attempted: samples.attempted + tail.attempted,
        failed: samples.failed + tail.failed,
        late: samples.late,
        sends: samples.sends,
        problems,
        end_to_end,
        layers,
    })
}

/// Every live object reads back equal to the model, and the store
/// holds no object the model does not.
fn verify_live(cs: &ConcurrentStore, w: &dyn Workload, problems: &mut Vec<String>) {
    let snap = cs.snapshot();
    let model = w.model();
    let mut ids: Vec<u64> = model.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    if snap.object_ids() != ids {
        problems.push(format!(
            "live store holds {} objects, model {}",
            snap.object_ids().len(),
            ids.len()
        ));
    }
    for (id, want) in model {
        match snap.read_all(id) {
            Ok(got) if got == want => {}
            Ok(_) => problems.push(format!("object {id}: live bytes differ from the model")),
            Err(e) => problems.push(format!("object {id}: live read failed: {e}")),
        }
    }
}

/// Reopen the volume file (restart recovery, timed), run `eos-check`
/// on it and compare every recovered object with the model.
fn recover_and_check(
    path: &Path,
    layout: Layout,
    w: &dyn Workload,
    problems: &mut Vec<String>,
) -> Result<(f64, u64), String> {
    let file = Arc::new(
        FileVolume::open(path, PAGE, DiskProfile::FREE)
            .map_err(|e| format!("reopen {}: {e}", path.display()))?,
    );
    let open = |volume: SharedVolume| {
        ObjectStore::open_durable(
            volume,
            layout.spaces,
            layout.pps,
            config(),
            layout.wal_pages,
        )
        .map_err(|e| format!("recovery failed: {e}"))
    };
    // An untimed first recovery learns which pages recovery writes;
    // putting their old bytes back re-creates the crashed image.
    let undo = Arc::new(UndoVolume {
        inner: file.clone(),
        saved: Mutex::new(BTreeMap::new()),
    });
    drop(open(undo.clone())?);
    let saved = std::mem::take(&mut *undo.saved.lock().expect("undo map poisoned"));
    let restore = || -> Result<(), String> {
        for (page, bytes) in &saved {
            file.write_pages(*page, bytes)
                .map_err(|e| format!("restore: {e}"))?;
        }
        file.sync().map_err(|e| format!("restore sync: {e}"))
    };
    restore()?;
    let mut times = Vec::with_capacity(RECOVERIES);
    let mut recovered = None;
    for i in 0..RECOVERIES {
        let t0 = Instant::now();
        let r = open(file.clone())?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 < RECOVERIES {
            drop(r);
            restore()?;
        } else {
            recovered = Some(r);
        }
    }
    let (store, report) = recovered.expect("RECOVERIES > 0");
    let recovery_s = quantile(&times, 0.5);

    let named: Vec<(String, eos_core::LargeObject)> = report
        .objects
        .iter()
        .map(|o| (format!("obj-{}", o.id()), o.clone()))
        .collect();
    let check = eos_check::check_store(&store, &named, None);
    if !check.is_clean() {
        problems.push(format!(
            "eos-check after recovery:\n{}",
            check.render_table()
        ));
    }
    let model: std::collections::BTreeMap<u64, &[u8]> = w.model().into_iter().collect();
    if report.objects.len() != model.len() {
        problems.push(format!(
            "recovered {} objects, model holds {}",
            report.objects.len(),
            model.len()
        ));
    }
    for obj in &report.objects {
        match (model.get(&obj.id()), store.read_all(obj)) {
            (Some(want), Ok(got)) if got == *want => {}
            (None, _) => problems.push(format!("recovered object {} not in model", obj.id())),
            (_, Err(e)) => problems.push(format!("recovered object {}: {e}", obj.id())),
            _ => problems.push(format!("recovered object {} differs from model", obj.id())),
        }
    }
    Ok((recovery_s, report.records_scanned))
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn end_to_end_metrics(
    s: &Samples,
    elapsed: f64,
    setup_s: &[f64],
    io: &IoStats,
    recovery_s: f64,
) -> Vec<Metric> {
    let commits = s.commits.len() as u64;
    let reads = s.reads.len() as u64;
    let bytes = |v: &[Event]| v.iter().map(|e| e.bytes).sum::<u64>() as f64;
    let us = |v: &[Event]| v.iter().map(|e| e.us).collect::<Vec<_>>();
    let (written, read) = (bytes(&s.commits), bytes(&s.reads));
    let (commit_us, read_us) = (us(&s.commits), us(&s.reads));
    let device = |pages: u64| (pages * PAGE as u64) as f64;
    vec![
        metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.len() as u64),
        metric("txn_per_s", commits as f64 / elapsed, "1/s", commits),
        metric("write_mb_s", written / elapsed / 1e6, "MB/s", commits),
        metric("read_per_s", reads as f64 / elapsed, "1/s", reads),
        metric("read_mb_s", read / elapsed / 1e6, "MB/s", reads),
        metric("commit_p50_us", quantile(&commit_us, 0.5), "us", commits),
        metric("commit_p99_us", quantile(&commit_us, 0.99), "us", commits),
        metric("read_p50_us", quantile(&read_us, 0.5), "us", reads),
        metric("read_p99_us", quantile(&read_us, 0.99), "us", reads),
        metric(
            "write_amp",
            device(io.page_writes) / written,
            "ratio",
            commits,
        ),
        metric("read_amp", device(io.page_reads) / read, "ratio", reads),
        metric(
            "space_amp",
            quantile(&s.space_amp, 0.5),
            "ratio",
            s.space_amp.len() as u64,
        ),
        metric("recovery_s", recovery_s, "s", RECOVERIES as u64),
    ]
}

/// `b - a` of one registry histogram (missing counts as empty).
fn hist_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let empty = HistogramSnapshot {
        name: name.to_string(),
        count: 0,
        sum: 0,
        buckets: Vec::new(),
    };
    let hb = b.histogram(name).cloned().unwrap_or_else(|| empty.clone());
    let ha = a.histogram(name).unwrap_or(&empty);
    let buckets = hb
        .buckets
        .iter()
        .map(|&(k, n)| {
            let old = ha
                .buckets
                .iter()
                .find(|&&(j, _)| j == k)
                .map_or(0, |&(_, m)| m);
            (k, n - old)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        name: name.to_string(),
        count: hb.count - ha.count,
        sum: hb.sum - ha.sum,
        buckets,
    }
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

fn layer_metrics(
    rig: &Rig,
    s: &Samples,
    before: &Edge,
    after: &Edge,
    w: &TraceTotals,
) -> Vec<Metric> {
    let (r0, r1) = (&before.registry, &after.registry);
    let counter = |name: &str| r1.counter(name).unwrap_or(0) - r0.counter(name).unwrap_or(0);
    let hist = |name: &str| hist_delta(r0, r1, name);
    let txns = s.commits.len() as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = Vec::new();

    // pager: the timed Volume wrapper.
    for (io, label) in [(Io::Read, "read"), (Io::Write, "write"), (Io::Sync, "sync")] {
        let t = w.io(io);
        out.push(metric(
            &format!("pager.{label}.calls"),
            t.calls as f64,
            "count",
            t.calls,
        ));
        out.push(metric(
            &format!("pager.{label}.pages"),
            t.pages as f64,
            "pages",
            t.calls,
        ));
        out.push(metric(
            &format!("pager.{label}.us"),
            us(t.ns),
            "us",
            t.calls,
        ));
    }
    let to_us = |v: &[u64]| v.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>();
    let p99_or_0 = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            quantile(&to_us(v), 0.99)
        }
    };
    out.push(metric(
        "pager.read.p99_us",
        p99_or_0(&w.read_ns),
        "us",
        w.read_ns.len() as u64,
    ));
    out.push(metric(
        "pager.sync.p99_us",
        p99_or_0(&w.sync_ns),
        "us",
        w.sync_ns.len() as u64,
    ));
    let syncs = w.io(Io::Sync).calls;
    out.push(metric(
        "pager.syncs_per_txn",
        ratio(syncs as f64, txns),
        "ratio",
        syncs,
    ));
    out.push(metric(
        "pager.unattributed_pct",
        w.unattributed_pct(),
        "%",
        1,
    ));

    // buddy: the store's registry, plus the free-space shape at the end.
    for name in ["buddy.alloc.pages", "buddy.free.pages"] {
        let h = hist(name);
        out.push(metric(name, h.sum as f64, "pages", h.count));
    }
    let depth = hist("buddy.coalesce.depth");
    out.push(metric(
        "buddy.coalesce.depth",
        ratio(depth.sum as f64, depth.count as f64),
        "levels",
        depth.count,
    ));
    for name in ["buddy.latch.wait_us", "buddy.latch.hold_us"] {
        let h = hist(name);
        out.push(metric(name, h.sum as f64, "us", h.count));
    }
    out.push(metric(
        "buddy.alloc.nospace",
        counter("buddy.alloc.nospace") as f64,
        "count",
        1,
    ));
    let largest = rig
        .cs
        .with_store(|st| st.buddy().fragmentation().largest_free_run);
    out.push(metric(
        "buddy.largest_free_pages",
        largest as f64,
        "pages",
        1,
    ));

    // tree: timed public calls (self time = wall - pager time), object
    // shape from object_stats over the live objects, reshuffle counters.
    for call in [
        Call::TreeCreate,
        Call::TreeAppend,
        Call::TreeInsert,
        Call::TreeDelete,
        Call::TreeReplace,
        Call::TreeRead,
    ] {
        let t = w.call(call);
        out.push(metric(
            &format!("{}.calls", call.name()),
            t.calls as f64,
            "count",
            t.calls,
        ));
        out.push(metric(
            &format!("{}.self_us", call.name()),
            us(t.self_ns()),
            "us",
            t.calls,
        ));
    }
    let snap = rig.cs.snapshot();
    let (mut height, mut segments, mut leaf_pages, mut bytes, mut objects) = (0u16, 0, 0, 0, 0);
    rig.cs.with_store(|st| {
        for id in snap.object_ids() {
            let obj = snap.object(id).expect("listed by the snapshot");
            if let Ok(os) = st.object_stats(&obj) {
                height = height.max(os.height);
                segments += os.segments;
                leaf_pages += os.leaf_pages;
                bytes += os.size;
                objects += 1;
            }
        }
    });
    drop(snap);
    out.push(metric(
        "tree.height_max",
        f64::from(height),
        "levels",
        objects,
    ));
    out.push(metric(
        "tree.segments_per_mb",
        ratio(segments as f64, bytes as f64 / 1e6),
        "1/MB",
        objects,
    ));
    out.push(metric(
        "tree.leaf_utilization",
        ratio(bytes as f64, (leaf_pages * PAGE as u64) as f64),
        "ratio",
        objects,
    ));
    let triggers =
        r1.counter_prefix_sum("reshuffle.triggers") - r0.counter_prefix_sum("reshuffle.triggers");
    out.push(metric(
        "reshuffle.triggers",
        triggers as f64,
        "count",
        triggers,
    ));
    let moved = hist("reshuffle.pages_moved");
    out.push(metric(
        "reshuffle.pages_moved",
        moved.sum as f64,
        "pages",
        moved.count,
    ));

    // wal: log counters and the commit pipeline's phase histograms.
    out.push(metric(
        "wal.frames",
        counter("wal.frames") as f64,
        "count",
        1,
    ));
    out.push(metric(
        "wal.bytes_per_txn",
        ratio(counter("wal.bytes") as f64, txns),
        "B",
        txns as u64,
    ));
    let wal_syncs = counter("wal.syncs");
    out.push(metric(
        "wal.syncs_per_txn",
        ratio(wal_syncs as f64, txns),
        "ratio",
        wal_syncs,
    ));
    out.push(metric(
        "wal.checkpoints",
        counter("wal.checkpoints") as f64,
        "count",
        1,
    ));
    let batch = hist("wal.group_commit.batch");
    out.push(metric(
        "wal.group_commit.batch",
        ratio(batch.sum as f64, batch.count as f64),
        "txns",
        batch.count,
    ));
    for name in [
        "commit.queue_wait_us",
        "commit.phase_a.wall_us",
        "commit.phase_b.wall_us",
        "commit.phase_c.wall_us",
        "commit.phase_d.wall_us",
    ] {
        let h = hist(name);
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            out.push(metric(
                &format!("{name}.{tag}"),
                h.quantile(q) as f64,
                "us",
                h.count,
            ));
        }
    }

    // txn: begin/commit/snapshot calls timed from outside; MVCC and
    // lock-table counters from the registry.
    let begin = w.call(Call::TxnBegin);
    out.push(metric("txn.begin.us", us(begin.wall_ns), "us", begin.calls));
    let commit = w.call(Call::TxnCommit);
    out.push(metric(
        "txn.commit.self_us",
        us(commit.self_ns()),
        "us",
        commit.calls,
    ));
    let snapshot = w.call(Call::MvccSnapshot);
    out.push(metric(
        "mvcc.snapshot.us",
        us(snapshot.wall_ns),
        "us",
        snapshot.calls,
    ));
    let pin = hist("mvcc.pin.hold_us");
    out.push(metric("mvcc.pin.hold_us", pin.sum as f64, "us", pin.count));
    out.push(metric(
        "mvcc.reclaimed_pages",
        counter("mvcc.reclaimed_pages") as f64,
        "pages",
        1,
    ));
    out.push(metric(
        "mvcc.deferred_pages",
        s.deferred_pages_peak as f64,
        "pages",
        1,
    ));
    out.push(metric(
        "locks.conflicts",
        counter("locks.conflicts") as f64,
        "count",
        1,
    ));
    let lw = hist("locks.wait_us");
    out.push(metric("locks.wait_us", lw.sum as f64, "us", lw.count));

    out.push(metric(
        "loadgen.late_frac",
        ratio(s.late as f64, s.sends as f64),
        "ratio",
        s.sends,
    ));
    out
}
