//! Layer timing from outside the store.
//!
//! [`TimedVolume`] wraps the store's `FileVolume` and times every
//! `Volume` call (the `pager` layer). [`Tracer::time`] wraps each public
//! call the benchmark makes into the store (`Txn::append`,
//! `Snapshot::read`, `Txn::commit`, …) in a span on a per-thread stack.
//! Pager time spent while a span is open on the same thread is charged
//! to that span as child time, so a call's self time is its wall time
//! minus its pager time. Pager time with no open span on its thread is
//! *unattributed*; the reconciliation test below pins it near zero.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eos_pager::{FileVolume, IoStats, PageId, Result, Volume};

/// A public store call the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    TreeCreate,
    TreeAppend,
    TreeInsert,
    TreeDelete,
    TreeReplace,
    TreeRead,
    TxnBegin,
    TxnCommit,
    MvccSnapshot,
    MvccUnpin,
}

impl Call {
    pub const ALL: [Call; 10] = [
        Call::TreeCreate,
        Call::TreeAppend,
        Call::TreeInsert,
        Call::TreeDelete,
        Call::TreeReplace,
        Call::TreeRead,
        Call::TxnBegin,
        Call::TxnCommit,
        Call::MvccSnapshot,
        Call::MvccUnpin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::TreeCreate => "tree.create",
            Call::TreeAppend => "tree.append",
            Call::TreeInsert => "tree.insert",
            Call::TreeDelete => "tree.delete",
            Call::TreeReplace => "tree.replace",
            Call::TreeRead => "tree.read",
            Call::TxnBegin => "txn.begin",
            Call::TxnCommit => "txn.commit",
            Call::MvccSnapshot => "mvcc.snapshot",
            Call::MvccUnpin => "mvcc.unpin",
        }
    }
}

/// The three `Volume` calls that reach the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Io {
    Read,
    Write,
    Sync,
}

#[derive(Default)]
struct CallAgg {
    calls: AtomicU64,
    wall_ns: AtomicU64,
    pager_ns: AtomicU64,
}

#[derive(Default)]
struct IoAgg {
    calls: AtomicU64,
    pages: AtomicU64,
    ns: AtomicU64,
}

/// Shared span and pager accounting of one traced run.
#[derive(Default)]
pub struct Tracer {
    calls: [CallAgg; 10],
    io: [IoAgg; 3],
    /// Pages written since the last sync; a sync moves them into
    /// `io[Sync].pages` (the pages that sync made durable).
    unsynced_pages: AtomicU64,
    unattributed_ns: AtomicU64,
    read_ns: Mutex<Vec<u64>>,
    sync_ns: Mutex<Vec<u64>>,
}

thread_local! {
    /// Pager nanoseconds charged to each open span of this thread.
    static SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Totals of one [`Call`] kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallTotals {
    pub calls: u64,
    pub wall_ns: u64,
    pub pager_ns: u64,
}

impl CallTotals {
    pub fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.pager_ns)
    }
}

/// Totals of one [`Io`] kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTotals {
    pub calls: u64,
    pub pages: u64,
    pub ns: u64,
}

/// A copy of a tracer's counters; subtract two to get a window.
#[derive(Clone, Debug, Default)]
pub struct TraceTotals {
    pub calls: [CallTotals; 10],
    pub io: [IoTotals; 3],
    pub unattributed_ns: u64,
    pub read_ns: Vec<u64>,
    pub sync_ns: Vec<u64>,
}

impl TraceTotals {
    pub fn call(&self, c: Call) -> CallTotals {
        self.calls[c as usize]
    }

    pub fn io(&self, k: Io) -> IoTotals {
        self.io[k as usize]
    }

    pub fn pager_ns(&self) -> u64 {
        self.io.iter().map(|t| t.ns).sum()
    }

    /// Pager time not covered by any timed call, in percent of all
    /// pager time.
    pub fn unattributed_pct(&self) -> f64 {
        let total = self.pager_ns();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.unattributed_ns as f64 / total as f64
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Run `f` as one timed `call`. With no tracer this is just `f()`.
    pub fn time<R>(tracer: Option<&Tracer>, call: Call, f: impl FnOnce() -> R) -> R {
        let Some(t) = tracer else { return f() };
        SPANS.with(|s| s.borrow_mut().push(0));
        let t0 = Instant::now();
        let r = f();
        let wall = ns_since(t0);
        let pager = SPANS.with(|s| s.borrow_mut().pop()).unwrap_or(0);
        let agg = &t.calls[call as usize];
        agg.calls.fetch_add(1, Ordering::Relaxed);
        agg.wall_ns.fetch_add(wall, Ordering::Relaxed);
        agg.pager_ns.fetch_add(pager, Ordering::Relaxed);
        r
    }

    fn record_io(&self, kind: Io, pages: u64, ns: u64) {
        let agg = &self.io[kind as usize];
        agg.calls.fetch_add(1, Ordering::Relaxed);
        agg.pages.fetch_add(pages, Ordering::Relaxed);
        agg.ns.fetch_add(ns, Ordering::Relaxed);
        let samples = match kind {
            Io::Read => Some(&self.read_ns),
            Io::Sync => Some(&self.sync_ns),
            Io::Write => None,
        };
        if let Some(v) = samples {
            v.lock().expect("latency sample lock poisoned").push(ns);
        }
        let charged = SPANS.with(|s| match s.borrow_mut().last_mut() {
            Some(top) => {
                *top += ns;
                true
            }
            None => false,
        });
        if !charged {
            self.unattributed_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    pub fn totals(&self) -> TraceTotals {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TraceTotals {
            calls: std::array::from_fn(|i| CallTotals {
                calls: load(&self.calls[i].calls),
                wall_ns: load(&self.calls[i].wall_ns),
                pager_ns: load(&self.calls[i].pager_ns),
            }),
            io: std::array::from_fn(|i| IoTotals {
                calls: load(&self.io[i].calls),
                pages: load(&self.io[i].pages),
                ns: load(&self.io[i].ns),
            }),
            unattributed_ns: load(&self.unattributed_ns),
            read_ns: self.read_ns.lock().expect("poisoned").clone(),
            sync_ns: self.sync_ns.lock().expect("poisoned").clone(),
        }
    }
}

impl std::ops::Sub<&TraceTotals> for &TraceTotals {
    type Output = TraceTotals;

    fn sub(self, rhs: &TraceTotals) -> TraceTotals {
        TraceTotals {
            calls: std::array::from_fn(|i| CallTotals {
                calls: self.calls[i].calls - rhs.calls[i].calls,
                wall_ns: self.calls[i].wall_ns - rhs.calls[i].wall_ns,
                pager_ns: self.calls[i].pager_ns - rhs.calls[i].pager_ns,
            }),
            io: std::array::from_fn(|i| IoTotals {
                calls: self.io[i].calls - rhs.io[i].calls,
                pages: self.io[i].pages - rhs.io[i].pages,
                ns: self.io[i].ns - rhs.io[i].ns,
            }),
            unattributed_ns: self.unattributed_ns - rhs.unattributed_ns,
            read_ns: self.read_ns[rhs.read_ns.len()..].to_vec(),
            sync_ns: self.sync_ns[rhs.sync_ns.len()..].to_vec(),
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A `FileVolume` whose every call is timed into a [`Tracer`].
pub struct TimedVolume {
    inner: Arc<FileVolume>,
    tracer: Arc<Tracer>,
}

impl TimedVolume {
    pub fn new(inner: Arc<FileVolume>, tracer: Arc<Tracer>) -> TimedVolume {
        TimedVolume { inner, tracer }
    }
}

impl Volume for TimedVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.read_into(start, pages, buf);
        self.tracer.record_io(Io::Read, pages, ns_since(t0));
        r
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.write_pages(start, data);
        let pages = (data.len() / self.inner.page_size()) as u64;
        self.tracer.record_io(Io::Write, pages, ns_since(t0));
        self.tracer
            .unsynced_pages
            .fetch_add(pages, Ordering::Relaxed);
        r
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn sync(&self) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        let covered = self.tracer.unsynced_pages.swap(0, Ordering::Relaxed);
        self.tracer.record_io(Io::Sync, covered, ns_since(t0));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_core::{ConcurrentStore, ObjectStore, StoreConfig};
    use eos_pager::{DiskProfile, SharedVolume};

    /// Tolerance on pager time outside every timed call. Every store
    /// call the benchmark makes is timed, so only calls made outside a
    /// span (none in this workload) can leave pager time unattributed.
    const UNATTRIBUTED_PCT_MAX: f64 = 1.0;

    fn test_volume_path(tag: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-volumes");
        std::fs::create_dir_all(&dir).expect("create test volume dir");
        dir.join(format!("{tag}-{}.vol", std::process::id()))
    }

    #[test]
    fn counts_match_file_volume_and_time_reconciles() {
        let path = test_volume_path("timed");
        let file =
            Arc::new(FileVolume::create(&path, 4096, 2 * 4097 + 256, DiskProfile::FREE).unwrap());
        let tracer = Tracer::new();
        let vol: SharedVolume = Arc::new(TimedVolume::new(file.clone(), tracer.clone()));
        let store = ObjectStore::create_durable(vol, 2, 4096, StoreConfig::default(), 256).unwrap();
        let before = tracer.totals();
        let cs = ConcurrentStore::new(store);
        let t = Some(&*tracer);

        let mut rng = crate::rng::Rng::new(3);
        let mut objs = Vec::new();
        for _ in 0..8 {
            let txn = Tracer::time(t, Call::TxnBegin, || cs.begin());
            let mut o = Tracer::time(t, Call::TreeCreate, || txn.create(&[], None)).unwrap();
            for _ in 0..5 {
                let chunk = rng.bytes(10_000);
                Tracer::time(t, Call::TreeAppend, || txn.append(&mut o, &chunk)).unwrap();
            }
            Tracer::time(t, Call::TxnCommit, || txn.commit()).unwrap();
            objs.push(o);
        }
        for o in &mut objs {
            let txn = Tracer::time(t, Call::TxnBegin, || cs.begin());
            Tracer::time(t, Call::TreeInsert, || txn.insert(o, 777, &[9; 3000])).unwrap();
            Tracer::time(t, Call::TreeDelete, || txn.delete(o, 10, 5000)).unwrap();
            Tracer::time(t, Call::TreeReplace, || txn.replace(o, 100, &[1; 600])).unwrap();
            Tracer::time(t, Call::TxnCommit, || txn.commit()).unwrap();
            let snap = Tracer::time(t, Call::MvccSnapshot, || cs.snapshot());
            let got = Tracer::time(t, Call::TreeRead, || snap.read(o.id(), 0, 4096)).unwrap();
            assert_eq!(got.len(), 4096);
            Tracer::time(t, Call::MvccUnpin, || drop(snap));
        }
        let w = &tracer.totals() - &before;

        // Page counts: the wrapper sees exactly what the file volume
        // counted (from creation, formatting included).
        let all = tracer.totals();
        let fs = file.stats();
        assert_eq!(all.io(Io::Read).pages, fs.page_reads);
        assert_eq!(all.io(Io::Write).pages, fs.page_writes);
        assert_eq!(all.io(Io::Read).calls, fs.read_calls);
        assert_eq!(all.io(Io::Write).calls, fs.write_calls);
        assert!(w.io(Io::Sync).calls > 0, "durable commits must sync");

        // Time: pager time charged to calls plus unattributed time is
        // the wrapper's total, and the unattributed share is small.
        let charged: u64 = Call::ALL.iter().map(|&c| w.call(c).pager_ns).sum();
        assert_eq!(charged + w.unattributed_ns, w.pager_ns());
        assert!(
            w.unattributed_pct() <= UNATTRIBUTED_PCT_MAX,
            "unattributed {:.3}%",
            w.unattributed_pct()
        );
        for c in Call::ALL {
            let ct = w.call(c);
            assert!(ct.calls > 0, "{} never timed", c.name());
            assert!(ct.pager_ns <= ct.wall_ns, "{}: pager > wall", c.name());
        }
        drop(cs);
        std::fs::remove_file(&path).unwrap();
    }
}
