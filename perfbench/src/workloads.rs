//! The three workloads. Each one generates every input from its seed,
//! keeps an in-memory model of the bytes it expects the store to hold,
//! and checks each read against that model as it runs.
//!
//! | workload   | clients                             | objects                          | live set |
//! |------------|-------------------------------------|----------------------------------|----------|
//! | `ingest`   | 1, closed loop                      | 64 KiB–8 MiB, log-uniform        | 128 MiB  |
//! | `edit`     | 2, closed loop                      | 2 × 16 × 1 MiB                   | 32 MiB   |
//! | `read_mix` | 1 closed reader + 1 writer at 100/s | 32 × 4 MiB read, 8 × 1 MiB write | 136 MiB  |
//!
//! Every live set fits in RAM, and the store has no page cache of its
//! own on this path, so reads are served by the OS page cache; commits
//! pay a real `fsync` (`sync_on_commit = true`, `FileVolume::sync`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use eos_core::{ConcurrentStore, LargeObject, Txn};

use crate::rng::Rng;
use crate::timed::{Call, Tracer};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
/// Append size every object is created with.
const CHUNK: usize = 64 * KIB;

/// Geometry of a workload's volume: buddy spaces of `pps` data pages
/// each, then the log region.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    pub spaces: usize,
    pub pps: u64,
    pub wal_pages: u64,
}

/// Largest buddy space at 4 KiB pages (one directory page's reach).
const FULL_SPACE: u64 = 16_272;

/// One completed operation: its latency and its user payload.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub us: f64,
    pub bytes: u64,
}

impl Event {
    fn since(t0: Instant, bytes: u64) -> Event {
        Event {
            us: t0.elapsed().as_secs_f64() * 1e6,
            bytes,
        }
    }
}

/// What a client thread measured. Threads merge theirs at the end.
#[derive(Default)]
pub struct Samples {
    /// Durable write transactions: begin (or, open loop, due time) to
    /// commit acknowledgement, with the user bytes they wrote.
    pub commits: Vec<Event>,
    pub reads: Vec<Event>,
    pub attempted: u64,
    pub failed: u64,
    /// Open-loop sends, and those that fell due while the previous
    /// send was still in flight.
    pub sends: u64,
    pub late: u64,
    /// Allocated bytes over live user bytes, sampled as the run goes.
    pub space_amp: Vec<f64>,
    pub deferred_pages_peak: u64,
    /// Reads that returned bytes other than the model's.
    pub mismatches: Vec<String>,
}

impl Samples {
    fn merge(&mut self, o: Samples) {
        self.commits.extend(o.commits);
        self.reads.extend(o.reads);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.sends += o.sends;
        self.late += o.late;
        self.space_amp.extend(o.space_amp);
        self.deferred_pages_peak = self.deferred_pages_peak.max(o.deferred_pages_peak);
        self.mismatches.extend(o.mismatches);
    }

    fn commit(&mut self, since: Instant, bytes: u64) {
        self.commits.push(Event::since(since, bytes));
    }

    fn read(&mut self, since: Instant, bytes: u64) {
        self.reads.push(Event::since(since, bytes));
    }

    fn check_read(&mut self, what: &str, got: &[u8], want: &[u8]) {
        if got != want && self.mismatches.len() < 8 {
            self.mismatches
                .push(format!("{what}: read differs from the model"));
        }
    }
}

/// The store handles a workload drives.
pub struct Ctx<'a> {
    pub cs: &'a ConcurrentStore,
    pub tracer: Option<&'a Tracer>,
    pub deferred_pages: eos_obs::Gauge,
}

impl Ctx<'_> {
    fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        Tracer::time(self.tracer, call, f)
    }

    fn begin(&self) -> Txn {
        self.time(Call::TxnBegin, || self.cs.begin())
    }

    fn commit(&self, txn: Txn) -> eos_core::Result<()> {
        self.time(Call::TxnCommit, || txn.commit())
    }

    /// A snapshot read of `len` bytes at `off`: pin, read, unpin.
    fn snapshot_read(&self, id: u64, off: u64, len: Option<u64>) -> eos_core::Result<Vec<u8>> {
        let snap = self.time(Call::MvccSnapshot, || self.cs.snapshot());
        let r = self.time(Call::TreeRead, || match len {
            Some(len) => snap.read(id, off, len),
            None => snap.read_all(id),
        });
        self.time(Call::MvccUnpin, || drop(snap));
        r
    }

    fn allocated_bytes(&self) -> u64 {
        self.cs.with_store(|s| {
            let b = s.buddy();
            (b.total_data_pages() - b.total_free_pages()) * s.page_size() as u64
        })
    }

    fn note_deferred(&self, s: &mut Samples) {
        s.deferred_pages_peak = s.deferred_pages_peak.max(self.deferred_pages.get());
    }

    /// One durable transaction: delete `evict`, then create an object
    /// of `data` by appending 64 KiB chunks with no size hint (§4.1's
    /// doubling-then-trim path). Every workload creates its objects
    /// this way, so each starts out as 64 KiB segments.
    fn put(
        &self,
        evict: &mut [(LargeObject, Vec<u8>)],
        data: &[u8],
    ) -> eos_core::Result<LargeObject> {
        let txn = self.begin();
        for (obj, _) in evict.iter_mut() {
            self.time(Call::TreeDelete, || txn.delete_object(obj))?;
        }
        let mut obj = self.time(Call::TreeCreate, || txn.create(&[], None))?;
        for chunk in data.chunks(CHUNK) {
            self.time(Call::TreeAppend, || txn.append(&mut obj, chunk))?;
        }
        self.commit(txn)?;
        Ok(obj)
    }

    /// [`Self::put`] of a fresh object, for set-up.
    fn create(&self, data: &[u8]) -> Result<LargeObject, String> {
        self.put(&mut [], data)
            .map_err(|e| format!("set-up create: {e}"))
    }
}

/// The committed descriptor of `id`, for a client whose transaction
/// aborted part-way and left its handle describing rolled-back state.
fn committed_handle(cs: &ConcurrentStore, id: u64) -> Option<LargeObject> {
    cs.snapshot().object(id)
}

pub trait Workload: Send {
    fn layout(&self) -> Layout;
    /// Client threads the run uses (at most 2).
    fn clients(&self) -> usize;
    fn setup(&mut self, ctx: &Ctx<'_>) -> Result<(), String>;
    fn run(&mut self, ctx: &Ctx<'_>, seconds: f64) -> Samples;
    /// A fixed number of the workload's write operations on one thread,
    /// untimed: the log tail that restart recovery replays.
    fn tail(&mut self, ctx: &Ctx<'_>) -> Samples;
    /// Every live object and the bytes it must hold.
    fn model(&self) -> Vec<(u64, &[u8])>;
}

pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let rng = Rng::new(seed);
    match name {
        "ingest" => Some(Box::new(Ingest::new(rng))),
        "edit" => Some(Box::new(Edit::new(rng))),
        "read_mix" => Some(Box::new(ReadMix::new(rng))),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["ingest", "edit", "read_mix"];

// ---- ingest ---------------------------------------------------------

/// Live user bytes `ingest` holds: the oldest objects are deleted to
/// keep the live set at most this large.
const INGEST_LIVE: u64 = 128 * MIB as u64;
const INGEST_MIN: f64 = (64 * KIB) as f64;
const INGEST_MAX: f64 = (8 * MIB) as f64;
/// Sizes are drawn stratified in blocks of this many, one per
/// log-uniform stratum, then shuffled: every block covers the size
/// range evenly, so seeds differ in order and jitter, not in how
/// many large objects a run happens to draw.
const INGEST_STRATA: usize = 32;
/// Objects created after the closing checkpoint.
const INGEST_TAIL: usize = 16;

struct Ingest {
    rng: Rng,
    sizes: Vec<usize>,
    /// Live objects, oldest first, with the bytes each must hold.
    live: VecDeque<(LargeObject, Vec<u8>)>,
    live_bytes: u64,
}

impl Ingest {
    fn new(rng: Rng) -> Ingest {
        Ingest {
            rng,
            sizes: Vec::new(),
            live: VecDeque::new(),
            live_bytes: 0,
        }
    }

    fn next_size(&mut self) -> usize {
        if self.sizes.is_empty() {
            let span = (INGEST_MAX / INGEST_MIN).ln();
            let mut block: Vec<usize> = (0..INGEST_STRATA)
                .map(|i| {
                    let u = (i as f64 + self.rng.unit()) / INGEST_STRATA as f64;
                    (INGEST_MIN * (u * span).exp()) as usize
                })
                .collect();
            self.rng.shuffle(&mut block);
            self.sizes = block;
        }
        self.sizes.pop().expect("refilled above")
    }
}

impl Ingest {
    /// Create one object, first evicting the oldest objects as needed.
    fn step(&mut self, ctx: &Ctx<'_>, s: &mut Samples) {
        let size = self.next_size();
        let data = self.rng.bytes(size);
        // Evict oldest-first, reading each victim back in full and
        // checking it against the model before it goes.
        let mut evict = Vec::new();
        let mut freed = 0u64;
        while self.live_bytes - freed + size as u64 > INGEST_LIVE {
            let Some((obj, bytes)) = self.live.pop_front() else {
                break;
            };
            s.attempted += 1;
            let t0 = Instant::now();
            match ctx.snapshot_read(obj.id(), 0, None) {
                Ok(got) => {
                    s.read(t0, got.len() as u64);
                    s.check_read("ingest victim", &got, &bytes);
                }
                Err(_) => s.failed += 1,
            }
            freed += bytes.len() as u64;
            evict.push((obj, bytes));
        }
        s.attempted += 1;
        let t0 = Instant::now();
        match ctx.put(&mut evict, &data) {
            Ok(obj) => {
                s.commit(t0, size as u64);
                self.live_bytes = self.live_bytes - freed + size as u64;
                self.live.push_back((obj, data));
            }
            Err(_) => {
                s.failed += 1;
                // The deletes rolled back with the transaction.
                for (obj, bytes) in evict.into_iter().rev() {
                    let obj = committed_handle(ctx.cs, obj.id()).unwrap_or(obj);
                    self.live.push_front((obj, bytes));
                }
            }
        }
        s.space_amp
            .push(ctx.allocated_bytes() as f64 / self.live_bytes as f64);
        ctx.note_deferred(s);
    }
}

impl Workload for Ingest {
    fn layout(&self) -> Layout {
        Layout {
            spaces: 6,
            pps: FULL_SPACE,
            wal_pages: 1024,
        }
    }

    fn clients(&self) -> usize {
        1
    }

    /// Age the volume: fill the live set once, so the run starts with
    /// allocation, deletion and coalescing already at steady state.
    fn setup(&mut self, ctx: &Ctx<'_>) -> Result<(), String> {
        loop {
            let size = self.next_size();
            if self.live_bytes + size as u64 > INGEST_LIVE {
                self.sizes.push(size);
                return Ok(());
            }
            let data = self.rng.bytes(size);
            let obj = ctx.create(&data)?;
            self.live_bytes += size as u64;
            self.live.push_back((obj, data));
        }
    }

    fn run(&mut self, ctx: &Ctx<'_>, seconds: f64) -> Samples {
        let mut s = Samples::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            self.step(ctx, &mut s);
        }
        s
    }

    fn tail(&mut self, ctx: &Ctx<'_>) -> Samples {
        let mut s = Samples::default();
        for _ in 0..INGEST_TAIL {
            self.step(ctx, &mut s);
        }
        s
    }

    fn model(&self) -> Vec<(u64, &[u8])> {
        self.live
            .iter()
            .map(|(o, b)| (o.id(), b.as_slice()))
            .collect()
    }
}

// ---- edit -----------------------------------------------------------

const EDIT_CLIENTS: usize = 2;
const EDIT_OBJECTS: usize = 16;
const EDIT_SIZE: usize = MIB;
const EDIT_REPLACE: usize = 512;
const EDIT_SPLICE: usize = 2000;
const EDIT_READ: usize = 4 * KIB;
/// Operations (of client 0) after the closing checkpoint.
const EDIT_TAIL: usize = 256;

/// One `edit` client: its own objects, their models and its own stream.
struct EditClient {
    rng: Rng,
    objs: Vec<(LargeObject, Vec<u8>)>,
}

struct Edit {
    clients: Vec<EditClient>,
}

impl Edit {
    fn new(rng: Rng) -> Edit {
        Edit {
            clients: (0..EDIT_CLIENTS as u64)
                .map(|c| EditClient {
                    rng: rng.fork(c + 1),
                    objs: Vec::new(),
                })
                .collect(),
        }
    }
}

enum EditOp {
    Replace(u64, Vec<u8>),
    Insert(u64, Vec<u8>),
    Delete(u64),
    Read(u64),
}

impl EditClient {
    /// 40% replace 512 B, 25% insert 2000 B, 25% delete 2000 B, 10%
    /// read 4 KiB, at a uniform offset of a uniform object.
    fn next_op(&mut self) -> (usize, EditOp) {
        let j = self.rng.below(self.objs.len() as u64) as usize;
        let size = self.objs[j].1.len() as u64;
        let at = |rng: &mut Rng, len: usize| rng.below(size - len as u64 + 1);
        let roll = self.rng.below(100);
        let op = match roll {
            0..40 => {
                let off = at(&mut self.rng, EDIT_REPLACE);
                EditOp::Replace(off, self.rng.bytes(EDIT_REPLACE))
            }
            40..65 => {
                let off = self.rng.below(size + 1);
                EditOp::Insert(off, self.rng.bytes(EDIT_SPLICE))
            }
            65..90 => EditOp::Delete(at(&mut self.rng, EDIT_SPLICE)),
            _ => EditOp::Read(at(&mut self.rng, EDIT_READ)),
        };
        (j, op)
    }

    fn run(&mut self, ctx: &Ctx<'_>, deadline: Instant) -> Samples {
        let mut s = Samples::default();
        while Instant::now() < deadline {
            self.step(ctx, &mut s);
        }
        s
    }

    fn step(&mut self, ctx: &Ctx<'_>, s: &mut Samples) {
        let (j, op) = self.next_op();
        s.attempted += 1;
        let (obj, model) = &mut self.objs[j];
        // A read is its own read-only transaction, timed like a
        // write: begin to commit acknowledgement.
        if let EditOp::Read(off) = op {
            let t0 = Instant::now();
            let txn = ctx.begin();
            let r = ctx.time(Call::TreeRead, || txn.read(obj, off, EDIT_READ as u64));
            match r.and_then(|got| ctx.commit(txn).map(|()| got)) {
                Ok(got) => {
                    s.read(t0, got.len() as u64);
                    let off = off as usize;
                    s.check_read("edit read", &got, &model[off..off + EDIT_READ]);
                }
                Err(_) => s.failed += 1,
            }
            return;
        }
        let t0 = Instant::now();
        let txn = ctx.begin();
        let r = match &op {
            EditOp::Replace(off, data) => {
                ctx.time(Call::TreeReplace, || txn.replace(obj, *off, data))
            }
            EditOp::Insert(off, data) => ctx.time(Call::TreeInsert, || txn.insert(obj, *off, data)),
            EditOp::Delete(off) => ctx.time(Call::TreeDelete, || {
                txn.delete(obj, *off, EDIT_SPLICE as u64)
            }),
            EditOp::Read(_) => unreachable!("reads handled above"),
        };
        match r.and_then(|()| ctx.commit(txn)) {
            Ok(()) => match op {
                EditOp::Replace(off, data) => {
                    s.commit(t0, data.len() as u64);
                    let off = off as usize;
                    model[off..off + data.len()].copy_from_slice(&data);
                }
                EditOp::Insert(off, data) => {
                    s.commit(t0, data.len() as u64);
                    let off = off as usize;
                    model.splice(off..off, data);
                }
                EditOp::Delete(off) => {
                    s.commit(t0, 0);
                    let off = off as usize;
                    model.drain(off..off + EDIT_SPLICE);
                }
                EditOp::Read(_) => unreachable!("reads handled above"),
            },
            Err(_) => {
                s.failed += 1;
                if let Some(o) = committed_handle(ctx.cs, obj.id()) {
                    *obj = o;
                }
            }
        }
        ctx.note_deferred(s);
    }
}

impl Workload for Edit {
    fn layout(&self) -> Layout {
        Layout {
            spaces: 2,
            pps: FULL_SPACE,
            wal_pages: 1024,
        }
    }

    fn clients(&self) -> usize {
        EDIT_CLIENTS
    }

    fn setup(&mut self, ctx: &Ctx<'_>) -> Result<(), String> {
        for c in &mut self.clients {
            for _ in 0..EDIT_OBJECTS {
                let data = c.rng.bytes(EDIT_SIZE);
                let obj = ctx.create(&data)?;
                c.objs.push((obj, data));
            }
        }
        Ok(())
    }

    fn run(&mut self, ctx: &Ctx<'_>, seconds: f64) -> Samples {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut total = Samples::default();
        std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| sc.spawn(move || c.run(ctx, deadline)))
                .collect();
            for h in handles {
                total.merge(h.join().expect("edit client panicked"));
            }
        });
        let live: u64 = self.model().iter().map(|(_, b)| b.len() as u64).sum();
        total
            .space_amp
            .push(ctx.allocated_bytes() as f64 / live as f64);
        total
    }

    fn tail(&mut self, ctx: &Ctx<'_>) -> Samples {
        let mut s = Samples::default();
        for _ in 0..EDIT_TAIL {
            self.clients[0].step(ctx, &mut s);
        }
        s
    }

    fn model(&self) -> Vec<(u64, &[u8])> {
        self.clients
            .iter()
            .flat_map(|c| c.objs.iter().map(|(o, b)| (o.id(), b.as_slice())))
            .collect()
    }
}

// ---- read_mix -------------------------------------------------------

const MIX_READ_OBJECTS: usize = 32;
const MIX_READ_SIZE: usize = 4 * MIB;
const MIX_SMALL: u64 = 4 * KIB as u64;
const MIX_LARGE: u64 = 256 * KIB as u64;
/// Share of reads that are the large range, in percent.
const MIX_LARGE_PCT: u64 = 20;
const MIX_WRITE_OBJECTS: usize = 8;
const MIX_WRITE_SIZE: usize = MIB;
const MIX_WRITE_LEN: usize = 4 * KIB;
/// The writer's fixed send rate: pacing it keeps the reader's share of
/// the machine steady, where a free-running writer makes both sides
/// swing from run to run.
const MIX_WRITE_PER_S: f64 = 100.0;
/// Writer transactions after the closing checkpoint.
const MIX_TAIL: usize = 256;

struct ReadMix {
    rng: Rng,
    reads: Vec<(u64, Vec<u8>)>,
    writes: Vec<(LargeObject, Vec<u8>)>,
}

impl ReadMix {
    fn new(rng: Rng) -> ReadMix {
        ReadMix {
            rng,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

fn mix_reader(ctx: &Ctx<'_>, mut rng: Rng, objs: &[(u64, Vec<u8>)], stop: &AtomicBool) -> Samples {
    let mut s = Samples::default();
    while !stop.load(Ordering::Relaxed) {
        let (id, model) = &objs[rng.below(objs.len() as u64) as usize];
        let len = if rng.below(100) < MIX_LARGE_PCT {
            MIX_LARGE
        } else {
            MIX_SMALL
        };
        let off = rng.below(model.len() as u64 - len + 1);
        s.attempted += 1;
        let t0 = Instant::now();
        match ctx.snapshot_read(*id, off, Some(len)) {
            Ok(got) => {
                s.read(t0, len);
                let off = off as usize;
                s.check_read("read_mix read", &got, &model[off..off + len as usize]);
            }
            Err(_) => s.failed += 1,
        }
        ctx.note_deferred(&mut s);
        // A reader that never blocks keeps its CPU until the scheduler
        // tick. Without this yield, a store thread it wakes (the writer
        // it releases a latch to) can be queued behind it on that CPU
        // for a whole tick, and the writer's commits measure the
        // scheduler instead of the store.
        std::thread::yield_now();
    }
    s
}

/// Open loop: send `i` falls due at `start + i / rate`. Each commit is
/// timed from its due time, so a stall also charges every send queued
/// behind it; a send is late when it falls due before the previous one
/// was acknowledged.
fn mix_writer(
    ctx: &Ctx<'_>,
    mut rng: Rng,
    objs: &mut [(LargeObject, Vec<u8>)],
    sends: u64,
) -> Samples {
    let mut s = Samples::default();
    let period = Duration::from_secs_f64(1.0 / MIX_WRITE_PER_S);
    let start = Instant::now();
    for i in 0..sends {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        } else if i > 0 {
            s.late += 1;
        }
        s.sends += 1;
        mix_send(ctx, &mut rng, objs, &mut s, due);
    }
    s
}

/// One writer transaction: replace 4 KiB of a random writer object.
fn mix_send(
    ctx: &Ctx<'_>,
    rng: &mut Rng,
    objs: &mut [(LargeObject, Vec<u8>)],
    s: &mut Samples,
    due: Instant,
) {
    s.attempted += 1;
    let (obj, model) = &mut objs[rng.below(objs.len() as u64) as usize];
    let off = rng.below(model.len() as u64 - MIX_WRITE_LEN as u64 + 1);
    let data = rng.bytes(MIX_WRITE_LEN);
    let txn = ctx.begin();
    let r = ctx
        .time(Call::TreeReplace, || txn.replace(obj, off, &data))
        .and_then(|()| ctx.commit(txn));
    match r {
        Ok(()) => {
            s.commit(due, data.len() as u64);
            let off = off as usize;
            model[off..off + data.len()].copy_from_slice(&data);
        }
        Err(_) => {
            s.failed += 1;
            if let Some(o) = committed_handle(ctx.cs, obj.id()) {
                *obj = o;
            }
        }
    }
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

impl Workload for ReadMix {
    fn layout(&self) -> Layout {
        Layout {
            spaces: 4,
            pps: FULL_SPACE,
            wal_pages: 1024,
        }
    }

    fn clients(&self) -> usize {
        2
    }

    fn setup(&mut self, ctx: &Ctx<'_>) -> Result<(), String> {
        for _ in 0..MIX_READ_OBJECTS {
            let data = self.rng.bytes(MIX_READ_SIZE);
            let obj = ctx.create(&data)?;
            self.reads.push((obj.id(), data));
        }
        for _ in 0..MIX_WRITE_OBJECTS {
            let data = self.rng.bytes(MIX_WRITE_SIZE);
            let obj = ctx.create(&data)?;
            self.writes.push((obj, data));
        }
        Ok(())
    }

    /// The run lasts as long as the writer takes to send
    /// `100 × seconds` commits; the reader reads until then.
    fn run(&mut self, ctx: &Ctx<'_>, seconds: f64) -> Samples {
        let sends = (MIX_WRITE_PER_S * seconds).round().max(1.0) as u64;
        let stop = AtomicBool::new(false);
        let (reader_rng, writer_rng) = (self.rng.fork(1), self.rng.fork(2));
        let (reads, writes) = (&self.reads, &mut self.writes);
        let mut total = std::thread::scope(|sc| {
            let reader = sc.spawn(|| mix_reader(ctx, reader_rng, reads, &stop));
            let writer = sc.spawn(|| {
                // Stop the reader however the writer ends, panics included.
                let _stop = StopOnDrop(&stop);
                mix_writer(ctx, writer_rng, writes, sends)
            });
            let mut total = writer.join().expect("read_mix writer panicked");
            total.merge(reader.join().expect("read_mix reader panicked"));
            total
        });
        let live: u64 = self.model().iter().map(|(_, b)| b.len() as u64).sum();
        total
            .space_amp
            .push(ctx.allocated_bytes() as f64 / live as f64);
        total
    }

    fn tail(&mut self, ctx: &Ctx<'_>) -> Samples {
        let mut s = Samples::default();
        let mut rng = self.rng.fork(3);
        for _ in 0..MIX_TAIL {
            mix_send(ctx, &mut rng, &mut self.writes, &mut s, Instant::now());
        }
        s
    }

    fn model(&self) -> Vec<(u64, &[u8])> {
        self.reads
            .iter()
            .map(|(id, b)| (*id, b.as_slice()))
            .chain(self.writes.iter().map(|(o, b)| (o.id(), b.as_slice())))
            .collect()
    }
}
