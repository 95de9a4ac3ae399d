//! Fault injection: a volume wrapper that starts failing after a
//! configurable number of operations. Used by the failure-injection
//! tests to prove that a mid-operation I/O error surfaces as an error
//! (never a panic) and that, under a transaction scope, the committed
//! state survives (§4.5).
//!
//! Reads and writes can share one budget ([`FaultyVolume::new`], the
//! historical behaviour) or be budgeted independently
//! ([`FaultyVolume::with_budgets`]) — the crash sweep needs a volume
//! that keeps serving reads while refusing writes. Every rejected call
//! is counted and surfaced through [`IoStats::read_faults`] /
//! [`IoStats::write_faults`]. Syncs are not budgeted, but a single one
//! can be made to fail ([`FaultyVolume::fail_sync_after`]); it counts
//! as a write fault.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::stats::IoStats;
use crate::volume::{SharedVolume, Volume};
use crate::PageId;

/// A volume that injects I/O errors once an operation budget is
/// exhausted. Further operations keep failing until
/// [`FaultyVolume::heal`] (or [`FaultyVolume::heal_rw`]) is called.
pub struct FaultyVolume {
    inner: SharedVolume,
    /// One combined counter (historical behaviour) or two independent
    /// ones. Fixed at construction.
    shared_budget: bool,
    reads_left: AtomicU64,
    writes_left: AtomicU64,
    read_faults: AtomicU64,
    write_faults: AtomicU64,
    /// Syncs left before the one that fails ([`FaultyVolume::fail_sync_after`]);
    /// `u64::MAX` when no sync is set to fail.
    syncs_left: AtomicU64,
}

impl FaultyVolume {
    /// Wrap `inner` with a single combined budget: the first `budget`
    /// operations (reads and writes both count) succeed.
    pub fn new(inner: SharedVolume, budget: u64) -> Arc<FaultyVolume> {
        Arc::new(FaultyVolume {
            inner,
            shared_budget: true,
            reads_left: AtomicU64::new(0),
            writes_left: AtomicU64::new(budget),
            read_faults: AtomicU64::new(0),
            write_faults: AtomicU64::new(0),
            syncs_left: AtomicU64::new(u64::MAX),
        })
    }

    /// Wrap `inner` with independent budgets: the first `reads` read
    /// calls and the first `writes` write calls succeed.
    pub fn with_budgets(inner: SharedVolume, reads: u64, writes: u64) -> Arc<FaultyVolume> {
        Arc::new(FaultyVolume {
            inner,
            shared_budget: false,
            reads_left: AtomicU64::new(reads),
            writes_left: AtomicU64::new(writes),
            read_faults: AtomicU64::new(0),
            write_faults: AtomicU64::new(0),
            syncs_left: AtomicU64::new(u64::MAX),
        })
    }

    /// Allow `budget` more operations (both directions on a
    /// combined-budget volume, each direction on a split one).
    pub fn heal(&self, budget: u64) {
        self.reads_left.store(budget, Ordering::SeqCst);
        self.writes_left.store(budget, Ordering::SeqCst);
    }

    /// Set the two budgets independently. On a combined-budget volume
    /// only `writes` takes effect (it is the shared counter).
    pub fn heal_rw(&self, reads: u64, writes: u64) {
        self.reads_left.store(reads, Ordering::SeqCst);
        self.writes_left.store(writes, Ordering::SeqCst);
    }

    /// Let the next `syncs` syncs through and fail the one after, once
    /// (an fsync error, as a failing disk reports it). Syncs are
    /// otherwise never charged against the operation budgets.
    pub fn fail_sync_after(&self, syncs: u64) {
        self.syncs_left.store(syncs, Ordering::SeqCst);
    }

    /// Operations left before the next failure: the shared counter on a
    /// combined-budget volume, the sum of both otherwise.
    pub fn remaining(&self) -> u64 {
        if self.shared_budget {
            self.writes_left.load(Ordering::SeqCst)
        } else {
            self.reads_left.load(Ordering::SeqCst) + self.writes_left.load(Ordering::SeqCst)
        }
    }

    /// Injected fault counts so far, as `(read_faults, write_faults)`.
    pub fn fault_counts(&self) -> (u64, u64) {
        (
            self.read_faults.load(Ordering::SeqCst),
            self.write_faults.load(Ordering::SeqCst),
        )
    }

    fn charge(counter: &AtomicU64, faults: &AtomicU64, what: &str) -> Result<()> {
        // Decrement-if-positive; at zero every operation fails.
        let mut cur = counter.load(Ordering::SeqCst);
        loop {
            if cur == 0 {
                faults.fetch_add(1, Ordering::SeqCst);
                return Err(Error::Io(std::io::Error::other(format!(
                    "injected fault: {what} budget exhausted"
                ))));
            }
            match counter.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    fn charge_read(&self) -> Result<()> {
        let counter = if self.shared_budget {
            &self.writes_left
        } else {
            &self.reads_left
        };
        Self::charge(counter, &self.read_faults, "I/O")
    }

    fn charge_write(&self) -> Result<()> {
        Self::charge(&self.writes_left, &self.write_faults, "I/O")
    }
}

impl Volume for FaultyVolume {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_into(&self, start: PageId, pages: u64, buf: &mut [u8]) -> Result<()> {
        self.charge_read()?;
        self.inner.read_into(start, pages, buf)
    }

    fn write_pages(&self, start: PageId, data: &[u8]) -> Result<()> {
        self.charge_write()?;
        self.inner.write_pages(start, data)
    }

    fn stats(&self) -> IoStats {
        let mut s = self.inner.stats();
        s.read_faults += self.read_faults.load(Ordering::SeqCst);
        s.write_faults += self.write_faults.load(Ordering::SeqCst);
        s
    }

    fn reset_stats(&self) {
        self.read_faults.store(0, Ordering::SeqCst);
        self.write_faults.store(0, Ordering::SeqCst);
        self.inner.reset_stats();
    }

    fn sync(&self) -> Result<()> {
        match self.syncs_left.load(Ordering::SeqCst) {
            u64::MAX => {}
            0 => {
                self.syncs_left.store(u64::MAX, Ordering::SeqCst);
                self.write_faults.fetch_add(1, Ordering::SeqCst);
                return Err(Error::Io(std::io::Error::other(
                    "injected fault: sync failed",
                )));
            }
            left => self.syncs_left.store(left - 1, Ordering::SeqCst),
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::MemVolume;
    use crate::DiskProfile;

    #[test]
    fn fails_after_budget_and_heals() {
        let inner = MemVolume::with_profile(128, 16, DiskProfile::FREE).shared();
        let f = FaultyVolume::new(inner, 2);
        f.write_pages(0, &[1u8; 128]).unwrap();
        assert_eq!(f.read_pages(0, 1).unwrap()[0], 1);
        assert!(f.read_pages(0, 1).is_err(), "budget exhausted");
        assert!(f.write_pages(0, &[2u8; 128]).is_err());
        f.heal(1);
        assert_eq!(f.read_pages(0, 1).unwrap()[0], 1, "healed");
        assert!(f.read_pages(0, 1).is_err());
        assert_eq!(f.fault_counts(), (2, 1));
    }

    #[test]
    fn one_sync_fails_after_its_budget() {
        let inner = MemVolume::with_profile(128, 16, DiskProfile::FREE).shared();
        let f = FaultyVolume::new(inner, u64::MAX);
        f.sync().unwrap();
        f.fail_sync_after(1);
        f.sync().unwrap();
        assert!(f.sync().is_err(), "the second sync fails");
        f.sync().unwrap();
        f.write_pages(0, &[1u8; 128]).unwrap();
        assert_eq!(f.fault_counts(), (0, 1));
    }

    #[test]
    fn split_budgets_are_independent() {
        let inner = MemVolume::with_profile(128, 16, DiskProfile::FREE).shared();
        let f = FaultyVolume::with_budgets(inner, u64::MAX, 1);
        f.write_pages(0, &[7u8; 128]).unwrap();
        assert!(f.write_pages(1, &[7u8; 128]).is_err(), "writes exhausted");
        // Reads keep working — exactly what a crashed-then-reopened
        // volume needs.
        for _ in 0..10 {
            assert_eq!(f.read_pages(0, 1).unwrap()[0], 7);
        }
        assert!(f.write_pages(1, &[7u8; 128]).is_err());
        assert_eq!(f.fault_counts(), (0, 2));
        let s = f.stats();
        assert_eq!(s.read_faults, 0);
        assert_eq!(s.write_faults, 2);
        f.heal_rw(0, 5);
        assert!(f.read_pages(0, 1).is_err(), "reads now exhausted");
        f.write_pages(1, &[8u8; 128]).unwrap();
    }

    #[test]
    fn reset_stats_clears_fault_counters() {
        let inner = MemVolume::with_profile(128, 16, DiskProfile::FREE).shared();
        let f = FaultyVolume::with_budgets(inner, 0, 0);
        assert!(f.read_pages(0, 1).is_err());
        assert!(f.write_pages(0, &[0u8; 128]).is_err());
        assert_eq!(f.stats().faults(), 2);
        f.reset_stats();
        assert_eq!(f.stats().faults(), 0);
    }
}
