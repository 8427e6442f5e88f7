//! The per-node memory controller: one façade over the caches and NVM.
//!
//! Protocol engines talk to this type only. It answers three questions:
//! how long does a local volatile access take (a cache miss costs DRAM's
//! fixed read latency), when does a persist to NVM complete, and how many
//! persists are queued behind busy NVM banks.

use ddp_sim::{Duration, SimTime};

use crate::cache::{CacheHierarchy, HitLevel};
use crate::device::{AccessKind, BankedDevice};
use crate::params::MemoryParams;

/// The memory system of one server node.
///
/// # Examples
///
/// ```
/// use ddp_mem::{MemoryController, MemoryParams};
/// use ddp_sim::SimTime;
///
/// let mut mc = MemoryController::new(MemoryParams::micro21());
/// let t = SimTime::ZERO;
/// let lat = mc.volatile_access(0x40);       // CPU touches a key
/// let done = mc.persist(t + lat, 0x40, 64); // then persists it to NVM
/// assert!(done > t + lat);
/// ```
#[derive(Debug)]
pub struct MemoryController {
    params: MemoryParams,
    caches: CacheHierarchy,
    nvm: BankedDevice,
}

impl MemoryController {
    /// Builds the memory system for one node.
    #[must_use]
    pub fn new(params: MemoryParams) -> Self {
        MemoryController {
            caches: CacheHierarchy::new(&params),
            nvm: BankedDevice::new(params.nvm),
            params,
        }
    }

    /// The parameters this controller was built with.
    #[must_use]
    pub fn params(&self) -> &MemoryParams {
        &self.params
    }

    /// A CPU access (read or write) to the volatile copy of `addr`.
    ///
    /// Returns the access latency; misses are charged DRAM latency inside.
    pub fn volatile_access(&mut self, addr: u64) -> Duration {
        let (_, lat) = self.caches.access(addr);
        lat
    }

    /// A CPU access that also reports where it hit.
    pub fn volatile_access_traced(&mut self, addr: u64) -> (HitLevel, Duration) {
        self.caches.access(addr)
    }

    /// An update arriving from the NIC, placed in the LLC via DDIO.
    ///
    /// Returns the injection latency.
    pub fn ddio_inject(&mut self, addr: u64) -> Duration {
        self.caches.ddio_inject(addr)
    }

    /// Persists `bytes` at `addr` to NVM starting at `now`.
    ///
    /// Returns the completion time, including any bank queueing delay — the
    /// "NVM pressure" that makes reads stall under write-heavy persistency
    /// models.
    pub fn persist(&mut self, now: SimTime, addr: u64, bytes: u64) -> SimTime {
        self.nvm.submit(now, addr, bytes, AccessKind::Write)
    }

    /// Reads `bytes` at `addr` from NVM starting at `now` (recovery path).
    pub fn nvm_read(&mut self, now: SimTime, addr: u64, bytes: u64) -> SimTime {
        self.nvm.submit(now, addr, bytes, AccessKind::Read)
    }

    /// Admits a background compaction write of `bytes` to NVM starting at
    /// `now`, striped in `chunk_bytes` chunks across banks from `addr`'s
    /// bank (see [`BankedDevice::submit_background`]). Foreground persists
    /// queue behind the burst, but the foreground statistics stay clean.
    pub fn compact_write(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
        chunk_bytes: u64,
    ) -> SimTime {
        self.nvm.submit_background(now, addr, bytes, chunk_bytes)
    }

    /// Number of persists queued behind busy NVM banks at `now` (in
    /// flight but not yet in service).
    pub fn nvm_queued(&mut self, now: SimTime) -> usize {
        self.nvm.queued(now)
    }

    /// Number of persists queued behind busy NVM banks at `now`,
    /// read-only (no pruning) — safe to call from the timeline's
    /// close-of-window snapshots.
    #[must_use]
    pub fn nvm_queued_at(&self, now: SimTime) -> usize {
        self.nvm.queued_at(now)
    }

    /// Direct access to the NVM device (statistics).
    #[must_use]
    pub fn nvm(&self) -> &BankedDevice {
        &self.nvm
    }

    /// Cache hit counts `[L1, L2, LLC, Memory]`.
    #[must_use]
    pub fn cache_hits(&self) -> [u64; 4] {
        self.caches.hit_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_completion_includes_write_latency() {
        let mut mc = MemoryController::new(MemoryParams::micro21());
        let done = mc.persist(SimTime::ZERO, 0x40, 64);
        assert!(done >= SimTime::from_nanos(400));
    }

    #[test]
    fn warm_access_is_l1_fast() {
        let mut mc = MemoryController::new(MemoryParams::micro21());
        mc.volatile_access(0x100);
        let (level, lat) = mc.volatile_access_traced(0x100);
        assert_eq!(level, HitLevel::L1);
        assert_eq!(lat, Duration::from_nanos(1));
    }

    #[test]
    fn ddio_then_cpu_access_hits_llc() {
        let mut mc = MemoryController::new(MemoryParams::micro21());
        mc.ddio_inject(0x4000);
        let (level, _) = mc.volatile_access_traced(0x4000);
        assert_eq!(level, HitLevel::Llc);
    }

    #[test]
    fn compaction_delays_colliding_persists() {
        let mut mc = MemoryController::new(MemoryParams::micro21());
        let quiet = mc.persist(SimTime::ZERO, 0x40, 64);
        let mut busy = MemoryController::new(MemoryParams::micro21());
        // A large compaction burst touches every bank.
        busy.compact_write(SimTime::ZERO, 0, 1 << 16, 256);
        let contended = busy.persist(SimTime::ZERO, 0x40, 64);
        assert!(contended > quiet, "persists must queue behind compaction");
        assert_eq!(busy.nvm().background_write_count(), 1);
    }

    #[test]
    fn nvm_read_faster_than_persist() {
        let mut mc = MemoryController::new(MemoryParams::micro21());
        let r = mc.nvm_read(SimTime::ZERO, 0x999940, 64);
        let mut mc2 = MemoryController::new(MemoryParams::micro21());
        let w = mc2.persist(SimTime::ZERO, 0x999940, 64);
        assert!(r < w);
    }
}
