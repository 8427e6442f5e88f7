//! Banked NVM timing model.
//!
//! Requests are dispatched to a bank chosen by address; each bank services
//! one request at a time, so outstanding persists queue up. This queueing is
//! the *NVM pressure* effect the paper highlights (§8.1.1): persistency
//! models that allow many outstanding persists (e.g. Read-Enforced) build up
//! bank queues, and reads that must wait for those persists stall longer.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use ddp_sim::{Duration, SimTime};

use crate::params::DeviceParams;

/// Kind of device request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A read of one line/record.
    Read,
    /// A write (for NVM: a persist).
    Write,
}

/// A banked memory device that computes request completion times.
///
/// The device is a pure timing model: callers pass the current simulated
/// time and get back the completion time, then schedule their own events.
///
/// # Examples
///
/// ```
/// use ddp_mem::{AccessKind, BankedDevice, MemoryParams};
/// use ddp_sim::SimTime;
///
/// let params = MemoryParams::micro21().nvm;
/// let mut nvm = BankedDevice::new(params);
/// let t0 = SimTime::ZERO;
/// let done = nvm.submit(t0, 0x40, 64, AccessKind::Write);
/// assert!(done >= t0 + params.write_latency);
/// // A second write to the same bank queues behind the first.
/// let done2 = nvm.submit(t0, 0x40, 64, AccessKind::Write);
/// assert!(done2 > done);
/// ```
#[derive(Debug)]
pub struct BankedDevice {
    params: DeviceParams,
    /// Time each bank becomes free.
    bank_free: Vec<SimTime>,
    /// Completion `(time, bank)` of in-flight requests, earliest on top,
    /// so a prune pops only the requests that have finished.
    completions: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// In-flight request count per bank (as of the last prune).
    bank_inflight: Vec<u32>,
    /// Number of banks with at least one request in flight.
    busy_banks: usize,
    reads: u64,
    writes: u64,
    total_queue_wait: Duration,
    /// Background (compaction) writes admitted via
    /// [`Self::submit_background`]; kept out of the foreground counters.
    background_writes: u64,
    /// Bytes moved by background writes.
    background_bytes: u64,
}

impl BankedDevice {
    /// Creates a device with all banks idle.
    #[must_use]
    pub fn new(params: DeviceParams) -> Self {
        BankedDevice {
            params,
            bank_free: vec![SimTime::ZERO; params.total_banks() as usize],
            completions: BinaryHeap::new(),
            bank_inflight: vec![0; params.total_banks() as usize],
            busy_banks: 0,
            reads: 0,
            writes: 0,
            total_queue_wait: Duration::ZERO,
            background_writes: 0,
            background_bytes: 0,
        }
    }

    /// The device parameters.
    #[must_use]
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    fn bank_for(&self, addr: u64) -> usize {
        // Line-interleave across banks; a multiplicative hash spreads
        // key-derived addresses evenly.
        let line = addr >> 6;
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % self.bank_free.len()
    }

    /// Submits a request at `now` and returns its completion time.
    ///
    /// The request occupies its bank for the service time (latency plus bus
    /// transfer for `bytes`); requests to a busy bank wait for it.
    pub fn submit(&mut self, now: SimTime, addr: u64, bytes: u64, kind: AccessKind) -> SimTime {
        self.prune(now);
        let bank = self.bank_for(addr);
        let base = match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.params.read_latency
            }
            AccessKind::Write => {
                self.writes += 1;
                self.params.write_latency
            }
        };
        let service = base + self.params.transfer_time(bytes);
        let start = self.bank_free[bank].max(now);
        self.total_queue_wait += start.saturating_since(now);
        let done = start + service;
        self.bank_free[bank] = done;
        if self.bank_inflight[bank] == 0 {
            self.busy_banks += 1;
        }
        self.bank_inflight[bank] += 1;
        self.completions.push(Reverse((done, bank as u32)));
        done
    }

    /// Admits a background bulk write (an LSM seal or merge) of `bytes`,
    /// split into `chunk_bytes` chunks striped round-robin across banks
    /// starting at `addr`'s bank. Each chunk occupies its bank exactly
    /// like a foreground write — it advances the bank's free time, so
    /// later foreground requests queue behind it — but background work is
    /// invisible to the foreground accounting: the in-flight and queued
    /// counts, the queue-wait total, and the read/write counters do not
    /// move. Returns the completion time of the last chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn submit_background(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
        chunk_bytes: u64,
    ) -> SimTime {
        assert!(chunk_bytes > 0, "background chunk size must be non-zero");
        if bytes == 0 {
            return now;
        }
        let banks = self.bank_free.len();
        let mut bank = self.bank_for(addr);
        let mut remaining = bytes;
        let mut done = now;
        while remaining > 0 {
            let sz = remaining.min(chunk_bytes);
            remaining -= sz;
            let service = self.params.write_latency + self.params.transfer_time(sz);
            let end = self.bank_free[bank].max(now) + service;
            self.bank_free[bank] = end;
            done = done.max(end);
            bank = (bank + 1) % banks;
        }
        self.background_writes += 1;
        self.background_bytes += bytes;
        done
    }

    /// Drops bookkeeping for requests that completed by `now`.
    fn prune(&mut self, now: SimTime) {
        while let Some(top) = self.completions.peek_mut() {
            if top.0 .0 > now {
                break;
            }
            let bank = PeekMut::pop(top).0 .1 as usize;
            self.bank_inflight[bank] -= 1;
            if self.bank_inflight[bank] == 0 {
                self.busy_banks -= 1;
            }
        }
    }

    /// Requests queued behind a busy bank (in flight but not in service)
    /// as of the last prune — exact immediately after a [`Self::submit`].
    #[must_use]
    pub fn queued_now(&self) -> usize {
        // Each busy bank has exactly one request in service; the rest of
        // its in-flight requests are queued.
        self.completions.len() - self.busy_banks
    }

    /// Requests queued behind a busy bank at `now`, pruning first.
    pub fn queued(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.queued_now()
    }

    /// Requests queued behind a busy bank at `now`, without touching any
    /// bookkeeping. Used by the timeline's close-of-window snapshots,
    /// which must be read-only. Linear in the in-flight count plus the
    /// bank count.
    #[must_use]
    pub fn queued_at(&self, now: SimTime) -> usize {
        // Each bank with a request in flight has exactly one in service.
        let mut busy = vec![false; self.bank_free.len()];
        let mut inflight = 0;
        for &Reverse((c, bank)) in self.completions.iter() {
            if c > now {
                inflight += 1;
                busy[bank as usize] = true;
            }
        }
        inflight - busy.into_iter().filter(|&b| b).count()
    }

    /// The earliest time at which every request submitted so far has
    /// completed (the "drain point").
    #[must_use]
    pub fn drain_time(&self) -> SimTime {
        self.bank_free
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Total reads submitted.
    #[must_use]
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total writes submitted.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Background bulk writes admitted (one per seal/merge, not per chunk).
    #[must_use]
    pub fn background_write_count(&self) -> u64 {
        self.background_writes
    }

    /// Bytes moved by background bulk writes.
    #[must_use]
    pub fn background_byte_count(&self) -> u64 {
        self.background_bytes
    }

    /// Sum of time requests spent waiting for a busy bank.
    #[must_use]
    pub fn total_queue_wait(&self) -> Duration {
        self.total_queue_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MemoryParams;

    fn nvm() -> BankedDevice {
        BankedDevice::new(MemoryParams::micro21().nvm)
    }

    #[test]
    fn idle_write_takes_service_time() {
        let mut d = nvm();
        let done = d.submit(SimTime::ZERO, 0, 64, AccessKind::Write);
        // 400 ns write + 4 ns transfer of 64 B.
        assert_eq!(done, SimTime::from_nanos(404));
    }

    #[test]
    fn idle_read_is_faster_than_write() {
        let mut d = nvm();
        let r = d.submit(SimTime::ZERO, 0, 64, AccessKind::Read);
        let mut d2 = nvm();
        let w = d2.submit(SimTime::ZERO, 0, 64, AccessKind::Write);
        assert!(r < w);
        assert_eq!(r, SimTime::from_nanos(144));
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut d = nvm();
        let a = d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        let b = d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        assert_eq!(b.saturating_since(a), a.saturating_since(SimTime::ZERO));
        assert!(d.total_queue_wait() > Duration::ZERO);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut d = nvm();
        // Find two addresses mapping to different banks.
        let mut addr2 = 0x80;
        while d.bank_for(addr2) == d.bank_for(0x40) {
            addr2 += 0x40;
        }
        let a = d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        let b = d.submit(SimTime::ZERO, addr2, 64, AccessKind::Write);
        assert_eq!(a, b, "independent banks should not serialize");
    }

    #[test]
    fn queue_wait_grows_with_load() {
        let mut light = nvm();
        let mut heavy = nvm();
        for i in 0..4u64 {
            light.submit(SimTime::ZERO, i * 0x40, 64, AccessKind::Write);
        }
        for i in 0..256u64 {
            heavy.submit(SimTime::ZERO, i * 0x40, 64, AccessKind::Write);
        }
        assert!(heavy.total_queue_wait() > light.total_queue_wait());
    }

    #[test]
    fn counts_track_kinds() {
        let mut d = nvm();
        d.submit(SimTime::ZERO, 0, 64, AccessKind::Read);
        d.submit(SimTime::ZERO, 0, 64, AccessKind::Write);
        d.submit(SimTime::ZERO, 0, 64, AccessKind::Write);
        assert_eq!(d.read_count(), 1);
        assert_eq!(d.write_count(), 2);
    }

    #[test]
    fn queued_counts_requests_behind_busy_banks() {
        let mut d = nvm();
        assert_eq!(d.queued_now(), 0);
        // Three same-bank writes: one in service, two queued.
        for _ in 0..3 {
            d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        }
        assert_eq!(d.queued_now(), 2);
        assert_eq!(d.queued_at(SimTime::ZERO), 2);
        // A write to a different bank is in service immediately.
        let mut addr2 = 0x80;
        while d.bank_for(addr2) == d.bank_for(0x40) {
            addr2 += 0x40;
        }
        d.submit(SimTime::ZERO, addr2, 64, AccessKind::Write);
        assert_eq!(d.queued_now(), 2);
        // Once everything drains, nothing is queued.
        let drain = d.drain_time();
        assert_eq!(d.queued(drain), 0);
        assert_eq!(d.queued_at(drain), 0);
    }

    #[test]
    fn queued_at_is_read_only_and_time_accurate() {
        let mut d = nvm();
        let first = d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        // After the first completes, the second is in service: queue
        // empty even though no prune has run.
        assert_eq!(d.queued_at(first), 0);
        assert_eq!(d.queued_now(), 1, "no bookkeeping was touched");
    }

    /// The device before completions moved into a heap: an unordered
    /// `Vec` that every prune scans and `queued_at` walks pairwise. Kept
    /// as the reference the heap must match.
    struct ScanDevice {
        params: DeviceParams,
        bank_free: Vec<SimTime>,
        completions: Vec<(SimTime, u32)>,
        bank_inflight: Vec<u32>,
        busy_banks: usize,
    }

    impl ScanDevice {
        fn new(params: DeviceParams) -> Self {
            let banks = params.total_banks() as usize;
            ScanDevice {
                params,
                bank_free: vec![SimTime::ZERO; banks],
                completions: Vec::new(),
                bank_inflight: vec![0; banks],
                busy_banks: 0,
            }
        }

        fn submit(&mut self, now: SimTime, bank: usize, bytes: u64, kind: AccessKind) -> SimTime {
            self.prune(now);
            let base = match kind {
                AccessKind::Read => self.params.read_latency,
                AccessKind::Write => self.params.write_latency,
            };
            let done = self.bank_free[bank].max(now) + base + self.params.transfer_time(bytes);
            self.bank_free[bank] = done;
            if self.bank_inflight[bank] == 0 {
                self.busy_banks += 1;
            }
            self.bank_inflight[bank] += 1;
            self.completions.push((done, bank as u32));
            done
        }

        /// Striped 256-byte chunks, as `submit_background` lays them.
        fn submit_background(&mut self, now: SimTime, mut bank: usize, bytes: u64) -> SimTime {
            let mut done = now;
            for _ in 0..bytes / 256 {
                let service = self.params.write_latency + self.params.transfer_time(256);
                self.bank_free[bank] = self.bank_free[bank].max(now) + service;
                done = done.max(self.bank_free[bank]);
                bank = (bank + 1) % self.bank_free.len();
            }
            done
        }

        fn prune(&mut self, now: SimTime) {
            let (bank_inflight, busy_banks) = (&mut self.bank_inflight, &mut self.busy_banks);
            self.completions.retain(|&(c, bank)| {
                if c > now {
                    return true;
                }
                bank_inflight[bank as usize] -= 1;
                if bank_inflight[bank as usize] == 0 {
                    *busy_banks -= 1;
                }
                false
            });
        }

        fn queued_now(&self) -> usize {
            self.completions.len() - self.busy_banks
        }

        fn queued_at(&self, now: SimTime) -> usize {
            let inflight = self.completions.iter().filter(|&&(c, _)| c > now).count();
            let busy = self
                .completions
                .iter()
                .enumerate()
                .filter(|&(i, &(c, bank))| {
                    c > now
                        && !self.completions[..i]
                            .iter()
                            .any(|&(c2, bank2)| c2 > now && bank2 == bank)
                })
                .count();
            inflight - busy
        }
    }

    #[test]
    fn completion_heap_matches_the_scan() {
        for seed in 0..6u64 {
            let mut rng = ddp_sim::SimRng::seed_from(seed);
            let mut d = nvm();
            let mut scan = ScanDevice::new(d.params);
            let mut clock = SimTime::ZERO;
            let mut deepest = 0;
            for step in 0..3_000 {
                if rng.chance(0.4) {
                    clock += Duration::from_nanos(rng.next_below(300));
                }
                // Some requests are stamped ahead of the clock, as a
                // coordinator's persist at its apply time is.
                let now = clock + Duration::from_nanos(rng.next_below(2) * rng.next_below(500));
                let addr = rng.next_below(64) << 6;
                let bank = d.bank_for(addr);
                match rng.next_below(10) {
                    0 => {
                        let bytes = 256 * (1 + rng.next_below(40));
                        assert_eq!(
                            d.submit_background(now, addr, bytes, 256),
                            scan.submit_background(now, bank, bytes)
                        );
                    }
                    1 => {
                        scan.prune(now);
                        assert_eq!(d.queued(now), scan.queued_now());
                    }
                    k => {
                        let kind = if k == 2 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        let bytes = 64 << rng.next_below(3);
                        assert_eq!(
                            d.submit(now, addr, bytes, kind),
                            scan.submit(now, bank, bytes, kind),
                            "seed {seed}, step {step}"
                        );
                    }
                }
                assert_eq!(d.bank_free, scan.bank_free);
                assert_eq!(d.completions.len(), scan.completions.len());
                assert_eq!(d.queued_now(), scan.queued_now());
                deepest = deepest.max(d.queued_now());
                let probe = clock + Duration::from_nanos(rng.next_below(4_000));
                assert_eq!(d.queued_at(probe), scan.queued_at(probe));
            }
            assert!(deepest > 2, "banks queued deeply");
            let end = d.drain_time();
            assert_eq!(d.queued(end), 0);
            assert!(d.completions.is_empty());
        }
    }

    #[test]
    fn later_submission_does_not_wait_for_drained_bank() {
        let mut d = nvm();
        let first = d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        let later = d.submit(first, 0x40, 64, AccessKind::Write);
        assert_eq!(later.saturating_since(first), Duration::from_nanos(404));
    }

    #[test]
    fn background_writes_consume_bank_time_but_not_foreground_stats() {
        let mut d = nvm();
        let done = d.submit_background(SimTime::ZERO, 0x40, 4096, 256);
        assert!(done > SimTime::ZERO);
        assert!(d.drain_time() >= done);
        // Invisible to the foreground books.
        assert_eq!(d.write_count(), 0);
        assert_eq!(d.read_count(), 0);
        assert_eq!(d.total_queue_wait(), Duration::ZERO);
        assert_eq!(d.queued_now(), 0);
        assert!(d.completions.is_empty());
        // Visible to the background books.
        assert_eq!(d.background_write_count(), 1);
        assert_eq!(d.background_byte_count(), 4096);
        // A foreground write to the seeded bank queues behind the burst.
        let fg = d.submit(SimTime::ZERO, 0x40, 64, AccessKind::Write);
        assert!(
            fg > SimTime::from_nanos(404),
            "foreground must wait for compaction: {fg:?}"
        );
        assert!(d.total_queue_wait() > Duration::ZERO);
    }

    #[test]
    fn background_chunks_stripe_across_banks() {
        let mut d = nvm();
        let banks = d.bank_free.len() as u64;
        // One chunk per bank: every bank ends equally busy, so the burst
        // finishes in one chunk's service time.
        let chunk = 256u64;
        let one = d.submit_background(SimTime::ZERO, 0, chunk, chunk);
        let mut d2 = nvm();
        let all = d2.submit_background(SimTime::ZERO, 0, banks * chunk, chunk);
        assert_eq!(one, all, "a bank-wide stripe runs fully in parallel");
        // Twice that volume wraps around and serializes per bank.
        let mut d3 = nvm();
        let wrapped = d3.submit_background(SimTime::ZERO, 0, 2 * banks * chunk, chunk);
        assert!(wrapped > all);
        assert_eq!(d3.background_write_count(), 1);
    }

    #[test]
    fn zero_byte_background_write_is_free() {
        let mut d = nvm();
        assert_eq!(d.submit_background(SimTime::ZERO, 0, 0, 256), SimTime::ZERO);
        assert_eq!(d.background_write_count(), 0);
        assert_eq!(d.drain_time(), SimTime::ZERO);
    }
}
