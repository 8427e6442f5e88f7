//! Set-associative cache hierarchy model with DDIO.
//!
//! The protocol engines need the *time* a local volatile access takes. We
//! model a three-level hierarchy (private L1/L2, shared LLC) with true LRU
//! sets, plus the Data Direct I/O path: updates arriving from the NIC are
//! injected straight into a reserved fraction of LLC ways, as on real Xeons
//! with DDIO (paper §4, Table 5: 10 % of the LLC).

use ddp_sim::Duration;

use crate::params::{CacheParams, MemoryParams, CORE_GHZ};

/// Where an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Private L1 cache.
    L1,
    /// Private L2 cache.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Missed the whole hierarchy; satisfied by DRAM.
    Memory,
}

/// One set-associative cache level with LRU replacement.
///
/// Tags are full line addresses; the structure stores no data, only presence,
/// because the simulator is a timing model. Sets are allocated on first
/// fill: a set that is never filled costs one zeroed `u32` and one zeroed
/// `u8`, and its `ways` tag slots are carved out of the level's shared
/// arena the first time a line is installed. Building a node therefore
/// writes no per-set state, and tag memory grows only with the sets a run
/// touches (a short run touches few of a 40 MiB LLC's ~47k sets).
#[derive(Clone, Debug)]
struct CacheLevel {
    /// Per set: one past the index of its first slot in `tags`, or 0 if
    /// the set has never been filled.
    slot: Vec<u32>,
    /// Per set: number of valid tags (front of its slots = MRU).
    lens: Vec<u8>,
    /// Tag arena; each filled set owns `ways` consecutive slots.
    tags: Vec<u64>,
    ways: usize,
    line_shift: u32,
}

impl CacheLevel {
    fn new(params: &CacheParams) -> Self {
        let sets = params.sets().max(1) as usize;
        assert!(
            u8::try_from(params.ways).is_ok(),
            "{} ways overflow the per-set length",
            params.ways
        );
        CacheLevel {
            slot: vec![0; sets],
            lens: vec![0; sets],
            tags: Vec::new(),
            ways: params.ways as usize,
            line_shift: params.line_bytes.trailing_zeros(),
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) % self.slot.len() as u64) as usize
    }

    fn line(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The valid tags of set `idx`, MRU first (empty if never filled).
    fn set(&mut self, idx: usize) -> &mut [u64] {
        match self.slot[idx] {
            0 => &mut [],
            s => {
                let base = s as usize - 1;
                &mut self.tags[base..base + usize::from(self.lens[idx])]
            }
        }
    }

    /// Looks up the line; on hit, promotes it to MRU.
    fn access(&mut self, addr: u64) -> bool {
        let line = self.line(addr);
        let set = self.set(self.set_index(addr));
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            true
        } else {
            false
        }
    }

    /// Installs the line as MRU, evicting LRU if the set is full.
    fn fill(&mut self, addr: u64) {
        let line = self.line(addr);
        let idx = self.set_index(addr);
        if self.slot[idx] == 0 {
            self.slot[idx] = u32::try_from(self.tags.len() + 1).expect("tag arena overflow");
            self.tags.resize(self.tags.len() + self.ways, 0);
        }
        let len = usize::from(self.lens[idx]);
        let base = self.slot[idx] as usize - 1;
        let set = &mut self.tags[base..base + self.ways];
        let end = match set[..len].iter().position(|&t| t == line) {
            Some(pos) => pos + 1,
            None if len >= self.ways => len,
            None => {
                self.lens[idx] += 1;
                len + 1
            }
        };
        // The slot at `end - 1` (the hit, the LRU victim or a free slot)
        // takes the line, then rotates to the front.
        set[end - 1] = line;
        set[..end].rotate_right(1);
    }

    /// Removes the line if present (invalidation).
    fn invalidate(&mut self, addr: u64) {
        let line = self.line(addr);
        let idx = self.set_index(addr);
        let set = self.set(idx);
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[pos..].rotate_left(1);
            self.lens[idx] -= 1;
        }
    }

    /// Tag slots allocated so far.
    #[cfg(test)]
    fn slots(&self) -> usize {
        self.tags.len()
    }
}

/// The per-node cache hierarchy: one L1 + L2 (the core running the worker
/// thread for a request) and the shared LLC split into a DDIO partition and
/// a regular partition.
///
/// # Examples
///
/// ```
/// use ddp_mem::{CacheHierarchy, HitLevel, MemoryParams};
///
/// let mut caches = CacheHierarchy::new(&MemoryParams::micro21());
/// let (level, _lat) = caches.access(0x1000);
/// assert_eq!(level, HitLevel::Memory); // cold miss
/// let (level, _lat) = caches.access(0x1000);
/// assert_eq!(level, HitLevel::L1); // now resident
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    llc: CacheLevel,
    ddio: CacheLevel,
    l1_lat: Duration,
    l2_lat: Duration,
    llc_lat: Duration,
    mem_lat: Duration,
    hits: [u64; 4],
}

impl CacheHierarchy {
    /// Builds the hierarchy for the given parameters.
    #[must_use]
    pub fn new(params: &MemoryParams) -> Self {
        let llc_total = params.llc_total();
        let ddio_ways = ((f64::from(llc_total.ways) * params.ddio_fraction).round() as u32).max(1);
        let ddio = CacheParams {
            ways: ddio_ways,
            capacity_bytes: llc_total.capacity_bytes * u64::from(ddio_ways)
                / u64::from(llc_total.ways),
            ..llc_total
        };
        let main_llc = CacheParams {
            ways: llc_total.ways - ddio_ways,
            ..llc_total
        };
        CacheHierarchy {
            l1: CacheLevel::new(&params.l1),
            l2: CacheLevel::new(&params.l2),
            llc: CacheLevel::new(&main_llc),
            ddio: CacheLevel::new(&ddio),
            l1_lat: params.l1.round_trip(),
            l2_lat: params.l2.round_trip(),
            llc_lat: llc_total.round_trip(),
            mem_lat: params.dram.read_latency
                + Duration::from_cycles(llc_total.round_trip_cycles, CORE_GHZ),
            hits: [0; 4],
        }
    }

    /// Performs a CPU load/store to `addr`; returns where it hit and the
    /// access latency. Fills all levels on the way back (inclusive model).
    pub fn access(&mut self, addr: u64) -> (HitLevel, Duration) {
        let (level, lat) = if self.l1.access(addr) {
            (HitLevel::L1, self.l1_lat)
        } else if self.l2.access(addr) {
            self.l1.fill(addr);
            (HitLevel::L2, self.l2_lat)
        } else if self.llc.access(addr) || self.ddio.access(addr) {
            self.l1.fill(addr);
            self.l2.fill(addr);
            (HitLevel::Llc, self.llc_lat)
        } else {
            self.l1.fill(addr);
            self.l2.fill(addr);
            self.llc.fill(addr);
            (HitLevel::Memory, self.mem_lat)
        };
        self.hits[level as usize] += 1;
        (level, lat)
    }

    /// Injects a line arriving from the NIC directly into the DDIO partition
    /// of the LLC (Data Direct I/O). Private caches are invalidated so the
    /// next CPU access sees the new data at LLC latency.
    pub fn ddio_inject(&mut self, addr: u64) -> Duration {
        self.ddio.fill(addr);
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
        self.llc_lat
    }

    /// Latency of an LLC round trip, used for protocol bookkeeping updates.
    #[must_use]
    pub fn llc_latency(&self) -> Duration {
        self.llc_lat
    }

    /// Hit counts indexed as `[L1, L2, LLC, Memory]`.
    #[must_use]
    pub fn hit_counts(&self) -> [u64; 4] {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(&MemoryParams::micro21())
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut c = hierarchy();
        assert_eq!(c.access(0x40).0, HitLevel::Memory);
        assert_eq!(c.access(0x40).0, HitLevel::L1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = hierarchy();
        c.access(0x40);
        assert_eq!(c.access(0x7f).0, HitLevel::L1); // same 64B line
        assert_eq!(c.access(0x80).0, HitLevel::Memory); // next line
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut c = hierarchy();
        // L1: 128 sets * 64B lines -> addresses 8KB apart map to one set.
        // Fill 9 lines in set 0 to evict the first from the 8-way L1.
        for i in 0..9u64 {
            c.access(i * 128 * 64);
        }
        let (level, _) = c.access(0);
        assert_eq!(level, HitLevel::L2);
    }

    #[test]
    fn latencies_are_ordered() {
        let mut c = hierarchy();
        let (_, mem) = c.access(0x1000);
        let (_, l1) = c.access(0x1000);
        assert!(mem > l1);
        assert_eq!(l1, Duration::from_nanos(1));
    }

    #[test]
    fn ddio_injection_hits_in_llc() {
        let mut c = hierarchy();
        c.ddio_inject(0x2000);
        let (level, lat) = c.access(0x2000);
        assert_eq!(level, HitLevel::Llc);
        assert_eq!(lat, Duration::from_nanos(19)); // 38 cycles at 2 GHz
    }

    #[test]
    fn ddio_invalidate_private_copies() {
        let mut c = hierarchy();
        c.access(0x3000); // resident in L1 after this
        c.access(0x3000);
        c.ddio_inject(0x3000); // remote update arrives
        let (level, _) = c.access(0x3000);
        assert_eq!(level, HitLevel::Llc, "stale private copy must be dropped");
    }

    /// A hierarchy with a handful of sets per level, so random addresses
    /// reuse, evict and invalidate constantly.
    fn tiny_hierarchy() -> CacheHierarchy {
        let line = |sets: u64, ways: u32, cycles: u64| CacheParams {
            capacity_bytes: sets * u64::from(ways) * 64,
            ways,
            line_bytes: 64,
            round_trip_cycles: cycles,
        };
        CacheHierarchy::new(&MemoryParams {
            cores: 1,
            l1: line(4, 2, 2),
            l2: line(8, 4, 12),
            llc_per_core: line(8, 10, 38),
            ..MemoryParams::micro21()
        })
    }

    /// The reference LRU set: the `VecDeque`-per-set model, MRU at the
    /// front, that the shared-arena `CacheLevel` must reproduce exactly.
    struct RefLevel {
        sets: Vec<VecDeque<u64>>,
        ways: usize,
        line_shift: u32,
    }

    impl RefLevel {
        fn like(level: &CacheLevel) -> Self {
            RefLevel {
                sets: vec![VecDeque::new(); level.slot.len()],
                ways: level.ways,
                line_shift: level.line_shift,
            }
        }

        fn set(&mut self, addr: u64) -> (&mut VecDeque<u64>, u64) {
            let line = addr >> self.line_shift;
            let n = self.sets.len() as u64;
            (&mut self.sets[(line % n) as usize], line)
        }

        fn access(&mut self, addr: u64) -> bool {
            let (set, line) = self.set(addr);
            let hit = set.iter().position(|&t| t == line);
            if let Some(pos) = hit {
                set.remove(pos);
                set.push_front(line);
            }
            hit.is_some()
        }

        fn fill(&mut self, addr: u64) {
            let ways = self.ways;
            let (set, line) = self.set(addr);
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set.remove(pos);
            } else if set.len() >= ways {
                set.pop_back();
            }
            set.push_front(line);
        }

        fn invalidate(&mut self, addr: u64) {
            let (set, line) = self.set(addr);
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set.remove(pos);
            }
        }

        fn tags(&mut self, addr: u64) -> Vec<u64> {
            self.set(addr).0.iter().copied().collect()
        }
    }

    fn tags(level: &mut CacheLevel, addr: u64) -> Vec<u64> {
        level.set(level.set_index(addr)).to_vec()
    }

    #[test]
    fn arena_lru_matches_vecdeque_reference() {
        let mut c = tiny_hierarchy();
        let mut l1 = RefLevel::like(&c.l1);
        let mut l2 = RefLevel::like(&c.l2);
        let mut llc = RefLevel::like(&c.llc);
        let mut ddio = RefLevel::like(&c.ddio);
        let mut hits = [0u64; 4];
        let mut rng = ddp_sim::SimRng::seed_from(0xCAC4E);
        for step in 0..200_000 {
            // 96 distinct lines over at most 8 sets per level.
            let addr = rng.next_below(96) * 64 + rng.next_below(64);
            match rng.next_below(10) {
                0..=6 => {
                    let want = if l1.access(addr) {
                        (HitLevel::L1, c.l1_lat)
                    } else if l2.access(addr) {
                        l1.fill(addr);
                        (HitLevel::L2, c.l2_lat)
                    } else if llc.access(addr) || ddio.access(addr) {
                        l1.fill(addr);
                        l2.fill(addr);
                        (HitLevel::Llc, c.llc_lat)
                    } else {
                        l1.fill(addr);
                        l2.fill(addr);
                        llc.fill(addr);
                        (HitLevel::Memory, c.mem_lat)
                    };
                    hits[want.0 as usize] += 1;
                    assert_eq!(c.access(addr), want, "step {step}");
                }
                7 | 8 => {
                    ddio.fill(addr);
                    l1.invalidate(addr);
                    l2.invalidate(addr);
                    assert_eq!(c.ddio_inject(addr), c.llc_lat);
                }
                _ => {
                    let (level, reference) = match rng.next_below(4) {
                        0 => (&mut c.l1, &mut l1),
                        1 => (&mut c.l2, &mut l2),
                        2 => (&mut c.llc, &mut llc),
                        _ => (&mut c.ddio, &mut ddio),
                    };
                    level.invalidate(addr);
                    reference.invalidate(addr);
                }
            }
            assert_eq!(c.hit_counts(), hits, "step {step}");
            assert_eq!(tags(&mut c.l1, addr), l1.tags(addr), "L1 at step {step}");
            assert_eq!(tags(&mut c.l2, addr), l2.tags(addr), "L2 at step {step}");
            assert_eq!(tags(&mut c.llc, addr), llc.tags(addr), "LLC at step {step}");
            assert_eq!(
                tags(&mut c.ddio, addr),
                ddio.tags(addr),
                "DDIO at step {step}"
            );
        }
        assert!(hits.iter().all(|&h| h > 1_000), "mix too narrow: {hits:?}");
    }

    #[test]
    fn sets_are_allocated_on_first_fill() {
        let mut c = hierarchy();
        for level in [&c.l1, &c.l2, &c.llc, &c.ddio] {
            assert_eq!(level.slots(), 0, "a fresh hierarchy holds no tags");
        }
        // L1 has 128 sets of 8 ways: lines 0..k land in k distinct sets,
        // and refilling or re-accessing them allocates nothing more.
        let k = 37u64;
        for round in 0..3 {
            for line in 0..k {
                c.access(line * 64 + round);
            }
        }
        assert_eq!(c.l1.slots(), 37 * c.l1.ways);
        assert_eq!(c.l2.slots(), 37 * c.l2.ways);
        assert_eq!(c.llc.slots(), 37 * c.llc.ways);
        assert_eq!(c.ddio.slots(), 0, "CPU accesses never fill DDIO ways");
        c.ddio_inject(0);
        assert_eq!(c.ddio.slots(), c.ddio.ways);
    }

    #[test]
    fn hit_counts_accumulate() {
        let mut c = hierarchy();
        c.access(0x40);
        c.access(0x40);
        c.access(0x40);
        let [l1, _l2, _llc, mem] = c.hit_counts();
        assert_eq!(l1, 2);
        assert_eq!(mem, 1);
    }
}
