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

/// Tags a set's first fill reserves (fewer if the level has fewer ways).
const SMALL_BLOCK: usize = 4;

/// Directory slots a level starts with; a power of two.
const FIRST_DIRECTORY: usize = 16;

/// Fibonacci-hashing multiplier: spreads neighbouring set keys over the
/// directory.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A directory slot: one filled set, or free.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    /// Set index + 1, or 0 if the slot is free.
    key: u32,
    /// Index of the set's first tag in the level's arena.
    base: u32,
    /// Valid tags (front of the block = MRU).
    len: u8,
    /// Tags the set's block holds: the small size, or `ways`.
    cap: u8,
}

/// A line a lookup missed, with its set's directory slot (the set's entry,
/// or the free slot the set would take), so that the fill that follows the
/// miss does not probe again. Valid until the level next changes.
#[derive(Clone, Copy, Debug)]
struct Miss {
    line: u64,
    key: u32,
    slot: usize,
}

/// One set-associative cache level with LRU replacement.
///
/// Tags are full line addresses; the structure stores no data, only presence,
/// because the simulator is a timing model. Host memory follows the sets a
/// run fills, not the level's geometry: an open-addressing directory maps
/// each filled set to a block of tags in the level's arena, and a block is
/// sized to its set's occupancy. A set's first fill takes a small block of
/// `min(4, ways)` tags; a set that outgrows it moves once to a block of
/// `ways` tags, and the next set filled reuses the small block. Key-derived
/// lines spread thinly over a large LLC (100k keys never put more than 3
/// lines in one of its 40,960 sets), so most sets never move.
#[derive(Clone, Debug)]
struct CacheLevel {
    /// Filled sets, found by linear probing from a hash of the set key; a
    /// power of two long and at most half full.
    dir: Vec<Entry>,
    /// Occupied directory slots.
    filled: usize,
    /// `64 - log2(dir.len())`: turns a spread key into a directory slot.
    dir_shift: u32,
    /// Tag arena holding every filled set's block.
    tags: Vec<u64>,
    /// Small blocks left behind by sets that moved to a full block.
    free_small: Vec<u32>,
    sets: u64,
    ways: usize,
    small: usize,
    line_shift: u32,
}

impl CacheLevel {
    fn new(params: &CacheParams) -> Self {
        let sets = params.sets().max(1);
        assert!(
            u8::try_from(params.ways).is_ok(),
            "{} ways overflow the per-set length",
            params.ways
        );
        assert!(
            sets < u64::from(u32::MAX),
            "{sets} sets overflow the directory key"
        );
        let ways = params.ways as usize;
        CacheLevel {
            dir: vec![Entry::default(); FIRST_DIRECTORY],
            filled: 0,
            dir_shift: 64 - FIRST_DIRECTORY.trailing_zeros(),
            tags: Vec::new(),
            free_small: Vec::new(),
            sets,
            ways,
            small: ways.min(SMALL_BLOCK),
            line_shift: params.line_bytes.trailing_zeros(),
        }
    }

    /// The line address of `addr` and its set's directory key.
    fn line_and_key(&self, addr: u64) -> (u64, u32) {
        let line = addr >> self.line_shift;
        (line, (line % self.sets) as u32 + 1)
    }

    /// The directory slot holding `key`, or the free slot that ends its
    /// probe sequence.
    fn probe(&self, key: u32) -> usize {
        let mask = self.dir.len() - 1;
        let mut slot = (u64::from(key).wrapping_mul(SPREAD) >> self.dir_shift) as usize;
        while self.dir[slot].key != key && self.dir[slot].key != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The valid tags of the set at directory `slot`, MRU first (empty for
    /// a free slot).
    fn set(&mut self, slot: usize) -> &mut [u64] {
        let Entry { base, len, .. } = self.dir[slot];
        let base = base as usize;
        &mut self.tags[base..base + usize::from(len)]
    }

    /// Looks up the line; on hit, promotes it to MRU.
    fn lookup(&mut self, addr: u64) -> Result<(), Miss> {
        let (line, key) = self.line_and_key(addr);
        let slot = self.probe(key);
        let set = self.set(slot);
        match set.iter().position(|&t| t == line) {
            Some(pos) => {
                set[..=pos].rotate_right(1);
                Ok(())
            }
            None => Err(Miss { line, key, slot }),
        }
    }

    /// Looks up the line and installs it on a miss; returns whether it hit.
    fn hit_or_fill(&mut self, addr: u64) -> bool {
        match self.lookup(addr) {
            Ok(()) => true,
            Err(miss) => {
                self.fill(miss);
                false
            }
        }
    }

    /// Installs a missed line as MRU, evicting LRU if the set is full.
    fn fill(&mut self, miss: Miss) {
        debug_assert!(
            [0, miss.key].contains(&self.dir[miss.slot].key),
            "stale miss"
        );
        let slot = match self.dir[miss.slot].key {
            0 => self.insert(miss.key, miss.slot),
            _ => miss.slot,
        };
        let Entry { base, len, cap, .. } = self.dir[slot];
        let (mut base, len) = (base as usize, usize::from(len));
        if len == usize::from(cap) && len < self.ways {
            // The set outgrew its small block: move it to a full one.
            let full = self.tags.len();
            self.tags.extend_from_within(base..base + len);
            self.tags.resize(full + self.ways, 0);
            self.free_small.push(self.dir[slot].base);
            self.dir[slot].base = arena_index(full);
            self.dir[slot].cap = self.ways as u8;
            base = full;
        }
        let end = if len < self.ways {
            self.dir[slot].len += 1;
            len + 1
        } else {
            len
        };
        // The slot at `end - 1` (the LRU victim or a free slot) takes the
        // line, then rotates to the front.
        let set = &mut self.tags[base..base + end];
        set[end - 1] = miss.line;
        set.rotate_right(1);
    }

    /// Enters `key` in the directory with a small block, at its free probe
    /// `slot` unless the directory has to grow first; returns its slot.
    fn insert(&mut self, key: u32, slot: usize) -> usize {
        let slot = if 2 * (self.filled + 1) > self.dir.len() {
            self.grow();
            self.probe(key)
        } else {
            slot
        };
        let base = self.free_small.pop().unwrap_or_else(|| {
            let base = arena_index(self.tags.len());
            self.tags.resize(self.tags.len() + self.small, 0);
            base
        });
        self.dir[slot] = Entry {
            key,
            base,
            len: 0,
            cap: self.small as u8,
        };
        self.filled += 1;
        slot
    }

    /// Doubles the directory and re-enters every filled set.
    fn grow(&mut self) {
        let doubled = vec![Entry::default(); 2 * self.dir.len()];
        let old = std::mem::replace(&mut self.dir, doubled);
        self.dir_shift -= 1;
        for entry in old.into_iter().filter(|e| e.key != 0) {
            let slot = self.probe(entry.key);
            self.dir[slot] = entry;
        }
    }

    /// Removes the line if present (invalidation).
    fn invalidate(&mut self, addr: u64) {
        let (line, key) = self.line_and_key(addr);
        let slot = self.probe(key);
        let set = self.set(slot);
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[pos..].rotate_left(1);
            self.dir[slot].len -= 1;
        }
    }

    /// Host bytes the level has allocated.
    #[cfg(test)]
    fn host_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dir.capacity() * size_of::<Entry>()
            + self.tags.capacity() * size_of::<u64>()
            + self.free_small.capacity() * size_of::<u32>()
    }
}

/// `index` as a tag-arena offset.
fn arena_index(index: usize) -> u32 {
    u32::try_from(index).expect("tag arena overflow")
}

/// The share of `total` that `ways` of its ways hold, at the same set count.
fn partition(total: &CacheParams, ways: u32) -> CacheParams {
    CacheParams {
        ways,
        capacity_bytes: total.capacity_bytes * u64::from(ways) / u64::from(total.ways),
        ..*total
    }
}

/// The per-node cache hierarchy: one L1 + L2 (the core running the worker
/// thread for a request) and the shared LLC split by ways into a DDIO
/// partition and a regular partition.
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
}

impl CacheHierarchy {
    /// Builds the hierarchy for the given parameters.
    #[must_use]
    pub fn new(params: &MemoryParams) -> Self {
        let llc_total = params.llc_total();
        let ddio_ways = params.ddio_ways();
        CacheHierarchy {
            l1: CacheLevel::new(&params.l1),
            l2: CacheLevel::new(&params.l2),
            llc: CacheLevel::new(&partition(&llc_total, llc_total.ways - ddio_ways)),
            ddio: CacheLevel::new(&partition(&llc_total, ddio_ways)),
            l1_lat: params.l1.round_trip(),
            l2_lat: params.l2.round_trip(),
            llc_lat: llc_total.round_trip(),
            mem_lat: params.dram.read_latency
                + Duration::from_cycles(llc_total.round_trip_cycles, CORE_GHZ),
        }
    }

    /// Performs a CPU load/store to `addr`; returns where it hit and the
    /// access latency. Fills all levels on the way back (inclusive model).
    pub fn access(&mut self, addr: u64) -> (HitLevel, Duration) {
        if self.l1.hit_or_fill(addr) {
            (HitLevel::L1, self.l1_lat)
        } else if self.l2.hit_or_fill(addr) {
            (HitLevel::L2, self.l2_lat)
        } else {
            match self.llc.lookup(addr) {
                Ok(()) => (HitLevel::Llc, self.llc_lat),
                Err(_) if self.ddio.lookup(addr).is_ok() => (HitLevel::Llc, self.llc_lat),
                Err(miss) => {
                    self.llc.fill(miss);
                    (HitLevel::Memory, self.mem_lat)
                }
            }
        }
    }

    /// Injects a line arriving from the NIC directly into the DDIO partition
    /// of the LLC (Data Direct I/O). Private caches are invalidated so the
    /// next CPU access sees the new data at LLC latency.
    pub fn ddio_inject(&mut self, addr: u64) -> Duration {
        self.ddio.hit_or_fill(addr);
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
        self.llc_lat
    }

    /// Latency of an LLC round trip, used for protocol bookkeeping updates.
    #[must_use]
    pub fn llc_latency(&self) -> Duration {
        self.llc_lat
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

    #[test]
    fn llc_partitions_sum_to_the_llc_and_share_its_sets() {
        let p = MemoryParams::micro21();
        let c = CacheHierarchy::new(&p);
        let bytes = |l: &CacheLevel| l.sets * l.ways as u64 * (1 << l.line_shift);
        assert_eq!(bytes(&c.llc) + bytes(&c.ddio), p.llc_total().capacity_bytes);
        assert_eq!((c.llc.ways, c.ddio.ways), (14, 2));
        assert_eq!((c.llc.sets, c.ddio.sets), (40_960, 40_960));
    }

    /// A hierarchy with a handful of sets per level, so random addresses
    /// reuse, evict and invalidate constantly. L1, L2 and the main LLC
    /// partition have more ways than a small block holds.
    fn tiny_hierarchy() -> CacheHierarchy {
        let line = |sets: u64, ways: u32, cycles: u64| CacheParams {
            capacity_bytes: sets * u64::from(ways) * 64,
            ways,
            line_bytes: 64,
            round_trip_cycles: cycles,
        };
        CacheHierarchy::new(&MemoryParams {
            cores: 1,
            l1: line(4, 6, 2),
            l2: line(8, 8, 12),
            llc_per_core: line(8, 16, 38),
            ..MemoryParams::micro21()
        })
    }

    /// The reference LRU set: the `VecDeque`-per-set model, MRU at the
    /// front, that the directory-and-arena `CacheLevel` must reproduce
    /// exactly.
    struct RefLevel {
        sets: Vec<VecDeque<u64>>,
        ways: usize,
        line_shift: u32,
    }

    impl RefLevel {
        fn like(level: &CacheLevel) -> Self {
            RefLevel {
                sets: vec![VecDeque::new(); level.sets as usize],
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

    /// The valid tags of `addr`'s set, MRU first.
    fn tags(level: &mut CacheLevel, addr: u64) -> Vec<u64> {
        let slot = level.probe(level.line_and_key(addr).1);
        level.set(slot).to_vec()
    }

    /// Whether some set of the level has moved to a full block.
    fn has_grown(level: &CacheLevel) -> bool {
        level.dir.iter().any(|e| usize::from(e.cap) > level.small)
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
            // 160 distinct lines over at most 8 sets per level.
            let addr = rng.next_below(160) * 64 + rng.next_below(64);
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
        for (name, level) in [("L1", &c.l1), ("L2", &c.l2), ("LLC", &c.llc)] {
            assert!(has_grown(level), "no {name} set outgrew its small block");
        }
    }

    /// Host bytes all four levels have allocated.
    fn host_bytes(c: &CacheHierarchy) -> usize {
        [&c.l1, &c.l2, &c.llc, &c.ddio]
            .iter()
            .map(|level| level.host_bytes())
            .sum()
    }

    #[test]
    fn fresh_hierarchy_bytes_do_not_depend_on_set_count() {
        let bytes = |cores: u32, l2_kib: u64| {
            let mut p = MemoryParams::micro21();
            p.cores = cores;
            p.l2.capacity_bytes = l2_kib * 1024;
            host_bytes(&CacheHierarchy::new(&p))
        };
        let table5 = bytes(20, 512);
        assert_eq!(bytes(1, 64), table5);
        assert_eq!(bytes(320, 4096), table5);
    }

    #[test]
    fn touched_sets_cost_one_entry_and_one_small_block_each() {
        for k in [1usize, 10, 100] {
            let mut c = hierarchy();
            // Lines 0..k land in k distinct sets of every level (L1 has the
            // fewest, 128); refilling or re-accessing them allocates
            // nothing more.
            for round in 0..3 {
                for line in 0..k as u64 {
                    c.access(line * 64 + round);
                }
            }
            // L1, L2 and the main LLC have 8, 8 and 14 ways; DDIO has 2.
            for level in [&c.l1, &c.l2, &c.llc] {
                assert_eq!(level.filled, k);
                assert_eq!(level.tags.len(), k * SMALL_BLOCK);
                assert!(level.dir.len() <= (4 * k).max(FIRST_DIRECTORY));
            }
            assert_eq!(c.ddio.filled, 0, "CPU accesses never fill DDIO ways");
            for line in 0..k as u64 {
                c.ddio_inject(line * 64);
            }
            assert_eq!(c.ddio.filled, k);
            assert_eq!(c.ddio.tags.len(), k * 2);
        }
    }

    #[test]
    fn grown_shrunk_and_refilled_set_keeps_lru_order() {
        let mut c = hierarchy();
        // L1 has 128 sets of 8 ways and small blocks of 4; lines 128 apart
        // share set 0.
        let l1 = &mut c.l1;
        let addr = |i: u64| i * 128 * 64;
        let set0 = |l1: &mut CacheLevel| -> Vec<u64> {
            tags(l1, 0).into_iter().map(|line| line / 128).collect()
        };
        for i in 0..6 {
            l1.hit_or_fill(addr(i));
        }
        assert_eq!(set0(l1), [5, 4, 3, 2, 1, 0]);
        assert_eq!(l1.tags.len(), l1.small + l1.ways, "moved once");
        assert_eq!(l1.free_small.len(), 1);
        for i in [4, 0, 2] {
            l1.invalidate(addr(i));
        }
        assert_eq!(set0(l1), [5, 3, 1]);
        assert!(l1.hit_or_fill(addr(1)), "promoted, not refilled");
        for i in 6..12 {
            l1.hit_or_fill(addr(i));
        }
        assert_eq!(set0(l1), [11, 10, 9, 8, 7, 6, 1, 5], "3 evicted as LRU");
        // The next set filled takes the freed small block.
        l1.hit_or_fill(64);
        assert_eq!(l1.tags.len(), l1.small + l1.ways);
        assert!(l1.free_small.is_empty());
    }
}
