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

/// The most sets a level can have: a directory key is the set index + 1,
/// in 32 bits.
pub(crate) const MAX_SETS: u64 = u32::MAX as u64;

/// The highest address a level of this geometry tells apart from every
/// lower one. A line's tag is its line number divided by the set count, in
/// 32 bits, so each set holds 2^32 distinct lines.
pub(crate) fn max_addr(level: &CacheParams) -> u64 {
    let bytes = (u128::from(level.sets()) * u128::from(level.line_bytes)) << 32;
    u64::try_from(bytes - 1).unwrap_or(u64::MAX)
}

/// Tags a directory entry holds inline.
const INLINE: usize = 2;

/// Directory entries a hashed directory starts with; a power of two.
const FIRST_DIRECTORY: usize = 16;

/// Fibonacci-hashing multiplier: spreads neighbouring set keys over the
/// directory.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A directory entry: one set's key, length and tags.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    /// Set index + 1, or 0 while the set has never been filled.
    key: u32,
    /// Valid tags (front = MRU).
    len: u8,
    /// Whether the set's tags live in the spill arena, at the block whose
    /// index `tags[0]` holds, rather than inline.
    spilled: bool,
    /// The set's tags, MRU first, while it is not spilled.
    tags: [u32; INLINE],
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// A line a lookup missed, with its set's directory entry (the set's own,
/// or the free one the set would take), so that the fill that follows the
/// miss does not probe again. Valid until the level next changes.
#[derive(Clone, Copy, Debug)]
struct Miss {
    key: u32,
    tag: u32,
    slot: usize,
}

/// One set-associative cache level with LRU replacement.
///
/// The structure stores no data, only presence, because the simulator is a
/// timing model. A set's lines are told apart by a 32-bit tag, the line
/// number divided by the set count. Host memory follows the sets a run
/// fills, not the level's geometry, and a lookup reads one directory
/// entry:
/// - each 16-byte entry holds its set's key and length and up to two tags
///   inline; a set that outgrows them moves once to a block of `ways` tags
///   in the level's spill arena, and stays there;
/// - the directory maps each filled set to its entry by open addressing,
///   until a doubling would reach the level's set count. It then becomes
///   exactly `sets` entries, indexed by set, with no hash and no probe.
///
/// Key-derived lines spread thinly over a large LLC (100k keys never put
/// more than 3 lines in one of its 40,960 sets), so most sets never spill.
#[derive(Clone, Debug)]
struct CacheLevel {
    /// Filled sets, found by linear probing from a hash of the set key (a
    /// power of two long and at most half full); or one entry per set,
    /// indexed by set, once `dir.len() == sets`.
    dir: Vec<Entry>,
    /// Filled sets.
    filled: usize,
    /// `64 - log2(dir.len())`: turns a spread key into a hashed slot.
    dir_shift: u32,
    /// Blocks of `ways` tags, one for each set that outgrew its entry.
    spill: Vec<u32>,
    sets: u64,
    ways: usize,
    line_shift: u32,
}

impl CacheLevel {
    /// A level with `params`' sets and lines, and `ways` ways.
    fn new(params: &CacheParams, ways: u32) -> Self {
        let sets = params.sets();
        assert!(
            (1..=MAX_SETS).contains(&sets),
            "{sets} sets outside the directory's 1..={MAX_SETS}"
        );
        assert!(
            u8::try_from(ways).is_ok(),
            "{ways} ways overflow the per-set length"
        );
        // A level no larger than the first hashed directory starts indexed.
        let first = FIRST_DIRECTORY.min(sets as usize);
        CacheLevel {
            dir: vec![Entry::default(); first],
            filled: 0,
            dir_shift: 64 - FIRST_DIRECTORY.trailing_zeros(),
            spill: Vec::new(),
            sets,
            ways: ways as usize,
            line_shift: params.line_bytes.trailing_zeros(),
        }
    }

    /// Whether the directory holds one entry per set.
    fn indexed(&self) -> bool {
        self.dir.len() as u64 == self.sets
    }

    /// The directory key and the tag of `addr`'s line.
    fn key_and_tag(&self, addr: u64) -> (u32, u32) {
        let line = addr >> self.line_shift;
        let tag = u32::try_from(line / self.sets)
            .expect("address beyond the level's 32-bit tags (MemoryParams::max_addr)");
        ((line % self.sets) as u32 + 1, tag)
    }

    /// The directory entry of the set with `key`: its own in an indexed
    /// directory; otherwise the entry holding `key`, or the free entry
    /// that ends its probe sequence.
    fn slot(&self, key: u32) -> usize {
        if self.indexed() {
            return key as usize - 1;
        }
        let mask = self.dir.len() - 1;
        let mut slot = (u64::from(key).wrapping_mul(SPREAD) >> self.dir_shift) as usize;
        while self.dir[slot].key != key && self.dir[slot].key != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The valid tags of the set at directory `slot`, MRU first (empty for
    /// a free entry).
    fn tags(&mut self, slot: usize) -> &mut [u32] {
        let entry = &mut self.dir[slot];
        let len = usize::from(entry.len);
        if entry.spilled {
            let base = entry.tags[0] as usize;
            &mut self.spill[base..base + len]
        } else {
            &mut entry.tags[..len]
        }
    }

    /// Looks up the line; on hit, promotes it to MRU.
    fn lookup(&mut self, addr: u64) -> Result<(), Miss> {
        let (key, tag) = self.key_and_tag(addr);
        let slot = self.slot(key);
        let tags = self.tags(slot);
        match tags.iter().position(|&t| t == tag) {
            Some(pos) => {
                tags[..=pos].rotate_right(1);
                Ok(())
            }
            None => Err(Miss { key, tag, slot }),
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
        let entry = &mut self.dir[slot];
        let len = usize::from(entry.len);
        if len == INLINE && !entry.spilled && len < self.ways {
            // The set outgrew its entry: move it to a block of its own.
            let base = self.spill.len();
            self.spill.extend_from_slice(&entry.tags);
            self.spill.resize(base + self.ways, 0);
            entry.tags[0] = u32::try_from(base).expect("spill arena overflow");
            entry.spilled = true;
        }
        if len < self.ways {
            entry.len += 1;
        }
        // The last tag (the LRU victim or a free one) takes the line, then
        // rotates to the front.
        let tags = self.tags(slot);
        let last = tags.len() - 1;
        tags[last] = miss.tag;
        tags.rotate_right(1);
    }

    /// Enters `key` in the directory, at its free `slot` unless the
    /// directory has to grow first; returns its slot.
    fn insert(&mut self, key: u32, slot: usize) -> usize {
        self.filled += 1;
        let slot = if !self.indexed() && 2 * self.filled > self.dir.len() {
            self.grow();
            self.slot(key)
        } else {
            slot
        };
        self.dir[slot].key = key;
        slot
    }

    /// Doubles the hashed directory, or makes it indexed if a doubling
    /// would reach the set count, and re-enters every filled set.
    fn grow(&mut self) {
        let doubled = 2 * self.dir.len();
        let len = if doubled as u64 >= self.sets {
            self.sets as usize
        } else {
            doubled
        };
        let old = std::mem::replace(&mut self.dir, vec![Entry::default(); len]);
        self.dir_shift -= 1;
        for entry in old.into_iter().filter(|e| e.key != 0) {
            let slot = self.slot(entry.key);
            self.dir[slot] = entry;
        }
    }

    /// Removes the line if present (invalidation).
    fn invalidate(&mut self, addr: u64) {
        let (key, tag) = self.key_and_tag(addr);
        let slot = self.slot(key);
        let tags = self.tags(slot);
        if let Some(pos) = tags.iter().position(|&t| t == tag) {
            tags[pos..].rotate_left(1);
            self.dir[slot].len -= 1;
        }
    }

    /// Host bytes the level has allocated.
    #[cfg(test)]
    fn host_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dir.capacity() * size_of::<Entry>() + self.spill.capacity() * size_of::<u32>()
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
    ///
    /// # Panics
    ///
    /// Panics if a level's set count is outside what
    /// [`MemoryParams::validate`] accepts.
    #[must_use]
    pub fn new(params: &MemoryParams) -> Self {
        let llc_total = params.llc_total();
        let ddio_ways = params.ddio_ways();
        CacheHierarchy {
            l1: CacheLevel::new(&params.l1, params.l1.ways),
            l2: CacheLevel::new(&params.l2, params.l2.ways),
            llc: CacheLevel::new(&llc_total, llc_total.ways - ddio_ways),
            ddio: CacheLevel::new(&llc_total, ddio_ways),
            l1_lat: params.l1.round_trip(),
            l2_lat: params.l2.round_trip(),
            llc_lat: llc_total.round_trip(),
            mem_lat: params.dram.read_latency
                + Duration::from_cycles(llc_total.round_trip_cycles, CORE_GHZ),
        }
    }

    /// Performs a CPU load/store to `addr`; returns where it hit and the
    /// access latency. Fills all levels on the way back (inclusive model).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is above [`MemoryParams::max_addr`].
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
    ///
    /// # Panics
    ///
    /// Panics if `addr` is above [`MemoryParams::max_addr`].
    pub fn ddio_inject(&mut self, addr: u64) -> Duration {
        self.ddio.hit_or_fill(addr);
        self.l1.invalidate(addr);
        self.l2.invalidate(addr);
        self.llc_lat
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use ddp_sim::SimRng;

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

    /// A hierarchy of `l1`, `l2` and `llc` sets of 6, 8 and 16 ways (the
    /// LLC's two of them DDIO). L1, L2 and the main LLC partition have
    /// more ways than an entry holds inline.
    fn small_hierarchy(l1: u64, l2: u64, llc: u64) -> CacheHierarchy {
        let line = |sets: u64, ways: u32, cycles: u64| CacheParams {
            capacity_bytes: sets * u64::from(ways) * 64,
            ways,
            line_bytes: 64,
            round_trip_cycles: cycles,
        };
        CacheHierarchy::new(&MemoryParams {
            cores: 1,
            l1: line(l1, 6, 2),
            l2: line(l2, 8, 12),
            llc_per_core: line(llc, 16, 38),
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

        fn lines(&mut self, addr: u64) -> Vec<u64> {
            self.set(addr).0.iter().copied().collect()
        }
    }

    /// The reference model of a whole hierarchy.
    struct RefHierarchy {
        l1: RefLevel,
        l2: RefLevel,
        llc: RefLevel,
        ddio: RefLevel,
    }

    impl RefHierarchy {
        fn like(c: &CacheHierarchy) -> Self {
            RefHierarchy {
                l1: RefLevel::like(&c.l1),
                l2: RefLevel::like(&c.l2),
                llc: RefLevel::like(&c.llc),
                ddio: RefLevel::like(&c.ddio),
            }
        }

        /// Applies one random operation on `addr` to `c` and to the model:
        /// an access (7 in 10), a DDIO inject (2 in 10) or the invalidation
        /// of one level. Checks an access's level and latency, then the MRU
        /// order of `addr`'s set at every level; returns where an access hit.
        fn step(
            &mut self,
            c: &mut CacheHierarchy,
            rng: &mut SimRng,
            addr: u64,
            step: u32,
        ) -> Option<HitLevel> {
            let mut hit = None;
            match rng.next_below(10) {
                0..=6 => {
                    let want = if self.l1.access(addr) {
                        (HitLevel::L1, c.l1_lat)
                    } else if self.l2.access(addr) {
                        self.l1.fill(addr);
                        (HitLevel::L2, c.l2_lat)
                    } else if self.llc.access(addr) || self.ddio.access(addr) {
                        self.l1.fill(addr);
                        self.l2.fill(addr);
                        (HitLevel::Llc, c.llc_lat)
                    } else {
                        self.l1.fill(addr);
                        self.l2.fill(addr);
                        self.llc.fill(addr);
                        (HitLevel::Memory, c.mem_lat)
                    };
                    assert_eq!(c.access(addr), want, "step {step}");
                    hit = Some(want.0);
                }
                7 | 8 => {
                    self.ddio.fill(addr);
                    self.l1.invalidate(addr);
                    self.l2.invalidate(addr);
                    assert_eq!(c.ddio_inject(addr), c.llc_lat);
                }
                _ => {
                    let (level, reference) = match rng.next_below(4) {
                        0 => (&mut c.l1, &mut self.l1),
                        1 => (&mut c.l2, &mut self.l2),
                        2 => (&mut c.llc, &mut self.llc),
                        _ => (&mut c.ddio, &mut self.ddio),
                    };
                    level.invalidate(addr);
                    reference.invalidate(addr);
                }
            }
            for (name, level, reference) in [
                ("L1", &mut c.l1, &mut self.l1),
                ("L2", &mut c.l2, &mut self.l2),
                ("LLC", &mut c.llc, &mut self.llc),
                ("DDIO", &mut c.ddio, &mut self.ddio),
            ] {
                let want = reference.lines(addr);
                assert_eq!(lines(level, addr), want, "{name} at step {step}");
            }
            hit
        }
    }

    /// The valid lines of `addr`'s set, MRU first.
    fn lines(level: &mut CacheLevel, addr: u64) -> Vec<u64> {
        let (key, _) = level.key_and_tag(addr);
        let (sets, set) = (level.sets, u64::from(key - 1));
        let slot = level.slot(key);
        level
            .tags(slot)
            .iter()
            .map(|&tag| u64::from(tag) * sets + set)
            .collect()
    }

    /// Sets of the level that moved to the spill arena.
    fn spilled(level: &CacheLevel) -> usize {
        level.dir.iter().filter(|e| e.spilled).count()
    }

    #[test]
    fn arena_lru_matches_vecdeque_reference() {
        // At most 8 sets per level: every directory is indexed from the
        // start.
        let mut c = small_hierarchy(4, 8, 8);
        let mut model = RefHierarchy::like(&c);
        let mut hits = [0u64; 4];
        let mut rng = SimRng::seed_from(0xCAC4E);
        for step in 0..200_000 {
            // 160 distinct lines over at most 8 sets per level.
            let addr = rng.next_below(160) * 64 + rng.next_below(64);
            if let Some(level) = model.step(&mut c, &mut rng, addr, step) {
                hits[level as usize] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h > 1_000), "mix too narrow: {hits:?}");
        for (name, level) in [("L1", &c.l1), ("L2", &c.l2), ("LLC", &c.llc)] {
            assert!(level.indexed(), "{name}");
            assert!(spilled(level) > 0, "no {name} set outgrew its entry");
        }
    }

    #[test]
    fn directory_switch_keeps_vecdeque_reference_order() {
        // 64, 128 and 256 sets: each directory starts hashed, and turns
        // indexed once a quarter to a half of its sets are filled.
        let mut c = small_hierarchy(64, 128, 256);
        let mut model = RefHierarchy::like(&c);
        let mut rng = SimRng::seed_from(0x5E75);
        // First lines of 8 sets, then of all 256 LLC sets; 20 lines per
        // LLC set, so L1, L2 and the LLC evict and spill in both phases.
        for (phase, sets) in [8, 256].into_iter().enumerate() {
            let mut hits = [0u64; 4];
            for step in 0..100_000 {
                let line = rng.next_below(sets) + 256 * rng.next_below(20);
                let addr = line * 64 + rng.next_below(64);
                if let Some(level) = model.step(&mut c, &mut rng, addr, step) {
                    hits[level as usize] += 1;
                }
            }
            assert!(hits.iter().all(|&h| h > 1_000), "mix too narrow: {hits:?}");
            for (name, level) in [("L1", &c.l1), ("L2", &c.l2), ("LLC", &c.llc)] {
                if phase == 0 {
                    assert!(!level.indexed(), "{name} indexed at {} sets", level.filled);
                    assert_eq!(spilled(level), 8, "{name}");
                } else {
                    // Every set spilled, most after the switch.
                    assert!(level.indexed(), "{name}");
                    assert_eq!(spilled(level) as u64, level.sets, "{name}");
                }
            }
            assert_eq!(c.ddio.indexed(), phase == 1);
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
    fn filled_sets_cost_at_most_four_entries_each_in_either_directory() {
        let mut seen = [false; 2];
        for k in [1usize, 10, 100, 1_000] {
            let mut c = hierarchy();
            // Lines 0..k, each accessed three times and injected once, land
            // in k distinct LLC sets and in up to 128 and 1,024 of L1's and
            // L2's.
            for round in 0..3 {
                for line in 0..k as u64 {
                    c.access(line * 64 + round);
                }
            }
            assert_eq!(c.ddio.filled, 0, "CPU accesses never fill DDIO ways");
            for line in 0..k as u64 {
                c.ddio_inject(line * 64);
            }
            for level in [&c.l1, &c.l2, &c.llc, &c.ddio] {
                let sets = level.sets as usize;
                let filled = k.min(sets);
                assert_eq!(level.filled, filled);
                // A hashed directory is at most half full and doubles; it
                // turns indexed when a doubling would reach `sets`, so past
                // the first 16 entries it costs at most four 16-byte
                // entries per filled set either way.
                if level.indexed() {
                    assert!(4 * filled > sets, "indexed at {filled} of {sets}");
                } else {
                    assert!(2 * filled <= level.dir.len() && level.dir.len() < sets);
                }
                assert!(level.dir.len() <= (4 * filled).max(FIRST_DIRECTORY));
                seen[usize::from(level.indexed())] = true;
                // Only a set that held more than two lines takes a block of
                // `ways` tags.
                let spills = (0..filled)
                    .filter(|&s| level.ways > INLINE && (k - s).div_ceil(sets) > INLINE)
                    .count();
                assert_eq!(spilled(level), spills, "{k} lines over {sets} sets");
                assert_eq!(level.spill.len(), spills * level.ways);
            }
        }
        assert_eq!(seen, [true, true], "both directory regimes");
    }

    #[test]
    fn spilled_set_keeps_lru_order() {
        let mut c = hierarchy();
        // L1 has 128 sets of 8 ways; lines 128 apart share set 0.
        let l1 = &mut c.l1;
        let addr = |i: u64| i * 128 * 64;
        let set0 = |l1: &mut CacheLevel| -> Vec<u64> {
            lines(l1, 0).into_iter().map(|line| line / 128).collect()
        };
        for i in 0..2 {
            l1.hit_or_fill(addr(i));
        }
        assert_eq!(set0(l1), [1, 0]);
        assert!(l1.spill.is_empty(), "two tags fit inline");
        for i in 2..6 {
            l1.hit_or_fill(addr(i));
        }
        assert_eq!(set0(l1), [5, 4, 3, 2, 1, 0]);
        assert_eq!(l1.spill.len(), l1.ways, "moved once, to a block of 8");
        for i in [4, 0, 2, 5] {
            l1.invalidate(addr(i));
        }
        assert_eq!(set0(l1), [3, 1]);
        assert!(l1.hit_or_fill(addr(1)), "promoted, not refilled");
        for i in 6..13 {
            l1.hit_or_fill(addr(i));
        }
        assert_eq!(set0(l1), [12, 11, 10, 9, 8, 7, 6, 1], "3 evicted as LRU");
        assert_eq!(l1.spill.len(), l1.ways, "a shrunk set keeps its block");
        // The next set to outgrow its entry takes a block of its own.
        for i in 0..3 {
            l1.hit_or_fill(64 + addr(i));
        }
        assert_eq!(l1.spill.len(), 2 * l1.ways);
        assert_eq!(spilled(l1), 2);
    }
}
