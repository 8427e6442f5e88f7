//! YCSB-style workload specifications and request streams.

use ddp_sim::SimRng;

use crate::shard::ShardSlice;
use crate::zipf::{KeyChooser, Zipfian, YCSB_THETA};

/// The kind of client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read one key.
    Read,
    /// Write (update) one key.
    Write,
}

/// One client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The key accessed.
    pub key: u64,
    /// Read or write.
    pub op: OpKind,
    /// Payload size in bytes (writes carry this much data).
    pub value_bytes: u32,
}

/// A workload specification: operation mix, key popularity, value size.
///
/// # Examples
///
/// ```
/// use ddp_workload::WorkloadSpec;
///
/// let a = WorkloadSpec::ycsb_a();
/// assert!((a.read_ratio - 0.5).abs() < 1e-12);
/// let stream = a.stream(42);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Human-readable name ("YCSB-A", ...).
    pub name: &'static str,
    /// Fraction of requests that are reads, in `[0, 1]`.
    pub read_ratio: f64,
    /// Number of distinct keys.
    pub key_space: u64,
    /// Zipf skew (`None` = uniform key choice).
    pub zipf_theta: Option<f64>,
    /// Bytes carried by each write.
    pub value_bytes: u32,
    /// Restrict the stream to one shard of a fleet (`None` = the whole
    /// key space, the single-cluster default).
    pub shard: Option<ShardSlice>,
}

/// Default number of keys (YCSB's default record count).
pub const DEFAULT_KEY_SPACE: u64 = 100_000;
/// Default value payload: a small record, as in the paper's KV stores.
pub const DEFAULT_VALUE_BYTES: u32 = 256;

impl WorkloadSpec {
    /// YCSB workload A: 50 % reads, 50 % writes (the paper's default).
    #[must_use]
    pub fn ycsb_a() -> Self {
        WorkloadSpec {
            name: "YCSB-A",
            read_ratio: 0.5,
            key_space: DEFAULT_KEY_SPACE,
            zipf_theta: Some(YCSB_THETA),
            value_bytes: DEFAULT_VALUE_BYTES,
            shard: None,
        }
    }

    /// YCSB workload B: 95 % reads, 5 % writes.
    #[must_use]
    pub fn ycsb_b() -> Self {
        WorkloadSpec {
            name: "YCSB-B",
            read_ratio: 0.95,
            ..Self::ycsb_a()
        }
    }

    /// YCSB workload C: 100 % reads.
    #[must_use]
    pub fn ycsb_c() -> Self {
        WorkloadSpec {
            name: "YCSB-C",
            read_ratio: 1.0,
            ..Self::ycsb_a()
        }
    }

    /// The paper's "workload-W": 5 % reads, 95 % writes (§8.2, Figure 9).
    #[must_use]
    pub fn workload_w() -> Self {
        WorkloadSpec {
            name: "workload-W",
            read_ratio: 0.05,
            ..Self::ycsb_a()
        }
    }

    /// Overrides the key-space size.
    #[must_use]
    pub fn with_key_space(mut self, keys: u64) -> Self {
        self.key_space = keys;
        self
    }

    /// Overrides the value size.
    #[must_use]
    pub fn with_value_bytes(mut self, bytes: u32) -> Self {
        self.value_bytes = bytes;
        self
    }

    /// Restricts the workload to one shard of a fleet. The stream then
    /// draws from the *global* popularity distribution but emits only keys
    /// homed on the slice's shard (see [`ShardSlice`]).
    ///
    /// # Panics
    ///
    /// Panics if the slice's router covers a different key space.
    #[must_use]
    pub fn with_shard(mut self, slice: ShardSlice) -> Self {
        assert_eq!(
            slice.router.key_space(),
            self.key_space,
            "shard router key space must match the workload's"
        );
        self.shard = Some(slice);
        self
    }

    /// Validates the specification: a key space of 1 to `max_key_space`
    /// keys (as many as the caller can place; for a cluster, what its
    /// memory system can address), a read ratio in `[0, 1]`, and a Zipf
    /// skew in `[0, 1)` (what [`Zipfian::new`] accepts).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self, max_key_space: u64) -> Result<(), String> {
        if !(1..=max_key_space).contains(&self.key_space) {
            return Err(format!(
                "key_space must be within 1..={max_key_space}, got {}",
                self.key_space
            ));
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(format!(
                "read_ratio must be in [0, 1], got {}",
                self.read_ratio
            ));
        }
        if let Some(theta) = self.zipf_theta {
            if !(0.0..1.0).contains(&theta) {
                return Err(format!("zipf_theta must be in [0, 1), got {theta}"));
            }
        }
        Ok(())
    }

    /// Builds the key chooser this workload draws from. A Zipfian chooser
    /// costs an O(`key_space`) normaliser sum the first time the process
    /// builds one over this key space and skew, and a table lookup and a
    /// few `powf`s after that, so a client pool builds it once and shares
    /// clones across its streams.
    #[must_use]
    pub fn key_chooser(&self) -> KeyChooser {
        match self.zipf_theta {
            Some(theta) => KeyChooser::Zipfian(Zipfian::new(self.key_space, theta)),
            None => KeyChooser::Uniform { n: self.key_space },
        }
    }

    /// Builds an endless request stream seeded with `seed`.
    #[must_use]
    pub fn stream(&self, seed: u64) -> RequestStream {
        self.stream_with(self.key_chooser(), seed)
    }

    /// Builds an endless request stream seeded with `seed` that draws keys
    /// from `chooser`, which must be this workload's
    /// [`WorkloadSpec::key_chooser`].
    #[must_use]
    pub(crate) fn stream_with(&self, chooser: KeyChooser, seed: u64) -> RequestStream {
        debug_assert_eq!(chooser.key_space(), self.key_space);
        RequestStream {
            rng: SimRng::seed_from(seed),
            chooser,
            read_ratio: self.read_ratio,
            value_bytes: self.value_bytes,
            produced: 0,
            shard: self.shard.map(ShardState::new),
        }
    }
}

/// Sharded-stream state: which keys this stream may emit, where it is in
/// the current transactional group, and how many groups would have
/// spanned shards.
#[derive(Clone, Debug)]
struct ShardState {
    slice: ShardSlice,
    /// Position within the current group (0 = next draw is the anchor).
    in_group: u32,
    /// Whether any non-anchor draw of the current group was off-shard.
    group_crossed: bool,
    /// Completed groups with at least one off-shard first draw.
    cross_shard: u64,
}

impl ShardState {
    fn new(slice: ShardSlice) -> Self {
        ShardState {
            slice,
            in_group: 0,
            group_crossed: false,
            cross_shard: 0,
        }
    }

    /// Draws the next on-shard key.
    ///
    /// The group's *anchor* (first key) is rejection-sampled until it
    /// homes locally — that is how the shard receives exactly its
    /// popularity share of the traffic. Later keys in the group are also
    /// re-homed by redrawing, but an off-shard first draw marks the whole
    /// group as a rejected cross-shard group (the counter the fleet
    /// reports).
    fn next_key(&mut self, chooser: &KeyChooser, rng: &mut SimRng) -> u64 {
        let router = self.slice.router;
        let anchor = self.in_group == 0;
        let mut key = chooser.sample(rng);
        if !anchor && router.home(key) != self.slice.shard {
            self.group_crossed = true;
        }
        while router.home(key) != self.slice.shard {
            key = chooser.sample(rng);
        }
        self.in_group += 1;
        if self.in_group >= self.slice.group {
            self.cross_shard += u64::from(self.group_crossed);
            self.in_group = 0;
            self.group_crossed = false;
        }
        key
    }
}

/// An endless, deterministic stream of [`Request`]s.
#[derive(Clone, Debug)]
pub struct RequestStream {
    rng: SimRng,
    chooser: KeyChooser,
    read_ratio: f64,
    value_bytes: u32,
    produced: u64,
    shard: Option<ShardState>,
}

impl RequestStream {
    /// Produces the next request.
    pub fn next_request(&mut self) -> Request {
        let op = if self.rng.chance(self.read_ratio) {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let key = match self.shard.as_mut() {
            None => self.chooser.sample(&mut self.rng),
            Some(state) => state.next_key(&self.chooser, &mut self.rng),
        };
        self.produced += 1;
        Request {
            key,
            op,
            value_bytes: self.value_bytes,
        }
    }

    /// Number of requests produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Completed transaction groups whose natural key set spanned shards
    /// (rejected and re-homed; see [`ShardSlice`]). Always zero for an
    /// unsharded stream.
    #[must_use]
    pub fn cross_shard_groups(&self) -> u64 {
        self.shard.as_ref().map_or(0, |s| s.cross_shard)
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure_read_fraction(spec: &WorkloadSpec, n: usize) -> f64 {
        let mut stream = spec.stream(99);
        let reads = stream
            .by_ref()
            .take(n)
            .filter(|r| r.op == OpKind::Read)
            .count();
        reads as f64 / n as f64
    }

    #[test]
    fn mixes_match_specs() {
        assert!((measure_read_fraction(&WorkloadSpec::ycsb_a(), 50_000) - 0.50).abs() < 0.01);
        assert!((measure_read_fraction(&WorkloadSpec::ycsb_b(), 50_000) - 0.95).abs() < 0.01);
        assert!((measure_read_fraction(&WorkloadSpec::workload_w(), 50_000) - 0.05).abs() < 0.01);
        assert!((measure_read_fraction(&WorkloadSpec::ycsb_c(), 10_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn keys_stay_in_space() {
        let spec = WorkloadSpec::ycsb_a().with_key_space(128);
        let mut stream = spec.stream(1);
        for _ in 0..10_000 {
            assert!(stream.next_request().key < 128);
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let spec = WorkloadSpec::ycsb_a();
        let a: Vec<Request> = spec.stream(5).take(100).collect();
        let b: Vec<Request> = spec.stream(5).take(100).collect();
        let c: Vec<Request> = spec.stream(6).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipfian_stream_is_skewed() {
        let spec = WorkloadSpec::ycsb_a().with_key_space(1_000);
        let mut stream = spec.stream(3);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..100_000 {
            counts[stream.next_request().key as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        assert!(
            top10 > 30_000,
            "top-10 keys got only {top10} of 100k draws — not Zipfian"
        );
    }

    #[test]
    fn uniform_override_works() {
        let spec = WorkloadSpec {
            zipf_theta: None,
            ..WorkloadSpec::ycsb_a().with_key_space(100)
        };
        let mut stream = spec.stream(4);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[stream.next_request().key as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "uniform stream too skewed");
    }

    #[test]
    fn value_bytes_flow_through() {
        let spec = WorkloadSpec::ycsb_a().with_value_bytes(1024);
        let mut stream = spec.stream(8);
        assert_eq!(stream.next_request().value_bytes, 1024);
    }

    #[test]
    fn produced_counts() {
        let mut stream = WorkloadSpec::ycsb_a().stream(9);
        for _ in 0..7 {
            stream.next_request();
        }
        assert_eq!(stream.produced(), 7);
    }

    #[test]
    fn sharded_stream_emits_only_home_keys() {
        use crate::shard::{Placement, ShardRouter, ShardSlice};
        let router = ShardRouter::new(Placement::Hash, 4, DEFAULT_KEY_SPACE);
        for shard in 0..4 {
            let spec = WorkloadSpec::ycsb_a().with_shard(ShardSlice::new(router, shard));
            let mut stream = spec.stream(7);
            for _ in 0..5_000 {
                assert_eq!(router.home(stream.next_request().key), shard);
            }
            assert_eq!(stream.cross_shard_groups(), 0, "ungrouped never crosses");
        }
    }

    #[test]
    fn grouped_sharded_stream_counts_cross_shard_groups() {
        use crate::shard::{Placement, ShardRouter, ShardSlice};
        let router = ShardRouter::new(Placement::Hash, 4, DEFAULT_KEY_SPACE);
        let slice = ShardSlice::new(router, 1).with_group(5);
        let spec = WorkloadSpec::ycsb_a().with_shard(slice);
        let mut stream = spec.stream(11);
        let groups = 2_000;
        for _ in 0..groups * 5 {
            assert_eq!(router.home(stream.next_request().key), 1);
        }
        // With 4 shards, P(all 4 non-anchor keys home locally) ~ (1/4)^4,
        // so nearly every group is counted as cross-shard.
        let crossed = stream.cross_shard_groups();
        assert!(
            crossed > groups * 9 / 10 && crossed <= groups,
            "implausible cross-shard count {crossed} of {groups}"
        );
    }

    #[test]
    fn sharded_stream_keeps_the_read_mix() {
        use crate::shard::{Placement, ShardRouter, ShardSlice};
        let router = ShardRouter::new(Placement::Range, 8, DEFAULT_KEY_SPACE);
        let spec = WorkloadSpec::ycsb_b().with_shard(ShardSlice::new(router, 3));
        let mut stream = spec.stream(13);
        let n = 20_000;
        let reads = (0..n)
            .filter(|_| stream.next_request().op == OpKind::Read)
            .count();
        let frac = reads as f64 / f64::from(n);
        assert!((frac - 0.95).abs() < 0.01, "read fraction {frac}");
    }
}
