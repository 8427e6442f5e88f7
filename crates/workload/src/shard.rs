//! Key→shard placement for a fleet of replica groups.
//!
//! A sharded deployment partitions the key space over `S` independent
//! replica groups ("shards"); every key has exactly one *home shard* that
//! serves and persists it. This module holds the placement function and
//! the derived per-shard popularity math:
//!
//! * [`Placement::Hash`] — key `k` homes on `k mod S`. Spreads any
//!   contiguous popularity structure evenly; the default.
//! * [`Placement::Range`] — the key space splits into `S` contiguous
//!   ranges of (near-)equal width. Mirrors range-partitioned stores and
//!   concentrates contiguous hot ranges onto single shards.
//!
//! [`ShardRouter`] is pure arithmetic over `(placement, shards,
//! key_space)` — no state, no RNG — so routing is trivially deterministic
//! and every component (workload generation, client routing, stats)
//! recomputes identical homes from the same config.

use crate::zipf::KeyChooser;
use ddp_sim::SimRng;

/// How keys map to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// `home(k) = k mod shards` — modulo hashing.
    Hash,
    /// `home(k) = floor(k * shards / key_space)` — contiguous ranges of
    /// near-equal width.
    Range,
}

impl Placement {
    /// Short lowercase name for labels and CLI axes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Placement::Hash => "hash",
            Placement::Range => "range",
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of deterministic Zipfian draws used to estimate per-shard
/// popularity mass (see [`ShardRouter::popularity_mass`]).
const MASS_SAMPLES: u64 = 16_384;

/// Fixed seed for the mass-estimation sampler, deliberately independent of
/// any run seed: popularity mass is a property of `(workload, placement,
/// shards)`, not of a particular run.
const MASS_SEED: u64 = 0x5AAD_ED00_0000_0001;

/// The key→shard placement function for one fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    placement: Placement,
    shards: u16,
    key_space: u64,
}

impl ShardRouter {
    /// Builds a router over `key_space` keys split across `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `key_space < shards` (some shard
    /// would own no keys). Fleet-level config validation reports these as
    /// errors before any router is built.
    #[must_use]
    pub fn new(placement: Placement, shards: u16, key_space: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            key_space >= u64::from(shards),
            "key space {key_space} smaller than shard count {shards}"
        );
        ShardRouter {
            placement,
            shards,
            key_space,
        }
    }

    /// The placement function.
    #[must_use]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Total number of distinct keys across the fleet.
    #[must_use]
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// The home shard of `key`.
    #[must_use]
    pub fn home(&self, key: u64) -> u16 {
        let s = u64::from(self.shards);
        match self.placement {
            Placement::Hash => (key % s) as u16,
            // u128 keeps key * shards exact for any u64 key space.
            Placement::Range => {
                (u128::from(key) * u128::from(s) / u128::from(self.key_space)) as u16
            }
        }
    }

    /// First key of `shard`'s contiguous range (Range placement).
    fn range_start(&self, shard: u16) -> u64 {
        let s = u128::from(self.shards);
        let k = u128::from(self.key_space);
        // ceil(shard * K / S): the smallest key with home == shard.
        (u128::from(shard) * k).div_ceil(s) as u64
    }

    /// Number of distinct keys homed on `shard`.
    #[must_use]
    pub fn shard_key_space(&self, shard: u16) -> u64 {
        assert!(shard < self.shards, "shard {shard} out of range");
        match self.placement {
            Placement::Hash => {
                let s = u64::from(self.shards);
                self.key_space / s + u64::from(self.key_space % s > u64::from(shard))
            }
            Placement::Range => {
                let next = if shard + 1 == self.shards {
                    self.key_space
                } else {
                    self.range_start(shard + 1)
                };
                next - self.range_start(shard)
            }
        }
    }

    /// The fraction of the workload's key draws that home on each shard.
    ///
    /// Exact for a uniform chooser (each shard's share of the key space).
    /// For a Zipfian chooser the mass comes from `MASS_SAMPLES`
    /// deterministic draws with a fixed internal seed, so the estimate is
    /// a pure function of `(chooser, placement, shards)` — identical on
    /// every run and at any thread count. The returned vector sums to 1.
    #[must_use]
    pub fn popularity_mass(&self, chooser: &KeyChooser) -> Vec<f64> {
        assert_eq!(
            chooser.key_space(),
            self.key_space,
            "chooser key space must match the router's"
        );
        match chooser {
            KeyChooser::Uniform { .. } => (0..self.shards)
                .map(|s| self.shard_key_space(s) as f64 / self.key_space as f64)
                .collect(),
            KeyChooser::Zipfian(_) => {
                let mut rng = SimRng::seed_from(MASS_SEED);
                let mut counts = vec![0u64; usize::from(self.shards)];
                for _ in 0..MASS_SAMPLES {
                    let key = chooser.sample(&mut rng);
                    counts[usize::from(self.home(key))] += 1;
                }
                counts
                    .into_iter()
                    .map(|c| c as f64 / MASS_SAMPLES as f64)
                    .collect()
            }
        }
    }
}

/// One shard's view of a sharded workload: the fleet's placement plus the
/// identity of the shard this stream generates for. Attached to a
/// [`crate::WorkloadSpec`] via `with_shard`, it restricts the stream to
/// keys homed on `shard` (rejection-sampling the global popularity
/// distribution, so each shard receives exactly its popularity share) and
/// counts the transaction groups that would have spanned shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSlice {
    /// The fleet-wide placement function.
    pub router: ShardRouter,
    /// The shard this stream belongs to.
    pub shard: u16,
    /// Requests per transactional group (1 = ungrouped). A group whose
    /// non-anchor keys would naturally home elsewhere is counted as a
    /// rejected cross-shard group and re-homed by redrawing those keys.
    pub group: u32,
}

impl ShardSlice {
    /// Builds a slice for `shard` of `router` with ungrouped requests.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn new(router: ShardRouter, shard: u16) -> Self {
        assert!(shard < router.shards(), "shard {shard} out of range");
        ShardSlice {
            router,
            shard,
            group: 1,
        }
    }

    /// Sets the transactional group size (requests per group).
    ///
    /// # Panics
    ///
    /// Panics if `group` is zero.
    #[must_use]
    pub fn with_group(mut self, group: u32) -> Self {
        assert!(group > 0, "group size must be positive");
        self.group = group;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::Zipfian;

    #[test]
    fn hash_placement_partitions_every_key() {
        let r = ShardRouter::new(Placement::Hash, 4, 100);
        for key in 0..100 {
            assert_eq!(r.home(key), (key % 4) as u16);
        }
        let total: u64 = (0..4).map(|s| r.shard_key_space(s)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn range_placement_is_contiguous_and_complete() {
        // K=10, S=3: ranges [0,4), [4,7), [7,10).
        let r = ShardRouter::new(Placement::Range, 3, 10);
        let homes: Vec<u16> = (0..10).map(|k| r.home(k)).collect();
        assert_eq!(homes, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(r.shard_key_space(0), 4);
        assert_eq!(r.shard_key_space(1), 3);
        assert_eq!(r.shard_key_space(2), 3);
    }

    #[test]
    fn shard_key_space_counts_match_homes() {
        for placement in [Placement::Hash, Placement::Range] {
            for shards in [1u16, 2, 3, 7, 8] {
                let r = ShardRouter::new(placement, shards, 1_000);
                let mut counts = vec![0u64; usize::from(shards)];
                for key in 0..1_000 {
                    counts[usize::from(r.home(key))] += 1;
                }
                for s in 0..shards {
                    assert_eq!(
                        counts[usize::from(s)],
                        r.shard_key_space(s),
                        "{placement:?} shards={shards} shard={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let r = ShardRouter::new(Placement::Hash, 1, 50);
        assert!((0..50).all(|k| r.home(k) == 0));
        assert_eq!(r.shard_key_space(0), 50);
        let mass = r.popularity_mass(&KeyChooser::Uniform { n: 50 });
        assert_eq!(mass, vec![1.0]);
    }

    #[test]
    fn uniform_mass_is_exact_and_sums_to_one() {
        let r = ShardRouter::new(Placement::Hash, 3, 10);
        let mass = r.popularity_mass(&KeyChooser::Uniform { n: 10 });
        assert_eq!(mass, vec![0.4, 0.3, 0.3]);
    }

    #[test]
    fn zipfian_mass_is_deterministic_and_skewed() {
        let chooser = KeyChooser::Zipfian(Zipfian::new(100_000, 0.99));
        let r = ShardRouter::new(Placement::Hash, 4, 100_000);
        let a = r.popularity_mass(&chooser);
        let b = r.popularity_mass(&chooser);
        assert_eq!(a, b, "mass must be a pure function of the config");
        let sum: f64 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Scrambled-Zipfian hot keys land on arbitrary shards, so shares
        // must differ measurably (the hottest key alone is ~13 % of draws).
        let max = a.iter().cloned().fold(0.0f64, f64::max);
        let min = a.iter().cloned().fold(1.0f64, f64::min);
        assert!(max - min > 0.02, "expected visible skew, got {a:?}");
    }

    #[test]
    #[should_panic(expected = "smaller than shard count")]
    fn tiny_key_space_rejected() {
        let _ = ShardRouter::new(Placement::Hash, 8, 4);
    }
}
