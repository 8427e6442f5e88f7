//! Zipfian key-choice distribution, as used by YCSB.
//!
//! Implements the bounded Zipfian generator of Gray et al. ("Quickly
//! generating billion-record synthetic databases"), the same algorithm YCSB
//! uses: draws from `[0, n)` where item rank `i` has probability
//! proportional to `1 / (i+1)^theta`.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use ddp_sim::SimRng;

/// YCSB's default skew constant.
pub const YCSB_THETA: f64 = 0.99;

/// Every `zeta(n, theta)` this process has summed, keyed by
/// `(n, theta.to_bits())`. An entry holds exactly what `Zipfian::zeta`
/// returned, so a hit gives the same bits as a fresh sum. Nothing is
/// evicted: an entry is a few dozen bytes, and only an O(n) sum adds one.
static ZETA_N: Mutex<BTreeMap<(u64, u64), f64>> = Mutex::new(BTreeMap::new());

/// A bounded Zipfian distribution over `[0, n)`.
///
/// # Examples
///
/// ```
/// use ddp_sim::SimRng;
/// use ddp_workload::Zipfian;
///
/// let mut rng = SimRng::seed_from(1);
/// let zipf = Zipfian::new(1000, 0.99);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Creates a distribution over `[0, n)` with skew `theta` in `[0, 1)`.
    ///
    /// `theta = 0` degenerates to uniform; YCSB uses
    /// [`YCSB_THETA`]` = 0.99`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `[0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        Self::with_zeta_n(n, theta, Self::zeta_n(n, theta))
    }

    /// The distribution over `[0, n)` whose normaliser is `zeta_n`.
    fn with_zeta_n(n: u64, theta: f64, zeta_n: f64) -> Self {
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
            zeta2,
        }
    }

    /// `zeta(n, theta)`, summed once per process: every later
    /// client pool, stream and shard over the same key space and skew
    /// reads the stored value instead of repeating the O(n) sum. The lock
    /// is not held while summing, so two threads that miss together both
    /// sum and store the same bits.
    fn zeta_n(n: u64, theta: f64) -> f64 {
        let key = (n, theta.to_bits());
        let hit = ZETA_N
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        hit.unwrap_or_else(|| {
            let zeta_n = Self::zeta(n, theta);
            ZETA_N
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(key, zeta_n);
            zeta_n
        })
    }

    /// Harmonic-like normalizer `zeta(n, theta) = sum_{i=1..n} 1/i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact up to a cutoff, then the Euler-Maclaurin integral
        // approximation; keeps construction O(1)-ish for huge key spaces.
        const EXACT: u64 = 1_000_000;
        if n <= EXACT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail =
                ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Number of distinct items.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The zeta(2, theta) constant, exposed for testing.
    #[must_use]
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// How a workload chooses keys.
#[derive(Clone, Debug)]
pub enum KeyChooser {
    /// Every key equally likely.
    Uniform {
        /// Number of keys.
        n: u64,
    },
    /// Zipf-skewed popularity (YCSB default).
    Zipfian(Zipfian),
}

impl KeyChooser {
    /// Draws a key in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            KeyChooser::Uniform { n } => rng.next_below(*n),
            KeyChooser::Zipfian(z) => {
                // Scramble the rank so popular keys spread over the key
                // space, as YCSB's ScrambledZipfian does.
                let rank = z.sample(rng);
                (rank + 1).wrapping_mul(0xC6A4_A793_5BD1_E995) % z.n()
            }
        }
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn key_space(&self) -> u64 {
        match self {
            KeyChooser::Uniform { n } => *n,
            KeyChooser::Zipfian(z) => z.n(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipfian::new(1_000, 0.99);
        let mut rng = SimRng::seed_from(11);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 must dominate");
        // With theta=0.99 over 1000 items, rank 0 gets roughly
        // 1/zeta(1000, .99) ~ 13% of draws.
        assert!(counts[0] > 80_000 / 10, "rank 0 too rare: {}", counts[0]);
    }

    #[test]
    fn skew_monotonically_decreases_over_ranks() {
        let z = Zipfian::new(50, 0.9);
        let mut rng = SimRng::seed_from(13);
        let mut counts = [0u32; 50];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Compare coarse buckets rather than individual ranks (noise).
        let head: u32 = counts[..5].iter().sum();
        let mid: u32 = counts[5..20].iter().sum();
        let tail: u32 = counts[20..].iter().sum();
        assert!(head > mid, "head {head} not above mid {mid}");
        assert!(mid > tail, "mid {mid} not above tail {tail}");
    }

    #[test]
    fn low_theta_approaches_uniform() {
        let z = Zipfian::new(10, 0.01);
        let mut rng = SimRng::seed_from(17);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max / min < 1.6,
            "theta~0 should be near-uniform: {counts:?}"
        );
    }

    #[test]
    fn zeta_large_n_is_finite_and_increasing() {
        let small = Zipfian::new(1_000, 0.99);
        let large = Zipfian::new(100_000_000, 0.99);
        assert!(large.zeta_n.is_finite());
        assert!(large.zeta_n > small.zeta_n);
    }

    #[test]
    fn memoized_normaliser_matches_the_direct_sum() {
        // 1,000 keys at two skews tells the skews apart; 99,991 keys is
        // built by no other test, so its first build sums; 1,000,001 takes
        // the head-plus-tail branch.
        for (n, theta) in [
            (1, 0.99),
            (2, 0.99),
            (1_000, 0.0),
            (1_000, 0.5),
            (99_991, 0.99),
            (1_000_001, 0.99),
        ] {
            let direct = Zipfian::with_zeta_n(n, theta, Zipfian::zeta(n, theta));
            for build in 0..2 {
                let z = Zipfian::new(n, theta);
                for (field, got, want) in [
                    ("zeta_n", z.zeta_n, direct.zeta_n),
                    ("eta", z.eta, direct.eta),
                    ("alpha", z.alpha, direct.alpha),
                    ("zeta2", z.zeta2, direct.zeta2),
                ] {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "({n}, {theta}) build {build}: {field} {got} != {want}"
                    );
                }
                let (mut a, mut b) = (SimRng::seed_from(29), SimRng::seed_from(29));
                for draw in 0..1_000 {
                    assert_eq!(
                        z.sample(&mut a),
                        direct.sample(&mut b),
                        "({n}, {theta}) build {build}: draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_chooser_covers_space() {
        let c = KeyChooser::Uniform { n: 16 };
        let mut rng = SimRng::seed_from(19);
        let mut seen = [false; 16];
        for _ in 0..1_000 {
            seen[c.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let c = KeyChooser::Zipfian(Zipfian::new(1_000, 0.99));
        let mut rng = SimRng::seed_from(23);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..50_000 {
            counts[c.sample(&mut rng) as usize] += 1;
        }
        // The hottest key should not be key 0 (scrambling moved it).
        let hottest = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap();
        assert_ne!(hottest, 0);
    }

    #[test]
    #[should_panic(expected = "theta must be in [0, 1)")]
    fn theta_one_rejected() {
        let _ = Zipfian::new(10, 1.0);
    }
}
