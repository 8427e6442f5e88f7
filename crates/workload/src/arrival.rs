//! Open-loop arrival processes.
//!
//! Closed-loop clients (the paper's setup) cannot overload the system:
//! each client waits for its previous request before issuing the next, so
//! offered load is capped by the client count. Production traffic is an
//! *arrival rate* — requests arrive whether or not earlier ones finished.
//! This module provides the deterministic arrival-time generators for that
//! mode: a memoryless [`ArrivalProcess::Poisson`] stream and a two-state
//! Markov-modulated Poisson process ([`ArrivalProcess::Mmpp`]) for bursty
//! traffic.
//!
//! All sampling runs on [`SimRng`], so a seeded generator replays the same
//! arrival sequence bit-for-bit.

use ddp_sim::{Duration, SimRng};

/// Nanoseconds per second, as used by the rate conversions below.
const NS_PER_SEC: f64 = 1e9;

/// An open-loop arrival process: how request inter-arrival times are
/// distributed.
///
/// # Examples
///
/// ```
/// use ddp_workload::{ArrivalGen, ArrivalProcess};
///
/// let mut gen = ArrivalGen::new(ArrivalProcess::poisson(1_000_000.0), 42);
/// let gap = gen.next_interarrival();
/// assert!(gap.as_nanos() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (requests per second):
    /// exponential inter-arrival times.
    Poisson {
        /// Mean arrival rate in requests per simulated second.
        rate_per_sec: f64,
    },
    /// A two-state Markov-modulated Poisson process: the stream alternates
    /// between a low-rate and a high-rate Poisson phase, dwelling an
    /// exponentially-distributed time in each. Models bursty traffic whose
    /// long-run mean is `(low + high) / 2` when dwell times are equal.
    Mmpp {
        /// Arrival rate of the quiet phase, requests per second.
        low_per_sec: f64,
        /// Arrival rate of the burst phase, requests per second.
        high_per_sec: f64,
        /// Mean dwell time in each phase.
        mean_dwell: Duration,
    },
}

impl ArrivalProcess {
    /// A Poisson process at `rate_per_sec` requests per second.
    #[must_use]
    pub fn poisson(rate_per_sec: f64) -> Self {
        ArrivalProcess::Poisson { rate_per_sec }
    }

    /// An MMPP whose long-run mean rate is `mean_per_sec`, bursting to
    /// `burst_ratio` times the quiet rate (`burst_ratio >= 1`), with equal
    /// mean dwell in both phases.
    #[must_use]
    pub fn bursty(mean_per_sec: f64, burst_ratio: f64, mean_dwell: Duration) -> Self {
        // Equal dwell: mean = (low + high)/2 = low (1 + r) / 2.
        let low = 2.0 * mean_per_sec / (1.0 + burst_ratio);
        ArrivalProcess::Mmpp {
            low_per_sec: low,
            high_per_sec: low * burst_ratio,
            mean_dwell,
        }
    }

    /// The long-run mean arrival rate in requests per second.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Mmpp {
                low_per_sec,
                high_per_sec,
                ..
            } => (low_per_sec + high_per_sec) / 2.0,
        }
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
                    return Err(format!("Poisson rate must be positive, got {rate_per_sec}"));
                }
            }
            ArrivalProcess::Mmpp {
                low_per_sec,
                high_per_sec,
                mean_dwell,
            } => {
                for (name, r) in [("low", low_per_sec), ("high", high_per_sec)] {
                    if !(r.is_finite() && r > 0.0) {
                        return Err(format!("MMPP {name} rate must be positive, got {r}"));
                    }
                }
                if high_per_sec < low_per_sec {
                    return Err("MMPP high rate must be >= low rate".into());
                }
                if mean_dwell == Duration::ZERO {
                    return Err("MMPP mean dwell must be positive".into());
                }
            }
        }
        Ok(())
    }
}

/// A seeded, deterministic stream of inter-arrival times for one
/// [`ArrivalProcess`].
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SimRng,
    /// MMPP phase: `true` while in the high-rate burst phase.
    bursting: bool,
    /// Nanoseconds left in the current MMPP phase.
    dwell_left_ns: u64,
    produced: u64,
}

impl ArrivalGen {
    /// Builds a generator for `process`, seeded with `seed`.
    #[must_use]
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed ^ 0x0A2E_1007_ED10_AD5E);
        let dwell_left_ns = match process {
            ArrivalProcess::Poisson { .. } => 0,
            ArrivalProcess::Mmpp { mean_dwell, .. } => {
                exponential_ns(&mut rng, NS_PER_SEC / mean_dwell.as_nanos() as f64)
            }
        };
        ArrivalGen {
            process,
            rng,
            bursting: false,
            dwell_left_ns,
            produced: 0,
        }
    }

    /// Inter-arrival times produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Draws the gap between the previous arrival and the next one.
    /// Always at least one nanosecond, so arrival chains advance time.
    pub fn next_interarrival(&mut self) -> Duration {
        self.produced += 1;
        let gap_ns = match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => exponential_ns(&mut self.rng, rate_per_sec),
            ArrivalProcess::Mmpp {
                low_per_sec,
                high_per_sec,
                mean_dwell,
            } => {
                let rate = if self.bursting {
                    high_per_sec
                } else {
                    low_per_sec
                };
                let gap = exponential_ns(&mut self.rng, rate);
                // Consume phase dwell; flip phases that expired under the
                // gap (the gap itself is kept — a per-arrival-resolution
                // modulation, which is what the sweep observes anyway).
                let mut remaining = gap;
                while remaining >= self.dwell_left_ns {
                    remaining -= self.dwell_left_ns;
                    self.bursting = !self.bursting;
                    self.dwell_left_ns =
                        exponential_ns(&mut self.rng, NS_PER_SEC / mean_dwell.as_nanos() as f64);
                }
                self.dwell_left_ns -= remaining;
                gap
            }
        };
        Duration::from_nanos(gap_ns.max(1))
    }
}

/// One exponential sample with mean `1/rate_per_sec` seconds, in whole
/// nanoseconds (inverse-transform sampling).
fn exponential_ns(rng: &mut SimRng, rate_per_sec: f64) -> u64 {
    // `next_f64` is in [0, 1); flip to (0, 1] so ln never sees zero.
    let u = 1.0 - rng.next_f64();
    let secs = -u.ln() / rate_per_sec;
    // Saturate rather than wrap for absurd rates; callers clamp to >= 1 ns.
    (secs * NS_PER_SEC).min(u64::MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_respected() {
        let rate = 1_000_000.0; // 1 arrival per microsecond
        let mut gen = ArrivalGen::new(ArrivalProcess::poisson(rate), 7);
        let n = 100_000;
        let total_ns: u64 = (0..n).map(|_| gen.next_interarrival().as_nanos()).sum();
        let mean = total_ns as f64 / n as f64;
        assert!(
            (mean - 1_000.0).abs() < 20.0,
            "mean inter-arrival {mean} ns, expected ~1000"
        );
        assert_eq!(gen.produced(), n);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let p = ArrivalProcess::poisson(5e6);
        let mut a = ArrivalGen::new(p, 9);
        let mut b = ArrivalGen::new(p, 9);
        let mut c = ArrivalGen::new(p, 10);
        let xs: Vec<_> = (0..200).map(|_| a.next_interarrival()).collect();
        let ys: Vec<_> = (0..200).map(|_| b.next_interarrival()).collect();
        let zs: Vec<_> = (0..200).map(|_| c.next_interarrival()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn bursty_long_run_mean_matches() {
        let mean = 2_000_000.0;
        let p = ArrivalProcess::bursty(mean, 4.0, Duration::from_micros(50));
        assert!((p.mean_rate() - mean).abs() / mean < 1e-12);
        let mut gen = ArrivalGen::new(p, 3);
        let n = 200_000;
        let total_ns: u64 = (0..n).map(|_| gen.next_interarrival().as_nanos()).sum();
        let measured = n as f64 / (total_ns as f64 / 1e9);
        assert!(
            (measured - mean).abs() / mean < 0.05,
            "measured rate {measured}, expected ~{mean}"
        );
    }

    #[test]
    fn mmpp_actually_modulates() {
        // With a huge burst ratio the inter-arrival distribution must be
        // visibly bimodal: some gaps near the quiet mean, some near the
        // burst mean.
        let p = ArrivalProcess::bursty(1e6, 20.0, Duration::from_micros(200));
        let mut gen = ArrivalGen::new(p, 11);
        let quiet_mean_ns = 1e9 / (2.0 * 1e6 / 21.0);
        let (mut short, mut long) = (0u32, 0u32);
        for _ in 0..50_000 {
            let gap = gen.next_interarrival().as_nanos() as f64;
            if gap < quiet_mean_ns / 10.0 {
                short += 1;
            } else if gap > quiet_mean_ns / 2.0 {
                long += 1;
            }
        }
        assert!(short > 1_000, "no burst-phase gaps seen ({short})");
        assert!(long > 1_000, "no quiet-phase gaps seen ({long})");
    }

    #[test]
    fn validation_rejects_degenerate_processes() {
        assert!(ArrivalProcess::poisson(0.0).validate().is_err());
        assert!(ArrivalProcess::poisson(f64::NAN).validate().is_err());
        assert!(ArrivalProcess::poisson(1.0).validate().is_ok());
        assert!(ArrivalProcess::Mmpp {
            low_per_sec: 2.0,
            high_per_sec: 1.0,
            mean_dwell: Duration::from_micros(1),
        }
        .validate()
        .is_err());
        assert!(
            ArrivalProcess::bursty(1e6, 4.0, Duration::ZERO)
                .validate()
                .is_err(),
            "zero dwell must be rejected"
        );
    }

    #[test]
    fn gaps_never_stall_the_clock() {
        let mut gen = ArrivalGen::new(ArrivalProcess::poisson(1e12), 5);
        for _ in 0..10_000 {
            assert!(gen.next_interarrival() >= Duration::from_nanos(1));
        }
    }
}
