//! Architectural parameters of the modeled server (Table 5 of the paper).

use ddp_sim::Duration;

/// Clock frequency of the modeled cores, in GHz (Table 5: 2 GHz).
pub const CORE_GHZ: f64 = 2.0;

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Round-trip access latency in core cycles.
    pub round_trip_cycles: u64,
}

impl CacheParams {
    /// Round-trip latency as a duration at [`CORE_GHZ`].
    #[must_use]
    pub fn round_trip(&self) -> Duration {
        Duration::from_cycles(self.round_trip_cycles, CORE_GHZ)
    }

    /// Number of sets implied by capacity, associativity and line size.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }
}

/// Parameters of a banked memory device (DRAM or NVM).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceParams {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Read round-trip latency.
    pub read_latency: Duration,
    /// Write round-trip latency.
    pub write_latency: Duration,
    /// Peak per-channel bandwidth in bytes per second (1 GHz DDR, 64-bit
    /// bus = 16 GB/s in Table 5).
    pub channel_bytes_per_sec: u64,
}

impl DeviceParams {
    /// Total number of banks across all channels.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel
    }

    /// Time to stream `bytes` over one channel at peak bandwidth.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let ns = (bytes as f64 * 1e9 / self.channel_bytes_per_sec as f64).ceil() as u64;
        Duration::from_nanos(ns.max(1))
    }
}

/// Full memory-system parameters for one server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryParams {
    /// Number of cores sharing the LLC (Table 5: 20).
    pub cores: u32,
    /// Private L1 data cache.
    pub l1: CacheParams,
    /// Private L2 cache.
    pub l2: CacheParams,
    /// Shared last-level cache. Capacity below is per core and is scaled by
    /// `cores` when the hierarchy is built.
    pub llc_per_core: CacheParams,
    /// Fraction of LLC ways reserved for Data Direct I/O (Table 5: 10 %).
    pub ddio_fraction: f64,
    /// Volatile DRAM. Only its `read_latency` is used: the caches charge
    /// it on a miss. DRAM is not modelled as a banked device.
    pub dram: DeviceParams,
    /// Non-volatile memory device.
    pub nvm: DeviceParams,
}

impl MemoryParams {
    /// The Table 5 configuration.
    #[must_use]
    pub fn micro21() -> Self {
        MemoryParams {
            cores: 20,
            l1: CacheParams {
                capacity_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 64,
                round_trip_cycles: 2,
            },
            l2: CacheParams {
                capacity_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 64,
                round_trip_cycles: 12,
            },
            llc_per_core: CacheParams {
                capacity_bytes: 2 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                round_trip_cycles: 38,
            },
            ddio_fraction: 0.10,
            dram: DeviceParams {
                capacity_bytes: 16 << 30,
                channels: 4,
                banks_per_channel: 8,
                read_latency: Duration::from_nanos(100),
                write_latency: Duration::from_nanos(100),
                channel_bytes_per_sec: 16_000_000_000,
            },
            nvm: DeviceParams {
                capacity_bytes: 64 << 30,
                channels: 2,
                banks_per_channel: 8,
                read_latency: Duration::from_nanos(140),
                write_latency: Duration::from_nanos(400),
                channel_bytes_per_sec: 16_000_000_000,
            },
        }
    }

    /// The shared LLC parameters scaled to the full core count.
    #[must_use]
    pub fn llc_total(&self) -> CacheParams {
        CacheParams {
            capacity_bytes: self.llc_per_core.capacity_bytes * u64::from(self.cores),
            ..self.llc_per_core
        }
    }
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams::micro21()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_defaults_match_paper() {
        let p = MemoryParams::micro21();
        assert_eq!(p.cores, 20);
        assert_eq!(p.l1.capacity_bytes, 64 * 1024);
        assert_eq!(p.l1.ways, 8);
        assert_eq!(p.l1.round_trip_cycles, 2);
        assert_eq!(p.l2.capacity_bytes, 512 * 1024);
        assert_eq!(p.l2.round_trip_cycles, 12);
        assert_eq!(p.llc_per_core.capacity_bytes, 2 * 1024 * 1024);
        assert_eq!(p.llc_per_core.ways, 16);
        assert_eq!(p.llc_per_core.round_trip_cycles, 38);
        assert!((p.ddio_fraction - 0.10).abs() < 1e-12);
        assert_eq!(p.dram.capacity_bytes, 16 << 30);
        assert_eq!(p.dram.channels, 4);
        assert_eq!(p.dram.banks_per_channel, 8);
        assert_eq!(p.dram.read_latency, Duration::from_nanos(100));
        assert_eq!(p.nvm.capacity_bytes, 64 << 30);
        assert_eq!(p.nvm.channels, 2);
        assert_eq!(p.nvm.read_latency, Duration::from_nanos(140));
        assert_eq!(p.nvm.write_latency, Duration::from_nanos(400));
    }

    #[test]
    fn llc_total_scales_with_cores() {
        let p = MemoryParams::micro21();
        assert_eq!(p.llc_total().capacity_bytes, 40 * 1024 * 1024);
    }

    #[test]
    fn cache_round_trip_uses_core_clock() {
        let p = MemoryParams::micro21();
        // 38 cycles at 2 GHz = 19 ns.
        assert_eq!(p.llc_per_core.round_trip(), Duration::from_nanos(19));
        assert_eq!(p.l1.round_trip(), Duration::from_nanos(1));
        assert_eq!(p.l2.round_trip(), Duration::from_nanos(6));
    }

    #[test]
    fn sets_computation() {
        let p = MemoryParams::micro21();
        // 64KB / (8 ways * 64B) = 128 sets.
        assert_eq!(p.l1.sets(), 128);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let p = MemoryParams::micro21();
        let small = p.nvm.transfer_time(64);
        let big = p.nvm.transfer_time(64 * 1024);
        assert!(big > small);
        assert_eq!(p.nvm.transfer_time(0), Duration::ZERO);
        // 16 GB/s -> 64 B takes 4 ns.
        assert_eq!(small, Duration::from_nanos(4));
    }

    #[test]
    fn total_banks() {
        let p = MemoryParams::micro21();
        assert_eq!(p.nvm.total_banks(), 16);
        assert_eq!(p.dram.total_banks(), 32);
    }
}
