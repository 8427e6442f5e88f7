//! Network parameters of the modeled cluster (Table 5 of the paper).

use ddp_sim::Duration;

/// Parameters of the RDMA fabric and NICs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkParams {
    /// NIC-to-NIC round-trip latency (Table 5: 1 µs; Figure 8 sweeps
    /// 0.5 µs and 2 µs).
    pub round_trip: Duration,
    /// Per-NIC link bandwidth in bits per second (Table 5: 200 Gb/s).
    pub bandwidth_bits_per_sec: u64,
    /// Maximum queue pairs the NIC can schedule concurrently (Table 5: 400).
    pub max_queue_pairs: u32,
    /// Fixed per-message processing overhead at each NIC (DMA setup,
    /// doorbell, completion handling). Pipelined: adds latency to every
    /// message without occupying the egress engine.
    pub per_message_overhead: Duration,
    /// Time the egress engine is busy per message (WQE fetch, doorbell
    /// ring): bounds the NIC's message rate. Chatty protocols (INV + ACK +
    /// VAL per write) queue here before bandwidth ever matters.
    pub per_message_occupancy: Duration,
}

impl NetworkParams {
    /// The Table 5 configuration.
    #[must_use]
    pub fn micro21() -> Self {
        NetworkParams {
            round_trip: Duration::from_micros(1),
            bandwidth_bits_per_sec: 200_000_000_000,
            max_queue_pairs: 400,
            per_message_overhead: Duration::from_nanos(50),
            per_message_occupancy: Duration::from_nanos(50),
        }
    }

    /// Same configuration with a different round-trip latency (the Figure 8
    /// sensitivity sweep).
    #[must_use]
    pub fn with_round_trip(mut self, rtt: Duration) -> Self {
        self.round_trip = rtt;
        self
    }

    /// Checks that a NIC can be built from these parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found, starting with
    /// the field's name.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_queue_pairs == 0 {
            return Err("max_queue_pairs must be positive".into());
        }
        if self.bandwidth_bits_per_sec == 0 {
            return Err("bandwidth_bits_per_sec must be positive".into());
        }
        Ok(())
    }

    /// One-way propagation latency (half the round trip).
    #[must_use]
    pub fn one_way(&self) -> Duration {
        self.round_trip / 2
    }

    /// Time to serialize `bytes` onto the wire at full bandwidth.
    #[must_use]
    pub fn serialization(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let ns = (bytes as f64 * 8.0 * 1e9 / self.bandwidth_bits_per_sec as f64).ceil() as u64;
        Duration::from_nanos(ns.max(1))
    }
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams::micro21()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_defaults() {
        let p = NetworkParams::micro21();
        assert_eq!(p.round_trip, Duration::from_micros(1));
        assert_eq!(p.bandwidth_bits_per_sec, 200_000_000_000);
        assert_eq!(p.max_queue_pairs, 400);
    }

    #[test]
    fn one_way_is_half_rtt() {
        let p = NetworkParams::micro21();
        assert_eq!(p.one_way(), Duration::from_nanos(500));
    }

    #[test]
    fn serialization_scales() {
        let p = NetworkParams::micro21();
        // 200 Gb/s = 25 GB/s; 64 B ~ 2.56 ns -> ceil 3 ns.
        assert_eq!(p.serialization(64), Duration::from_nanos(3));
        assert_eq!(p.serialization(0), Duration::ZERO);
        assert!(p.serialization(4096) > p.serialization(64));
    }

    #[test]
    fn with_round_trip_overrides() {
        let p = NetworkParams::micro21().with_round_trip(Duration::from_micros(2));
        assert_eq!(p.one_way(), Duration::from_micros(1));
        assert_eq!(p.bandwidth_bits_per_sec, 200_000_000_000);
    }
}
