//! Per-node NIC model: egress serialization, queue-pair scheduling, and
//! SNIA-style RDMA command kinds.

use std::collections::VecDeque;

use ddp_sim::{Duration, SimTime};

use crate::params::NetworkParams;

/// The placement guarantee an RDMA operation carries, following the SNIA
/// "NVM PM Remote Access for High Availability" proposal the paper models
/// (§7): on acknowledgment, the data is guaranteed to be in the remote
/// volatile memory, in the remote NVM, or flushed from volatile to NVM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RdmaKind {
    /// Plain two-sided send (protocol control messages).
    Send,
    /// RDMA write into remote volatile memory (DDIO-placed in the LLC).
    WriteVolatile,
    /// RDMA write that is durable in remote NVM when acknowledged.
    WritePersistent,
    /// Command that flushes previously written remote data from volatile
    /// memory to NVM.
    RemoteFlush,
}

impl RdmaKind {
    /// Every kind, in counter-index order.
    pub const ALL: [RdmaKind; 4] = [
        RdmaKind::Send,
        RdmaKind::WriteVolatile,
        RdmaKind::WritePersistent,
        RdmaKind::RemoteFlush,
    ];

    /// Stable index into per-kind counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RdmaKind::Send => 0,
            RdmaKind::WriteVolatile => 1,
            RdmaKind::WritePersistent => 2,
            RdmaKind::RemoteFlush => 3,
        }
    }
}

/// One NIC: models egress bandwidth as a single serializing link plus a
/// bounded set of queue pairs.
///
/// Queue pairs bound the number of messages the NIC can have in flight; a
/// message finding all queue pairs busy waits for the earliest one to free
/// (its in-flight span ends when the message has fully arrived remotely).
///
/// # Examples
///
/// ```
/// use ddp_net::{NetworkParams, Nic};
/// use ddp_sim::SimTime;
///
/// let mut nic = Nic::new(NetworkParams::micro21());
/// let arrival = nic.send(SimTime::ZERO, 64);
/// // 50 ns engine occupancy + 3 ns serialization + 50 ns overhead +
/// // 500 ns one-way flight.
/// assert_eq!(arrival, SimTime::from_nanos(603));
/// ```
#[derive(Debug)]
pub struct Nic {
    params: NetworkParams,
    egress_free: SimTime,
    /// Completion time of each in-flight message, one per busy queue
    /// pair. Messages arrive in send order (each one's wire slot starts
    /// after the previous one's, and the flight time is the NIC's own
    /// constant), so the times are pushed sorted, earliest at the front.
    qp_busy_until: VecDeque<SimTime>,
    sent: u64,
    sent_by_kind: [u64; 4],
    bytes_sent: u64,
    qp_stall_total: Duration,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
}

impl Nic {
    /// Creates an idle NIC.
    #[must_use]
    pub fn new(params: NetworkParams) -> Self {
        Nic {
            params,
            egress_free: SimTime::ZERO,
            qp_busy_until: VecDeque::new(),
            sent: 0,
            sent_by_kind: [0; 4],
            bytes_sent: 0,
            qp_stall_total: Duration::ZERO,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
        }
    }

    /// The NIC's parameters.
    #[must_use]
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Sends one message of `bytes` at `now`; returns its remote arrival time.
    ///
    /// Successive sends serialize on the egress link for their wire time
    /// (how a broadcast to N followers consumes bandwidth); the per-message
    /// processing overhead is pipelined and therefore adds latency without
    /// occupying the link.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.send_kind(now, bytes, RdmaKind::Send)
    }

    /// [`Nic::send`] with the RDMA command kind recorded for accounting.
    pub fn send_kind(&mut self, now: SimTime, bytes: u64, kind: RdmaKind) -> SimTime {
        self.sent_by_kind[kind.index()] += 1;
        let ready = self.acquire_qp(now);
        let start = self.egress_free.max(ready);
        let on_wire = start + self.params.per_message_occupancy + self.params.serialization(bytes);
        self.egress_free = on_wire;
        let arrival = on_wire + self.params.per_message_overhead + self.params.one_way();
        self.occupy_qp(arrival);
        self.sent += 1;
        self.bytes_sent += bytes;
        self.qp_stall_total += ready.saturating_since(now);
        arrival
    }

    /// Earliest time a queue pair is available at or after `now`.
    fn acquire_qp(&mut self, now: SimTime) -> SimTime {
        while self.qp_busy_until.front().is_some_and(|&t| t <= now) {
            self.qp_busy_until.pop_front();
        }
        if self.qp_busy_until.len() < self.params.max_queue_pairs as usize {
            now
        } else {
            // All queue pairs busy: wait for the earliest to complete.
            self.qp_busy_until.pop_front().expect("nonempty when full")
        }
    }

    fn occupy_qp(&mut self, until: SimTime) {
        debug_assert!(
            self.qp_busy_until.back().map_or(true, |&t| t <= until),
            "messages arrive in send order"
        );
        self.qp_busy_until.push_back(until);
    }

    /// Total messages sent.
    #[must_use]
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Total payload bytes sent.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Messages sent with the given RDMA command kind.
    #[must_use]
    pub fn sent_count_of(&self, kind: RdmaKind) -> u64 {
        self.sent_by_kind[kind.index()]
    }

    /// Cumulative time messages waited for a free queue pair.
    #[must_use]
    pub fn queue_pair_stall(&self) -> Duration {
        self.qp_stall_total
    }

    /// Outgoing messages the lossy fabric dropped after this NIC sent them.
    #[must_use]
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Outgoing messages the lossy fabric delivered twice.
    #[must_use]
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated
    }

    /// Outgoing messages that picked up extra fabric jitter.
    #[must_use]
    pub fn delayed_count(&self) -> u64 {
        self.delayed
    }

    pub(crate) fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    pub(crate) fn record_duplicated(&mut self) {
        self.duplicated += 1;
    }

    pub(crate) fn record_delayed(&mut self) {
        self.delayed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_send_latency_breakdown() {
        let mut nic = Nic::new(NetworkParams::micro21());
        let arrival = nic.send(SimTime::ZERO, 64);
        assert_eq!(arrival, SimTime::from_nanos(50 + 3 + 50 + 500));
    }

    #[test]
    fn back_to_back_sends_serialize_on_egress() {
        let mut nic = Nic::new(NetworkParams::micro21());
        let a = nic.send(SimTime::ZERO, 4096);
        let b = nic.send(SimTime::ZERO, 4096);
        assert!(b > a, "second message must queue behind the first");
    }

    #[test]
    fn spaced_sends_do_not_queue() {
        let mut nic = Nic::new(NetworkParams::micro21());
        let a = nic.send(SimTime::ZERO, 64);
        let later = SimTime::from_nanos(10_000);
        let b = nic.send(later, 64);
        assert_eq!(b.saturating_since(later), a.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn queue_pairs_bound_in_flight_messages() {
        let mut params = NetworkParams::micro21();
        params.max_queue_pairs = 2;
        let mut nic = Nic::new(params);
        let t0 = SimTime::ZERO;
        nic.send(t0, 64);
        nic.send(t0, 64);
        nic.send(t0, 64); // must wait for a QP
        assert!(nic.queue_pair_stall() > Duration::ZERO);
    }

    /// The NIC before queue pairs became a sorted queue: a `Vec` of
    /// completion times, scanned on every send. Kept as the reference the
    /// queue must match.
    struct ScanNic {
        params: NetworkParams,
        egress_free: SimTime,
        qp_busy_until: Vec<SimTime>,
        qp_stall_total: Duration,
    }

    impl ScanNic {
        fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
            self.qp_busy_until.retain(|&t| t > now);
            let ready = if self.qp_busy_until.len() < self.params.max_queue_pairs as usize {
                now
            } else {
                let earliest = self.qp_busy_until.iter().copied().min().expect("full");
                let pos = self.qp_busy_until.iter().position(|&t| t == earliest);
                self.qp_busy_until.swap_remove(pos.expect("present"));
                earliest
            };
            let start = self.egress_free.max(ready);
            let on_wire =
                start + self.params.per_message_occupancy + self.params.serialization(bytes);
            self.egress_free = on_wire;
            let arrival = on_wire + self.params.per_message_overhead + self.params.one_way();
            self.qp_busy_until.push(arrival);
            self.qp_stall_total += ready.saturating_since(now);
            arrival
        }
    }

    #[test]
    fn queue_pair_fifo_matches_the_scan() {
        for (seed, qps) in [(1u64, 1u32), (2, 3), (3, 4), (4, 400)] {
            let mut params = NetworkParams::micro21();
            params.max_queue_pairs = qps;
            let mut nic = Nic::new(params);
            let mut scan = ScanNic {
                params,
                egress_free: SimTime::ZERO,
                qp_busy_until: Vec::new(),
                qp_stall_total: Duration::ZERO,
            };
            let mut rng = ddp_sim::SimRng::seed_from(seed);
            let mut clock = SimTime::ZERO;
            for step in 0..4_000 {
                // Broadcast-like bursts at one instant, now and then an
                // idle gap that drains the link and the queue pairs, and
                // some sends stamped ahead of the clock (at a future apply
                // time), so `now` is not monotone.
                match rng.next_below(20) {
                    0 => clock += Duration::from_nanos(1_000 + rng.next_below(2_000)),
                    1..=6 => clock += Duration::from_nanos(rng.next_below(400)),
                    _ => {}
                }
                let now = clock + Duration::from_nanos(rng.next_below(3) * 150);
                let bytes = 32 << rng.next_below(6);
                assert_eq!(
                    nic.send(now, bytes),
                    scan.send(now, bytes),
                    "{qps} queue pairs, step {step}"
                );
                assert_eq!(nic.queue_pair_stall(), scan.qp_stall_total);
            }
            if qps < 400 {
                assert!(
                    nic.queue_pair_stall() > Duration::ZERO,
                    "all-busy branch ran"
                );
            }
        }
    }

    #[test]
    fn per_kind_counters_track_sends() {
        let mut nic = Nic::new(NetworkParams::micro21());
        nic.send_kind(SimTime::ZERO, 64, RdmaKind::Send);
        nic.send_kind(SimTime::ZERO, 64, RdmaKind::WritePersistent);
        nic.send_kind(SimTime::ZERO, 64, RdmaKind::WritePersistent);
        nic.send(SimTime::ZERO, 64); // plain send defaults to RdmaKind::Send
        assert_eq!(nic.sent_count_of(RdmaKind::Send), 2);
        assert_eq!(nic.sent_count_of(RdmaKind::WritePersistent), 2);
        assert_eq!(nic.sent_count_of(RdmaKind::WriteVolatile), 0);
        assert_eq!(nic.sent_count_of(RdmaKind::RemoteFlush), 0);
        assert_eq!(nic.sent_count(), 4);
        assert_eq!(
            RdmaKind::ALL
                .iter()
                .map(|&k| nic.sent_count_of(k))
                .sum::<u64>(),
            nic.sent_count()
        );
    }

    #[test]
    fn many_queue_pairs_do_not_stall() {
        let mut nic = Nic::new(NetworkParams::micro21());
        for _ in 0..100 {
            nic.send(SimTime::ZERO, 64);
        }
        assert_eq!(nic.queue_pair_stall(), Duration::ZERO);
        assert_eq!(nic.sent_count(), 100);
        assert_eq!(nic.bytes_sent(), 6_400);
    }
}
