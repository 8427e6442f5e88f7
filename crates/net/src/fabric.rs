//! The cluster fabric: node addressing and unicast delivery.

use ddp_sim::{Duration, SimRng, SimTime};

use crate::fault::{FaultProfile, Transmit};
use crate::nic::{Nic, RdmaKind};
use crate::params::NetworkParams;

/// Identifier of a server node in the cluster.
///
/// # Examples
///
/// ```
/// use ddp_net::NodeId;
///
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "node3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The node's position as a zero-based index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A message handed to the fabric for delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Destination node.
    pub to: NodeId,
    /// When the message has fully arrived at the destination NIC.
    pub arrival: SimTime,
}

/// The RDMA fabric connecting all nodes: one [`Nic`] per node plus full
/// connectivity.
///
/// The fabric computes *when* messages arrive; the caller schedules the
/// corresponding simulator events and interprets payloads. Keeping payloads
/// out of this type lets the network model stay independent of the protocol
/// message set.
///
/// # Examples
///
/// ```
/// use ddp_net::{Fabric, NetworkParams, NodeId, RdmaKind};
/// use ddp_sim::SimTime;
///
/// let mut fabric = Fabric::new(5, NetworkParams::micro21());
/// let d = fabric.unicast(SimTime::ZERO, NodeId(0), NodeId(3), 64, RdmaKind::Send);
/// assert_eq!(d.to, NodeId(3));
/// assert!(d.arrival > SimTime::ZERO); // after the wire and NIC time
/// ```
#[derive(Debug)]
pub struct Fabric {
    nics: Vec<Nic>,
    params: NetworkParams,
    /// Lossy-delivery layer; absent unless a non-trivial [`FaultProfile`]
    /// was installed, so the fault-free path never touches an RNG.
    faults: Option<LossyLayer>,
}

#[derive(Debug)]
struct LossyLayer {
    profile: FaultProfile,
    rng: SimRng,
}

/// Minimum spacing between a delivery and its fabric-duplicated copy when
/// the profile specifies no jitter to draw the spacing from.
const DUP_SPACING: Duration = Duration::from_nanos(100);

impl Fabric {
    /// Creates a fabric of `nodes` fully connected NICs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds 255.
    #[must_use]
    pub fn new(nodes: usize, params: NetworkParams) -> Self {
        assert!(nodes > 0 && nodes <= 255, "node count out of range");
        Fabric {
            nics: (0..nodes).map(|_| Nic::new(params)).collect(),
            params,
            faults: None,
        }
    }

    /// Installs a lossy-delivery layer.
    ///
    /// A no-op profile (see [`FaultProfile::is_noop`]) removes the layer
    /// entirely, keeping [`Fabric::transmit`] bit-identical to a fabric
    /// that was never given a profile.
    pub fn set_fault_profile(&mut self, profile: FaultProfile) {
        self.faults = if profile.is_noop() {
            None
        } else {
            Some(LossyLayer {
                profile,
                rng: SimRng::seed_from(profile.seed),
            })
        };
    }

    /// The fabric parameters.
    #[must_use]
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Sends `bytes` from `from` to `to`; returns the arrival time.
    ///
    /// `kind` names the RDMA command. The fabric times every kind alike:
    /// placement guarantees (e.g. [`RdmaKind::WritePersistent`]) are
    /// enforced by the receiver's protocol engine, which persists before
    /// acknowledging.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` — local operations do not cross the fabric.
    pub fn unicast(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        _kind: RdmaKind,
    ) -> Delivery {
        assert_ne!(from, to, "cannot send to self over the fabric");
        let arrival = self.nics[from.index()].send(now, bytes);
        Delivery { to, arrival }
    }

    /// Sends `bytes` from `from` to `to` through the lossy-delivery layer.
    ///
    /// Without an installed [`FaultProfile`] this is exactly
    /// [`Fabric::unicast`]. With one, the message may be dropped (after
    /// consuming sender egress — the bits went out, the fabric lost them),
    /// duplicated (a second, strictly later arrival), or jittered (extra
    /// uniform delay on top of the modeled latency). Fault outcomes are
    /// drawn from the fabric's seeded RNG in a fixed order per message, so
    /// runs replay deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        kind: RdmaKind,
    ) -> Transmit {
        let arrival = self.unicast(now, from, to, bytes, kind).arrival;
        let Some(layer) = &mut self.faults else {
            return Transmit {
                to,
                primary: Some(arrival),
                duplicate: None,
                jittered: false,
            };
        };
        if layer.rng.chance(layer.profile.drop_prob) {
            return Transmit {
                to,
                primary: None,
                duplicate: None,
                jittered: false,
            };
        }
        let mut primary = arrival;
        let mut jittered = false;
        let max_jitter = layer.profile.max_jitter;
        if max_jitter > Duration::ZERO {
            let extra = layer.rng.next_below(max_jitter.as_nanos() + 1);
            if extra > 0 {
                primary += Duration::from_nanos(extra);
                jittered = true;
            }
        }
        let duplicate = if layer.rng.chance(layer.profile.dup_prob) {
            let spacing = max_jitter.max(DUP_SPACING);
            let extra = 1 + layer.rng.next_below(spacing.as_nanos());
            Some(primary + Duration::from_nanos(extra))
        } else {
            None
        };
        Transmit {
            to,
            primary: Some(primary),
            duplicate,
            jittered,
        }
    }

    /// The NIC of `node`, for statistics.
    #[must_use]
    pub fn nic(&self, node: NodeId) -> &Nic {
        &self.nics[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_sim::Duration;

    #[test]
    fn unicast_arrival_has_flight_time() {
        let mut f = Fabric::new(3, NetworkParams::micro21());
        let d = f.unicast(SimTime::ZERO, NodeId(0), NodeId(1), 64, RdmaKind::Send);
        assert_eq!(d.to, NodeId(1));
        assert!(d.arrival >= SimTime::ZERO + NetworkParams::micro21().one_way());
    }

    /// A write's copies go to every follower by one unicast each, as the
    /// protocol sends them.
    fn unicast_to_followers(f: &mut Fabric, from: NodeId, bytes: u64) -> Vec<Delivery> {
        (0..5u8)
            .map(NodeId)
            .filter(|&to| to != from)
            .map(|to| f.unicast(SimTime::ZERO, from, to, bytes, RdmaKind::WriteVolatile))
            .collect()
    }

    #[test]
    fn unicast_to_followers_reaches_everyone_else() {
        let mut f = Fabric::new(5, NetworkParams::micro21());
        let ds = unicast_to_followers(&mut f, NodeId(2), 64);
        let tos: Vec<u8> = ds.iter().map(|d| d.to.0).collect();
        assert_eq!(tos, vec![0, 1, 3, 4]);
    }

    /// The copies serialize on the sender's egress link, so each follower
    /// sees a later arrival than the one before it.
    #[test]
    fn unicast_copies_serialize_on_egress() {
        let mut f = Fabric::new(5, NetworkParams::micro21());
        let ds = unicast_to_followers(&mut f, NodeId(0), 64 * 1024);
        let arrivals: Vec<SimTime> = ds.iter().map(|d| d.arrival).collect();
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "cannot send to self")]
    fn self_send_panics() {
        let mut f = Fabric::new(2, NetworkParams::micro21());
        f.unicast(SimTime::ZERO, NodeId(0), NodeId(0), 64, RdmaKind::Send);
    }

    #[test]
    fn per_node_nics_are_independent() {
        let mut f = Fabric::new(3, NetworkParams::micro21());
        // Saturate node 0's egress.
        for _ in 0..32 {
            f.unicast(
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                64 * 1024,
                RdmaKind::Send,
            );
        }
        // Node 2 is unaffected.
        let d = f.unicast(SimTime::ZERO, NodeId(2), NodeId(1), 64, RdmaKind::Send);
        assert_eq!(d.arrival, SimTime::from_nanos(603));
        assert_eq!(f.nic(NodeId(0)).sent_count(), 32);
    }

    #[test]
    fn transmit_without_profile_matches_unicast() {
        let mut plain = Fabric::new(3, NetworkParams::micro21());
        let mut faulty = Fabric::new(3, NetworkParams::micro21());
        faulty.set_fault_profile(FaultProfile::none()); // no-op: layer not installed
        let a = plain.unicast(SimTime::ZERO, NodeId(0), NodeId(1), 64, RdmaKind::Send);
        let b = faulty.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64, RdmaKind::Send);
        assert_eq!(b.primary, Some(a.arrival));
        assert_eq!(b.duplicate, None);
        assert!(!b.jittered && !b.dropped());
    }

    #[test]
    fn certain_drop_loses_everything_but_consumes_egress() {
        let mut f = Fabric::new(2, NetworkParams::micro21());
        f.set_fault_profile(FaultProfile {
            drop_prob: 1.0,
            ..FaultProfile::none()
        });
        for _ in 0..10 {
            let t = f.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 4096, RdmaKind::Send);
            assert!(t.dropped());
        }
        assert_eq!(
            f.nic(NodeId(0)).sent_count(),
            10,
            "drops still burn sender egress"
        );
    }

    #[test]
    fn certain_dup_delivers_strictly_later_copy() {
        let mut f = Fabric::new(2, NetworkParams::micro21());
        f.set_fault_profile(FaultProfile {
            dup_prob: 1.0,
            seed: 7,
            ..FaultProfile::none()
        });
        let t = f.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64, RdmaKind::Send);
        let primary = t.primary.expect("not dropped");
        let dup = t.duplicate.expect("duplicated");
        assert!(dup > primary);
    }

    #[test]
    fn jitter_only_delays_never_reorders_below_base_latency() {
        let mut f = Fabric::new(2, NetworkParams::micro21());
        f.set_fault_profile(FaultProfile {
            max_jitter: Duration::from_nanos(300),
            seed: 3,
            ..FaultProfile::none()
        });
        let mut delayed = 0;
        for i in 0..50u64 {
            let now = SimTime::from_nanos(i * 10_000);
            let base = f.nic(NodeId(0)).params().one_way();
            let t = f.transmit(now, NodeId(0), NodeId(1), 64, RdmaKind::Send);
            let arrival = t.primary.expect("never dropped");
            assert!(arrival >= now + base);
            delayed += u64::from(t.jittered);
        }
        assert!(
            delayed > 0,
            "300 ns jitter over 50 sends should fire at least once"
        );
    }

    #[test]
    fn same_seed_replays_same_fault_sequence() {
        let outcomes = |seed: u64| {
            let mut f = Fabric::new(2, NetworkParams::micro21());
            f.set_fault_profile(FaultProfile {
                drop_prob: 0.3,
                dup_prob: 0.2,
                max_jitter: Duration::from_nanos(150),
                seed,
            });
            (0..200u64)
                .map(|i| {
                    f.transmit(
                        SimTime::from_nanos(i * 1_000),
                        NodeId(0),
                        NodeId(1),
                        64,
                        RdmaKind::Send,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(11), outcomes(11));
        assert_ne!(outcomes(11), outcomes(12), "different seeds should diverge");
    }

    #[test]
    fn rtt_sweep_changes_arrivals() {
        for (rtt_us, expect_one_way) in [(1u64, 500u64), (2, 1000)] {
            let params = NetworkParams::micro21().with_round_trip(Duration::from_micros(rtt_us));
            let mut f = Fabric::new(2, params);
            let d = f.unicast(SimTime::ZERO, NodeId(0), NodeId(1), 64, RdmaKind::Send);
            assert_eq!(d.arrival, SimTime::from_nanos(50 + 3 + 50 + expect_one_way));
        }
    }
}
