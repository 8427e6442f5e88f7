//! # ddp-trace — observability for the DDP simulator
//!
//! The paper's argument is about *when* things happen: an update reaches
//! its **Visibility Point (VP)** when the protocol makes it readable and
//! its **Durability Point (DP)** when a copy first survives failure.
//! End-of-run aggregates can rank the 25 models but cannot explain them;
//! this crate records the events in between, deterministically and
//! without perturbing the simulation:
//!
//! * [`Tracer`] — a ring-buffered, zero-overhead-when-off event recorder
//!   ([`TraceRecord`] is `Copy`; no allocation per record on the hot
//!   path). Drained after a run into a [`TraceDump`].
//! * [`WriteLifecycles`] — the open-write table that pairs each VP with
//!   the first persist completion of that version anywhere in the
//!   cluster, yielding the VP→DP durability-lag histogram.
//! * [`PhaseAccum`] / [`PhaseBreakdown`] — per-op latency attribution:
//!   service, same-key queueing, invalidation round-trip, durability
//!   stall, NVM bank queueing, and read stalls.
//! * [`Timeline`] — a windowed metrics aggregator: fixed sim-time
//!   windows, each accumulating throughput, shed/retry counts, the
//!   per-phase latency breakdown, VP→DP lag percentiles, and close-of-
//!   window gauge snapshots — the time-resolved view that explains
//!   *when* a run saturates, and the one source of levels over time (the
//!   event ring records lifecycle events only).
//!
//! The tracer is strictly read-only with respect to the simulation: it
//! never schedules events or mutates protocol state, so enabling it
//! changes nothing but the trace output.

#![warn(missing_docs)]

mod lifecycle;
mod phase;
mod record;
mod ring;
mod timeline;

pub use lifecycle::{OpenWrite, WriteLifecycles};
pub use phase::{PhaseAccum, PhaseBreakdown};
pub use record::{StallCause, TraceEventKind, TraceRecord};
pub use ring::{TraceDump, Tracer};
pub use timeline::{GaugeSnapshot, Timeline, TimelineDump, TimelineWindow};

use ddp_sim::Duration;

/// Tracing configuration carried by the cluster config. Inert by default:
/// the simulation behaves (and performs) as if this crate did not exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record lifecycle events into the ring buffer.
    pub events: bool,
    /// Ring capacity in records (oldest records are overwritten and
    /// counted once full).
    pub ring_capacity: usize,
    /// Aggregate a windowed metrics [`Timeline`] with this window width;
    /// `None` disables the timeline.
    pub timeline_window: Option<Duration>,
    /// Maximum timeline windows kept per run (later events fold into the
    /// final window and are counted as clipped).
    pub timeline_max_windows: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: false,
            ring_capacity: 1 << 20,
            timeline_window: None,
            timeline_max_windows: 1 << 12,
        }
    }
}

impl TraceConfig {
    /// Event tracing on, timeline off, default ring capacity.
    #[must_use]
    pub fn enabled() -> Self {
        TraceConfig {
            events: true,
            ..TraceConfig::default()
        }
    }

    /// Builder: enables the windowed metrics timeline.
    #[must_use]
    pub fn with_timeline(mut self, window: Duration) -> Self {
        self.timeline_window = Some(window);
        self
    }

    /// The timeline this configuration asks for (disabled when
    /// `timeline_window` is `None`).
    #[must_use]
    pub fn build_timeline(&self) -> Timeline {
        match self.timeline_window {
            Some(window) => Timeline::new(window, self.timeline_max_windows),
            None => Timeline::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = TraceConfig::default();
        assert!(!cfg.events);
        assert!(cfg.timeline_window.is_none());
        assert!(!cfg.build_timeline().is_enabled());
        assert!(cfg.ring_capacity > 0);
        assert!(cfg.timeline_max_windows > 0);
    }

    #[test]
    fn with_timeline_builds_an_enabled_timeline() {
        let cfg = TraceConfig::default().with_timeline(Duration::from_nanos(500));
        assert!(cfg.build_timeline().is_enabled());
    }
}
