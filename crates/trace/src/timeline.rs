//! The windowed metrics timeline: time-resolved aggregation.
//!
//! Whole-run aggregates can rank the 25 DDP models but cannot explain
//! *when* a run saturates: which phase share grows first at the overload
//! knee, what an MMPP burst does to the admission queues, how NVM bank
//! pressure builds behind a persist storm. [`Timeline`] buckets simulated
//! time into fixed windows anchored at the start of the measured interval
//! and, per window, accumulates:
//!
//! * throughput (reads / writes completed) and open-loop flow counters
//!   (arrivals, rejections, retries, shed);
//! * the per-phase latency breakdown (service, same-key queueing,
//!   invalidation round-trip, persist stall, NVM bank queueing, read
//!   stall) in total nanoseconds attributed to ops completing in the
//!   window;
//! * a VP→DP durability-lag histogram (per-window percentiles);
//! * level-gauge snapshots at each window close ([`GaugeSnapshot`]:
//!   client ops in flight, admission queue depth, NVM bank queue depth,
//!   in-flight compactions).
//!
//! Like the [`Tracer`], the timeline is strictly read-only with respect
//! to the simulation: window boundaries are evaluated *lazily* at event
//! dispatch (never via scheduled events), every window update sits next
//! to its `RunStats` update under the same `measuring` check (so
//! per-window sums equal the run totals), and a disabled timeline costs
//! one predictable branch per update ([`Timeline::window`] returns
//! `None`). The window's columns are declared once, next to the struct,
//! by [`TimelineWindow::columns`]. Memory is bounded: at most
//! `max_windows` windows are ever allocated; events past the cap fold
//! into the final window and are counted in [`TimelineDump::clipped`].
//!
//! [`Tracer`]: crate::Tracer

use ddp_sim::{Duration, Histogram};

/// One fixed-duration window of the timeline.
///
/// All counters cover events whose timestamp falls inside
/// `[start_ns, start_ns + window_ns)`; the four gauge fields are
/// snapshots taken at the window's close (or at run end for the final
/// partial window). The VP→DP lag histogram is kept private (it is not a
/// scalar column); read it through the `lag_*` accessors.
#[derive(Clone, Debug, Default)]
pub struct TimelineWindow {
    /// Window start in simulated nanoseconds (absolute, not
    /// origin-relative).
    pub start_ns: u64,
    /// Client reads completed in this window.
    pub reads_completed: u64,
    /// Client writes completed in this window.
    pub writes_completed: u64,
    /// Open-loop arrivals in this window.
    pub ol_arrivals: u64,
    /// Arrivals that found their admission queue full in this window.
    pub ol_rejections: u64,
    /// Retries scheduled in this window.
    pub ol_retries: u64,
    /// Arrivals shed (retry budget exhausted) in this window.
    pub ol_shed: u64,
    /// Persists submitted to NVM in this window.
    pub persists_issued: u64,
    /// Service time of writes completing in this window, total ns.
    pub service_ns: u64,
    /// Same-key coordinator queueing of those writes, total ns.
    pub queue_ns: u64,
    /// Invalidation round-trip time of those writes, total ns.
    pub network_ns: u64,
    /// Durability stall of those writes, total ns.
    pub persist_stall_ns: u64,
    /// NVM bank queue wait of persists issued in this window, total ns.
    pub nvm_queue_ns: u64,
    /// Read stall time of reads resuming in this window, total ns.
    pub read_stall_ns: u64,
    /// Admission queue depth at window close.
    pub admission_queue: u64,
    /// Client ops in flight at window close.
    pub in_flight: u64,
    /// NVM bank queue depth (requests queued behind busy banks, all
    /// nodes) at window close.
    pub nvm_bank_queue: u64,
    /// NVM bytes scheduled by LSM background compactions (memtable seals
    /// and level merges) starting in this window.
    pub compaction_bytes: u64,
    /// In-flight background compactions (all nodes) at window close.
    pub active_compactions: u64,
    /// VP→DP lags of writes reaching their DP in this window.
    lag: Histogram,
}

impl TimelineWindow {
    fn new(start_ns: u64) -> Self {
        TimelineWindow {
            start_ns,
            ..TimelineWindow::default()
        }
    }

    /// Records a write reaching its DP in this window with the given
    /// VP→DP lag.
    pub fn record_lag(&mut self, lag: Duration) {
        self.lag.record(lag);
    }

    /// The ordered `(name, value)` columns of this window — the one
    /// schema the `--timeline` stream serializes.
    #[must_use]
    #[deny(unused_variables)]
    pub fn columns(&self) -> [(&'static str, u64); 23] {
        // No `..`: a field without a column is E0027 or an unused variable.
        let TimelineWindow {
            start_ns,
            reads_completed,
            writes_completed,
            ol_arrivals,
            ol_rejections,
            ol_retries,
            ol_shed,
            persists_issued,
            service_ns,
            queue_ns,
            network_ns,
            persist_stall_ns,
            nvm_queue_ns,
            read_stall_ns,
            admission_queue,
            in_flight,
            nvm_bank_queue,
            compaction_bytes,
            active_compactions,
            lag,
        } = self;
        [
            ("start_ns", *start_ns),
            ("reads_completed", *reads_completed),
            ("writes_completed", *writes_completed),
            ("ol_arrivals", *ol_arrivals),
            ("ol_rejections", *ol_rejections),
            ("ol_retries", *ol_retries),
            ("ol_shed", *ol_shed),
            ("persists_issued", *persists_issued),
            ("service_ns", *service_ns),
            ("queue_ns", *queue_ns),
            ("network_ns", *network_ns),
            ("persist_stall_ns", *persist_stall_ns),
            ("nvm_queue_ns", *nvm_queue_ns),
            ("read_stall_ns", *read_stall_ns),
            ("admission_queue", *admission_queue),
            ("in_flight", *in_flight),
            ("nvm_bank_queue", *nvm_bank_queue),
            ("lag_count", lag.count()),
            ("lag_p50_ns", lag.percentile(0.50).as_nanos()),
            ("lag_p99_ns", lag.percentile(0.99).as_nanos()),
            ("lag_max_ns", lag.max().as_nanos()),
            ("compaction_bytes", *compaction_bytes),
            ("active_compactions", *active_compactions),
        ]
    }

    /// Number of VP→DP lag samples recorded in this window.
    #[must_use]
    pub fn lag_count(&self) -> u64 {
        self.lag.count()
    }

    /// Median VP→DP lag of this window in ns (0 when empty).
    #[must_use]
    pub fn lag_p50_ns(&self) -> u64 {
        self.lag.percentile(0.50).as_nanos()
    }

    /// 99th-percentile VP→DP lag of this window in ns (0 when empty).
    #[must_use]
    pub fn lag_p99_ns(&self) -> u64 {
        self.lag.percentile(0.99).as_nanos()
    }

    /// Largest VP→DP lag of this window in ns (0 when empty).
    #[must_use]
    pub fn lag_max_ns(&self) -> u64 {
        self.lag.max().as_nanos()
    }

    /// Total nanoseconds attributed across the six phases in this window.
    #[must_use]
    pub fn phase_total_ns(&self) -> u64 {
        self.service_ns
            + self.queue_ns
            + self.network_ns
            + self.persist_stall_ns
            + self.nvm_queue_ns
            + self.read_stall_ns
    }
}

/// The cluster's level gauges at one instant: what a close-of-window
/// snapshot stamps and what the tracer's gauge samples report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Client ops in flight.
    pub in_flight: u64,
    /// Admission queue depth, all nodes.
    pub admission_queue: u64,
    /// NVM bank queue depth (requests queued behind busy banks), all
    /// nodes.
    pub nvm_bank_queue: u64,
    /// In-flight background compactions, all nodes.
    pub active_compactions: u64,
}

/// The drained contents of a timeline after a run.
#[derive(Clone, Debug, Default)]
pub struct TimelineDump {
    /// Window width in simulated nanoseconds (0 when the timeline was
    /// disabled).
    pub window_ns: u64,
    /// Absolute time of window 0's start (the measurement start).
    pub origin_ns: u64,
    /// Simulated time the run ended at.
    pub end_ns: u64,
    /// Events folded into the final window because the run outlived
    /// `max_windows` (0 means no window was clipped).
    pub clipped: u64,
    /// The windows, oldest first, gap-free from the origin.
    pub windows: Vec<TimelineWindow>,
}

/// Windowed metrics aggregator. Disabled by default; every recording
/// call is a single branch when off.
#[derive(Clone, Debug)]
pub struct Timeline {
    enabled: bool,
    window_ns: u64,
    max_windows: usize,
    origin_ns: u64,
    next_boundary_ns: u64,
    end_ns: u64,
    clipped: u64,
    windows: Vec<TimelineWindow>,
}

impl Timeline {
    /// A disabled timeline: every update is one predictable branch.
    #[must_use]
    pub fn disabled() -> Self {
        Timeline {
            enabled: false,
            window_ns: 0,
            max_windows: 0,
            origin_ns: 0,
            next_boundary_ns: 0,
            end_ns: 0,
            clipped: 0,
            windows: Vec::new(),
        }
    }

    /// An enabled timeline with `window`-wide buckets and at most
    /// `max_windows` windows (later events fold into the last one).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `max_windows` is zero.
    #[must_use]
    pub fn new(window: Duration, max_windows: usize) -> Self {
        let window_ns = window.as_nanos();
        assert!(window_ns > 0, "timeline window must be non-zero");
        assert!(max_windows > 0, "timeline needs at least one window");
        Timeline {
            enabled: true,
            window_ns,
            max_windows,
            origin_ns: 0,
            next_boundary_ns: window_ns,
            end_ns: 0,
            clipped: 0,
            windows: Vec::new(),
        }
    }

    /// Whether the timeline records anything. Call sites gate gauge
    /// snapshots on this.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Re-anchors window 0 at `origin_ns` and discards anything recorded
    /// before — called when the measured interval begins, so the timeline
    /// covers exactly the same window as `RunStats`.
    pub fn anchor(&mut self, origin_ns: u64) {
        if !self.enabled {
            return;
        }
        self.origin_ns = origin_ns;
        self.next_boundary_ns = origin_ns + self.window_ns;
        self.end_ns = origin_ns;
        self.clipped = 0;
        self.windows.clear();
    }

    /// Returns the next window boundary at or before `now_ns` and
    /// advances past it, or `None` when no boundary has been crossed.
    /// Call in a loop so idle gaps longer than one window still close
    /// every window once. The caller snapshots its gauges at each
    /// returned boundary via [`Timeline::snapshot`].
    #[must_use]
    pub fn boundary_due(&mut self, now_ns: u64) -> Option<u64> {
        if !self.enabled || now_ns < self.next_boundary_ns {
            return None;
        }
        let at = self.next_boundary_ns;
        self.next_boundary_ns += self.window_ns;
        Some(at)
    }

    /// The window covering `at_ns`, clamped into the final window when
    /// the run outlives `max_windows` (clipped events are counted).
    fn window_mut(&mut self, at_ns: u64) -> &mut TimelineWindow {
        let rel = at_ns.saturating_sub(self.origin_ns);
        let mut idx = (rel / self.window_ns) as usize;
        if idx >= self.max_windows {
            idx = self.max_windows - 1;
            self.clipped += 1;
        }
        while self.windows.len() <= idx {
            let start = self.origin_ns + self.windows.len() as u64 * self.window_ns;
            self.windows.push(TimelineWindow::new(start));
        }
        &mut self.windows[idx]
    }

    /// The window a close-of-window snapshot at `at_ns` belongs to: a
    /// boundary is the first instant of the *next* window, so the levels
    /// describe the window that just ended.
    fn closing_window_mut(&mut self, at_ns: u64) -> &mut TimelineWindow {
        self.window_mut(at_ns.saturating_sub(self.origin_ns).saturating_sub(1) + self.origin_ns)
    }

    /// The window covering `at_ns`, for a counter update at that instant,
    /// or `None` when the timeline is disabled.
    #[inline]
    pub fn window(&mut self, at_ns: u64) -> Option<&mut TimelineWindow> {
        if !self.enabled {
            return None;
        }
        Some(self.window_mut(at_ns))
    }

    /// Stamps the close-of-window gauge levels for the window ending at
    /// `at_ns` (a boundary returned by [`Timeline::boundary_due`], or the
    /// final run time from [`Timeline::finish`]).
    pub fn snapshot(&mut self, at_ns: u64, gauges: GaugeSnapshot) {
        if !self.enabled {
            return;
        }
        let w = self.closing_window_mut(at_ns);
        w.admission_queue = gauges.admission_queue;
        w.in_flight = gauges.in_flight;
        w.nvm_bank_queue = gauges.nvm_bank_queue;
        w.active_compactions = gauges.active_compactions;
    }

    /// Closes the timeline at run end: stamps the final (possibly
    /// partial) window's gauge levels and records the end time.
    pub fn finish(&mut self, now_ns: u64, gauges: GaugeSnapshot) {
        if !self.enabled {
            return;
        }
        self.end_ns = now_ns;
        if now_ns > self.origin_ns {
            self.snapshot(now_ns, gauges);
        }
    }

    /// Drains the windows into a [`TimelineDump`] and resets the timeline
    /// for reuse (still anchored at the old origin until re-anchored).
    #[must_use]
    pub fn take(&mut self) -> TimelineDump {
        if !self.enabled {
            return TimelineDump::default();
        }
        let dump = TimelineDump {
            window_ns: self.window_ns,
            origin_ns: self.origin_ns,
            end_ns: self.end_ns,
            clipped: self.clipped,
            windows: std::mem::take(&mut self.windows),
        };
        self.clipped = 0;
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> Timeline {
        let mut t = Timeline::new(Duration::from_nanos(100), 8);
        t.anchor(1_000);
        t
    }

    /// Counts one completed write at `at_ns`, if the timeline is on.
    fn write_done(t: &mut Timeline, at_ns: u64) {
        if let Some(w) = t.window(at_ns) {
            w.writes_completed += 1;
        }
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut t = Timeline::disabled();
        assert!(!t.is_enabled());
        assert!(t.window(10).is_none());
        assert!(t.boundary_due(1_000_000).is_none());
        t.finish(1_000_000, GaugeSnapshot::default());
        let dump = t.take();
        assert!(dump.windows.is_empty());
        assert_eq!(dump.window_ns, 0);
    }

    #[test]
    fn events_land_in_their_windows() {
        let mut t = timeline();
        t.window(1_000).unwrap().reads_completed += 1; // window 0 start
        write_done(&mut t, 1_099); // window 0 end
        write_done(&mut t, 1_100); // window 1 start
        t.window(1_250).unwrap().read_stall_ns += 40; // window 2
        let dump = t.take();
        assert_eq!(dump.windows.len(), 3);
        assert_eq!(dump.windows[0].reads_completed, 1);
        assert_eq!(dump.windows[0].writes_completed, 1);
        assert_eq!(dump.windows[1].writes_completed, 1);
        assert_eq!(dump.windows[2].read_stall_ns, 40);
        assert_eq!(dump.windows[0].start_ns, 1_000);
        assert_eq!(dump.windows[2].start_ns, 1_200);
    }

    #[test]
    fn windows_are_gap_free() {
        let mut t = timeline();
        t.window(1_550).unwrap().reads_completed += 1; // window 5; 0..=4 must exist too
        let dump = t.take();
        assert_eq!(dump.windows.len(), 6);
        for (i, w) in dump.windows.iter().enumerate() {
            assert_eq!(w.start_ns, 1_000 + 100 * i as u64);
        }
    }

    #[test]
    fn events_past_the_cap_fold_into_the_last_window() {
        let mut t = timeline();
        write_done(&mut t, 999_999); // far past 8 windows
        write_done(&mut t, 999_999);
        let dump = t.take();
        assert_eq!(dump.windows.len(), 8);
        assert_eq!(dump.windows[7].writes_completed, 2);
        assert_eq!(dump.clipped, 2);
    }

    #[test]
    fn boundaries_fire_once_each_and_catch_up() {
        let mut t = timeline();
        assert_eq!(t.boundary_due(1_050), None);
        assert_eq!(t.boundary_due(1_100), Some(1_100));
        assert_eq!(t.boundary_due(1_100), None, "a boundary fires once");
        assert_eq!(t.boundary_due(1_350), Some(1_200));
        assert_eq!(t.boundary_due(1_350), Some(1_300));
        assert_eq!(t.boundary_due(1_350), None);
    }

    #[test]
    fn snapshot_lands_in_the_closing_window() {
        let mut t = timeline();
        write_done(&mut t, 1_050);
        // The boundary at 1_100 closes window 0.
        t.snapshot(
            1_100,
            GaugeSnapshot {
                in_flight: 7,
                admission_queue: 3,
                nvm_bank_queue: 11,
                active_compactions: 2,
            },
        );
        let dump = t.take();
        assert_eq!(dump.windows[0].admission_queue, 3);
        assert_eq!(dump.windows[0].in_flight, 7);
        assert_eq!(dump.windows[0].nvm_bank_queue, 11);
        assert_eq!(dump.windows[0].active_compactions, 2);
    }

    #[test]
    fn finish_stamps_the_partial_window_and_end_time() {
        let mut t = timeline();
        write_done(&mut t, 1_120);
        t.finish(
            1_150,
            GaugeSnapshot {
                in_flight: 2,
                admission_queue: 1,
                nvm_bank_queue: 3,
                active_compactions: 0,
            },
        );
        let dump = t.take();
        assert_eq!(dump.end_ns, 1_150);
        assert_eq!(dump.windows.len(), 2);
        assert_eq!(dump.windows[1].admission_queue, 1);
        assert_eq!(dump.windows[1].nvm_bank_queue, 3);
    }

    #[test]
    fn anchor_resets_and_realigns() {
        let mut t = timeline();
        write_done(&mut t, 1_050);
        t.anchor(5_000);
        assert_eq!(t.boundary_due(5_099), None);
        assert_eq!(t.boundary_due(5_100), Some(5_100));
        t.window(5_010).unwrap().reads_completed += 1;
        let dump = t.take();
        assert_eq!(dump.origin_ns, 5_000);
        assert_eq!(dump.windows.len(), 1);
        assert_eq!(dump.windows[0].reads_completed, 1);
        assert_eq!(
            dump.windows[0].writes_completed, 0,
            "pre-anchor events dropped"
        );
    }

    #[test]
    fn lag_percentiles_are_per_window() {
        let mut t = timeline();
        for n in 1..=100u64 {
            t.window(1_010).unwrap().record_lag(Duration::from_nanos(n));
        }
        t.window(1_150)
            .unwrap()
            .record_lag(Duration::from_nanos(1_000));
        let dump = t.take();
        assert_eq!(dump.windows[0].lag_count(), 100);
        assert_eq!(dump.windows[0].lag_p50_ns(), 50);
        assert!(dump.windows[0].lag_max_ns() >= 99);
        assert_eq!(dump.windows[1].lag_count(), 1);
        assert!(dump.windows[1].lag_p50_ns() >= 970);
    }

    #[test]
    fn phase_total_sums_the_six_phases() {
        let mut t = timeline();
        let w = t.window(1_010).unwrap();
        w.service_ns += 1;
        w.queue_ns += 2;
        w.network_ns += 3;
        w.persist_stall_ns += 4;
        w.nvm_queue_ns += 5;
        w.read_stall_ns += 6;
        let dump = t.take();
        assert_eq!(dump.windows[0].phase_total_ns(), 21);
    }

    #[test]
    fn compaction_bytes_accumulate_per_window() {
        let mut t = timeline();
        t.window(1_010).unwrap().compaction_bytes += 4_096;
        t.window(1_020).unwrap().compaction_bytes += 1_024;
        t.window(1_150).unwrap().compaction_bytes += 64;
        let dump = t.take();
        assert_eq!(dump.windows[0].compaction_bytes, 5_120);
        assert_eq!(dump.windows[1].compaction_bytes, 64);
    }
}
