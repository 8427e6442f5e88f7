//! The simulation driver: repeatedly pops the earliest event and hands it to
//! the model, until a stop condition is met.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation model: application state plus an event handler.
///
/// The engine owns the event loop; the model owns all domain state and, on
/// each event, may schedule further events through the [`Context`].
///
/// # Examples
///
/// A counter that reschedules itself every 10 ns until it has fired 5 times:
///
/// ```
/// use ddp_sim::{Context, Duration, Engine, Model, SimTime};
///
/// struct Ticker {
///     fired: u32,
/// }
///
/// impl Model for Ticker {
///     type Event = ();
///     fn handle(&mut self, ctx: &mut Context<'_, ()>, _ev: ()) {
///         self.fired += 1;
///         if self.fired < 5 {
///             ctx.schedule_in(Duration::from_nanos(10), ());
///         }
///     }
/// }
///
/// let mut ticker = Ticker { fired: 0 };
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, ());
/// let end = engine.run(&mut ticker);
/// assert_eq!(ticker.fired, 5);
/// assert_eq!(end, SimTime::from_nanos(40));
/// ```
pub trait Model {
    /// The event payload type dispatched to [`Model::handle`].
    type Event;

    /// Handles one event at the context's current time.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Handle given to a model during event dispatch: current time plus the
/// ability to schedule future events.
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    seq: u64,
    queue: &'a mut EventQueue<E>,
    stop: &'a mut bool,
}

impl<E> Context<'_, E> {
    /// The simulated time of the event being handled.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The 1-based dispatch sequence number of the event being handled
    /// (the engine's total-order counter). Events at equal timestamps are
    /// dispatched in a deterministic order, so this number is a stable
    /// anchor for trace records regardless of host threading.
    #[must_use]
    pub fn dispatch_seq(&self) -> u64 {
        self.seq
    }

    /// Schedules `event` at absolute time `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is before [`Context::now`].
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        self.queue.push(due, event);
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::time::Duration, event: E) {
        let due = self.now + delay;
        self.schedule_at(due, event);
    }

    /// Requests that the engine stop after the current event is handled.
    ///
    /// Pending events remain in the queue; a subsequent
    /// [`Engine::run`] continues from where the run stopped.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }

    /// Returns the number of pending events (excluding the one being
    /// handled).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

/// The discrete-event simulation engine.
///
/// Holds the event queue and the simulated clock. Domain state lives in the
/// [`Model`]; the engine only orders and dispatches events.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with an empty event queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Schedules an event before or between runs.
    pub fn schedule(&mut self, due: SimTime, event: E) {
        self.queue.push(due, event);
    }

    /// The current simulated time (the timestamp of the last dispatched
    /// event, or zero before any dispatch).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched across all runs.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Runs until the queue drains or the model requests a stop.
    ///
    /// Returns the final simulated time.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) -> SimTime {
        self.run_until(model, SimTime::MAX)
    }

    /// Runs until the queue drains, the model requests a stop, or the next
    /// event would be later than `deadline` (events at exactly `deadline`
    /// are still dispatched).
    ///
    /// Returns the final simulated time: the time of the last dispatched
    /// event, or `deadline` if the run was cut off by it while events remain.
    pub fn run_until<M: Model<Event = E>>(&mut self, model: &mut M, deadline: SimTime) -> SimTime {
        let mut stop = false;
        while !stop {
            match self.queue.peek_time() {
                None => break,
                Some(t) if t > deadline => {
                    self.now = deadline;
                    break;
                }
                Some(_) => {}
            }
            let (t, event) = self.queue.pop().expect("peeked event must pop");
            self.now = t;
            self.dispatched += 1;
            let mut ctx = Context {
                now: t,
                seq: self.dispatched,
                queue: &mut self.queue,
                stop: &mut stop,
            };
            model.handle(&mut ctx, event);
        }
        self.now
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// Model that records every event it sees with its timestamp.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, event: u32) {
            self.seen.push((ctx.now(), event));
        }
    }

    #[test]
    fn runs_to_queue_drain() {
        let mut m = Recorder { seen: Vec::new() };
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(3), 3);
        e.schedule(SimTime::from_nanos(1), 1);
        let end = e.run(&mut m);
        assert_eq!(end, SimTime::from_nanos(3));
        assert_eq!(
            m.seen,
            vec![(SimTime::from_nanos(1), 1), (SimTime::from_nanos(3), 3)]
        );
        assert!(e.is_idle());
        assert_eq!(e.events_dispatched(), 2);
    }

    #[test]
    fn deadline_cuts_off_later_events() {
        let mut m = Recorder { seen: Vec::new() };
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(10), 10);
        e.schedule(SimTime::from_nanos(20), 20);
        e.schedule(SimTime::from_nanos(30), 30);
        let end = e.run_until(&mut m, SimTime::from_nanos(20));
        // Events at exactly the deadline dispatch; later ones stay queued.
        assert_eq!(m.seen.len(), 2);
        assert_eq!(end, SimTime::from_nanos(20));
        assert!(!e.is_idle());
        // A second run picks up the remainder.
        e.run(&mut m);
        assert_eq!(m.seen.len(), 3);
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = bool;
        fn handle(&mut self, ctx: &mut Context<'_, bool>, stop: bool) {
            if stop {
                ctx.request_stop();
            }
        }
    }

    #[test]
    fn model_can_request_stop() {
        let mut m = Stopper;
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(1), false);
        e.schedule(SimTime::from_nanos(2), true);
        e.schedule(SimTime::from_nanos(3), false);
        e.run(&mut m);
        assert_eq!(e.now(), SimTime::from_nanos(2));
        assert_eq!(e.queue.len(), 1);
    }

    struct Chainer {
        hops: u32,
    }
    impl Model for Chainer {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, hop: u32) {
            self.hops = hop;
            if hop < 4 {
                ctx.schedule_in(Duration::from_nanos(5), hop + 1);
            }
        }
    }

    #[test]
    fn events_can_chain() {
        let mut m = Chainer { hops: 0 };
        let mut e = Engine::new();
        e.schedule(SimTime::ZERO, 1);
        let end = e.run(&mut m);
        assert_eq!(m.hops, 4);
        assert_eq!(end, SimTime::from_nanos(15));
    }
}
