//! The simulation engine: a clock plus a future event list.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation engine.
///
/// `Engine` owns the simulation clock and the future event list. Drivers
/// (such as the scheduler drivers in `hawk-core`) call [`Engine::schedule`]
/// to enqueue work and run a `while let Some((t, ev)) = engine.pop()` loop;
/// popping an event advances the clock to its firing time.
///
/// The clock never moves backwards: scheduling an event in the past is a
/// logic error and panics in debug builds (it is clamped to `now` in release
/// builds so long experiment sweeps fail soft).
///
/// # Examples
///
/// ```
/// use hawk_simcore::{Engine, SimDuration, SimTime};
///
/// let mut engine: Engine<&'static str> = Engine::new();
/// engine.schedule(SimDuration::from_secs(1), "tick");
/// engine.schedule(SimDuration::from_secs(2), "tock");
///
/// let mut seen = Vec::new();
/// while let Some((t, ev)) = engine.pop() {
///     seen.push((t, ev));
///     assert_eq!(engine.now(), t);
/// }
/// assert_eq!(seen.len(), 2);
/// assert_eq!(engine.now(), SimTime::from_secs(2));
/// ```
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E: Copy> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Creates an engine whose event queue starts with room for `capacity`
    /// pending events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulation time (the firing time of the last popped
    /// event, or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// `at` must not precede the current clock; see the type-level docs.
    ///
    /// # Scheduling in the past
    ///
    /// The divergence between build profiles is intentional and part of the
    /// contract (pinned by unit tests in both profiles):
    ///
    /// * **debug builds panic** — scheduling before *now* is a logic error
    ///   in the driver, and development runs should fail at the source;
    /// * **release builds clamp to *now*** — the event fires at the current
    ///   clock (after already-pending same-time events), so multi-hour
    ///   experiment sweeps degrade by at most one event's timing instead of
    ///   aborting.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(self.not_before_now(at), event);
    }

    /// Schedules `event` at the absolute time `at`, ahead of every event
    /// already pending at that time ([`EventQueue::push_front`]); `at` is
    /// checked and clamped as in [`Engine::schedule_at`].
    ///
    /// For a source that keeps one event of a presorted stream pending and
    /// schedules the next one as it dispatches it: each lands where it
    /// would have, had the whole stream been scheduled before anything
    /// else.
    pub fn schedule_first_at(&mut self, at: SimTime, event: E) {
        self.queue.push_front(self.not_before_now(at), event);
    }

    /// `at`, checked and clamped against the clock as
    /// [`Engine::schedule_at`] documents.
    fn not_before_now(&self, at: SimTime) -> SimTime {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        at.max(self.now)
    }

    /// Removes the earliest event, advances the clock to its firing time and
    /// returns it, or returns `None` when the simulation has drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        self.processed += 1;
        Some((t, ev))
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl<E: Copy> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimDuration::from_secs(5), 1);
        e.schedule(SimDuration::from_secs(1), 2);
        assert_eq!(e.now(), SimTime::ZERO);
        let (t, ev) = e.pop().unwrap();
        assert_eq!((t, ev), (SimTime::from_secs(1), 2));
        assert_eq!(e.now(), SimTime::from_secs(1));
        // A delay scheduled now is relative to the advanced clock.
        e.schedule(SimDuration::from_secs(1), 3);
        assert_eq!(e.pop().unwrap(), (SimTime::from_secs(2), 3));
        assert_eq!(e.pop().unwrap(), (SimTime::from_secs(5), 1));
        assert!(e.pop().is_none());
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn schedule_at_absolute() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::from_secs(3), "x");
        assert_eq!(e.pending(), 1);
        assert_eq!(e.pop().unwrap(), (SimTime::from_secs(3), "x"));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn schedule_in_past_panics_in_debug() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(SimDuration::from_secs(10), "a");
        e.pop();
        e.schedule_at(SimTime::from_secs(1), "too-late");
    }

    /// The release half of the schedule-in-the-past contract: the event is
    /// clamped to *now* and fires after pending same-time events, keeping
    /// long sweeps alive. (The debug half panics; see the test above.)
    #[test]
    #[cfg(not(debug_assertions))]
    fn schedule_in_past_clamps_to_now_in_release() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(SimDuration::from_secs(10), "a");
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(10));
        e.schedule(SimDuration::ZERO, "pending-at-now");
        e.schedule_at(SimTime::from_secs(1), "too-late");
        // The clamped event fires at the clock, FIFO after the event that
        // was already pending at that time; the clock never regresses.
        assert_eq!(e.pop().unwrap(), (SimTime::from_secs(10), "pending-at-now"));
        assert_eq!(e.pop().unwrap(), (SimTime::from_secs(10), "too-late"));
        assert_eq!(e.now(), SimTime::from_secs(10));
    }

    #[test]
    fn schedule_first_at_jumps_the_events_pending_at_its_time() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(SimDuration::from_secs(1), "first");
        e.pop();
        e.schedule(SimDuration::ZERO, "pending-at-now");
        e.schedule(SimDuration::from_secs(2), "pending-later");
        e.schedule_first_at(SimTime::from_secs(3), "streamed-later");
        e.schedule_first_at(SimTime::from_secs(1), "streamed-now");
        let order: Vec<&str> = std::iter::from_fn(|| e.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(
            order,
            [
                "streamed-now",
                "pending-at-now",
                "streamed-later",
                "pending-later"
            ]
        );
    }

    #[test]
    fn zero_delay_event_fires_at_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule(SimDuration::from_secs(1), "first");
        e.pop();
        e.schedule(SimDuration::ZERO, "second");
        let (t, ev) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(ev, "second");
    }
}
